"""Seeded scene generators for the three workloads.

Each generator takes a numpy Generator and returns plain arrays; the same
seed gives the same scene. Nothing here imports ttckit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle

FOCAL = 800.0
PP = np.array([640.0, 360.0])
INTRINSICS_ARG = "800,640,360"
HORIZON_ARG = "0,360"  # v = 0 * u + 360: the level horizon through the principal point

CAMERA_HEIGHT_M = 1.4
EGO_SPEED = 1.2  # metres per frame: 12 m/s at 10 frames per second


@dataclass
class Scene:
    """Rigid objects in the camera frame, each with its own velocity.

    object_ids[j] names object j; points[i] starts at the camera-frame
    position of point i and moves with velocities[owner[i]] minus
    camera_velocity per frame.
    """

    object_ids: list[str]
    velocities: np.ndarray  # (objects, 3)
    owner: np.ndarray  # (points,) index into object_ids
    points: np.ndarray  # (points, 3)
    camera_velocity: np.ndarray
    frame_count: int

    @property
    def relative(self) -> np.ndarray:
        return self.velocities[self.owner] - self.camera_velocity

    def object_points(self, j: int) -> np.ndarray:
        return self.points[self.owner == j]

    def positions(self) -> np.ndarray:
        """(points, frames, 3) camera-frame positions."""
        steps = np.arange(self.frame_count, dtype=np.float64)
        return self.points[:, np.newaxis, :] + steps[np.newaxis, :, np.newaxis] * self.relative[:, np.newaxis, :]


def _road_agents(rng: np.random.Generator, count: int, kind: str):
    """Box-shaped agents on the ground plane: (centres, sizes, velocities)."""
    z = rng.uniform(20.0, 80.0, count)
    if kind == "oncoming":
        x = rng.uniform(-11.0, -2.5, count)
        v = np.column_stack([rng.uniform(-0.05, 0.05, count), np.zeros(count), -rng.uniform(0.6, 1.6, count)])
        size = np.array([1.8, 1.5, 4.2])
    else:  # crossing
        x = rng.uniform(-25.0, 25.0, count)
        side = np.sign(rng.uniform(-1.0, 1.0, count))
        v = np.column_stack([-side * rng.uniform(0.4, 1.4, count), np.zeros(count), np.zeros(count)])
        size = np.array([4.2, 1.5, 1.8])
    centres = np.column_stack([x, np.full(count, CAMERA_HEIGHT_M - size[1] / 2.0), z])
    return centres, size, v


def _keep_road_point(p: np.ndarray, v_rel: np.ndarray, frame_count: int) -> np.ndarray:
    """Points every estimator handles: approaching, ahead, off the horizon.

    The collision-plane sweep stays at least four frames past the last
    frame, the point stays 3 m in front of the camera, each pixel stays
    2 px off the horizon row, the flow line crosses the horizon at 2
    degrees or more, and the point moves 0.5 px or more away from its
    epipole over the track.
    """
    k0 = oracle.frames_to_sweep(p, v_rel)
    last = p + (frame_count - 1) * v_rel
    pix0 = oracle.project(p, FOCAL, PP)
    pix1 = oracle.project(last, FOCAL, PP)
    epi = oracle.epipole(v_rel, FOCAL, PP)
    flow = pix1 - pix0
    slope = np.abs(flow[:, 1]) / np.maximum(np.linalg.norm(flow, axis=1), 1e-300)
    expansion = np.linalg.norm(pix1 - epi, axis=1) - np.linalg.norm(pix0 - epi, axis=1)
    return (
        (k0 > frame_count + 3.0)
        & (last[:, 2] > 3.0)
        & (np.minimum(np.abs(pix0[:, 1] - PP[1]), np.abs(pix1[:, 1] - PP[1])) > 2.0)
        & (slope > np.sin(np.deg2rad(2.0)))
        & (expansion > 0.5)
        & (oracle.miss_frames(p, v_rel) > 0.2)
    )


def road_scene(rng: np.random.Generator, tracks: int, frame_count: int = 6) -> Scene:
    """Ego-vehicle road scene: static background, oncoming and crossing cars.

    About half the points are static background (road surface and
    roadside structures), a quarter sit on oncoming cars and a quarter on
    crossing cars. Every object moves on the ground plane, so every
    epipole lies on the horizon row.
    """
    camera_velocity = np.array([0.0, 0.0, EGO_SPEED])
    ids: list[str] = []
    velocities: list[np.ndarray] = []
    owner_parts = []
    point_parts = []

    def take(candidates: np.ndarray, object_id: str, velocity: np.ndarray, want: int) -> int:
        keep = candidates[_keep_road_point(candidates, velocity - camera_velocity, frame_count)][:want]
        if len(keep):
            if object_id not in ids:
                ids.append(object_id)
                velocities.append(velocity)
            point_parts.append(keep)
            owner_parts.append(np.full(len(keep), ids.index(object_id)))
        return len(keep)

    n_static = tracks // 2
    got = 0
    while got < n_static:
        m = 2 * (n_static - got)
        ground = np.column_stack([rng.uniform(-12.0, 12.0, m), np.full(m, CAMERA_HEIGHT_M), rng.uniform(12.0, 80.0, m)])
        side = np.sign(rng.uniform(-1.0, 1.0, m))
        walls = np.column_stack([side * rng.uniform(6.0, 20.0, m), rng.uniform(-6.0, CAMERA_HEIGHT_M, m), rng.uniform(12.0, 80.0, m)])
        candidates = np.where(rng.uniform(size=m)[:, np.newaxis] < 0.5, ground, walls)
        got += take(candidates, "static", np.zeros(3), n_static - got)

    for kind, share in (("oncoming", (tracks - n_static) // 2), ("crossing", tracks - n_static - (tracks - n_static) // 2)):
        per_agent = 60
        got = 0
        while got < share:
            centres, size, v = _road_agents(rng, 1, kind)
            box = centres[0] + rng.uniform(-0.5, 0.5, (per_agent, 3)) * size
            got += take(box, f"{kind}{len(ids)}", v[0], min(per_agent, share - got))
    owner = np.concatenate(owner_parts)
    order = np.argsort(owner, kind="stable")
    return Scene(
        object_ids=ids,
        velocities=np.array(velocities),
        owner=owner[order],
        points=np.concatenate(point_parts)[order],
        camera_velocity=camera_velocity,
        frame_count=frame_count,
    )


def motion_scene(rng: np.random.Generator, objects: int, per_object: int, frame_count: int = 9) -> Scene:
    """Compact rigid objects approaching a static camera, one epipole each.

    The epipoles sit evenly around a 260 px ring about the principal
    point (at least 260 px apart for six objects), and each object is a
    small box whose extent along its motion is short next to its
    time to collision, so one object has one consistent TTC.
    """
    turn = rng.uniform(0.0, 2.0 * np.pi)
    angles = turn + 2.0 * np.pi * np.arange(objects) / objects
    offsets = 260.0 * np.column_stack([np.cos(angles), np.sin(angles)])  # epipole - pp, px
    speeds = rng.uniform(0.8, 1.2, objects)
    velocities = -speeds[:, np.newaxis] * np.column_stack([offsets / FOCAL, np.ones(objects)])
    owner = np.repeat(np.arange(objects), per_object)
    points = np.empty((objects * per_object, 3))
    for j in range(objects):
        while True:
            # centre: depth 18-30 m, seen 60-220 px from its own epipole
            z = rng.uniform(18.0, 30.0)
            pixel = PP + offsets[j] + rng.uniform(60.0, 220.0) * _unit(rng.uniform(0.0, 2.0 * np.pi))
            centre = np.array([*(pixel - PP) * z / FOCAL, z])
            box = centre + rng.uniform(-0.5, 0.5, (per_object, 3)) * np.array([1.6, 1.2, 0.6])
            k0 = oracle.frames_to_sweep(box, velocities[j])
            pix = oracle.project(box, FOCAL, PP)
            if k0.min() > frame_count + 3.0 and np.linalg.norm(pix - PP - offsets[j], axis=1).min() > 20.0:
                break
        points[owner == j] = box
    return Scene(
        object_ids=[f"obj{j}" for j in range(objects)],
        velocities=velocities,
        owner=owner,
        points=points,
        camera_velocity=np.zeros(3),
        frame_count=frame_count,
    )


def planning_scene(rng: np.random.Generator, objects: int, per_object: int, frame_count: int = 30) -> Scene:
    """Near-field road scene for the collision map: what a manoeuvre must clear.

    The ego camera drives forward; a third of the objects stand still on
    the road ahead, a third come the other way in the next lane and a
    third cross in front, all within 40 m.
    """
    camera_velocity = np.array([0.0, 0.0, EGO_SPEED])
    velocities = np.zeros((objects, 3))
    owner = np.repeat(np.arange(objects), per_object)
    points = np.empty((objects * per_object, 3))
    for j in range(objects):
        kind = j % 3
        z = rng.uniform(8.0, 40.0)
        if kind == 0:
            x = rng.uniform(-4.0, 4.0)
        elif kind == 1:
            x = rng.uniform(-5.0, -2.5)
            velocities[j] = [0.0, 0.0, -rng.uniform(0.6, 1.4)]
        else:
            x = rng.uniform(-15.0, 15.0)
            velocities[j] = [-np.sign(x) * rng.uniform(0.4, 1.2), 0.0, 0.0]
        centre = np.array([x, CAMERA_HEIGHT_M - 0.75, z])
        points[owner == j] = centre + rng.uniform(-0.5, 0.5, (per_object, 3)) * np.array([1.8, 1.5, 1.8])
    return Scene(
        object_ids=[f"agent{j}" for j in range(objects)],
        velocities=velocities,
        owner=owner,
        points=points,
        camera_velocity=camera_velocity,
        frame_count=frame_count,
    )


def _unit(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])
