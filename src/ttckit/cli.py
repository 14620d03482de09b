"""Command-line interface.

Subcommands:

* ``simulate``: scenario JSON in, track CSV and ground-truth JSON out.
* ``estimate``: track CSV in, per-track collision estimates out (JSON),
  with the epipole found per --mode (planar horizon intersection,
  three-frame offset, or one shared least-squares epipole). Estimates
  are computed for all tracks at once: one pass of the epipole kernel
  and one of the collision-plane kernel over arrays of every track's
  pixels, each row equal to the per-track library call. A track that
  does not move between its first two frames is stationary in every
  mode. Least-squares mode fits its one epipole with the row kernel over
  the first-to-last flows of the moving tracks.
* ``cluster``: track CSV in, motion clusters out (JSON). Tracks whose
  first-to-last flow has zero norm (camera._zero_rows) are listed as
  stationary; the others are clustered by those flows.
* ``collision-map``: scenario JSON in, velocity-perturbation grid out
  (CSV).
* ``sensitivity``: stereo-vs-monocular error comparison table out (CSV).

At module level cli imports only the standard library, errors and
presets, none of which loads numpy, so --help and every usage error
run without numpy. Each command imports numpy and the layers it runs
when it runs (camera, fileio, ttc, epipole, clustering, simulate and
stereo; clustering only under --calibrate for estimate), so a command
loads only those modules. The sensitivity help text and the --preset
rig take the preset's values from presets, not from stereo.

Exit codes: 0 success, 2 usage or input validation failure, 1 internal
error. Per-track geometric degeneracies never abort a batch; they are
reported inside the result document. Every command is deterministic
under a fixed seed, and rerunning writes byte-identical files. --seed
takes a non-negative integer; estimate, cluster and sensitivity default
it to the COLLISION_PLANE_SEED environment variable, else 0, while
simulate defaults it to the scenario's rng_seed and collision-map draws
no random numbers.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import TYPE_CHECKING

from .errors import _STATUS, InsufficientData, InvalidInput, TtcError, _count, _reason_error
from .presets import PRESET_BASELINE_M, PRESET_DETECTION_ERROR_PX, PRESET_FOCAL_MM, PRESET_HEADING_DEG, PRESET_SPEED_KMH

if TYPE_CHECKING:
    from .camera import CameraIntrinsics
    from .clustering import ClusteringConfig
    from .epipole import HorizonLine
    from .stereo import StereoErrorModel

__all__ = ["main", "run"]

SEED_ENV_VAR = "COLLISION_PLANE_SEED"
PRESET_NAMES = ("approach-45deg",)
# sensitivity flags that describe the rig, which a --preset fixes
_RIG_FLAGS = ("baseline_m", "focal_px", "focal_mm", "detection_error_px", "speed_kmh", "heading_deg")


def _seed(args) -> int:
    """--seed if given, else the COLLISION_PLANE_SEED environment variable,
    else 0; a non-negative integer."""
    if args.seed is not None:
        return _count(args.seed, "--seed", 0)
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return _count(int(raw), SEED_ENV_VAR, 0)
    except ValueError:  # not an integer, or (InvalidInput) a negative one
        raise InvalidInput(f"{SEED_ENV_VAR} must be a non-negative integer, got {raw!r}") from None


def _parse_floats(text: str, allowed: tuple[int, ...], what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in allowed:
        raise InvalidInput(f"{what}: expected {' or '.join(map(str, allowed))} values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidInput(f"{what}: {exc}") from exc


def _parse_intrinsics(text: str) -> CameraIntrinsics:
    from .camera import CameraIntrinsics

    vals = _parse_floats(text, (3, 5), "--intrinsics")
    return CameraIntrinsics(focal_px=vals[0], principal_point=(vals[1], vals[2]), image_size=tuple(vals[3:]) or None)


def _epipole_doc(track_id: str | None, position, method: str, residual: float) -> dict:
    """One epipole record; track_id is None for a shared or a cluster epipole."""
    return {"track_id": track_id, "position": position, "method": method, "residual": residual}


def _horizon_doc(horizon: HorizonLine) -> dict:
    return {
        "reference": horizon.reference,
        "direction": horizon.direction,
        "fit_residual": horizon.fit_residual,
    }


def _result_skeleton(command: str, seed: int, config: dict) -> dict:
    return {
        "schema": 1,
        "command": command,
        "seed": seed,
        "config": config,
        "epipoles": [],
        "clusters": [],
        "estimates": [],
        "residuals": {},
    }


def _emit_json(document: dict, out_path: str | None) -> None:
    """Write document to out_path (fileio.write_json), or to stdout when
    out_path is None; either way each piece of the text is written as
    soon as it is encoded. A piece that fails to encode removes the
    regular file at out_path, but may leave part of the text on stdout."""
    from .fileio import _json_pieces, write_json

    if out_path is None:
        sys.stdout.writelines(_json_pieces(document))
    else:
        write_json(out_path, document)


# ------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    import dataclasses

    from .fileio import _remove_regular, read_scenario, truth_document, write_json, write_tracks_csv
    from .simulate import simulate

    scenario = read_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = _count(args.seed, "--seed", 0)
    if args.noise_sigma is not None:
        overrides["pixel_noise_sigma"] = args.noise_sigma
    if overrides:  # one replace: each derives the scenario's truth again
        scenario = dataclasses.replace(scenario, **overrides)
    tracks, truth = simulate(scenario)
    ids = [f"{truth.object_ids[obj]}-{i}" for i, obj in enumerate(truth.cluster_id.tolist())]
    write_tracks_csv(args.out_tracks, tracks, ids)
    try:
        write_json(args.out_truth, truth_document(truth, ids))
    except BaseException:  # no tracks without their truth: remove them as a failed writer would
        _remove_regular(args.out_tracks)
        raise
    return 0


# ------------------------------------------------------------- estimate

def _failed_entry(track_id: str, code: int, columns: dict, i: int, constant_bearing: str) -> dict:
    """The entry of track i, whose reason code is code (errors._REASONS),
    its message filled from the estimator's columns. A stationary track
    is classified constant_bearing, with H = 0."""
    status = _STATUS[code]
    stationary = status == "stationary"
    return {
        "track_id": track_id,
        "status": status,
        "message": str(_reason_error(code, columns, i)),
        "k": None,
        "H": 0.0 if stationary else None,
        "classification": constant_bearing if stationary else None,
    }


def _estimate_list(ids, code, columns: dict, k, H, v_g_dir, point, angles=None):
    """The estimates[] of a result document as a ttc._Rows of JSON text,
    entry i that of track ids[i]: an ok track's (code 0) from one row
    template (fileio._template) filled from k, H, v_g_dir, point and, in
    three-frame mode, the offset angles; any other track's the
    _failed_entry record, its message filled from the estimator's columns."""
    from json.encoder import encode_basestring_ascii

    import numpy as np

    from .fileio import _constant, _finite, _json, _template, _texts
    from .ttc import MotionClass, _Rows

    constant_bearing = MotionClass.CONSTANT_BEARING.value
    # the truth label's rule: the collision plane has yet to sweep the camera
    classification = (_json(MotionClass.RECEDING.value), _json(MotionClass.APPROACHING.value))  # by k > 0
    fields = {
        "track_id": "%s", "status": _constant("ok"), "k": "%r", "H": "%r", "classification": "%s",
        "v_g_dir": "[%r, %r, %r]", "point": "[%r, %r, %r]",
    }
    if angles is not None:
        fields["offset_angle_rad"] = "%r"
    template = _template(fields)

    def rows(start: int, stop: int) -> list[str]:
        codes = code[start:stop].tolist()
        ok = start + np.flatnonzero(code[start:stop] == 0)
        k_ok, h_ok, v_ok, point_ok = k[ok], H[ok], v_g_dir[ok], point[ok]
        values = {
            "track_id": [map(encode_basestring_ascii, map(ids.__getitem__, ok.tolist()))],
            "k": [k_ok.tolist()],
            "H": [h_ok.tolist()],
            "classification": [map(classification.__getitem__, (k_ok > 0.0).tolist())],
            "v_g_dir": v_ok.T.tolist(),
            "point": point_ok.T.tolist(),
        }
        _finite(k_ok, h_ok, v_ok, point_ok)
        if angles is not None:
            _finite(angles[ok])
            values["offset_angle_rad"] = [angles[ok].tolist()]
        texts = iter(_texts(template, values))
        return [
            _json(_failed_entry(ids[i], code_i, columns, i, constant_bearing)) if code_i else next(texts)
            for i, code_i in enumerate(codes, start)
        ]

    return _Rows(len(ids), rows)


def _epipole_list(ids, index, epipoles, residual, method: str):
    """The epipoles[] of a result document as a ttc._Rows of JSON text,
    one per track of index, from one row template (fileio._template):
    the track's id, its epipole of epipoles (N, 2) and residual, and the
    method, encoded once."""
    from json.encoder import encode_basestring_ascii

    from .fileio import _constant, _finite, _template, _texts
    from .ttc import _Rows

    template = _template({"track_id": "%s", "position": "[%r, %r]", "method": _constant(method), "residual": "%r"})

    def rows(start: int, stop: int) -> list[str]:
        chunk = index[start:stop]
        position, r = epipoles[chunk], residual[chunk]
        _finite(position, r)
        return _texts(template, {
            "track_id": [map(encode_basestring_ascii, map(ids.__getitem__, chunk.tolist()))],
            "position": position.T.tolist(),
            "residual": [r.tolist()],
        })

    return _Rows(len(index), rows)


def _cluster_moving(tracks, ids, intrinsics, config: ClusteringConfig):
    """Cluster the tracks whose first-to-last flow is not zero
    (camera._zero_rows), since a zero flow defines no motion line.

    Returns (clusters, documents, outliers, stationary): the
    MotionClusters, a document of each with its member_ids, epipole and
    mean_ttc, and the ids of the outlier and of the stationary tracks.
    """
    import numpy as np

    from .camera import _zero_rows
    from .clustering import cluster_flows

    zero = _zero_rows(tracks.pixels(-1) - tracks.pixels(0))
    moving = np.flatnonzero(~zero)
    clusters, outliers = cluster_flows(tracks.take(moving), config=config, intrinsics=intrinsics)
    documents = [
        {
            "member_ids": [ids[moving[m]] for m in c.member_indices],
            "epipole": _epipole_doc(None, c.epipole.position, c.epipole.method.value, c.epipole.residual),
            "mean_ttc": c.mean_ttc,
        }
        for c in clusters
    ]
    stationary = [ids[i] for i in np.flatnonzero(zero).tolist()]
    return clusters, documents, [ids[moving[i]] for i in outliers], stationary


def _cmd_estimate(args) -> int:
    import numpy as np

    from .epipole import (
        Epipole,
        EpipoleMethod,
        HorizonLine,
        _flow_lines,
        _least_squares_epipole,
        _offset_three_frames,
        _planar_epipoles,
        calibrate_horizon,
    )
    from .fileio import read_tracks_csv
    from .ttc import _collision_rows

    intrinsics = _parse_intrinsics(args.intrinsics)
    seed = _seed(args)
    ids, tracks = read_tracks_csv(args.tracks)
    if args.mode in ("planar", "three-frame") and not (args.horizon or args.calibrate):
        raise InvalidInput(f"--mode {args.mode} needs --horizon a,b or --calibrate")

    document = _result_skeleton(
        "estimate",
        seed,
        {
            "mode": args.mode,
            "intrinsics": args.intrinsics,
            "calibrated": bool(args.calibrate),
        },
    )
    # Every track at once: pixel i of each track as one (N, 2) array.
    n = len(tracks)
    first, second, last = (tracks.pixels(i) for i in (0, 1, -1))
    horizon = None
    if args.calibrate:
        from .clustering import ClusteringConfig

        config = ClusteringConfig(rng_seed=seed)
        clusters, document["clusters"], _, _ = _cluster_moving(tracks, ids, intrinsics, config)
        if len(clusters) < 2:
            raise InsufficientData(f"horizon calibration needs >= 2 motion clusters, found {len(clusters)}")
        horizon = calibrate_horizon([c.epipole for c in clusters])
    elif args.horizon:
        a, b = _parse_floats(args.horizon, (2,), "--horizon")
        horizon = HorizonLine.from_slope_intercept(a, b)
    if horizon is not None:
        document["horizon"] = _horizon_doc(horizon)

    method = None  # the "method" string of per-track epipoles
    angles = None  # the three-frame offset angles
    if args.mode == "planar":
        # the full-span flow: less noise than the first pair, same epipolar line
        epipoles, code, columns = _planar_epipoles(first, last, horizon)
        residual = np.zeros(n)
        method = EpipoleMethod.HORIZON_INTERSECTION.value
    elif args.mode == "three-frame":
        angles, epipoles, residual, code, columns = _offset_three_frames(tracks, horizon, intrinsics)
        method = EpipoleMethod.THREE_FRAME_OFFSET.value
    else:
        # One epipole for the whole set: least squares assumes all
        # tracks share a single rigid relative motion.
        normals, offsets, zero = _flow_lines(first, last)
        # a zero flow defines no line to fit
        position, residual, code = _least_squares_epipole(normals[~zero], offsets[~zero])
        if code:
            raise _reason_error(code, {"flows": [int((~zero).sum())]})
        shared_epipole = Epipole(position=position, method=EpipoleMethod.LEAST_SQUARES, residual=residual)
        document["epipoles"].append(_epipole_doc(
            None, shared_epipole.position, shared_epipole.method.value, shared_epipole.residual
        ))
        epipoles, code, columns = shared_epipole.position, 0, {}

    k, H, v_g_dir, _, point, pair_code = _collision_rows(first, second, epipoles, intrinsics)
    # an epipole's reason comes first; the pair's messages read no column
    code = np.where(code, code, pair_code)
    ok = np.flatnonzero(code == 0)

    document["estimates"] = _estimate_list(ids, code, columns, k, H, v_g_dir, point, angles)
    if method is None:
        residuals = [residual]  # the shared epipole's
    else:  # one epipole per ok track
        document["epipoles"] = _epipole_list(ids, ok, epipoles, residual, method)
        residuals = residual[ok]
    document["residuals"] = {
        "epipole_residual_mean": float(np.mean(residuals)) if len(residuals) else None,
        "ok_tracks": len(ok),
        "total_tracks": len(tracks),
    }
    _emit_json(document, args.out)
    return 0


# -------------------------------------------------------------- cluster

def _cmd_cluster(args) -> int:
    from .clustering import ClusteringConfig
    from .fileio import read_tracks_csv

    intrinsics = _parse_intrinsics(args.intrinsics)
    seed = _seed(args)
    ids, tracks = read_tracks_csv(args.tracks)
    config = ClusteringConfig(
        eps_dist=args.eps_dist,
        eps_ttc=args.eps_ttc,
        max_iterations=args.max_iterations,
        min_cluster_size=args.min_size,
        rng_seed=seed,
    )
    clusters, documents, outliers, stationary = _cluster_moving(tracks, ids, intrinsics, config)
    document = _result_skeleton(
        "cluster",
        seed,
        {
            "eps_dist": config.eps_dist,
            "eps_ttc": config.eps_ttc,
            "max_iterations": config.max_iterations,
            "min_cluster_size": config.min_cluster_size,
        },
    )
    for c, cluster_doc in zip(clusters, documents):
        cluster_doc["ttc_values"] = c.ttc_values
    document["clusters"] = documents
    document["epipoles"] = [cluster_doc["epipole"] for cluster_doc in documents]
    document["outliers"] = outliers
    document["stationary"] = stationary
    document["residuals"] = {
        "clustered_tracks": int(sum(len(c.member_indices) for c in clusters)),
        "outlier_tracks": len(outliers),
    }
    _emit_json(document, args.out)
    return 0


# -------------------------------------------------------- collision map

def _cmd_collision_map(args) -> int:
    from .fileio import read_scenario, write_collision_map_csv
    from .simulate import GridSpec, collision_map

    scenario = read_scenario(args.scenario)
    grid = GridSpec(*_parse_floats(args.grid, (4,), "--grid"))
    cmap = collision_map(scenario, grid, collision_radius=args.radius)
    write_collision_map_csv(args.out, cmap)
    return 0


# ---------------------------------------------------------- sensitivity

def _build_sweep_model(args) -> StereoErrorModel:
    from .stereo import StereoErrorModel, focal_px_from_metric

    focal_mm = args.focal_mm
    if args.preset is not None:
        given = [f"--{name.replace('_', '-')}" for name in _RIG_FLAGS if getattr(args, name) is not None]
        if given:
            raise InvalidInput(f"--preset {args.preset} fixes the rig; drop {', '.join(given)}")
        if args.pixel_pitch_um is None:
            raise InvalidInput("--preset uses a metric focal length; --pixel-pitch-um is required")
        focal_mm = PRESET_FOCAL_MM
    if (args.focal_px is None) == (focal_mm is None):
        raise InvalidInput("give exactly one of --focal-px or --focal-mm")
    if focal_mm is not None:
        if args.pixel_pitch_um is None:
            raise InvalidInput("--focal-mm needs --pixel-pitch-um to convert to pixels")
        focal_px = focal_px_from_metric(focal_mm, args.pixel_pitch_um)
    else:
        focal_px = args.focal_px
    # a rig flag left out takes the approach-45deg preset's value, so the
    # preset is these defaults with its metric lens
    return StereoErrorModel(
        baseline_m=PRESET_BASELINE_M if args.baseline_m is None else args.baseline_m,
        focal_px=focal_px,
        detection_error_px=(
            PRESET_DETECTION_ERROR_PX if args.detection_error_px is None else args.detection_error_px
        ),
        speed_mps=(PRESET_SPEED_KMH if args.speed_kmh is None else args.speed_kmh) / 3.6,
        heading_deg=PRESET_HEADING_DEG if args.heading_deg is None else args.heading_deg,
    )


def _cmd_sensitivity(args) -> int:
    from .fileio import write_sensitivity_csv
    from .stereo import orientation_error_sweep

    model = _build_sweep_model(args)
    seed = _seed(args)
    try:
        z_values = [float(p) for p in args.z_values.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidInput(f"--z-values: {exc}") from exc
    if not z_values:
        raise InvalidInput("--z-values: need at least one depth")
    table = orientation_error_sweep(
        model,
        z_values,
        frame_dt=args.frame_dt,
        track_frames=args.track_frames,
        trials=args.trials,
        rng_seed=seed,
    )
    write_sensitivity_csv(args.out, table)
    return 0


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Reads a word such as -0.1,360 as a value, not as an option.

    argparse takes a word that starts with '-' for an option unless it is
    one negative number, which made --horizon -0.1,360 a usage error. No
    option name holds a comma, so a word that has one before any '=' is
    a comma-list value; every other word is read as before. Subparsers
    are built with this class too.
    """

    def _parse_optional(self, arg_string):
        if "," in arg_string.partition("=")[0]:
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ttckit",
        description=(
            "Monocular time-to-collision toolkit: simulate synthetic point "
            "tracks, estimate collision parameters and epipoles, cluster "
            "independent motions, and map collision outcomes over velocity "
            "changes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scenario to tracks + ground truth")
    p_sim.add_argument("scenario", help="scenario JSON file")
    p_sim.add_argument("--out-tracks", required=True, help="output track CSV")
    p_sim.add_argument("--out-truth", required=True, help="output ground-truth JSON")
    p_sim.add_argument("--seed", type=int, default=None, help="override scenario rng_seed")
    p_sim.add_argument(
        "--noise-sigma", type=float, default=None, help="override scenario pixel noise"
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="per-track collision estimates from a track CSV")
    p_est.add_argument("tracks", help="track CSV file")
    p_est.add_argument(
        "--intrinsics", required=True, help="f,u0,v0[,width,height] (focal in pixels)"
    )
    p_est.add_argument(
        "--mode",
        choices=("planar", "three-frame", "least-squares"),
        default="planar",
        help="epipole estimator (default: planar)",
    )
    group = p_est.add_mutually_exclusive_group()
    group.add_argument("--horizon", help="horizon line v = a*u + b, given as a,b")
    group.add_argument(
        "--calibrate",
        action="store_true",
        help="derive the horizon from clustered epipoles before estimating",
    )
    p_est.add_argument("--seed", type=int, default=None)
    p_est.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    p_clu = sub.add_parser("cluster", help="group tracks into independent motions")
    p_clu.add_argument("tracks", help="track CSV file")
    p_clu.add_argument(
        "--intrinsics", required=True, help="f,u0,v0[,width,height] (focal in pixels)"
    )
    p_clu.add_argument("--eps-dist", type=float, default=2.0, help="inlier line distance, px")
    p_clu.add_argument(
        "--eps-ttc",
        type=float,
        default=None,
        help="TTC agreement threshold, frames (default: adaptive)",
    )
    p_clu.add_argument("--min-size", type=int, default=3, help="smallest reportable cluster")
    p_clu.add_argument("--max-iterations", type=int, default=500)
    p_clu.add_argument("--seed", type=int, default=None)
    p_clu.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p_clu.set_defaults(func=_cmd_cluster)

    p_map = sub.add_parser("collision-map", help="collision state over velocity changes")
    p_map.add_argument("scenario", help="scenario JSON file")
    p_map.add_argument(
        "--grid",
        required=True,
        help="lat_extent,fwd_extent,lat_cells,fwd_cells (cells odd)",
    )
    p_map.add_argument("--radius", type=float, default=2.0, help="collision radius, meters")
    p_map.add_argument("--out", required=True, help="output CSV")
    p_map.set_defaults(func=_cmd_collision_map)

    p_sen = sub.add_parser("sensitivity", help="stereo vs collision-plane error table")
    p_sen.add_argument("--preset", choices=PRESET_NAMES, default=None)
    p_sen.add_argument(
        "--baseline-m", type=float, default=None, help=f"stereo baseline, meters (default: {PRESET_BASELINE_M})"
    )
    p_sen.add_argument("--focal-px", type=float, default=None)
    p_sen.add_argument("--focal-mm", type=float, default=None)
    p_sen.add_argument(
        "--pixel-pitch-um",
        type=float,
        default=None,
        help="sensor pixel pitch; required with a metric focal length",
    )
    p_sen.add_argument(
        "--detection-error-px",
        type=float,
        default=None,
        help=f"per-detection pixel error (default: {PRESET_DETECTION_ERROR_PX})",
    )
    p_sen.add_argument(
        "--speed-kmh", type=float, default=None, help=f"object speed, km/h (default: {PRESET_SPEED_KMH})"
    )
    p_sen.add_argument(
        "--heading-deg",
        type=float,
        default=None,
        help=f"motion direction from the optical axis, degrees (default: {PRESET_HEADING_DEG})",
    )
    p_sen.add_argument(
        "--z-values", default="10,20,40,60,80,100", help="comma-separated depths in meters"
    )
    p_sen.add_argument("--trials", type=int, default=200)
    p_sen.add_argument("--track-frames", type=int, default=8)
    p_sen.add_argument("--frame-dt", type=float, default=1.0 / 12.0)
    p_sen.add_argument("--seed", type=int, default=None)
    p_sen.add_argument("--out", required=True, help="output CSV")
    p_sen.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInput, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TtcError as exc:
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry point of ``python -m ttckit`` and the ``ttckit``
    script: run main() and exit with its code.

    Before main() loads numpy it sets OPENBLAS_NUM_THREADS=1, unless one
    of the variables OpenBLAS reads for its thread count
    (OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, OMP_NUM_THREADS) is already
    set, so a user's value wins. numpy's OpenBLAS otherwise starts a
    worker thread per extra CPU when it loads; no product in ttckit is
    large enough for it to help, and starting it and waking it cost each
    command tens of milliseconds. The variable only takes effect if
    numpy is not yet loaded, which is why nothing cli imports at module
    level loads it.

    Before exiting it freezes the collector (gc.freeze), so the
    collection the interpreter runs at exit skips every object the
    command leaves, most of them numpy's and the stdlib's. Objects in
    reference cycles are then released with the process, not finalized;
    no ttckit object holds an open file past main(). atexit handlers,
    the flush of stdout and stderr and the exit code are those of a
    plain sys.exit. main() leaves the collector and os.environ alone,
    for callers in the same process.
    """
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    gc.freeze()
    sys.exit(code)
