"""Acceptance gate: eight shipping criteria, one printed verdict each.

Every test prints exactly one line of the form

    ACCEPTANCE <n> PASS|FAIL - <description>

before asserting, so a full run always shows the complete scoreboard.
Tolerances are stated inline; helpers are reused from the unit-test
modules to keep oracles identical across suites.
"""

import time

import numpy as np
import pytest

from conftest import (
    oracle_epipole,
    random_approach_scenario,
    wrap_half_pi,
)
from test_clustering import reference_consensus, triple_object_scenario, two_frame_tracks, two_object_flows
from test_simulate import reduce_truth, wall_scenario

from ttckit import (
    CameraIntrinsics,
    ClusteringConfig,
    FlowVector,
    GridSpec,
    HorizonLine,
    Scenario,
    SceneObject,
    cluster_flows,
    collision_estimate,
    collision_map,
    epipole_least_squares,
    epipole_offset_three_frames,
    line_angle_frame,
    planar_epipole,
    preset_approach_45deg,
    simulate,
    stereo_depth_error,
    disparity_px,
    orientation_error_sweep,
)
from ttckit.cli import main
from ttckit.errors import DegenerateConfiguration, ParallelToHorizon, SingularGeometry
from ttckit.fileio import (
    read_tracks_csv,
    write_scenario,
    write_sensitivity_csv,
    write_tracks_csv,
)


def report(num, description, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {verdict} - {description}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def rel_err(est, true):
    return abs(est - true) / max(abs(true), 1e-300)


def test_criterion_1_oracle_closure():
    """(k, H) and epipoles close against simulator truth on random scenes."""
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    horizon = HorizonLine.level(intr.v0)
    master = np.random.default_rng(20260819)
    failures = []
    n_scenarios = 1000
    epipole_checks = 0
    estimate_checks = 0
    start = time.perf_counter()
    i = 0
    resamples = 0
    while i < n_scenarios:
        planar = i % 2 == 0
        scenario = random_approach_scenario(
            master, intr, planar=planar,
            n_objects=1 + i % 2, n_points=3 + i % 3,
        )
        tracks, truth = simulate(scenario)
        groups = {}
        for j, pt in enumerate(truth.points):
            groups.setdefault(pt.object_id, []).append(j)
        try:
            flow_groups = [
                [FlowVector.from_track(tracks[j]) for j in group]
                for group in groups.values()
            ]
            shared = [epipole_least_squares(flows) for flows in flow_groups]
        except SingularGeometry:
            # an object drew a mutually parallel flow bundle, which the
            # estimator declines by contract: redraw the scene
            resamples += 1
            if resamples > 50:
                failures.append("more than 50 singular redraws")
                break
            continue
        i += 1
        for group, flows, shared_est in zip(groups.values(), flow_groups, shared):
            e_true = np.asarray(truth.points[group[0]].epipole, dtype=float)

            estimates = [shared_est.position]
            if planar:
                # pick the flow least parallel to the horizon for the
                # single-flow planar construction
                steep_idx = max(
                    range(len(flows)), key=lambda idx: abs(flows[idx].direction[1])
                )
                try:
                    estimates.append(planar_epipole(flows[steep_idx], horizon).position)
                except ParallelToHorizon:
                    pass
                if i % 5 == 0:
                    steep_j = group[steep_idx]
                    try:
                        _, est3 = epipole_offset_three_frames(
                            tracks[steep_j], horizon, intr
                        )
                        estimates.append(est3.position)
                    except (ParallelToHorizon, DegenerateConfiguration):
                        pass
            for est_pos in estimates:
                epipole_checks += 1
                err = float(np.max(np.abs(est_pos - e_true)))
                if err > 1e-6:
                    failures.append(f"scenario {i}: epipole off by {err:.3e} px")

            e_shared = estimates[0]
            for j in group:
                pt = truth.points[j]
                est = collision_estimate(tracks[j], e_shared, intr)
                estimate_checks += 1
                if rel_err(est.k, pt.k0) > 1e-6:
                    failures.append(f"scenario {i}: k {est.k} vs {pt.k0}")
                if rel_err(est.H, pt.H) > 1e-6 and abs(est.H - pt.H) > 1e-9:
                    failures.append(f"scenario {i}: H {est.H} vs {pt.H}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(
        1,
        f"oracle closure: {estimate_checks} (k,H) and {epipole_checks} epipole checks "
        f"over {n_scenarios} noise-free scenes within 1e-6 in {elapsed:.1f}s",
        failures,
    )


def test_criterion_2_hand_anchor(tmp_path):
    """Point (1,0,10) approached head-on: track 80 -> 800/9 px, k=10, H=1."""
    intr = CameraIntrinsics(
        focal_px=800.0, principal_point=(0.0, 0.0), allow_off_center=True
    )
    obj = SceneObject("anchor", np.array([[1.0, 0.0, 10.0]]), np.array([0.0, 0.0, -1.0]))
    scenario = Scenario(
        intrinsics=intr, objects=(obj,), camera_velocity=np.zeros(3), frame_count=2
    )
    failures = []
    tracks, truth = simulate(scenario)
    csv_path = tmp_path / "anchor.csv"
    write_tracks_csv(csv_path, tracks, ["anchor-0"])
    _, tracks = read_tracks_csv(csv_path)

    track = tracks[0]
    expected_track = np.array([[80.0, 0.0], [800.0 / 9.0, 0.0]])
    if not np.allclose(track.positions, expected_track, atol=1e-9):
        failures.append(f"track {track.positions.tolist()} != 80 -> 88.888...")
    pt = truth.points[0]
    if pt.epipole is None or not np.allclose(pt.epipole, [0.0, 0.0], atol=1e-12):
        failures.append(f"truth epipole {pt.epipole} != (0, 0)")
    est = collision_estimate(track, np.array([0.0, 0.0]), intr)
    if abs(est.k - 10.0) > 1e-9:
        failures.append(f"k {est.k} != 10")
    if abs(est.H - 1.0) > 1e-9:
        failures.append(f"H {est.H} != 1")
    report(2, "hand anchor (1,0,10) at v=(0,0,-1), f=800: k=10, H=1 within 1e-9", failures)


def test_criterion_3_planar_reduction():
    """Horizon-offset angle: 0 on-horizon within 1e-9, truth off-horizon within 1e-6."""
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    horizon = HorizonLine.level(intr.v0)
    failures = []
    on_cases = 0
    off_cases = 0

    def one_point_track(p, v):
        obj = SceneObject("p", np.array([p], dtype=float), np.array(v, dtype=float))
        scenario = Scenario(
            intrinsics=intr, objects=(obj,), camera_velocity=np.zeros(3), frame_count=3
        )
        tracks, truth = simulate(scenario)
        return tracks[0], np.asarray(truth.points[0].epipole, dtype=float)

    points = [(1.0, 0.8, 18.0), (-0.9, 1.1, 22.0)]
    for p in points:
        for vx in (-0.4, -0.2, 0.0, 0.2, 0.4):
            track, e_true = one_point_track(p, (vx, 0.0, -1.0))
            x, est = epipole_offset_three_frames(track, horizon, intr)
            on_cases += 1
            if abs(x) > 1e-9:
                failures.append(f"on-horizon vx={vx}: x={x:.3e}")
            if float(np.max(np.abs(est.position - e_true))) > 1e-6:
                failures.append(f"on-horizon vx={vx}: epipole off")

    for p in points:
        for vx in (-0.3, 0.0, 0.3):
            for vy in (-0.2, -0.12, -0.06, 0.06, 0.12, 0.2):
                track, e_true = one_point_track(p, (vx, vy, -1.0))
                anchor = planar_epipole(FlowVector.from_track(track), horizon)
                frame = line_angle_frame(track.pixel(0), track.pixel(1), intr)
                x_true = wrap_half_pi(
                    frame.angle_of(anchor.position) - frame.angle_of(e_true)
                )
                x, _est = epipole_offset_three_frames(track, horizon, intr)
                off_cases += 1
                if abs(x - x_true) > 1e-6:
                    failures.append(
                        f"off-horizon v=({vx},{vy}): x={x:.9f} truth={x_true:.9f}"
                    )
    report(
        3,
        f"planar reduction: |x|<=1e-9 on {on_cases} on-horizon tracks, "
        f"x within 1e-6 rad of simulator truth on {off_cases} off-horizon tracks",
        failures,
    )


def test_criterion_4_frame_consistency():
    """Collision counts from consecutive pairs differ by exactly one frame."""
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    master = np.random.default_rng(4040)
    failures = []
    pair_checks = 0
    for i in range(100):
        scenario = random_approach_scenario(
            master, intr, planar=i % 2 == 0, n_points=3, frame_count=5
        )
        tracks, truth = simulate(scenario)
        for track, pt in zip(tracks, truth.points):
            e_true = np.asarray(pt.epipole, dtype=float)
            ks = [
                collision_estimate(track, e_true, intr, pair_index=idx).k
                for idx in range(len(track) - 1)
            ]
            for a, b in zip(ks, ks[1:]):
                pair_checks += 1
                if abs((a - b) - 1.0) > 1e-9:
                    failures.append(f"scenario {i}: k step {a - b}")
    report(
        4,
        f"frame consistency: k(t,t+1) - k(t+1,t+2) = 1 within 1e-9 "
        f"across {pair_checks} consecutive-pair checks",
        failures,
    )


def test_criterion_5_clustering():
    """Segmentation: >=95% exact over 200 trials; RANSAC == brute force when small."""
    failures = []
    expected = {
        frozenset(range(0, 8)),
        frozenset(range(8, 16)),
        frozenset(range(16, 24)),
    }
    exact = 0
    trials = 200
    for seed in range(trials):
        scenario = triple_object_scenario(seed=seed, noise=0.3)
        tracks, _ = simulate(scenario)
        clusters, outliers = cluster_flows(
            tracks,
            config=ClusteringConfig(rng_seed=seed),
            intrinsics=scenario.intrinsics,
        )
        got = {frozenset(c.member_indices) for c in clusters}
        exact += got == expected and outliers == ()
    if exact < 0.95 * trials:
        failures.append(f"exact membership in only {exact}/{trials} trials")

    flows, _, intrinsics = two_object_flows(n_points=5)
    config = ClusteringConfig()
    clusters, outliers = cluster_flows(two_frame_tracks(flows), config=config, intrinsics=intrinsics)
    remaining = list(range(len(flows)))
    reference = []
    while len(remaining) >= config.min_cluster_size:
        best = reference_consensus(flows, remaining, intrinsics, config)
        if best is None:
            break
        members, k_values = best
        reference.append((tuple(int(m) for m in members), k_values))
        remaining = [i for i in remaining if i not in set(members)]
    if len(clusters) != len(reference):
        failures.append(f"{len(clusters)} clusters vs {len(reference)} brute-force")
    else:
        for cluster, (members, k_values) in zip(clusters, reference):
            if cluster.member_indices != members:
                failures.append(f"members {cluster.member_indices} != {members}")
            elif not np.allclose(cluster.ttc_values, k_values, rtol=1e-9):
                failures.append("cluster TTC values differ from brute force")
        if outliers != tuple(remaining):
            failures.append(f"outliers {outliers} != {tuple(remaining)}")
    report(
        5,
        f"clustering: exact 3-object membership in {exact}/{trials} noisy trials "
        f"(bar 190) and consensus equals brute-force enumeration on 10 flows",
        failures,
    )


def test_criterion_6_stereo_sensitivity(tmp_path):
    """Stereo depth error law, quadratic growth, bounded plane heading error."""
    failures = []
    model = preset_approach_45deg(pixel_pitch_um=10.0)
    if model.focal_px != 800.0:
        failures.append(f"preset focal {model.focal_px} != 800 px")

    # finite-difference check of dZ = Z^2 dp / (B f) via Z(d) = B f / d
    for z in (10.0, 20.0, 40.0, 80.0, 160.0):
        analytic = stereo_depth_error(model, z)
        d = disparity_px(model, z)
        h = 1e-6
        bf = model.baseline_m * model.focal_px
        fd = (bf / (d - h) - bf / (d + h)) / (2.0 * h) * model.detection_error_px
        if rel_err(analytic, fd) > 0.01:
            failures.append(f"z={z}: analytic {analytic} vs FD {fd}")
        ratio = stereo_depth_error(model, 2.0 * z) / analytic
        if rel_err(ratio, 4.0) > 1e-6:
            failures.append(f"z={z}: doubling ratio {ratio} != 4")

    z_values = (10.0, 20.0, 40.0, 80.0)
    table = orientation_error_sweep(model, z_values, trials=120, rng_seed=3)
    csv_path = tmp_path / "sensitivity.csv"
    write_sensitivity_csv(csv_path, table)
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    stereo_err = [float(r[2]) for r in rows]
    plane_err = [float(r[3]) for r in rows]
    if max(plane_err) >= 5.0:
        failures.append(f"plane heading error not bounded: {plane_err}")
    if stereo_err[0] <= 5.0 or stereo_err[-1] <= 50.0:
        failures.append(f"stereo heading error not divergent: {stereo_err}")
    for s, p in zip(stereo_err, plane_err):
        if s <= 10.0 * p:
            failures.append(f"stereo {s} not >> plane {p}")
    report(
        6,
        "stereo sensitivity: depth error within 1% of finite difference, "
        "quadratic in Z; emitted table shows bounded plane vs divergent stereo heading",
        failures,
    )


def test_criterion_7_collision_map():
    """Center cell equals base scenario; every cell equals re-simulation."""
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    failures = []
    master = np.random.default_rng(71)
    scenarios = [wall_scenario(intr)] + [
        random_approach_scenario(master, intr, n_objects=2, n_points=3, frame_count=12)
        for _ in range(4)
    ]
    cell_checks = 0
    for s_idx, scenario in enumerate(scenarios):
        grid = GridSpec(1.0, 0.8, 3, 3)
        result = collision_map(scenario, grid)
        base_k, base_miss, base_hit = reduce_truth(scenario)
        fi, li = result.center_index
        if bool(result.collision[fi, li]) is not base_hit:
            failures.append(f"scenario {s_idx}: center collision flag differs")
        if np.isfinite(base_k) and abs(result.min_ttc[fi, li] - base_k) > 1e-9:
            failures.append(f"scenario {s_idx}: center TTC differs")
        for gi, dv_f in enumerate(grid.forward_offsets):
            for gj, dv_l in enumerate(grid.lateral_offsets):
                shifted = Scenario(
                    intrinsics=scenario.intrinsics,
                    objects=scenario.objects,
                    camera_velocity=scenario.camera_velocity + np.array([dv_l, 0.0, dv_f]),
                    frame_count=scenario.frame_count,
                )
                k, miss, hit = reduce_truth(shifted)
                cell_checks += 1
                if np.isinf(k):
                    if not np.isinf(result.min_ttc[gi, gj]):
                        failures.append(f"scenario {s_idx} cell ({gi},{gj}): finite TTC")
                    continue
                if abs(result.min_ttc[gi, gj] - k) > 1e-9:
                    failures.append(f"scenario {s_idx} cell ({gi},{gj}): TTC differs")
                if abs(result.miss_distance[gi, gj] - miss) > 1e-9:
                    failures.append(f"scenario {s_idx} cell ({gi},{gj}): miss differs")
                if bool(result.collision[gi, gj]) is not hit:
                    failures.append(f"scenario {s_idx} cell ({gi},{gj}): flag differs")
    report(
        7,
        f"collision map: center cell matches base scenario and {cell_checks} cells "
        f"match re-simulation within 1e-9 across {len(scenarios)} scenarios",
        failures,
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI command re-run with the same seed is byte-identical."""
    failures = []
    intr = CameraIntrinsics(focal_px=800.0, principal_point=(320.0, 240.0))
    planar = Scenario(
        intrinsics=intr,
        objects=(
            SceneObject(
                "obj0",
                np.array([[1.0, 0.8, 18.0], [-0.6, 1.1, 18.4], [0.4, -0.9, 17.7]]),
                np.array([0.3, 0.0, -1.2]),
            ),
        ),
        camera_velocity=np.zeros(3),
        frame_count=3,
        pixel_noise_sigma=0.4,
        rng_seed=7,
    )
    planar_path = tmp_path / "planar.json"
    write_scenario(planar_path, planar)
    triple_path = tmp_path / "triple.json"
    write_scenario(triple_path, triple_object_scenario(seed=5, noise=0.3))
    wall_path = tmp_path / "wall.json"
    write_scenario(wall_path, wall_scenario(intr))

    tracks_path = tmp_path / "tracks.csv"
    assert main([
        "simulate", str(planar_path),
        "--out-tracks", str(tracks_path), "--out-truth", str(tmp_path / "truth.json"),
    ]) == 0
    triple_tracks = tmp_path / "triple-tracks.csv"
    assert main([
        "simulate", str(triple_path),
        "--out-tracks", str(triple_tracks), "--out-truth", str(tmp_path / "tt.json"),
    ]) == 0

    commands = {
        "simulate": lambda out: [
            "simulate", str(planar_path), "--seed", "7",
            "--out-tracks", str(out), "--out-truth", str(out) + ".truth",
        ],
        "estimate": lambda out: [
            "estimate", str(tracks_path), "--intrinsics", "800,320,240",
            "--mode", "planar", "--horizon", "0,240", "--seed", "3", "--out", str(out),
        ],
        "cluster": lambda out: [
            "cluster", str(triple_tracks), "--intrinsics", "700,320,240",
            "--seed", "5", "--out", str(out),
        ],
        "collision-map": lambda out: [
            "collision-map", str(wall_path), "--grid", "2,2,3,3", "--out", str(out),
        ],
        "sensitivity": lambda out: [
            "sensitivity", "--preset", "approach-45deg", "--pixel-pitch-um", "10",
            "--z-values", "10,40", "--trials", "25", "--seed", "4", "--out", str(out),
        ],
    }
    for name, build in commands.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.out"
            code = main(build(out))
            if code != 0:
                failures.append(f"{name}: exit {code}")
                break
            blob = out.read_bytes()
            extra = out.with_name(out.name + ".truth")
            if extra.exists():
                blob += extra.read_bytes()
            blobs.append(blob)
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            failures.append(f"{name}: reruns differ")
    report(
        8,
        "determinism: all five CLI commands byte-identical across seeded re-runs",
        failures,
    )
