"""RANSAC motion clustering: gates, determinism, brute-force equivalence.

The brute-force reference below re-derives the documented consensus rule
from the public contract (enumerate pairs in index order, geometric gate
strictly below eps_dist, TTC gate against the median of the geometric
inliers, best key = (size, -rms) with first-wins ties) using its own
2x2 line intersection for the hypothesis epipole.
"""

import itertools

import numpy as np
import pytest

from ttckit import (
    CameraIntrinsics,
    ClusteringConfig,
    Epipole,
    EpipoleMethod,
    FlowVector,
    InsufficientData,
    InvalidInput,
    MotionCluster,
    Scenario,
    SceneObject,
    cluster_flows,
    simulate,
    ttc_batch,
)
from conftest import oracle_epipole, oracle_k0


def intr700():
    return CameraIntrinsics(focal_px=700.0, principal_point=(320.0, 240.0))


def two_object_flows(n_points=5, noise=0.0, seed=0):
    """Flows of two rigid translations, object A first, then object B."""
    rng = np.random.default_rng(seed)
    intrinsics = intr700()
    scene = [
        (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
        (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
    ]
    objects = [
        SceneObject(
            f"obj{i}",
            center + rng.uniform(-0.7, 0.7, size=(n_points, 3)),
            velocity,
        )
        for i, (center, velocity) in enumerate(scene)
    ]
    scenario = Scenario(
        intrinsics=intrinsics,
        objects=tuple(objects),
        camera_velocity=np.zeros(3),
        frame_count=2,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )
    tracks, _ = simulate(scenario)
    flows = [FlowVector.from_track(t) for t in tracks]
    velocities = [scene[0][1], scene[1][1]]
    return flows, velocities, intrinsics


def triple_object_scenario(seed, noise):
    """The three-object segmentation scene: 8 points per object."""
    rng = np.random.default_rng(seed + 10_000)
    intrinsics = intr700()
    scene = [
        (np.array([1.2, 0.6, 20.0]), np.array([0.12, 0.0, -1.5])),
        (np.array([-2.0, 0.2, 24.0]), np.array([-0.45, 0.05, -1.8])),
        (np.array([0.5, -0.8, 16.0]), np.array([0.3, -0.08, -1.2])),
    ]
    objects = [
        SceneObject(f"obj{i}", c + rng.uniform(-0.7, 0.7, size=(8, 3)), v)
        for i, (c, v) in enumerate(scene)
    ]
    return Scenario(
        intrinsics=intrinsics,
        objects=tuple(objects),
        camera_velocity=np.zeros(3),
        frame_count=9,
        pixel_noise_sigma=noise,
        rng_seed=seed,
    )


class TestConfigValidation:
    def test_defaults(self):
        cfg = ClusteringConfig()
        assert cfg.eps_dist == 2.0
        assert cfg.eps_ttc is None
        assert cfg.max_iterations == 500
        assert cfg.min_cluster_size == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_dist": 0.0},
            {"eps_dist": -1.0},
            {"eps_ttc": 0.0},
            {"max_iterations": 0},
            {"eps_ttc": -1.0},
            {"min_cluster_size": 2},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidInput):
            ClusteringConfig(**kwargs)

    def test_adaptive_ttc_gate(self):
        cfg = ClusteringConfig()
        assert cfg.effective_eps_ttc(30.0) == pytest.approx(3.0)
        assert cfg.effective_eps_ttc(-30.0) == pytest.approx(3.0)
        assert cfg.effective_eps_ttc(4.0) == pytest.approx(1.0)  # floor
        assert ClusteringConfig(eps_ttc=0.7).effective_eps_ttc(50.0) == pytest.approx(0.7)


class TestMotionClusterValidation:
    def test_too_few_members(self):
        e = Epipole(position=(0.0, 0.0), method=EpipoleMethod.LEAST_SQUARES)
        with pytest.raises(InvalidInput):
            MotionCluster(
                member_indices=(0, 1), epipole=e, ttc_values=np.array([1.0, 2.0]), mean_ttc=1.5
            )

    def test_misaligned_ttc(self):
        e = Epipole(position=(0.0, 0.0), method=EpipoleMethod.LEAST_SQUARES)
        with pytest.raises(InvalidInput):
            MotionCluster(
                member_indices=(0, 1, 2), epipole=e, ttc_values=np.array([1.0]), mean_ttc=1.0
            )


class TestClusterFlows:
    def test_single_object_all_members(self):
        flows, velocities, intrinsics = two_object_flows(n_points=6)
        flows = flows[:6]  # object A only
        clusters, outliers = cluster_flows(flows, intrinsics=intrinsics)
        assert len(clusters) == 1
        assert clusters[0].member_indices == tuple(range(6))
        assert outliers == ()
        assert clusters[0].epipole.position == pytest.approx(
            oracle_epipole(velocities[0], intrinsics), abs=1e-6
        )

    def test_two_objects_exact_membership_and_epipoles(self):
        flows, velocities, intrinsics = two_object_flows(n_points=5)
        clusters, outliers = cluster_flows(flows, intrinsics=intrinsics)
        assert len(clusters) == 2
        sets = [set(c.member_indices) for c in clusters]
        assert {frozenset(s) for s in sets} == {
            frozenset(range(5)),
            frozenset(range(5, 10)),
        }
        assert outliers == ()
        for cluster in clusters:
            which = 0 if 0 in cluster.member_indices else 1
            assert cluster.epipole.position == pytest.approx(
                oracle_epipole(velocities[which], intrinsics), abs=1e-6
            )
            assert cluster.epipole.residual <= 1e-9

    def test_ttc_values_match_plane_sweep_oracle(self):
        rng = np.random.default_rng(11)
        intrinsics = intr700()
        points = np.array([1.2, 0.6, 20.0]) + rng.uniform(-0.7, 0.7, size=(6, 3))
        velocity = np.array([0.12, 0.0, -1.5])
        obj = SceneObject("a", points, velocity)
        scenario = Scenario(
            intrinsics=intrinsics,
            objects=(obj,),
            camera_velocity=np.zeros(3),
            frame_count=2,
            pixel_noise_sigma=0.0,
            rng_seed=0,
        )
        tracks, _ = simulate(scenario)
        flows = [FlowVector.from_track(t) for t in tracks]
        clusters, _ = cluster_flows(flows, intrinsics=intrinsics)
        assert len(clusters) == 1
        for idx, k in zip(clusters[0].member_indices, clusters[0].ttc_values):
            assert k == pytest.approx(oracle_k0(points[idx], velocity), rel=1e-9)
        assert clusters[0].mean_ttc == pytest.approx(np.mean(clusters[0].ttc_values))

    def test_strays_reported_as_outliers(self):
        flows, _, intrinsics = two_object_flows(n_points=4)
        strays = [
            FlowVector(p=(300.0, 300.0), p_prime=(310.0, 300.0)),
            FlowVector(p=(100.0, 100.0), p_prime=(100.0, 110.0)),
        ]
        clusters, outliers = cluster_flows(flows + strays, intrinsics=intrinsics)
        assert len(clusters) == 2
        assert set(outliers) == {8, 9}
        assert {frozenset(c.member_indices) for c in clusters} == {
            frozenset(range(4)),
            frozenset(range(4, 8)),
        }

    def test_too_few_flows(self):
        flows, _, intrinsics = two_object_flows(n_points=5)
        with pytest.raises(InsufficientData):
            cluster_flows(flows[:2], intrinsics=intrinsics)

    def test_flows_and_tracks_both_none(self):
        with pytest.raises(InvalidInput):
            cluster_flows(None, None, intrinsics=intr700())

    def test_flow_track_length_mismatch(self):
        flows, _, intrinsics = two_object_flows(n_points=5)
        scenario = triple_object_scenario(seed=0, noise=0.0)
        tracks, _ = simulate(scenario)
        with pytest.raises(InvalidInput):
            cluster_flows(flows, tracks[:3], intrinsics=intrinsics)

    def test_tracks_mode_rescales_spans_to_frame_units(self):
        scenario = triple_object_scenario(seed=5, noise=0.0)
        tracks, truth = simulate(scenario)
        clusters, outliers = cluster_flows(None, tracks, intrinsics=scenario.intrinsics)
        assert outliers == ()
        assert len(clusters) == 3
        # span-derived flows cover 8 frames, yet k must come out in frames
        for cluster in clusters:
            first = cluster.member_indices[0]
            obj_idx = first // 8
            obj = scenario.objects[obj_idx]
            assert set(cluster.member_indices) == set(
                range(obj_idx * 8, obj_idx * 8 + 8)
            )
            for idx, k in zip(cluster.member_indices, cluster.ttc_values):
                p = obj.points[idx - obj_idx * 8]
                assert k == pytest.approx(oracle_k0(p, obj.velocity), rel=1e-9)

    def test_noisy_three_object_membership(self):
        # spot check of the segmentation robustness target; the full
        # 200-trial >= 95% version lives in the acceptance suite
        expected = {
            frozenset(range(0, 8)),
            frozenset(range(8, 16)),
            frozenset(range(16, 24)),
        }
        exact = 0
        for seed in range(20):
            scenario = triple_object_scenario(seed=seed, noise=0.3)
            tracks, _ = simulate(scenario)
            config = ClusteringConfig(rng_seed=seed)
            clusters, outliers = cluster_flows(
                None, tracks, config=config, intrinsics=scenario.intrinsics
            )
            got = {frozenset(c.member_indices) for c in clusters}
            exact += got == expected and outliers == ()
        assert exact >= 18

    def test_deterministic_repeat_runs(self):
        scenario = triple_object_scenario(seed=3, noise=0.4)
        tracks, _ = simulate(scenario)
        config = ClusteringConfig(rng_seed=9)
        runs = [
            cluster_flows(None, tracks, config=config, intrinsics=scenario.intrinsics)
            for _ in range(2)
        ]
        (c1, o1), (c2, o2) = runs
        assert o1 == o2
        assert len(c1) == len(c2)
        for a, b in zip(c1, c2):
            assert a.member_indices == b.member_indices
            assert np.array_equal(a.epipole.position, b.epipole.position)
            assert np.array_equal(a.ttc_values, b.ttc_values)

    def test_deterministic_when_sampling(self):
        # 24 flows with a tiny budget forces the sampled code path
        scenario = triple_object_scenario(seed=7, noise=0.3)
        tracks, _ = simulate(scenario)
        config = ClusteringConfig(rng_seed=21, max_iterations=40)
        runs = [
            cluster_flows(None, tracks, config=config, intrinsics=scenario.intrinsics)
            for _ in range(2)
        ]
        (c1, o1), (c2, o2) = runs
        assert o1 == o2
        assert [a.member_indices for a in c1] == [b.member_indices for b in c2]

    def test_cluster_invariants_hold_under_heavy_noise(self):
        # membership may degrade; the reported structure must not
        scenario = triple_object_scenario(seed=13, noise=1.5)
        tracks, _ = simulate(scenario)
        config = ClusteringConfig(rng_seed=13)
        flows = [FlowVector(t.pixel(0), t.pixel(len(t) - 1)) for t in tracks]
        clusters, outliers = cluster_flows(
            None, tracks, config=config, intrinsics=scenario.intrinsics
        )
        claimed = set(outliers)
        for cluster in clusters:
            assert len(cluster.member_indices) >= config.min_cluster_size
            assert cluster.member_indices == tuple(sorted(cluster.member_indices))
            assert claimed.isdisjoint(cluster.member_indices)
            claimed.update(cluster.member_indices)
            for idx in cluster.member_indices:
                fl = flows[idx]
                assert abs(fl.n @ (cluster.epipole.position - fl.p)) < config.eps_dist
            eps_ttc = config.effective_eps_ttc(float(np.median(cluster.ttc_values)))
            assert np.all(
                np.abs(cluster.ttc_values - cluster.mean_ttc) <= eps_ttc + 1e-9
            )
            assert cluster.mean_ttc == pytest.approx(float(np.mean(cluster.ttc_values)))
        assert claimed == set(range(len(tracks)))


def reference_consensus(flows, remaining, intrinsics, config):
    """Best consensus set over all index-ordered pair hypotheses.

    Independent re-derivation of the documented rule with a direct 2x2
    line intersection; returns (members, k_values) or None.
    """
    p0 = np.array([fl.p for fl in flows])
    p1 = np.array([fl.p_prime for fl in flows])
    normals = np.array([fl.n for fl in flows])
    best_key, best = None, None
    for i, j in itertools.combinations(range(len(remaining)), 2):
        a, b = remaining[i], remaining[j]
        sin_angle = abs(
            flows[a].direction[0] * flows[b].direction[1]
            - flows[a].direction[1] * flows[b].direction[0]
        )
        if sin_angle < np.sin(np.deg2rad(0.5)):
            continue
        lhs = np.array([normals[a], normals[b]])
        rhs = np.array([normals[a] @ p0[a], normals[b] @ p0[b]])
        e = np.linalg.solve(lhs, rhs)
        dist = np.abs(normals[remaining] @ e - np.einsum("ij,ij->i", normals[remaining], p0[remaining]))
        geo = dist < config.eps_dist
        if not np.any(geo):
            continue
        geo_idx = np.asarray(remaining)[geo]
        k, _ = ttc_batch(p0[geo_idx], p1[geo_idx], e, intrinsics)
        finite = np.isfinite(k)
        if not np.any(finite):
            continue
        median_k = float(np.median(k[finite]))
        eps_ttc = config.effective_eps_ttc(median_k)
        ok = finite & (np.abs(k - median_k) <= eps_ttc)
        members = geo_idx[ok]
        if members.size < config.min_cluster_size:
            continue
        rms = float(np.sqrt(np.mean(dist[geo][ok] ** 2)))
        key = (members.size, -rms)
        if best_key is None or key > best_key:
            best_key, best = key, (members, k[ok])
    return best


class TestBruteForceEquivalence:
    def test_small_input_matches_reference(self):
        # ten flows: the implementation enumerates every pair, so its
        # result must coincide with the independent brute-force scan
        flows, _, intrinsics = two_object_flows(n_points=5)
        config = ClusteringConfig()
        clusters, outliers = cluster_flows(flows, config=config, intrinsics=intrinsics)

        remaining = list(range(len(flows)))
        expected = []
        while len(remaining) >= config.min_cluster_size:
            best = reference_consensus(flows, remaining, intrinsics, config)
            if best is None:
                break
            members, k_values = best
            expected.append((tuple(int(m) for m in members), k_values))
            remaining = [i for i in remaining if i not in set(members)]

        assert len(clusters) == len(expected)
        for cluster, (members, k_values) in zip(clusters, expected):
            assert cluster.member_indices == members
            assert cluster.ttc_values == pytest.approx(k_values, rel=1e-9)
        assert outliers == tuple(remaining)

    def test_noisy_small_input_same_partition(self):
        flows, _, intrinsics = two_object_flows(n_points=5, noise=0.15, seed=8)
        config = ClusteringConfig(rng_seed=8)
        clusters, _ = cluster_flows(flows, config=config, intrinsics=intrinsics)
        remaining = list(range(len(flows)))
        best = reference_consensus(flows, remaining, intrinsics, config)
        assert best is not None
        # first extracted cluster starts from the same consensus set;
        # refit may only grow it
        assert set(best[0]).issubset(set(clusters[0].member_indices))
