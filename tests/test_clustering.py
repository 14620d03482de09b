"""RANSAC motion clustering: gates, determinism, brute-force equivalence.

The brute-force reference (conftest.reference_consensus) re-derives the documented consensus rule
from the public contract (enumerate pairs in index order, geometric gate
strictly below eps_dist, TTC gate against the median of the geometric
inliers, best key = (size, -rms) with first-wins ties) using its own
2x2 line intersection for the hypothesis epipole. per_hypothesis_clustering
replays whole sampled runs, RNG draws included, with every hypothesis
scored on its own, and the array scorer must match it bit for bit.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import (
    ClusteringConfig,
    Epipole,
    EpipoleMethod,
    FlowVector,
    InvalidInput,
    MotionCluster,
    Scenario,
    SceneObject,
    TrackObservation,
    cluster_flows,
    simulate,
    ttc_batch,
)
from ttckit import clustering
from ttckit.clustering import _consensus, _reassignment_sweep, _trim_to_invariants
from ttckit.epipole import _flow_lines, _least_squares_epipole
from ttckit.errors import _ALL_PARALLEL
from conftest import (
    intr700,
    oracle_epipole,
    oracle_k0,
    random_approach_scenario,
    reference_consensus,
    triple_object_scenario,
    two_frame_tracks,
    two_object_flows,
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
            {"eps_dist": float("nan")},
            {"eps_dist": float("inf")},
            {"eps_ttc": float("nan")},
            {"eps_ttc": float("inf")},
            {"rng_seed": -1},
            {"rng_seed": 2.5},
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
        clusters, outliers = cluster_flows(two_frame_tracks(flows), intrinsics=intrinsics)
        assert len(clusters) == 1
        assert clusters[0].member_indices == tuple(range(6))
        assert outliers == ()
        assert clusters[0].epipole.position == pytest.approx(
            oracle_epipole(velocities[0], intrinsics), abs=1e-6
        )

    def test_two_objects_exact_membership_and_epipoles(self):
        flows, velocities, intrinsics = two_object_flows(n_points=5)
        clusters, outliers = cluster_flows(two_frame_tracks(flows), intrinsics=intrinsics)
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
        clusters, _ = cluster_flows(two_frame_tracks(flows), intrinsics=intrinsics)
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
        clusters, outliers = cluster_flows(two_frame_tracks(flows + strays), intrinsics=intrinsics)
        assert len(clusters) == 2
        assert set(outliers) == {8, 9}
        assert {frozenset(c.member_indices) for c in clusters} == {
            frozenset(range(4)),
            frozenset(range(4, 8)),
        }

    def test_too_few_flows(self):
        # fewer flows than min_cluster_size: no cluster, every flow an outlier
        flows, _, intrinsics = two_object_flows(n_points=5)
        assert cluster_flows(two_frame_tracks(flows[:2]), intrinsics=intrinsics) == ([], (0, 1))

    def test_tracks_mode_rescales_spans_to_frame_units(self):
        scenario = triple_object_scenario(seed=5, noise=0.0)
        tracks, truth = simulate(scenario)
        clusters, outliers = cluster_flows(tracks, intrinsics=scenario.intrinsics)
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
            clusters, outliers = cluster_flows(tracks, config=config, intrinsics=scenario.intrinsics)
            got = {frozenset(c.member_indices) for c in clusters}
            exact += got == expected and outliers == ()
        assert exact >= 18

    def test_deterministic_repeat_runs(self):
        scenario = triple_object_scenario(seed=3, noise=0.4)
        tracks, _ = simulate(scenario)
        config = ClusteringConfig(rng_seed=9)
        runs = [
            cluster_flows(tracks, config=config, intrinsics=scenario.intrinsics)
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
            cluster_flows(tracks, config=config, intrinsics=scenario.intrinsics)
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
        clusters, outliers = cluster_flows(tracks, config=config, intrinsics=scenario.intrinsics)
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


class TestBruteForceEquivalence:
    def test_small_input_matches_reference(self):
        # ten flows: the implementation enumerates every pair, so its
        # result must coincide with the independent brute-force scan
        flows, _, intrinsics = two_object_flows(n_points=5)
        config = ClusteringConfig()
        clusters, outliers = cluster_flows(two_frame_tracks(flows), config=config, intrinsics=intrinsics)

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
        clusters, _ = cluster_flows(two_frame_tracks(flows), config=config, intrinsics=intrinsics)
        remaining = list(range(len(flows)))
        best = reference_consensus(flows, remaining, intrinsics, config)
        assert best is not None
        # first extracted cluster starts from the same consensus set;
        # refit may only grow it
        assert set(best[0]).issubset(set(clusters[0].member_indices))


def per_hypothesis_clustering(flows, intrinsics, config):
    """cluster_flows with every hypothesis scored on its own.

    Replays the rounds of cluster_flows, including its rng.choice draws,
    but solves each pair's 2x2 line system and gathers each consensus
    set in a loop. Returns (clusters as (members, epipole, k_values),
    number of parallel pairs skipped).
    """
    p0 = np.array([fl.p for fl in flows])
    p1 = np.array([fl.p_prime for fl in flows])
    normals, offsets, _ = _flow_lines(p0, p1)
    spans = np.ones(len(flows))

    def consensus(e, candidates):
        dist = np.abs(normals[candidates] @ e - offsets[candidates])
        geo = dist < config.eps_dist
        k, _ = ttc_batch(p0[candidates[geo]], p1[candidates[geo]], e, intrinsics)
        finite = np.isfinite(k)
        if not np.any(finite):
            return candidates[:0], k[:0], np.inf
        median_k = float(np.median(k[finite]))
        ok = finite & (np.abs(k - median_k) <= config.effective_eps_ttc(median_k))
        rms = float(np.sqrt(np.mean(dist[geo][ok] ** 2))) if ok.any() else np.inf
        return candidates[geo][ok], k[ok], rms

    rng = np.random.default_rng(config.rng_seed)
    remaining = np.arange(len(flows))
    extracted, parallel = [], 0
    while remaining.size >= config.min_cluster_size:
        m = remaining.size
        if m * (m - 1) // 2 <= config.max_iterations:
            samples = [remaining[[i, j]] for i, j in itertools.combinations(range(m), 2)]
        else:
            samples = [remaining[rng.choice(m, size=2, replace=False)] for _ in range(config.max_iterations)]
        best_key, best = None, None
        for sample in samples:
            lhs = normals[sample]
            if abs(lhs[0, 0] * lhs[1, 1] - lhs[0, 1] * lhs[1, 0]) < np.sin(np.deg2rad(0.5)):
                parallel += 1
                continue
            e = np.linalg.solve(lhs, offsets[sample])
            members, k, rms = consensus(e, remaining)
            if members.size < config.min_cluster_size:
                continue
            if best_key is None or (members.size, -rms) > best_key:
                best_key, best = (members.size, -rms), (members, k, e)
        if best is None:
            break
        members, k, e = best
        refit, _, code = _least_squares_epipole(normals[members], offsets[members])
        if code:
            refit = e
        re_members, re_k, _ = consensus(refit, remaining)
        if re_members.size >= members.size:
            members, k, e = re_members, re_k, refit
        members, k = _trim_to_invariants(members, k, config)
        if members.size < config.min_cluster_size:
            break
        extracted.append((members, k, e))
        remaining = np.setdiff1d(remaining, members, assume_unique=True)
    if extracted:
        extracted = _reassignment_sweep(extracted, p0, p1, normals, offsets, spans, intrinsics, config)
    return [(tuple(int(i) for i in mem), e, k) for mem, k, e in extracted], parallel


def sampled_scene(per_object=12, noise=0.3, seed=0, extra=()):
    """First-to-last-frame flows of the three-object scene with per_object
    points each, plus extra flows."""
    scenario = triple_object_scenario(seed=seed, noise=noise)
    rng = np.random.default_rng(seed)
    objects = tuple(
        SceneObject(o.object_id, o.points.mean(axis=0) + rng.uniform(-0.7, 0.7, size=(per_object, 3)), o.velocity)
        for o in scenario.objects
    )
    scenario = Scenario(
        intrinsics=scenario.intrinsics, objects=objects, camera_velocity=np.zeros(3),
        frame_count=9, pixel_noise_sigma=noise, rng_seed=seed,
    )
    tracks, _ = simulate(scenario)
    return [FlowVector(t.pixel(0), t.pixel(len(t) - 1)) for t in tracks] + list(extra), scenario.intrinsics


class TestSampledEquivalence:
    """More than 32 flows: rounds draw max_iterations pairs with the RNG."""

    def assert_same(self, flows, intrinsics, config):
        clusters, outliers = cluster_flows(two_frame_tracks(flows), config=config, intrinsics=intrinsics)
        expected, parallel = per_hypothesis_clustering(flows, intrinsics, config)
        assert [c.member_indices for c in clusters] == [members for members, _, _ in expected]
        for cluster, (_, e, k) in zip(clusters, expected):
            assert np.array_equal(cluster.epipole.position, e)
            assert np.array_equal(cluster.ttc_values, k)
        claimed = {i for members, _, _ in expected for i in members}
        assert outliers == tuple(i for i in range(len(flows)) if i not in claimed)
        return clusters, parallel

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_scene_matches_per_hypothesis_loop(self, seed):
        flows, intrinsics = sampled_scene(seed=seed)
        assert len(flows) * (len(flows) - 1) // 2 > ClusteringConfig().max_iterations
        clusters, _ = self.assert_same(flows, intrinsics, ClusteringConfig(rng_seed=seed))
        assert len(clusters) == 3

    def test_every_pair_parallel_gives_no_cluster(self):
        # near-lateral motion: 40 flow lines meet 2e4 px off the image,
        # all within 0.45 deg of one another, too close to define an epipole
        rng = np.random.default_rng(3)
        points = np.array([0.0, 0.0, 20.0]) + rng.uniform(-1.0, 1.0, size=(40, 3)) * [0.5, 2.2, 0.5]
        scenario = Scenario(
            intrinsics=intr700(),
            objects=(SceneObject("a", points, np.array([1.0, 0.0, -0.035])),),
            camera_velocity=np.zeros(3),
            frame_count=2,
        )
        tracks, _ = simulate(scenario)
        flows = [FlowVector.from_track(t) for t in tracks]
        clusters, parallel = self.assert_same(flows, scenario.intrinsics, ClusteringConfig())
        assert clusters == [] and parallel == 500

    def test_parallel_pairs_among_valid_ones_skipped(self):
        strays = [FlowVector(p=(100.0, 20.0 * i), p_prime=(106.0, 20.0 * i)) for i in range(6)]
        flows, intrinsics = sampled_scene(seed=4, extra=strays)
        clusters, parallel = self.assert_same(flows, intrinsics, ClusteringConfig(rng_seed=4))
        assert parallel > 0 and len(clusters) == 3

    @pytest.mark.parametrize("seed", [54, 56, 189])
    def test_equal_sizes_tie_on_rms(self, seed):
        # noise-free objects of 12 flows each: every round ties on size,
        # and on these seeds the extraction order turns on RMS values of
        # about 1e-13 px, so it follows the last bits of every epipole
        # and distance
        flows, intrinsics = sampled_scene(noise=0.0, seed=seed)
        clusters, _ = self.assert_same(flows, intrinsics, ClusteringConfig(rng_seed=seed))
        assert [len(c.member_indices) for c in clusters] == [12, 12, 12]

    def test_hypothesis_count_does_not_change_epipole_calls(self, monkeypatch):
        # per-hypothesis least-squares calls would scale with the budget
        calls = []

        def counted(*a, **kw):
            calls.append(1)
            return _least_squares_epipole(*a, **kw)

        monkeypatch.setattr(clustering, "_least_squares_epipole", counted)
        flows, intrinsics = sampled_scene(noise=0.1, seed=8)
        counts = []
        for budget in (50, 500):
            calls.clear()
            clusters, _ = cluster_flows(
                two_frame_tracks(flows), config=ClusteringConfig(max_iterations=budget, rng_seed=8),
                intrinsics=intrinsics,
            )
            assert len(clusters) == 3
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestConsensusRanking:
    """The tie rule of _consensus: size, then lower RMS, then first hypothesis."""

    def scene(self):
        flows, velocities, intrinsics = two_object_flows(n_points=6)
        p0 = np.array([fl.p for fl in flows[:6]])
        p1 = np.array([fl.p_prime for fl in flows[:6]])
        normals, offsets, _ = _flow_lines(p0, p1)
        e = np.linalg.solve(normals[:2], offsets[:2])
        args = (np.arange(6), p0, p1, normals, offsets, np.ones(6), intrinsics, ClusteringConfig())
        return e, args

    def test_lower_rms_wins_then_first(self):
        e, args = self.scene()
        off = e + np.array([0.3, -0.2])
        # 40 hypotheses span three blocks; the exact epipole sits at 5 and 20
        hypotheses = np.array([off] * 40)
        hypotheses[[5, 20]] = e
        h, members, k = _consensus(hypotheses, *args)
        assert h == 5 and members.tolist() == list(range(6))
        h, _, _ = _consensus(hypotheses[6:], *args)
        assert h == 14

    def test_larger_consensus_beats_lower_rms(self):
        e, args = self.scene()
        # far off every line but the first two: three members at best
        hypotheses = np.array([e + np.array([500.0, 0.0]), e + np.array([0.5, 0.5]), e])
        h, members, _ = _consensus(hypotheses[:2], *args)
        assert h == 1 and members.size == 6
        assert _consensus(hypotheses[:1], *args) is None


def layered_consensus_scene():
    """_consensus arguments for a noise-free scene of two rigid motions.

    Object A has a near layer of 7 points (k about 8) and a far layer of 5
    (k about 20) on one epipole, so all 12 flows are geometric inliers of
    that epipole and the TTC gate keeps the 7 near ones. Object B has 8
    points on another epipole, all TTC-consistent. Returns (pool, args):
    pool holds candidate hypothesis epipoles, args the rest of the call.
    """
    rng = np.random.default_rng(1)
    intrinsics = intr700()
    va, vb = np.array([0.12, 0.0, -1.5]), np.array([-0.45, 0.05, -1.8])
    objects = (
        SceneObject("near", np.array([1.2, 0.6, 12.0]) + rng.uniform(-0.7, 0.7, size=(7, 3)), va),
        SceneObject("far", np.array([1.5, 0.3, 30.0]) + rng.uniform(-0.7, 0.7, size=(5, 3)), va),
        SceneObject("b", np.array([-2.0, 0.2, 24.0]) + rng.uniform(-0.7, 0.7, size=(8, 3)), vb),
    )
    tracks, _ = simulate(Scenario(
        intrinsics=intrinsics, objects=objects, camera_velocity=np.zeros(3), frame_count=2,
    ))
    p0 = np.array([t.pixel(0) for t in tracks])
    p1 = np.array([t.pixel(1) for t in tracks])
    normals, offsets, _ = _flow_lines(p0, p1)
    ea, eb = oracle_epipole(va, intrinsics), oracle_epipole(vb, intrinsics)
    pool = np.array([
        ea,  # 12 geometric inliers, 7 members
        eb,  # 8 members, RMS about 1e-13 px
        eb + [0.3, -0.2],  # the same 8 members, higher RMS
        eb + [-0.05, 0.1],  # the same 8 members, RMS in between
        ea + [0.2, 0.2],
        [-5000.0, 3000.0],  # no flow line passes near
    ])
    n = len(p0)
    return pool, (np.arange(n), p0, p1, normals, offsets, np.ones(n), intrinsics, ClusteringConfig())


def scan_consensus(hypotheses, candidates, p0, p1, normals, offsets, spans, intrinsics, config):
    """_consensus as a scan that scores every hypothesis on its own, in
    order, and keeps the first of the best (size, -RMS) keys."""
    best_key, best = None, None
    for h, e in enumerate(hypotheses):
        dist = np.abs(normals[candidates] @ e - offsets[candidates])
        geo = dist < config.eps_dist
        flow = candidates[geo]
        k = ttc_batch(p0[flow], p1[flow], e, intrinsics)[0] * spans[flow]
        finite = np.isfinite(k)
        if not finite.any():
            continue
        median = float(np.median(k[finite]))
        ok = finite & (np.abs(k - median) <= config.effective_eps_ttc(median))
        if ok.sum() < config.min_cluster_size:
            continue
        key = (int(ok.sum()), -float(np.sqrt(np.mean(dist[geo][ok] ** 2))))
        if best_key is None or key > best_key:
            best_key, best = key, (h, flow[ok], k[ok])
    return best


class TestConsensusPruning:
    """_consensus gates by TTC only the hypotheses whose geometric inlier
    count can still beat the best set, and must agree with a scan of
    every hypothesis."""

    def test_scene_layers(self):
        # the layered epipole has the most geometric inliers, but the TTC
        # gate leaves it fewer members than object B's
        pool, args = layered_consensus_scene()
        _, _, _, normals, offsets, *_ = args
        assert (np.abs(normals @ pool[0] - offsets) < 2.0).sum() == 12
        assert [scan_consensus(pool[[i]], *args)[1].size for i in (0, 1)] == [7, 8]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    # exact duplicates, in one block and across blocks: the first wins
    @example([2, 1, 2, 1, 1])
    @example([1] + [5] * 20 + [1])
    # most geometric inliers, then fewer that all pass the TTC gate
    @example([0, 1])
    @example([0] + [5] * 16 + [1])
    @example([0, 4] * 10 + [3])
    # equal size and lower RMS in a later block
    @example([2] + [5] * 15 + [1])
    @example([2] * 16 + [3, 2, 1])
    # best bound first: an exact-duplicate winner at a lower index is
    # visited after a higher-bound loser, in its chunk or in a later one
    @example([1, 0, 1])
    @example([1] + [0] * 16 + [1])
    # a later index has the most geometric inliers, and the TTC gate cuts
    # it below an earlier one
    @example([1, 0])
    @example([3, 2] + [0] * 16)
    def test_matches_scan(self, picks):
        pool, args = layered_consensus_scene()
        hypotheses = pool[picks]
        got, want = _consensus(hypotheses, *args), scan_consensus(hypotheses, *args)
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[2], want[2])

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 54, 56])
    def test_ttc_rows_at_most_half_the_geometric_inliers(self, monkeypatch, seed, noise):
        # the TTC gate runs on at most half of what scoring every
        # geometric inlier of every hypothesis, refits included, would cost
        geometric, rows = [0], [0]
        consensus, decompose = clustering._consensus, clustering._decompose

        def counted_consensus(epipoles, candidate_idx, p0, p1, normals, offsets, spans, intrinsics, config):
            dist = np.abs(normals[candidate_idx] @ epipoles.T - offsets[candidate_idx, np.newaxis])
            geometric[0] += int((dist < config.eps_dist).sum())
            return consensus(epipoles, candidate_idx, p0, p1, normals, offsets, spans, intrinsics, config)

        def counted_decompose(p0, *a):
            rows[0] += len(p0)
            return decompose(p0, *a)

        monkeypatch.setattr(clustering, "_consensus", counted_consensus)
        monkeypatch.setattr(clustering, "_decompose", counted_decompose)
        flows, intrinsics = sampled_scene(noise=noise, seed=seed)
        clusters, _ = cluster_flows(two_frame_tracks(flows), config=ClusteringConfig(rng_seed=seed), intrinsics=intrinsics)
        assert len(clusters) == 3
        assert rows[0] <= 0.5 * geometric[0]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 54, 56])
    def test_gate_chunks_are_dense(self, monkeypatch, seed, noise):
        # every _decompose call of a _consensus call but its last gates a
        # full chunk of _BLOCK hypotheses
        per_call = []  # [_decompose calls, gated hypotheses] per _consensus call
        consensus, decompose = clustering._consensus, clustering._decompose

        def counted_consensus(*args):
            per_call.append([0, 0])
            return consensus(*args)

        def counted_decompose(p0, p1, e, intrinsics):
            # a hypothesis's rows are contiguous and hold each flow once, so
            # the next one starts where the epipole changes or a flow repeats
            tally = per_call[-1]
            tally[0] += 1
            seen, last = set(), None
            for flow, epipole in zip(map(tuple, np.hstack([p0, p1])), map(tuple, e)):
                if epipole != last or flow in seen:
                    tally[1] += 1
                    seen, last = set(), epipole
                seen.add(flow)
            return decompose(p0, p1, e, intrinsics)

        monkeypatch.setattr(clustering, "_consensus", counted_consensus)
        monkeypatch.setattr(clustering, "_decompose", counted_decompose)
        flows, intrinsics = sampled_scene(noise=noise, seed=seed)
        clusters, _ = cluster_flows(two_frame_tracks(flows), config=ClusteringConfig(rng_seed=seed), intrinsics=intrinsics)
        assert len(clusters) == 3
        assert sum(calls for calls, _ in per_call) > 0
        for calls, gated in per_call:
            assert calls <= math.ceil(gated / clustering._BLOCK)


def cluster_outcome(clusters, outliers):
    """Everything cluster_flows returns, floats as their bytes."""
    return outliers, [
        (c.member_indices, c.epipole.position.tobytes(), c.epipole.residual, c.ttc_values.tobytes(), c.mean_ttc)
        for c in clusters
    ]


class TestGateRowBudget:
    """_consensus cuts a TTC-gate chunk where its hypotheses' geometric
    inliers would pass _BLOCK_ROWS rows, keeping at least one hypothesis;
    the budget bounds its memory and changes no result."""

    def assert_every_budget_agrees(self, tracks, intrinsics, config):
        decompose = clustering._decompose
        calls = []  # (rows, distinct epipoles) of each gate call

        def counted_decompose(p0, p1, e, intr):
            calls.append((len(p0), len(np.unique(e, axis=0))))
            return decompose(p0, p1, e, intr)

        outcomes = {}
        with mock.patch.object(clustering, "_decompose", counted_decompose):
            for budget in (1, 200, clustering._BLOCK_ROWS):
                calls.clear()
                with mock.patch.object(clustering, "_BLOCK_ROWS", budget):
                    outcomes[budget] = cluster_outcome(*cluster_flows(tracks, config=config, intrinsics=intrinsics))
                assert calls
                # a call past the budget gates one hypothesis
                assert all(rows <= budget or epipoles == 1 for rows, epipoles in calls)
        assert outcomes[1] == outcomes[200] == outcomes[clustering._BLOCK_ROWS]
        return outcomes[1]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("seed", [0, 54, 56])
    def test_sampled_scene(self, seed, noise):
        flows, intrinsics = sampled_scene(noise=noise, seed=seed)
        _, clusters = self.assert_every_budget_agrees(two_frame_tracks(flows), intrinsics, ClusteringConfig(rng_seed=seed))
        assert len(clusters) == 3

    def test_six_motions_of_250_flows(self):
        # a hypothesis brings about 250 geometric inliers, so a budget of
        # 200 rows cuts every chunk to one hypothesis
        scenario = random_approach_scenario(np.random.default_rng(6), intr700(), n_objects=6, n_points=250)
        tracks, _ = simulate(scenario)
        assert len(tracks) == 1500
        self.assert_every_budget_agrees(tracks, scenario.intrinsics, ClusteringConfig(rng_seed=6))

    def test_consensus_peak_is_bounded_by_the_budget(self):
        # 3,000 noise-free flows of one motion and 64 hypotheses within a
        # fraction of a pixel of its epipole: every hypothesis has all
        # 3,000 flows as geometric inliers, so a chunk of _BLOCK of them
        # would decompose 48,000 rows
        intrinsics = intr700()
        rng = np.random.default_rng(3)
        scenario = random_approach_scenario(rng, intrinsics, n_points=3000)
        tracks, truth = simulate(scenario)
        p0, p1 = tracks.pixels(0), tracks.pixels(-1)
        normals, offsets, _ = _flow_lines(p0, p1)
        spans = (tracks.length - 1).astype(np.float64)
        epipoles = truth.epipole[0] + rng.uniform(-0.05, 0.05, (64, 2))
        config = ClusteringConfig()
        assert (np.abs(normals @ epipoles.T - offsets[:, np.newaxis]) < config.eps_dist).all()
        tracemalloc.start()
        try:
            best = _consensus(epipoles, np.arange(3000), p0, p1, normals, offsets, spans, intrinsics, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert best is not None
        assert peak < 5 * 2**20


class TestPairDraws:
    """_draw_pairs draws what one rng.choice(m, size=2, replace=False) call
    per hypothesis draws, and leaves the generator in the same state."""

    # 3 * 2**30 makes Lemire's method reject about a quarter of the draws;
    # 2**32 - 1 is the largest m whose draws all take its 32-bit path
    @pytest.mark.parametrize("m", [3, 33, 1500, 3 * 2**30, 2**32 - 1])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("pending", [False, True])
    def test_matches_rng_choice(self, seed, m, pending):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if pending:  # one 32-bit draw leaves the other half of a 64-bit output buffered
            want_rng.integers(0, 7)
            got_rng.integers(0, 7)
            assert want_rng.bit_generator.state["has_uint32"] == 1
        want = np.array([want_rng.choice(m, size=2, replace=False) for _ in range(50)])
        got = clustering._draw_pairs(got_rng, m, 50)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestReassignmentSweep:
    def test_memory_does_not_grow_with_flows_times_clusters(self):
        # 150 clusters of 12 flows: one (flows, clusters) float64 matrix
        # takes 2.2 MB, while scoring one cluster at a time holds a few
        # (flows,) columns of 14 KB
        intrinsics = intr700()
        scenario = random_approach_scenario(
            np.random.default_rng(4), intrinsics, n_objects=150, n_points=12, frame_count=6
        )
        tracks, truth = simulate(scenario)
        p0, p1 = tracks.pixels(0), tracks.pixels(-1)
        spans = (tracks.length - 1).astype(np.float64)
        normals, offsets, _ = _flow_lines(p0, p1)
        state = []
        for j, epipole in enumerate(truth.epipole):
            members = np.flatnonzero(truth.cluster_id == j)
            k, _ = ttc_batch(p0[members], p1[members], epipole, intrinsics)
            state.append((members, k * spans[members], epipole))
        tracemalloc.start()
        try:
            swept = _reassignment_sweep(state, p0, p1, normals, offsets, spans, intrinsics, ClusteringConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(swept) == 150
        assert peak < 2**20

    @staticmethod
    def expanding_flows(e, offsets, scale=1.05):
        """Flows from e + offset to e + scale * offset, their lines, unit
        spans and their k about e."""
        p0 = e + np.asarray(offsets, dtype=np.float64)
        p1 = e + scale * (p0 - e)
        normals, offsets, _ = _flow_lines(p0, p1)
        k, _ = ttc_batch(p0, p1, e, intr700())
        return p0, p1, normals, offsets, np.ones(len(p0)), k

    def test_round_that_empties_a_cluster_is_rolled_back(self):
        # every line passes through e, nearer cluster A (at e) than B (at
        # e + 0.5 px), so the round would leave B empty
        e = np.array([320.0, 240.0])
        angles = np.deg2rad(np.arange(15) * 24.0 + 7.0)
        offsets = np.column_stack([np.cos(angles), np.sin(angles)]) * (60.0 + 4.0 * np.arange(15))[:, None]
        p0, p1, normals, offsets, spans, k = self.expanding_flows(e, offsets)
        state = [(np.arange(10), k[:10], e), (np.arange(10, 15), k[10:], e + [0.5, 0.0])]
        swept = _reassignment_sweep(state, p0, p1, normals, offsets, spans, intr700(), ClusteringConfig())
        assert swept is state

    def test_parallel_members_keep_their_epipole(self):
        # four lines within 0.5 degrees of each other: the refit is
        # singular, so the cluster keeps the epipole it came with
        e = np.array([320.0, 240.0])
        p0, p1, normals, offsets, spans, k = self.expanding_flows(
            e, [(-100.0, 0.0), (-120.0, 0.3), (110.0, -0.3), (130.0, 0.2)]
        )
        assert _least_squares_epipole(normals, offsets)[2] == _ALL_PARALLEL
        state = [(np.arange(4), k, e)]
        swept = _reassignment_sweep(state, p0, p1, normals, offsets, spans, intr700(), ClusteringConfig())
        assert len(swept) == 1
        members, _, epipole = swept[0]
        np.testing.assert_array_equal(members, np.arange(4))
        np.testing.assert_array_equal(epipole, e)

    def test_round_that_trims_a_cluster_below_min_size_is_rolled_back(self):
        # three lines through e with k 12, 28 and 28 all pass the gate
        # about the state's k (20 +- 10), but the trim about their own
        # mean (22.7) drops the 12, which leaves two members
        e = np.array([320.0, 240.0])
        k_true = np.array([12.0, 28.0, 28.0])
        p0, p1, normals, offsets, spans, k = self.expanding_flows(
            e, [(-100.0, 20.0), (80.0, 60.0), (30.0, -90.0)], scale=(k_true / (k_true - 1.0))[:, np.newaxis]
        )
        np.testing.assert_allclose(k, k_true, rtol=1e-9)
        config = ClusteringConfig(eps_ttc=10.0)
        assert _trim_to_invariants(np.arange(3), k, config)[0].size == 2
        state = [(np.arange(3), np.full(3, 20.0), e)]
        assert _reassignment_sweep(state, p0, p1, normals, offsets, spans, intr700(), config) is state


class TestExtractionFallbacks:
    expanding_flows = staticmethod(TestReassignmentSweep.expanding_flows)

    def test_parallel_members_keep_the_hypothesis_epipole(self):
        # five lines within 0.4 degrees of each other with one k, and one
        # at 30 degrees whose k the TTC gate drops: each hypothesis pairs
        # the 30-degree line with a near-parallel one, and the refit on
        # the five members is singular
        e = np.array([320.0, 240.0])
        angles = np.deg2rad([0.0, 0.1, 0.2, 0.3, 0.4, 30.0])
        radii = np.array([60.0, 80.0, 100.0, 120.0, 140.0, 100.0])
        scale = np.array([1.05] * 5 + [1.01])[:, np.newaxis]
        p0, p1, normals, offsets, _, _ = self.expanding_flows(
            e, np.column_stack([np.cos(angles), np.sin(angles)]) * radii[:, np.newaxis], scale
        )
        assert _least_squares_epipole(normals[:5], offsets[:5])[2] == _ALL_PARALLEL
        tracks = [TrackObservation.from_positions([a, b]) for a, b in zip(p0, p1)]
        clusters, outliers = cluster_flows(tracks, intrinsics=intr700())
        assert [c.member_indices for c in clusters] == [(0, 1, 2, 3, 4)]
        assert outliers == (5,)
        np.testing.assert_allclose(clusters[0].epipole.position, e, atol=1e-9)

    def test_consensus_trimmed_below_min_size_ends_extraction(self):
        # four lines through e with k 12, 28, 28 and 5: the TTC gate about
        # their median (20 +- 10) keeps the first three, and the trim
        # about those three's mean (22.7) drops the 12
        e = np.array([320.0, 240.0])
        k_true = np.array([12.0, 28.0, 28.0, 5.0])
        p0, p1, normals, offsets, spans, k = self.expanding_flows(
            e, [(-100.0, 20.0), (80.0, 60.0), (30.0, -90.0), (-40.0, -70.0)],
            scale=(k_true / (k_true - 1.0))[:, np.newaxis],
        )
        np.testing.assert_allclose(k, k_true, rtol=1e-9)
        config = ClusteringConfig(eps_ttc=10.0)
        _, members, k_values = _consensus(
            e[np.newaxis], np.arange(4), p0, p1, normals, offsets, spans, intr700(), config
        )
        np.testing.assert_array_equal(members, [0, 1, 2])
        assert _trim_to_invariants(members, k_values, config)[0].size == 2
        tracks = [TrackObservation.from_positions([a, b]) for a, b in zip(p0, p1)]
        assert cluster_flows(tracks, config, intrinsics=intr700()) == ([], (0, 1, 2, 3))
