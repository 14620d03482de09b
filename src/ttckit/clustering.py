"""RANSAC grouping of flow vectors into independently moving clusters.

Flows belonging to one rigid translation share an epipole: every flow
line passes through it. Two sampled flows define a hypothesis epipole by
least squares; flows whose lines pass within eps_dist pixels of it AND
whose time-to-collision agrees with the consensus median within eps_ttc
are inliers. The largest consensus set wins, its epipole is refit on all
members, members are removed, and the process repeats on the remainder
until no cluster of at least min_cluster_size survives. A deterministic
reassignment sweep then lets clusters exchange ambiguous members: each
flow joins the consistent cluster whose epipole its line passes nearest,
epipoles are refit, and the sweep repeats a bounded number of rounds.
Greedy extraction alone tends to steal members that lie near the line
joining two epipoles; the sweep returns them. Whatever is left over,
plus any group too small to stand on its own, is reported as outliers.

The flows become arrays once, at entry: endpoints, unit line normals n
and offsets n . p (epipole._flow_lines). Every hypothesis, refit and
sweep epipole is then epipole._least_squares_epipole on rows of those
arrays, and every line distance is |n . e - offset|.

Determinism contract: given identical inputs and the same rng_seed the
clustering is byte-for-byte reproducible. When the number of candidate
pairs in a round is at most max_iterations, all pairs are enumerated in
index order and the RNG is not consulted at all, which also makes the
small-input behavior identical to brute-force enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .epipole import Epipole, EpipoleMethod, FlowVector, _flow_lines, _least_squares_epipole
from .errors import InsufficientData, InvalidInput
from .ttc import TrackObservation, ttc_batch

__all__ = [
    "ClusteringConfig",
    "MotionCluster",
    "cluster_flows",
]


@dataclass(frozen=True)
class ClusteringConfig:
    """Tuning knobs for cluster_flows.

    Attributes:
        eps_dist: inlier threshold on flow-line-to-epipole distance, px.
        eps_ttc: inlier threshold on |k - consensus k|, frames. None
            selects the adaptive default max(1.0, 0.1 * |median k|),
            which treats near and far objects uniformly.
        max_iterations: RANSAC hypothesis budget per extraction round;
            rounds with at most this many candidate pairs enumerate them
            all instead of sampling.
        min_cluster_size: smallest reportable cluster. Two non-parallel
            lines always intersect somewhere, so 3 is the smallest value
            that rejects spurious pairings.
        rng_seed: seed for the hypothesis sampler.
    """

    eps_dist: float = 2.0
    eps_ttc: float | None = None
    max_iterations: int = 500
    min_cluster_size: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.eps_dist <= 0.0:
            raise InvalidInput(f"eps_dist must be > 0, got {self.eps_dist}")
        if self.eps_ttc is not None and self.eps_ttc <= 0.0:
            raise InvalidInput(f"eps_ttc must be > 0 or None, got {self.eps_ttc}")
        if self.max_iterations < 1:
            raise InvalidInput(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.min_cluster_size < 3:
            raise InvalidInput(f"min_cluster_size must be >= 3, got {self.min_cluster_size}")

    def effective_eps_ttc(self, median_k: float) -> float:
        if self.eps_ttc is not None:
            return self.eps_ttc
        return max(1.0, 0.1 * abs(float(median_k)))


@dataclass(frozen=True)
class MotionCluster:
    """One group of flows sharing an epipole and a consistent TTC.

    Attributes:
        member_indices: sorted tuple of indices into the input flow list.
        epipole: the cluster's epipole, refit on all members.
        ttc_values: per-member k, aligned with member_indices.
        mean_ttc: arithmetic mean of ttc_values.
    """

    member_indices: tuple[int, ...]
    epipole: Epipole
    ttc_values: np.ndarray
    mean_ttc: float

    def __post_init__(self):
        if len(self.member_indices) < 3:
            raise InvalidInput("a motion cluster needs at least 3 members")
        if len(self.member_indices) != len(self.ttc_values):
            raise InvalidInput("ttc_values must align with member_indices")


def _collect_inliers(
    e_pos: np.ndarray,
    candidate_idx: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    spans: np.ndarray,
    intrinsics: CameraIntrinsics,
    config: ClusteringConfig,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Consensus set of the hypothesis epipole among candidate flows.

    Geometric gate first (line distance < eps_dist), then TTC agreement
    with the median k of the geometric inliers. k values are rescaled by
    each flow's frame span so they compare in frame units. Returns
    (member indices, their k values, RMS line distance); members are
    empty when nothing passes.
    """
    dist = np.abs(normals[candidate_idx] @ e_pos - offsets[candidate_idx])
    geo_mask = dist < config.eps_dist
    if not np.any(geo_mask):
        empty = np.array([], dtype=np.int64)
        return empty, np.array([]), np.inf
    geo_idx = candidate_idx[geo_mask]
    k, _ = ttc_batch(p0[geo_idx], p1[geo_idx], e_pos, intrinsics)
    k = k * spans[geo_idx]
    finite = np.isfinite(k)
    if not np.any(finite):
        empty = np.array([], dtype=np.int64)
        return empty, np.array([]), np.inf
    median_k = float(np.median(k[finite]))
    eps_ttc = config.effective_eps_ttc(median_k)
    ok = finite & (np.abs(k - median_k) <= eps_ttc)
    members = geo_idx[ok]
    rms = float(np.sqrt(np.mean(dist[geo_mask][ok] ** 2))) if members.size else np.inf
    return members, k[ok], rms


def _trim_to_invariants(
    members: np.ndarray, k_values: np.ndarray, config: ClusteringConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Drop worst TTC outliers until every member sits within eps_ttc of
    the member mean. Deletion order is deterministic (first worst)."""
    while members.size >= config.min_cluster_size:
        mean_k = float(np.mean(k_values))
        eps_ttc = config.effective_eps_ttc(float(np.median(k_values)))
        deviations = np.abs(k_values - mean_k)
        worst = int(np.argmax(deviations))
        if deviations[worst] <= eps_ttc:
            break
        members = np.delete(members, worst)
        k_values = np.delete(k_values, worst)
    return members, k_values


def _reassignment_sweep(
    state: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    p0: np.ndarray,
    p1: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    spans: np.ndarray,
    intrinsics: CameraIntrinsics,
    config: ClusteringConfig,
    rounds: int = 3,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exchange ambiguous members between extracted clusters.

    state holds (members, k_values, epipole_position) per cluster. Each
    round assigns every flow to the nearest cluster (by line distance)
    among those whose gates it passes, refits each epipole, recomputes
    k, and re-trims. A round that would shrink any cluster below
    min_cluster_size is discarded and the previous state kept, so the
    sweep can only rearrange, never destroy, the extracted structure.
    """
    for _ in range(rounds):
        dist = np.column_stack(
            [np.abs(normals @ e - offsets) for _, _, e in state]
        )
        k_cols = []
        for _, _, e in state:
            k, _h = ttc_batch(p0, p1, e, intrinsics)
            k_cols.append(k * spans)
        k_all = np.column_stack(k_cols)
        eligible = dist < config.eps_dist
        eligible &= np.isfinite(k_all)
        for c, (_, k_values, _e) in enumerate(state):
            eps_ttc = config.effective_eps_ttc(float(np.median(k_values)))
            mean_k = float(np.mean(k_values))
            eligible[:, c] &= np.abs(k_all[:, c] - mean_k) <= eps_ttc
        any_ok = eligible.any(axis=1)
        choice = np.argmin(np.where(eligible, dist, np.inf), axis=1)

        new_state = []
        for c in range(len(state)):
            members = np.flatnonzero(any_ok & (choice == c))
            if members.size < config.min_cluster_size:
                return state
            e_pos, _, error = _least_squares_epipole(normals[members], offsets[members])
            if error is not None:  # all lines parallel
                e_pos = state[c][2]
            k, _h = ttc_batch(p0[members], p1[members], e_pos, intrinsics)
            k = k * spans[members]
            # re-gate against the refit epipole so the recorded cluster
            # satisfies its own thresholds
            keep = np.isfinite(k)
            keep &= np.abs(normals[members] @ e_pos - offsets[members]) < config.eps_dist
            members, k = _trim_to_invariants(members[keep], k[keep], config)
            if members.size < config.min_cluster_size:
                return state
            new_state.append((members, k, e_pos))
        unchanged = all(
            np.array_equal(old[0], new[0]) for old, new in zip(state, new_state)
        )
        state = new_state
        if unchanged:
            break
    return state


def cluster_flows(
    flows: list[FlowVector] | None,
    tracks: list[TrackObservation] | None = None,
    config: ClusteringConfig | None = None,
    *,
    intrinsics: CameraIntrinsics,
) -> tuple[list[MotionCluster], tuple[int, ...]]:
    """Segment flows into motion clusters by sequential RANSAC.

    Args:
        flows: flow vectors to cluster; pass None to derive them from
            tracks. A derived flow spans each track first to last frame,
            which suppresses endpoint noise far better than a single
            frame pair, and its TTC is rescaled by the span so tracks of
            different lengths stay comparable in frame units.
        tracks: optional tracks matching the flows one-to-one; used only
            to derive flows when flows is None.
        config: thresholds and seed; defaults to ClusteringConfig().
        intrinsics: camera model, required for the TTC consistency gate.

    Returns:
        (clusters, outlier_indices): clusters in extraction order
        (largest consensus first), and the sorted indices of flows not
        in any cluster.

    Raises:
        InsufficientData: fewer flows than min_cluster_size.
        DegenerateFlow: a zero-displacement track when deriving flows.
    """
    if config is None:
        config = ClusteringConfig()
    if flows is None:
        if tracks is None:
            raise InvalidInput("pass flows, or tracks to derive them from")
        n = len(tracks)
        p0 = np.array([t.positions[0] for t in tracks]).reshape(n, 2)
        p1 = np.array([t.positions[-1] for t in tracks]).reshape(n, 2)
        spans = np.array([float(t.frames[-1] - t.frames[0]) for t in tracks])
    else:
        if tracks is not None and len(tracks) != len(flows):
            raise InvalidInput(f"{len(flows)} flows but {len(tracks)} tracks")
        n = len(flows)
        p0 = np.array([fl.p for fl in flows]).reshape(n, 2)
        p1 = np.array([fl.p_prime for fl in flows]).reshape(n, 2)
        spans = np.ones(n)
    normals, offsets, error = _flow_lines(p0, p1)
    if error is not None:
        raise error
    if n < config.min_cluster_size:
        raise InsufficientData(f"need at least {config.min_cluster_size} flows, got {n}")

    rng = np.random.default_rng(config.rng_seed)
    remaining = np.arange(n, dtype=np.int64)
    extracted: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    while remaining.size >= config.min_cluster_size:
        m = remaining.size
        if m * (m - 1) // 2 <= config.max_iterations:
            samples = [remaining[[i, j]] for i, j in itertools.combinations(range(m), 2)]
        else:
            samples = [
                remaining[rng.choice(m, size=2, replace=False)] for _ in range(config.max_iterations)
            ]

        best_key = None
        best = None
        for sample in samples:
            hypothesis, _, error = _least_squares_epipole(normals[sample], offsets[sample])
            if error is not None:  # the pair's lines are parallel
                continue
            members, k_values, rms = _collect_inliers(
                hypothesis, remaining, p0, p1, normals, offsets, spans, intrinsics, config
            )
            if members.size < config.min_cluster_size:
                continue
            # Larger consensus wins; ties prefer lower RMS distance. The
            # in-order scan makes the earliest best sample decisive.
            key = (members.size, -rms)
            if best_key is None or key > best_key:
                best_key = key
                best = (members, k_values, hypothesis)
        if best is None:
            break

        members, k_values, hypothesis = best
        refit, _, error = _least_squares_epipole(normals[members], offsets[members])
        if error is not None:  # all member lines parallel
            refit = hypothesis
        re_members, re_k, _ = _collect_inliers(
            refit, remaining, p0, p1, normals, offsets, spans, intrinsics, config
        )
        if re_members.size >= members.size:
            members, k_values, epipole_pos = re_members, re_k, refit
        else:
            epipole_pos = hypothesis

        members, k_values = _trim_to_invariants(members, k_values, config)
        if members.size < config.min_cluster_size:
            break
        extracted.append((members, k_values, epipole_pos))
        remaining = np.setdiff1d(remaining, members, assume_unique=True)

    if extracted:
        extracted = _reassignment_sweep(
            extracted, p0, p1, normals, offsets, spans, intrinsics, config
        )

    clusters: list[MotionCluster] = []
    member_union: set[int] = set()
    for members, k_values, epipole_pos in extracted:
        dist = np.abs(normals[members] @ epipole_pos - offsets[members])
        epipole = Epipole(
            position=epipole_pos,
            method=EpipoleMethod.LEAST_SQUARES,
            residual=float(np.sqrt(np.mean(dist**2))),
        )
        clusters.append(
            MotionCluster(
                member_indices=tuple(int(i) for i in members),
                epipole=epipole,
                ttc_values=k_values.copy(),
                mean_ttc=float(np.mean(k_values)),
            )
        )
        member_union.update(int(i) for i in members)

    outliers = tuple(i for i in range(n) if i not in member_union)
    return clusters, outliers
