"""RANSAC grouping of flow vectors into independently moving clusters.

Flows belonging to one rigid translation share an epipole: every flow
line passes through it. Two sampled flows define a hypothesis epipole,
the meeting point of their lines; flows whose lines pass within eps_dist
pixels of it AND whose time-to-collision agrees with the consensus
median within eps_ttc are inliers. The largest consensus set wins, its
epipole is refit on all members by least squares, members are removed,
and the process repeats on the remainder until no cluster of at least
min_cluster_size survives. A deterministic reassignment sweep then lets
clusters exchange ambiguous members: each flow joins the consistent
cluster whose epipole its line passes nearest, epipoles are refit, and
the sweep repeats a bounded number of rounds. Greedy extraction alone
tends to steal members that lie near the line joining two epipoles; the
sweep returns them. Whatever is left over, plus any group too small to
stand on its own, is reported as outliers.

The flows become arrays once, at entry: endpoints, unit line normals n
and offsets n . p (epipole._flow_lines), and every line distance is
|n . e - offset|. A round scores all its hypotheses as arrays: the pair
epipoles come from one batched 2x2 solve, and _consensus gates and
ranks them _BLOCK at a time, one matrix product for the line distances
and one _decompose call for the TTC of the geometric inliers. The refit
and sweep epipoles are epipole._least_squares_epipole on rows of the
flow arrays.

Determinism contract: given identical inputs and the same rng_seed the
clustering is byte-for-byte reproducible. When the number of candidate
pairs in a round is at most max_iterations, all pairs are enumerated in
index order and the RNG is not consulted at all, which also makes the
small-input behavior identical to brute-force enumeration. Otherwise
each hypothesis draws its pair with one rng.choice call, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .epipole import (
    _MIN_SIN_PARALLEL,
    Epipole,
    EpipoleMethod,
    FlowVector,
    _cross_abs,
    _flow_lines,
    _least_squares_epipole,
)
from .errors import InsufficientData, InvalidInput, _valid_seed
from .ttc import TrackObservation, TrackTable, _decompose, ttc_batch

__all__ = [
    "ClusteringConfig",
    "MotionCluster",
    "cluster_flows",
]

# Hypotheses scored at once: bounds the (block, flows) work arrays.
_BLOCK = 16

# Bound on the rounds of the reassignment sweep.
_SWEEP_ROUNDS = 3


@dataclass(frozen=True)
class ClusteringConfig:
    """Tuning knobs for cluster_flows.

    Attributes:
        eps_dist: inlier threshold on flow-line-to-epipole distance, px;
            finite and > 0.
        eps_ttc: inlier threshold on |k - consensus k|, frames; finite
            and > 0. None
            selects the adaptive default max(1.0, 0.1 * |median k|),
            which treats near and far objects uniformly.
        max_iterations: RANSAC hypothesis budget per extraction round;
            rounds with at most this many candidate pairs enumerate them
            all instead of sampling.
        min_cluster_size: smallest reportable cluster. Two non-parallel
            lines always intersect somewhere, so 3 is the smallest value
            that rejects spurious pairings.
        rng_seed: seed for the hypothesis sampler, a non-negative integer.
    """

    eps_dist: float = 2.0
    eps_ttc: float | None = None
    max_iterations: int = 500
    min_cluster_size: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.eps_dist) and self.eps_dist > 0.0):
            raise InvalidInput(f"eps_dist must be finite and > 0, got {self.eps_dist}")
        if self.eps_ttc is not None and not (math.isfinite(self.eps_ttc) and self.eps_ttc > 0.0):
            raise InvalidInput(f"eps_ttc must be finite and > 0, or None, got {self.eps_ttc}")
        if self.max_iterations < 1:
            raise InvalidInput(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.min_cluster_size < 3:
            raise InvalidInput(f"min_cluster_size must be >= 3, got {self.min_cluster_size}")
        object.__setattr__(self, "rng_seed", _valid_seed(self.rng_seed, "rng_seed"))

    def effective_eps_ttc(self, median_k):
        """The TTC gate around a median k, or around each of an array of them."""
        if self.eps_ttc is not None:
            return self.eps_ttc
        return np.maximum(1.0, 0.1 * np.abs(median_k))


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


def _consensus(
    epipoles: np.ndarray,
    candidate_idx: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    spans: np.ndarray,
    intrinsics: CameraIntrinsics,
    config: ClusteringConfig,
):
    """Best consensus set among hypothesis epipoles of shape (H, 2).

    Each hypothesis gathers the candidate flows whose lines pass within
    eps_dist of it, then keeps those whose k agrees with the median k of
    that geometric set within eps_ttc; k values are rescaled by each
    flow's frame span so they compare in frame units. Hypotheses are
    scored _BLOCK at a time and ranked by (members, -RMS line distance
    of the members); the first of exact ties wins, and hypotheses with
    fewer than min_cluster_size members are not ranked. Every value,
    including each RMS, is computed with the same arithmetic as a
    one-hypothesis scan, so the ranking does not depend on the block.

    Returns:
        (h, members, k_values): the winner's row in epipoles, its
        members in candidate order and their k, or None.
    """
    best_key, best = None, None
    line_offsets = offsets[candidate_idx]
    lines = np.broadcast_to(normals[candidate_idx], (_BLOCK, len(candidate_idx), 2))
    for first in range(0, len(epipoles), _BLOCK):
        e = epipoles[first:first + _BLOCK]
        b = len(e)
        # one matrix-vector product per hypothesis, as normals @ e[i] computes it
        dist = np.abs((lines[:b] @ e[:, :, np.newaxis])[..., 0] - line_offsets)
        hyp, col = np.nonzero(dist < config.eps_dist)  # grouped by hypothesis, flows in order
        counts = np.bincount(hyp, minlength=b)
        # the TTC gate only removes members
        least = config.min_cluster_size if best_key is None else best_key[0]
        if counts.max() < least:
            continue
        flow = candidate_idx[col]
        k = _decompose(p0[flow], p1[flow], e[hyp], intrinsics)[0] * spans[flow]
        finite = np.isfinite(k)
        # median of each hypothesis's finite k, from one sort of a NaN-padded table
        starts = np.cumsum(counts) - counts
        table = np.full((b, counts.max()), np.nan)
        table[hyp, np.arange(hyp.size) - starts[hyp]] = np.where(finite, k, np.nan)
        table.sort(axis=1)
        n_finite = np.bincount(hyp[finite], minlength=b)
        half = n_finite // 2
        upper = table[np.arange(b), half]
        lower = table[np.arange(b), np.maximum(half - 1, 0)]
        median = np.where(n_finite % 2 == 1, upper, (lower + upper) / 2)[hyp]
        ok = finite & (np.abs(k - median) <= config.effective_eps_ttc(median))
        sizes = np.bincount(hyp[ok], minlength=b)
        top = int(sizes.max())
        if top < least:
            continue
        # Summed in another order, the squares of each hypothesis agree with
        # np.mean's sum to n * 1.1e-16 relative, so only the hypotheses
        # within 1e-9 of the lowest such sum can hold the lowest RMS.
        squares = np.bincount(hyp[ok], weights=dist[hyp[ok], col[ok]] ** 2, minlength=b)
        tied = sizes == top
        for h in np.flatnonzero(tied & (squares <= squares[tied].min() * (1.0 + 1e-9))):
            rows = slice(starts[h], starts[h] + counts[h])
            keep = ok[rows]
            rms = float(np.sqrt(np.mean(dist[h, col[rows][keep]] ** 2)))
            key = (top, -rms)
            if best_key is None or key > best_key:
                best_key, best = key, (first + int(h), flow[rows][keep], k[rows][keep])
    return best


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
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Exchange ambiguous members between extracted clusters.

    state holds (members, k_values, epipole_position) per cluster. Each
    round assigns every flow to the nearest cluster (by line distance)
    among those whose gates it passes, refits each epipole, recomputes
    k, and re-trims. A round that would shrink any cluster below
    min_cluster_size is discarded and the previous state kept, so the
    sweep can only rearrange, never destroy, the extracted structure.
    """
    for _ in range(_SWEEP_ROUNDS):
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
    tracks: list[TrackObservation] | TrackTable | None = None,
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
        tracks: optional tracks matching the flows one-to-one, as a
            sequence of TrackObservation or a TrackTable; used only to
            derive flows when flows is None.
        config: thresholds and seed; defaults to ClusteringConfig().
        intrinsics: camera model, required for the TTC consistency gate.

    Each round ranks its hypotheses by consensus size, then by lower RMS
    line distance of the members; of exactly tied hypotheses the first
    pair (in index order, or in draw order when sampling) wins. Clusters
    of equal size whose RMS differs only at rounding level (noise-free
    input, about 1e-13 px) can therefore come out in either order when
    the arithmetic of the hypothesis epipole changes.

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
        if not isinstance(tracks, TrackTable):
            tracks = TrackTable.from_tracks(tracks)
        if np.any(tracks.length < 2):
            raise InvalidInput("every track needs at least 2 frames to derive a flow")
        n = len(tracks)
        p0, p1 = tracks.pixels(0), tracks.pixels(-1)
        spans = (tracks.length - 1).astype(np.float64)  # frames step by 1
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
            pairs = remaining[np.column_stack(np.triu_indices(m, 1))]
        else:
            pairs = remaining[
                np.array([rng.choice(m, size=2, replace=False) for _ in range(config.max_iterations)])
            ]
        # a pair of lines closer than EPS_PARALLEL_DEG defines no epipole
        lhs = normals[pairs]
        pairs_ok = _cross_abs(lhs[:, 0], lhs[:, 1]) >= _MIN_SIN_PARALLEL
        hypotheses = np.linalg.solve(lhs[pairs_ok], offsets[pairs[pairs_ok]][:, :, np.newaxis])[..., 0]
        best = _consensus(hypotheses, remaining, p0, p1, normals, offsets, spans, intrinsics, config)
        if best is None:
            break

        h, members, k_values = best
        hypothesis = hypotheses[h]
        refit, _, error = _least_squares_epipole(normals[members], offsets[members])
        if error is not None:  # all member lines parallel
            refit = hypothesis
        refit_best = _consensus(
            refit[np.newaxis], remaining, p0, p1, normals, offsets, spans, intrinsics, config
        )
        if refit_best is not None and refit_best[1].size >= members.size:
            _, members, k_values = refit_best
            epipole_pos = refit
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
