"""RANSAC grouping of tracks into independently moving clusters, by their flows.

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

The flows, one per track from its first to its last frame, become arrays
once, at entry: endpoints, unit line normals n and offsets n . p
(epipole._flow_lines), and every line distance is |n . e - offset|. A
round scores all its hypotheses as arrays: the pair epipoles come from
one batched 2x2 solve, and _consensus bounds every hypothesis by its
geometric inliers, _BLOCK at a time with one matrix product for the
line distances, then TTC-gates them best bound first in chunks of at
most _BLOCK hypotheses and the row budget ttc._BLOCK_ROWS of geometric
inliers, one _decompose call per chunk, so the gate's work arrays do
not grow with the flows. The TTC gate only removes
members, so only the hypotheses whose geometric inliers can still beat
the best set found so far are gated; the others cannot win, which
leaves every result as it was. The refit and sweep epipoles are
epipole._least_squares_epipole on rows of the flow arrays.

Determinism contract: given identical inputs and the same rng_seed the
clustering is byte-for-byte reproducible. When the number of candidate
pairs in a round is at most max_iterations, all pairs are enumerated in
index order and the RNG is not consulted at all, which also makes the
small-input behavior identical to brute-force enumeration. Otherwise
one rng.integers call draws the pairs of the whole round, the same
stream as one rng.choice(m, size=2, replace=False) call per hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .epipole import (
    _MIN_SIN_PARALLEL,
    Epipole,
    EpipoleMethod,
    _cross_abs,
    _flow_lines,
    _least_squares_epipole,
)
from .errors import _ZERO_DISPLACEMENT, InvalidInput, _count, _real, _reason_error
from .ttc import _BLOCK_ROWS, TrackObservation, TrackTable, _decompose, ttc_batch

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
            and > 0. None selects the adaptive default
            max(1.0, 0.1 * |median k|), which treats near and far objects
            uniformly.
        max_iterations: RANSAC hypothesis budget per extraction round,
            an integer >= 1; rounds with at most this many candidate
            pairs enumerate them all instead of sampling.
        min_cluster_size: smallest reportable cluster, an integer >= 3.
            Two non-parallel lines always intersect somewhere, so 3 is
            the smallest value that rejects spurious pairings.
        rng_seed: seed for the hypothesis sampler, a non-negative integer.
    """

    eps_dist: float = 2.0
    eps_ttc: float | None = None
    max_iterations: int = 500
    min_cluster_size: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps_dist", _real(self.eps_dist, "eps_dist", gt=0))
        if self.eps_ttc is not None:
            object.__setattr__(self, "eps_ttc", _real(self.eps_ttc, "eps_ttc", gt=0))
        object.__setattr__(self, "max_iterations", _count(self.max_iterations, "max_iterations", 1))
        object.__setattr__(self, "min_cluster_size", _count(self.min_cluster_size, "min_cluster_size", 3))
        object.__setattr__(self, "rng_seed", _count(self.rng_seed, "rng_seed", 0))

    def effective_eps_ttc(self, median_k):
        """The TTC gate around a median k, or around each of an array of them."""
        if self.eps_ttc is not None:
            return self.eps_ttc
        return np.maximum(1.0, 0.1 * np.abs(median_k))


@dataclass(frozen=True)
class MotionCluster:
    """One group of flows sharing an epipole and a consistent TTC.

    Attributes:
        member_indices: sorted tuple of indices into the input tracks.
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


def _draw_pairs(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """n pairs of distinct indices in [0, m), shape (n, 2), in one call.

    The same pairs, and the same generator state after, as n calls of
    rng.choice(m, size=2, replace=False): each runs Floyd's algorithm,
    a from [0, m - 1) and b from [0, m) with m - 1 taken for b == a,
    then a one-swap shuffle that swaps the pair when its draw s is 0.
    """
    a, b, s = rng.integers(0, np.tile([m - 1, m, 2], n)).reshape(n, 3).T
    b[b == a] = m - 1
    swap = s == 0
    return np.column_stack((np.where(swap, b, a), np.where(swap, a, b)))


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
    ranked by (members, -RMS line distance of the members, -index), so
    the first of exact ties wins, and hypotheses with fewer than
    min_cluster_size members are not ranked.

    The TTC gate only removes members, so a hypothesis's geometric
    inliers bound it: their count bounds its size and, if it keeps them
    all, their sum of squared line distances gives its RMS. A first pass
    takes both bounds of every hypothesis, _BLOCK at a time; the second
    gates the hypotheses best bound first (most inliers, then the lowest
    sum of squares), in chunks of at most _BLOCK hypotheses and the row
    budget _BLOCK_ROWS: a chunk's bound counts sum to at most the budget
    unless its one hypothesis passes it alone. It drops those that can no
    longer win against the best set found so far. In that order no later
    hypothesis can win once one cannot, so the gated chunks are dense and
    the pass stops at the first chunk that is left empty. Every value,
    including each RMS, is computed with the same arithmetic as a
    one-hypothesis scan, so the result does not depend on the order.

    Returns:
        (h, members, k_values): the winner's row in epipoles, its
        members in candidate order and their k, or None.
    """
    line_offsets = offsets[candidate_idx]
    lines = np.broadcast_to(normals[candidate_idx], (_BLOCK, len(candidate_idx), 2))

    def distances(e):
        # one matrix-vector product per hypothesis, as normals @ e[i] computes
        # it; the rest in place, so one (block, flows) array is allocated
        dist = (lines[:len(e)] @ e[:, :, np.newaxis])[..., 0]
        dist -= line_offsets
        return np.abs(dist, out=dist)

    n_hyp = len(epipoles)
    bound_counts = np.empty(n_hyp, dtype=np.int64)
    bound_squares = np.empty(n_hyp)
    for first in range(0, n_hyp, _BLOCK):
        dist = distances(epipoles[first:first + _BLOCK])
        inlier = dist < config.eps_dist
        block = slice(first, first + len(dist))
        bound_counts[block] = np.count_nonzero(inlier, axis=1)
        bound_squares[block] = np.sum(np.square(dist, out=dist), axis=1, where=inlier)
    order = np.lexsort((np.arange(n_hyp), bound_squares, -bound_counts))

    best_key, best = None, None
    first = 0
    while first < n_hyp:
        # at most _BLOCK hypotheses whose bound counts sum to at most _BLOCK_ROWS, or one
        chunk = order[first:first + _BLOCK]
        chunk = chunk[:max(1, np.searchsorted(np.cumsum(bound_counts[chunk]), _BLOCK_ROWS, side="right"))]
        first += chunk.size
        # A hypothesis that can at best tie the best size must keep every
        # member: then its geometric sum of squares is its RMS's, up to the
        # summation order that the 1e-9 margin below covers.
        least = config.min_cluster_size if best_key is None else best_key[0]
        viable = bound_counts[chunk] >= least
        if best_key is not None:  # best_key[1] ** 2 is the best RMS squared
            viable &= (bound_counts[chunk] > least) | (
                bound_squares[chunk] <= best_key[1] ** 2 * least * (1.0 + 1e-9)
            )
        chunk = chunk[viable]
        if chunk.size == 0:
            break
        b = chunk.size
        e = epipoles[chunk]
        dist = distances(e)
        hyp, flow = np.nonzero(dist < config.eps_dist)  # grouped by hypothesis, flows in order
        sq = dist[hyp, flow] ** 2
        del dist  # freed before the chunk's TTC rows are built, which lowers the peak RSS
        counts = np.bincount(hyp, minlength=b)
        flow = candidate_idx[flow]
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
        squares = np.bincount(hyp[ok], weights=sq[ok], minlength=b)
        tied = sizes == top
        for h in np.flatnonzero(tied & (squares <= squares[tied].min() * (1.0 + 1e-9))):
            rows = slice(starts[h], starts[h] + counts[h])
            keep = ok[rows]
            rms = float(np.sqrt(np.mean(sq[rows][keep])))
            key = (top, -rms, -int(chunk[h]))
            if best_key is None or key > best_key:
                best_key, best = key, (int(chunk[h]), flow[rows][keep], k[rows][keep])
    return best


def _median(values: np.ndarray) -> float:
    """np.median of finite values, bit for bit, as _consensus takes it:
    the middle of the sorted values, or the mean of the middle two.
    np.median's NaN check imports numpy.ma."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    return float(ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2)


def _trim_to_invariants(
    members: np.ndarray, k_values: np.ndarray, config: ClusteringConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Drop worst TTC outliers until every member sits within eps_ttc of
    the member mean. Deletion order is deterministic (first worst)."""
    while members.size >= config.min_cluster_size:
        mean_k = float(np.mean(k_values))
        eps_ttc = config.effective_eps_ttc(_median(k_values))
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
        # one cluster's column at a time: each flow keeps the nearest
        # cluster whose gates it passes, the first of equally near ones
        # (strict <), and -1 when it passes none
        nearest = np.full(len(offsets), np.inf)
        choice = np.full(len(offsets), -1, dtype=np.int64)
        for c, (_, k_values, e) in enumerate(state):
            dist = np.abs(normals @ e - offsets)
            k, _h = ttc_batch(p0, p1, e, intrinsics)
            k = k * spans
            eligible = dist < config.eps_dist
            eligible &= np.isfinite(k)
            eps_ttc = config.effective_eps_ttc(_median(k_values))
            eligible &= np.abs(k - float(np.mean(k_values))) <= eps_ttc
            eligible &= dist < nearest
            nearest[eligible] = dist[eligible]
            choice[eligible] = c

        new_state = []
        for c in range(len(state)):
            members = np.flatnonzero(choice == c)
            if members.size < config.min_cluster_size:
                return state
            e_pos, _, code = _least_squares_epipole(normals[members], offsets[members])
            if code:  # all lines parallel
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
    tracks: list[TrackObservation] | TrackTable,
    config: ClusteringConfig | None = None,
    *,
    intrinsics: CameraIntrinsics,
) -> tuple[list[MotionCluster], tuple[int, ...]]:
    """Segment tracks into motion clusters by sequential RANSAC.

    Args:
        tracks: the tracks to cluster, a sequence of TrackObservation or
            a TrackTable. Each is clustered by its flow from first to
            last frame, which suppresses endpoint noise far better than
            a single frame pair, and its TTC is rescaled by the span so
            tracks of different lengths stay comparable in frame units.
            A single flow is a two-frame track.
        config: thresholds and seed; defaults to ClusteringConfig().
        intrinsics: camera model, required for the TTC consistency gate.

    Each round ranks its hypotheses by consensus size, then by lower RMS
    line distance of the members; of exactly tied hypotheses the first
    pair (in index order, or in draw order when sampling) wins. Clusters
    of equal size whose RMS differs only at rounding level (noise-free
    input, about 1e-13 px) can therefore come out in either order when
    the arithmetic of the hypothesis epipole changes. Fewer tracks than
    min_cluster_size give no cluster: all of them are outliers.

    Returns:
        (clusters, outlier_indices): clusters in extraction order
        (largest consensus first), and the sorted indices of tracks not
        in any cluster.

    Raises:
        InvalidInput: a track of fewer than 2 frames.
        DegenerateFlow: a track whose first-to-last flow is zero.
    """
    if config is None:
        config = ClusteringConfig()
    if not isinstance(tracks, TrackTable):
        tracks = TrackTable.from_tracks(tracks)
    if np.any(tracks.length < 2):
        raise InvalidInput("every track needs at least 2 frames to derive a flow")
    n = len(tracks)
    p0, p1 = tracks.pixels(0), tracks.pixels(-1)
    spans = (tracks.length - 1).astype(np.float64)  # frames step by 1
    normals, offsets, zero = _flow_lines(p0, p1)
    if zero.any():
        raise _reason_error(_ZERO_DISPLACEMENT, {"pixel": p0}, int(np.argmax(zero)))

    rng = np.random.default_rng(config.rng_seed)
    remaining = np.arange(n, dtype=np.int64)
    extracted: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    while remaining.size >= config.min_cluster_size:
        m = remaining.size
        if m * (m - 1) // 2 <= config.max_iterations:
            pairs = remaining[np.column_stack(np.triu_indices(m, 1))]
        else:
            pairs = remaining[_draw_pairs(rng, m, config.max_iterations)]
        # a pair of lines closer than EPS_PARALLEL_DEG defines no epipole
        lhs = normals[pairs]
        pairs_ok = _cross_abs(lhs[:, 0], lhs[:, 1]) >= _MIN_SIN_PARALLEL
        hypotheses = np.linalg.solve(lhs[pairs_ok], offsets[pairs[pairs_ok]][:, :, np.newaxis])[..., 0]
        best = _consensus(hypotheses, remaining, p0, p1, normals, offsets, spans, intrinsics, config)
        if best is None:
            break

        h, members, k_values = best
        hypothesis = hypotheses[h]
        refit, _, code = _least_squares_epipole(normals[members], offsets[members])
        if code:  # all member lines parallel
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
