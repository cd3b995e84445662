"""Review-candidate funnel: expansion, thresholding, dedup, filtering, and
greedy maximal-coverage sampling down to a per-round review budget.

A run has one position index, the corpus's ascending ids, which the graph,
the label store (``labeling.KnownStore``) and the content reach (``Reach``)
share. Every stage takes and returns int64 positions into it: candidates
ascending, each dedup's routes as an (m, 2) array of [dropped, matched]
ascending by the dropped one, and the coverage plan as three arrays
(``CoveragePlan``). Positions index the store's and the reach's arrays, so
a stage's membership tests are mask gathers, and ``SimilarityGraph.gather``
returns neighbour positions, each row cut at the query radius. Positions
ascend as ids do, so "lowest id" below is "lowest position". Ids appear only
at a round's edges: the oracle, the store's records and the outputs. A stage
refuses a graph over another index.

Selection is incremental. ``Reach`` holds one content mask, the one-hop
reach of every positive expanded so far; positives surfaced by earlier
rounds (the feedback loop) join the sources and so widen it. A round gathers
the neighbours of only the positives that are new since the last; sources
only grow, so the mask equals a one-hop expansion of all of them. A round's
candidates are the union of the content, actor and score channels' position
masks; no stage reads which channel nominated a candidate. Every stage reads
the graph through one batched gather; only the greedy choices of dedup and
sampling stay sequential, in ascending order, so the funnel is deterministic
and replayable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import _index, _nonnegative
from .simgraph import SimilarityGraph

def position_array(pos: Iterable[int]) -> np.ndarray:
    """The distinct positions of any iterable, ascending int64; IndexError if negative,
    TypeError if not integers."""
    pos = _nonnegative(pos if isinstance(pos, np.ndarray) else list(pos))
    return pos if np.all(pos[1:] > pos[:-1]) else np.unique(pos)


@dataclass(frozen=True)
class CoveragePlan:
    """Representatives chosen by coverage sampling and what each one covers.

    Three int64 position arrays: ``representatives`` in pick order, the
    covered ``members`` ascending, and ``owner[k]``, the representative that
    reached ``members[k]`` first. So covered sets cannot overlap; each
    representative owns itself.
    """

    representatives: np.ndarray
    members: np.ndarray
    owner: np.ndarray
    budget: int

    def __post_init__(self):
        if len(self.representatives) > self.budget:
            raise ValueError("more representatives than budget")
        lost = np.setdiff1d(self.representatives, self.members[self.owner == self.members])
        if len(lost):
            raise ValueError(f"representative {lost[0]} does not cover itself")

    @property
    def total_covered(self) -> int:
        return len(self.members)


class Reach:
    """What the labels so far reach in one hop, as arrays over the ascending ``index``.

    ``content`` holds the neighbourhoods of the expanded ``sources``.
    ``nearest`` holds each position's first reviewed neighbour within
    theta_dup (-1 if none) among the ``reviewed`` positions absorbed so far.
    Nothing is ever taken out.
    """

    def __init__(self, index: np.ndarray):
        self.index = _index(index, "reach")
        n = len(self.index)
        self.sources, self.content, self.reviewed = (np.zeros(n, dtype=bool) for _ in range(3))
        self.nearest = np.full(n, -1, dtype=np.int64)


def expand_content(
    graph: SimilarityGraph, reach: Reach, sources: Iterable[int], theta_sim: float
) -> np.ndarray:
    """One-hop neighbourhood of every source so far, excluding the sources.

    Only sources new to ``reach`` are gathered.
    """
    graph.require_index(reach.index)
    pos = position_array(sources)
    fresh = pos[~reach.sources[pos]]
    reach.sources[pos] = True
    reach.content[graph.gather(fresh, theta_sim)[1]] = True
    return np.flatnonzero(reach.content & ~reach.sources)


def expand_actor(store, min_positives: int, min_rate: float) -> np.ndarray:
    """Unlabeled items of accounts whose labeled items skew positive.

    An account is flagged when it has at least ``min_positives`` positive
    labels and its positive share among labeled items reaches ``min_rate``;
    the counts come from the store's labels and account codes.
    """
    if min_positives < 1:
        raise ValueError("min_positives must be >= 1")
    if not 0.0 < min_rate <= 1.0:
        raise ValueError("min_rate must be in (0, 1]")
    slots = len(store.accounts) + 1
    counts = np.bincount(3 * store.account_codes + store.labels + 1, minlength=3 * slots)
    _, negative, positive = counts.reshape(slots, 3).T
    with np.errstate(divide="ignore", invalid="ignore"):
        flagged = (positive >= min_positives) & (positive / (negative + positive) >= min_rate)
    flagged[-1] = False  # the slot of items without an account
    return np.flatnonzero(flagged[store.account_codes] & (store.labels < 0))


def dedup_cross_round(
    candidates: Iterable[int], store, graph: SimilarityGraph, theta_dup: float, reach: Reach
) -> tuple[np.ndarray, np.ndarray]:
    """Drop candidates already reviewed in substance in an earlier round.

    A candidate is removed when its exact hash matches a reviewed item (the
    lowest) or it lies within theta_dup of one (the nearest, lowest first).
    Removed candidates come back as (m, 2) routes of [candidate, matched],
    ascending by candidate, so the propagation stage can copy the matched
    item's label instead of silently discarding them. ``reach`` first
    absorbs the items reviewed since its last call: only the rows they touch
    are searched again.
    """
    graph.require_index(store.ids)
    graph.require_index(reach.index)
    fresh = np.flatnonzero(store.reviewed & ~reach.reviewed)
    reach.reviewed[fresh] = True
    touched = np.zeros(len(reach.index), dtype=bool)
    touched[graph.gather(fresh, theta_dup)[1]] = True
    touched = np.flatnonzero(touched)
    row, nbr, _ = graph.gather(touched, theta_dup)
    hit = reach.reviewed[nbr]
    row, nbr = row[hit], nbr[hit]
    # rows keep (distance, id) order, so a row's first reviewed entry is its match
    first = np.flatnonzero(np.diff(row, prepend=-1))
    reach.nearest[touched[row[first]]] = nbr[first]

    pos = position_array(candidates)
    match = store.hash_match(pos)
    match = np.where(match >= 0, match, reach.nearest[pos])
    routed = match >= 0
    return pos[~routed], np.stack([pos[routed], match[routed]], axis=1)


def filter_eligible(candidates: Iterable[int], store, impressions: np.ndarray) -> np.ndarray:
    """Keep candidates that are active (impressions > 0) and unlabeled.

    ``impressions`` holds one count per position of the store.
    """
    pos = position_array(candidates)
    return pos[(impressions[pos] > 0) & (store.labels[pos] < 0)]


def _batch_neighbors(graph, pos, radius):
    """Neighbours inside the ascending batch ``pos``, as (row, batch index)."""
    slot = np.full(len(graph), -1, dtype=np.int64)  # each position's batch index
    slot[pos] = np.arange(len(pos))
    row, nbr, _ = graph.gather(pos, radius)
    loc = slot[nbr]
    inside = loc >= 0
    return row[inside], loc[inside]


def dedup_intra_batch(
    candidates: Iterable[int], graph: SimilarityGraph, theta_dup: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy near-duplicate collapse within one batch.

    Scanning in ascending order, an item is kept iff no already-kept item
    lies within theta_dup. Dropped items come back as (m, 2) pairs of
    [dropped, suppressor], ascending by dropped, the suppressor being the
    lowest kept item within theta_dup. Kept pairs are all > theta_dup apart.
    """
    pos = position_array(candidates)
    row, nbr = _batch_neighbors(graph, pos, theta_dup)
    lower = nbr < row
    row, nbr = row[lower], nbr[lower]
    # an item with no lower neighbour is kept whatever came before it, and
    # one whose lowest neighbour is such an item is dropped by it; only the
    # rest need the sequential scan, whose ascending order settles every
    # neighbour before a row reads it
    contested = np.zeros(len(pos), dtype=bool)
    contested[row] = True
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    rows, least = row[starts], np.minimum.reduceat(nbr, starts)
    suppressor = np.where(contested[least], -1, least)
    keep, scan = ~contested, np.flatnonzero(contested[least])
    if len(scan):  # the scan reads lists, built only when a row needs it
        keep, nbr_list, bounds = keep.tolist(), nbr.tolist(), [*starts.tolist(), len(row)]
        for k in scan.tolist():
            hits = [n for n in nbr_list[bounds[k] : bounds[k + 1]] if keep[n]]
            if hits:
                suppressor[k] = min(hits)
            else:
                keep[rows[k]] = True
        keep = np.array(keep, dtype=bool)
    dropped = suppressor >= 0
    dup_of = np.stack([pos[rows[dropped]], pos[suppressor[dropped]]], axis=1)
    return pos[keep], dup_of


def max_coverage_sample(
    candidates: Iterable[int],
    graph: SimilarityGraph,
    theta_prop: float,
    k: int,
    weights: np.ndarray | None = None,
) -> CoveragePlan:
    """Greedy maximum-coverage selection of up to k representatives.

    Each candidate covers itself plus the candidates within theta_prop of it.
    Every step picks the candidate covering the most not-yet-covered weight
    (unit weights by default; else ``weights`` holds one finite, non-negative
    value per candidate in ascending order), ties broken by the lowest
    candidate, stopping early once everything coverable is covered. Standard
    greedy, so coverage is at least (1 - 1/e) of the optimal k-subset.

    Lazy greedy (Minoux 1978): a heap holds each gain as of some pick, and
    only its top entry is brought up to date, by taking off the weights
    covered since in the order they were covered, the arithmetic of updating
    every gain after every pick; gains only fall, so an entry that is up to
    date is the maximum, and the picks are eager greedy's under any weights.
    """
    if k < 0:
        raise ValueError("budget k must be >= 0")
    universe = position_array(candidates)
    m = len(universe)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError("weights must hold one value per candidate")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise ValueError("weights must be finite and >= 0")
    if k == 0 or not m:
        return CoveragePlan(universe[:0], universe[:0], universe[:0], k)

    # each candidate covers itself, then its row in gather order; rows come
    # ascending, so entry j of candidate r's row lands at slot j + r + 1. The
    # graph is symmetric, so the candidates covering an item are those it covers
    row, nbr = _batch_neighbors(graph, universe, theta_prop)
    counts = np.bincount(row, minlength=m) + 1
    start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=start[1:])
    cover = np.empty(start[-1], dtype=np.int64)
    cover[start[:-1]] = np.arange(m)
    cover[np.arange(len(row)) + row + 1] = nbr
    # bincount adds each candidate's weights in cover order, as a running sum would
    gains = np.bincount(np.repeat(np.arange(m), counts), weights=w[cover], minlength=m)
    # entries are (-gain, candidate), ties to the lower candidate; a sorted
    # list is a heap. ``taken`` is the pick count when each gain was taken
    order = np.argsort(-gains, kind="stable")
    order = order[gains[order] > 0.0]
    heap = list(zip((-gains[order]).tolist(), order.tolist()))
    taken = [0] * m

    covered_at = np.full(m, -1)  # the pick that covered each candidate
    left = m
    owner = np.full(m, -1)
    representatives: list[int] = []
    while heap and left and len(representatives) < k:
        stored, best = heapq.heappop(heap)
        members = cover[start[best] : start[best + 1]]
        at = covered_at[members]
        since = at >= taken[best]
        if since.any():
            # take each weight covered since off, by pick, then ascending member
            gain = -stored
            gone = members[since]
            for weight in w[gone[np.lexsort((gone, at[since]))]].tolist():
                gain -= weight
            if gain > 0.0:
                taken[best] = len(representatives)
                heapq.heappush(heap, (-gain, best))
            continue
        newly = members[at < 0]
        covered_at[newly] = len(representatives)
        representatives.append(best)
        owner[newly] = best
        left -= len(newly)
        # an earlier representative may have reached this one first; every
        # representative owns itself
        owner[best] = best
    members = np.flatnonzero(owner >= 0)
    return CoveragePlan(universe[representatives], universe[members], universe[owner[members]], k)
