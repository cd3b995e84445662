"""Review-candidate funnel: expansion, thresholding, dedup, filtering, and
greedy maximal-coverage sampling down to a per-round review budget.

Stages take and return int64 id arrays: candidates ascending, each dedup's
routes as an (m, 2) array of [dropped, matched id] ascending by dropped id,
and the coverage plan as three arrays (``CoveragePlan``). A run has one
position index, the corpus's ascending ids: the graph, the label store
(``labeling.KnownStore``) and the content reach (``Reach``) keep their state
as arrays over it, so the membership tests of a stage are mask gathers, not
one lookup per item. Inside a stage the graph is read in positions only:
``SimilarityGraph.gather`` returns neighbour positions, which index the
store's and the reach's arrays directly, and each row is cut at the query
radius. A stage refuses a graph over another index.

Selection is incremental. ``Reach`` holds one content mask, the one-hop
reach of every positive expanded so far; positives surfaced by earlier
rounds (the feedback loop) join the sources and so widen it. A round gathers
the neighbours of only the positives that are new since the last; sources
only grow, so the mask equals a one-hop expansion of all of them. A round's
candidates are the union of the content, actor and score channels' position
masks; no stage reads which channel nominated an id. Every stage reads the
graph through one batched gather; only the greedy choices of dedup and
sampling stay sequential, in ascending id order, so the funnel is
deterministic and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .simgraph import SimilarityGraph, positions

def id_array(item_ids: Iterable[int]) -> np.ndarray:
    """The distinct ids of any iterable, as an ascending int64 array."""
    if not isinstance(item_ids, np.ndarray):
        item_ids = np.fromiter(item_ids, dtype=np.int64)
    item_ids = item_ids.astype(np.int64, copy=False)
    return item_ids if np.all(item_ids[1:] > item_ids[:-1]) else np.unique(item_ids)


@dataclass(frozen=True)
class CoveragePlan:
    """Representatives chosen by coverage sampling and what each one covers.

    Three int64 arrays: ``representatives`` in pick order, the covered
    ``members`` ascending, and ``owner[k]``, the representative that reached
    ``members[k]`` first. So covered sets cannot overlap; each representative
    owns itself.
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
    """What the labels so far reach in one hop, as arrays over ``index``.

    ``content`` holds the neighbourhoods of the expanded ``sources``.
    ``nearest`` holds each position's first reviewed neighbour within
    theta_dup (-1 if none) among the ``reviewed`` items absorbed so far.
    Nothing is ever taken out.
    """

    def __init__(self, index: np.ndarray):
        self.index = np.asarray(index, dtype=np.int64)
        n = len(self.index)
        self.sources, self.content, self.reviewed = (np.zeros(n, dtype=bool) for _ in range(3))
        self.nearest = np.full(n, -1, dtype=np.int64)

    @property
    def frontier(self) -> np.ndarray:
        """Mask of the content reach less its sources: ``expand_content``'s ids."""
        return self.content & ~self.sources


def expand_content(
    graph: SimilarityGraph, reach: Reach, sources: Iterable[int], theta_sim: float
) -> np.ndarray:
    """One-hop neighbourhood of every source so far, excluding the sources.

    Only sources new to ``reach`` are gathered.
    """
    graph.require_index(reach.index)
    pos = positions(reach.index, id_array(sources))
    fresh = pos[~reach.sources[pos]]
    reach.sources[pos] = True
    reach.content[graph.gather(fresh, theta_sim)[1]] = True
    return reach.index[reach.frontier]


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
    return store.ids[flagged[store.account_codes] & (store.labels < 0)]


def dedup_cross_round(
    candidates: Iterable[int], store, graph: SimilarityGraph, theta_dup: float, reach: Reach
) -> tuple[np.ndarray, np.ndarray]:
    """Drop candidates already reviewed in substance in an earlier round.

    A candidate is removed when its exact hash matches a reviewed item (the
    lowest id) or it lies within theta_dup of one (the nearest, lowest id
    first). Removed candidates come back as (m, 2) routes of [candidate,
    matched id], ascending by candidate, so the propagation stage can copy the
    matched item's label instead of silently discarding them. ``reach`` first
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

    ids = id_array(candidates)
    pos = store.positions(ids)
    match = store.hash_match(pos)
    match = np.where(match >= 0, match, reach.nearest[pos])
    routed = match >= 0
    return ids[~routed], np.stack([ids[routed], store.ids[match[routed]]], axis=1)


def filter_eligible(candidates: Iterable[int], store, impressions: np.ndarray) -> np.ndarray:
    """Keep candidates that are active (impressions > 0) and unlabeled.

    ``impressions`` holds one count per position of the store.
    """
    ids = id_array(candidates)
    pos = store.positions(ids)
    return ids[(impressions[pos] > 0) & (store.labels[pos] < 0)]


def _batch_neighbors(graph, ids, radius):
    """Neighbours inside the ascending batch ``ids``, as (row, batch index)."""
    pos = positions(graph.ids, ids)
    slot = np.full(len(graph), -1, dtype=np.int64)  # each position's batch index
    slot[pos] = np.arange(len(ids))
    row, nbr, _ = graph.gather(pos, radius)
    loc = slot[nbr]
    inside = loc >= 0
    return row[inside], loc[inside]


def dedup_intra_batch(
    candidates: Iterable[int], graph: SimilarityGraph, theta_dup: float
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy near-duplicate collapse within one batch.

    Scanning in ascending item_id order, an item is kept iff no already-kept
    item lies within theta_dup. Dropped items come back as (m, 2) pairs of
    [dropped, suppressor], ascending by dropped id, the suppressor being the
    lowest-id kept item within theta_dup. Kept pairs are all > theta_dup apart.
    """
    ids = id_array(candidates)
    row, nbr = _batch_neighbors(graph, ids, theta_dup)
    lower = nbr < row
    row, nbr = row[lower], nbr[lower]
    # an item with no lower-id neighbour is kept whatever came before it, and
    # one whose lowest neighbour is such an item is dropped by it; only the
    # rest need the sequential scan, whose ascending id order settles every
    # neighbour before a row reads it
    contested = np.zeros(len(ids), dtype=bool)
    contested[row] = True
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    rows, least = row[starts], np.minimum.reduceat(nbr, starts)
    suppressor = np.where(contested[least], -1, least)
    keep, nbr_list, bounds = (~contested).tolist(), nbr.tolist(), [*starts.tolist(), len(row)]
    for k in np.flatnonzero(contested[least]).tolist():
        hits = [n for n in nbr_list[bounds[k] : bounds[k + 1]] if keep[n]]
        if hits:
            suppressor[k] = min(hits)
        else:
            keep[rows[k]] = True
    dropped = suppressor >= 0
    dup_of = np.stack([ids[rows[dropped]], ids[suppressor[dropped]]], axis=1)
    return ids[np.array(keep, dtype=bool)], dup_of


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
    (unit weights by default; else ``weights`` holds one per candidate in
    ascending id order), ties broken by lowest item_id, stopping early once
    everything coverable is covered. Standard greedy, so coverage is at least
    (1 - 1/e) of the optimal k-subset.
    """
    if k < 0:
        raise ValueError("budget k must be >= 0")
    universe = id_array(candidates)
    m = len(universe)
    if k == 0 or not m:
        return CoveragePlan(universe[:0], universe[:0], universe[:0], k)
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError("weights must hold one value per candidate")

    # each candidate covers itself, then its row in gather order; the graph is
    # symmetric, so the candidates covering an item are those the item covers
    row, nbr = _batch_neighbors(graph, universe, theta_prop)
    coverer = np.concatenate([np.arange(m), row])
    order = np.argsort(coverer, kind="stable")
    cover = np.concatenate([np.arange(m), nbr])[order]
    start = np.searchsorted(coverer[order], np.arange(m + 1))
    # bincount adds each candidate's weights in cover order, as a running sum would
    gains = np.bincount(coverer[order], weights=w[cover], minlength=m)

    uncovered = np.ones(m, dtype=bool)
    owner = np.full(m, -1)
    representatives: list[int] = []
    while len(representatives) < k and uncovered.any():
        best = int(np.argmax(gains))  # the first maximum is the lowest id
        if not gains[best] > 0.0:
            break
        members = cover[start[best] : start[best + 1]]
        newly = np.sort(members[uncovered[members]])
        representatives.append(best)
        owner[newly] = best
        uncovered[newly] = False
        # take each newly covered weight off its coverers, members ascending
        counts = start[newly + 1] - start[newly]
        offset = start[newly] - np.cumsum(counts) + counts
        slots = np.arange(counts.sum()) + np.repeat(offset, counts)
        np.subtract.at(gains, cover[slots], np.repeat(w[newly], counts))
        # an earlier representative may have reached this one first; every
        # representative owns itself
        owner[best] = best
    members = np.flatnonzero(owner >= 0)
    return CoveragePlan(universe[representatives], universe[members], universe[owner[members]], k)
