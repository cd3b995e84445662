"""Review-candidate funnel: expansion, thresholding, dedup, filtering, and
greedy maximal-coverage sampling down to a per-round review budget.

Every stage is a pure function of its inputs. Dedup and sampling iterate in
ascending item_id order so the whole funnel is deterministic and replayable.
Each stage reads the graph through one batched neighbor gather over its
whole source set (``SimilarityGraph.neighbors_batch``), never one query per
item; only the greedy choices of dedup and sampling stay sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .corpus import Item
from .simgraph import SimilarityGraph

ORIGIN_CONTENT = "content_sim"
ORIGIN_ACTOR = "actor_sim"
ORIGIN_SCORE = "score"
ORIGIN_FEEDBACK = "feedback"
ORIGINS = frozenset({ORIGIN_CONTENT, ORIGIN_ACTOR, ORIGIN_SCORE, ORIGIN_FEEDBACK})


@dataclass(frozen=True)
class CandidateSet:
    """Candidates selected for one round, each with its acquisition tags."""

    round: int
    ids: tuple[int, ...]
    origin: Mapping[int, frozenset[str]]

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("candidate ids must be unique")
        for item_id in self.ids:
            tags = self.origin.get(item_id)
            if not tags:
                raise ValueError(f"candidate {item_id} has no origin tag")
            if not tags <= ORIGINS:
                raise ValueError(f"candidate {item_id} has unknown origin tags {tags}")

    @classmethod
    def from_tagged(cls, round_no: int, tagged: Mapping[int, set[str]]) -> "CandidateSet":
        ids = tuple(sorted(tagged))
        return cls(round_no, ids, {i: frozenset(tagged[i]) for i in ids})


@dataclass(frozen=True)
class CoveragePlan:
    """Representatives chosen by coverage sampling and what each one covers.

    Covered sets are disjoint; an item is credited to the representative that
    reached it first.
    """

    representatives: tuple[int, ...]
    covered: Mapping[int, tuple[int, ...]]
    budget: int

    def __post_init__(self):
        if len(self.representatives) > self.budget:
            raise ValueError("more representatives than budget")
        seen: set[int] = set()
        for rep in self.representatives:
            members = self.covered[rep]
            if rep not in members:
                raise ValueError(f"representative {rep} does not cover itself")
            overlap = seen.intersection(members)
            if overlap:
                raise ValueError(f"covered sets overlap on {sorted(overlap)[:3]}")
            seen.update(members)

    @property
    def total_covered(self) -> int:
        return sum(len(m) for m in self.covered.values())


def expand_content(
    graph: SimilarityGraph,
    known_positive_ids: Iterable[int],
    theta_sim: float,
    feedback_ids: Iterable[int] = (),
) -> dict[int, set[str]]:
    """One-hop neighborhood of the known positives, excluding the sources.

    Each neighbor is tagged content_sim, plus feedback when one of
    ``feedback_ids`` (a subset of the sources) reaches it.
    """
    sources = np.array(sorted(set(known_positive_ids)), dtype=np.int64)
    row, nbr_ids, _ = graph.neighbors_batch(sources, theta_sim)
    content = np.setdiff1d(nbr_ids, sources)
    via_feedback = np.isin(sources, np.fromiter(feedback_ids, np.int64))[row]
    feedback = set(np.setdiff1d(nbr_ids[via_feedback], sources).tolist())
    return {
        i: {ORIGIN_CONTENT, ORIGIN_FEEDBACK} if i in feedback else {ORIGIN_CONTENT}
        for i in content.tolist()
    }


def expand_actor(
    store,
    account_items: Mapping[int, Iterable[int]],
    min_positives: int,
    min_rate: float,
) -> set[int]:
    """Unlabeled items of accounts whose labeled items skew positive.

    An account is flagged when it has at least ``min_positives`` positive
    labels and its positive share among labeled items reaches ``min_rate``.
    The store's account index supplies the label counts; ``account_items``
    lists every item of each account.
    """
    if min_positives < 1:
        raise ValueError("min_positives must be >= 1")
    if not 0.0 < min_rate <= 1.0:
        raise ValueError("min_rate must be in (0, 1]")
    return {
        item_id
        for account, (labeled, positives) in store.account_label_counts().items()
        if positives >= min_positives and positives / labeled >= min_rate
        for item_id in account_items.get(account, ())
        if item_id not in store
    }


def select_by_score(
    items: Iterable[Item], scores: Mapping[int, float], tau: float
) -> set[int]:
    """Items whose model score strictly exceeds tau; unscored items excluded."""
    known = {item.item_id for item in items}
    out: set[int] = set()
    for item_id, score in scores.items():
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} for item {item_id} outside [0, 1]")
        if score > tau and item_id in known:
            out.add(item_id)
    return out


def dedup_cross_round(
    candidates: Iterable[int],
    store,
    graph: SimilarityGraph,
    theta_dup: float,
    items_index: Mapping[int, Item],
) -> tuple[set[int], dict[int, int]]:
    """Drop candidates already reviewed in substance in an earlier round.

    A candidate is removed when its exact hash matches a reviewed item or it
    lies within theta_dup of one (the nearest, lowest id first). Removed
    candidates are returned in the routing map so the propagation stage can
    copy the matched item's label instead of silently discarding them.
    """
    reviewed = store.reviewed_ids()
    if not reviewed:
        return set(candidates), {}
    hash_to_reviewed: dict[int, int] = {}
    for rid in sorted(reviewed):
        hash_to_reviewed.setdefault(items_index[rid].exact_hash, rid)
    ordered = sorted(set(candidates))
    match = {
        c: hash_to_reviewed.get(items_index[c].exact_hash) for c in ordered
    }
    rest = np.array([c for c in ordered if match[c] is None], dtype=np.int64)
    row, nbr_ids, _ = graph.neighbors_batch(rest, theta_dup)
    hit = np.isin(nbr_ids, np.fromiter(reviewed, np.int64))
    # rows keep (distance, id) order, so a row's first reviewed entry is its match
    rows, first = np.unique(row[hit], return_index=True)
    match.update(zip(rest[rows].tolist(), nbr_ids[hit][first].tolist()))
    kept = {c for c in ordered if match[c] is None}
    routed = {c: match[c] for c in ordered if match[c] is not None}
    return kept, routed


def filter_eligible(
    candidates: Iterable[int], items_index: Mapping[int, Item], store
) -> set[int]:
    """Keep candidates that are active (impressions > 0) and unlabeled."""
    out: set[int] = set()
    for candidate in candidates:
        try:
            item = items_index[candidate]
        except KeyError:
            raise KeyError(f"unknown item id {candidate}") from None
        if item.impressions > 0 and store.get(candidate) is None:
            out.add(candidate)
    return out


def dedup_intra_batch(
    candidates: Iterable[int], graph: SimilarityGraph, theta_dup: float
) -> tuple[set[int], dict[int, int]]:
    """Greedy near-duplicate collapse within one batch.

    Scanning in ascending item_id order, an item is kept iff no already-kept
    item lies within theta_dup; dropped items map to the lowest-id kept item
    that suppressed them. Kept pairs are therefore all > theta_dup apart.
    """
    ids = np.array(sorted(set(candidates)), dtype=np.int64)
    row, nbr_ids, _ = graph.neighbors_batch(ids, theta_dup)
    # an item with no lower-id neighbor in the batch is kept whatever came
    # before it; only the rest need the sequential scan
    lower = np.isin(nbr_ids, ids) & (nbr_ids < ids[row])
    contested: dict[int, list[int]] = {}
    for r, nid in zip(row[lower].tolist(), nbr_ids[lower].tolist()):
        contested.setdefault(r, []).append(nid)
    kept = set(np.delete(ids, list(contested)).tolist())
    dup_of: dict[int, int] = {}
    for r in sorted(contested):
        suppressors = [nid for nid in contested[r] if nid in kept]
        if suppressors:
            dup_of[int(ids[r])] = min(suppressors)
        else:
            kept.add(int(ids[r]))
    return kept, dup_of


def max_coverage_sample(
    candidates: Iterable[int],
    graph: SimilarityGraph,
    theta_prop: float,
    k: int,
    weights: Mapping[int, float] | None = None,
) -> CoveragePlan:
    """Greedy maximum-coverage selection of up to k representatives.

    Each candidate covers itself plus the candidates within theta_prop of it.
    Every step picks the candidate covering the most not-yet-covered weight
    (unit weights by default), ties broken by lowest item_id, stopping early
    once everything coverable is covered. Standard greedy, so coverage is at
    least (1 - 1/e) of the optimal k-subset.
    """
    if k < 0:
        raise ValueError("budget k must be >= 0")
    universe = sorted(set(candidates))
    if k == 0 or not universe:
        return CoveragePlan((), {}, k)

    def weight_of(item_id: int) -> float:
        return 1.0 if weights is None else float(weights.get(item_id, 0.0))

    cover: dict[int, list[int]] = {c: [c] for c in universe}
    row, nbr_ids, _ = graph.neighbors_batch(universe, theta_prop)
    inside = np.isin(nbr_ids, universe)
    for r, nid in zip(row[inside].tolist(), nbr_ids[inside].tolist()):
        cover[universe[r]].append(nid)
    covering: dict[int, list[int]] = {c: [] for c in universe}
    gains: dict[int, float] = {}
    for c in universe:
        members = cover[c]
        for m in members:
            covering[m].append(c)
        gains[c] = sum(weight_of(m) for m in members)

    uncovered = set(universe)
    representatives: list[int] = []
    assigned: dict[int, list[int]] = {}
    owner: dict[int, int] = {}
    while len(representatives) < k and uncovered:
        best_id = None
        best_gain = 0.0
        for c in universe:
            g = gains[c]
            if g > best_gain:
                best_gain = g
                best_id = c
        if best_id is None:
            break
        newly = sorted(m for m in cover[best_id] if m in uncovered)
        representatives.append(best_id)
        assigned[best_id] = newly
        for m in newly:
            owner[m] = best_id
            uncovered.discard(m)
            w = weight_of(m)
            for c in covering[m]:
                gains[c] -= w
        if best_id not in newly:
            # an earlier representative reached this one first; hand the
            # self-coverage back so every representative covers itself
            assigned[owner[best_id]].remove(best_id)
            assigned[best_id] = sorted(assigned[best_id] + [best_id])
            owner[best_id] = best_id
    covered = {rep: tuple(assigned[rep]) for rep in representatives}
    return CoveragePlan(tuple(representatives), covered, k)
