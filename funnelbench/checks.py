"""Correctness checks on the funnel's outputs, computed apart from the program.

Distances, exact neighbourhoods, recall and amplification are recomputed
here with plain numpy from the generated embeddings and the generator's
truth map. The checks read the program's outputs only through public
attributes: ``SimilarityGraph.node_ids``, ``.theta``, ``.mode`` and
``.neighbors_with_distances``, and the fields of the label records.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping

import numpy as np

# A pair whose recomputed distance lies within TIE of a threshold counts
# either way: einsum, matmul and BLAS sums differ in the last bits.
TIE = 1e-9

PROVENANCE_ORACLE = "oracle"
PROVENANCE_SEED = "seed"
PROVENANCE_PROPAGATED = "propagated"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def unit_rows(embeddings: np.ndarray) -> np.ndarray:
    emb = np.asarray(embeddings, dtype=np.float64)
    return emb / np.linalg.norm(emb, axis=1)[:, None]


def pair_distances(emb: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine distance of rows a[k], b[k] of unit-normalised ``emb``."""
    return 1.0 - np.sum(emb[a] * emb[b], axis=1)


def check_graph(graph, ids: np.ndarray, emb: np.ndarray, sample: int, seed: int) -> float:
    """Check the stored graph and return its edge recall on a node sample.

    Every stored edge must lie within ``graph.theta`` by recomputed distance,
    and the adjacency must be symmetric, so the graph invents no edge. Edge
    recall is the share of exact edges of ``sample`` nodes, drawn with
    ``seed``, that the graph holds; an exact graph must hold all of them.
    """
    theta = graph.theta
    pos = {int(item_id): k for k, item_id in enumerate(ids)}
    require(sorted(graph.node_ids) == ids.tolist(), "graph nodes differ from the corpus")
    src: list[int] = []
    dst: list[int] = []
    neighbours: dict[int, set[int]] = {}
    for node in graph.node_ids:
        row = [pos[nid] for nid, _ in graph.neighbors_with_distances(node, theta)]
        k = pos[node]
        src.extend([k] * len(row))
        dst.extend(row)
        neighbours[k] = set(row)
    a = np.asarray(src, dtype=np.int64)
    b = np.asarray(dst, dtype=np.int64)
    require(not np.any(a == b), "graph holds a self loop")
    if len(a):
        worst = float(np.max(pair_distances(emb, a, b)))
        require(worst <= theta + TIE,
                f"stored edge at distance {worst:.12f} > theta {theta}")
    n = len(ids)
    forward = np.sort(a * n + b)
    backward = np.sort(b * n + a)
    require(np.array_equal(forward, backward), "graph adjacency is not symmetric")

    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=min(sample, n), replace=False))
    found = total = 0
    for start in range(0, len(chosen), 64):
        rows = chosen[start:start + 64]
        dist = 1.0 - emb[rows] @ emb.T
        for r, k in enumerate(rows):
            exact = np.flatnonzero(dist[r] <= theta - TIE)
            exact = exact[exact != k]
            total += len(exact)
            found += len(neighbours[int(k)].intersection(exact.tolist()))
    recall = found / total if total else 1.0
    if graph.mode == "exact":
        require(found == total, f"exact graph misses {total - found} edges")
    return recall


def check_labels(
    records: Iterable[Mapping],
    truth: Mapping[int, bool],
    ids: np.ndarray,
    emb: np.ndarray,
    budget_per_round: int,
    theta_prop: float,
) -> dict:
    """Check a label store and recompute recall and amplification from it.

    ``records`` are mappings with the label-store fields ``item_id``,
    ``label``, ``provenance``, ``source_item_id``, ``round`` and
    ``distance_to_source``.
    """
    recs = list(records)
    by_id: dict[int, Mapping] = {}
    for rec in recs:
        require(rec["item_id"] not in by_id, f"item {rec['item_id']} labeled twice")
        by_id[rec["item_id"]] = rec
    reviews = Counter(r["round"] for r in recs if r["provenance"] == PROVENANCE_ORACLE)
    for round_no, count in sorted(reviews.items()):
        require(count <= budget_per_round,
                f"round {round_no} made {count} reviews > budget {budget_per_round}")

    pos = {int(item_id): k for k, item_id in enumerate(ids)}
    propagated = [r for r in recs if r["provenance"] == PROVENANCE_PROPAGATED]
    for rec in propagated:
        source = by_id.get(rec["source_item_id"])
        require(source is not None,
                f"item {rec['item_id']} propagated from unlabeled {rec['source_item_id']}")
        require(source["provenance"] in (PROVENANCE_SEED, PROVENANCE_ORACLE),
                f"item {rec['item_id']} propagated from a propagated label")
        require(rec["label"] == source["label"],
                f"item {rec['item_id']} does not carry its source's label")
    if propagated:
        a = np.array([pos[r["item_id"]] for r in propagated])
        b = np.array([pos[r["source_item_id"]] for r in propagated])
        dist = pair_distances(emb, a, b)
        worst = int(np.argmax(dist))
        require(dist[worst] <= theta_prop + TIE,
                f"item {propagated[worst]['item_id']} propagated from distance "
                f"{dist[worst]:.12f} > theta_prop {theta_prop}")
        recorded = np.array([r["distance_to_source"] for r in propagated])
        off = float(np.max(np.abs(recorded - dist)))
        require(off <= TIE, f"recorded distance_to_source off by {off:.3g}")

    positives = sum(1 for v in truth.values() if v)
    true_positive = sum(1 for r in recs if r["label"] and truth[r["item_id"]])
    labeled_positive = sum(1 for r in recs if r["label"])
    oracle_positive = sum(
        1 for r in recs if r["label"] and r["provenance"] == PROVENANCE_ORACLE
    )
    return {
        "reviews": sum(reviews.values()),
        "recall": true_positive / positives if positives else 0.0,
        "amplification": labeled_positive / oracle_positive if oracle_positive else 0.0,
    }


def check_report(recomputed: dict, reported_recall, reported_amplification) -> None:
    """The program's reported recall and amplification equal the recomputed ones."""
    for name, value in (("recall", reported_recall),
                        ("amplification", reported_amplification)):
        require(value is not None and math.isclose(value, recomputed[name], rel_tol=1e-12),
                f"reported {name} {value} != recomputed {recomputed[name]}")


def recall_vs_random(recall: float, reviews: int, tpr: float, corpus_size: int) -> float:
    """Recall over the expected recall of ``reviews`` uniform random reviews."""
    expected = reviews * tpr / corpus_size
    return recall / expected if expected else 0.0


def check_method(recall_ratio: float, amplification: float) -> None:
    """Paper criteria 2 and 3: recall at least twice random, labels doubled."""
    require(recall_ratio >= 2.0, f"recall_vs_random {recall_ratio:.3f} < 2")
    require(amplification >= 2.0, f"amplification {amplification:.3f} < 2")


def records_of(store_records) -> list[dict]:
    """Label records as plain dicts, read through their public fields."""
    return [
        {
            "item_id": r.item_id,
            "label": r.label,
            "provenance": r.provenance,
            "source_item_id": r.source_item_id,
            "round": r.round,
            "distance_to_source": r.distance_to_source,
        }
        for r in store_records
    ]
