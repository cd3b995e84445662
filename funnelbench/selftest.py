#!/usr/bin/env python3
"""Self-test of the benchmark's checks on a corpus of about 4,000 items.

    python3 funnelbench/selftest.py

The checks must pass on the program's own output, and each must fail on a
copy with one fault put in: a dropped edge, an invented edge, an edge kept
in one direction only, a flipped propagated label, one review over budget,
or a misreported recall. The
graph is built in exact mode, where every exact edge must be present.
Exits 0 only if the clean output passes and every fault is caught.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

import checks
import run


class EditedGraph:
    """A graph with edges added in both directions and directed edges dropped."""

    def __init__(self, graph, drop=(), add=()):
        self._graph = graph
        self.theta, self.mode, self.node_ids = graph.theta, graph.mode, graph.node_ids
        self._drop = set(drop)
        self._add: dict[int, list[tuple[int, float]]] = {}
        for a, b, dist in add:
            self._add.setdefault(a, []).append((b, dist))
            self._add.setdefault(b, []).append((a, dist))

    def neighbors_with_distances(self, node, radius):
        row = [(n, d) for n, d in self._graph.neighbors_with_distances(node, radius)
               if (node, n) not in self._drop]
        extra = [(n, d) for n, d in self._add.get(node, []) if d <= radius]
        return sorted(row + extra, key=lambda e: (e[1], e[0]))


def main() -> int:
    prog = run.load_program()
    gen = run.load_json(run.CONFIGS / "desk_generator.json")
    gen.update(n_clusters=400, rng_seed=3)
    items, truth, _ = prog.corpus.generate_corpus_detailed(
        prog.cli.generator_config_from_doc(gen))
    config = dataclasses.replace(
        prog.cli.pipeline_config_from_doc(run.load_json(run.CONFIGS / "desk_pipeline.json")),
        graph_mode="exact",
    )
    report, state = prog.pipeline.run_pipeline_detailed(items, config)
    graph = state.graph
    ids, emb = run.sorted_corpus(items)
    records = checks.records_of(state.store.records())

    def check_all(graph=graph, records=records, recall=report.recall):
        checks.check_graph(graph, ids, emb, sample=len(ids), seed=0)
        labels = checks.check_labels(records, truth, ids, emb,
                                     config.budget_per_round, config.theta_prop)
        checks.check_report(labels, recall, report.amplification)

    a = next(n for n in graph.node_ids if graph.neighbors_with_distances(n, graph.theta))
    b = graph.neighbors_with_distances(a, graph.theta)[0][0]
    far = int(ids[np.argmax(1.0 - emb @ emb[int(np.searchsorted(ids, a))])])
    propagated = next(k for k, r in enumerate(records) if r["provenance"] == "propagated")
    flipped = [dict(r) for r in records]
    flipped[propagated]["label"] = not flipped[propagated]["label"]
    # fill round 1 with fresh oracle records until it is one review over budget
    labeled = {r["item_id"] for r in records}
    in_round_1 = sum(1 for r in records if r["provenance"] == "oracle" and r["round"] == 1)
    spare = [int(i) for i in ids if int(i) not in labeled]
    extra_review = records + [
        {"item_id": i, "label": False, "provenance": "oracle",
         "source_item_id": None, "round": 1, "distance_to_source": None}
        for i in spare[: config.budget_per_round - in_round_1 + 1]
    ]
    faults = {
        "dropped edge": lambda: check_all(graph=EditedGraph(graph, drop=[(a, b), (b, a)])),
        "invented edge": lambda: check_all(graph=EditedGraph(graph, add=[(a, far, 0.01)])),
        "one-way edge": lambda: check_all(graph=EditedGraph(graph, drop=[(a, b)])),
        "flipped propagated label": lambda: check_all(records=flipped),
        "one review over budget": lambda: check_all(records=extra_review),
        "misreported recall": lambda: check_all(recall=report.recall * 1.01),
    }

    print(f"corpus {len(ids)} items, {graph.n_edges} edges, {len(records)} labels")
    ok = True
    try:
        check_all()
        print("clean output: passes")
    except checks.CheckFailed as exc:
        print(f"clean output: FAILS: {exc}")
        ok = False
    for name, attempt in faults.items():
        try:
            attempt()
        except checks.CheckFailed as exc:
            print(f"{name}: caught ({exc})")
        else:
            print(f"{name}: NOT CAUGHT")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
