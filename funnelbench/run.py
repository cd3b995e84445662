#!/usr/bin/env python3
"""Benchmark of the review funnel on three workloads: desk, campaign and cli.

    python3 funnelbench/run.py --workload desk --seed 7 --seconds 10 --trace 0

Each run is one process and one caller in a closed loop: set-up is done
SETUP_REPS times, then whole units of work are run one after another until
``--seconds`` have passed (at least one unit). The program's inputs are fixed
per workload, so every unit of every run must give the same metrics report;
``--seed`` picks the node sample for the edge-recall check and, on cli, the
random baseline's sampling seed. The outputs of the last unit are checked
apart from the program (see checks.py) after the timed region. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the program's modules are wrapped in
spans (see spans.py) and the JSON holds the per-layer metrics instead. See
README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from spans import Tracer, self_time_table  # noqa: E402

SETUP_REPS = 3
# The desk configs at half the clusters: about 100k items. The full 200k-item
# desk corpus takes about 80 s a run on the 2-core host in README.md, and a
# comparison of 22 runs of each of three workloads must fit in an hour.
DESK_CLUSTERS = 10_000
CAMPAIGN_ROUNDS = 60
EDGE_SAMPLE = 2000


def load_program():
    """Import reviewfunnel from the checkout's own src/, never from elsewhere."""
    package = SRC / "reviewfunnel" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import reviewfunnel
    from reviewfunnel import cli, corpus, pipeline, simgraph

    if Path(reviewfunnel.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: reviewfunnel imported from {reviewfunnel.__file__}")
    return argparse.Namespace(cli=cli, corpus=corpus, pipeline=pipeline, simgraph=simgraph)


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def generator_doc(**changes) -> dict:
    doc = load_json(CONFIGS / "desk_generator.json")
    doc.update(changes)
    return doc


def sorted_corpus(items) -> tuple[np.ndarray, np.ndarray]:
    """Item ids in ascending order and their unit-normalised embeddings."""
    ids = np.array([item.item_id for item in items], dtype=np.int64)
    order = np.argsort(ids)
    emb = np.stack([items[k].embedding for k in order])
    return ids[order], checks.unit_rows(emb)


class InProcess:
    """desk and campaign: the pipeline called through its Python API."""

    generator: dict = {}
    rounds = None
    graph_in_setup = False

    def __init__(self, prog, seed: int, tracer: Tracer, workdir: Path):
        self.prog, self.tracer, self.seed = prog, tracer, seed
        self.gen_cfg = prog.cli.generator_config_from_doc(generator_doc(**self.generator))
        config = prog.cli.pipeline_config_from_doc(load_json(CONFIGS / "desk_pipeline.json"))
        if self.rounds is not None:
            config = dataclasses.replace(config, rounds=self.rounds)
        self.config = config
        self.items = self.truth = self.graph = self.report = self.state = None

    def release(self, inputs: bool = False) -> None:
        """Drop the last unit's results, and with ``inputs`` the set-up's too."""
        self.report = self.state = None
        if inputs:
            self.items = self.truth = self.graph = None

    def setup(self) -> None:
        self.items, self.truth, _ = self.tracer.call(
            "corpus.generate", self.prog.corpus.generate_corpus_detailed, self.gen_cfg
        )
        if self.graph_in_setup:
            c = self.config
            self.graph = self.tracer.call(
                "simgraph.build", self.prog.simgraph.build_graph,
                self.items, c.theta_sim, c.graph_mode, bands=c.graph_bands,
                band_bits=c.graph_band_bits, seed=c.graph_seed, workers=c.workers,
                count=lambda g: g.n_edges,
            )

    def unit(self) -> tuple[int, int]:
        """Run one pipeline; returns (operations attempted, failed)."""
        self.report, self.state = self.tracer.call(
            "pipeline.run", self.prog.pipeline.run_pipeline_detailed,
            self.items, self.config, graph=self.graph,
        )
        return len(self.report.rounds), 0

    def digest(self) -> str:
        return hashlib.sha256(self.report.to_json().encode()).hexdigest()

    def check(self) -> dict:
        c = self.config
        ids, emb = sorted_corpus(self.items)
        edge_recall = checks.check_graph(self.state.graph, ids, emb, EDGE_SAMPLE, self.seed)
        labels = checks.check_labels(
            checks.records_of(self.state.store.records()), self.truth, ids, emb,
            c.budget_per_round, c.theta_prop,
        )
        checks.check_report(labels, self.report.recall, self.report.amplification)
        return quality(labels, edge_recall, c.oracle.tpr, len(ids))


class Desk(InProcess):
    """The desk configs at DESK_CLUSTERS clusters; graph build, 5 rounds, metrics."""

    generator = {"n_clusters": DESK_CLUSTERS}


class Campaign(InProcess):
    """Overlapping 16-d clusters, graph built in set-up, a long campaign."""

    generator = {"n_clusters": 5000, "embedding_dim": 16}
    rounds = CAMPAIGN_ROUNDS
    graph_in_setup = True


class Cli:
    """The user's file path: generate in set-up, then run, baseline and compare."""

    def __init__(self, prog, seed: int, tracer: Tracer, workdir: Path):
        self.prog, self.tracer, self.seed = prog, tracer, seed
        gen = generator_doc(n_clusters=5000)
        self.gen_cfg = prog.cli.generator_config_from_doc(gen)
        self.gen_path = workdir / "generator.json"
        self.gen_path.write_text(json.dumps(gen), encoding="utf-8")
        self.pipeline_path = CONFIGS / "desk_pipeline.json"
        self.config = prog.cli.pipeline_config_from_doc(load_json(self.pipeline_path))
        self.corpus = workdir / "corpus.jsonl"
        self.run_dir = workdir / "run"
        self.base_dir = workdir / "base"
        self.captured = None
        self.codes: list[int] = []
        original = prog.cli.run_pipeline_detailed

        def capture(*args, **kwargs):
            self.captured = original(*args, **kwargs)
            return self.captured

        prog.cli.run_pipeline_detailed = capture

    def release(self, inputs: bool = False) -> None:
        """Drop the last unit's results; the set-up's corpus lives on disk."""
        self.captured = None

    def main(self, *argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.prog.cli.main([str(a) for a in argv])

    def setup(self) -> None:
        code = self.main("generate", "--config", self.gen_path, "--out", self.corpus)
        checks.require(code == 0, f"reviewfunnel generate exited {code}")
        self.tracer.count("corpus.save_mb", self.corpus.stat().st_size / 1e6)

    def unit(self) -> tuple[int, int]:
        run_metrics = self.run_dir / "metrics.json"
        base_metrics = self.base_dir / "metrics.json"
        self.codes = [self.main("run", "--corpus", self.corpus, "--config",
                                self.pipeline_path, "--out", self.run_dir)]
        if self.codes[0] == 0:
            reviews = int(load_json(run_metrics)["oracle_reviews"])
            self.codes.append(self.main(
                "baseline", "--corpus", self.corpus, "--budget", reviews,
                "--seed", self.seed, "--config", self.pipeline_path,
                "--out", self.base_dir))
        if self.codes == [0, 0]:
            self.codes.append(self.main("compare", run_metrics, base_metrics,
                                        "--floor", "2.0"))
        return 3, 3 - self.codes.count(0)

    def digest(self) -> str:
        return hashlib.sha256((self.run_dir / "metrics.json").read_bytes()).hexdigest()

    def check(self) -> dict:
        checks.require(self.codes == [0, 0, 0],
                       f"run, baseline and compare exited {self.codes}")
        c = self.config
        items, truth, _ = self.prog.corpus.generate_corpus_detailed(self.gen_cfg)
        ids, emb = sorted_corpus(items)
        edge_recall = checks.check_graph(self.captured[1].graph, ids, emb,
                                         EDGE_SAMPLE, self.seed)
        with open(self.run_dir / "labels.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh.readlines()[1:] if line.strip()]
        labels = checks.check_labels(records, truth, ids, emb,
                                     c.budget_per_round, c.theta_prop)
        report = load_json(self.run_dir / "metrics.json")
        checks.check_report(labels, report["recall"], report["amplification"])
        return quality(labels, edge_recall, c.oracle.tpr, len(ids))


WORKLOADS = {"desk": Desk, "campaign": Campaign, "cli": Cli}


def quality(labels: dict, edge_recall: float, tpr: float, corpus_size: int) -> dict:
    ratio = checks.recall_vs_random(labels["recall"], labels["reviews"], tpr, corpus_size)
    checks.check_method(ratio, labels["amplification"])
    return {
        "recall": labels["recall"],
        "recall_vs_random": ratio,
        "amplification": labels["amplification"],
        "edge_recall": edge_recall,
    }


def install_tracing(prog, tracer: Tracer) -> None:
    """Wrap every name a calling module looks up in a layer of the program."""
    size = len
    first = lambda result: len(result[0])  # noqa: E731
    pipeline, cli = prog.pipeline, prog.cli
    for attr, name, count in (
        ("build_graph", "simgraph.build", lambda g: g.n_edges),
        ("expand_content", "funnel.expand_content", size),
        ("expand_actor", "funnel.expand_actor", size),
        ("dedup_cross_round", "funnel.dedup_cross_round", first),
        ("filter_eligible", "funnel.filter_eligible", size),
        ("dedup_intra_batch", "funnel.dedup_intra_batch", first),
        ("max_coverage_sample", "funnel.max_coverage_sample",
         lambda plan: len(plan.representatives)),
        ("oracle_label", "labeling.oracle_label", size),
        ("propagate_labels", "labeling.propagate", size),
        ("feedback_seeds", "labeling.feedback_seeds", None),
        ("run_round", "pipeline.run_round", None),
        ("compute_metrics", "pipeline.compute_metrics", None),
        ("corpus_content_hash", "corpus.content_hash", None),
    ):
        tracer.wrap(pipeline, attr, name, count)
    for attr, name in (
        ("generate_corpus_detailed", "corpus.generate"),
        ("save_corpus", "corpus.save"),
        ("load_corpus", "corpus.load"),
        ("save_labels", "corpus.save_labels"),
        ("corpus_content_hash", "corpus.content_hash"),
        ("run_pipeline_detailed", "pipeline.run"),
        ("run_random_baseline", "pipeline.random_baseline"),
        ("cmd_generate", "cli.generate"),
        ("cmd_run", "cli.run"),
        ("cmd_baseline", "cli.baseline"),
        ("cmd_compare", "cli.compare"),
    ):
        tracer.wrap(cli, attr, name)
    tracer.wrap_queries(prog.simgraph.SimilarityGraph,
                        ("neighbors_within", "neighbors_with_distances"))


# Per-layer metrics that are not the wall time of the span of the same name.
LAYER_SOURCES = {
    "simgraph.build_cpu_s": ("cpu", "simgraph.build"),
    "simgraph.edges": ("counter", "simgraph.build.out"),
    "simgraph.queries": ("counter", "simgraph.queries"),
    "simgraph.query_s": ("counter", "simgraph.query_s"),
    "corpus.save_mb": ("counter", "corpus.save_mb"),
    "labeling.reviews": ("counter", "labeling.oracle_label.out"),
    "labeling.propagated": ("counter", "labeling.propagate.out"),
    "labeling.feedback_seeds_calls": ("calls", "labeling.feedback_seeds"),
    "pipeline.round_self_s": ("self", "pipeline.run_round"),
    "cli.outputs_s": ("self", "cli.run"),
}


def layer_metric(name: str, totals: dict, counters: dict) -> float:
    """A layer that the workload does not reach reads 0."""
    if name in LAYER_SOURCES:
        kind, source = LAYER_SOURCES[name]
    elif name.endswith("_out"):
        kind, source = "counter", name[: -len("_out")] + ".out"
    else:
        kind, source = "wall", name[: -len("_s")]
    if kind == "counter":
        return counters.get(source, 0.0)
    return totals.get(source, {}).get(kind, 0.0)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = load_json(ROOT / "BENCHMARK.json")
    prog = load_program()
    tracer = Tracer()
    tracer.active = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            install_tracing(prog, tracer)
        workload = WORKLOADS[args.workload](prog, args.seed, tracer, workdir)

        setup_s = []
        # Garbage from the previous set-up or unit is dropped and collected
        # before each timed region, so no region pays for another's.
        for _ in range(SETUP_REPS):
            workload.release(inputs=True)
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)

        tracer.phase = "run"
        run_s, run_cpu_s, digests = [], [], []
        attempted = failed = 0
        began = time.perf_counter()
        while True:
            workload.release()
            gc.collect()
            start, cpu = time.perf_counter(), time.process_time()
            ops, bad = workload.unit()
            run_s.append(time.perf_counter() - start)
            run_cpu_s.append(time.process_time() - cpu)
            attempted, failed = attempted + ops, failed + bad
            digests.append(workload.digest())
            if time.perf_counter() - began >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.active = False

        correct = True
        try:
            checks.require(len(set(digests)) == 1,
                           f"units of one run gave different reports: {digests}")
            scores = workload.check()
        except checks.CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            correct = False
            scores = {}
        print(f"# workload={args.workload} seed={args.seed} units={len(run_s)} "
              f"operations/unit={attempted // len(run_s)} cpus={os.cpu_count()} "
              f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
        print(f"# digest {digests[0]}")
        print(f"# setup_s {setup_s} run_s {run_s} run_cpu_s {run_cpu_s}")

        if args.trace:
            reps = {"setup": SETUP_REPS, "run": len(run_s)}
            totals = tracer.totals(reps)
            counters = tracer.counter_totals(reps)
            print(f"# traced run_s {statistics.median(run_s):.4f} s; "
                  "figures per set-up or per unit")
            print(self_time_table(totals))
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed, "run_s": run_s,
                         "setup_s": setup_s})
            metrics = {
                m["name"]: metric(layer_metric(m["name"], totals, counters), m["unit"])
                for m in bench["per_layer"]
            }
        else:
            measured = {
                "setup_s": statistics.median(setup_s),
                "run_s": statistics.median(run_s),
                "peak_rss_mb": peak_rss_mb,
                **scores,
            }
            metrics = {
                m["name"]: metric(measured.get(m["name"], 0.0), m["unit"])
                for m in bench["end_to_end"]
            }
        for name, entry in metrics.items():
            print(f"{name:36s} {entry['value']:14.6f} {entry['unit']}")
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
