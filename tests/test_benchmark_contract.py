"""The benchmark in funnelbench/ drives this package through its Python API
and the CLI. These tests call the package the way the harness does, so an
API change that would break the benchmark fails here first."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from reviewfunnel import cli, corpus, pipeline, simgraph
from reviewfunnel.corpus import GeneratorConfig, generate_corpus_detailed
from reviewfunnel.pipeline import PipelineConfig, run_pipeline_detailed
from reviewfunnel.simgraph import build_graph

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the harness's own checks, run on the package's output and on planted faults
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, str(ROOT / "funnelbench" / "selftest.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_graph_built_as_the_in_process_workloads_build_it():
    # funnelbench/run.py InProcess.setup passes exactly these keywords
    corpus, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=40, rng_seed=1))
    c = PipelineConfig()
    graph = build_graph(
        corpus, c.theta_sim, c.graph_mode, bands=c.graph_bands,
        band_bits=c.graph_band_bits, seed=c.graph_seed, workers=c.workers,
    )
    report, state = run_pipeline_detailed(corpus, c, graph=graph)
    assert state.graph is graph and report.corpus_size == len(corpus)
    assert state.store.records()


def test_cli_run_calls_the_module_global(tmp_path, monkeypatch):
    # the cli workload swaps cli.run_pipeline_detailed for a wrapper that
    # keeps the state, so cmd_run must look the name up at call time
    corpus_file = tmp_path / "corpus.jsonl"
    gen = tmp_path / "gen.json"
    gen.write_text('{"schema_version": 2, "kind": "generator", "n_clusters": 20}')
    assert cli.main(["generate", "--config", str(gen), "--out", str(corpus_file)]) == 0
    captured = []
    original = cli.run_pipeline_detailed

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "run_pipeline_detailed", capture)
    config = ROOT / "configs" / "desk_pipeline.json"
    code = cli.main(["run", "--corpus", str(corpus_file), "--config", str(config),
                     "--out", str(tmp_path / "run")])
    assert code == 0 and len(captured) == 1
    assert captured[0][1].graph is not None


PROG = SimpleNamespace(cli=cli, corpus=corpus, pipeline=pipeline, simgraph=simgraph)


def load_bench_run():
    spec = importlib.util.spec_from_file_location(
        "funnelbench_run", ROOT / "funnelbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


class NameProbe:
    """Stands in for the tracer: patches nothing, notes each name not found."""

    def __init__(self):
        self.missing = []

    def wrap(self, owner, attr, name, count=None):
        if getattr(owner, attr, None) is None:
            self.missing.append(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")

    def wrap_queries(self, cls, attrs):
        self.missing.extend(f"{cls.__name__}.{a}" for a in attrs
                            if getattr(cls, a, None) is None)


def test_tracer_finds_every_name_but_the_known_three():
    # the tracer skips a name the program no longer has without a word, so a
    # deleted function would silently zero a per-layer metric; these three
    # read 0 until the benchmark times the program's own spans
    probe = NameProbe()
    load_bench_run().install_tracing(PROG, probe)
    assert sorted(probe.missing) == [
        "SimilarityGraph.neighbors_within", "cli.corpus_content_hash",
        "pipeline.corpus_content_hash",
    ]


def test_traced_run_records_every_stage_span():
    # the tracer skips a name the program no longer has without a word, so a
    # renamed or deleted stage would silently read 0 in the per-layer figures
    run = load_bench_run()
    tracer = run.Tracer()
    items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=40, rng_seed=1))
    try:
        run.install_tracing(PROG, tracer)
        pipeline.run_pipeline_detailed(items, PipelineConfig(rounds=2))
    finally:
        tracer.restore()
    stages = {
        "funnel": ("expand_content", "expand_actor", "dedup_cross_round", "filter_eligible",
                   "dedup_intra_batch", "max_coverage_sample"),
        "labeling": ("oracle_label", "propagate", "feedback_seeds"),
        "pipeline": ("run_round", "compute_metrics"),
    }
    want = {f"{layer}.{name}" for layer, names in stages.items() for name in names}
    assert want <= {span["name"] for span in tracer.spans}
