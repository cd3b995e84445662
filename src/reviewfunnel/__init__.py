"""Budgeted content-review funnel over embedding corpora.

Selects review candidates by content/actor similarity and model scores,
collapses near-duplicates, samples a diverse budgeted set for an expensive
labeling oracle, propagates verdicts to near-duplicates, and feeds positives
back as the next round's expansion seeds.
"""

__version__ = "0.1.0"

import importlib

# Each public name and the submodule that defines it. A name's submodule is
# imported on first use (PEP 562), so a process that needs one submodule,
# such as a graph worker, imports no other.
_EXPORTS = {
    **dict.fromkeys(
        ("ConfigError", "Corpus", "FormatError", "GeneratorConfig", "Item", "LabelRecord",
         "generate_corpus_detailed", "load_corpus", "load_labels", "save_corpus", "save_labels"),
        "corpus",
    ),
    "CoveragePlan": "funnel",
    **dict.fromkeys(("HttpOracle", "KnownStore", "Oracle", "SimulatedOracle"), "labeling"),
    **dict.fromkeys(
        ("MetricsReport", "PipelineConfig", "compute_metrics", "run_pipeline_detailed",
         "run_random_baseline", "run_score_baseline"),
        "pipeline",
    ),
    **dict.fromkeys(("SimilarityGraph", "build_graph", "cosine_distance"), "simgraph"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
