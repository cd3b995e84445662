"""Budgeted content-review funnel over embedding corpora.

Selects review candidates by content/actor similarity and model scores,
collapses near-duplicates, samples a diverse budgeted set for an expensive
labeling oracle, propagates verdicts to near-duplicates, and feeds positives
back as the next round's expansion seeds.
"""

__version__ = "0.1.0"

from .corpus import (
    ConfigError,
    Corpus,
    FormatError,
    GeneratorConfig,
    Item,
    LabelRecord,
    generate_corpus,
    load_corpus,
    load_labels,
    save_corpus,
    save_labels,
)
from .funnel import CoveragePlan
from .labeling import HttpOracle, KnownStore, Oracle, SimulatedOracle
from .pipeline import (
    MetricsReport,
    PipelineConfig,
    compute_metrics,
    run_pipeline,
    run_random_baseline,
    run_score_baseline,
)
from .simgraph import SimilarityGraph, build_graph, cosine_distance

__all__ = [
    "ConfigError",
    "Corpus",
    "CoveragePlan",
    "FormatError",
    "GeneratorConfig",
    "HttpOracle",
    "Item",
    "KnownStore",
    "LabelRecord",
    "MetricsReport",
    "Oracle",
    "PipelineConfig",
    "SimilarityGraph",
    "SimulatedOracle",
    "build_graph",
    "compute_metrics",
    "cosine_distance",
    "generate_corpus",
    "load_corpus",
    "load_labels",
    "run_pipeline",
    "run_random_baseline",
    "run_score_baseline",
    "save_corpus",
    "save_labels",
]
