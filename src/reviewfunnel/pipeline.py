"""Multi-round orchestration of the review funnel, plus simulated model
scores, the budget-matched random and score baselines, and metrics.

Rounds are strictly sequential (the feedback loop is a data dependency) and
atomic: all label writes go to the store's staging buffer and commit only
when every stage of the round has succeeded. Identical corpus, config, and
seeds yield a byte-identical metrics report regardless of worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .corpus import ConfigError, Corpus, PROVENANCE_SEED, PROVENANCES
from .funnel import (
    Reach,
    dedup_cross_round,
    dedup_intra_batch,
    expand_actor,
    expand_content,
    filter_eligible,
    max_coverage_sample,
)
from .labeling import (
    KnownStore,
    LabelBatch,
    Oracle,
    SimulatedOracle,
    feedback_seeds,
    oracle_label,
    propagate_labels,
)
from .simgraph import GRAPH_MODES, MODE_BLOCKED, SimilarityGraph, build_graph


class StageError(RuntimeError):
    """A pipeline stage failed; the round was rolled back."""

    def __init__(self, round_no: int, stage: str, cause: Exception):
        super().__init__(f"round {round_no} stage {stage}: {cause}")
        self.round_no = round_no
        self.stage = stage
        self.cause = cause


class MissingGroundTruthError(ValueError):
    """An evaluation step needs ground truth that the corpus does not carry."""


@dataclass(frozen=True)
class OracleParams:
    tpr: float = 0.95
    tnr: float = 0.95
    seed: int = 0
    unit_cost: float = 1.0


@dataclass(frozen=True)
class ActorParams:
    min_positives: int = 2
    min_rate: float = 0.5


@dataclass(frozen=True)
class ScoreParams:
    tau: float = 0.8
    flip_rate: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        for name in ("tau", "flip_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"score.{name} must be in [0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run needs; all randomness flows from the seeds here.

    ``workers`` is parsed and validated because configs and manifests carry
    it, but nothing reads it: the graph build sizes its own worker processes
    from the work and the available CPUs (see ``simgraph.build_graph``).
    """

    rounds: int = 5
    budget_per_round: int = 40
    theta_dup: float = 0.05
    theta_prop: float = 0.10
    theta_sim: float = 0.25
    oracle: OracleParams = field(default_factory=OracleParams)
    actor: ActorParams = field(default_factory=ActorParams)
    score: ScoreParams | None = None
    bootstrap_seeds: int = 10
    impression_weighted_sampling: bool = False
    graph_mode: str = MODE_BLOCKED
    graph_bands: int = 16
    graph_band_bits: int = 8
    graph_seed: int = 0
    workers: int = 1
    rng_seed: int = 0

    def validate(self) -> None:
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.budget_per_round < 0:
            raise ConfigError("budget_per_round must be >= 0")
        if not 0.0 <= self.theta_dup <= self.theta_prop <= self.theta_sim <= 2.0:
            raise ConfigError(
                "thresholds must satisfy 0 <= theta_dup <= theta_prop <= theta_sim <= 2"
            )
        if not 0.0 <= self.oracle.tpr <= 1.0:
            raise ConfigError("oracle.tpr must be in [0, 1]")
        if not 0.0 <= self.oracle.tnr <= 1.0:
            raise ConfigError("oracle.tnr must be in [0, 1]")
        if not 0.0 <= self.oracle.unit_cost < math.inf:
            raise ConfigError("oracle.unit_cost must be finite and >= 0")
        if self.actor.min_positives < 1:
            raise ConfigError("actor.min_positives must be >= 1")
        if not 0.0 < self.actor.min_rate <= 1.0:
            raise ConfigError("actor.min_rate must be in (0, 1]")
        if self.bootstrap_seeds < 0:
            raise ConfigError("bootstrap_seeds must be >= 0")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}")
        if self.graph_bands < 1:
            raise ConfigError("graph_bands must be >= 1")
        if not 1 <= self.graph_band_bits <= 62:  # one int64 key per band
            raise ConfigError("graph_band_bits must be in [1, 62]")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        seeds = {"rng_seed": self.rng_seed, "graph_seed": self.graph_seed,
                 "oracle.seed": self.oracle.seed}
        if self.score is not None:
            self.score.validate()
            seeds["score.seed"] = self.score.seed
        for name, seed in seeds.items():
            if seed < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass
class RoundMetrics:
    """A round's counts; ``stages`` holds its audit entries as ``audit.jsonl`` has them."""

    round: int
    oracle_reviews: int
    positives_oracle: int
    positives_propagated: int
    oracle_cost: float
    cumulative_recall: float | None = None
    stages: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class MetricsReport:
    """Cumulative (and optionally per-round) evaluation of a run."""

    corpus_size: int
    corpus_hash: str | None
    oracle_reviews: float
    oracle_cost: float
    review_fraction: float
    positives_seed: float
    positives_oracle: float
    positives_propagated: float
    positives_total: float
    recall: float | None
    precision: float | None
    impression_weighted_recall: float | None
    amplification: float | None
    rounds: list[RoundMetrics] = field(default_factory=list)
    baseline: dict | None = None

    def stage_totals(self) -> dict[str, dict[str, int]]:
        """Candidate in/out counts per stage, summed over rounds."""
        totals: dict[str, dict[str, int]] = {}
        for round_metrics in self.rounds:
            for stage in round_metrics.stages:
                entry = totals.setdefault(stage["stage"], {"in": 0, "out": 0})
                entry["in"] += stage["in"]
                entry["out"] += stage["out"]
        return totals

    def to_dict(self) -> dict:
        skip = ("rounds", "baseline")
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in skip}
        doc["stage_totals"] = self.stage_totals()
        doc["rounds"] = [r.to_dict() for r in self.rounds]
        if self.baseline is not None:
            doc["baseline"] = dict(self.baseline)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass
class PipelineState:
    """A run's inputs and round state; the store's positions are the corpus rows.

    ``scored`` marks the positions the model scores above tau.
    """

    corpus: Corpus
    graph: SimilarityGraph
    store: KnownStore
    oracle: Oracle
    scored: np.ndarray
    reach: Reach


def simulate_model_scores(truth: np.ndarray, params: ScoreParams) -> np.ndarray:
    """Stand-in for a cheap pre-trained model: noisy scores from ground truth.

    Each known label of the truth column is flipped with probability
    ``flip_rate`` and beta-jittered into [0, 1], a controllably weak signal.
    Scores are in row order, NaN where truth is unknown (-1).
    """
    params.validate()
    rng = np.random.default_rng(params.seed)
    scores = np.full(len(truth), np.nan)
    for row in np.flatnonzero(truth >= 0).tolist():
        effective = bool(truth[row]) ^ bool(rng.random() < params.flip_rate)
        a, b = (8.0, 2.0) if effective else (2.0, 8.0)
        scores[row] = rng.beta(a, b)
    return scores


def compute_metrics(store: KnownStore, corpus) -> MetricsReport:
    """Evaluate a label store's columns against the corpus's truth column.

    ``corpus`` is a Corpus or an Item list over the store's ids; the report
    carries its content hash. Unless every row's truth is known, recall,
    precision, impression-weighted recall and amplification are None.
    """
    corpus = Corpus.of(corpus)
    if not np.array_equal(store.ids, corpus.ids):
        raise ValueError("store is over other ids than the corpus")
    written = store.written()
    reviews = int(np.count_nonzero(store.reviewed))
    # provenance codes follow PROVENANCES: seed, oracle, propagated
    pos_seed, pos_oracle, pos_propagated = np.bincount(
        written.provenance[written.label], minlength=len(PROVENANCES)).tolist()
    pos_total = pos_seed + pos_oracle + pos_propagated
    known = not np.any(corpus.truth < 0)
    truly_positive = corpus.truth == 1
    found = truly_positive & (store.labels == 1)
    gt_positives = int(np.count_nonzero(truly_positive))
    gt_impressions = int(corpus.impressions[truly_positive].sum())
    tp = int(np.count_nonzero(found))

    def rate(num, den):
        return num / den if known and den else None

    return MetricsReport(
        corpus_size=len(corpus),
        corpus_hash=corpus.content_hash,
        oracle_reviews=reviews,
        oracle_cost=0.0,
        review_fraction=reviews / len(corpus) if len(corpus) else 0.0,
        positives_seed=pos_seed,
        positives_oracle=pos_oracle,
        positives_propagated=pos_propagated,
        positives_total=pos_total,
        recall=rate(tp, gt_positives),
        precision=rate(tp, pos_total),
        impression_weighted_recall=rate(int(corpus.impressions[found].sum()), gt_impressions),
        amplification=rate(pos_total, pos_oracle),
    )


def run_round(state: PipelineState, config: PipelineConfig, round_no: int) -> RoundMetrics:
    """Execute one funnel round atomically against the shared store."""
    store = state.store
    graph = state.graph
    reach = state.reach
    impressions = state.corpus.impressions
    stages: list[dict] = []

    def audit(stage: str, n_in: int, n_out: int, **removed: int) -> None:
        stages.append({"round": round_no, "stage": stage, "in": n_in, "out": n_out,
                       "removed_reason_counts": removed})

    store.begin_round()
    current_stage = "seeds"
    try:
        seeds = feedback_seeds(store, round_no - 1)

        current_stage = "select"
        content = expand_content(graph, reach, seeds, config.theta_sim)
        actor = expand_actor(store, config.actor.min_positives, config.actor.min_rate)
        selected = state.scored.copy()
        selected[content] = True
        selected[actor] = True
        candidates = np.flatnonzero(selected)
        audit("select", 0, len(candidates))

        current_stage = "dedup_cross_round"
        kept, routed = dedup_cross_round(candidates, store)
        audit("dedup_cross_round", len(candidates), len(kept), dup=len(routed))

        current_stage = "filter_eligible"
        eligible = filter_eligible(kept, store, impressions)
        labeled = int(np.count_nonzero(store.labels[kept] >= 0))
        audit("filter_eligible", len(kept), len(eligible),
              inactive=len(kept) - len(eligible) - labeled, labeled=labeled)

        current_stage = "dedup_intra_batch"
        unique, dup_of = dedup_intra_batch(eligible, graph, config.theta_dup)
        audit("dedup_intra_batch", len(eligible), len(unique), dup=len(dup_of))

        current_stage = "sample"
        weights = (
            impressions[unique].astype(np.float64)
            if config.impression_weighted_sampling
            else None
        )
        plan = max_coverage_sample(
            unique, graph, config.theta_prop, config.budget_per_round, weights
        )
        sampled = len(plan.representatives)
        audit("sample", len(unique), sampled, unsampled=len(unique) - sampled)

        current_stage = "label"
        cost_before = state.oracle.cost_so_far
        reviews = oracle_label(plan.representatives, state.oracle, store, round_no,
                               state.corpus.embeddings)
        audit("label", sampled, len(reviews))

        current_stage = "propagate"
        propagated = propagate_labels(
            reviews, graph, config.theta_prop, store, round_no, routed
        )
        audit("propagate", len(reviews), len(propagated))
    except Exception as exc:
        store.abort_round()
        raise StageError(round_no, current_stage, exc) from exc

    store.commit_round()
    return RoundMetrics(
        round=round_no,
        oracle_reviews=len(reviews),
        positives_oracle=int(np.count_nonzero(reviews.label)),
        positives_propagated=int(np.count_nonzero(propagated.label)),
        oracle_cost=state.oracle.cost_so_far - cost_before,
        stages=stages,
    )


def _bootstrap(positive_positions: np.ndarray, count: int, rng_seed: int) -> LabelBatch:
    """``count`` seed labels drawn from the positive positions, in ascending order."""
    rng = np.random.default_rng(rng_seed)
    take = min(count, len(positive_positions))
    chosen = np.sort(rng.choice(positive_positions, size=take, replace=False))
    return LabelBatch.of(chosen, np.ones(take, dtype=bool),
                          PROVENANCES.index(PROVENANCE_SEED), 0)


def run_pipeline_detailed(
    corpus,
    config: PipelineConfig,
    *,
    graph: SimilarityGraph | None = None,
    oracle: Oracle | None = None,
) -> tuple[MetricsReport, PipelineState]:
    """Run the configured number of rounds and evaluate against ground truth.

    ``corpus`` is a Corpus or an Item list. A prebuilt graph may be passed to
    amortize construction across runs; it must be built over the corpus's
    ids and embeddings at a radius of at least theta_sim. Returns the report,
    whose ``oracle_cost`` counts this run's reviews alone, and the final
    state, store included.
    """
    config.validate()
    corpus = Corpus.of(corpus)
    if not len(corpus):
        raise ValueError("corpus is empty")
    truth_complete = bool(np.all(corpus.truth >= 0))
    if oracle is None:
        if not truth_complete:
            raise MissingGroundTruthError("simulated oracle requires ground truth for every item")
        params = config.oracle
        oracle = SimulatedOracle(params.tpr, params.tnr, params.seed, corpus.ids, corpus.truth,
                                 params.unit_cost)
    cost_start = oracle.cost_so_far  # a caller's oracle may have labelled before this run
    if graph is None:
        graph = build_graph(corpus, config.theta_sim, config.graph_mode, bands=config.graph_bands,
                            band_bits=config.graph_band_bits, seed=config.graph_seed)
    else:
        if graph.theta < config.theta_sim:
            raise ValueError(f"provided graph radius {graph.theta} < theta_sim {config.theta_sim}")
        if not np.array_equal(graph.ids, corpus.ids):
            missing = corpus.ids[~np.isin(corpus.ids, graph.ids)]
            if len(missing):
                raise ValueError(f"provided graph is missing item {missing[0]}")
            raise ValueError("provided graph has items outside the corpus")
        if not np.array_equal(graph.embeddings, corpus.embeddings):
            raise ValueError("provided graph was built over other embeddings")

    positive = corpus.truth == 1
    store = KnownStore(corpus.ids, accounts=corpus.accounts, hashes=corpus.hashes)
    store.write(_bootstrap(np.flatnonzero(positive), config.bootstrap_seeds, config.rng_seed))
    scored = np.zeros(len(corpus), dtype=bool)
    if config.score is not None:
        scored = simulate_model_scores(corpus.truth, config.score) > config.score.tau
    state = PipelineState(corpus=corpus, graph=graph, store=store, oracle=oracle, scored=scored,
                          reach=Reach(corpus.ids))

    gt_positives = int(np.count_nonzero(positive)) if truth_complete else 0
    round_metrics: list[RoundMetrics] = []
    for round_no in range(1, config.rounds + 1):
        metrics = run_round(state, config, round_no)
        if gt_positives:
            cumulative_tp = int(np.count_nonzero(positive & (store.labels == 1)))
            metrics.cumulative_recall = cumulative_tp / gt_positives
        round_metrics.append(metrics)

    report = compute_metrics(store, corpus)
    report.oracle_cost = oracle.cost_so_far - cost_start
    report.rounds = round_metrics
    return report, state


def _baseline_inputs(corpus, total_budget: int) -> Corpus:
    """A corpus a baseline may review: within the budget, with full ground truth."""
    corpus = Corpus.of(corpus)
    if total_budget < 0:
        raise ValueError("total_budget must be >= 0")
    if total_budget > len(corpus):
        raise ValueError(f"total_budget {total_budget} exceeds corpus size {len(corpus)}")
    if np.any(corpus.truth < 0):
        raise MissingGroundTruthError("baseline evaluation requires full ground truth")
    return corpus


def _reviewed(corpus: Corpus, pos: np.ndarray, oracle: Oracle) -> MetricsReport:
    """The report of one baseline review: ``pos`` to the oracle in order, no propagation."""
    store = KnownStore(corpus.ids)
    oracle_label(pos, oracle, store, 1, corpus.embeddings)
    report = compute_metrics(store, corpus)
    report.oracle_cost = len(pos) * oracle.unit_cost
    return report


def run_score_baseline(
    corpus,
    total_budget: int,
    oracle: Oracle,
    score_params: ScoreParams,
) -> MetricsReport:
    """Context baseline: review the top items by simulated model score.

    Items scoring above tau are ranked by descending score (ties by id) and
    the top ``total_budget`` go to the oracle; no propagation. Reported
    alongside the random baseline for comparison, never asserted against.
    """
    corpus = _baseline_inputs(corpus, total_budget)
    scores = simulate_model_scores(corpus.truth, score_params)
    above = int(np.count_nonzero(scores > score_params.tau))
    # stable over ascending ids, so ties go to the lower id
    ranked = np.argsort(-scores, kind="stable")[: min(above, total_budget)]
    report = _reviewed(corpus, ranked, oracle)
    report.baseline = {
        "kind": "score_top",
        "total_budget": total_budget,
        "reviewed": len(ranked),
        "tau": score_params.tau,
        "flip_rate": score_params.flip_rate,
        "seed": score_params.seed,
    }
    return report


def run_random_baseline(
    corpus,
    total_budget: int,
    oracle: Oracle,
    trials: int,
    seed: int,
) -> MetricsReport:
    """Budget-matched control: uniform random review with no propagation.

    Samples ``total_budget`` items without replacement, labels them with the
    given oracle, and averages the counts and rates over ``trials``
    resamples; the rest of the report is the first trial's.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    corpus = _baseline_inputs(corpus, total_budget)
    per_trial: list[MetricsReport] = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        sample = np.sort(rng.choice(len(corpus), size=total_budget, replace=False))
        per_trial.append(_reviewed(corpus, sample, oracle))

    def mean_of(name: str) -> float | None:
        present = [v for v in (getattr(r, name) for r in per_trial) if v is not None]
        return sum(present) / len(present) if present else None

    averaged = ("positives_seed", "positives_oracle", "positives_propagated", "positives_total",
                "recall", "precision", "impression_weighted_recall", "amplification")
    return replace(
        per_trial[0], **{name: mean_of(name) for name in averaged},
        baseline={"kind": "random", "total_budget": total_budget, "trials": trials,
                  "seed": seed},
    )
