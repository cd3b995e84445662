import dataclasses
import hashlib
import json
import math

from types import SimpleNamespace

import numpy as np
import pytest
import requests

from reviewfunnel.corpus import (
    ConfigError,
    Corpus,
    GeneratorConfig,
    PROVENANCES,
    generate_corpus_detailed,
)
from reviewfunnel import pipeline
from reviewfunnel.labeling import (
    HttpOracle, KnownStore, LabelBatch, SimulatedOracle, propagate_labels,
)
from reviewfunnel.pipeline import (
    ActorParams,
    MissingGroundTruthError,
    OracleParams,
    PipelineConfig,
    ScoreParams,
    StageError,
    compute_metrics,
    run_pipeline_detailed,
    run_random_baseline,
    run_round,
    run_score_baseline,
    simulate_model_scores,
)
from reviewfunnel.simgraph import build_graph

from conftest import make_items, planted_blob


def simulated(corpus, rate=1.0, seed=0):
    """A SimulatedOracle with tpr = tnr = rate over the corpus's truth column."""
    return SimulatedOracle(rate, rate, seed, corpus.ids, corpus.truth)


def stored(positives, corpus):
    """A label store over the corpus's ids holding round-1 positive reviews at ``positives``."""
    store = KnownStore(Corpus.of(corpus).ids)
    store.write(LabelBatch.of(positives, np.ones(len(positives), dtype=bool),
                              PROVENANCES.index("oracle"), 1))
    return store


def small_config(**overrides):
    defaults = dict(
        rounds=3,
        budget_per_round=5,
        bootstrap_seeds=3,
        graph_mode="exact",
        oracle=OracleParams(tpr=1.0, tnr=1.0, seed=0),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def small_corpus():
    items, truth, _ = generate_corpus_detailed(
        GeneratorConfig(n_clusters=40, cluster_size_mean=8, positive_cluster_rate=0.2,
                        n_accounts=30, rng_seed=21)
    )
    return items, truth


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(rounds=0), "rounds"),
            (dict(budget_per_round=-1), "budget_per_round"),
            (dict(theta_dup=0.2, theta_prop=0.1), "theta"),
            (dict(theta_sim=0.05), "theta"),
            (dict(oracle=OracleParams(tpr=2.0)), "tpr"),
            (dict(actor=ActorParams(min_positives=0)), "min_positives"),
            (dict(score=ScoreParams(tau=1.5)), "tau"),
            (dict(graph_mode="psychic"), "graph_mode"),
            (dict(workers=0), "workers"),
            (dict(bootstrap_seeds=-1), "bootstrap_seeds"),
        ],
    )
    def test_invalid_named(self, overrides, field):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(**overrides).validate()

    def test_defaults_valid(self):
        PipelineConfig().validate()


class TestSimulatedScores:
    def test_deterministic_and_bounded(self):
        truth = (np.arange(200) % 3 == 0).astype(np.int8)
        params = ScoreParams(tau=0.5, flip_rate=0.1, seed=4)
        a = simulate_model_scores(truth, params)
        b = simulate_model_scores(truth, params)
        assert a.tobytes() == b.tobytes()
        assert np.all((0.0 <= a) & (a <= 1.0))

    def test_scores_carry_signal(self):
        truth = (np.arange(1000) < 500).astype(np.int8)
        scores = simulate_model_scores(truth, ScoreParams(flip_rate=0.05, seed=1))
        assert scores[:500].mean() > 0.6 > 0.4 > scores[500:].mean()

    def test_unknown_truth_is_unscored_and_draws_nothing(self):
        truth = np.array([1, -1, 0, -1, 1], dtype=np.int8)
        params = ScoreParams(flip_rate=0.3, seed=3)
        scores = simulate_model_scores(truth, params)
        assert np.isnan(scores[[1, 3]]).all()
        known = simulate_model_scores(truth[[0, 2, 4]], params)
        assert scores[[0, 2, 4]].tobytes() == known.tobytes()


class TestComputeMetrics:
    def make_corpus(self, n, positives):
        rng = np.random.default_rng(9)
        gt = [i < positives for i in range(n)]
        return make_items(rng.standard_normal((n, 4)), ground_truth=gt)

    def test_empty_store(self):
        items = self.make_corpus(50, 10)
        report = compute_metrics(stored([], items), items)
        assert report.recall == 0.0
        assert report.precision is None
        assert report.oracle_reviews == 0

    def test_store_equals_ground_truth(self):
        items = self.make_corpus(50, 10)
        report = compute_metrics(stored(range(10), items), items)
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_partial_arithmetic(self):
        # 20 labeled positive, 10 of them truly positive, 40 true positives
        items = self.make_corpus(100, 40)
        report = compute_metrics(stored(list(range(10)) + list(range(50, 60)), items), items)
        assert report.recall == 0.25
        assert report.precision == 0.5

    def test_missing_ground_truth(self):
        # one unknown row: the report counts records but evaluates nothing,
        # and neither baseline runs on the corpus
        items = self.make_corpus(10, 2)
        items[3] = dataclasses.replace(items[3], ground_truth=None)
        corpus = Corpus.of(items)
        report = compute_metrics(stored([0], corpus), corpus)
        assert (report.oracle_reviews, report.positives_total) == (1, 1)
        assert report.recall is report.precision is None
        assert report.impression_weighted_recall is report.amplification is None
        with pytest.raises(MissingGroundTruthError):
            run_random_baseline(corpus, 5, simulated(corpus), trials=1, seed=0)
        with pytest.raises(MissingGroundTruthError):
            run_score_baseline(corpus, 5, simulated(corpus), ScoreParams())

    def test_impression_weighting(self):
        rng = np.random.default_rng(2)
        gt = [True, True, False, False]
        items = make_items(
            rng.standard_normal((4, 3)),
            impressions=[10, 0, 5, 5],
            ground_truth=gt,
        )
        report = compute_metrics(stored([1], items), items)
        assert report.recall == 0.5
        assert report.impression_weighted_recall == 0.0


class TestRunRound:
    def test_no_candidates_no_cost(self, rng):
        # no seeds, no scores, no flagged actors: nothing reaches the oracle
        items = make_items(
            rng.standard_normal((10, 4)), ground_truth=[False] * 9 + [True]
        )
        config = small_config(bootstrap_seeds=0, rounds=1)
        report, state = run_pipeline_detailed(items, config)
        assert report.oracle_reviews == 0
        assert report.oracle_cost == 0.0
        assert report.recall == 0.0

    def test_hand_traced_single_cluster(self, rng):
        # one tight positive blob of 6; seed one member, review one, the
        # other four arrive by propagation
        blob = planted_blob(rng.standard_normal(12), 6, 0.002, rng)
        items = make_items(blob, ground_truth=[True] * 6)
        config = small_config(rounds=1, budget_per_round=1, bootstrap_seeds=1)
        report, _ = run_pipeline_detailed(items, config)
        assert report.oracle_reviews == 1
        assert report.positives_oracle == 1
        assert report.positives_propagated == 4
        assert report.positives_seed == 1
        assert report.recall == 1.0
        assert report.amplification == 6.0

    def check_rollback(self, state, config, stage):
        """Round 3 fails at ``stage`` and leaves the store as it found it."""
        store = state.store
        snapshot = list(store.records())

        def columns():
            return (len(store), [column.tobytes() for column in store.written().columns()],
                    store.reviewed.tolist(), store.labels.tolist(), store.rounds.tolist())

        before = columns()
        with pytest.raises(StageError, match=f"round 3 stage {stage}"):
            run_round(state, config, 3)
        assert store.records() == snapshot
        assert columns() == before
        return snapshot

    def check_rerun(self, items, state, config, snapshot):
        """Round 3 rerun equals round 3 of a clean three-round run, so the
        aborted round advanced no reach mask."""
        metrics = run_round(state, config, 3)
        clean, clean_state = run_pipeline_detailed(items, small_config(rounds=3))
        # cumulative recall is filled in by run_pipeline_detailed, not run_round
        assert metrics.to_dict() == dict(clean.rounds[2].to_dict(), cumulative_recall=None)
        assert state.store.records() == clean_state.store.records()
        assert len(state.store.records()) > len(snapshot)

    def test_stage_failure_rolls_back_store(self, small_corpus):
        items, truth = small_corpus
        config = small_config(rounds=2)
        report, state = run_pipeline_detailed(items, config)

        class ExplodingOracle(SimulatedOracle):
            def _judge(self, batch):
                raise RuntimeError("labeler offline")

        exploding = ExplodingOracle(1.0, 1.0, 0, items.ids, items.truth)
        real_oracle, state.oracle = state.oracle, exploding
        snapshot = self.check_rollback(state, config, "label")
        state.oracle = real_oracle
        self.check_rerun(items, state, config, snapshot)

    def test_propagate_failure_rolls_back_store(self, small_corpus, monkeypatch):
        # the round's oracle and propagated records are staged before it fails
        items, _ = small_corpus
        config = small_config(rounds=2)
        _, state = run_pipeline_detailed(items, config)

        staged = []

        def propagate_then_fail(reviews, *args, **kwargs):
            staged.extend(reviews.pos.tolist())
            staged.extend(propagate_labels(reviews, *args, **kwargs).pos.tolist())
            raise RuntimeError("propagation interrupted")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "propagate_labels", propagate_then_fail)
            snapshot = self.check_rollback(state, config, "propagate")
        assert staged  # the round's reviews at least were written before it failed
        assert np.all(state.store.labels[staged] == -1)
        self.check_rerun(items, state, config, snapshot)

    def test_http_oracle_extra_verdicts_roll_back(self, small_corpus, monkeypatch):
        items, _ = small_corpus
        config = small_config(rounds=2)
        _, state = run_pipeline_detailed(items, config)
        snapshot = state.store.records()

        def post(url, json, timeout):
            verdicts = [{"item_id": item["item_id"], "label": True} for item in json["items"]]
            reply = SimpleNamespace(status_code=200, raise_for_status=lambda: None)
            reply.json = lambda: {"verdicts": verdicts + [{"item_id": -5, "label": True}]}
            return reply

        monkeypatch.setattr(requests, "post", post)
        state.oracle = HttpOracle("http://127.0.0.1:9/label")
        with pytest.raises(StageError, match=r"round 3 stage label: .*unasked items \[-5\]"):
            run_round(state, config, 3)
        assert state.store.records() == snapshot

    def test_identical_round_metrics(self, small_corpus):
        items, _ = small_corpus
        config = small_config(rounds=2)
        a, _ = run_pipeline_detailed(items, config)
        b, _ = run_pipeline_detailed(items, config)
        assert [r.to_dict() for r in a.rounds] == [r.to_dict() for r in b.rounds]


class TestRunPipeline:
    def test_zero_budget_recall_is_bootstrap_recall(self, small_corpus):
        items, truth = small_corpus
        config = small_config(rounds=1, budget_per_round=0, bootstrap_seeds=5)
        report, _ = run_pipeline_detailed(items, config)
        positives = sum(truth.values())
        assert report.review_fraction == 0.0
        assert report.recall == 5 / positives

    def test_byte_identical_reports(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        a, b = (run_pipeline_detailed(items, config)[0] for _ in range(2))
        assert a.to_json() == b.to_json()

    def test_workers_do_not_change_report(self, small_corpus):
        items, _ = small_corpus
        config = small_config(graph_mode="blocked")
        two = dataclasses.replace(config, workers=2)
        a, b = (run_pipeline_detailed(items, c)[0] for c in (config, two))
        assert a.to_json() == b.to_json()

    def test_budget_ceiling(self, small_corpus):
        items, _ = small_corpus
        config = small_config(rounds=4, budget_per_round=3)
        report, _ = run_pipeline_detailed(items, config)
        assert report.oracle_reviews <= 4 * 3
        # candidates are plentiful in this corpus, so the budget is exhausted
        assert all(r.oracle_reviews == 3 for r in report.rounds)

    def test_recall_monotone_across_rounds(self, small_corpus):
        items, _ = small_corpus
        report, _ = run_pipeline_detailed(items, small_config(rounds=4))
        recalls = [r.cumulative_recall for r in report.rounds]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))

    def test_amplification_identity(self, small_corpus):
        items, _ = small_corpus
        report, _ = run_pipeline_detailed(items, small_config())
        assert report.positives_total == (
            report.positives_seed + report.positives_oracle + report.positives_propagated
        )
        assert report.positives_oracle == sum(r.positives_oracle for r in report.rounds)
        assert report.positives_propagated == sum(
            r.positives_propagated for r in report.rounds
        )

    def test_store_replay_prefix(self, small_corpus):
        items, _ = small_corpus
        stores = []
        for rounds in (1, 2, 3):
            _, state = run_pipeline_detailed(items, small_config(rounds=rounds))
            stores.append(state.store.records())
        assert stores[1][: len(stores[0])] == stores[0]
        assert stores[2][: len(stores[1])] == stores[1]

    def test_budget_accounting_identity(self, small_corpus):
        items, _ = small_corpus
        config = small_config(oracle=OracleParams(tpr=1.0, tnr=1.0, unit_cost=2.0))
        report, state = run_pipeline_detailed(items, config)
        oracle_records = [
            r for r in state.store.records() if r.provenance == "oracle"
        ]
        assert state.oracle.items_labeled == len(oracle_records)
        assert report.oracle_cost == 2.0 * len(oracle_records)

    def test_oracle_cost_counts_this_run_alone(self, small_corpus):
        # one oracle over two runs: the second run's cost is its own reviews,
        # not the oracle's lifetime total
        items, _ = small_corpus
        config = small_config(rounds=2)
        oracle = simulated(items)
        first, _ = run_pipeline_detailed(items, config, oracle=oracle)
        second, _ = run_pipeline_detailed(items, config, oracle=oracle)
        assert first.oracle_reviews == second.oracle_reviews > 0
        for report in (first, second):
            assert report.oracle_cost == report.oracle_reviews
            assert report.oracle_cost == sum(rm.oracle_cost for rm in report.rounds)
        assert oracle.cost_so_far == 2 * first.oracle_cost

    def test_prebuilt_graph_matches_autobuilt(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        graph = build_graph(items, config.theta_sim, "exact")
        a, _ = run_pipeline_detailed(items, config)
        b, _ = run_pipeline_detailed(items, config, graph=graph)
        assert a.to_json() == b.to_json()

    def test_prebuilt_graph_too_small_radius(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        graph = build_graph(items, 0.1, "exact")
        with pytest.raises(ValueError, match="radius"):
            run_pipeline_detailed(items, config, graph=graph)

    def test_prebuilt_graph_missing_item(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        graph = build_graph(items[:-1], config.theta_sim, "exact")
        with pytest.raises(ValueError, match="missing"):
            run_pipeline_detailed(items, config, graph=graph)

    def test_prebuilt_graph_over_other_ids(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        shifted = dataclasses.replace(items, ids=items.ids + 1)
        graph = build_graph(shifted, config.theta_sim, "exact")
        with pytest.raises(ValueError, match=f"provided graph is missing item {items.ids[0]}$"):
            run_pipeline_detailed(items, config, graph=graph)

    def test_prebuilt_graph_with_items_outside_the_corpus(self, small_corpus):
        items, _ = small_corpus
        config = small_config()
        graph = build_graph(items, config.theta_sim, "exact")
        with pytest.raises(ValueError, match="provided graph has items outside the corpus"):
            run_pipeline_detailed(items[1:], config, graph=graph)

    def test_prebuilt_graph_over_other_embeddings(self):
        # singleton clusters: two seeds give the same ids, other embeddings
        one, two = (generate_corpus_detailed(GeneratorConfig(n_clusters=300, cluster_size_mean=1,
                                                    rng_seed=seed))[0] for seed in (1, 2))
        assert one.ids.tolist() == two.ids.tolist()
        config = small_config()
        graph = build_graph(one, config.theta_sim, "exact")
        with pytest.raises(ValueError, match="other embeddings"):
            run_pipeline_detailed(two, config, graph=graph)

    def test_missing_ground_truth_without_oracle(self, rng):
        items = make_items(rng.standard_normal((5, 3)))
        with pytest.raises(MissingGroundTruthError):
            run_pipeline_detailed(items, small_config())

    def test_injected_oracle_without_ground_truth(self, rng):
        items = make_items(rng.standard_normal((12, 4)))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(12), [0] * 12)
        config = small_config(rounds=1, bootstrap_seeds=0)
        report, _ = run_pipeline_detailed(items, config, oracle=oracle)
        assert report.recall is None
        assert report.precision is None

    def test_score_stage_enabled(self, small_corpus):
        items, truth = small_corpus
        config = small_config(score=ScoreParams(tau=0.9, flip_rate=0.05, seed=2))
        report, _ = run_pipeline_detailed(items, config)
        assert report.oracle_reviews > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_pipeline_detailed([], small_config())


@pytest.fixture(scope="module")
def pinned_corpus():
    # overlapping 16-d clusters, so cross-round dedup, actor expansion and
    # feedback all fire within the default five rounds
    cfg = GeneratorConfig(n_clusters=300, embedding_dim=16, positive_cluster_rate=0.1,
                          n_accounts=200, rng_seed=7)
    return generate_corpus_detailed(cfg)[0]


@pytest.mark.parametrize(
    "overrides, report_digest, labels_digest",
    [
        (
            {},
            "a4ab2a3662640d9fad9f9054178f665e0be33d9f354633810d716954c8c26623",
            "e15952200a8a7ac8f325ba75f5ededc7f2233ac664221acc687ab0e5324ca36e",
        ),
        (
            {"impression_weighted_sampling": True},
            "bd5a89a36807d6f80c375dd87d434c3ef1ea160dc6e56bbedb56779846d3c037",
            "85496ead0dad03c0ae651a775a61cff571e02b5ffaf73d998aa861b4afd9d9be",
        ),
        (
            {"score": ScoreParams()},
            "43d9d9f266dcc707bfa0a7f4d29109b462c06cfd6e5a8896a88c6a0a49480d87",
            "5b07fe6c596209d1f548ce2aec35d0b8f0da43e1617018ef3091d0fb6f355555",
        ),
    ],
    ids=["default", "impression_weighted", "score"],
)
def test_run_outputs_are_pinned(pinned_corpus, overrides, report_digest, labels_digest):
    # labels digests recorded before the funnel stages moved to batched
    # neighbour gathers; report digests re-recorded when cross-round dedup
    # stopped matching near-duplicates, which propagation had already
    # labelled (only the dedup and filter audit counts moved); a stage change
    # that moves any candidate, review or label fails here
    report, state = run_pipeline_detailed(pinned_corpus, PipelineConfig(**overrides))
    labels = json.dumps([dataclasses.astuple(r) for r in state.store.records()])
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == report_digest
    assert hashlib.sha256(labels.encode()).hexdigest() == labels_digest


def gapped(corpus):
    """The corpus under gapped ascending ids, rows and columns otherwise unchanged."""
    gaps = np.random.default_rng(5).integers(0, 4, len(corpus.ids)).cumsum()
    return dataclasses.replace(corpus, ids=corpus.ids * 7 + 3 + gaps)


@pytest.mark.parametrize(
    "overrides", [{}, {"score": ScoreParams()}, {"impression_weighted_sampling": True}],
    ids=["default", "score", "impression_weighted"],
)
def test_sparse_ids_give_the_same_records(pinned_corpus, overrides):
    # generated ids are 0..n-1, so a position taken for an id passes every
    # other test; under gapped ascending ids each record must map back
    ids = pinned_corpus.ids
    sparse = gapped(pinned_corpus)
    config = PipelineConfig(oracle=OracleParams(tpr=1.0, tnr=1.0), **overrides)
    to_dense = dict(zip(sparse.ids.tolist(), ids.tolist()))
    to_dense[None] = None
    dense_report, dense_state = run_pipeline_detailed(pinned_corpus, config)
    sparse_report, sparse_state = run_pipeline_detailed(sparse, config)
    want = [dataclasses.astuple(r) for r in dense_state.store.records()]
    got = [
        (to_dense[r.item_id], *dataclasses.astuple(r)[1:4], to_dense[r.source_item_id],
         r.distance_to_source)
        for r in sparse_state.store.records()
    ]
    assert got == want and len(want) > 1000
    # every round's audit entries and the report's counts and rates; only
    # the corpus hash covers the ids
    assert dict(sparse_report.to_dict(), corpus_hash=None) == dict(
        dense_report.to_dict(), corpus_hash=None)


class Asked(SimulatedOracle):
    """A perfect simulated oracle that keeps the ids it is asked about, in order."""

    def __init__(self, corpus):
        super().__init__(1.0, 1.0, 0, corpus.ids, corpus.truth)
        self.asked = []

    def _judge(self, batch):
        self.asked.extend(item_id for item_id, _embedding in batch)
        return super()._judge(batch)


@pytest.mark.parametrize("baseline", [
    lambda corpus, oracle: run_random_baseline(corpus, 200, oracle, 3, 11),
    lambda corpus, oracle: run_score_baseline(corpus, 60, oracle, ScoreParams()),
], ids=["random", "score"])
def test_sparse_ids_give_the_same_baseline(pinned_corpus, baseline):
    # a baseline that draws or ranks ids where it means positions reviews
    # other items once the ids have gaps
    sparse = gapped(pinned_corpus)
    dense_oracle, sparse_oracle = Asked(pinned_corpus), Asked(sparse)
    dense_report = baseline(pinned_corpus, dense_oracle)
    sparse_report = baseline(sparse, sparse_oracle)
    to_dense = dict(zip(sparse.ids.tolist(), pinned_corpus.ids.tolist()))
    assert [to_dense[i] for i in sparse_oracle.asked] == dense_oracle.asked
    assert len(dense_oracle.asked) >= 60 and dense_report.positives_oracle > 0
    assert sparse_report.corpus_hash == sparse.content_hash != pinned_corpus.content_hash
    assert dict(sparse_report.to_dict(), corpus_hash=None) == dict(
        dense_report.to_dict(), corpus_hash=None)


def test_baseline_outputs_are_pinned(pinned_corpus):
    # a noisy oracle and budgets that find tens of positives, so a change to
    # the baselines' sample, review order or averaging fails here
    def digest(report):
        return hashlib.sha256(report.to_json().encode()).hexdigest()

    random = run_random_baseline(pinned_corpus, 200, simulated(pinned_corpus, 0.9, 3), 5, 11)
    score = run_score_baseline(pinned_corpus, 60, simulated(pinned_corpus, 0.9, 3), ScoreParams())
    assert random.positives_oracle > 10 and score.positives_oracle > 10
    assert digest(random) == "57c74904e56b51480e3b23bea9ea2aebb6b391d3d205a6ad00d427c1c563dfd0"
    assert digest(score) == "8a99237614f87b261a8abac13b875746af70da10bd53259a34a58d5cadc2fd38"


class TestRandomBaseline:
    def make_corpus(self, n, positives, seed=0):
        rng = np.random.default_rng(seed)
        gt = [i < positives for i in range(n)]
        return Corpus.of(make_items(rng.standard_normal((n, 4)), ground_truth=gt))

    def test_full_budget_perfect_oracle(self):
        items = self.make_corpus(60, 12)
        oracle = simulated(items)
        report = run_random_baseline(items, 60, oracle, trials=2, seed=1)
        assert report.recall == 1.0
        assert report.review_fraction == 1.0

    def test_zero_budget(self):
        items = self.make_corpus(30, 5)
        oracle = simulated(items)
        report = run_random_baseline(items, 0, oracle, trials=3, seed=1)
        assert report.recall == 0.0
        assert report.review_fraction == 0.0

    def test_hypergeometric_expectation(self):
        # 1% budget over 1% positives with a perfect oracle: expected recall
        # is budget/n = 0.01; 3-sigma band for the 40-trial mean is ~0.007
        items = self.make_corpus(5000, 50, seed=3)
        oracle = simulated(items)
        report = run_random_baseline(items, 50, oracle, trials=40, seed=2)
        assert abs(report.recall - 0.01) <= 0.007

    def test_budget_exceeds_corpus(self):
        items = self.make_corpus(10, 2)
        oracle = simulated(items)
        with pytest.raises(ValueError, match="exceeds"):
            run_random_baseline(items, 11, oracle, trials=1, seed=0)

    def test_deterministic(self):
        items = self.make_corpus(100, 10)
        a = run_random_baseline(items, 20, simulated(items, 0.9, 5), 5, 7)
        b = run_random_baseline(items, 20, simulated(items, 0.9, 5), 5, 7)
        assert a.to_json() == b.to_json()

    def test_no_propagation(self):
        items = self.make_corpus(50, 10)
        oracle = simulated(items)
        report = run_random_baseline(items, 25, oracle, trials=3, seed=4)
        assert report.positives_propagated == 0.0
        assert report.amplification in (1.0, None)


class TestScoreBaseline:
    def make_corpus(self, n, positives, seed=0):
        rng = np.random.default_rng(seed)
        gt = [i < positives for i in range(n)]
        return Corpus.of(make_items(rng.standard_normal((n, 4)), ground_truth=gt))

    def test_full_budget_perfect_oracle(self):
        items = self.make_corpus(40, 8)
        oracle = simulated(items)
        params = ScoreParams(tau=0.0, flip_rate=0.0, seed=1)
        report = run_score_baseline(items, 40, oracle, params)
        assert report.recall == 1.0
        assert report.baseline["kind"] == "score_top"

    def test_respects_budget_and_tau(self):
        items = self.make_corpus(100, 20)
        oracle = simulated(items)
        params = ScoreParams(tau=0.5, flip_rate=0.0, seed=2)
        report = run_score_baseline(items, 10, oracle, params)
        assert report.oracle_reviews == 10
        assert report.positives_propagated == 0

    def test_beats_random_when_scores_carry_signal(self):
        items = self.make_corpus(2000, 100, seed=5)
        params = ScoreParams(tau=0.5, flip_rate=0.05, seed=3)
        score = run_score_baseline(
            items, 50, simulated(items), params
        )
        random = run_random_baseline(
            items, 50, simulated(items), trials=5, seed=8
        )
        assert score.recall > random.recall

    def test_deterministic(self):
        items = self.make_corpus(100, 10)
        params = ScoreParams(tau=0.6, flip_rate=0.1, seed=4)
        a = run_score_baseline(items, 15, simulated(items, 0.9, 1), params)
        b = run_score_baseline(items, 15, simulated(items, 0.9, 1), params)
        assert a.to_json() == b.to_json()

    def test_budget_exceeds_corpus(self):
        items = self.make_corpus(10, 2)
        with pytest.raises(ValueError, match="exceeds"):
            run_score_baseline(
                items, 11, simulated(items), ScoreParams()
            )

    @pytest.mark.parametrize("params, field", [
        (ScoreParams(tau=5.0), "score.tau"),
        (ScoreParams(tau=math.nan), "score.tau"),
        (ScoreParams(flip_rate=3.0), "score.flip_rate"),
    ], ids=["tau-5", "tau-nan", "flip_rate-3"])
    def test_params_outside_the_config_rule_refused(self, params, field):
        # each ran before: 0 reviews for either tau, every label flipped at 3.0
        items = self.make_corpus(10, 2)
        with pytest.raises(ConfigError, match=f"^{field} must be in"):
            run_score_baseline(items, 5, simulated(items), params)
        with pytest.raises(ConfigError, match=f"^{field} must be in"):
            simulate_model_scores(items.truth, params)
