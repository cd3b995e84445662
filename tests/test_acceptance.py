"""Acceptance suite: runs every acceptance criterion at its stated tolerance
and prints one PASS/FAIL line per criterion (visible with pytest -s).

Criteria 1-3 share one desk-scale corpus (~200k items in 20k clusters) and a
single blocked-mode similarity graph; the remaining criteria use smaller
purpose-built corpora.
"""

import dataclasses
import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from reviewfunnel.corpus import GeneratorConfig, generate_corpus_detailed
from reviewfunnel.labeling import SimulatedOracle
from reviewfunnel.pipeline import (
    OracleParams,
    PipelineConfig,
    ScoreParams,
    run_pipeline_detailed,
    run_random_baseline,
    run_score_baseline,
)
from reviewfunnel.simgraph import build_graph, cosine_distance

from conftest import make_items, neighbor_ids

THETA_DUP = 0.05
THETA_PROP = 0.10
THETA_SIM = 0.25

DESK_GENERATOR = GeneratorConfig(
    n_clusters=20_000,
    cluster_size_mean=10,
    dup_fraction=0.6,
    positive_cluster_rate=0.05,
    n_accounts=2000,
    account_skew=0.9,
    inactive_rate=0.1,
    rng_seed=7,
)

DESK_CONFIG = PipelineConfig(
    rounds=5,
    budget_per_round=40,
    theta_dup=THETA_DUP,
    theta_prop=THETA_PROP,
    theta_sim=THETA_SIM,
    oracle=OracleParams(tpr=0.95, tnr=0.95, seed=101),
    bootstrap_seeds=10,
    graph_mode="blocked",
    graph_seed=0,
    rng_seed=11,
)

PIPELINE_SEEDS = [(11, 101), (12, 102), (13, 103), (14, 104), (15, 105)]


def report_line(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


@pytest.fixture(scope="session")
def desk():
    t0 = time.perf_counter()
    items, truth, _ = generate_corpus_detailed(DESK_GENERATOR)
    graph = build_graph(
        items,
        THETA_SIM,
        "blocked",
        bands=DESK_CONFIG.graph_bands,
        band_bits=DESK_CONFIG.graph_band_bits,
        seed=DESK_CONFIG.graph_seed,
        workers=2,
    )
    primary, _ = run_pipeline_detailed(items, DESK_CONFIG, graph=graph)
    primary_elapsed = time.perf_counter() - t0

    reports = [primary]
    for rng_seed, oracle_seed in PIPELINE_SEEDS[1:]:
        config = dataclasses.replace(
            DESK_CONFIG,
            rng_seed=rng_seed,
            oracle=dataclasses.replace(DESK_CONFIG.oracle, seed=oracle_seed),
        )
        reports.append(run_pipeline_detailed(items, config, graph=graph)[0])

    budget = DESK_CONFIG.rounds * DESK_CONFIG.budget_per_round
    baseline = run_random_baseline(
        items, budget, SimulatedOracle(0.95, 0.95, 901, items.ids, items.truth), trials=5, seed=99
    )
    score_baseline = run_score_baseline(
        items,
        budget,
        SimulatedOracle(0.95, 0.95, 902, items.ids, items.truth),
        ScoreParams(tau=0.5, flip_rate=0.05, seed=17),
    )
    return SimpleNamespace(
        items=items,
        truth=truth,
        graph=graph,
        primary=primary,
        reports=reports,
        baseline=baseline,
        score_baseline=score_baseline,
        primary_elapsed=primary_elapsed,
    )


def test_criterion_1_review_volume_reduction(desk):
    """Cumulative oracle reviews stay within 0.1% of the corpus, in budget."""
    report = desk.primary
    budget = DESK_CONFIG.rounds * DESK_CONFIG.budget_per_round
    ok = (
        report.oracle_reviews <= budget
        and report.oracle_reviews <= 0.001 * len(desk.items)
        and report.review_fraction <= 0.001
        and desk.primary_elapsed < 120.0
    )
    report_line(
        1,
        "review-volume-reduction",
        ok,
        f"reviews={report.oracle_reviews} corpus={len(desk.items)} "
        f"fraction={report.review_fraction:.6f} elapsed={desk.primary_elapsed:.1f}s",
    )


def test_criterion_2_recall_vs_random_baseline(desk):
    """Funnel recall beats the budget-matched random baseline 2x or better."""
    base = desk.baseline.recall
    ratios = []
    for report in desk.reports:
        if base:
            ratios.append(report.recall / base)
        else:
            ratios.append(float("inf") if report.recall > 0 else 0.0)
    mean_ratio = sum(ratios) / len(ratios)
    detail = (
        f"mean_ratio={mean_ratio:.1f} run_recalls="
        f"{[round(r.recall, 4) for r in desk.reports]} baseline_recall={base:.6f} "
        f"score_model_recall_context={desk.score_baseline.recall:.6f}"
    )
    report_line(2, "recall-amplification-vs-baseline", mean_ratio >= 2.0, detail)


def test_criterion_3_propagation_doubling(desk):
    """Propagation at least doubles the oracle's positive labels."""
    ok = True
    amps = []
    for report in desk.reports:
        total = report.positives_oracle + report.positives_propagated
        amps.append(total / report.positives_oracle if report.positives_oracle else 0.0)
        ok = ok and report.positives_oracle > 0 and total >= 2 * report.positives_oracle
    report_line(
        3,
        "propagation-doubling",
        ok,
        f"amplification_per_seed={[round(a, 2) for a in amps]}",
    )


def brute_force_best_coverage(universe, cover, k):
    best = 0
    for combo in itertools.combinations(sorted(universe), k):
        covered = set()
        for rep in combo:
            covered |= cover[rep]
        best = max(best, len(covered))
    return best


def test_criterion_4_greedy_matches_brute_force_bound():
    """Greedy coverage >= (1 - 1/e) x optimum on 200 exhaustive instances."""
    from reviewfunnel.funnel import max_coverage_sample

    bound = 1 - 1 / math.e
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 4))
        items = make_items(rng.standard_normal((n, 3)))
        theta = float(rng.uniform(0.1, 0.9))
        graph = build_graph(items, theta, "exact")
        universe = list(range(n))
        plan = max_coverage_sample(universe, graph, theta, k)
        cover = {
            c: {c} | set(neighbor_ids(graph, c, theta)) for c in universe
        }
        optimum = brute_force_best_coverage(universe, cover, min(k, n))
        if plan.total_covered < bound * optimum - 1e-12:
            failures += 1
    elapsed = time.perf_counter() - t0
    report_line(
        4,
        "greedy-max-cover-oracle-equivalence",
        failures == 0 and elapsed < 10.0,
        f"instances=200 failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_blocked_graph_recall():
    """Blocked mode keeps >= 95% of exact near-duplicate edges at 5k scale."""
    cfg = GeneratorConfig(
        n_clusters=500,
        cluster_size_mean=10,
        dup_fraction=0.6,
        positive_cluster_rate=0.05,
        rng_seed=31,
    )
    items, _, _ = generate_corpus_detailed(cfg)
    t0 = time.perf_counter()
    exact = build_graph(items, THETA_DUP, "exact")
    blocked = build_graph(items, THETA_DUP, "blocked", seed=0)
    exact_edges = 0
    found = 0
    for node in exact.node_ids:
        exact_neighbors = set(neighbor_ids(exact, node, THETA_DUP))
        exact_edges += len(exact_neighbors)
        found += len(set(neighbor_ids(blocked, node, THETA_DUP)) & exact_neighbors)
    elapsed = time.perf_counter() - t0
    recall = found / exact_edges if exact_edges else 0.0
    report_line(
        5,
        "blocked-graph-recall",
        exact_edges > 0 and recall >= 0.95 and elapsed < 30.0,
        f"items={len(items)} exact_edges={exact_edges // 2} recall={recall:.4f} "
        f"elapsed={elapsed:.1f}s",
    )


def edge_keys(graph):
    """One key per directed edge of the graph at its own radius."""
    ids = graph.ids
    row, nbr, _ = graph.gather(np.arange(len(ids)), graph.theta)
    return ids[row] * (int(ids.max()) + 1) + ids[nbr]


@pytest.mark.parametrize("seed", range(3))
def test_criterion_5_blocked_graph_recall_16d(seed):
    """The same bar at theta_sim on 16-d data, where too few short bands fail it."""
    items, _, _ = generate_corpus_detailed(
        GeneratorConfig(n_clusters=1000, embedding_dim=16, rng_seed=seed))
    exact = edge_keys(build_graph(items, THETA_SIM, "exact"))
    default = PipelineConfig()
    recall = {
        (bands, bits): np.isin(exact, edge_keys(build_graph(
            items, THETA_SIM, "blocked", bands=bands, band_bits=bits, seed=0))).mean()
        for bands, bits in ((default.graph_bands, default.graph_band_bits), (12, 12))
    }
    default_recall = recall[default.graph_bands, default.graph_band_bits]
    report_line(
        5,
        "blocked-graph-recall-16d",
        len(exact) > 0 and default_recall >= 0.95 > recall[12, 12],
        f"items={len(items)} exact_edges={len(exact) // 2} recall default="
        f"{default_recall:.4f} 12x12={recall[12, 12]:.4f}",
    )


@pytest.fixture(scope="module")
def invariant_runs():
    cfg = GeneratorConfig(
        n_clusters=150,
        cluster_size_mean=8,
        positive_cluster_rate=0.15,
        n_accounts=100,
        rng_seed=77,
    )
    items, truth, _ = generate_corpus_detailed(cfg)
    config = PipelineConfig(
        rounds=4,
        budget_per_round=8,
        oracle=OracleParams(tpr=0.9, tnr=0.9, seed=5, unit_cost=3.0),
        bootstrap_seeds=5,
        graph_mode="blocked",
        rng_seed=2,
    )
    report, state = run_pipeline_detailed(items, config)
    return SimpleNamespace(
        items=items, truth=truth, config=config, report=report, state=state
    )


def test_criterion_6_invariant_suite(invariant_runs):
    """Dedup, propagation, provenance, replay, budget, and determinism."""
    from reviewfunnel.funnel import dedup_intra_batch

    items = invariant_runs.items
    config = invariant_runs.config
    state = invariant_runs.state
    by_id = {it.item_id: it for it in items}
    problems = []

    # dedup idempotence and post-dedup separation, checked exactly
    exact_graph = build_graph(items, THETA_SIM, "exact")
    kept, _ = dedup_intra_batch(np.arange(len(exact_graph)), exact_graph, THETA_DUP)
    again, dup_of = dedup_intra_batch(kept, exact_graph, THETA_DUP)
    if not np.array_equal(again, kept) or len(dup_of):
        problems.append("dedup not idempotent")
    kept_list = sorted(exact_graph.ids[kept].tolist())
    for i, a in enumerate(kept_list):
        for b in kept_list[i + 1 :]:
            d = cosine_distance(by_id[a].embedding, by_id[b].embedding)
            if d <= THETA_DUP:
                problems.append(f"kept pair ({a}, {b}) at distance {d}")

    # propagation soundness and one-hop provenance
    records = {r.item_id: r for r in state.store.records()}
    for record in records.values():
        if record.provenance != "propagated":
            continue
        source = records.get(record.source_item_id)
        if source is None or source.provenance not in ("seed", "oracle"):
            problems.append(f"bad provenance chain for {record.item_id}")
        exact_d = cosine_distance(
            by_id[record.item_id].embedding, by_id[record.source_item_id].embedding
        )
        if record.distance_to_source != exact_d:
            problems.append(f"stored distance mismatch for {record.item_id}")
        if exact_d > config.theta_prop:
            problems.append(f"propagated beyond theta_prop: {record.item_id}")

    # append-only replay: shorter runs are prefixes of longer ones
    previous = []
    for rounds in (1, 2, 3, 4):
        _, replay = run_pipeline_detailed(
            items, dataclasses.replace(config, rounds=rounds)
        )
        current = replay.store.records()
        if current[: len(previous)] != previous:
            problems.append(f"replay prefix broken at rounds={rounds}")
        previous = current

    # budget accounting identity: cost covers exactly the oracle records
    oracle_records = [r for r in state.store.records() if r.provenance == "oracle"]
    if state.oracle.items_labeled != len(oracle_records):
        problems.append("hidden oracle calls")
    if invariant_runs.report.oracle_cost != config.oracle.unit_cost * len(oracle_records):
        problems.append("cost identity broken")
    if invariant_runs.report.oracle_reviews > config.rounds * config.budget_per_round:
        problems.append("budget ceiling exceeded")

    # determinism: identical runs, and identical under more workers
    again_report, _ = run_pipeline_detailed(items, config)
    if again_report.to_json() != invariant_runs.report.to_json():
        problems.append("repeat run differs")
    workers2, _ = run_pipeline_detailed(items, dataclasses.replace(config, workers=2))
    if workers2.to_json() != invariant_runs.report.to_json():
        problems.append("worker count changes report")

    report_line(
        6,
        "invariant-suite",
        not problems,
        "all invariants hold" if not problems else "; ".join(problems[:5]),
    )


def test_criterion_7_perfect_information_sanity():
    """Perfect oracle + tight clusters: covered clusters label exactly once."""
    cfg = GeneratorConfig(
        n_clusters=50,
        cluster_size_mean=8,
        dup_fraction=0.5,
        positive_cluster_rate=0.3,
        noise_sigma=0.02,
        dup_sigma=0.005,
        n_accounts=40,
        rng_seed=55,
    )
    items, truth, clusters = generate_corpus_detailed(cfg)
    by_id = {it.item_id: it for it in items}

    # precondition: every cluster diameter is verifiably within theta_prop
    for cluster in clusters:
        members = [cluster.seed_id, *cluster.member_ids]
        for a, b in itertools.combinations(members, 2):
            assert cosine_distance(by_id[a].embedding, by_id[b].embedding) <= THETA_PROP

    config = PipelineConfig(
        rounds=4,
        budget_per_round=15,
        oracle=OracleParams(tpr=1.0, tnr=1.0, seed=0),
        bootstrap_seeds=5,
        graph_mode="exact",
        rng_seed=3,
    )
    report, state = run_pipeline_detailed(items, config)
    records = {r.item_id: r for r in state.store.records()}
    reviewed = {i for i, r in records.items() if r.provenance == "oracle"}

    covered_clusters = 0
    problems = []
    for cluster in clusters:
        if not cluster.positive:
            continue
        members = [cluster.seed_id, *cluster.member_ids]
        if not any(m in reviewed for m in members):
            continue
        covered_clusters += 1
        labeled = [records[m] for m in members if m in records]
        if len(labeled) != len(members):
            problems.append(f"cluster {cluster.seed_id}: missed members")
        if any(not r.label for r in labeled):
            problems.append(f"cluster {cluster.seed_id}: false negative")
    report_line(
        7,
        "perfect-information-sanity",
        covered_clusters > 0 and not problems,
        f"covered_positive_clusters={covered_clusters}"
        + ("" if not problems else "; " + "; ".join(problems[:3])),
    )
