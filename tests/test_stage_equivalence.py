"""Each funnel and labeling stage against a naive per-item reference.

The references below are the per-item loops the stages used before they
moved to one batched neighbour gather each; they query the graph one CSR row
at a time through ``csr_neighbors``. Every stage must give exactly their
output on seeded random corpora, stores and candidate sets, in both graph
modes. The model-score column is checked against the id -> score dict,
id filter and sort it replaced, and the lazy coverage greedy against the
eager one it replaced.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reviewfunnel.corpus import (
    PROVENANCES, Corpus, GeneratorConfig, LabelRecord, generate_corpus_detailed,
)
from reviewfunnel import pipeline
from reviewfunnel.funnel import (
    Reach,
    dedup_cross_round,
    dedup_intra_batch,
    expand_actor,
    expand_content,
    max_coverage_sample,
)
from reviewfunnel.labeling import (
    KnownStore, LabelBatch, Oracle, SimulatedOracle, propagate_labels,
)
from reviewfunnel.pipeline import (
    ActorParams,
    OracleParams,
    PipelineConfig,
    ScoreParams,
    run_pipeline_detailed,
    run_score_baseline,
    simulate_model_scores,
)
from reviewfunnel.simgraph import build_graph, positions

from conftest import csr_neighbors, make_items, truth_by_id

THETA_DUP, THETA_PROP, THETA_SIM = 0.05, 0.10, 0.25
SEEDS = range(8)
SEED, ORACLE = PROVENANCES.index("seed"), PROVENANCES.index("oracle")


def nbr_ids(graph, item_id, radius):
    return [i for i, _ in csr_neighbors(graph, item_id, radius)]


def ref_expand_content(graph, sources, theta_sim):
    out = set()
    for source in sorted(sources):
        out.update(nbr_ids(graph, source, theta_sim))
    return out - set(sources)


def known_of(store):
    """A store's records as the references read them: an id -> record dict, in write order."""
    return {r.item_id: r for r in store.records()}


def add_records(known, records):
    """Add records to an id -> record dict; an id is written at most once."""
    for record in records:
        assert record.item_id not in known
        known[record.item_id] = record


def ref_expand_actor(items, known, min_positives, min_rate):
    labeled, positive = {}, {}
    for item in items:
        record = known.get(item.item_id)
        if record is None:
            continue
        labeled[item.account_id] = labeled.get(item.account_id, 0) + 1
        if record.label:
            positive[item.account_id] = positive.get(item.account_id, 0) + 1
    flagged = {a for a, p in positive.items()
               if p >= min_positives and p / labeled[a] >= min_rate}
    return {item.item_id for item in items
            if item.account_id in flagged and item.item_id not in known}


def ref_dedup_cross_round(candidates, known, items_index):
    reviewed = {i for i, r in known.items() if r.provenance == "oracle"}
    if not reviewed:
        return set(candidates), {}
    kept, routed, by_hash = set(), {}, {}
    for rid in sorted(reviewed):
        by_hash.setdefault(items_index[rid].exact_hash, rid)
    for candidate in sorted(set(candidates)):
        match = by_hash.get(items_index[candidate].exact_hash)
        if match is None:
            kept.add(candidate)
        else:
            routed[candidate] = match
    return kept, routed


def ref_dedup_intra_batch(candidates, graph, theta_dup):
    kept, dup_of = set(), {}
    for candidate in sorted(set(candidates)):
        suppressors = [n for n in nbr_ids(graph, candidate, theta_dup) if n in kept]
        if suppressors:
            dup_of[candidate] = min(suppressors)
        else:
            kept.add(candidate)
    return kept, dup_of


def ref_max_coverage_sample(candidates, graph, theta_prop, k, weights):
    universe = sorted(set(candidates))
    if k == 0 or not universe:
        return (), {}

    def weight_of(item_id):
        return 1.0 if weights is None else float(weights.get(item_id, 0.0))

    cover, covering, gains = {}, {c: [] for c in universe}, {}
    for c in universe:
        cover[c] = [c] + [n for n in nbr_ids(graph, c, theta_prop) if n in covering]
        for m in cover[c]:
            covering[m].append(c)
        gains[c] = sum(weight_of(m) for m in cover[c])
    uncovered, reps, assigned, owner = set(universe), [], {}, {}
    while len(reps) < k and uncovered:
        best_id, best_gain = None, 0.0
        for c in universe:
            if gains[c] > best_gain:
                best_id, best_gain = c, gains[c]
        if best_id is None:
            break
        newly = sorted(m for m in cover[best_id] if m in uncovered)
        reps.append(best_id)
        assigned[best_id] = newly
        for m in newly:
            owner[m] = best_id
            uncovered.discard(m)
            for c in covering[m]:
                gains[c] -= weight_of(m)
        if best_id not in newly:
            assigned[owner[best_id]].remove(best_id)
            assigned[best_id] = sorted(assigned[best_id] + [best_id])
            owner[best_id] = best_id
    return tuple(reps), {r: tuple(assigned[r]) for r in reps}


def eager_max_coverage_sample(universe, graph, theta_prop, k, weights):
    """The coverage greedy before it went lazy, over ascending positions:
    after every pick the covered weights come off every gain (``subtract.at``,
    members ascending) and the next pick is the first ``argmax``."""
    m = len(universe)
    if k == 0 or not m:
        return universe[:0], universe[:0], universe[:0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    slot = np.full(len(graph), -1)
    slot[universe] = np.arange(m)
    row, nbr, _ = graph.gather(universe, theta_prop)
    inside = slot[nbr] >= 0
    row, nbr = row[inside], slot[nbr][inside]
    coverer = np.concatenate([np.arange(m), row])
    order = np.argsort(coverer, kind="stable")
    cover = np.concatenate([np.arange(m), nbr])[order]
    start = np.searchsorted(coverer[order], np.arange(m + 1))
    gains = np.bincount(coverer[order], weights=w[cover], minlength=m)
    uncovered = np.ones(m, dtype=bool)
    owner = np.full(m, -1)
    representatives = []
    while len(representatives) < k and uncovered.any():
        best = int(np.argmax(gains))
        if not gains[best] > 0.0:
            break
        members = cover[start[best] : start[best + 1]]
        newly = np.sort(members[uncovered[members]])
        representatives.append(best)
        owner[newly] = best
        uncovered[newly] = False
        counts = start[newly + 1] - start[newly]
        offset = start[newly] - np.cumsum(counts) + counts
        slots = np.arange(counts.sum()) + np.repeat(offset, counts)
        np.subtract.at(gains, cover[slots], np.repeat(w[newly], counts))
        owner[best] = best
    members = np.flatnonzero(owner >= 0)
    return universe[representatives], universe[members], universe[owner[members]]


def plan_as_dicts(plan):
    """A plan's representatives and each one's members, as the reference gives them."""
    reps = tuple(plan.representatives.tolist())
    assigned = {r: tuple(plan.members[plan.owner == r].tolist()) for r in reps}
    assert sum(map(len, assigned.values())) == len(plan.members)  # every owner picked
    return reps, assigned


def ref_propagate_labels(new_records, graph, theta_prop, known, round_no, dup_routed):
    offers, labels = {}, {}

    def offer(target, dist, label, source):
        offers.setdefault(target, []).append((dist, 0 if label else 1, source))
        labels[source] = label

    for record in sorted(new_records, key=lambda r: r.item_id):
        for nid, dist in csr_neighbors(graph, record.item_id, theta_prop):
            if nid not in known:
                offer(nid, dist, record.label, record.item_id)
    for target in sorted(dup_routed):
        if target not in known:
            match = dup_routed[target]
            (dist,) = graph.pair_distances(positions(graph.ids, [target]),
                                           positions(graph.ids, [match]))
            offer(target, float(dist), known[match].label, match)
    out = []
    for target in sorted(offers):
        dist, _, source = min(offers[target])
        out.append(LabelRecord(item_id=target, label=labels[source], provenance="propagated",
                               round=round_no, source_item_id=source, distance_to_source=dist))
    add_records(known, out)
    return out


def ref_simulate_model_scores(truth, params):
    """The score channel as an id -> score dict over the ids of known truth."""
    rng = np.random.default_rng(params.seed)
    scores = {}
    for item_id in sorted(truth):
        effective = truth[item_id] ^ bool(rng.random() < params.flip_rate)
        a, b = (8.0, 2.0) if effective else (2.0, 8.0)
        scores[item_id] = float(rng.beta(a, b))
    return scores


def ref_select_by_score(item_ids, scores, tau):
    known = set(item_ids)
    out = set()
    for item_id, score in scores.items():
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} for item {item_id} outside [0, 1]")
        if score > tau and item_id in known:
            out.add(item_id)
    return out


def ref_score_ranking(scores, tau):
    return sorted((i for i, s in scores.items() if s > tau), key=lambda i: (-scores[i], i))


def new_store(items):
    """An empty store over the items' ids, accounts and hashes."""
    items = sorted(items, key=lambda it: it.item_id)
    return KnownStore([it.item_id for it in items], [it.account_id for it in items],
                      np.array([it.exact_hash for it in items], dtype=np.uint64))


def scenario(seed):
    """A corpus, its graph, a partly labeled store and a candidate set."""
    rng = np.random.default_rng(seed)
    cfg = GeneratorConfig(n_clusters=40, embedding_dim=16, positive_cluster_rate=0.25,
                          n_accounts=15, rng_seed=100 + seed)
    items = generate_corpus_detailed(cfg)[0]
    mode = ("exact", "blocked")[seed % 2]
    graph = build_graph(items, THETA_SIM, mode, seed=seed)
    ids = np.array(sorted(it.item_id for it in items))
    store = new_store(items)
    labeled = rng.choice(ids, size=len(ids) // 3, replace=False).tolist()
    for item_id in labeled:
        provenance = SEED if rng.random() < 0.2 else ORACLE
        store.write(LabelBatch.of(positions(ids, [item_id]), [rng.random() < 0.6], provenance, 0))
    candidates = rng.choice(ids, size=len(ids) // 2, replace=False).tolist()
    return rng, items, graph, store, candidates


@pytest.mark.parametrize("seed", SEEDS)
def test_expand_content(seed):
    rng, _, graph, store, _ = scenario(seed)
    sources = store.ids[store.labels == 1].tolist()
    want = ref_expand_content(graph, set(sources), THETA_SIM)
    got = expand_content(graph, Reach(store.ids), set(sources), THETA_SIM).tolist()
    assert got == sorted(want)
    # the same reach grown in two steps: only the new sources are gathered
    for first in (sources[1::2], sources[::3], sources):
        reach = Reach(store.ids)
        expand_content(graph, reach, first, THETA_SIM)
        assert expand_content(graph, reach, sources, THETA_SIM).tolist() == sorted(want)
    assert expand_content(graph, Reach(store.ids), [], THETA_SIM).tolist() == []


@pytest.mark.parametrize("seed", SEEDS)
def test_expand_actor(seed):
    _, items, _, store, _ = scenario(seed)
    for min_positives, min_rate in ((1, 0.3), (2, 0.5), (3, 0.8), (1, 1.0)):
        assert set(expand_actor(store, min_positives, min_rate).tolist()) == ref_expand_actor(
            items, known_of(store), min_positives, min_rate
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_cross_round(seed):
    _, items, _, store, candidates = scenario(seed)
    # generated hashes are all distinct; coarse ones make exact-hash copies
    # that lie anywhere in embedding space
    items = dataclasses.replace(items, hashes=items.hashes % 64)
    index = {it.item_id: it for it in items}
    written = store.written()
    store = new_store(items)
    store.write(written)
    want = ref_dedup_cross_round(candidates, known_of(store), index)
    kept, routed = dedup_cross_round(candidates, store)
    assert (set(kept.tolist()), dict(routed.tolist())) == want
    assert len(routed), "the scenario should route some candidates"
    assert np.all(np.diff(routed[:, 0]) > 0)
    # a store that grows: each call matches the reviews written so far
    grown = new_store(items)
    for part in (slice(0, len(written) // 2), slice(len(written) // 2, len(written))):
        grown.write(written.rows(part))
        kept, routed = dedup_cross_round(candidates, grown)
        assert (set(kept.tolist()), dict(routed.tolist())) == ref_dedup_cross_round(
            candidates, known_of(grown), index)


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_intra_batch(seed):
    _, _, graph, _, candidates = scenario(seed)
    for radius in (0.0, THETA_DUP, THETA_PROP, THETA_SIM):
        kept, dup_of = dedup_intra_batch(candidates, graph, radius)
        assert (set(kept.tolist()), dict(dup_of.tolist())) == ref_dedup_intra_batch(
            candidates, graph, radius)
        assert np.all(np.diff(dup_of[:, 0]) > 0)
    assert len(dup_of), "the scenario should collapse some candidates"


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_intra_batch_overlapping(seed):
    # random 3-d directions: neighbourhoods overlap in chains, and an item
    # often has several kept lower-id neighbours
    rng = np.random.default_rng(seed)
    items = make_items(rng.standard_normal((150, 3)))
    graph = build_graph(items, THETA_SIM, ("exact", "blocked")[seed % 2], seed=seed)
    candidates = rng.choice(150, size=120, replace=False).tolist()
    for radius in (THETA_DUP, THETA_PROP, THETA_SIM):
        kept, dup_of = dedup_intra_batch(candidates, graph, radius)
        assert (set(kept.tolist()), dict(dup_of.tolist())) == ref_dedup_intra_batch(
            candidates, graph, radius)
        assert np.all(np.diff(dup_of[:, 0]) > 0)


@pytest.mark.parametrize("seed", SEEDS)
def test_max_coverage_sample(seed):
    rng, items, graph, _, candidates = scenario(seed)
    impressions = {it.item_id: float(it.impressions) for it in items}
    # arbitrary floats make the gain sums order-sensitive
    noisy = {i: float(rng.random() * 10) for i in candidates}
    for weights in (None, impressions, noisy):
        aligned = None if weights is None else np.array(
            [weights.get(i, 0.0) for i in sorted(set(candidates))])
        for k in (0, 1, 7, len(candidates)):
            got = max_coverage_sample(candidates, graph, THETA_PROP, k, aligned)
            assert got.budget == k
            assert plan_as_dicts(got) == ref_max_coverage_sample(
                candidates, graph, THETA_PROP, k, weights)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    distinct=st.sampled_from([0.3, 1.0]),
    share=st.sampled_from([0.0, 0.4, 1.0]),
    radius=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    kind=st.sampled_from(["unit", "integer", "float"]),
    budget=st.integers(0, 45),
)
def test_lazy_coverage_equals_eager(seed, n, distinct, share, radius, kind, budget):
    # repeated rows cover the same sets, so gains tie; integer weights of 0-3
    # tie too, and floats sum in an order-sensitive way; a share of 0 leaves
    # the universe empty, and budgets reach past what can be covered
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((max(1, int(n * distinct)), 3))
    items = make_items(base[rng.integers(0, len(base), n)], ids=np.arange(n) * 3 + 1)
    graph = build_graph(items, 0.6, "exact")
    universe = np.flatnonzero(rng.random(n) < share)
    weights = {"unit": None, "integer": rng.integers(0, 4, len(universe)).astype(float),
               "float": rng.random(len(universe)) * 10}[kind]
    plan = max_coverage_sample(universe, graph, radius, budget, weights)
    want = eager_max_coverage_sample(universe, graph, radius, budget, weights)
    got = (plan.representatives, plan.members, plan.owner)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize("seed", SEEDS)
def test_propagate_labels(seed):
    rng, items, graph, store, _ = scenario(seed)
    known = known_of(store)
    unlabeled = [it.item_id for it in items if it.item_id not in known]
    fresh = rng.choice(unlabeled, size=20, replace=False).tolist()
    reviewed = store.ids[store.reviewed].tolist()
    routed = {int(t): int(rng.choice(reviewed))
              for t in rng.choice(unlabeled, size=15, replace=False)}
    new_records = [LabelRecord(i, bool(rng.random() < 0.5), "oracle", 1) for i in fresh]
    reviews = LabelBatch.of(positions(store.ids, fresh), [r.label for r in new_records], ORACLE, 1)
    store.write(reviews)
    add_records(known, new_records)
    pairs = positions(store.ids, sorted(routed.items()))
    got = propagate_labels(reviews, graph, THETA_PROP, store, 1, pairs)
    want = ref_propagate_labels(new_records, graph, THETA_PROP, known, 1, routed)
    assert got.records(store.ids) == want and len(got)
    assert store.records() == list(known.values())


def audit(round_no, *stages):
    return [{"round": round_no, "stage": name, "in": n_in, "out": n_out,
             "removed_reason_counts": removed} for name, n_in, n_out, removed in stages]


def ref_campaign(items, truth, graph, config, bootstrap):
    """Every round of a campaign, each stage recomputed from scratch by the
    references above: (candidate ids, audit entries, records) per round."""
    index = {it.item_id: it for it in items}
    known = {}
    add_records(known, bootstrap)
    oracle = SimulatedOracle(config.oracle.tpr, config.oracle.tnr, config.oracle.seed,
                             items.ids, items.truth)
    scored = set()
    if config.score is not None:
        scores = ref_simulate_model_scores(truth, config.score)
        scored = {i for i, score in scores.items() if score > config.score.tau}
    rounds = []
    for round_no in range(1, config.rounds + 1):
        seeds = {i for i, r in known.items() if r.label and r.round <= round_no - 1}
        candidates = (ref_expand_content(graph, seeds, config.theta_sim) | scored
                      | ref_expand_actor(items, known, config.actor.min_positives,
                                         config.actor.min_rate))
        kept, routed = ref_dedup_cross_round(candidates, known, index)
        labeled = {c for c in kept if c in known}
        inactive = {c for c in kept - labeled if index[c].impressions == 0}
        eligible = kept - labeled - inactive
        unique, dup_of = ref_dedup_intra_batch(eligible, graph, config.theta_dup)
        weights = ({i: float(index[i].impressions) for i in unique}
                   if config.impression_weighted_sampling else None)
        reps, _ = ref_max_coverage_sample(unique, graph, config.theta_prop,
                                          config.budget_per_round, weights)
        verdicts = oracle.label_batch([(i, None) for i in reps]) if reps else []
        reviews = [LabelRecord(i, v, "oracle", round_no) for i, v in zip(reps, verdicts)]
        add_records(known, reviews)
        propagated = ref_propagate_labels(reviews, graph, config.theta_prop, known, round_no,
                                          routed)
        stages = audit(
            round_no,
            ("select", 0, len(candidates), {}),
            ("dedup_cross_round", len(candidates), len(kept), {"dup": len(routed)}),
            ("filter_eligible", len(kept), len(eligible),
             {"inactive": len(inactive), "labeled": len(labeled)}),
            ("dedup_intra_batch", len(eligible), len(unique), {"dup": len(dup_of)}),
            ("sample", len(unique), len(reps), {"unsampled": len(unique) - len(reps)}),
            ("label", len(reps), len(reviews), {}),
            ("propagate", len(reviews), len(propagated), {}),
        )
        rounds.append((candidates, stages, reviews + propagated))
    return rounds


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus_seed=st.integers(0, 2**16),
    n_clusters=st.integers(3, 25),
    dim=st.sampled_from([3, 4, 8, 16]),
    noise=st.sampled_from([0.05, 0.12, 0.2]),
    n_accounts=st.integers(1, 10),
    mode=st.sampled_from(["exact", "blocked"]),
    score=st.one_of(st.none(), st.builds(
        ScoreParams, tau=st.sampled_from([0.5, 0.8]), flip_rate=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 9))),
    weighted=st.booleans(),
    rounds=st.integers(1, 8),
    budget=st.integers(0, 6),
    bootstrap=st.integers(0, 5),
    actor=st.builds(ActorParams, min_positives=st.integers(1, 3),
                    min_rate=st.sampled_from([0.3, 0.6, 1.0])),
    oracle_seed=st.integers(0, 9),
)
def test_campaign_matches_stages_from_scratch(corpus_seed, n_clusters, dim, noise, n_accounts,
                                              mode, score, weighted, rounds, budget, bootstrap,
                                              actor, oracle_seed):
    items, truth, _ = generate_corpus_detailed(GeneratorConfig(
        n_clusters=n_clusters, cluster_size_mean=6, embedding_dim=dim, noise_sigma=noise,
        positive_cluster_rate=0.4, n_accounts=n_accounts, rng_seed=corpus_seed))
    config = PipelineConfig(
        rounds=rounds, budget_per_round=budget, bootstrap_seeds=bootstrap, graph_mode=mode,
        oracle=OracleParams(tpr=0.9, tnr=0.85, seed=oracle_seed), actor=actor, score=score,
        impression_weighted_sampling=weighted, graph_seed=corpus_seed)
    graph = build_graph(items, config.theta_sim, mode, seed=corpus_seed)
    candidate_sets = []

    def capture(candidates, *args):
        candidate_sets.append(items.ids[candidates].tolist())
        return dedup_cross_round(candidates, *args)

    with mock.patch.object(pipeline, "dedup_cross_round", capture):
        report, state = run_pipeline_detailed(items, config, graph=graph)
    records = state.store.records()
    bootstrap_records = [r for r in records if r.round == 0]
    want = ref_campaign(items, truth, graph, config, bootstrap_records)
    for round_no, (candidates, stages, new_records) in enumerate(want, start=1):
        assert candidate_sets[round_no - 1] == sorted(candidates)
        assert report.rounds[round_no - 1].to_dict()["stages"] == stages
        assert [r for r in records if r.round == round_no] == new_records


class RecordingOracle(Oracle):
    """Says no to every item and keeps the ids it was asked about, in order."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def _judge(self, batch):
        self.asked.extend(item_id for item_id, _ in batch)
        return [False] * len(batch)


def score_corpus(truth, steps):
    """Items at gapped ascending ids with the given truth codes (-1 unknown)."""
    ids = np.cumsum(steps).tolist()
    rng = np.random.default_rng(len(ids))
    return Corpus.of(make_items(rng.standard_normal((len(ids), 3)), ids=ids,
                                ground_truth=[None if t < 0 else bool(t) for t in truth]))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 4)),
                  min_size=1, max_size=40),
    tau=st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.95]),
    flip_rate=st.sampled_from([0.0, 0.1, 0.5]),
    seed=st.integers(0, 2**16),
    grid=st.sampled_from([None, 4, 20]),
    budget=st.integers(0, 40),
)
def test_score_column_matches_the_score_dict(rows, tau, flip_rate, seed, grid, budget):
    # the dict, the id filter and the (-score, id) sort are the references;
    # ``grid`` rounds both sides' scores alike to force ties
    truth, steps = zip(*rows)
    params = ScoreParams(tau=tau, flip_rate=flip_rate, seed=seed)
    corpus = score_corpus(truth, steps)
    got = simulate_model_scores(corpus.truth, params)
    want = ref_simulate_model_scores(truth_by_id(corpus), params)
    known = corpus.truth >= 0
    assert np.isnan(got[~known]).all()
    assert got[known].tobytes() == np.array(list(want.values()), dtype=np.float64).tobytes()

    def rounded(scores):
        return scores if grid is None else np.round(scores * grid) / grid

    def patched(truth_column, score_params):
        return rounded(simulate_model_scores(truth_column, score_params))

    def ref_rounded(scores):
        return {i: float(rounded(np.float64(s))) for i, s in scores.items()}

    config = PipelineConfig(rounds=1, budget_per_round=0, bootstrap_seeds=0,
                            graph_mode="exact", score=params)
    with mock.patch.object(pipeline, "simulate_model_scores", patched):
        _, state = run_pipeline_detailed(corpus, config, oracle=RecordingOracle())
    ids = corpus.ids.tolist()
    scored = corpus.ids[state.scored].tolist()
    assert scored == sorted(ref_select_by_score(ids, ref_rounded(want), tau))

    full = score_corpus([max(t, 0) for t in truth], steps)
    budget = min(budget, len(full))
    oracle = RecordingOracle()
    with mock.patch.object(pipeline, "simulate_model_scores", patched):
        report = run_score_baseline(full, budget, oracle, params)
    ranking = ref_score_ranking(ref_rounded(ref_simulate_model_scores(truth_by_id(full), params)),
                                tau)
    assert oracle.asked == ranking[:budget]
    assert report.baseline["reviewed"] == len(oracle.asked)
