"""Each funnel and labeling stage against a naive per-item reference.

The references below are the per-item loops the stages used before they
moved to one batched neighbour gather each; they query the graph one CSR row
at a time through ``csr_neighbors``. Every stage must give exactly their
output on seeded random corpora, stores and candidate sets, in both graph
modes.
"""

import numpy as np
import pytest

from reviewfunnel.corpus import GeneratorConfig, LabelRecord, generate_corpus, ids_by_account
from reviewfunnel.funnel import (
    ORIGIN_CONTENT,
    ORIGIN_FEEDBACK,
    CoveragePlan,
    dedup_cross_round,
    dedup_intra_batch,
    expand_actor,
    expand_content,
    max_coverage_sample,
)
from reviewfunnel.labeling import KnownStore, propagate_labels
from reviewfunnel.simgraph import build_graph

from conftest import csr_neighbors

THETA_DUP, THETA_PROP, THETA_SIM = 0.05, 0.10, 0.25
SEEDS = range(8)


def nbr_ids(graph, item_id, radius):
    return [i for i, _ in csr_neighbors(graph, item_id, radius)]


def ref_expand_content(graph, sources, theta_sim, feedback_ids):
    def one_hop(seeds):
        out = set()
        for source in sorted(seeds):
            out.update(nbr_ids(graph, source, theta_sim))
        return out - set(seeds)

    content = one_hop(sources)
    feedback = one_hop(feedback_ids) & content if feedback_ids else set()
    return {i: {ORIGIN_CONTENT} | ({ORIGIN_FEEDBACK} if i in feedback else set())
            for i in content}


def ref_expand_actor(items, store, min_positives, min_rate):
    labeled, positive = {}, {}
    for item in items:
        record = store.get(item.item_id)
        if record is None:
            continue
        labeled[item.account_id] = labeled.get(item.account_id, 0) + 1
        if record.label:
            positive[item.account_id] = positive.get(item.account_id, 0) + 1
    flagged = {a for a, p in positive.items()
               if p >= min_positives and p / labeled[a] >= min_rate}
    return {item.item_id for item in items
            if item.account_id in flagged and store.get(item.item_id) is None}


def ref_dedup_cross_round(candidates, store, graph, theta_dup, items_index):
    reviewed = store.reviewed_ids()
    if not reviewed:
        return set(candidates), {}
    kept, routed, by_hash = set(), {}, {}
    for rid in sorted(reviewed):
        by_hash.setdefault(items_index[rid].exact_hash, rid)
    for candidate in sorted(set(candidates)):
        match = by_hash.get(items_index[candidate].exact_hash)
        if match is None:
            match = next((n for n in nbr_ids(graph, candidate, theta_dup) if n in reviewed),
                         None)
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
        return CoveragePlan((), {}, k)

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
    return CoveragePlan(tuple(reps), {r: tuple(assigned[r]) for r in reps}, k)


def ref_propagate_labels(new_records, graph, theta_prop, store, round_no, dup_routed):
    offers, labels = {}, {}

    def offer(target, dist, label, source):
        offers.setdefault(target, []).append((dist, 0 if label else 1, source))
        labels[source] = label

    for record in sorted(new_records, key=lambda r: r.item_id):
        for nid, dist in csr_neighbors(graph, record.item_id, theta_prop):
            if nid not in store:
                offer(nid, dist, record.label, record.item_id)
    for target in sorted(dup_routed):
        if target not in store:
            known = store.get(dup_routed[target])
            offer(target, graph.distance(target, dup_routed[target]), known.label,
                  dup_routed[target])
    out = []
    for target in sorted(offers):
        dist, _, source = min(offers[target])
        record = LabelRecord(item_id=target, label=labels[source], provenance="propagated",
                             round=round_no, source_item_id=source, distance_to_source=dist)
        store.add(record)
        out.append(record)
    return out


def scenario(seed):
    """A corpus, its graph, a partly labeled store and a candidate set."""
    rng = np.random.default_rng(seed)
    cfg = GeneratorConfig(n_clusters=40, embedding_dim=16, positive_cluster_rate=0.25,
                          n_accounts=15, rng_seed=100 + seed)
    items = generate_corpus(cfg)[0]
    mode = ("exact", "blocked")[seed % 2]
    graph = build_graph(items, THETA_SIM, mode, seed=seed)
    ids = np.array(sorted(it.item_id for it in items))
    store = KnownStore({it.item_id: it.account_id for it in items})
    labeled = rng.choice(ids, size=len(ids) // 3, replace=False).tolist()
    for item_id in labeled:
        provenance = "seed" if rng.random() < 0.2 else "oracle"
        store.add(LabelRecord(item_id, bool(rng.random() < 0.6), provenance, 0))
    candidates = rng.choice(ids, size=len(ids) // 2, replace=False).tolist()
    return rng, items, graph, store, candidates


@pytest.mark.parametrize("seed", SEEDS)
def test_expand_content(seed):
    rng, _, graph, store, _ = scenario(seed)
    sources = sorted(store.positive_ids())
    for feedback in ([], sources[::3], sources):
        got = expand_content(graph, set(sources), THETA_SIM, set(feedback))
        assert got == ref_expand_content(graph, set(sources), THETA_SIM, set(feedback))
        assert list(got) == sorted(got)
    assert expand_content(graph, [], THETA_SIM) == {}


@pytest.mark.parametrize("seed", SEEDS)
def test_expand_actor(seed):
    _, items, _, store, _ = scenario(seed)
    accounts = ids_by_account(items)
    for min_positives, min_rate in ((1, 0.3), (2, 0.5), (3, 0.8), (1, 1.0)):
        assert expand_actor(store, accounts, min_positives, min_rate) == ref_expand_actor(
            items, store, min_positives, min_rate
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_cross_round(seed):
    _, items, graph, store, candidates = scenario(seed)
    index = {it.item_id: it for it in items}
    got = dedup_cross_round(candidates, store, graph, THETA_DUP, index)
    assert got == ref_dedup_cross_round(candidates, store, graph, THETA_DUP, index)
    assert got[1], "the scenario should route some candidates"
    assert list(got[1]) == sorted(got[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_intra_batch(seed):
    _, _, graph, _, candidates = scenario(seed)
    for radius in (0.0, THETA_DUP, THETA_PROP, THETA_SIM):
        got = dedup_intra_batch(candidates, graph, radius)
        assert got == ref_dedup_intra_batch(candidates, graph, radius)
    assert got[1], "the scenario should collapse some candidates"


@pytest.mark.parametrize("seed", SEEDS)
def test_max_coverage_sample(seed):
    rng, items, graph, _, candidates = scenario(seed)
    impressions = {it.item_id: float(it.impressions) for it in items}
    # arbitrary floats make the gain sums order-sensitive
    noisy = {i: float(rng.random() * 10) for i in candidates}
    for weights in (None, impressions, noisy):
        for k in (0, 1, 7, len(candidates)):
            got = max_coverage_sample(candidates, graph, THETA_PROP, k, weights)
            assert got == ref_max_coverage_sample(candidates, graph, THETA_PROP, k, weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_propagate_labels(seed):
    rng, items, graph, _, _ = scenario(seed)
    stores = [scenario(seed)[3] for _ in range(2)]
    unlabeled = [it.item_id for it in items if it.item_id not in stores[0]]
    fresh = rng.choice(unlabeled, size=20, replace=False).tolist()
    known = sorted(stores[0].reviewed_ids())
    routed = {int(t): int(rng.choice(known))
              for t in rng.choice(unlabeled, size=15, replace=False)}
    new_records = [LabelRecord(i, bool(rng.random() < 0.5), "oracle", 1) for i in fresh]
    for store in stores:
        for record in new_records:
            store.add(record)
    got = propagate_labels(new_records, graph, THETA_PROP, stores[0], 1, routed)
    want = ref_propagate_labels(new_records, graph, THETA_PROP, stores[1], 1, routed)
    assert got == want and got
    assert stores[0].records() == stores[1].records()
