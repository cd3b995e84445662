import itertools
import math

import numpy as np
import pytest

from reviewfunnel.corpus import PROVENANCES
from reviewfunnel.funnel import (
    CoveragePlan,
    Reach,
    dedup_cross_round,
    dedup_intra_batch,
    expand_content,
    expand_actor,
    filter_eligible,
    max_coverage_sample,
    position_array,
)
from reviewfunnel.labeling import KnownStore, LabelBatch, propagate_labels
from reviewfunnel.simgraph import build_graph, cosine_distance

from conftest import make_items, neighbor_ids, planted_blob


ORACLE = PROVENANCES.index("oracle")


def store_with(items, reviews=None):
    """A store over the items' ids, accounts and hashes, holding the ``reviews`` batch."""
    store = KnownStore(
        [it.item_id for it in items],
        [it.account_id for it in items],
        np.array([it.exact_hash for it in items], dtype=np.uint64),
    )
    if reviews is not None:
        store.write(reviews)
    return store


def blob_corpus(rng, blobs, dim=12, sigma=0.004, spread=6.0):
    """Well-separated tight blobs; returns (items, list of id groups)."""
    vectors = []
    groups = []
    for count in blobs:
        center = rng.standard_normal(dim) * spread
        start = len(vectors)
        vectors.extend(planted_blob(center, count, sigma, rng))
        groups.append(list(range(start, start + count)))
    return make_items(vectors), groups


class TestExpandContent:
    def test_no_sources(self, rng):
        items, _ = blob_corpus(rng, [4])
        graph = build_graph(items, 0.25)
        assert set(expand_content(graph, Reach(graph.node_ids), set(), 0.25)) == set()

    def test_planted_cluster_reached(self, rng):
        items, (group,) = blob_corpus(rng, [5])
        graph = build_graph(items, 0.25)
        # derived check: all members verifiably within the query radius
        for member in group[1:]:
            assert cosine_distance(items[0].embedding, items[member].embedding) <= 0.25
        assert set(expand_content(graph, Reach(graph.node_ids), {0}, 0.25)) == set(group[1:])

    def test_all_neighbors_are_sources(self, rng):
        items, (group,) = blob_corpus(rng, [5])
        graph = build_graph(items, 0.25)
        assert set(expand_content(graph, Reach(graph.node_ids), set(group), 0.25)) == set()

    def test_unknown_source(self, rng):
        items, _ = blob_corpus(rng, [3])
        graph = build_graph(items, 0.25)
        for outside in (404, -1):
            with pytest.raises(IndexError):
                expand_content(graph, Reach(graph.node_ids), {outside}, 0.25)


def test_stages_refuse_a_graph_over_other_ids(rng):
    # gathered positions index the store's and the reach's arrays, so they
    # must share the graph's ids; equal values in another array will do
    items, _ = blob_corpus(rng, [4])
    graph = build_graph(items, 0.25)
    other = make_items([it.embedding for it in items], ids=[10, 11, 12, 13])
    store = store_with(other, LabelBatch.of([0], [True], ORACLE, 1))  # item 10
    same = store_with(items, LabelBatch.of([0], [True], ORACLE, 1))
    for call in (
        lambda: expand_content(graph, Reach(store.ids), [10], 0.25),
        lambda: propagate_labels(LabelBatch.of([2], [True], ORACLE, 1), graph, 0.1, store, 1),
    ):
        with pytest.raises(ValueError, match="other ids"):
            call()
    assert same.ids[expand_content(graph, Reach(same.ids.copy()), [0], 0.25)].tolist() == [1, 2, 3]


class TestExpandActor:
    def test_empty_store(self, rng):
        items, _ = blob_corpus(rng, [3])
        assert expand_actor(store_with(items), 1, 0.5).tolist() == []

    def test_flagged_account_returns_unlabeled(self, rng):
        items, _ = blob_corpus(rng, [6])
        items = make_items(
            [it.embedding for it in items], accounts=[7, 7, 7, 7, 7, 3]
        )
        store = store_with(items, LabelBatch.of([0, 1, 2], [True, True, False], ORACLE, 1))
        # account 7: 3 labeled, 2 positive -> flagged at (2, 0.5)
        assert expand_actor(store, 2, 0.5).tolist() == [3, 4]

    def test_low_rate_not_flagged(self, rng):
        items, _ = blob_corpus(rng, [11])
        items = make_items([it.embedding for it in items], accounts=[5] * 11)
        store = store_with(items, LabelBatch.of(range(10), [True] + [False] * 9, ORACLE, 1))
        assert expand_actor(store, 1, 0.5).tolist() == []

    def test_items_without_account_never_flagged(self):
        store = KnownStore(range(4))
        store.write(LabelBatch.of([0, 1], [True, True], ORACLE, 1))
        assert expand_actor(store, 1, 0.5).tolist() == []

    def test_invalid_params(self, rng):
        items, _ = blob_corpus(rng, [2])
        with pytest.raises(ValueError):
            expand_actor(store_with(items), 0, 0.5)
        with pytest.raises(ValueError):
            expand_actor(store_with(items), 1, 0.0)


class TestDedupCrossRound:
    def test_empty_store_is_noop(self, rng):
        items, (group,) = blob_corpus(rng, [4])
        kept, routed = dedup_cross_round(group, store_with(items))
        assert kept.tolist() == group and routed.tolist() == []

    def test_hash_match_removed_and_routed(self, rng):
        base = rng.standard_normal(8)
        items = make_items([base, base, base * 3.0 + 10.0])
        assert items[0].exact_hash == items[1].exact_hash
        store = store_with(items, LabelBatch.of([0], [True], ORACLE, 1))
        kept, routed = dedup_cross_round([1, 2], store)
        assert routed.tolist() == [[1, 0]]
        assert kept.tolist() == [2]

    def test_distant_candidate_kept(self, rng):
        items, groups = blob_corpus(rng, [2, 2])
        store = store_with(items, LabelBatch.of([groups[0][0]], [True], ORACLE, 1))
        kept, routed = dedup_cross_round(groups[1], store)
        assert kept.tolist() == groups[1] and routed.tolist() == []


class TestDedupIntraBatch:
    def test_all_distant_kept(self, rng):
        items, groups = blob_corpus(rng, [1, 1, 1])
        graph = build_graph(items, 0.25)
        kept, dup_of = dedup_intra_batch([0, 1, 2], graph, 0.05)
        assert kept.tolist() == [0, 1, 2] and dup_of.tolist() == []

    def test_planted_blob_collapses_to_lowest_id(self, rng):
        items, (group,) = blob_corpus(rng, [5], sigma=0.002)
        graph = build_graph(items, 0.25)
        for i, j in itertools.combinations(group, 2):
            assert cosine_distance(items[i].embedding, items[j].embedding) <= 0.05
        kept, dup_of = dedup_intra_batch(group, graph, 0.05)
        assert kept.tolist() == [0]
        assert dup_of.tolist() == [[1, 0], [2, 0], [3, 0], [4, 0]]

    def test_idempotent_on_kept_set(self, rng):
        items, _ = blob_corpus(rng, [4, 3, 2], sigma=0.002)
        graph = build_graph(items, 0.25)
        kept, _ = dedup_intra_batch(range(len(items)), graph, 0.05)
        again, dup_of = dedup_intra_batch(kept, graph, 0.05)
        assert np.array_equal(again, kept) and dup_of.tolist() == []

    def test_kept_pairs_separated(self, rng):
        vectors = rng.standard_normal((40, 6))
        vectors[20:] = vectors[:20] + 0.02 * rng.standard_normal((20, 6))
        items = make_items(vectors)
        graph = build_graph(items, 0.5)
        kept, _ = dedup_intra_batch(range(40), graph, 0.1)
        for i, j in itertools.combinations(sorted(kept), 2):
            assert cosine_distance(items[i].embedding, items[j].embedding) > 0.1


class TestFilterEligible:
    def test_all_inactive(self, rng):
        items, (group,) = blob_corpus(rng, [3])
        items = make_items([it.embedding for it in items], impressions=[0, 0, 0])
        store = store_with(items)
        assert filter_eligible(group, store, np.array([0, 0, 0])).tolist() == []

    def test_labeled_removed(self, rng):
        items, (group,) = blob_corpus(rng, [3])
        store = store_with(items, LabelBatch.of([1], [True], ORACLE, 1))
        assert filter_eligible(group, store, np.array([1, 1, 1])).tolist() == [0, 2]

    def test_unknown_id(self, rng):
        items, _ = blob_corpus(rng, [2])
        for outside in (5, -1):
            with pytest.raises(IndexError):
                filter_eligible([outside], store_with(items), np.array([1, 1]))

    def test_non_integer_position(self, rng):
        # a cast to int64 would read 0.5 and 1.7 as positions 0 and 1
        items, _ = blob_corpus(rng, [2])
        for bad in ([0.5, 1.7], np.array([1.5]), [True], (x / 2 for x in (0, 2))):
            with pytest.raises(TypeError, match="positions must be integers"):
                filter_eligible(bad, store_with(items), np.array([1, 1]))
        with pytest.raises(TypeError, match="positions must be integers"):
            position_array([0.5, 1.7])
        for empty in ([], set(), np.empty(0)):
            assert position_array(empty).tolist() == []


def brute_force_best_coverage(universe, cover, k):
    """Enumerate all C(n, k) representative subsets; return max coverage."""
    best = 0
    for combo in itertools.combinations(sorted(universe), k):
        covered = set()
        for rep in combo:
            covered |= cover[rep]
        best = max(best, len(covered))
    return best


def cover_sets(items, candidate_ids, graph, radius):
    in_universe = set(candidate_ids)
    return {
        c: {c} | (set(neighbor_ids(graph, c, radius)) & in_universe)
        for c in candidate_ids
    }


class TestMaxCoverage:
    def test_zero_budget(self, rng):
        items, (group,) = blob_corpus(rng, [3])
        graph = build_graph(items, 0.25)
        plan = max_coverage_sample(group, graph, 0.1, 0)
        assert plan.representatives.tolist() == [] and plan.total_covered == 0

    def test_disjoint_clusters_picks_largest(self, rng):
        items, groups = blob_corpus(rng, [5, 3, 2], sigma=0.002)
        graph = build_graph(items, 0.25)
        universe = [i for g in groups for i in g]
        plan = max_coverage_sample(universe, graph, 0.1, 2)
        assert plan.representatives.tolist() == [groups[0][0], groups[1][0]]
        assert plan.total_covered == 8
        # brute-force oracle over all 2-subsets agrees that 8 is optimal
        cover = cover_sets(items, universe, graph, 0.1)
        assert brute_force_best_coverage(universe, cover, 2) == 8

    def test_no_edges_every_candidate_covers_itself(self, rng):
        items, groups = blob_corpus(rng, [1, 1, 1, 1])
        graph = build_graph(items, 0.25)
        universe = [g[0] for g in groups]
        plan = max_coverage_sample(universe, graph, 0.1, 10)
        assert plan.representatives.tolist() == sorted(universe)
        assert plan.members.tolist() == plan.owner.tolist() == sorted(universe)

    def test_greedy_vs_brute_force_bound(self, rng):
        bound = 1 - 1 / math.e
        for trial in range(25):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, 4))
            vectors = rng.standard_normal((n, 3))
            items = make_items(vectors)
            theta = float(rng.uniform(0.1, 0.8))
            graph = build_graph(items, theta)
            universe = list(range(n))
            plan = max_coverage_sample(universe, graph, theta, k)
            cover = cover_sets(items, universe, graph, theta)
            optimum = brute_force_best_coverage(universe, cover, min(k, n))
            assert plan.total_covered >= bound * optimum

    def test_covered_sets_disjoint_and_credited_to_first(self, rng):
        items, groups = blob_corpus(rng, [4, 4], sigma=0.002)
        graph = build_graph(items, 0.25)
        universe = [i for g in groups for i in g]
        plan = max_coverage_sample(universe, graph, 0.1, 4)
        # one owner per member, so no item is credited twice
        assert plan.members.tolist() == sorted(universe)
        assert plan.representatives.tolist() == [groups[0][0], groups[1][0]]
        owners = dict(zip(plan.members.tolist(), plan.owner.tolist()))
        assert owners == {i: g[0] for g in groups for i in g}

    def test_impression_weights_change_the_pick(self, rng):
        items, groups = blob_corpus(rng, [3, 1], sigma=0.002)
        graph = build_graph(items, 0.25)
        universe = [i for g in groups for i in g]
        unweighted = max_coverage_sample(universe, graph, 0.1, 1)
        assert unweighted.representatives.tolist() == [groups[0][0]]
        weights = np.ones(len(universe))
        weights[sorted(universe).index(groups[1][0])] = 100.0
        weighted = max_coverage_sample(universe, graph, 0.1, 1, weights)
        assert weighted.representatives.tolist() == [groups[1][0]]

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf, -np.inf])
    def test_unrankable_weights_rejected(self, rng, bad):
        # on a 5-item exact graph a NaN weight gave an empty plan, a negative
        # one suppressed coverage and inf made the gains NaN; the lazy greedy
        # is right only while gains only fall
        items, (group,) = blob_corpus(rng, [5], sigma=0.002)
        graph = build_graph(items, 0.25, "exact")
        weights = np.ones(5)
        weights[2] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            max_coverage_sample(group, graph, 0.1, 2, weights)
        weights[2] = 0.0  # a zero weight ranks
        assert max_coverage_sample(group, graph, 0.1, 2, weights).representatives.tolist() == [0]

    def test_negative_budget(self, rng):
        items, _ = blob_corpus(rng, [2])
        graph = build_graph(items, 0.25)
        with pytest.raises(ValueError):
            max_coverage_sample([0], graph, 0.1, -1)


class TestDataTypes:
    def test_coverage_plan_rejects_a_representative_it_does_not_own(self):
        members = np.array([1, 2, 3])
        # 2 covers itself but is credited to 1; 4 covers nothing at all
        for reps, owner in (([1, 2], [1, 1, 1]), ([1, 4], [1, 1, 1])):
            with pytest.raises(ValueError, match=f"representative {reps[1]} does not cover"):
                CoveragePlan(np.array(reps), members, np.array(owner), 2)
        CoveragePlan(np.array([1, 2]), members, np.array([1, 2, 2]), 2)

    def test_coverage_plan_rejects_over_budget(self):
        with pytest.raises(ValueError, match="budget"):
            CoveragePlan(np.array([1, 2]), np.array([1, 2]), np.array([1, 2]), 1)
