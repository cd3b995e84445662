"""Funnel invariants on generated corpora, in both graph modes.

hypothesis draws small corpora and campaign settings; each property is
checked on what a campaign produced, captured at its stage boundaries.
"""

import dataclasses
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reviewfunnel import pipeline
from reviewfunnel.corpus import PROVENANCE_ORACLE, PROVENANCE_SEED, GeneratorConfig
from reviewfunnel.corpus import generate_corpus_detailed
from reviewfunnel.pipeline import OracleParams, PipelineConfig, run_pipeline_detailed
from reviewfunnel.simgraph import positions

campaigns = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "n_clusters": st.integers(3, 20),
    "mode": st.sampled_from(["exact", "blocked"]),
    "rounds": st.integers(2, 4),
    "budget": st.integers(1, 6),
})
invariant = settings(max_examples=20, derandomize=True, deadline=None)


def campaign(seed, n_clusters, mode, rounds, budget):
    """A campaign's corpus, config and final state, with each round's
    intra-batch dedup survivors, coverage plan and committed store."""
    corpus, _, _ = generate_corpus_detailed(GeneratorConfig(
        n_clusters=n_clusters, cluster_size_mean=6, embedding_dim=8, noise_sigma=0.1,
        positive_cluster_rate=0.4, n_accounts=5, rng_seed=seed))
    config = PipelineConfig(
        rounds=rounds, budget_per_round=budget, bootstrap_seeds=3, graph_mode=mode,
        oracle=OracleParams(tpr=0.9, tnr=0.9, seed=seed), graph_seed=seed, rng_seed=seed)
    run = SimpleNamespace(corpus=corpus, config=config, kept=[], plans=[], stores=[])
    dedup, sample, one_round = (
        pipeline.dedup_intra_batch, pipeline.max_coverage_sample, pipeline.run_round)

    def capture_dedup(*args):
        out = dedup(*args)
        run.kept.append(out[0])
        return out

    def capture_sample(*args):
        run.plans.append(sample(*args))
        return run.plans[-1]

    def capture_round(state, *args):
        out = one_round(state, *args)
        run.stores.append(state.store.records())
        return out

    with mock.patch.object(pipeline, "dedup_intra_batch", capture_dedup), \
            mock.patch.object(pipeline, "max_coverage_sample", capture_sample), \
            mock.patch.object(pipeline, "run_round", capture_round):
        _, run.state = run_pipeline_detailed(corpus, config)
    return run


@invariant
@given(campaigns)
def test_dedup_keeps_no_pair_within_theta_dup(params):
    run = campaign(**params)
    graph, theta = run.state.graph, run.config.theta_dup
    for kept in run.kept:
        # stages speak positions into the graph's ids
        assert not np.isin(graph.gather(kept, theta)[1], kept).any()
        if params["mode"] == "exact":  # the exact graph misses no pair
            a, b = np.triu_indices(len(kept), 1)
            assert np.all(graph.pair_distances(kept[a], kept[b]) > theta)


@invariant
@given(campaigns)
def test_propagated_label_is_within_theta_prop_of_a_matching_source(params):
    run = campaign(**params)
    records = {r.item_id: r for r in run.state.store.records()}
    for record in records.values():
        if record.provenance != "propagated":
            continue
        source = records[record.source_item_id]
        assert source.provenance in (PROVENANCE_SEED, PROVENANCE_ORACLE)
        assert source.label == record.label
        graph = run.state.graph
        (distance,) = graph.pair_distances(positions(graph.ids, [record.item_id]),
                                           positions(graph.ids, [source.item_id]))
        assert distance == record.distance_to_source <= run.config.theta_prop


@invariant
@given(campaigns)
def test_coverage_sets_are_disjoint_and_cover_their_representatives(params):
    run = campaign(**params)
    for kept, plan in zip(run.kept, run.plans, strict=True):
        # one owner per member, so the covered sets are disjoint
        assert np.isin(plan.owner, plan.representatives).all()
        owners = dict(zip(plan.members.tolist(), plan.owner.tolist()))
        assert all(owners.get(rep) == rep for rep in plan.representatives.tolist())
        assert np.all(np.diff(plan.members) > 0) and np.isin(plan.members, kept).all()


@invariant
@given(campaigns, st.integers(1, 3))
def test_replay_is_append_only(params, replay_rounds):
    run = campaign(**params)
    for before, after in zip(run.stores, run.stores[1:]):
        assert after[: len(before)] == before
    replay_rounds = min(replay_rounds, run.config.rounds)
    _, replay = run_pipeline_detailed(
        run.corpus, dataclasses.replace(run.config, rounds=replay_rounds))
    assert replay.store.records() == run.stores[replay_rounds - 1]


@invariant
@given(campaigns)
def test_no_unlabelled_item_within_theta_prop_of_a_review(params):
    # cross-round dedup routes no near-duplicate of a reviewed item: with
    # theta_dup <= theta_prop, this leaves every one of them labelled
    run = campaign(**params)
    graph, theta = run.state.graph, run.config.theta_prop
    for records in run.stores:
        labelled = positions(graph.ids, [r.item_id for r in records])
        reviewed = positions(
            graph.ids, [r.item_id for r in records if r.provenance == PROVENANCE_ORACLE])
        assert np.isin(graph.gather(reviewed, theta)[1], labelled).all()
