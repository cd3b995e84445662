import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
import requests

from reviewfunnel.corpus import PROVENANCES, LabelRecord
from reviewfunnel.funnel import expand_actor
from reviewfunnel.labeling import (
    AlreadyLabeledError,
    HttpOracle,
    KnownStore,
    LabelBatch,
    SimulatedOracle,
    feedback_seeds,
    oracle_label,
    propagate_labels,
)
from reviewfunnel.simgraph import build_graph, cosine_distance, positions

from conftest import make_items, planted_blob


SEED, ORACLE, PROPAGATED = (PROVENANCES.index(p) for p in ("seed", "oracle", "propagated"))


def seed_rec(item_id, label=True):
    return LabelRecord(item_id=item_id, label=label, provenance="seed", round=0)


def oracle_rec(item_id, label=True, round_no=1):
    return LabelRecord(item_id=item_id, label=label, provenance="oracle", round=round_no)


class TestSimulatedOracle:
    def test_perfect_oracle(self):
        oracle = SimulatedOracle(1.0, 1.0, 0, [1, 2], [1, 0])
        assert oracle.label_batch([(1, None), (2, None)]) == [True, False]

    def test_error_rates_binomial(self):
        # 1,000 planted positives at tpr=0.9: expect 900 +/- 30 (binomial 3 sigma)
        oracle = SimulatedOracle(0.9, 0.9, 7, np.arange(1000), np.ones(1000, dtype=np.int8))
        verdicts = oracle.label_batch([(i, None) for i in range(1000)])
        positives = sum(verdicts)
        assert abs(positives - 900) <= 30

    def test_keyed_determinism_across_batching(self):
        ids = np.arange(50)
        a = SimulatedOracle(0.7, 0.8, 3, ids, ids % 2)
        b = SimulatedOracle(0.7, 0.8, 3, ids, ids % 2)
        whole = a.label_batch([(i, None) for i in range(50)])
        split = []
        for start in range(0, 50, 7):
            split.extend(b.label_batch([(i, None) for i in range(start, min(start + 7, 50))]))
        assert whole == split
        # and stable across repeated calls
        assert a.label_batch([(9, None)]) == [whole[9]]

    def test_unknown_item(self):
        oracle = SimulatedOracle(1.0, 1.0, 0, [], [])
        with pytest.raises(KeyError, match="ground truth"):
            oracle.label_batch([(5, None)])

    @pytest.mark.parametrize("batch", [[4, 5, 9], [4, 9, 5]], ids=["unknown-row", "absent-id"])
    def test_unknown_row_is_named_as_an_absent_id_is(self, batch):
        # a -1 row has no ground truth, as an id outside the corpus has none;
        # the first such item in batch order is named, before any verdict
        oracle = SimulatedOracle(1.0, 1.0, 0, [4, 5, 6], [1, -1, 0])
        with pytest.raises(KeyError, match=rf"no ground truth for item {batch[1]}\b"):
            oracle.label_batch([(i, None) for i in batch])
        assert oracle.items_labeled == 0
        assert oracle.label_batch([(6, None), (4, None)]) == [False, True]

    def test_invalid_rates(self):
        with pytest.raises(ValueError, match="tpr"):
            SimulatedOracle(1.5, 1.0, 0, [], [])

    @pytest.mark.parametrize("ids, truth, match", [
        ([2, 1], [0, 1], "ascending"),
        ([1, 1], [0, 1], "ascending"),
        ([1, 2], [0, 1, 1], "3 rows for 2 ids"),
    ])
    def test_columns_checked(self, ids, truth, match):
        with pytest.raises(ValueError, match=match):
            SimulatedOracle(1.0, 1.0, 0, ids, truth)

    def test_cost_accounting(self):
        oracle = SimulatedOracle(1.0, 1.0, 0, range(10), [1] * 10, unit_cost=2.5)
        oracle.label_batch([(i, None) for i in range(4)])
        oracle.label_batch([(i, None) for i in range(4, 10)])
        assert oracle.items_labeled == 10
        assert oracle.cost_so_far == 25.0


class TestKnownStore:
    def test_first_writer_wins(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        with pytest.raises(AlreadyLabeledError):
            store.write(LabelBatch.of([1], [False], ORACLE, 1))

    def test_index_sets(self):
        store = KnownStore([1, 2, 3], accounts=[40, 40, 41])
        store.write(LabelBatch.of([0], [True], ORACLE, 1))
        store.write(LabelBatch.of([1], [False], SEED, 0))
        assert store.ids[store.reviewed].tolist() == [1]
        assert store.ids[store.labels == 1].tolist() == [1]

    def test_staging_commit(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([1], [True], SEED, 0))
        store.begin_round()
        store.write(LabelBatch.of([2], [True], ORACLE, 1))
        assert store.records()[-1] == oracle_rec(2)  # staged writes are visible
        store.commit_round()
        assert [r.item_id for r in store.records()] == [1, 2]

    def test_abort_truncates_the_columns(self):
        # a write after an abort takes the rows the aborted round held
        store = KnownStore([1, 2, 3])
        store.write(LabelBatch.of([0], [True], SEED, 0))
        before = [column.tobytes() for column in store.written().columns()]
        store.begin_round()
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.abort_round()
        assert len(store) == 1 and store.labels[1] == -1
        assert [column.tobytes() for column in store.written().columns()] == before
        store.begin_round()
        store.write(LabelBatch.of([2], [False], ORACLE, 1))
        store.commit_round()
        assert store.records() == [seed_rec(1), oracle_rec(3, False)]
        assert store.labels.tolist() == [1, -1, 0] and store.rounds.tolist() == [0, -1, 1]

    def test_staging_abort_restores_everything(self):
        store = KnownStore([1, 2], accounts=[6, 7])
        store.write(LabelBatch.of([0], [True], SEED, 0))
        store.begin_round()
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.abort_round()
        assert store.labels[1] == -1
        assert store.ids[store.reviewed].tolist() == []
        assert [r.item_id for r in store.records()] == [1]

    def test_abort_restores_arrays_counters_and_hash_map(self):
        store = KnownStore([1, 2, 3], accounts=[40, 40, 41], hashes=[7, 7, 8])
        store.write(LabelBatch.of([0], [True], SEED, 0))
        arrays = [a.copy() for a in (store.labels, store.reviewed, store.rounds)]
        # the account counts are derived from the labels: account 40 is flagged
        assert store.ids[expand_actor(store, 1, 0.5)].tolist() == [2]
        store.begin_round()
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.write(LabelBatch.of([2], [False], ORACLE, 1))
        assert store.hash_match(positions(store.ids, [1, 2, 3])).tolist() == [1, 1, 2]
        assert store.ids[expand_actor(store, 1, 0.5)].tolist() == []
        store.abort_round()
        assert store.hash_match(positions(store.ids, [1, 2, 3])).tolist() == [-1, -1, -1]
        for before, after in zip(arrays, (store.labels, store.reviewed, store.rounds)):
            assert np.array_equal(before, after)
        assert store.ids[expand_actor(store, 1, 0.5)].tolist() == [2]

    def test_hash_match_is_lowest_reviewed(self):
        store = KnownStore([1, 2, 3, 4], hashes=[5, 5, 5, 6])
        for item_id in (3, 2, 4):
            store.write(LabelBatch.of(positions(store.ids, [item_id]), [True], ORACLE, 1))
        assert store.hash_match(positions(store.ids, [1, 2, 3, 4])).tolist() == [1, 1, 1, 3]

    def test_append_only_write_order(self):
        store = KnownStore(range(10))
        for item_id in (5, 3, 9):
            store.write(LabelBatch.of([item_id], [True], ORACLE, 1))
        assert [r.item_id for r in store.records()] == [5, 3, 9]

    @pytest.mark.parametrize("batch, error, match", [
        # numpy would broadcast the one label over both positions
        (LabelBatch.of([0, 1], [True], ORACLE, 1), ValueError, "differ in length"),
        (LabelBatch.of([2], [True], 7, 1), ValueError, "provenance"),
        (LabelBatch.of([2], [True], PROPAGATED, 1, np.array([9]), np.array([0.1])),
         ValueError, "sources"),
        # the int64 column would store it as position 1
        (LabelBatch.of([2], [True], PROPAGATED, 1, [1.7], np.array([0.1])), TypeError,
         "sources"),
    ], ids=["short-label", "provenance-7", "source-9", "source-float"])
    def test_malformed_batch_refused_whole(self, batch, error, match):
        # each would otherwise fail only in records(), or never
        store = KnownStore(range(4))
        with pytest.raises(error, match=match):
            store.write(batch)
        assert len(store) == 0 and store.labels.tolist() == [-1] * 4


class TestOracleLabel:
    def test_empty_plan(self):
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, [], [])
        assert oracle_label([], oracle, store, 1).records(store.ids) == []
        assert oracle.cost_so_far == 0.0

    def test_perfect_oracle_on_planted_positive(self):
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, [3], [1])
        (record,) = oracle_label([3], oracle, store, 2).records(store.ids)
        assert record.label is True
        assert record.provenance == "oracle"
        assert record.round == 2
        assert store.records() == [record]

    def test_already_labeled_representative_is_a_bug(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([3, 7], [True, True], ORACLE, 1))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(10), [1] * 10)
        # the first labelled representative in plan order, before any verdict
        with pytest.raises(AlreadyLabeledError, match="representative 7 "):
            oracle_label([5, 7, 3], oracle, store, 1)
        assert oracle.cost_so_far == 0.0 and store.labels[5] == -1

    def test_repeated_representative_is_refused_before_review(self):
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(10), [1] * 10)
        with pytest.raises(AlreadyLabeledError, match="representative 3 "):
            oracle_label([3, 5, 3], oracle, store, 1)
        assert oracle.items_labeled == 0 and len(store) == 0

    def test_position_outside_the_index_is_refused_before_review(self):
        # numpy would read -1 as the last position
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(10), [1] * 10)
        for outside in (-1, 10):
            with pytest.raises(IndexError):
                oracle_label([3, outside], oracle, store, 1)
        assert oracle.cost_so_far == 0.0 and len(store) == 0
        with pytest.raises(IndexError, match="position -2 is negative"):
            store.write(LabelBatch.of([4, -2], [True, True], PROVENANCES.index("oracle"), 1))
        assert len(store) == 0 and store.labels.tolist() == [-1] * 10

    def test_non_integer_position_is_refused_before_review(self):
        # a cast to int64 would review positions 0 and 1 for 0.5 and 1.7
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(10), [1] * 10)
        for bad in ([0.5, 1.7], np.array([3.0]), [True]):
            with pytest.raises(TypeError, match="positions must be integers"):
                oracle_label(bad, oracle, store, 1)
            with pytest.raises(TypeError, match="positions must be integers"):
                store.require_unlabeled(bad)
        assert oracle.cost_so_far == 0.0 and len(store) == 0
        assert oracle_label([], oracle, store, 1).pos.tolist() == []

    def test_batch_refuses_rounds_and_labels_a_cast_would_change(self):
        # a cast to int64 would store round 1.5 as 1; one to bool label 0.5 as True
        for bad in (1.5, np.float64(2.0), True):
            with pytest.raises(TypeError, match="rounds must be integers"):
                LabelBatch.of([0], [True], ORACLE, bad)
        for bad, error in (([0.5], TypeError), (np.array([1.0]), TypeError), ([2], ValueError),
                           ([-1], ValueError)):
            with pytest.raises(error, match="labels must be"):
                LabelBatch.of([0], bad, ORACLE, 1)
        batch = LabelBatch.of([0, 1], np.array([1, 0], dtype=np.int8), ORACLE, np.int64(2))
        assert batch.label.tolist() == [True, False] and batch.round.tolist() == [2, 2]

    def test_negative_round_rejects_the_whole_batch(self):
        store = KnownStore(range(3))
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            store.write(LabelBatch.of([0, 1], [True, False], ORACLE, -7))
        batch = LabelBatch.of([0, 1], [True, False], ORACLE, 1)
        batch.round[1] = -1  # one bad row of a batch built by hand
        with pytest.raises(ValueError, match="rounds must be non-negative"):
            store.write(batch)
        assert len(store) == 0 and store.labels.tolist() == store.rounds.tolist() == [-1] * 3
        store.write(LabelBatch.of([2], [True], ORACLE, 0))
        assert store.records() == [oracle_rec(2, round_no=0)]

    def test_oracle_receives_embedding_rows(self):
        class Recording(SimulatedOracle):
            def _judge(self, batch):
                self.batch = batch
                return super()._judge(batch)

        store = KnownStore([10, 20, 30])
        embeddings = np.arange(6.0).reshape(3, 2)
        oracle = Recording(1.0, 1.0, 0, [10, 20, 30], [1, 0, 1])
        oracle_label(positions(store.ids, [30, 10]), oracle, store, 1, embeddings)
        assert [i for i, _ in oracle.batch] == [30, 10]
        assert [row.tolist() for _, row in oracle.batch] == [[4.0, 5.0], [0.0, 1.0]]
        oracle_label(positions(store.ids, [20]), oracle, store, 1)
        assert oracle.batch == [(20, None)]

    def test_cost_tracks_representatives(self):
        store = KnownStore(range(10))
        oracle = SimulatedOracle(1.0, 1.0, 0, range(6), [1] * 6)
        oracle_label([0, 1, 2], oracle, store, 1)
        assert oracle.cost_so_far == 3.0

    def test_list_and_array_review_alike(self):
        ids = [8, 2, 5, 0]
        outcomes = []
        for reps in (ids, np.array(ids, dtype=np.int64)):
            store = KnownStore(range(10))
            oracle = SimulatedOracle(0.6, 0.6, 4, range(10), [1, 0] * 5)
            records = oracle_label(reps, oracle, store, 3).records(store.ids)
            # plain ints, so the records serialise as the label file writes them
            assert [type(r.item_id) for r in records] == [int] * len(ids)
            again = [9, 5, 2] if isinstance(reps, list) else np.array([9, 5, 2])
            with pytest.raises(AlreadyLabeledError, match="representative 5 ") as err:
                oracle_label(again, oracle, store, 4)
            outcomes.append((records, str(err.value), oracle.cost_so_far))
        assert outcomes[0] == outcomes[1]
        assert [r.item_id for r in outcomes[0][0]] == ids


class TestPropagation:
    def make_blob_graph(self, rng, counts, sigma=0.002):
        vectors = []
        groups = []
        for count in counts:
            center = rng.standard_normal(16) * 4
            start = len(vectors)
            vectors.extend(planted_blob(center, count, sigma, rng))
            groups.append(list(range(start, start + count)))
        items = make_items(vectors)
        return items, groups, build_graph(items, 0.25)

    def test_no_unlabeled_neighbors(self, rng):
        items, groups, graph = self.make_blob_graph(rng, [1, 1])
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([0], [True], ORACLE, 1)
        store.write(reviews)
        assert propagate_labels(reviews, graph, 0.1, store, 1).records(store.ids) == []

    def test_planted_blob_fully_propagated(self, rng):
        items, (group,), graph = self.make_blob_graph(rng, [5])
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([0], [True], ORACLE, 1)
        store.write(reviews)
        propagated = propagate_labels(reviews, graph, 0.1, store, 1).records(store.ids)
        assert sorted(r.item_id for r in propagated) == group[1:]
        for rec in propagated:
            assert rec.label is True
            assert rec.source_item_id == 0
            exact = cosine_distance(
                items[0].embedding, items[rec.item_id].embedding
            )
            assert rec.distance_to_source == exact
            assert rec.distance_to_source <= 0.1

    def test_nearest_source_wins(self):
        # target sits much closer to the negative source
        target = [1.0, 0.0]
        near_neg = [math.cos(0.05), math.sin(0.05)]
        far_pos = [math.cos(0.4), -math.sin(0.4)]
        items = make_items([target, near_neg, far_pos])
        graph = build_graph(items, 0.5)
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([1, 2], [False, True], ORACLE, 1)
        store.write(reviews)
        (rec,) = propagate_labels(reviews, graph, 0.5, store, 1).records(store.ids)
        assert rec.item_id == 0
        assert rec.label is False
        assert rec.source_item_id == 1

    def test_exact_tie_prefers_positive(self):
        # sources mirror-symmetric about the target: bitwise-equal distances
        target = [1.0, 0.0]
        angle = 0.2
        neg = [math.cos(angle), math.sin(angle)]
        pos = [math.cos(angle), -math.sin(angle)]
        items = make_items([target, neg, pos])
        graph = build_graph(items, 0.5)
        d01, d02 = graph.pair_distances(positions(graph.ids, [0, 0]), positions(graph.ids, [1, 2]))
        assert d01 == d02
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([1, 2], [False, True], ORACLE, 1)
        store.write(reviews)
        (rec,) = propagate_labels(reviews, graph, 0.5, store, 1).records(store.ids)
        assert rec.label is True
        assert rec.source_item_id == 2

    def test_remaining_tie_lowest_source_id(self):
        target = [1.0, 0.0]
        angle = 0.2
        a = [math.cos(angle), math.sin(angle)]
        b = [math.cos(angle), -math.sin(angle)]
        items = make_items([target, a, b])
        graph = build_graph(items, 0.5)
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([1, 2], [True, True], ORACLE, 1)
        store.write(reviews)
        (rec,) = propagate_labels(reviews, graph, 0.5, store, 1).records(store.ids)
        assert rec.source_item_id == 1

    def test_dup_routed_targets_receive_known_label(self, rng):
        items, (group,), graph = self.make_blob_graph(rng, [3])
        store = KnownStore(graph.node_ids)
        store.write(LabelBatch.of([0], [True], ORACLE, 1))
        # a previous dedup stage matched item 2 against known item 0
        propagated = propagate_labels(
            LabelBatch.of([], [], ORACLE, 2), graph, 0.1, store, 2,
            dup_routed=positions(graph.ids, [[2, 0]])
        ).records(store.ids)
        assert len(propagated) == 1
        rec = propagated[0]
        assert rec.item_id == 2 and rec.label is True and rec.source_item_id == 0

    def test_one_hop_only(self, rng):
        # chain a - b - c where c is outside the radius of a but inside b's
        a = [1.0, 0.0]
        b = [math.cos(0.35), math.sin(0.35)]
        c = [math.cos(0.7), math.sin(0.7)]
        items = make_items([a, b, c])
        graph = build_graph(items, 0.5)
        radius = cosine_distance(np.array(a), np.array(b)) + 0.01
        store = KnownStore(graph.node_ids)
        reviews = LabelBatch.of([0], [True], ORACLE, 1)
        store.write(reviews)
        propagated = propagate_labels(reviews, graph, radius, store, 1).records(store.ids)
        assert [r.item_id for r in propagated] == [1]
        # the fresh propagated record is not a source within the same round
        assert store.labels[2] == -1

    def test_propagated_records_cannot_be_sources(self, rng):
        items, _, graph = self.make_blob_graph(rng, [2])
        prop = LabelBatch.of([0], [True], PROPAGATED, 1, np.array([1]), np.array([0.01]))
        store = KnownStore(graph.node_ids)
        with pytest.raises(ValueError, match="seed/oracle"):
            propagate_labels(prop, graph, 0.1, store, 1)


class TestFeedbackSeeds:
    def test_empty_store(self):
        assert feedback_seeds(KnownStore(range(10)), 3).tolist() == []

    def test_positives_of_any_provenance(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.write(LabelBatch.of([2], [True], ORACLE, 2))
        store.write(LabelBatch.of([3, 4, 5], [True] * 3, PROPAGATED, 2, np.array([1, 1, 1]),
                                  np.full(3, 0.01)))
        store.write(LabelBatch.of([6, 7, 8, 9], [False] * 4, ORACLE, 2))
        assert feedback_seeds(store, 2).tolist() == [1, 2, 3, 4, 5]

    def test_round_cutoff(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.write(LabelBatch.of([2], [True], ORACLE, 3))
        assert feedback_seeds(store, 1).tolist() == [1]
        assert feedback_seeds(store, 3).tolist() == [1, 2]

    def test_unchanged_when_round_adds_no_positives(self):
        store = KnownStore(range(10))
        store.write(LabelBatch.of([1], [True], ORACLE, 1))
        store.write(LabelBatch.of([2], [False], ORACLE, 2))
        assert np.array_equal(feedback_seeds(store, 2), feedback_seeds(store, 1))


class _LabelerHandler(BaseHTTPRequestHandler):
    fail_first = 0
    seen_payloads: list = []

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        cls.seen_payloads.append(body)
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        verdicts = [
            {"item_id": item["item_id"], "label": item["item_id"] % 2 == 0}
            for item in body["items"]
        ]
        payload = json.dumps({"verdicts": verdicts}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def labeler_server():
    _LabelerHandler.fail_first = 0
    _LabelerHandler.seen_payloads = []
    server = HTTPServer(("127.0.0.1", 0), _LabelerHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/label"
    server.shutdown()
    thread.join()


class TestHttpOracle:
    def test_batched_labeling(self, labeler_server, rng):
        oracle = HttpOracle(labeler_server, batch_size=3, backoff_base=0.01)
        batch = [(i, rng.standard_normal(4)) for i in range(8)]
        verdicts = oracle.label_batch(batch)
        assert verdicts == [i % 2 == 0 for i in range(8)]
        assert oracle.cost_so_far == 8.0
        assert len(_LabelerHandler.seen_payloads) == 3  # ceil(8 / 3) requests

    def test_idempotency_keys_stable(self, labeler_server, rng):
        oracle = HttpOracle(labeler_server, backoff_base=0.01)
        emb = rng.standard_normal(4)
        oracle.label_batch([(5, emb)])
        oracle.label_batch([(5, emb)])
        keys = [p["items"][0]["idempotency_key"] for p in _LabelerHandler.seen_payloads]
        assert keys[0] == keys[1]

    def test_retry_after_server_error(self, labeler_server):
        _LabelerHandler.fail_first = 2
        oracle = HttpOracle(labeler_server, max_retries=3, backoff_base=0.01)
        assert oracle.label_batch([(4, None)]) == [True]

    def test_gives_up_after_retries(self, labeler_server):
        _LabelerHandler.fail_first = 10
        oracle = HttpOracle(labeler_server, max_retries=1, backoff_base=0.01)
        with pytest.raises(RuntimeError, match="after retries"):
            oracle.label_batch([(4, None)])

    @pytest.mark.parametrize("field, value", [
        ("unit_cost", -1.0), ("unit_cost", math.nan), ("unit_cost", math.inf),
        ("batch_size", 0), ("batch_size", -1), ("max_retries", -1),
        ("backoff_base", -0.5), ("backoff_base", math.nan), ("backoff_base", math.inf),
        ("timeout", 0.0), ("timeout", -1.0), ("timeout", math.nan), ("timeout", math.inf),
    ])
    def test_bad_setting_refused_when_built(self, field, value):
        # each would otherwise fail only in a round, as a stage error that
        # does not name the setting
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HttpOracle("http://localhost:9/label", **{field: value})
        if field == "unit_cost":
            with pytest.raises(ValueError, match="^unit_cost must be"):
                SimulatedOracle(1.0, 1.0, 0, [1], [1], unit_cost=value)


class _Reply:
    def __init__(self, doc, status=200):
        self.status_code, self._doc = status, doc

    def raise_for_status(self):
        pass

    def json(self):
        return self._doc


def answering(monkeypatch, verdicts_for):
    """Route requests.post to ``verdicts_for(asked ids)``, with no network.

    Each element it returns is a verdict as sent, or an id to say True for.
    """

    def post(url, json, timeout):
        asked = [item["item_id"] for item in json["items"]]
        verdicts = [v if isinstance(v, dict) else {"item_id": v, "label": True}
                    for v in verdicts_for(asked)]
        return _Reply({"verdicts": verdicts})

    monkeypatch.setattr(requests, "post", post)


class TestHttpOracleVerdicts:
    def test_unasked_items_rejected(self, monkeypatch):
        answering(monkeypatch, lambda asked: asked + [99])
        with pytest.raises(RuntimeError, match=r"unasked items \[99\]"):
            HttpOracle("http://127.0.0.1:9/label").label_batch([(1, None), (2, None)])

    def test_duplicate_verdicts_rejected(self, monkeypatch):
        answering(monkeypatch, lambda asked: asked + asked[:1])
        with pytest.raises(RuntimeError, match=r"duplicate verdicts for \[1\]"):
            HttpOracle("http://127.0.0.1:9/label").label_batch([(1, None), (2, None)])

    @pytest.mark.parametrize("verdict, match", [
        ({"item_id": 1, "label": "false"}, r"label 'false' for item 1: not a JSON boolean"),
        ({"item_id": 1, "label": 0}, r"label 0 for item 1: not a JSON boolean"),
        ({"item_id": 1, "label": None}, r"label None for item 1: not a JSON boolean"),
        ({"item_id": "1", "label": False}, r"label False for item '1': not .* JSON integer"),
        ({"item_id": 1.0, "label": False}, r"label False for item 1\.0: not .* JSON integer"),
        ({"item_id": 2.9, "label": 0}, r"label 0 for item 2\.9: not .* JSON integer"),
        ({"item_id": True, "label": False}, r"label False for item True: not .* JSON integer"),
    ])
    def test_verdicts_of_other_json_types_rejected(self, monkeypatch, verdict, match):
        # bool("false") is True and int(2.9) is 2: neither may pass as a verdict
        answering(monkeypatch, lambda asked: [verdict, 2])
        with pytest.raises(RuntimeError, match=match):
            HttpOracle("http://127.0.0.1:9/label").label_batch([(1, None), (2, None)])

    @pytest.mark.parametrize("body", [
        {}, [], {"verdicts": None}, {"verdicts": "x"}, {"verdicts": [[1, True]]},
        {"verdicts": [{"item_id": 1}]},
    ], ids=["no-verdicts", "list", "null", "string", "pair", "no-label"])
    def test_malformed_body_refused_without_retry(self, monkeypatch, body):
        posts = []

        def post(url, json, timeout):
            posts.append(json)
            return _Reply(body)

        monkeypatch.setattr(requests, "post", post)
        oracle = HttpOracle("http://127.0.0.1:9/label", backoff_base=0.0)
        with pytest.raises(RuntimeError, match=r'remote labeler .*\{"verdicts": \[\{"item_id"'):
            oracle.label_batch([(1, None), (2, None)])
        assert len(posts) == 1

    @pytest.mark.parametrize("status, posts_made", [
        (400, 1), (401, 1), (404, 1), (422, 1), (408, 4), (429, 4), (500, 4), (503, 4),
    ])
    def test_client_error_fails_without_retry(self, monkeypatch, status, posts_made):
        # a paid labeler must not be sent a request it refused as malformed
        posts = []

        def post(url, json, timeout):
            posts.append(json)
            return _Reply({}, status)

        monkeypatch.setattr(requests, "post", post)
        oracle = HttpOracle("http://127.0.0.1:9/label", max_retries=3, backoff_base=0.0)
        with pytest.raises(RuntimeError, match=f"status {status}"):
            oracle.label_batch([(1, None)])
        assert len(posts) == posts_made

    def test_json_booleans_accepted(self, monkeypatch):
        answering(monkeypatch, lambda asked: [{"item_id": 1, "label": False}, 2])
        oracle = HttpOracle("http://127.0.0.1:9/label")
        assert oracle.label_batch([(1, None), (2, None)]) == [False, True]

    def test_exact_answer_accepted(self, monkeypatch):
        answering(monkeypatch, lambda asked: asked[::-1])
        oracle = HttpOracle("http://127.0.0.1:9/label", batch_size=2)
        assert oracle.label_batch([(i, None) for i in range(5)]) == [True] * 5
