import dataclasses
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reviewfunnel.corpus as corpus_module
from reviewfunnel.cli import main
from reviewfunnel.funnel import Reach
from reviewfunnel.labeling import KnownStore, LabelBatch, SimulatedOracle
from reviewfunnel.simgraph import build_graph
from reviewfunnel.corpus import (
    ConfigError,
    Corpus,
    FormatError,
    GeneratorConfig,
    Item,
    LabelRecord,
    embedding_fingerprint,
    generate_corpus_detailed,
    generate_corpus_detailed,
    load_corpus,
    load_labels,
    normalize_embedding,
    save_corpus,
    save_labels,
)

from conftest import traced, truth_by_id


def cosine(a, b):
    # independent of the package metric on purpose
    return 1.0 - float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestGenerator:
    def test_empty(self):
        items, truth, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=0))
        assert list(items) == [] and truth == {}

    def test_single_item_positive(self):
        cfg = GeneratorConfig(
            n_clusters=1, cluster_size_mean=1, dup_fraction=0.0,
            positive_cluster_rate=1.0,
        )
        items, truth, _ = generate_corpus_detailed(cfg)
        assert len(items) == 1
        assert truth == {items[0].item_id: True}

    def test_truth_is_a_read_only_view_of_its_column(self):
        corpus, truth, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=30, rng_seed=5))
        n = len(corpus)
        assert truth == dict(enumerate(corpus.truth.astype(bool).tolist()))
        assert len(truth) == n == len(list(truth.values()))
        assert list(truth.values()) == (corpus.truth == 1).tolist()
        assert truth[np.int64(n - 1)] is bool(corpus.truth[-1])
        for outside in (-1, n, np.int64(n)):
            with pytest.raises(KeyError):
                truth[outside]
        assert n - 1 in truth and n not in truth
        with pytest.raises(TypeError):
            truth[0] = True

    def test_deterministic(self):
        cfg = GeneratorConfig(n_clusters=30, rng_seed=5)
        a, _, _ = generate_corpus_detailed(cfg)
        b, _, _ = generate_corpus_detailed(cfg)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.item_id == y.item_id
            assert np.array_equal(x.embedding, y.embedding)
            assert (x.account_id, x.impressions, x.exact_hash, x.ground_truth) == (
                y.account_id, y.impressions, y.exact_hash, y.ground_truth
            )

    @pytest.mark.parametrize(
        "cfg, rows, digest, content",
        [
            (GeneratorConfig(n_clusters=900, rng_seed=11), 8921,
             "a24c9326234f31ebc2cbfdc6c66d5ed64e952e61ff7a9a3e4b03e01947427295",
             "a116760b785bc4729e2e8b4a870b5a14"),
            (GeneratorConfig(n_clusters=1000, embedding_dim=16, cluster_size_mean=9.0,
                             noise_sigma=0.3, dup_sigma=0.02, rng_seed=12), 9044,
             "3d8d9d9007a4a4d5492098e801ee23d47777d0f6d2f1d4284875a5c5e5afb073",
             "740f1f3d79ca0e0fabec68896d68a00d"),
        ],
        ids=["64-d", "16-d"],
    )
    def test_generated_bytes_are_pinned(self, cfg, rows, digest, content):
        # every column's bytes and the planted clusters, over more than two
        # blocks and a partial one
        corpus, truth, clusters = generate_corpus_detailed(cfg)
        assert len(corpus) == rows and rows > 2 * corpus_module._BLOCK_ROWS
        assert rows % corpus_module._BLOCK_ROWS
        h = hashlib.sha256()
        for field in dataclasses.fields(Corpus):
            col = getattr(corpus, field.name)
            h.update(f"{field.name} {col.dtype.str} {col.shape};".encode())
            h.update(col.tobytes())
        h.update(repr(clusters).encode())
        assert h.hexdigest() == digest
        assert corpus.content_hash == content
        assert truth == truth_by_id(corpus)

    def test_unit_norms(self):
        items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=10, rng_seed=2))
        for item in items:
            assert abs(np.linalg.norm(item.embedding) - 1.0) < 1e-6

    def test_duplicate_pairs_are_tight(self):
        # measure pairwise distances over the planted blobs before trusting
        # any threshold downstream
        cfg = GeneratorConfig(
            n_clusters=100, cluster_size_mean=10, dup_sigma=0.01, rng_seed=42
        )
        items, _, clusters = generate_corpus_detailed(cfg)
        by_id = {it.item_id: it for it in items}
        close = total = 0
        for cluster in clusters:
            blob = [cluster.seed_id, *cluster.dup_ids]
            for i in range(len(blob)):
                for j in range(i + 1, len(blob)):
                    d = cosine(by_id[blob[i]].embedding, by_id[blob[j]].embedding)
                    total += 1
                    close += d < 0.05
        assert total > 100
        assert close / total >= 0.99

    @pytest.mark.parametrize("n_clusters,seed", [(100, 42), (1000, 7)])
    def test_positive_rate_tracks_config(self, n_clusters, seed):
        cfg = GeneratorConfig(n_clusters=n_clusters, rng_seed=seed)
        _, truth, _ = generate_corpus_detailed(cfg)
        rate = sum(truth.values()) / len(truth)
        assert abs(rate - cfg.positive_cluster_rate) <= 0.2 * cfg.positive_cluster_rate

    def test_positive_clusters_homogeneous(self):
        _, truth, clusters = generate_corpus_detailed(
            GeneratorConfig(n_clusters=60, rng_seed=3)
        )
        for cluster in clusters:
            for member in (cluster.seed_id, *cluster.member_ids):
                assert truth[member] == cluster.positive

    def test_inactive_fraction(self):
        items, _, _ = generate_corpus_detailed(
            GeneratorConfig(n_clusters=300, inactive_rate=0.25, rng_seed=9)
        )
        inactive = sum(1 for it in items if it.impressions == 0)
        assert abs(inactive / len(items) - 0.25) < 0.05

    def test_positive_accounts_skewed(self):
        items, truth, _ = generate_corpus_detailed(
            GeneratorConfig(n_clusters=400, n_accounts=200, account_skew=0.9, rng_seed=4)
        )
        positive_accounts = {it.account_id for it in items if truth[it.item_id]}
        assert len(positive_accounts) <= 20

    def test_exact_hash_identity(self):
        # dup_sigma=0 plants bit-identical copies of each cluster seed
        cfg = GeneratorConfig(n_clusters=20, dup_sigma=0.0, rng_seed=11)
        items, _, clusters = generate_corpus_detailed(cfg)
        by_id = {it.item_id: it for it in items}
        for cluster in clusters:
            seed = by_id[cluster.seed_id]
            for dup in cluster.dup_ids:
                assert by_id[dup].exact_hash == seed.exact_hash
                assert np.array_equal(by_id[dup].embedding, seed.embedding)

    def test_distinct_embeddings_distinct_hashes(self):
        items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=50, rng_seed=6))
        hashes = {}
        for item in items:
            if item.exact_hash in hashes:
                assert np.array_equal(item.embedding, hashes[item.exact_hash])
            hashes[item.exact_hash] = item.embedding

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(n_clusters=-1), "n_clusters"),
            (dict(n_clusters=1, dup_fraction=1.5), "dup_fraction"),
            (dict(n_clusters=1, embedding_dim=1), "embedding_dim"),
            (dict(n_clusters=1, dup_sigma=0.1, noise_sigma=0.05), "dup_sigma"),
            (dict(n_clusters=1, positive_cluster_rate=-0.1), "positive_cluster_rate"),
            (dict(n_clusters=1, n_accounts=0), "n_accounts"),
            (dict(n_clusters=1, cluster_size_mean=0.5), "cluster_size_mean"),
        ],
    )
    def test_invalid_config_names_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            generate_corpus_detailed(GeneratorConfig(**kwargs))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=15, rng_seed=8))
        path = tmp_path / "corpus.jsonl"
        save_corpus(items, path)
        loaded = load_corpus(path)
        assert len(loaded) == len(items)
        for a, b in zip(items, loaded):
            assert a.item_id == b.item_id
            assert np.array_equal(a.embedding, b.embedding)
            assert a.exact_hash == b.exact_hash
            assert a.ground_truth == b.ground_truth

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert list(load_corpus(path)) == []

    def test_normalizes_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        doc = {
            "item_id": 0, "embedding": [3.0, 4.0], "account_id": 0,
            "impressions": 1, "exact_hash": "0",
            "ground_truth": None,
        }
        path.write_text(json.dumps(doc) + "\n")
        (item,) = load_corpus(path)
        assert np.allclose(item.embedding, [0.6, 0.8], atol=1e-12)

    def _lines(self, n, make_doc):
        return "".join(json.dumps(make_doc(i)) + "\n" for i in range(1, n + 1))

    def test_duplicate_id_cites_second_line(self, tmp_path):
        def doc(line):
            item_id = 100 if line in (5, 9) else line
            return {
                "item_id": item_id, "embedding": [1.0, float(line)],
                "account_id": 0, "impressions": 1, "exact_hash": "0",
                "ground_truth": None,
            }

        path = tmp_path / "dup.jsonl"
        path.write_text(self._lines(9, doc))
        with pytest.raises(FormatError, match="line 9"):
            load_corpus(path)

    def test_parse_error_cites_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({
            "item_id": 0, "embedding": [1.0, 0.0], "account_id": 0,
            "impressions": 1, "exact_hash": "0",
            "ground_truth": None,
        })
        path.write_text(good + "\n{not json\n")
        with pytest.raises(FormatError, match="line 2"):
            load_corpus(path)

    def test_dimension_mismatch(self, tmp_path):
        def doc(line):
            return {
                "item_id": line, "embedding": [1.0, 0.0, 0.0][: 2 + (line == 3)],
                "account_id": 0, "impressions": 1, "exact_hash": "0",
                "ground_truth": None,
            }

        path = tmp_path / "dim.jsonl"
        path.write_text(self._lines(3, doc))
        with pytest.raises(FormatError, match="line 3"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        doc = {
            "item_id": 0, "embedding": [1.0, 0.0], "account_id": 0,
            "impressions": 1, "exact_hash": "0",
            "ground_truth": None, "color": "red",
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="color"):
            load_corpus(path)

    def test_zero_embedding_rejected(self, tmp_path):
        path = tmp_path / "zero.jsonl"
        doc = {
            "item_id": 0, "embedding": [0.0, 0.0], "account_id": 0,
            "impressions": 1, "exact_hash": "0",
            "ground_truth": None,
        }
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="non-zero"):
            load_corpus(path)


class TestLabelIO:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        save_labels([], path)
        assert path.read_text().count("\n") == 1  # header only
        assert load_labels(path) == []

    def test_round_trip_identity(self, tmp_path):
        records = [
            LabelRecord(item_id=3, label=True, provenance="oracle", round=1),
            LabelRecord(item_id=1, label=False, provenance="seed", round=0),
            LabelRecord(
                item_id=7, label=True, provenance="propagated", round=2,
                source_item_id=3, distance_to_source=0.03125,
            ),
        ]
        path = tmp_path / "labels.jsonl"
        save_labels(records, path)
        assert load_labels(path) == records

    def test_propagated_missing_source_named(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        save_labels([], path)
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "item_id": 1, "label": True, "provenance": "propagated",
                "source_item_id": None, "round": 1, "distance_to_source": 0.01,
            }) + "\n")
        with pytest.raises(FormatError, match="source_item_id"):
            load_labels(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        save_labels([LabelRecord(item_id=1, label=True, provenance="oracle", round=1)], path)
        with open(path, "a") as fh:
            fh.write(json.dumps({
                "item_id": 1, "label": False, "provenance": "oracle",
                "source_item_id": None, "round": 2, "distance_to_source": None,
            }) + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_labels(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps({
            "item_id": 1, "label": True, "provenance": "oracle",
            "source_item_id": None, "round": 1, "distance_to_source": None,
        }) + "\n")
        with pytest.raises(FormatError, match="header"):
            load_labels(path)

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing label store header"),
        ('\n{"kind":"label_store","schema_version":1}\n', "line 1: unrecognized label store header"),
        ('{"kind":"label_store","schema_version":1}\n\nnull\n',
         "line 3: record must be a JSON object"),
    ], ids=["empty", "header-on-line-2", "null-record"])
    def test_header_is_line_1_and_null_is_no_record(self, tmp_path, text, message):
        path = tmp_path / "labels.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            load_labels(path)
        assert str(err.value) == message


class TestRecordInvariants:
    def test_propagated_requires_source(self):
        with pytest.raises(ValueError, match="source_item_id"):
            LabelRecord(item_id=1, label=True, provenance="propagated", round=1)

    def test_oracle_must_not_carry_source(self):
        with pytest.raises(ValueError):
            LabelRecord(
                item_id=1, label=True, provenance="oracle", round=1, source_item_id=2
            )

    def test_unknown_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            LabelRecord(item_id=1, label=True, provenance="human", round=1)

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            normalize_embedding([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 5e-324])
    def test_normalize_extreme_magnitudes(self, scale):
        # the squared norm overflows, underflows to a subnormal (1e-160) or
        # underflows to zero at these scales
        got = normalize_embedding([scale, scale])
        np.testing.assert_allclose(got, [math.sqrt(0.5)] * 2, rtol=1e-15)
        np.testing.assert_array_equal(normalize_embedding([scale, 0.0]), [1.0, 0.0])
        assert normalize_embedding(got).tobytes() == got.tobytes()

    def test_fingerprint_quantization(self):
        a = np.array([0.6, 0.8])
        b = a + 1e-9  # below the 1e-6 grid
        assert embedding_fingerprint(a) == embedding_fingerprint(b)
        c = a + 1e-4
        assert embedding_fingerprint(a) != embedding_fingerprint(c)


def _record(**changes):
    doc = {
        "item_id": 1, "embedding": [1.0, 0.5], "account_id": 0, "impressions": 1,
        "exact_hash": "0", "ground_truth": None,
    }
    doc.update(changes)
    return json.dumps(doc)


# created_round is the key schema 1 files carry on every line: the loader
# still checks it where it is present, then drops it
_NUMERIC_FIELDS = ("item_id", "account_id", "impressions", "created_round")


_BAD_LINES = [
    pytest.param(json.dumps({"item_id": 2, "embedding": [1.0, 0.5]}), id="missing-field"),
    pytest.param("[1, 2, 3]", id="array-line"),
    pytest.param('"item"', id="string-line"),
    pytest.param("null", id="null-line"),
    pytest.param(_record(item_id=2, exact_hash="12a"), id="hash-not-digits"),
    pytest.param(_record(item_id=2, exact_hash="-1"), id="hash-negative"),
    pytest.param(_record(item_id=2, exact_hash=5), id="hash-not-string"),
    pytest.param(_record(item_id=2, exact_hash=str(1 << 64)), id="hash-2^64"),
    pytest.param(_record(item_id=2, exact_hash="\u00b2"), id="hash-superscript-digit"),
    pytest.param(_record(item_id=2, exact_hash="\u0661\u0662"), id="hash-arabic-digits"),
    pytest.param(_record(item_id=2, embedding=[1.0, float("nan")]), id="embedding-nan"),
    pytest.param(_record(item_id=2, embedding=[float("inf"), 1.0]), id="embedding-inf"),
    pytest.param(_record(item_id=2, embedding=[]), id="embedding-empty"),
    pytest.param(_record(item_id=2, embedding="1.0,0.5"), id="embedding-string"),
    pytest.param(_record(item_id=2, embedding={"x": 1.0}), id="embedding-object"),
    pytest.param(_record(item_id=2, embedding=None), id="embedding-null"),
    pytest.param(_record(item_id=2, embedding=[True, 0.8]), id="embedding-bool"),
    pytest.param(_record(item_id=2, embedding=[False, True]), id="embedding-unit-bools"),
    pytest.param(_record(item_id=2, embedding=["0.6", 0.8]), id="embedding-numeric-string"),
    pytest.param(_record(item_id=2, ground_truth=1), id="truth-int"),
    pytest.param(_record(item_id=2, ground_truth="true"), id="truth-string"),
    *(
        pytest.param(_record(**{"item_id": 2, field: value}), id=f"{field}-{name}")
        for field in _NUMERIC_FIELDS
        for name, value in (
            ("bool", True), ("negative", -1), ("float", 2.0), ("2^63", 1 << 63),
        )
    ),
]


@pytest.mark.parametrize("bad_line", _BAD_LINES)
def test_load_rule_cites_line(tmp_path, bad_line):
    path = tmp_path / "bad.jsonl"
    path.write_text(_record() + "\n" + _record(item_id=3) + "\n" + bad_line + "\n")
    with pytest.raises(FormatError, match="^line 3: "):
        load_corpus(path)


@pytest.mark.parametrize("lines", [
    [_record(item_id=2, embedding=[0.0, 0.0], exact_hash="x")],
    [_record(item_id=2, embedding=[0.0, -0.0]), "{broken"],
    [_record(item_id=2, embedding=[0.0, 0.0]), _record(item_id=3, ground_truth=1)],
], ids=["same-record", "next-line", "zero-then-bad-truth"])
def test_embedding_fault_comes_before_later_checks(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([_record(), *lines]) + "\n")
    with pytest.raises(FormatError, match="^line 2: embedding"):
        load_corpus(path)


def test_truncated_last_line_cites_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    whole = _record(item_id=2)
    path.write_text(_record() + "\n" + whole[: len(whole) // 2])
    with pytest.raises(FormatError, match="^line 2: invalid JSON"):
        load_corpus(path)


def test_extreme_magnitudes_load_as_unit_rows(tmp_path):
    path = tmp_path / "extreme.jsonl"
    lines = [_record(item_id=k, embedding=[scale, scale])
             for k, scale in enumerate([1e200, 1e-160, 1e-200, 1.0])]
    path.write_text("\n".join(lines) + "\n")
    emb = load_corpus(path).embeddings
    np.testing.assert_allclose(emb, np.full((4, 2), math.sqrt(0.5)), rtol=1e-15)


def test_embedding_of_non_numbers_cites_line(tmp_path):
    # numpy raises TypeError, not ValueError, for an object element
    path = tmp_path / "bad.jsonl"
    path.write_text(_record() + "\n" + _record(item_id=2, embedding=[{"x": 1}, 1.0]) + "\n")
    with pytest.raises(FormatError, match="^line 2: "):
        load_corpus(path)


def assert_same_columns(a, b):
    for field in dataclasses.fields(Corpus):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert x.dtype == y.dtype and np.array_equal(x, y), field.name


def hand_made_items():
    # every field varied: unknown truth, large accounts and impressions,
    # hashes at the top of the uint64 range
    rng = np.random.default_rng(4)
    items = []
    rows = [(None, 7, 0), (True, 2, 15), (False, 0, 1), (None, 2**40, 2**33)]
    for i, (truth, account, shown) in enumerate(rows):
        emb = normalize_embedding(rng.standard_normal(5))
        items.append(Item(
            item_id=10 * i + 1, embedding=emb, account_id=account, impressions=shown,
            exact_hash=2**64 - 1 - i if i % 2 else embedding_fingerprint(emb),
            ground_truth=truth,
        ))
    return items


class TestCorpus:
    def test_of_items_equals_generated_columns(self):
        corpus, truth, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=40, rng_seed=13))
        again = Corpus.of(list(corpus))
        assert_same_columns(again, corpus)
        assert Corpus.of(corpus) is corpus
        assert truth == {int(i): bool(t) for i, t in zip(corpus.ids, corpus.truth)}

    def test_row_views_round_trip_every_field(self):
        items = hand_made_items()
        corpus = Corpus.of(items[::-1])  # sorted by id on construction
        assert corpus.ids.tolist() == [1, 11, 21, 31]
        for original, row in zip(items, corpus):
            for field in dataclasses.fields(Item):
                got, want = getattr(row, field.name), getattr(original, field.name)
                if field.name == "embedding":
                    assert np.array_equal(got, want)
                else:
                    assert type(got) is type(want) and got == want, field.name
        assert corpus[-1].item_id == 31 and corpus[np.int64(1)].item_id == 11
        assert corpus.truth.tolist() == [-1, 1, 0, -1]

    def test_slices_and_read_only_columns(self):
        corpus, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=20, rng_seed=2))
        part = corpus[5:12]
        assert isinstance(part, Corpus) and part.ids.tolist() == list(range(5, 12))
        assert np.array_equal(part.embeddings, corpus.embeddings[5:12])
        assert [item.item_id for item in corpus[::-3]] == sorted(corpus.ids[::-3].tolist())
        for field in dataclasses.fields(Corpus):
            with pytest.raises(ValueError, match="read-only"):
                getattr(part, field.name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            corpus[0].embedding[0] = 0.0

    def test_empty(self, tmp_path):
        corpus = Corpus.of([])
        assert len(corpus) == 0 and list(corpus) == [] and corpus.truth.tolist() == []
        assert corpus.embeddings.shape == (0, 0)
        assert corpus.content_hash == "cae66941d9efbd404e4d88758ea67670"
        save_corpus(corpus, tmp_path / "empty.jsonl")
        assert_same_columns(load_corpus(tmp_path / "empty.jsonl"), corpus)

    def test_duplicate_id_named(self):
        items = hand_made_items()
        clash = dataclasses.replace(items[0], item_id=21)
        with pytest.raises(ValueError, match="duplicate item_id 21"):
            Corpus.of(items + [clash])

    def test_ragged_columns_rejected(self):
        good = Corpus.of(hand_made_items())
        columns = [getattr(good, field.name) for field in dataclasses.fields(Corpus)]
        with pytest.raises(ValueError, match="column impressions has 3 rows for 4 ids"):
            Corpus(*columns[:3], columns[3][:3], *columns[4:])
        with pytest.raises(ValueError, match="matrix"):
            Corpus(columns[0], columns[1].ravel(), *columns[2:])

    @pytest.mark.parametrize(
        "make, digest",
        [
            # re-recorded when the hash came to cover embeddings and lost
            # created_round; the six columns it reads kept their bytes
            (lambda: generate_corpus_detailed(GeneratorConfig(n_clusters=50, rng_seed=3))[0],
             "08d08a8dc7267e7bb02567311c2fc9c2"),
            (lambda: Corpus.of(hand_made_items()), "75771b711fd081e5f4f390ed8272a0d5"),
        ],
        ids=["generated", "hand-made"],
    )
    def test_content_hash_is_pinned(self, make, digest):
        assert make().content_hash == digest


def two_rows(**columns):
    """A two-row Corpus, with any of its columns replaced."""
    return Corpus(**{"ids": [1, 2], "embeddings": np.eye(2), "accounts": [0, 1],
                     "impressions": [3, 4], "hashes": [5, 6], "truth": [1, 0], **columns})


# Each takes the ids or positions of two rows; a cast to int64 (or uint64)
# would truncate floats and read bools as 0 and 1.
INDEXED = {
    "Corpus.ids": lambda ids: two_rows(ids=ids),
    "Corpus.hashes": lambda hashes: two_rows(hashes=hashes),
    "Corpus.accounts": lambda ids: two_rows(accounts=ids),
    "Corpus.impressions": lambda ids: two_rows(impressions=ids),
    "Corpus.of": lambda ids: Corpus.of([Item(i, np.eye(2)[k], 0, 1, 7) for k, i in enumerate(ids)]),
    "KnownStore": KnownStore,
    "SimulatedOracle": lambda ids: SimulatedOracle(1.0, 1.0, 0, ids, [1, 0]),
    "Reach": Reach,
    "LabelBatch.of": lambda pos: LabelBatch.of(pos, [True, False], 1, 1),
}


@pytest.mark.parametrize("values", [[0.5, 1.7], np.array([0.0, 1.0]), [False, True]],
                         ids=["floats", "float-array", "bools"])
@pytest.mark.parametrize("make", INDEXED.values(), ids=INDEXED.keys())
def test_constructors_refuse_non_integer_ids_and_positions(make, values):
    with pytest.raises(TypeError, match="must be integers"):
        make(values)


def test_uint64_from_2_63_is_refused_not_wrapped():
    top = np.array([2**63 - 1], np.uint64)
    assert corpus_module._int64(top, "x").tolist() == [2**63 - 1]
    with pytest.raises(OverflowError, match="x must be below 2"):
        corpus_module._int64(np.array([2**63], np.uint64), "x")
    with pytest.raises(OverflowError, match="ids must be below 2"):
        Corpus([2**63], np.ones((1, 2)), [0], [1], [5], [1])


@pytest.mark.parametrize("hashes", [np.array([-1, 1]), [-1, 1], [np.int64(-1), 1]],
                         ids=["array", "list", "numpy-ints"])
def test_negative_hashes_are_refused_not_wrapped(hashes):
    with pytest.raises(OverflowError):
        two_rows(hashes=hashes)
    # numpy infers float64 for this list, which holds exact uint64 values
    corpus = Corpus.of([Item(1, np.eye(2)[0], 0, 1, 2**63), Item(2, np.eye(2)[1], 0, 1, 1)])
    assert corpus.hashes.dtype == np.uint64 and corpus.hashes.tolist() == [2**63, 1]


@pytest.mark.parametrize("what, make", [
    ("store", KnownStore),
    ("oracle", lambda ids: SimulatedOracle(1.0, 1.0, 0, ids, [1, 0])),
    ("reach", Reach),
], ids=["store", "oracle", "reach"])
def test_index_ids_must_ascend(what, make):
    with pytest.raises(ValueError, match=f"{what} ids must be strictly ascending"):
        make([2, 2])


@pytest.mark.parametrize("truth, error", [
    ([5, 0], ValueError), ([1, -2], ValueError), ([1, 0.7], TypeError),
    (np.array([1.0, 0.0]), TypeError),
], ids=["five", "minus-two", "float", "float-array"])
@pytest.mark.parametrize("make", [
    lambda truth: two_rows(truth=truth),
    lambda truth: SimulatedOracle(1.0, 1.0, 0, [1, 2], truth),
], ids=["Corpus", "SimulatedOracle"])
def test_truth_holds_only_minus_one_zero_and_one(make, truth, error):
    # a truth of 5 would be reviewed as positive yet never counted as one
    with pytest.raises(error, match="truth must be"):
        make(truth)


def test_truth_accepts_bools_and_unknowns():
    assert two_rows(truth=[True, False]).truth.tolist() == [1, 0]
    assert two_rows(truth=[-1, True]).truth.tolist() == [-1, 1]
    oracle = SimulatedOracle(1.0, 1.0, 0, [1, 2], np.array([False, True]))
    assert oracle.label_batch([(1, None), (2, None)]) == [False, True]


def test_line_order_changes_nothing(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({
        "schema_version": 2, "kind": "generator", "n_clusters": 30,
        "cluster_size_mean": 8, "positive_cluster_rate": 0.2, "n_accounts": 25,
        "rng_seed": 17,
    }))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 2, "kind": "pipeline", "rounds": 2, "budget_per_round": 6,
        "bootstrap_seeds": 3, "graph_mode": "exact",
    }))
    sorted_file, shuffled_file = tmp_path / "sorted.jsonl", tmp_path / "shuffled.jsonl"
    assert main(["generate", "--config", str(gen), "--out", str(sorted_file)]) == 0
    lines = sorted_file.read_text().splitlines(keepends=True)
    random.Random(5).shuffle(lines)
    shuffled_file.write_text("".join(lines))

    a, b = load_corpus(sorted_file), load_corpus(shuffled_file)
    assert_same_columns(a, b)
    assert a.content_hash == b.content_hash
    for path, out in ((sorted_file, "a"), (shuffled_file, "b")):
        args = ["run", "--corpus", str(path), "--config", str(config)]
        assert main(args + ["--out", str(tmp_path / out)]) == 0
    metrics = [(tmp_path / out / "metrics.json").read_bytes() for out in "ab"]
    assert metrics[0] == metrics[1]


def test_digit_spelling_changes_no_hash(tmp_path):
    # the hash reads the stored embeddings, so 0.5 and 5e-1 hash alike
    line = ('{{"item_id": {}, "embedding": [{}, {}], "account_id": 0, "impressions": 1, '
            '"exact_hash": "0", "ground_truth": false}}\n')
    plain, spelled = tmp_path / "plain.jsonl", tmp_path / "spelled.jsonl"
    plain.write_text(line.format(1, "0.5", "0.75") + line.format(2, "-0.25", "1"))
    spelled.write_text(line.format(1, "5e-1", "7.5E-1") + line.format(2, "-25e-2", "1.0"))
    assert_same_corpus(load_corpus(plain), load_corpus(spelled))


def test_schema_1_file_loads_as_without_its_created_round(tmp_path):
    # files written before schema 2 carry created_round on every line
    corpus, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=30, rng_seed=9))
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    save_corpus(corpus, new)
    lines = new.read_text().splitlines()
    old.write_text("".join(
        json.dumps(dict(json.loads(line), created_round=0)) + "\n" for line in lines))
    assert '"created_round": 0' in old.read_text()
    assert_same_corpus(load_corpus(old), load_corpus(new))
    assert load_corpus(old).content_hash == corpus.content_hash


# --- block-wise decoding in one process -------------------------------------

SRC = str(Path(corpus_module.__file__).resolve().parent.parent)


def block_load(path, rows=1 << 30):
    """load_corpus in blocks of ``rows`` rows."""
    with mock.patch.object(corpus_module, "_BLOCK_ROWS", rows):
        return load_corpus(path)


def load_error(load, *args, **kwargs):
    with pytest.raises(FormatError) as info:
        load(*args, **kwargs)
    return str(info.value)


def assert_same_corpus(a, b):
    assert_same_columns(a, b)
    for field in dataclasses.fields(Corpus):
        assert getattr(a, field.name).tobytes() == getattr(b, field.name).tobytes()
    assert a.content_hash == b.content_hash


_rows = st.lists(
    st.tuples(
        st.lists(st.floats(-4.0, 4.0, allow_nan=False), min_size=3, max_size=3),
        st.booleans(),  # normalise before writing, so the row passes through
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**63 - 1),
        st.sampled_from([None, True, False]),
        st.sampled_from(["\n", "\r\n", "\r"]),
        # a blank line after it; str.splitlines would break at \x0c and \x85 too
        st.sampled_from(["", " \n", "\t\r\n", "\x0c\n", "\x85\r"]),
    ),
    max_size=12,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rows=_rows, ids=st.lists(st.integers(0, 2**63 - 1), min_size=13, max_size=13,
                                unique=True),
       block_rows=st.integers(1, 4), newline_at_end=st.booleans(),
       bad_at=st.one_of(st.none(), st.integers(1, 12)))
def test_chunked_load_equals_one_chunk(tmp_path_factory, rows, ids, block_rows, newline_at_end,
                                       bad_at):
    # any block size gives the corpus, or the error, of one block
    records, docs = [], []
    for item_id, (emb, unit, hash_, count, truth, end, blank) in zip(ids, rows):
        emb = np.array(emb)
        emb[0] += np.abs(emb).max() < 1e-3  # no norm that underflows to 0
        doc = {
            "item_id": item_id,
            "embedding": (normalize_embedding(emb) if unit else emb).tolist(),
            "account_id": count, "impressions": count // 3, "exact_hash": str(hash_),
            "ground_truth": truth,
        }
        docs.append(doc)
        records.append(json.dumps(doc) + end + blank)
    if bad_at is not None:
        # a repeat of the first id, or broken JSON if there is none
        bad = dict(json.loads(records[0].splitlines()[0]), embedding=[7.0, 7.0, 7.0]) \
            if records else {"bad": [7.0, 7.0, 7.0]}
        records.insert(bad_at, json.dumps(bad)[: None if records else -1] + "\n")
    text = "".join(records)
    if not newline_at_end:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.mktemp("chunks") / "c.jsonl"
    path.write_bytes(text.encode())
    if bad_at is None:
        loaded = block_load(path)
        assert_same_corpus(block_load(path, block_rows), loaded)
        reference = {doc["item_id"]: normalize_embedding(doc["embedding"]) for doc in docs}
        assert loaded.embeddings.tobytes() == b"".join(
            reference[item_id].tobytes() for item_id in sorted(reference))
        return
    with open(path, encoding="utf-8") as fh:  # text mode: universal newlines
        expected = next(k for k, line in enumerate(fh, 1) if "7.0, 7.0, 7.0" in line)
    message = load_error(block_load, path)
    assert message.startswith(f"line {expected}: ")
    assert load_error(block_load, path, block_rows) == message


def test_small_file_starts_no_process(tmp_path):
    items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=20, rng_seed=1))
    path = tmp_path / "c.jsonl"
    save_corpus(items, path)
    with mock.patch.object(subprocess, "Popen", side_effect=AssertionError):
        assert len(load_corpus(path)) == len(items)


def test_large_file_starts_no_process(tmp_path):
    # 40 MiB: records between blank lines of 1 MiB of spaces
    path = tmp_path / "c.jsonl"
    with open(path, "w") as fh:
        for item_id in range(40):
            fh.write(" " * (1 << 20) + "\n" + _good(item_id) + "\n")
    with mock.patch.object(subprocess, "Popen", side_effect=OSError("no process")), \
            mock.patch.object(os, "fork", side_effect=OSError("no fork")):
        loaded = block_load(path, 16)
    assert loaded.ids.tolist() == list(range(40))


def test_worker_that_cannot_start_decodes_here(tmp_path):
    # no process can be started: the file still decodes, here, in blocks
    items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=30, rng_seed=5))
    path = tmp_path / "c.jsonl"
    save_corpus(items, path)
    with mock.patch.object(subprocess, "Popen", side_effect=OSError("no fork")):
        loaded = block_load(path, 3)
    assert_same_corpus(loaded, block_load(path))


def _good(item_id):
    return _record(item_id=item_id, embedding=[1.0, 0.25 * item_id])


@pytest.mark.parametrize("bad_line", [
    *_BAD_LINES,
    pytest.param(_record(item_id=2, embedding=[1.0, 0.5, 0.5]), id="embedding-dimension"),
])
@pytest.mark.parametrize("first_in_chunk", [False, True], ids=["mid-chunk", "chunk-start"])
def test_bad_line_in_later_chunk_cites_same_line(tmp_path, bad_line, first_in_chunk):
    # line 6 is the first row of the second block of 5 rows, or the second
    # row of the second block of 4
    path = tmp_path / "bad.jsonl"
    good = [_good(item_id) for item_id in range(10, 17)]
    path.write_text("\n".join(good[:5] + [bad_line] + good[5:]) + "\n")
    message = load_error(block_load, path)
    assert message.startswith("line 6: ")
    assert load_error(block_load, path, 5 if first_in_chunk else 4) == message


@pytest.mark.parametrize("later_line", [
    pytest.param(_good(13), id="good"),
    pytest.param(_record(item_id=13, embedding=[0.0, 0.0]), id="bad-embedding"),
    pytest.param(_record(item_id=13, embedding=[1.0, 0.5, 0.5]), id="bad-dimension"),
    pytest.param(_record(item_id=13, exact_hash="x"), id="bad-hash"),
])
def test_duplicate_across_chunks_cites_first_line(tmp_path, later_line):
    # line 7 repeats line 3's id; the bad record after it must not win, at
    # any block boundary: before line 3, between lines 3 and 7, or after 7
    path = tmp_path / "dup.jsonl"
    lines = [_good(item_id) for item_id in (10, 11, 13, 14, 15, 16)]
    path.write_text("\n".join(lines + [later_line, "{broken", _good(20)]) + "\n")
    for rows in (1 << 30, 1, 2, 4, 6, 7):
        assert load_error(block_load, path, rows) == "line 7: duplicate item_id 13 (first on line 3)"


def test_lowest_duplicate_line_wins(tmp_path):
    # id 20 repeats on a later line than id 50, though it is the smaller id
    path = tmp_path / "dup.jsonl"
    path.write_text("".join(_good(item_id) + "\n" for item_id in (50, 20, 30, 40, 60, 50, 20)))
    for rows in (1 << 30, 3, 5):
        assert load_error(block_load, path, rows) == "line 6: duplicate item_id 50 (first on line 1)"


@pytest.mark.parametrize("rows", [1 << 30, 2], ids=["one-block", "blocks-of-2"])
def test_fault_stops_the_decode(tmp_path, rows):
    # a bad first line is the error, however much good or bad follows it,
    # and no later line is decoded
    path = tmp_path / "c.jsonl"
    path.write_text("{broken\n" + "".join(_good(item_id) + "\n" for item_id in range(10, 20))
                    + "{broken too\n")
    with mock.patch.object(orjson, "loads", wraps=orjson.loads) as loads:
        message = load_error(block_load, path, rows)
    assert message.startswith("line 1: invalid JSON")
    assert loads.call_args_list == [mock.call(b"{broken\n")]


# JSON texts on which orjson and json differ: orjson rejects NaN, Infinity,
# numbers beyond the float range and lone surrogates, and reads integers
# past 64 bits as floats
_INTS = ["0", "1", "-0", str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64), str(-2**63),
         str(-2**63 - 1), "1" + "0" * 30, "-" + "9" * 25, "1" + "0" * 400]
_FLOATS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "0.5", "-0.0", "2.0",
           "1.7976931348623157e308", "5e-324", "1e-320"]
_LONG_FLOATS = st.builds(
    "{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(0, 9),
    st.text("0123456789", min_size=15, max_size=40), st.integers(-330, 310),
)
_NUMBERS = st.one_of(st.sampled_from(_INTS + _FLOATS), _LONG_FLOATS)
_STRINGS = st.sampled_from(['"0"', '"18446744073709551615"', '"\\u0031\\u0032"', '"\\ud800"',
                            '"7\\udc00"', '"\\ud83d\\ude00"', "\"é\""])
_FIELD_VALUES = {
    "item_id": _NUMBERS, "embedding": st.lists(_NUMBERS, min_size=2, max_size=2).map(
        lambda xs: "[" + ",".join(xs) + "]"),
    "account_id": _NUMBERS, "impressions": _NUMBERS, "exact_hash": _STRINGS,
    "ground_truth": st.sampled_from(["true", "false", "null", "1"]),
}


@st.composite
def _tricky_record(draw, item_id):
    """A corpus line, some of whose values orjson and json may read apart."""
    good = json.loads(_record(item_id=item_id))
    # tricky values are rarer outside the embedding, so that most lines pass
    parts = []
    for name, values in _FIELD_VALUES.items():
        tricky = draw(_one_in(2 if name == "embedding" else 12))
        parts.append(f'"{name}":{draw(values) if tricky else json.dumps(good[name])}')
    extra = draw(st.sampled_from([None, None, None, *_FIELD_VALUES]))
    if extra is not None:  # a duplicate key: json keeps the last value
        parts.append(f'"{extra}":{draw(_FIELD_VALUES[extra])}')
    line = ("{" + ",".join(parts) + "}").encode()
    if draw(_one_in(12)):  # raw bytes that are not UTF-8 in a string
        line = line.replace(b'"exact_hash":', b'"exact_hash":"\xed\xa0\x80",' b'"x":', 1)
    return line


def _one_in(k):
    return st.integers(0, k - 1).map(lambda x: x == k // 2)  # not an end, which hypothesis favours


_TRICKY_LINES = st.integers(1, 3).flatmap(
    lambda n: st.tuples(*(_tricky_record(item_id) for item_id in range(5, 5 + n))))


def _read_apart(line: bytes) -> bool:
    """Whether json reads a duplicate key, NaN, Infinity, or a number beyond the float64
    range or the 64-bit integers in the line: where orjson may read it apart."""
    found = []

    def pairs(items):
        found.append(len({key for key, _ in items}) < len(items))
        return dict(items)

    def number(parse, ok):
        return lambda text: found.append(not ok(parse(text))) or parse(text)

    try:
        json.loads(line, object_pairs_hook=pairs, parse_constant=found.append,
                   parse_float=number(float, math.isfinite),
                   parse_int=number(int, lambda x: -2**63 <= x < 2**64))
    except ValueError:
        pass
    return any(found)


def _outcome(load, path, rows):
    """The corpus ``load`` reads in blocks of ``rows``, or the line it refuses."""
    try:
        return load(path, rows)
    except FormatError as exc:
        return exc.line


def json_load(path, rows):
    """block_load with each line read by the json module: the reference reading."""
    with mock.patch.object(orjson, "loads", json.loads):
        return block_load(path, rows)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(lines=_TRICKY_LINES, rows=st.integers(1, 3))
def test_orjson_and_json_give_one_verdict(tmp_path_factory, lines, rows):
    # a file that json reads alike loads to json's columns or refuses json's
    # line; any file that loads is one json reads to the same columns
    path = tmp_path_factory.mktemp("tricky") / "c.jsonl"
    path.write_bytes(b"\n".join([_record().encode(), *lines, _good(9).encode()]) + b"\n")
    reference = _outcome(json_load, path, rows)
    loaded = _outcome(block_load, path, rows)
    if isinstance(loaded, Corpus):
        assert isinstance(reference, Corpus)
        assert_same_corpus(loaded, reference)
    elif any(map(_read_apart, lines)):
        assert isinstance(reference, Corpus) or loaded <= reference
    else:
        assert loaded == reference


@pytest.mark.parametrize("field, value, reason", [
    ("source_item_id", "-5", "field source_item_id must be >= 0"),
    ("source_item_id", str(2**63), "field source_item_id out of int64 range"),
    ("distance_to_source", "true", "field distance_to_source must be a number in [0, 2]"),
    ("distance_to_source", "NaN", "invalid JSON (unexpected character at column 114)"),
    ("distance_to_source", "Infinity", "invalid JSON (unexpected character at column 114)"),
    ("distance_to_source", "-7.5", "field distance_to_source must be a number in [0, 2]"),
    ("distance_to_source", "2.5", "field distance_to_source must be a number in [0, 2]"),
    ("round", "-1", "field round must be >= 0"),
    ("round", "true", "field round must be an integer"),
], ids=["source-negative", "source-2**63", "distance-bool", "distance-nan", "distance-inf",
        "distance-negative", "distance-above-2", "round-negative", "round-bool"])
def test_label_store_refuses_out_of_range_fields(tmp_path, field, value, reason):
    # NaN and Infinity are not JSON, so they fail the decode
    doc = {"item_id": 4, "label": True, "provenance": "propagated", "source_item_id": 3,
           "round": 1, "distance_to_source": 0.125}
    path = tmp_path / "labels.jsonl"
    save_labels([LabelRecord(item_id=3, label=True, provenance="oracle", round=1)], path)
    line = json.dumps(doc).replace(f'"{field}": {json.dumps(doc[field])}', f'"{field}": {value}')
    assert line != json.dumps(doc)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    with pytest.raises(FormatError) as err:
        load_labels(path)
    assert (err.value.line, err.value.reason) == (3, reason)


def test_load_holds_one_block_beyond_its_columns(tmp_path):
    # numpy reports its buffers to tracemalloc, so the traced peak counts the
    # columns, the decoded block and anything the loader holds besides
    corpus, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=800, rng_seed=3))
    path = tmp_path / "c.jsonl"
    save_corpus(corpus, path)
    rows = 256
    line_bytes = path.stat().st_size / len(corpus)
    loaded, peak, _ = traced(block_load, path, rows)
    assert_same_corpus(loaded, corpus)
    columns = sum(getattr(loaded, field.name).nbytes for field in dataclasses.fields(Corpus))
    # a block's decoded lines: their text, dicts, lists and floats, and its matrix
    block = rows * 4 * line_bytes
    assert peak < columns + block, (peak, columns, block)
    # reading the whole file, or a second copy of the embeddings, would not fit
    assert path.stat().st_size > block and loaded.embeddings.nbytes > block


@pytest.fixture(scope="module")
def five_blocks():
    """A generated 64-d corpus of about five blocks of rows."""
    return generate_corpus_detailed(GeneratorConfig(n_clusters=2000, rng_seed=5))[0]


def test_generate_holds_one_block_beyond_its_columns(five_blocks):
    # numpy reports its buffers to tracemalloc; a list of the clusters'
    # rows or a whole-matrix temporary would each be five blocks
    (corpus, _, _), peak, held = traced(
        generate_corpus_detailed, GeneratorConfig(n_clusters=2000, rng_seed=5))
    assert_same_columns(corpus, five_blocks)
    block = corpus_module._BLOCK_ROWS * corpus.embeddings.shape[1] * 8
    columns = sum(getattr(corpus, field.name).nbytes for field in dataclasses.fields(Corpus))
    assert columns < held and corpus.embeddings.nbytes > 4 * block
    # what it returns (the columns, the truth map and the clusters) and one
    # block's quantised rows and fingerprints
    assert peak < held + 3 * block, (peak, held, block)


def test_content_hash_holds_one_block(five_blocks):
    corpus = Corpus(*(getattr(five_blocks, field.name) for field in dataclasses.fields(Corpus)))
    digest, peak, _ = traced(lambda: corpus.content_hash)
    assert digest == five_blocks.content_hash
    # a block's rows as five Python ints each and their bytes: well under 512
    # bytes a row, where every column as a list would take about 300 bytes
    # a corpus row
    block = corpus_module._BLOCK_ROWS * 512
    assert peak < block < len(corpus) * 300 / 2, (peak, block)


def test_script_without_main_guard_runs_once(tmp_path):
    # a script that loads a corpus and builds its graph in worker processes
    # runs its own code once: no worker re-runs the caller's __main__
    items, _, _ = generate_corpus_detailed(GeneratorConfig(n_clusters=30, rng_seed=6))
    path = tmp_path / "c.jsonl"
    save_corpus(items, path)
    marker = tmp_path / "ran.txt"
    script = tmp_path / "script.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from reviewfunnel import corpus, simgraph\n"
        f"with open({str(marker)!r}, 'a') as fh:\n"
        "    fh.write('ran\\n')\n"
        "corpus._BLOCK_ROWS = 7\n"
        "simgraph._SHARE_WORK = 0\n"
        "simgraph._available_cpus = lambda: 3\n"
        f"loaded = corpus.load_corpus({str(path)!r})\n"
        "print(len(loaded), simgraph.build_graph(loaded, 0.25, 'blocked').n_edges)\n"
    )
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    edges = build_graph(items, 0.25, "blocked").n_edges
    assert done.stdout.split() == [str(len(items)), str(edges)]
    assert marker.read_text() == "ran\n"


# --- the writer -------------------------------------------------------------
# The writer passes OPT_SERIALIZE_NUMPY and OPT_APPEND_NEWLINE, both in
# orjson 3.8.3; the package asks for orjson>=3.8.

def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _signed(bits: int):
    return st.sampled_from([bits, bits | 1 << 63])


# the edges of the notations json and orjson write floats in
_EDGES = [1e-4, 1e16, 5e-324, np.finfo(np.float64).tiny]
_SPECIAL = [math.nan, math.inf, 0.0, *_EDGES,
            *(float(np.nextafter(x, to)) for x in _EDGES for to in (0.0, math.inf))]
# any float64, NaN payloads and subnormals included, or one of the specials
_ANY = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([_bits(x) for x in _SPECIAL]).flatmap(_signed),
).map(_float)


@st.composite
def _matrices(draw):
    """A float64 matrix of finite, non-zero rows of any floats."""
    d = draw(st.integers(1, 4))
    row = st.lists(_ANY, min_size=d, max_size=d).filter(
        lambda xs: all(map(math.isfinite, xs)) and any(xs))
    return np.array(draw(st.lists(row, min_size=1, max_size=7)))


def _saved(corpus, path, rows=1 << 30):
    """The bytes save_corpus writes in blocks of ``rows``."""
    with mock.patch.object(corpus_module, "_BLOCK_ROWS", rows):
        save_corpus(corpus, path)
    return path.read_bytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(emb=_matrices(), fortran=st.booleans(), block_rows=st.integers(1, 3))
@example(emb=np.array([[sign * x, 0.5] for x in _SPECIAL[2:] for sign in (1, -1)]),
         fortran=True, block_rows=3)
def test_saved_rows_load_back_bit_for_bit(tmp_path_factory, emb, fortran, block_rows):
    # each row is written in digits that read back to its floats, and unit
    # rows load back bit for bit, with every other column
    n = len(emb)
    columns = (np.arange(n) * 3, np.asfortranarray(emb) if fortran else emb,
               np.arange(n) % 2, np.arange(n) * 7, 2**64 - 1 - np.arange(n, dtype=np.uint64),
               np.arange(n) % 3 - 1)
    path = tmp_path_factory.mktemp("save") / "c.jsonl"
    lines = _saved(Corpus(*columns), path, block_rows).splitlines()
    written = np.array([json.loads(line)["embedding"] for line in lines])
    assert written.dtype == np.float64 and written.tobytes() == emb.tobytes()
    unit = Corpus(columns[0], np.stack([normalize_embedding(row) for row in emb]),
                  *columns[2:])
    _saved(unit, path, block_rows)
    assert_same_corpus(load_corpus(path), unit)


@pytest.mark.parametrize("row", [[math.nan, 1.0], [math.inf, 1.0], [0.0, -0.0]],
                         ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("first_bad", [0, 1, 2])
def test_save_refuses_rows_that_would_not_load(tmp_path, row, first_bad):
    # rows are checked in blocks of 2 before the file is created; every row
    # from the first bad one on is bad
    emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    emb[first_bad:] = row
    corpus = Corpus([10, 20, 30], emb, [0] * 3, [1] * 3, [5] * 3, [1] * 3)
    path = tmp_path / "c.jsonl"
    with mock.patch.object(corpus_module, "_BLOCK_ROWS", 2), pytest.raises(
            ValueError, match=f"^item_id {10 * (first_bad + 1)}: embedding must be finite"):
        save_corpus(corpus, path)
    assert not path.exists()
