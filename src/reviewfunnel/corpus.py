"""Core data model, synthetic corpus generation, and JSON Lines persistence.

A corpus is one set of columns (``Corpus``), built once by the generator or
the loader and read as columns by every layer; ``Item`` is its row view.
Synthetic corpora are built from planted clusters: each cluster has a seed
item, a fraction of near-duplicate members hugging the seed, and looser
members spread around it. Ground truth is the corpus's ``truth`` column;
funnel stages never read it, only the oracle and the metrics evaluator do.

The JSON Lines loader decodes a file in one pass in this process, each line
by orjson. Its rows are written a block at a time into columns sized from a
count of the file's line ends, so the whole file is never held, and a file in
id order is never copied.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, index
from typing import Iterable, Iterator

import numpy as np

PROVENANCE_SEED = "seed"
PROVENANCE_ORACLE = "oracle"
PROVENANCE_PROPAGATED = "propagated"
PROVENANCES = (PROVENANCE_SEED, PROVENANCE_ORACLE, PROVENANCE_PROPAGATED)

# Embeddings are quantized to this grid before fingerprinting, so byte-level
# noise below the grid does not change an item's content identity.
_HASH_QUANTUM = 1e-6

_LABEL_STORE_HEADER = {"kind": "label_store", "schema_version": 1}

# The corpus file's fields: Item's fields in order, and so the Corpus columns'.
_ITEM_FIELDS = (
    "item_id",
    "embedding",
    "account_id",
    "impressions",
    "exact_hash",
    "ground_truth",
)
_LABEL_FIELDS = (
    "item_id",
    "label",
    "provenance",
    "source_item_id",
    "round",
    "distance_to_source",
)

# Mean impressions for active generated items (geometric draw).
_IMPRESSION_MEAN = 20.0

# Every pass over a corpus's rows takes them this many at a time, so a run
# holds its columns and one block's temporaries, never a copy of a column.
_BLOCK_ROWS = 4096


def _blocks(n: int) -> Iterator[slice]:
    """Slices of ``_BLOCK_ROWS`` rows that cover rows 0 to n in order."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _int64(values, what: str) -> np.ndarray:
    """``values`` as int64, never truncated or wrapped: TypeError for floats or bools,
    OverflowError for uint64 values from 2**63."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got {values.dtype}")
    if values.dtype.kind == "u" and values.max(initial=0) >= 2**63:
        raise OverflowError(f"{what} must be below 2**63, got {values.max()}")
    return values.astype(np.int64, copy=False)


def _uint64(values, what: str) -> np.ndarray:
    """``values`` as uint64, exactly: TypeError for floats or bools, OverflowError for
    negative values. A list is checked by value, as numpy infers float64 for [2**63, 1]."""
    if isinstance(values, np.ndarray):
        if values.size and values.dtype.kind not in "iu":
            raise TypeError(f"{what} must be integers, got {values.dtype}")
        if values.min(initial=0) < 0:
            raise OverflowError(f"{what} must be non-negative, got {values.min()}")
        return values.astype(np.uint64, copy=False)
    values = list(values)
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in values):
        raise TypeError(f"{what} must be integers")
    return np.array(list(map(int, values)), dtype=np.uint64)


def _nonnegative(pos) -> np.ndarray:
    """``_int64`` positions; IndexError for a negative one, which numpy would read from the end."""
    pos = _int64(pos, "positions")
    if np.any(pos < 0):
        raise IndexError(f"position {pos[np.argmax(pos < 0)]} is negative")
    return pos


def _index(ids, what: str) -> np.ndarray:
    """``_int64`` ids of a position index; ValueError unless strictly ascending."""
    ids = _int64(ids, f"{what} ids")
    if np.any(ids[1:] <= ids[:-1]):
        raise ValueError(f"{what} ids must be strictly ascending")
    return ids


def _truth(values) -> np.ndarray:
    """An int8 truth column: 1, 0 or -1 (unknown), bools accepted; TypeError for floats."""
    values = np.asarray(values)
    truth = values if values.dtype == bool else _int64(values, "truth")
    if truth.size and not -1 <= truth.min() <= truth.max() <= 1:
        raise ValueError(f"truth must be -1, 0 or 1, got {truth.min()} to {truth.max()}")
    return truth.astype(np.int8, copy=False)


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending field."""


class FormatError(ValueError):
    """Malformed corpus or label-store file."""

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Item:
    """One reviewable content unit: a row of a ``Corpus``, or input to ``Corpus.of``.

    ``ground_truth`` is populated only for synthetic corpora and must never be
    read by funnel logic; it exists so corpora round-trip through files.
    """

    item_id: int
    embedding: np.ndarray
    account_id: int
    impressions: int
    exact_hash: int
    ground_truth: bool | None = None

    def __post_init__(self):
        self.embedding.setflags(write=False)


@dataclass(frozen=True)
class LabelRecord:
    """A policy decision with provenance.

    ``label`` True means policy-violating (the positive class). Propagated
    records carry the item they were copied from and the embedding distance
    to it.
    """

    item_id: int
    label: bool
    provenance: str
    round: int
    source_item_id: int | None = None
    distance_to_source: float | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.provenance == PROVENANCE_PROPAGATED:
            if self.source_item_id is None:
                raise ValueError("propagated record requires source_item_id")
            if self.distance_to_source is None:
                raise ValueError("propagated record requires distance_to_source")
        else:
            if self.source_item_id is not None or self.distance_to_source is not None:
                raise ValueError(
                    f"{self.provenance} record must not carry source_item_id or "
                    "distance_to_source"
                )
        if self.round < 0:
            raise ValueError("round must be non-negative")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic corpus generator.

    ``dup_sigma`` controls how tightly near-duplicates hug their cluster seed
    and must stay well below ``noise_sigma``, the spread of ordinary cluster
    members. ``account_skew`` concentrates positive items on a shrinking pool
    of accounts as it approaches 1.
    """

    n_clusters: int
    cluster_size_mean: float = 10.0
    dup_fraction: float = 0.6
    positive_cluster_rate: float = 0.05
    embedding_dim: int = 64
    noise_sigma: float = 0.05
    dup_sigma: float = 0.01
    n_accounts: int = 1000
    account_skew: float = 0.9
    inactive_rate: float = 0.1
    rng_seed: int = 0

    def validate(self) -> None:
        if self.n_clusters < 0:
            raise ConfigError("n_clusters must be >= 0")
        if not 1 <= self.cluster_size_mean < math.inf:
            raise ConfigError("cluster_size_mean must be finite and >= 1")
        for field_name in ("dup_fraction", "positive_cluster_rate", "inactive_rate", "account_skew"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{field_name} must be in [0, 1]")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if not 0 < self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be finite and > 0")
        if not 0 <= self.dup_sigma:
            raise ConfigError("dup_sigma must be >= 0")
        if self.dup_sigma >= self.noise_sigma:
            raise ConfigError("dup_sigma must be < noise_sigma")
        if self.n_accounts < 1:
            raise ConfigError("n_accounts must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")


@dataclass(frozen=True)
class ClusterInfo:
    """Planted structure of one generated cluster (for evaluation only)."""

    seed_id: int
    member_ids: tuple[int, ...]
    dup_ids: tuple[int, ...]
    positive: bool


_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64


def _scaled(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """(arr, its squared norm), which is 0.0 only for a zero vector.

    A vector whose squared norm overflows or underflows (to zero or to a
    subnormal, which keeps too few bits to give a unit row) is first divided
    by its largest magnitude.
    """
    square = float(np.einsum("i,i->", arr, arr))
    if not _TINY <= square < math.inf:
        top = float(np.max(np.abs(arr), initial=0.0))
        if top != 0.0:
            arr = arr / top
            square = float(np.einsum("i,i->", arr, arr))
    return arr, square


def normalize_embedding(vector) -> np.ndarray:
    """Return the vector scaled to unit L2 norm as a float64 array.

    Vectors that are already unit-norm (within 1e-9) pass through untouched,
    so normalization is idempotent and save/load round-trips are bit-exact.
    A vector whose squared norm overflows or underflows is first scaled by
    its largest magnitude (``_scaled``).
    """
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("embedding must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding contains non-finite values")
    arr, square = _scaled(arr)
    if square == 0.0:
        raise ValueError("embedding must be non-zero")
    norm = math.sqrt(square)
    if abs(norm - 1.0) <= 1e-9:
        return arr.copy()
    return arr / norm


def embedding_fingerprint(embedding: np.ndarray) -> int:
    """64-bit content fingerprint of the embedding quantized to 1e-6."""
    return int(_fingerprints(np.asarray(embedding, dtype=np.float64)[None, :])[0])


def _fingerprints(rows: np.ndarray) -> np.ndarray:
    """Each row's fingerprint, as a little-endian uint64 of its blake2b digest."""
    out = np.empty(len(rows), dtype=np.uint64)
    for block in _blocks(len(rows)):
        digests = b"".join(hashlib.blake2b(q.tobytes(), digest_size=8).digest()
                           for q in np.round(rows[block] / _HASH_QUANTUM).astype(np.int64))
        out[block] = np.frombuffer(digests, dtype="<u8")
    return out


_COLUMN_DTYPES = {
    "ids": np.int64, "embeddings": np.float64, "accounts": np.int64, "impressions": np.int64,
    "hashes": np.uint64, "truth": np.int8,
}


@dataclass(frozen=True, eq=False)
class Corpus:
    """A corpus as read-only columns, one row per item in ascending id order.

    ``embeddings`` is the (n, d) matrix; ``truth`` is 1 or 0 where ground
    truth is known and -1 where it is not, and like ``Item.ground_truth`` is
    read only by the oracle and the evaluator. The constructor sorts the rows
    by id when they are not sorted and rejects a repeated id. An int index
    and iteration give ``Item`` row views; a slice gives a Corpus.
    """

    ids: np.ndarray
    embeddings: np.ndarray
    accounts: np.ndarray
    impressions: np.ndarray
    hashes: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        cols = {"ids": _int64(self.ids, "ids"), "embeddings": np.asarray(self.embeddings, float),
                "accounts": _int64(self.accounts, "accounts"),
                "impressions": _int64(self.impressions, "impressions"),
                "hashes": _uint64(self.hashes, "hashes"), "truth": _truth(self.truth)}
        ids = cols["ids"]
        if np.any(ids[1:] <= ids[:-1]):
            order = np.argsort(ids, kind="stable")
            cols = {name: col[order] for name, col in cols.items()}
            ids = cols["ids"]
            repeated = ids[1:][ids[1:] == ids[:-1]]
            if len(repeated):
                raise ValueError(f"duplicate item_id {repeated[0]}")
        if cols["embeddings"].ndim != 2:
            raise ValueError("embeddings must be an (n, d) matrix")
        for name, col in cols.items():
            if len(col) != len(ids):
                raise ValueError(f"column {name} has {len(col)} rows for {len(ids)} ids")
            col = col.view()
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    @classmethod
    def of(cls, items: Iterable[Item]) -> Corpus:
        """``items`` itself if it is a Corpus, else the Corpus of those Items."""
        if isinstance(items, Corpus):
            return items
        rows = list(map(attrgetter(*_ITEM_FIELDS), items))
        if not rows:
            return cls([], np.empty((0, 0)), [], [], [], [])
        ids, embeddings, *counts, truth = zip(*rows)
        truth = [-1 if known is None else known for known in truth]
        return cls(ids, np.stack(embeddings), *counts, truth)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        cols = [getattr(self, name)[key] for name in _COLUMN_DTYPES]
        if isinstance(key, slice):
            return Corpus(*cols)
        item_id, embedding, *counts, truth = cols
        return Item(int(item_id), embedding, *map(int, counts), None if truth < 0 else bool(truth))

    def __iter__(self) -> Iterator[Item]:
        return (self[k] for k in range(len(self)))

    @cached_property
    def content_hash(self) -> str:
        """Stable hex digest of the rows, independent of file formatting and order.

        Each block gives its rows' integers as digits, then its embeddings as
        little-endian float64 in C order: the stored values, after
        normalisation, so the digits a file spells them with do not matter.
        """
        cols = (self.ids, self.hashes, self.accounts, self.impressions,
                np.where(self.truth < 0, 2, self.truth))
        h = hashlib.blake2b(digest_size=16)
        for block in _blocks(len(self)):
            rows = zip(*(col[block].tolist() for col in cols))
            h.update(b"".join(b"%d,%d,%d,%d,%d;" % row for row in rows))
            h.update(np.ascontiguousarray(self.embeddings[block], dtype="<f8"))
        return h.hexdigest()


class _TruthById(Mapping):
    """Read-only ``{id: bool}`` view of the truth column of a corpus whose ids are 0 to n - 1."""

    def __init__(self, truth: np.ndarray):
        self._truth = truth

    def __getitem__(self, item_id) -> bool:
        row = index(item_id)
        if not 0 <= row < len(self._truth):
            raise KeyError(item_id)
        return bool(self._truth[row])

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __len__(self) -> int:
        return len(self._truth)


def generate_corpus_detailed(
    cfg: GeneratorConfig,
) -> tuple[Corpus, Mapping[int, bool], list[ClusterInfo]]:
    """Generate a clustered synthetic corpus, its truth by id and its clusters.

    Deterministic for a fixed ``rng_seed``. Cluster sizes are 1 + Poisson
    draws so the mean matches ``cluster_size_mean`` exactly; the number of
    positive clusters is pinned to round(rate * n_clusters) so the realized
    positive fraction tracks the configured rate. Item ids count up from 0.
    """
    cfg.validate()
    if cfg.n_clusters == 0:
        return Corpus.of([]), {}, []

    rng = np.random.default_rng(cfg.rng_seed)
    d = cfg.embedding_dim
    if cfg.cluster_size_mean == 1:
        sizes = np.ones(cfg.n_clusters, dtype=np.int64)
    else:
        sizes = 1 + rng.poisson(cfg.cluster_size_mean - 1, size=cfg.n_clusters)
    n_positive = int(round(cfg.positive_cluster_rate * cfg.n_clusters))
    positive_clusters = set(rng.permutation(cfg.n_clusters)[:n_positive].tolist())
    # Positive items concentrate on a shrinking account pool as skew -> 1.
    positive_pool = max(1, int(round((1.0 - cfg.account_skew) * cfg.n_accounts)))

    n = int(sizes.sum())
    emb, truth = np.empty((n, d)), np.empty(n, dtype=np.int8)
    accounts, impressions = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    clusters: list[ClusterInfo] = []
    next_id = 0
    for cluster_idx, size in enumerate(sizes.tolist()):
        rows = slice(next_id, next_id + size)
        center = rng.standard_normal(d)
        dup_flags = rng.random(size - 1) < cfg.dup_fraction
        noise = rng.standard_normal((size - 1, d))
        positive = cluster_idx in positive_clusters
        accounts[rows] = rng.integers(0, positive_pool if positive else cfg.n_accounts, size=size)
        impressions[rows] = rng.geometric(1.0 / _IMPRESSION_MEAN, size=size)
        impressions[rows][rng.random(size) < cfg.inactive_rate] = 0
        truth[rows] = positive

        sigma = np.where(dup_flags, cfg.dup_sigma, cfg.noise_sigma)
        block = emb[rows]
        block[0] = center
        if size > 1:
            block[1:] = center[None, :] + sigma[:, None] * noise
        block /= np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]

        members = range(next_id + 1, next_id + size)
        dups = tuple(i for i, dup in zip(members, dup_flags.tolist()) if dup)
        clusters.append(ClusterInfo(next_id, tuple(members), dups, positive))
        next_id += size
    corpus = Corpus(np.arange(n), emb, accounts, impressions, _fingerprints(emb), truth)
    return corpus, _TruthById(corpus.truth), clusters


def save_corpus(corpus: Iterable[Item], path) -> None:
    """Write a corpus as JSON Lines, one object per item in ascending id order.

    Each row's floats are written by orjson, in the shortest digits that read
    back to them. A row that is not finite, or is zero, would not load: the
    first such item raises ValueError before the file is created.
    """
    import orjson

    corpus = Corpus.of(corpus)
    for block in _blocks(len(corpus)):
        emb = corpus.embeddings[block]
        bad = ~np.isfinite(emb).all(axis=1) | ~emb.any(axis=1)
        if bad.any():
            raise ValueError(f"item_id {corpus.ids[block][bad.argmax()]}: "
                             "embedding must be finite and non-zero")
    rows = zip(
        corpus.ids.tolist(),
        corpus.accounts.tolist(),
        corpus.impressions.tolist(),
        map(str, corpus.hashes.tolist()),
        [None if truth < 0 else bool(truth) for truth in corpus.truth.tolist()],
    )
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    with open(path, "wb") as fh:
        for block in _blocks(len(corpus)):
            # orjson writes C-contiguous rows only; at most one block is copied
            for embedding, (item_id, *rest) in zip(
                    np.ascontiguousarray(corpus.embeddings[block]), rows):
                doc = dict(zip(_ITEM_FIELDS, (item_id, embedding, *rest)))
                fh.write(orjson.dumps(doc, option=option))


def _require_int(doc: dict, key: str, line: int, minimum: int = 0) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"field {key} must be an integer", line)
    if value < minimum:
        raise FormatError(f"field {key} must be >= {minimum}", line)
    if value >= 1 << 63:
        raise FormatError(f"field {key} out of int64 range", line)
    return value


def _require_hash(value, line: int) -> int:
    if not isinstance(value, str) or not (value.isascii() and value.isdigit()):
        raise FormatError("field exact_hash must be a uint64 string", line)
    digits = value.lstrip("0")
    if len(digits) > 20 or int(digits or "0") >= 1 << 64:
        raise FormatError("field exact_hash out of uint64 range", line)
    return int(digits or "0")


def _utf8(raw: bytes, line: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid UTF-8 ({exc.reason})", line) from exc


def _lines(fh) -> Iterator[tuple[int, bytes | str]]:
    """(line number, line) of each line of the binary file ``fh``.

    As in text mode, a line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``. A
    run of bytes up to a ``\\n`` that holds a ``\\r`` is decoded as text and
    split, and invalid UTF-8 in it cites its first line; other lines stay bytes.
    """
    line_no = 0
    for raw in fh:
        if b"\r" not in raw:
            line_no += 1
            yield line_no, raw
            continue
        text = _utf8(raw, line_no + 1)
        *ended, last = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for part in ended:
            line_no += 1
            yield line_no, part + "\n"
        if last:
            line_no += 1
            yield line_no, last


def _line_count(path) -> int:
    """At least the number of lines in the file, counted without holding it."""
    count = 1
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            count += block.count(b"\n")
            if b"\r" in block:
                count += block.count(b"\r") - block.count(b"\r\n")
    return count


def _values(fh) -> Iterator[tuple[int, object]]:
    """(line number, JSON value) of each line of the binary file ``fh`` that is not blank.

    orjson refuses NaN and Infinity (not JSON under RFC 8259), numbers beyond
    float64 and lone surrogates, and reads an integer from 2**64, or below
    -2**63, as a float.
    """
    from orjson import JSONDecodeError, loads

    for line_no, line in _lines(fh):
        try:
            value = loads(line)
        except JSONDecodeError as exc:
            if isinstance(line, bytes):
                line = _utf8(line, line_no)
            if line.isspace():
                continue
            raise FormatError(f"invalid JSON ({exc.msg} at column {exc.colno})", line_no) from exc
        yield line_no, value


def _check_fields(doc, fields: frozenset, line: int) -> None:
    """Raise unless ``doc`` is a JSON object with exactly ``fields``."""
    if not isinstance(doc, dict):
        raise FormatError("record must be a JSON object", line)
    if doc.keys() != fields:
        unknown = doc.keys() - fields
        if unknown:
            raise FormatError(f"unknown field {sorted(unknown)[0]!r}", line)
        raise FormatError(f"missing field {sorted(fields - doc.keys())[0]!r}", line)


def _duplicate(item_id: int, line: int, first: int) -> FormatError:
    return FormatError(f"duplicate item_id {item_id} (first on line {first})", line)


_ITEM_KEYS = frozenset(_ITEM_FIELDS)
# Schema 1 files carry this key on every line, always 0 and read by nothing;
# the loader checks it as schema 1 did, so it refuses no less, and drops it.
_DROPPED_KEY = "created_round"
_LABEL_KEYS = frozenset(_LABEL_FIELDS)
# The columns of each row's line number and scalar fields, in the order of
# the lists ``load_corpus`` collects them in.
_ROW_DTYPES = {"lines": np.int64, **{name: _COLUMN_DTYPES[name] for name in (
    "ids", "hashes", "truth", "accounts", "impressions")}}


def _normalized_row(row, line: int) -> np.ndarray:
    try:
        return normalize_embedding(row)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(str(exc), line) from exc


def _numbers(row: list, line: int) -> list:
    """``row`` if its elements are all JSON numbers, which decode as int or float."""
    if not all(type(x) is float or type(x) is int for x in row):
        raise FormatError("embedding elements must be numbers", line)
    return row


def _embedding_block(rows: list, lines: list[int]) -> np.ndarray:
    """``rows`` as a float64 matrix, each row as ``normalize_embedding`` gives it.

    The first bad row raises its ``FormatError``. Rows whose norm is within
    0.5e-9 of 1 pass through, which ``normalize_embedding`` also does, as the
    matrix and the per-row norms differ by rounding far below that margin; the
    rest go through ``normalize_embedding`` itself, so every row is bit-exact.
    """
    try:
        block = np.array(rows)
        numeric = block.ndim == 2 and block.dtype.kind in "if"
    except (TypeError, ValueError, OverflowError):
        numeric = False
    if numeric:
        block = block.astype(np.float64, copy=False)
    if not numeric or not np.isfinite(block).all():
        return np.stack([_normalized_row(_numbers(row, line), line)
                         for row, line in zip(rows, lines)])
    norms = np.sqrt(np.einsum("ij,ij->i", block, block))
    off = np.abs(norms - 1.0) > 0.5e-9
    # true and false load as 1 and 0 (bool is an int), so only rows holding
    # a 1 or a 0 can hide one
    for k in np.flatnonzero(off | ((block == 0.0) | (block == 1.0)).any(axis=1)).tolist():
        _numbers(rows[k], lines[k])
        if off[k]:
            block[k] = _normalized_row(block[k], lines[k])
    return block


def _first_duplicate(ids: np.ndarray, lines: np.ndarray) -> FormatError | None:
    """The error of the lowest line repeating an earlier line's id, if any."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    repeats = np.flatnonzero(ranked[1:] == ranked[:-1]) + 1
    if not len(repeats):
        return None
    k = repeats[np.argmin(lines[order[repeats]])]
    first = order[np.searchsorted(ranked, ranked[k])]
    return _duplicate(int(ranked[k]), int(lines[order[k]]), int(lines[first]))


def load_corpus(path) -> Corpus:
    """Load a JSON Lines corpus, re-normalizing embeddings on ingestion.

    Rows are sorted by id, so neither the file's formatting nor its line
    order changes the corpus or its content hash. The file is decoded in one
    pass, its rows written a block at a time into columns sized by
    ``_line_count``; a bad file raises the fault on its lowest line. The
    duplicate-id check runs over the ids read, so a repeated id wins over a
    fault on a later line, or on its own line.
    """
    n = _line_count(path)
    cols = {name: np.empty(n, dtype) for name, dtype in _ROW_DTYPES.items()}
    pending = tuple([] for _ in cols)
    lines, ids, hashes, truth, accounts, impressions = pending
    rows: list[list] = []
    emb = np.empty((0, 0))
    done, fault = 0, None

    def flush():
        nonlocal done
        if rows:
            end = done + len(rows)
            emb[done:end] = _embedding_block(rows, lines)
            for col, values in zip(cols.values(), pending):
                col[done:end] = values
                values.clear()
            rows.clear()
            done = end

    with open(path, "rb") as fh:
        try:
            for line_no, doc in _values(fh):
                if isinstance(doc, dict) and _DROPPED_KEY in doc:
                    _require_int(doc, _DROPPED_KEY, line_no)
                    del doc[_DROPPED_KEY]
                _check_fields(doc, _ITEM_KEYS, line_no)
                ids.append(_require_int(doc, "item_id", line_no))
                lines.append(line_no)
                embedding = doc["embedding"]
                if not isinstance(embedding, list) or not embedding:
                    raise FormatError("field embedding must be a non-empty array", line_no)
                if not emb.shape[1]:
                    emb = np.empty((n, len(embedding)))
                elif len(embedding) != emb.shape[1]:
                    raise FormatError(
                        f"embedding dimension {len(embedding)} != {emb.shape[1]} "
                        "from earlier records", line_no,
                    )
                rows.append(embedding)
                hashes.append(_require_hash(doc["exact_hash"], line_no))
                ground_truth = doc["ground_truth"]
                if ground_truth is not None and not isinstance(ground_truth, bool):
                    raise FormatError("field ground_truth must be a boolean or null", line_no)
                truth.append(-1 if ground_truth is None else ground_truth)
                accounts.append(_require_int(doc, "account_id", line_no))
                impressions.append(_require_int(doc, "impressions", line_no))
                if len(rows) == _BLOCK_ROWS:
                    flush()
            flush()
        except FormatError as exc:
            fault = exc
            if rows:
                try:  # an embedding on the fault's line or before it comes first
                    _embedding_block(rows, lines)
                except FormatError as earlier:
                    fault = earlier
    read = done + len(ids)
    cols["ids"][done:read], cols["lines"][done:read] = ids, lines
    duplicate = _first_duplicate(cols["ids"][:read], cols["lines"][:read])
    if duplicate and (not fault or duplicate.line <= fault.line):
        raise duplicate
    if fault:
        raise fault
    cols["embeddings"] = emb
    return Corpus(*(cols[name][:done] for name in _COLUMN_DTYPES))


def save_labels(records: Iterable[LabelRecord], path) -> None:
    """Write a label store as JSON Lines with a leading header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_LABEL_STORE_HEADER, separators=(",", ":")) + "\n")
        for rec in records:
            doc = {name: getattr(rec, name) for name in _LABEL_FIELDS}
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_labels(path) -> list[LabelRecord]:
    """Load a label store; order-preserving inverse of save_labels."""
    records: list[LabelRecord] = []
    seen: dict[int, int] = {}
    with open(path, "rb") as fh:
        values = _values(fh)
        first = next(values, None)
        if first is None:
            raise FormatError("missing label store header", 1)
        if first != (1, _LABEL_STORE_HEADER):
            raise FormatError("unrecognized label store header", 1)
        for line_no, doc in values:
            _check_fields(doc, _LABEL_KEYS, line_no)
            item_id = _require_int(doc, "item_id", line_no)
            if item_id in seen:
                raise _duplicate(item_id, line_no, seen[item_id])
            seen[item_id] = line_no
            if not isinstance(doc["label"], bool):
                raise FormatError("field label must be a boolean", line_no)
            distance = doc["distance_to_source"]
            # a bool is no number
            if distance is not None and (type(distance) not in (int, float)
                                         or not 0.0 <= distance <= 2.0):
                raise FormatError("field distance_to_source must be a number in [0, 2]", line_no)
            if doc["source_item_id"] is not None:
                _require_int(doc, "source_item_id", line_no)
            _require_int(doc, "round", line_no)
            if distance is not None:
                doc["distance_to_source"] = float(distance)
            if not isinstance(doc["provenance"], str):
                doc["provenance"] = ""
            try:
                records.append(LabelRecord(**doc))
            except ValueError as exc:
                raise FormatError(str(exc), line_no) from exc
    return records
