"""Expensive-labeler abstraction, the simulated oracle, the append-only
known-label store, and near-duplicate label propagation.

The oracle is the only component allowed to see ground truth (through the
simulated implementation); verdicts are keyed by (seed, item_id) so results
do not depend on batching or call order.

The store covers a run's position index, its ascending item ids. It keeps
its writes in order as the columns of a ``LabelBatch`` and beside them
per-position label, reviewed and round arrays, so the funnel reads the
labels as mask gathers; account counts and exact-hash matches are derived
per call, so ``abort_round`` need only truncate the columns and reset the
positions it drops. The review and propagation stages take positions and
return a ``LabelBatch``; records, with ids, are built only on demand.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import (
    LabelRecord,
    PROVENANCE_ORACLE,
    PROVENANCE_PROPAGATED,
    PROVENANCES,
    embedding_fingerprint,
)
from .corpus import _index, _int64, _nonnegative, _truth
from .simgraph import SimilarityGraph, positions


class AlreadyLabeledError(RuntimeError):
    """An item was offered to the oracle or store twice; a caller bug."""


class Oracle(ABC):
    """Binary policy labeler with per-item cost accounting.

    Implementations receive (item_id, embedding) pairs and return one boolean
    verdict per item. Callers must not consult the oracle for items already
    in the label store.
    """

    def __init__(self, unit_cost: float = 1.0):
        if not 0.0 <= unit_cost < math.inf:
            raise ValueError(f"unit_cost must be finite and >= 0, got {unit_cost}")
        self.unit_cost = unit_cost
        self._items_labeled = 0

    @property
    def items_labeled(self) -> int:
        return self._items_labeled

    @property
    def cost_so_far(self) -> float:
        return self._items_labeled * self.unit_cost

    def label_batch(
        self, batch: Sequence[tuple[int, np.ndarray | None]]
    ) -> list[bool]:
        verdicts = self._judge(batch)
        if len(verdicts) != len(batch):
            raise RuntimeError("oracle returned wrong number of verdicts")
        self._items_labeled += len(batch)
        return verdicts

    @abstractmethod
    def _judge(self, batch: Sequence[tuple[int, np.ndarray | None]]) -> list[bool]:
        ...


class SimulatedOracle(Oracle):
    """Ground-truth oracle corrupted by configurable error rates.

    ``ids`` are strictly ascending and ``truth`` holds each one's ground
    truth: 1 or 0, or -1 where it is not known, as ``Corpus.truth`` does. A
    true positive is labeled positive with probability ``tpr``; a true
    negative is labeled negative with probability ``tnr``. The draw for an
    item depends only on (rng_seed, item_id), so verdicts are stable across
    calls, batch splits, and parallel execution.
    """

    def __init__(
        self,
        tpr: float,
        tnr: float,
        rng_seed: int,
        ids,
        truth,
        unit_cost: float = 1.0,
    ):
        if not 0.0 <= tpr <= 1.0:
            raise ValueError("tpr must be in [0, 1]")
        if not 0.0 <= tnr <= 1.0:
            raise ValueError("tnr must be in [0, 1]")
        super().__init__(unit_cost)
        self.tpr = tpr
        self.tnr = tnr
        self.rng_seed = rng_seed
        self._ids = _index(ids, "oracle")
        self._truth = _truth(truth)
        if self._truth.shape != self._ids.shape:
            raise ValueError(f"truth has {len(self._truth)} rows for {len(self._ids)} ids")

    def _judge(self, batch):
        item_ids = [item_id for item_id, _embedding in batch]
        try:
            truth = self._truth[positions(self._ids, item_ids)]
        except KeyError:  # an id with no row
            truth = None
        if truth is None or np.any(truth < 0):  # name the first, in batch order, without truth
            lacking = np.isin(item_ids, self._ids[self._truth >= 0], invert=True)
            item_id = item_ids[np.argmax(lacking)]
            raise KeyError(f"simulated oracle has no ground truth for item {item_id}")
        verdicts = []
        for item_id, positive in zip(item_ids, truth.tolist()):
            draw = np.random.default_rng((self.rng_seed, item_id)).random()
            verdicts.append(bool(draw < self.tpr) if positive else bool(draw >= self.tnr))
        return verdicts


class HttpOracle(Oracle):
    """Remote labeler adapter: batched POSTs with retry/backoff.

    Each item carries a stable idempotency key derived from its id and
    embedding fingerprint, so the remote side can cache verdicts across
    retries. The endpoint must accept ``{"items": [{"item_id", "embedding",
    "idempotency_key"}, ...]}`` and answer ``{"verdicts": [{"item_id",
    "label"}, ...]}``.
    """

    def __init__(
        self,
        endpoint: str,
        unit_cost: float = 1.0,
        batch_size: int = 32,
        max_retries: int = 3,
        backoff_base: float = 0.2,
        timeout: float = 10.0,
    ):
        super().__init__(unit_cost)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if not 0.0 <= backoff_base < math.inf:
            raise ValueError(f"backoff_base must be finite and >= 0, got {backoff_base}")
        if not 0.0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {timeout}")
        self.endpoint = endpoint
        self.batch_size = batch_size
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout

    def _judge(self, batch):
        import requests

        verdicts: dict[int, bool] = {}
        for start in range(0, len(batch), self.batch_size):
            chunk = batch[start : start + self.batch_size]
            payload = {
                "items": [
                    {
                        "item_id": item_id,
                        "embedding": None if emb is None else list(map(float, emb)),
                        "idempotency_key": self._idempotency_key(item_id, emb),
                    }
                    for item_id, emb in chunk
                ]
            }
            doc = self._post_with_retry(requests, payload)
            rows = doc.get("verdicts") if isinstance(doc, dict) else None
            if not isinstance(rows, list) or not all(
                    isinstance(v, dict) and v.keys() >= {"item_id", "label"} for v in rows):
                raise RuntimeError('remote labeler answered other than {"verdicts": '
                                   '[{"item_id": ..., "label": ...}, ...]}')
            pairs = [(v["item_id"], v["label"]) for v in rows]
            for item_id, label in pairs:  # type(), as isinstance takes a bool for an int
                if type(item_id) is not int or type(label) is not bool:
                    raise RuntimeError(f"remote labeler returned label {label!r} for item "
                                       f"{item_id!r}: not a JSON boolean for a JSON integer")
            got = dict(pairs)
            asked = {item_id for item_id, _ in chunk}
            extra = sorted(got.keys() - asked)
            if extra:
                raise RuntimeError(f"remote labeler returned verdicts for unasked items {extra}")
            if len(got) < len(pairs):
                repeated = sorted(i for i, n in Counter(i for i, _ in pairs).items() if n > 1)
                raise RuntimeError(f"remote labeler returned duplicate verdicts for {repeated}")
            missing = [item_id for item_id, _ in chunk if item_id not in got]
            if missing:
                raise RuntimeError(f"remote labeler omitted verdicts for {missing}")
            verdicts.update(got)
        return [verdicts[item_id] for item_id, _ in batch]

    def _post_with_retry(self, requests, payload: dict) -> dict:
        """One POST's answer, retrying transport faults, 5xx, 408 and 429; other 4xx fail."""
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                response = requests.post(
                    self.endpoint, json=payload, timeout=self.timeout
                )
                status = response.status_code
                if status < 400:
                    return response.json()
            except Exception as exc:  # noqa: BLE001 - retry on any transport fault
                last_error = exc
            else:
                if status < 500 and status not in (408, 429):
                    raise RuntimeError(f"remote labeler refused the request: status {status}")
                last_error = RuntimeError(f"status {status}")
            if attempt < self.max_retries:
                time.sleep(self.backoff_base * (2**attempt))
        raise RuntimeError(f"remote labeler failed after retries: {last_error}")

    @staticmethod
    def _idempotency_key(item_id: int, embedding: np.ndarray | None) -> str:
        fp = 0 if embedding is None else embedding_fingerprint(embedding)
        return f"{item_id:d}-{fp:016x}"


# provenance codes: each provenance's index in PROVENANCES
_ORACLE = PROVENANCES.index(PROVENANCE_ORACLE)
_PROPAGATED = PROVENANCES.index(PROVENANCE_PROPAGATED)


@dataclass(frozen=True, eq=False)
class LabelBatch:
    """Label writes as columns over a store's positions, in write order.

    ``provenance`` holds codes into ``PROVENANCES``; ``source`` is the
    position a propagated label was copied from (-1 for none) and
    ``distance`` its distance to it (NaN for none).
    """

    pos: np.ndarray
    label: np.ndarray
    provenance: np.ndarray
    round: np.ndarray
    source: np.ndarray
    distance: np.ndarray

    @classmethod
    def of(cls, pos, label, provenance, round_no, source=None, distance=None):
        """A batch whose provenance and round may each be one value for every row."""
        n = len(pos)
        return cls(_int64(pos, "positions"), _truth(label, "labels", lowest=0).astype(bool),
                   np.full(n, provenance, dtype=np.int8), np.full(n, _int64(round_no, "rounds")),
                   np.full(n, -1, dtype=np.int64) if source is None else source,
                   np.full(n, np.nan) if distance is None else distance)

    def __len__(self) -> int:
        return len(self.pos)

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.pos, self.label, self.provenance, self.round, self.source, self.distance

    def rows(self, index) -> LabelBatch:
        return LabelBatch(*(column[index] for column in self.columns()))

    def records(self, ids: np.ndarray) -> list[LabelRecord]:
        """The rows as records, each position read as its id in ``ids``."""
        copied = self.provenance == _PROPAGATED
        return [
            LabelRecord(i, label, PROVENANCES[p], r, s if c else None, d if c else None)
            for i, label, p, r, c, s, d in zip(*(column.tolist() for column in (
                ids[self.pos], self.label, self.provenance, self.round, copied,
                ids[self.source], self.distance)))
        ]


class KnownStore:
    """Append-only label store with first-writer-wins semantics.

    ``ids`` is the position index, strictly ascending; ``accounts`` and
    ``hashes``, when given, hold each position's account and exact hash.
    Callers read, never write, the per-position arrays ``labels`` (int8, -1
    unlabelled), ``reviewed``, ``rounds`` (-1 unlabelled) and
    ``account_codes``, each position's index into the distinct ``accounts``
    (one past the end for no account).

    ``write(LabelBatch)`` is the one write, by position; ``written`` (the
    columns) and ``records`` (with ids) are the reads of what was written.
    The writes are kept in order as the six columns of a ``LabelBatch``; a
    position is written at most once, so the columns are sized to the index.
    Writes during a round are staged: visible to reads, but permanent only
    on commit, giving the pipeline round atomicity. Committed writes are
    never changed or removed.
    """

    def __init__(self, ids, accounts=None, hashes=None):
        self.ids = _index(ids, "store")
        self.accounts, self.account_codes = _codes(accounts, len(self.ids))
        self._hashes, self._hash_codes = _codes(hashes, len(self.ids))
        n = len(self.ids)
        self.labels = np.full(n, -1, dtype=np.int8)
        self.reviewed = np.zeros(n, dtype=bool)
        self.rounds = np.full(n, -1, dtype=np.int64)
        self._log = LabelBatch(*(np.empty(n, dtype=dtype) for dtype in (
            np.int64, bool, np.int8, np.int64, np.int64, np.float64)))
        self._size = 0
        self._staged_from: int | None = None

    def __len__(self) -> int:
        return self._size

    def written(self) -> LabelBatch:
        """Every visible write (committed plus staged), in write order, as views."""
        return self._log.rows(slice(0, self._size))

    def records(self) -> list[LabelRecord]:
        """All visible records (committed plus staged), in write order."""
        return self.written().records(self.ids)

    def hash_match(self, pos: np.ndarray) -> np.ndarray:
        """Lowest reviewed position sharing each position's exact hash, or -1."""
        reviewed = np.flatnonzero(self.reviewed)
        codes, lowest = np.unique(self._hash_codes[reviewed], return_index=True)
        match = np.full(len(self._hashes) + 1, -1, dtype=np.int64)
        match[codes] = reviewed[lowest]
        match[-1] = -1  # the slot of items without a hash
        return match[self._hash_codes[pos]]

    def require_unlabeled(self, pos, what: str = "item") -> np.ndarray:
        """``pos`` as int64 if all are new: IndexError for a negative position, and
        AlreadyLabeledError naming the first repeated or labelled ``what`` by id."""
        pos = _nonnegative(pos)
        repeat = np.ones(len(pos), dtype=bool)
        repeat[np.unique(pos, return_index=True)[1]] = False
        bad = repeat | (self.labels[pos] >= 0)
        if bad.any():
            raise AlreadyLabeledError(f"{what} {self.ids[pos[np.argmax(bad)]]} already labeled")
        return pos

    def write(self, batch: LabelBatch) -> None:
        """Append a batch in order, or none of it if a position is already labelled, its
        columns differ in length, a provenance is no code of ``PROVENANCES``, a round
        is negative or a source is neither a position nor -1."""
        pos = self.require_unlabeled(batch.pos)
        if any(len(column) != len(pos) for column in batch.columns()):
            raise ValueError("label batch columns differ in length")
        if not np.all((batch.provenance >= 0) & (batch.provenance < len(PROVENANCES))):
            raise ValueError(f"label batch provenance codes must index {PROVENANCES}")
        if np.any(_int64(batch.round, "label batch rounds") < 0):
            raise ValueError("label batch rounds must be non-negative")
        source = _int64(batch.source, "label batch sources")
        if not np.all((source >= -1) & (source < len(self.ids))):
            raise ValueError("label batch sources must be store positions or -1")
        end = self._size + len(pos)
        for column, values in zip(self._log.columns(), batch.columns()):
            column[self._size : end] = values
        self.labels[pos] = batch.label
        self.reviewed[pos] = batch.provenance == _ORACLE
        self.rounds[pos] = batch.round
        self._size = end

    def begin_round(self) -> None:
        if self._staged_from is not None:
            raise RuntimeError("round already in progress")
        self._staged_from = self._size

    def commit_round(self) -> None:
        if self._staged_from is None:
            raise RuntimeError("no round in progress")
        self._staged_from = None

    def abort_round(self) -> None:
        """Discard staged writes, restoring the pre-round store exactly."""
        if self._staged_from is None:
            raise RuntimeError("no round in progress")
        staged = self._log.pos[self._staged_from : self._size]
        self.labels[staged], self.reviewed[staged], self.rounds[staged] = -1, False, -1
        self._size, self._staged_from = self._staged_from, None


def _codes(values, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values and each position's index into them (one past the end if None)."""
    if values is None:
        return np.empty(0, dtype=np.int64), np.zeros(n, dtype=np.int64)
    distinct, codes = np.unique(np.asarray(values), return_inverse=True)
    if len(codes) != n:
        raise ValueError("store columns need one value per id")
    return distinct, codes


def oracle_label(
    representatives,
    oracle: Oracle,
    store: KnownStore,
    round_no: int,
    embeddings: np.ndarray | None = None,
) -> LabelBatch:
    """Review ``representatives``, store positions, and store the verdicts in order.

    The oracle receives each representative's id and, when ``embeddings``
    (one row per store position) is given, its row (else None).
    """
    pos = store.require_unlabeled(representatives, "representative")
    verdicts = []
    if len(pos):
        rows = embeddings[pos] if embeddings is not None else [None] * len(pos)
        verdicts = oracle.label_batch(list(zip(store.ids[pos].tolist(), rows)))
    reviews = LabelBatch.of(pos, verdicts, _ORACLE, round_no)
    store.write(reviews)
    return reviews


def propagate_labels(
    sources: LabelBatch,
    graph: SimilarityGraph,
    theta_prop: float,
    store: KnownStore,
    round_no: int,
    dup_routed: np.ndarray | None = None,
) -> LabelBatch:
    """Copy fresh labels to unlabeled near-duplicates, one hop only.

    Every unlabeled item within theta_prop of a source receives that
    source's label. Items routed here by cross-round dedup, the (m, 2)
    position array ``dup_routed`` of [item, matched known item], get the
    matched item's label. When several sources reach the same item the
    nearest wins, an exact distance tie goes to the positive label, and any
    remaining tie goes to the lowest source.
    """
    copied = sources.provenance == _PROPAGATED
    if copied.any():
        raise ValueError(f"propagation source {store.ids[sources.pos[np.argmax(copied)]]} has"
                         f" provenance {PROVENANCE_PROPAGATED}; only seed/oracle records may"
                         " propagate")
    graph.require_index(store.ids)
    # one offer per (target, source) pair: its distance and the source's label
    row, target, dist = graph.gather(sources.pos, theta_prop)
    offers = [(target, dist, sources.label[row], sources.pos[row])]
    if dup_routed is not None:
        item, match = dup_routed[store.labels[dup_routed[:, 0]] < 0].T
        known = store.labels[match]
        if np.any(known < 0):
            k = np.argmax(known < 0)
            raise KeyError(f"routed duplicate target {store.ids[item[k]]} "
                           f"matched unknown item {store.ids[match[k]]}")
        offers.append((item, graph.pair_distances(item, match), known == 1, match))
    target, dist, label, source = (np.concatenate(part) for part in zip(*offers))
    # per unlabelled target: nearest first, then the positive label, then the
    # lowest source; positions sort as their ascending ids do
    order = np.lexsort((source, ~label, dist, target))
    order = order[store.labels[target[order]] < 0]
    pick = order[np.flatnonzero(np.diff(target[order], prepend=-1))]
    propagated = LabelBatch.of(target[pick], label[pick], _PROPAGATED, round_no,
                               source[pick], dist[pick])
    store.write(propagated)
    return propagated


def feedback_seeds(store: KnownStore, round_no: int) -> np.ndarray:
    """Positions of all positive-labeled items as of the end of the given round."""
    return np.flatnonzero((store.labels == 1) & (store.rounds <= round_no))
