"""Expensive-labeler abstraction, the simulated oracle, the append-only
known-label store, and near-duplicate label propagation.

The oracle is the only component allowed to see ground truth (through the
simulated implementation); verdicts are keyed by (seed, item_id) so results
do not depend on batching or call order.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    Item,
    LabelRecord,
    PROVENANCE_ORACLE,
    PROVENANCE_PROPAGATED,
    PROVENANCE_SEED,
    embedding_fingerprint,
)
from .funnel import CoveragePlan
from .simgraph import SimilarityGraph


class AlreadyLabeledError(RuntimeError):
    """An item was offered to the oracle or store twice; a caller bug."""


class Oracle(ABC):
    """Binary policy labeler with per-item cost accounting.

    Implementations receive (item_id, embedding) pairs and return one boolean
    verdict per item. Callers must not consult the oracle for items already
    in the label store.
    """

    def __init__(self, unit_cost: float = 1.0):
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

    A true positive is labeled positive with probability ``tpr``; a true
    negative is labeled negative with probability ``tnr``. The draw for an
    item depends only on (rng_seed, item_id), so verdicts are stable across
    calls, batch splits, and parallel execution.
    """

    def __init__(
        self,
        tpr: float,
        tnr: float,
        rng_seed: int,
        ground_truth: Mapping[int, bool],
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
        self._truth = ground_truth

    def _judge(self, batch):
        verdicts = []
        for item_id, _embedding in batch:
            try:
                truth = self._truth[item_id]
            except KeyError:
                raise KeyError(
                    f"simulated oracle has no ground truth for item {item_id}"
                ) from None
            draw = np.random.default_rng((self.rng_seed, item_id)).random()
            verdicts.append(bool(draw < self.tpr) if truth else bool(draw >= self.tnr))
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
            got = {int(v["item_id"]): bool(v["label"]) for v in doc["verdicts"]}
            missing = [item_id for item_id, _ in chunk if item_id not in got]
            if missing:
                raise RuntimeError(f"remote labeler omitted verdicts for {missing}")
            verdicts.update(got)
        return [verdicts[item_id] for item_id, _ in batch]

    def _post_with_retry(self, requests, payload: dict) -> dict:
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                response = requests.post(
                    self.endpoint, json=payload, timeout=self.timeout
                )
                if response.status_code >= 500:
                    raise RuntimeError(f"server error {response.status_code}")
                response.raise_for_status()
                return response.json()
            except Exception as exc:  # noqa: BLE001 - retry on any transport fault
                last_error = exc
                if attempt < self.max_retries:
                    time.sleep(self.backoff_base * (2**attempt))
        raise RuntimeError(f"remote labeler failed after retries: {last_error}")

    @staticmethod
    def _idempotency_key(item_id: int, embedding: np.ndarray | None) -> str:
        fp = 0 if embedding is None else embedding_fingerprint(embedding)
        return f"{item_id:d}-{fp:016x}"


class KnownStore:
    """Append-only label store with first-writer-wins semantics.

    Writes during a round go to a staging buffer that is visible to reads but
    only becomes permanent on commit, giving the pipeline round atomicity.
    Committed records are never mutated or removed.
    """

    def __init__(self, accounts: Mapping[int, int] | None = None):
        self._accounts = dict(accounts) if accounts else {}
        self._committed: list[LabelRecord] = []
        self._staged: list[LabelRecord] | None = None
        self._by_id: dict[int, LabelRecord] = {}
        self._reviewed: set[int] = set()
        self._positive: set[int] = set()
        self._by_account: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._by_id

    def get(self, item_id: int) -> LabelRecord | None:
        return self._by_id.get(item_id)

    def records(self) -> list[LabelRecord]:
        """All visible records (committed plus staged), in write order."""
        if self._staged is None:
            return list(self._committed)
        return self._committed + self._staged

    def reviewed_ids(self) -> set[int]:
        return set(self._reviewed)

    def positive_ids(self) -> set[int]:
        return set(self._positive)

    def labeled_ids_by_account(self, account_id: int) -> set[int]:
        return set(self._by_account.get(account_id, ()))

    def account_label_counts(self) -> dict[int, tuple[int, int]]:
        """(labeled, positive) item counts of every account with a label.

        Only items in the accounts map given at construction are counted.
        """
        return {
            account: (len(ids), len(ids & self._positive))
            for account, ids in self._by_account.items()
        }

    def add(self, record: LabelRecord) -> None:
        if record.item_id in self._by_id:
            raise AlreadyLabeledError(f"item {record.item_id} already labeled")
        target = self._committed if self._staged is None else self._staged
        target.append(record)
        self._index(record)

    def _index(self, record: LabelRecord) -> None:
        self._by_id[record.item_id] = record
        if record.provenance == PROVENANCE_ORACLE:
            self._reviewed.add(record.item_id)
        if record.label:
            self._positive.add(record.item_id)
        account = self._accounts.get(record.item_id)
        if account is not None:
            self._by_account.setdefault(account, set()).add(record.item_id)

    def begin_round(self) -> None:
        if self._staged is not None:
            raise RuntimeError("round already in progress")
        self._staged = []

    def commit_round(self) -> None:
        if self._staged is None:
            raise RuntimeError("no round in progress")
        self._committed.extend(self._staged)
        self._staged = None

    def abort_round(self) -> None:
        """Discard staged writes, restoring the pre-round store exactly."""
        if self._staged is None:
            raise RuntimeError("no round in progress")
        self._staged = None
        self._by_id = {}
        self._reviewed = set()
        self._positive = set()
        self._by_account = {}
        for record in self._committed:
            self._index(record)


def oracle_label(
    plan: CoveragePlan,
    oracle: Oracle,
    store: KnownStore,
    round_no: int,
    items_index: Mapping[int, Item] | None = None,
) -> list[LabelRecord]:
    """Send the plan's representatives to the oracle and store the verdicts."""
    for rep in plan.representatives:
        if rep in store:
            raise AlreadyLabeledError(f"representative {rep} already labeled")
    if not plan.representatives:
        return []
    batch = [
        (rep, items_index[rep].embedding if items_index is not None else None)
        for rep in plan.representatives
    ]
    verdicts = oracle.label_batch(batch)
    records = []
    for rep, verdict in zip(plan.representatives, verdicts):
        record = LabelRecord(
            item_id=rep, label=verdict, provenance=PROVENANCE_ORACLE, round=round_no
        )
        store.add(record)
        records.append(record)
    return records


def propagate_labels(
    new_records: Sequence[LabelRecord],
    graph: SimilarityGraph,
    theta_prop: float,
    store: KnownStore,
    round_no: int,
    dup_routed: Mapping[int, int] | None = None,
) -> list[LabelRecord]:
    """Copy fresh labels to unlabeled near-duplicates, one hop only.

    Every unlabeled item within theta_prop of a source record receives that
    record's label. Items routed here by cross-round dedup get the label of
    their matched known item. When several sources reach the same item the
    nearest wins, an exact distance tie goes to the positive label, and any
    remaining tie goes to the lowest source id.
    """
    for record in new_records:
        if record.provenance not in (PROVENANCE_SEED, PROVENANCE_ORACLE):
            raise ValueError(
                f"propagation source {record.item_id} has provenance "
                f"{record.provenance}; only seed/oracle records may propagate"
            )
    # offer sort key: (distance, negative-label-after-positive, source id)
    offers: dict[int, list[tuple[float, int, int]]] = {}
    labels: dict[int, bool] = {}

    def offer(target: int, dist: float, label: bool, source: int) -> None:
        offers.setdefault(target, []).append((dist, 0 if label else 1, source))
        labels[source] = label

    sources = sorted(new_records, key=lambda r: r.item_id)
    row, nbr_ids, dists = graph.neighbors_batch(
        [r.item_id for r in sources], theta_prop
    )
    for r, nid, dist in zip(row.tolist(), nbr_ids.tolist(), dists.tolist()):
        if nid not in store:
            offer(nid, dist, sources[r].label, sources[r].item_id)
    if dup_routed:
        for target in sorted(dup_routed):
            if target in store:
                continue
            known_id = dup_routed[target]
            known = store.get(known_id)
            if known is None:
                raise KeyError(f"routed duplicate target {target} matched unknown "
                               f"item {known_id}")
            offer(target, graph.distance(target, known_id), known.label, known_id)

    propagated: list[LabelRecord] = []
    for target in sorted(offers):
        dist, _, source = min(offers[target])
        record = LabelRecord(
            item_id=target,
            label=labels[source],
            provenance=PROVENANCE_PROPAGATED,
            round=round_no,
            source_item_id=source,
            distance_to_source=dist,
        )
        store.add(record)
        propagated.append(record)
    return propagated


def feedback_seeds(store: KnownStore, round_no: int) -> set[int]:
    """All positive-labeled items as of the end of the given round."""
    return {
        record.item_id
        for record in store.records()
        if record.label and record.round <= round_no
    }
