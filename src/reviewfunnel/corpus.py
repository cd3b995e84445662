"""Core data model, synthetic corpus generation, and JSON Lines persistence.

Synthetic corpora are built from planted clusters: each cluster has a seed
item, a fraction of near-duplicate members hugging the seed, and looser
members spread around it. Ground truth is generated alongside the items but
handed out as a separate map so that funnel stages never see it; only the
oracle and the metrics evaluator do.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

PROVENANCE_SEED = "seed"
PROVENANCE_ORACLE = "oracle"
PROVENANCE_PROPAGATED = "propagated"
PROVENANCES = (PROVENANCE_SEED, PROVENANCE_ORACLE, PROVENANCE_PROPAGATED)

# Embeddings are quantized to this grid before fingerprinting, so byte-level
# noise below the grid does not change an item's content identity.
_HASH_QUANTUM = 1e-6

_LABEL_STORE_HEADER = {"kind": "label_store", "schema_version": 1}

_ITEM_FIELDS = (
    "item_id",
    "embedding",
    "account_id",
    "impressions",
    "exact_hash",
    "created_round",
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


class ConfigError(ValueError):
    """Invalid configuration value; message names the offending field."""


class FormatError(ValueError):
    """Malformed corpus or label-store file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class Item:
    """One reviewable content unit.

    ``ground_truth`` is populated only for synthetic corpora and must never be
    read by funnel logic; it exists so corpora round-trip through files.
    """

    item_id: int
    embedding: np.ndarray
    account_id: int
    impressions: int
    exact_hash: int
    created_round: int = 0
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
        if self.cluster_size_mean < 1:
            raise ConfigError("cluster_size_mean must be >= 1")
        for field_name in ("dup_fraction", "positive_cluster_rate", "inactive_rate", "account_skew"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{field_name} must be in [0, 1]")
        if self.embedding_dim < 2:
            raise ConfigError("embedding_dim must be >= 2")
        if self.noise_sigma <= 0:
            raise ConfigError("noise_sigma must be > 0")
        if self.dup_sigma < 0:
            raise ConfigError("dup_sigma must be >= 0")
        if self.dup_sigma >= self.noise_sigma:
            raise ConfigError("dup_sigma must be < noise_sigma")
        if self.n_accounts < 1:
            raise ConfigError("n_accounts must be >= 1")


@dataclass(frozen=True)
class ClusterInfo:
    """Planted structure of one generated cluster (for evaluation only)."""

    seed_id: int
    member_ids: tuple[int, ...]
    dup_ids: tuple[int, ...]
    positive: bool


def normalize_embedding(vector) -> np.ndarray:
    """Return the vector scaled to unit L2 norm as a float64 array.

    Vectors that are already unit-norm (within 1e-9) pass through untouched,
    so normalization is idempotent and save/load round-trips are bit-exact.
    """
    arr = np.asarray(vector, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("embedding must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding contains non-finite values")
    norm = math.sqrt(float(np.einsum("i,i->", arr, arr)))
    if norm == 0.0:
        raise ValueError("embedding must be non-zero")
    if abs(norm - 1.0) <= 1e-9:
        return arr.copy()
    return arr / norm


def embedding_fingerprint(embedding: np.ndarray) -> int:
    """64-bit content fingerprint of the embedding quantized to 1e-6."""
    quantized = np.round(np.asarray(embedding, dtype=np.float64) / _HASH_QUANTUM)
    digest = hashlib.blake2b(quantized.astype(np.int64).tobytes(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def corpus_content_hash(items: Iterable[Item]) -> str:
    """Stable hex digest of a corpus, independent of file formatting."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        gt = 2 if item.ground_truth is None else int(item.ground_truth)
        h.update(
            b"%d,%d,%d,%d,%d,%d;"
            % (item.item_id, item.exact_hash, item.account_id,
               item.impressions, item.created_round, gt)
        )
    return h.hexdigest()


def generate_corpus(cfg: GeneratorConfig) -> tuple[list[Item], dict[int, bool]]:
    """Generate a clustered synthetic corpus and its hidden ground truth."""
    items, truth, _ = generate_corpus_detailed(cfg)
    return items, truth


def generate_corpus_detailed(
    cfg: GeneratorConfig,
) -> tuple[list[Item], dict[int, bool], list[ClusterInfo]]:
    """Like generate_corpus, but also returns the planted cluster layout.

    Deterministic for a fixed ``rng_seed``. Cluster sizes are 1 + Poisson
    draws so the mean matches ``cluster_size_mean`` exactly; the number of
    positive clusters is pinned to round(rate * n_clusters) so the realized
    positive fraction tracks the configured rate.
    """
    cfg.validate()
    if cfg.n_clusters == 0:
        return [], {}, []

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

    items: list[Item] = []
    truth: dict[int, bool] = {}
    clusters: list[ClusterInfo] = []
    next_id = 0
    for cluster_idx, size in enumerate(sizes.tolist()):
        center = rng.standard_normal(d)
        dup_flags = rng.random(size - 1) < cfg.dup_fraction
        noise = rng.standard_normal((size - 1, d))
        positive = cluster_idx in positive_clusters
        accounts = rng.integers(
            0, positive_pool if positive else cfg.n_accounts, size=size
        )
        impressions = rng.geometric(1.0 / _IMPRESSION_MEAN, size=size)
        impressions[rng.random(size) < cfg.inactive_rate] = 0

        sigma = np.where(dup_flags, cfg.dup_sigma, cfg.noise_sigma)
        block = np.empty((size, d))
        block[0] = center
        if size > 1:
            block[1:] = center[None, :] + sigma[:, None] * noise
        block /= np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]

        seed_id = next_id
        member_ids = []
        dup_ids = []
        for row in range(size):
            item_id = next_id
            next_id += 1
            items.append(
                Item(
                    item_id=item_id,
                    embedding=block[row].copy(),
                    account_id=int(accounts[row]),
                    impressions=int(impressions[row]),
                    exact_hash=embedding_fingerprint(block[row]),
                    created_round=0,
                    ground_truth=positive,
                )
            )
            truth[item_id] = positive
            if row > 0:
                member_ids.append(item_id)
                if dup_flags[row - 1]:
                    dup_ids.append(item_id)
        clusters.append(
            ClusterInfo(
                seed_id=seed_id,
                member_ids=tuple(member_ids),
                dup_ids=tuple(dup_ids),
                positive=positive,
            )
        )
    return items, truth, clusters


def _item_to_json(item: Item) -> str:
    doc = {
        "item_id": item.item_id,
        "embedding": item.embedding.tolist(),
        "account_id": item.account_id,
        "impressions": item.impressions,
        "exact_hash": str(item.exact_hash),
        "created_round": item.created_round,
        "ground_truth": item.ground_truth,
    }
    return json.dumps(doc, separators=(",", ":"))


def save_corpus(items: Iterable[Item], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in items:
            fh.write(_item_to_json(item) + "\n")


def _require_int(doc: dict, key: str, line: int, minimum: int = 0) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"field {key} must be an integer", line)
    if value < minimum:
        raise FormatError(f"field {key} must be >= {minimum}", line)
    return value


def load_corpus(path) -> list[Item]:
    """Load a JSON Lines corpus, re-normalizing embeddings on ingestion."""
    items: list[Item] = []
    seen: dict[int, int] = {}
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                doc = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", line_no) from exc
            if not isinstance(doc, dict):
                raise FormatError("record must be a JSON object", line_no)
            unknown = set(doc) - set(_ITEM_FIELDS)
            if unknown:
                raise FormatError(f"unknown field {sorted(unknown)[0]!r}", line_no)
            missing = set(_ITEM_FIELDS) - set(doc)
            if missing:
                raise FormatError(f"missing field {sorted(missing)[0]!r}", line_no)

            item_id = _require_int(doc, "item_id", line_no)
            if item_id in seen:
                raise FormatError(
                    f"duplicate item_id {item_id} (first on line {seen[item_id]})",
                    line_no,
                )
            embedding = doc["embedding"]
            if not isinstance(embedding, list) or not embedding:
                raise FormatError("field embedding must be a non-empty array", line_no)
            if dim is None:
                dim = len(embedding)
            elif len(embedding) != dim:
                raise FormatError(
                    f"embedding dimension {len(embedding)} != {dim} from earlier records",
                    line_no,
                )
            try:
                vector = normalize_embedding(embedding)
            except ValueError as exc:
                raise FormatError(str(exc), line_no) from exc
            exact_hash = doc["exact_hash"]
            if not isinstance(exact_hash, str) or not exact_hash.isdigit():
                raise FormatError("field exact_hash must be a uint64 string", line_no)
            hash_value = int(exact_hash)
            if hash_value >= 1 << 64:
                raise FormatError("field exact_hash out of uint64 range", line_no)
            ground_truth = doc["ground_truth"]
            if ground_truth is not None and not isinstance(ground_truth, bool):
                raise FormatError("field ground_truth must be a boolean or null", line_no)
            items.append(
                Item(
                    item_id=item_id,
                    embedding=vector,
                    account_id=_require_int(doc, "account_id", line_no),
                    impressions=_require_int(doc, "impressions", line_no),
                    exact_hash=hash_value,
                    created_round=_require_int(doc, "created_round", line_no),
                    ground_truth=ground_truth,
                )
            )
            seen[item_id] = line_no
    return items


def save_labels(records: Iterable[LabelRecord], path) -> None:
    """Write a label store as JSON Lines with a leading header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_LABEL_STORE_HEADER, separators=(",", ":")) + "\n")
        for rec in records:
            doc = {
                "item_id": rec.item_id,
                "label": rec.label,
                "provenance": rec.provenance,
                "source_item_id": rec.source_item_id,
                "round": rec.round,
                "distance_to_source": rec.distance_to_source,
            }
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_labels(path) -> list[LabelRecord]:
    """Load a label store; order-preserving inverse of save_labels."""
    records: list[LabelRecord] = []
    seen: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise FormatError("missing label store header", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON ({exc.msg})", 1) from exc
    if header != _LABEL_STORE_HEADER:
        raise FormatError("unrecognized label store header", 1)
    for line_no, raw in enumerate(lines[1:], start=2):
        raw = raw.strip()
        if not raw:
            continue
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON ({exc.msg})", line_no) from exc
        if not isinstance(doc, dict):
            raise FormatError("record must be a JSON object", line_no)
        unknown = set(doc) - set(_LABEL_FIELDS)
        if unknown:
            raise FormatError(f"unknown field {sorted(unknown)[0]!r}", line_no)
        missing = set(_LABEL_FIELDS) - set(doc)
        if missing:
            raise FormatError(f"missing field {sorted(missing)[0]!r}", line_no)
        if not isinstance(doc["label"], bool):
            raise FormatError("field label must be a boolean", line_no)
        item_id = _require_int(doc, "item_id", line_no)
        if item_id in seen:
            raise FormatError(
                f"duplicate item_id {item_id} (first on line {seen[item_id]})", line_no
            )
        distance = doc["distance_to_source"]
        if distance is not None and not isinstance(distance, (int, float)):
            raise FormatError("field distance_to_source must be a number", line_no)
        source = doc["source_item_id"]
        if source is not None and (not isinstance(source, int) or isinstance(source, bool)):
            raise FormatError("field source_item_id must be an integer", line_no)
        try:
            record = LabelRecord(
                item_id=item_id,
                label=doc["label"],
                provenance=doc["provenance"] if isinstance(doc["provenance"], str) else "",
                round=_require_int(doc, "round", line_no),
                source_item_id=source,
                distance_to_source=float(distance) if distance is not None else None,
            )
        except ValueError as exc:
            raise FormatError(str(exc), line_no) from exc
        records.append(record)
        seen[item_id] = line_no
    return records


def items_by_id(items: Iterable[Item]) -> dict[int, Item]:
    """Index items by id, rejecting duplicates."""
    index: dict[int, Item] = {}
    for item in items:
        if item.item_id in index:
            raise ValueError(f"duplicate item_id {item.item_id}")
        index[item.item_id] = item
    return index


def ground_truth_of(items: Iterable[Item]) -> dict[int, bool]:
    """Extract the hidden ground-truth map from items that carry one."""
    return {
        item.item_id: item.ground_truth
        for item in items
        if item.ground_truth is not None
    }
