"""Threshold similarity graph over item embeddings.

Edges connect items whose cosine distance is at most theta (ties included).
Both modes share one candidate-then-verify kernel (all-pairs similarity
search, Bayardo, Ma & Srikant 2007). Exact mode feeds it the whole corpus as
one bucket; blocked mode feeds it each bucket of banded random-hyperplane
sign hashes, so approximation can only drop edges, never invent them.

Detection scores the upper triangle of each bucket in float32 row tiles of
unit-normalised embeddings, against the cut padded by a float32 error bound
derived from the dimension, so it never misses a pair within theta. A pair
colliding in several bands is kept only by the first, which emits each edge
once without a global dedupe. Every candidate is then accepted or rejected by
one float64 einsum kernel, so stored distances, exact mode, blocked mode and
per-pair queries agree bitwise.

A large build scores its tiles in worker processes, one per available CPU
(``corpus.Worker``), each given an even part of every band. The caller
computes the norms and band keys, which workers never recompute, and sorts
the CSR rows canonically, so the arrays are the same bytes at any worker
count. BLAS threads cannot stand in: the tiles are small and most of the
kernel is numpy work outside the product (a 100k-item desk build took
3.9-4.3 s wall, 7.1-8.1 s CPU, with default OpenBLAS threads on 2 cores;
3.9-4.0 s with one).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from typing import Iterable

import numpy as np

from .corpus import Corpus, Worker, _available_cpus

MODE_EXACT = "exact"
MODE_BLOCKED = "blocked"
GRAPH_MODES = (MODE_EXACT, MODE_BLOCKED)

DEFAULT_BANDS = 16
DEFAULT_BAND_BITS = 8

# Detection tiles are about this many rows, and never hold more float32
# scores than _TILE_ELEMS (16 MB), however wide the bucket.
_TILE_ROWS = 256
_TILE_ELEMS = 1 << 22

# The tiles are scored in worker processes when each gets at least
# _SHARE_WORK units, a pair of d-dim rows costing d + _PAIR_OVERHEAD. On a
# 2-core host a worker spends about 0.3 s of CPU starting (interpreter and
# numpy), and two workers tied the in-process build at 6-7e9 units (30k
# items, 16-d or 64-d) and beat it by 9% at 12e9 (40k items, 64-d).
_SHARE_WORK = 6e9
_PAIR_OVERHEAD = 128


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum is bit-stable across batch shapes, unlike BLAS matmul
    return np.einsum("ij,ij->i", a, b)


def positions(index: np.ndarray, item_ids) -> np.ndarray:
    """Positions of ``item_ids`` in the ascending ``index``; KeyError if absent."""
    item_ids = np.asarray(item_ids, dtype=np.int64)
    pos = np.searchsorted(index, item_ids)
    found = pos < len(index)
    found[found] = index[pos[found]] == item_ids[found]
    if not found.all():
        raise KeyError(f"unknown item id {int(item_ids[np.argmin(found)])}")
    return pos


def cosine_distance(a, b) -> float:
    """Cosine distance 1 - cos(a, b), clipped into [0, 2]."""
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise ValueError("embeddings must be one-dimensional")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} != {vb.shape[0]}")
    na = math.sqrt(float(np.einsum("i,i->", va, va)))
    nb = math.sqrt(float(np.einsum("i,i->", vb, vb)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for zero vector")
    dist = 1.0 - float(np.einsum("i,i->", va, vb)) / (na * nb)
    return min(max(dist, 0.0), 2.0)


class SimilarityGraph:
    """Immutable neighbor index over ascending ids; safe for concurrent readers.

    Row ``p`` of the CSR arrays lists the neighbours of ``ids[p]`` in
    ascending (distance, id) order, so every radius query keeps a prefix of
    each row it reads. ``embeddings`` is the matrix it was built over, one
    row per id.
    """

    def __init__(
        self,
        ids: np.ndarray,
        embeddings: np.ndarray,
        norms: np.ndarray,
        theta: float,
        mode: str,
        indptr: np.ndarray,
        nbr_ids: np.ndarray,
        nbr_dists: np.ndarray,
    ):
        self.theta = theta
        self.mode = mode
        self._ids = ids
        self.embeddings = embeddings
        self._norms = norms
        self._indptr = indptr
        self._nbr_ids = nbr_ids
        self._nbr_dists = nbr_dists
        for arr in (ids, embeddings, norms, indptr, nbr_ids, nbr_dists):
            arr.setflags(write=False)

    def __contains__(self, item_id: int) -> bool:
        pos = int(np.searchsorted(self._ids, item_id))
        return pos < len(self._ids) and self._ids[pos] == item_id

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def node_ids(self) -> list[int]:
        return self._ids.tolist()

    @property
    def n_edges(self) -> int:
        return len(self._nbr_ids) // 2

    def neighbors_batch(
        self, item_ids, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbours within radius of every given id, as one CSR gather.

        Returns ``(row, nbr_ids, dists)``: entry k is a neighbour of
        ``item_ids[row[k]]`` at distance ``dists[k]``. Rows come in input
        order (a repeated id repeats its row), each in ascending
        (distance, id) order.
        """
        if radius > self.theta:
            raise ValueError(
                f"query radius {radius} exceeds graph threshold {self.theta}"
            )
        pos = positions(self._ids, item_ids)
        starts = self._indptr[pos]
        counts = self._indptr[pos + 1] - starts
        row = np.repeat(np.arange(len(pos)), counts)
        # entry k of the gather is entry k - first[row] of its CSR row
        first = np.cumsum(counts) - counts
        slots = np.arange(len(row)) + np.repeat(starts - first, counts)
        keep = self._nbr_dists[slots] <= radius
        slots = slots[keep]
        return row[keep], self._nbr_ids[slots], self._nbr_dists[slots]

    def neighbors_with_distances(
        self, item_id: int, radius: float
    ) -> list[tuple[int, float]]:
        _, nbr_ids, dists = self.neighbors_batch([item_id], radius)
        return list(zip(nbr_ids.tolist(), dists.tolist()))

    def distances(self, a_ids, b_ids) -> np.ndarray:
        """Canonical cosine distance of each member pair (a_ids[k], b_ids[k])."""
        ia, ib = positions(self._ids, a_ids), positions(self._ids, b_ids)
        return _pair_distances(self.embeddings, self._norms, ia, ib)


def _pair_distances(
    emb: np.ndarray, norms: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    dist = 1.0 - _dots(emb[ii], emb[jj]) / (norms[ii] * norms[jj])
    return np.clip(dist, 0.0, 2.0)


def _detect_pad(d: int) -> float:
    # A float32 dot of two float32-rounded unit vectors is within (d + 2) * u
    # of their cosine, u = 2**-24, whatever the summation order: 2u from
    # rounding the inputs and d * u from the sum. Casting the cut to float32
    # adds at most u, the float64 kernel far less; the factor 4 is headroom.
    return 4.0 * (d + 2) * 2.0**-24


def _band_keys(emb: np.ndarray, bands: int, band_bits: int, seed: int):
    """The (n,) sign-hash bucket keys of each band in turn."""
    planes = np.random.default_rng(seed).standard_normal((emb.shape[1], bands * band_bits))
    bits = (emb @ planes) > 0
    weights = np.uint64(1) << np.arange(band_bits, dtype=np.uint64)
    for band in range(bands):
        yield bits[:, band * band_bits : (band + 1) * band_bits].astype(np.uint64) @ weights


def _tiles(keys: np.ndarray, order: np.ndarray, shares: int) -> list[np.ndarray]:
    """Every detection tile (band, lo, hi, rows, r0), in ``shares`` runs.

    A bucket is a run ``order[band, lo:hi]`` of two or more equal keys, in
    ascending rows; a tile scores its rows ``r0:r0 + rows`` against ``r0:``.
    Each run holds 1/shares of every band's scores in band and bucket order,
    so the runs stay even though band 0 costs more: it verifies every candidate.
    """
    ranked = np.take_along_axis(keys, order, axis=1)
    starts = np.ones(keys.shape, dtype=bool)  # a band's first row starts a bucket
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    lo = np.flatnonzero(starts)
    m = np.diff(lo, append=keys.size)
    band, lo = np.divmod(lo[m > 1], keys.shape[1])
    m = m[m > 1]
    rows = np.clip(_TILE_ELEMS // m, 1, _TILE_ROWS)
    count = (m - 2) // rows + 1
    bucket = np.repeat(np.arange(len(m)), count)
    r0 = (np.arange(len(bucket)) - np.repeat(np.cumsum(count) - count, count)) * rows[bucket]
    tiles = np.column_stack([np.stack([band, lo, lo + m, rows], axis=1)[bucket], r0])
    band, width = band[bucket], m[bucket] - r0
    scores = np.minimum(rows[bucket], width) * width
    total = np.bincount(band, weights=scores)
    before = np.cumsum(scores) - scores - (np.cumsum(total) - total)[band]
    share = ((before + scores / 2) / total[band] * shares).astype(np.int64)
    return [tiles[share == k] for k in range(shares)]


def _tile_edges(emb, norms, keys, order, tiles, cut, theta) -> list[np.ndarray]:
    """[ii, jj, dists] of the edges that a run of ``_tiles`` finds.

    Candidates come from the upper triangle of float32 unit-row Gram tiles;
    membership is decided by the canonical float64 kernel alone, whatever
    the split of the tiles.
    """
    unit = (emb / norms[:, None]).astype(np.float32)
    found = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    bucket = None
    for band, lo, hi, rows, r0 in tiles.tolist():
        if bucket != (band, lo):
            bucket, idx = (band, lo), order[band, lo:hi]
            sub = unit[idx]
        # flat indices: 2-d np.nonzero is an order of magnitude slower
        li, lj = np.divmod(np.flatnonzero(sub[r0 : r0 + rows] @ sub[r0:].T >= cut), hi - lo - r0)
        upper = lj > li
        ii, jj = idx[r0 + li[upper]], idx[r0 + lj[upper]]
        # a pair belongs to the first band it collides in; most pairs collide
        # in the first band checked, so one band at a time touches least
        for earlier in keys[:band]:
            if not len(ii):
                break
            differ = earlier[ii] != earlier[jj]
            ii, jj = ii[differ], jj[differ]
        dists = _pair_distances(emb, norms, ii, jj)
        keep = dists <= theta
        found.append((ii[keep], jj[keep], dists[keep]))
    return [np.concatenate(part) for part in zip(*found)]


def _share_edges(folder: str, share: str, cut: str, theta: str) -> list[np.ndarray]:
    """A worker's entry: ``_tile_edges`` of one share, its inputs read from ``folder``."""
    arrays = [np.asarray(np.load(os.path.join(folder, f"{name}.npy"), mmap_mode="r"))
              for name in ("emb", "norms", "keys", "order", f"tiles{share}")]
    return _tile_edges(*arrays, float(cut), float(theta))


def build_graph(
    corpus: Corpus | Iterable,
    theta: float,
    mode: str = MODE_EXACT,
    *,
    bands: int = DEFAULT_BANDS,
    band_bits: int = DEFAULT_BAND_BITS,
    seed: int = 0,
    workers: int = 1,
) -> SimilarityGraph:
    """Build the similarity graph at radius theta over a corpus (or Item list).

    Blocked mode expects ``bands`` independent sign-hash bands of
    ``band_bits`` hyperplanes each; candidate pairs sharing any band bucket
    are verified exactly, so dropped edges are the only possible error.
    The tiles are scored in worker processes, one per available CPU, when
    each gets at least ``_SHARE_WORK`` of estimated work, and in this
    process otherwise; see the module docstring. ``workers`` is accepted
    for configs that carry it but not read.
    """
    if not 0.0 <= theta <= 2.0:
        raise ValueError(f"theta must be in [0, 2], got {theta}")
    if mode not in GRAPH_MODES:
        raise ValueError(f"unknown graph mode {mode!r}")
    if mode == MODE_BLOCKED and (bands < 1 or band_bits < 1 or band_bits > 62):
        raise ValueError("bands must be >= 1 and band_bits in [1, 62]")

    corpus = Corpus.of(corpus)
    ids, emb = corpus.ids, corpus.embeddings
    n = len(ids)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return SimilarityGraph(
            ids, emb, np.empty(0), theta, mode, np.zeros(1, dtype=np.int64), empty, np.empty(0)
        )
    norms = np.sqrt(_dots(emb, emb))
    if np.any(norms == 0.0):
        raise ValueError("zero embedding in graph input")

    d = emb.shape[1]
    cut = 1.0 - theta - _detect_pad(d)
    if mode == MODE_EXACT:
        bands, band_keys = 1, iter([np.zeros(n, dtype=np.uint64)])
    else:
        band_keys = _band_keys(emb, bands, band_bits, seed)
    first = next(band_keys)
    # bands are alike, so the first one's buckets estimate the work
    m = np.unique(first, return_counts=True)[1]
    pairs = bands * float(m @ (m - 1)) / 2
    shares = _available_cpus()
    while shares > 1 and pairs * (d + _PAIR_OVERHEAD) < shares * _SHARE_WORK:
        shares -= 1
    procs, folder = [], None
    try:
        for k in range(shares if shares > 1 else 0):
            procs.append(Worker(_share_edges, f"building the similarity graph, share {k + 1}"))
        keys = np.stack([first, *band_keys])
        order = np.argsort(keys, axis=1, kind="stable")
        tiles = _tiles(keys, order, max(len(procs), 1))
        if not procs:
            ii, jj, dists = _tile_edges(emb, norms, keys, order, tiles[0], cut, theta)
        else:
            folder = tempfile.mkdtemp(prefix="simgraph-")
            for name, array in (("emb", emb), ("norms", norms), ("keys", keys), ("order", order)):
                np.save(os.path.join(folder, f"{name}.npy"), array)
            for k, (proc, share) in enumerate(zip(procs, tiles)):
                np.save(os.path.join(folder, f"tiles{k}.npy"), share)
                proc.send(folder, str(k), repr(float(cut)), repr(float(theta)))
            ii, jj, dists = (np.concatenate(part) for part in zip(*(p.result() for p in procs)))
    finally:
        for proc in procs:
            proc.close()
        if folder is not None:
            shutil.rmtree(folder, ignore_errors=True)

    # rows in ascending (distance, id) order, as np.lexsort((cols, both, rows))
    # but faster: edges in (ii, jj) order, (jj, ii) entries first, put each row
    # in ascending col (ii < jj), which a stable sort by row and distance keeps
    edges = np.argsort(ii * n + jj)
    ii, jj, dists = ii[edges], jj[edges], dists[edges]
    levels, rank = np.unique(dists, return_inverse=True)
    rows, cols = np.concatenate([jj, ii]), np.concatenate([ii, jj])
    perm = np.argsort(rows * len(levels) + np.concatenate([rank, rank]), kind="stable")
    rows, cols = rows[perm], cols[perm]
    both = np.concatenate([dists, dists])[perm]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return SimilarityGraph(ids, emb, norms, theta, mode, indptr, ids[cols], both)
