"""Threshold similarity graph over item embeddings.

Edges connect items whose cosine distance is at most theta (ties included).
Both modes share one candidate-then-verify kernel (all-pairs similarity
search, Bayardo, Ma & Srikant 2007). Exact mode feeds it the whole corpus as
one bucket; blocked mode feeds it each bucket of banded random-hyperplane
sign hashes (SimHash, Charikar 2002), so approximation can only drop edges,
never invent them.

Blocked mode scores one representative per group of rows whose sign bits
are all equal, as such rows share every bucket. A group's radius e is its
largest chord from a member to the representative, its lowest row. A member
pair within theta is at most ``sqrt(2 theta)`` apart as a chord, so by the
triangle inequality the representatives of its groups G and H are at most
``sqrt(2 theta) + e_G + e_H`` apart: a pair of groups is a candidate when
its score meets that bound, and then every member pair of it is verified.
The pairs inside a group are verified once, as band 0's. Exact mode puts
every row in a group of its own.

Detection scores the upper triangle of each bucket in float32 row tiles,
against the cut padded by a float32 error bound derived from the
dimension, so it never misses a pair within theta. A pair colliding in
several bands is kept only by the first, which emits each edge once without
a global dedupe. Every candidate is then accepted or rejected by one
float64 einsum kernel, so stored distances, exact mode, blocked mode and
per-pair queries agree bitwise.

A large build scores its tiles in worker processes, one per available CPU
(``Worker``), each given an even part of every band. The caller
computes the norms, band keys, groups and detection rows, which workers
never recompute, verifies the pairs inside groups while they run, and sorts
the CSR rows canonically, so the arrays are the same bytes at any worker
count. BLAS threads cannot stand in: the tiles are small, and their products
are about 40% of a share's kernel, numpy gathers, masks and checks the rest.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Corpus, _blocks, _scaled

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
# _SHARE_WORK units, a pair of d-dim group rows costing d + _PAIR_OVERHEAD.
# Against the caller on its default BLAS threads, two workers took +100-200%
# of a lone blocked build's wall up to 0.8e9 units, +39-48% at 1.9-2.3e9,
# +10-15% at 3.8-4.7e9 and -1 to +8% at 7.6-8.9e9 (2 cores, see CHANGES.md);
# from 3e9 the caller's peak falls by the build's transients, about 20 MB.
_SHARE_WORK = 1.5e9
_PAIR_OVERHEAD = 128
# Member pairs are verified about this many at a time: gathers of that
# size reuse memory, where one gather of every pair would fault in fresh
# pages. Groups hold at most _GROUP_ROWS rows, which bounds the pairs one
# pair of groups expands to, however few hyperplanes split the corpus.
_VERIFY_PAIRS = 4096
_GROUP_ROWS = 64
# The CSR keys of a block of rows stay below _KEY_LIMIT, the int64 range,
# and are packed and decoded _CSR_CHUNK edges at a time.
_KEY_LIMIT = 2**63
_CSR_CHUNK = 1 << 14


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum is bit-stable across batch shapes, unlike BLAS matmul
    return np.einsum("ij,ij->i", a, b)


def _int64(values, what: str) -> np.ndarray:
    """``values`` as int64; TypeError for floats or bools, which a cast would truncate."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise TypeError(f"{what} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def _nonnegative(pos) -> np.ndarray:
    """``_int64`` positions; IndexError for a negative one, which numpy would read from the end."""
    pos = _int64(pos, "positions")
    if np.any(pos < 0):
        raise IndexError(f"position {pos[np.argmax(pos < 0)]} is negative")
    return pos


def positions(index: np.ndarray, item_ids) -> np.ndarray:
    """Positions of ``_int64`` ``item_ids`` in the ascending ``index``; KeyError if absent."""
    item_ids = _int64(item_ids, "item ids")
    pos = np.searchsorted(index, item_ids)
    found = pos < len(index)
    found[found] = index[pos[found]] == item_ids[found]
    if not found.all():
        raise KeyError(f"unknown item id {int(item_ids[np.argmin(found)])}")
    return pos


def cosine_distance(a, b) -> float:
    """Cosine distance 1 - cos(a, b), clipped into [0, 2].

    A vector whose squared norm overflows or underflows is first divided by
    its largest magnitude, as ``normalize_embedding`` does; any other vector
    is used as given.
    """
    va = np.asarray(a, dtype=np.float64)
    vb = np.asarray(b, dtype=np.float64)
    if va.ndim != 1 or vb.ndim != 1:
        raise ValueError("embeddings must be one-dimensional")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} != {vb.shape[0]}")
    (va, sa), (vb, sb) = _scaled(va), _scaled(vb)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("cosine distance undefined for zero vector")
    dist = 1.0 - float(np.einsum("i,i->", va, vb)) / (math.sqrt(sa) * math.sqrt(sb))
    return min(max(dist, 0.0), 2.0)


class SimilarityGraph:
    """Immutable neighbor index over ascending ids; safe for concurrent readers.

    Row ``p`` of the CSR arrays lists the neighbours of ``ids[p]`` as
    positions into ``ids``, in ascending (distance, id) order, so every
    radius query keeps a prefix of each row it reads. ``gather`` is the one
    read path: it takes positions, finds each row's cut at the query radius
    by bisection and gathers no entry past it; ``neighbors_with_distances``
    wraps it for one id. ``embeddings`` is the matrix it was built over, one
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
        nbr_pos: np.ndarray,
        nbr_dists: np.ndarray,
    ):
        self.theta = theta
        self.mode = mode
        self.ids = ids
        self.embeddings = embeddings
        self._norms = norms
        self._indptr = indptr
        self._nbr_pos = nbr_pos
        self._nbr_dists = nbr_dists
        for arr in (ids, embeddings, norms, indptr, nbr_pos, nbr_dists):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def node_ids(self) -> list[int]:
        return self.ids.tolist()

    @property
    def n_edges(self) -> int:
        return len(self._nbr_pos) // 2

    def require_index(self, index: np.ndarray) -> None:
        """ValueError unless ``index`` is ``ids``: positions mean nothing across indexes."""
        if index is not self.ids and not np.array_equal(index, self.ids):
            raise ValueError("graph is built over other ids than the caller's index")

    def gather(self, pos, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbours within radius of every given position, as one CSR gather.

        Returns ``(row, nbr, dists)``: entry k is neighbour ``ids[nbr[k]]``
        of ``ids[pos[row[k]]]`` at distance ``dists[k]``. Rows come in input
        order (a repeated position repeats its row), each in ascending
        (distance, id) order.
        """
        if not radius <= self.theta:  # NaN included
            raise ValueError(
                f"query radius {radius} is NaN or exceeds graph threshold {self.theta}")
        pos = _nonnegative(pos)
        starts = self._indptr[pos]
        ends = self._indptr[pos + 1]
        # each row's entries within radius are a prefix: one bisection over
        # every row at once, a power of two at a time, finds where each ends
        cut = starts
        step = 1 << int(np.max(ends - starts, initial=0)).bit_length() >> 1
        while step:
            probe = np.minimum(cut + step, ends)
            # probe == cut leaves cut as it is whatever entry probe - 1 holds
            cut = np.where(self._nbr_dists[probe - 1] <= radius, probe, cut)
            step >>= 1
        counts = cut - starts
        row = np.repeat(np.arange(len(pos)), counts)
        # entry k of the gather is entry k - first[row] of its CSR row
        first = np.cumsum(counts) - counts
        slots = np.arange(len(row)) + np.repeat(starts - first, counts)
        return row, self._nbr_pos[slots], self._nbr_dists[slots]

    def neighbors_with_distances(
        self, item_id: int, radius: float
    ) -> list[tuple[int, float]]:
        """``gather`` of one id: its (neighbour id, distance) pairs; KeyError if unknown."""
        _, nbr, dists = self.gather(positions(self.ids, [item_id]), radius)
        return list(zip(self.ids[nbr].tolist(), dists.tolist()))

    def pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Canonical cosine distance of each position pair (a[k], b[k])."""
        return _pair_distances(self.embeddings, self._norms, _nonnegative(a), _nonnegative(b))


def _pair_distances(
    emb: np.ndarray, norms: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    dist = 1.0 - _dots(emb[ii], emb[jj]) / (norms[ii] * norms[jj])
    return np.clip(dist, 0.0, 2.0)


def _detect_pad(d: int) -> float:
    # A float32 dot of two float32-rounded d-vectors is within (d + 2) * u
    # times the sum of its terms' magnitudes of their exact dot, u = 2**-24,
    # whatever the summation order: 2u from rounding the inputs and d * u
    # from the sum. That sum is at most 1 for unit vectors. Casting the cut
    # to float32 adds at most u, the float64 kernel far less; the factor 4
    # is headroom.
    return 4.0 * (d + 2) * 2.0**-24


def _sign_hash(emb: np.ndarray, bands: int, band_bits: int, seed: int):
    """(keys, starts, members) of banded random-hyperplane sign hashes.

    ``keys`` holds each band's bucket keys, one row per band, in the
    smallest unsigned dtype that fits. The rows whose sign bits are all
    equal form groups of at most ``_GROUP_ROWS``: group g holds the rows
    ``members[starts[g]:starts[g + 1]]`` in ascending order, and groups come
    in the order of their lowest row, the representative.
    """
    n = len(emb)
    planes = np.random.default_rng(seed).standard_normal((emb.shape[1], bands * band_bits))
    keys = np.zeros((bands, n), dtype=np.min_scalar_type((1 << band_bits) - 1))
    # every sign bit of a row as 64-bit words, projected a block at a time
    nbytes = -(-band_bits // 8)
    width = bands * nbytes
    words = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    for rows in _blocks(n):
        # bit k of a band's key is its k-th hyperplane's sign, a band padded to whole bytes
        bits = np.zeros((len(words[rows]), bands, nbytes * 8), dtype=bool)
        np.greater((emb[rows] @ planes).reshape(len(bits), bands, band_bits), 0,
                   out=bits[:, :, :band_bits])
        packed = np.packbits(bits.reshape(len(bits), width * 8), axis=1, bitorder="little")
        for k in range(nbytes):
            keys[:, rows] |= packed[:, k::nbytes].T.astype(keys.dtype) << (8 * k)
        words[rows, :width] = packed
    # a stable sort keeps each run of equal words in ascending row order
    words = words.view(np.uint64)
    ranked = np.lexsort(words.T)
    new = np.ones(n, dtype=bool)
    new[1:] = (words[ranked[1:]] != words[ranked[:-1]]).any(axis=1)
    # a run longer than _GROUP_ROWS is cut into groups of at most that many
    first = np.flatnonzero(new)
    new[(np.arange(n) - np.repeat(first, np.diff(first, append=n))) % _GROUP_ROWS == 0] = True
    run = np.cumsum(new) - 1
    # runs in the order of their lowest row
    rank = np.empty(int(run[-1]) + 1, dtype=np.int64)
    rank[np.argsort(ranked[new])] = np.arange(len(rank))
    sizes = np.bincount(rank[run])
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return keys, starts, ranked[np.argsort(rank[run], kind="stable")]


def _member_pairs(starts, members, gi, gj) -> tuple[np.ndarray, np.ndarray]:
    """(ii, jj), ii < jj: the member pairs of each pair of groups (gi[k], gj[k]).

    A group paired with itself gives each pair of its members once.
    """
    si, sj = starts[gi], starts[gj]
    wi, wj = starts[gi + 1] - si, starts[gj + 1] - sj
    count = wi * wj
    k = np.repeat(np.arange(len(count)), count)
    t = np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)
    wj = wj[k]
    a, b = members[si[k] + t // wj], members[sj[k] + t % wj]
    keep = (gi != gj)[k] | (a < b)
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b)


def _member_edges(emb, norms, starts, members, gi, gj, theta) -> list[tuple]:
    """(ii, jj, dists) parts of the member pairs of ``_member_pairs`` within theta."""
    sizes = np.diff(starts)
    ends = np.cumsum(sizes[gi] * sizes[gj])
    splits = np.searchsorted(ends, np.arange(_VERIFY_PAIRS, ends[-1] if len(ends) else 0,
                                             _VERIFY_PAIRS))
    found = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
    for part_i, part_j in zip(np.split(gi, splits), np.split(gj, splits)):
        ii, jj = _member_pairs(starts, members, part_i, part_j)
        dists = _pair_distances(emb, norms, ii, jj)
        keep = dists <= theta
        found.append((ii[keep], jj[keep], dists[keep]))
    return found


def _detection(emb, norms, starts, members, theta) -> tuple[np.ndarray, float]:
    """(rows, cut): the groups' float32 detection rows and their cut.

    A group's radius e is computed in float64 and rounded up by a few ulps,
    an error far below the pad. With ``r = sqrt(2 theta)``, the bound of the
    module docstring gives a candidate pair of groups a cosine of at least
    ``1 - (r + e_G + e_H)**2 / 2 >= 1 - theta - f_G - f_H`` for ``f = r e +
    e**2``. The representatives' rows ``[unit, f, 1]`` against the same rows
    with their last two columns swapped score ``cos + f_G + f_H`` as one
    product, so every pair of groups meets its own bound against one cut,
    ``1 - theta`` less the pad. With every radius zero (exact mode, or groups
    of equal rows) f is 0 and the score is the cosine alone.
    """
    sizes = np.diff(starts)
    eps = np.zeros(len(sizes))
    multi = sizes > 1
    if multi.any():
        rows = members[np.repeat(multi, sizes)]
        reps = members[np.repeat(starts[:-1][multi], sizes[multi])]
        chord = np.empty(len(rows))
        for k in range(0, len(rows), _VERIFY_PAIRS):
            a, b = rows[k : k + _VERIFY_PAIRS], reps[k : k + _VERIFY_PAIRS]
            gap = emb[a] / norms[a, None] - emb[b] / norms[b, None]
            chord[k : k + _VERIFY_PAIRS] = np.sqrt(_dots(gap, gap))
        first = np.cumsum(sizes[multi]) - sizes[multi]
        eps[multi] = np.maximum.reduceat(chord, first) * (1.0 + 2.0**-50)
    spread = math.sqrt(2.0 * theta) * eps + eps * eps
    reps = members[starts[:-1]]
    d = emb.shape[1]
    det = np.empty((len(reps), d + 2), dtype=np.float32)
    for k in range(0, len(reps), _VERIFY_PAIRS):
        rows = reps[k : k + _VERIFY_PAIRS]
        np.divide(emb[rows], norms[rows, None], out=det[k : k + _VERIFY_PAIRS, :d],
                  casting="same_kind")
    det[:, d], det[:, d + 1] = spread, 1.0
    # the float32 error of a product scales with the sum of its terms'
    # magnitudes, at most 1 for unit rows and 1 + 2 f here
    return det, 1.0 - theta - _detect_pad(d + 2) * (1.0 + 2.0 * float(spread.max()))


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


def _tile_edges(emb, norms, keys, order, starts, members, det, tiles, cut, theta):
    """``_member_edges`` parts of the edges between the groups that a run of ``_tiles`` pairs.

    ``keys`` and ``order`` are over groups, and detection scores their
    ``_detection`` rows in upper-triangle tiles. Every member pair of a
    candidate pair of groups is decided by the canonical float64 kernel
    alone, whatever the split of the tiles.
    """
    owned = [(np.empty(0, np.int64), np.empty(0, np.int64))]
    above = np.triu(np.ones((_TILE_ROWS, _TILE_ROWS), dtype=bool), 1)
    # each band's tiles here are one run of its buckets, which ends where its
    # last tile's bucket does
    band_of = tiles[:, 0]
    last = np.flatnonzero(np.diff(band_of, append=-1))
    band_end = dict(zip(band_of[last].tolist(), tiles[last, 2].tolist()))
    gathered = None
    for band, lo, hi, rows, r0 in tiles.tolist():
        if gathered != band:
            # one gather a band, of the rows its tiles here span
            gathered, base = band, lo
            span = order[band, base : band_end[band]]
            # rebinding both drops the last band's swapped rows before the swap below
            band_left = band_right = det[span]
            # [unit, 1, f]: a copy with two columns swapped costs less than a fancy index
            band_right = band_left.copy()
            band_right[:, -2:] = band_left[:, :-3:-1]
        start, stop = lo + r0 - base, hi - base
        hit = band_left[start : min(start + rows, stop)] @ band_right[start:stop].T >= cut
        k = len(hit)
        hit[:, :k] &= above[:k, :k]  # the upper triangle of the square block
        # flat indices: 2-d np.nonzero is an order of magnitude slower
        li, lj = np.divmod(np.flatnonzero(hit), stop - start)
        gi, gj = span[start + li], span[start + lj]
        # a pair belongs to the first band it collides in; most pairs collide
        # in the first band checked, so one band at a time touches least
        for earlier in keys[:band]:
            if not len(gi):
                break
            differ = earlier[gi] != earlier[gj]
            gi, gj = gi[differ], gj[differ]
        owned.append((gi, gj))
    gi, gj = (np.concatenate(part) for part in zip(*owned))
    return _member_edges(emb, norms, starts, members, gi, gj, theta)


def _group_edges(emb, norms, starts, members, theta):
    """``_member_edges`` parts of the edges inside groups, which band 0 owns."""
    multi = np.flatnonzero(np.diff(starts) > 1)
    return _member_edges(emb, norms, starts, members, multi, multi, theta)


def _save(fh, arrays) -> None:
    """Write ``arrays`` to ``fh`` as ``.npy`` 1.0 data, each at a multiple of 64 bytes."""
    for array in arrays:
        fh.write(bytes(-fh.tell() % 64))
        np.lib.format.write_array(fh, array, (1, 0), allow_pickle=False)


def _mapped(fd: int) -> list[np.ndarray]:
    """The arrays ``_save`` wrote to file ``fd``, as read-only views of one map.

    Other data raises ``ValueError`` or ``TypeError``, and so does an object
    array, which only unpickling could read.
    """
    size = os.fstat(fd).st_size
    buf = mmap.mmap(fd, size, access=mmap.ACCESS_READ) if size else None  # mmap refuses 0 bytes
    arrays, at = [], 0
    while at < size:
        buf.seek(at)
        version = np.lib.format.read_magic(buf)
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(buf)
        if version != (1, 0) or dtype.hasobject:
            raise ValueError("not .npy 1.0 data of a plain dtype")
        arrays.append(np.ndarray(shape, dtype, buf, buf.tell(), order="F" if fortran else "C"))
        at = buf.tell() + arrays[-1].nbytes
        at += -at % 64
    return arrays


def _watch_stdin() -> None:
    """Exit this worker when stdin ends, before or after the go byte: its caller is done."""
    while os.read(0, 64):
        pass
    os._exit(1)


_WORKER_CODE = (
    "import os, sys, threading; sys.path.insert(0, sys.argv[1]); import importlib; "
    f"from {__name__} import _save, _watch_stdin; "
    "func = getattr(importlib.import_module(sys.argv[2]), sys.argv[3]); os.read(0, 1) or "
    "_watch_stdin(); threading.Thread(target=_watch_stdin, daemon=True).start(); "
    "_save(sys.stdout.buffer, func(*sys.argv[4:])); sys.stdout.buffer.flush()"
)
_ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


class Worker:
    """``func(str(fd), *args)``, returning a list of arrays, in a fresh interpreter.

    The child (``sys.executable``: no fork, no re-run of ``__main__``)
    imports ``func`` from this package, with BLAS on one thread, inherits
    descriptor ``fd`` and waits for ``start``, so the import overlaps the
    caller's work, which ends in writing the inputs to ``fd``. Arrays cross
    both ways ``_save``d to an unlinked file and ``_mapped`` read-only, so no
    exit leaves a file behind. If the child cannot start, ``result`` calls
    ``func`` here; if it exits without a result, a ``RuntimeError`` names
    ``what``. ``close`` closes its stdin, which alone would end it, and kills it.
    """

    def __init__(self, func, what: str, fd: int, *args: str):
        self.func, self.what, self.proc, self.out = func, what, None, None
        self.args = (str(fd), *args)
        if not sys.executable:
            return
        try:
            self.out = tempfile.TemporaryFile()
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER_CODE, str(Path(__file__).resolve().parent.parent),
                 func.__module__, func.__name__, *self.args],
                bufsize=0, stdin=subprocess.PIPE, stdout=self.out, stderr=subprocess.PIPE,
                env={**os.environ, **_ONE_THREAD}, pass_fds=(fd,),
            )
        except OSError:
            self.close()

    def start(self) -> None:
        """Let the child call ``func``: send it the go byte (stdin is unbuffered)."""
        if self.proc is not None:
            with contextlib.suppress(OSError):  # a child that is gone fails in result
                self.proc.stdin.write(b"\n")

    def result(self, count: int) -> list[np.ndarray]:
        """The ``count`` arrays that ``func`` returned."""
        if self.proc is None:
            return self.func(*self.args)
        err = self.proc.stderr.read()
        if self.proc.wait() == 0:
            try:
                arrays = _mapped(self.out.fileno())
                if len(arrays) == count:
                    return arrays
            except (OSError, ValueError, TypeError):
                pass
        detail = err.decode("utf-8", "replace").strip().splitlines()
        raise RuntimeError(
            f"{self.what}: worker exited {self.proc.returncode} without a result"
            + (f" ({detail[-1]})" if detail else "")
        )

    def close(self) -> None:
        if self.proc is not None:
            self.proc.stdin.close()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stderr.close()
        if self.out is not None:
            self.out.close()


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _share_edges(fd: str, share: str) -> list[np.ndarray]:
    """A worker's entry: one share's ``_tile_edges`` joined, its inputs mapped from ``fd``."""
    arrays = _mapped(int(fd))
    # Python floats, as in the caller: against a NumPy float64 cut the
    # float32 scores would be compared in float64
    cut, theta = arrays[7].tolist()
    return [np.concatenate(part) for part in
            zip(*_tile_edges(*arrays[:7], arrays[8 + int(share)], cut, theta))]


def _edges(emb, norms, theta, mode, bands, band_bits, seed) -> list[np.ndarray]:
    """[ii, jj, dists] of every edge, ii < jj, in no particular order.

    Blocked mode groups the rows whose keys are equal in every band; exact
    mode puts every row in a group of its own, in one bucket.
    """
    n, d = emb.shape
    if mode == MODE_EXACT:
        keys = np.zeros((1, n), dtype=np.uint8)
        starts, members = np.arange(n + 1), np.arange(n)
    else:
        keys, starts, members = _sign_hash(emb, bands, band_bits, seed)
        keys = keys[:, members[starts[:-1]]]  # the representatives' keys
    # bands are alike, so the first one's buckets estimate the work
    m = np.unique(keys[0], return_counts=True)[1]
    pairs = len(keys) * float(m @ (m - 1)) / 2
    shares = _available_cpus()
    while shares > 1 and pairs * (d + _PAIR_OVERHEAD) < shares * _SHARE_WORK:
        shares -= 1
    procs = []
    # the workers' inputs, in one file that is never given a name
    with tempfile.TemporaryFile(buffering=0) if shares > 1 else contextlib.nullcontext() as fh:
        try:
            for k in range(shares if shares > 1 else 0):
                procs.append(Worker(_share_edges, f"building the similarity graph, share {k + 1}",
                                    fh.fileno(), str(k)))
            det, cut = _detection(emb, norms, starts, members, theta)
            order = np.argsort(keys, axis=1, kind="stable")
            tiles = _tiles(keys, order, max(len(procs), 1))
            inputs = (emb, norms, keys, order, starts, members, det)
            if not procs:
                parts = _tile_edges(*inputs, tiles[0], cut, theta)
            else:
                parts = []
                _save(fh, (*inputs, np.array([cut, theta]), *tiles))
                for proc in procs:
                    proc.start()
            del keys, order, det, tiles, inputs
            # the caller verifies the pairs inside groups while the workers run
            parts += _group_edges(emb, norms, starts, members, theta)
            parts += [proc.result(3) for proc in procs]
        finally:
            for proc in procs:
                proc.close()
    # each part is copied once and released, a worker's mapped result with it
    at = np.cumsum([0] + [len(part[0]) for part in parts]).tolist()
    ii, jj, dists = (np.empty(at[-1], dtype) for dtype in (np.int64, np.int64, np.float64))
    for k in range(len(parts)):
        ii[at[k] : at[k + 1]], jj[at[k] : at[k + 1]], dists[at[k] : at[k + 1]] = parts[k]
        parts[k] = None
    return [ii, jj, dists]


def _pack(key, ii, jj, level, lo, hi, n_levels, n) -> None:
    """Write the keys of rows lo..hi - 1 into ``key``, in edge order (see ``_csr``)."""
    at = 0
    for c in range(0, len(level), _CSR_CHUNK):
        a, b, v = ii[c : c + _CSR_CHUNK], jj[c : c + _CSR_CHUNK], level[c : c + _CSR_CHUNK]
        for row, nbr in ((a, b), (b, a)):  # edge (i, j) is entry j of row i and i of row j
            sel = (row >= lo) & (row < hi)
            part = ((row[sel] - lo) * n_levels + v[sel]) * n + nbr[sel]
            key[at : at + len(part)] = part
            at += len(part)


def _csr(edges: list, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, nbr_pos, nbr_dists) of ``_edges``'s [ii, jj, dists], which it empties.

    Entry (r, nbr) at the v-th smallest of the L distinct distances is the
    key ``(r * L + v) * n + nbr``, r counted from its block's first row, so
    sorting a block's unique keys in place puts each row in (distance, id)
    order; decoded, they give the distances and become ``nbr_pos``. Keys stay
    below ``_KEY_LIMIT``: one block whenever n * n * L is below it. Each
    edge array goes once read, before the output distances are allocated.
    """
    ii, jj, dists = edges
    edges.clear()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=n) + np.bincount(jj, minlength=n), out=indptr[1:])
    order = np.argsort(dists)
    ranked = dists[order]
    del dists
    new = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    levels = ranked[new]
    new[:1] = False
    rank = ranked.view(np.int64)  # the sorted distances are spent: their buffer takes the ranks
    np.cumsum(new, out=rank)
    level = np.empty(len(rank), dtype=np.int64)
    level[order] = rank
    del order, ranked, rank, new
    rows = _KEY_LIMIT // max(len(levels) * n, 1)
    key = np.empty(2 * len(level), dtype=np.int64)
    for lo in range(0, n, rows):
        block = key[indptr[lo] : indptr[min(lo + rows, n)]]
        _pack(block, ii, jj, level, lo, lo + rows, len(levels), n)
        block.sort()  # unique keys: any sort gives the same bytes
    del ii, jj, level
    nbr_dists = np.empty(len(key))
    for c in range(0, len(key), _CSR_CHUNK):
        part = key[c : c + _CSR_CHUNK]
        nbr_dists[c : c + _CSR_CHUNK] = levels[part // n % len(levels)]
        part %= n
    return indptr, key, nbr_dists


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
    norms = np.sqrt(_dots(emb, emb))
    if np.any(norms == 0.0):
        raise ValueError("zero embedding in graph input")
    if not np.all(np.isfinite(norms)):
        raise ValueError("non-finite embedding norm in graph input")
    no_edges = [np.empty(0, dtype=np.int64)] * 2 + [np.empty(0)]  # for an empty corpus
    edges = _edges(emb, norms, theta, mode, bands, band_bits, seed) if n else no_edges
    indptr, nbr_pos, nbr_dists = _csr(edges, n)
    return SimilarityGraph(ids, emb, norms, theta, mode, indptr, nbr_pos, nbr_dists)
