import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reviewfunnel.corpus as corpus_module
from reviewfunnel import simgraph
from reviewfunnel.corpus import (
    GeneratorConfig,
    generate_corpus_detailed,
    generate_corpus_detailed,
)
from reviewfunnel.simgraph import build_graph, cosine_distance, positions

from conftest import csr_neighbors, make_items, neighbor_ids, planted_blob, traced


def brute_force_adjacency(items, theta):
    """Reference adjacency: O(n^2) double loop over the public metric."""
    adj = {it.item_id: [] for it in items}
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            d = cosine_distance(items[i].embedding, items[j].embedding)
            if d <= theta:
                adj[items[i].item_id].append((items[j].item_id, d))
                adj[items[j].item_id].append((items[i].item_id, d))
    for neighbors in adj.values():
        neighbors.sort(key=lambda pair: (pair[1], pair[0]))
    return adj


def graph_adjacency(graph):
    return {
        i: graph.neighbors_with_distances(i, graph.theta) for i in graph.node_ids
    }


def rotated(angle):
    return [math.cos(angle), math.sin(angle)]


def edge_list(graph):
    """Every stored (a, b, distance) with a < b; an edge stored twice shows twice."""
    return sorted(
        (a, b, d)
        for a, neighbors in graph_adjacency(graph).items()
        for b, d in neighbors
        if a < b
    )


def csr_bytes(graph):
    nbr_ids = graph.ids[graph._nbr_pos]
    return [arr.tobytes() for arr in (graph._indptr, nbr_ids, graph._nbr_dists)]


@contextlib.contextmanager
def graph_workers(cpus, popen=None):
    """build_graph on ``cpus`` CPUs with no work too small for processes.

    Yields the list of the worker commands started; ``popen`` stands in for
    ``subprocess.Popen``.
    """
    started = []
    real = popen or subprocess.Popen

    def counting(args, **kwargs):
        started.append(args)
        return real(args, **kwargs)

    with mock.patch.object(simgraph, "_SHARE_WORK", 0), \
            mock.patch.object(simgraph, "_available_cpus", lambda: cpus), \
            mock.patch.object(subprocess, "Popen", counting):
        yield started


def csr_digests(clusters, dim, theta, mode):
    """sha256 digests of the CSR arrays over a generated corpus, built in this
    process and in two workers."""
    corpus = generate_corpus_detailed(
        GeneratorConfig(n_clusters=clusters, embedding_dim=dim, rng_seed=5))[0]
    digests = set()
    for workers in (contextlib.nullcontext(), graph_workers(2)):
        with workers:
            g = build_graph(corpus, theta, mode, seed=0)
        digests.add(hashlib.sha256(b"".join(csr_bytes(g))).hexdigest())
    return digests


def blob_items(dim=64, scale=1.0):
    """40 planted blobs of 15 items; theta 0.25 links within blobs."""
    rng = np.random.default_rng(1)
    vectors = [
        v for _ in range(40) for v in planted_blob(rng.standard_normal(dim), 15, 0.06, rng)
    ]
    return [dataclasses.replace(it, embedding=it.embedding * scale)
            for it in make_items(vectors)]


def overlap_items():
    """600 items of overlapping 16-d clusters; theta 0.5 gives dense buckets."""
    cfg = GeneratorConfig(n_clusters=60, embedding_dim=16, rng_seed=5)
    return generate_corpus_detailed(cfg)[0][:600]


def numpy_oracle(items, theta, bands, band_bits, seed):
    """Exact edge pairs; those sharing a bucket in one band or more; in two or more.

    Uses the program's hashing convention (planes drawn from ``seed`` with
    shape (d, bands * band_bits), one band per run of ``band_bits`` columns)
    but none of its code.
    """
    emb = np.stack([it.embedding for it in items])
    norms = np.linalg.norm(emb, axis=1)
    dist = 1.0 - (emb @ emb.T) / np.outer(norms, norms)
    planes = np.random.default_rng(seed).standard_normal((emb.shape[1], bands * band_bits))
    signs = (emb @ planes > 0).reshape(len(emb), bands, band_bits)
    keys = signs @ (1 << np.arange(band_bits))
    ii, jj = np.triu_indices(len(emb), k=1)
    # no pair sits so close to theta that float64 rounding could decide it
    assert not np.any(np.abs(dist[ii, jj] - theta) < 1e-9)
    exact = dist[ii, jj] <= theta
    shared = (keys[ii] == keys[jj]).sum(axis=1)
    ids = np.array([it.item_id for it in items])

    def pairs(mask):
        return set(zip(ids[ii[mask]].tolist(), ids[jj[mask]].tolist()))

    return pairs(exact), pairs(exact & (shared > 0)), pairs(exact & (shared > 1))


class TestCosineDistance:
    def test_identity(self):
        assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_analytic_45_degrees(self):
        d = cosine_distance([1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert abs(d - (1 - math.sqrt(2) / 2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            cosine_distance([0.0, 0.0], [1.0, 0.0])

    def test_metric_sanity(self, rng):
        for _ in range(200):
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            d = cosine_distance(a, b)
            assert 0.0 <= d <= 2.0
            assert d == cosine_distance(b, a)
            assert cosine_distance(a, a) <= 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e-160, 1e-200, 5e-324])
    def test_extreme_magnitudes(self, scale):
        # the squared norm overflows, is subnormal or underflows to zero; the
        # distance is that of the same directions at ordinary scale
        parallel = cosine_distance([1.0, 1.0], [1.0, 1.0])
        assert parallel < 1e-15
        assert cosine_distance([scale, scale], [1.0, 1.0]) == parallel
        assert cosine_distance([1.0, 1.0], [scale, scale]) == parallel
        assert cosine_distance([scale, 0.0], [0.0, scale]) == 1.0
        assert cosine_distance([scale, 0.0], [-1.0, 0.0]) == 2.0

    def test_ordinary_inputs_bitwise_unchanged(self, rng):
        def unscaled(a, b):
            norms = math.sqrt(float(np.einsum("i,i->", a, a))) * math.sqrt(
                float(np.einsum("i,i->", b, b)))
            return min(max(1.0 - float(np.einsum("i,i->", a, b)) / norms, 0.0), 2.0)

        for _ in range(500):
            a, b = rng.standard_normal((2, 8)) * 10.0 ** rng.integers(-150, 150, size=(2, 1))
            assert cosine_distance(a, b) == unscaled(a, b)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([], 0.1)
        assert len(g) == 0 and g.n_edges == 0

    def test_one_close_pair(self):
        # mutual distances ~{0.05, 0.5, 0.52}; only the close pair is an edge
        a = rotated(0.0)
        b = rotated(math.acos(0.95))
        c = rotated(-math.acos(0.5))
        items = make_items([a, b, c])
        g = build_graph(items, 0.1)
        assert g.n_edges == 1
        assert neighbor_ids(g, 0, 0.1) == [1]
        assert neighbor_ids(g, 2, 0.1) == []

    def test_invalid_theta(self):
        with pytest.raises(ValueError, match="theta"):
            build_graph([], 2.5)

    @pytest.mark.parametrize("mode, options, first_row, match", [
        ("psychic", {}, [1.0, 1.0], "unknown graph mode"),
        ("blocked", {"bands": 0}, [1.0, 1.0], "bands must be >= 1"),
        ("blocked", {"band_bits": 0}, [1.0, 1.0], r"band_bits in \[1, 62\]"),
        ("blocked", {"band_bits": 63}, [1.0, 1.0], r"band_bits in \[1, 62\]"),
        ("exact", {}, [0.0, 0.0], "zero embedding"),
        ("blocked", {}, [0.0, 0.0], "zero embedding"),
    ], ids=["mode", "bands-0", "band_bits-0", "band_bits-63", "zero-row-exact",
            "zero-row-blocked"])
    def test_bad_arguments_refused(self, mode, options, first_row, match):
        items = make_items([[1.0, 1.0], [1.0, 0.0]])
        items[0] = dataclasses.replace(items[0], embedding=np.array(first_row))
        with pytest.raises(ValueError, match=match):
            build_graph(items, 0.1, mode, **options)

    def test_exact_equals_brute_force(self, rng):
        for trial in range(3):
            n = [60, 200, 500][trial]
            vectors = rng.standard_normal((n, 6))
            # sprinkle in tight duplicates so edges exist at small radii
            vectors[n // 2 :] = vectors[: n - n // 2] + 0.05 * rng.standard_normal(
                (n - n // 2, 6)
            )
            items = make_items(vectors)
            theta = [0.05, 0.2, 0.5][trial]
            g = build_graph(items, theta, "exact")
            assert graph_adjacency(g) == brute_force_adjacency(items, theta)

    def test_blocked_subset_of_exact(self, rng):
        vectors = rng.standard_normal((300, 8))
        items = make_items(vectors)
        exact = build_graph(items, 0.4, "exact")
        blocked = build_graph(items, 0.4, "blocked", bands=8, band_bits=4, seed=1)
        exact_adj = graph_adjacency(exact)
        for node, neighbors in graph_adjacency(blocked).items():
            assert set(neighbors) <= set(exact_adj[node])

    def test_blocked_recall_on_generated_corpus(self):
        # 1,000 generated items at the near-duplicate radius, exact oracle
        cfg = GeneratorConfig(n_clusters=100, cluster_size_mean=10, rng_seed=12)
        items, _, _ = generate_corpus_detailed(cfg)
        items = items[:1000]
        exact = build_graph(items, 0.05, "exact")
        blocked = build_graph(items, 0.05, "blocked", seed=0)
        exact_adj = graph_adjacency(exact)
        exact_edges = sum(len(v) for v in exact_adj.values())
        hit = 0
        for node, neighbors in graph_adjacency(blocked).items():
            hit += len(set(neighbors) & set(exact_adj[node]))
        assert exact_edges > 0
        assert hit / exact_edges >= 0.95

    def test_monotone_in_theta(self, rng):
        vectors = rng.standard_normal((150, 5))
        items = make_items(vectors)
        g1 = build_graph(items, 0.2, "exact")
        g2 = build_graph(items, 0.6, "exact")
        for node in g1.node_ids:
            assert set(neighbor_ids(g1, node, 0.2)) <= set(
                neighbor_ids(g2, node, 0.6)
            )

    def test_symmetry_and_irreflexivity(self, rng):
        for mode in ("exact", "blocked"):
            vectors = rng.standard_normal((120, 6))
            items = make_items(vectors)
            g = build_graph(items, 0.5, mode, bands=8, band_bits=4, seed=2)
            adj = graph_adjacency(g)
            for node, neighbors in adj.items():
                ids = [i for i, _ in neighbors]
                assert node not in ids
                for other in ids:
                    assert node in [i for i, _ in adj[other]]

    def test_workers_do_not_change_output(self, rng):
        vectors = rng.standard_normal((400, 8))
        items = make_items(vectors)
        for mode in ("exact", "blocked"):
            g1 = build_graph(items, 0.3, mode, seed=5, workers=1)
            g2 = build_graph(items, 0.3, mode, seed=5, workers=4)
            assert graph_adjacency(g1) == graph_adjacency(g2)
        # worker processes, one per CPU, give the in-process build's bytes
        corpora = [(blob_items(), 0.25), (overlap_items(), 0.5), (blob_items(scale=0.5), 0.25)]
        for items, theta in corpora:
            for mode in ("exact", "blocked"):
                with graph_workers(1) as started:
                    here = csr_bytes(build_graph(items, theta, mode, seed=3))
                assert not started
                for cpus in (2, 3, 4):
                    with graph_workers(cpus) as started:
                        assert csr_bytes(build_graph(items, theta, mode, seed=3)) == here
                    assert len(started) == cpus

    def test_blocked_deterministic_per_seed(self, rng):
        vectors = rng.standard_normal((200, 8))
        items = make_items(vectors)
        g1 = build_graph(items, 0.3, "blocked", seed=9)
        g2 = build_graph(items, 0.3, "blocked", seed=9)
        assert graph_adjacency(g1) == graph_adjacency(g2)

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    @pytest.mark.parametrize("scale", [0.5, 3.0])
    def test_embedding_scale_does_not_change_edges(self, mode, scale):
        items = generate_corpus_detailed(GeneratorConfig(n_clusters=30, rng_seed=3))[0][:300]
        scaled = [dataclasses.replace(it, embedding=it.embedding * scale) for it in items]
        unit = edge_list(build_graph(items, 0.25, mode, seed=0))
        other = edge_list(build_graph(scaled, 0.25, mode, seed=0))
        assert len(unit) > 1000
        assert [e[:2] for e in other] == [e[:2] for e in unit]
        np.testing.assert_allclose(
            [e[2] for e in other], [e[2] for e in unit], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("corpus", ["blobs64", "overlap16"])
    def test_blocked_is_exact_within_shared_buckets(self, corpus):
        if corpus == "blobs64":
            items, theta, bands = blob_items(), 0.25, 8
        else:
            items, theta, bands = overlap_items(), 0.5, 16
        exact, collide, repeated = numpy_oracle(items, theta, bands, 8, seed=3)
        # the oracle must miss edges and see edges in several bands, or the
        # comparison below would not test banding and first-band ownership
        assert collide < exact and repeated
        got_exact = edge_list(build_graph(items, theta, "exact"))
        blocked = build_graph(items, theta, "blocked", bands=bands, band_bits=8, seed=3)
        got_blocked = edge_list(blocked)
        assert [e[:2] for e in got_exact] == sorted(exact)
        assert [e[:2] for e in got_blocked] == sorted(collide)

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_near_threshold_pairs_follow_canonical_distance(self, mode):
        # pairs planted just inside, at and just outside theta in 64-d, where
        # float32 detection error is about 1e-7: a pad too small drops some
        theta = 0.05
        rng = np.random.default_rng(8)
        vectors, pairs = [], []
        for offset in (-1e-7, -1e-9, 0.0, 1e-7):
            for _ in range(25):
                u, w = np.linalg.qr(rng.standard_normal((64, 2)))[0].T
                c = 1.0 - (theta + offset)
                pairs.append((len(vectors), len(vectors) + 1, offset))
                vectors += [u, c * u + math.sqrt(1.0 - c * c) * w]
        items = make_items(vectors)
        within = [
            (a, b) for a, b, _ in pairs
            if cosine_distance(items[a].embedding, items[b].embedding) <= theta
        ]
        assert {(a, b) for a, b, o in pairs if o < 0} <= set(within)
        assert not {(a, b) for a, b, o in pairs if o > 0} & set(within)
        # 16 bands of 2 bits: a pair at theta shares no bucket with odds < 1e-11
        g = build_graph(items, theta, mode, bands=16, band_bits=2, seed=6)
        assert [e[:2] for e in edge_list(g)] == within

    @pytest.mark.parametrize(
        "dim, theta, digest",
        [
            (64, 0.25, "ac2b526d52b0a0fc4dd661fc08b723668d7618946d0c89e87960eaadf9ef1110"),
            (16, 0.5, "d36945a5ad09f376c4449e9a739f5c018e41c8d843f879319193161e4bb74751"),
        ],
    )
    def test_blocked_csr_is_pinned(self, dim, theta, digest):
        # digests recorded before detection moved to float32 tiles; a change
        # to detection that moves an edge or a distance bit fails here
        assert csr_digests(500, dim, theta, "blocked") == {digest}

    @pytest.mark.parametrize(
        "dim, theta, clusters, digest",
        [
            (64, 0.25, 500, "ac2b526d52b0a0fc4dd661fc08b723668d7618946d0c89e87960eaadf9ef1110"),
            (16, 0.5, 500, "98ceca29fee05ec2be0042cfd2e7eac571728cd5f5eec634d69b4c3d65f2ae4f"),
            (4, 0.05, 200, "4dbb8b09adc32154a5c884f865ed08f1fa5304411986580efe67042ec291255d"),
            (2, 0.01, 200, "8eaa6a07b495b3efef9f9b26ad42336568b5a55b3546395618682f4fec863452"),
        ],
    )
    def test_exact_csr_is_pinned(self, dim, theta, clusters, digest):
        # digests recorded while exact mode scored the unit rows alone; the
        # [unit, f, 1] rows with f = 0 must find the same edges and distances
        assert csr_digests(clusters, dim, theta, "exact") == {digest}

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_equal_distances_order_by_id(self, mode):
        # each centre has a mirrored pair of neighbours at bitwise-equal
        # distances, in a plane of its own, with ids below, above or on both
        # sides of the centre's; in blocked mode the pair's edges are often
        # owned by different bands, so found out of id order
        angles = np.random.default_rng(4).uniform(0.1, 0.5, 30)
        vectors, ids = [], []
        for k, angle in enumerate(angles):
            centre, a, b = np.zeros((3, 60))
            centre[2 * k] = a[2 * k] = b[2 * k] = 1.0
            a[2 * k + 1], b[2 * k + 1] = math.tan(angle), -math.tan(angle)
            vectors += [centre, a, b]
            ids += [100 * k + (50, 10, 95)[k % 3], 100 * k + 90, 100 * k + 20]
        items = make_items(vectors, ids=ids)
        for workers in (contextlib.nullcontext(), graph_workers(2)):
            with workers:
                g = build_graph(items, 0.3, mode, bands=16, band_bits=4, seed=1)
            rows = [g.neighbors_with_distances(centre, 0.3) for centre in ids[::3]]
            assert sum(len(row) == 2 for row in rows) >= 25
            for k, row in enumerate(rows):
                if len(row) == 2:
                    assert row[0][1] == row[1][1]
                    assert [i for i, _ in row] == [100 * k + 20, 100 * k + 90]

    def test_identical_embeddings_always_linked_in_blocked_mode(self):
        vec = [0.3, -0.7, 0.64]
        items = make_items([vec, vec, [1.0, 0.0, 0.0]])
        g = build_graph(items, 0.01, "blocked", seed=4)
        assert neighbor_ids(g, 0, 0.0) == [1]

    def test_group_of_identical_rows(self):
        # 150 copies of one row among 30 others: equal signatures, cut into
        # groups of at most _GROUP_ROWS, each of radius 0
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((180, 8))
        copies = np.sort(rng.choice(180, 150, replace=False))
        vectors[copies] = vectors[copies[0]]
        items = make_items(vectors)
        want = [(a, b) for a in copies.tolist() for b in copies.tolist() if a < b]
        for workers in (contextlib.nullcontext(), graph_workers(2)):
            with workers:
                g = build_graph(items, 0.05, "blocked", bands=4, band_bits=4, seed=1)
            edges = edge_list(g)
            assert [e[:2] for e in edges if e[0] in copies or e[1] in copies] == want
            assert all(e[2] <= 1e-15 for e in edges if e[0] in copies)
            assert edges == edge_list(build_graph(items, 0.05, "exact"))

    @pytest.mark.parametrize("workers", [False, True])
    def test_group_radius_widens_the_cut(self, workers):
        # Groups G = {0, 2} and H = {1, 3} fill two sign cells that share a
        # band-0 bucket. Their representatives 0 and 1 sit 2 * alpha apart,
        # far beyond theta, while members 2 and 3 sit on either side of the
        # cells' common boundary, well within theta: without the radii in
        # the cut, detection never sees the pair (2, 3).
        theta, alpha, delta = 0.05, 0.5, 0.05

        def turned(boundary, angle):
            c, s = math.cos(angle), math.sin(angle)
            return np.array([c * boundary[0] - s * boundary[1], s * boundary[0] + c * boundary[1]])

        for seed in range(100):
            # plane 1's boundary; rows turned either way from it take either sign
            planes = np.random.default_rng(seed).standard_normal((2, 2))
            boundary = np.array([-planes[1, 1], planes[0, 1]])
            vectors = [turned(boundary, a) for a in (alpha, -alpha, delta, -delta)]
            signs = np.stack(vectors) @ planes > 0
            if not signs[:, 0].any():  # all four on one side of plane 0
                break
        assert (signs[0] == signs[2]).all() and (signs[1] == signs[3]).all()
        assert (signs[0] != signs[1]).any()
        items = make_items(vectors)
        assert cosine_distance(items[0].embedding, items[1].embedding) > 0.4
        assert cosine_distance(items[2].embedding, items[3].embedding) < theta / 5
        with graph_workers(2) if workers else contextlib.nullcontext():
            g = build_graph(items, theta, "blocked", bands=2, band_bits=1, seed=seed)
        assert [e[:2] for e in edge_list(g)] == [(2, 3)]
        exact, collide, _ = numpy_oracle(items, theta, 2, 1, seed)
        assert collide == exact == {(2, 3)}

    def test_non_finite_norm_rejected(self):
        # the squared norm of this row overflows; a zero norm is rejected too
        items = make_items([[1.0, 1.0], [1.0, 0.0]])
        huge = [dataclasses.replace(items[0], embedding=np.array([1e200, 1e200])), items[1]]
        for mode in ("exact", "blocked"):
            with pytest.raises(ValueError, match="non-finite"):
                build_graph(huge, 0.1, mode)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dim=st.sampled_from([2, 3, 8]),
    centres=st.integers(2, 25),
    copies=st.integers(1, 6),
    spread=st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.7]),
    bands=st.integers(2, 5),
    band_bits=st.integers(1, 5),
    theta=st.sampled_from([0.05, 0.25]),
    workers=st.booleans(),
)
def test_grouped_detection_matches_oracle(seed, dim, centres, copies, spread, bands, band_bits,
                                          theta, workers):
    # copies scattered around each centre by up to about the theta chord (0.7
    # at theta 0.25); few hyperplanes leave wide sign cells, so groups of
    # equal signatures reach such radii too
    rng = np.random.default_rng(seed)
    vectors = np.repeat(rng.standard_normal((centres, dim)), copies, axis=0)
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    vectors += spread / math.sqrt(dim) * rng.standard_normal(vectors.shape)
    items = make_items(vectors[rng.permutation(len(vectors))])
    exact, collide, _ = numpy_oracle(items, theta, bands, band_bits, seed)
    with graph_workers(2) if workers else contextlib.nullcontext():
        blocked = build_graph(items, theta, "blocked", bands=bands, band_bits=band_bits, seed=seed)
    want = [e for e in edge_list(build_graph(items, theta, "exact")) if e[:2] in collide]
    assert [e[:2] for e in want] == sorted(collide)
    assert edge_list(blocked) == want


def _substitute(*codes):
    """A Popen starting ``codes[k]`` (the last one from then on) for the k-th worker."""
    popen = subprocess.Popen
    started = []

    def substitute(args, **kwargs):
        code = codes[min(len(started), len(codes) - 1)]
        started.append(popen([sys.executable, "-c", code], **kwargs))
        return started[-1]

    return substitute, started


class TestGraphWorkers:
    """Failures of the worker processes that build a graph's shares."""

    @pytest.fixture
    def items(self):
        return blob_items()

    @pytest.fixture
    def tmpdir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_two_workers_start_at_twice_the_share_work(self, cpus):
        # Exact mode scores one bucket of all n rows, n (n - 1) / 2 pairs at
        # d + _PAIR_OVERHEAD units each: the smallest n whose work reaches two
        # shares, and the one below it, straddle the routing rule.
        per_pair = 2 + simgraph._PAIR_OVERHEAD
        n = math.isqrt(int(4 * simgraph._SHARE_WORK / per_pair))
        while n * (n - 1) / 2 * per_pair < 2 * simgraph._SHARE_WORK:
            n += 1
        assert (n - 1) * (n - 2) / 2 * per_pair < 2 * simgraph._SHARE_WORK
        started = []

        class Recorded(simgraph.Worker):
            def __init__(self, *args):
                started.append(args[1])
                super().__init__(*args)

        vectors = np.random.default_rng(3).standard_normal((n, 2))
        # no interpreter is launched: with no sys.executable each share runs here
        with mock.patch.object(simgraph, "Worker", Recorded), \
                mock.patch.object(sys, "executable", ""), \
                mock.patch.object(simgraph, "_available_cpus", lambda: cpus):
            for rows, workers in ((n, cpus if cpus > 1 else 0), (n - 1, 0)):
                started.clear()
                graph = build_graph(make_items(vectors[:rows]), 1e-6, "exact")
                assert len(started) == workers, (rows, started)
        assert graph.n_edges

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_worker_that_cannot_start_leaves_its_share_here(self, items, tmpdir, mode):
        here = csr_bytes(build_graph(items, 0.25, mode, seed=3))
        environ = dict(os.environ)
        popen = mock.Mock(side_effect=OSError("no fork"))
        with graph_workers(3, popen) as started:
            assert csr_bytes(build_graph(items, 0.25, mode, seed=3)) == here
        assert len(started) == 3
        # the child's BLAS runs one thread; the caller's environment is untouched
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert popen.call_args.kwargs["env"][name] == "1"
        assert dict(os.environ) == environ
        with graph_workers(3) as started, mock.patch.object(sys, "executable", ""):
            assert csr_bytes(build_graph(items, 0.25, mode, seed=3)) == here
        assert not started
        assert not list(tmpdir.iterdir())

    def test_worker_imports_only_what_it_runs(self):
        # a worker imports reviewfunnel.simgraph, and not orjson, which only
        # the JSON Lines loaders import; the package's other exports load on
        # first use
        src = os.path.dirname(os.path.dirname(simgraph.__file__))

        def child(code):
            code = f"import json, sys; sys.path.insert(0, sys.argv[1]); {code}"
            out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                                 text=True, check=True).stdout
            return json.loads(out)

        assert child(
            "import reviewfunnel.simgraph; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith(('reviewfunnel', 'orjson')))))"
        ) == ["reviewfunnel", "reviewfunnel.corpus", "reviewfunnel.simgraph"]
        assert child(
            "import reviewfunnel; from reviewfunnel import *; "
            "from reviewfunnel import cli, run_pipeline_detailed; "
            "print(json.dumps([len(reviewfunnel.__all__), "
            "run_pipeline_detailed is reviewfunnel.pipeline.run_pipeline_detailed, "
            "set(reviewfunnel.__all__) <= set(dir(reviewfunnel))]))"
        ) == [25, True, True]

    @pytest.mark.parametrize("code", [
        pytest.param("import sys; sys.exit(1)", id="exit-1"),
        pytest.param("import sys; sys.stdin.read(1); sys.stdout.buffer.write(b'\\x93NUMPY')",
                     id="cut-output"),
        pytest.param("raise MemoryError", id="crash"),
        pytest.param("import sys; sys.stdin.read(1)", id="no-output"),
        # three object arrays, each at a multiple of 64 bytes as the reader
        # expects: unpickling any of them would create a file in the caller's
        # temporary directory
        pytest.param(
            "import sys, tempfile, numpy as np; sys.stdin.read(1); out = sys.stdout.buffer\n"
            "class Planted:\n"
            "    def __reduce__(self): return (tempfile.mkstemp, ())\n"
            "for _ in range(3):\n"
            "    out.write(bytes(-out.tell() % 64))\n"
            "    np.save(out, np.array([Planted()], dtype=object), allow_pickle=True)\n",
            id="object-arrays"),
    ])
    def test_worker_without_result_names_its_share(self, items, tmpdir, code):
        # the first worker fails; the others would run for a minute
        substitute, procs = _substitute(code, "import time; time.sleep(60)")
        with graph_workers(3, substitute):
            with pytest.raises(RuntimeError, match="similarity graph, share 1: worker exited"):
                build_graph(items, 0.25, "blocked", seed=3)
        assert len(procs) == 3
        assert all(proc.poll() is not None for proc in procs)
        assert not list(tmpdir.iterdir())

    def test_mapped_reads_back_only_saved_arrays(self):
        arrays = [np.arange(7, dtype=np.uint8), np.asfortranarray(np.arange(6.0).reshape(2, 3)),
                  np.arange(5), np.empty((0, 4), dtype=np.float32)]
        with tempfile.TemporaryFile() as fh:
            assert simgraph._mapped(fh.fileno()) == []
            simgraph._save(fh, arrays)
            fh.flush()
            back = simgraph._mapped(fh.fileno())
            assert [(a.dtype, a.shape) for a in back] == [(a.dtype, a.shape) for a in arrays]
            assert all(np.array_equal(a, b) for a, b in zip(back, arrays))
            assert all(a.flags.aligned and not a.flags.writeable for a in back)
            # an object array is refused, not unpickled or viewed as pointers
            fh.write(bytes(-fh.tell() % 64))
            np.save(fh, np.array([{}], dtype=object), allow_pickle=True)
            fh.flush()
            with pytest.raises(ValueError, match="plain dtype"):
                simgraph._mapped(fh.fileno())

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_killed_caller_leaves_no_file(self, tmp_path):
        # the caller kills itself once both workers have their inputs and the
        # go byte; a worker build names nothing in the temporary directory,
        # so nothing is left there, and no worker outlives the caller
        kill_caller_at("_group_edges", tmp_path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_caller_killed_before_start_leaves_no_worker(self, tmp_path):
        kill_caller_at("_detection", tmp_path)


def kill_caller_at(point: str, tmp_path) -> None:
    """Run a worker build that SIGKILLs itself at ``simgraph.<point>``.

    Each worker's share takes a minute, so only a worker that sees its caller
    gone is gone within seconds; the caller's temporary directory stays empty.
    """
    temp = tmp_path / "temp"
    temp.mkdir()
    (tmp_path / "slow_share.py").write_text(
        "import time\n"
        "from reviewfunnel import simgraph\n"
        "def share(fd, k):\n"
        "    time.sleep(60)\n"
        "    return simgraph._share_edges(fd, k)\n"
    )
    script = (
        "import os, signal, sys\n"
        f"sys.path.insert(0, {os.path.dirname(os.path.dirname(simgraph.__file__))!r})\n"
        "from reviewfunnel import corpus, simgraph\n"
        "import slow_share\n"
        "class Worker(simgraph.Worker):\n"
        "    def __init__(self, *args):\n"
        "        super().__init__(*args)\n"
        "        print(self.proc.pid, flush=True)\n"
        "items = corpus.generate_corpus_detailed(corpus.GeneratorConfig(n_clusters=30))[0]\n"
        "simgraph.Worker, simgraph._share_edges = Worker, slow_share.share\n"
        "simgraph._SHARE_WORK = 0\n"
        "simgraph._available_cpus = lambda: 2\n"
        f"simgraph.{point} = lambda *args: os.kill(os.getpid(), signal.SIGKILL)\n"
        "simgraph.build_graph(items, 0.25, 'blocked')\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60,
                          env={**os.environ, "TMPDIR": str(temp), "PYTHONPATH": str(tmp_path)})
    pids = [int(pid) for pid in done.stdout.split()]
    try:
        assert done.returncode == -9, done.stderr
        assert len(pids) == 2
        assert not list(temp.iterdir())
        deadline = time.monotonic() + 5
        while any(map(_share_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_share_running, pids))
    finally:
        for pid in filter(_share_running, pids):
            os.kill(pid, signal.SIGKILL)


def _share_running(pid: int) -> bool:
    """Whether process ``pid`` is a live (not zombie) worker running ``slow_share``."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            command = fh.read()
        with open(f"/proc/{pid}/stat", "rb") as fh:
            state = fh.read().rsplit(b")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return b"slow_share" in command and state != b"Z"


@pytest.fixture(scope="module")
def sign_corpus():
    """A generated 64-d corpus over five blocks and a part of one."""
    corpus = generate_corpus_detailed(GeneratorConfig(n_clusters=2000, rng_seed=5))[0]
    assert len(corpus) > 4 * corpus_module._BLOCK_ROWS and len(corpus) % corpus_module._BLOCK_ROWS
    return corpus


@pytest.mark.parametrize("dim, bands, band_bits",
                         [(64, 16, 8), (64, 12, 12), (5, 3, 20), (7, 5, 3), (16, 4, 1)])
def test_sign_hash_in_blocks_equals_one_product(sign_corpus, dim, bands, band_bits):
    # BLAS may round a block's product apart from the whole one's; the sign
    # bits, and so the keys and groups, must not move
    emb = np.ascontiguousarray(sign_corpus.embeddings[:, :dim])
    planes = np.random.default_rng(9).standard_normal((dim, bands * band_bits))
    bits = ((emb @ planes) > 0).reshape(len(emb), bands, band_bits)
    keys, starts, members = simgraph._sign_hash(emb, bands, band_bits, 9)
    assert np.array_equal(keys, (bits << np.arange(band_bits)).sum(axis=2).T)
    with mock.patch.object(corpus_module, "_BLOCK_ROWS", 1 << 30):
        whole = simgraph._sign_hash(emb, bands, band_bits, 9)
    assert all(np.array_equal(a, b) for a, b in zip(whole, (keys, starts, members)))
    assert len(starts) - 1 < len(emb)


def test_sign_hash_holds_one_block_of_projections(sign_corpus):
    emb = sign_corpus.embeddings
    out, peak, _ = traced(simgraph._sign_hash, emb, 16, 8, 0)
    product = corpus_module._BLOCK_ROWS * 16 * 8 * 8  # a block's float64 projections
    # its outputs, sixteen n-element int64 arrays to sort and cut the groups,
    # and one block's projections with their sign bits and packed bytes; the
    # whole product alone would be over twice that
    bound = sum(a.nbytes for a in out) + 16 * 8 * len(emb) + 1.5 * product
    assert peak < bound < len(emb) * 16 * 8 * 8 / 2, (peak, bound)


@pytest.mark.parametrize("workers, dim, cluster_size", [(1, 64, 20), (2, 128, 10)],
                         ids=["in-process", "workers"])
def test_build_holds_under_one_and_a_half_outputs_beyond_them(workers, dim, cluster_size):
    # The buffers of a fixed size (a block of projections, a batch of member
    # pairs, a detection tile) are shrunk, so the bound sees what grows with
    # the corpus. The CSR assembly peaks about half an output beyond its
    # output. Held while the edges are assembled, the tiles' edges and their
    # concatenation (in this process, about 10 edges a row here) or the
    # detection rows and band orders (through workers, 128-d rows) would each
    # push the peak past the bound.
    corpus = generate_corpus_detailed(GeneratorConfig(
        n_clusters=20000 // cluster_size, cluster_size_mean=cluster_size, embedding_dim=dim,
        rng_seed=5))[0]
    with mock.patch.object(corpus_module, "_BLOCK_ROWS", 512), \
            mock.patch.object(simgraph, "_VERIFY_PAIRS", 512), \
            mock.patch.object(simgraph, "_TILE_ELEMS", 1 << 16), \
            graph_workers(workers) as started:
        graph, peak, _ = traced(build_graph, corpus, 0.25, "blocked")
    assert len(started) == (workers if workers > 1 else 0)
    out = sum(a.nbytes for a in (graph._indptr, graph._nbr_pos, graph._nbr_dists, graph._norms))
    assert peak - out < 1.5 * out, (peak, out)


def upper_edges(graph, rng):
    """The graph's edges as ``_edges`` gives them, [ii, jj, dists] with ii < jj, shuffled."""
    row = np.repeat(np.arange(len(graph)), np.diff(graph._indptr))
    upper = row < graph._nbr_pos
    order = rng.permutation(np.count_nonzero(upper))
    return [row[upper][order], graph._nbr_pos[upper][order], graph._nbr_dists[upper][order]]


@pytest.mark.parametrize("mode", ["exact", "blocked"])
def test_csr_in_row_blocks_is_the_one_block_csr(mode):
    # A key limit of n * L * rows, L distinct distances, assembles the CSR
    # in blocks of that many rows. The copies at distance 0 tie, and the
    # keys order them by id in any block.
    items = gather_corpus()
    pack = mock.Mock(wraps=simgraph._pack)
    with mock.patch.object(simgraph, "_pack", pack):
        graph = build_graph(items, 0.25, mode, bands=8, band_bits=4, seed=3)
    assert pack.call_count == 1
    n, levels = len(graph), len(np.unique(graph._nbr_dists))
    assert levels < graph.n_edges  # some distances repeat
    for rows in (1, 7, n - 1):
        pack.reset_mock()
        with mock.patch.object(simgraph, "_pack", pack), \
                mock.patch.object(simgraph, "_KEY_LIMIT", n * levels * rows):
            blocked = build_graph(items, 0.25, mode, bands=8, band_bits=4, seed=3)
        assert pack.call_count == -(-n // rows)
        assert csr_bytes(blocked) == csr_bytes(graph)
    # the full desk corpus, 200,739 rows with at most one distance an edge
    # (996,219), is one block: n * n * L is 4e16, below the int64 limit
    assert simgraph._KEY_LIMIT // (996_219 * 200_739) >= 200_739


def test_csr_assembly_holds_one_and_a_half_outputs_beyond_its_edges():
    # Given the edges, the assembly holds its keys, which become nbr_pos,
    # the distinct distances and the output distances: about 1.25 outputs.
    # The argsort assembly it replaced peaked at 2.2 outputs on these edges,
    # between np.unique's temporaries and the two permutation gathers.
    corpus = generate_corpus_detailed(
        GeneratorConfig(n_clusters=2000, embedding_dim=16, rng_seed=5))[0]
    graph = build_graph(corpus, 0.25, "blocked")
    edges = upper_edges(graph, np.random.default_rng(0))
    with mock.patch.object(simgraph, "_CSR_CHUNK", 256):
        out, peak, _ = traced(simgraph._csr, list(edges), len(graph))
    assert [a.tobytes() for a in out] == [
        a.tobytes() for a in (graph._indptr, graph._nbr_pos, graph._nbr_dists)]
    size = sum(a.nbytes for a in out)
    assert peak < 1.5 * size, (peak, size)


class TestNeighborQueries:
    def setup_method(self):
        rng = np.random.default_rng(3)
        blob = planted_blob(rng.standard_normal(16), 5, 0.005, rng)
        far = [rng.standard_normal(16) for _ in range(10)]
        self.items = make_items(blob + far)
        self.graph = build_graph(self.items, 0.25, "exact")

    def test_zero_radius_on_distinct_embeddings(self):
        assert neighbor_ids(self.graph, 0, 0.0) == []

    def test_full_radius_is_identity_filter(self):
        full = self.graph.neighbors_with_distances(0, self.graph.theta)
        again = self.graph.neighbors_with_distances(0, 0.25)
        assert full == again

    def test_planted_cluster_members_found(self):
        # verify against exact pairwise distances, then query
        dists = {
            j: cosine_distance(self.items[0].embedding, self.items[j].embedding)
            for j in range(1, 5)
        }
        assert all(d <= 0.05 for d in dists.values())
        assert neighbor_ids(self.graph, 0, 0.05) == [
            j for j, _ in sorted(dists.items(), key=lambda kv: (kv[1], kv[0]))
        ]

    def test_ordering_by_distance_then_id(self):
        for node in self.graph.node_ids:
            neighbors = self.graph.neighbors_with_distances(node, 0.25)
            assert neighbors == sorted(neighbors, key=lambda p: (p[1], p[0]))

    def test_radius_above_theta_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            neighbor_ids(self.graph, 0, 0.3)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="999"):
            neighbor_ids(self.graph, 999, 0.1)

    def test_distance_matches_metric(self):
        (d,) = self.graph.pair_distances(positions(self.graph.ids, [0]),
                                         positions(self.graph.ids, [1]))
        assert d == cosine_distance(self.items[0].embedding, self.items[1].embedding)

    def test_negative_position_rejected(self):
        # numpy would read a negative position from the end
        with pytest.raises(IndexError, match="position -2 is negative"):
            self.graph.gather([-2], 0.25)
        for a, b in (([-1], [0]), ([0], [-1])):
            with pytest.raises(IndexError, match="position -1 is negative"):
                self.graph.pair_distances(np.array(a), np.array(b))

    def test_non_integer_position_rejected(self):
        # a cast to int64 would read 0.5 and 1.7 as rows 0 and 1, and 1.5 or
        # True as id 1
        for bad in (np.array([0.5, 1.7]), [1.5], [True]):
            with pytest.raises(TypeError, match="positions must be integers"):
                self.graph.gather(bad, 0.1)
            with pytest.raises(TypeError, match="positions must be integers"):
                self.graph.pair_distances(bad, np.zeros(len(bad), dtype=np.int64))
            with pytest.raises(TypeError, match="item ids must be integers"):
                positions(self.graph.ids, bad)
        assert [len(part) for part in self.graph.gather([], 0.1)] == [0, 0, 0]
        assert positions(self.graph.ids, []).tolist() == []
        assert positions(self.graph.ids, np.array([1], dtype=np.uint8)).tolist() == [1]


def batch_rows(graph, ids, radius):
    """One ``gather`` over the positions of ``ids``, as one (id, distance) list per input id."""
    row, nbr, dists = graph.gather(positions(graph.ids, ids), radius)
    assert row.dtype.kind == "i" and len(row) == len(nbr) == len(dists)
    assert np.all(np.diff(row) >= 0)
    out = [[] for _ in ids]
    for r, nid, dist in zip(row.tolist(), graph.ids[nbr].tolist(), dists.tolist()):
        out[r].append((nid, dist))
    return out


class TestNeighborsBatch:
    """A batch of rows read by one ``gather``, against per-item queries."""

    @pytest.fixture(scope="class", params=["exact", "blocked"])
    def graph(self, request):
        cfg = GeneratorConfig(n_clusters=60, embedding_dim=16, rng_seed=9)
        return build_graph(generate_corpus_detailed(cfg)[0], 0.25, request.param, seed=2)

    @pytest.mark.parametrize("radius", [0.0, 0.05, 0.1, 0.25])
    def test_every_node_matches_per_item_queries(self, graph, radius):
        ids = graph.node_ids
        rows = batch_rows(graph, ids, radius)
        assert sum(map(len, rows)) > 0 or radius == 0.0
        for item_id, got in zip(ids, rows):
            assert got == graph.neighbors_with_distances(item_id, radius)
            assert got == csr_neighbors(graph, item_id, radius)

    def test_input_order_is_kept(self, graph):
        ids = graph.node_ids[::-7]
        rows = batch_rows(graph, ids, 0.1)
        assert rows == [csr_neighbors(graph, i, 0.1) for i in ids]

    def test_empty_input(self, graph):
        for ids in ([], np.empty(0, dtype=np.int64)):
            row, nbr, dists = graph.gather(positions(graph.ids, ids), 0.25)
            assert len(row) == len(nbr) == len(dists) == 0

    def test_duplicate_ids_repeat_their_row(self, graph):
        busiest = max(graph.node_ids, key=lambda i: len(csr_neighbors(graph, i, 0.25)))
        ids = [busiest, graph.node_ids[0], busiest]
        rows = batch_rows(graph, ids, 0.25)
        assert rows[0] == rows[2] == csr_neighbors(graph, busiest, 0.25) != []
        assert rows[1] == csr_neighbors(graph, graph.node_ids[0], 0.25)

    def test_unknown_id_rejected(self, graph):
        unknown = max(graph.node_ids) + 1
        for ids in ([unknown], [graph.node_ids[0], unknown], [-1]):
            with pytest.raises(KeyError, match=str(ids[-1])):
                batch_rows(graph, ids, 0.1)
            with pytest.raises(KeyError, match=str(ids[-1])):
                graph.neighbors_with_distances(ids[-1], 0.1)

    def test_radius_above_theta_rejected(self, graph):
        with pytest.raises(ValueError, match="exceeds"):
            batch_rows(graph, graph.node_ids[:3], 0.25 + 1e-9)
        with pytest.raises(ValueError, match="exceeds"):
            batch_rows(graph, [], 0.3)


def gather_corpus():
    """Tight blobs with exact copies (distance 0) and isolated items (empty rows)."""
    rng = np.random.default_rng(12)
    vectors = []
    for sigma in (0.0, 0.02, 0.05, 0.1):
        vectors += planted_blob(rng.standard_normal(16), 12, sigma, rng)
    vectors += list(rng.standard_normal((20, 16)))
    return make_items(vectors)


@functools.cache
def gather_graph(mode):
    return build_graph(gather_corpus(), 0.25, mode, bands=8, band_bits=4, seed=3)


def whole_rows_then_cut(graph, pos, radius):
    """Reference gather: each whole CSR row, then the entries within radius."""
    rows = []
    for p in pos:
        lo, hi = graph._indptr[p], graph._indptr[p + 1]
        near = graph._nbr_dists[lo:hi] <= radius
        rows.append(list(zip(graph._nbr_pos[lo:hi][near].tolist(),
                             graph._nbr_dists[lo:hi][near].tolist())))
    return rows


def gather_rows(graph, pos, radius):
    row, nbr, dists = graph.gather(pos, radius)
    assert len(row) == len(nbr) == len(dists) and np.all(np.diff(row) >= 0)
    rows = [[] for _ in pos]
    for r, n, d in zip(row.tolist(), nbr.tolist(), dists.tolist()):
        rows[r].append((n, d))
    return rows


class TestGather:
    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_the_corpus_has_every_edge_case(self, mode):
        graph = gather_graph(mode)
        lengths = np.diff(graph._indptr)
        assert (lengths == 0).sum() >= 10 and lengths.max() >= 8
        assert (graph._nbr_dists == 0.0).any()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["exact", "blocked"]))
    def test_radius_cut_matches_whole_rows(self, data, mode):
        graph = gather_graph(mode)
        pos = data.draw(st.lists(st.integers(0, len(graph) - 1), max_size=25))
        radius = data.draw(st.one_of(
            st.sampled_from(graph._nbr_dists.tolist()),  # a stored distance exactly
            st.sampled_from([0.0, graph.theta]),
            st.floats(0.0, graph.theta),
        ))
        assert gather_rows(graph, pos, radius) == whole_rows_then_cut(graph, pos, radius)

    @pytest.mark.parametrize("mode", ["exact", "blocked"])
    def test_edge_cases(self, mode):
        graph = gather_graph(mode)
        lengths = np.diff(graph._indptr)
        empty, busiest = int(np.argmin(lengths)), int(np.argmax(lengths))
        pos = [busiest, empty, busiest, empty]
        for radius in {0.0, graph.theta, *graph._nbr_dists.tolist()}:
            assert gather_rows(graph, pos, radius) == whole_rows_then_cut(graph, pos, radius)
        assert gather_rows(graph, [busiest], graph.theta)[0] == whole_rows_then_cut(
            graph, [busiest], 2.0)[0]
        for pos in ([], np.empty(0, dtype=np.int64)):
            assert [len(part) for part in graph.gather(pos, 0.1)] == [0, 0, 0]
        with pytest.raises(ValueError, match="exceeds"):
            graph.gather([busiest], graph.theta + 1e-9)
        with pytest.raises(ValueError, match="exceeds"):
            graph.gather([], 0.3)
        # NaN fails every comparison, so it passed a bare radius > theta check
        with pytest.raises(ValueError, match="NaN"):
            graph.gather([0, 1, 2], float("nan"))


@pytest.mark.parametrize("mode", ["exact", "blocked"])
def test_sparse_ids_are_the_dense_graph_relabelled(mode):
    # the same embeddings under ids 0..n-1 and under gapped ascending ids: a
    # graph that took a position for an id would differ
    items = gather_corpus()
    sparse = 7 * np.arange(len(items)) + 3 + np.random.default_rng(4).integers(
        0, 9, len(items)).cumsum()
    relabelled = make_items([it.embedding for it in items], ids=sparse.tolist())
    dense = build_graph(items, 0.25, mode, bands=8, band_bits=4, seed=3)
    graph = build_graph(relabelled, 0.25, mode, bands=8, band_bits=4, seed=3)
    assert graph.ids.tolist() == sparse.tolist()
    for k, item_id in enumerate(sparse.tolist()):
        want = [(int(sparse[n]), d) for n, d in dense.neighbors_with_distances(k, 0.25)]
        assert graph.neighbors_with_distances(item_id, 0.25) == want
    _, nbr, _ = graph.gather(positions(graph.ids, sparse[::3]), 0.1)
    nbr_ids = graph.ids[nbr]
    assert np.isin(nbr_ids, sparse).all() and len(nbr_ids)
    _, dense_nbr, _ = dense.gather(np.arange(0, len(sparse), 3), 0.1)
    assert nbr_ids.tolist() == sparse[dense_nbr].tolist()
