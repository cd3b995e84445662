import tracemalloc

import numpy as np
import pytest

from reviewfunnel.corpus import Item, embedding_fingerprint, normalize_embedding


def make_items(vectors, accounts=None, impressions=None, ground_truth=None, ids=None):
    """Build items from raw vectors; embeddings are unit-normalized."""
    items = []
    for row, vec in enumerate(vectors):
        emb = normalize_embedding(np.asarray(vec, dtype=np.float64))
        items.append(
            Item(
                item_id=ids[row] if ids is not None else row,
                embedding=emb,
                account_id=accounts[row] if accounts is not None else 0,
                impressions=impressions[row] if impressions is not None else 1,
                exact_hash=embedding_fingerprint(emb),
                ground_truth=None if ground_truth is None else ground_truth[row],
            )
        )
    return items


def truth_by_id(corpus):
    """Ground truth by id for the rows that carry it, as a reference dict."""
    known = corpus.truth >= 0
    return dict(zip(corpus.ids[known].tolist(), (corpus.truth[known] == 1).tolist()))


def planted_blob(center, count, sigma, rng):
    """Vectors scattered around a unit-normalized center."""
    center = np.asarray(center, dtype=np.float64)
    center = center / np.linalg.norm(center)
    if count == 1:
        return [center]
    rows = center[None, :] + sigma * rng.standard_normal((count - 1, len(center)))
    return [center] + list(rows)


def csr_neighbors(graph, item_id, radius):
    """Reference per-item query: one CSR row, cut by a binary search."""
    pos = int(np.searchsorted(graph.ids, item_id))
    assert graph.ids[pos] == item_id
    lo, hi = int(graph._indptr[pos]), int(graph._indptr[pos + 1])
    cut = lo + int(np.searchsorted(graph._nbr_dists[lo:hi], radius, side="right"))
    nbr_ids = graph.ids[graph._nbr_pos[lo:cut]]
    return [(int(i), float(d)) for i, d in zip(nbr_ids, graph._nbr_dists[lo:cut])]


def neighbor_ids(graph, item_id, radius):
    """Ids of one item's neighbours within radius, ascending (distance, id)."""
    return [nid for nid, _ in graph.neighbors_with_distances(item_id, radius)]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def traced(func, *args):
    """(func(*args), the traced peak of the call, the traced size still held after it)."""
    tracemalloc.start()
    try:
        result = func(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held
