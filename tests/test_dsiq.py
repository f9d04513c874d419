"""Topic clustering, determinant mapping, and weekly quantification."""

import json
import logging
import math
import re
import threading
import tracemalloc
from datetime import date, timedelta
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from side import dsiq, ingest
from side.core import DETERMINANT_COUNT, DETERMINANT_NAMES, OTHER_INDEX, SeveritySeries
from side.errors import ConfigError, ParseError
from side.ingest import EntityList
from side.dsiq import (
    BLOCK_ROWS,
    KEYWORDS_PER_TOPIC,
    MAP_PARALLELISM,
    STOPWORDS,
    LexiconBackend,
    LlmBackend,
    TopicCluster,
    TopicModel,
    _fit_tfidf,
    _nearest,
    _row_sq_norms,
    _seed_dists,
    _sparse_rows,
    _sq_dists,
    cluster_keywords,
    doc_matrix,
    encode,
    fit_topic_model,
    impact_csv_header,
    kmeans,
    load_lexicon,
    map_topic,
    quantify,
    quantify_source,
    read_impact_csv,
    term_counts,
    tokenize,
    write_impact_csv,
)


_TOKEN_RE = re.compile(r"[a-z][a-z']*")


def _reference_tokenize(text):
    """The token rule as first written: each regex match in the lowercased text that is not a stopword."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


def _reference_encode(texts):
    """``encode``'s terms, ids and offsets from :func:`_reference_tokenize`, one dict lookup per token."""
    index, ids, offsets = {}, [], [0]
    for text in texts:
        ids += [index.setdefault(t, len(index)) for t in _reference_tokenize(text)]
        offsets.append(len(ids))
    return tuple(index), ids, offsets


def week(texts, model):
    """One week's ``texts`` as :func:`quantify` takes them: encoded, in the vocabulary of ``model``."""
    return encode(texts).in_vocabulary(model.vocabulary)


def in_vocab(token_lists, vocab):
    """Token lists through the encoder, as documents in ``vocab``; each token must be one tokenizer word."""
    assert [_reference_tokenize(" ".join(tokens)) for tokens in token_lists] == token_lists
    return encode(" ".join(tokens) for tokens in token_lists).in_vocabulary(vocab)


def term(j):
    """A tokenizer word for the number ``j``: ``x`` and one letter per digit."""
    return "x" + "".join("abcdefghij"[int(c)] for c in str(j))


def sparse(x):
    """The dense rows ``x`` as :func:`kmeans` takes them, through the step that keeps each TF-IDF block's cells."""
    return _sparse_rows([x], x.shape[1])


def dense(rows):
    """The dense matrix of ``rows``."""
    x = np.zeros((len(rows), rows.width))
    rows.densify(np.arange(len(rows)), x)
    return x


#: Texts at the edges of the token rule, by what they test.
_TOKENIZER_EDGES = {
    "kelvin_sign": "\u212aelvin \u212a",  # lowercases to "k"
    "dotted_capital_i": "\u0130stanbul \u0130i",  # lowercases to "i" and U+0307
    "leading_apostrophes": "'tis 'Tis ''twas",
    "trailing_apostrophes": "x' x'' x'y' ''",
    "lone_apostrophes": "' '' ' '",
    "right_single_quote": "don\u2019t it\u2019s",  # U+2019 is not an apostrophe
    "digits": "a1b b2c3",
    "nul": "crop\x00field \x00",
    "lone_surrogate": "dry\ud800land \udfff",
    "tabs_and_newlines": "crop\tfield\nwells\r\n",
    "capitalized_stopwords": "The And OF Crop IT'S it's",
    "empty": "",
    "blank": "   ",
    "accented": "caf\u00e9 na\u00efve \u00fcber",
    "astral": "\U0001f525fire\U0001f525",
}


_TEXTS = st.lists(st.text(alphabet=st.one_of(st.sampled_from("abzAZ' \t\n-1\u2019\u212a\u0130"), st.characters()),
                          max_size=40), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
@example([*_TOKENIZER_EDGES.values(), *(text.upper() for text in _TOKENIZER_EDGES.values())])
def test_encode_matches_regex_oracle(texts):
    tokens = encode(texts)
    assert (tokens.terms, tokens.ids.tolist(), tokens.offsets.tolist()) == _reference_encode(texts)
    assert tokens.ids.dtype == np.int32 and tokens.offsets.dtype == np.int64
    assert [tokenize(text) for text in texts] == [_reference_tokenize(text) for text in texts]


class TestVectorize:
    def test_identical_documents_get_identical_vectors(self):
        docs = ["dry crop fields", "dry crop fields"]
        _, _, rows = _fit_tfidf(encode(docs))
        vectors = dense(rows)
        np.testing.assert_array_equal(vectors[0], vectors[1])

    def test_term_in_every_document_weighs_zero(self):
        # ln(N/N) = 0, so the shared term contributes nothing
        docs = ["drought crop crop", "drought wells wells", "drought crop wells"]
        vocab, _, rows = _fit_tfidf(encode(docs))
        vectors = dense(rows)
        assert vectors[:, vocab["drought"]].max() == 0.0
        assert vectors[:, vocab["crop"]].max() > 0.0

    def test_self_cosine_is_one(self):
        docs = ["crop crop harvest", "wells water", "crop wells water harvest"]
        _, _, rows = _fit_tfidf(encode(docs))
        for row in dense(rows):
            if row.any():
                assert math.isclose(float(row @ row), 1.0, abs_tol=1e-12)

    def test_rare_terms_excluded(self):
        # "unique1" and "unique2" would both tokenize to "unique", a term of two documents.
        docs = ["crop uniquea", "crop uniqueb"]
        vocab, *_ = _fit_tfidf(encode(docs))
        assert "crop" in vocab
        assert "uniquea" not in vocab and "uniqueb" not in vocab

    def test_stopwords_excluded(self):
        docs = ["the crop and the field", "the crop of the field"]
        vocab, *_ = _fit_tfidf(encode(docs))
        assert "the" not in vocab and "and" not in vocab

    def test_empty_vocabulary_is_error(self):
        docs = ["alpha", "beta"]
        with pytest.raises(ValueError, match="vocabulary"):
            _fit_tfidf(encode(docs))


class TestKmeans:
    def test_two_blobs_recovered(self):
        # brute-force oracle: every point must sit with its nearest centroid
        rng = np.random.default_rng(3)
        blob_a = rng.normal(0.0, 0.05, size=(20, 2)) + np.array([1.0, 0.0])
        blob_b = rng.normal(0.0, 0.05, size=(20, 2)) + np.array([0.0, 1.0])
        points = np.vstack([blob_a, blob_b])
        assignments, centroids = kmeans(sparse(points), 2, seed=0)

        first = assignments[0]
        assert np.all(assignments[:20] == first)
        assert np.all(assignments[20:] == 1 - first)
        for i, point in enumerate(points):
            dists = ((centroids - point) ** 2).sum(axis=1)
            assert assignments[i] == int(np.argmin(dists))

    def test_more_clusters_than_points_gives_singletons(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        assignments, centroids = kmeans(sparse(points), 50, seed=0)
        assert centroids.shape[0] == 3
        assert sorted(assignments.tolist()) == [0, 1, 2]

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(40, 6))
        a1, c1 = kmeans(sparse(points), 5, seed=7)
        a2, c2 = kmeans(sparse(points), 5, seed=7)
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


def _row_order_mean(members):
    """The members' sum, adding one row after another, over their count.

    This is ``members.mean(axis=0)`` for two or more columns, where numpy adds
    the rows one by one; one column it sums pairwise, which can round differently.
    """
    total = np.zeros(members.shape[1])
    for row in members:
        total += row
    mean = total / len(members)
    if members.shape[1] > 1:
        assert mean.tobytes() == members.mean(axis=0).tobytes()
    return mean


def _reference_kmeans(vectors, n_clusters, seed, max_iter=100):
    """k-means as first written: norms per distance call, one boolean mask per cluster, row-order means."""
    n = vectors.shape[0]
    k = min(n_clusters, n)
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(n)]
    closest = _reference_sq_dists(vectors, centroids[0][None, :])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[c] = vectors[idx]
        closest = np.minimum(closest, _reference_sq_dists(vectors, centroids[c][None, :])[:, 0])

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        new_assignments = np.argmin(_reference_sq_dists(vectors, centroids), axis=1)
        for c in range(k):
            members = vectors[new_assignments == c]
            if len(members):
                centroids[c] = _row_order_mean(members)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
    return np.argmin(_reference_sq_dists(vectors, centroids), axis=1), centroids


def _reference_sq_dists(x, centroids):
    d = (x * x).sum(axis=1)[:, None] + (centroids * centroids).sum(axis=1)[None, :]
    d -= 2.0 * (x @ centroids.T)
    return np.maximum(d, 0.0)


def _tfidf_like(rng, n, d, zero_rows):
    """Sparse non-negative L2-normalised rows, ``zero_rows`` of them all zero."""
    x = rng.random((n, d)) * (rng.random((n, d)) < 0.15)
    x[rng.choice(n, zero_rows, replace=False)] = 0.0
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    np.divide(x, norms, out=x, where=norms > 0)
    return x


def _topical(rng, n, d, topics, zero_rows, own_terms=False):
    """Rows like ``_tfidf_like`` drawn around ``topics`` sparse prototypes, so they cluster.

    Each row adds random weights to about a tenth of the columns; with ``own_terms`` only to its prototype's, so that,
    as in text, a topic's rows hold only the topic's terms and a run of one cluster's rows holds few columns.
    """
    prototypes = rng.random((topics, d)) * (rng.random((topics, d)) < 0.2)
    x = prototypes[rng.integers(topics, size=n)]
    noise = rng.random((n, d)) * (rng.random((n, d)) < 0.1)
    if own_terms:
        noise *= x > 0
    x += noise
    x[rng.choice(n, zero_rows, replace=False)] = 0.0
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    np.divide(x, norms, out=x, where=norms > 0)
    return x


def _kmeans_cases():
    rng = np.random.default_rng(0)
    tfidf = _tfidf_like(rng, 400, 40, zero_rows=30)
    distinct = _tfidf_like(rng, 8, 12, zero_rows=0)
    duplicates = distinct[rng.permutation(np.repeat(np.arange(8), 5))]
    # With seed 56 the seeds are -1.5, 0 and 5; after one update 0 and 2
    # sit closer to the outer means than to their own, so that cluster empties.
    emptied = np.array([-1.5] + [-0.8] * 4 + [0.0, 2.0] + [2.6] * 6 + [5.0])[:, None]
    # Every row is the same point, so the first pass assigns all to cluster 0
    # and stops; the mean of 15 rows is not bit-equal to the row, so the
    # pass after it ties the points to cluster 1 instead.
    identical = np.tile(np.arange(1, 5) / 11, (15, 1))
    # More than three blocks of rows, so later passes skip points and multiply part blocks.
    large = _topical(rng, 3 * BLOCK_ROWS + 5, 40, topics=12, zero_rows=50)
    # Two blocks of open rows and more, whose runs of one cluster's rows hold few of the 186 columns.
    compacted = _topical(rng, 2 * BLOCK_ROWS + 3, 186, topics=12, zero_rows=30, own_terms=True)
    # Seed 0 picks 4.0 then 0.0 as centroids 0 and 1; 2.0 is halfway between
    # them, so the first pass must give those points to centroid 0.
    halfway = np.array([0.0] * 1500 + [4.0] * 1500 + [2.0] * 100)[:, None]
    return {
        "tfidf": (tfidf, 16, 3, 100),
        "pruned_k2": (large, 2, 1, 100),
        "pruned_k8": (large, 8, 2, 100),
        "pruned_k50": (large, 50, 3, 100),
        "block_rows_minus_1": (large[:BLOCK_ROWS - 1], 16, 4, 100),
        "block_rows": (large[:BLOCK_ROWS], 16, 4, 100),
        "block_rows_plus_1": (large[:BLOCK_ROWS + 1], 16, 4, 100),
        # 2 and 3 rows past a multiple of 4, which the reference's seeding GEMV (OpenBLAS) takes apart from the rest.
        "two_blocks_plus_2": (large[:2 * BLOCK_ROWS + 2], 16, 5, 100),
        "two_blocks_plus_3": (large[:2 * BLOCK_ROWS + 3], 16, 6, 100),
        "compacted_k50": (compacted, 50, 7, 100),
        "halfway": (halfway, 2, 0, 100),
        "duplicate_rows": (duplicates, 6, 1, 100),
        "k_above_n": (tfidf[:7], 20, 0, 100),
        "emptied_cluster": (emptied, 3, 56, 100),
        "all_zero": (np.zeros((15, 6)), 4, 2, 100),
        "all_identical": (identical, 3, 0, 100),
        "one_cluster": (tfidf, 1, 0, 100),
        "max_iter_1": (tfidf, 16, 3, 1),
    }


@pytest.mark.parametrize("case", list(_kmeans_cases()))
def test_kmeans_matches_reference(monkeypatch, case):
    vectors, n_clusters, seed, max_iter = _kmeans_cases()[case]
    want_a, want_c = _reference_kmeans(vectors, n_clusters, seed, max_iter)
    monkeypatch.setattr(dsiq, "KMEANS_MAX_ITER", max_iter)
    got_a, got_c = kmeans(sparse(vectors), n_clusters, seed)
    assert np.array_equal(got_a, want_a)
    assert np.array_equal(got_c, want_c)
    x_sq = (vectors * vectors).sum(axis=1)
    assert np.array_equal(_sq_dists(vectors, want_c, x_sq), _reference_sq_dists(vectors, want_c))
    if case == "emptied_cluster":
        assert len(np.unique(want_a)) == 2
    if case == "all_identical":
        assert np.all(want_a == 1)
    if case == "max_iter_1":
        assert not np.array_equal(want_a, _reference_kmeans(vectors, n_clusters, seed)[0])
    if case == "halfway":
        assert np.all(want_a[-100:] == 0) and want_c[:, 0].tolist() == [3.875, 0.0]


@pytest.mark.parametrize("case", ["pruned_k2", "pruned_k8", "pruned_k50"])
def test_kmeans_skips_distances_it_can_bound(monkeypatch, case):
    vectors, n_clusters, seed, _ = _kmeans_cases()[case]
    multiplied = []  # rows multiplied by the centroids, per assignment pass

    def nearest(*args):
        multiplied.append(0)
        return _nearest(*args)

    def sq_dists(x, centroids, x_sq=None, c_sq=None):
        if x is not centroids and len(centroids) == n_clusters:
            assert len(x) <= BLOCK_ROWS
            multiplied[-1] += len(x)
        return _sq_dists(x, centroids, x_sq, c_sq)

    monkeypatch.setattr(dsiq, "_nearest", nearest)
    monkeypatch.setattr(dsiq, "_sq_dists", sq_dists)
    kmeans(sparse(vectors), n_clusters, seed)
    n = len(vectors)
    assert multiplied[0] == n and sum(multiplied) < 0.8 * n * len(multiplied)


def test_later_passes_multiply_few_columns(monkeypatch):
    """Runs of one cluster's rows hold only their topics' columns, so the passes after the first multiply few."""
    vectors = _topical(np.random.default_rng(3), 12 * BLOCK_ROWS, 186, topics=6, zero_rows=20, own_terms=True)
    products = []  # (rows, columns) of each product by the centroids, per assignment pass

    def nearest(*args):
        products.append([])
        return _nearest(*args)

    def sq_dists(x, centroids, x_sq=None, c_sq=None):
        if x is not centroids and len(centroids) == 6:
            products[-1].append(x.shape)
        return _sq_dists(x, centroids, x_sq, c_sq)

    monkeypatch.setattr(dsiq, "_nearest", nearest)
    monkeypatch.setattr(dsiq, "_sq_dists", sq_dists)
    kmeans(sparse(vectors), 6, seed=3)
    later = [shape for made in products[1:] for shape in made]
    # Some later pass opens more rows than one run holds, so the order of the runs counts.
    assert max(sum(rows for rows, _ in made) for made in products[1:]) > BLOCK_ROWS
    assert np.mean([columns for _, columns in later]) < 186 / 2


def _check_open_rows(x, centroids, open_rows, assignments, upper, tol=1e-15):
    """``_nearest`` at margin 0 gives ``open_rows`` the whole product's argmin and its distances within ``tol`` as
    bounds, and leaves every other row as it was.

    Returns the (rows, columns) of each product it made, in order.
    """
    products = []

    def sq_dists(part, used_centroids, x_sq=None, c_sq=None):
        products.append(part.shape)
        return _sq_dists(part, used_centroids, x_sq, c_sq)

    x_sq = _row_sq_norms(x)
    full = _sq_dists(x, centroids, x_sq)
    closed = np.setdiff1d(np.arange(len(x)), open_rows)
    # At margin 0 a row is closed where its upper bound is below its lower one.
    lower = upper + 10.0
    upper[open_rows] = np.inf
    upper_before, lower_before = upper.copy(), lower.copy()
    block = np.zeros((BLOCK_ROWS, x.shape[1]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsiq, "_sq_dists", sq_dists)
        nearest = _nearest(sparse(x), block, x_sq, centroids, assignments, upper, lower, 0.0)
    assert not block.any()
    best = np.argmin(full[open_rows], axis=1)
    assert np.array_equal(nearest[open_rows], best)
    assert np.abs(upper[open_rows] - np.sqrt(full[open_rows, best])).max() <= tol
    rest = full[open_rows].copy()
    rest[np.arange(len(open_rows)), best] = np.inf
    assert np.abs(lower[open_rows] - np.sqrt(rest.min(axis=1))).max() <= tol
    assert np.array_equal(nearest[closed], assignments[closed])
    assert np.array_equal(upper[closed], upper_before[closed])
    assert np.array_equal(lower[closed], lower_before[closed])
    return products[1:]  # the first is the centroids' distances to each other


@pytest.mark.parametrize("k", [2, 8, 50, 100])
def test_open_rows_get_the_full_products_argmin(k):
    """A pass multiplies only its open rows, whose distances may round apart from the whole product's."""
    rng = np.random.default_rng(k)
    x = _tfidf_like(rng, 3 * BLOCK_ROWS + 5, 186, zero_rows=20)
    centroids = x[rng.choice(len(x), k, replace=False)] * 0.75
    for count in (3, 24, BLOCK_ROWS + 5):
        open_rows = np.sort(rng.choice(len(x), count, replace=False))
        assignments = rng.integers(k, size=len(x))
        _check_open_rows(x, centroids, open_rows, assignments, rng.random(len(x)))
    # Rows in clusters: all the zero rows in cluster 0, every other row in its nearest of the rest.
    x = _topical(rng, 3 * BLOCK_ROWS + 5, 186, topics=12, zero_rows=BLOCK_ROWS, own_terms=True)
    zero = np.flatnonzero(~x.any(axis=1))
    held = np.setdiff1d(np.arange(len(x)), zero)
    centroids = x[rng.choice(held, k, replace=False)] * 0.75
    assignments = 1 + np.argmin(_sq_dists(x, centroids[1:]), axis=1)
    assignments[zero] = 0
    open_rows = np.sort(np.concatenate([zero, rng.choice(held, BLOCK_ROWS + 1, replace=False)]))
    # These rows hold about 40 terms each and lie near their centroids. A run's product over fewer columns can
    # round a squared distance up to about 1e-15 apart from the whole product's (9e-16 at k = 2 with OpenBLAS
    # 0.3.31), and the root of a small distance magnifies that.
    products = _check_open_rows(x, centroids, open_rows, assignments, rng.random(len(x)), tol=1e-14)
    # The zero rows make a run that holds no column, and the last run is one row.
    assert len(zero) == BLOCK_ROWS and products[0] == (BLOCK_ROWS, 0)
    assert [rows for rows, _ in products] == [BLOCK_ROWS, BLOCK_ROWS, 1]


@pytest.mark.parametrize("n", [2 * BLOCK_ROWS + tail for tail in (1, 2, 3, 4)] + [BLOCK_ROWS + 1])
def test_seed_distances_near_dense_distances(n):
    # k-means++ reads the seed distances only as sampling weights, so they need not be the GEMV's bits.
    rng = np.random.default_rng(n)
    x = _tfidf_like(rng, n, 186, zero_rows=20)
    rows, x_sq = sparse(x), _row_sq_norms(x)
    row_ids = np.repeat(np.arange(n), np.diff(rows.offsets))
    for c in x[rng.integers(n, size=(8, 2))].mean(axis=1):
        got = _seed_dists(rows, row_ids, c)
        assert np.abs(got - _sq_dists(x, c[None, :], x_sq)[:, 0]).max() <= 1e-15
        assert (got >= 0.0).all()


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_row_sq_norms_equal_one_reduction(n):
    x = np.random.default_rng(n).normal(size=(n, 37))
    assert np.array_equal(_row_sq_norms(x), (x * x).sum(axis=1))


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
def test_blocks_are_consecutive_runs_of_block_rows(n):
    rng = np.random.default_rng(n)
    tokens = encode(" ".join(term(j) for j in rng.integers(0, 30, rng.integers(0, 6))) for _ in range(n))
    blocks = list(tokens.blocks())
    assert [len(b) for b in blocks] == [min(BLOCK_ROWS, n - s) for s in range(0, n, BLOCK_ROWS)]
    assert all(b.terms is tokens.terms and b.offsets[0] == 0 for b in blocks)
    assert all(np.shares_memory(b.ids, tokens.ids) for b in blocks if len(b.ids))
    docs = [b.ids[x:y].tolist() for b in blocks for x, y in zip(b.offsets, b.offsets[1:])]
    assert docs == [tokens.ids[x:y].tolist() for x, y in zip(tokens.offsets, tokens.offsets[1:])]


def test_doc_matrix_matches_linalg_norm():
    rng = np.random.default_rng(9)
    vocab = {term(j): j for j in range(30)}
    token_lists = [[term(j) for j in rng.integers(0, 40, rng.integers(0, 12))] for _ in range(2 * BLOCK_ROWS + 3)]
    tokens = in_vocab(token_lists, vocab)
    idf = rng.random(30)
    x = term_counts(tokens) * idf
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    assert np.array_equal(doc_matrix(tokens, idf), np.divide(x, norms, out=x, where=norms > 0))


def _peak_bytes(fn, *args, with_result=False):
    """Bytes ``fn(*args)`` allocates at its peak, beyond the arrays it returns unless ``with_result``."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if with_result:
        return peak
    return peak - sum(a.nbytes for a in (result if isinstance(result, tuple) else (result,)))


def test_kmeans_and_doc_matrix_allocate_no_matrix_sized_temporary(monkeypatch):
    rng = np.random.default_rng(4)
    n, dims = 20_000, 186
    vocab = {term(j): j for j in range(dims)}
    tokens = in_vocab([[term(j) for j in rng.integers(0, dims, 12)] for _ in range(n)], vocab)
    idf = rng.random(dims) + 0.5
    matrix_bytes = n * dims * 8
    assert _peak_bytes(doc_matrix, tokens, idf) < matrix_bytes / 4
    rows = sparse(doc_matrix(tokens, idf))
    # The mean update sums the nonzero cells, so no k gathers a cluster's rows;
    # at k = 1 that cluster would be the whole matrix.
    monkeypatch.setattr(dsiq, "KMEANS_MAX_ITER", 5)
    assert _peak_bytes(kmeans, rows, 50, 0) < matrix_bytes / 4
    assert _peak_bytes(kmeans, rows, 1, 0) < matrix_bytes / 4


def test_fit_allocates_no_matrix(monkeypatch):
    """The fit keeps the TF-IDF rows as nonzero cells, which it returns, and densifies them a block at a time.

    A document holds 7 tokens, about as many as a synthetic corpus's fit
    document holds in the vocabulary (6.5).
    """
    rng = np.random.default_rng(5)
    n, dims = 20_000, 186
    vocab = {term(j): j for j in range(dims)}
    tokens = in_vocab([[term(j) for j in rng.integers(0, dims, 7)] for _ in range(n)], vocab)
    matrix_bytes = n * dims * 8
    assert _peak_bytes(_fit_tfidf, tokens, with_result=True) < matrix_bytes / 4
    monkeypatch.setattr(dsiq, "KMEANS_MAX_ITER", 5)
    assert _peak_bytes(fit_topic_model, tokens, LexiconBackend(), 50, 0, with_result=True) < matrix_bytes / 4


def test_cluster_keywords_counts_without_a_float_per_token():
    """Keywords count the tokens as integers and convert the k x V counts once, so no float weight per token."""
    rng = np.random.default_rng(6)
    n, dims = 20_000, 186
    vocab = {term(j): j for j in range(dims)}
    tokens = in_vocab([[term(j) for j in rng.integers(0, dims, 12)] for _ in range(n)], vocab)
    # A token's cell in the cluster count matrix takes 8 bytes; a float weight beside it would take 8 more.
    assert _peak_bytes(cluster_keywords, tokens, rng.integers(50, size=n), with_result=True) < 12 * len(tokens.ids)


def _reference_term_counts(token_lists, vocab):
    """In-vocabulary term counts as first written: one dict lookup and one scalar ``+=`` per token."""
    counts = np.zeros((len(token_lists), len(vocab)))
    for r, tokens in enumerate(token_lists):
        for t in tokens:
            j = vocab.get(t)
            if j is not None:
                counts[r, j] += 1.0
    return counts


def _reference_doc_matrix(token_lists, vocab, idf):
    x = _reference_term_counts(token_lists, vocab) * idf
    norms = np.sqrt((x * x).sum(axis=1))[:, None]
    return np.divide(x, norms, out=x, where=norms > 0)


def _reference_fit_tfidf(texts):
    """Vocabulary, IDF, TF-IDF rows and token lists of ``texts`` from strings, one ``set(tokens)`` per document."""
    token_lists = [_reference_tokenize(text) for text in texts]
    df = {}
    for tokens in token_lists:
        for t in set(tokens):
            df[t] = df.get(t, 0) + 1
    vocab = {t: j for j, t in enumerate(sorted(t for t, c in df.items() if c >= 2))}
    idf = np.zeros(len(vocab))
    for t, j in vocab.items():
        idf[j] = math.log(len(texts) / df[t])
    return vocab, idf, _reference_doc_matrix(token_lists, vocab, idf), token_lists


def _reference_cluster_keywords(token_lists, assignments, vocab):
    """Class-based TF-IDF keywords from pseudo-documents of concatenated token lists."""
    terms = list(vocab)
    n_clusters = int(np.max(assignments, initial=-1)) + 1
    pseudo_docs = [[] for _ in range(n_clusters)]
    for c, tokens in zip(assignments, token_lists):
        pseudo_docs[c].extend(tokens)
    counts = _reference_term_counts(pseudo_docs, vocab)
    cf = (counts > 0).sum(axis=0)
    with np.errstate(divide="ignore"):
        cluster_idf = np.log(np.where(cf > 0, n_clusters / np.maximum(cf, 1), 1.0))
    weighted = counts * cluster_idf
    keywords = []
    for c in range(n_clusters):
        scores = weighted[c] if (weighted[c] > 0).any() else counts[c]
        ranked = sorted((j for j in range(len(terms)) if scores[j] > 0), key=lambda j: (-scores[j], terms[j]))
        keywords.append(tuple(terms[j] for j in ranked[:KEYWORDS_PER_TOPIC]))
    return keywords


def _reference_quantify(texts, model):
    """One week's determinant distribution, each text tokenized afresh."""
    if not texts:
        return np.zeros(DETERMINANT_COUNT)
    vectors = _reference_doc_matrix([_reference_tokenize(t) for t in texts], model.vocabulary, model.idf)
    topics = np.argmin(_reference_sq_dists(vectors, model.centroids), axis=1)
    determinants = np.array([c.determinant_index for c in model.clusters])
    return np.bincount(determinants[topics], minlength=DETERMINANT_COUNT) / len(texts)


#: Words with upper case, apostrophes, digits, stopwords and lexicon terms.
_WORDS = ("crop", "Crop", "HARVEST", "harvest", "farmer's", "farmers", "don't", "it's", "water", "Wells", "wells",
          "reservoir", "fire", "Smoke", "clinic", "co2", "x-ray", "drought", "tourism", "the", "And", "of", "'tis")


def _random_texts(rng, n, rare_from):
    """``n`` texts of random words; some stopword-only, some with a term no other text holds."""
    texts = []
    for i in range(n):
        words = [_WORDS[k] for k in rng.integers(0, len(_WORDS), rng.integers(1, 9))]
        if rng.random() < 0.05:
            words = ["the", "and", "OF"]
        if rng.random() < 0.2:
            words.append(term(rare_from + i).upper())
        texts.append(" ".join(words))
    return texts


@pytest.mark.parametrize("n", [1, 2, 40, BLOCK_ROWS + 7])
def test_fit_tfidf_matches_string_reference(n):
    rng = np.random.default_rng(n)
    texts = _random_texts(rng, n, rare_from=0)
    if n < 3:
        texts = ["Crop crop fields", "the crop's CROP"][:n]
    want = _reference_fit_tfidf(texts)
    if not want[0]:
        with pytest.raises(ValueError, match="vocabulary is empty"):
            _fit_tfidf(encode(texts))
        return
    vocab, idf, rows = _fit_tfidf(encode(texts))
    tokens = encode(texts).in_vocabulary(vocab)
    assert list(vocab.items()) == list(want[0].items()) and tokens.terms == tuple(want[0])
    assert idf.tobytes() == want[1].tobytes()
    assert dense(rows).tobytes() == want[2].tobytes()
    in_vocabulary = [[t for t in tokens if t in vocab] for tokens in want[3]]
    assert [[tokens.terms[j] for j in tokens.ids[a:b]] for a, b in zip(tokens.offsets, tokens.offsets[1:])] \
        == in_vocabulary
    assert tokens.ids.dtype == np.int32 and tokens.offsets.dtype == np.int64


@pytest.mark.parametrize("shared", [False, True], ids=["empty_documents", "idf_zero_column"])
def test_fit_tfidf_rows_are_doc_matrix_rows(shared):
    """Rows made ``BLOCK_ROWS`` documents at a time are one ``doc_matrix`` over all documents, bit for bit.

    Documents that are empty or hold no vocabulary term, and with ``shared``
    a term in every document, whose idf is 0, give all-zero rows.
    """
    rng = np.random.default_rng(8)
    n = 3 * BLOCK_ROWS + 5
    texts = _random_texts(rng, n, rare_from=0)
    blank = rng.choice(n, 60, replace=False)
    for i in blank[:30]:
        texts[i] = term(10**6 + i) if shared else ""
    for i in blank[30:]:
        texts[i] = term(10**6 + i)
    if shared:
        texts = [f"{text} everywhere" for text in texts]
    vocab, idf, rows = _fit_tfidf(encode(texts))
    tokens = encode(texts).in_vocabulary(vocab)
    assert ("everywhere" in vocab) is shared and (idf == 0.0).any() == shared
    want = doc_matrix(tokens, idf)
    assert not want[blank].any()
    assert dense(rows).tobytes() == want.tobytes()
    assert rows.offsets.dtype == np.int64 and rows.columns.dtype == np.intp and rows.values.dtype == np.float64
    assert rows.values.all() and len(rows.values) == np.count_nonzero(want)
    # Any rows, repeated and in any order.
    some = np.concatenate([rng.permutation(n)[:BLOCK_ROWS - 2], blank[:1], [0, 0]])
    block = np.zeros((len(some), len(vocab)))
    rows.densify(some, block)
    assert block.tobytes() == want[some].tobytes()


def test_fit_tfidf_sq_norms_are_dense_row_norms():
    # The Lloyd passes' distances take these norms; they keep the whole product's bits only if the norms do.
    rng = np.random.default_rng(13)
    texts = _random_texts(rng, 2 * BLOCK_ROWS + 3, rare_from=0)
    texts[::97] = [""] * len(texts[::97])
    _, _, rows = _fit_tfidf(encode(texts))
    x = dense(rows)
    assert not x[::97].any()
    assert rows.sq_norms.tobytes() == _row_sq_norms(x).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_term_counts_and_keywords_match_string_reference(seed):
    rng = np.random.default_rng(seed)
    texts = _random_texts(rng, 3 * BLOCK_ROWS // 2, rare_from=0)
    vocab, _, _, token_lists = _reference_fit_tfidf(texts)
    tokens = encode(texts).in_vocabulary(vocab)
    assert term_counts(tokens).tobytes() == _reference_term_counts(token_lists, vocab).tobytes()
    # Cluster 3 of 6 holds no document.
    assignments = rng.choice([0, 1, 2, 4, 5], size=len(texts))
    assert cluster_keywords(tokens, assignments) == _reference_cluster_keywords(token_lists, assignments, vocab)


def test_weekly_halves_match_string_reference(tmp_path):
    """Training weeks 0-7 hold more than ``BLOCK_ROWS`` documents; weeks 5 and 10 none; week 9 new terms."""
    rng = np.random.default_rng(12)
    weeks, cutoff = 12, 8
    series = SeveritySeries(start=WEEK0, values=np.full(weeks, 100.0))
    entities = EntityList.from_terms(["fresno"])
    lines = []
    for week in (w for w in range(weeks) if w not in (5, 10)):
        count = 180 if week < cutoff else 30
        for i, text in enumerate(_random_texts(rng, count, rare_from=1000 * week)):
            if week == 9:
                text += " lateterm Newword"
            place = "Fresno" if rng.random() < 0.9 else "reno"
            lines.append(_line(week, f"{text} {place}", day=i % 7))
    rng.shuffle(lines)
    path = tmp_path / "posts.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _, model, half = quantify_source("social", path, series, entities, LexiconBackend(),
                                     cutoff=cutoff, topic_count=12, seed=3)

    loaded = ingest.load_documents(path, series)
    kept = [(loaded.documents[i], loaded.timesteps[i]) for i in ingest.geofilter(loaded.documents, entities)]
    fit_texts = [text for text, t in kept if t < cutoff]
    assert len(fit_texts) > BLOCK_ROWS
    vocab, idf, rows, token_lists = _reference_fit_tfidf(fit_texts)
    assert "lateterm" not in vocab
    assignments, centroids = kmeans(sparse(rows), 12, 3)
    live, assignments = np.unique(assignments, return_inverse=True)
    keywords = _reference_cluster_keywords(token_lists, assignments, vocab)
    counts = np.bincount(assignments)
    clusters = tuple(TopicCluster(int(counts[c]), kw, map_topic(kw, LexiconBackend())) for c, kw in enumerate(keywords))
    assert list(model.vocabulary.items()) == list(vocab.items())
    assert model.idf.tobytes() == idf.tobytes()
    assert model.centroids.tobytes() == centroids[live].tobytes()
    assert model.clusters == clusters
    want = np.array([_reference_quantify([text for text, t in kept if t == w], model) for w in range(weeks)])
    assert half.tobytes() == want.tobytes()
    assert not half[5].any() and not half[10].any()


class TestTermCounts:
    def test_one_row_per_token_list_by_default(self):
        vocab = {"crop": 0, "wells": 1}
        counts = term_counts(in_vocab([["crop", "crop", "oov"], [], ["wells", "crop"]], vocab))
        np.testing.assert_array_equal(counts, [[2.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


class TestClusterKeywords:
    def test_discriminative_terms_ranked_first(self):
        token_lists = [
            ["crop", "crop", "harvest", "shared"],
            ["wells", "water", "shared"],
            ["crop", "shared"],
            ["water", "shared", "shared"],
        ]
        vocab = {"crop": 0, "harvest": 1, "shared": 2, "water": 3, "wells": 4}
        keywords = cluster_keywords(in_vocab(token_lists, vocab), np.array([0, 1, 0, 1]))
        assert keywords[0][0] == "crop"
        assert "shared" not in keywords[0]  # appears in every cluster, idf 0
        assert keywords[1][0] == "water"

    def test_single_cluster_falls_back_to_frequency(self):
        vocab = {"crop": 0, "harvest": 1}
        keywords = cluster_keywords(in_vocab([["crop", "crop", "harvest"]], vocab), [0])
        assert keywords[0] == ("crop", "harvest")

    def test_top_limit(self):
        terms = [term(i) for i in range(20)]
        vocab = {t: i for i, t in enumerate(terms + ["misc"])}
        keywords = cluster_keywords(in_vocab([terms, ["misc"]], vocab), [0, 1])
        assert len(keywords[0]) == KEYWORDS_PER_TOPIC


class TestMapTopic:
    def test_agriculture_keywords_match_lexicon_cosine_oracle(self):
        # independent oracle: binary-set cosine against the shipped lexicon
        keywords = ["crop", "harvest", "irrigation"]
        lexicon = load_lexicon()
        backend = LexiconBackend(lexicon)
        oracle = []
        for name in DETERMINANT_NAMES:
            lex = set(lexicon.get(name, []))
            inter = len(set(keywords) & lex)
            oracle.append(inter / math.sqrt(len(keywords) * len(lex)) if lex else 0.0)
        assert np.argmax(oracle) == DETERMINANT_NAMES.index("Agriculture")
        assert oracle[0] == 3 / math.sqrt(3 * len(lexicon["Agriculture"]))
        np.testing.assert_allclose(backend.score(keywords), oracle)
        assert map_topic(keywords, backend) == 0

    def test_all_zero_scores_map_to_other(self):
        class ZeroBackend:
            def score(self, keywords):
                return [0.0] * DETERMINANT_COUNT

        assert map_topic(["xyzzy"], ZeroBackend()) == OTHER_INDEX

    def test_tie_breaks_to_lowest_index(self):
        class TieBackend:
            def score(self, keywords):
                scores = [0.0] * DETERMINANT_COUNT
                scores[2] = 0.9
                scores[6] = 0.9
                return scores

        assert map_topic(["kw"], TieBackend()) == 2

    def test_below_threshold_maps_to_other(self, monkeypatch):
        class WeakBackend:
            def score(self, keywords):
                return [0.14] + [0.0] * (DETERMINANT_COUNT - 1)

        assert dsiq.MAP_THRESHOLD == 0.15
        assert map_topic(["kw"], WeakBackend()) == OTHER_INDEX
        monkeypatch.setattr(dsiq, "MAP_THRESHOLD", 0.1)  # read at call time
        assert map_topic(["kw"], WeakBackend()) == 0

    def test_determinism(self):
        backend = LexiconBackend()
        kw = ["water", "reservoir", "rationing"]
        assert map_topic(kw, backend) == map_topic(kw, backend)


class _ScoreHandler(BaseHTTPRequestHandler):
    fail_first = 0
    calls = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).calls.append(body)
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        scores = [0.0] * len(body["determinants"])
        if "crop" in body["keywords"]:
            scores[0] = 0.95
        else:
            scores[8] = 0.8
        payload = json.dumps({"scores": scores}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def llm_server():
    _ScoreHandler.fail_first = 0
    _ScoreHandler.calls = []
    server = HTTPServer(("127.0.0.1", 0), _ScoreHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/score", _ScoreHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)


class FailingPost:
    """A transport whose every POST fails, as a dead service's would; threads may share it."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url, body, headers, timeout):
        with self._lock:
            self.calls += 1
            attempt = self.calls
        raise ConnectionError(f"refused on attempt {attempt}")


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(dsiq, "LLM_BACKOFF_S", 0.0)


@pytest.mark.usefixtures("no_backoff")
class TestLlmBackend:
    def test_wire_format_and_scores(self, llm_server):
        url, handler = llm_server
        backend = LlmBackend(url, api_key="secret")
        scores = backend.score(["crop", "harvest"])
        assert scores[0] == 0.95
        assert handler.calls[0] == {
            "keywords": ["crop", "harvest"],
            "determinants": list(DETERMINANT_NAMES),
        }

    def test_retries_then_succeeds(self, llm_server):
        url, handler = llm_server
        handler.fail_first = 2
        backend = LlmBackend(url)
        scores = backend.score(["water"])
        assert scores[8] == 0.8
        assert len(handler.calls) == 3

    def test_falls_back_to_lexicon_after_retries(self, llm_server):
        url, handler = llm_server
        handler.fail_first = 10
        backend = LlmBackend(url)
        scores = backend.score(["crop", "harvest", "irrigation"])
        assert len(handler.calls) == 3
        assert np.argmax(scores) == 0  # lexicon cosine took over

    def test_fallback_logs_warning_naming_last_error(self, caplog):
        post = FailingPost()
        backend = LlmBackend("http://llm.test/score", post=post)
        with caplog.at_level(logging.WARNING, logger="side.dsiq"):
            scores = backend.score(["crop", "harvest", "irrigation"])
        assert post.calls == 3
        assert np.argmax(scores) == 0  # lexicon cosine took over
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "refused on attempt 3" in record.getMessage()
        assert "lexicon" in record.getMessage()

    def test_dead_service_costs_one_round_of_retries(self, caplog):
        post = FailingPost()
        backend = LlmBackend("http://llm.test/score", post=post)
        lexicon = LexiconBackend()
        topics = [["crop", "harvest"], ["water", "reservoir"], ["fire"], ["clinic"], ["zzz"]]
        with caplog.at_level(logging.WARNING, logger="side.dsiq"):
            for keywords in topics:
                assert backend.score(keywords) == lexicon.score(keywords)
        assert post.calls == 3  # the first topic's retries, then none
        assert len(caplog.records) == 1

    @pytest.mark.parametrize(
        "reply",
        [{"scores": [0.5] * (DETERMINANT_COUNT - 1)}, {"scores": [0.5] * (DETERMINANT_COUNT - 1) + ["nan"]}],
        ids=["ten_scores", "nan_score"],
    )
    def test_invalid_reply_is_retried_then_falls_back(self, caplog, reply):
        calls = []
        backend = LlmBackend("http://llm.test/score", post=lambda *args: calls.append(args) or reply)
        with caplog.at_level(logging.WARNING, logger="side.dsiq"):
            scores = backend.score(["crop", "harvest"])
        assert len(calls) == 3
        assert scores == LexiconBackend().score(["crop", "harvest"])
        [record] = caplog.records
        assert "backend returned invalid scores" in record.getMessage()

    def test_unreachable_endpoint_falls_back(self, monkeypatch):
        monkeypatch.setattr(dsiq, "LLM_RETRIES", 1)
        monkeypatch.setattr(dsiq, "LLM_TIMEOUT_S", 0.2)
        backend = LlmBackend("http://127.0.0.1:9/score")
        scores = backend.score(["water", "reservoir"])
        assert np.argmax(scores) == 8


def _toy_model():
    """Three one-hot centroids mapped to Agriculture, Public Health, Other."""
    vocab = {"clinic": 0, "crop": 1, "zzz": 2}
    centroids = np.eye(3)[[1, 0, 2]]  # cluster 0 reads "crop", 1 "clinic", 2 "zzz"
    clusters = (
        TopicCluster(doc_count=1, keywords=("crop",), determinant_index=0),
        TopicCluster(doc_count=1, keywords=("clinic",), determinant_index=6),
        TopicCluster(doc_count=1, keywords=("zzz",), determinant_index=OTHER_INDEX),
    )
    return TopicModel(
        vocabulary=vocab,
        idf=np.ones(3),
        centroids=centroids,
        clusters=clusters,
    )


def _one_week(texts, model):
    """:func:`quantify` of ``texts`` as one week: its only row."""
    return quantify(week(texts, model), model, np.zeros(len(texts), dtype=np.int64), 1)[0]


class TestQuantify:
    def test_distribution_matches_counts(self):
        model = _toy_model()
        out = _one_week(["crop", "crop", "clinic", "zzz"], model)
        expected = np.zeros(11)
        expected[0], expected[6], expected[OTHER_INDEX] = 0.5, 0.25, 0.25
        np.testing.assert_allclose(out, expected)

    def test_empty_input_gives_zero_vector(self):
        model = _toy_model()
        out = quantify(week([], model), model, np.zeros(0, dtype=np.int64), 3)
        assert out.shape == (3, DETERMINANT_COUNT) and out.dtype == np.float64
        np.testing.assert_array_equal(out, np.zeros((3, DETERMINANT_COUNT)))

    def test_output_length_is_delta(self):
        model = _toy_model()
        assert _one_week(["crop"], model).shape == (11,)

    def test_permutation_invariance(self):
        model = _toy_model()
        rng = np.random.default_rng(5)
        texts = ["crop", "clinic", "zzz", "crop", "crop", "clinic"]
        base = _one_week(texts, model)
        for _ in range(100):
            perm = rng.permutation(len(texts))
            np.testing.assert_array_equal(_one_week([texts[i] for i in perm], model), base)

    def test_components_bounded_and_normalized(self):
        model = _toy_model()
        rng = np.random.default_rng(6)
        words = ["crop", "clinic", "zzz"]
        for _ in range(100):
            n = int(rng.integers(0, 12))
            texts = [words[rng.integers(3)] for _ in range(n)]
            out = _one_week(texts, model)
            assert np.all(out >= 0) and np.all(out <= 1)
            assert out.sum() == 0.0 or abs(out.sum() - 1.0) <= 1e-6

    def test_timesteps_in_any_order_and_empty_first_middle_last_weeks(self):
        model = _toy_model()
        texts = ["crop", "clinic", "zzz", "crop", "clinic", "crop crop", "zzz zzz"]
        timesteps = np.array([3, 1, 3, 1, 3, 4, 1])
        out = quantify(week(texts, model), model, timesteps, 6)
        assert out.shape == (6, DETERMINANT_COUNT)
        for t in (0, 2, 5):
            assert out[t].tobytes() == np.zeros(DETERMINANT_COUNT).tobytes()
        for t in (1, 3, 4):
            rows = [text for text, w in zip(texts, timesteps) if w == t]
            assert out[t].tobytes() == _one_week(rows, model).tobytes()

    def test_weeks_across_blocks_match_string_reference(self):
        """``BLOCK_ROWS + 300`` documents in shuffled weeks, so weeks span both blocks; weeks 0, 7 and 15 empty."""
        rng = np.random.default_rng(21)
        n, weeks = BLOCK_ROWS + 300, 16
        texts = _random_texts(rng, n, rare_from=0)
        model = fit_topic_model(encode(texts[:600]), LexiconBackend(), topic_count=8, seed=4)
        timesteps = rng.choice([w for w in range(weeks) if w not in (0, 7, 15)], size=n)
        assert set(timesteps[:BLOCK_ROWS].tolist()) == set(timesteps[BLOCK_ROWS:].tolist())
        out = quantify(week(texts, model), model, timesteps, weeks)
        want = np.array([_reference_quantify([text for text, w in zip(texts, timesteps) if w == t], model)
                         for t in range(weeks)])
        assert out.tobytes() == want.tobytes()
        assert not out[[0, 7, 15]].any()


WEEK0 = date(2021, 1, 4)


def _line(week, text, day=0):
    """One JSONL document dated ``day`` days into ``week`` (counted from ``WEEK0``)."""
    stamp = (WEEK0 + timedelta(weeks=week, days=day)).isoformat() + "T12:00:00Z"
    return json.dumps({"id": f"{week}-{day}", "timestamp": stamp, "text": text})


class TestQuantifySource:
    """Weeks 0-1 are the training range, week 2 holds one document, week 3 none."""

    SERIES = SeveritySeries(start=WEEK0, values=np.full(4, 100.0))
    ENTITIES = EntityList.from_terms(["fresno"])
    LINES = [
        _line(0, "crop harvest fresno"),
        _line(0, "water wells fresno", day=3),
        _line(1, "crop harvest fresno"),
        _line(1, "water wells fresno", day=5),
        _line(2, "crop harvest near fresno"),
    ]

    def run(self, tmp_path, lines, topic_count=2, name="posts.jsonl"):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return quantify_source("social", path, self.SERIES, self.ENTITIES, LexiconBackend(),
                               cutoff=2, topic_count=topic_count, seed=0)

    def test_silent_week_is_zero_and_other_weeks_sum_to_one(self, tmp_path):
        _, model, half = self.run(tmp_path, self.LINES)
        assert half.shape == (4, DETERMINANT_COUNT) and len(model.clusters) == 2
        assert half[3].sum() == 0.0
        for t in range(3):
            assert abs(half[t].sum() - 1.0) <= 1e-6

    def test_shuffled_lines_give_identical_half_and_model(self, tmp_path):
        # One topic: its centroid sums equal rows and zeros, exact in any order.
        _, base_model, base = self.run(tmp_path, self.LINES, topic_count=1)
        rng = np.random.default_rng(2)
        for i in range(10):
            lines = [self.LINES[j] for j in rng.permutation(len(self.LINES))]
            _, model, half = self.run(tmp_path, lines, topic_count=1, name=f"shuffled{i}.jsonl")
            assert half.tobytes() == base.tobytes()
            assert model.vocabulary == base_model.vocabulary and model.clusters == base_model.clusters
            assert np.array_equal(model.idf, base_model.idf)
            assert np.array_equal(model.centroids, base_model.centroids)

    def test_counters_add_up_to_the_lines_read(self, tmp_path):
        lines = self.LINES + [
            "{not json",
            _line(1, "   "),
            _line(-1, "crop harvest fresno"),
            _line(1, "crop harvest dallas"),
        ]
        counts, _, _ = self.run(tmp_path, lines)
        assert counts == {"read": 9, "malformed": 1, "empty": 1, "out of range": 1,
                          "outside the state": 1, "kept": 5}
        assert sum(n for label, n in counts.items() if label != "read") == counts["read"] == len(lines)

    def test_no_training_range_document_names_the_source(self, tmp_path):
        with pytest.raises(ConfigError, match="no social document falls in the training range"):
            self.run(tmp_path, [_line(2, "crop harvest fresno"), _line(3, "water wells fresno")])

    def test_one_training_range_document_names_the_source(self, tmp_path):
        # No term is in two training-range documents, so the vocabulary is empty.
        with pytest.raises(ConfigError, match=r"social training range \(before week 2\): vocabulary is empty"):
            self.run(tmp_path, [_line(0, "crop harvest fresno"), _line(2, "crop harvest fresno")])


def test_fit_topic_model_maps_lexicon_terms_correctly():
    docs = [
        "crop harvest irrigation farm",
        "crop harvest farm fields",
        "water reservoir rationing wells",
        "water reservoir wells aquifer",
    ]
    model = fit_topic_model(encode(docs), LexiconBackend(), topic_count=2, seed=0)
    assert {c.determinant_index for c in model.clusters} == {0, 8}
    assert sum(c.doc_count for c in model.clusters) == len(docs)
    for cluster in model.clusters:
        assert cluster.keywords


def test_impact_csv_round_trip(tmp_path):
    model = _toy_model()
    impacts = np.zeros((2, 2 * DETERMINANT_COUNT))  # no news documents: the news half stays zero
    impacts[:, :DETERMINANT_COUNT] = quantify(week(["crop crop", "crop wells", "clinic"], model), model, [0, 1, 1], 2)
    path = tmp_path / "impact.csv"
    write_impact_csv(path, impacts)
    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["timestep", "s_1"] and header[-1] == "n_11"
    assert len(header) == 23
    assert np.array_equal(read_impact_csv(path), impacts)


@pytest.mark.parametrize(
    "timestep, cell, match",
    [
        ("1", "nan", "social part .*outside"),
        ("1", "0.5", "social part .*sums to"),
        ("2", "0.0", "timestep 2 where 1 was expected"),
        ("1", "x", "could not convert string to float: 'x'"),
    ],
    ids=["nan", "bad_sum", "timestep_out_of_order", "not_a_number"],
)
def test_read_impact_csv_rejects_bad_row_with_line(tmp_path, timestep, cell, match):
    zeros = ["0.0"] * (2 * DETERMINANT_COUNT)
    bad = [cell] + zeros[1:]
    path = tmp_path / "impact.csv"
    rows = [impact_csv_header(), ["0"] + zeros, [timestep] + bad]
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(ParseError, match=rf"impact\.csv:3: {match}"):
        read_impact_csv(path)


def test_backend_from_env_selection():
    from side.dsiq import backend_from_env

    assert isinstance(backend_from_env("lexicon", env={}), LexiconBackend)
    llm = backend_from_env("llm", env={"SIDE_LLM_URL": "http://x/score", "SIDE_LLM_KEY": "k"})
    assert isinstance(llm, LlmBackend)
    assert llm.url == "http://x/score" and llm.api_key == "k"
    with pytest.raises(ValueError, match="SIDE_LLM_URL"):
        backend_from_env("llm", env={})
    with pytest.raises(ValueError, match="unknown"):
        backend_from_env("oracle", env={})


def test_load_lexicon_custom_path(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"Agriculture": ["Crop", "FARM"]}), encoding="utf-8")
    lex = load_lexicon(path)
    assert lex == {"Agriculture": ["crop", "farm"]}


@pytest.mark.parametrize(
    "lexicon, match",
    [
        ({"Agricultre": ["crop", "farm"]}, "'Agricultre' is not a determinant name"),
        ({"Water Utilities": "reservoir"}, "'Water Utilities' must be a list of strings"),
        ({"Water Utilities": ["reservoir", 7]}, "'Water Utilities' must be a list of strings"),
        ({"Agriculture": ["crop", "water restrictions"]}, "'Agriculture' term 'water restrictions' is not one"),
        ({"Agriculture": ["crop", "more"]}, "'Agriculture' term 'more' is not one"),
        ({"Agriculture": ["crop", "co2"]}, "'Agriculture' term 'co2' is not one"),
        ({"Agriculture": [], "Energy": []}, "lex.json: lexicon holds no term"),
        (["crop", "farm"], "lex.json: lexicon must be a JSON object"),
    ],
    ids=["misspelt_name", "string_value", "non_string_term", "multi_word_term", "stopword_term", "digit_term",
         "no_terms", "json_list"],
)
def test_load_lexicon_rejects_bad_entries(tmp_path, lexicon, match):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(lexicon), encoding="utf-8")
    with pytest.raises(ParseError, match=match):
        load_lexicon(path)


def test_fit_topic_model_with_llm_backend_parallel_mapping(llm_server, no_backoff):
    url, handler = llm_server
    docs = [
        "crop harvest irrigation",
        "crop harvest farm",
        "water reservoir wells",
        "water reservoir rationing",
    ]
    backend = LlmBackend(url)
    model = fit_topic_model(encode(docs), backend, topic_count=2, seed=0)
    # the server scores crop-topics as Agriculture, everything else Water Utilities
    assert {c.determinant_index for c in model.clusters} == {0, 8}
    assert sum(c.doc_count for c in model.clusters) == len(docs)
    assert len(handler.calls) == len(model.clusters)


def test_fit_topic_model_on_dead_service_bounds_posts(caplog, no_backoff):
    words = ["crop", "water", "fire", "clinic", "power", "river", "tourism", "factory"]
    docs = [f"{w} {w} {w} shared{j}" for w in words for j in range(3)]
    post = FailingPost()
    backend = LlmBackend("http://llm.test/score", post=post)
    with caplog.at_level(logging.WARNING, logger="side.dsiq"):
        model = fit_topic_model(encode(docs), backend, topic_count=8, seed=0)
    assert len(model.clusters) == 8
    # only the topics in flight when the budget ran out may still call
    assert post.calls <= MAP_PARALLELISM * (dsiq.LLM_RETRIES + 1)
    assert len(caplog.records) == 1
    lexicon = fit_topic_model(encode(docs), LexiconBackend(), topic_count=8, seed=0)
    assert [c.determinant_index for c in model.clusters] == [c.determinant_index for c in lexicon.clusters]
