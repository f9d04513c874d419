"""Topic clustering, determinant mapping, and weekly quantification."""

import json
import logging
import math
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from side import dsiq
from side.core import DETERMINANT_COUNT, DETERMINANT_NAMES, OTHER_INDEX, Document
from side.errors import ParseError
from side.dsiq import (
    BLOCK_ROWS,
    KEYWORDS_PER_TOPIC,
    MAP_PARALLELISM,
    LexiconBackend,
    LlmBackend,
    TopicCluster,
    TopicModel,
    _fit_tfidf,
    _nearest,
    _row_sq_norms,
    _sq_dists,
    build_impact_series,
    cluster_keywords,
    doc_matrix,
    fit_topic_model,
    impact_csv_header,
    kmeans,
    load_lexicon,
    map_topic,
    quantify,
    read_impact_csv,
    term_counts,
    tokenize,
    write_impact_csv,
)


def doc(text, timestep=0):
    return Document(timestep, text)


class TestVectorize:
    def test_identical_documents_get_identical_vectors(self):
        docs = [doc("dry crop fields"), doc("dry crop fields")]
        _, _, vectors, _ = _fit_tfidf(docs)
        np.testing.assert_array_equal(vectors[0], vectors[1])

    def test_term_in_every_document_weighs_zero(self):
        # ln(N/N) = 0, so the shared term contributes nothing
        docs = [doc("drought crop crop"), doc("drought wells wells"), doc("drought crop wells")]
        vocab, _, vectors, _ = _fit_tfidf(docs)
        assert vectors[:, vocab["drought"]].max() == 0.0
        assert vectors[:, vocab["crop"]].max() > 0.0

    def test_self_cosine_is_one(self):
        docs = [doc("crop crop harvest"), doc("wells water"), doc("crop wells water harvest")]
        _, _, vectors, _ = _fit_tfidf(docs)
        for row in vectors:
            if row.any():
                assert math.isclose(float(row @ row), 1.0, abs_tol=1e-12)

    def test_rare_terms_excluded(self):
        docs = [doc("crop unique1"), doc("crop unique2")]
        vocab, *_ = _fit_tfidf(docs)
        assert "crop" in vocab
        assert "unique1" not in vocab and "unique2" not in vocab

    def test_stopwords_excluded(self):
        docs = [doc("the crop and the field"), doc("the crop of the field")]
        vocab, *_ = _fit_tfidf(docs)
        assert "the" not in vocab and "and" not in vocab

    def test_empty_vocabulary_is_error(self):
        docs = [doc("alpha"), doc("beta")]
        with pytest.raises(ValueError, match="vocabulary"):
            _fit_tfidf(docs)


class TestKmeans:
    def test_two_blobs_recovered(self):
        # brute-force oracle: every point must sit with its nearest centroid
        rng = np.random.default_rng(3)
        blob_a = rng.normal(0.0, 0.05, size=(20, 2)) + np.array([1.0, 0.0])
        blob_b = rng.normal(0.0, 0.05, size=(20, 2)) + np.array([0.0, 1.0])
        points = np.vstack([blob_a, blob_b])
        assignments, centroids = kmeans(points, 2, seed=0)

        first = assignments[0]
        assert np.all(assignments[:20] == first)
        assert np.all(assignments[20:] == 1 - first)
        for i, point in enumerate(points):
            dists = ((centroids - point) ** 2).sum(axis=1)
            assert assignments[i] == int(np.argmin(dists))

    def test_more_clusters_than_points_gives_singletons(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        assignments, centroids = kmeans(points, 50, seed=0)
        assert centroids.shape[0] == 3
        assert sorted(assignments.tolist()) == [0, 1, 2]

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(40, 6))
        a1, c1 = kmeans(points, 5, seed=7)
        a2, c2 = kmeans(points, 5, seed=7)
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


def _reference_kmeans(vectors, n_clusters, seed, max_iter=100):
    """k-means as first written: norms per distance call, one boolean mask per cluster."""
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
                centroids[c] = members.mean(axis=0)
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


def _topical(rng, n, d, topics, zero_rows):
    """Rows like ``_tfidf_like`` drawn around ``topics`` sparse prototypes, so they cluster."""
    prototypes = rng.random((topics, d)) * (rng.random((topics, d)) < 0.2)
    x = prototypes[rng.integers(topics, size=n)] + rng.random((n, d)) * (rng.random((n, d)) < 0.1)
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
    # More than three blocks of rows, so later passes skip points and pad blocks.
    large = _topical(rng, 3 * BLOCK_ROWS + 5, 40, topics=12, zero_rows=50)
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
def test_kmeans_matches_reference(case):
    vectors, n_clusters, seed, max_iter = _kmeans_cases()[case]
    want_a, want_c = _reference_kmeans(vectors, n_clusters, seed, max_iter)
    got_a, got_c = kmeans(vectors, n_clusters, seed, max_iter)
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
    blocks = []  # distance GEMMs per assignment pass

    def nearest(*args):
        blocks.append(0)
        return _nearest(*args)

    def sq_dists(x, centroids, x_sq=None):
        if x is not centroids and len(centroids) == n_clusters:
            assert len(x) == BLOCK_ROWS  # every pass's GEMMs have one shape
            blocks[-1] += 1
        return _sq_dists(x, centroids, x_sq)

    monkeypatch.setattr(dsiq, "_nearest", nearest)
    monkeypatch.setattr(dsiq, "_sq_dists", sq_dists)
    kmeans(vectors, n_clusters, seed)
    full = -(-len(vectors) // BLOCK_ROWS)
    assert blocks[0] == full and sum(blocks) < 0.8 * full * len(blocks)


# At k = 1 OpenBLAS computes x @ c.T as a matrix-vector product whose rounding
# depends on a row's position, but k-means never needs those distances: every
# point's nearest centroid is 0.
@pytest.mark.parametrize("k", [2, 8, 50, 100])
def test_padded_block_rows_equal_full_product_rows(k):
    rng = np.random.default_rng(k)
    x = _tfidf_like(rng, 3 * BLOCK_ROWS + 5, 186, zero_rows=20)
    centroids = x[rng.choice(len(x), k, replace=False)] * 0.75
    x_sq = _row_sq_norms(x)
    full = _sq_dists(x, centroids, x_sq)
    for rows in (rng.choice(len(x), BLOCK_ROWS, replace=False), np.arange(len(x) - BLOCK_ROWS, len(x))):
        assert np.array_equal(_sq_dists(x[rows], centroids, x_sq[rows]), full[rows])
    # A pass pads a few open rows to a block (a GEMM over 3 or 24 rows alone
    # rounds differently here), so their bounds carry the full product's bits.
    for count in (3, 24):
        open_rows = np.sort(rng.choice(len(x), count, replace=False))
        upper, lower = np.zeros(len(x)), np.full(len(x), np.inf)
        upper[open_rows] = np.inf
        nearest = _nearest(x, x_sq, centroids, np.zeros(len(x), dtype=np.int64), upper, lower, 0.0)
        best = np.argmin(full[open_rows], axis=1)
        assert np.array_equal(nearest[open_rows], best)
        assert np.array_equal(upper[open_rows], np.sqrt(full[open_rows, best]))
        rest = full[open_rows].copy()
        rest[np.arange(count), best] = np.inf
        assert np.array_equal(lower[open_rows], np.sqrt(rest.min(axis=1)))


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5])
def test_row_sq_norms_equal_one_reduction(n):
    x = np.random.default_rng(n).normal(size=(n, 37))
    assert np.array_equal(_row_sq_norms(x), (x * x).sum(axis=1))


def test_doc_matrix_matches_linalg_norm():
    rng = np.random.default_rng(9)
    vocab = {f"t{j}": j for j in range(30)}
    token_lists = [[f"t{j}" for j in rng.integers(0, 40, rng.integers(0, 12))] for _ in range(2 * BLOCK_ROWS + 3)]
    idf = rng.random(30)
    x = term_counts(token_lists, vocab) * idf
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    assert np.array_equal(doc_matrix(token_lists, vocab, idf), np.divide(x, norms, out=x, where=norms > 0))


def _peak_bytes(fn, *args):
    """Bytes ``fn(*args)`` allocates at its peak, beyond what it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in (result if isinstance(result, tuple) else (result,)))


def test_kmeans_and_doc_matrix_allocate_no_matrix_sized_temporary():
    rng = np.random.default_rng(4)
    n, dims = 20_000, 186
    vocab = {f"t{j}": j for j in range(dims)}
    token_lists = [[f"t{j}" for j in rng.integers(0, dims, 12)] for _ in range(n)]
    idf = rng.random(dims) + 0.5
    matrix_bytes = n * dims * 8
    assert _peak_bytes(doc_matrix, token_lists, vocab, idf) < matrix_bytes / 4
    vectors = doc_matrix(token_lists, vocab, idf)
    # A mean update still gathers one cluster's rows; at 50 clusters that is small.
    assert _peak_bytes(kmeans, vectors, 50, 0, 5) < matrix_bytes / 4


class TestTermCounts:
    def test_one_row_per_token_list_by_default(self):
        vocab = {"crop": 0, "wells": 1}
        counts = term_counts([["crop", "crop", "oov"], [], ["wells", "crop"]], vocab)
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
        keywords = cluster_keywords(token_lists, np.array([0, 1, 0, 1]), vocab)
        assert keywords[0][0] == "crop"
        assert "shared" not in keywords[0]  # appears in every cluster, idf 0
        assert keywords[1][0] == "water"

    def test_single_cluster_falls_back_to_frequency(self):
        vocab = {"crop": 0, "harvest": 1}
        keywords = cluster_keywords([["crop", "crop", "harvest"]], [0], vocab)
        assert keywords[0] == ("crop", "harvest")

    def test_top_limit(self):
        terms = [f"t{i}" for i in range(20)]
        vocab = {t: i for i, t in enumerate(terms + ["other"])}
        keywords = cluster_keywords([terms, ["other"]], [0, 1], vocab)
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

    def test_below_threshold_maps_to_other(self):
        class WeakBackend:
            def score(self, keywords):
                return [0.14] + [0.0] * (DETERMINANT_COUNT - 1)

        assert map_topic(["kw"], WeakBackend(), threshold=0.15) == OTHER_INDEX

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


class TestLlmBackend:
    def test_wire_format_and_scores(self, llm_server):
        url, handler = llm_server
        backend = LlmBackend(url, api_key="secret", backoff=0.0)
        scores = backend.score(["crop", "harvest"])
        assert scores[0] == 0.95
        assert handler.calls[0] == {
            "keywords": ["crop", "harvest"],
            "determinants": list(DETERMINANT_NAMES),
        }

    def test_retries_then_succeeds(self, llm_server):
        url, handler = llm_server
        handler.fail_first = 2
        backend = LlmBackend(url, retries=2, backoff=0.0)
        scores = backend.score(["water"])
        assert scores[8] == 0.8
        assert len(handler.calls) == 3

    def test_falls_back_to_lexicon_after_retries(self, llm_server):
        url, handler = llm_server
        handler.fail_first = 10
        backend = LlmBackend(url, retries=2, backoff=0.0)
        scores = backend.score(["crop", "harvest", "irrigation"])
        assert len(handler.calls) == 3
        assert np.argmax(scores) == 0  # lexicon cosine took over

    def test_fallback_logs_warning_naming_last_error(self, caplog):
        post = FailingPost()
        backend = LlmBackend("http://llm.test/score", retries=2, backoff=0.0, post=post)
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
        backend = LlmBackend("http://llm.test/score", retries=2, backoff=0.0, post=post)
        lexicon = LexiconBackend()
        topics = [["crop", "harvest"], ["water", "reservoir"], ["fire"], ["clinic"], ["zzz"]]
        with caplog.at_level(logging.WARNING, logger="side.dsiq"):
            for keywords in topics:
                assert backend.score(keywords) == lexicon.score(keywords)
        assert post.calls == 3  # the first topic's retries, then none
        assert len(caplog.records) == 1

    def test_unreachable_endpoint_falls_back(self):
        backend = LlmBackend("http://127.0.0.1:9/score", retries=1, backoff=0.0, timeout=0.2)
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


class TestQuantify:
    def test_distribution_matches_counts(self):
        model = _toy_model()
        docs = [doc("crop"), doc("crop"), doc("clinic"), doc("zzz")]
        out = quantify(docs, model)
        expected = np.zeros(11)
        expected[0], expected[6], expected[OTHER_INDEX] = 0.5, 0.25, 0.25
        np.testing.assert_allclose(out, expected)

    def test_empty_input_gives_zero_vector(self):
        out = quantify([], _toy_model())
        np.testing.assert_array_equal(out, np.zeros(11))

    def test_output_length_is_delta(self):
        assert quantify([doc("crop")], _toy_model()).shape == (11,)

    def test_permutation_invariance(self):
        model = _toy_model()
        rng = np.random.default_rng(5)
        texts = ["crop", "clinic", "zzz", "crop", "crop", "clinic"]
        docs = [doc(t) for t in texts]
        base = quantify(docs, model)
        for _ in range(100):
            perm = rng.permutation(len(docs))
            np.testing.assert_array_equal(quantify([docs[i] for i in perm], model), base)

    def test_components_bounded_and_normalized(self):
        model = _toy_model()
        rng = np.random.default_rng(6)
        words = ["crop", "clinic", "zzz"]
        for _ in range(100):
            n = int(rng.integers(0, 12))
            docs = [doc(words[rng.integers(3)]) for _ in range(n)]
            out = quantify(docs, model)
            assert np.all(out >= 0) and np.all(out <= 1)
            assert out.sum() == 0.0 or abs(out.sum() - 1.0) <= 1e-6


class TestBuildImpactSeries:
    def fit_models(self):
        social = [
            doc(text, timestep=i % 3)
            for i, text in enumerate(
                ["crop harvest dry", "crop harvest", "water wells dry", "water wells"]
            )
        ]
        news = [doc(text, timestep=1) for text in ["hospital illness report", "hospital illness"]]
        backend = LexiconBackend()
        sm = fit_topic_model(social, backend, topic_count=2, seed=0)
        nman = fit_topic_model(news, backend, topic_count=2, seed=0)
        return social, news, sm, nman

    def test_dimensions_and_source_separation(self):
        social, news, sm, nman = self.fit_models()
        impacts = build_impact_series([(social, sm), (news, nman)], 3)
        assert impacts.shape == (3, 22)
        # week 0 has social docs but no news: news part all-zero, social sums to 1
        assert impacts[0, DETERMINANT_COUNT:].sum() == 0.0
        assert abs(impacts[0, :DETERMINANT_COUNT].sum() - 1.0) <= 1e-6

    def test_shuffled_documents_give_identical_series(self):
        social, news, sm, nman = self.fit_models()
        base = build_impact_series([(social, sm), (news, nman)], 3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = [social[i] for i in rng.permutation(len(social))]
            n = [news[i] for i in rng.permutation(len(news))]
            assert np.array_equal(build_impact_series([(s, sm), (n, nman)], 3), base)

    def test_not_one_pair_per_source_is_rejected(self):
        social, news, sm, nman = self.fit_models()
        for fitted in ([(social, sm)], [(social, sm), (news, nman), (news, nman)]):
            with pytest.raises(ValueError, match="shape"):
                build_impact_series(fitted, 3)


def test_fit_topic_model_maps_lexicon_terms_correctly():
    docs = [
        doc("crop harvest irrigation farm"),
        doc("crop harvest farm fields"),
        doc("water reservoir rationing wells"),
        doc("water reservoir wells aquifer"),
    ]
    model = fit_topic_model(docs, LexiconBackend(), topic_count=2, seed=0)
    assert {c.determinant_index for c in model.clusters} == {0, 8}
    assert sum(c.doc_count for c in model.clusters) == len(docs)
    for cluster in model.clusters:
        assert cluster.keywords


def test_impact_csv_round_trip(tmp_path):
    social, news = [doc("crop crop", timestep=0), doc("crop wells", timestep=1)], []
    model = _toy_model()
    impacts = build_impact_series([(social, model), (news, model)], 2)
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
    ],
    ids=["nan", "bad_sum", "timestep_out_of_order"],
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
    ],
    ids=["misspelt_name", "string_value", "non_string_term", "multi_word_term", "stopword_term", "digit_term",
         "no_terms"],
)
def test_load_lexicon_rejects_bad_entries(tmp_path, lexicon, match):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps(lexicon), encoding="utf-8")
    with pytest.raises(ParseError, match=match):
        load_lexicon(path)


def test_fit_topic_model_with_llm_backend_parallel_mapping(llm_server):
    url, handler = llm_server
    docs = [
        doc("crop harvest irrigation"),
        doc("crop harvest farm"),
        doc("water reservoir wells"),
        doc("water reservoir rationing"),
    ]
    backend = LlmBackend(url, backoff=0.0)
    model = fit_topic_model(docs, backend, topic_count=2, seed=0)
    # the server scores crop-topics as Agriculture, everything else Water Utilities
    assert {c.determinant_index for c in model.clusters} == {0, 8}
    assert sum(c.doc_count for c in model.clusters) == len(docs)
    assert len(handler.calls) == len(model.clusters)


def test_fit_topic_model_on_dead_service_bounds_posts(caplog):
    words = ["crop", "water", "fire", "clinic", "power", "river", "tourism", "factory"]
    docs = [doc(f"{w} {w} {w} shared{j}") for w in words for j in range(3)]
    post = FailingPost()
    backend = LlmBackend("http://llm.test/score", retries=2, backoff=0.0, post=post)
    with caplog.at_level(logging.WARNING, logger="side.dsiq"):
        model = fit_topic_model(docs, backend, topic_count=8, seed=0)
    assert len(model.clusters) == 8
    # only the topics in flight when the budget ran out may still call
    assert post.calls <= MAP_PARALLELISM * (backend.retries + 1)
    assert len(caplog.records) == 1
    lexicon = fit_topic_model(docs, LexiconBackend(), topic_count=8, seed=0)
    assert [c.determinant_index for c in model.clusters] == [c.determinant_index for c in lexicon.clusters]
