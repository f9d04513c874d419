"""Determinant-driven societal impact quantification.

Turns weekly buckets of drought-related documents into normalized
distributions over the eleven societal impact determinants: documents
are clustered into topics per source (TF-IDF vectors + k-means), each
topic is mapped to one determinant by a scoring backend (remote LLM or
the shipped lexicon), and weekly document counts per determinant become
the impact vector components.

Topic models are fitted once on the training date range and frozen;
quantification with a fitted model is pure and may run concurrently
across timesteps.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import (
    DETERMINANT_COUNT, DETERMINANT_NAMES, IMPACT_DIM, OTHER_INDEX, SOURCES, Document, check_impacts, read_csv,
    write_csv,
)
from .errors import ParseError

log = logging.getLogger(__name__)

#: Below this likelihood/cosine score a topic is filed under "Other".
MAP_THRESHOLD = 0.15

KEYWORDS_PER_TOPIC = 10

#: Rows per distance GEMM in a k-means pass (the matrix's row count when it
#: has fewer), and per squared-norm block.  A GEMM over fewer rows can round
#: differently from the same rows of the full product (OpenBLAS, below about
#: 1200 / k rows at k centroids), so a pass pads every block to this shape.
BLOCK_ROWS = 1024

#: k-means skips a point's distances only when its bounds clear each other by
#: ``PRUNE_MARGIN * sqrt(delta)``.  ``delta = (2 * dims + 3) * eps * r**2``,
#: ``r`` the largest row norm (centroids are means, so no longer), bounds the
#: rounding error of a computed squared distance and ``sqrt(delta)`` that of
#: its root; any factor above 2 + sqrt(2) keeps every other centroid's computed
#: squared distance strictly above the point's own, so a full pass would not
#: move the point.
PRUNE_MARGIN = 4.0

#: Concurrent mapping calls to a remote (LLM) backend per topic model.
MAP_PARALLELISM = 4

STOPWORDS = frozenset(
    """a about above after again all also am an and any are as at be because been
    before being below between both but by could did do does doing down during
    each few for from further had has have having he her here hers him his how
    i if in into is it its itself just me more most my no nor not now of off
    on once only or other our ours out over own same she should so some such
    than that the their theirs them then there these they this those through
    to too under until up very was we were what when where which while who
    whom why will with you your yours""".split()
)

_TOKEN_RE = re.compile(r"[a-z][a-z']*")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens with stopwords removed."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in STOPWORDS]


@dataclass(frozen=True)
class TopicCluster:
    """One k-means topic: member document count, ranked keywords, determinant."""

    id: int
    doc_count: int
    keywords: tuple[str, ...]
    determinant_index: int


@dataclass(frozen=True)
class TopicModel:
    """Frozen per-source topic model: vocabulary, centroids, mapped clusters."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    centroids: np.ndarray
    clusters: tuple[TopicCluster, ...]


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------


def _fit_tfidf(docs: list[Document]) -> tuple[dict[str, int], np.ndarray, np.ndarray, list[list[str]]]:
    """Vocabulary, IDF, L2-normalized TF-IDF vectors and token lists of ``docs``.

    The vocabulary keeps terms that appear in at least two documents and
    are not stopwords; IDF is ln(N / df), so a term present in every
    document gets zero weight.

    Raises:
        ValueError: no documents, or the vocabulary comes out empty.
    """
    if not docs:
        raise ValueError("TF-IDF needs at least one document")
    token_lists = [tokenize(d.text) for d in docs]
    df: dict[str, int] = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    vocab = {term: i for i, term in enumerate(sorted(t for t, c in df.items() if c >= 2))}
    if not vocab:
        raise ValueError("vocabulary is empty: no term appears in two or more documents")

    n = len(docs)
    idf = np.zeros(len(vocab))
    for term, j in vocab.items():
        idf[j] = math.log(n / df[term])
    return vocab, idf, doc_matrix(token_lists, vocab, idf), token_lists


def term_counts(token_lists: list[list[str]], vocab: dict[str, int], rows=None, n_rows=None) -> np.ndarray:
    """In-vocabulary term counts, shape (n_rows, len(vocab)).

    Token list ``i`` adds to row ``rows[i]`` (default ``i``); ``n_rows``
    defaults to one row per token list.
    """
    rows = range(len(token_lists)) if rows is None else rows
    counts = np.zeros((len(token_lists) if n_rows is None else n_rows, len(vocab)))
    for r, tokens in zip(rows, token_lists):
        for t in tokens:
            j = vocab.get(t)
            if j is not None:
                counts[r, j] += 1.0
    return counts


def doc_matrix(token_lists: list[list[str]], vocab: dict[str, int], idf: np.ndarray) -> np.ndarray:
    """TF * IDF rows, L2-normalized; all-out-of-vocabulary rows stay zero."""
    x = term_counts(token_lists, vocab)
    x *= idf
    norms = np.sqrt(_row_sq_norms(x))[:, None]
    np.divide(x, norms, out=x, where=norms > 0)
    return x


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def kmeans(vectors: np.ndarray, n_clusters: int, seed: int, max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus Lloyd iterations; fully deterministic.

    The effective cluster count is min(n_clusters, n_points).  Returns
    (assignments, centroids); every point is assigned to its nearest
    centroid, ties broken by the lowest centroid index.  A Lloyd pass
    skips the points whose bounds prove their nearest centroid unchanged
    (Hamerly, SDM 2010) and assigns exactly as a pass over all distances.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    n = vectors.shape[0]
    k = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    x_sq = _row_sq_norms(vectors)

    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(n)]
    closest = _sq_dists(vectors, centroids[0][None, :], x_sq)[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[c] = vectors[idx]
        closest = np.minimum(closest, _sq_dists(vectors, centroids[c][None, :], x_sq)[:, 0])

    # Hamerly's bounds, as distances: upper[i] is at least point i's distance
    # to its centroid, lower[i] at most its distance to any other centroid.
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    margin = PRUNE_MARGIN * math.sqrt((2 * vectors.shape[1] + 3) * np.finfo(float).eps * x_sq.max())
    assignments = np.zeros(n, dtype=np.int64)
    for i in range(max_iter):
        new_assignments = _nearest(vectors, x_sq, centroids, assignments, upper, lower, margin)
        # A cluster that kept exactly its members keeps its mean, bit for bit;
        # the first pass replaces the k-means++ seeds, so it updates them all.
        moved = new_assignments != assignments
        stale = range(k) if i == 0 else np.union1d(new_assignments[moved], assignments[moved])
        # Members in row order, as a boolean mask would pick them, so every
        # mean sums the same rows in the same order.
        order = np.argsort(new_assignments, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(new_assignments, minlength=k))[:-1])
        before = centroids.copy()
        for c in stale:
            if len(groups[c]):
                centroids[c] = vectors[groups[c]].mean(axis=0)
        # A point's centroid moved by at most shift[its cluster], any other by
        # at most the largest other shift.
        shift = np.sqrt(((centroids - before) ** 2).sum(axis=1))
        far = int(np.argmax(shift))
        upper += shift[new_assignments]
        lower -= np.where(new_assignments == far, np.max(np.delete(shift, far), initial=0.0), shift[far])
        if np.array_equal(new_assignments, assignments):
            if i:
                # Nothing moved, so no centroid changed: this pass is the final one.
                return new_assignments, centroids
            break
        assignments = new_assignments
    return _nearest(vectors, x_sq, centroids, assignments, upper, lower, margin), centroids


def _nearest(vectors, x_sq, centroids, assignments, upper, lower, margin) -> np.ndarray:
    """``np.argmin(_sq_dists(vectors, centroids, x_sq), axis=1)``, bit for bit, from the bounds.

    Only the rows whose ``upper`` and ``lower`` bounds (about
    ``assignments``) leave their nearest centroid open get distances, and
    their bounds become exact.  Every GEMM runs on ``min(BLOCK_ROWS, n)``
    rows: the whole matrix when it is that small, else blocks of open rows,
    the last one padded with row 0.
    """
    n = len(vectors)
    # A point nearer its centroid than half the way to the centroid's
    # nearest neighbour is nearer it than any other centroid.
    between = _sq_dists(centroids, centroids)
    np.fill_diagonal(between, np.inf)
    half_gap = 0.5 * np.sqrt(between.min(axis=1))
    open_rows = np.flatnonzero(upper + margin >= np.maximum(half_gap[assignments], lower))
    nearest = assignments.copy()
    size = min(BLOCK_ROWS, n)
    if len(open_rows) and n == size:
        open_rows = np.arange(n)
    padded = np.zeros(-(-len(open_rows) // size) * size, dtype=np.intp)
    padded[:len(open_rows)] = open_rows
    block = np.empty((size, vectors.shape[1]))
    for start in range(0, len(open_rows), size):
        rows, take = open_rows[start:start + size], padded[start:start + size]
        # mode="clip" lets take write into block directly; "raise" would buffer.
        x = vectors if n == size else np.take(vectors, take, axis=0, out=block, mode="clip")
        d = _sq_dists(x, centroids, x_sq[take])[:len(rows)]
        best = np.argmin(d, axis=1)
        nearest[rows] = best
        took = np.arange(len(rows))
        upper[rows] = np.sqrt(d[took, best])
        d[took, best] = np.inf
        lower[rows] = np.sqrt(d.min(axis=1))
    return nearest


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=1)``, bit for bit, squaring ``BLOCK_ROWS`` rows at a time."""
    out = np.empty(len(x))
    for start in range(0, len(x), BLOCK_ROWS):
        block = x[start:start + BLOCK_ROWS]
        np.sum(block * block, axis=1, out=out[start:start + BLOCK_ROWS])
    return out


def _sq_dists(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances, shape (len(x), len(centroids)), clipped at 0.

    ``x_sq`` is ``(x * x).sum(axis=1)``, passed in by callers that reuse it.
    """
    if x_sq is None:
        x_sq = (x * x).sum(axis=1)
    g = x @ centroids.T
    g *= 2.0
    d = x_sq[:, None] + (centroids * centroids).sum(axis=1)[None, :]
    d -= g
    return np.maximum(d, 0.0, out=d)


def cluster_keywords(
    token_lists: list[list[str]], assignments, vocab: dict[str, int], top: int = KEYWORDS_PER_TOPIC
) -> list[tuple[str, ...]]:
    """Rank keywords per cluster by class-based TF-IDF.

    ``assignments[i]`` is the cluster of ``token_lists[i]``; clusters are
    numbered 0..C-1.  Each cluster's members are concatenated into one
    pseudo-document; a term's weight is its frequency there times
    ln(C / cf) where cf counts the clusters containing it.  When no term
    has positive weight (a single cluster, or fully shared vocabulary)
    raw frequency decides.
    """
    terms = list(vocab)
    n_clusters = int(np.max(assignments, initial=-1)) + 1
    counts = term_counts(token_lists, vocab, rows=assignments, n_rows=n_clusters)
    cf = (counts > 0).sum(axis=0)
    with np.errstate(divide="ignore"):
        cluster_idf = np.log(np.where(cf > 0, n_clusters / np.maximum(cf, 1), 1.0))
    weighted = counts * cluster_idf

    keywords = []
    for c in range(n_clusters):
        scores = weighted[c] if (weighted[c] > 0).any() else counts[c]
        ranked = sorted(
            (j for j in range(len(terms)) if scores[j] > 0),
            key=lambda j: (-scores[j], terms[j]),
        )
        keywords.append(tuple(terms[j] for j in ranked[:top]))
    return keywords


# ---------------------------------------------------------------------------
# Topic -> determinant mapping backends
# ---------------------------------------------------------------------------


def load_lexicon(path=None) -> dict[str, list[str]]:
    """Determinant name -> seed term list; ships with the package.

    A lexicon may leave determinants out (they then score 0), but every
    key must be a determinant name and every value a list of strings, and
    it must hold at least one term.  Topic keywords come from
    :func:`tokenize`, so each term, lowercased, must be one token of it:
    a multi-word term, a stopword or a term with digits could never score.

    Raises:
        ParseError: the file is not such a JSON object; the message names it.
    """
    source = resources.files("side").joinpath("data/lexicon.json") if path is None else Path(path)
    try:
        lexicon = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(lexicon, dict):
        raise ParseError(f"{source}: lexicon must be a JSON object mapping determinant -> term list")
    for name, terms in lexicon.items():
        if name not in DETERMINANT_NAMES:
            raise ParseError(f"{source}: lexicon key {name!r} is not a determinant name")
        if not isinstance(terms, list) or not all(isinstance(t, str) for t in terms):
            raise ParseError(f"{source}: lexicon entry {name!r} must be a list of strings")
        for term in terms:
            if tokenize(term) != [term.lower()]:
                raise ParseError(f"{source}: lexicon entry {name!r} term {term!r} is not one "
                                 "tokenizer word (a multi-word term, stopword or digit never scores)")
    if not any(lexicon.values()):
        raise ParseError(f"{source}: lexicon holds no term")
    return {name: [t.lower() for t in terms] for name, terms in lexicon.items()}


class LexiconBackend:
    """Scores a topic against each determinant by keyword/lexicon cosine.

    Keywords and lexicon entries are treated as binary term sets, so the
    score is |intersection| / sqrt(|keywords| * |lexicon|).
    """

    def __init__(self, lexicon: dict[str, list[str]] | None = None):
        self.lexicon = {k: frozenset(v) for k, v in (lexicon or load_lexicon()).items()}

    def score(self, keywords: list[str]) -> list[float]:
        kw = set(keywords)
        scores = []
        for name in DETERMINANT_NAMES:
            lex = self.lexicon.get(name, frozenset())
            if not kw or not lex:
                scores.append(0.0)
                continue
            scores.append(len(kw & lex) / math.sqrt(len(kw) * len(lex)))
        return scores


def _post_json(url: str, body, headers: dict[str, str], timeout: float):
    """POST ``body`` as JSON with ``urllib.request`` and return the decoded JSON reply.

    The default transport of :class:`LlmBackend`.  An HTTP error status
    raises ``urllib.error.HTTPError`` after closing its body.
    """
    import urllib.error
    import urllib.request  # only the remote backend needs it; importing it costs ~35 ms

    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        exc.close()
        raise


class LlmBackend:
    """Remote likelihood scorer with retries and a lexicon fallback.

    POSTs ``{"keywords": [...], "determinants": [...]}`` and expects
    ``{"scores": [...]}`` with one float per determinant.  The first topic
    whose retries all fail logs a warning naming the last error; from then
    on this backend scores every topic with the lexicon, without calling.
    ``post(url, body, headers, timeout)`` sends one request and returns the
    decoded reply, or raises; tests pass a fake.
    """

    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.5,
        fallback: LexiconBackend | None = None,
        post=_post_json,
    ):
        self.url = url
        self.api_key = api_key
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fallback = fallback or LexiconBackend()
        self.post = post
        self._failed = False
        self._failed_lock = threading.Lock()

    def score(self, keywords: list[str]) -> list[float]:
        body = {"keywords": list(keywords), "determinants": list(DETERMINANT_NAMES)}
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in range(self.retries + 1):
            if self._failed:
                return self.fallback.score(keywords)
            try:
                scores = self.post(self.url, body, headers, self.timeout)["scores"]
                if len(scores) != DETERMINANT_COUNT or not all(
                    math.isfinite(float(s)) for s in scores
                ):
                    raise ValueError(f"backend returned invalid scores: {scores!r}")
                return [float(s) for s in scores]
            except Exception as exc:
                last_error = exc
                if attempt < self.retries:
                    time.sleep(self.backoff * (2**attempt))
        with self._failed_lock:
            first, self._failed = not self._failed, True
        if first:
            log.warning("LLM backend %s failed %d attempts (last error: %r); "
                        "scoring this and every later topic with the lexicon",
                        self.url, self.retries + 1, last_error)
        return self.fallback.score(keywords)


def backend_from_env(
    name: str, lexicon: dict[str, list[str]] | None = None, env=None
) -> LexiconBackend | LlmBackend:
    """Build the mapping backend selected by name ("lexicon" or "llm")."""
    import os

    env = env if env is not None else os.environ
    lex = LexiconBackend(lexicon)
    if name == "lexicon":
        return lex
    if name == "llm":
        url = env.get("SIDE_LLM_URL")
        if not url:
            raise ValueError("backend 'llm' requires the SIDE_LLM_URL environment variable")
        return LlmBackend(url, api_key=env.get("SIDE_LLM_KEY"), fallback=lex)
    raise ValueError(f"unknown mapping backend {name!r}")


def map_topic(keywords, backend, threshold: float = MAP_THRESHOLD) -> int:
    """Determinant index for a topic given its ranked keywords.

    Argmax of the backend scores, lowest index on ties; anything scoring
    below ``threshold`` everywhere lands on "Other".
    """
    scores = backend.score(list(keywords))
    best = int(np.argmax(scores))
    if scores[best] < threshold:
        return OTHER_INDEX
    return best


# ---------------------------------------------------------------------------
# Fitting and quantification
# ---------------------------------------------------------------------------


def fit_topic_model(
    docs: list[Document],
    backend,
    topic_count: int,
    seed: int,
    map_threshold: float = MAP_THRESHOLD,
) -> TopicModel:
    """Cluster one source's documents and map every topic to a determinant.

    Topics are mapped on ``MAP_PARALLELISM`` threads, in topic order.
    """
    vocab, idf, vectors, token_lists = _fit_tfidf(docs)
    assignments, centroids = kmeans(vectors, topic_count, seed)
    # Renumber the clusters that kept members as 0..live-1.
    live, assignments = np.unique(assignments, return_inverse=True)
    centroids = centroids[live]

    doc_counts = np.bincount(assignments, minlength=len(live))
    keywords = cluster_keywords(token_lists, assignments, vocab)

    with ThreadPoolExecutor(max_workers=MAP_PARALLELISM) as pool:
        det_indices = list(pool.map(lambda kw: map_topic(kw, backend, map_threshold), keywords))

    clusters = tuple(
        TopicCluster(
            id=c,
            doc_count=int(doc_counts[c]),
            keywords=keywords[c],
            determinant_index=det_indices[c],
        )
        for c in range(len(live))
    )
    return TopicModel(vocabulary=vocab, idf=idf, centroids=centroids, clusters=clusters)


def assign_clusters(docs: list[Document], model: TopicModel) -> np.ndarray:
    """Nearest-centroid topic ids for documents under a frozen model."""
    token_lists = [tokenize(d.text) for d in docs]
    vectors = doc_matrix(token_lists, model.vocabulary, model.idf)
    return np.argmin(_sq_dists(vectors, model.centroids), axis=1)


def quantify(docs_at_t: list[Document], model: TopicModel) -> np.ndarray:
    """Normalized determinant distribution of one week's documents.

    Counts documents per determinant through their topic assignment and
    divides by the total; an empty week yields the all-zero vector.
    """
    out = np.zeros(DETERMINANT_COUNT)
    if not docs_at_t:
        return out
    for topic_id in assign_clusters(docs_at_t, model):
        out[model.clusters[int(topic_id)].determinant_index] += 1.0
    return out / len(docs_at_t)


def build_impact_series(
    social_docs: list[Document],
    news_docs: list[Document],
    total_steps: int,
    social_model: TopicModel,
    news_model: TopicModel,
) -> np.ndarray:
    """The (total_steps, IMPACT_DIM) impact series, one half per source in ``SOURCES`` order."""
    impacts = np.zeros((total_steps, len(SOURCES), DETERMINANT_COUNT))
    for half, (docs, model) in enumerate(((social_docs, social_model), (news_docs, news_model))):
        by_step: dict[int, list[Document]] = {}
        for d in docs:
            by_step.setdefault(d.timestep, []).append(d)
        for t in range(total_steps):
            impacts[t, half] = quantify(by_step.get(t, []), model)
    impacts = impacts.reshape(total_steps, IMPACT_DIM)
    check_impacts(impacts)
    return impacts


# ---------------------------------------------------------------------------
# Impact series CSV interface
# ---------------------------------------------------------------------------


def impact_csv_header() -> list[str]:
    """``timestep``, then one column per impact component: source initial and determinant number."""
    return ["timestep"] + [f"{source[0]}_{i}" for source in SOURCES for i in range(1, DETERMINANT_COUNT + 1)]


def write_impact_csv(path, impacts: np.ndarray) -> None:
    write_csv(path, impact_csv_header(), ([t, *row] for t, row in enumerate(impacts.tolist())))


def read_impact_csv(path) -> np.ndarray:
    """The impact series written by :func:`write_impact_csv`.

    Raises:
        ParseError: ``path:line`` of a bad header or row, a ``timestep`` that
            is not the row index, or a row that fails :func:`side.core.check_impacts`.
    """
    header = impact_csv_header()
    rows = read_csv(path, header)
    impacts = np.empty((len(rows), len(header) - 1))
    for t, (lineno, cells) in enumerate(rows):
        try:
            timestep = int(cells[0])
            impacts[t] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if timestep != t:
            raise ParseError(f"{path}:{lineno}: timestep {timestep} where {t} was expected")
    try:
        check_impacts(impacts, labels=[f"{path}:{lineno}" for lineno, _ in rows])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return impacts
