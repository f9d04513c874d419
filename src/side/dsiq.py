"""Determinant-driven societal impact quantification.

Turns weekly buckets of drought-related documents into normalized
distributions over the eleven societal impact determinants: documents
are clustered into topics per source (TF-IDF vectors + k-means), each
topic is mapped to one determinant by a scoring backend (remote LLM or
the shipped lexicon), and weekly document counts per determinant become
the impact vector components.

Topic models are fitted once on the training date range and frozen;
quantification with a fitted model is pure and scores a whole source in
one pass, ``BLOCK_ROWS`` documents at a time, whatever their weeks.  The
documents a model was fitted on keep the topics the fit gave them.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import ingest
from .core import (
    DETERMINANT_COUNT, DETERMINANT_NAMES, OTHER_INDEX, SOURCES, SeveritySeries, check_impacts, not_utf8,
    read_csv, write_csv,
)
from .errors import ConfigError, ParseError

log = logging.getLogger(__name__)

#: Below this likelihood/cosine score a topic is filed under "Other".
MAP_THRESHOLD = 0.15

KEYWORDS_PER_TOPIC = 10
KMEANS_MAX_ITER = 100

#: Rows per dense block: of documents per TF-IDF build or topic assignment
#: (:meth:`Tokens.blocks`), and of a run of cluster-ordered open rows per Lloyd
#: pass product, held in only the columns the run uses: the only dense rows
#: k-means holds.
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

#: A remote (LLM) scoring call times out after ``LLM_TIMEOUT_S`` seconds and is
#: retried ``LLM_RETRIES`` times, the n-th after ``LLM_BACKOFF_S * 2**(n - 1)`` s.
LLM_TIMEOUT_S = 10.0
LLM_RETRIES = 2
LLM_BACKOFF_S = 0.5

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

#: ``bytes.translate`` table that keeps ``a``-``z`` and ``'`` and turns every other byte into a space.
_TOKEN_BYTES = bytes(b if b == ord("'") or ord("a") <= b <= ord("z") else ord(" ") for b in range(256))


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens with stopwords removed: :func:`encode` of one text, as strings."""
    tokens = encode([text])
    return [tokens.terms[j] for j in tokens.ids]


@dataclass(frozen=True)
class TopicCluster:
    """One k-means topic: member document count, ranked keywords, determinant."""

    doc_count: int
    keywords: tuple[str, ...]
    determinant_index: int


@dataclass(frozen=True)
class TopicModel:
    """Frozen per-source topic model: vocabulary, centroids, mapped clusters; a topic's id is its index."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    centroids: np.ndarray
    clusters: tuple[TopicCluster, ...]


# ---------------------------------------------------------------------------
# Vectorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Tokens:
    """Documents as term ids: document ``i``'s tokens are ``terms[j]`` for ``j`` in ``ids[offsets[i]:offsets[i + 1]]``.

    ``ids`` is ``int32`` and ``offsets``, one longer than the documents, ``int64``.  The ids, one per token, stay
    ``int32`` though numpy casts them on each gather: as ``intp`` they raised ``quantify``'s max RSS from 53.3 to
    55.6 MB at 120 documents a week, with no time saved that a run could show.
    """

    terms: tuple[str, ...]
    ids: np.ndarray
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def take(self, rows: np.ndarray) -> Tokens:
        """The documents ``rows`` (an integer array), in that order."""
        index, lengths = _flat_index(self.offsets, rows)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return Tokens(self.terms, self.ids[index], offsets)

    def blocks(self):
        """These documents as consecutive zero-copy runs of at most ``BLOCK_ROWS``, in order."""
        for start in range(0, len(self), BLOCK_ROWS):
            offsets = self.offsets[start:start + BLOCK_ROWS + 1]
            yield Tokens(self.terms, self.ids[offsets[0]:offsets[-1]], offsets - offsets[0])

    def in_vocabulary(self, vocab: dict[str, int]) -> Tokens:
        """These documents with each term id replaced by its column in ``vocab``; tokens of other terms are dropped."""
        return self.relabel(np.array([vocab.get(t, -1) for t in self.terms], dtype=np.int32), tuple(vocab))

    def relabel(self, columns: np.ndarray, terms: tuple[str, ...]) -> Tokens:
        """These documents as ids into ``terms``: term id ``j`` becomes ``columns[j]``, and is dropped where that is -1."""
        columns = columns[self.ids]
        known = columns >= 0
        known_before = np.zeros(len(known) + 1, dtype=np.int64)
        np.cumsum(known, out=known_before[1:])
        return Tokens(terms, columns[known], known_before[self.offsets])


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Rows of a ``width``-column matrix as their nonzero cells, in row-major order.

    Row ``i`` holds ``values[a:b]`` in the columns ``columns[a:b]``, for ``a, b = offsets[i], offsets[i + 1]``;
    ``offsets``, one longer than the rows, is ``int64``, ``columns`` ``np.intp`` and ``values`` ``float64``: numpy
    gathers and counts with native indices without a cast, which k-means does with ``columns`` on every pass.
    ``sq_norms[i]`` is row ``i``'s squared norm, :func:`_row_sq_norms` of the dense row.
    """

    offsets: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    width: int
    sq_norms: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def densify(self, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Write ``rows``, an integer array, into the first rows of the zeroed ``block``.

        Returns the flat indices into the C-ordered ``block`` of the cells written, for the caller to zero again.
        """
        index, lengths = _flat_index(self.offsets, rows)
        cells = np.repeat(np.arange(0, len(lengths) * self.width, self.width), lengths)
        cells += self.columns[index]
        block.ravel()[cells] = self.values[index]
        return cells

    def compact(self, rows: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Write ``rows``, an integer array, in only the columns they hold into the first cells of the zeroed ``block``.

        Returns that C-ordered ``len(rows) x len(used)`` view of ``block``, ``used`` (the columns held, ascending) and
        the flat indices into ``block`` of the cells written, for the caller to zero again.
        """
        index, lengths = _flat_index(self.offsets, rows)
        columns = self.columns[index]
        held = np.bincount(columns, minlength=self.width) > 0
        used = np.flatnonzero(held)
        cells = np.repeat(np.arange(len(rows)) * len(used), lengths)
        cells += (np.cumsum(held) - 1)[columns]
        block.ravel()[cells] = self.values[index]
        return block.ravel()[:len(rows) * len(used)].reshape(len(rows), len(used)), used, cells


def _flat_index(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the items of ``rows`` in a flat array that ``offsets`` splits into rows, and their counts."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(len(index))
    return index, lengths


def _sparse_rows(blocks, width: int) -> SparseRows:
    """The nonzero cells and squared norms of the dense ``width``-column row ``blocks``, in order; at least one block."""
    counts, columns, values, sq_norms = [np.zeros(1, dtype=np.int64)], [], [], []
    for x in blocks:
        sq_norms.append(_row_sq_norms(x))
        cells = np.flatnonzero(x != 0.0)  # a bool mask is scanned faster than the floats
        counts.append(np.diff(np.searchsorted(cells, np.arange(len(x) + 1) * width)))
        columns.append(np.remainder(cells, width))
        values.append(x.ravel()[cells])
        del x, cells  # not to live through the making of the next block
    # Each list goes once its array is made, so the cells are held twice only one array at a time.
    offsets = np.cumsum(np.concatenate(counts), dtype=np.int64)
    columns = np.concatenate(columns)
    return SparseRows(offsets, columns, np.concatenate(values), width, np.concatenate(sq_norms))


class _Numbering(dict):
    """A dict that numbers each key it is asked for and does not hold yet: 0, 1, 2, ..."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def encode(texts) -> Tokens:
    """The tokens of each text as term ids, numbered in order of first appearance.

    A token is what ``[a-z][a-z']*`` finds in the lowercased text, unless it
    is a stopword: each maximal run of ``a``-``z`` and ``'`` that holds a
    letter, without its leading apostrophes.  Texts are split as ASCII bytes
    (any other character, ``?`` in that encoding, is a boundary like any
    other), each distinct run is numbered as it comes, and the work per
    term (apostrophes, stopwords, numbering) is done once per run.
    """
    runs = _Numbering()
    ids = array("i")
    offsets = [0]
    for text in texts:
        ids.extend(map(runs.__getitem__, text.lower().encode("ascii", "replace").translate(_TOKEN_BYTES).split()))
        offsets.append(len(ids))
    spelled = Tokens(tuple(run.decode("ascii") for run in runs), np.asarray(ids, dtype=np.int32),
                     np.array(offsets, dtype=np.int64))
    terms: dict[str, int] = {}
    columns = np.full(len(runs), -1, dtype=np.int32)
    for j, run in enumerate(spelled.terms):
        word = run.lstrip("'")
        if word and word not in STOPWORDS:
            columns[j] = terms.setdefault(word, len(terms))
    return spelled.relabel(columns, tuple(terms))


def _cells(tokens: Tokens, rows, width: int) -> np.ndarray:
    """``rows[i] * width + j`` for each term id ``j`` of document ``i``: its cell in a row-major count matrix."""
    cells = np.repeat(np.asarray(rows, dtype=np.int64) * width, np.diff(tokens.offsets))
    cells += tokens.ids
    return cells


def _fit_tfidf(tokens: Tokens) -> tuple[dict[str, int], np.ndarray, Tokens, SparseRows]:
    """Vocabulary, IDF, the documents ``tokens`` in the vocabulary's columns and their L2-normalized TF-IDF rows.

    The vocabulary keeps terms that appear in at least two documents, in
    sorted order; IDF is ln(N / df), so a term present in every document
    gets zero weight.  The documents are ``tokens.in_vocabulary(vocab)``;
    the rows are :func:`doc_matrix`'s of them, made one
    :meth:`Tokens.blocks` block at a time and kept as their nonzero cells.

    Raises:
        ValueError: no documents, or the vocabulary comes out empty.
    """
    n, width = len(tokens), len(tokens.terms)
    if not n:
        raise ValueError("TF-IDF needs at least one document")
    # A document counts once towards the frequency of each term it holds.
    cells = np.sort(_cells(tokens, np.arange(n), width))
    df = np.bincount(cells[np.diff(cells, prepend=-1) != 0] % width, minlength=width).tolist()
    del cells
    frequent = sorted((term, df[j]) for j, term in enumerate(tokens.terms) if df[j] >= 2)
    if not frequent:
        raise ValueError("vocabulary is empty: no term appears in two or more documents")
    vocab = {term: j for j, (term, _) in enumerate(frequent)}
    idf = np.array([math.log(n / count) for _, count in frequent])
    fitted = tokens.in_vocabulary(vocab)
    # Every step of doc_matrix is row-local, so a block's rows are those of the whole matrix.
    blocks = (doc_matrix(block, idf) for block in fitted.blocks())
    return vocab, idf, fitted, _sparse_rows(blocks, len(vocab))


def term_counts(tokens: Tokens) -> np.ndarray:
    """Term counts of shape (len(tokens), len(tokens.terms)), one row per document."""
    n, width = len(tokens), len(tokens.terms)
    cells = _cells(tokens, np.arange(n), width)
    # Float weights make bincount count straight into the float matrix, with no integer one to convert.
    return np.bincount(cells, weights=np.ones(len(cells)), minlength=n * width).reshape(n, width)


def doc_matrix(tokens: Tokens, idf: np.ndarray) -> np.ndarray:
    """TF * IDF rows, L2-normalized, of documents whose term ids are ``idf``'s columns; rows with no term stay zero."""
    x = term_counts(tokens)
    x *= idf
    norms = np.sqrt(_row_sq_norms(x))[:, None]
    np.divide(x, norms, out=x, where=norms > 0)
    return x


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------


def kmeans(rows: SparseRows, n_clusters: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ plus at most ``KMEANS_MAX_ITER`` Lloyd passes; fully deterministic.

    The effective cluster count is min(n_clusters, n_points).  Returns
    (assignments, centroids); every point is assigned to its nearest
    centroid, ties broken by the lowest centroid index.  A Lloyd pass
    skips the points whose bounds prove their nearest centroid unchanged
    (Hamerly, SDM 2010) and multiplies only the open rows, ordered by
    cluster, in runs of at most ``BLOCK_ROWS``, each by only the columns its
    rows hold, so the whole dense matrix never exists.  It assigns as a
    pass over the whole product would, unless an open point's two nearest
    centroids are as near as rounding (:func:`_nearest`).
    A centroid is its members' sum, adding their rows one by one in row
    order, over their count: ``mean(axis=0)``, bit for bit, of two or more
    columns (numpy sums a single column pairwise).  The seeds, whose
    distances come from the nonzero cells, are the plain algorithm's unless
    a uniform draw lands within about 1e-15 of a boundary of the D²
    distribution.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    n, dims = len(rows), rows.width
    k = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    x_sq = rows.sq_norms
    per_row = np.diff(rows.offsets)

    centroids = np.zeros((k, dims))
    row_ids = np.repeat(np.arange(n), per_row)
    rows.densify(np.array([rng.integers(n)]), centroids)
    closest = _seed_dists(rows, row_ids, centroids[0])
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        rows.densify(np.array([idx]), centroids[c:])
        closest = np.minimum(closest, _seed_dists(rows, row_ids, centroids[c]))
    del closest, row_ids

    block = np.zeros((min(BLOCK_ROWS, n), dims))
    # Hamerly's bounds, as distances: upper[i] is at least point i's distance
    # to its centroid, lower[i] at most its distance to any other centroid.
    upper = np.full(n, np.inf)
    lower = np.zeros(n)
    margin = PRUNE_MARGIN * math.sqrt((2 * dims + 3) * np.finfo(float).eps * x_sq.max())

    assignments = np.zeros(n, dtype=np.int64)
    for i in range(KMEANS_MAX_ITER):
        new_assignments = _nearest(rows, block, x_sq, centroids, assignments, upper, lower, margin)
        # A zero adds nothing to a row-by-row sum, so the nonzero cells give the means.
        keys = np.repeat(new_assignments * dims, per_row)
        keys += rows.columns
        sums = np.bincount(keys, weights=rows.values, minlength=k * dims).reshape(k, dims)
        del keys  # not to live through the next pass's distances
        counts = np.bincount(new_assignments, minlength=k)
        filled = counts > 0  # an empty cluster keeps its centroid
        before = centroids.copy()
        centroids[filled] = sums[filled] / counts[filled, None]
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
    return _nearest(rows, block, x_sq, centroids, assignments, upper, lower, margin), centroids


def _seed_dists(rows: SparseRows, row_ids: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Squared distances of ``rows`` to ``centroid``, clipped at 0; ``row_ids`` is each nonzero cell's row.

    Each dot product adds its row's cells in order, so a distance can differ from a GEMV's by about 1e-16.
    """
    weights = centroid[rows.columns]
    weights *= rows.values
    d = rows.sq_norms + centroid @ centroid
    d -= 2.0 * np.bincount(row_ids, weights=weights, minlength=len(rows))
    return np.maximum(d, 0.0, out=d)


def _nearest(rows, block, x_sq, centroids, assignments, upper, lower, margin) -> np.ndarray:
    """Each point's nearest centroid, from its ``upper`` and ``lower`` bounds about ``assignments`` or its distances.

    A point whose bounds prove its centroid nearest keeps it, as a pass over
    all distances would assign it (``PRUNE_MARGIN``).  The other, open, rows
    are ordered by their cluster and taken in runs of at most ``len(block)``;
    each run is densified into the zeroed ``block`` in only the columns it
    holds, multiplied by those columns of the centroids, and gets the argmin
    of its distances, ties to the lowest index; their bounds become exact.
    A dropped column adds only zero products, but a GEMM over other rows
    and columns can round differently from the same rows of the whole
    product (up to about 4e-16 on unit TF-IDF rows), so an open point's
    centroid is the whole product's argmin unless its two nearest
    centroids' distances differ by no more than that.
    """
    c_sq = (centroids * centroids).sum(axis=1)
    # A point nearer its centroid than half the way to the centroid's
    # nearest neighbour is nearer it than any other centroid.
    between = _sq_dists(centroids, centroids, c_sq, c_sq)
    np.fill_diagonal(between, np.inf)
    half_gap = 0.5 * np.sqrt(between.min(axis=1))
    open_rows = np.flatnonzero(upper + margin >= np.maximum(half_gap[assignments], lower))
    # One cluster's rows share most of their terms, so a run of them holds few
    # columns.  The keys (cluster, then row) are unique, so any sort gives this order.
    open_rows = open_rows[np.argsort(assignments[open_rows] * len(assignments) + open_rows)]
    nearest = assignments.copy()
    for start in range(0, len(open_rows), len(block)):
        part = open_rows[start:start + len(block)]
        x, used, cells = rows.compact(part, block)
        d = _sq_dists(x, centroids[:, used], x_sq[part], c_sq)
        block.ravel()[cells] = 0.0
        best = np.argmin(d, axis=1)
        nearest[part] = best
        took = np.arange(len(part))
        upper[part] = np.sqrt(d[took, best])
        d[took, best] = np.inf
        lower[part] = np.sqrt(d.min(axis=1))
        del d  # not to live through the next run's product
    return nearest


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """``(x * x).sum(axis=1)``, bit for bit, squaring ``BLOCK_ROWS`` rows at a time."""
    out = np.empty(len(x))
    for start in range(0, len(x), BLOCK_ROWS):
        block = x[start:start + BLOCK_ROWS]
        np.sum(block * block, axis=1, out=out[start:start + BLOCK_ROWS])
    return out


def _sq_dists(x: np.ndarray, centroids: np.ndarray, x_sq: np.ndarray | None = None,
              c_sq: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances, shape (len(x), len(centroids)), clipped at 0.

    ``x_sq`` is ``(x * x).sum(axis=1)`` and ``c_sq`` ``(centroids * centroids).sum(axis=1)``, passed in by callers
    that reuse them, or that multiply only the columns where ``x`` is nonzero and pass the whole centroids' norms.
    """
    if x_sq is None:
        x_sq = (x * x).sum(axis=1)
    if c_sq is None:
        c_sq = (centroids * centroids).sum(axis=1)
    d = x_sq[:, None] + c_sq[None, :]
    # Doubling the centroids doubles each product exactly, as doubling the product would.
    d -= x @ (2.0 * centroids).T
    return np.maximum(d, 0.0, out=d)


def cluster_keywords(tokens: Tokens, assignments) -> list[tuple[str, ...]]:
    """The ``KEYWORDS_PER_TOPIC`` top keywords per cluster by class-based TF-IDF.

    ``assignments[i]`` is the cluster of document ``i`` of ``tokens``;
    clusters are numbered 0..C-1.  Each cluster's members are concatenated
    into one pseudo-document; a term's weight is its frequency there times
    ln(C / cf) where cf counts the clusters containing it.  When no term
    has positive weight (a single cluster, or fully shared vocabulary) raw
    frequency decides.
    """
    terms = tokens.terms
    n_clusters, width = int(np.max(assignments, initial=-1)) + 1, len(terms)
    # Counted as integers, with no float weight per token, and converted once, at k x V.
    counts = np.bincount(_cells(tokens, assignments, width), minlength=n_clusters * width).astype(float)
    counts = counts.reshape(n_clusters, width)
    cf = (counts > 0).sum(axis=0)
    with np.errstate(divide="ignore"):
        cluster_idf = np.log(np.where(cf > 0, n_clusters / np.maximum(cf, 1), 1.0))
    weighted = counts * cluster_idf

    keywords = []
    for c in range(n_clusters):
        scores = weighted[c] if (weighted[c] > 0).any() else counts[c]
        kept = np.flatnonzero(scores > 0)
        ranked = sorted(zip((-scores[kept]).tolist(), [terms[j] for j in kept.tolist()]))
        keywords.append(tuple(t for _, t in ranked[:KEYWORDS_PER_TOPIC]))
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
        ParseError: the file is not such a JSON object; the message names
            it, and the line of the first byte that is not UTF-8.
    """
    source = resources.files("side").joinpath("data/lexicon.json") if path is None else Path(path)
    try:
        lexicon = json.loads(source.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise not_utf8(source) from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError; RecursionError: JSON nested too deep
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
        fallback: LexiconBackend | None = None,
        post=_post_json,
    ):
        self.url = url
        self.api_key = api_key
        self.fallback = fallback or LexiconBackend()
        self.post = post
        self._failed = False
        self._failed_lock = threading.Lock()

    def score(self, keywords: list[str]) -> list[float]:
        body = {"keywords": list(keywords), "determinants": list(DETERMINANT_NAMES)}
        headers = {}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in range(LLM_RETRIES + 1):
            if self._failed:
                return self.fallback.score(keywords)
            try:
                scores = self.post(self.url, body, headers, LLM_TIMEOUT_S)["scores"]
                if len(scores) != DETERMINANT_COUNT or not all(
                    math.isfinite(float(s)) for s in scores
                ):
                    raise ValueError(f"backend returned invalid scores: {scores!r}")
                return [float(s) for s in scores]
            except Exception as exc:
                last_error = exc
                if attempt < LLM_RETRIES:
                    time.sleep(LLM_BACKOFF_S * (2**attempt))
        with self._failed_lock:
            first, self._failed = not self._failed, True
        if first:
            log.warning("LLM backend %s failed %d attempts (last error: %r); "
                        "scoring this and every later topic with the lexicon",
                        self.url, LLM_RETRIES + 1, last_error)
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


def map_topic(keywords, backend) -> int:
    """Determinant index for a topic given its ranked keywords.

    Argmax of the backend scores, lowest index on ties; anything scoring
    below ``MAP_THRESHOLD`` everywhere lands on "Other".
    """
    scores = backend.score(list(keywords))
    best = int(np.argmax(scores))
    if scores[best] < MAP_THRESHOLD:
        return OTHER_INDEX
    return best


# ---------------------------------------------------------------------------
# Fitting and quantification
# ---------------------------------------------------------------------------


class TopicFit(NamedTuple):
    """A fitted model and ``topics[i]``, the topic id of fit document ``i``.

    ``clusters`` is the model's, so a caller that counts a fit's topics (``bench/spans.py``) reads it as a model.
    """

    model: TopicModel
    topics: np.ndarray

    @property
    def clusters(self) -> tuple[TopicCluster, ...]:
        return self.model.clusters


def fit_topic_model(
    tokens: Tokens,
    backend,
    topic_count: int,
    seed: int,
) -> TopicFit:
    """Cluster one source's documents, given as :func:`encode` made them, and map every topic to a determinant.

    Returns the model and each document's topic, its final :func:`kmeans` assignment renumbered to the topics that
    kept members: what :func:`assign_clusters` gives the same documents, unless :func:`kmeans`'s rounding caveat
    applies.  Topics are mapped on ``MAP_PARALLELISM`` threads, in topic order.
    """
    vocab, idf, fitted, rows = _fit_tfidf(tokens)
    assignments, centroids = kmeans(rows, topic_count, seed)
    del rows
    # Renumber the clusters that kept members as 0..live-1; no centroid that lost all its members was any
    # document's nearest, so dropping them moves no assignment.
    live, topics = np.unique(assignments, return_inverse=True)
    centroids = centroids[live]

    doc_counts = np.bincount(topics, minlength=len(live))
    keywords = cluster_keywords(fitted, topics)

    with ThreadPoolExecutor(max_workers=MAP_PARALLELISM) as pool:
        det_indices = list(pool.map(lambda kw: map_topic(kw, backend), keywords))

    clusters = tuple(
        TopicCluster(
            doc_count=int(doc_counts[c]),
            keywords=keywords[c],
            determinant_index=det_indices[c],
        )
        for c in range(len(live))
    )
    return TopicFit(TopicModel(vocabulary=vocab, idf=idf, centroids=centroids, clusters=clusters), topics)


def assign_clusters(tokens: Tokens, model: TopicModel) -> np.ndarray:
    """Nearest-centroid topic ids under a frozen model for documents whose term ids are its vocabulary's columns."""
    vectors = doc_matrix(tokens, model.idf)
    return np.argmin(_sq_dists(vectors, model.centroids), axis=1)


def _shares(model: TopicModel, topics: np.ndarray, timesteps: np.ndarray, weeks: int) -> np.ndarray:
    """(weeks, DETERMINANT_COUNT) shares per determinant of each week's documents, an empty week all zeros.

    Document ``i`` has topic ``topics[i]`` and falls in week ``timesteps[i]``, in ``range(weeks)`` and in any order.
    """
    determinants = np.array([c.determinant_index for c in model.clusters])
    cells = np.asarray(timesteps, dtype=np.int64) * DETERMINANT_COUNT + determinants[topics]
    counts = np.bincount(cells, minlength=weeks * DETERMINANT_COUNT).reshape(weeks, DETERMINANT_COUNT)
    return counts / np.maximum(counts.sum(axis=1), 1)[:, None]


def quantify(tokens: Tokens, model: TopicModel, timesteps: np.ndarray, weeks: int) -> np.ndarray:
    """(weeks, DETERMINANT_COUNT) determinant distributions of ``tokens``, whose term ids are the model's columns.

    Document ``i`` falls in week ``timesteps[i]``, in ``range(weeks)`` and in any order.  Row ``t`` counts week ``t``'s
    documents per determinant through their topics, assigned one :meth:`Tokens.blocks` block at a time, over their
    number; an empty week is all zeros.  :func:`quantify_source` counts a source's kept documents the same way but
    assigns only those its topic model was not fitted on.
    """
    topics = [np.zeros(0, dtype=np.int64)] + [assign_clusters(block, model) for block in tokens.blocks()]
    return _shares(model, np.concatenate(topics), timesteps, weeks)


def quantify_source(
    source: str, path, series: SeveritySeries, entities: ingest.EntityList, backend,
    cutoff: int, topic_count: int, seed: int,
) -> tuple[dict[str, int], TopicModel, np.ndarray]:
    """Ingest counters, topic model and (len(series), DETERMINANT_COUNT) impact half of one JSONL dump.

    Each kept document is tokenized once.  The model fits the kept documents before week ``cutoff``, and a
    source with none, or with no term in two of them, raises ``ConfigError``.  Those documents keep the topics
    the fit gave them; only the documents from week ``cutoff`` on are vectorized and assigned, one
    :meth:`Tokens.blocks` block at a time, and both count into the half as :func:`quantify` of every kept
    document would, unless :func:`kmeans`'s rounding caveat applies.  The counters carry the labels
    ``side quantify`` prints.
    """
    loaded = ingest.load_documents(path, series)
    kept = ingest.geofilter(loaded.documents, entities)
    dropped = loaded.malformed_count + loaded.empty_text_count + loaded.out_of_range_count
    counts = {
        "read": len(loaded.documents) + dropped,
        "malformed": loaded.malformed_count,
        "empty": loaded.empty_text_count,
        "out of range": loaded.out_of_range_count,
        "outside the state": len(loaded.documents) - len(kept),
        "kept": len(kept),
    }
    timesteps = np.asarray(loaded.timesteps, dtype=np.int64)[kept]
    tokens = encode(loaded.documents[i] for i in kept)
    del loaded, kept  # each kept text is tokenized once; no text lives through the topic fit
    # Topic models see training-range text only, never validation or test text.
    fit_rows = np.flatnonzero(timesteps < cutoff)
    if not len(fit_rows):
        raise ConfigError(f"no {source} document falls in the training range (before week {cutoff})")
    held = np.flatnonzero(timesteps >= cutoff)
    fit_tokens, held_tokens = tokens.take(fit_rows), tokens.take(held)
    del tokens  # the two parts, and not the whole as well, live through the fit
    try:
        model, fit_topics = fit_topic_model(fit_tokens, backend, topic_count=topic_count, seed=seed)
    except ValueError as exc:  # an empty vocabulary
        raise ConfigError(f"{source} training range (before week {cutoff}): {exc}") from exc

    held_tokens = held_tokens.in_vocabulary(model.vocabulary)
    topics = np.concatenate([fit_topics] + [assign_clusters(block, model) for block in held_tokens.blocks()])
    return counts, model, _shares(model, topics, timesteps[np.concatenate([fit_rows, held])], len(series))


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
