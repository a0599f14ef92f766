"""Weighting and codebook construction.

``_count_images`` counts every image's words in one pass over flat columns;
``tfidf_weights`` turns those counts into weights in ``(0, 1]``. Both
quantizers take a raw :class:`~vwsim.io.Dataset`, whose constructor has
checked its descriptors, and return its images counted over their words:
``assign_words`` against a given vocabulary, ``kmeans_quantize`` against
one it builds by spherical k-means (unit centroids, cosine assignment).
Both find each descriptor's nearest word through ``_nearest``, which scores
in fixed blocks of rows, so the scores held at once grow with the vocabulary,
not with the descriptor count.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import Vocabulary, _column, unit_rows
from .errors import DomainError
from .io import Dataset

__all__ = ["tfidf_weights", "assign_words", "kmeans_quantize"]

_MAX_ITER = 100  # Lloyd rounds at most,
_TOL = 1e-6  # or until no centroid moves this far
_ASSIGN_ROWS = 4096  # descriptors scored against the words per block


def tfidf_weights(dataset: Dataset) -> Dataset:
    """Replace every image's weights with max-normalized tf-idf.

    Per image, a word's raw weight is ``(count / max_count) * ln(1 + N / df)``
    with ``N`` the corpus size and ``df`` the number of images containing the
    word; weights are then scaled so each image's maximum is exactly 1.
    Images are counted first (:func:`_count_images`), so each output image
    holds its distinct word ids in ascending order, a repeated id's counts summed.
    Requires vocabulary-backed images with occurrence counts.
    """
    if dataset.vocab is None:
        raise DomainError("the dataset's images have no word ids; tf-idf needs word identity")
    if dataset.counts is None:
        raise DomainError("the dataset's images have no occurrence counts")
    counted = _count_images(dataset.image_ids, dataset.offsets, dataset.word_ids, dataset.vocab,
                            dataset.counts)
    ids, offsets = counted.word_ids, counted.offsets
    # idf by ``math.log`` (``np.log`` is an ulp off on some arguments), once
    # per distinct document frequency, gathered back to each occurrence.
    levels, level_of = np.unique(np.bincount(ids)[ids], return_inverse=True)
    idf = np.array([math.log(1.0 + len(dataset) / v) for v in levels.tolist()])[level_of]
    raw = counted.weights * idf
    weights = raw / np.repeat(np.maximum.reduceat(raw, offsets[:-1]), np.diff(offsets))
    return Dataset(dataset.image_ids, offsets, weights, word_ids=ids, counts=counted.counts,
                   vocab=dataset.vocab)


def _count_images(image_ids: Sequence[str], offsets: np.ndarray, word_ids: np.ndarray,
                  vocab: Vocabulary, counts: Optional[np.ndarray] = None) -> Dataset:
    """Count every image's words in one pass over flat columns.

    Image ``i`` owns ``word_ids[offsets[i]:offsets[i+1]]``; each occurrence
    adds its entry of *counts* (1 without). One ``np.unique`` over (image,
    word) keys yields each image's distinct ids ascending, their counts
    summed in int64 (wrapping as int64 does), and weights count / max count.
    """
    image_of = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    keys, inverse = np.unique(image_of * vocab.size + word_ids, return_inverse=True)
    summed = np.zeros(keys.size, dtype=np.int64)
    np.add.at(summed, inverse, 1 if counts is None else counts)
    starts = np.searchsorted(keys, np.arange(offsets.size) * vocab.size)
    weights = summed / np.maximum.reduceat(summed, starts[:-1])[keys // vocab.size]
    return Dataset(image_ids, starts, weights, word_ids=keys % vocab.size, counts=summed, vocab=vocab)


def _descriptors(raw: Dataset, need: str) -> np.ndarray:
    """The unit rows of a raw dataset's descriptors, as its constructor checked them."""
    if raw.vocab is not None:
        raise DomainError(f"the dataset's images have no inline descriptors; {need} needs raw vectors")
    return unit_rows(raw.vectors)


def _nearest(points: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each unit row's nearest word by cosine, ties to the smallest word id,
    and that cosine.

    Rows are scored against the unit *words* in blocks of ``_ASSIGN_ROWS``
    into one buffer, so the scores held at once grow with the vocabulary, not
    with the row count. Every block has ``_ASSIGN_ROWS`` rows (all of them, if
    fewer): the last one overlaps its neighbour rather than run short, so BLAS
    runs one kernel on every block. A short tail could take another (one row
    is a matrix-vector product) and round its scores apart from the full
    product's.
    """
    count = points.shape[0]
    ids = np.empty(count, dtype=np.int64)
    cosines = np.empty(count)
    rows = min(count, _ASSIGN_ROWS)
    scores = np.empty((rows, words.shape[0]))
    for lo in range(0, count, _ASSIGN_ROWS):
        lo = max(min(lo, count - _ASSIGN_ROWS), 0)
        np.matmul(points[lo:lo + rows], words.T, out=scores)
        best = np.argmax(scores, axis=1)
        ids[lo:lo + rows] = best
        cosines[lo:lo + rows] = np.take_along_axis(scores, best[:, None], axis=1)[:, 0]
    return ids, cosines


def assign_words(vocab: Vocabulary, raw: Dataset) -> Dataset:
    """Quantize every image of a raw dataset against *vocab*.

    Each descriptor becomes its nearest word by cosine, ties to the smallest
    word id; each output image keeps its id and carries its per-word counts
    (weights count/max pending tf-idf), as :func:`kmeans_quantize` returns.
    """
    points = _descriptors(raw, "word assignment")
    if points.shape[1] != vocab.dimension:
        raise DomainError(
            f"descriptor dimension {points.shape[1]} != vocabulary dimension {vocab.dimension}")
    return _count_images(raw.image_ids, raw.offsets, _nearest(points, vocab.unit_matrix)[0], vocab)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.RandomState) -> np.ndarray:
    """Distance-weighted seeding: each new centroid is drawn with probability
    proportional to (1 - best cosine so far)."""
    total = points.shape[0]
    chosen = [int(rng.randint(total))]
    taken = np.zeros(total, dtype=bool)
    taken[chosen[0]] = True
    best = points @ points[chosen[0]]
    for _ in range(1, k):
        dist = np.clip(1.0 - best, 0.0, None)
        dist[taken] = 0.0
        mass = dist.sum()
        nxt = int(rng.choice(total, p=dist / mass)) if mass > 0.0 else int(np.argmin(taken))
        chosen.append(nxt)
        taken[nxt] = True
        best = np.maximum(best, points @ points[nxt])
    return points[chosen].copy()


def _spherical_kmeans(points: np.ndarray, k: int, rng: np.random.RandomState):
    """Lloyd iterations on the sphere; returns (centroids, assignment, objective history).

    The objective (mean cosine of each point to its centroid) never
    decreases: assignment moves points to their best centroid, and the
    normalized mean maximizes within-cluster cosine mass. Empty clusters,
    and clusters whose mean is the zero vector, keep their previous centroid.
    """
    centroids = _kmeans_pp_init(points, k, rng)
    history, movement = [], np.inf
    while True:
        assignment, cosines = _nearest(points, centroids)
        history.append(float(cosines.mean()))
        if movement < _TOL or len(history) > _MAX_ITER:
            return centroids, assignment, history
        # ``bincount`` adds a column's entries into their clusters' bins from
        # 0.0 in point order, as ``np.add.at(sums, assignment, points)`` does
        # at several times its cost, and the vector-by-vector matmul is
        # ``np.linalg.norm``'s dot, so centroids keep their bits. An empty
        # cluster gets a zero mean. (``add.reduceat`` would sum pairwise.)
        sums = np.stack([np.bincount(assignment, weights=column, minlength=k)
                         for column in points.T], axis=1)
        means = sums / np.maximum(np.bincount(assignment, minlength=k), 1)[:, None]
        norms = np.sqrt((means[:, None, :] @ means[:, :, None])[:, 0, 0])
        moved = norms > 0.0
        previous, centroids = centroids, centroids.copy()
        centroids[moved] = means[moved] / norms[moved, None]
        movement = float(np.sqrt(((centroids - previous) ** 2).sum(axis=1)).max())


def kmeans_quantize(raw: Dataset, k: int, seed: int) -> tuple[Vocabulary, Dataset]:
    """Cluster a raw dataset's descriptors into ``k`` words and quantize every image.

    Deterministic given the seed. Clusters are relabeled by the order of
    their first assigned descriptor, so word ids do not depend on the random
    seeding path. Frequencies are total assignment counts; each output image
    keeps its id and carries its per-word counts (weights are count/max
    pending tf-idf).
    """
    k = int(_column(k, np.int64, "k", ()))
    if k < 1:
        raise DomainError(f"need k >= 1 words, got {k}")
    points = _descriptors(raw, "k-means")
    if points.shape[0] < k:
        raise DomainError(f"need at least {k} descriptors to build {k} words, got {points.shape[0]}")

    rng = np.random.RandomState(seed)
    centroids, assignment, _ = _spherical_kmeans(points, k, rng)

    # Relabel by first assignment; clusters nothing was assigned to go last.
    seen, first = np.unique(assignment, return_index=True)
    by_first = np.concatenate((seen[np.argsort(first)], np.setdiff1d(np.arange(k), seen)))
    relabel = np.empty(k, dtype=np.int64)
    relabel[by_first] = np.arange(k)

    centroids = unit_rows(centroids[by_first])
    assignment = relabel[assignment]
    frequencies = np.bincount(assignment, minlength=k).astype(np.int64)
    vocab = Vocabulary(vectors=centroids, frequencies=frequencies)

    return vocab, _count_images(raw.image_ids, raw.offsets, assignment, vocab)
