"""Weighting and codebook construction.

``tfidf_weights`` turns per-word occurrence counts into weights in
``(0, 1]``. ``kmeans_quantize`` builds a vocabulary from raw descriptor
sets by spherical k-means (unit centroids, cosine assignment) and quantizes
the inputs against it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .core import Vocabulary, _column, normalize_weights, unit_rows
from .errors import DomainError
from .io import Dataset

__all__ = ["tfidf_weights", "assign_words", "kmeans_quantize"]

_MAX_ITER = 100  # Lloyd rounds at most,
_TOL = 1e-6  # or until no centroid moves this far


def tfidf_weights(dataset: Dataset) -> Dataset:
    """Replace every image's weights with max-normalized tf-idf.

    Per image, a word's raw weight is ``(count / max_count) * ln(1 + N / df)``
    with ``N`` the corpus size and ``df`` the number of images containing the
    word; weights are then scaled so each image's maximum is exactly 1.
    Repeated word ids within an image are aggregated into counts first.
    Requires vocabulary-backed images with occurrence counts.
    """
    if dataset.vocab is None:
        raise DomainError("the dataset's images have no word ids; tf-idf needs word identity")
    if dataset.counts is None:
        raise DomainError("the dataset's images have no occurrence counts")
    bounds = dataset.offsets.tolist()
    aggregated = []
    for lo, hi in zip(bounds, bounds[1:]):
        ids, counts = dataset.word_ids[lo:hi], dataset.counts[lo:hi]
        if np.unique(ids).size != ids.size:
            ids, inverse = np.unique(ids, return_inverse=True)
            counts = np.zeros(ids.size, dtype=np.int64)
            np.add.at(counts, inverse, dataset.counts[lo:hi])
        aggregated.append((ids, counts))
    ids, counts = (np.concatenate(column) for column in zip(*aggregated))

    # idf by ``math.log`` (``np.log`` is an ulp off on some arguments), once
    # per distinct document frequency, gathered back to each occurrence.
    _, word_of, df = np.unique(ids, return_inverse=True, return_counts=True)
    levels, level_of = np.unique(df[word_of], return_inverse=True)
    idf = np.array([math.log(1.0 + len(dataset) / v) for v in levels.tolist()])[level_of]
    offsets = np.cumsum([0] + [image_ids.size for image_ids, _ in aggregated])

    weights = []
    for (_, image_counts), lo, hi in zip(aggregated, offsets, offsets[1:]):
        raw = (image_counts / image_counts.max()) * idf[lo:hi]
        weights.append(raw / raw.max())
    return Dataset(dataset.image_ids, offsets, np.concatenate(weights), word_ids=ids, counts=counts,
                   vocab=dataset.vocab)


def _count_images(image_ids: Sequence[str], id_sets: Sequence[np.ndarray],
                  vocab: Vocabulary) -> Dataset:
    """One image per word-id occurrence list: per-word counts, weights count/max."""
    ids, counts = zip(*(np.unique(id_set, return_counts=True) for id_set in id_sets))
    return Dataset(image_ids, np.cumsum([0] + [image_counts.size for image_counts in counts]),
                   np.concatenate([normalize_weights(image_counts) for image_counts in counts]),
                   word_ids=np.concatenate(ids), counts=np.concatenate(counts), vocab=vocab)


def assign_words(vocab: Vocabulary, features: np.ndarray) -> np.ndarray:
    """Nearest vocabulary word (by cosine) per descriptor row; ties take the
    smallest word id."""
    points = unit_rows(_column(features, np.float64, "feature set", (None, None)))
    if points.shape[1] != vocab.dimension:
        raise DomainError(
            f"descriptor dimension {points.shape[1]} != vocabulary dimension {vocab.dimension}")
    scores = points @ vocab.unit_matrix.T
    return np.argmax(scores, axis=1).astype(np.int64)


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
        scores = points @ centroids.T
        assignment = np.argmax(scores, axis=1)
        history.append(float(scores[np.arange(points.shape[0]), assignment].mean()))
        if movement < _TOL or len(history) > _MAX_ITER:
            return centroids, assignment, history
        # ``add.at`` sums each cluster's rows from 0.0 in point order and the
        # vector-by-vector matmul is ``np.linalg.norm``'s dot, so centroids
        # keep their bits. An empty cluster gets a zero mean.
        sums = np.zeros(centroids.shape)
        np.add.at(sums, assignment, points)
        means = sums / np.maximum(np.bincount(assignment, minlength=k), 1)[:, None]
        norms = np.sqrt((means[:, None, :] @ means[:, :, None])[:, 0, 0])
        moved = norms > 0.0
        previous, centroids = centroids, centroids.copy()
        centroids[moved] = means[moved] / norms[moved, None]
        movement = float(np.sqrt(((centroids - previous) ** 2).sum(axis=1)).max())


def kmeans_quantize(feature_sets: Sequence[np.ndarray], k: int, seed: int,
                    image_ids: Optional[Sequence[str]] = None) -> tuple[Vocabulary, Dataset]:
    """Cluster all descriptors into ``k`` words and quantize every input set.

    Deterministic given the seed. Clusters are relabeled by the order of
    their first assigned descriptor, so word ids do not depend on the random
    seeding path. Frequencies are total assignment counts; each output image
    carries its per-word counts (weights are count/max pending tf-idf).
    """
    if k < 1:
        raise DomainError(f"need k >= 1 words, got {k}")
    mats = [_column(f, np.float64, "feature set", (None, None)) for f in feature_sets]
    if not mats or any(m.shape[0] < 1 for m in mats):
        raise DomainError("feature sets must be non-empty (n_i, d) arrays")
    dims = {m.shape[1] for m in mats}
    if len(dims) != 1:
        raise DomainError("all feature sets must share one dimension")
    points = unit_rows(np.concatenate(mats, axis=0))
    if points.shape[0] < k:
        raise DomainError(f"need at least {k} descriptors to build {k} words, got {points.shape[0]}")
    if image_ids is None:
        image_ids = [f"img{i:06d}" for i in range(len(mats))]
    elif len(image_ids) != len(mats):
        raise DomainError("image_ids must align with feature_sets")

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

    id_sets = np.split(assignment, np.cumsum([m.shape[0] for m in mats])[:-1])
    return vocab, _count_images(image_ids, id_sets, vocab)
