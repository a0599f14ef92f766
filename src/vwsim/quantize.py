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

from .core import ImageObject, Vocabulary, normalize_weights, unit_rows
from .errors import DomainError
from .io import Dataset

__all__ = ["tfidf_weights", "assign_words", "kmeans_quantize"]


def tfidf_weights(dataset: Dataset) -> Dataset:
    """Replace every image's weights with max-normalized tf-idf.

    Per image, a word's raw weight is ``(count / max_count) * ln(1 + N / df)``
    with ``N`` the corpus size and ``df`` the number of images containing the
    word; weights are then scaled so each image's maximum is exactly 1.
    Repeated word ids within an image are aggregated into counts first.
    Requires id-carrying images with occurrence counts.
    """
    n_images = len(dataset.images)
    aggregated = []
    for img in dataset.images:
        if img.word_ids is None:
            raise DomainError(f"image {img.image_id!r} has no word ids; tf-idf needs word identity")
        if img.counts is None:
            raise DomainError(f"image {img.image_id!r} has no occurrence counts")
        ids = img.word_ids
        counts = img.counts
        keep = np.arange(ids.size)
        if np.unique(ids).size != ids.size:
            # Repeated ids collapse into one word; same-id words carry the
            # same vector, so the first occurrence stands for all of them.
            uniq, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
            summed = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(summed, inverse, counts)
            ids, counts, keep = uniq, summed, first
        aggregated.append((img, ids, counts, keep))

    df: dict[int, int] = {}
    for _, ids, _, _ in aggregated:
        for wid in ids.tolist():
            df[wid] = df.get(wid, 0) + 1

    images = []
    for img, ids, counts, keep in aggregated:
        idf = np.array([math.log(1.0 + n_images / df[w]) for w in ids.tolist()])
        raw = (counts / counts.max()) * idf
        weights = raw / raw.max()
        vectors = None if img.vectors is None else img.vectors[keep]
        images.append(ImageObject(image_id=img.image_id, weights=weights, word_ids=ids,
                                  vectors=vectors, vocab=img.vocab, counts=counts))
    return Dataset(images=tuple(images), vocab=dataset.vocab)


def _count_images(image_ids: Sequence[str], id_sets: Sequence[np.ndarray],
                  vocab: Vocabulary) -> Dataset:
    """One image per word-id occurrence list: per-word counts, weights count/max."""
    images = []
    for name, ids in zip(image_ids, id_sets):
        uniq, counts = np.unique(ids, return_counts=True)
        images.append(ImageObject(image_id=name, weights=normalize_weights(counts),
                                  word_ids=uniq, vocab=vocab, counts=counts))
    return Dataset(images=tuple(images), vocab=vocab)


def assign_words(vocab: Vocabulary, features: np.ndarray) -> np.ndarray:
    """Nearest vocabulary word (by cosine) per descriptor row; ties take the
    smallest word id."""
    points = unit_rows(np.asarray(features, dtype=np.float64))
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
    best = points @ points[chosen[0]]
    for _ in range(1, k):
        dist = np.clip(1.0 - best, 0.0, None)
        dist[chosen] = 0.0
        mass = dist.sum()
        if mass > 0.0:
            nxt = int(rng.choice(total, p=dist / mass))
        else:
            remaining = sorted(set(range(total)) - set(chosen))
            nxt = remaining[0]
        chosen.append(nxt)
        best = np.maximum(best, points @ points[nxt])
    return points[chosen].copy()


def _spherical_kmeans(points: np.ndarray, k: int, rng: np.random.RandomState,
                      max_iter: int = 100, tol: float = 1e-6):
    """Lloyd iterations on the sphere; returns (centroids, assignment, objective history).

    The objective (mean cosine of each point to its centroid) never
    decreases: assignment moves points to their best centroid, and the
    normalized mean maximizes within-cluster cosine mass. Empty clusters
    keep their previous centroid.
    """
    centroids = _kmeans_pp_init(points, k, rng)
    history = []
    assignment = None
    for _ in range(max_iter):
        scores = points @ centroids.T
        assignment = np.argmax(scores, axis=1)
        history.append(float(scores[np.arange(points.shape[0]), assignment].mean()))
        new_centroids = centroids.copy()
        for c in range(k):
            members = points[assignment == c]
            if members.shape[0] == 0:
                continue
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm > 0.0:
                new_centroids[c] = mean / norm
        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break
    scores = points @ centroids.T
    assignment = np.argmax(scores, axis=1)
    history.append(float(scores[np.arange(points.shape[0]), assignment].mean()))
    return centroids, assignment, history


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
    mats = [np.asarray(f, dtype=np.float64) for f in feature_sets]
    if not mats or any(m.ndim != 2 or m.shape[0] < 1 for m in mats):
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
    order = np.full(k, points.shape[0] + np.arange(k), dtype=np.int64)
    seen, first = np.unique(assignment, return_index=True)
    order[seen] = first
    relabel = np.empty(k, dtype=np.int64)
    relabel[np.argsort(order, kind="stable")] = np.arange(k)

    centroids = unit_rows(centroids[np.argsort(order, kind="stable")])
    assignment = relabel[assignment]
    frequencies = np.bincount(assignment, minlength=k).astype(np.int64)
    vocab = Vocabulary(vectors=centroids, frequencies=frequencies)

    id_sets = np.split(assignment, np.cumsum([m.shape[0] for m in mats])[:-1])
    return vocab, _count_images(image_ids, id_sets, vocab)
