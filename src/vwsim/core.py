"""Core domain types and the image-level similarity score.

An image is a weighted bag of visual words. Matching one image against
another produces a :class:`MatchOutcome` (one best partner per query word,
above a threshold), and :func:`image_similarity` turns a completed outcome
into a score in ``[0, 1]``.

All types are immutable after construction; every function here is pure, so
any number of evaluations may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DomainError

__all__ = [
    "VisualWord",
    "ImageObject",
    "Vocabulary",
    "MatchOutcome",
    "as_vector",
    "unit_rows",
    "unit_vector",
    "check_threshold",
    "normalize_weights",
    "image_similarity",
]

# Norm tolerance for vectors that are stored as unit-length.
UNIT_NORM_TOL = 1e-9


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _column(values, dtype, what: str) -> np.ndarray:
    """Coerce *values* to a contiguous array, failing as a :class:`DomainError`."""
    try:
        return np.ascontiguousarray(values, dtype=dtype)
    except OverflowError as exc:
        raise DomainError(f"{what} must fit in {np.dtype(dtype).name}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be a rectangular numeric array") from exc


def as_vector(values) -> np.ndarray:
    """Coerce *values* to a read-only 1-D float64 vector, validating it."""
    try:
        vec = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a numeric vector: {exc}") from exc
    if vec.ndim != 1 or vec.size < 1:
        raise DomainError(f"feature vector must be 1-D and non-empty, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("feature vector has non-finite components")
    return _readonly(vec)


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Normalize every row of *matrix* to unit Euclidean length.

    This is the single normalization path used by every algorithm in the
    package. Keeping it unique matters: the per-row arithmetic is identical
    no matter how many rows are passed, so the same input bits always yield
    the same output bits, which is what makes the matching algorithms agree
    exactly.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    if not np.all(norms > 0.0):
        raise DomainError("zero-norm vector cannot be normalized")
    return matrix / norms[:, None]


def unit_vector(vec: np.ndarray) -> np.ndarray:
    """Unit-normalize a single vector through the shared row path."""
    vec = np.asarray(vec, dtype=np.float64)
    return unit_rows(vec[None, :])[0]


def check_threshold(mu0: float) -> float:
    """Validate a similarity threshold; must lie in ``[0, 1)``.

    A threshold of exactly 1 would reject identical words due to rounding,
    so it is excluded.
    """
    mu0 = float(mu0)
    if not (0.0 <= mu0 < 1.0) or math.isnan(mu0):
        raise DomainError(f"similarity threshold must be in [0, 1), got {mu0!r}")
    return mu0


@dataclass(frozen=True)
class VisualWord:
    """One weighted visual word of an image.

    ``word_id`` is the vocabulary identifier when the word comes from a
    codebook, or ``None`` for a raw (inline-vector) word. When an id is
    present the vector must be the vocabulary entry's vector bit-for-bit;
    materializing words through :class:`Vocabulary` or the loaders keeps
    that true automatically.
    """

    word_id: Optional[int]
    vector: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "vector", as_vector(self.vector))
        w = float(self.weight)
        if not (0.0 < w <= 1.0) or math.isnan(w):
            raise DomainError(f"word weight must be in (0, 1], got {w!r}")
        object.__setattr__(self, "weight", w)
        if self.word_id is not None:
            wid = int(self.word_id)
            if wid < 0:
                raise DomainError(f"word id must be non-negative, got {wid}")
            object.__setattr__(self, "word_id", wid)


@dataclass(frozen=True)
class Vocabulary:
    """A codebook of ``K`` visual words.

    Row ``i`` of ``vectors`` is the unit-length embedding of word id ``i``;
    ``frequencies[i]`` is its corpus frequency (used to lay out the offline
    index, see :mod:`vwsim.psmi`).
    """

    vectors: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        vecs = _column(self.vectors, np.float64, "vocabulary vectors")
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise DomainError(f"vocabulary vectors must be a non-empty 2-D array, got {vecs.shape}")
        finite = np.isfinite(vecs).all(axis=1)
        if not finite.all():
            raise DomainError(f"vocabulary word {int(finite.argmin())} has non-finite components")
        off_unit = np.abs(np.sqrt(np.einsum("ij,ij->i", vecs, vecs)) - 1.0) > UNIT_NORM_TOL
        if off_unit.any():
            raise DomainError(f"vocabulary word {int(off_unit.argmax())} is not unit length")
        freqs = _column(self.frequencies, np.int64, "frequencies")
        if freqs.shape != (vecs.shape[0],):
            raise ContractError("frequencies must have one entry per vocabulary word")
        negative = freqs < 0
        if negative.any():
            raise DomainError(f"vocabulary word {int(negative.argmax())} has a negative frequency")
        object.__setattr__(self, "vectors", _readonly(vecs))
        object.__setattr__(self, "frequencies", _readonly(freqs))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def unit_matrix(self) -> np.ndarray:
        """Rows renormalized through the shared path (bit-compatible with matching)."""
        return _readonly(unit_rows(self.vectors))

    @cached_property
    def checksum(self) -> int:
        """64-bit FNV-1a over the canonical serialized entries."""
        h = 0xCBF29CE484222325
        prime = 0x100000001B3
        mask = 0xFFFFFFFFFFFFFFFF
        payload = bytearray()
        payload += self.size.to_bytes(4, "little")
        payload += self.dimension.to_bytes(4, "little")
        for wid in range(self.size):
            payload += wid.to_bytes(4, "little")
            payload += int(self.frequencies[wid]).to_bytes(8, "little")
            payload += self.vectors[wid].tobytes()
        for byte in payload:
            h = ((h ^ byte) * prime) & mask
        return h

    def word(self, word_id: int, weight: float = 1.0) -> VisualWord:
        """Materialize a word of this vocabulary as a :class:`VisualWord`."""
        wid = int(word_id)
        if not (0 <= wid < self.size):
            raise DomainError(f"word id {wid} outside vocabulary of size {self.size}")
        return VisualWord(word_id=wid, vector=self.vectors[wid], weight=weight)


@dataclass(frozen=True)
class ImageObject:
    """An image identifier plus an ordered sequence of weighted visual words.

    An image has at least one word. This constructor is the one place that
    is checked, so no matcher or scorer re-checks it.

    Stored columnar for efficiency: ``weights`` always, plus either an
    explicit ``(m, d)`` ``vectors`` matrix (raw words) or ``word_ids``
    resolved against ``vocab`` (codebook words, vectors materialized on
    demand so they stay bit-identical to the vocabulary rows).
    """

    image_id: str
    weights: np.ndarray
    word_ids: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    vocab: Optional[Vocabulary] = None
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        weights = _column(self.weights, np.float64, "weights")
        if weights.ndim != 1:
            raise ContractError("weights must be a 1-D array")
        m = weights.size
        if m < 1:
            raise DomainError(f"image {self.image_id!r} has no words")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise DomainError(f"image {self.image_id!r}: weights must be in (0, 1]")
        object.__setattr__(self, "weights", _readonly(weights))

        ids = self.word_ids
        if ids is not None:
            ids = _column(ids, np.int64, "word ids")
            if ids.shape != (m,):
                raise ContractError("word_ids must align with weights")
            if np.any(ids < 0):
                raise DomainError("word ids must be non-negative")
            object.__setattr__(self, "word_ids", _readonly(ids))

        if self.vectors is not None:
            if self.vocab is not None:
                raise ContractError("pass either explicit vectors or a vocabulary, not both")
            vecs = _column(self.vectors, np.float64, "image vectors")
            if vecs.ndim != 2 or vecs.shape[0] != m:
                raise ContractError("vectors must be an (m, d) matrix aligned with weights")
            if not np.all(np.isfinite(vecs)):
                raise DomainError("image vectors have non-finite components")
            object.__setattr__(self, "vectors", _readonly(vecs))
        else:
            if self.vocab is None:
                raise ContractError("image needs explicit vectors or a vocabulary to resolve ids")
            if ids is None:
                raise ContractError("vocabulary-backed image needs word_ids")
            if int(ids.max()) >= self.vocab.size:
                raise DomainError(f"image {self.image_id!r}: word id outside vocabulary")

        if self.counts is not None:
            counts = _column(self.counts, np.int64, "occurrence counts")
            if counts.shape != (m,):
                raise ContractError("counts must align with weights")
            if np.any(counts < 1):
                raise DomainError("occurrence counts must be >= 1")
            object.__setattr__(self, "counts", _readonly(counts))

    @classmethod
    def from_words(cls, image_id: str, words: Sequence[VisualWord],
                   counts: Optional[Sequence[int]] = None) -> "ImageObject":
        """Build an image from :class:`VisualWord` objects (stacks their vectors)."""
        words = list(words)
        if not words:
            raise DomainError("cannot build an image from zero words")
        dims = {w.vector.size for w in words}
        if len(dims) != 1:
            raise ContractError("all words of an image must share one dimension")
        vectors = np.stack([w.vector for w in words])
        weights = np.array([w.weight for w in words], dtype=np.float64)
        ids = None
        if all(w.word_id is not None for w in words):
            ids = np.array([w.word_id for w in words], dtype=np.int64)
        return cls(image_id=image_id, weights=weights, word_ids=ids, vectors=vectors,
                   counts=None if counts is None else np.asarray(counts, dtype=np.int64))

    @property
    def word_count(self) -> int:
        return self.weights.size

    @property
    def dimension(self) -> int:
        if self.vectors is not None:
            return self.vectors.shape[1]
        return self.vocab.dimension

    def vector_matrix(self) -> np.ndarray:
        """The ``(m, d)`` matrix of word vectors (gathered fresh when vocab-backed)."""
        if self.vectors is not None:
            return self.vectors
        return self.vocab.vectors[self.word_ids]

    @cached_property
    def words(self) -> tuple[VisualWord, ...]:
        mat = self.vector_matrix()
        ids = self.word_ids
        return tuple(
            VisualWord(word_id=None if ids is None else int(ids[i]),
                       vector=mat[i], weight=float(self.weights[i]))
            for i in range(self.word_count)
        )

    def with_weights(self, weights: np.ndarray) -> "ImageObject":
        return ImageObject(image_id=self.image_id, weights=np.asarray(weights, dtype=np.float64),
                           word_ids=self.word_ids, vectors=self.vectors, vocab=self.vocab,
                           counts=self.counts)


@dataclass(frozen=True, eq=False)
class MatchOutcome:
    """Result of directionally matching image A against image B.

    ``mu[i]`` is the retained similarity of A's word ``i`` (0 when it found
    no partner above the threshold). The pair arrays list, in ascending
    ``a_index`` order, each matched word with its chosen B-side index and
    similarity. One B word may partner several A words. ``matched_b_ids``
    is derived from ``b_indices``; passing it is allowed, but a value that
    disagrees is rejected.

    The constructor is the one place the whole invariant is checked, so
    every outcome, however it was built, is consistent.
    """

    a_indices: np.ndarray
    b_indices: np.ndarray
    lambdas: np.ndarray
    mu: np.ndarray
    matched_b_ids: Optional[frozenset[int]] = None

    def __post_init__(self):
        a_idx = np.ascontiguousarray(self.a_indices, dtype=np.int64)
        b_idx = np.ascontiguousarray(self.b_indices, dtype=np.int64)
        lam = np.ascontiguousarray(self.lambdas, dtype=np.float64)
        mu = np.ascontiguousarray(self.mu, dtype=np.float64)
        if not (a_idx.shape == b_idx.shape == lam.shape) or a_idx.ndim != 1 or mu.ndim != 1:
            raise ContractError("pair arrays and mu must be aligned 1-D arrays")
        if a_idx.size:
            if not (lam.min() > 0.0 and lam.max() <= 1.0):
                raise DomainError("pair similarities must lie in (0, 1]")
            if np.any(np.diff(a_idx) <= 0):
                raise ContractError("pairs must be ordered by strictly ascending a_index")
            if a_idx[0] < 0 or a_idx[-1] >= mu.size:
                raise ContractError("pair a_index out of range")
            if b_idx.min() < 0:
                raise ContractError("pair b_index must be non-negative")
            if not np.array_equal(mu[a_idx], lam):
                raise ContractError("mu must hold each pair's similarity at its a_index")
        if np.count_nonzero(mu) != a_idx.size:
            raise ContractError("mu must be 0 for every word without a pair")
        matched = frozenset(b_idx.tolist())
        if self.matched_b_ids is not None and frozenset(self.matched_b_ids) != matched:
            raise ContractError("matched_b_ids must be the set of b_indices")
        for name, arr in (("a_indices", a_idx), ("b_indices", b_idx), ("lambdas", lam), ("mu", mu)):
            object.__setattr__(self, name, _readonly(arr))
        object.__setattr__(self, "matched_b_ids", matched)

    @classmethod
    def from_arrays(cls, mu: np.ndarray, partners: np.ndarray) -> "MatchOutcome":
        """Canonical assembly from per-A-word results.

        ``partners[i]`` is the chosen B index for word ``i`` or ``-1`` when
        unmatched. Every matcher funnels through this constructor so equal
        inputs assemble into bit-identical outcomes.
        """
        mu = np.ascontiguousarray(mu, dtype=np.float64)
        partners = np.ascontiguousarray(partners, dtype=np.int64)
        if mu.shape != partners.shape or mu.ndim != 1:
            raise ContractError("mu and partners must be aligned 1-D arrays")
        a_idx = np.flatnonzero(partners >= 0)
        return cls(a_indices=a_idx, b_indices=partners[a_idx], lambdas=mu[a_idx], mu=mu)

    @property
    def pair_count(self) -> int:
        return self.a_indices.size

    @property
    def pairs(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(s))
                for a, b, s in zip(self.a_indices, self.b_indices, self.lambdas)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatchOutcome):
            return NotImplemented
        return (np.array_equal(self.a_indices, other.a_indices)
                and np.array_equal(self.b_indices, other.b_indices)
                and np.array_equal(self.lambdas, other.lambdas)
                and np.array_equal(self.mu, other.mu))


def normalize_weights(raw: Sequence[float]) -> np.ndarray:
    """Scale positive raw weights so the maximum is exactly 1.

    This is the normalization contract that keeps image weights in
    ``(0, 1]``, which in turn is what bounds :func:`image_similarity` by 1.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DomainError("raw weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError("raw weights must be finite and positive")
    return arr / arr.max()


def image_similarity(a: ImageObject, b: ImageObject, match: MatchOutcome) -> float:
    """Score two images from a completed directional match (A against B).

    The score is the pair-similarity mass, normalized by the total weight
    mass of both images and penalized by the weight left unmatched on either
    side. It lies in ``[0, 1]``; it is exactly 0 when nothing matched. Note
    the measure is directional and deliberately not symmetric, and an image
    scored against itself reaches 1 only in the single-word case.
    """
    # Weight validity (finite, in (0, 1]) and a non-empty word list are
    # enforced when an ImageObject is constructed, so they are not
    # re-checked on this hot path.
    aw = a.weights
    bw = b.weights
    if match.mu.size != a.word_count:
        raise ContractError("match does not cover image A (mu length mismatch)")
    if match.pair_count == 0:
        return 0.0
    if int(match.b_indices.max()) >= b.word_count:
        raise ContractError("match references B-side indices out of range")

    wa = aw[match.a_indices]
    wb = bw[match.b_indices]
    lam = match.lambdas
    numerator = float(np.sum(lam * wa * wb))

    unmatched_a = float(aw[match.mu == 0.0].sum())
    b_mask = np.ones(b.word_count, dtype=bool)
    b_mask[match.b_indices] = False
    unmatched_b = float(bw[b_mask].sum())

    mass = math.sqrt(float(aw.sum()) * float(bw.sum()))
    penalty = math.sqrt(float(np.sum(lam * lam * wa * wb)) + unmatched_a * unmatched_b)
    return numerator / (mass * penalty)
