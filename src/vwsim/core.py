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


# Per column dtype: the rule's wording, the array kinds taken as is, the element types allowed.
_ELEMENTS = {
    np.int64: ("integers, not float, bool or string values", "i", (int, np.integer)),
    np.float64: ("numbers, not bool or string values", "iuf", (int, float, np.integer, np.floating)),
}


def _column(values, dtype, what: str) -> np.ndarray:
    """*values* as a fresh, read-only, C-contiguous array, failing as a :class:`DomainError`.

    This is the one way an array enters a vwsim type. The copy is the type's
    own, so freezing it never freezes the caller's array. An integer column
    refuses float (``1.0`` too), bool and string values, and values past its
    range; a float column refuses bool and string values. Neither truncates,
    parses or wraps a value, and the error names the first one refused. A
    flat list of plain ints (and floats) is taken without an object copy.
    """
    noun, kinds, allowed = _ELEMENTS[dtype]
    refused = ()
    try:
        plain = isinstance(values, (list, tuple)) and set(map(type, values)).issubset(allowed)
        if not (plain or isinstance(values, np.ndarray) and values.dtype.kind in kinds):
            # As Python objects, elements keep their own types (not float for ints past
            # int64) and refuse to wrap; a ragged input's lists fail as not rectangular.
            values = np.array(values, dtype=object, ndmin=1)
            refused = {t for t in set(map(type, values.flat))
                       if t is bool or not issubclass(t, (*allowed, list, tuple, np.ndarray))}
        if not refused:
            return _readonly(np.array(values, dtype=dtype, order="C", ndmin=1))
    except OverflowError as exc:
        raise DomainError(f"{what} must fit in {np.dtype(dtype).name}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be a rectangular numeric array") from exc
    i = next(i for i, v in enumerate(values.flat) if type(v) in refused)
    at = ", ".join(map(str, np.unravel_index(i, values.shape)))
    raise DomainError(f"{what} must be {noun}; {what}[{at}] is {values.flat[i]!r}")


def _word_id(value) -> int:
    """A scalar word id, under the integer rule of :func:`_column`."""
    return int(_column(np.reshape(value, 1), np.int64, "word id")[0])


def _squared_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    """Squared row norms, refusing any that is not finite and positive.

    This is the one test of a row that can be normalized: a zero, non-finite,
    overflowing or underflowing row would otherwise silently match nothing.
    """
    sq = np.einsum("ij,ij->i", matrix, matrix)
    if not np.all((sq > 0.0) & (sq < np.inf)):
        raise DomainError(f"{what} has a zero vector, or one whose squared norm is 0 or non-finite")
    return sq


def as_vector(values) -> np.ndarray:
    """Coerce *values* to a read-only 1-D float64 vector that can be normalized."""
    vec = _column(values, np.float64, "feature vector")
    if np.ndim(values) != 1 or vec.size < 1:
        raise DomainError(f"feature vector must be 1-D and non-empty, got shape {np.shape(values)}")
    _squared_norms(vec[None], "input")
    return vec


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Normalize every row of *matrix* to unit Euclidean length.

    This is the single normalization path used by every algorithm in the
    package. Keeping it unique matters: the per-row arithmetic is identical
    no matter how many rows are passed, so the same input bits always yield
    the same output bits, which is what makes the matching algorithms agree
    exactly.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ContractError(f"expected a 2-D matrix of rows, got shape {matrix.shape}")
    return matrix / np.sqrt(_squared_norms(matrix, "input"))[:, None]


def unit_vector(vec: np.ndarray) -> np.ndarray:
    """Unit-normalize a single vector through the shared row path."""
    return unit_rows(np.asarray(vec, dtype=np.float64)[None, :])[0]


def check_threshold(mu0: float) -> float:
    """Validate a similarity threshold; must lie in ``[0, 1)``.

    A threshold of exactly 1 would reject identical words due to rounding,
    so it is excluded. Strings, bytes and bools are refused, not parsed or
    read as 0 and 1.
    """
    if isinstance(mu0, (str, bytes, bool, np.bool_)):
        raise DomainError(f"similarity threshold must be a number, got {mu0!r}")
    mu0 = float(mu0)
    if not (0.0 <= mu0 < 1.0) or math.isnan(mu0):
        raise DomainError(f"similarity threshold must be in [0, 1), got {mu0!r}")
    return mu0


@dataclass(frozen=True, eq=False)
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
        w = float(_column(np.reshape(self.weight, 1), np.float64, "word weight")[0])
        if not (0.0 < w <= 1.0) or math.isnan(w):
            raise DomainError(f"word weight must be in (0, 1], got {w!r}")
        object.__setattr__(self, "weight", w)
        if self.word_id is not None:
            wid = _word_id(self.word_id)
            if wid < 0:
                raise DomainError(f"word id must be non-negative, got {wid}")
            object.__setattr__(self, "word_id", wid)


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "frequencies", freqs)

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
        records = np.rec.fromarrays(
            [np.arange(self.size), self.frequencies, self.vectors],
            dtype=[("id", "<u4"), ("frequency", "<u8"), ("vector", "<f8", (self.dimension,))])
        payload = np.array([self.size, self.dimension], dtype="<u4").tobytes() + records.tobytes()
        for byte in payload:
            h = ((h ^ byte) * prime) & mask
        return h

    def word(self, word_id: int, weight: float = 1.0) -> VisualWord:
        """Materialize a word of this vocabulary as a :class:`VisualWord`."""
        wid = _word_id(word_id)
        if not (0 <= wid < self.size):
            raise DomainError(f"word id {wid} outside vocabulary of size {self.size}")
        return VisualWord(word_id=wid, vector=self.vectors[wid], weight=weight)


@dataclass(frozen=True, eq=False)
class ImageObject:
    """An image identifier plus an ordered sequence of weighted visual words.

    An image has a non-empty string id and at least one word, and its inline
    vectors can be normalized. This constructor is the one place these are
    checked, so no loader, matcher or scorer re-checks them.

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
        if not isinstance(self.image_id, str) or not self.image_id:
            raise DomainError(f"image_id must be a non-empty string, got {self.image_id!r}")
        weights = _column(self.weights, np.float64, "weights")
        if weights.ndim != 1:
            raise ContractError("weights must be a 1-D array")
        m = weights.size
        if m < 1:
            raise DomainError(f"image {self.image_id!r} has no words")
        if not ((weights > 0.0) & (weights <= 1.0)).all():
            raise DomainError(f"image {self.image_id!r}: weights must be in (0, 1]")
        object.__setattr__(self, "weights", weights)

        ids = self.word_ids
        if ids is not None:
            ids = _column(ids, np.int64, "word ids")
            if ids.shape != (m,):
                raise ContractError("word_ids must align with weights")
            if (ids < 0).any():
                raise DomainError("word ids must be non-negative")
            object.__setattr__(self, "word_ids", ids)

        if self.vectors is not None:
            if self.vocab is not None:
                raise ContractError("pass either explicit vectors or a vocabulary, not both")
            vecs = _column(self.vectors, np.float64, "image vectors")
            if vecs.ndim != 2 or vecs.shape[0] != m:
                raise ContractError("vectors must be an (m, d) matrix aligned with weights")
            _squared_norms(vecs, f"image {self.image_id!r}")
            object.__setattr__(self, "vectors", vecs)
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
            if (counts < 1).any():
                raise DomainError("occurrence counts must be >= 1")
            object.__setattr__(self, "counts", counts)

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
        ids = [w.word_id for w in words] if all(w.word_id is not None for w in words) else None
        return cls(image_id=image_id, weights=weights, word_ids=ids, vectors=vectors,
                   counts=counts)

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
        return ImageObject(image_id=self.image_id, weights=weights, word_ids=self.word_ids,
                           vectors=self.vectors, vocab=self.vocab, counts=self.counts)


@dataclass(frozen=True, eq=False)
class MatchOutcome:
    """Result of directionally matching image A against image B.

    One entry per A word: ``partners[i]`` is the B position chosen for A's
    word ``i`` and ``mu[i]`` its similarity, or ``-1`` and ``0`` when the
    word found no partner above the threshold. One B word may partner
    several A words.

    The constructor checks the one invariant these arrays carry: a word has
    a partner exactly when its ``mu`` is positive. The pair views
    (``a_indices``, ``b_indices``, ``lambdas``, ``pairs``, ``matched_b_ids``)
    are derived from the two arrays, so they cannot disagree with them.
    """

    mu: np.ndarray
    partners: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _column(self.mu, np.float64, "mu"))
        object.__setattr__(self, "partners", _column(self.partners, np.int64, "partners"))
        mu, partners = self.mu, self.partners
        if mu.shape != partners.shape or mu.ndim != 1:
            raise ContractError("mu and partners must be aligned 1-D arrays")
        if not ((mu >= 0.0) & (mu <= 1.0)).all():
            raise DomainError("similarities must lie in [0, 1]")
        if not (partners >= -1).all():
            raise ContractError("a partner is a B position, or -1 for none")
        if not ((mu > 0.0) == (partners >= 0)).all():
            raise ContractError("a word has a partner exactly when its mu is > 0")

    @classmethod
    def from_arrays(cls, mu: np.ndarray, partners: np.ndarray) -> "MatchOutcome":
        """Same as ``MatchOutcome(mu, partners)``."""
        return cls(mu, partners)

    @cached_property
    def a_indices(self) -> np.ndarray:
        """Matched A positions, ascending."""
        return _readonly(np.flatnonzero(self.partners >= 0))

    @property
    def b_indices(self) -> np.ndarray:
        return _readonly(self.partners[self.a_indices])

    @property
    def lambdas(self) -> np.ndarray:
        return _readonly(self.mu[self.a_indices])

    @property
    def pair_count(self) -> int:
        return self.a_indices.size

    @property
    def pairs(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(s))
                for a, b, s in zip(self.a_indices, self.b_indices, self.lambdas)]

    @property
    def matched_b_ids(self) -> frozenset[int]:
        return frozenset(self.b_indices.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatchOutcome):
            return NotImplemented
        return np.array_equal(self.mu, other.mu) and np.array_equal(self.partners, other.partners)


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


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive segments of *values* with the given *lengths*.

    Every score sum goes through ``np.add.reduceat``, whose sum of a segment
    depends on that segment's values alone, so summing one image pair and
    summing a whole corpus in one call agree bit for bit; ``np.sum`` rounds
    differently from 8 terms up. ``reduceat`` returns ``values[i]`` for an
    empty segment, so only non-empty segments are reduced and the empty ones
    are set to 0.0.
    """
    sums = np.zeros(lengths.size)
    nonempty = lengths > 0
    if values.size:
        sums[nonempty] = np.add.reduceat(values, (np.cumsum(lengths) - lengths)[nonempty])
    return sums


def _sum(values: np.ndarray) -> float:
    """:func:`_segment_sums` of one segment."""
    return float(np.add.reduceat(values, [0])[0]) if values.size else 0.0


def _score(numerator, squared, unmatched_a, unmatched_b, total_a, total_b):
    """The score from its sums, for one image pair (floats) or per image (arrays)."""
    denominator = np.sqrt(total_a * total_b) * np.sqrt(squared + unmatched_a * unmatched_b)
    if not (denominator > 0.0).all():  # a product of tiny weights or similarities underflowed
        raise DomainError("the weights or similarities are too small to score: the denominator is 0")
    return numerator / denominator


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
    hit = match.partners >= 0
    b_idx = match.partners[hit]
    if not b_idx.size:
        return 0.0
    if int(b_idx.max()) >= b.word_count:
        raise ContractError("match references B-side indices out of range")

    lam, wa, wb = match.mu[hit], aw[hit], bw[b_idx]
    b_mask = np.ones(b.word_count, dtype=bool)
    b_mask[b_idx] = False
    return float(_score(_sum(lam * wa * wb), _sum(lam * lam * wa * wb), _sum(aw[~hit]),
                        _sum(bw[b_mask]), _sum(aw), _sum(bw)))
