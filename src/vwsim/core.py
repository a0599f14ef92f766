"""Core domain types and the image-level similarity score.

An image is a weighted bag of visual words. Matching one image against
another produces a :class:`MatchOutcome` (one best partner per query word,
above a threshold), and :func:`image_similarity` turns a completed outcome
into a score in ``[0, 1]``. Each matcher yields its pairs as
``(a_idx, b_idx, lam)``, matched A positions ascending: :func:`_outcome`
builds the validated :class:`MatchOutcome` of the ``*_match`` functions
from them, and :func:`_pair_similarity` scores them. The ``*_similarity``
functions hand their pairs to the scorer directly, with no outcome in
between, and :func:`image_similarity` is the entry for an outcome a caller
holds.

All types are immutable after construction; every function here is pure, so
any number of evaluations may run concurrently.
"""

from __future__ import annotations

import math
from collections import Counter
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


def _column(values, dtype, what: str, shape: tuple) -> np.ndarray:
    """*values* as a fresh, read-only, C-contiguous array of the given *shape*.

    This is the one way an array enters a vwsim type, and the one place its
    dtype and shape are checked; the copy is the type's own. A wrong value
    is a :class:`DomainError`: an integer column refuses float (``1.0``
    too), bool and string values, and values past its range; a float column
    refuses bool and string values. No value is truncated, parsed or
    wrapped, and the error names the first one refused. *shape* gives each
    axis's length, or ``None`` for any; a scalar has shape ``()`` and is
    never promoted to a column. A wrong rank or length is a
    :class:`ContractError` naming the column and both shapes.
    """
    noun, kinds, allowed = _ELEMENTS[dtype]
    refused = ()
    try:
        plain = isinstance(values, (list, tuple)) and set(map(type, values)).issubset(allowed)
        if not (plain or isinstance(values, np.ndarray) and values.dtype.kind in kinds):
            # As Python objects, elements keep their own types (not float for ints past
            # int64) and refuse to wrap; a ragged input's lists fail as not rectangular.
            values = np.array(values, dtype=object)
            refused = {t for t in set(map(type, values.flat))
                       if t is bool or not issubclass(t, (*allowed, list, tuple, np.ndarray))}
        if not refused:
            column = np.array(values, dtype=dtype, order="C")
    except OverflowError as exc:
        raise DomainError(f"{what} must fit in {np.dtype(dtype).name}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be a rectangular numeric array") from exc
    if refused:
        i = next(i for i, v in enumerate(values.flat) if type(v) in refused)
        at = f"[{', '.join(map(str, np.unravel_index(i, values.shape)))}]" if values.ndim else ""
        raise DomainError(f"{what} must be {noun}; {what}{at} is {values.flat[i]!r}")
    if column.ndim == len(shape):
        for got, want in zip(column.shape, shape):
            if got != want and want is not None:
                break
        else:
            return _readonly(column)
    raise ContractError(f"{what} must have shape {shape}, got {column.shape}".replace("None", "any"))


def _config_fields(config, dtype, shape: tuple, *names: str) -> None:
    """Pass each named field of a frozen *config* through :func:`_column`.

    A field is kept as Python values: a scalar for ``shape=()``, otherwise a
    tuple. A refused value raises the :class:`DomainError` naming the field.
    """
    for name in names:
        value = _column(getattr(config, name), dtype, name, shape).tolist()
        object.__setattr__(config, name, tuple(value) if shape else value)


def _word_id(value) -> int:
    """A scalar word id, under the integer rule of :func:`_column`."""
    return int(_column(value, np.int64, "word id", ()))


def _squared_norms(matrix: np.ndarray, what) -> np.ndarray:
    """Squared row norms, refusing any that is not a positive normal float.

    This is the one test of a row that can be normalized: a zero, non-finite
    or overflowing row would silently match nothing, and a subnormal one
    would leave :func:`unit_rows` far off unit. *what* names the matrix, or
    is a function from the first refused row to the name of its owner.
    """
    sq = np.einsum("ij,ij->i", matrix, matrix)
    normalizable = (sq >= np.finfo(np.float64).tiny) & (sq < np.inf)
    if not normalizable.all():
        name = what(int(normalizable.argmin())) if callable(what) else what
        raise DomainError(f"{name} has a zero vector, or one whose squared norm is "
                          "0, subnormal or non-finite")
    return sq


def as_vector(values) -> np.ndarray:
    """Coerce *values* to a read-only 1-D float64 vector that can be normalized."""
    vec = _column(values, np.float64, "feature vector", (None,))
    if vec.size < 1:
        raise DomainError("feature vector must be non-empty")
    _squared_norms(vec[None], "input")
    return vec


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Normalize every row of *matrix* to unit Euclidean length.

    This is the single normalization path used by every algorithm in the
    package. Keeping it unique matters: the per-row arithmetic is identical
    no matter how many rows are passed, so the same input bits always yield
    the same output bits, which is what makes the matching algorithms agree
    exactly. The matchers lean on this: a vocabulary-backed image reads its
    rows from ``Vocabulary.unit_matrix``, this function over all ``K`` rows
    at once, while a raw image with the same vectors normalizes its own
    ``m`` rows, and both must give the same bits.

    A row whose computed squared norm is not a positive normal float is
    refused, so every row returned has ``|‖u‖² - 1| <= (d + 4) * 2**-52``:
    that squared norm is within a relative ``γ_d ≈ d * 2**-53`` (Higham 2002,
    §3.1) plus ``d * 2**-53`` of underflow of the exact one, and the root and
    the division round once each. ``temp_index._top1``'s cut rests on this.
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
    """One weighted visual word, as a feature vector.

    ``word_id`` optionally names the vocabulary word the vector came from,
    or is ``None``. It is a label only: :meth:`ImageObject.from_words`
    stacks the vectors into a raw image and keeps no ids, since a
    vocabulary-backed image is built from word ids and its
    :class:`Vocabulary` instead.
    """

    word_id: Optional[int]
    vector: np.ndarray
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "vector", as_vector(self.vector))
        w = float(_column(self.weight, np.float64, "word weight", ()))
        if not (0.0 < w <= 1.0) or math.isnan(w):
            raise DomainError(f"word weight must be in (0, 1], got {w!r}")
        object.__setattr__(self, "weight", w)
        if self.word_id is not None:
            wid = _word_id(self.word_id)
            if wid < 0:
                raise DomainError(f"word id must be non-negative, got {wid}")
            object.__setattr__(self, "word_id", wid)


# 64-bit FNV-1a (Fowler, Noll & Vo), fixed by the ``.psmi`` format.
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_CHUNK = 1 << 16  # bytes per pass of _fnv1a, which bounds its working memory
_FNV_BLOCK = 1 << 12  # bytes per row of its power-sum matmul
# The weights of a block's bytes, p^4096 .. p^1, and of a chunk's blocks, (p^4096)^15 .. ^0.
_FNV_POWERS = _readonly(np.cumprod(np.full(_FNV_BLOCK, _FNV_PRIME, dtype=np.uint64))[::-1])
_FNV_BLOCK_POWERS = _readonly(np.array([pow(_FNV_PRIME, _FNV_BLOCK * e, 1 << 64)
                                         for e in range(_FNV_CHUNK // _FNV_BLOCK - 1, -1, -1)],
                                        dtype=np.uint64))


def _prefix_xor(flags: np.ndarray) -> np.ndarray:
    """Inclusive prefix XOR of the truth of each byte of *flags*, as 0/1 bytes.

    The flags are packed into 64-bit words, each word is scanned by six
    shift-XOR doublings, and the words' parities are carried across words
    by one exclusive ``xor.accumulate``.
    """
    words = np.packbits(flags, bitorder="little")
    words = np.concatenate((words, np.zeros(-words.size % 8, np.uint8))).view("<u8")
    for shift in (1, 2, 4, 8, 16, 32):
        words ^= words << shift
    parity = words >> 63
    words ^= (np.bitwise_xor.accumulate(parity) ^ parity) * 0xFFFFFFFFFFFFFFFF
    return np.unpackbits(words.view(np.uint8), count=flags.size, bitorder="little")


def _fnv1a(h: int, data) -> int:
    """The 64-bit FNV-1a state *h* after hashing the bytes of *data*.

    Exact, without a per-byte loop. One step ``h <- (h ^ b) * p`` changes only
    the low byte ``L`` of ``h`` by the XOR, so it equals ``h*p + delta*p`` with
    ``delta = (L ^ b) - L``, and after n bytes ``h_n = h_0*p^n + sum delta_i *
    p^(n-i)`` in wrapping ``uint64``. The low bytes follow
    ``L' = ((L ^ b) * 0xB3) mod 256``; as 0xB3 is odd, bit k of ``L'`` is bit
    k of ``L`` XOR a flag read from bits below k, so eight prefix-XOR passes
    (Blelloch, CMU-CS-90-190) solve them. The power sum is one matmul per
    chunk against ``p^4096 ... p^1``, with block sums weighted by powers of
    ``p^4096``. The bytes go in chunks of ``_FNV_CHUNK``, the state carried
    from one to the next.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, data.size, _FNV_CHUNK):
        b = data[start:start + _FNV_CHUNK]
        n = b.size
        low = np.zeros(n + 1, np.uint8)  # L_0 .. L_n, bit by bit
        flags = np.empty(n + 1, np.uint8)
        for k in range(8):
            bit = 1 << k
            flags[0] = h & bit  # seeds the scan with bit k of L_0
            np.bitwise_and(b ^ ((low[:-1] ^ b) & (bit - 1)) * 0xB3, bit, out=flags[1:])
            bits = _prefix_xor(flags)
            bits *= bit
            low |= bits
        blocks = -(-n // _FNV_BLOCK)
        delta = np.zeros(blocks * _FNV_BLOCK, np.int64)  # zero-padded at the front
        delta[delta.size - n:] = np.subtract(low[:-1] ^ b, low[:-1], dtype=np.int16)
        sums = delta.view(np.uint64).reshape(blocks, _FNV_BLOCK) @ _FNV_POWERS
        power_sum = int(sums @ _FNV_BLOCK_POWERS[-blocks:])
        h = (h * pow(_FNV_PRIME, n, 1 << 64) + power_sum) % (1 << 64)
    return h


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
        vecs = _column(self.vectors, np.float64, "vocabulary vectors", (None, None))
        if vecs.size < 1:
            raise DomainError(f"vocabulary vectors must be non-empty, got shape {vecs.shape}")
        sq = _squared_norms(vecs, lambda row: f"vocabulary word {row}")
        off_unit = np.abs(np.sqrt(sq) - 1.0) > UNIT_NORM_TOL
        if off_unit.any():
            raise DomainError(f"vocabulary word {int(off_unit.argmax())} is not unit length")
        freqs = _column(self.frequencies, np.int64, "frequencies", (vecs.shape[0],))
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
        """Rows renormalized through the shared path, computed once and held.

        The offline build reads it, and so does every matcher through
        :meth:`ImageObject.unit_rows`."""
        return _readonly(unit_rows(self.vectors))

    @cached_property
    def checksum(self) -> int:
        """64-bit FNV-1a over the canonical payload: ``u32`` K, ``u32`` d, then
        per word in id order ``u32`` id, ``u64`` frequency and d ``f64``, all
        little-endian."""
        records = np.rec.fromarrays(
            [np.arange(self.size), self.frequencies, self.vectors],
            dtype=[("id", "<u4"), ("frequency", "<u8"), ("vector", "<f8", (self.dimension,))])
        prefix = np.array([self.size, self.dimension], dtype="<u4")
        return _fnv1a(_fnv1a(_FNV_BASIS, prefix), records)


def _image_columns(image_ids: tuple, offsets, weights, word_ids, vectors, counts,
                   vocab: Optional[Vocabulary]) -> tuple:
    """Every image rule, checked once over the flat word columns of any number of images.

    Image ``i`` is named ``image_ids[i]`` and owns words
    ``offsets[i]:offsets[i+1]`` of the columns; ``offsets=None`` is one image
    of all the words. Each column enters through :func:`_column`, and each
    rule is one reduction over all words whose failure names the image of
    the first word refused. :class:`ImageObject` checks one image here and
    ``io.Dataset`` a whole corpus, so each rule is written once. Returns
    ``(offsets, weights, word_ids, vectors, counts)`` as made by ``_column``.
    """
    for image_id in image_ids:
        if not isinstance(image_id, str) or not image_id:
            raise DomainError(f"image_id must be a non-empty string, got {image_id!r}")
    if len(set(image_ids)) < len(image_ids):
        repeated = next(i for i, n in Counter(image_ids).items() if n > 1)
        raise DomainError(f"duplicate image id {repeated!r}")
    raw = vocab is None
    if (vectors is None) == raw or (word_ids is None) != raw:
        raise ContractError(f"image {image_ids[0]!r} must hold either inline vectors, "
                            "or word ids with their vocabulary, not both")
    weights = _column(weights, np.float64, "weights", (None,))
    n_words = weights.size
    if offsets is None:
        lengths = (n_words,)
    else:
        offsets = _column(offsets, np.int64, "offsets", (len(image_ids) + 1,))
        if offsets[0] != 0 or offsets[-1] != n_words:
            raise ContractError(f"offsets must run from 0 to the {n_words} words")
        lengths = np.diff(offsets).tolist()
    if min(lengths) < 1:
        raise DomainError(f"image {image_ids[lengths.index(min(lengths))]!r} has no words")

    _refuse(~((weights > 0.0) & (weights <= 1.0)), "image {!r}: weights must be in (0, 1]",
            image_ids, offsets)
    if raw:
        vectors = _column(vectors, np.float64, "image vectors", (n_words, None))
        _squared_norms(vectors, lambda row: f"image {_owner(image_ids, offsets, row)!r}")
    else:
        word_ids = _column(word_ids, np.int64, "word ids", (n_words,))
        _refuse(word_ids < 0, "word ids must be non-negative", image_ids, offsets)
        _refuse(word_ids >= vocab.size, "image {!r}: word id outside vocabulary",
                image_ids, offsets)
    if counts is not None:
        counts = _column(counts, np.int64, "occurrence counts", (n_words,))
        _refuse(counts < 1, "occurrence counts must be >= 1", image_ids, offsets)
    return offsets, weights, word_ids, vectors, counts


def _owner(image_ids: tuple, offsets, word: int) -> str:
    """The id of the image that owns flat word position *word* (see :func:`_image_columns`)."""
    if offsets is None:
        return image_ids[0]
    return image_ids[int(np.searchsorted(offsets, word, side="right")) - 1]


def _refuse(bad: np.ndarray, message: str, image_ids: tuple, offsets) -> None:
    """Raise *message*, formatted with the owner of the first *bad* word, if there is one."""
    if bad.any():
        raise DomainError(message.format(_owner(image_ids, offsets, int(bad.argmax()))))


@dataclass(frozen=True, eq=False)
class ImageObject:
    """An image identifier plus an ordered sequence of weighted visual words.

    Stored columnar, with ``weights`` always, as one of two kinds:

    - raw: an ``(m, d)`` matrix of inline word ``vectors``, and no
      ``word_ids`` or ``vocab``. smin and smii match these.
    - vocabulary-backed: ``word_ids`` resolved against ``vocab``, and no
      ``vectors``. The vectors are gathered on demand, so they stay
      bit-identical to the vocabulary rows. psmi needs this kind, since its
      index is built over one vocabulary.

    An image has a non-empty string id and at least one word, and its inline
    vectors can be normalized. The constructor checks these rules through
    :func:`_image_columns`, as the one-image case of a dataset's check, so
    no loader, matcher or scorer re-checks them.
    """

    image_id: str
    weights: np.ndarray
    word_ids: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    vocab: Optional[Vocabulary] = None
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        _, weights, word_ids, vectors, counts = _image_columns(
            (self.image_id,), None, self.weights, self.word_ids, self.vectors, self.counts,
            self.vocab)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "word_ids", word_ids)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_words(cls, image_id: str, words: Sequence[VisualWord],
                   counts: Optional[Sequence[int]] = None) -> "ImageObject":
        """A raw image of the words' stacked vectors and their weights.

        The words' ids are not kept, so the result is raw even when every
        word names a vocabulary word: build a vocabulary-backed image from
        ``word_ids`` and ``vocab`` instead.
        """
        words = list(words)
        return cls(image_id=image_id, weights=[w.weight for w in words],
                   vectors=[w.vector for w in words], counts=counts)

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

    def unit_rows(self) -> np.ndarray:
        """The ``(m, d)`` word rows at unit length, fresh on every call.

        A vocabulary-backed image gathers them from the vocabulary's cached
        ``unit_matrix``; since :func:`unit_rows` is row-local, they are the
        bits that normalizing :meth:`vector_matrix` would give.
        """
        if self.vectors is not None:
            return unit_rows(self.vectors)
        return self.vocab.unit_matrix[self.word_ids]

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
        mu = _column(self.mu, np.float64, "mu", (None,))
        partners = _column(self.partners, np.int64, "partners", mu.shape)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "partners", partners)
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


def _outcome(m: int, a_idx: np.ndarray, b_idx: np.ndarray, lam: np.ndarray) -> MatchOutcome:
    """The :class:`MatchOutcome` of *m* query words with pairs ``(a_idx[i], b_idx[i])`` at ``lam[i]``.

    This is the one place a matcher's pairs become an outcome.
    """
    mu, partners = np.zeros(m), np.full(m, -1, dtype=np.int64)
    mu[a_idx], partners[a_idx] = lam, b_idx
    return MatchOutcome(mu, partners)


def normalize_weights(raw: Sequence[float]) -> np.ndarray:
    """Scale positive raw weights so the maximum is exactly 1.

    This is the normalization contract that keeps image weights in
    ``(0, 1]``, which in turn is what bounds :func:`image_similarity` by 1.
    """
    arr = _column(raw, np.float64, "raw weights", (None,))
    if arr.size < 1:
        raise DomainError("raw weights must be non-empty")
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


def _pair_similarity(aw: np.ndarray, bw: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray,
                     lam: np.ndarray) -> float:
    """The score of the pairs ``(a_idx[i], b_idx[i])`` at similarities ``lam[i]``.

    *aw* and *bw* are the two images' weights, *a_idx* the matched A
    positions in ascending order. The unmatched masks come from the
    indices, and the six sums are taken in one fixed order, so every
    matcher's pairs score the same bits here. With no pair the score is 0.0.
    """
    if not a_idx.size:
        return 0.0
    wa, wb = aw[a_idx], bw[b_idx]
    a_mask = np.ones(aw.size, dtype=bool)
    a_mask[a_idx] = False
    b_mask = np.ones(bw.size, dtype=bool)
    b_mask[b_idx] = False
    return float(_score(_sum(lam * wa * wb), _sum(lam * lam * wa * wb), _sum(aw[a_mask]),
                        _sum(bw[b_mask]), _sum(aw), _sum(bw)))


def image_similarity(a: ImageObject, b: ImageObject, match: MatchOutcome) -> float:
    """Score two images from a completed directional match (A against B).

    The score is the pair-similarity mass, normalized by the total weight
    mass of both images and penalized by the weight left unmatched on either
    side. It lies in ``[0, 1]``; it is exactly 0 when nothing matched. Note
    the measure is directional and deliberately not symmetric, and an image
    scored against itself reaches 1 only in the single-word case.

    This is the entry for a caller's :class:`MatchOutcome`: it checks that
    the outcome covers A and points inside B, then calls the shared scorer.
    """
    # Weight validity (finite, in (0, 1]) and a non-empty word list are
    # enforced when an ImageObject is constructed, so they are not
    # re-checked on this hot path.
    if match.mu.size != a.word_count:
        raise ContractError("match does not cover image A (mu length mismatch)")
    # The positions come from ``partners`` itself: the pair views would add
    # a cached property and two read-only copies to every fresh outcome.
    a_idx = (match.partners >= 0).nonzero()[0]
    b_idx = match.partners[a_idx]
    if b_idx.size and int(b_idx.max()) >= b.word_count:
        raise ContractError("match references B-side indices out of range")
    return _pair_similarity(a.weights, b.weights, a_idx, b_idx, match.mu[a_idx])
