"""Directional word matching, naive realization.

For every word of the query image A, find the single most similar word of
image B by cosine (clamped to ``[0, 1]``), keep it only if it exceeds the
threshold ``mu0`` strictly. :func:`smin_match` is the straightforward
double-loop realization; the indexed matchers in :mod:`vwsim.temp_index`
and :mod:`vwsim.psmi` must return bit-identical outcomes.

Two rules make the outcome unique and therefore comparable across
implementations:

* ties on the maximum are broken by the smallest B index;
* bitwise-identical vectors score exactly 1.0 (so a word always matches a
  copy of itself perfectly, regardless of rounding in the normalization).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    VisualWord,
    as_vector,
    check_threshold,
    image_similarity,
    unit_rows,
    unit_vector,
)
from .errors import ContractError, DomainError

__all__ = ["cosine", "best_match", "smin_match", "smin_similarity"]

# Values this close to 1 trigger the identical-vector check (a unit vector
# dotted with itself can fall short of 1.0 by a few ulp only).
_IDENTITY_BAND = 1e-9


def _pair_score(u_a: np.ndarray, u_b: np.ndarray,
                raw_a: np.ndarray, raw_b: np.ndarray) -> float:
    """Clamped cosine of two unit vectors, exact-identity corrected.

    This is the scalar form of the one similarity kernel in the package:
    the naive scan and :func:`cosine` score through it, and
    :func:`_pair_scores` applies the same rules to arrays of pairs, which
    is what guarantees exact cross-algorithm agreement.
    """
    s = float(np.dot(u_a, u_b))
    if s <= 0.0:
        return 0.0
    if s > 1.0:
        s = 1.0
    if s > 1.0 - _IDENTITY_BAND and s != 1.0 and np.array_equal(raw_a, raw_b):
        return 1.0
    return s


def _pair_scores(u_a: np.ndarray, u_b: np.ndarray,
                 raw_a: np.ndarray, raw_b: np.ndarray) -> np.ndarray:
    """:func:`_pair_score` over broadcastable ``(..., d)`` rows.

    A vector-by-vector ``matmul`` runs ``np.dot``'s routine, so scores match
    the scalar kernel bit for bit; raw rows are compared only for in-band pairs.
    """
    s = (u_a[..., None, :] @ u_b[..., :, None])[..., 0, 0]
    s[s <= 0.0] = 0.0
    np.minimum(s, 1.0, out=s)
    band = s > 1.0 - _IDENTITY_BAND
    if band.any():
        raw_a, raw_b = np.broadcast_arrays(raw_a, raw_b)
        s[band] = np.where((raw_a[band] == raw_b[band]).all(-1), 1.0, s[band])
    return s


def _scan_best(unit_b: np.ndarray, raw_b: np.ndarray,
               u_q: np.ndarray, raw_q: np.ndarray) -> tuple[float, int]:
    """Linear scan for the best clamped cosine, smallest index on ties."""
    best = -1.0
    best_j = 0
    rows = len(unit_b)
    for j in range(rows):
        s = _pair_score(unit_b[j], u_q, raw_q, raw_b[j])
        if s > best:
            best = s
            best_j = j
    return best, best_j


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, clamped to ``[0, 1]``.

    Negative cosines clamp to 0 (they can never exceed a threshold in
    ``[0, 1)`` anyway); bitwise-identical inputs score exactly 1.0.
    """
    va = as_vector(a)
    vb = as_vector(b)
    if va.size != vb.size:
        raise ContractError(f"dimension mismatch: {va.size} vs {vb.size}")
    ua = unit_vector(va)
    ub = unit_vector(vb)
    return _pair_score(ua, ub, va, vb)


def _word_vector(word) -> np.ndarray:
    if isinstance(word, VisualWord):
        return word.vector
    return as_vector(word)


def best_match(a_word, b_words: Sequence, mu0: float) -> tuple[float, Optional[int]]:
    """Best partner of one query word among candidate words.

    Returns ``(similarity, index)`` when the maximum clamped cosine exceeds
    ``mu0`` strictly, else ``(0.0, None)``. Accepts :class:`VisualWord`
    objects or bare vectors for both sides.
    """
    mu0 = check_threshold(mu0)
    if len(b_words) == 0:
        raise DomainError("candidate word list is empty")
    raw_q = _word_vector(a_word)
    raw_b = [_word_vector(w) for w in b_words]
    if any(v.size != raw_q.size for v in raw_b):
        raise ContractError("query and candidate dimensions differ")
    unit_b = unit_rows(np.stack(raw_b))
    u_q = unit_vector(raw_q)
    best, best_j = _scan_best(list(unit_b), raw_b, u_q, raw_q)
    if best > mu0:
        return best, best_j
    return 0.0, None


def smin_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Match every word of *a* against all words of *b* by exhaustive scan.

    Semantically this is ``word_count(a)`` independent :func:`best_match`
    invocations, assembled in canonical (ascending query index) order.
    """
    mu0 = check_threshold(mu0)
    raw_a = a.vector_matrix()
    raw_b = b.vector_matrix()
    if raw_a.shape[1] != raw_b.shape[1]:
        raise ContractError("images have different vector dimensions")
    unit_a = unit_rows(raw_a)
    unit_b = unit_rows(raw_b)
    # Plain lists keep the inner loop free of repeated fancy-index overhead.
    ub_rows = list(unit_b)
    rb_rows = list(raw_b)

    m = a.word_count
    mu = np.zeros(m, dtype=np.float64)
    partners = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        best, best_j = _scan_best(ub_rows, rb_rows, unit_a[i], raw_a[i])
        if best > mu0:
            mu[i] = best
            partners[i] = best_j
    return MatchOutcome.from_arrays(mu, partners)


def smin_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    """Full naive pipeline: match then score."""
    return image_similarity(a, b, smin_match(a, b, mu0))
