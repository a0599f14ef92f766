"""Directional word matching, naive realization.

For every word of the query image A, find the single most similar word of
image B by cosine (clamped to ``[0, 1]``), keep it only if it exceeds the
threshold ``mu0`` strictly. :func:`_smin_pairs` is the straightforward
double-loop realization; the indexed matchers in :mod:`vwsim.temp_index`
and :mod:`vwsim.psmi` must yield bit-identical pairs. Every matcher yields
its pairs as ``(a_idx, b_idx, lam)``, matched A positions ascending: the
``*_match`` functions hand them to ``core._outcome``, which builds the
:class:`MatchOutcome`, and the ``*_similarity`` functions to the shared
scorer ``core._pair_similarity``.

Two rules make the outcome unique and therefore comparable across
implementations:

* ties on the maximum are broken by the smallest B index;
* a pair whose unit rows are bitwise identical scores exactly 1.0 (so a
  word always matches a copy or an exact scale copy of itself perfectly).

Raw vectors stop at :func:`vwsim.core.unit_rows`, directly or through
``Vocabulary.unit_matrix`` (see ``ImageObject.unit_rows``): the kernel reads
unit rows only.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    _outcome,
    _pair_similarity,
    as_vector,
    check_threshold,
    unit_vector,
)
from .errors import ContractError

__all__ = ["cosine", "smin_match", "smin_similarity"]

# Values this close to 1 trigger the identical-row check (a unit vector
# dotted with itself can fall short of 1.0 by a few ulp only).
_IDENTITY_BAND = 1e-9


def _pair_score(u_a: np.ndarray, u_b: np.ndarray) -> float:
    """Clamped cosine of two unit rows; bitwise-identical rows score 1.0.

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
    if s > 1.0 - _IDENTITY_BAND and s != 1.0 and np.array_equal(u_a, u_b):
        return 1.0
    return s


def _pair_scores(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """:func:`_pair_score` over broadcastable ``(..., d)`` unit rows.

    A vector-by-vector ``matmul`` runs ``np.dot``'s routine, so scores match
    the scalar kernel bit for bit; rows are compared only for in-band pairs.
    smii rescores the cells its GEMM cut keeps through it, and the offline
    build its float32 candidates.
    """
    s = (u_a[..., None, :] @ u_b[..., :, None])[..., 0, 0]
    s[s <= 0.0] = 0.0
    np.minimum(s, 1.0, out=s)
    band = s > 1.0 - _IDENTITY_BAND
    if band.any():
        u_a, u_b = np.broadcast_arrays(u_a, u_b)
        s[band] = np.where((u_a[band] == u_b[band]).all(-1), 1.0, s[band])
    return s


def _scan_best(unit_b: np.ndarray, u_q: np.ndarray) -> tuple[float, int]:
    """Linear scan for the best clamped cosine, smallest index on ties."""
    best = -1.0
    best_j = 0
    rows = len(unit_b)
    for j in range(rows):
        s = _pair_score(unit_b[j], u_q)
        if s > best:
            best = s
            best_j = j
    return best, best_j


def cosine(a, b) -> float:
    """Cosine similarity of two vectors, clamped to ``[0, 1]``.

    Negative cosines clamp to 0 (they can never exceed a threshold in
    ``[0, 1)`` anyway); inputs whose unit vectors are bitwise identical,
    such as a vector and an exact scale copy of it, score exactly 1.0.
    """
    va = as_vector(a)
    vb = as_vector(b)
    if va.size != vb.size:
        raise ContractError(f"dimension mismatch: {va.size} vs {vb.size}")
    return _pair_score(unit_vector(va), unit_vector(vb))


def _smin_pairs(a: ImageObject, b: ImageObject, mu0: float):
    """smin's pairs of A in B: each matched A position, its B position and λ, ascending.

    Every A word scans all of B with :func:`_scan_best` and keeps its best
    partner when the similarity exceeds ``mu0`` strictly.
    """
    mu0 = check_threshold(mu0)
    unit_a = a.unit_rows()
    unit_b = b.unit_rows()
    if unit_a.shape[1] != unit_b.shape[1]:
        raise ContractError("images have different vector dimensions")
    # A plain list keeps the inner loop free of repeated fancy-index overhead.
    ub_rows = list(unit_b)
    best = [_scan_best(ub_rows, u) for u in unit_a]
    lam = np.array([s for s, _ in best])
    b_idx = np.array([j for _, j in best], dtype=np.int64)
    a_idx = (lam > mu0).nonzero()[0]
    return a_idx, b_idx[a_idx], lam[a_idx]


def smin_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Match every word of *a* against all words of *b* by exhaustive scan."""
    return _outcome(a.word_count, *_smin_pairs(a, b, mu0))


def smin_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    """``image_similarity(a, b, smin_match(a, b, mu0))``, bit for bit, with no outcome built."""
    return _pair_similarity(a.weights, b.weights, *_smin_pairs(a, b, mu0))
