"""Per-query temporary index over one image's words.

Instead of scanning all of B once per query word, build an exact top-1
cosine index over B a single time per match call, then answer every query
word of A from one matrix product. The index is B's unit rows, read-only.
Both images' rows come from ``ImageObject.unit_rows``, which a
vocabulary-backed image gathers from ``Vocabulary.unit_matrix``, so no row is
normalized twice. One GEMM scores the whole (m, n) grid in whatever order
the BLAS sums; a proven margin below each row's maximum cuts the grid to
the few cells that can hold the row's best partner; the array form of the
kernel the naive matcher uses rescores those cells exactly, and each row
takes its first maximum. So results are bit-identical to
:func:`vwsim.matching.smin_match` (the margin's proof is in :func:`_top1`).

The index is intentionally rebuilt on every match call: it belongs to one
target image and is never reused across calls (reuse across the whole
vocabulary is the job of :mod:`vwsim.psmi`). :func:`_smii_pairs` yields
the matched pairs; :func:`smii_match` hands them to ``core._outcome`` and
:func:`smii_similarity` to the shared scorer ``core._pair_similarity``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    _outcome,
    _pair_similarity,
    _readonly,
    as_vector,
    check_threshold,
    unit_rows,
)
from .errors import ContractError
from .matching import _IDENTITY_BAND, _pair_scores

__all__ = ["build_temp_index", "query_top1", "smii_match", "smii_similarity"]


def build_temp_index(b: ImageObject) -> np.ndarray:
    """Index all words of *b*: their read-only ``(n, d)`` unit rows, from ``b.unit_rows()``."""
    return _readonly(b.unit_rows())


def _top1(unit: np.ndarray, u_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best indexed row and its clamped cosine for each ``(q, d)`` unit query row.

    Partners and score bits equal those of scoring the whole (q, n) grid
    with the kernel and taking each row's first maximum, so ties go to the
    smallest indexed row. No threshold is applied.

    One GEMM ``g = u_q @ unit.T`` scores the grid in any summation order.
    Row ``i`` keeps the columns with ``g >= min(G_i, 1 - band) - margin``:
    ``G_i`` is the row's GEMM maximum, ``band`` the kernel's identity band,
    and ``margin = 6 * d * 2**-53``. The kept cells are rescored with the
    kernel, ``_pair_scores(unit[cols], u_q[rows])`` (B row first, as in
    smin's ``_pair_score(unit_b[j], u_q)``), and scattered into a grid of
    zeros; each row takes its first maximum.

    The cut keeps every winner. *unit* is :func:`build_temp_index`'s rows
    and *u_q* the query's, so both sides come from ``unit_rows``, directly
    or through ``Vocabulary.unit_matrix``, and ``|u| |v| <= N = 1 + (d + 4)
    * 2**-52`` for every query row ``u`` and indexed row ``v``. A float64 dot
    product of ``u, v`` in any order is within ``γ_d N + d * 2**-1074`` of
    the exact one, where ``γ_d = d * 2**-53 / (1 - d * 2**-53)`` (Higham
    2002, §3.1; the second term is underflow). So a GEMM cell and the
    kernel's ``np.dot`` ``s`` of the same pair differ by at most ``2 γ_d N``
    plus underflow. Let ``K`` be the row's best kernel value.

    * ``0 < K < 1``: no cell was clamped to 1 or lifted by the identity
      rule, so every cell has ``s <= K`` and every winner has ``s = K``;
      its GEMM cell is within ``4 γ_d N`` of ``G_i``.
    * ``K == 1``: each winner was clamped (``s >= 1``) or lifted (``s > 1 -
      band``), so its GEMM cell exceeds ``1 - band - 2 γ_d N``. That is why
      a row whose maximum lies within the band of 1 cuts at ``1 - band -
      margin``: its margin widens by up to the band.

    ``margin`` exceeds ``4 γ_d N = 4 d * 2**-53 + O(d² * 2**-104)`` by about
    ``2 d * 2**-53``, which covers the rest, underflow and the cut's rounding.

    The zero fill is exact. A cut cell is no winner, so its kernel value
    lies strictly below ``K``: when ``K > 0`` the filled row's first maximum
    is the first winner. When ``K == 0`` every cosine in the row clamps to
    0, the filled row is all zeros, and its first maximum is column 0, as
    the full grid's is.
    """
    if u_q.shape[1] != unit.shape[1]:
        raise ContractError(f"query dimension {u_q.shape[1]} != index dimension {unit.shape[1]}")
    g = u_q @ unit.T
    n, d = unit.shape
    cut = np.minimum(g.max(axis=1), 1.0 - _IDENTITY_BAND) - 6 * d * 2.0**-53
    rows, cols = np.divmod(np.flatnonzero(g >= cut[:, None]), n)
    grid = np.zeros_like(g)
    grid[rows, cols] = _pair_scores(unit[cols], u_q[rows])
    best = grid.argmax(axis=1)
    return best, grid[np.arange(len(best)), best]


def query_top1(unit: np.ndarray, q) -> tuple[int, float]:
    """Exact argmax of clamped cosine of the raw vector *q* over the indexed words.

    *q* is normalized here, through ``unit_rows``. Returns ``(index,
    cosine)`` exactly as a linear scan with smallest-index tie-breaking
    would. No threshold is applied here.
    """
    best, scores = _top1(unit, unit_rows(as_vector(q)[None]))
    return int(best[0]), float(scores[0])


def _smii_pairs(a: ImageObject, b: ImageObject, mu0: float):
    """smii's pairs of A in B: each matched A position, its B position and λ, ascending."""
    mu0 = check_threshold(mu0)
    partners, mu = _top1(build_temp_index(b), a.unit_rows())
    a_idx = (mu > mu0).nonzero()[0]
    return a_idx, partners[a_idx], mu[a_idx]


def smii_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Index-accelerated matching; output equals ``smin_match(a, b, mu0)``."""
    return _outcome(a.word_count, *_smii_pairs(a, b, mu0))


def smii_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    """``image_similarity(a, b, smii_match(a, b, mu0))``, bit for bit, with no outcome built."""
    return _pair_similarity(a.weights, b.weights, *_smii_pairs(a, b, mu0))
