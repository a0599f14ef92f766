"""Per-query temporary index over one image's words.

Instead of scanning all of B once per query word, build an exact top-1
cosine index over B a single time per match call, then answer every query
word of A with one kernel call over the whole (m, n) grid. The index is
B's unit rows, read-only. The grid is scored with the array form of the
kernel the naive matcher uses, and each row takes its first maximum, so
results are bit-identical to :func:`vwsim.matching.smin_match`.

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
from .matching import _pair_scores

__all__ = ["build_temp_index", "query_top1", "smii_match", "smii_similarity"]


def build_temp_index(b: ImageObject) -> np.ndarray:
    """Index all words of *b*: their read-only ``(n, d)`` unit rows, in one normalization pass."""
    return _readonly(unit_rows(b.vector_matrix()))


def _top1(unit: np.ndarray, raw_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best indexed row and its clamped cosine for each ``(q, d)`` query row.

    One kernel call scores the whole (q, n) grid; ``argmax`` keeps the first
    maximum, so ties go to the smallest indexed row. No threshold is applied.
    """
    if raw_q.shape[1] != unit.shape[1]:
        raise ContractError(f"query dimension {raw_q.shape[1]} != index dimension {unit.shape[1]}")
    scores = _pair_scores(unit, unit_rows(raw_q)[:, None])
    best = scores.argmax(axis=1)
    return best, scores[np.arange(len(best)), best]


def query_top1(unit: np.ndarray, q) -> tuple[int, float]:
    """Exact argmax of clamped cosine over the indexed words.

    Returns ``(index, cosine)`` exactly as a linear scan with
    smallest-index tie-breaking would. No threshold is applied here.
    """
    best, scores = _top1(unit, as_vector(q)[None])
    return int(best[0]), float(scores[0])


def _smii_pairs(a: ImageObject, b: ImageObject, mu0: float):
    """smii's pairs of A in B: each matched A position, its B position and λ, ascending."""
    mu0 = check_threshold(mu0)
    partners, mu = _top1(build_temp_index(b), a.vector_matrix())
    a_idx = (mu > mu0).nonzero()[0]
    return a_idx, partners[a_idx], mu[a_idx]


def smii_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Index-accelerated matching; output equals ``smin_match(a, b, mu0)``."""
    return _outcome(a.word_count, *_smii_pairs(a, b, mu0))


def smii_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    """``image_similarity(a, b, smii_match(a, b, mu0))``, bit for bit, with no outcome built."""
    return _pair_similarity(a.weights, b.weights, *_smii_pairs(a, b, mu0))
