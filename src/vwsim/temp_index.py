"""Per-query temporary index over one image's words.

Instead of scanning all of B once per query word, build an exact top-1
cosine index over B a single time per match call, then answer every query
word of A with one kernel call over the whole (m, n) grid. The grid is
scored with the array form of the kernel the naive matcher uses, and each
row takes its first maximum, so results are bit-identical to
:func:`vwsim.matching.smin_match`.

The index is intentionally rebuilt on every match call: it belongs to one
target image and is never reused across calls (reuse across the whole
vocabulary is the job of :mod:`vwsim.psmi`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    _readonly,
    as_vector,
    check_threshold,
    image_similarity,
    unit_rows,
)
from .errors import ContractError
from .matching import _pair_scores

__all__ = ["TempIndex", "build_temp_index", "query_top1", "smii_match", "smii_similarity"]


@dataclass(frozen=True, eq=False)
class TempIndex:
    """Immutable exact top-1 cosine index over one image's unit rows."""

    unit: np.ndarray

    @property
    def size(self) -> int:
        return self.unit.shape[0]

    @property
    def dimension(self) -> int:
        return self.unit.shape[1]


def build_temp_index(b: ImageObject) -> TempIndex:
    """Index all words of *b*; deterministic, one normalization pass."""
    return TempIndex(unit=_readonly(unit_rows(b.vector_matrix())))


def _top1(idx: TempIndex, raw_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best indexed row and its clamped cosine for each ``(q, d)`` query row.

    One kernel call scores the whole (q, n) grid; ``argmax`` keeps the first
    maximum, so ties go to the smallest indexed row. No threshold is applied.
    """
    if raw_q.shape[1] != idx.dimension:
        raise ContractError(f"query dimension {raw_q.shape[1]} != index dimension {idx.dimension}")
    scores = _pair_scores(idx.unit, unit_rows(raw_q)[:, None])
    best = scores.argmax(axis=1)
    return best, scores[np.arange(len(best)), best]


def query_top1(idx: TempIndex, q) -> tuple[int, float]:
    """Exact argmax of clamped cosine over the indexed words.

    Returns ``(index, cosine)`` exactly as a linear scan with
    smallest-index tie-breaking would. No threshold is applied here.
    """
    best, scores = _top1(idx, as_vector(q)[None])
    return int(best[0]), float(scores[0])


def smii_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Index-accelerated matching; output equals ``smin_match(a, b, mu0)``."""
    mu0 = check_threshold(mu0)
    partners, mu = _top1(build_temp_index(b), a.vector_matrix())
    hit = mu > mu0
    return MatchOutcome(np.where(hit, mu, 0.0), np.where(hit, partners, -1))


def smii_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    return image_similarity(a, b, smii_match(a, b, mu0))
