"""Per-query temporary index over one image's words.

Instead of scanning all of B once per query word, build an exact top-1
cosine index over B a single time per match call, then answer each query
word with one probe. The probe scores every indexed row with the array
form of the kernel the naive matcher uses and takes the first maximum, so
results are bit-identical to :func:`vwsim.matching.smin_match`.

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
    as_vector,
    check_threshold,
    image_similarity,
    unit_rows,
    unit_vector,
)
from .errors import ContractError, DomainError
from .matching import _pair_scores

__all__ = ["TempIndex", "build_temp_index", "query_top1", "smii_match", "smii_similarity"]


@dataclass(frozen=True)
class TempIndex:
    """Immutable exact top-1 cosine index over one image's word vectors."""

    raw: np.ndarray
    unit: np.ndarray

    @property
    def size(self) -> int:
        return self.raw.shape[0]

    @property
    def dimension(self) -> int:
        return self.raw.shape[1]


def build_temp_index(b: ImageObject) -> TempIndex:
    """Index all words of *b*; deterministic, one normalization pass."""
    if b.word_count == 0:
        raise DomainError("cannot index an empty image")
    raw = np.ascontiguousarray(b.vector_matrix(), dtype=np.float64)
    raw.setflags(write=False)
    unit = unit_rows(raw)
    unit.setflags(write=False)
    return TempIndex(raw=raw, unit=unit)


def query_top1(idx: TempIndex, q) -> tuple[int, float]:
    """Exact argmax of clamped cosine over the indexed words.

    Returns ``(index, cosine)`` exactly as a linear scan with
    smallest-index tie-breaking would. No threshold is applied here.
    """
    raw_q = as_vector(q)
    if raw_q.size != idx.dimension:
        raise ContractError(f"query dimension {raw_q.size} != index dimension {idx.dimension}")
    scores = _pair_scores(idx.unit, unit_vector(raw_q), idx.raw, raw_q)
    j = int(scores.argmax())
    return j, float(scores[j])


def smii_match(a: ImageObject, b: ImageObject, mu0: float) -> MatchOutcome:
    """Index-accelerated matching; output equals ``smin_match(a, b, mu0)``."""
    mu0 = check_threshold(mu0)
    if a.word_count == 0 or b.word_count == 0:
        raise DomainError("cannot match an empty image")
    idx = build_temp_index(b)
    raw_a = a.vector_matrix()
    if raw_a.shape[1] != idx.dimension:
        raise ContractError("images have different vector dimensions")

    m = a.word_count
    mu = np.zeros(m, dtype=np.float64)
    partners = np.full(m, -1, dtype=np.int64)
    for i in range(m):
        j, s = query_top1(idx, raw_a[i])
        if s > mu0:
            mu[i] = s
            partners[i] = j
    return MatchOutcome.from_arrays(mu, partners)


def smii_similarity(a: ImageObject, b: ImageObject, mu0: float) -> float:
    return image_similarity(a, b, smii_match(a, b, mu0))
