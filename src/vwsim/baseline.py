"""Exhaustive reference scorer used as a comparison point in evaluations.

Collapses each image to the weighted mean of its unit word vectors and
scores the pair by the clamped cosine of the two means. Cheap, symmetric,
and structure-blind, which is exactly why it is a useful baseline.
"""

from __future__ import annotations

import numpy as np

from .core import ImageObject, unit_rows
from .errors import ContractError

__all__ = ["mean_vector_similarity"]


def mean_vector_similarity(a: ImageObject, b: ImageObject) -> float:
    if a.dimension != b.dimension:
        raise ContractError("images have different vector dimensions")
    mean_a = (a.weights[:, None] * unit_rows(a.vector_matrix())).sum(axis=0)
    mean_b = (b.weights[:, None] * unit_rows(b.vector_matrix())).sum(axis=0)
    norm = float(np.linalg.norm(mean_a)) * float(np.linalg.norm(mean_b))
    if norm == 0.0:
        return 0.0
    return float(np.clip(np.dot(mean_a, mean_b) / norm, 0.0, 1.0))
