import numpy as np
import pytest

from vwsim import DomainError, ImageObject
from vwsim.baseline import mean_vector_similarity


def raw(name, vectors, weights=None):
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        weights = np.ones(vectors.shape[0])
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float), vectors=vectors)


def test_identical_images_score_one():
    a = raw("a", [[1.0, 0.0], [0.8, 0.6]])
    assert abs(mean_vector_similarity(a, a) - 1.0) < 1e-12


def test_orthogonal_images_score_zero():
    assert mean_vector_similarity(raw("a", [[1.0, 0.0]]), raw("b", [[0.0, 1.0]])) == 0.0


def test_symmetric():
    rng = np.random.RandomState(181)
    a = raw("a", rng.standard_normal((4, 3)), rng.uniform(0.2, 1.0, 4) / 1.0)
    b = raw("b", rng.standard_normal((6, 3)))
    assert mean_vector_similarity(a, b) == mean_vector_similarity(b, a)


def test_empty_image_rejected():
    # An image has at least one word; the constructor refuses an empty one.
    with pytest.raises(DomainError, match="no words"):
        ImageObject(image_id="e", weights=np.zeros(0), vectors=np.zeros((0, 2)))
