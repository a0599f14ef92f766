"""Seeded synthetic benchmark data.

Stands in for a crawled corpus at desk scale: vocabulary vectors sampled
uniformly on the unit sphere, images drawing their words from a Zipf law,
and near-duplicate queries made by replacing a fraction of a source image's
words and jittering its weights. Everything is a pure function of the seed,
down to the bytes of the written files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ImageObject, Vocabulary, _config_fields, unit_rows
from .errors import DomainError
from .io import Dataset
from .quantize import _count_images, tfidf_weights

__all__ = ["GeneratorConfig", "zipf_probabilities", "generate_synthetic", "perturb_image"]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    vocab_size: int = 1024
    dimension: int = 64
    image_count: int = 1000
    words_per_image: int = 40
    zipf_exponent: float = 1.1
    duplicate_fraction: float = 0.1
    perturbation: float = 0.1

    def __post_init__(self):
        _config_fields(self, np.int64, (), "seed", "vocab_size", "dimension", "image_count",
                       "words_per_image")
        _config_fields(self, np.float64, (), "zipf_exponent", "duplicate_fraction", "perturbation")
        if self.vocab_size < 1 or self.dimension < 1 or self.image_count < 1 or self.words_per_image < 1:
            raise DomainError("generator counts must all be >= 1")
        if not (0.0 <= self.duplicate_fraction <= 1.0):
            raise DomainError("duplicate_fraction must lie in [0, 1]")
        if not (0.0 <= self.perturbation <= 1.0):
            raise DomainError("perturbation must lie in [0, 1]")
        if not (self.zipf_exponent >= 0.0):
            raise DomainError("zipf_exponent must be non-negative (and not NaN)")


def zipf_probabilities(size: int, exponent: float) -> np.ndarray:
    """Rank-frequency law over word ids 0..size-1 (id 0 most frequent)."""
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def perturb_image(image: ImageObject, rho: float, rng: np.random.RandomState,
                  image_id: str) -> ImageObject:
    """Near-duplicate of *image*: replace a ``rho`` fraction of its words
    with uniform random vocabulary words, jitter every weight by up to 10%,
    renormalize so the maximum weight is 1 again.

    With ``rho == 0`` the word multiset is copied exactly (weights still
    jitter). Occurrence counts do not survive perturbation.
    """
    if image.vocab is None:
        raise DomainError("can only perturb vocabulary-backed images")
    if not (0.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [0, 1]")
    m = image.word_count
    ids = np.array(image.word_ids)
    n_replace = int(rho * m + 0.5)
    if n_replace:
        positions = rng.choice(m, size=n_replace, replace=False)
        ids[positions] = rng.randint(0, image.vocab.size, size=n_replace)
    weights = image.weights * (1.0 + rng.uniform(-0.1, 0.1, size=m))
    weights /= weights.max()
    return ImageObject(image_id=image_id, weights=weights, word_ids=ids, vocab=image.vocab)


def generate_synthetic(config: GeneratorConfig) -> tuple[Dataset, tuple[ImageObject, ...], dict[str, str]]:
    """Build (base dataset, duplicate queries, ground-truth map).

    Base images carry tf-idf weights derived from their sampled occurrence
    counts; vocabulary frequencies aggregate those counts. Each duplicate is
    a perturbed copy of a distinct base image, and the returned map sends
    duplicate id to source id.
    """
    rng = np.random.RandomState(config.seed)
    k, d = config.vocab_size, config.dimension
    vectors = unit_rows(rng.standard_normal((k, d)))
    probs = zipf_probabilities(k, config.zipf_exponent)

    # Image i takes draws i*m .. i*m + m - 1: the uniforms one draw per image would.
    n, m = config.image_count, config.words_per_image
    draws = rng.choice(k, size=n * m, p=probs)
    vocab = Vocabulary(vectors=vectors, frequencies=np.bincount(draws, minlength=k))
    names = [f"img{i:06d}" for i in range(n)]
    dataset = tfidf_weights(_count_images(names, np.arange(n + 1) * m, draws, vocab))

    dup_count = int(config.duplicate_fraction * config.image_count + 0.5)
    sources = rng.choice(config.image_count, size=dup_count, replace=False).tolist()
    queries = tuple(perturb_image(dataset.image(src), config.perturbation, rng, f"dup{q:06d}")
                    for q, src in enumerate(sources))
    truth = {dup.image_id: dataset.image_ids[src] for dup, src in zip(queries, sources)}
    return dataset, queries, truth
