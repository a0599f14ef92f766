"""Benchmark timing sweeps and retrieval evaluation.

``run_bench`` times the similarity pipelines over seeded random image pairs
and reports medians; ``run_hitrate`` measures how often a perturbed
near-duplicate retrieves its source image. Both emit fixed-column rows so
reruns with the same seed change only the timing numbers.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baseline import mean_vector_similarity
from .core import ImageObject, Vocabulary, _config_fields, check_threshold, unit_rows
from .errors import DomainError
from .io import Dataset, load_images, load_truth, load_vocabulary
from .matching import smin_similarity
from .psmi import Corpus, PsimIndex, build_psmi_index, psmi_similarity, search
from .synth import perturb_image
from .temp_index import smii_similarity

__all__ = [
    "ALGORITHMS",
    "SCORERS",
    "BenchConfig",
    "HitRateConfig",
    "BENCH_COLUMNS",
    "HITRATE_COLUMNS",
    "run_bench",
    "run_hitrate",
]

# The one algorithm dispatch: name -> scorer(query, target, mu0, index).
# Only psmi reads the offline index; the others take it and ignore it.
SCORERS: dict[str, Callable[[ImageObject, ImageObject, float, Optional[PsimIndex]], float]] = {
    "smin": lambda a, b, mu0, index: smin_similarity(a, b, mu0),
    "smii": lambda a, b, mu0, index: smii_similarity(a, b, mu0),
    "psmi": psmi_similarity,
    "exhaustive-baseline": lambda a, b, mu0, index: mean_vector_similarity(a, b),
}
ALGORITHMS = tuple(SCORERS)

BENCH_COLUMNS = ("algo", "gamma", "m", "n", "d", "k", "mu0", "seed", "median_ms", "per_pair_us")
HITRATE_COLUMNS = ("rho", "m", "dataset_size", "algo", "hit_rate")


@dataclass(frozen=True)
class BenchConfig:
    """One timing sweep: a cross product of algorithms and (m, n) points."""

    algorithms: tuple[str, ...]
    pair_count: int
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    dimension: int
    vocab_size: int
    mu0: float
    seed: int
    repetitions: int = 3

    def __post_init__(self):
        _config_fields(self, np.int64, (), "pair_count", "dimension", "vocab_size", "repetitions", "seed")
        _config_fields(self, np.int64, (None,), "m_values", "n_values")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise DomainError(f"unknown algorithms: {sorted(unknown)}")
        if not self.algorithms:
            raise DomainError("at least one algorithm is required")
        if self.pair_count < 1:
            raise DomainError("pair_count must be >= 1")
        if self.repetitions < 3:
            raise DomainError("repetitions must be >= 3 (medians need support)")
        if self.dimension < 1 or self.vocab_size < 1:
            raise DomainError("dimension and vocab_size must be >= 1")
        if not self.m_values or not self.n_values:
            raise DomainError("sweep needs at least one m and one n value")
        if min(self.m_values) < 1 or min(self.n_values) < 1:
            raise DomainError("image sizes must be >= 1")
        check_threshold(self.mu0)


@dataclass(frozen=True)
class HitRateConfig:
    """Near-duplicate retrieval evaluation over a generated dataset."""

    data_dir: str
    query_count: int
    rho_grid: tuple[float, ...]
    top_k: int = 1
    mu0: float = 0.7
    seed: int = 0
    algorithm: str = "psmi"

    def __post_init__(self):
        _config_fields(self, np.int64, (), "query_count", "top_k", "seed")
        _config_fields(self, np.float64, (None,), "rho_grid")
        if self.top_k < 1:
            raise DomainError("top_k must be >= 1")
        if self.query_count < 1:
            raise DomainError("query_count must be >= 1")
        if not self.rho_grid or any(not (0.0 <= r <= 1.0) for r in self.rho_grid):
            raise DomainError("rho values must lie in [0, 1]")
        if self.algorithm not in ALGORITHMS:
            raise DomainError(f"unknown algorithm {self.algorithm!r}")
        check_threshold(self.mu0)


def _bench_vocab(cfg: BenchConfig, rng: np.random.RandomState) -> Vocabulary:
    vectors = unit_rows(rng.standard_normal((cfg.vocab_size, cfg.dimension)))
    frequencies = rng.randint(1, 100, size=cfg.vocab_size).astype(np.int64)
    return Vocabulary(vectors=vectors, frequencies=frequencies)


# Query images share this fraction of their words with the target, the way
# near-duplicate pairs do; fully independent sampling would leave most pairs
# with nothing in common at realistic vocabulary sizes.
_SHARED_WORD_FRACTION = 0.2


def _make_pairs(cfg: BenchConfig, vocab: Vocabulary, m: int, n: int,
                rng: np.random.RandomState) -> list[tuple[ImageObject, ImageObject]]:
    pairs = []
    for i in range(cfg.pair_count):
        b_ids = rng.randint(0, vocab.size, size=n).astype(np.int64)
        a_ids = rng.randint(0, vocab.size, size=m).astype(np.int64)
        shared = rng.uniform(size=m) < _SHARED_WORD_FRACTION
        a_ids[shared] = b_ids[rng.randint(0, n, size=int(shared.sum()))]
        wa = rng.uniform(0.1, 1.0, size=m)
        wb = rng.uniform(0.1, 1.0, size=n)
        pairs.append((
            ImageObject(image_id=f"a{i:06d}", weights=wa / wa.max(), word_ids=a_ids, vocab=vocab),
            ImageObject(image_id=f"b{i:06d}", weights=wb / wb.max(), word_ids=b_ids, vocab=vocab),
        ))
    return pairs


def _timed_pass(fn: Callable[[ImageObject, ImageObject], float],
                pairs: Sequence[tuple[ImageObject, ImageObject]]) -> float:
    # Collector pauses scale with whatever the host process keeps alive and
    # can dwarf a fast pass, so they are kept out of the timed window.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def run_bench(cfg: BenchConfig) -> list[dict]:
    """Execute the sweep; one row per (algorithm, m, n) point.

    Timing covers matching plus scoring and excludes data generation. The
    offline index build is excluded from per-pair timing and reported as its
    own ``psmi-build`` row (with an empty per-pair column).
    """
    rows: list[dict] = []
    rng = np.random.RandomState(cfg.seed)
    vocab = _bench_vocab(cfg, rng)

    index = None
    if "psmi" in cfg.algorithms:
        start = time.perf_counter()
        index = build_psmi_index(vocab, cfg.mu0)
        build_s = time.perf_counter() - start
        rows.append({"algo": "psmi-build", "gamma": cfg.pair_count, "m": 0, "n": 0,
                     "d": cfg.dimension, "k": cfg.vocab_size, "mu0": cfg.mu0,
                     "seed": cfg.seed, "median_ms": build_s * 1e3, "per_pair_us": ""})

    # Algorithm-major order keeps one algorithm's sweep points adjacent in
    # time, so growth ratios along a sweep are not polluted by load drift
    # while other (much slower) algorithms run. Pairs are regenerated per
    # point from a point-derived seed, so every algorithm times identical
    # inputs regardless of ordering.
    for algo in cfg.algorithms:
        score = SCORERS[algo]
        fn = lambda a, b: score(a, b, cfg.mu0, index)
        for m in cfg.m_values:
            for n in cfg.n_values:
                pair_rng = np.random.RandomState(cfg.seed + 100003 * m + 37 * n + 1)
                pairs = _make_pairs(cfg, vocab, m, n, pair_rng)
                warmup = pairs[:min(len(pairs), 50)]
                _timed_pass(fn, warmup)
                times = [_timed_pass(fn, pairs) for _ in range(cfg.repetitions)]
                median_s = statistics.median(times)
                rows.append({"algo": algo, "gamma": cfg.pair_count, "m": m, "n": n,
                             "d": cfg.dimension, "k": cfg.vocab_size, "mu0": cfg.mu0,
                             "seed": cfg.seed, "median_ms": median_s * 1e3,
                             "per_pair_us": median_s * 1e6 / cfg.pair_count})
    return rows


def _load_benchmark(data_dir: str) -> tuple[Dataset, dict[str, str]]:
    root = Path(data_dir)
    vocab = load_vocabulary(root / "vocabulary.jsonl")
    dataset = load_images(root / "images.jsonl", vocab=vocab)
    truth_path = root / "truth.json"
    if not truth_path.exists():
        raise DomainError(f"{root}: no ground-truth duplicate map (truth.json)")
    return dataset, load_truth(truth_path)


def run_hitrate(cfg: HitRateConfig) -> list[dict]:
    """Perturbed-duplicate retrieval: one row per rho in the grid.

    For each sampled ground-truth source, build a fresh duplicate at the
    row's perturbation level, rank every dataset image by similarity with
    the query as the first argument (ties broken by image id), and count a
    hit when the source lands in the top k. psmi scores each query against
    the whole dataset in one :func:`~vwsim.psmi.search` pass over the
    dataset's columns, and builds an image object only for each source and
    each query; the other algorithms score one image at a time.
    """
    dataset, truth = _load_benchmark(cfg.data_dir)
    if not truth:
        raise DomainError("ground-truth duplicate map is empty")
    image_ids = dataset.image_ids
    position = {image_id: i for i, image_id in enumerate(image_ids)}
    source_ids = sorted(set(truth.values()))
    missing = [s for s in source_ids if s not in position]
    if missing:
        raise DomainError(f"ground truth references unknown images: {missing[:3]}")
    if cfg.query_count > len(source_ids):
        raise DomainError(f"query_count {cfg.query_count} exceeds {len(source_ids)} known sources")

    rng = np.random.RandomState(cfg.seed)
    picked = rng.choice(len(source_ids), size=cfg.query_count, replace=False)
    sources = [position[source_ids[int(i)]] for i in picked]
    source_images = [dataset.image(src) for src in sources]

    if cfg.algorithm == "psmi":
        index = build_psmi_index(dataset.vocab, cfg.mu0)
        corpus = Corpus.from_dataset(dataset)
        scores = lambda query: search(query, corpus, cfg.mu0, index)
    else:
        score = SCORERS[cfg.algorithm]
        scores = lambda query: np.array([score(query, img, cfg.mu0, None) for img in dataset.images])

    mean_words = int(round(dataset.weights.size / len(dataset)))
    # Dataset positions in image-id order: a stable sort of the negated
    # scores in this order breaks ties by image id.
    id_order = np.array(sorted(range(len(dataset)), key=image_ids.__getitem__))

    def query_hit(query: ImageObject, source: int) -> bool:
        ranked = id_order[np.argsort(-scores(query)[id_order], kind="stable")]
        return source in ranked[:cfg.top_k]

    rows = []
    for rho in cfg.rho_grid:
        hits = sum(query_hit(perturb_image(image, rho, rng, image_id=f"query{qi:06d}"), src)
                   for qi, (image, src) in enumerate(zip(source_images, sources)))
        rows.append({"rho": rho, "m": mean_words, "dataset_size": len(dataset),
                     "algo": cfg.algorithm, "hit_rate": hits / cfg.query_count})
    return rows
