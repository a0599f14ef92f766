"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line on the
real terminal (so a plain ``pytest -v`` run shows them). The timing
criteria run real benchmark sweeps and take a few minutes combined.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import brute_force_match, huffman_cost_reference

from vwsim import (
    Dataset,
    FormatError,
    GeneratorConfig,
    ImageObject,
    MatchOutcome,
    VisualWord,
    build_huffman_tree,
    build_psmi_index,
    generate_synthetic,
    huffman_depths,
    image_similarity,
    load_images,
    load_psmi,
    load_vocabulary,
    psmi_match,
    save_images,
    save_psmi,
    save_truth,
    save_vocabulary,
    smii_match,
    smin_match,
    smin_similarity,
)
from vwsim.bench import BenchConfig, HitRateConfig, run_bench, run_hitrate


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


_CORPUS_CACHE = []


def equivalence_corpus():
    """Seeded pairs across the full (d, K, mu0) grid; >= 1000 instances."""
    if not _CORPUS_CACHE:
        for d in (2, 16, 256):
            for k in (64, 1024):
                rng = np.random.RandomState(90000 + 7 * d + k)
                vocab = random_vocab(rng, k, d)
                for mu0 in (0.5, 0.7, 0.9):
                    index = build_psmi_index(vocab, mu0)
                    for _ in range(56):
                        a = random_vocab_image(rng, vocab, int(rng.randint(1, 20)), "a")
                        b = random_vocab_image(rng, vocab, int(rng.randint(1, 20)), "b")
                        _CORPUS_CACHE.append((vocab, index, mu0, a, b))
    return _CORPUS_CACHE


class TestCriterion1AlgorithmEquivalence:
    def test_matchers_agree_exactly(self, capsys):
        start = time.perf_counter()
        checked = 0
        for vocab, index, mu0, a, b in equivalence_corpus():
            naive = smin_match(a, b, mu0)
            indexed = smii_match(a, b, mu0)
            offline = psmi_match(a, b, mu0, index)
            assert naive == indexed == offline
            score_naive = image_similarity(a, b, naive)
            score_offline = image_similarity(a, b, offline)
            assert score_naive == score_offline
            checked += 1
        elapsed = time.perf_counter() - start
        report(capsys, 1, checked >= 1000 and elapsed < 120.0,
               f"{checked} seeded pairs, all three matchers bit-identical "
               f"(exact float equality), {elapsed:.1f}s")


class TestCriterion2BruteForceOracle:
    def test_smin_equals_independent_double_loop(self, capsys):
        checked = 0
        for vocab, index, mu0, a, b in equivalence_corpus():
            out = smin_match(a, b, mu0)
            mu_ref, partners_ref = brute_force_match(a, b, mu0)
            assert out.mu.tolist() == mu_ref
            partners = np.full(a.word_count, -1, dtype=int)
            partners[out.a_indices] = out.b_indices
            assert partners.tolist() == partners_ref
            checked += 1
        # Last user of the corpus; keeping a few hundred thousand objects
        # alive would distort the timing criteria further down.
        _CORPUS_CACHE.clear()
        report(capsys, 2, checked >= 1000,
               f"{checked} instances match the independently coded double-loop reference")


class TestCriterion3SpotValues:
    def test_pinned_scores(self, capsys):
        def raw(name, vectors, weights):
            return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float),
                               vectors=np.asarray(vectors, dtype=float))

        failures = []

        a1 = raw("a", [[1.0, 0.0]], [1.0])
        if image_similarity(a1, a1, MatchOutcome.from_arrays(np.array([1.0]), np.array([0]))) != 1.0:
            failures.append("perfect single pair != 1.0")

        a3 = raw("a", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        got = image_similarity(a3, a3, MatchOutcome.from_arrays(np.array([0.9, 0.0]), np.array([0, -1])))
        if abs(got - 0.9 / (2.0 * math.sqrt(1.81))) > 1e-12 or abs(got - 0.33448) > 1e-5:
            failures.append(f"partial match value {got}")

        got = image_similarity(a3, a3, MatchOutcome.from_arrays(np.array([1.0, 1.0]), np.array([0, 1])))
        if abs(got - 1.0 / math.sqrt(2.0)) > 1e-9:
            failures.append(f"two perfect pairs value {got}")

        a = ImageObject.from_words("a", [VisualWord(None, [1.0, 0.0], 1.0),
                                         VisualWord(None, [0.8, 0.6], 1.0)])
        b = ImageObject.from_words("b", [VisualWord(None, [1.0, 0.0], 1.0)])
        forward = smin_similarity(a, b, 0.7)
        backward = smin_similarity(b, a, 0.7)
        if abs(forward - 0.99388) > 1e-5 or abs(backward - 0.70711) > 1e-5 or forward == backward:
            failures.append(f"asymmetric pair ({forward}, {backward})")

        report(capsys, 3, not failures,
               "pinned scores 1.0, 0.33448, 1/sqrt(2), 0.99388/0.70711 all reproduced"
               if not failures else "; ".join(failures))


class TestCriterion4RangeAndMonotonicity:
    def test_range_over_ten_thousand_instances(self, capsys):
        rng = np.random.RandomState(94001)
        worst_low, worst_high = 1.0, 0.0
        for _ in range(10000):
            a = random_raw_image(rng, int(rng.randint(1, 9)), 3, "a")
            b = random_raw_image(rng, int(rng.randint(1, 9)), 3, "b")
            s = smin_similarity(a, b, float(rng.uniform(0.0, 0.95)))
            worst_low = min(worst_low, s)
            worst_high = max(worst_high, s)
            assert 0.0 <= s <= 1.0
        report(capsys, 4, True,
               f"10000 scores inside [0, 1] (observed range [{worst_low:.3f}, {worst_high:.3f}]); "
               "monotonicity checks follow")

    def test_unmatched_weight_and_count_monotonicity(self, capsys):
        rng = np.random.RandomState(94007)
        weight_checks = 0
        count_checks = 0
        grids = 0
        while weight_checks < 1000:
            a = random_raw_image(rng, int(rng.randint(2, 8)), 3, "a")
            b = random_raw_image(rng, int(rng.randint(1, 8)), 3, "b")
            match = smin_match(a, b, 0.6)
            unmatched = np.flatnonzero(match.mu == 0.0)
            if match.pair_count == 0 or unmatched.size == 0:
                continue
            i = int(unmatched[0])
            if a.weights[i] >= 0.9:
                continue
            before = image_similarity(a, b, match)
            bumped = np.array(a.weights)
            bumped[i] = min(1.0, bumped[i] + 0.1)
            assert image_similarity(a.with_weights(bumped), b, match) < before
            weight_checks += 1

        while count_checks < 1000:
            a = random_raw_image(rng, int(rng.randint(1, 6)), 3, "a")
            b = random_raw_image(rng, int(rng.randint(1, 6)), 3, "b")
            match = smin_match(a, b, 0.5)
            if match.pair_count == 0:
                continue
            before = image_similarity(a, b, match)
            grown = ImageObject(image_id="a+", weights=np.append(a.weights, 0.5),
                                vectors=np.vstack([a.vectors, rng.standard_normal(3)]))
            grown_match = MatchOutcome(mu=np.append(match.mu, 0.0),
                                       partners=np.append(match.partners, -1))
            assert image_similarity(grown, b, grown_match) < before
            count_checks += 1

        for _ in range(1000):
            a = random_raw_image(rng, int(rng.randint(1, 8)), 3, "a")
            b = random_raw_image(rng, int(rng.randint(1, 8)), 3, "b")
            counts = [smin_match(a, b, mu0).pair_count
                      for mu0 in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
            assert counts == sorted(counts, reverse=True)
            grids += 1

        report(capsys, 4, weight_checks == count_checks == grids == 1000,
               f"{weight_checks} unmatched-weight and {count_checks} unmatched-count strict "
               f"decreases, {grids} threshold grids monotone, zero failures")


@pytest.mark.slow
class TestCriterion5PerformanceOrdering:
    """Gamma=1000 pairs at d=256, K=10000 throughout. The ordering point
    runs all three matchers at m=n=100; the growth checks sweep m from 20
    to 100 per algorithm (points adjacent in time). Noise control differs
    per matcher: the fast one gets nine repetitions (at ~0.1 ms/pair a
    transient load burst can tilt a median of three, and nine 0.12 s passes
    are cheap), the slow one gets the median ratio over three independent
    sweeps (its per-point variance sits between runs, not within them)."""

    @staticmethod
    def _sweep(algorithms, m_values, repetitions):
        cfg = BenchConfig(algorithms=algorithms, pair_count=1000, m_values=m_values,
                          n_values=(100,), dimension=256, vocab_size=10000,
                          mu0=0.7, seed=17, repetitions=repetitions)
        return {(r["algo"], r["m"]): r["per_pair_us"]
                for r in run_bench(cfg) if r["algo"] != "psmi-build"}

    def test_ordering_and_growth(self, capsys):
        start = time.perf_counter()
        top = self._sweep(("smin", "smii", "psmi"), (100,), repetitions=3)
        offline = self._sweep(("psmi",), (20, 100), repetitions=9)
        naive_ratios = []
        for _ in range(3):
            naive = self._sweep(("smin",), (20, 100), repetitions=3)
            naive_ratios.append(naive[("smin", 100)] / naive[("smin", 20)])
        elapsed = time.perf_counter() - start

        ordering_ok = top[("psmi", 100)] < top[("smii", 100)] < top[("smin", 100)]
        psmi_growth = offline[("psmi", 100)] / offline[("psmi", 20)] - 1.0
        smin_growth = sorted(naive_ratios)[1]
        ok = (ordering_ok and psmi_growth < 0.25 and smin_growth >= 4.0 and elapsed < 600.0)
        report(capsys, 5, ok,
               f"per-pair at m=100: psmi {top[('psmi', 100)]:.0f}us < smii "
               f"{top[('smii', 100)]:.0f}us < smin {top[('smin', 100)]:.0f}us; psmi growth "
               f"20->100 {psmi_growth * 100:+.1f}% (<25%), smin growth {smin_growth:.1f}x "
               f"(>=4x); sweeps took {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion6ScalingFits:
    """Each fit is the median slope over three independent sweeps: a single
    sweep spans tens of seconds and machine-level drift across its points
    can tilt one regression, which medianing over sweeps decorrelates."""

    @staticmethod
    def _slope(points):
        xs, ys = zip(*points)
        return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])

    def _median_slope(self, cfg, algo, x_of):
        slopes = []
        for _ in range(3):
            rows = [r for r in run_bench(cfg) if r["algo"] == algo]
            slopes.append(self._slope([(x_of(r), r["per_pair_us"]) for r in rows]))
        slopes.sort()
        return slopes[1]

    def test_smin_slope_vs_pair_product(self, capsys):
        cfg = BenchConfig(algorithms=("smin",), pair_count=100,
                          m_values=(40, 80, 160, 320), n_values=(100,), dimension=256,
                          vocab_size=10000, mu0=0.7, seed=17, repetitions=5)
        slope = self._median_slope(cfg, "smin", lambda r: r["m"] * r["n"])
        report(capsys, 6, abs(slope - 1.0) <= 0.15,
               f"smin log-log slope vs m*n = {slope:.3f} (target 1.0 +/- 0.15)")

    def test_psmi_slope_vs_target_size(self, capsys):
        cfg = BenchConfig(algorithms=("psmi",), pair_count=32,
                          m_values=(40,),
                          n_values=(49152, 98304, 196608, 393216, 786432),
                          dimension=32, vocab_size=10000, mu0=0.7, seed=19, repetitions=7)
        slope = self._median_slope(cfg, "psmi", lambda r: r["n"])
        report(capsys, 6, abs(slope - 1.0) <= 0.2,
               f"psmi log-log slope vs n = {slope:.3f} (target 1.0 +/- 0.2)")


class TestCriterion7HitRateTrend:
    def test_perturbation_sweep(self, capsys, tmp_path):
        cfg = GeneratorConfig(seed=7, vocab_size=1024, dimension=64, image_count=1000,
                              words_per_image=40, zipf_exponent=1.1,
                              duplicate_fraction=0.1, perturbation=0.1)
        dataset, queries, truth = generate_synthetic(cfg)
        save_vocabulary(dataset.vocab, tmp_path / "vocabulary.jsonl")
        save_images(dataset, tmp_path / "images.jsonl")
        save_truth(truth, tmp_path / "truth.json")
        rows = run_hitrate(HitRateConfig(
            data_dir=str(tmp_path), query_count=100,
            rho_grid=(0.0, 0.1, 0.2, 0.4, 0.8, 1.0),
            top_k=1, mu0=0.7, seed=11, algorithm="psmi"))
        rates = [r["hit_rate"] for r in rows]
        ok = (rates[0] == 1.0 and rates[1] >= 0.85
              and all(b <= a for a, b in zip(rates, rates[1:]))
              and rates[-1] <= 0.05)
        report(capsys, 7, ok,
               "hit rate over rho (0, 0.1, 0.2, 0.4, 0.8, 1.0) = "
               + ", ".join(f"{r:.2f}" for r in rates)
               + " (1.0 at 0, >=0.85 at 0.1, non-increasing, chance-level at 1.0)")


class TestCriterion8Serialization:
    def test_round_trips_and_corruption(self, capsys, tmp_path):
        rng = np.random.RandomState(95003)
        index_trips = 0
        for trial in range(100):
            vocab = random_vocab(rng, int(rng.randint(2, 33)), int(rng.choice([2, 3, 8])))
            index = build_psmi_index(vocab, float(rng.choice([0.3, 0.6, 0.9])))
            path = tmp_path / "index.psmi"
            save_psmi(index, path)
            first = path.read_bytes()
            loaded = load_psmi(path, vocab=vocab)
            save_psmi(loaded, path)
            assert path.read_bytes() == first
            index_trips += 1

        dataset_trips = 0
        for trial in range(100):
            vocab = random_vocab(rng, 16, 3)
            images = tuple(random_vocab_image(rng, vocab, int(rng.randint(1, 7)), f"img{i}")
                           for i in range(int(rng.randint(1, 6))))
            vpath, ipath = tmp_path / "vocab.jsonl", tmp_path / "images.jsonl"
            save_vocabulary(vocab, vpath)
            save_images(Dataset(images=images, vocab=vocab), ipath)
            vocab_bytes, image_bytes = vpath.read_bytes(), ipath.read_bytes()
            back = load_images(ipath, vocab=load_vocabulary(vpath))
            save_vocabulary(back.vocab, vpath)
            save_images(back, ipath)
            assert vpath.read_bytes() == vocab_bytes and ipath.read_bytes() == image_bytes
            dataset_trips += 1

        vocab = random_vocab(rng, 8, 3)
        index = build_psmi_index(vocab, 0.5)
        path = tmp_path / "corrupt.psmi"
        save_psmi(index, path)
        payload = path.read_bytes()
        corrupt_failures = 0
        path.write_bytes(b"JUNK" + payload[4:])
        with pytest.raises(FormatError):
            load_psmi(path)
        corrupt_failures += 1
        for cut in (7, len(payload) // 3, len(payload) - 2):
            path.write_bytes(payload[:cut])
            with pytest.raises(FormatError):
                load_psmi(path)
            corrupt_failures += 1

        report(capsys, 8, index_trips == dataset_trips == 100,
               f"{index_trips} index and {dataset_trips} dataset round trips byte-exact; "
               f"{corrupt_failures} corrupted files raised format errors")


class TestCriterion9HuffmanOptimality:
    def test_total_cost_matches_reference(self, capsys):
        rng = np.random.RandomState(95009)
        for _ in range(100):
            k = int(rng.randint(2, 65))
            freqs = rng.randint(0, 1000, size=k)
            root = build_huffman_tree(freqs)
            cost = int(np.dot(freqs, huffman_depths(root, k)))
            assert cost == huffman_cost_reference(freqs)
        report(capsys, 9, True,
               "100 random frequency sets: frequency-weighted depth equals the "
               "independent reference construction exactly")
