import numpy as np
import pytest

import vwsim.temp_index as temp_index_module
from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import brute_force_top1

from vwsim import (
    ContractError,
    DomainError,
    ImageObject,
    build_temp_index,
    query_top1,
    smii_match,
    smii_similarity,
    smin_match,
    smin_similarity,
)


def raw_image(name, vectors, weights=None):
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        weights = np.ones(vectors.shape[0])
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float), vectors=vectors)


class TestBuildAndQuery:
    def test_singleton_index_answers_everything(self):
        idx = build_temp_index(raw_image("b", [[0.3, 0.4]]))
        assert idx.size == 1
        assert query_top1(idx, [1.0, 0.0])[0] == 0
        assert query_top1(idx, [0.3, 0.4]) == (0, 1.0)

    def test_returns_global_argmax(self):
        idx = build_temp_index(raw_image("b", [[0.8, 0.6], [1.0, 0.0]]))
        assert query_top1(idx, [1.0, 0.0]) == (1, 1.0)

    def test_duplicate_rows_tie_break_to_smallest_index(self):
        idx = build_temp_index(raw_image("b", [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
        j, s = query_top1(idx, [1.0, 0.0])
        assert (j, s) == (1, 1.0)

    def test_no_threshold_applied(self):
        idx = build_temp_index(raw_image("b", [[0.0, 1.0]]))
        j, s = query_top1(idx, [1.0, 1e-3])
        assert j == 0 and 0.0 < s < 0.01

    def test_all_negative_cosines_clamp(self):
        idx = build_temp_index(raw_image("b", [[-1.0, 0.0], [-0.6, -0.8]]))
        j, s = query_top1(idx, [1.0, 0.0])
        assert s == 0.0 and j == 0

    def test_agrees_with_linear_scan(self):
        rng = np.random.RandomState(61)
        for _ in range(200):
            d = int(rng.choice([2, 5, 17]))
            b = random_raw_image(rng, rng.randint(1, 20), d, "b")
            idx = build_temp_index(b)
            q = rng.standard_normal(d)
            assert query_top1(idx, q) == brute_force_top1(b.vector_matrix(), q)

    def test_empty_image_rejected(self):
        # An image has at least one word; the constructor refuses an empty one.
        with pytest.raises(DomainError, match="no words"):
            ImageObject(image_id="e", weights=np.zeros(0), vectors=np.zeros((0, 2)))

    def test_dimension_mismatch(self):
        idx = build_temp_index(raw_image("b", [[1.0, 0.0]]))
        with pytest.raises(ContractError):
            query_top1(idx, [1.0, 0.0, 0.0])

    def test_index_is_immutable(self):
        idx = build_temp_index(raw_image("b", [[1.0, 0.0]]))
        with pytest.raises(ValueError):
            idx.unit[0, 0] = 3.0


class TestSmiiEquivalence:
    def test_matches_smin_on_fixed_examples(self):
        cases = [
            (raw_image("a", [[1.0, 0.0]]), raw_image("b", [[1.0, 0.0]]), 0.8),
            (raw_image("a", [[1.0, 0.0], [0.0, 1.0]]), raw_image("b", [[0.8, 0.6], [1.0, 0.0]]), 0.7),
            (raw_image("a", [[1.0, 0.0], [0.8, 0.6]]), raw_image("b", [[1.0, 0.0]]), 0.7),
        ]
        for a, b, mu0 in cases:
            assert smii_match(a, b, mu0) == smin_match(a, b, mu0)

    def test_matches_smin_on_random_instances(self):
        rng = np.random.RandomState(67)
        for d in (2, 16, 256):
            for _ in range(60):
                a = random_raw_image(rng, rng.randint(1, 12), d, "a")
                b = random_raw_image(rng, rng.randint(1, 12), d, "b")
                mu0 = float(rng.choice([0.2, 0.5, 0.7, 0.9]))
                assert smii_match(a, b, mu0) == smin_match(a, b, mu0)

    def test_matches_smin_on_vocab_images(self):
        rng = np.random.RandomState(71)
        vocab = random_vocab(rng, 128, 16)
        for _ in range(60):
            a = random_vocab_image(rng, vocab, rng.randint(1, 15), "a")
            b = random_vocab_image(rng, vocab, rng.randint(1, 15), "b")
            assert smii_match(a, b, 0.7) == smin_match(a, b, 0.7)

    def test_fifty_by_fifty_seeded(self):
        rng = np.random.RandomState(73)
        a = random_raw_image(rng, 50, 8, "a")
        b = random_raw_image(rng, 50, 8, "b")
        assert smii_match(a, b, 0.7) == smin_match(a, b, 0.7)
        assert smii_similarity(a, b, 0.7) == smin_similarity(a, b, 0.7)

    def test_singleton_target(self):
        rng = np.random.RandomState(79)
        a = random_raw_image(rng, 6, 4, "a")
        b = random_raw_image(rng, 1, 4, "b")
        assert smii_match(a, b, 0.5) == smin_match(a, b, 0.5)


class TestHardCases:
    """Copies of a few base rows put pairs on the identity band and on ties."""

    @staticmethod
    def _hard_rows(rng, d):
        base = rng.standard_normal((3, d))
        near = base.copy()
        near[:, 0] = np.nextafter(base[:, 0], np.inf)        # one ulp off, not equal
        return np.concatenate([base, near, -base, 2.0 * base, base])   # last block: exact ties

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 64])
    @pytest.mark.parametrize("mu0", [0.0, 0.5, 0.999999999])
    def test_matches_smin_on_copies(self, d, mu0):
        rng = np.random.RandomState(401 + d)
        rows = self._hard_rows(rng, d)
        b = raw_image("b", rows)
        for _ in range(5):
            a = raw_image("a", rows[rng.permutation(len(rows))[:rng.randint(1, len(rows) + 1)]])
            assert smii_match(a, b, mu0) == smin_match(a, b, mu0)
            assert smii_match(b, a, mu0) == smin_match(b, a, mu0)

    def test_ties_go_to_smallest_index(self):
        rows = self._hard_rows(np.random.RandomState(409), 16)
        out = smii_match(raw_image("a", rows[:3]), raw_image("b", rows), 0.5)
        assert out.b_indices.tolist() == [0, 1, 2]
        assert out.lambdas.tolist() == [1.0, 1.0, 1.0]

    def test_threshold_equal_to_stored_lambda_is_unmatched(self):
        rng = np.random.RandomState(419)
        a = random_raw_image(rng, 12, 8, "a")
        b = random_raw_image(rng, 9, 8, "b")
        full = smin_match(a, b, 0.0)
        i = int(full.a_indices[0])
        lam = float(full.mu[i])
        assert 0.0 < lam < 1.0
        cut = smii_match(a, b, lam)
        assert cut == smin_match(a, b, lam)
        assert cut.mu[i] == 0.0 and i not in cut.a_indices.tolist()


class TestCallShape:
    def test_one_kernel_call_per_match(self, monkeypatch):
        shapes = []
        real = temp_index_module._pair_scores

        def counting(*args):
            scores = real(*args)
            shapes.append(scores.shape)
            return scores

        monkeypatch.setattr(temp_index_module, "_pair_scores", counting)
        rng = np.random.RandomState(83)
        a = random_raw_image(rng, 9, 4, "a")
        b = random_raw_image(rng, 5, 4, "b")
        temp_index_module.smii_match(a, b, 0.5)
        assert shapes == [(9, 5)]

    def test_index_built_exactly_once_per_call(self, monkeypatch):
        calls = {"n": 0}
        real = temp_index_module.build_temp_index

        def counting(b):
            calls["n"] += 1
            return real(b)

        monkeypatch.setattr(temp_index_module, "build_temp_index", counting)
        rng = np.random.RandomState(89)
        a = random_raw_image(rng, 7, 4, "a")
        b = random_raw_image(rng, 4, 4, "b")
        temp_index_module.smii_match(a, b, 0.5)
        assert calls["n"] == 1
        temp_index_module.smii_match(a, b, 0.5)
        assert calls["n"] == 2
