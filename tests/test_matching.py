import numpy as np
import pytest

from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import brute_force_match

from vwsim import (ContractError, DomainError, ImageObject, VisualWord, Vocabulary,
                   build_psmi_index, cosine, psmi_match, smii_match, smin_match, smin_similarity)


class TestCosine:
    def test_identical_vectors(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_forty_five_degrees(self):
        assert abs(cosine([1.0, 0.0], [1.0, 1.0]) - 0.7071067811865476) < 1e-12

    def test_opposite_clamps_to_zero(self):
        assert cosine([1.0, 0.0], [-1.0, 0.0]) == 0.0

    def test_scale_invariant_identity(self):
        # Parallel but non-identical vectors still score (numerically) 1.
        assert cosine([2.0, 0.0], [1.0, 0.0]) == 1.0
        # An exact scale copy has bitwise-identical unit rows, whose dot
        # product here falls an ulp short of 1: the identity rule lifts it
        # to exactly 1.0 in cosine and in both vector matchers.
        from vwsim.core import unit_vector

        v = np.random.RandomState(4).standard_normal(16)
        assert float(np.dot(unit_vector(v), unit_vector(v))) != 1.0
        assert cosine(v, 2.0 * v) == 1.0
        a, b = raw_image("a", [v]), raw_image("b", [2.0 * v])
        for match in (smin_match, smii_match):
            assert match(a, b, 0.5).lambdas.tolist() == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_norm(self):
        with pytest.raises(DomainError):
            cosine([0.0, 0.0], [1.0, 0.0])

    def test_non_finite(self):
        with pytest.raises(DomainError):
            cosine([float("inf"), 0.0], [1.0, 0.0])

    def test_squared_norm_out_of_range(self):
        # Finite vectors whose squared norm overflows, underflows to 0 or
        # lands in the subnormal range (1e-320) cannot be normalized to unit
        # length; they are refused instead of scoring 0 or a wrong cosine.
        for v in ([1e200, 0.0], [1e-200, 0.0], [1e-160, 0.0]):
            with pytest.raises(DomainError, match="squared norm"):
                cosine(v, v)


class TestThresholdType:
    """Every matcher takes its threshold through ``core.check_threshold``."""

    @pytest.mark.parametrize("algo", ["smin", "smii", "psmi"])
    def test_bad_threshold(self, tiny_vocab, algo):
        idx = build_psmi_index(tiny_vocab, 0.0)
        match = {"smin": smin_match, "smii": smii_match,
                 "psmi": lambda a, b, mu0: psmi_match(a, b, mu0, idx)}[algo]
        img = ImageObject("x", np.ones(1), word_ids=[0], vocab=tiny_vocab)
        for mu0 in (1.0, -0.1, "0.5", b"0.5", False, True, np.bool_(False)):
            with pytest.raises(DomainError):
                match(img, img, mu0)
        for mu0 in (0, 0.5, np.float32(0.5), np.float64(0.5), np.int64(0)):
            assert match(img, img, mu0).pairs == [(0, 0, 1.0)]


def raw_image(name, vectors, weights=None):
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        weights = np.ones(vectors.shape[0])
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float), vectors=vectors)


class TestSminMatch:
    def test_identity_pair(self):
        out = smin_match(raw_image("a", [[1.0, 0.0]]), raw_image("b", [[1.0, 0.0]]), 0.8)
        assert out.pairs == [(0, 0, 1.0)]
        assert out.mu.tolist() == [1.0]

    def test_one_matched_one_not(self):
        out = smin_match(raw_image("a", [[1.0, 0.0], [0.0, 1.0]]),
                         raw_image("b", [[0.8, 0.6], [1.0, 0.0]]), 0.7)
        assert out.pairs == [(0, 1, 1.0)]
        assert out.mu[0] == 1.0 and out.mu[1] == 0.0

    def test_target_word_reused(self):
        out = smin_match(raw_image("a", [[1.0, 0.0], [0.8, 0.6]]),
                         raw_image("b", [[1.0, 0.0]]), 0.7)
        assert [(i, j) for i, j, _ in out.pairs] == [(0, 0), (1, 0)]
        assert out.matched_b_ids == frozenset({0})
        assert out.pairs[0][2] == 1.0
        assert abs(out.pairs[1][2] - 0.8) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.RandomState(41)
        for trial in range(150):
            d = int(rng.choice([2, 8, 32]))
            a = random_raw_image(rng, rng.randint(1, 9), d, "a")
            b = random_raw_image(rng, rng.randint(1, 9), d, "b")
            mu0 = float(rng.choice([0.0, 0.3, 0.7, 0.9]))
            out = smin_match(a, b, mu0)
            mu_ref, partners_ref = brute_force_match(a, b, mu0)
            assert out.mu.tolist() == mu_ref
            partners = np.full(a.word_count, -1, dtype=int)
            partners[out.a_indices] = out.b_indices
            assert partners.tolist() == partners_ref

    def test_matches_oracle_on_vocab_images(self):
        rng = np.random.RandomState(43)
        vocab = random_vocab(rng, 64, 8)
        for trial in range(80):
            a = random_vocab_image(rng, vocab, rng.randint(1, 10), "a")
            b = random_vocab_image(rng, vocab, rng.randint(1, 10), "b")
            out = smin_match(a, b, 0.6)
            mu_ref, partners_ref = brute_force_match(a, b, 0.6)
            assert out.mu.tolist() == mu_ref

    def test_mu_positive_iff_paired_once(self):
        rng = np.random.RandomState(47)
        for _ in range(100):
            a = random_raw_image(rng, rng.randint(1, 10), 4, "a")
            b = random_raw_image(rng, rng.randint(1, 10), 4, "b")
            out = smin_match(a, b, 0.5)
            paired = list(out.a_indices)
            assert len(paired) == len(set(paired)) == out.pair_count
            assert sorted(np.flatnonzero(out.mu > 0.0)) == sorted(paired)

    def test_pair_count_never_grows_with_threshold(self):
        rng = np.random.RandomState(53)
        for _ in range(100):
            a = random_raw_image(rng, rng.randint(1, 8), 3, "a")
            b = random_raw_image(rng, rng.randint(1, 8), 3, "b")
            counts = [smin_match(a, b, mu0).pair_count
                      for mu0 in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
            assert counts == sorted(counts, reverse=True)

    def test_deterministic(self):
        rng = np.random.RandomState(59)
        a = random_raw_image(rng, 7, 5, "a")
        b = random_raw_image(rng, 9, 5, "b")
        assert smin_match(a, b, 0.4) == smin_match(a, b, 0.4)

    def test_duplicate_target_words_take_smallest_index(self):
        b = raw_image("b", [[0.6, 0.8], [1.0, 0.0], [1.0, 0.0]])
        out = smin_match(raw_image("a", [[1.0, 0.0]]), b, 0.5)
        assert out.pairs == [(0, 1, 1.0)]

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            smin_match(raw_image("a", [[1.0, 0.0]]), raw_image("b", [[1.0, 0.0, 0.0]]), 0.5)


def test_smin_similarity_composes():
    a = raw_image("a", [[1.0, 0.0]])
    assert smin_similarity(a, a, 0.5) == 1.0
    b = raw_image("b", [[0.0, 1.0]])
    assert smin_similarity(a, b, 0.5) == 0.0


class TestSharedNormalizationPath:
    """The exact cross-matcher agreement rests on one property: normalizing
    a row alone produces the same bits as normalizing it inside any batch.
    If this ever breaks (say, a numpy reduction change), the equivalence
    suites will fail loudly; this test points at the root cause."""

    def test_row_normalization_is_batch_independent(self):
        from vwsim.core import unit_rows, unit_vector

        rng = np.random.RandomState(211)
        for d in (2, 3, 17, 256):
            mat = rng.standard_normal((40, d))
            whole = unit_rows(mat)
            for i in range(0, 40, 7):
                assert np.array_equal(unit_vector(mat[i]), whole[i])
                assert np.array_equal(unit_rows(mat[i:i + 3])[0], whole[i])

    def test_one_predicate_for_rows_that_can_be_normalized(self):
        from vwsim.core import unit_rows

        big, tiny = 1e200, 1e-200
        for bad in ([0.0, 0.0], [big, big], [big, 0.0], [tiny, 0.0], [1e-160, 0.0],
                    [float("nan"), 1.0]):
            with pytest.raises(DomainError):
                unit_rows(np.array([[1.0, 0.0], bad]))
            with pytest.raises(DomainError):
                ImageObject(image_id="x", weights=np.ones(1), vectors=np.array([bad]))
            with pytest.raises(DomainError):
                VisualWord(None, bad, 1.0)
            with pytest.raises(DomainError, match=r"^vocabulary word 1 has a zero vector, or one "
                               r"whose squared norm is 0, subnormal or non-finite$"):
                Vocabulary(vectors=[[1.0, 0.0], bad], frequencies=[1, 1])
        # Normal rows keep the bits of a plain divide by the root of the squared norm.
        mat = np.random.RandomState(229).standard_normal((50, 7)) * 1e100
        norms = np.sqrt(np.einsum("ij,ij->i", mat, mat))
        assert np.array_equal(unit_rows(mat), mat / norms[:, None])

    def test_rows_must_form_a_matrix(self, tiny_vocab):
        from vwsim import Dataset, assign_words
        from vwsim.core import unit_rows

        for bad in ([1.0, 0.0, 0.0], np.ones((2, 2, 3)), 1.0):
            with pytest.raises(ContractError, match="2-D matrix of rows"):
                unit_rows(bad)
        with pytest.raises(ContractError, match="image vectors must have shape"):
            assign_words(tiny_vocab, Dataset(("a",), [0, 2], np.ones(2), vectors=[1.0, 0.0]))

    def test_vocabulary_unit_matrix_matches_single_vector_path(self):
        from vwsim.core import unit_vector
        from conftest import random_vocab

        vocab = random_vocab(np.random.RandomState(223), 32, 9)
        for wid in (0, 13, 31):
            assert np.array_equal(vocab.unit_matrix[wid], unit_vector(vocab.vectors[wid]))

    def test_cosine_equals_kernel_on_batch_rows(self):
        from vwsim.core import unit_rows
        from vwsim.matching import _pair_score

        rng = np.random.RandomState(227)
        mat = rng.standard_normal((10, 6))
        units = unit_rows(mat)
        for i in range(10):
            for j in range(10):
                assert cosine(mat[i], mat[j]) == _pair_score(units[i], units[j])


class TestPairScoresKernel:
    """The array kernel must reproduce the scalar one bit for bit: smii's
    rescore of the cells its GEMM cut keeps and the offline build's rescore
    of its candidates score through it, smin through the scalar."""

    @staticmethod
    def _vectors(d):
        rng = np.random.RandomState(229 + d)
        raw = rng.standard_normal((40, d))
        raw[1] = raw[0]                                      # duplicate
        raw[2] = raw[0]
        raw[2, 0] = np.nextafter(raw[0, 0], np.inf)          # near-identical, not equal
        raw[3] = 2.0 * raw[0]                                # scale copy: same unit row
        raw[4] = -raw[0]                                     # negative cosine
        return raw

    @pytest.mark.parametrize("d", [2, 3, 16, 17, 64, 256])
    def test_array_kernel_equals_scalar_kernel_bitwise(self, d):
        from vwsim.core import unit_rows
        from vwsim.matching import _pair_score, _pair_scores

        raw = self._vectors(d)
        unit = unit_rows(raw)
        # The identity rule must be exercised, not just allowed.
        assert any(float(np.dot(unit[i], unit[i])) != 1.0 for i in range(len(raw)))
        rng = np.random.RandomState(233 + d)
        i = np.concatenate([np.arange(len(raw)), [0, 1, 0, 2, 0, 3, 0], rng.randint(0, 40, 500)])
        j = np.concatenate([np.arange(len(raw)), [1, 0, 2, 0, 3, 0, 4], rng.randint(0, 40, 500)])
        gathered = _pair_scores(unit[i], unit[j])
        scalar = [_pair_score(unit[a], unit[b]) for a, b in zip(i, j)]
        assert gathered.tobytes() == np.array(scalar).tobytes()

        for q in (0, 2, 4, 17):
            broadcast = _pair_scores(unit, unit[q])
            scalar = [_pair_score(unit[r], unit[q]) for r in range(len(raw))]
            assert broadcast.tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 64])
    def test_grid_equals_scalar_kernel_bitwise(self, d):
        from vwsim.core import unit_rows
        from vwsim.matching import _pair_score, _pair_scores

        raw = self._vectors(d)[:12]
        unit = unit_rows(raw)
        grid = _pair_scores(unit, unit[:, None])
        scalar = [[_pair_score(unit[j], unit[i]) for j in range(12)] for i in range(12)]
        assert grid.tobytes() == np.array(scalar).tobytes()

    def test_negative_zero_dot_scores_positive_zero(self):
        from vwsim.matching import _pair_score, _pair_scores

        # Both products are -0.0; whatever sign the dot routine returns for
        # their sum, the score is +0.0.
        u_a = np.array([[1.0, 0.0]])
        u_b = np.array([[-0.0, -1.0]])
        scores = _pair_scores(u_a, u_b)
        assert scores.tobytes() == np.array([0.0]).tobytes()
        assert scores.tobytes() == np.array([_pair_score(u_a[0], u_b[0])]).tobytes()

    def test_grid_compares_unit_rows_only_in_band(self):
        import tracemalloc

        from vwsim.core import unit_rows
        from vwsim.matching import _pair_scores

        # A = B: the diagonal is in band, every other pair is not. Comparing
        # unit rows over all pairs would allocate an (m, n, d) block.
        raw = np.random.RandomState(421).standard_normal((300, 256))
        unit = unit_rows(raw)
        tracemalloc.start()
        try:
            scores = _pair_scores(unit, unit[:, None])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scores.shape == (300, 300)
        assert np.array_equal(np.diag(scores), np.ones(300))
        assert peak < 4 * scores.nbytes
