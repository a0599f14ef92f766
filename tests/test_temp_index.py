from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vwsim.temp_index as temp_index_module
from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import brute_force_top1

from vwsim import (
    ContractError,
    DomainError,
    ImageObject,
    Vocabulary,
    build_temp_index,
    query_top1,
    smii_match,
    smii_similarity,
    smin_match,
    smin_similarity,
)
from vwsim.core import unit_rows
from vwsim.matching import _pair_score, _scan_best
from vwsim.temp_index import _top1


def raw_image(name, vectors, weights=None):
    vectors = np.asarray(vectors, dtype=float)
    if weights is None:
        weights = np.ones(vectors.shape[0])
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float), vectors=vectors)


class TestBuildAndQuery:
    def test_singleton_index_answers_everything(self):
        idx = build_temp_index(raw_image("b", [[0.3, 0.4]]))
        assert idx.shape == (1, 2)
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
        idx = build_temp_index(raw_image("b", [[3.0, 4.0]]))
        assert idx.tolist() == [[0.6, 0.8]]
        with pytest.raises(ValueError):
            idx[0, 0] = 3.0


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
        # One rescore of the cells the cut keeps: at least one per query word.
        assert len(shapes) == 1 and len(shapes[0]) == 1 and 9 <= shapes[0][0] <= 9 * 5

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


def _assert_top1_is_scan(unit, raw_q):
    """``_top1`` gives ``_scan_best``'s partner and score bits for every query row."""
    u_q = unit_rows(raw_q)
    partners, scores = _top1(unit, u_q)
    best = [_scan_best(unit, u) for u in u_q]
    assert partners.tolist() == [j for _, j in best]
    assert scores.tobytes() == np.array([s for s, _ in best]).tobytes()


class TestCut:
    """The GEMM cut keeps every winner: near-ties inside its margin, the
    identity band and clamped rows. Rows that would leave ``unit_rows`` far
    from unit length never reach it."""

    @staticmethod
    def _one_ulp_rows(d):
        """A query and two rows whose kernel cosines with it differ by one ulp."""
        rng = np.random.RandomState(7 + d)
        raw_q = rng.standard_normal(d)
        u_q = unit_rows(raw_q[None])[0]
        near = rng.standard_normal(d) + raw_q + 1e-15 * rng.standard_normal((64, d))
        scores = [_pair_score(u, u_q) for u in unit_rows(near)]
        for i, low in enumerate(scores):
            for j, high in enumerate(scores):
                if high == np.nextafter(low, 2.0):
                    return raw_q, near[i], near[j]
        raise AssertionError("no pair one ulp apart")

    @pytest.mark.parametrize("d", [2, 3, 16, 17, 64, 256])
    def test_rows_one_ulp_apart(self, d):
        raw_q, low, high = self._one_ulp_rows(d)
        for rows, winner in (([low, high], 1), ([high, low], 0), ([low, high, high], 1),
                             ([high, low, high], 0)):
            unit = unit_rows(np.array(rows))
            _assert_top1_is_scan(unit, raw_q[None])
            assert _top1(unit, unit_rows(raw_q[None]))[0].tolist() == [winner]

    @pytest.mark.parametrize("d", [3, 16, 17, 64, 256])
    def test_rows_tied_in_exact_arithmetic(self, d):
        # A row and its reversal tie with their sum in exact arithmetic, so
        # which one scores higher is decided by rounding alone, and a GEMM
        # that sums in another order than the kernel can rank them apart.
        rng = np.random.RandomState(31 + d)
        for _ in range(40):
            base = rng.standard_normal(d)
            unit = unit_rows(np.array([base, base[::-1], np.roll(base, 1)]))
            _assert_top1_is_scan(unit, np.array([base + base[::-1], base[::-1] + base]))

    @pytest.mark.parametrize("d", [2, 3, 16, 64])
    def test_identical_row_after_a_row_whose_dot_rounds_above_one(self, d):
        rng = np.random.RandomState(11 + d)
        for t in range(5000):
            raw_q = rng.standard_normal(d)
            above = raw_q.copy()
            above[t % d] = np.nextafter(above[t % d], np.inf)
            u_q, u_above = unit_rows(np.array([raw_q, above]))
            if float(np.dot(u_above, u_q)) > 1.0:
                break
        else:
            raise AssertionError("no row whose dot with the query rounds above 1")
        assert not np.array_equal(u_above, u_q)
        # Both score 1.0 (one clamped, one identical), so the first one wins.
        for rows, winner in (([above, raw_q], 0), ([raw_q, above], 0),
                             ([-raw_q, above, 2.0 * raw_q], 1)):
            unit = unit_rows(np.array(rows))
            _assert_top1_is_scan(unit, raw_q[None])
            assert _top1(unit, unit_rows(raw_q[None]))[0].tolist() == [winner]

    def test_identity_lift_below_one(self):
        # Rows whose self-dot falls short of 1.0: only the identity rule
        # scores the copy 1.0, ahead of a nudged row just below it.
        raw = np.random.RandomState(5).standard_normal((4000, 3))
        unit = unit_rows(raw)
        short = raw[np.einsum("ij,ij->i", unit, unit) < 1.0][:4]
        assert len(short) == 4
        for raw_q in short:
            unit_b = unit_rows(np.array([raw_q + [1e-5 * raw_q[0], 0.0, 0.0], raw_q, raw_q]))
            assert 1.0 - 1e-9 < float(np.dot(unit_b[0], unit_b[1])) < 1.0
            _assert_top1_is_scan(unit_b, raw_q[None])
            partners, scores = _top1(unit_b, unit_rows(raw_q[None]))
            assert partners.tolist() == [1] and scores.tolist() == [1.0]

    def test_all_clamped_rows_keep_partner_zero(self):
        rng = np.random.RandomState(97)
        unit = unit_rows(-np.abs(rng.standard_normal((7, 16))))
        raw_q = np.abs(rng.standard_normal((5, 16)))
        raw_q[2] = -raw_q[2]          # the one row with positive cosines
        partners, scores = _top1(unit, unit_rows(raw_q))
        assert partners[[0, 1, 3, 4]].tolist() == [0, 0, 0, 0]
        assert scores[[0, 1, 3, 4]].tolist() == [0.0] * 4 and scores[2] > 0.0
        _assert_top1_is_scan(unit, raw_q)

    def test_rows_with_a_subnormal_squared_norm_are_refused(self):
        # Normalized, this row would come out with squared norm 125.95, and
        # its raw dots would run about 11x its cosines: it is refused instead.
        d = 256
        odd = np.full(d, 0.7 * 2.0**-537)
        odd[0] = 2.0**-537
        assert 0.0 < np.dot(odd, odd) < np.finfo(np.float64).tiny
        with pytest.raises(DomainError, match="subnormal"):
            unit_rows(np.array([np.ones(d), odd]))
        # smii never sees it: an image holding it is refused at construction,
        # and a query row handed to ``query_top1`` is refused there.
        rng = np.random.RandomState(101)
        a = raw_image("a", rng.standard_normal((3, d)))
        with pytest.raises(DomainError, match="image 'b'.*subnormal"):
            smii_similarity(a, raw_image("b", [odd]), 0.5)
        with pytest.raises(DomainError, match="subnormal"):
            query_top1(build_temp_index(a), odd)
        # The same direction at a normal scale is accepted and unit.
        u = unit_rows(2.0**537 * odd[None])[0]
        assert abs(np.dot(u, u) - 1.0) <= (d + 4) * 2.0**-52

    def test_the_cut_rescores_far_fewer_cells_than_the_grid(self, monkeypatch):
        cells = []
        real = temp_index_module._pair_scores

        def counting(*args):
            scores = real(*args)
            cells.append(scores.size)
            return scores

        monkeypatch.setattr(temp_index_module, "_pair_scores", counting)
        rng = np.random.RandomState(103)
        for d in (16, 256):
            unit, u_q = unit_rows(rng.standard_normal((200, d))).reshape(2, 100, d)
            _top1(unit, u_q)
        # Of 100 x 100 cells, one per query row: random rows leave no second
        # one inside the margin.
        assert cells == [100, 100]


@st.composite
def _top1_cases(draw):
    """Index and query rows at d in {1, 2, 3, 16, 17, 64, 256}: fresh rows,
    copies, scale copies and negations of earlier rows, and nudged copies."""
    d = draw(st.sampled_from([1, 2, 3, 16, 17, 64, 256]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    rows = [rng.standard_normal(d)]
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["fresh", "copy", "scale", "negate", "nudge"]))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if kind == "fresh":
            row = rng.standard_normal(d)
        elif kind == "scale":
            row = draw(st.sampled_from([0.5, 2.0, 3.0, 1e-3])) * row
        elif kind == "negate":
            row = -row
        elif kind == "nudge":
            row = row + 1e-12 * rng.standard_normal(d)
        rows.append(row)
    n = draw(st.integers(1, len(rows) - 1))
    return unit_rows(np.array(rows[:n])), np.array(rows[n:])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_top1_cases())
def test_top1_equals_a_linear_scan(case):
    unit, raw_q = case
    _assert_top1_is_scan(unit, raw_q)


@st.composite
def _scaled_rows(draw):
    """A standard normal direction at d in {1, 2, 3, 16, 64, 256, 1024}, its
    elements spread over up to 2**±30, scaled by 2**e for e in [-560, 560],
    drawn often near the edges where the squared norm leaves the normal range."""
    d = draw(st.sampled_from([1, 2, 3, 16, 64, 256, 1024]))
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    spread = draw(st.sampled_from([0, 1, 4, 30]))
    e = draw(st.one_of(st.integers(-560, 560), st.integers(-560, -500), st.integers(500, 560)))
    return rng.standard_normal(d) * 2.0**rng.randint(-spread, spread + 1, d) * 2.0**e


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scaled_rows())
def test_unit_rows_refuses_or_returns_a_unit_row(row):
    # The invariant ``_top1``'s margin rests on: a row is refused exactly when
    # its computed squared norm is 0, subnormal or infinite, and otherwise
    # comes back within (d + 4) * 2**-52 of unit squared norm, exactly summed.
    sq = np.einsum("ij,ij->i", row[None], row[None])[0]
    if not np.finfo(np.float64).tiny <= sq < np.inf:
        with pytest.raises(DomainError):
            unit_rows(row[None])
        return
    u = unit_rows(row[None])[0]
    exact = sum(Fraction(x) ** 2 for x in u.tolist())
    assert abs(exact - 1) <= Fraction(row.size + 4, 2**52)


# Every d up to 40, and either side of 64, 128 and 256, so that rows start
# at every offset modulo any SIMD width within the vocabulary matrix.
_PREMISE_DIMS = [*range(1, 41), 63, 64, 65, 127, 128, 129, 255, 256, 257]


def _near_unit_vocab(rng, size, d):
    """A vocabulary whose rows sit off unit length by up to about 1e-10, so
    that renormalizing them changes their bits."""
    vectors = unit_rows(rng.standard_normal((size, d))) * (1.0 + 3e-11 * rng.standard_normal((size, 1)))
    return Vocabulary(vectors=vectors, frequencies=np.ones(size, dtype=np.int64))


class TestUnitRowSources:
    """A vocabulary-backed image reads its unit rows from ``unit_matrix``;
    a raw image normalizes its own. Both must give the same bits."""

    @pytest.mark.parametrize("d", _PREMISE_DIMS)
    def test_unit_matrix_rows_equal_normalized_gathered_rows(self, d):
        rng = np.random.RandomState(600 + d)
        vocab = _near_unit_vocab(rng, 97, d)
        assert not np.array_equal(vocab.unit_matrix, vocab.vectors)
        for ids in (rng.randint(0, 97, size=40), np.arange(97)[::-1], np.array([5, 5, 96, 0, 5]),
                    np.array([96])):
            gathered = unit_rows(vocab.vectors[ids])
            assert vocab.unit_matrix[ids].tobytes() == gathered.tobytes()
            image = ImageObject("v", weights=np.ones(ids.size), word_ids=ids, vocab=vocab)
            assert image.unit_rows().tobytes() == gathered.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 17, 63, 64, 65, 256, 257])
    def test_raw_and_vocabulary_backed_images_score_alike(self, d):
        rng = np.random.RandomState(700 + d)
        vocab = _near_unit_vocab(rng, 60, d)
        for _ in range(6):
            pair = []
            for name in ("a", "b"):
                ids = rng.randint(0, 60, size=rng.randint(1, 30))
                ids = np.concatenate([ids, ids[:3]])          # repeated words
                weights = rng.uniform(0.1, 1.0, ids.size)
                weights /= weights.max()
                pair.append((ImageObject(name, weights=weights, word_ids=ids, vocab=vocab),
                             ImageObject(name, weights=weights, vectors=vocab.vectors[ids])))
            (a_v, a_r), (b_v, b_r) = pair
            for mu0 in (0.0, 0.5):
                scores = {f(a, b, mu0).hex() for f in (smin_similarity, smii_similarity)
                          for a in (a_v, a_r) for b in (b_v, b_r)}
                assert len(scores) == 1
                assert smii_match(a_r, b_v, mu0) == smin_match(a_v, b_r, mu0)
