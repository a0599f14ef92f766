import math

import numpy as np
import pytest

from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import similarity_reference

from vwsim import (
    ContractError,
    DomainError,
    ImageObject,
    MatchOutcome,
    VisualWord,
    Vocabulary,
    image_similarity,
    normalize_weights,
    smin_match,
    smin_similarity,
)


def make_raw_image(name, vectors, weights):
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float),
                       vectors=np.asarray(vectors, dtype=float))


def outcome(mu, partners):
    return MatchOutcome.from_arrays(np.asarray(mu, dtype=float), np.asarray(partners))


class TestNormalizeWeights:
    def test_divides_by_max(self):
        assert normalize_weights([2.0, 1.0]).tolist() == [1.0, 0.5]

    def test_singleton(self):
        assert normalize_weights([5.0]).tolist() == [1.0]

    def test_derived_ratio(self):
        out = normalize_weights([0.693, 0.549])
        assert out[0] == 1.0
        assert abs(out[1] - 0.549 / 0.693) < 1e-15
        assert abs(out[1] - 0.7922) < 1e-4

    def test_max_is_exactly_one(self):
        rng = np.random.RandomState(3)
        for _ in range(50):
            out = normalize_weights(rng.uniform(0.01, 7.0, size=rng.randint(1, 20)))
            assert out.max() == 1.0
            assert np.all(out > 0.0)

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0], [float("nan")], [float("inf")], []])
    def test_rejects_invalid(self, bad):
        with pytest.raises(DomainError):
            normalize_weights(bad)


class TestImageSimilaritySpotValues:
    """Pinned values, each recomputed by independent arithmetic in the assert."""

    def test_single_perfect_pair_is_one(self):
        a = make_raw_image("a", [[1.0, 0.0]], [1.0])
        b = make_raw_image("b", [[1.0, 0.0]], [1.0])
        # 1 / (sqrt(1*1) * sqrt(1 + 0*0)) = 1
        assert image_similarity(a, b, outcome([1.0], [0])) == 1.0

    def test_no_pairs_is_zero(self):
        a = make_raw_image("a", [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.4])
        b = make_raw_image("b", [[1.0, 0.0]], [1.0])
        assert image_similarity(a, b, outcome([0.0, 0.0], [-1, -1])) == 0.0

    def test_two_by_two_single_pair(self):
        a = make_raw_image("a", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        b = make_raw_image("b", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        got = image_similarity(a, b, outcome([0.9, 0.0], [0, -1]))
        expected = 0.9 / (math.sqrt(4.0) * math.sqrt(0.9 ** 2 + 1.0 * 1.0))
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.33448) < 1e-5

    def test_identical_two_word_images(self):
        # Both words pair perfectly, yet the score is 1/sqrt(2), not 1:
        # multi-word self-similarity sits below 1 by design of the measure.
        a = make_raw_image("a", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        got = image_similarity(a, a, outcome([1.0, 1.0], [0, 1]))
        assert abs(got - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_matches_direct_arithmetic_reference(self):
        rng = np.random.RandomState(11)
        for _ in range(300):
            m = rng.randint(1, 10)
            n = rng.randint(1, 10)
            a = random_raw_image(rng, m, 4, "a")
            b = random_raw_image(rng, n, 4, "b")
            match = smin_match(a, b, 0.3)
            got = image_similarity(a, b, match)
            want = similarity_reference(a.weights, b.weights, match.pairs)
            assert abs(got - want) < 1e-12


class TestAsymmetry:
    def test_directional_scores_differ(self):
        a = ImageObject.from_words("a", [VisualWord(None, [1.0, 0.0], 1.0),
                                         VisualWord(None, [0.8, 0.6], 1.0)])
        b = ImageObject.from_words("b", [VisualWord(None, [1.0, 0.0], 1.0)])
        ab = smin_similarity(a, b, 0.7)
        ba = smin_similarity(b, a, 0.7)
        # Forward: pairs (1.0, 0.8), nothing unmatched on either side.
        assert abs(ab - 1.8 / (math.sqrt(2.0) * math.sqrt(1.0 + 0.64))) < 1e-9
        assert abs(ab - 0.99388) < 1e-5
        # Reverse: one perfect pair, one unmatched target word.
        assert abs(ba - 1.0 / math.sqrt(2.0)) < 1e-9
        assert abs(ba - 0.70711) < 1e-5
        assert ab != ba


class TestRangeAndMonotonicity:
    def test_score_stays_in_unit_interval(self):
        rng = np.random.RandomState(23)
        for _ in range(1000):
            m = rng.randint(1, 9)
            n = rng.randint(1, 9)
            a = random_raw_image(rng, m, 3, "a")
            b = random_raw_image(rng, n, 3, "b")
            mu0 = float(rng.uniform(0.0, 0.95))
            s = smin_similarity(a, b, mu0)
            assert 0.0 <= s <= 1.0

    def _instance_with_slack(self, rng):
        """Random pair where at least one A word is unmatched with headroom."""
        while True:
            a = random_raw_image(rng, rng.randint(2, 8), 3, "a")
            b = random_raw_image(rng, rng.randint(1, 8), 3, "b")
            match = smin_match(a, b, 0.6)
            unmatched = np.flatnonzero(match.mu == 0.0)
            if match.pair_count and unmatched.size and a.weights[unmatched[0]] < 0.9:
                return a, b, match, int(unmatched[0])

    def test_raising_unmatched_weight_strictly_decreases_score(self):
        rng = np.random.RandomState(29)
        for _ in range(200):
            a, b, match, i = self._instance_with_slack(rng)
            before = image_similarity(a, b, match)
            bumped = np.array(a.weights)
            bumped[i] = min(1.0, bumped[i] + 0.1)
            after = image_similarity(a.with_weights(bumped), b, match)
            assert after < before

    def test_appending_unmatched_word_strictly_decreases_score(self):
        rng = np.random.RandomState(31)
        for _ in range(200):
            a = random_raw_image(rng, rng.randint(1, 6), 3, "a")
            b = random_raw_image(rng, rng.randint(1, 6), 3, "b")
            match = smin_match(a, b, 0.5)
            if match.pair_count == 0:
                continue
            before = image_similarity(a, b, match)
            grown = ImageObject(
                image_id="a+", weights=np.append(a.weights, 0.5),
                vectors=np.vstack([a.vectors, rng.standard_normal(3)]))
            grown_match = MatchOutcome(
                a_indices=match.a_indices, b_indices=match.b_indices,
                lambdas=match.lambdas, mu=np.append(match.mu, 0.0),
                matched_b_ids=match.matched_b_ids)
            assert image_similarity(grown, b, grown_match) < before


class TestValidation:
    def test_empty_image_rejected(self):
        # An image has at least one word; the constructor is the one place
        # that checks it, so no matcher or scorer re-checks.
        with pytest.raises(DomainError, match="no words"):
            ImageObject(image_id="e", weights=np.zeros(0), vectors=np.zeros((0, 2)))

    def test_weights_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            make_raw_image("a", [[1.0, 0.0]], [1.5])
        with pytest.raises(DomainError):
            make_raw_image("a", [[1.0, 0.0]], [0.0])

    def test_match_image_mismatch_is_contract_error(self):
        a = make_raw_image("a", [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        b = make_raw_image("b", [[1.0, 0.0]], [1.0])
        with pytest.raises(ContractError):
            image_similarity(a, b, outcome([1.0], [0]))  # mu too short
        with pytest.raises(ContractError):
            image_similarity(a, b, outcome([1.0, 0.0], [3, -1]))  # b index out of range

    def test_visual_word_validation(self):
        with pytest.raises(DomainError):
            VisualWord(None, [1.0, 0.0], 0.0)
        with pytest.raises(DomainError):
            VisualWord(None, [float("nan"), 0.0], 1.0)
        with pytest.raises(DomainError):
            VisualWord(-3, [1.0, 0.0], 1.0)

    def test_vocabulary_requires_unit_vectors(self):
        with pytest.raises(DomainError):
            Vocabulary(vectors=np.array([[2.0, 0.0]]), frequencies=np.array([1]))
        with pytest.raises(DomainError):
            Vocabulary(vectors=np.array([[1.0, 0.0]]), frequencies=np.array([-1]))

    def test_match_outcome_validation(self):
        with pytest.raises(DomainError):
            MatchOutcome(a_indices=[0], b_indices=[0], lambdas=[0.0], mu=[0.0])
        with pytest.raises(ContractError):
            MatchOutcome(a_indices=[1, 0], b_indices=[0, 0], lambdas=[0.5, 0.5],
                         mu=[0.5, 0.5])
        with pytest.raises(ContractError):
            MatchOutcome(a_indices=[0], b_indices=[0], lambdas=[0.5], mu=[0.9])
        with pytest.raises(ContractError):
            MatchOutcome.from_arrays(np.array([0.5, 0.3]), np.array([0, -1]))
        with pytest.raises(ContractError):  # mu nonzero off the pairs
            MatchOutcome(a_indices=[0], b_indices=[0], lambdas=[0.5], mu=[0.5, 0.3])
        with pytest.raises(ContractError):
            MatchOutcome(a_indices=[0], b_indices=[-1], lambdas=[0.5], mu=[0.5])
        with pytest.raises(ContractError):
            MatchOutcome(a_indices=[0], b_indices=[1], lambdas=[0.5], mu=[0.5],
                         matched_b_ids={7})
        built = MatchOutcome(a_indices=[0, 2], b_indices=[1, 1], lambdas=[0.5, 0.8],
                             mu=[0.5, 0.0, 0.8])
        assert built == outcome([0.5, 0.0, 0.8], [1, -1, 1])
        assert built.matched_b_ids == frozenset({1})
        assert MatchOutcome(a_indices=[0, 2], b_indices=[1, 1], lambdas=[0.5, 0.8],
                            mu=[0.5, 0.0, 0.8], matched_b_ids=[1]) == built


class TestTypes:
    def test_vocab_backed_words_share_vocabulary_bits(self, tiny_vocab):
        img = ImageObject(image_id="x", weights=np.array([1.0, 0.5]),
                          word_ids=np.array([1, 2]), vocab=tiny_vocab)
        assert np.array_equal(img.vector_matrix()[0], tiny_vocab.vectors[1])
        words = img.words
        assert words[0].word_id == 1 and words[1].weight == 0.5

    def test_from_words_keeps_ids_when_all_present(self, tiny_vocab):
        img = ImageObject.from_words("x", [tiny_vocab.word(0), tiny_vocab.word(2, weight=0.3)])
        assert img.word_ids.tolist() == [0, 2]
        assert np.array_equal(img.vector_matrix()[1], tiny_vocab.vectors[2])

    def test_immutability(self, tiny_vocab):
        img = random_vocab_image(np.random.RandomState(0), tiny_vocab, 3)
        with pytest.raises(ValueError):
            img.weights[0] = 0.5
        with pytest.raises(ValueError):
            tiny_vocab.vectors[0, 0] = 2.0

    def test_vocab_checksum_distinguishes_vocabularies(self):
        rng = np.random.RandomState(7)
        v1 = random_vocab(rng, 8, 4)
        v2 = random_vocab(rng, 8, 4)
        assert v1.checksum != v2.checksum
        same = Vocabulary(vectors=v1.vectors, frequencies=v1.frequencies)
        assert same.checksum == v1.checksum
