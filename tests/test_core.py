import importlib
import math
import pkgutil
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import random_raw_image, random_vocab, random_vocab_image
from oracles import FNV1A_64_BASIS, fnv1a_64, similarity_reference

import vwsim
from vwsim import (
    ContractError,
    Dataset,
    DomainError,
    ImageObject,
    MatchOutcome,
    PsimIndex,
    VisualWord,
    Vocabulary,
    build_psmi_index,
    cosine,
    image_similarity,
    load_vocabulary,
    normalize_weights,
    psmi_similarity,
    save_vocabulary,
    smii_similarity,
    smin_match,
    smin_similarity,
)
from vwsim.core import _fnv1a, unit_rows


def make_raw_image(name, vectors, weights):
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float),
                       vectors=np.asarray(vectors, dtype=float))


def outcome(mu, partners):
    return MatchOutcome.from_arrays(np.asarray(mu, dtype=float), np.asarray(partners))


def traced_peak(call) -> int:
    """The peak of the memory ``tracemalloc`` traces while *call* runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _from_lists(frequencies, csr_offsets, csr_ids, csr_sims, **scalars):
    return PsimIndex.from_lists(frequencies, csr_offsets, csr_ids, csr_sims, **scalars)


def build(vocab, owner="image", **columns):
    """One of the types that take arrays, valid in every field but *columns*."""
    index = dict(mu0_build=0.5, vocab_checksum=0, dimension=2, frequencies=[1, 1],
                 csr_offsets=[0, 1, 2], csr_ids=[0, 1], csr_sims=[1.0, 1.0])
    make, fields = {
        "image": (ImageObject, dict(image_id="x", weights=np.ones(2), word_ids=[2, 0], vocab=vocab)),
        "raw image": (ImageObject, dict(image_id="x", weights=np.ones(2), vectors=np.eye(2))),
        "vocabulary": (Vocabulary, dict(vectors=np.eye(2), frequencies=[1, 1])),
        "outcome": (MatchOutcome, dict(mu=[0.5, 0.0], partners=[0, -1])),
        "word": (VisualWord, dict(word_id=1, vector=[1.0, 0.0], weight=1.0)),
        "index": (PsimIndex, index),
        "index.from_lists": (_from_lists, index),
    }[owner]
    return make(**{**fields, **columns})


def _first_as(kind):
    """Spoil a column by turning its first element into *kind*."""
    def spoil(column):
        column = np.array(column, dtype=object)
        column.flat[0] = kind(column.flat[0])
        return column.tolist()
    return spoil


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

    @pytest.mark.parametrize("bad", [[0.0, 1.0], [-1.0], [float("nan")], [float("inf")], [],
                                     ["1", "2"], [True, True]])
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


class TestUnderflowRefusal:
    """A pair whose score denominator underflows to 0 is refused, not divided by.

    Each pair below truly scores 1.0 (one pair, nothing unmatched; the score
    is scale-invariant), but a product of its tiny similarity or weights is 0.
    """

    def test_every_matcher_refuses_per_pair(self):
        # Cosine 1e-170 at mu0 = 0: lambda**2 underflows, so the penalty is 0.
        vocab = Vocabulary(vectors=[[1.0, 0.0], [1e-170, 1.0]], frequencies=[1, 1])
        a = ImageObject("a", [1.0], word_ids=[0], vocab=vocab)
        b = ImageObject("b", [1.0], word_ids=[1], vocab=vocab)
        # Weights 1e-170: the weight products and the mass term underflow.
        tiny_a = make_raw_image("a", [[1.0, 0.0]], [1e-170])
        tiny_b = make_raw_image("b", [[1.0, 0.0]], [1e-170])
        idx = build_psmi_index(vocab, 0.0)
        calls = [smin_similarity, smii_similarity, lambda a, b, mu0: psmi_similarity(a, b, mu0, idx)]
        for score in calls:
            with pytest.raises(DomainError, match="too small to score"):
                score(a, b, 0.0)
        for score in calls[:2]:
            with pytest.raises(DomainError, match="too small to score"):
                score(tiny_a, tiny_b, 0.5)


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
            grown_match = MatchOutcome(mu=np.append(match.mu, 0.0),
                                       partners=np.append(match.partners, -1))
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

    def test_zero_vector_rejected(self):
        # Rejected where the image is built, not later inside a matcher.
        with pytest.raises(DomainError, match="image 'z' has a zero vector"):
            make_raw_image("z", [[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0])

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

    @pytest.mark.parametrize("wid", [2.7, True, 1.0])
    def test_visual_word_id_refuses_non_integers(self, wid):
        with pytest.raises(DomainError, match="word id must be integers"):
            VisualWord(wid, [1.0, 0.0], 1.0)

    def test_numpy_integer_word_ids_accepted(self):
        assert VisualWord(np.int64(2), [1.0, 0.0], 1.0).word_id == 2

    def test_vocabulary_requires_unit_vectors(self):
        with pytest.raises(DomainError):
            Vocabulary(vectors=np.array([[2.0, 0.0]]), frequencies=np.array([1]))
        with pytest.raises(DomainError):
            Vocabulary(vectors=np.array([[1.0, 0.0]]), frequencies=np.array([-1]))

    @pytest.mark.parametrize("column, columns", [
        ("word ids", dict(word_ids=[2.7, 0.2])),
        ("word ids", dict(word_ids=[1.0, 0.0])),
        ("word ids", dict(word_ids=np.array([1.0, 0.0]))),
        ("word ids", dict(word_ids=np.array([2, 0.5], dtype=object))),
        ("word ids", dict(word_ids=["2", "0"])),
        ("word ids", dict(word_ids=[True, False])),
        ("word ids", dict(word_ids=np.array([True, False]))),
        ("occurrence counts", dict(word_ids=[2, 0], counts=[1.9, 3.5])),
        ("occurrence counts", dict(word_ids=[2, 0], counts=[1.0, 3.0])),
        ("occurrence counts", dict(word_ids=[2, 0], counts=[True, 2])),
        ("occurrence counts", dict(word_ids=[2, 0], counts=["1", "3"])),
        ("partners", dict(owner="outcome", partners=[0.7, -1])),
        ("partners", dict(owner="outcome", partners=[True, -1])),
        ("csr_ids", dict(owner="index", csr_ids=[0.0, 1.9])),
        ("csr_ids", dict(owner="index.from_lists", csr_ids=[0.0, 1.9])),
    ])
    def test_integer_columns_refuse_non_integers(self, tiny_vocab, column, columns):
        # Truncating or parsing would turn a wrong column into a plausible one.
        with pytest.raises(DomainError, match=f"{column} must be integers"):
            build(tiny_vocab, **columns)

    @pytest.mark.parametrize("spoil", [_first_as(str), _first_as(bool), lambda c: np.asarray(c, bool)],
                             ids=["string", "bool", "bool array"])
    @pytest.mark.parametrize("column, owner, field", [
        ("weights", "raw image", "weights"),
        ("image vectors", "raw image", "vectors"),
        ("vocabulary vectors", "vocabulary", "vectors"),
        ("mu", "outcome", "mu"),
        ("csr_sims", "index", "csr_sims"),
    ])
    def test_float_columns_refuse_bool_and_string_values(self, tiny_vocab, column, owner, field,
                                                         spoil):
        # "1.0" and True would otherwise be read as 1.0, and False as 0.0.
        valid = build(tiny_vocab, owner)
        with pytest.raises(DomainError, match=f"{column} must be numbers, not bool or string"):
            build(tiny_vocab, owner, **{field: spoil(getattr(valid, field))})

    @pytest.mark.parametrize("column, call", [
        ("feature vector", lambda: cosine(["1", "0"], [1.0, 0.0])),
        ("feature vector", lambda: VisualWord(None, [True, False], 1.0)),
        ("word weight", lambda: VisualWord(0, [1.0, 0.0], "0.5")),
        ("word weight", lambda: VisualWord(0, [1.0, 0.0], True)),
    ])
    def test_word_values_refuse_bool_and_string_values(self, column, call):
        with pytest.raises(DomainError, match=f"{column} must be numbers, not bool or string"):
            call()

    @pytest.mark.parametrize("freqs", [[1.5, 1.5], [1.0, 3.0], [True, True], ["1", "3"]])
    def test_frequencies_refuse_non_integers(self, freqs):
        with pytest.raises(DomainError, match="frequencies must be integers"):
            Vocabulary(vectors=np.eye(2), frequencies=freqs)

    def test_from_words_passes_counts_to_the_constructor(self, tiny_vocab):
        words = [VisualWord(i, tiny_vocab.vectors[i], 1.0) for i in (0, 2)]
        with pytest.raises(DomainError, match="occurrence counts must be integers"):
            ImageObject.from_words("x", words, counts=[1.5, 2.0])
        assert ImageObject.from_words("x", words, counts=[1, 2]).counts.tolist() == [1, 2]

    def test_unsigned_integers_past_int64_refused_not_wrapped(self, tiny_vocab):
        big = np.array([2 ** 63, 0], dtype=np.uint64)
        with pytest.raises(DomainError, match="word ids must fit in int64"):
            ImageObject(image_id="x", weights=np.ones(2), word_ids=big, vocab=tiny_vocab)
        with pytest.raises(DomainError, match="occurrence counts must fit in int64"):
            ImageObject(image_id="x", weights=np.ones(2), word_ids=[0, 1], vocab=tiny_vocab,
                        counts=np.array([1, 2 ** 64 - 1], dtype=np.uint64))
        with pytest.raises(DomainError, match="frequencies must fit in int64"):
            Vocabulary(vectors=np.eye(2), frequencies=big)
        with pytest.raises(DomainError, match="frequencies must fit in int64"):
            Vocabulary(vectors=np.eye(2), frequencies=[-1, 2 ** 63])

    def test_integer_columns_accept_any_integer_type(self, tiny_vocab):
        for ids in ([2, 0], (2, 0), [np.int32(2), 0], np.array([2, 0], dtype=np.uint8),
                    np.array([2, 0], dtype=object)):
            img = ImageObject(image_id="x", weights=np.ones(2), word_ids=ids, vocab=tiny_vocab,
                              counts=np.asarray(ids) + 1)
            assert img.word_ids.dtype == img.counts.dtype == np.int64
            assert img.word_ids.tolist() == [2, 0] and img.counts.tolist() == [3, 1]
        freqs = np.array([2 ** 63 - 1, 0], dtype=np.uint64)
        assert Vocabulary(vectors=np.eye(2), frequencies=freqs).frequencies.tolist() == [2 ** 63 - 1, 0]

    @pytest.mark.parametrize("column, columns", [
        *[(column, dict(owner=owner, **{field: bad}))
          for column, owner, field, valid in [
              ("weights", "raw image", "weights", [1.0, 1.0]),
              ("image vectors", "raw image", "vectors", np.eye(2)),
              ("word ids", "image", "word_ids", [2, 0]),
              ("occurrence counts", "image", "counts", [1, 1]),
              ("vocabulary vectors", "vocabulary", "vectors", np.eye(2)),
              ("frequencies", "vocabulary", "frequencies", [1, 1]),
              ("mu", "outcome", "mu", [0.5, 0.0]),
              ("partners", "outcome", "partners", [0, -1]),
              *[(name, owner, name, valid) for owner in ("index", "index.from_lists")
                for name, valid in [("frequencies", [1, 1]), ("csr_offsets", [0, 1, 2]),
                                    ("csr_ids", [0, 1]), ("csr_sims", [1.0, 1.0])]],
          ]
          # A scalar, and the valid column with an extra axis.
          for bad in (np.asarray(valid).flat[0].item(), np.asarray(valid)[..., None])],
        ("word ids", dict(word_ids=[2])),
        ("occurrence counts", dict(counts=[1, 1, 1])),
        ("partners", dict(owner="outcome", partners=[0])),
        ("csr_offsets", dict(owner="index", csr_offsets=[0, 1])),
        ("csr_offsets", dict(owner="index.from_lists", csr_offsets=[0, 1, 2, 2])),
        ("csr_sims", dict(owner="index", csr_sims=[1.0])),
        ("csr_sims", dict(owner="index.from_lists", csr_sims=[1.0, 1.0, 1.0])),
        ("word id", dict(owner="word", word_id=[[1]])),
        ("word weight", dict(owner="word", weight=[0.5])),
    ])
    def test_columns_refuse_a_wrong_shape(self, tiny_vocab, column, columns):
        # A scalar is not a one-element column, and a column that does not
        # align with the others would be read against the wrong words.
        with pytest.raises(ContractError, match=f"^{column} must have shape"):
            build(tiny_vocab, **columns)

    def test_a_refused_scalar_is_named_without_an_index(self):
        with pytest.raises(DomainError, match=r"; word id is 2\.7$"):
            VisualWord(2.7, [1.0, 0.0], 1.0)

    def test_match_outcome_validation(self):
        with pytest.raises(ContractError):  # misaligned
            MatchOutcome(mu=[0.5, 0.0], partners=[0])
        for bad_mu in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                MatchOutcome(mu=[bad_mu], partners=[0])
        with pytest.raises(ContractError):  # a partner below -1
            MatchOutcome(mu=[0.0], partners=[-2])
        with pytest.raises(ContractError):  # a partner with mu == 0
            MatchOutcome(mu=[0.0], partners=[0])
        with pytest.raises(ContractError):  # mu > 0 without a partner
            MatchOutcome(mu=[0.5, 0.3], partners=[0, -1])
        built = MatchOutcome(mu=[0.5, 0.0, 0.8], partners=[1, -1, 1])
        assert built == outcome([0.5, 0.0, 0.8], [1, -1, 1])
        assert built.matched_b_ids == frozenset({1})
        assert built.a_indices.tolist() == [0, 2]
        hit = np.flatnonzero(built.partners >= 0)
        for view, want in ((built.a_indices, hit), (built.b_indices, built.partners[hit]),
                           (built.lambdas, built.mu[hit])):
            assert not view.flags.writeable and np.array_equal(view, want)

    def test_image_id_must_be_a_non_empty_string(self):
        # An image that save_images could write must be one load_images reads.
        for bad in (5, ""):
            with pytest.raises(DomainError, match="image_id"):
                make_raw_image(bad, [[1.0, 0.0]], [1.0])


class TestTypes:
    def test_vocab_backed_words_share_vocabulary_bits(self, tiny_vocab):
        img = ImageObject(image_id="x", weights=np.array([1.0, 0.5]),
                          word_ids=np.array([1, 2]), vocab=tiny_vocab)
        assert np.array_equal(img.vector_matrix()[0], tiny_vocab.vectors[1])

    def test_from_words_makes_a_raw_image_even_from_vocabulary_rows(self, tiny_vocab):
        words = [VisualWord(i, tiny_vocab.vectors[i], w) for i, w in ((0, 1.0), (2, 0.3))]
        img = ImageObject.from_words("x", words)
        assert img.word_ids is None and img.vocab is None
        assert np.array_equal(img.vectors, tiny_vocab.vectors[[0, 2]])
        assert img.weights.tolist() == [1.0, 0.3]

    @pytest.mark.parametrize("columns", [
        dict(word_ids=[0, 2], vectors=np.eye(2)),
        dict(word_ids=[0, 2]),
        dict(vectors=np.eye(2), vocab="tiny"),
        dict(word_ids=[0, 2], vectors=np.eye(2), vocab="tiny"),
        dict(vocab="tiny"),
        dict(),
    ], ids=["ids and vectors", "ids without vocabulary", "vectors with vocabulary",
            "all three", "vocabulary alone", "nothing"])
    def test_an_image_is_raw_or_vocabulary_backed_never_both(self, tiny_vocab, columns):
        columns = {k: tiny_vocab if k == "vocab" else v for k, v in columns.items()}
        with pytest.raises(ContractError, match="image 'x' must hold either inline vectors, "
                                                "or word ids with their vocabulary, not both"):
            ImageObject("x", np.ones(2), **columns)

    def test_immutability(self, tiny_vocab):
        img = random_vocab_image(np.random.RandomState(0), tiny_vocab, 3)
        with pytest.raises(ValueError):
            img.weights[0] = 0.5
        with pytest.raises(ValueError):
            tiny_vocab.vectors[0, 0] = 2.0

    def test_constructors_leave_the_callers_arrays_writeable(self, tiny_vocab):
        w, e = np.ones(2), np.eye(2)
        ids, counts = np.array([0, 2]), np.array([1, 3])
        raw = ImageObject("x", w, vectors=e, counts=counts)
        coded = ImageObject("y", w, word_ids=ids, vocab=tiny_vocab)
        vectors, freqs = tiny_vocab.vectors.copy(), tiny_vocab.frequencies.copy()
        vocab = Vocabulary(vectors=vectors, frequencies=freqs)
        mu, partners = np.array([0.5, 0.0]), np.array([1, -1])
        match = MatchOutcome(mu, partners)
        view = np.ones(3)[1:]
        from_view = ImageObject("z", view, vectors=np.eye(2))
        lists = np.array([1, 1]), np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 1.0])
        index = PsimIndex(0.5, 0, 2, *lists)
        listed = PsimIndex.from_lists(*lists, 0.5, 0, 2)
        for arr in (w, e, ids, counts, vectors, freqs, mu, partners, view, *lists):
            assert arr.flags.writeable
            arr[...] = 0
        assert raw.weights.tolist() == [1.0, 1.0] and raw.vectors.tolist() == [[1, 0], [0, 1]]
        assert raw.counts.tolist() == [1, 3] and coded.word_ids.tolist() == [0, 2]
        assert np.array_equal(vocab.vectors, tiny_vocab.vectors)
        assert np.array_equal(vocab.frequencies, tiny_vocab.frequencies)
        assert match.mu.tolist() == [0.5, 0.0] and match.partners.tolist() == [1, -1]
        assert from_view.weights.tolist() == [1.0, 1.0]
        for built in (index, listed):
            assert built.frequencies.tolist() == [1, 1] and built.csr_offsets.tolist() == [0, 1, 2]
            assert built.csr_ids.tolist() == [0, 1] and built.csr_sims.tolist() == [1.0, 1.0]

    def test_types_compare_and_hash_by_identity(self, tiny_vocab):
        img = ImageObject("x", np.ones(2), word_ids=[0, 2], vocab=tiny_vocab)
        twin = ImageObject("x", np.ones(2), word_ids=[0, 2], vocab=tiny_vocab)
        pairs = [(img, twin),
                 (tiny_vocab, Vocabulary(tiny_vocab.vectors, tiny_vocab.frequencies)),
                 tuple(VisualWord(1, tiny_vocab.vectors[1], 1.0) for _ in range(2)),
                 (Dataset.from_images((img,)), Dataset.from_images((img,)))]
        for obj, copy in pairs:
            assert obj == obj and obj != copy
            assert obj in [copy, obj] and copy not in [obj]
            assert len({obj, copy, obj}) == 2 and hash(obj) == object.__hash__(obj)

    def test_vocab_checksum_distinguishes_vocabularies(self):
        rng = np.random.RandomState(7)
        v1 = random_vocab(rng, 8, 4)
        v2 = random_vocab(rng, 8, 4)
        assert v1.checksum != v2.checksum
        same = Vocabulary(vectors=v1.vectors, frequencies=v1.frequencies)
        assert same.checksum == v1.checksum


@pytest.mark.parametrize("module", ["vwsim"] + [f"vwsim.{info.name}"
                                                for info in pkgutil.iter_modules(vwsim.__path__)])
def test_every_export_resolves(module):
    """A name left in ``__all__`` after its object is gone fails here, not in a caller's code."""
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


class TestChecksum:
    # Lengths on each side of the 64-bit word, the 4096-byte power block and
    # the 64 KiB chunk of core._fnv1a.
    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 4095, 4096, 4097,
                                        65535, 65536, 65537, 100_003])
    def test_fnv1a_matches_the_byte_loop(self, length):
        data = np.random.RandomState(length).randint(0, 256, length).astype(np.uint8)
        assert _fnv1a(FNV1A_64_BASIS, data) == fnv1a_64(data)

    @pytest.mark.parametrize("byte", [0x00, 0xFF, 0xB3])
    def test_fnv1a_on_constant_payloads(self, byte):
        data = bytes([byte]) * 70_001
        assert _fnv1a(FNV1A_64_BASIS, data) == fnv1a_64(data)

    @pytest.mark.parametrize("state", [0, 1, 0xFF, 0x0123456789ABCDEF, 2**64 - 1])
    def test_fnv1a_from_another_state(self, state):
        data = np.random.RandomState(state % 2**32).randint(0, 256, 70_001).astype(np.uint8)
        assert _fnv1a(state, data) == fnv1a_64(data, state)

    @pytest.mark.parametrize("size, dim", [(1, 1), (1, 5), (7, 3), (1024, 16), (4096, 8)])
    def test_vocabulary_checksum_hashes_the_canonical_payload(self, size, dim):
        rng = np.random.RandomState(size + dim)
        vocab = Vocabulary(vectors=unit_rows(rng.standard_normal((size, dim))),
                           frequencies=np.r_[2**62, rng.randint(0, 2**62, size - 1, dtype=np.int64)])
        payload = struct.pack("<II", size, dim) + b"".join(
            struct.pack(f"<IQ{dim}d", i, freq, *vec)
            for i, (freq, vec) in enumerate(zip(vocab.frequencies.tolist(), vocab.vectors.tolist())))
        assert vocab.checksum == fnv1a_64(payload)

    def test_checksum_works_in_bounded_memory(self):
        # K = 10 000, d = 16 is a 1.4 MB payload; hashed in one pass, its
        # temporaries would peak near 28 MiB.
        vocab = random_vocab(np.random.RandomState(10_016), 10_000, 16)
        assert traced_peak(lambda: vocab.checksum) < 8 << 20

    def test_index_build_works_in_bounded_memory(self):
        # Its temporaries are the 1 MiB float32 tile, the candidates and the
        # 97 k entries laid out by two stable sorts; one 4 M-value tile and a
        # four-key sort peaked near 21 MiB.
        vocab = random_vocab(np.random.RandomState(10_016), 10_000, 16)
        vocab.unit_matrix, vocab.checksum
        assert traced_peak(lambda: build_psmi_index(vocab, 0.7)) < 16 << 20

    def test_vocabulary_loads_in_bounded_memory(self, tmp_path):
        # The 3.7 MB file is read line by line; holding its text and the
        # text's lines as well peaked near 14.4 MiB.
        path = tmp_path / "vocab.jsonl"
        save_vocabulary(random_vocab(np.random.RandomState(10_016), 10_000, 16), path)
        assert traced_peak(lambda: load_vocabulary(path)) < 12 << 20

