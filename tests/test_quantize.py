import math
import tracemalloc

import numpy as np
import pytest

from vwsim import (ContractError, Dataset, DomainError, ImageObject, Vocabulary, assign_words,
                   kmeans_quantize, tfidf_weights, zipf_probabilities)
from vwsim.core import unit_rows
from vwsim.quantize import _ASSIGN_ROWS, _count_images, _spherical_kmeans

from oracles import count_images_reference, lloyd_reference, tfidf_reference


def _raw(feature_sets):
    """One raw dataset of the sets, image ``img{i}`` holding set ``i``'s rows."""
    lengths = [len(f) for f in feature_sets]
    return Dataset([f"img{i}" for i in range(len(lengths))], np.cumsum([0] + lengths),
                   np.ones(sum(lengths)), vectors=np.concatenate(feature_sets))


def count_image(vocab, name, ids, counts):
    ids = np.asarray(ids)
    counts = np.asarray(counts)
    return ImageObject(image_id=name, weights=counts / counts.max(),
                       word_ids=ids, vocab=vocab, counts=counts)


class TestTfidf:
    def test_two_image_corpus_derived_values(self, tiny_vocab):
        # Image 1 has word 0 twice (df 2) and word 1 once (df 1).
        dataset = Dataset.from_images((
            count_image(tiny_vocab, "a", [0, 1], [2, 1]),
            count_image(tiny_vocab, "b", [0], [1]),
        ), vocab=tiny_vocab)
        out = tfidf_weights(dataset)
        raw_w1 = 1.0 * math.log(1.0 + 2.0 / 2.0)
        raw_w2 = 0.5 * math.log(1.0 + 2.0 / 1.0)
        assert abs(raw_w1 - 0.693) < 1e-3 and abs(raw_w2 - 0.549) < 1e-3
        weights = out.images[0].weights
        assert weights[0] == 1.0
        assert abs(weights[1] - raw_w2 / raw_w1) < 1e-12
        assert abs(weights[1] - 0.7925) < 1e-3

    def test_uniform_corpus_gives_unit_weights(self, tiny_vocab):
        dataset = Dataset.from_images((
            count_image(tiny_vocab, "a", [0, 1, 2], [3, 3, 3]),
            count_image(tiny_vocab, "b", [0, 1, 2], [3, 3, 3]),
        ), vocab=tiny_vocab)
        out = tfidf_weights(dataset)
        for img in out.images:
            assert img.weights.tolist() == [1.0, 1.0, 1.0]

    def test_single_word_image(self, tiny_vocab):
        dataset = Dataset.from_images((count_image(tiny_vocab, "a", [2], [7]),), vocab=tiny_vocab)
        assert tfidf_weights(dataset).images[0].weights.tolist() == [1.0]

    def test_output_in_unit_interval(self, tiny_vocab):
        rng = np.random.RandomState(163)
        images = []
        for i in range(30):
            ids = np.unique(rng.randint(0, 3, size=rng.randint(1, 4)))
            counts = rng.randint(1, 9, size=ids.size)
            images.append(count_image(tiny_vocab, f"img{i}", ids, counts))
        out = tfidf_weights(Dataset.from_images(tuple(images), vocab=tiny_vocab))
        for img in out.images:
            assert np.all(img.weights > 0.0) and np.all(img.weights <= 1.0)
            assert img.weights.max() == 1.0

    def test_repeated_ids_aggregate(self, tiny_vocab):
        img = ImageObject(image_id="a", weights=np.array([1.0, 1.0, 0.5]),
                          word_ids=np.array([1, 1, 0]), vocab=tiny_vocab,
                          counts=np.array([1, 1, 1]))
        out = tfidf_weights(Dataset.from_images((img,), vocab=tiny_vocab))
        merged = out.images[0]
        assert merged.word_ids.tolist() == [0, 1]
        assert merged.counts.tolist() == [1, 2]

    def test_an_images_id_order_does_not_matter(self, tiny_vocab):
        # Every output image holds its distinct ids ascending, so permuting
        # one image's ids (with their counts) leaves the whole output alone.
        ids, counts = np.array([0, 1, 2]), np.array([3, 1, 2])

        def columns(order):
            out = tfidf_weights(Dataset.from_images((
                count_image(tiny_vocab, "a", ids[order], counts[order]),
                count_image(tiny_vocab, "b", [1], [1]),
            ), vocab=tiny_vocab))
            return out.word_ids.tolist(), out.counts.tolist(), out.offsets.tolist(), out.weights.tobytes()

        ascending = columns([0, 1, 2])
        assert ascending[:3] == ([0, 1, 2, 1], [3, 1, 2, 1], [0, 3, 4])
        for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0], [0, 2, 1]):
            assert columns(order) == ascending

    def test_requires_counts(self, tiny_vocab):
        img = ImageObject(image_id="a", weights=np.array([1.0]),
                          word_ids=np.array([0]), vocab=tiny_vocab)
        with pytest.raises(DomainError):
            tfidf_weights(Dataset.from_images((img,), vocab=tiny_vocab))

    def test_requires_word_ids(self):
        img = ImageObject(image_id="a", weights=np.array([1.0]),
                          vectors=np.array([[1.0, 0.0]]), counts=np.array([1]))
        with pytest.raises(DomainError):
            tfidf_weights(Dataset.from_images((img,)))

    def test_requires_an_image(self):
        # A dataset holds at least one image, so tf-idf never sees an empty one.
        with pytest.raises(DomainError, match="a dataset needs at least one image"):
            tfidf_weights(Dataset.from_images(()))


def _zipf_corpus(size, seed):
    rng = np.random.RandomState(seed)
    lengths = rng.randint(1, 41, size=60)
    return size, np.split(rng.choice(size, size=lengths.sum(), p=zipf_probabilities(size, 1.1)),
                          np.cumsum(lengths)[:-1]), None


# (vocabulary size, per-image word ids, per-image occurrence counts or None)
COUNTING_CASES = {
    "zipf_k64": _zipf_corpus(64, 191),
    "zipf_k1024": _zipf_corpus(1024, 193),
    "repeated_ids": (8, [[3, 1, 3, 3], [2, 2], [5, 0, 5, 1, 0]], None),
    "one_word_images": (8, [[5], [0], [5], [7]], None),
    "id_in_every_image": (8, [[7, 1], [2, 7, 7], [7], [0, 7, 3]], None),
    "loaded_counts_summed": (8, [[4, 2, 4], [4], [6, 6, 1, 6]], [[3, 5, 6], [2], [1, 4, 9, 2]]),
}


@pytest.mark.parametrize("case", list(COUNTING_CASES))
class TestCountingOracle:
    """Whole-corpus counting and tf-idf against the per-image reference, bit for bit."""

    @staticmethod
    def columns(case):
        size, id_lists, count_lists = COUNTING_CASES[case]
        vocab = Vocabulary(vectors=unit_rows(np.random.RandomState(size).standard_normal((size, 4))),
                           frequencies=np.ones(size, dtype=np.int64))
        offsets = np.cumsum([0] + [len(ids) for ids in id_lists])
        counts = None if count_lists is None else np.concatenate(count_lists).astype(np.int64)
        names = [f"img{i}" for i in range(len(id_lists))]
        return vocab, names, offsets, np.concatenate(id_lists).astype(np.int64), counts

    @staticmethod
    def assert_same_bits(dataset, expected):
        ids, counts, offsets, weights = expected
        assert np.array_equal(dataset.word_ids, ids)
        assert np.array_equal(dataset.counts, counts)
        assert np.array_equal(dataset.offsets, offsets)
        assert dataset.weights.tobytes() == weights.tobytes()

    def test_count_images(self, case):
        vocab, names, offsets, word_ids, counts = self.columns(case)
        self.assert_same_bits(_count_images(names, offsets, word_ids, vocab, counts),
                              count_images_reference(offsets, word_ids, counts))

    def test_tfidf(self, case):
        vocab, names, offsets, word_ids, counts = self.columns(case)
        if counts is None:
            counts = np.random.RandomState(197).randint(1, 6, size=word_ids.size)
        dataset = Dataset(names, offsets, np.ones(word_ids.size), word_ids=word_ids, counts=counts,
                          vocab=vocab)
        self.assert_same_bits(tfidf_weights(dataset), tfidf_reference(offsets, word_ids, counts))


class TestKmeans:
    def test_two_points_two_clusters(self):
        vocab, dataset = kmeans_quantize(_raw([np.array([[1.0, 0.0], [0.0, 1.0]])]), 2, seed=0)
        assert vocab.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert vocab.frequencies.tolist() == [1, 1]
        assert dataset.images[0].word_ids.tolist() == [0, 1]

    def test_duplicate_point_frequencies(self):
        vocab, dataset = kmeans_quantize(
            _raw([np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]), 2, seed=5)
        assert vocab.vectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert vocab.frequencies.tolist() == [2, 1]
        img = dataset.images[0]
        assert img.word_ids.tolist() == [0, 1]
        assert img.counts.tolist() == [2, 1]
        assert img.weights.tolist() == [1.0, 0.5]

    def test_same_seed_same_vocabulary(self):
        rng = np.random.RandomState(167)
        feats = [rng.standard_normal((30, 6)) for _ in range(4)]
        va, _ = kmeans_quantize(_raw(feats), 8, seed=42)
        vb, _ = kmeans_quantize(_raw(feats), 8, seed=42)
        assert np.array_equal(va.vectors, vb.vectors)
        assert np.array_equal(va.frequencies, vb.frequencies)

    def test_objective_non_decreasing(self):
        rng = np.random.RandomState(173)
        points = np.vstack([rng.standard_normal((40, 5)) + c for c in (0.0, 4.0, -4.0)])
        from vwsim.core import unit_rows
        _, _, history = _spherical_kmeans(unit_rows(points), 3, np.random.RandomState(1))
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))

    def test_fewer_points_than_clusters(self):
        with pytest.raises(DomainError):
            kmeans_quantize(_raw([np.array([[1.0, 0.0]])]), 2, seed=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_k(self, k):
        with pytest.raises(DomainError):
            kmeans_quantize(_raw([np.array([[1.0, 0.0], [0.0, 1.0]])]), k, seed=0)

    def test_frequencies_sum_to_point_count(self):
        rng = np.random.RandomState(179)
        feats = [rng.standard_normal((rng.randint(5, 20), 4)) for _ in range(5)]
        total = sum(f.shape[0] for f in feats)
        vocab, dataset = kmeans_quantize(_raw(feats), 6, seed=9)
        assert int(vocab.frequencies.sum()) == total
        assert sum(int(img.counts.sum()) for img in dataset.images) == total

    def test_golden_codebook(self):
        # Pins centroid bits, frequencies and per-image words of a clustered
        # input on which Lloyd runs 13 rounds before it settles.
        import hashlib

        from vwsim.core import unit_rows
        rng = np.random.RandomState(181)
        centers = rng.standard_normal((6, 8))
        feats = [centers[rng.randint(0, 6, 50)] + 0.6 * rng.standard_normal((50, 8))
                 for _ in range(8)]
        _, _, history = _spherical_kmeans(unit_rows(np.concatenate(feats)), 12,
                                          np.random.RandomState(3))
        assert len(history) == 14
        vocab, dataset = kmeans_quantize(_raw(feats), 12, seed=3)
        digest = hashlib.sha256(vocab.vectors.tobytes() + vocab.frequencies.tobytes())
        for img in dataset.images:
            digest.update(img.word_ids.tobytes() + img.counts.tobytes())
        assert digest.hexdigest() == "6accef5f48058870881d9ad72234a67378d3fe435ee7fe3a4b3874080bde3fc6"

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    @pytest.mark.parametrize("n, d, k", [(900, 1, 6), (2000, 3, 12), (3000, 17, 40), (500, 64, 9)])
    def test_lloyd_rounds_equal_the_add_at_loop(self, n, d, k, noise):
        # Every round's sums, and so the centroids, assignment and history,
        # keep the bits of summing each cluster with ``np.add.at``. Column 1
        # is -0.0 throughout, and its sums must stay +0.0, as from 0.0. With
        # no noise the input holds at most k - 2 distinct rows, so at least
        # two centroids start on copies and their clusters stay empty; with
        # noise Lloyd runs for several rounds.
        rng = np.random.RandomState(271 + d)
        rows = rng.standard_normal((k - 2, d)) * 2.0 ** rng.randint(-20, 20, (k - 2, 1))
        points = rows[rng.randint(0, k - 2, n)] + noise * rng.standard_normal((n, d))
        if d > 1:
            points[:, 1] = -0.0
        points = unit_rows(points)
        got = _spherical_kmeans(points, k, np.random.RandomState(5))
        want = lloyd_reference(points, k, np.random.RandomState(5))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist() and got[2] == want[2]
        if noise == 0.0:
            assert (np.bincount(got[1], minlength=k) == 0).sum() >= 2
        elif d > 1:
            assert len(got[2]) > 3

    def test_intake_copies_the_descriptor_matrix_once(self):
        # The loaded column is clustered as it is: only its unit rows are a
        # second matrix, so the traced peak stays below two of it.
        rng = np.random.RandomState(199)
        centers = rng.standard_normal((4, 32))
        points = centers[rng.randint(0, 4, 50_000)] + 0.3 * rng.standard_normal((50_000, 32))
        raw = _raw(np.split(points, 100))
        tracemalloc.start()
        try:
            kmeans_quantize(raw, 4, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * raw.vectors.nbytes

    def test_refuses_a_vocabulary_backed_dataset(self, tiny_vocab):
        words = Dataset(("a",), [0, 2], np.ones(2), word_ids=[0, 2], vocab=tiny_vocab)
        with pytest.raises(DomainError, match="the dataset's images have no inline descriptors"):
            kmeans_quantize(words, 2, seed=0)

    def test_final_assignment_equals_the_unblocked_argmax(self):
        # Two full blocks and five rows more, so the last block overlaps.
        rng = np.random.RandomState(263)
        points = unit_rows(rng.standard_normal((2 * _ASSIGN_ROWS + 5, 6)))
        centroids, assignment, history = _spherical_kmeans(points, 20, np.random.RandomState(4))
        scores = points @ centroids.T
        assert np.array_equal(assignment, np.argmax(scores, axis=1))
        assert history[-1] == float(scores.max(axis=1).mean())

    def test_scores_held_at_once_are_bounded_by_the_block(self):
        # Eight blocks of descriptors: the full score matrix would be eight
        # times a block's, but every Lloyd round holds one block's at a time.
        rng = np.random.RandomState(269)
        k, d = 128, 4
        raw = _raw(np.array_split(rng.standard_normal((8 * _ASSIGN_ROWS, d)), 64))
        tracemalloc.start()
        try:
            kmeans_quantize(raw, k, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _ASSIGN_ROWS * k * 8 + 3 * raw.vectors.nbytes

    def test_images_keep_their_ids_and_descriptor_counts(self):
        rng = np.random.RandomState(211)
        raw = Dataset(("harbor", "street_day", "alley"), [0, 7, 8, 20], np.ones(20),
                      vectors=rng.standard_normal((20, 3)))
        _, dataset = kmeans_quantize(raw, 5, seed=1)
        assert dataset.image_ids == raw.image_ids
        assert [int(img.counts.sum()) for img in dataset.images] == np.diff(raw.offsets).tolist()


class TestAssign:
    def test_assigns_nearest_word(self, tiny_vocab):
        raw = _raw([np.array([[0.9, 0.1], [0.1, 2.0]]), np.array([[0.75, 0.65]])])
        dataset = assign_words(tiny_vocab, raw)
        assert dataset.image_ids == ("img0", "img1")
        assert dataset.word_ids.tolist() == [0, 2, 1]
        assert dataset.counts.tolist() == [1, 1, 1]
        assert dataset.offsets.tolist() == [0, 2, 3]

    def test_dimension_mismatch(self, tiny_vocab):
        with pytest.raises(DomainError, match=r"^descriptor dimension 3 != vocabulary dimension 2$"):
            assign_words(tiny_vocab, _raw([np.array([[1.0, 0.0, 0.0]])]))

    @pytest.mark.parametrize("rows, descriptor, word", [
        pytest.param([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], 0, id="words_at_equal_cosine"),
        pytest.param([[0.0, 1.0], [0.6, 0.8], [0.6, 0.8]], [3.0, 4.0], 1, id="identical_words"),
    ])
    def test_exact_tie_takes_the_smallest_id(self, rows, descriptor, word):
        vocab = Vocabulary(vectors=np.array(rows), frequencies=np.ones(len(rows), dtype=np.int64))
        scores = unit_rows(np.array([descriptor])) @ vocab.unit_matrix.T
        assert scores[0, word] == scores[0].max() == scores[0, word + 1]
        dataset = assign_words(vocab, _raw([np.array([descriptor])]))
        assert dataset.word_ids.tolist() == [word] and dataset.counts.tolist() == [1]

    @pytest.mark.parametrize("seed", [227, 229, 233])
    def test_matches_the_per_image_count_of_brute_force_nearest_ids(self, seed):
        rng = np.random.RandomState(seed)
        vocab = Vocabulary(vectors=unit_rows(rng.standard_normal((12, 5))),
                           frequencies=np.ones(12, dtype=np.int64))
        raw = _raw([rng.standard_normal((rng.randint(1, 30), 5)) for _ in range(9)])
        nearest = []
        for row in unit_rows(raw.vectors):
            scores = [float(row @ word) for word in vocab.unit_matrix]
            nearest.append(scores.index(max(scores)))
        TestCountingOracle.assert_same_bits(
            assign_words(vocab, raw), count_images_reference(raw.offsets, np.array(nearest)))

    def test_equals_the_counts_kmeans_returns_for_its_own_vocabulary(self):
        rng = np.random.RandomState(239)
        raw = _raw([rng.standard_normal((rng.randint(3, 15), 4)) for _ in range(7)])
        vocab, counted = kmeans_quantize(raw, 5, seed=2)
        TestCountingOracle.assert_same_bits(
            assign_words(vocab, raw), (counted.word_ids, counted.counts, counted.offsets, counted.weights))

    def test_intake_copies_the_descriptor_matrix_once(self):
        # The loaded column is assigned as it is: only its unit rows are a
        # second matrix, so the traced peak stays well below two of it.
        rng = np.random.RandomState(241)
        vocab = Vocabulary(vectors=unit_rows(rng.standard_normal((4, 32))),
                           frequencies=np.ones(4, dtype=np.int64))
        raw = _raw(np.split(rng.standard_normal((50_000, 32)), 100))
        tracemalloc.start()
        try:
            assign_words(vocab, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * raw.vectors.nbytes

    def test_refuses_a_vocabulary_backed_dataset(self, tiny_vocab):
        words = Dataset(("a",), [0, 2], np.ones(2), word_ids=[0, 2], vocab=tiny_vocab)
        with pytest.raises(DomainError, match="the dataset's images have no inline descriptors"):
            assign_words(tiny_vocab, words)

    @pytest.mark.parametrize("d, k", [(2, 3), (16, 300), (64, 1000)])
    def test_blocked_ids_equal_the_unblocked_argmax(self, d, k):
        # Two full blocks and five rows more, so the last block overlaps.
        rng = np.random.RandomState(251 + d)
        vocab = Vocabulary(vectors=unit_rows(rng.standard_normal((k, d))),
                           frequencies=np.ones(k, dtype=np.int64))
        raw = _raw(np.array_split(rng.standard_normal((2 * _ASSIGN_ROWS + 5, d)), 40))
        unblocked = np.argmax(unit_rows(raw.vectors) @ vocab.unit_matrix.T, axis=1)
        TestCountingOracle.assert_same_bits(
            assign_words(vocab, raw), count_images_reference(raw.offsets, unblocked))

    def test_scores_held_at_once_are_bounded_by_the_block(self):
        # Eight blocks of descriptors: the full score matrix would be eight
        # times a block's, but only one block's scores are held at a time.
        rng = np.random.RandomState(257)
        k, d = 128, 4
        vocab = Vocabulary(vectors=unit_rows(rng.standard_normal((k, d))),
                           frequencies=np.ones(k, dtype=np.int64))
        raw = _raw(np.array_split(rng.standard_normal((8 * _ASSIGN_ROWS, d)), 64))
        tracemalloc.start()
        try:
            assign_words(vocab, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _ASSIGN_ROWS * k * 8 + 2 * raw.vectors.nbytes


# Both quantizers take a Dataset, whose constructor is the one check of the descriptors.
REFUSED_DESCRIPTORS = [
    ([["1.0", "0"], ["0", "1"]], DomainError, r"image vectors\[0, 0\] is '1.0'"),
    ([[True, False], [False, True]], DomainError, r"image vectors\[0, 0\] is True"),
    ([1.0, 0.0], ContractError, r"image vectors must have shape \(2, any\), got \(2,\)"),
]


class TestFeatureSetIntake:
    @pytest.mark.parametrize("features, error, message", REFUSED_DESCRIPTORS)
    def test_refuses_strings_bools_and_a_rank_one_set(self, tiny_vocab, features, error, message):
        with pytest.raises(error, match=message):
            assign_words(tiny_vocab, Dataset(("a",), [0, 2], np.ones(2), vectors=features))

    @pytest.mark.parametrize("features, error, message", REFUSED_DESCRIPTORS)
    def test_kmeans_input_is_refused_by_the_dataset(self, features, error, message):
        with pytest.raises(error, match=message):
            kmeans_quantize(Dataset(("a",), [0, 2], np.ones(2), vectors=features), 1, seed=0)
