import itertools

import numpy as np
import pytest

from conftest import random_vocab, random_vocab_image
from oracles import (all_pairs_reference, brute_force_top1, huffman_cost_reference,
                     similarity_reference)

from vwsim import (
    ContractError,
    Corpus,
    Dataset,
    DomainError,
    ImageObject,
    MatchOutcome,
    PreconditionError,
    UnknownWordError,
    ValidationError,
    VisualWord,
    Vocabulary,
    build_huffman_tree,
    build_psmi_index,
    huffman_depths,
    huffman_search,
    image_similarity,
    psmi_match,
    psmi_similarity,
    save_psmi,
    search,
    smii_match,
    smii_similarity,
    smin_match,
    smin_similarity,
    weighted_code_length,
)
from vwsim.core import unit_rows
from vwsim.matching import _pair_score, _pair_scores, cosine
from vwsim.psmi import _TILE_COLS as COLS, _TILE_ROWS as ROWS


def vocab_image(vocab, ids, weights=None, name="img"):
    ids = np.asarray(ids)
    if weights is None:
        weights = np.ones(ids.size)
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float),
                       word_ids=ids, vocab=vocab)


def entry_pairs(idx, word_id):
    ids, sims = huffman_search(idx, word_id)
    return list(zip(ids.tolist(), sims.tolist()))


def grid_vocab():
    """Directions on a small integer grid: similarities tie often and exactly."""
    grid = [p for p in itertools.product(range(-2, 3), repeat=3) if any(p)]
    return Vocabulary(vectors=unit_rows(np.array(grid, dtype=float)),
                      frequencies=np.ones(len(grid), dtype=np.int64))


def assert_csr_equals_reference(vocab, mu0):
    """The built CSR arrays equal the float64 full-product build's, bit for bit."""
    idx = build_psmi_index(vocab, mu0)
    for name, want in zip(("csr_offsets", "csr_ids", "csr_sims"), all_pairs_reference(vocab, mu0)):
        got = getattr(idx, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


def assert_search_is_per_pair(query, images, mu0, idx):
    """search over the images equals psmi_similarity per image, bit for bit.

    It also equals smin_similarity, which shares no code with psmi's winner
    rule: a fault in that rule cannot hide by breaking both psmi paths alike.
    """
    corpus = Corpus.from_dataset(Dataset.from_images(images))
    scores = search(query, corpus, mu0, idx)
    want = np.array([psmi_similarity(query, b, mu0, idx) for b in images])
    assert scores.dtype == np.float64 and scores.tobytes() == want.tobytes()
    naive = np.array([smin_similarity(query, b, mu0) for b in images])
    assert scores.tobytes() == naive.tobytes()
    return scores


class TestBuild:
    def test_three_word_vocabulary_lists(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        lists = {wid: entry_pairs(idx, wid) for wid in range(3)}
        assert [wid for wid, _ in lists[0]] == [0, 1]
        assert [wid for wid, _ in lists[1]] == [1, 0]
        assert [wid for wid, _ in lists[2]] == [2]
        # Stored similarities are exactly what the online cosine computes.
        assert lists[0][1][1] == cosine(tiny_vocab.vectors[0], tiny_vocab.vectors[1])
        assert lists[0][0][1] == 1.0

    def test_high_threshold_keeps_only_self(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.999)
        for wid in range(3):
            ids, sims = huffman_search(idx, wid)
            assert ids.tolist() == [wid] and sims.tolist() == [1.0]

    def test_lists_descend_with_self_first(self):
        rng = np.random.RandomState(97)
        vocab = random_vocab(rng, 64, 2)
        idx = build_psmi_index(vocab, 0.5)
        for wid in range(vocab.size):
            ids, sims = huffman_search(idx, wid)
            assert ids[0] == wid and sims[0] == 1.0
            assert sims.tolist() == sorted(sims.tolist(), reverse=True)
            assert np.all(sims > 0.5)

    def test_self_first_ahead_of_identical_word(self):
        vocab = Vocabulary(vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                           frequencies=np.array([1, 1, 1]))
        idx = build_psmi_index(vocab, 0.5)
        assert entry_pairs(idx, 1) == [(1, 1.0), (0, 1.0)]

    @pytest.mark.parametrize("stacked", [False, True], ids=["grid", "grid+reversed"])
    def test_tie_order_against_scalar_reference(self, stacked):
        # Directions on a small integer grid tie often and exactly; the grid
        # stacked with its reverse also gives every word an identical twin.
        grid = [p for p in itertools.product(range(-2, 3), repeat=3) if any(p)]
        grid = np.array(grid + grid[::-1] if stacked else grid, dtype=float)
        vocab = Vocabulary(vectors=unit_rows(grid), frequencies=np.ones(len(grid), dtype=np.int64))
        unit, k = vocab.unit_matrix, vocab.size
        scores = [[_pair_score(unit[w], unit[j]) for j in range(k)] for w in range(k)]
        tied = 0
        for mu0 in (0.0, 0.3, 0.6, 0.9):
            idx = build_psmi_index(vocab, mu0)
            for w, row in enumerate(scores):
                expected = sorted((j for j in range(k) if row[j] > mu0),
                                  key=lambda j: (j != w, -row[j], j))
                assert entry_pairs(idx, w) == [(j, row[j]) for j in expected]
                _, sims = huffman_search(idx, w)
                tied += int(np.count_nonzero(sims[2:] == sims[1:-1]))
        assert tied >= 1000

    # The build walks ROWS x COLS tiles of the upper triangle. Sizes sit just
    # below, at and just above each tile side; ROWS + 1 and 2 * ROWS + 1 leave
    # a one-row last row tile. mu0 = 0 keeps about half of all pairs.
    @pytest.mark.parametrize("size, dim, mu0", [
        (1, 3, 0.0), (1, 64, 0.9),
        (2, 1, 0.0), (2, 2, 0.3), (2, 16, 0.999),
        (300, 1, 0.7),
        (2048, 16, 0.3), (2048, 64, 0.7),
        (2049, 2, 0.0), (2049, 3, 0.9), (2049, 16, 0.7),
        (3000, 3, 0.999), (3000, 16, 0.7), (3000, 64, 0.3),
        pytest.param(30000, 32, 0.7, marks=pytest.mark.slow),
        (ROWS - 1, 3, 0.0), (ROWS, 2, 0.3), (ROWS + 1, 3, 0.0), (ROWS + 1, 16, 0.7),
        (2 * ROWS + 1, 2, 0.5),
        (COLS - 1, 3, 0.3), (COLS, 2, 0.0), (COLS + 1, 3, 0.7), (COLS + 1, 16, 0.3),
    ])
    def test_csr_equals_full_product_build(self, size, dim, mu0):
        assert_csr_equals_reference(random_vocab(np.random.RandomState(size + dim), size, dim), mu0)

    @pytest.mark.parametrize("mu0", [0.0, 0.3, 0.7, 0.9, 0.999])
    def test_csr_equals_full_product_build_on_tied_grid(self, mu0):
        # The grid stacked with its reverse: exact ties, and an identical twin per word.
        grid = grid_vocab()
        vocab = Vocabulary(vectors=np.concatenate((grid.vectors, grid.vectors[::-1])),
                           frequencies=np.ones(2 * grid.size, dtype=np.int64))
        assert_csr_equals_reference(vocab, mu0)

    @pytest.mark.parametrize("mu0", [0.0, 0.5, 0.9])
    def test_csr_equals_full_product_build_on_tied_grid_across_tiles(self, mu0):
        # The grid and its reverse, stacked until they span three row tiles and
        # two column tiles: ties and twins also meet across tiles, where a
        # word's mirrors (its lower ids) come from other tiles than its upper
        # entries.
        grid = grid_vocab().vectors
        reps = -(-max(2 * ROWS, COLS) // (2 * len(grid))) + 1
        vectors = np.concatenate((grid, grid[::-1]) * reps)
        assert len(vectors) > max(2 * ROWS, COLS)
        vocab = Vocabulary(vectors=vectors, frequencies=np.ones(len(vectors), dtype=np.int64))
        assert_csr_equals_reference(vocab, mu0)

    def test_pair_whose_float32_product_falls_below_threshold_is_kept(self):
        # The exact score is one ulp above mu0 and its float32 rounding lies
        # below mu0: only a cut under the threshold keeps the pair.
        mu0 = 0.7
        c = np.nextafter(mu0, 1.0)
        vocab = Vocabulary(vectors=[[1.0, 0.0], [c, np.sqrt(1 - c * c)]], frequencies=[1, 1])
        score = _pair_score(*vocab.unit_matrix)
        assert float(np.float32(score)) < mu0 < score
        idx = build_psmi_index(vocab, mu0)
        assert entry_pairs(idx, 0) == [(0, 1.0), (1, score)]
        assert entry_pairs(idx, 1) == [(1, 1.0), (0, score)]

    def test_pair_scoring_exactly_threshold_is_dropped(self):
        mu0 = 0.7
        vocab = Vocabulary(vectors=[[1.0, 0.0], [mu0, np.sqrt(1 - mu0 * mu0)]], frequencies=[1, 1])
        assert _pair_score(*vocab.unit_matrix) == mu0
        idx = build_psmi_index(vocab, mu0)
        assert entry_pairs(idx, 0) == [(0, 1.0)] and entry_pairs(idx, 1) == [(1, 1.0)]

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.RandomState(101)
        vocab = random_vocab(rng, 48, 3)
        build_a = build_psmi_index(vocab, 0.6)
        build_b = build_psmi_index(vocab, 0.6)
        pa, pb = tmp_path / "a.psmi", tmp_path / "b.psmi"
        save_psmi(build_a, pa)
        save_psmi(build_b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_bad_threshold(self, tiny_vocab):
        with pytest.raises(DomainError):
            build_psmi_index(tiny_vocab, 1.0)


class TestHuffman:
    def test_textbook_depths(self, tiny_vocab):
        # Merge (1, 3) -> 4, then (4, 5) -> 9: depths 1, 2, 2.
        idx = build_psmi_index(tiny_vocab, 0.7)
        assert huffman_depths(build_huffman_tree(idx.frequencies), 3).tolist() == [1, 2, 2]
        assert weighted_code_length(idx) == 5 * 1 + 3 * 2 + 1 * 2

    def test_single_leaf(self):
        root = build_huffman_tree([7])
        assert root.is_leaf and root.word_id == 0
        assert huffman_depths(root, 1).tolist() == [0]

    def test_leaf_count_matches_vocabulary(self):
        rng = np.random.RandomState(103)
        for _ in range(20):
            k = rng.randint(1, 40)
            root = build_huffman_tree(rng.randint(0, 50, size=k))
            seen = []
            stack = [root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    seen.append(node.word_id)
                else:
                    stack.append(node.left)
                    stack.append(node.right)
            assert sorted(seen) == list(range(k))

    def test_total_cost_is_optimal(self):
        rng = np.random.RandomState(107)
        for _ in range(50):
            k = rng.randint(2, 64)
            freqs = rng.randint(0, 100, size=k)
            root = build_huffman_tree(freqs)
            cost = int(np.dot(freqs, huffman_depths(root, k)))
            assert cost == huffman_cost_reference(freqs)

    def test_smaller_frequency_goes_right(self):
        root = build_huffman_tree([1, 9])
        assert root.right.word_id == 0 and root.left.word_id == 1

    def test_frequency_ties_prefer_smaller_word_id(self):
        root = build_huffman_tree([4, 4, 9])
        # Leaves 0 and 1 tie; 0 is popped first and sits on the right.
        assert root.right.left.word_id == 1 and root.right.right.word_id == 0


class TestSearch:
    """``huffman_search`` reads one word's list; ``search`` scores one query
    against a whole corpus through those lists."""

    def test_lookup_round_trip(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        ids, _ = huffman_search(idx, 2)
        assert ids[0] == 2

    def test_unknown_word(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        for word_id in (99, -1):
            with pytest.raises(UnknownWordError):
                huffman_search(idx, word_id)

    def test_word_id_follows_the_integer_rule(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        for word_id in (2.7, True, 1.0):
            with pytest.raises(DomainError):
                huffman_search(idx, word_id)
        ids, _ = huffman_search(idx, np.int32(2))
        assert ids[0] == 2

    def test_returns_read_only_views_of_the_csr_arrays(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        for wid in range(idx.size):
            ids, sims = huffman_search(idx, wid)
            assert np.shares_memory(ids, idx.csr_ids) and np.shares_memory(sims, idx.csr_sims)
            assert not ids.flags.writeable and not sims.flags.writeable

    def test_lists_are_the_search_slices(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        assert len(idx.lists) == idx.size
        for wid, (ids, sims) in enumerate(idx.lists):
            want_ids, want_sims = huffman_search(idx, wid)
            assert np.array_equal(ids, want_ids) and np.array_equal(sims, want_sims)

    # search: one query against a whole corpus, equal to the per-pair score.

    def test_search_seeded_gaussian_corpus(self):
        rng = np.random.RandomState(139)
        for k, d, mu0_build, mu0 in ((64, 4, 0.5, 0.5), (256, 8, 0.3, 0.6), (128, 16, 0.0, 0.0)):
            vocab = random_vocab(rng, k, d)
            idx = build_psmi_index(vocab, mu0_build)
            images = [random_vocab_image(rng, vocab, rng.randint(1, 30), f"b{i}")
                      for i in range(60)]
            for _ in range(5):
                query = random_vocab_image(rng, vocab, rng.randint(1, 20), "q")
                assert_search_is_per_pair(query, images, mu0, idx)

    @pytest.mark.parametrize("mu0_build,mu0", [(0.0, 0.0), (0.3, 0.3), (0.3, 0.6), (0.6, 0.9)])
    def test_search_tied_grid_vocabulary(self, mu0_build, mu0):
        vocab = grid_vocab()
        idx = build_psmi_index(vocab, mu0_build)
        rng = np.random.RandomState(149)
        images = [random_vocab_image(rng, vocab, rng.randint(1, 16), f"b{i}") for i in range(150)]
        for _ in range(6):
            assert_search_is_per_pair(random_vocab_image(rng, vocab, rng.randint(1, 10), "q"),
                                      images, mu0, idx)

    def test_search_repeated_words(self):
        # Ids from a narrow range repeat within an image, on both sides; each
        # query word still takes the smallest B position of its best word.
        vocab = grid_vocab()
        idx = build_psmi_index(vocab, 0.3)
        rng = np.random.RandomState(151)
        images = []
        for i in range(40):
            n = rng.randint(2, 12)
            images.append(vocab_image(vocab, rng.randint(0, 6, size=n),
                                      rng.uniform(0.1, 1.0, size=n), f"b{i}"))
        query = vocab_image(vocab, [3, 1, 3, 5, 1, 0], [1.0, 0.4, 0.9, 0.2, 0.7, 0.5], "q")
        scores = assert_search_is_per_pair(query, images, 0.3, idx)
        assert np.count_nonzero(scores) > 30
        assert max(len(set(b.word_ids.tolist())) < b.word_count for b in images)

    def test_search_images_without_a_pair_score_zero(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        # Word 2 is orthogonal to word 0 and below 0.7 against word 1.
        images = [vocab_image(tiny_vocab, [2], name="b0"), vocab_image(tiny_vocab, [0], name="b1"),
                  vocab_image(tiny_vocab, [2, 2], name="b2")]
        query = vocab_image(tiny_vocab, [0, 1], [1.0, 0.5], "q")
        scores = assert_search_is_per_pair(query, images, 0.7, idx)
        assert scores[0] == scores[2] == 0.0 and scores[1] > 0.0
        # No candidate at all: every image scores 0.
        only_two = vocab_image(tiny_vocab, [2], name="q2")
        assert assert_search_is_per_pair(only_two, images[1:2], 0.7, idx).tolist() == [0.0]

    def test_search_refuses_an_underflowing_denominator(self, tiny_vocab):
        # One-word images of weight 1e-170 truly score 1.0, but every weight
        # product underflows; the per-pair call refuses too. A pair-less image
        # is not scored, so it still reads 0.0.
        idx = build_psmi_index(tiny_vocab, 0.7)
        query = vocab_image(tiny_vocab, [0], [1e-170], "q")
        tiny = vocab_image(tiny_vocab, [0], [1e-170], "tiny")
        no_pair = vocab_image(tiny_vocab, [2], [1e-170], "no-pair")
        for images in ([tiny], [no_pair, tiny]):
            with pytest.raises(DomainError, match="too small to score"):
                search(query, Corpus.from_dataset(Dataset.from_images(images)), 0.7, idx)
        with pytest.raises(DomainError, match="too small to score"):
            psmi_similarity(query, tiny, 0.7, idx)
        assert assert_search_is_per_pair(query, [no_pair], 0.7, idx).tolist() == [0.0]

    def test_search_last_images_fully_matched(self):
        # The last images' unmatched-B (and unmatched-A) segments are empty:
        # a reduceat over clamped offsets would fold the previous image's
        # last weight into them.
        rng = np.random.RandomState(157)
        vocab = random_vocab(rng, 64, 3)
        idx = build_psmi_index(vocab, 0.6)
        query = vocab_image(vocab, rng.permutation(vocab.size)[:10],
                            rng.uniform(0.1, 1.0, size=10), "q")
        images = [random_vocab_image(rng, vocab, rng.randint(3, 12), f"b{i}") for i in range(20)]
        for i in range(3):
            ids = rng.permutation(query.word_ids)[:10 - i]
            images.append(vocab_image(vocab, ids, rng.uniform(0.1, 1.0, size=ids.size), f"full{i}"))
        for b in images[-3:]:
            assert psmi_match(query, b, 0.6, idx).matched_b_ids == set(range(b.word_count))
        assert_search_is_per_pair(query, images, 0.6, idx)

    def test_search_long_matched_images(self):
        # Pairs of 8 and more words: here np.sum and reduceat round differently,
        # so the per-pair score and the batched one must share one summation rule.
        rng = np.random.RandomState(163)
        vocab = random_vocab(rng, 96, 6)
        idx = build_psmi_index(vocab, 0.4)
        query = random_vocab_image(rng, vocab, 60, "q")
        images = []
        for i in range(30):
            ids = np.concatenate([rng.choice(query.word_ids, size=20 + i),
                                  rng.randint(0, vocab.size, size=10)])
            images.append(vocab_image(vocab, ids, rng.uniform(0.05, 1.0, size=ids.size), f"b{i}"))
        matched = [psmi_match(query, b, 0.4, idx).pair_count for b in images]
        assert min(matched) >= 8
        assert_search_is_per_pair(query, images, 0.4, idx)

    def test_search_returns_dataset_order(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        images = [vocab_image(tiny_vocab, ids, name=f"b{i}")
                  for i, ids in enumerate(([0], [2], [1, 2], [0, 0, 1]))]
        query = vocab_image(tiny_vocab, [0, 2], [1.0, 0.5], "q")
        forward = assert_search_is_per_pair(query, images, 0.7, idx)
        backward = assert_search_is_per_pair(query, images[::-1], 0.7, idx)
        assert forward.tolist() == backward[::-1].tolist()


class TestCorpus:
    def test_layout(self, tiny_vocab):
        images = [vocab_image(tiny_vocab, [2, 0], [1.0, 0.5], "b0"),
                  vocab_image(tiny_vocab, [0], name="b1"),
                  vocab_image(tiny_vocab, [1, 0, 2], [0.25, 1.0, 0.5], "b2")]
        corpus = Corpus.from_dataset(Dataset.from_images(images))
        assert corpus.size == 3
        assert corpus.offsets.tolist() == [0, 2, 3, 6]
        assert corpus.owners.tolist() == [0, 0, 1, 2, 2, 2]
        assert corpus.totals.tolist() == [1.5, 1.0, 1.75]
        assert corpus.word_offsets.tolist() == [0, 3, 4, 6]
        # Word 0 at positions 1, 2, 4; word 1 at 3; word 2 at 0, 5.
        assert corpus.postings.tolist() == [1, 2, 4, 3, 0, 5]
        assert corpus.vocab_checksum == tiny_vocab.checksum
        for arr in (corpus.word_ids, corpus.weights, corpus.postings, corpus.totals):
            assert not arr.flags.writeable

    def test_refuses_mixed_vocabularies_and_empty_datasets(self, tiny_vocab):
        # A dataset has one vocabulary and at least one image, so both are
        # refused when the dataset is built, before any corpus.
        other = random_vocab(np.random.RandomState(167), tiny_vocab.size, 2)
        with pytest.raises(ValidationError, match="image 'b' uses another vocabulary"):
            Dataset.from_images([vocab_image(tiny_vocab, [0], name="a"),
                                 vocab_image(other, [0], name="b")])
        with pytest.raises(DomainError, match="a dataset needs at least one image"):
            Dataset.from_images(())

    def test_shares_the_dataset_columns(self, tiny_vocab):
        dataset = Dataset.from_images([vocab_image(tiny_vocab, [2, 0], [1.0, 0.5], "b0"),
                                       vocab_image(tiny_vocab, [1], name="b1")])
        corpus = Corpus.from_dataset(dataset)
        assert corpus.word_ids is dataset.word_ids and corpus.weights is dataset.weights
        assert corpus.offsets is dataset.offsets


class TestPsmiMatch:
    def test_cross_word_pair(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        out = psmi_match(vocab_image(tiny_vocab, [0], name="a"),
                         vocab_image(tiny_vocab, [1, 2], name="b"), 0.7, idx)
        assert out.pairs == [(0, 0, cosine(tiny_vocab.vectors[0], tiny_vocab.vectors[1]))]

    def test_orthogonal_words_unmatched(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        out = psmi_match(vocab_image(tiny_vocab, [2], name="a"),
                         vocab_image(tiny_vocab, [0], name="b"), 0.7, idx)
        assert out.mu.tolist() == [0.0] and out.pair_count == 0

    def test_self_word_hits_at_any_threshold(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        img = vocab_image(tiny_vocab, [0], name="a")
        out = psmi_match(img, img, 0.99, idx)
        assert out.mu.tolist() == [1.0]

    def test_partner_is_smallest_position_with_that_word(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        out = psmi_match(vocab_image(tiny_vocab, [1], name="a"),
                         vocab_image(tiny_vocab, [2, 1, 1], name="b"), 0.7, idx)
        assert out.pairs == [(0, 1, 1.0)]

    def test_first_surviving_entry_equals_brute_force_argmax(self):
        rng = np.random.RandomState(109)
        vocab = random_vocab(rng, 256, 2)
        mu0 = 0.5
        idx = build_psmi_index(vocab, mu0)
        for _ in range(100):
            a_word = int(rng.randint(vocab.size))
            b = random_vocab_image(rng, vocab, rng.randint(1, 12), "b")
            present = set(b.word_ids.tolist())
            walked = next(
                ((w, s) for w, s in entry_pairs(idx, a_word) if s > mu0 and w in present),
                None)
            j, s = brute_force_top1(b.vector_matrix(), vocab.vectors[a_word])
            if walked is None:
                assert s <= mu0
            else:
                assert walked[1] == s and int(b.word_ids[j]) == walked[0]

    def test_equivalence_with_smin(self):
        rng = np.random.RandomState(113)
        for k, d in ((64, 2), (64, 16), (256, 8)):
            vocab = random_vocab(rng, k, d)
            for mu0 in (0.5, 0.8):
                idx = build_psmi_index(vocab, mu0)
                for _ in range(40):
                    a = random_vocab_image(rng, vocab, rng.randint(1, 12), "a")
                    b = random_vocab_image(rng, vocab, rng.randint(1, 12), "b")
                    assert psmi_match(a, b, mu0, idx) == smin_match(a, b, mu0)

    def test_query_threshold_above_build_threshold(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.5)
        a = vocab_image(tiny_vocab, [0], name="a")
        b = vocab_image(tiny_vocab, [1], name="b")
        assert psmi_match(a, b, 0.9, idx) == smin_match(a, b, 0.9)

    def test_similarity_pipeline_matches_smin(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        a = vocab_image(tiny_vocab, [0, 1], [1.0, 0.6], name="a")
        b = vocab_image(tiny_vocab, [1], [1.0], name="b")
        assert psmi_similarity(a, b, 0.7, idx) == smin_similarity(a, b, 0.7)


def assert_three_way(a, b, mu0, idx):
    """psmi, smii and smin give equal outcomes and equal scores; returns both."""
    want = smin_match(a, b, mu0)
    assert smii_match(a, b, mu0) == want
    assert psmi_match(a, b, mu0, idx) == want
    score = smin_similarity(a, b, mu0)
    assert smii_similarity(a, b, mu0) == score
    assert psmi_similarity(a, b, mu0, idx) == score
    return want, score


class TestTiesOnTheMaximum:
    """Ties on λ go to the smallest B position in every matcher, whatever
    order the index lists hold the tied words in."""

    def test_pinned_three_word_tie(self):
        vocab = Vocabulary(vectors=unit_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
                           frequencies=np.array([1, 1, 1]))
        a = vocab_image(vocab, [2], name="a")
        b = vocab_image(vocab, [1, 0], [1.0, 0.5], name="b")
        # Words 0 and 1 tie exactly; word 1 sits first in B, word 0 first in the list.
        assert _pair_scores(vocab.unit_matrix[2], vocab.unit_matrix[:2]).tolist() == [
            0.7071067811865476, 0.7071067811865476]
        for mu0_build in (0.0, 0.5):
            out, score = assert_three_way(a, b, 0.5, build_psmi_index(vocab, mu0_build))
            assert out.pairs == [(0, 0, 0.7071067811865476)]
            assert score == 0.8164965809277261

    def test_duplicate_vectors_as_images(self):
        # Words 0 and 1 share one vector; word 1's list holds itself first.
        vocab = Vocabulary(vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                           frequencies=np.array([1, 1, 1]))
        idx = build_psmi_index(vocab, 0.5)
        out, _ = assert_three_way(vocab_image(vocab, [1], name="a"),
                                  vocab_image(vocab, [0, 1], name="b"), 0.5, idx)
        assert out.pairs == [(0, 0, 1.0)]
        images = [ids for m in (1, 2, 3) for ids in itertools.product(range(3), repeat=m)]
        for a_ids in images[:12]:
            for b_ids in images:
                for mu0 in (0.5, 0.9):
                    assert_three_way(vocab_image(vocab, a_ids, name="a"),
                                     vocab_image(vocab, b_ids, name="b"), mu0, idx)

    def test_small_integer_grid_sweep(self):
        vocab = grid_vocab()
        idx = build_psmi_index(vocab, 0.0)
        rng = np.random.RandomState(137)
        ties = 0
        for mu0 in (0.0, 0.3, 0.6, 0.9):
            for _ in range(60):
                a = random_vocab_image(rng, vocab, rng.randint(1, 8), "a")
                b = random_vocab_image(rng, vocab, rng.randint(1, 12), "b")
                assert_three_way(a, b, mu0, idx)
                scores = _pair_scores(vocab.unit_matrix[a.word_ids][:, None],
                                      vocab.unit_matrix[b.word_ids])
                for row in scores:
                    top = row.max()
                    ties += top > mu0 and len(set(b.word_ids[row == top].tolist())) > 1
        assert ties >= 30


def assert_direct_scores(a, b, mu0, idx):
    """psmi_similarity and smii_similarity equal their outcomes' image_similarity
    and smin_similarity, bit for bit; returns psmi's outcome and the score.

    Every route ends in the one scorer, so the score is also held to the
    plain-arithmetic oracle of psmi's pairs, which shares no code with it.
    """
    out = psmi_match(a, b, mu0, idx)
    score = smin_similarity(a, b, mu0)
    assert score == pytest.approx(similarity_reference(a.weights, b.weights, out.pairs),
                                  rel=1e-12, abs=0.0)
    assert image_similarity(a, b, out) == score
    assert image_similarity(a, b, smii_match(a, b, mu0)) == score
    assert psmi_similarity(a, b, mu0, idx) == score
    assert smii_similarity(a, b, mu0) == score
    return out, score


class TestDirectScoring:
    """psmi_similarity and smii_similarity score their matchers' pairs without
    building a MatchOutcome; the outcome route is the reference."""

    def test_weaker_candidate_first_in_b(self, tiny_vocab):
        # Query word 0 meets word 1 (0.8) at B position 0, then itself (1.0);
        # query word 2 finds nothing above 0.7 and stays unmatched.
        idx = build_psmi_index(tiny_vocab, 0.7)
        a = vocab_image(tiny_vocab, [0, 2], [1.0, 0.4], "a")
        b = vocab_image(tiny_vocab, [1, 0], [0.9, 0.3], "b")
        out, score = assert_direct_scores(a, b, 0.7, idx)
        assert out.pairs == [(0, 1, 1.0)] and 0.0 < score < 1.0

    def test_equal_similarity_tie_at_two_b_positions(self):
        # Word 2 ties with words 1 and 0 (at B positions 1 and 2), after a
        # weaker word 4 at position 0; word 3 matches nothing.
        vocab = Vocabulary(vectors=unit_rows(np.array(
            [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [1.0, -0.2]])),
            frequencies=np.ones(5, dtype=np.int64))
        a = vocab_image(vocab, [2, 3], [1.0, 0.6], "a")
        b = vocab_image(vocab, [4, 1, 0], [0.8, 0.5, 1.0], "b")
        for mu0_build in (0.0, 0.5):
            out, score = assert_direct_scores(a, b, 0.5, build_psmi_index(vocab, mu0_build))
            assert out.pairs == [(0, 1, 0.7071067811865476)] and score > 0.0

    def test_repeated_b_word_ids(self, tiny_vocab):
        # Words 0 and 1 each sit twice in B; query word 1 takes its own first
        # position over word 0's earlier, weaker ones.
        idx = build_psmi_index(tiny_vocab, 0.7)
        a = vocab_image(tiny_vocab, [1, 2], [1.0, 0.3], "a")
        b = vocab_image(tiny_vocab, [0, 1, 0, 1], [0.2, 0.9, 0.7, 0.4], "b")
        out, score = assert_direct_scores(a, b, 0.7, idx)
        assert out.pairs == [(0, 1, 1.0)] and score > 0.0

    def test_no_pair_scores_exactly_zero(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        a, b = vocab_image(tiny_vocab, [2], name="a"), vocab_image(tiny_vocab, [0, 0], name="b")
        out, score = assert_direct_scores(a, b, 0.7, idx)
        assert out.pair_count == 0 and score == 0.0
        assert type(psmi_similarity(a, b, 0.7, idx)) is float

    @pytest.mark.parametrize("case", ["unbacked", "threshold", "word id", "checksum", "underflow"])
    def test_refuses_what_the_outcome_route_refuses(self, tiny_vocab, case):
        idx = build_psmi_index(tiny_vocab, 0.7)
        own = vocab_image(tiny_vocab, [0, 1], name="own")
        wide = random_vocab(np.random.RandomState(127), 10, 2)
        foreign = random_vocab(np.random.RandomState(131), tiny_vocab.size, 2)
        tiny = vocab_image(tiny_vocab, [0], [1e-170], "tiny")
        a, b, mu0 = {
            "unbacked": (own, ImageObject("raw", np.ones(1), vectors=[[1.0, 0.0]]), 0.7),
            "threshold": (own, own, 0.5),
            "word id": (vocab_image(wide, [7]), own, 0.7),
            "checksum": (vocab_image(foreign, [0, 1]), own, 0.7),
            "underflow": (tiny, tiny, 0.7),
        }[case]
        refusal = DomainError if case == "underflow" else PreconditionError
        with pytest.raises(refusal) as via_outcome:
            image_similarity(a, b, psmi_match(a, b, mu0, idx))
        with pytest.raises(refusal) as direct:
            psmi_similarity(a, b, mu0, idx)
        assert type(direct.value) is type(via_outcome.value)
        assert str(direct.value) == str(via_outcome.value)

    def test_similarity_builds_no_outcome(self, tiny_vocab, monkeypatch):
        built = []
        post_init = MatchOutcome.__post_init__
        monkeypatch.setattr(MatchOutcome, "__post_init__",
                            lambda out: built.append(out) or post_init(out))
        idx = build_psmi_index(tiny_vocab, 0.7)
        a = vocab_image(tiny_vocab, [0, 2], name="a")
        b = vocab_image(tiny_vocab, [1, 0], name="b")
        assert psmi_similarity(a, b, 0.7, idx) > 0.0 and smii_similarity(a, b, 0.7) > 0.0
        assert smin_similarity(a, b, 0.7) > 0.0
        assert built == []
        psmi_match(a, b, 0.7, idx)
        assert len(built) == 1
        smii_match(a, b, 0.7)
        assert len(built) == 2
        smin_match(a, b, 0.7)
        assert len(built) == 3


class TestPsmiPreconditions:
    def test_raw_images_rejected(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        raw = ImageObject(image_id="r", weights=np.array([1.0]), vectors=np.array([[1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            psmi_match(raw, vocab_image(tiny_vocab, [0]), 0.7, idx)
        with pytest.raises(PreconditionError):
            psmi_match(vocab_image(tiny_vocab, [0]), raw, 0.7, idx)

    def test_query_below_build_threshold_rejected(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        img = vocab_image(tiny_vocab, [0])
        with pytest.raises(PreconditionError):
            psmi_match(img, img, 0.5, idx)

    def test_foreign_word_ids_rejected(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        rng = np.random.RandomState(127)
        big_vocab = random_vocab(rng, 10, 2)
        img = vocab_image(big_vocab, [7])
        with pytest.raises(PreconditionError):
            psmi_match(img, img, 0.7, idx)

    def test_wrong_vocabulary_rejected(self, tiny_vocab):
        # Same size, so every id is in range; only the vectors differ.
        idx = build_psmi_index(tiny_vocab, 0.7)
        other = random_vocab(np.random.RandomState(131), tiny_vocab.size, 2)
        own, foreign = vocab_image(tiny_vocab, [0, 1]), vocab_image(other, [0, 1])
        # Words taken from a vocabulary's rows make a raw image, with no ids
        # to check against the index.
        loose = ImageObject.from_words("loose", [VisualWord(i, other.vectors[i], 1.0)
                                                 for i in (0, 1)])
        assert loose.word_ids is None and loose.vocab is None
        for a, b in ((foreign, own), (own, foreign), (foreign, foreign), (loose, loose)):
            with pytest.raises(PreconditionError):
                psmi_match(a, b, 0.7, idx)

    def test_search_refuses_what_psmi_match_refuses(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        own = vocab_image(tiny_vocab, [0, 1], name="own")
        foreign = vocab_image(random_vocab(np.random.RandomState(131), tiny_vocab.size, 2),
                              [0, 1], name="foreign")
        wide = vocab_image(random_vocab(np.random.RandomState(127), 10, 2), [7], name="wide")
        raw = ImageObject(image_id="raw", weights=np.array([1.0]), vectors=np.array([[1.0, 0.0]]))
        cases = [(foreign, own, 0.7), (own, foreign, 0.7), (own, own, 0.5),
                 (wide, own, 0.7), (own, wide, 0.7), (raw, own, 0.7)]
        for a, b, mu0 in cases:
            with pytest.raises(PreconditionError) as per_pair:
                psmi_match(a, b, mu0, idx)
            with pytest.raises(PreconditionError) as batched:
                search(a, Corpus.from_dataset(Dataset.from_images([b])), mu0, idx)
            assert str(batched.value) == str(per_pair.value)
        # A raw corpus is refused when the corpus is built; a dataset holds
        # one kind of image, so it cannot mix raw and vocabulary-backed ones.
        with pytest.raises(PreconditionError) as per_pair:
            psmi_match(own, raw, 0.7, idx)
        with pytest.raises(PreconditionError) as batched:
            Corpus.from_dataset(Dataset.from_images([raw]))
        assert str(batched.value) == str(per_pair.value)
        with pytest.raises(ContractError, match="image 'raw' is not of the dataset's kind"):
            Dataset.from_images([own, raw])

    def test_empty_image_rejected(self, tiny_vocab):
        # An image has at least one word; the constructor refuses an empty one.
        with pytest.raises(DomainError, match="no words"):
            ImageObject(image_id="e", weights=np.zeros(0),
                        word_ids=np.zeros(0, dtype=int), vocab=tiny_vocab)
