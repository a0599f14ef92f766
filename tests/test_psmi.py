import numpy as np
import pytest

from conftest import random_vocab, random_vocab_image
from oracles import brute_force_top1, huffman_cost_reference

from vwsim import (
    DomainError,
    ImageObject,
    PreconditionError,
    UnknownWordError,
    Vocabulary,
    build_huffman_tree,
    build_psmi_index,
    huffman_depths,
    huffman_search,
    psmi_match,
    psmi_similarity,
    save_psmi,
    smin_match,
    smin_similarity,
    weighted_code_length,
)
from vwsim.matching import cosine


def vocab_image(vocab, ids, weights=None, name="img"):
    ids = np.asarray(ids)
    if weights is None:
        weights = np.ones(ids.size)
    return ImageObject(image_id=name, weights=np.asarray(weights, dtype=float),
                       word_ids=ids, vocab=vocab)


def entry_pairs(idx, word_id):
    ids, sims = huffman_search(idx, word_id)
    return list(zip(ids.tolist(), sims.tolist()))


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
        assert huffman_depths(idx.tree, 3).tolist() == [1, 2, 2]
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
    def test_lookup_round_trip(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        ids, _ = huffman_search(idx, 2)
        assert ids[0] == 2

    def test_unknown_word(self, tiny_vocab):
        idx = build_psmi_index(tiny_vocab, 0.7)
        for word_id in (99, -1):
            with pytest.raises(UnknownWordError):
                huffman_search(idx, word_id)

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
        # Ids without a vocabulary cannot be checked against the index.
        loose = ImageObject.from_words("loose", [other.word(0), other.word(1)])
        assert loose.word_ids is not None and loose.vocab is None
        for a, b in ((foreign, own), (own, foreign), (foreign, foreign), (loose, loose)):
            with pytest.raises(PreconditionError):
                psmi_match(a, b, 0.7, idx)

    def test_empty_image_rejected(self, tiny_vocab):
        # An image has at least one word; the constructor refuses an empty one.
        with pytest.raises(DomainError, match="no words"):
            ImageObject(image_id="e", weights=np.zeros(0),
                        word_ids=np.zeros(0, dtype=int), vocab=tiny_vocab)
