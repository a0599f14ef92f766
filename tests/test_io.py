import hashlib
import itertools
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import random_vocab, random_vocab_image
from oracles import images_per_record

from vwsim import (
    CompatibilityError,
    ContractError,
    Corpus,
    Dataset,
    DomainError,
    FormatError,
    GeneratorConfig,
    ImageObject,
    PsimIndex,
    ValidationError,
    Vocabulary,
    build_psmi_index,
    generate_synthetic,
    load_images,
    load_psmi,
    load_truth,
    load_vocabulary,
    save_images,
    save_psmi,
    save_truth,
    save_vocabulary,
)
from vwsim.core import unit_rows


class TestVocabularyFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.RandomState(131)
        vocab = random_vocab(rng, 17, 5)
        path = tmp_path / "vocab.jsonl"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert np.array_equal(loaded.vectors, vocab.vectors)
        assert np.array_equal(loaded.frequencies, vocab.frequencies)
        save_vocabulary(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_duplicate_word_id(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        line = json.dumps({"word_id": 0, "frequency": 1, "vector": [1.0, 0.0]})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValidationError):
            load_vocabulary(path)

    def test_gap_in_word_ids(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        path.write_text(json.dumps({"word_id": 1, "frequency": 1, "vector": [1.0, 0.0]}) + "\n")
        with pytest.raises(ValidationError):
            load_vocabulary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_vocabulary(path)

    def test_non_unit_vector(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        path.write_text(json.dumps({"word_id": 0, "frequency": 1, "vector": [2.0, 0.0]}) + "\n")
        with pytest.raises(ValidationError):
            load_vocabulary(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vocab.jsonl"
        path.write_text(json.dumps({"word_id": 0, "frequency": 1, "vector": [1.0, 0.0]}) + "\nnot json\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_vocabulary(path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_files_load_equal_to_lf(self, tmp_path, newline):
        vocab = random_vocab(np.random.RandomState(137), 9, 3)
        lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
        save_vocabulary(vocab, lf)
        other.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
        loaded = load_vocabulary(other)
        assert loaded.vectors.tobytes() == load_vocabulary(lf).vectors.tobytes()
        assert loaded.checksum == vocab.checksum

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_malformed_line_after_blank_line_reports_line_number(self, tmp_path, newline):
        path = tmp_path / "vocab.jsonl"
        good = json.dumps({"word_id": 0, "frequency": 1, "vector": [1.0, 0.0]})
        path.write_bytes(newline.join([good, "", '{"word_id": 1}', ""]).encode())
        with pytest.raises(ValidationError, match="line 3: malformed"):
            load_vocabulary(path)


class TestImageFiles:
    def test_round_trip_weights(self, tmp_path):
        rng = np.random.RandomState(137)
        vocab = random_vocab(rng, 9, 3)
        images = tuple(random_vocab_image(rng, vocab, rng.randint(1, 6), f"img{i}")
                       for i in range(5))
        path = tmp_path / "images.jsonl"
        save_images(Dataset.from_images(images, vocab=vocab), path)
        loaded = load_images(path, vocab=vocab)
        for orig, back in zip(images, loaded.images):
            assert back.image_id == orig.image_id
            assert np.array_equal(back.weights, orig.weights)
            assert np.array_equal(back.word_ids, orig.word_ids)
        save_images(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_round_trip_counts_and_inline_vectors(self, tmp_path):
        img = ImageObject(image_id="raw", weights=np.array([1.0, 0.5]),
                          vectors=np.array([[3.0, 4.0], [1.0, 0.0]]),
                          counts=np.array([2, 1]))
        path = tmp_path / "images.jsonl"
        save_images(Dataset.from_images((img,)), path)
        back = load_images(path).images[0]
        assert np.array_equal(back.vectors, img.vectors)
        assert np.array_equal(back.counts, img.counts)
        assert np.array_equal(back.weights, img.weights)

    def test_image_with_both_vectors_and_ids_is_refused(self):
        # A record stores ids or vectors, so no image the writer is handed
        # can hold both: the constructor refuses it before save_images runs.
        with pytest.raises(ContractError, match="image 'both' must hold either inline vectors, "
                                                "or word ids with their vocabulary, not both"):
            ImageObject(image_id="both", weights=np.ones(2), word_ids=[3, 7],
                        vectors=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_counts_only_derive_weights(self, tmp_path):
        path = tmp_path / "images.jsonl"
        rec = {"image_id": "x", "words": [
            {"vector": [1.0, 0.0], "count": 4},
            {"vector": [0.0, 1.0], "count": 1},
        ]}
        path.write_text(json.dumps(rec) + "\n")
        img = load_images(path).images[0]
        assert img.weights.tolist() == [1.0, 0.25]
        assert img.counts.tolist() == [4, 1]

    def test_dangling_word_id(self, tmp_path, tiny_vocab):
        path = tmp_path / "images.jsonl"
        path.write_text(json.dumps({"image_id": "x", "words": [{"word_id": 9, "weight": 1.0}]}) + "\n")
        with pytest.raises(ValidationError):
            load_images(path, vocab=tiny_vocab)

    def test_word_ids_without_vocabulary(self, tmp_path):
        path = tmp_path / "images.jsonl"
        path.write_text(json.dumps({"image_id": "x", "words": [{"word_id": 0, "weight": 1.0}]}) + "\n")
        with pytest.raises(ValidationError):
            load_images(path)

    def test_zero_weight_rejected(self, tmp_path, tiny_vocab):
        path = tmp_path / "images.jsonl"
        path.write_text(json.dumps({"image_id": "x", "words": [{"word_id": 0, "weight": 0.0}]}) + "\n")
        with pytest.raises(ValidationError):
            load_images(path, vocab=tiny_vocab)

    def test_mixed_word_forms_rejected(self, tmp_path, tiny_vocab):
        path = tmp_path / "images.jsonl"
        rec = {"image_id": "x", "words": [{"word_id": 0, "weight": 1.0},
                                          {"vector": [1.0, 0.0], "weight": 1.0}]}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError):
            load_images(path, vocab=tiny_vocab)

    def test_duplicate_image_id_rejected(self, tmp_path, tiny_vocab):
        path = tmp_path / "images.jsonl"
        rec = json.dumps({"image_id": "x", "words": [{"word_id": 0, "weight": 1.0}]})
        path.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(ValidationError, match="images.jsonl: duplicate image id"):
            load_images(path, vocab=tiny_vocab)

    def test_dataset_refuses_an_image_of_another_vocabulary(self):
        # Both vocabularies have two words, so the ids are in range of either.
        v1 = Vocabulary(vectors=np.eye(2), frequencies=[1, 1])
        v2 = Vocabulary(vectors=np.eye(2)[::-1], frequencies=[1, 1])
        img = ImageObject("a", [1.0], word_ids=[0], vocab=v1)
        with pytest.raises(ValidationError, match="image 'a' uses another vocabulary"):
            Dataset.from_images((img,), vocab=v2)
        same = Vocabulary(vectors=np.eye(2), frequencies=[1, 1])
        kept = Dataset.from_images((img,), vocab=same).image(0)
        assert kept.vocab is same and kept.word_ids.tolist() == [0] and kept.weights.tolist() == [1.0]

    def test_loading_shares_the_vocabulary_without_a_checksum(self, tmp_path, tiny_vocab):
        # Every loaded image holds the given vocabulary object, so Dataset
        # never computes the checksum to compare them.
        path = tmp_path / "images.jsonl"
        rec = {"image_id": "x", "words": [{"word_id": 2, "weight": 1.0}]}
        path.write_text(json.dumps(rec) + "\n" + json.dumps({**rec, "image_id": "y"}) + "\n")
        assert all(img.vocab is tiny_vocab for img in load_images(path, vocab=tiny_vocab).images)
        assert "checksum" not in vars(tiny_vocab)

    def test_word_without_weight_or_count(self, tmp_path):
        path = tmp_path / "images.jsonl"
        path.write_text(json.dumps({"image_id": "x", "words": [{"vector": [1.0, 0.0]}]}) + "\n")
        with pytest.raises(ValidationError):
            load_images(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "images.jsonl"
        path.write_text(json.dumps(
            {"image_id": "x", "words": [{"vector": [0.0, 0.0], "weight": 1.0}]}) + "\n")
        with pytest.raises(ValidationError):
            load_images(path)


def _vocab_entry(wid, freq=1, vector=(1.0, 0.0)):
    return {"word_id": wid, "frequency": freq, "vector": list(vector)}


def _image(*words):
    return {"image_id": "x", "words": list(words)}


NAN = float("nan")


# One malformed record per rule. Every loader error is a ValidationError
# naming the file, and the line when one image record is at fault; the
# message is pinned where its wording is the point of the case.
MALFORMED = [
    ("vocab", [_vocab_entry(0, vector=(NAN, 0.0))], "non-finite"),
    ("vocab", [_vocab_entry(0, freq=-1)], "negative frequency"),
    ("vocab", [_vocab_entry(0, freq=2 ** 63)], "frequencies must fit in int64"),
    ("vocab", [_vocab_entry(0), _vocab_entry(1, vector=(1.0,))], None),
    ("vocab", [_vocab_entry(0, vector=())], None),
    ("images", [_image({"vector": [NAN, 1.0], "weight": 1.0})], "non-finite"),
    ("images", [_image({"word_id": 0, "weight": 1.5})], r"\(0, 1\]"),
    ("images", [_image({"word_id": 0, "count": 0})], None),
    ("images", [_image({"word_id": 0, "count": 2 ** 63})], "counts must fit in int64"),
    ("images", [_image({"word_id": 2 ** 63, "weight": 1.0})], "word ids must fit in int64"),
    ("images", [_image({"vector": [1.0, 0.0], "weight": 1.0},
                       {"vector": [1.0], "weight": 1.0})], None),
    ("images", [_image({"word_id": 0, "count": 1, "weight": 1.0},
                       {"word_id": 1, "count": 2})], "mixes"),
    ("images", [_image({"word_id": -1, "weight": 1.0})], None),
    ("images", [{"image_id": "x", "words": {"word_id": 0, "weight": 1.0}}], "no words"),
    ("images", [_image(3)], "malformed image record"),
    ("vocab", [_vocab_entry(0), _vocab_entry(1.7)], "JSON integer"),
    ("vocab", [_vocab_entry(0.0)], "JSON integer"),
    ("vocab", [_vocab_entry(0, freq="5")], "JSON integer"),
    ("vocab", [_vocab_entry(0, freq=True)], "JSON integer"),
    ("images", [_image({"word_id": 0.9, "weight": 1.0})], "JSON integer"),
    ("images", [_image({"word_id": True, "weight": 1.0})], "JSON integer"),
    ("images", [_image({"word_id": 0, "count": 2.5})], "JSON integer"),
    ("images", [_image({"word_id": 0, "count": True})], "JSON integer"),
    ("images", [{"image_id": 5, "words": [{"word_id": 0, "weight": 1.0}]}], "image_id"),
    ("images", [{"image_id": "", "words": [{"word_id": 0, "weight": 1.0}]}], "image_id"),
    ("images", [_image({"word_id": 0, "vector": [0, 1], "weight": 1.0})],
     "image 'x' must hold either inline vectors, or word ids with their vocabulary, not both"),
    ("vocab", [_vocab_entry(0), _vocab_entry(1, vector=("1.0", 0.0))],
     r"vectors must be numbers.*vectors\[1, 0\] is '1.0'"),
    ("vocab", [_vocab_entry(0), _vocab_entry(1, vector=(True, 0.0))],
     r"vectors must be numbers.*vectors\[1, 0\] is True"),
    ("images", [_image({"word_id": 0, "weight": "0.5"})], "weights must be numbers"),
    ("images", [_image({"word_id": 0, "weight": True})], "weights must be numbers"),
]
IMAGE_CASES = [(records, message) for kind, records, message in MALFORMED if kind == "images"]


def _valid_like(record):
    """A valid one-word record maker with the word fields of *record*'s first word.

    A file holds one kind of image, so a valid record placed before *record*
    holds the same fields where it can. A record holding both ids and
    vectors is of no kind; it gets ids, and the second value returned is
    then False.
    """
    values = {"word_id": 0, "vector": [1.0, 0.0], "count": 1, "weight": 1.0}
    words = record.get("words")
    fields = set(words[0]) & set(values) if isinstance(words, list) and isinstance(words[0], dict) else set()
    same_kind = not {"word_id", "vector"} <= fields
    if not same_kind:
        fields.discard("vector")
    if not fields & {"weight", "count"}:
        fields = {"word_id", "weight"}
    return lambda image_id: {"image_id": image_id, "words": [{f: values[f] for f in fields}]}, same_kind


class TestMalformedRecords:
    @pytest.mark.parametrize("kind, records, message", MALFORMED)
    def test_rejected_as_validation_error(self, tmp_path, tiny_vocab, kind, records, message):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(ValidationError, match=message) as info:
            if kind == "vocab":
                load_vocabulary(path)
            else:
                load_images(path, vocab=tiny_vocab)
        assert str(path) in str(info.value)
        if kind == "images":
            assert "line 1" in str(info.value)

    @pytest.mark.parametrize("records, message", IMAGE_CASES)
    def test_refusal_names_the_line_of_the_bad_record(self, tmp_path, tiny_vocab, records, message):
        # After a blank line and two valid records, the refusal is the one the
        # bad record gets alone, at line 4: the columnar check maps the first
        # refused word back to its record. A record of no kind is refused as
        # unlike the first record instead.
        (bad,) = records
        valid, same_kind = _valid_like(bad)
        texts = {"alone": json.dumps(bad) + "\n",
                 "after": "\n" + "".join(json.dumps(r) + "\n" for r in (valid("v1"), valid("v2"), bad))}
        errors = {}
        for name, text in texts.items():
            path = tmp_path / name / "images.jsonl"
            path.parent.mkdir()
            path.write_text(text)
            with pytest.raises(ValidationError) as info:
                load_images(path, vocab=tiny_vocab)
            errors[name] = str(info.value).replace(str(path), "<file>")
        assert errors["after"].startswith("<file>: line 4: ")
        if same_kind:
            assert errors["after"] == errors["alone"].replace("line 1", "line 4", 1)
            assert re.search(message or "", errors["after"])
        else:
            assert errors["after"].endswith("a file holds one kind of image")

    def test_refused_element_is_indexed_within_its_record(self, tmp_path, tiny_vocab):
        words = [{"word_id": 0, "weight": 1.0}, {"word_id": 1, "weight": 0.5}]
        bad = [{"word_id": 2, "weight": 1.0}, {"word_id": 0, "weight": "0.5"}]
        path = tmp_path / "images.jsonl"
        path.write_text("\n" + "".join(json.dumps({"image_id": name, "words": w}) + "\n"
                                       for name, w in (("a", words), ("b", words), ("c", bad))))
        with pytest.raises(ValidationError, match=r"images.jsonl: line 4: weights must be numbers, "
                                                  r"not bool or string values; weights\[1\] is '0.5'"):
            load_images(path, vocab=tiny_vocab)

    @pytest.mark.parametrize("first, other, message", [
        ({"word_id": 0, "weight": 1.0}, {"vector": [1.0, 0.0], "weight": 1.0},
         "image 'c' has words with 'vector', but the file's first image has words with 'word_id'; "
         "a file holds one kind of image"),
        ({"vector": [1.0, 0.0], "weight": 1.0}, {"word_id": 0, "weight": 1.0},
         "image 'c' has words with 'word_id', but the file's first image has words with 'vector'"),
        ({"word_id": 0, "count": 2}, {"word_id": 0, "weight": 1.0},
         "image 'c' has words with 'word_id', but the file's first image has words with 'word_id', 'count'"),
        ({"word_id": 0, "weight": 1.0}, {"word_id": 0, "vector": [1.0, 0.0], "weight": 1.0},
         "image 'c' has words with 'word_id', 'vector', but the file's first image has words with 'word_id'"),
        ({"vector": [1.0, 0.0], "weight": 1.0}, {"vector": [1.0, 0.0, 0.0], "weight": 1.0},
         "image 'c' has vectors of length 3, but the file's first image has length 2"),
    ])
    def test_a_file_holds_one_kind_of_image(self, tmp_path, tiny_vocab, first, other, message):
        path = tmp_path / "images.jsonl"
        records = [("a", first), ("b", first), ("c", other), ("d", first)]
        path.write_text("\n".join(json.dumps({"image_id": name, "words": [w]}) for name, w in records)
                        .replace("\n", "\n\n", 1) + "\n")
        with pytest.raises(ValidationError, match=f"images.jsonl: line 4: {message}"):
            load_images(path, vocab=tiny_vocab)


class TestColumnarLoad:
    def _files(self, tmp_path):
        """One generated corpus saved in four forms, with its vocabulary."""
        dataset, _, _ = generate_synthetic(GeneratorConfig(seed=19, vocab_size=48, dimension=6,
                                                           image_count=25, words_per_image=12))
        vocab, images = dataset.vocab, dataset.images
        scale = np.random.RandomState(23).uniform(0.5, 2.0, size=(dataset.weights.size, 1))
        forms = {
            "tfidf": dataset,
            "weights": Dataset.from_images(
                [ImageObject(img.image_id, img.weights, word_ids=img.word_ids, vocab=vocab)
                 for img in images]),
            "raw": Dataset.from_images(
                [ImageObject(img.image_id, img.weights, counts=img.counts,
                             vectors=img.vector_matrix() * scale[lo:hi])
                 for img, lo, hi in zip(images, dataset.offsets, dataset.offsets[1:])]),
        }
        paths = {}
        for name, form in forms.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            save_images(form, paths[name])
        records = [json.loads(line) for line in paths["tfidf"].read_text().splitlines()]
        for rec in records:
            for word in rec["words"]:
                del word["weight"]
        paths["counts"] = tmp_path / "counts.jsonl"
        paths["counts"].write_text("".join(json.dumps(rec) + "\n" for rec in records))
        return vocab, paths

    def test_loaded_images_equal_the_per_record_build(self, tmp_path):
        vocab, paths = self._files(tmp_path)
        for name, path in paths.items():
            loaded = load_images(path, vocab=vocab)
            want = images_per_record(path, vocab=vocab)
            assert len(loaded) == len(want) == 25
            for got, ref in zip(loaded.images, want):
                assert got.image_id == ref.image_id
                assert got.weights.tobytes() == ref.weights.tobytes()
                for column in ("word_ids", "counts", "vectors"):
                    a, b = getattr(got, column), getattr(ref, column)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes(), (name, column)
                assert got.vocab is ref.vocab
            if name != "raw":
                corpus = Corpus.from_dataset(loaded)
                images = loaded.images
                assert np.array_equal(corpus.word_ids, np.concatenate([img.word_ids for img in images]))
                assert np.array_equal(corpus.weights, np.concatenate([img.weights for img in images]))
                assert corpus.offsets.tolist() == np.cumsum([0] + [img.word_count for img in images]).tolist()
            if name != "counts":
                save_images(loaded, tmp_path / "again.jsonl")
                assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_loading_builds_no_image_object(self, tmp_path, monkeypatch):
        vocab, paths = self._files(tmp_path)
        built = []
        post_init = ImageObject.__post_init__
        monkeypatch.setattr(ImageObject, "__post_init__", lambda img: built.append(img) or post_init(img))
        dataset = load_images(paths["tfidf"], vocab=vocab)
        assert built == []
        dataset.image(3)
        assert len(built) == 1

    def test_dataset_rules_name_the_image_of_the_first_refused_word(self, tiny_vocab):
        backed = dict(word_ids=[0, 1, 2, 2], vocab=tiny_vocab)
        dataset = Dataset(["a", "b"], [0, 1, 4], [1.0, 1.0, 0.5, 0.25], **backed)
        assert len(dataset) == 2 and dataset.image(-1).word_ids.tolist() == [1, 2, 2]
        cases = [
            ((["a", "b"], [0, 1, 4], [1.0, 1.0, 1.5, 0.25]), DomainError, "image 'b': weights"),
            ((["a", "b"], [0, 4, 4], [1.0, 1.0, 0.5, 0.25]), DomainError, "image 'b' has no words"),
            ((["a", "a"], [0, 1, 4], [1.0, 1.0, 0.5, 0.25]), DomainError, "duplicate image id 'a'"),
            ((["a", "b"], [0, 1, 3], [1.0, 1.0, 0.5, 0.25]), ContractError, "offsets must run"),
            (([], [0], []), DomainError, "a dataset needs at least one image"),
        ]
        for args, error, message in cases:
            with pytest.raises(error, match=message):
                Dataset(*args, **backed)
        with pytest.raises(DomainError, match="image 'b': word id outside"):
            Dataset(["a", "b"], [0, 1, 2], [1.0, 1.0], word_ids=[0, 3], vocab=tiny_vocab)
        with pytest.raises(DomainError, match="image 'c' has a zero vector"):
            Dataset(["a", "b", "c"], [0, 1, 2, 4], [1.0] * 4, vectors=[[1, 0], [0, 1], [1, 1], [0, 0]])


class TestTruthFiles:
    def test_round_trip(self, tmp_path):
        truth = {"dup000001": "img000007", "dup000000": "img000003"}
        path = tmp_path / "truth.json"
        save_truth(truth, path)
        assert load_truth(path) == truth

    def test_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_truth(path)


class TestPsmiFiles:
    def _index(self, seed=139, size=24, dim=4, mu0=0.6):
        vocab = random_vocab(np.random.RandomState(seed), size, dim)
        return vocab, build_psmi_index(vocab, mu0)

    def test_round_trip_values_and_bytes(self, tmp_path):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        loaded = load_psmi(path, vocab=vocab)
        assert loaded.mu0_build == idx.mu0_build
        assert loaded.vocab_checksum == idx.vocab_checksum
        assert loaded.dimension == idx.dimension
        assert np.array_equal(loaded.frequencies, idx.frequencies)
        assert np.array_equal(loaded.csr_offsets, idx.csr_offsets)
        assert np.array_equal(loaded.csr_ids, idx.csr_ids)
        assert np.array_equal(loaded.csr_sims, idx.csr_sims)
        save_psmi(loaded, tmp_path / "again.psmi")
        assert (tmp_path / "again.psmi").read_bytes() == path.read_bytes()

    def test_tree_rebuilt_identically(self, tmp_path):
        from vwsim import build_huffman_tree, huffman_depths
        vocab, idx = self._index(seed=149)
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        loaded = load_psmi(path)
        assert np.array_equal(huffman_depths(build_huffman_tree(loaded.frequencies), loaded.size),
                              huffman_depths(build_huffman_tree(idx.frequencies), idx.size))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "idx.psmi"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            load_psmi(path)

    def test_bad_version(self, tmp_path):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_psmi(path)

    @pytest.mark.parametrize("k, dim, mu0, message", [
        (0, 4, 0.5, "empty index header"),
        (24, 0, 0.5, "empty index header"),
        (24, 4, 1.0, "build threshold out of range"),
        (24, 4, -0.5, "build threshold out of range"),
        (24, 4, float("nan"), "build threshold out of range"),
    ])
    def test_bad_header_fields(self, tmp_path, k, dim, mu0, message):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<IIdQ", data, 8, k, dim, mu0, idx.vocab_checksum)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=message):
            load_psmi(path)

    def test_truncated_file(self, tmp_path):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        data = path.read_bytes()
        for cut in (10, len(data) // 2, len(data) - 3):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_psmi(path)

    def test_forged_word_count_allocates_nothing(self, tmp_path):
        # A bare 32-byte header claiming 2**22 words holds no word records;
        # it is refused before any array sized by the claimed count exists.
        path = tmp_path / "idx.psmi"
        path.write_bytes(struct.pack("<4sIIIdQ", b"PSMI", 1, 1 << 22, 4, 0.5, 0))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                load_psmi(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_trailing_garbage(self, tmp_path):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_psmi(path)

    def test_frequency_beyond_int64_rejected(self, tmp_path):
        vocab, idx = self._index()
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        data = bytearray(path.read_bytes())
        data[32:40] = b"\xff" * 8  # word 0's frequency, right after the 32-byte prefix
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="frequency"):
            load_psmi(path)

    def test_checksum_mismatch(self, tmp_path):
        vocab, idx = self._index()
        other = random_vocab(np.random.RandomState(151), 24, 4)
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        with pytest.raises(CompatibilityError):
            load_psmi(path, vocab=other)
        # Without a vocabulary the load itself succeeds.
        assert load_psmi(path).size == idx.size

    @pytest.mark.parametrize("seed, size, dim, mu0, digest", [
        (90001, 64, 2, 0.5, "e6c40bde8d702d756d0600e4e49c37103894b229821723971bfe491a07df792a"),
        (90002, 1024, 16, 0.7, "6e28ffc35c6e30d1829978e320efc426a62dcc11a655a0648d74c425a4623e52"),
        (90003, 300, 3, 0.9, "691dff030a9b086671df6b8f05d90236efd32c60769d11e02723442f8580c9d8"),
    ])
    def test_golden_bytes(self, tmp_path, seed, size, dim, mu0, digest):
        # Pinned v1 files: a change to the build or the writer that alters a
        # single byte fails here even if it round-trips with itself.
        idx = build_psmi_index(random_vocab(np.random.RandomState(seed), size, dim), mu0)
        path = tmp_path / "idx.psmi"
        save_psmi(idx, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @staticmethod
    def _write_lists(path, lists, mu0=0.5):
        ids = [w for entries in lists for w, _ in entries]
        sims = [s for entries in lists for _, s in entries]
        offsets = np.cumsum([0] + [len(entries) for entries in lists])
        freqs = np.ones(len(lists), dtype=np.int64)
        save_psmi(PsimIndex.from_lists(freqs, offsets, ids, sims, mu0, 0, 2), path)

    @pytest.mark.parametrize("lists, message", [
        ([[(0, 1.0)], []], "no self entry"),
        ([[(0, 1.0), (2, 0.9)], [(1, 1.0)]], "references an id"),
        ([[(1, 0.9), (0, 1.0)], [(1, 1.0), (0, 0.9)]], "lead with its self entry"),
        ([[(0, 0.9)], [(1, 1.0)]], "lead with its self entry"),
        ([[(0, 1.0), (1, 0.6), (2, 0.9)], [(1, 1.0), (0, 0.6)], [(2, 1.0), (0, 0.9)]],
         "descending"),
        ([[(0, 1.0), (1, 0.4)], [(1, 1.0), (0, 0.4)]], "outside the build range"),
        ([[(0, 1.0), (1, float("nan"))], [(1, 1.0), (0, float("nan"))]], "outside the build range"),
        ([[(0, 1.0), (1, 0.9), (1, 0.9)], [(1, 1.0), (0, 0.9), (0, 0.9)]], "repeats a word id"),
        ([[(0, 1.0), (1, 0.9)], [(1, 1.0)]], "mirror"),
        ([[(0, 1.0), (1, 0.9)], [(1, 1.0), (0, 0.8)]], "mirror"),
        ([[(0, 1.0), (2, 0.9)], [(1, 1.0), (2, 0.9)], [(2, 1.0), (0, 0.9)]], "mirror"),
    ])
    def test_malformed_lists_rejected(self, tmp_path, lists, message):
        path = tmp_path / "idx.psmi"
        self._write_lists(path, lists)
        with pytest.raises(FormatError, match=message):
            load_psmi(path)

    def test_swapped_tied_entries_rejected(self, tmp_path):
        # Grid directions tie exactly. Swapping two tied entries past the
        # self entry keeps every mirror, so only the tie order catches it.
        grid = [p for p in itertools.product(range(-2, 3), repeat=3) if any(p)]
        vocab = Vocabulary(vectors=unit_rows(np.array(grid, dtype=float)),
                           frequencies=np.ones(len(grid), dtype=np.int64))
        idx = build_psmi_index(vocab, 0.3)
        ids, sims = idx.csr_ids.copy(), idx.csr_sims
        rank = np.arange(ids.size) - idx.csr_offsets[:-1].repeat(np.diff(idx.csr_offsets))
        i = int(np.flatnonzero((rank[1:] >= 2) & (sims[1:] == sims[:-1]))[0])
        ids[[i, i + 1]] = ids[[i + 1, i]]
        path = tmp_path / "idx.psmi"
        save_psmi(PsimIndex.from_lists(idx.frequencies, idx.csr_offsets, ids, sims, 0.3,
                                       idx.vocab_checksum, 3), path)
        with pytest.raises(FormatError, match="ascending id"):
            load_psmi(path, vocab=vocab)

    def test_symmetric_hand_written_lists_load(self, tmp_path):
        path = tmp_path / "idx.psmi"
        self._write_lists(path, [[(0, 1.0), (1, 0.9)], [(1, 1.0), (0, 0.9)]])
        assert load_psmi(path).csr_ids.tolist() == [0, 1, 1, 0]

    def test_random_round_trips(self, tmp_path):
        rng = np.random.RandomState(157)
        for trial in range(20):
            vocab = random_vocab(rng, int(rng.randint(2, 32)), int(rng.choice([2, 3, 8])))
            idx = build_psmi_index(vocab, float(rng.choice([0.3, 0.6, 0.9])))
            path = tmp_path / f"t{trial}.psmi"
            save_psmi(idx, path)
            loaded = load_psmi(path, vocab=vocab)
            save_psmi(loaded, tmp_path / "echo.psmi")
            assert (tmp_path / "echo.psmi").read_bytes() == path.read_bytes()
