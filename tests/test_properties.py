"""Property tests: the three matchers, the batched search and the index file
agree on small generated inputs built to sit on the rules' edges.

Vocabularies hold a few directions on a small integer grid (so similarities
tie exactly), rows that only the identity rule scores 1.0 against
themselves, repeated rows, and near-identical rows whose cosine falls in
the identity band. Images have one to four words. Thresholds include the
similarities the index stores, where the strict ``> mu0`` rule decides.
Examples are derandomized and few, so the run is fixed and short.
"""

import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vwsim import (
    Corpus,
    Dataset,
    ImageObject,
    Vocabulary,
    build_psmi_index,
    load_psmi,
    psmi_match,
    psmi_similarity,
    save_psmi,
    search,
    smii_match,
    smii_similarity,
    smin_match,
    smin_similarity,
)
from vwsim.core import unit_rows

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

GRID = [p for p in itertools.product(range(-2, 3), repeat=2) if any(p)]


def _band_rows(count=8):
    """Raw rows whose self-dot, once the vocabulary and then the matchers have
    normalized them, falls short of 1.0 (no grid row does)."""
    raw = np.random.RandomState(5).standard_normal((4000, 2))
    unit = unit_rows(unit_rows(raw))
    return raw[np.einsum("ij,ij->i", unit, unit) < 1.0][:count]


BAND = _band_rows()
WEIGHTS = st.sampled_from([1.0, 0.75, 0.5, 0.3, 0.125])


@st.composite
def vocabularies(draw):
    """2 to 6 unit rows: grid directions, band rows, repeats of earlier rows,
    and rows nudged off an earlier one by far less than the identity band."""
    rows = [np.array(draw(st.sampled_from(GRID)), dtype=float)]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["grid", "band", "repeat", "nudge"]))
        if kind == "grid":
            rows.append(np.array(draw(st.sampled_from(GRID)), dtype=float))
        elif kind == "band":
            rows.append(BAND[draw(st.integers(0, len(BAND) - 1))])
        else:
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
            if kind == "nudge":
                row[draw(st.integers(0, 1))] += draw(st.sampled_from([1e-13, -1e-12, 1e-11]))
            rows.append(row)
    freqs = draw(st.lists(st.integers(0, 5), min_size=len(rows), max_size=len(rows)))
    return Vocabulary(vectors=unit_rows(np.array(rows)), frequencies=freqs)


def images(draw, vocab, name):
    m = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, vocab.size - 1), min_size=m, max_size=m))
    weights = draw(st.lists(WEIGHTS, min_size=m, max_size=m))
    return ImageObject(image_id=name, weights=weights, word_ids=ids, vocab=vocab)


def thresholds(draw, index):
    """A threshold in [mu0_build, 1): often a similarity the index stores."""
    stored = {s for s in index.csr_sims.tolist() if s < 1.0}
    fixed = {t for t in (0.5, 0.9) if t > index.mu0_build}
    return draw(st.sampled_from(sorted(stored | fixed | {index.mu0_build})))


@st.composite
def cases(draw, corpus_size=1):
    """A vocabulary, its index (built at 0 or at a stored similarity), a
    query threshold, a query image and *corpus_size* target images."""
    vocab = draw(vocabularies())
    index = build_psmi_index(vocab, 0.0)
    index = build_psmi_index(vocab, thresholds(draw, index))
    mu0 = thresholds(draw, index)
    query = images(draw, vocab, "q")
    targets = [images(draw, vocab, f"b{i}") for i in range(corpus_size)]
    return index, mu0, query, targets


@PROPERTY
@given(cases())
def test_three_matchers_agree(case):
    index, mu0, a, (b,) = case
    want = smin_match(a, b, mu0)
    assert smii_match(a, b, mu0) == want
    assert psmi_match(a, b, mu0, index) == want
    score = smin_similarity(a, b, mu0)
    assert smii_similarity(a, b, mu0) == score
    assert psmi_similarity(a, b, mu0, index) == score


@PROPERTY
@given(cases(corpus_size=4))
def test_search_is_psmi_similarity_per_image(case):
    index, mu0, query, targets = case
    scores = search(query, Corpus.from_dataset(Dataset(images=targets)), mu0, index)
    want = np.array([psmi_similarity(query, b, mu0, index) for b in targets])
    assert scores.tobytes() == want.tobytes()


@PROPERTY
@given(cases(corpus_size=0))
def test_index_file_round_trip_is_byte_exact(case):
    index = case[0]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.psmi"), Path(tmp, "second.psmi")
        save_psmi(index, first)
        save_psmi(load_psmi(first), second)
        assert second.read_bytes() == first.read_bytes()
