"""Offline index of potential similar words over a whole vocabulary.

For every vocabulary word, precompute the list of all other words whose
clamped cosine exceeds a build threshold: self first (at exactly 1.0), then
descending similarity, then ascending id. The build is a chunked all-pairs
join whose candidates are flat row-major positions, rescored exactly and
laid out by one stable sort. The index is three CSR arrays holding all
lists back to back, and they are its only copy: a word's list is the
read-only ``(ids, sims)`` slice pair that :func:`huffman_search` returns,
and no object is built per list entry. The Huffman tree over the word
frequencies is derived from the frequencies alone, on demand, and serves
code-length statistics only.

Matching against this index never touches vectors at query time. Of a
query word's entries above the query threshold whose word is in the target
image, it keeps the maximum, ties to the smallest target position: the naive
double loop's rule, so outcomes are bit-identical whenever the query
threshold is at least the build threshold. List order is a file-format rule.

:func:`search` scores one query against a whole :class:`Corpus` in one
batched pass over the same lists, with per-image postings in place of the
per-pair id lookup; its scores equal :func:`psmi_similarity`'s bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    Vocabulary,
    _column,
    _readonly,
    _score,
    _segment_sums,
    _sum,
    _word_id,
    check_threshold,
    image_similarity,
)
from .errors import DomainError, PreconditionError, UnknownWordError
from .matching import _pair_scores

if TYPE_CHECKING:
    from .io import Dataset

__all__ = [
    "Corpus",
    "HuffmanNode",
    "PsimIndex",
    "build_huffman_tree",
    "huffman_depths",
    "weighted_code_length",
    "build_psmi_index",
    "huffman_search",
    "psmi_match",
    "psmi_similarity",
    "search",
]

# Candidate margin for the all-pairs matrix product; candidates are then
# rescored through the exact kernel before thresholding.
_CANDIDATE_MARGIN = 1e-9


@dataclass(eq=False)
class HuffmanNode:
    """Leaf (word id, frequency, payload) or internal merge node."""

    frequency: int
    word_id: Optional[int] = None
    payload: Optional[tuple[np.ndarray, np.ndarray]] = None
    left: Optional["HuffmanNode"] = None
    right: Optional["HuffmanNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.word_id is not None


def build_huffman_tree(frequencies, payloads=None) -> HuffmanNode:
    """Classic two-smallest-merge construction with fixed tie-breaking.

    Ties on frequency are resolved by preferring leaves (smallest word id
    first) over internal nodes, and internal nodes by creation order. Of the
    two merged nodes, the smaller one becomes the right child. Any fixed
    rule would do; this one makes the tree a pure function of the
    frequencies, which serialization relies on.
    """
    freqs = [int(f) for f in frequencies]
    if not freqs:
        raise DomainError("cannot build a tree over an empty vocabulary")
    if any(f < 0 for f in freqs):
        raise DomainError("frequencies must be non-negative")

    heap = []
    for wid, f in enumerate(freqs):
        payload = None if payloads is None else payloads[wid]
        node = HuffmanNode(frequency=f, word_id=wid, payload=payload)
        heapq.heappush(heap, (f, 0, wid, node))
    serial = 0
    while len(heap) > 1:
        _, _, _, smaller = heapq.heappop(heap)
        _, _, _, larger = heapq.heappop(heap)
        merged = HuffmanNode(frequency=smaller.frequency + larger.frequency,
                             left=larger, right=smaller)
        heapq.heappush(heap, (merged.frequency, 1, serial, merged))
        serial += 1
    return heap[0][3]


def huffman_depths(root: HuffmanNode, size: int) -> np.ndarray:
    """Leaf depth per word id (the code length of that word)."""
    depths = np.zeros(size, dtype=np.int64)
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            depths[node.word_id] = depth
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return depths


def weighted_code_length(index: "PsimIndex") -> int:
    """Total frequency-weighted code length of the tree layout."""
    depths = huffman_depths(index.tree, index.size)
    return int(np.dot(index.frequencies, depths))


@dataclass(frozen=True, eq=False)
class PsimIndex:
    """The built offline index.

    ``csr_offsets/csr_ids/csr_sims`` hold all per-word lists back to back
    (word ``w`` owns the slice ``offsets[w]:offsets[w+1]``). The build
    threshold is stored because entries below it were discarded and queries
    under it cannot be answered. The constructor, which the builder and the
    loader both call, takes the four arrays through :func:`core._column`.
    """

    mu0_build: float
    vocab_checksum: int
    dimension: int
    frequencies: np.ndarray
    csr_offsets: np.ndarray
    csr_ids: np.ndarray
    csr_sims: np.ndarray

    def __post_init__(self):
        for name in ("frequencies", "csr_offsets", "csr_ids"):
            object.__setattr__(self, name, _column(getattr(self, name), np.int64, name))
        object.__setattr__(self, "csr_sims", _column(self.csr_sims, np.float64, "csr_sims"))

    @property
    def size(self) -> int:
        return self.frequencies.size

    @cached_property
    def tree(self) -> HuffmanNode:
        """Huffman tree over the word frequencies (a pure function of them)."""
        return build_huffman_tree(self.frequencies)

    @cached_property
    def lists(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Every word's ``(ids, sims)`` slice pair, in word-id order."""
        bounds = self.csr_offsets.tolist()
        return tuple((self.csr_ids[lo:hi], self.csr_sims[lo:hi])
                     for lo, hi in zip(bounds, bounds[1:]))

    @classmethod
    def from_lists(cls, frequencies, offsets, ids, sims, mu0_build, vocab_checksum, dimension) -> "PsimIndex":
        """``PsimIndex(...)`` with the arrays first, the order ``perfbench`` calls it in."""
        return cls(mu0_build, vocab_checksum, dimension, frequencies, offsets, ids, sims)


def build_psmi_index(vocab: Vocabulary, mu0_build: float) -> PsimIndex:
    """Precompute every word's potential similar words above ``mu0_build``.

    Each chunk of the all-pairs matrix product yields flat row-major
    positions, rescored through the shared kernel, so stored similarities
    match what the naive matcher would compute and every self entry is
    exactly 1.0. One stable three-key sort lays out the lists.
    """
    mu0_build = check_threshold(mu0_build)
    unit = vocab.unit_matrix
    k = vocab.size

    chunk = max(1, (1 << 22) // k)
    cut = mu0_build - _CANDIDATE_MARGIN
    flat_parts, sim_parts = [], []
    for lo in range(0, k, chunk):
        flat = np.flatnonzero(unit[lo:lo + chunk] @ unit.T > cut) + lo * k
        rows, cols = np.divmod(flat, k)
        sims = _pair_scores(unit[rows], unit[cols])
        keep = sims > mu0_build
        flat_parts.append(flat[keep])
        sim_parts.append(sims[keep])
    rows, cols = np.divmod(np.concatenate(flat_parts), k)
    sims = np.concatenate(sim_parts)

    # Per word: self first (even ahead of another word at 1.0), then descending
    # similarity; ids arrive ascending and the stable sort keeps them so on ties.
    order = np.lexsort((-sims, rows != cols, rows))
    return PsimIndex(
        mu0_build=mu0_build,
        vocab_checksum=vocab.checksum,
        dimension=vocab.dimension,
        frequencies=vocab.frequencies,
        csr_offsets=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k)))),
        csr_ids=cols[order],
        csr_sims=sims[order],
    )


def huffman_search(idx: PsimIndex, word_id: int) -> tuple[np.ndarray, np.ndarray]:
    """A word's list as read-only ``(ids, sims)`` views of the CSR arrays."""
    wid = _word_id(word_id)
    if not 0 <= wid < idx.size:
        raise UnknownWordError(f"word id {wid} is not in the indexed vocabulary")
    lo, hi = idx.csr_offsets[wid], idx.csr_offsets[wid + 1]
    return idx.csr_ids[lo:hi], idx.csr_sims[lo:hi]


_UNBACKED = "offline-index matching requires vocabulary-backed images"


def _check_index(idx: PsimIndex, mu0_query: float, max_word_id: int, checksums) -> None:
    """Refuse a query the index cannot answer exactly, in one order for every caller."""
    if mu0_query < idx.mu0_build:
        raise PreconditionError(
            f"query threshold {mu0_query} is below the index build threshold {idx.mu0_build}")
    if max_word_id >= idx.size:
        raise PreconditionError("image carries word ids outside the indexed vocabulary")
    if any(checksum != idx.vocab_checksum for checksum in checksums):
        raise PreconditionError("image vocabulary differs from the one the index was built for")


def _segments(offsets: np.ndarray, keys: np.ndarray):
    """The positions ``offsets[k]:offsets[k+1]`` of every key, back to back.

    Returns them with each segment's length and its start in the result.
    """
    starts = offsets[keys]
    lengths = offsets[keys + 1] - starts
    seg_offsets = np.cumsum(lengths) - lengths
    flat = np.repeat(starts - seg_offsets, lengths) + np.arange(int(lengths.sum()))
    return flat, lengths, seg_offsets


def psmi_match(a: ImageObject, b: ImageObject, mu0_query: float, idx: PsimIndex) -> MatchOutcome:
    """Match using only precomputed lists and id membership on B.

    For each query word, the largest list similarity above ``mu0_query``
    among the word ids that occur in B wins; its partner is the smallest B
    position holding that similarity, as in the naive double loop. Requires
    images backed by the indexed vocabulary and ``mu0_query >= mu0_build``.
    """
    mu0_query = check_threshold(mu0_query)
    if a.vocab is None or b.vocab is None:
        raise PreconditionError(_UNBACKED)
    a_ids = a.word_ids
    b_ids = b.word_ids
    _check_index(idx, mu0_query, max(int(a_ids.max()), int(b_ids.max())),
                 (a.vocab.checksum, b.vocab.checksum))

    n = b.word_count
    # Smallest B position per word id; n doubles as the "absent" sentinel.
    first_pos = np.full(idx.size, n, dtype=np.int64)
    np.minimum.at(first_pos, b_ids, np.arange(n, dtype=np.int64))

    # One segment of candidates per query word (never empty: every list
    # holds its self entry). A candidate at or below the threshold, or
    # absent from B, scores 0 and never wins.
    flat, lengths, seg_offsets = _segments(idx.csr_offsets, a_ids)
    cand_pos = first_pos[idx.csr_ids[flat]]
    cand_sims = idx.csr_sims[flat]
    cand_sims[(cand_sims <= mu0_query) | (cand_pos == n)] = 0.0

    # The maximum, then the smallest B position holding it.
    mu = np.maximum.reduceat(cand_sims, seg_offsets)
    tied = np.where(cand_sims == np.repeat(mu, lengths), cand_pos, n)
    partners = np.where(mu > 0.0, np.minimum.reduceat(tied, seg_offsets), -1)
    return MatchOutcome(mu, partners)


def psmi_similarity(a: ImageObject, b: ImageObject, mu0: float, idx: PsimIndex) -> float:
    return image_similarity(a, b, psmi_match(a, b, mu0, idx))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Vocabulary-backed images stored back to back, for :func:`search`.

    Image ``i`` owns positions ``offsets[i]:offsets[i+1]`` of ``word_ids``
    and ``weights``; ``owners`` maps each position back to its image and
    ``totals`` holds each image's weight sum. ``postings`` lists every
    position sorted by (word, image, position): word ``w``'s postings are
    ``postings[word_offsets[w]:word_offsets[w+1]]``. Build it once per
    dataset with :meth:`from_dataset`.
    """

    vocab_checksum: int
    word_ids: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    owners: np.ndarray
    totals: np.ndarray
    postings: np.ndarray
    word_offsets: np.ndarray

    @classmethod
    def from_dataset(cls, dataset: "Dataset") -> "Corpus":
        """Concatenate the dataset's images, which must share one vocabulary."""
        images = dataset.images
        if not images:
            raise DomainError("a corpus needs at least one image")
        if any(img.vocab is None for img in images):
            raise PreconditionError(_UNBACKED)
        if len({img.vocab.checksum for img in images}) != 1:
            raise PreconditionError("corpus images come from different vocabularies")
        vocab = images[0].vocab
        lengths = np.array([img.word_count for img in images], dtype=np.int64)
        weights = np.concatenate([img.weights for img in images])
        word_ids = np.concatenate([img.word_ids for img in images])
        arrays = dict(
            word_ids=word_ids,
            weights=weights,
            offsets=np.concatenate(([0], np.cumsum(lengths))),
            owners=np.repeat(np.arange(lengths.size), lengths),
            totals=_segment_sums(weights, lengths),
            postings=np.argsort(word_ids, kind="stable"),
            word_offsets=np.concatenate(
                ([0], np.cumsum(np.bincount(word_ids, minlength=vocab.size)))),
        )
        return cls(vocab_checksum=vocab.checksum,
                   **{name: _readonly(arr) for name, arr in arrays.items()})

    @property
    def size(self) -> int:
        return self.totals.size


def search(query: ImageObject, corpus: Corpus, mu0: float, idx: PsimIndex) -> np.ndarray:
    """``psmi_similarity(query, b, mu0, idx)`` for every corpus image ``b``, in one pass.

    Returns one score per image, in corpus order, bit-identical to the
    per-pair call. Each query word's list entries above ``mu0`` fan out to
    their postings; per (image, query word) the maximum similarity wins,
    ties to the smallest B position, and the score's sums are segment sums
    over the images. Refuses what :func:`psmi_match` refuses.
    """
    mu0 = check_threshold(mu0)
    if query.vocab is None:
        raise PreconditionError(_UNBACKED)
    a_ids = query.word_ids
    _check_index(idx, mu0, max(int(a_ids.max()), int(corpus.word_ids.max())),
                 (query.vocab.checksum, corpus.vocab_checksum))
    m = a_ids.size

    # The query's list entries above the threshold, each with its query word.
    flat, lengths, _ = _segments(idx.csr_offsets, a_ids)
    keep = idx.csr_sims[flat] > mu0
    flat = flat[keep]
    entry_word = np.repeat(np.arange(m), lengths)[keep]

    # Every corpus position holding an entry's word is a candidate partner.
    post, post_lengths, _ = _segments(corpus.word_offsets, idx.csr_ids[flat])
    cand_pos = corpus.postings[post]
    cand_word = np.repeat(entry_word, post_lengths)
    cand_sims = np.repeat(idx.csr_sims[flat], post_lengths)
    cand_image = corpus.owners[cand_pos]

    # Per (image, query word): the maximum, then the smallest B position.
    # Winners come out in (image, query word) order, the per-pair sum order.
    order = np.lexsort((cand_pos, -cand_sims, cand_word, cand_image))
    group = (cand_image * m + cand_word)[order]
    win = order[np.flatnonzero(np.diff(group, prepend=-1))]
    image, word, pos, lam = cand_image[win], cand_word[win], cand_pos[win], cand_sims[win]

    aw = query.weights
    wa, wb = aw[word], corpus.weights[pos]
    pair_counts = np.bincount(image, minlength=corpus.size)
    matched = np.zeros((corpus.size, m), dtype=bool)
    matched[image, word] = True
    covered = np.zeros(corpus.word_ids.size, dtype=bool)
    covered[pos] = True

    # The four per-image sums, as four runs of segments of one array.
    terms = (lam * wa * wb, lam * lam * wa * wb,
             np.broadcast_to(aw, matched.shape)[~matched], corpus.weights[~covered])
    lengths = (pair_counts, pair_counts, m - pair_counts,
               np.bincount(corpus.owners[~covered], minlength=corpus.size))
    sums = _segment_sums(np.concatenate(terms), np.concatenate(lengths)).reshape(4, -1)
    scores = np.zeros(corpus.size)
    has_pair = pair_counts > 0
    scores[has_pair] = _score(*sums[:, has_pair], _sum(aw), corpus.totals[has_pair])
    return scores
