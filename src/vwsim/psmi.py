"""Offline index of potential similar words over a whole vocabulary.

For every vocabulary word, precompute the list of all other words whose
clamped cosine exceeds a build threshold, stored in descending-similarity
order (self first, at exactly 1.0). The index is three CSR arrays holding
all lists back to back, and they are its only copy: a word's list is the
read-only ``(ids, sims)`` slice pair that :func:`huffman_search` returns,
and no object is built per list entry. The Huffman tree over the word
frequencies is derived from the frequencies alone, on demand, and serves
code-length statistics only.

Matching against this index never touches vectors at query time: walking a
query word's list in descending order, the first entry present in the
target image is the maximum, so the outcome is bit-identical to the naive
matcher whenever the query threshold is at least the build threshold.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    ImageObject,
    MatchOutcome,
    Vocabulary,
    check_threshold,
    image_similarity,
)
from .errors import DomainError, PreconditionError, UnknownWordError
from .matching import _pair_scores

__all__ = [
    "HuffmanNode",
    "PsimIndex",
    "build_huffman_tree",
    "huffman_depths",
    "weighted_code_length",
    "build_psmi_index",
    "huffman_search",
    "psmi_match",
    "psmi_similarity",
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
    under it cannot be answered.
    """

    mu0_build: float
    vocab_checksum: int
    dimension: int
    frequencies: np.ndarray
    csr_offsets: np.ndarray
    csr_ids: np.ndarray
    csr_sims: np.ndarray

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
        return tuple(huffman_search(self, wid) for wid in range(self.size))

    @classmethod
    def from_lists(cls, frequencies: np.ndarray, offsets: np.ndarray, ids: np.ndarray,
                   sims: np.ndarray, mu0_build: float, vocab_checksum: int,
                   dimension: int) -> "PsimIndex":
        """Single construction path shared by the builder and the loader."""
        frequencies = np.ascontiguousarray(frequencies, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        sims = np.ascontiguousarray(sims, dtype=np.float64)
        for arr in (frequencies, offsets, ids, sims):
            arr.setflags(write=False)
        return cls(mu0_build=float(mu0_build), vocab_checksum=int(vocab_checksum),
                   dimension=int(dimension), frequencies=frequencies, csr_offsets=offsets,
                   csr_ids=ids, csr_sims=sims)


def build_psmi_index(vocab: Vocabulary, mu0_build: float) -> PsimIndex:
    """Precompute every word's potential similar words above ``mu0_build``.

    The all-pairs pass runs as chunked matrix products. Each chunk's
    shortlist is rescored through the shared kernel, so stored similarities
    match what the naive matcher would compute on the same two words, and
    every self entry comes out at exactly 1.0.
    """
    mu0_build = check_threshold(mu0_build)
    unit = vocab.unit_matrix
    raw = vocab.vectors
    k = vocab.size

    chunk = max(1, (1 << 22) // k)
    cut = mu0_build - _CANDIDATE_MARGIN
    row_parts, col_parts, sim_parts = [], [], []
    for lo in range(0, k, chunk):
        rows, cols = np.nonzero(unit[lo:lo + chunk] @ unit.T > cut)
        rows += lo
        sims = _pair_scores(unit[rows], unit[cols], raw[rows], raw[cols])
        keep = sims > mu0_build
        row_parts.append(rows[keep])
        col_parts.append(cols[keep])
        sim_parts.append(sims[keep])
    rows = np.concatenate(row_parts)
    cols = np.concatenate(col_parts)
    sims = np.concatenate(sim_parts)

    # Per word: self first (even ahead of another word at 1.0), then
    # descending similarity, ties by ascending id.
    order = np.lexsort((cols, -sims, rows != cols, rows))
    return PsimIndex.from_lists(
        frequencies=vocab.frequencies,
        offsets=np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k)))),
        ids=cols[order],
        sims=sims[order],
        mu0_build=mu0_build,
        vocab_checksum=vocab.checksum,
        dimension=vocab.dimension,
    )


def huffman_search(idx: PsimIndex, word_id: int) -> tuple[np.ndarray, np.ndarray]:
    """A word's list as read-only ``(ids, sims)`` views of the CSR arrays."""
    wid = int(word_id)
    if not 0 <= wid < idx.size:
        raise UnknownWordError(f"word id {wid} is not in the indexed vocabulary")
    lo, hi = idx.csr_offsets[wid], idx.csr_offsets[wid + 1]
    return idx.csr_ids[lo:hi], idx.csr_sims[lo:hi]


def psmi_match(a: ImageObject, b: ImageObject, mu0_query: float, idx: PsimIndex) -> MatchOutcome:
    """Match using only precomputed lists and id membership on B.

    For each query word, the first list entry above ``mu0_query`` whose word
    id occurs in B wins; its partner is the smallest B position holding that
    id. Requires images backed by the indexed vocabulary and
    ``mu0_query >= mu0_build``.
    """
    mu0_query = check_threshold(mu0_query)
    if a.vocab is None or b.vocab is None:
        raise PreconditionError("offline-index matching requires vocabulary-backed images")
    if mu0_query < idx.mu0_build:
        raise PreconditionError(
            f"query threshold {mu0_query} is below the index build threshold {idx.mu0_build}")
    k = idx.size
    a_ids = a.word_ids
    b_ids = b.word_ids
    if int(a_ids.max()) >= k or int(b_ids.max()) >= k:
        raise PreconditionError("image carries word ids outside the indexed vocabulary")
    for img in (a, b):
        if img.vocab.checksum != idx.vocab_checksum:
            raise PreconditionError("image vocabulary differs from the one the index was built for")

    n = b.word_count
    # Smallest B position per word id; n doubles as the "absent" sentinel.
    first_pos = np.full(k, n, dtype=np.int64)
    np.minimum.at(first_pos, b_ids, np.arange(n, dtype=np.int64))

    # One segment per query word (never empty: every list holds its self
    # entry). ``rank`` is the position inside the list, ``flat`` the CSR index.
    starts = idx.csr_offsets[a_ids]
    lengths = idx.csr_offsets[a_ids + 1] - starts
    ends = np.cumsum(lengths)
    seg_offsets = ends - lengths
    total = int(ends[-1])
    rank = np.arange(total) - np.repeat(seg_offsets, lengths)
    flat = np.repeat(starts, lengths) + rank
    cand_ids = idx.csr_ids[flat]
    cand_sims = idx.csr_sims[flat]
    viable = (cand_sims > mu0_query) & (first_pos[cand_ids] < n)

    first_rank = np.minimum.reduceat(np.where(viable, rank, total), seg_offsets)
    hit = first_rank < total

    mu = np.zeros(a.word_count, dtype=np.float64)
    partners = np.full(a.word_count, -1, dtype=np.int64)
    chosen = (seg_offsets + first_rank)[hit]
    mu[hit] = cand_sims[chosen]
    partners[hit] = first_pos[cand_ids[chosen]]
    return MatchOutcome.from_arrays(mu, partners)


def psmi_similarity(a: ImageObject, b: ImageObject, mu0: float, idx: PsimIndex) -> float:
    return image_similarity(a, b, psmi_match(a, b, mu0, idx))
