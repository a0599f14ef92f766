"""Offline index of potential similar words over a whole vocabulary.

For every vocabulary word, precompute the list of all other words whose
clamped cosine exceeds a build threshold: self first (at exactly 1.0), then
descending similarity, then ascending id. The build is a half-join: fixed
1 MiB tiles of a float32 product over the upper triangle only, cut below
the build threshold by a proven error bound, so that every pair the exact
kernel keeps is a candidate. The candidates are rescored exactly in
float64, each off-diagonal entry is mirrored into its partner's list, and
two stable sorts lay out the lists, by similarity and then by word; the
mirrors go ahead of the other entries, so ties keep ascending id with no
id key. The index is three CSR arrays
holding all lists back to back, and they are its only copy: a word's list
is the read-only ``(ids, sims)`` slice pair that :func:`huffman_search`
returns, and no object is built per list entry. The index holds no Huffman
tree: :func:`build_huffman_tree` derives one from the frequencies alone
when asked, and it serves code-length statistics only.

Matching against this index never touches vectors at query time. Both
:func:`_psmi_pairs` (one pair) and :func:`search` (one query, a whole
:class:`Corpus` through its postings) gather the query's entries above the
query threshold (:func:`_entries`) and keep :func:`_winners`, psmi's one
winner rule: the maximum, ties to the smallest target position. That is the
naive double loop's rule, so outcomes are bit-identical whenever the query
threshold is at least the build threshold, and search's scores equal
:func:`psmi_similarity`'s bit for bit. List order is a file-format rule.
:func:`_psmi_pairs` yields one pair's winners as ``(a_idx, b_idx, lam)``,
the shape every matcher yields: :func:`psmi_match` hands them to
``core._outcome`` and :func:`psmi_similarity` to the shared scorer
``core._pair_similarity``.
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
    _outcome,
    _pair_similarity,
    _readonly,
    _score,
    _segment_sums,
    _sum,
    _word_id,
    check_threshold,
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
    depths = huffman_depths(build_huffman_tree(index.frequencies), index.size)
    return int(np.dot(index.frequencies, depths))


@dataclass(frozen=True, eq=False)
class PsimIndex:
    """The built offline index.

    ``csr_offsets/csr_ids/csr_sims`` hold all per-word lists back to back
    (word ``w`` owns the slice ``offsets[w]:offsets[w+1]``). The build
    threshold is stored because entries below it were discarded and queries
    under it cannot be answered. The constructor, which the builder and the
    loader both call, takes the four arrays through :func:`core._column`,
    which checks that there are ``K + 1`` offsets and one similarity per id.
    """

    mu0_build: float
    vocab_checksum: int
    dimension: int
    frequencies: np.ndarray
    csr_offsets: np.ndarray
    csr_ids: np.ndarray
    csr_sims: np.ndarray

    def __post_init__(self):
        freqs = _column(self.frequencies, np.int64, "frequencies", (None,))
        offsets = _column(self.csr_offsets, np.int64, "csr_offsets", (freqs.size + 1,))
        ids = _column(self.csr_ids, np.int64, "csr_ids", (None,))
        sims = _column(self.csr_sims, np.float64, "csr_sims", ids.shape)
        for name, column in zip(("frequencies", "csr_offsets", "csr_ids", "csr_sims"),
                                (freqs, offsets, ids, sims)):
            object.__setattr__(self, name, column)

    @property
    def size(self) -> int:
        return self.frequencies.size

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


# The build's float32 tile: 256 rows by 1024 columns, 1 MiB, which stays in cache.
_TILE_ROWS, _TILE_COLS = 256, 1024


def build_psmi_index(vocab: Vocabulary, mu0_build: float) -> PsimIndex:
    """Precompute every word's potential similar words above ``mu0_build``.

    The kernel commutes, so the join covers the upper triangle only: it walks
    ``_TILE_ROWS x _TILE_COLS`` tiles of the unit matrix rounded to float32
    (1 MiB each), row tile ``lo:lo + _TILE_ROWS`` against the column tiles
    from ``lo`` on, and keeps the positions above
    ``cut = mu0_build - (d + 2) * 2**-23`` with ``row <= col``.

    The cut loses no pair. For float64 rows ``u, v`` from ``core.unit_rows``
    (unit to within ``(d + 4) * 2**-52``, which the slack covers) with float32
    roundings ``û, v̂`` (``|û_i - u_i| <= 2**-24 |u_i|``), Cauchy-Schwarz gives
    ``|û·v̂ - u·v| <= (2 * 2**-24 + 2**-48) |u| |v|``; a float32 dot product
    in any summation order, with or without FMA, is within ``γ_d |û| |v̂|``
    of ``û·v̂``, where ``γ_d = d * 2**-24 / (1 - d * 2**-24)`` (Higham 2002,
    §3.1), and the float64 one within ``d * 2**-53`` of ``u·v`` likewise. So
    ``|fl32(û·v̂) - fl64(u·v)| <= (d + 2) * 2**-24 + d * 2**-53 + O(d² * 2**-48)``;
    float32 subnormals add at most ``d * 2**-149``. The cut sits twice that
    leading term below the threshold, and the slack also covers the cut's
    own rounding to float32 (at most ``2**-25``). A pair the kernel keeps
    has a float64 dot product above ``mu0_build`` (clamping only lowers it),
    or is an identical pair within ``1e-9`` of 1, so its float32 product
    clears the cut. The bound holds for any tile shape and BLAS blocking.

    Each tile's candidates are rescored through the shared kernel, so stored
    similarities match what the naive matcher computes and every self entry
    is exactly 1.0. Each off-diagonal entry ``(r, c, s)`` is mirrored as
    ``(c, r, s)``: ``np.dot`` gives the two orders bit for bit. Two stable
    sorts lay out the lists: by similarity descending (self entries keyed
    below every similarity, so they come first), then by word id. Ties keep
    the order the entries arrive in, and within each word that is ascending
    id: the mirrors go first and hold the ids below the word, in the row
    order of the tiles, and the self and upper entries follow with the ids
    from the word on, in column order.
    """
    mu0_build = check_threshold(mu0_build)
    unit = vocab.unit_matrix
    k, d = unit.shape
    unit32 = unit.astype(np.float32)
    unit32_t = np.ascontiguousarray(unit32.T)

    cut = mu0_build - (d + 2) * 2.0**-23
    row_parts, col_parts, sim_parts = [], [], []
    for lo in range(0, k, _TILE_ROWS):
        tile_rows = unit32[lo:lo + _TILE_ROWS]
        for left in range(lo, k, _TILE_COLS):
            tile = tile_rows @ unit32_t[:, left:left + _TILE_COLS]
            rows, cols = np.divmod(np.flatnonzero(tile > cut), tile.shape[1])
            rows += lo
            cols += left
            if left < lo + _TILE_ROWS:  # the tile crosses the diagonal
                upper = rows <= cols
                rows, cols = rows[upper], cols[upper]
            sims = _pair_scores(unit[rows], unit[cols])
            keep = sims > mu0_build
            row_parts.append(rows[keep])
            col_parts.append(cols[keep])
            sim_parts.append(sims[keep])
    rows, cols, sims = (np.concatenate(parts) for parts in (row_parts, col_parts, sim_parts))
    off = rows != cols
    rows, cols = np.concatenate((cols[off], rows)), np.concatenate((rows[off], cols))
    sims = np.concatenate((sims[off], sims))

    # Per word: self first (even ahead of another word at 1.0), then descending
    # similarity, then ascending id, which is the order of arrival.
    key = -sims
    key[rows == cols] = -np.inf
    order = np.argsort(key, kind="stable")
    # Stable by word id, as two 16-bit passes, which numpy sorts by radix.
    for shift in (0, 16):
        order = order[np.argsort((rows[order] >> shift).astype(np.uint16), kind="stable")]
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
    """The positions ``offsets[k]:offsets[k+1]`` of every key back to back, and their lengths."""
    starts = offsets[keys]
    lengths = offsets[keys + 1] - starts
    seg_offsets = np.cumsum(lengths) - lengths
    flat = np.repeat(starts - seg_offsets, lengths)
    return flat + np.arange(flat.size), lengths


def _entries(a_ids: np.ndarray, mu0: float, idx: PsimIndex):
    """The query's list entries above ``mu0``: each one's query word, word id and similarity."""
    flat, lengths = _segments(idx.csr_offsets, a_ids)
    keep = idx.csr_sims[flat] > mu0
    flat = flat[keep]
    return np.repeat(np.arange(a_ids.size), lengths)[keep], idx.csr_ids[flat], idx.csr_sims[flat]


def _winners(group: np.ndarray, pos: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """psmi's one winner rule: per group, the largest ``sims``, ties to the smallest ``pos``.

    Groups are non-negative keys. Returns the winners' indices in group order."""
    order = np.lexsort((pos, -sims, group))
    group = group[order]
    return order[group != np.concatenate(([-1], group[:-1]))]


def _psmi_pairs(a: ImageObject, b: ImageObject, mu0_query: float, idx: PsimIndex):
    """psmi's pairs of A in B: each matched A position, its B position and λ, ascending.

    For each query word, the largest list similarity above ``mu0_query``
    among the word ids that occur in B wins; its partner is the smallest B
    position holding that similarity, as in the naive double loop. That rule
    is :func:`_winners`, shared with :func:`search`. Refuses images not
    backed by the indexed vocabulary and ``mu0_query < mu0_build``.
    """
    mu0_query = check_threshold(mu0_query)
    if a.vocab is None or b.vocab is None:
        raise PreconditionError(_UNBACKED)
    a_ids, b_ids = a.word_ids, b.word_ids
    _check_index(idx, mu0_query, max(int(a_ids.max()), int(b_ids.max())),
                 (a.vocab.checksum, b.vocab.checksum))

    n = b.word_count
    # Smallest B position per word id; n doubles as the "absent" sentinel.
    first_pos = np.full(idx.size, n, dtype=np.int64)
    np.minimum.at(first_pos, b_ids, np.arange(n, dtype=np.int64))

    # The entries whose word is in B, each at that word's first B position.
    word, ids, sims = _entries(a_ids, mu0_query, idx)
    pos = first_pos[ids]
    found = (pos < n).nonzero()[0]
    word, pos, sims = word[found], pos[found], sims[found]
    win = _winners(word, pos, sims)
    return word[win], pos[win], sims[win]


def psmi_match(a: ImageObject, b: ImageObject, mu0_query: float, idx: PsimIndex) -> MatchOutcome:
    """Match using only precomputed lists and id membership on B.

    :func:`_psmi_pairs`'s winners, built into an outcome by ``core._outcome``.
    """
    return _outcome(a.word_count, *_psmi_pairs(a, b, mu0_query, idx))


def psmi_similarity(a: ImageObject, b: ImageObject, mu0: float, idx: PsimIndex) -> float:
    """``image_similarity(a, b, psmi_match(a, b, mu0, idx))``, bit for bit, with no outcome built.

    The winners go straight to the shared scorer ``core._pair_similarity``;
    the refusals are :func:`psmi_match`'s, raised by the same code.
    """
    return _pair_similarity(a.weights, b.weights, *_psmi_pairs(a, b, mu0, idx))


@dataclass(frozen=True, eq=False)
class Corpus:
    """Vocabulary-backed images stored back to back, for :func:`search`.

    Image ``i`` owns positions ``offsets[i]:offsets[i+1]`` of ``word_ids``
    and ``weights``; ``owners`` maps each position back to its image and
    ``totals`` holds each image's weight sum. ``postings`` lists every
    position sorted by (word, image, position): word ``w``'s postings are
    ``postings[word_offsets[w]:word_offsets[w+1]]``. Build it once per
    dataset with :meth:`from_dataset`, whose word ids, weights and offsets
    it shares.
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
        """A view of a vocabulary-backed dataset's columns, plus its postings."""
        if dataset.vocab is None:
            raise PreconditionError(_UNBACKED)
        word_ids, weights, offsets = dataset.word_ids, dataset.weights, dataset.offsets
        lengths = np.diff(offsets)
        arrays = dict(
            owners=np.repeat(np.arange(lengths.size), lengths),
            totals=_segment_sums(weights, lengths),
            postings=np.argsort(word_ids, kind="stable"),
            word_offsets=np.concatenate(
                ([0], np.cumsum(np.bincount(word_ids, minlength=dataset.vocab.size)))),
        )
        return cls(vocab_checksum=dataset.vocab.checksum, word_ids=word_ids, weights=weights,
                   offsets=offsets, **{name: _readonly(arr) for name, arr in arrays.items()})

    @property
    def size(self) -> int:
        return self.totals.size


def search(query: ImageObject, corpus: Corpus, mu0: float, idx: PsimIndex) -> np.ndarray:
    """``psmi_similarity(query, b, mu0, idx)`` for every corpus image ``b``, in one pass.

    Returns one score per image, in corpus order, bit-identical to the
    per-pair call. Each query word's list entries above ``mu0`` fan out to
    their postings; per (image, query word) :func:`_winners` picks the
    winner by :func:`psmi_match`'s rule, and the score's sums are segment
    sums over the images. Refuses what :func:`psmi_match` refuses.
    """
    mu0 = check_threshold(mu0)
    if query.vocab is None:
        raise PreconditionError(_UNBACKED)
    a_ids = query.word_ids
    _check_index(idx, mu0, max(int(a_ids.max()), int(corpus.word_ids.max())),
                 (query.vocab.checksum, corpus.vocab_checksum))
    m = a_ids.size

    # Every corpus position holding an entry's word is a candidate partner.
    word, ids, sims = _entries(a_ids, mu0, idx)
    post, post_lengths = _segments(corpus.word_offsets, ids)
    cand_pos = corpus.postings[post]
    cand_word, cand_sims = np.repeat(word, post_lengths), np.repeat(sims, post_lengths)
    cand_image = corpus.owners[cand_pos]

    # Winners come out in (image, query word) order, the per-pair sum order.
    win = _winners(cand_image * m + cand_word, cand_pos, cand_sims)
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
