"""Independent reference implementations the suite checks against.

Each oracle is written in the plainest possible style with its own control
flow, so the production code cannot share a structural bug with it. The
matching oracles reuse the package's scalar ``cosine`` primitive and
nothing else: exact float agreement is part of the contract under test, and
that requires one shared arithmetic kernel; everything around it (loops,
argmax, tie-breaking, thresholding, bookkeeping) is reimplemented here.
:func:`all_pairs_reference` and :func:`lloyd_reference` are the
exceptions: they keep an earlier build of the offline index and an earlier
k-means loop, so the build's CSR arrays and the codebook can be compared
against them bit for bit.
"""

import json
import math

import numpy as np

from vwsim import ImageObject
from vwsim.matching import _pair_scores, cosine
from vwsim.quantize import _MAX_ITER, _TOL, _kmeans_pp_init, _nearest


def brute_force_match(a, b, mu0):
    """Double-loop matching; returns (mu list, partner list, -1 = unmatched)."""
    mat_a = a.vector_matrix()
    mat_b = b.vector_matrix()
    mu = []
    partners = []
    for i in range(a.word_count):
        best = -1.0
        best_j = -1
        for j in range(b.word_count):
            s = cosine(mat_a[i], mat_b[j])
            if s > best:
                best = s
                best_j = j
        if best > mu0:
            mu.append(best)
            partners.append(best_j)
        else:
            mu.append(0.0)
            partners.append(-1)
    return mu, partners


def brute_force_top1(b_matrix, q):
    """Linear argmax of clamped cosine, smallest index on ties."""
    best = -1.0
    best_j = 0
    for j in range(b_matrix.shape[0]):
        s = cosine(b_matrix[j], q)
        if s > best:
            best = s
            best_j = j
    return best_j, best


def similarity_reference(a_weights, b_weights, pairs):
    """Direct arithmetic evaluation of the pair-based score.

    ``pairs`` is a list of (a_index, b_index, lam). Uses ``math.fsum`` and
    explicit set bookkeeping, independent of the vectorized production path.
    """
    a_weights = [float(w) for w in a_weights]
    b_weights = [float(w) for w in b_weights]
    if not pairs:
        return 0.0
    num = math.fsum(lam * a_weights[i] * b_weights[j] for i, j, lam in pairs)
    matched_a = {i for i, _, _ in pairs}
    matched_b = {j for _, j, _ in pairs}
    unmatched_a = math.fsum(w for i, w in enumerate(a_weights) if i not in matched_a)
    unmatched_b = math.fsum(w for j, w in enumerate(b_weights) if j not in matched_b)
    mass = math.sqrt(math.fsum(a_weights) * math.fsum(b_weights))
    penalty = math.sqrt(
        math.fsum(lam * lam * a_weights[i] * b_weights[j] for i, j, lam in pairs)
        + unmatched_a * unmatched_b)
    return num / (mass * penalty)


def huffman_cost_reference(frequencies):
    """Optimal total weighted code length by the merge-sum identity.

    The sum of frequency * depth over the leaves equals the sum of the
    merged weights over all merge steps, independent of tie-breaking. This
    uses repeated sorting instead of a heap and never builds a tree.
    """
    nodes = [int(f) for f in frequencies]
    total = 0
    while len(nodes) > 1:
        nodes.sort()
        a = nodes.pop(0)
        b = nodes.pop(0)
        total += a + b
        nodes.append(a + b)
    return total


FNV1A_64_BASIS = 0xCBF29CE484222325


def fnv1a_64(data, h=FNV1A_64_BASIS):
    """64-bit FNV-1a of the bytes of *data*, one byte at a time, from state *h*."""
    for byte in bytes(data):
        h = ((h ^ byte) * 0x100000001B3) % 2**64
    return h


def images_per_record(path, vocab=None):
    """One ImageObject per record of an image file, built record by record.

    Weights missing from a record are its counts over their maximum. Only
    well-formed files are read here; refusals are not modelled.
    """
    images = []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if not line.strip():
                continue
            rec = json.loads(line)
            words = rec["words"]
            counts = [w["count"] for w in words] if "count" in words[0] else None
            if "weight" in words[0]:
                weights = [w["weight"] for w in words]
            else:
                weights = [c / max(counts) for c in counts]
            if "word_id" in words[0]:
                images.append(ImageObject(rec["image_id"], weights, counts=counts, vocab=vocab,
                                          word_ids=[w["word_id"] for w in words]))
            else:
                images.append(ImageObject(rec["image_id"], weights, counts=counts,
                                          vectors=[w["vector"] for w in words]))
    return images


def count_images_reference(offsets, word_ids, counts=None):
    """Each image counted on its own: ``np.unique`` and ``np.add.at`` per image.

    Returns ``(word_ids, counts, offsets, weights)`` with each image's
    distinct ids ascending, their occurrence counts (1 each with no
    *counts*) summed in int64, and weights count / max count.
    """
    ids_out, counts_out, weights_out, offsets_out = [], [], [], [0]
    for i in range(len(offsets) - 1):
        ids = np.asarray(word_ids[offsets[i]:offsets[i + 1]], dtype=np.int64)
        occurrences = (np.ones(ids.size, dtype=np.int64) if counts is None
                       else np.asarray(counts[offsets[i]:offsets[i + 1]], dtype=np.int64))
        distinct, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros(distinct.size, dtype=np.int64)
        np.add.at(summed, inverse, occurrences)
        ids_out.append(distinct)
        counts_out.append(summed)
        weights_out.append(summed / summed.max())
        offsets_out.append(offsets_out[-1] + distinct.size)
    return (np.concatenate(ids_out), np.concatenate(counts_out), np.array(offsets_out),
            np.concatenate(weights_out))


def tfidf_reference(offsets, word_ids, counts):
    """Max-normalized tf-idf image by image over :func:`count_images_reference`.

    ``df`` is tallied in a dict, ``idf = ln(1 + N / df)`` by ``math.log``, and
    each image's ``(count / max_count) * idf`` is divided by its maximum.
    """
    ids, summed, new_offsets, tf = count_images_reference(offsets, word_ids, counts)
    n_images = len(offsets) - 1
    df = {}
    for wid in ids.tolist():
        df[wid] = df.get(wid, 0) + 1
    weights = []
    for i in range(n_images):
        lo, hi = new_offsets[i], new_offsets[i + 1]
        raw = [tf[j] * math.log(1.0 + n_images / df[int(ids[j])]) for j in range(lo, hi)]
        top = max(raw)
        weights.extend(r / top for r in raw)
    return ids, summed, new_offsets, np.array(weights)


def all_pairs_reference(vocab, mu0):
    """CSR ``(offsets, ids, sims)`` of the offline index, by the float64 full-product build.

    Every row chunk is multiplied against all K columns in float64 and cut
    1e-9 below ``mu0``; the candidates are flat row-major positions, rescored
    through ``_pair_scores`` and laid out by one stable three-key sort (row,
    self first, descending similarity; ids arrive ascending).
    """
    unit = vocab.unit_matrix
    k = vocab.size
    chunk = max(1, (1 << 22) // k)
    cut = mu0 - 1e-9
    flat_parts, sim_parts = [], []
    for lo in range(0, k, chunk):
        flat = np.flatnonzero(unit[lo:lo + chunk] @ unit.T > cut) + lo * k
        rows, cols = np.divmod(flat, k)
        sims = _pair_scores(unit[rows], unit[cols])
        keep = sims > mu0
        flat_parts.append(flat[keep])
        sim_parts.append(sims[keep])
    rows, cols = np.divmod(np.concatenate(flat_parts), k)
    sims = np.concatenate(sim_parts)
    order = np.lexsort((-sims, rows != cols, rows))
    offsets = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k))))
    return offsets, cols[order], sims[order]


def lloyd_reference(points, k, rng):
    """``_spherical_kmeans``' Lloyd loop with its cluster sums by ``np.add.at``.

    Same seeding, nearest-word scorer, stopping rule and normalization; each
    cluster's rows are summed from 0.0 in point order, one ``add.at`` step
    at a time.
    """
    centroids = _kmeans_pp_init(points, k, rng)
    history, movement = [], np.inf
    while True:
        assignment, cosines = _nearest(points, centroids)
        history.append(float(cosines.mean()))
        if movement < _TOL or len(history) > _MAX_ITER:
            return centroids, assignment, history
        sums = np.zeros(centroids.shape)
        np.add.at(sums, assignment, points)
        means = sums / np.maximum(np.bincount(assignment, minlength=k), 1)[:, None]
        norms = np.sqrt((means[:, None, :] @ means[:, :, None])[:, 0, 0])
        moved = norms > 0.0
        previous, centroids = centroids, centroids.copy()
        centroids[moved] = means[moved] / norms[moved, None]
        movement = float(np.sqrt(((centroids - previous) ** 2).sum(axis=1)).max())
