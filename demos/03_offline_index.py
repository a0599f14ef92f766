"""Inside the offline index: per-word similar-word lists stored as CSR arrays.

Builds a small index, walks a few lists (each a read-only ``(ids, sims)``
slice pair of the CSR arrays, with no per-entry objects), shows the Huffman
code lengths derived from the word frequencies (common words get short
codes; the tree is statistics only, not storage), and round-trips the index
through its binary file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from vwsim import (
    Vocabulary,
    build_psmi_index,
    huffman_depths,
    huffman_search,
    load_psmi,
    save_psmi,
    weighted_code_length,
)
from vwsim.core import unit_rows

rng = np.random.RandomState(12)
K, d = 24, 2  # low dimension so words actually have close neighbors
vectors = unit_rows(rng.standard_normal((K, d)))
frequencies = np.sort(rng.randint(1, 200, K))[::-1].copy()  # word 0 most frequent
vocab = Vocabulary(vectors=vectors, frequencies=frequencies)

index = build_psmi_index(vocab, mu0_build=0.6)

print("per-word potential-similar lists (threshold 0.6), first 5 words:")
for wid in range(5):
    ids, sims = huffman_search(index, wid)
    entries = ", ".join(f"{w}:{s:.3f}" for w, s in zip(ids.tolist(), sims.tolist()))
    print(f"  word {wid} (freq {vocab.frequencies[wid]:>3}): [{entries}]")

depths = huffman_depths(index.tree, K)
print(f"\ntree depth by frequency (most frequent words get short codes):")
for wid in (0, 1, K // 2, K - 2, K - 1):
    print(f"  word {wid:>2}: freq {int(vocab.frequencies[wid]):>3}  depth {int(depths[wid])}")
print(f"total weighted code length: {weighted_code_length(index)}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.psmi"
    save_psmi(index, path)
    print(f"\nserialized to {path.stat().st_size} bytes")
    loaded = load_psmi(path, vocab=vocab)  # checksum-guarded against the wrong vocabulary
    save_psmi(loaded, path.with_suffix(".echo"))
    identical = path.read_bytes() == path.with_suffix(".echo").read_bytes()
    print(f"load + re-save reproduces the file byte-for-byte: {identical}")
    print(f"queries below the build threshold are refused "
          f"(index stores mu0_build = {loaded.mu0_build})")
