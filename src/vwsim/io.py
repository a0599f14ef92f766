"""File formats and ingestion.

Text formats are JSON-lines: one vocabulary entry or one image per line,
named fields, floats written as shortest round-trip decimals. The offline
index uses a fixed little-endian binary layout. All save/load pairs are
exact inverses. The text loaders hand the parsed JSON values, unconverted,
to the :class:`Vocabulary` / :class:`ImageObject` constructors, which apply
every value rule; every loader error is a :class:`ValidationError` (or the
:class:`FormatError` / :class:`CompatibilityError` subclasses) naming the
file, and the line for a problem in one image record.

Feature extraction from real images is out of scope: raw-feature files
(images whose words carry inline vectors) are the ingestion boundary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ImageObject, Vocabulary, normalize_weights
from .errors import CompatibilityError, DomainError, FormatError, ValidationError
from .psmi import PsimIndex

__all__ = [
    "Dataset",
    "load_vocabulary",
    "save_vocabulary",
    "load_images",
    "save_images",
    "load_truth",
    "save_truth",
    "load_psmi",
    "save_psmi",
]

PSMI_MAGIC = b"PSMI"
PSMI_VERSION = 1


@dataclass(frozen=True, eq=False)
class Dataset:
    """A collection of images, optionally tied to one vocabulary."""

    images: tuple[ImageObject, ...]
    vocab: Optional[Vocabulary] = None

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        seen = set()
        for img in self.images:
            if img.image_id in seen:
                raise ValidationError(f"duplicate image id {img.image_id!r}")
            seen.add(img.image_id)
            if (self.vocab is not None and img.word_ids is not None
                    and int(img.word_ids.max()) >= self.vocab.size):
                raise ValidationError(
                    f"image {img.image_id!r} references a word id outside the vocabulary")

    def __len__(self) -> int:
        return len(self.images)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    lines = [json.dumps({"word_id": wid, "frequency": freq, "vector": vec})
             for wid, (freq, vec) in enumerate(zip(vocab.frequencies.tolist(),
                                                   vocab.vectors.tolist()))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_int(value) -> int:
    if type(value) is not int:  # also rejects bool, an int subclass
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def load_vocabulary(path) -> Vocabulary:
    text = Path(path).read_text(encoding="utf-8")
    entries: dict[int, tuple[int, list]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            wid = _json_int(rec["word_id"])
            freq = _json_int(rec["frequency"])
            vec = rec["vector"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: line {lineno}: malformed vocabulary entry ({exc})") from exc
        if wid in entries:
            raise ValidationError(f"{path}: line {lineno}: duplicate word id {wid}")
        entries[wid] = (freq, vec)
    if not entries:
        raise ValidationError(f"{path}: vocabulary file has no entries")
    size = len(entries)
    if sorted(entries) != list(range(size)):
        raise ValidationError(f"{path}: word ids must be contiguous from 0 to {size - 1}")
    freqs, vectors = zip(*(entries[w] for w in range(size)))
    try:
        return Vocabulary(vectors=vectors, frequencies=freqs)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _word_record(img: ImageObject, i: int) -> dict:
    rec: dict = {}
    if img.word_ids is not None:
        rec["word_id"] = int(img.word_ids[i])
    else:
        rec["vector"] = img.vectors[i].tolist()
    rec["weight"] = float(img.weights[i])
    if img.counts is not None:
        rec["count"] = int(img.counts[i])
    return rec


def save_images(dataset: Dataset, path) -> None:
    lines = []
    for img in dataset.images:
        if img.word_ids is not None and img.vectors is not None:
            # A record holds ids or vectors; writing the ids alone would lose the vectors.
            raise DomainError(f"image {img.image_id!r} holds both inline vectors and word ids, "
                              "which the image format cannot store together")
        words = [_word_record(img, i) for i in range(img.word_count)]
        lines.append(json.dumps({"image_id": img.image_id, "words": words}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_image(rec: dict, vocab: Optional[Vocabulary], where: str) -> ImageObject:
    """Parse one record into columns; the ImageObject constructor validates them."""
    image_id = rec["image_id"]
    words = rec["words"]
    if not isinstance(words, list) or not words:
        raise ValidationError(f"{where}: image {image_id!r} has no words")

    for key in ("word_id", "count", "weight"):
        if 0 < sum(key in w for w in words) < len(words):
            raise ValidationError(f"{where}: image {image_id!r} mixes words with and without {key!r}")
    if "weight" not in words[0] and "count" not in words[0]:
        raise ValidationError(f"{where}: image {image_id!r}: words need a weight or a count")

    counts = [_json_int(w["count"]) for w in words] if "count" in words[0] else None
    weights = [w["weight"] for w in words] if "weight" in words[0] else normalize_weights(counts)
    if "word_id" in words[0]:
        if any("vector" in w for w in words):
            raise ValidationError(f"{where}: image {image_id!r}: a word has both a word_id and a vector")
        if vocab is None:
            raise ValidationError(f"{where}: image {image_id!r} uses word ids but no vocabulary was given")
        return ImageObject(image_id=image_id, weights=weights, counts=counts,
                           word_ids=[_json_int(w["word_id"]) for w in words], vocab=vocab)
    return ImageObject(image_id=image_id, weights=weights, counts=counts,
                       vectors=[w["vector"] for w in words])


def load_images(path, vocab: Optional[Vocabulary] = None) -> Dataset:
    text = Path(path).read_text(encoding="utf-8")
    images = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: not valid JSON ({exc})") from exc
        try:
            images.append(_parse_image(rec, vocab, where))
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{where}: malformed image record ({exc})") from exc
    if not images:
        raise ValidationError(f"{path}: image file has no records")
    try:
        return Dataset(images=tuple(images), vocab=vocab)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_truth(truth: dict[str, str], path) -> None:
    Path(path).write_text(json.dumps(truth, sort_keys=True, indent=0) + "\n", encoding="utf-8")


def load_truth(path) -> dict[str, str]:
    try:
        truth = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(truth, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in truth.items()):
        raise ValidationError(f"{path}: ground truth must map duplicate ids to source ids")
    return truth


# Offline index binary layout, little-endian throughout:
#   "PSMI" | version u32 | K u32 | d u32 | mu0_build f64 | vocab checksum u64
#   then per word, ascending id: frequency u64 | entry count u32
#   then per entry: word_id u32 | sim f64
# Lists are stored flat; the tree is derived data and rebuilt on demand.
# Headers and entries are both 12-byte records: the body is one record array.
_PSMI_PREFIX = struct.Struct("<4sIIIdQ")
_WORD_HEADER = np.dtype([("freq", "<u8"), ("count", "<u4")])
_ENTRY = np.dtype([("id", "<u4"), ("sim", "<f8")])
_RECORD = np.dtype("V12")


def save_psmi(idx: PsimIndex, path) -> None:
    heads = np.empty(idx.size, dtype=_WORD_HEADER)
    heads["freq"], heads["count"] = idx.frequencies, np.diff(idx.csr_offsets)
    entries = np.empty(idx.csr_ids.size, dtype=_ENTRY)
    entries["id"], entries["sim"] = idx.csr_ids, idx.csr_sims
    # Each word's header goes right before its list.
    records = np.insert(entries.view(_RECORD), idx.csr_offsets[:-1], heads.view(_RECORD))
    prefix = _PSMI_PREFIX.pack(PSMI_MAGIC, PSMI_VERSION, idx.size, idx.dimension,
                               idx.mu0_build, idx.vocab_checksum)
    Path(path).write_bytes(prefix + records.tobytes())


def _check_psmi_lists(where: str, mu0_build: float, offsets: np.ndarray,
                      ids: np.ndarray, sims: np.ndarray) -> None:
    """Structural checks on loaded lists; raise naming the first bad word."""
    k = offsets.size - 1
    words = np.arange(k)
    rows = np.repeat(words, np.diff(offsets))
    starts = offsets[:-1]

    def fail(bad: np.ndarray, owners: np.ndarray, what: str) -> None:
        if bad.any():
            raise FormatError(f"{where}: word {int(owners[bad.argmax()])} {what}")

    fail(starts == offsets[1:], words, "has no self entry")
    fail(ids >= k, rows, f"references an id >= {k}")
    fail((ids[starts] != words) | (sims[starts] != 1.0), words, "must lead with its self entry")
    # Past each list's first two entries, a similarity falls or ties with a rising id.
    disorder = np.concatenate(([False], (sims[1:] > sims[:-1])
                               | ((sims[1:] == sims[:-1]) & (ids[1:] < ids[:-1]))))
    disorder[np.arange(ids.size) - starts[rows] < 2] = False
    fail(disorder, rows, "entries are not in descending order (ties by ascending id)")
    fail(~((sims > mu0_build) & (sims <= 1.0)), rows, "stores a similarity outside the build range")

    # One key per (word, id) pair, exact in uint64 since ids < k < 2**32.
    # Sorted by (word, id), every entry must meet its mirror sorted by
    # (id, word): builds are symmetric because the pair kernel commutes.
    key = rows.astype(np.uint64) * k + ids.astype(np.uint64)
    mirror_key = ids.astype(np.uint64) * k + rows.astype(np.uint64)
    order, mirror = np.argsort(key), np.argsort(mirror_key)
    fail(key[order][1:] == key[order][:-1], rows[order][1:], "repeats a word id")
    fail((key[order] != mirror_key[mirror]) | (sims[order] != sims[mirror]), rows[order],
         "has an entry without its mirror entry")


def load_psmi(path, vocab: Optional[Vocabulary] = None) -> PsimIndex:
    data = Path(path).read_bytes()
    where = str(path)
    if data[:4] != PSMI_MAGIC:
        raise FormatError(f"{where}: not an index file (bad magic)")
    if len(data) < _PSMI_PREFIX.size:
        raise FormatError(f"{where}: truncated index file")
    _, version, k, dim, mu0_build, checksum = _PSMI_PREFIX.unpack_from(data)
    if version != PSMI_VERSION:
        raise FormatError(f"{where}: unsupported index version {version}")
    if k < 1 or dim < 1:
        raise FormatError(f"{where}: empty index header")
    if not (0.0 <= mu0_build < 1.0):
        raise FormatError(f"{where}: stored build threshold out of range")

    n_records = (len(data) - _PSMI_PREFIX.size) // _RECORD.itemsize
    # Every word owns at least a header record. Checking that before any
    # K-sized array is made bounds allocation by the file size, not by K.
    if k > n_records:
        raise FormatError(f"{where}: truncated index file")
    records = np.frombuffer(data, dtype=_RECORD, count=n_records, offset=_PSMI_PREFIX.size)
    heads = records.view(_WORD_HEADER)
    counts = heads["count"]
    head_pos = np.empty(k, dtype=np.int64)
    pos = 0
    for wid in range(k):
        if pos >= n_records:
            raise FormatError(f"{where}: truncated index file")
        head_pos[wid] = pos
        pos += 1 + int(counts[pos])
    if pos > n_records:
        raise FormatError(f"{where}: truncated index file")
    if _PSMI_PREFIX.size + pos * _RECORD.itemsize != len(data):
        raise FormatError(f"{where}: trailing bytes after index payload")

    freqs = heads["freq"][head_pos]
    if np.any(freqs > np.iinfo(np.int64).max):
        raise FormatError(f"{where}: stored frequency out of range")
    offsets = np.concatenate(([0], np.cumsum(counts[head_pos], dtype=np.int64)))
    entries = np.delete(records[:pos], head_pos).view(_ENTRY)
    ids, sims = entries["id"].astype(np.int64), entries["sim"].astype(np.float64)
    _check_psmi_lists(where, mu0_build, offsets, ids, sims)

    if vocab is not None and vocab.checksum != checksum:
        raise CompatibilityError(
            f"{where}: index was built for a different vocabulary (checksum mismatch)")
    return PsimIndex(mu0_build=mu0_build, vocab_checksum=checksum, dimension=dim,
                     frequencies=freqs.astype(np.int64), csr_offsets=offsets, csr_ids=ids, csr_sims=sims)
