"""File formats and ingestion.

Text formats are JSON-lines: one vocabulary entry or one image per line,
named fields, floats written as shortest round-trip decimals. The offline
index uses a fixed little-endian binary layout. All save/load pairs are
exact inverses. The text loaders hand the parsed JSON values, unconverted,
to the :class:`Vocabulary` / :class:`Dataset` constructors, which apply
every value rule; an image file is gathered into flat columns and checked
once over all its words. Every loader error is a :class:`ValidationError`
(or the :class:`FormatError` / :class:`CompatibilityError` subclasses)
naming the file, and the line for a problem in one image record.

Feature extraction from real images is out of scope: raw-feature files
(images whose words carry inline vectors) are the ingestion boundary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .core import ImageObject, Vocabulary, _image_columns, normalize_weights
from .errors import CompatibilityError, ContractError, DomainError, FormatError, ValidationError
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
    """A corpus of images, stored as flat word columns.

    Image ``i`` is named ``image_ids[i]`` and owns words
    ``offsets[i]:offsets[i+1]`` of ``weights``, of ``counts`` (every image
    has occurrence counts or none does), and of either ``word_ids`` with
    ``vocab`` or ``vectors`` with no ``vocab``. So a dataset holds one kind
    of image and at most one vocabulary, as an :class:`ImageObject` does.
    The constructor checks every image rule once over all words, plus unique
    ids and at least one image. :meth:`image` and :attr:`images` build
    image objects from the columns on demand.
    """

    image_ids: tuple[str, ...]
    offsets: np.ndarray
    weights: np.ndarray
    word_ids: Optional[np.ndarray] = None
    vectors: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    vocab: Optional[Vocabulary] = None

    def __post_init__(self):
        image_ids = tuple(self.image_ids)
        if not image_ids:
            raise DomainError("a dataset needs at least one image")
        columns = _image_columns(image_ids, self.offsets, self.weights, self.word_ids,
                                 self.vectors, self.counts, self.vocab)
        names = ("image_ids", "offsets", "weights", "word_ids", "vectors", "counts")
        for name, value in zip(names, (image_ids, *columns)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_images(cls, images, vocab: Optional[Vocabulary] = None) -> "Dataset":
        """The images' columns back to back; *vocab* defaults to the first image's.

        Refuses images of more than one kind (raw or vocabulary-backed, with
        counts or without, of one dimension), and a vocabulary-backed image
        whose vocabulary has another checksum than the dataset's.
        """
        images = tuple(images)
        if not images:
            raise DomainError("a dataset needs at least one image")
        first = images[0]
        if vocab is None:
            vocab = first.vocab
        for img in images:
            if ((img.vocab is None) != (vocab is None) or (img.counts is None) != (first.counts is None)
                    or img.dimension != first.dimension):
                raise ContractError(f"image {img.image_id!r} is not of the dataset's kind: a dataset "
                                    "holds raw or vocabulary-backed images of one dimension, "
                                    "all with occurrence counts or none")
            if img.vocab not in (None, vocab) and img.vocab.checksum != vocab.checksum:
                raise ValidationError(f"image {img.image_id!r} uses another vocabulary than the dataset")

        def column(name: str) -> Optional[np.ndarray]:
            parts = [getattr(img, name) for img in images]
            return None if parts[0] is None else np.concatenate(parts)

        return cls([img.image_id for img in images],
                   np.cumsum([0] + [img.word_count for img in images]),
                   column("weights"), column("word_ids"), column("vectors"), column("counts"), vocab)

    def __len__(self) -> int:
        return len(self.image_ids)

    def image(self, i: int) -> ImageObject:
        """Image *i*, built from its slice of the columns."""
        i = range(len(self))[i]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        cut = lambda column: None if column is None else column[lo:hi]
        return ImageObject(self.image_ids[i], cut(self.weights), word_ids=cut(self.word_ids),
                           vectors=cut(self.vectors), vocab=self.vocab, counts=cut(self.counts))

    @cached_property
    def images(self) -> tuple[ImageObject, ...]:
        """Every image, built on first access."""
        return tuple(map(self.image, range(len(self))))



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
    """The :class:`Vocabulary` of a JSON-lines file, one word per line.

    The file is read line by line, as :func:`load_images` reads, so lines
    split at ``\n``, ``\r`` and ``\r\n`` and blank lines are skipped. Word
    ids must run from 0 to ``K - 1`` in any order. A refusal names the file
    and, when an entry is at fault, its line.
    """
    entries: dict[int, tuple[int, list]] = {}
    with open(path, encoding="utf-8") as text:
        for lineno, line in enumerate(text, start=1):
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


def save_images(dataset: Dataset, path) -> None:
    columns = {"word_id": dataset.word_ids, "vector": dataset.vectors,
               "weight": dataset.weights, "count": dataset.counts}
    columns = {field: column for field, column in columns.items() if column is not None}
    bounds = dataset.offsets.tolist()
    lines = []
    for image_id, lo, hi in zip(dataset.image_ids, bounds, bounds[1:]):
        words = zip(*(column[lo:hi].tolist() for column in columns.values()))
        lines.append(json.dumps({"image_id": image_id,
                                 "words": [dict(zip(columns, word)) for word in words]}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# The word fields of an image record, in the order their mixing is checked.
_WORD_FIELDS = ("word_id", "vector", "count", "weight")


def _record_columns(rec: dict, where: str) -> tuple[str, dict[str, list]]:
    """One image record's id, and its words' fields as columns of parsed JSON values.

    A record's words all hold the same fields, with a weight or a count, and
    ids and counts are JSON integers; a missing weight is derived from the
    counts. Every other value rule is left to :class:`Dataset`.
    """
    image_id = rec["image_id"]
    words = rec["words"]
    if not isinstance(words, list) or not words:
        raise ValidationError(f"{where}: image {image_id!r} has no words")
    held = set().union(*words)
    columns = {}
    for field in _WORD_FIELDS:
        if field in held:
            try:
                columns[field] = list(map(itemgetter(field), words))
            except KeyError:
                raise ValidationError(
                    f"{where}: image {image_id!r} mixes words with and without {field!r}") from None
    if "weight" not in columns and "count" not in columns:
        raise ValidationError(f"{where}: image {image_id!r}: words need a weight or a count")
    for field in ("count", "word_id"):
        values = columns.get(field, ())
        if set(map(type, values)) - {int}:
            _json_int(next(v for v in values if type(v) is not int))
    if "weight" not in columns:
        columns["weight"] = normalize_weights(columns["count"]).tolist()
    return image_id, columns


def _fields(form: tuple[str, ...]) -> str:
    return ", ".join(map(repr, form)) or "none of 'word_id', 'vector' and 'count'"


def _refuse_first_bad_record(path, lines: list[int], image_ids: list, offsets: np.ndarray,
                             columns: dict, vocab: Optional[Vocabulary]) -> None:
    """Raise for the first record that is not a valid image alone, naming its line.

    So does a record whose vectors differ in length from the first record's.
    Returns when every record is valid alone and of one length.
    """
    for i, lineno in enumerate(lines):
        lo, hi = offsets[i], offsets[i + 1]
        words = {name: column[lo:hi] for name, column in columns.items() if column is not None}
        try:
            img = ImageObject(image_ids[i], vocab=vocab, **words)
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        if i == 0:
            dimension = img.dimension
        elif img.dimension != dimension:
            raise ValidationError(f"{path}: line {lineno}: image {img.image_id!r} has vectors of length "
                                  f"{img.dimension}, but the file's first image has length {dimension}")


def load_images(path, vocab: Optional[Vocabulary] = None) -> Dataset:
    """A :class:`Dataset` of the image records in a JSON-lines file.

    The records' fields are gathered into flat columns line by line, and the
    ``Dataset`` constructor checks every image rule once over all of them.
    Every record holds the same kind of words as the first: word ids (which
    need *vocab*) or inline vectors, with counts or without; *vocab* is
    kept only for word ids. A refusal names the file and, when a record is
    at fault, the line of the first such record.
    """
    image_ids, lines, lengths, flat = [], [], [], {}
    first_form = None
    with open(path, encoding="utf-8") as text:
        for lineno, line in enumerate(text, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: not valid JSON ({exc})") from exc
            try:
                image_id, columns = _record_columns(rec, where)
            except ValidationError:
                raise
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{where}: malformed image record ({exc})") from exc
            form = tuple(field for field in ("word_id", "vector", "count") if field in columns)
            if first_form is None:
                first_form = form
                if "word_id" in form and vocab is None:
                    raise ValidationError(
                        f"{where}: image {image_id!r} uses word ids but no vocabulary was given")
            elif form != first_form:
                raise ValidationError(f"{where}: image {image_id!r} has words with {_fields(form)}, "
                                      f"but the file's first image has words with "
                                      f"{_fields(first_form)}; a file holds one kind of image")
            image_ids.append(image_id)
            lines.append(lineno)
            lengths.append(len(columns["weight"]))
            for field, values in columns.items():
                flat.setdefault(field, []).extend(values)
    if not image_ids:
        raise ValidationError(f"{path}: image file has no records")
    offsets = np.cumsum([0] + lengths)
    columns = dict(weights=flat["weight"], word_ids=flat.get("word_id"), vectors=flat.get("vector"),
                   counts=flat.get("count"))
    vocab = vocab if "word_id" in first_form else None
    try:
        return Dataset(image_ids, offsets, vocab=vocab, **columns)
    except ValueError as exc:
        _refuse_first_bad_record(path, lines, image_ids, offsets, columns, vocab)
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
    # The walk is sequential, each header giving the next one's place. It
    # reads the count words through a native-order memoryview, whose items
    # are Python ints, since indexing a numpy array costs a scalar per step.
    count_at = memoryview(counts.astype(np.uint32, copy=False))
    head_pos = [0] * k
    pos = 0
    for wid in range(k):
        if pos >= n_records:
            raise FormatError(f"{where}: truncated index file")
        head_pos[wid] = pos
        pos += 1 + count_at[pos]
    head_pos = np.array(head_pos, dtype=np.int64)
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
