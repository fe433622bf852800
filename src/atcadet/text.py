"""Caption handling and per-utterance text embeddings.

Captions come in three styles (audioset, audiocaps, clotho). Embeddings
either arrive precomputed in a binary payload with a JSONL index, or are
produced by a deterministic toy embedder that maps each token to a fixed
pseudo-random unit vector.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import held_values, read_block, write_block
from .errors import (
    BadConfig,
    BadHeader,
    BadJson,
    DimMismatch,
    DuplicateUtt,
    EmptyCaption,
    MissingEmbedding,
    NonFinite,
    ShapeMismatch,
    UnknownStyle,
    atomic_write,
    check_fields,
    parse_json,
    quoted,
    read_text,
)

STYLES = ("audioset", "audiocaps", "clotho")

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class CaptionSet:
    utt_id: str
    captions: dict

    def __post_init__(self):
        if not self.utt_id:
            raise BadJson("caption set requires a non-empty utt_id")
        if not self.captions:
            raise BadJson(f"{self.utt_id}: caption set requires at least one style")
        for style, text in self.captions.items():
            if style not in STYLES:
                raise UnknownStyle(f"{self.utt_id}: unknown caption style {style!r}")
            if not isinstance(text, str):
                raise BadJson(f"{self.utt_id}: caption for {style!r} is not a string")


class TextEmbedding:
    """One caption's token rows, held as ``ids`` into ``table``: the rows
    that the embeddings of one :func:`load_embeddings` call share, each
    distinct row once. Built from a matrix, the embedding is its own
    table. ``matrix`` gives the rows back, read-only, with the bytes they
    were stored or built with.
    """

    _built = False  # from a matrix, which is then the table

    def __init__(self, utt_id: str, matrix):
        matrix = held_values(matrix)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ShapeMismatch(f"{utt_id}: embedding must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise NonFinite(f"{utt_id}: embedding contains non-finite values")
        matrix.flags.writeable = False
        self.utt_id, self.table, self.ids = utt_id, matrix, np.arange(matrix.shape[0])
        self._built = True

    @classmethod
    def from_rows(cls, utt_id: str, table: np.ndarray, ids: np.ndarray) -> "TextEmbedding":
        """The embedding ``table[ids]``, over rows already checked."""
        emb = cls.__new__(cls)
        emb.utt_id, emb.table, emb.ids = utt_id, table, ids
        return emb

    @property
    def matrix(self) -> np.ndarray:
        if self._built:
            return self.table
        matrix = self.table[self.ids]
        matrix.flags.writeable = False
        return matrix


# odd, so each word's bits all reach its product
_PRINT_MULTIPLIERS = np.array([0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F,
                               0x165667B1, 0xD3A2646D, 0xFD7046C5, 0xB55A4F09], np.uint32)

# rows compared with their leads at a time
_COMPARE_ROWS = 64

# values checked for finiteness at a time
_CHECK_VALUES = 1 << 15

# the bytes of rows copied onto the end of a table between two interning
# passes: 1024 rows of the stock 768-wide float32 captions
_STAGE_BYTES = 3 << 20


def _prints(rows: np.ndarray) -> np.ndarray:
    """A 32-bit print of each row of ``rows``, a C-contiguous float32 or
    float64 matrix, from eight of its words spread along it."""
    words = rows.view(np.uint32)
    prints = np.zeros(len(rows), np.uint32)
    for at, multiplier in zip(np.linspace(0, words.shape[1] - 1, 8).astype(np.intp), _PRINT_MULTIPLIERS):
        prints ^= words[:, at] * multiplier
    return prints


class _Interner:
    """The distinct rows of same-width blocks, added one at a time, held
    once each in the order they first occur; and each block's int32 row ids
    among them, so that ``table[ids]`` has the block's bytes.

    A block is copied onto the end of the table. Before a stage of rows
    waiting there would outgrow ``_STAGE_BYTES``, :meth:`_intern` keeps
    those of them that repeat no earlier row, so the table holds the
    distinct rows and at most one stage more. While stages repeat most of
    their rows, the table grows in place by at most a stage. Once a stage
    keeps most of its rows, the rows are unlikely to repeat: the table is
    made anew with room for the ``room`` rows still declared to come, as
    one buffer of every row would be.
    """

    def __init__(self, dims: int, dtype, room: int):
        self.table = np.empty((0, dims), dtype)
        self.stage_rows = max(1, _STAGE_BYTES // (dims * self.table.itemsize))
        self.room, self.held, self.staged = room, 0, 0
        self.spread = False  # a stage kept most of its rows
        self.keys = np.empty(0, np.uint64)  # print << 32 | row of each held row, sorted
        self.stage_ids, self.blocks = [], []  # each block's stage, first row and rows

    def add(self, block: np.ndarray) -> None:
        rows, staged = len(block), self.staged
        if staged + rows > self.stage_rows:
            self._intern()
            staged = 0
        end = self.held + staged + rows
        self.room -= rows
        table = self.table
        if end > len(table) and self.spread:
            # a new table, which numpy backs with huge pages when it is large
            table = np.empty((max(end + max(0, self.room), 2 * len(table)), table.shape[1]), table.dtype)
            table[: end - rows] = self.table[: end - rows]
            self.table = table
        elif end > len(table):
            self._resize(end + max(0, min(self.room, self.stage_rows - staged - rows)))
            table = self.table
        table[end - rows : end] = block
        self.blocks.append((len(self.stage_ids), staged, rows))
        self.staged = staged + rows

    def finish(self) -> tuple:
        """The table, read-only, and each block's ids, in the order added."""
        self._intern()
        if 2 * self.held < len(self.table):
            # copied out, so that the spare rows are freed, not shrunk in place: glibc then raises its
            # mmap threshold past them, and the call's later multi-MB temporaries reuse heap memory
            # instead of faulting in fresh pages each time (ensemble fit: 11k minor faults, not 95k)
            self.table = self.table[: self.held].copy()
        elif len(self.table) > self.held:
            self._resize(self.held)
        self.table.flags.writeable = False
        return self.table, [self.stage_ids[s][at : at + rows] for s, at, rows in self.blocks]

    def _resize(self, rows: int) -> None:
        # in place; no view of the table outlives the method that makes it,
        # so the reference check, which a tracer's frames trip, is skipped
        self.table.resize((rows, self.table.shape[1]), refcheck=False)

    def _intern(self) -> None:
        """Keep the staged rows that repeat no row before them, in order, and
        give each staged row its id."""
        held, n = self.held, self.staged
        if not n:
            return
        prints = _prints(self.table[held : held + n])
        kept, ids = self._keep(prints)
        self.staged = 0
        self.stage_ids.append(ids)
        self._hold(prints[kept])
        self.spread = self.spread or 2 * len(kept) > n

    def _keep(self, prints: np.ndarray) -> tuple:
        """Move the staged rows that repeat no row before them, in order, to
        follow the held rows: their places among the staged rows, and each
        staged row's id."""
        held, n = self.held, len(prints)
        lead = self._leads(prints)
        kept = np.flatnonzero(lead == np.arange(held, held + n))
        ids = np.where(lead < held, lead, held + np.searchsorted(kept, lead - held)).astype(np.int32)
        if len(kept) < n:
            self.table[held : held + len(kept)] = self.table[held + kept]
        return kept, ids

    def _leads(self, prints: np.ndarray) -> np.ndarray:
        """The first row, held or staged, equal to each staged row.

        Each staged row is compared word for word with its lead: the first
        held row with its print, else the first staged one. The rows that
        differ from it, and only those, are then grouped by all their bytes
        with the held rows that share their prints.
        """
        held, n = self.held, len(prints)
        words = self.table[: held + n].view(np.uint32)
        distinct, first, group = np.unique(prints, return_index=True, return_inverse=True)
        lead = held + first  # of each distinct print
        if len(self.keys):
            near = self.keys[np.minimum(np.searchsorted(self.keys, distinct.astype(np.uint64) << 32),
                                        len(self.keys) - 1)]
            found = (near >> 32) == distinct
            lead[found] = near[found] & 0xFFFFFFFF
        lead = lead[group]
        own = np.arange(held, held + n)
        differ = np.zeros(n, bool)
        starts = np.arange(0, n, _COMPARE_ROWS)
        for lo in starts[np.logical_or.reduceat(lead != own, starts)]:
            at = slice(lo, lo + _COMPARE_ROWS)
            differ[at] = (words[own[at]] != words[lead[at]]).any(axis=1)
        other = np.flatnonzero(differ)
        if len(other):  # a row equal to one of these shares its print: held, or staged and differing too
            shared = self.keys[np.isin(self.keys >> 32, prints[other])] & 0xFFFFFFFF
            rows = np.concatenate([shared.astype(np.intp), own[other]])
            whole = words[rows].view(np.dtype((np.void, 4 * words.shape[1])))
            _, first, group = np.unique(whole.ravel(), return_index=True, return_inverse=True)
            lead[other] = rows[first[group[len(rows) - len(other) :]]]
        return lead

    def _hold(self, prints: np.ndarray) -> None:
        """Count the rows of ``prints`` as held, after the rows held so far."""
        rows = np.arange(self.held, self.held + len(prints), dtype=np.uint64)
        fresh = np.sort(prints.astype(np.uint64) << 32 | rows)
        # two sorted runs, which a stable sort merges in one pass
        self.keys = np.sort(np.concatenate([self.keys, fresh]), kind="stable") if len(self.keys) else fresh
        self.held += len(prints)


def intern_rows(blocks) -> tuple:
    """One table of the distinct rows of ``blocks``, same-width 2-D arrays,
    and each block's row ids into it. The table has the blocks' common
    dtype."""
    blocks = list(blocks)
    interner = _Interner(blocks[0].shape[1], np.result_type(*blocks), sum(map(len, blocks)))
    for block in blocks:
        interner.add(block)
    return interner.finish()


# the widest embedding the hashing embedder makes: each token's row is
# drawn whole, in float64
MAX_EMBED_DIM = 10**5


@dataclass(frozen=True)
class ToyEmbedderConfig:
    dim: int = 768
    seed: int = 0
    vocab_hash_buckets: int = 1 << 20

    def __post_init__(self):
        check_fields(vars(self), ints=(("vocab_hash_buckets", 1),), seeds=("seed",))
        if not 8 <= self.dim <= MAX_EMBED_DIM:
            raise BadConfig(f"embedding dim must be in [8, {MAX_EMBED_DIM}], got {quoted(self.dim)}")


# ---------------------------------------------------------------------------
# Caption JSONL


def load_captions(path) -> list:
    sets = {}  # by utt_id, in file order
    for lineno, line in enumerate(read_text(path, BadJson).split("\n"), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict) or "utt_id" not in obj or "captions" not in obj:
            raise BadJson(f"{path}:{lineno}: expected utt_id and captions keys")
        if not isinstance(obj["captions"], dict):
            raise BadJson(f"{path}:{lineno}: captions must be an object")
        cs = CaptionSet(str(obj["utt_id"]), dict(obj["captions"]))
        if cs.utt_id in sets:
            raise DuplicateUtt(f"{path}:{lineno}: duplicate utt_id {cs.utt_id!r}")
        sets[cs.utt_id] = cs
    return list(sets.values())


def write_captions(path, caption_sets) -> None:
    with atomic_write(path, "w") as fh:
        for cs in caption_sets:
            ordered = {s: cs.captions[s] for s in STYLES if s in cs.captions}
            fh.write(json.dumps({"utt_id": cs.utt_id, "captions": ordered}, sort_keys=False))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Toy embedder


def tokenize(text: str) -> list:
    """Lowercase, then split into maximal [a-z0-9] runs."""
    return _TOKEN_RE.findall(text.lower())


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@lru_cache(maxsize=65536)
def _token_vector(bucket: int, dim: int, seed: int) -> np.ndarray:
    """Unit vector for one hash bucket, from a splitmix64 stream."""
    with np.errstate(over="ignore"):
        state0 = _mix64_array(np.uint64(bucket) ^ _mix64_array(np.uint64(seed)))
        steps = np.arange(1, dim + 1, dtype=np.uint64)
        states = state0 + np.uint64(_GOLDEN) * steps
        draws = _mix64_array(states)
    floats = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53 * 2.0 - 1.0
    floats /= np.sqrt(np.add.reduce(floats * floats))
    floats.flags.writeable = False
    return floats


def token_bucket(token: str, vocab_hash_buckets: int) -> int:
    return fnv1a64(token.encode("utf-8")) % vocab_hash_buckets


def toy_embed(caption_set: CaptionSet, cfg: ToyEmbedderConfig = ToyEmbedderConfig()) -> TextEmbedding:
    """Deterministic embedding: one unit vector per token, styles stacked
    in the fixed order audioset, audiocaps, clotho."""
    rows = []
    for style in STYLES:
        if style not in caption_set.captions:
            continue
        tokens = tokenize(caption_set.captions[style])
        if not tokens:
            raise EmptyCaption(f"{caption_set.utt_id}: style {style!r} has no tokens")
        for token in tokens:
            rows.append(_token_vector(token_bucket(token, cfg.vocab_hash_buckets), cfg.dim, cfg.seed))
    return TextEmbedding(caption_set.utt_id, np.stack(rows))


def pool_text_vector(embedding: TextEmbedding) -> np.ndarray:
    """Mean over token rows, in float64; the per-utterance text summary."""
    return np.asarray(embedding.matrix, dtype=np.float64).mean(axis=0)


# ---------------------------------------------------------------------------
# Embedding payload + index files


def index_path_for(path) -> str:
    return f"{path}.index.jsonl"


def write_embedding_payload(path, embeddings) -> list:
    """The stacked feature blocks of ``embeddings``, in order, each written
    as the iterable yields it; returns each block's index line, with the
    offset it was written at, so no matrix is held once its block is
    written."""
    lines = []
    with atomic_write(path) as fh:
        for emb in embeddings:
            matrix = emb.matrix
            lines.append({"utt_id": emb.utt_id, "offset": fh.tell(), "L": matrix.shape[0], "Dt": matrix.shape[1]})
            write_block(fh, matrix)
    return lines


def write_embedding_index(path, lines) -> None:
    """The JSONL index of a payload: one ``lines`` item, as
    ``write_embedding_payload`` returns them, per line."""
    with atomic_write(path, "w") as fh:
        for line in lines:
            fh.write(json.dumps(line))
            fh.write("\n")


def write_embeddings(path, embeddings) -> None:
    """Binary payload of stacked feature blocks plus a JSONL index sidecar.

    The index is the embedding's commit marker. It is written last, and
    an old one is removed before the payload is replaced, so a write cut
    off at any point leaves no index over the wrong payload. ``embeddings``
    may be a generator: each block is written as it comes, and only the
    index lines are kept until the payload ends.
    """
    index = index_path_for(path)
    if os.path.exists(index):
        os.remove(index)
    write_embedding_index(index, write_embedding_payload(path, embeddings))


def _is_index_entry(obj) -> bool:
    """True when obj has a string utt_id, an integer offset >= 0, and
    integer L and Dt >= 1, as a block's shape is; other keys are ignored.
    Types are those ``json.loads`` builds, so each is tested exactly (a
    bool is no int here)."""
    if type(obj) is not dict:
        return False
    offset, rows, dims = obj.get("offset"), obj.get("L"), obj.get("Dt")
    return (type(obj.get("utt_id")) is str and type(offset) is int and type(rows) is int
            and type(dims) is int and offset >= 0 and rows >= 1 and dims >= 1)


def _read_index(path) -> list:
    """Index entries in file order, each line checked against the schema
    write_embeddings produces and its offset against the payload size; a
    key past the schema (the ``spans`` older writers added) is ignored.
    Each line is parsed alone: a value may not run on past its line."""
    where = index_path_for(path)
    try:
        lines = read_text(where, BadJson).split("\n")
    except FileNotFoundError as exc:
        raise MissingEmbedding(f"{where}: index sidecar not found") from exc
    payload_size = os.path.getsize(path)
    entries = {}  # by utt_id, in file order
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        obj = parse_json(line, where, lineno)
        if not _is_index_entry(obj):
            raise BadJson(f"{where}:{lineno}: expected utt_id, offset, L and Dt fields")
        if obj["offset"] >= payload_size:
            raise BadHeader(f"{where}:{lineno}: offset {obj['offset']} lies past the payload end")
        utt = obj["utt_id"]
        if utt in entries:
            raise DuplicateUtt(f"{where}:{lineno}: duplicate utt_id {utt!r}")
        entries[utt] = obj
    return list(entries.values())


def _check_finite(table: np.ndarray, ids: list, entries) -> None:
    """Raise NonFinite naming the first of ``entries`` whose ``ids`` reach a
    row of ``table`` that is not finite: the entry that first reached the first such row."""
    step = max(1, _CHECK_VALUES // table.shape[1])
    for lo in range(0, len(table), step):
        finite = np.isfinite(table[lo : lo + step]).all(axis=1)
        if not finite.all():
            row = lo + np.argmin(finite)
            entry = next(e for e, block in zip(entries, ids) if (block == row).any())
            raise NonFinite(f"{entry['utt_id']}: embedding contains non-finite values")


def _read_blocks(path, entries) -> _Interner:
    """The blocks of ``entries``, checked, each as wide as the first, and
    added as they are read to an :class:`_Interner`. A check that fails on
    a block first finishes the interner and checks the finiteness of the
    rows read so far, so the first failing check in block order is the one
    raised. The interner is returned unfinished, so that the last block
    read is freed before its last stage is interned."""
    interner = None
    with open(path, "rb") as fh:
        for entry in entries:
            utt, rows, dims = entry["utt_id"], entry["L"], entry["Dt"]
            try:
                fh.seek(entry["offset"])
                values = read_block(fh, f"{path} (block of {utt!r} at offset {entry['offset']})")
                if values.shape != (rows, dims):
                    raise ShapeMismatch(f"{path}: index declares {rows}x{dims} for {utt!r}, "
                                        f"block is {values.shape[0]}x{values.shape[1]}")
                if interner is None:  # the rows the index declares, never past what the payload holds
                    room = min(sum(e["L"] for e in entries), os.path.getsize(path) // (4 * dims))
                    interner = _Interner(dims, values.dtype, room)
                elif dims != interner.table.shape[1]:
                    raise DimMismatch(f"{path}: block of {utt!r} is {dims} wide, "
                                      f"not {interner.table.shape[1]}")
                interner.add(values)
            except Exception:
                if interner is not None:
                    _check_finite(*interner.finish(), entries)
                raise
    return interner


def load_embeddings(path, utt_ids=None) -> list:
    """The embeddings of ``path`` in index order. Every index line is
    checked; only the blocks of ``utt_ids`` are read and returned, or every
    block when ``utt_ids`` is None. The blocks read share one width (else
    DimMismatch) and one table of their distinct rows, kept as the blocks
    are read (:func:`_read_blocks`) and then checked finite."""
    entries = _read_index(path)
    if utt_ids is not None:
        entries = [e for e in entries if e["utt_id"] in utt_ids]
    if not entries:
        return []
    table, ids = _read_blocks(path, entries).finish()
    _check_finite(table, ids, entries)
    return [TextEmbedding.from_rows(entry["utt_id"], table, entry_ids) for entry, entry_ids in zip(entries, ids)]
