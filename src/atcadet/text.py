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
    parse_json,
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


def _checked_matrix(utt_id: str, matrix) -> np.ndarray:
    matrix = held_values(matrix)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ShapeMismatch(f"{utt_id}: embedding must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(matrix)):
        raise NonFinite(f"{utt_id}: embedding contains non-finite values")
    return matrix


def _checked_spans(utt_id: str, style_spans, rows: int) -> tuple:
    spans = tuple((str(s), int(a), int(b)) for s, a, b in style_spans)
    cursor = 0
    seen = set()
    for style, start, end in spans:
        if style not in STYLES:
            raise UnknownStyle(f"{utt_id}: unknown style {style!r} in spans")
        if style in seen:
            raise ShapeMismatch(f"{utt_id}: style {style!r} appears twice in spans")
        if start != cursor or end <= start:
            raise ShapeMismatch(f"{utt_id}: spans must partition rows in order")
        seen.add(style)
        cursor = end
    # empty spans mark an externally produced, unsegmented matrix
    if spans and cursor != rows:
        raise ShapeMismatch(f"{utt_id}: spans cover {cursor} rows, matrix has {rows}")
    return spans


class TextEmbedding:
    """One caption's token rows, held as ``ids`` into ``table``: the rows
    that the embeddings of one :func:`load_embeddings` call share, each
    distinct row once. Built from a matrix, the embedding is its own
    table. ``matrix`` gives the rows back, read-only, with the bytes they
    were stored or built with.
    """

    _built = False  # from a matrix, which is then the table

    def __init__(self, utt_id: str, matrix, style_spans):
        matrix = _checked_matrix(utt_id, matrix)
        self.style_spans = _checked_spans(utt_id, style_spans, matrix.shape[0])
        matrix.flags.writeable = False
        self.utt_id, self.table, self.ids = utt_id, matrix, np.arange(matrix.shape[0])
        self._built = True

    @classmethod
    def from_rows(cls, utt_id: str, table: np.ndarray, ids: np.ndarray,
                  style_spans: tuple) -> "TextEmbedding":
        """The embedding ``table[ids]``, over rows and spans already checked."""
        emb = cls.__new__(cls)
        emb.utt_id, emb.table, emb.ids, emb.style_spans = utt_id, table, ids, style_spans
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

# rows compared with the first rows of their groups at a time
_COMPARE_ROWS = 64


def _intern(rows: np.ndarray) -> tuple:
    """The distinct rows of ``rows``, a C-contiguous float32 or float64
    matrix, in the order they first occur, read-only; and the id, int32,
    of each row among them, so that ``table[ids]`` has the bytes of
    ``rows``. When no row repeats, the table is ``rows`` itself.

    Rows are grouped by a 32-bit print of eight of their words, spread
    along them, and each row is compared word for word with the first row
    of its group. The rows that differ from it, and only those, are then
    grouped by all their bytes.
    """
    words = rows.view(np.uint32)
    prints = np.zeros(len(rows), np.uint32)
    for at, multiplier in zip(np.linspace(0, words.shape[1] - 1, 8).astype(np.intp), _PRINT_MULTIPLIERS):
        prints ^= words[:, at] * multiplier
    _, first, group = np.unique(prints, return_index=True, return_inverse=True)
    lead = first[group]  # the first row with each row's print
    repeat = lead != np.arange(len(rows))
    differ = np.zeros(len(rows), bool)
    for lo in range(0, len(rows), _COMPARE_ROWS):
        at = slice(lo, lo + _COMPARE_ROWS)
        if repeat[at].any():
            differ[at] = (words[at] != words[lead[at]]).any(axis=1)
    other = np.flatnonzero(differ)
    if len(other):  # all rows equal to one of these are among them too
        whole = words[other].view(np.dtype((np.void, 4 * words.shape[1])))
        _, first, group = np.unique(whole.ravel(), return_index=True, return_inverse=True)
        lead[other] = other[first[group]]
    kept = np.flatnonzero(lead == np.arange(len(rows)))
    table = rows if len(kept) == len(rows) else rows[kept]
    table.flags.writeable = False
    return table, np.searchsorted(kept, lead).astype(np.int32)


def intern_rows(blocks) -> tuple:
    """One table of the distinct rows of ``blocks``, same-width 2-D arrays,
    and each block's row ids into it. The table has the blocks' common
    dtype."""
    blocks = list(blocks)
    table, ids = _intern(np.concatenate(blocks, dtype=np.result_type(*blocks)))
    return table, np.split(ids, np.cumsum([len(b) for b in blocks[:-1]]))


@dataclass(frozen=True)
class ToyEmbedderConfig:
    dim: int = 768
    seed: int = 0
    vocab_hash_buckets: int = 1 << 20

    def __post_init__(self):
        if self.dim < 8:
            raise BadConfig(f"embedding dim must be >= 8, got {self.dim}")
        if self.vocab_hash_buckets < 1:
            raise BadConfig("vocab_hash_buckets must be positive")
        if not 0 <= self.seed <= _MASK64:
            raise BadConfig("seed must fit in 64 bits")


# ---------------------------------------------------------------------------
# Caption JSONL


def load_captions(path) -> list:
    sets = []
    seen = set()
    for lineno, line in enumerate(read_text(path, BadJson).split("\n"), start=1):
        if not line.strip():
            continue
        obj = parse_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict) or "utt_id" not in obj or "captions" not in obj:
            raise BadJson(f"{path}:{lineno}: expected utt_id and captions keys")
        if not isinstance(obj["captions"], dict):
            raise BadJson(f"{path}:{lineno}: captions must be an object")
        cs = CaptionSet(str(obj["utt_id"]), dict(obj["captions"]))
        if cs.utt_id in seen:
            raise DuplicateUtt(f"{path}:{lineno}: duplicate utt_id {cs.utt_id!r}")
        seen.add(cs.utt_id)
        sets.append(cs)
    return sets


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
    spans = []
    cursor = 0
    for style in STYLES:
        if style not in caption_set.captions:
            continue
        tokens = tokenize(caption_set.captions[style])
        if not tokens:
            raise EmptyCaption(f"{caption_set.utt_id}: style {style!r} has no tokens")
        for token in tokens:
            rows.append(_token_vector(token_bucket(token, cfg.vocab_hash_buckets), cfg.dim, cfg.seed))
        spans.append((style, cursor, cursor + len(tokens)))
        cursor += len(tokens)
    return TextEmbedding(caption_set.utt_id, np.stack(rows), tuple(spans))


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
            lines.append({"utt_id": emb.utt_id, "offset": fh.tell(), "L": matrix.shape[0],
                          "Dt": matrix.shape[1], "spans": [[s, a, b] for s, a, b in emb.style_spans]})
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


# the types of a span's [style, start, end], as json.loads gives them
_SPAN_TYPES = [str, int, int]


def _is_index_entry(obj) -> bool:
    """True when obj has a string utt_id, an integer offset >= 0, integer
    L and Dt >= 1, as a block's shape is, and spans as a list of [style,
    start, end] triples. Types are those ``json.loads`` builds, so each is
    tested exactly (a bool is no int here)."""
    if type(obj) is not dict:
        return False
    offset, rows, dims, spans = obj.get("offset"), obj.get("L"), obj.get("Dt"), obj.get("spans")
    if not (type(obj.get("utt_id")) is str and type(offset) is int and type(rows) is int
            and type(dims) is int and type(spans) is list and offset >= 0 and rows >= 1 and dims >= 1):
        return False
    for span in spans:
        if type(span) is not list or list(map(type, span)) != _SPAN_TYPES:
            return False
    return True


def _read_index(path) -> list:
    """Index entries in file order, each line checked against the schema
    write_embeddings produces and its offset against the payload size.
    Each line is parsed alone: a value may not run on past its line."""
    where = index_path_for(path)
    try:
        lines = read_text(where, BadJson).split("\n")
    except FileNotFoundError as exc:
        raise MissingEmbedding(f"{where}: index sidecar not found") from exc
    payload_size = os.path.getsize(path)
    entries = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        obj = parse_json(line, where, lineno)
        if not _is_index_entry(obj):
            raise BadJson(f"{where}:{lineno}: expected utt_id, offset, L, Dt and spans fields")
        if obj["offset"] >= payload_size:
            raise BadHeader(f"{where}:{lineno}: offset {obj['offset']} lies past the payload end")
        utt = obj["utt_id"]
        if utt in seen:
            raise DuplicateUtt(f"{where}:{lineno}: duplicate utt_id {utt!r}")
        seen.add(utt)
        entries.append(obj)
    return entries


def _read_blocks(path, entries) -> tuple:
    """The blocks of ``entries``, checked, copied as they are read into one
    float32 buffer sized from the index, each as wide as the first: the
    buffer's rows, and each entry's first row and spans."""
    room = sum(entry["L"] for entry in entries)  # the rows the index declares
    payload_size = os.path.getsize(path)
    buf, count, read = None, 0, []
    with open(path, "rb") as fh:
        for entry in entries:
            utt, rows, dims = entry["utt_id"], entry["L"], entry["Dt"]
            fh.seek(entry["offset"])
            values = read_block(fh, f"{path} (block of {utt!r} at offset {entry['offset']})")
            if values.shape != (rows, dims):
                raise ShapeMismatch(f"{path}: index declares {rows}x{dims} for {utt!r}, "
                                    f"block is {values.shape[0]}x{values.shape[1]}")
            if buf is None:
                buf = values[:0]
            elif dims != buf.shape[1]:
                raise DimMismatch(f"{path}: block of {utt!r} is {dims} wide, not {buf.shape[1]}")
            _checked_matrix(utt, values)
            spans = _checked_spans(utt, entry["spans"], rows)
            if count + rows > len(buf):  # the first block, or lines that share blocks
                # never past what the payload holds, whatever the index declares
                grown = np.empty((max(count + rows, 2 * len(buf),
                                      min(room, payload_size // (4 * dims))), dims), buf.dtype)
                grown[:count] = buf[:count]
                buf = grown
            buf[count : count + rows] = values
            read.append((count, spans))
            count += rows
    return buf[:count], read


def load_embeddings(path, utt_ids=None) -> list:
    """The embeddings of ``path`` in index order. Every index line is
    checked; only the blocks of ``utt_ids`` are read and returned, or every
    block when ``utt_ids`` is None. The blocks read share one width (else
    DimMismatch) and one table of their distinct rows (:func:`_intern`)."""
    entries = _read_index(path)
    if utt_ids is not None:
        entries = [e for e in entries if e["utt_id"] in utt_ids]
    if not entries:
        return []
    rows, read = _read_blocks(path, entries)
    table, ids = _intern(rows)
    return [TextEmbedding.from_rows(entry["utt_id"], table, ids[at : at + entry["L"]], spans)
            for (at, spans), entry in zip(read, entries)]


def embedding_width(path, default: int) -> int:
    """``Dt`` of the first block the index of ``path`` lists, or ``default``
    when it lists none."""
    entries = _read_index(path)
    return entries[0]["Dt"] if entries else default
