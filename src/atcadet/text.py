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
from typing import NamedTuple

import numpy as np

from .dsp import block_size, held_values, read_block, write_block
from .errors import (
    BadConfig,
    BadHeader,
    BadJson,
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


@dataclass(frozen=True, eq=False)
class TextEmbedding:
    utt_id: str
    matrix: np.ndarray
    style_spans: tuple

    def __post_init__(self):
        matrix = held_values(self.matrix)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ShapeMismatch(f"{self.utt_id}: embedding must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise NonFinite(f"{self.utt_id}: embedding contains non-finite values")
        spans = tuple((str(s), int(a), int(b)) for s, a, b in self.style_spans)
        cursor = 0
        seen = set()
        for style, start, end in spans:
            if style not in STYLES:
                raise UnknownStyle(f"{self.utt_id}: unknown style {style!r} in spans")
            if style in seen:
                raise ShapeMismatch(f"{self.utt_id}: style {style!r} appears twice in spans")
            if start != cursor or end <= start:
                raise ShapeMismatch(f"{self.utt_id}: spans must partition rows in order")
            seen.add(style)
            cursor = end
        # empty spans mark an externally produced, unsegmented matrix
        if spans and cursor != matrix.shape[0]:
            raise ShapeMismatch(f"{self.utt_id}: spans cover {cursor} rows, matrix has {matrix.shape[0]}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "style_spans", spans)

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


class IndexRow(NamedTuple):
    """What the embedding index records of one block: its embedding
    without the matrix."""

    utt_id: str
    shape: tuple
    style_spans: tuple


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
    as the iterable yields it; returns their ``IndexRow``s, so no matrix is
    held once its block is written."""
    index_rows = []
    with atomic_write(path) as fh:
        for emb in embeddings:
            write_block(fh, emb.matrix)
            index_rows.append(IndexRow(emb.utt_id, emb.matrix.shape, emb.style_spans))
    return index_rows


def write_embedding_index(path, embeddings) -> None:
    """The JSONL index of the payload ``write_embedding_payload`` writes
    for ``embeddings``: one line per block, with its offset. Each item needs
    only ``utt_id``, ``shape`` and ``style_spans``: a ``TextEmbedding`` or
    an ``IndexRow``."""
    offset = 0
    with atomic_write(path, "w") as fh:
        for emb in embeddings:
            rows, dims = emb.shape
            line = {
                "utt_id": emb.utt_id,
                "offset": offset,
                "L": rows,
                "Dt": dims,
                "spans": [[s, a, b] for s, a, b in emb.style_spans],
            }
            fh.write(json.dumps(line))
            fh.write("\n")
            offset += block_size(rows, dims)


def write_embeddings(path, embeddings) -> None:
    """Binary payload of stacked feature blocks plus a JSONL index sidecar.

    The index is the embedding's commit marker. It is written last, and
    an old one is removed before the payload is replaced, so a write cut
    off at any point leaves no index over the wrong payload. ``embeddings``
    may be a generator: each block is written as it comes, and only the
    index rows are kept until the payload ends.
    """
    index = index_path_for(path)
    if os.path.exists(index):
        os.remove(index)
    write_embedding_index(index, write_embedding_payload(path, embeddings))


def _is_index_entry(obj) -> bool:
    """True when obj has a string utt_id, non-negative integer offset, L
    and Dt, and spans as a list of [style, start, end] triples."""
    return (
        isinstance(obj, dict)
        and isinstance(obj.get("utt_id"), str)
        and all(type(obj.get(k)) is int and obj[k] >= 0 for k in ("offset", "L", "Dt"))
        and isinstance(obj.get("spans"), list)
        and all(
            isinstance(sp, list) and len(sp) == 3 and isinstance(sp[0], str)
            and type(sp[1]) is int and type(sp[2]) is int
            for sp in obj["spans"]
        )
    )


def _read_index(path) -> list:
    """Index entries in file order, each line checked against the schema
    write_embeddings produces and its offset against the payload size."""
    where = index_path_for(path)
    try:
        lines = read_text(where, BadJson).split("\n")
    except FileNotFoundError as exc:
        raise MissingEmbedding(f"{where}: index sidecar not found") from exc
    payload_size = os.path.getsize(path)
    entries = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        obj = parse_json(line, f"{where}:{lineno}")
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


def load_embeddings(path, utt_ids=None) -> list:
    """The embeddings of ``path`` in index order. Every index line is
    checked; only the blocks of ``utt_ids`` are read and returned, or every
    block when ``utt_ids`` is None."""
    entries = _read_index(path)
    if utt_ids is not None:
        entries = [e for e in entries if e["utt_id"] in utt_ids]
    out = []
    with open(path, "rb") as fh:
        for entry in entries:
            utt, rows, dims = entry["utt_id"], entry["L"], entry["Dt"]
            fh.seek(entry["offset"])
            values = read_block(fh, f"{path} (block of {utt!r} at offset {entry['offset']})")
            if values.shape != (rows, dims):
                raise ShapeMismatch(f"{path}: index declares {rows}x{dims} for {utt!r}, "
                                    f"block is {values.shape[0]}x{values.shape[1]}")
            out.append(TextEmbedding(utt, values, entry["spans"]))
    return out


def embedding_width(path, default: int) -> int:
    """``Dt`` of the first block the index of ``path`` lists, or ``default``
    when it lists none."""
    entries = _read_index(path)
    return entries[0]["Dt"] if entries else default
