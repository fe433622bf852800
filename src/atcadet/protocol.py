"""Protocol files: the utterance lists that define corpus splits.

Headerless TSV with five columns: utt_id, relative wav path, label
(bonafide|spoof), generator_id, split (train|dev|eval).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadProtocol, DuplicateUtt, atomic_write, read_text

LABELS = ("bonafide", "spoof")
SPLITS = ("train", "dev", "eval")


@dataclass(frozen=True)
class ProtocolEntry:
    utt_id: str
    wav_path: str
    label: str
    generator_id: str
    split: str

    def __post_init__(self):
        if not self.utt_id:
            raise BadProtocol("empty utt_id")
        if self.label not in LABELS:
            raise BadProtocol(f"{self.utt_id}: label must be bonafide or spoof, got {self.label!r}")
        if self.split not in SPLITS:
            raise BadProtocol(f"{self.utt_id}: split must be train, dev or eval, got {self.split!r}")


def read_tsv(path, n_cols: int):
    """Yield ``(lineno, cols)`` for each non-empty line of a headerless
    UTF-8 TSV file; errors name the line as ``path:lineno``. Each line must
    hold ``n_cols`` columns, the first an utt_id no earlier line holds."""
    seen = set()
    for lineno, line in enumerate(read_text(path, BadProtocol).split("\n"), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise BadProtocol(f"{path}:{lineno}: expected {n_cols} tab-separated columns, got {len(cols)}")
        if cols[0] in seen:
            raise DuplicateUtt(f"{path}:{lineno}: duplicate utt_id {cols[0]!r}")
        seen.add(cols[0])
        yield lineno, cols


def read_protocol(path) -> list:
    return [ProtocolEntry(*cols) for _, cols in read_tsv(path, 5)]


def write_protocol(path, entries) -> None:
    with atomic_write(path, "w") as fh:
        for e in entries:
            fh.write(f"{e.utt_id}\t{e.wav_path}\t{e.label}\t{e.generator_id}\t{e.split}\n")


def filter_split(entries, split: str) -> list:
    if split not in SPLITS:
        raise BadProtocol(f"unknown split {split!r}")
    return [e for e in entries if e.split == split]
