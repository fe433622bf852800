"""Equal Error Rate and score-file handling.

Scores follow the convention higher = more bonafide. The detection
threshold sweep accepts a trial as bonafide when score >= threshold, so
FAR(t) is the fraction of spoof trials with score >= t and FRR(t) the
fraction of bonafide trials with score < t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadProtocol,
    DuplicateUtt,
    MissingScore,
    NonFinite,
    OneClassOnly,
    UnknownUtt,
    atomic_write,
)
from .protocol import LABELS, read_tsv


@dataclass(frozen=True)
class Trial:
    utt_id: str
    score: float
    label: Optional[str] = None  # attached by merge_with_protocol

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise NonFinite(f"{self.utt_id}: non-finite score")
        if self.label is not None and self.label not in LABELS:
            raise BadProtocol(f"{self.utt_id}: bad label {self.label!r}")


@dataclass(frozen=True)
class EerResult:
    eer: float
    threshold: float
    n_bonafide: int
    n_spoof: int


def compute_eer(trials) -> EerResult:
    """Sweep unique scores descending; exact crossing of FAR and FRR, or
    linear interpolation between the adjacent operating points.

    The result is not clamped, so a worse-than-chance scorer can report
    an EER above 0.5.
    """
    trials = list(trials)
    bona = np.array([t.score for t in trials if t.label == "bonafide"], dtype=np.float64)
    spoof = np.array([t.score for t in trials if t.label == "spoof"], dtype=np.float64)
    if len(bona) + len(spoof) != len(trials):
        raise BadProtocol("compute_eer requires labeled trials")
    if len(bona) == 0 or len(spoof) == 0:
        raise OneClassOnly(f"need both classes, got {len(bona)} bonafide and {len(spoof)} spoof")

    bona_sorted = np.sort(bona)
    spoof_sorted = np.sort(spoof)
    thresholds = np.unique(np.concatenate([bona, spoof]))[::-1]
    far = (len(spoof) - np.searchsorted(spoof_sorted, thresholds, side="left")) / len(spoof)
    frr = np.searchsorted(bona_sorted, thresholds, side="left") / len(bona)

    diff = far - frr
    crossing = int(np.argmax(diff >= 0.0))  # diff starts negative unless it crosses at once
    if diff[crossing] == 0.0:
        return EerResult(float(far[crossing]), float(thresholds[crossing]), len(bona), len(spoof))
    if crossing == 0:
        prev_far, prev_frr = 0.0, 1.0  # virtual operating point at threshold +inf
        prev_th = math.inf
    else:
        prev_far, prev_frr = float(far[crossing - 1]), float(frr[crossing - 1])
        prev_th = float(thresholds[crossing - 1])
    d = float(diff[crossing])
    dp = prev_far - prev_frr
    t = -dp / (d - dp)
    eer = prev_far + t * (float(far[crossing]) - prev_far)
    th = float(thresholds[crossing])
    threshold = th if math.isinf(prev_th) else prev_th + t * (th - prev_th)
    return EerResult(eer, threshold, len(bona), len(spoof))


# ---------------------------------------------------------------------------
# Score files


def write_scores(path, trials) -> None:
    with atomic_write(path, "w") as fh:
        for t in trials:
            fh.write(f"{t.utt_id}\t{t.score:.6f}\n")


def read_scores(path) -> list:
    trials = []
    for lineno, (utt_id, raw) in read_tsv(path, 2):
        try:
            score = float(raw)
        except ValueError as exc:
            raise BadProtocol(f"{path}:{lineno}: bad score {raw!r}") from exc
        trials.append(Trial(utt_id, score))
    return trials


def merge_with_protocol(scores, entries) -> list:
    """Attach protocol labels to scored trials.

    Coverage must be exact in both directions: a scored utterance absent
    from the protocol entries is UnknownUtt, an entry without a score is
    MissingScore.
    """
    by_utt = {}
    for t in scores:
        if t.utt_id in by_utt:
            raise DuplicateUtt(f"duplicate score for {t.utt_id!r}")
        by_utt[t.utt_id] = t
    known = {e.utt_id for e in entries}
    for t in scores:
        if t.utt_id not in known:
            raise UnknownUtt(f"scored utterance {t.utt_id!r} not in protocol")
    merged = []
    for e in entries:
        if e.utt_id not in by_utt:
            raise MissingScore(f"protocol entry {e.utt_id!r} has no score")
        merged.append(Trial(e.utt_id, by_utt[e.utt_id].score, e.label))
    return merged
