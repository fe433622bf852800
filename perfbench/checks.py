"""Output checks: every artifact loads through the package's own loaders,
score files cover their protocol split, EER lines agree with the
protocol, and deterministic artifacts hash the same on every run.

Imports ``atcadet``; the runner loads it after the package itself.
"""

import hashlib
import json
import os
import statistics

from atcadet import corpus as cp
from atcadet import dsp
from atcadet import ensemble as es
from atcadet import model as md
from atcadet import text as tx
from atcadet import training as tr
from atcadet.metrics import read_scores
from atcadet.protocol import filter_split, read_protocol


def _tree_nodes(node) -> int:
    if node.is_leaf:
        return 1
    return 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def _check_corpus(path, facts, problems):
    manifest = cp.load_manifest(os.path.join(path, "manifest.json"))
    for clip in manifest.clips:
        dsp.load_wav(os.path.join(path, "wav", f"{clip.utt_id}.wav"))
    captions = tx.load_captions(os.path.join(path, "captions.jsonl"))
    for track in ("track1", "track2"):
        entries = read_protocol(os.path.join(path, f"protocol_{track}.tsv"))
        if not entries or not {e.utt_id for e in entries} <= {c.utt_id for c in manifest.clips}:
            problems.append(f"{path}: protocol_{track} names clips the manifest lacks")
    if len(captions) != len(manifest.clips):
        problems.append(f"{path}: {len(captions)} caption sets for {len(manifest.clips)} clips")
    facts["corpus.clips"] = len(manifest.clips)
    facts["text.tokens_per_caption"] = statistics.median(
        len(tx.tokenize(t)) for cs in captions for t in cs.captions.values())


def _check_call(call, cwd, result, workload, facts, problems):
    def path(flag):
        return os.path.join(cwd, call.opt(flag))

    stage = call.stage
    if stage == "synth":
        _check_corpus(path("--out"), facts, problems)
    elif stage == "featurize":
        manifest = cp.load_manifest(os.path.join(path("--corpus"), "manifest.json"))
        frames = {dsp.load_external_features(
            os.path.join(path("--out"), f"{c.utt_id}.atfx")).n_frames for c in manifest.clips}
        if len(frames) != 1:
            problems.append(f"featurize: clips have differing frame counts {sorted(frames)}")
        facts["dsp.frames_per_clip"] = min(frames)
    elif stage == "embed":
        n = len(tx.load_embeddings(path("--out")))
        if n != facts.get("corpus.clips"):
            problems.append(f"embed: {n} embeddings for {facts.get('corpus.clips')} clips")
    elif stage == "train":
        md.load_checkpoint(path("--out-ckpt"))
        epochs = len(tr.load_report(path("--out-report")).train_loss)
        if epochs != workload.epochs:
            problems.append(f"train: ran {epochs} epochs, expected {workload.epochs}")
        facts.setdefault("training.epochs", epochs)
    elif stage in ("score", "ensemble_score"):
        scored = [t.utt_id for t in read_scores(path("--out"))]
        expected = [e.utt_id for e in filter_split(read_protocol(path("--protocol")),
                                                   call.opt("--split"))]
        if sorted(scored) != sorted(expected):
            problems.append(f"{stage} {call.opt('--out')}: {len(scored)} rows, "
                            f"split has {len(expected)}")
    elif stage == "eer":
        scored = {t.utt_id for t in read_scores(path("--scores"))}
        labels = [e.label for e in read_protocol(path("--protocol")) if e.utt_id in scored]
        try:
            out = json.loads(result.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            problems.append(f"eer {call.opt('--scores')}: no JSON result line")
            return
        if (out.get("n_bonafide"), out.get("n_spoof")) != (
                labels.count("bonafide"), labels.count("spoof")):
            problems.append(f"eer {call.opt('--scores')}: counts {out} disagree with protocol")
        if not 0.0 <= out.get("eer", -1.0) <= 1.0:
            problems.append(f"eer {call.opt('--scores')}: EER {out.get('eer')} out of range")
        facts.setdefault("metrics.eval_eer", out.get("eer"))
    elif stage == "ensemble_fit":
        model = es.load_ensemble(path("--out"))
        facts["ensemble.tree_nodes"] = sum(
            _tree_nodes(t) for t in model.gbm.trees + model.forest.trees)
        facts["ensemble.features"] = model.n_features
        first = os.path.join(cwd, call.opt("--scores").split(",")[0])
        facts["ensemble.examples"] = len(read_scores(first))


def check_calls(workload, calls, facts, problems) -> None:
    """Load every artifact the (call, cwd, result) triples produced."""
    for call, cwd, result in calls:
        try:
            _check_call(call, cwd, result, workload, facts, problems)
        except Exception as exc:  # noqa: BLE001 - any loader failure is a failed check
            problems.append(f"{call.stage} {' '.join(call.args)}: {type(exc).__name__}: {exc}")


def file_digest(full_path) -> str:
    if full_path.endswith("report.json"):
        with open(full_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_seconds", None)
        blob = json.dumps(report, sort_keys=True).encode()
    else:
        with open(full_path, "rb") as fh:
            blob = fh.read()
    return hashlib.sha256(blob).hexdigest()


def hash_tree(top, skip_dirs=()) -> dict:
    """sha256 of every file under ``top``; ``wall_seconds`` is left out of reports."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames
                             if os.path.join(dirpath, d) not in skip_dirs)
        for name in filenames:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, top)] = file_digest(full)
    return out


def diff_hashes(label, expected: dict, got: dict) -> list:
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    if not changed:
        return []
    return [f"{label}: {len(changed)} artifacts differ, e.g. {changed[:3]}"]
