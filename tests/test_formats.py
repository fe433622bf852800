"""One reader per on-disk encoding.

Every on-disk format, read back after each truncation and after flipping
bit 0 or bit 7 of each byte, loads or raises a typed error: no corrupt
file escapes as a bare exception. The binary formats and the embedding
index raise an ``AtcadetError``, read whole or for one clip; the text
formats (protocols, score files, captions, the corpus manifest and the
train report) a ``DataError``, so the CLI exits 2 on each; a run config,
with the section configs built from it, a ``UsageError`` (exit 1) or a
``DataError``. And the JSON parse and the binary magics are named in
``errors.py`` only, so a hardening fix to a shared reader reaches every
format.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import atcadet
from atcadet import cli
from atcadet import corpus as cp
from atcadet import dsp
from atcadet import ensemble as es
from atcadet import model as md
from atcadet import text as tx
from atcadet import training as tr
from atcadet.errors import AtcadetError, BadJson, DataError, UsageError
from atcadet.metrics import Trial, read_scores, write_scores
from atcadet.protocol import ProtocolEntry, read_protocol, write_protocol


def _wav(path):
    dsp.write_wav(path, dsp.Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 40), 8000))


def _features(path):
    dsp.write_features(path, dsp.FeatureMatrix(np.random.default_rng(1).normal(size=(3, 4))))


def _checkpoint(path):
    cfg = md.AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=2, d_text=5)
    md.save_checkpoint(path, md.AtcaParams.init(cfg, seed=0))


def _ensemble(path):
    rng = np.random.default_rng(2)
    examples = [es.MetaExample(f"u{i}", float(i % 2) + 0.3 * rng.normal(size=2), rng.normal(size=2),
                               float(i % 2)) for i in range(8)]
    cfg = es.StackConfig(gbm_rounds=1, gbm_depth=1, forest_trees=1, forest_depth=1)
    es.save_ensemble(path, es.fit_stacked(examples, folds=2, cfg=cfg))


def _embeddings(path):
    rng = np.random.default_rng(3)
    tx.write_embeddings(path, [
        tx.TextEmbedding("u0", rng.normal(size=(2, 3)), (("audioset", 0, 1), ("clotho", 1, 2))),
        tx.TextEmbedding("u1", rng.normal(size=(1, 3)), ()),
    ])


def _protocol(path):
    write_protocol(path, [
        ProtocolEntry("u0", "wav/u0.wav", "bonafide", "real", "train"),
        ProtocolEntry("u1", "wav/u1.wav", "spoof", "blackbox", "dev"),
        ProtocolEntry("u2", "wav/u2.wav", "spoof", "hum_phase", "eval"),
    ])


def _scores(path):
    write_scores(path, [Trial("u0", 0.25), Trial("u1", -1.5), Trial("u2", 3.0)])


def _captions(path):
    tx.write_captions(path, [cp.make_captions("u0", ("dog", "rain")),
                             cp.make_captions("u1", ("siren",), hint="muffled")])


def _manifest(path):
    cfg = cp.CorpusConfig(n_clips=16, seed=0)
    plan, splits, _ = cp.plan_corpus(cfg)
    clips = [cp.ClipRecord(utt, gen.id, "bonafide" if gen.kind == "real" else "spoof",
                           ("dog", "rain"), cfg.duration_s, (cfg.seed, i))
             for i, (utt, gen) in enumerate(plan)]
    cp.write_manifest(path, cp.CorpusManifest(clips, splits, cfg.blackbox_fraction, cfg.to_dict()))


def _report(path):
    tr.write_report(path, tr.TrainReport([0.7, 0.5], [0.3, 0.25], 1, 1.5, (1.25, 0.75)))


def _run_config(path):
    path.write_text(json.dumps({
        "corpus": {"n_clips": 40, "duration_s": 0.5, "sample_rate": 8000, "seed": 3,
                   "bonafide_fraction": 0.5, "blackbox_fraction": 0.25, "train_fraction": 0.6,
                   "dev_fraction": 0.2, "caption_generator_hints": True,
                   "artifact_strength": 0.5, "fake_generators": [
                       {"id": "q", "kind": "fake_spectral_quantize", "params": {"levels": 12}},
                       {"id": "b", "kind": "fake_blackbox"}]},
        "model": {"d_model": 8, "d_k": 8, "n_heads": 1, "gru_layers": 1, "gru_hidden": 8,
                  "class_weights": [1.0, 2.5]},
        "train": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "adam_beta1": 0.9, "seed": 0,
                  "patience": 5, "grad_clip": 5.0, "auto_class_weights": False},
        "ensemble": {"ridge_lambda": 1.0, "gbm_rounds": 2, "gbm_depth": 3, "gbm_shrinkage": 0.1,
                     "forest_trees": 2, "forest_depth": 6, "feature_frac": 0.5,
                     "bootstrap": True, "seed": 0, "grid_step": 0.05},
    }))


def _load_run_config(path):
    """What the subcommands build from a run config: each section's config."""
    run = cli.load_run_config(path)
    cp.CorpusConfig.from_dict(run.get("corpus", {}))
    cli._section_config(md.AtcaConfig, {"d_spec": 16, "d_text": 32, **run.get("model", {})})
    cli._section_config(tr.TrainConfig, run.get("train", {}))
    cli._section_config(es.StackConfig, run.get("ensemble", {}))


def _embedding_subset(path):
    """The subset read of one clip, ``u1``, whose block follows ``u0``'s."""
    return tx.load_embeddings(path, {"u1"})


# format -> (writer of one small valid file, the file it corrupts, loader,
# the error class a damaged file may raise)
FORMATS = {
    "wav": (_wav, "f", dsp.load_wav, AtcadetError),
    "atfx": (_features, "f", dsp.load_external_features, AtcadetError),
    "atck": (_checkpoint, "f", md.load_checkpoint, AtcadetError),
    "aten": (_ensemble, "f", es.load_ensemble, AtcadetError),
    "embedding_payload": (_embeddings, "f", tx.load_embeddings, AtcadetError),
    "embedding_index": (_embeddings, "f.index.jsonl", tx.load_embeddings, AtcadetError),
    "embedding_payload_subset": (_embeddings, "f", _embedding_subset, AtcadetError),
    "embedding_index_subset": (_embeddings, "f.index.jsonl", _embedding_subset, AtcadetError),
    "protocol": (_protocol, "f", read_protocol, DataError),
    "scores": (_scores, "f", read_scores, DataError),
    "captions": (_captions, "f", tx.load_captions, DataError),
    "manifest": (_manifest, "f", cp.load_manifest, DataError),
    "train_report": (_report, "f", tr.load_report, DataError),
    "run_config": (_run_config, "f", _load_run_config, (UsageError, DataError)),
}


def _damaged(data: bytes):
    """(label, bytes) for every proper prefix and every bit-0 and bit-7 flip."""
    for n in range(len(data)):
        yield f"first {n} bytes", data[:n]
    for i in range(len(data)):
        for bit in (0, 7):
            flipped = bytearray(data)
            flipped[i] ^= 1 << bit
            yield f"byte {i} bit {bit}", bytes(flipped)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_truncated_or_flipped_file_loads_or_raises_a_typed_error(tmp_path, fmt):
    write, target, load, typed = FORMATS[fmt]
    write(tmp_path / "f")
    load(tmp_path / "f")
    damaged = tmp_path / target
    escaped = []
    for label, data in _damaged(damaged.read_bytes()):
        damaged.write_bytes(data)
        try:
            load(tmp_path / "f")
        except typed:
            pass
        except Exception as exc:  # noqa: BLE001 - the escapes are the finding
            escaped.append(f"{label}: {type(exc).__name__}: {exc}")
    assert escaped == []


def _cli_inputs(root):
    """Four clips, a bonafide and a spoof one in each of train and dev, with
    features, caption embeddings, a small model config and a checkpoint
    of its shape; returns the ``train`` and ``score`` argument lists and
    the clips each reads the embeddings of."""
    rng = np.random.default_rng(5)
    entries = [ProtocolEntry(f"u{i}", f"wav/u{i}.wav", ("bonafide", "spoof")[i % 2], "g",
                             ("train", "dev")[i // 2]) for i in range(4)]
    write_protocol(root / "protocol_track1.tsv", entries)
    (root / "feats").mkdir()
    for e in entries:
        dsp.write_features(root / "feats" / f"{e.utt_id}.atfx", dsp.FeatureMatrix(rng.normal(size=(2, 3))))
    tx.write_embeddings(root / "emb.bin", [
        tx.TextEmbedding("u0", rng.normal(size=(2, 2)), (("audioset", 0, 1), ("clotho", 1, 2))),
        tx.TextEmbedding("u1", rng.normal(size=(1, 2)), ()),
        tx.TextEmbedding("u2", rng.normal(size=(1, 2)), (("audiocaps", 0, 1),)),
        tx.TextEmbedding("u3", rng.normal(size=(2, 2)), ()),
    ])
    model = {"d_model": 2, "d_k": 2, "n_heads": 1, "gru_layers": 1, "gru_hidden": 2}
    (root / "run.json").write_text(json.dumps({"model": model}))
    md.save_checkpoint(root / "model.atck", md.AtcaParams.init(md.AtcaConfig(d_spec=3, d_text=2, **model)))
    common = ["--features", str(root / "feats"), "--embeddings", str(root / "emb.bin")]
    train = ["train", "--corpus", str(root), *common, "--track", "1",
             "--config", str(root / "run.json"), "--epochs", "1", "--out-ckpt", str(root / "out.atck"),
             "--force"]
    score = ["score", "--ckpt", str(root / "model.atck"), "--protocol", str(root / "protocol_track1.tsv"),
             *common, "--split", "dev", "--out", str(root / "dev.tsv"), "--force"]
    return {"train": (train, {"u0", "u1", "u2", "u3"}), "score": (score, {"u2", "u3"})}


@pytest.mark.parametrize("target", ["emb.bin", "emb.bin.index.jsonl"], ids=["payload", "index"])
def test_truncated_or_flipped_embeddings_exit_two_through_the_cli(tmp_path, capsys, target):
    # each damaged file the loader rejects, for the clips a command reads,
    # fails that command with exit 2 and the loader's typed error
    commands = _cli_inputs(tmp_path)
    for argv, _ in commands.values():
        assert cli.main(argv) == 0
    damaged = tmp_path / target
    failures, rejected = [], 0
    for label, data in _damaged(damaged.read_bytes()):
        damaged.write_bytes(data)
        for name, (argv, clips) in commands.items():
            try:
                tx.load_embeddings(tmp_path / "emb.bin", clips)
                continue
            except AtcadetError as exc:
                want = f"ERROR {exc.code}:"
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            rejected += 1
            if code != 2 or not err.startswith(want):
                failures.append(f"{label}, {name}: exit {code}, {err.strip()!r}, wanted {want}")
    assert rejected > 100
    assert failures == []


@pytest.mark.parametrize("damage", [b"\xff", b"[" * 200_000], ids=["not_utf8", "deep"])
def test_report_that_does_not_parse_is_bad_json(tmp_path, damage):
    path = tmp_path / "report.json"
    tr.write_report(path, tr.TrainReport([0.5], [0.25], 0, 1.0, (1.0, 1.0)))
    path.write_bytes(damage + path.read_bytes())
    with pytest.raises(BadJson):
        tr.load_report(path)


def _uses_of_shared_encodings(path):
    """(kind, line) for each json.load/json.loads call or import and each
    binary magic literal in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.append((f"json.{node.attr}", node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [(f"json.{a.name}", node.lineno) for a in node.names if a.name in ("load", "loads")]
        elif isinstance(node, ast.Constant) and node.value in (b"ATFX", b"ATCK", b"ATEN"):
            found.append((node.value.decode(), node.lineno))
    return found


def test_json_parse_and_magics_are_named_in_errors_only():
    uses = {path.name: _uses_of_shared_encodings(path)
            for path in sorted(Path(atcadet.__file__).parent.glob("*.py"))}
    assert {name: found for name, found in uses.items() if found and name != "errors.py"} == {}
    kinds = [kind for kind, _ in uses["errors.py"]]
    assert sorted(kind for kind in kinds if not kind.startswith("json.")) == ["ATCK", "ATEN", "ATFX"]
    assert "json.loads" in kinds
