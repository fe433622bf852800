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
import functools
import json
import shutil
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
from atcadet.errors import ENSEMBLE_MAGIC, AtcadetError, BadConfig, BadJson, DataError, UsageError, write_blob
from atcadet.metrics import Trial, read_scores, write_scores
from atcadet.protocol import ProtocolEntry, read_protocol, write_protocol

from _oracles import load_external_features_ref, read_index_ref, read_protocol_ref, read_scores_ref


def _wav(path):
    dsp.write_wav(path, dsp.Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 40), 8000))


def _features(path):
    dsp.write_features(path, dsp.FeatureMatrix(np.random.default_rng(1).normal(size=(3, 4))))


def _checkpoint(path):
    cfg = md.AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=2, d_text=5)
    md.save_checkpoint(path, md.AtcaParams.init(cfg, seed=0))


def _ensemble(path):
    rng = np.random.default_rng(2)
    y = np.arange(8) % 2.0
    x = np.array([[*(t + 0.3 * rng.normal(size=2)), *rng.normal(size=2)] for t in y])
    cfg = es.StackConfig(gbm_rounds=1, gbm_depth=1, forest_trees=1, forest_depth=1)
    es.save_ensemble(path, es.fit_stacked(x, y, folds=2, cfg=cfg))


def _embeddings(path):
    rng = np.random.default_rng(3)
    tx.write_embeddings(path, [
        tx.TextEmbedding("u0", rng.normal(size=(2, 3))),
        tx.TextEmbedding("u1", rng.normal(size=(1, 3))),
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
    plan, _, _ = cp.plan_corpus(cfg)
    clips = [cp.ClipRecord(utt, gen.id, "bonafide" if gen.kind == "real" else "spoof",
                           ("dog", "rain"), cfg.duration_s, (cfg.seed, i))
             for i, (utt, gen) in enumerate(plan)]
    cp.write_manifest(path, cp.CorpusManifest(clips, cfg.to_dict()))


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
    cli._section_config(cp.CorpusConfig, run.get("corpus", {}))
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
        tx.TextEmbedding("u0", rng.normal(size=(2, 2))),
        tx.TextEmbedding("u1", rng.normal(size=(1, 2))),
        tx.TextEmbedding("u2", rng.normal(size=(1, 2))),
        tx.TextEmbedding("u3", rng.normal(size=(2, 2))),
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


def _rejects_through_the_cli(damaged, commands, capsys, outputs=()):
    """Damage the file ``damaged`` every way ``_damaged`` does, and run each
    of ``commands``, (name, argument list, loader call) triples, on each
    damaged file its loader call rejects, with none of the files or
    directories ``outputs`` in place. Returns the number of such runs and
    one line for each that did not exit with the loader's typed error and
    its exit code (2 for a DataError, 1 for a run-config UsageError), or
    printed to stdout, or left one of ``outputs``."""
    for _, argv, _ in commands:
        assert cli.main(argv) == 0
    failures, rejected = [], 0
    for label, data in _damaged(damaged.read_bytes()):
        damaged.write_bytes(data)
        for name, argv, load in commands:
            try:
                load()
                continue
            except AtcadetError as exc:
                want, want_code = f"ERROR {exc.code}:", exc.exit_code
            for path in outputs:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink(missing_ok=True)
            capsys.readouterr()
            code = cli.main(argv)
            out, err = capsys.readouterr()
            rejected += 1
            left = [path.name for path in outputs if path.exists()]
            if code != want_code or not err.startswith(want) or out or left:
                failures.append(f"{label}, {name}: exit {code}, {err.strip()!r}, wanted {want_code} {want}, "
                                f"printed {out!r}, left {left}")
    return rejected, failures


@pytest.mark.parametrize("target", ["emb.bin", "emb.bin.index.jsonl"], ids=["payload", "index"])
def test_truncated_or_flipped_embeddings_exit_two_through_the_cli(tmp_path, capsys, target):
    # each damaged file the loader rejects, for the clips a command reads,
    # fails that command with exit 2 and the loader's typed error
    commands = [(name, argv, functools.partial(tx.load_embeddings, tmp_path / "emb.bin", clips))
                for name, (argv, clips) in _cli_inputs(tmp_path).items()]
    rejected, failures = _rejects_through_the_cli(tmp_path / target, commands, capsys)
    assert rejected > 100
    assert failures == []


def _model_file_inputs(root):
    """``_cli_inputs``' clips, with an ensemble over two dev score files and
    their 2-wide captions; for each command that loads a checkpoint or an
    ensemble, the file it loads and its (name, argument list, loader call)."""
    commands = {name: argv for name, (argv, _) in _cli_inputs(root).items()}
    ckpt, stack = root / "model.atck", root / "stack.aten"
    _ensemble(stack)
    write_scores(root / "a.tsv", [Trial("u2", 0.25), Trial("u3", -1.5)])
    write_scores(root / "b.tsv", [Trial("u2", 3.0), Trial("u3", 0.5)])
    ensemble_score = ["ensemble", "score", "--model", str(stack),
                      "--scores", f"{root / 'a.tsv'},{root / 'b.tsv'}",
                      "--embeddings", str(root / "emb.bin"),
                      "--protocol", str(root / "protocol_track1.tsv"), "--split", "dev",
                      "--out", str(root / "ens.tsv"), "--force"]
    load_ckpt = functools.partial(md.load_checkpoint, ckpt)
    return {"params": (ckpt, ("params", ["params", "--ckpt", str(ckpt)], load_ckpt)),
            "score": (ckpt, ("score", commands["score"], load_ckpt)),
            "ensemble_score": (stack, ("ensemble_score", ensemble_score,
                                       functools.partial(es.load_ensemble, stack)))}


@pytest.mark.parametrize("command", ["params", "score", "ensemble_score"])
def test_truncated_or_flipped_model_file_exits_two_through_the_cli(tmp_path, capsys, command):
    # each damaged checkpoint or ensemble its loader rejects fails the
    # command that loads it with exit 2 and the loader's typed error
    damaged, call = _model_file_inputs(tmp_path)[command]
    rejected, failures = _rejects_through_the_cli(damaged, [call], capsys)
    assert rejected > 100
    assert failures == []


def _atfx_inputs(root):
    """``_cli_inputs``' ``train`` and ``score``, which both read the features
    of clip u2, with the feature file of u2 and the call that loads it."""
    target = root / "feats" / "u2.atfx"
    load = functools.partial(dsp.load_external_features, target)
    return target, [(name, argv, load) for name, (argv, _) in _cli_inputs(root).items()]


def _protocol_inputs(root):
    """``_cli_inputs``' ``score`` and an ``eer`` on the dev scores it writes,
    which both read the protocol, with the protocol and the call that loads it."""
    protocol = root / "protocol_track1.tsv"
    score, _ = _cli_inputs(root)["score"]
    eer = ["eer", "--scores", str(root / "dev.tsv"), "--protocol", str(protocol)]
    load = functools.partial(read_protocol, protocol)
    return protocol, [("score", score, load), ("eer", eer, load)]


@pytest.mark.parametrize("inputs", [_atfx_inputs, _protocol_inputs], ids=["atfx", "protocol"])
def test_truncated_or_flipped_features_or_protocol_exit_two_through_the_cli(tmp_path, capsys, inputs):
    # each damaged feature file or protocol its loader rejects fails every
    # command that reads it with exit 2 and the loader's typed error
    damaged, commands = inputs(tmp_path)
    rejected, failures = _rejects_through_the_cli(damaged, commands, capsys)
    assert rejected > 100
    assert failures == []


def _score_file_inputs(root):
    """Eight dev clips with 2-wide captions and two score files over them;
    ``eer``, ``ensemble fit`` and ``ensemble score`` on the first of those
    files, each with the call that loads it, and the files they write."""
    rng = np.random.default_rng(6)
    entries = [ProtocolEntry(f"u{i}", f"wav/u{i}.wav", ("bonafide", "spoof")[i % 2], "g", "dev")
               for i in range(8)]
    protocol, scores = root / "protocol.tsv", root / "a.tsv"
    write_protocol(protocol, entries)
    tx.write_embeddings(root / "emb.bin", [tx.TextEmbedding(e.utt_id, rng.normal(size=(1, 2)))
                                           for e in entries])
    for path in (scores, root / "b.tsv"):
        write_scores(path, [Trial(e.utt_id, float(rng.normal())) for e in entries])
    _ensemble(root / "stack.aten")  # over two base scores and 2-wide captions
    (root / "run.json").write_text(json.dumps({"ensemble": {
        "gbm_rounds": 1, "gbm_depth": 1, "forest_trees": 1, "forest_depth": 1}}))
    common = ["--scores", f"{scores},{root / 'b.tsv'}", "--embeddings", str(root / "emb.bin"),
              "--protocol", str(protocol), "--split", "dev", "--force"]
    load = functools.partial(read_scores, scores)
    fit, ens = root / "fit.aten", root / "ens.tsv"
    return scores, [
        ("eer", ["eer", "--scores", str(scores), "--protocol", str(protocol)], load),
        ("ensemble_fit", ["ensemble", "fit", *common, "--config", str(root / "run.json"),
                          "--folds", "2", "--out", str(fit)], load),
        ("ensemble_score", ["ensemble", "score", "--model", str(root / "stack.aten"), *common,
                            "--out", str(ens)], load),
    ], [fit, ens]


def _caption_inputs(root):
    """``embed`` on a corpus directory holding only captions, with the call
    that loads them and the files it writes."""
    captions, emb = root / "captions.jsonl", root / "emb.bin"
    _captions(captions)
    argv = ["embed", "--corpus", str(root), "--out", str(emb), "--dim", "8", "--force"]
    return captions, [("embed", argv, functools.partial(tx.load_captions, captions))], \
        [emb, Path(tx.index_path_for(emb))]


def _manifest_inputs(root):
    """``featurize`` on a corpus of two short 44.1 kHz clips, with the call
    that loads its manifest and the directory it writes."""
    rng = np.random.default_rng(7)
    clips = [cp.ClipRecord(f"u{i}", "g", "bonafide", ("dog",), 0.05, (0, i)) for i in range(2)]
    manifest = root / "manifest.json"
    cp.write_manifest(manifest, cp.CorpusManifest(clips))
    (root / "wav").mkdir()
    for clip in clips:
        dsp.write_wav(root / "wav" / f"{clip.utt_id}.wav", dsp.Waveform(rng.uniform(-0.5, 0.5, 2205), 44100))
    argv = ["featurize", "--corpus", str(root), "--out", str(root / "feats"),
            "--n-fft", "512", "--hop", "256", "--n-mels", "8", "--force"]
    return manifest, [("featurize", argv, functools.partial(cp.load_manifest, manifest))], [root / "feats"]


@pytest.mark.parametrize("inputs", [_score_file_inputs, _caption_inputs, _manifest_inputs],
                         ids=["scores", "captions", "manifest"])
def test_truncated_or_flipped_text_file_exits_two_through_the_cli(tmp_path, capsys, inputs):
    # each damaged score file, caption file or manifest its loader rejects
    # fails every command that reads it with exit 2 and the loader's typed
    # error, and the command prints and writes nothing
    damaged, commands, outputs = inputs(tmp_path)
    rejected, failures = _rejects_through_the_cli(damaged, commands, capsys, outputs)
    assert rejected > 100
    assert failures == []


def _wav_inputs(root, set_cpus):
    """``featurize`` on a corpus of two short clips, on one CPU, with the WAV
    of the second clip, the call that loads it, and the feature files it
    writes: the first clip's is written before the second WAV is read."""
    set_cpus(1)
    rng = np.random.default_rng(8)
    clips = [cp.ClipRecord(f"u{i}", "g", "bonafide", ("dog",), 0.01, (0, i)) for i in range(2)]
    cp.write_manifest(root / "manifest.json", cp.CorpusManifest(clips))
    (root / "wav").mkdir()
    for clip in clips:
        dsp.write_wav(root / "wav" / f"{clip.utt_id}.wav", dsp.Waveform(rng.uniform(-0.5, 0.5, 441), 44100))
    wav = root / "wav" / "u1.wav"
    argv = ["featurize", "--corpus", str(root), "--out", str(root / "feats"),
            "--n-fft", "256", "--hop", "128", "--n-mels", "8", "--force"]
    return wav, [("featurize", argv, functools.partial(dsp.load_wav, wav))], \
        [root / "feats" / f"{clip.utt_id}.atfx" for clip in clips]


def _train_configs(path):
    """What ``train`` builds from a run config before it reads any data,
    with ``_cli_inputs``' feature and caption widths."""
    run = cli.load_run_config(path)
    if (cli._section_config(tr.TrainConfig, run.get("train", {})).auto_class_weights
            and "class_weights" in run.get("model", {})):
        raise BadConfig("class_weights with auto_class_weights")
    cli._section_config(md.AtcaConfig, {"d_spec": 3, "d_text": 2, **run.get("model", {})}).bounded()


def _run_config_inputs(root, set_cpus):
    """``corpus synth``, ``train`` on ``_cli_inputs``' clips and ``ensemble
    fit`` on ``_score_file_inputs``' files, all on one run config, each with
    the configs it builds from that file, and the files they write."""
    set_cpus(1)
    config = root / "config.json"
    _run_config(config)
    for name in ("t", "e"):
        (root / name).mkdir()
    train, _ = _cli_inputs(root / "t")["train"]
    train[train.index("--config") + 1] = str(config)
    _, score_calls, (fit, _) = _score_file_inputs(root / "e")
    ensemble_fit = score_calls[1][1]
    ensemble_fit[ensemble_fit.index("--config") + 1] = str(config)

    def built(section, make):
        return lambda: make(cli.load_run_config(config).get(section, {}))

    synth_out = root / "corpus"
    return config, [
        ("corpus_synth", ["corpus", "synth", "--config", str(config), "--out", str(synth_out), "--force"],
         built("corpus", functools.partial(cli._section_config, cp.CorpusConfig))),
        ("train", train, functools.partial(_train_configs, config)),
        ("ensemble_fit", ensemble_fit, built("ensemble", functools.partial(cli._section_config, es.StackConfig))),
    ], [synth_out, root / "t" / "out.atck", fit]


@pytest.mark.parametrize("inputs", [_wav_inputs, _run_config_inputs], ids=["wav", "run_config"])
def test_truncated_or_flipped_wav_or_run_config_exits_through_the_cli(tmp_path, capsys, set_cpus, inputs):
    # each damaged WAV or run config its loader rejects fails every command
    # that reads it with the loader's typed error and exit code, and the
    # command prints and writes nothing
    damaged, commands, outputs = inputs(tmp_path, set_cpus)
    rejected, failures = _rejects_through_the_cli(damaged, commands, capsys, outputs)
    assert rejected > 100
    assert failures == []


def _index_of_joined_and_split_lines(path):
    """Embeddings whose index is hand-made: its second line holds two
    entries, and its third entry runs over two lines."""
    _embeddings(path)
    lines = tx.index_path_for(path)
    first, second = (json.dumps(entry) for entry in tx._read_index(path))
    split_at = second.index('"Dt"')
    Path(lines).write_text(f"{first}\n{first}{second}\n{second[:split_at]}\n{second[split_at:]}\n")


def _outcome(load, path, key):
    """What ``load(path)`` gives: its error's class and message, or ``key``
    of what it returns."""
    try:
        return "returned", key(load(path))
    except AtcadetError as exc:
        return type(exc), exc.message


def _matrix(features):
    return features.values.dtype, features.values.shape, features.values.tobytes()


def _same(value):
    return value


# format -> (writer, the file it corrupts, loader, the loader as it was, kept
# in _oracles, and what of a result is compared)
LOADERS = {
    "embedding_index": (_embeddings, "f.index.jsonl", tx._read_index, read_index_ref, _same),
    "embedding_index_by_hand": (_index_of_joined_and_split_lines, "f.index.jsonl",
                                tx._read_index, read_index_ref, _same),
    "atfx": (_features, "f", dsp.load_external_features, load_external_features_ref, _matrix),
    "protocol": (_protocol, "f", read_protocol, read_protocol_ref, _same),
    "scores": (_scores, "f", read_scores, read_scores_ref, _same),
}


@pytest.mark.parametrize("fmt", sorted(LOADERS))
def test_damaged_files_load_as_the_former_loaders_load_them(tmp_path, fmt):
    # the same error class and message, or equal results, for every case
    write, target, load, load_ref, key = LOADERS[fmt]
    write(tmp_path / "f")
    damaged = tmp_path / target
    data = damaged.read_bytes()
    differ = []
    for label, case in [("as written", data), ("a byte appended", data + b"\n"), *_damaged(data)]:
        damaged.write_bytes(case)
        got, want = (_outcome(f, tmp_path / "f", key) for f in (load, load_ref))
        if got != want:
            differ.append(f"{label}: {got!r}, was {want!r}")
    assert differ == []


def test_index_lines_that_join_or_split_entries_are_rejected(tmp_path):
    path = tmp_path / "emb.bin"
    _index_of_joined_and_split_lines(path)
    index = Path(tx.index_path_for(path))
    with pytest.raises(BadJson, match=r"index\.jsonl:2: Extra data"):
        tx._read_index(path)
    lines = index.read_text().split("\n")
    index.write_text("\n".join([lines[0], *lines[2:]]))  # the joined line gone
    with pytest.raises(BadJson, match=r"index\.jsonl:2: Expecting"):
        tx._read_index(path)


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


def _older_files(root):
    """The embeddings, manifest and ensemble of ``_embeddings``, ``_manifest``
    and ``_ensemble`` under ``root / "new"``, and under ``root / "old"`` as
    older writers wrote them: each index line with its caption's style
    spans, the manifest with both tracks' split lists and the black-box
    fraction, and the forest with its list of tree indices."""
    new, old = root / "new", root / "old"
    for d in (new, old):
        d.mkdir()
    _embeddings(new / "emb.bin")
    _manifest(new / "manifest.json")
    _ensemble(new / "stack.aten")
    shutil.copy(new / "emb.bin", old / "emb.bin")
    lines = [json.loads(line) for line in Path(tx.index_path_for(new / "emb.bin")).read_text().splitlines()]
    spans = [[["audioset", 0, 1], ["clotho", 1, 2]], []]
    Path(tx.index_path_for(old / "emb.bin")).write_text(
        "".join(json.dumps({**line, "spans": s}) + "\n" for line, s in zip(lines, spans)))
    cfg = cp.CorpusConfig(n_clips=16, seed=0)
    manifest = json.loads((new / "manifest.json").read_text())
    with open(old / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({**manifest, "splits": cp.plan_corpus(cfg)[1], "blackbox_fraction": cfg.blackbox_fraction},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    stack = json.loads((new / "stack.aten").read_bytes()[12:])
    stack["forest"]["seeds"] = list(range(len(stack["forest"]["trees"])))
    with open(old / "stack.aten", "wb") as fh:
        write_blob(fh, ENSEMBLE_MAGIC, es.ENSEMBLE_VERSION,
                   json.dumps(stack, sort_keys=True, separators=(",", ":")).encode())
    return new, old


def test_older_files_load_as_the_current_ones(tmp_path):
    # and, written again, are the current files
    new, old = _older_files(tmp_path)
    got, want = (tx.load_embeddings(d / "emb.bin") for d in (old, new))
    assert [e.utt_id for e in got] == [e.utt_id for e in want]
    assert got[0].table.tobytes() == want[0].table.tobytes()
    assert all(g.ids.tobytes() == w.ids.tobytes() for g, w in zip(got, want))
    assert cp.load_manifest(old / "manifest.json") == cp.load_manifest(new / "manifest.json")
    rows = np.random.default_rng(9).normal(size=(16, 4))
    models = [es.load_ensemble(d / "stack.aten") for d in (old, new)]
    assert es.predict_stacked(models[0], rows).tobytes() == es.predict_stacked(models[1], rows).tobytes()
    again = tmp_path / "again"
    again.mkdir()
    tx.write_embeddings(again / "emb.bin", got)
    cp.write_manifest(again / "manifest.json", cp.load_manifest(old / "manifest.json"))
    es.save_ensemble(again / "stack.aten", models[0])
    for name in ("emb.bin", "emb.bin.index.jsonl", "manifest.json", "stack.aten"):
        assert (again / name).read_bytes() == (new / name).read_bytes(), name
    for name in ("emb.bin.index.jsonl", "manifest.json", "stack.aten"):  # each older file holds its key
        assert (old / name).read_bytes() != (new / name).read_bytes(), name


def test_writers_emit_only_the_keys_readers_use(tmp_path):
    # no caption style spans, no split lists or black-box fraction beside
    # the manifest's config, no list of forest tree indices
    tx.write_embeddings(tmp_path / "emb.bin", [tx.toy_embed(cp.make_captions("u0", ("dog", "rain")),
                                                            tx.ToyEmbedderConfig(dim=8))])
    cp.build_corpus(cp.CorpusConfig(n_clips=12, duration_s=0.5, sample_rate=8000), tmp_path / "corpus")
    _ensemble(tmp_path / "stack.aten")
    (line,) = Path(tx.index_path_for(tmp_path / "emb.bin")).read_text().splitlines()
    assert sorted(json.loads(line)) == ["Dt", "L", "offset", "utt_id"]
    assert sorted(json.loads((tmp_path / "corpus" / "manifest.json").read_text())) == ["clips", "config"]
    forest = json.loads((tmp_path / "stack.aten").read_bytes()[12:])["forest"]
    assert sorted(forest) == ["feature_frac", "trees"]
