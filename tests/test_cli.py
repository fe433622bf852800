"""Subcommand pipeline, exit codes, and stderr formatting."""

import filecmp
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import atcadet
import atcadet.cli as cli
import atcadet.dsp as dsp
import atcadet.errors as errors
import atcadet.model as md
import atcadet.text as tx
from atcadet.metrics import read_scores
from atcadet.model import AtcaConfig, AtcaParams
from atcadet.protocol import filter_split, read_protocol
from atcadet.training import load_report

pytestmark = pytest.mark.filterwarnings("ignore:processing 8000 Hz")

EPOCHS = 2


def run(argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny corpus driven through every subcommand."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = {
        "corpus": {"n_clips": 40, "duration_s": 0.5, "sample_rate": 8000, "seed": 3},
        "train": {"epochs": EPOCHS, "batch_size": 8, "lr": 1e-3, "seed": 0, "patience": 5},
        "model": {"d_model": 8, "d_k": 8, "n_heads": 1, "gru_layers": 1, "gru_hidden": 8},
    }
    paths = {
        "root": root,
        "config": root / "run.json",
        "corpus": root / "corpus",
        "feats": root / "feats",
        "emb": root / "emb.bin",
        "ckpt": root / "model.atck",
        "report": root / "report.json",
        "dev": root / "dev.tsv",
        "dev_abl": root / "dev_abl.tsv",
        "eval": root / "eval.tsv",
        "eval_abl": root / "eval_abl.tsv",
        "stack": root / "stack.aten",
        "ens": root / "ens.tsv",
    }
    paths["config"].write_text(json.dumps(cfg))
    protocol = str(paths["corpus"] / "protocol_track1.tsv")
    stages = [
        ["corpus", "synth", "--config", str(paths["config"]), "--out", str(paths["corpus"])],
        ["featurize", "--corpus", str(paths["corpus"]), "--out", str(paths["feats"]),
         "--n-fft", "512", "--hop", "512", "--n-mels", "16"],
        ["embed", "--corpus", str(paths["corpus"]), "--out", str(paths["emb"]),
         "--dim", "32", "--seed", "0"],
        ["train", "--corpus", str(paths["corpus"]), "--features", str(paths["feats"]),
         "--embeddings", str(paths["emb"]), "--track", "1",
         "--config", str(paths["config"]),
         "--out-ckpt", str(paths["ckpt"]), "--out-report", str(paths["report"])],
        ["score", "--ckpt", str(paths["ckpt"]), "--protocol", protocol,
         "--features", str(paths["feats"]), "--embeddings", str(paths["emb"]),
         "--split", "dev", "--out", str(paths["dev"])],
        ["score", "--ckpt", str(paths["ckpt"]), "--protocol", protocol,
         "--features", str(paths["feats"]), "--split", "dev", "--ablate-text",
         "--out", str(paths["dev_abl"])],
        ["score", "--ckpt", str(paths["ckpt"]), "--protocol", protocol,
         "--features", str(paths["feats"]), "--embeddings", str(paths["emb"]),
         "--split", "eval", "--out", str(paths["eval"])],
        ["score", "--ckpt", str(paths["ckpt"]), "--protocol", protocol,
         "--features", str(paths["feats"]), "--split", "eval", "--ablate-text",
         "--out", str(paths["eval_abl"])],
        ["ensemble", "fit", "--scores", f"{paths['dev']},{paths['dev_abl']}",
         "--embeddings", str(paths["emb"]), "--protocol", protocol, "--split", "dev",
         "--folds", "3", "--seed", "0", "--out", str(paths["stack"])],
        ["ensemble", "score", "--model", str(paths["stack"]),
         "--scores", f"{paths['eval']},{paths['eval_abl']}",
         "--embeddings", str(paths["emb"]), "--protocol", protocol, "--split", "eval",
         "--out", str(paths["ens"])],
    ]
    for argv in stages:
        assert run(argv) == 0, argv
    paths["protocol"] = protocol
    return paths


class TestPipeline:
    def test_corpus_layout(self, pipeline):
        corpus = pipeline["corpus"]
        for name in ("manifest.json", "captions.jsonl", "protocol_track1.tsv",
                     "protocol_track2.tsv"):
            assert (corpus / name).exists()
        assert len(list((corpus / "wav").glob("*.wav"))) == 40

    def test_eer_output_format(self, pipeline, capsys):
        assert run(["eer", "--scores", str(pipeline["eval"]),
                    "--protocol", pipeline["protocol"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert re.fullmatch(r"EER \(%\): \d+\.\d\d", lines[0])
        payload = json.loads(lines[1])
        assert set(payload) == {"eer", "threshold", "n_bonafide", "n_spoof"}
        assert 0.0 <= payload["eer"] <= 1.0
        assert payload["n_bonafide"] + payload["n_spoof"] == len(read_scores(pipeline["eval"]))

    def test_eer_split_flag_matches_default(self, pipeline, capsys):
        assert run(["eer", "--scores", str(pipeline["eval"]),
                    "--protocol", pipeline["protocol"]]) == 0
        default_out = capsys.readouterr().out
        assert run(["eer", "--scores", str(pipeline["eval"]),
                    "--protocol", pipeline["protocol"], "--split", "eval"]) == 0
        assert capsys.readouterr().out == default_out

    def test_score_rows_follow_protocol_order(self, pipeline):
        entries = filter_split(read_protocol(pipeline["protocol"]), "eval")
        trials = read_scores(pipeline["eval"])
        assert [t.utt_id for t in trials] == [e.utt_id for e in entries]

    def test_ensemble_scores_cover_split(self, pipeline):
        entries = filter_split(read_protocol(pipeline["protocol"]), "eval")
        trials = read_scores(pipeline["ens"])
        assert [t.utt_id for t in trials] == [e.utt_id for e in entries]

    def test_report_written(self, pipeline):
        report = load_report(pipeline["report"])
        assert 1 <= len(report.train_loss) <= EPOCHS
        assert 0 <= report.best_epoch < len(report.train_loss)
        assert report.wall_seconds > 0.0

    def test_params_prints_checkpoint_count(self, pipeline, capsys):
        assert run(["params", "--ckpt", str(pipeline["ckpt"])]) == 0
        printed = int(capsys.readouterr().out.strip())
        assert printed == md.count_params(md.load_checkpoint(str(pipeline["ckpt"])))

    def test_retrain_writes_identical_checkpoint(self, pipeline, tmp_path):
        ckpt2 = tmp_path / "retrain.atck"
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]),
                    "--embeddings", str(pipeline["emb"]), "--track", "1",
                    "--config", str(pipeline["config"]),
                    "--out-ckpt", str(ckpt2)]) == 0
        assert ckpt2.read_bytes() == pipeline["ckpt"].read_bytes()

    def test_fraction_trains_on_subset(self, pipeline, tmp_path):
        ckpt2 = tmp_path / "frac.atck"
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]),
                    "--embeddings", str(pipeline["emb"]), "--track", "1",
                    "--config", str(pipeline["config"]), "--fraction", "0.5",
                    "--epochs", "1", "--out-ckpt", str(ckpt2)]) == 0
        assert ckpt2.exists()

    def test_corpus_rebuild_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "corpus2"
        assert run(["corpus", "synth", "--config", str(pipeline["config"]),
                    "--out", str(again)]) == 0
        names = ["manifest.json", "captions.jsonl", "protocol_track1.tsv",
                 "protocol_track2.tsv"]
        names += [f"wav/{p.name}" for p in sorted((pipeline["corpus"] / "wav").iterdir())]
        match, mismatch, errors = filecmp.cmpfiles(
            str(pipeline["corpus"]), str(again), names, shallow=False)
        assert mismatch == [] and errors == []
        assert len(match) == len(names)


class TestParamsCount:
    def test_hand_enumerated_config(self, tmp_path, capsys):
        cfg = AtcaConfig(d_spec=4, d_model=4, d_k=4, n_heads=1,
                         gru_layers=1, gru_hidden=4, d_text=4)
        path = tmp_path / "tiny.atck"
        md.save_checkpoint(str(path), AtcaParams.init(cfg, seed=0))
        assert run(["params", "--ckpt", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "202"


class TestEmbedImport:
    def _write_matrix(self, path, rows, dims, seed):
        rng = np.random.default_rng(seed)
        dsp.write_features(str(path), dsp.FeatureMatrix(rng.normal(size=(rows, dims))))

    def test_import_round_trip(self, tmp_path):
        src = tmp_path / "ext"
        src.mkdir()
        for i in range(3):
            self._write_matrix(src / f"u{i:04d}.atfx", rows=2 + i, dims=6, seed=i)
        out = tmp_path / "ext.bin"
        assert run(["embed", "import", "--from", str(src), "--out", str(out)]) == 0
        loaded = tx.load_embeddings(str(out))
        assert [e.utt_id for e in loaded] == ["u0000", "u0001", "u0002"]
        assert all(e.style_spans == () for e in loaded)
        assert loaded[2].matrix.shape == (4, 6)

    def test_import_rejects_mixed_widths(self, tmp_path, capsys):
        src = tmp_path / "ext"
        src.mkdir()
        self._write_matrix(src / "a.atfx", rows=2, dims=6, seed=0)
        self._write_matrix(src / "b.atfx", rows=2, dims=7, seed=1)
        assert run(["embed", "import", "--from", str(src),
                    "--out", str(tmp_path / "o.bin")]) == 2
        assert capsys.readouterr().err.startswith("ERROR DIM_MISMATCH:")

    def test_import_rejects_empty_dir(self, tmp_path, capsys):
        src = tmp_path / "ext"
        src.mkdir()
        assert run(["embed", "import", "--from", str(src),
                    "--out", str(tmp_path / "o.bin")]) == 2
        assert capsys.readouterr().err.startswith("ERROR MISSING_FEATURE:")


def _first_split(ensemble):
    """The first internal node of an ensemble model's trees, breadth first."""
    pending = ensemble["gbm"]["trees"] + ensemble["forest"]["trees"]
    while pending:
        node = pending.pop(0)
        if "feature" in node:
            return node
        pending += [v for v in node.values() if isinstance(v, dict)]
    raise AssertionError("the ensemble has no split")


# a tree nested deeper than the JSON parser's recursion limit
_DEEP_TREE = ('{"feature":0,"threshold":0.0,"left":' * 3000 + '{"value":0.0}'
              + ',"right":{"value":0.0}}' * 3000)


class TestErrorMapping:
    def test_unknown_command(self, capsys):
        assert run(["nonsense"]) == 1
        assert capsys.readouterr().err.startswith("ERROR USAGE:")

    def test_missing_required_option(self, capsys):
        assert run(["featurize"]) == 1
        assert capsys.readouterr().err.startswith("ERROR USAGE:")

    def test_overwrite_refused_without_force(self, pipeline, capsys):
        assert run(["corpus", "synth", "--config", str(pipeline["config"]),
                    "--out", str(pipeline["corpus"])]) == 1
        assert capsys.readouterr().err.startswith("ERROR OUTPUT_EXISTS:")

    def test_embed_over_a_stale_index(self, pipeline, tmp_path):
        # the index is the embedding's commit marker: an index without its
        # payload is a leftover and does not block a rerun
        out = tmp_path / "emb.bin"
        argv = ["embed", "--corpus", str(pipeline["corpus"]), "--out", str(out), "--dim", "32"]
        assert run(argv) == 0
        os.remove(out)
        assert run(argv) == 0
        assert out.read_bytes() == pipeline["emb"].read_bytes()
        with open(tx.index_path_for(out), "rb") as fh, open(tx.index_path_for(pipeline["emb"]), "rb") as want:
            assert fh.read() == want.read()

    def test_embed_over_a_payload_without_index(self, pipeline, tmp_path, capsys):
        # the payload is the user's output path: a write cut off before its
        # index still needs --force, as any other file at --out does
        out = tmp_path / "emb.bin"
        argv = ["embed", "--corpus", str(pipeline["corpus"]), "--out", str(out), "--dim", "32"]
        assert run(argv) == 0
        os.remove(tx.index_path_for(out))
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("ERROR OUTPUT_EXISTS:")
        assert not os.path.exists(tx.index_path_for(out))
        assert run(argv + ["--force"]) == 0
        assert out.read_bytes() == pipeline["emb"].read_bytes()

    def test_ensemble_fit_refuses_existing_out_before_fitting(self, pipeline, tmp_path,
                                                               monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the output guard")

        out = tmp_path / "stack.aten"
        out.write_bytes(b"old")
        argv = ["ensemble", "fit", "--scores", f"{pipeline['dev']},{pipeline['dev_abl']}",
                "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
                "--split", "dev", "--folds", "3", "--seed", "0", "--out", str(out)]
        monkeypatch.setattr(cli.es, "fit_stacked", no_fit)
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("ERROR OUTPUT_EXISTS:")
        assert out.read_bytes() == b"old"
        monkeypatch.undo()
        assert run(argv + ["--force"]) == 0
        assert out.read_bytes() == pipeline["stack"].read_bytes()

    @pytest.mark.parametrize("command", ["score", "ensemble_score"])
    def test_score_refuses_existing_out_before_loading(self, pipeline, tmp_path, monkeypatch,
                                                       capsys, command):
        def no_load(*args, **kwargs):
            raise AssertionError("loaded before the output guard")

        out = tmp_path / "s.tsv"
        out.write_bytes(b"old")
        if command == "score":
            argv, want = _score_argv(pipeline, pipeline["emb"], out), pipeline["eval"]
        else:
            argv, want = _ensemble_score_argv(pipeline, pipeline["stack"], out), pipeline["ens"]
        monkeypatch.setattr(cli.md, "load_checkpoint", no_load)
        monkeypatch.setattr(cli.es, "load_ensemble", no_load)
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("ERROR OUTPUT_EXISTS:")
        assert out.read_bytes() == b"old"
        monkeypatch.undo()
        assert run(argv + ["--force"]) == 0
        assert out.read_bytes() == want.read_bytes()

    def test_score_without_embeddings_is_a_usage_error_before_loading(self, pipeline, tmp_path,
                                                                      monkeypatch, capsys):
        # a features directory with no files would be a data error, were it read
        def no_load(*args, **kwargs):
            raise AssertionError("loaded before the flags were checked")

        empty, out = tmp_path / "no_feats", tmp_path / "s.tsv"
        empty.mkdir()
        monkeypatch.setattr(cli.md, "load_checkpoint", no_load)
        monkeypatch.setattr(cli, "_load_features", no_load)
        assert run(["score", "--ckpt", str(pipeline["ckpt"]), "--protocol", pipeline["protocol"],
                    "--features", str(empty), "--split", "eval", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "ERROR USAGE: score requires --embeddings unless --ablate-text is set")
        assert not out.exists()

    def test_train_on_a_protocol_without_train_or_dev_rows_exit_two(self, pipeline, tmp_path,
                                                                    capsys):
        corpus, ckpt = tmp_path / "corpus", tmp_path / "m.atck"
        corpus.mkdir()
        rows = [line for line in open(pipeline["protocol"]).read().splitlines()
                if line.endswith("\teval")]
        (corpus / "protocol_track1.tsv").write_text("\n".join(rows) + "\n")
        assert run(["train", "--corpus", str(corpus), "--features", str(pipeline["feats"]),
                    "--embeddings", str(pipeline["emb"]), "--track", "1",
                    "--config", str(pipeline["config"]), "--out-ckpt", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("ERROR EMPTY_SPLIT:")
        assert not ckpt.exists()

    def test_force_overwrites_scores(self, pipeline):
        argv = ["score", "--ckpt", str(pipeline["ckpt"]),
                "--protocol", pipeline["protocol"],
                "--features", str(pipeline["feats"]), "--split", "eval",
                "--ablate-text", "--out", str(pipeline["eval_abl"])]
        assert run(argv) == 1
        assert run(argv + ["--force"]) == 0

    def test_score_needs_embeddings_or_ablation(self, pipeline, capsys):
        assert run(["score", "--ckpt", str(pipeline["ckpt"]),
                    "--protocol", pipeline["protocol"],
                    "--features", str(pipeline["feats"]), "--split", "eval",
                    "--out", str(pipeline["root"] / "x.tsv")]) == 1
        assert capsys.readouterr().err.startswith("ERROR USAGE:")

    def test_unknown_config_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"bogus": {}}))
        assert run(["corpus", "synth", "--config", str(bad),
                    "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")

    def test_unknown_corpus_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"n_clipz": 8}}))
        assert run(["corpus", "synth", "--config", str(bad),
                    "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")

    def test_malformed_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["corpus", "synth", "--config", str(bad),
                    "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")

    def test_corrupt_scores_exit_two(self, pipeline, tmp_path, capsys):
        junk = tmp_path / "junk.tsv"
        junk.write_text("u0000\tnot_a_number\n")
        assert run(["eer", "--scores", str(junk),
                    "--protocol", pipeline["protocol"]]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_PROTOCOL:")

    def test_truncated_checkpoint_exit_two(self, pipeline, tmp_path, capsys):
        stub = tmp_path / "stub.atck"
        stub.write_bytes(pipeline["ckpt"].read_bytes()[:40])
        assert run(["params", "--ckpt", str(stub)]) == 2
        assert capsys.readouterr().err.startswith("ERROR ")

    @pytest.mark.parametrize("rewrite", [
        lambda blob: blob.replace(b'"d_k"', b'"d_\xffk"'),
        lambda blob: blob[:-1],
        lambda blob: json.dumps({**json.loads(blob), "bogus": 1}).encode(),
        # the config of a checkpoint written before the raw-waveform branch was removed
        lambda blob: json.dumps({**json.loads(blob), "d_raw": 0, "use_raw_branch": False},
                                sort_keys=True, separators=(",", ":")).encode(),
    ], ids=["not_utf8", "malformed_json", "unknown_field", "raw_branch_keys"])
    def test_bad_checkpoint_config_exit_two(self, tmp_path, capsys, rewrite):
        path = tmp_path / "tiny.atck"
        md.save_checkpoint(str(path), AtcaParams.init(AtcaConfig(d_spec=2, d_model=2, d_k=2,
                                                                 gru_hidden=2, d_text=2)))
        data = path.read_bytes()
        blob_len = int.from_bytes(data[8:12], "little")
        blob = rewrite(data[12 : 12 + blob_len])
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + blob_len :])
        assert run(["params", "--ckpt", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")

    def test_bad_embedding_index_exit_two(self, pipeline, tmp_path, capsys):
        emb = tmp_path / "emb.bin"
        emb.write_bytes(pipeline["emb"].read_bytes())
        lines = (pipeline["root"] / "emb.bin.index.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        lines[0] = json.dumps({**first, "offset": -1})
        (tmp_path / "emb.bin.index.jsonl").write_text("\n".join(lines) + "\n")
        assert run(["score", "--ckpt", str(pipeline["ckpt"]),
                    "--protocol", pipeline["protocol"],
                    "--features", str(pipeline["feats"]), "--embeddings", str(emb),
                    "--split", "eval", "--out", str(tmp_path / "s.tsv")]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")

    def test_missing_embedding_index_exit_two(self, pipeline, tmp_path, capsys):
        emb = tmp_path / "emb.bin"
        emb.write_bytes(pipeline["emb"].read_bytes())
        assert run(["score", "--ckpt", str(pipeline["ckpt"]),
                    "--protocol", pipeline["protocol"],
                    "--features", str(pipeline["feats"]), "--embeddings", str(emb),
                    "--split", "eval", "--out", str(tmp_path / "s.tsv")]) == 2
        assert capsys.readouterr().err.startswith("ERROR MISSING_EMBEDDING:")
        assert not (tmp_path / "s.tsv").exists()

    def test_missing_wav_exit_two(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        (corpus / "wav").mkdir(parents=True)
        (corpus / "manifest.json").write_bytes((pipeline["corpus"] / "manifest.json").read_bytes())
        wavs = sorted((pipeline["corpus"] / "wav").glob("*.wav"))
        for wav in wavs[:-1]:
            (corpus / "wav" / wav.name).write_bytes(wav.read_bytes())
        out = tmp_path / "feats"
        assert run(["featurize", "--corpus", str(corpus), "--out", str(out),
                    "--n-fft", "512", "--hop", "512", "--n-mels", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR NOT_WAV:")
        assert wavs[-1].name in err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["eer", "ensemble_fit", "ensemble_score"])
    def test_non_utf8_scores_exit_two(self, pipeline, tmp_path, capsys, stage):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(pipeline["eval"].read_bytes().replace(b"\t", b"\xff\t", 1))
        if stage == "eer":
            argv = ["eer", "--scores", str(bad), "--protocol", pipeline["protocol"]]
        elif stage == "ensemble_fit":
            argv = ["ensemble", "fit", "--scores", f"{bad},{pipeline['eval_abl']}",
                    "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
                    "--split", "eval", "--folds", "3", "--seed", "0",
                    "--out", str(tmp_path / "stack.aten")]
        else:
            argv = ["ensemble", "score", "--model", str(pipeline["stack"]),
                    "--scores", f"{bad},{pipeline['eval_abl']}",
                    "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
                    "--split", "eval", "--out", str(tmp_path / "ens.tsv")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_PROTOCOL:")

    @pytest.mark.parametrize("reader,code", [
        ("protocol", "BAD_PROTOCOL"),
        ("run_config", "BAD_JSON"),
        ("manifest", "BAD_JSON"),
        ("captions", "BAD_JSON"),
    ])
    def test_non_utf8_input_exit_two(self, pipeline, tmp_path, capsys, reader, code):
        def corrupt(src, dst):
            data = src.read_bytes()
            dst.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])

        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = tmp_path / "out"
        if reader == "protocol":
            bad = corpus / "protocol_track1.tsv"
            corrupt(pipeline["corpus"] / "protocol_track1.tsv", bad)
            argv = ["eer", "--scores", str(pipeline["eval"]), "--protocol", str(bad)]
        elif reader == "run_config":
            bad = tmp_path / "run.json"
            corrupt(pipeline["config"], bad)
            argv = ["corpus", "synth", "--config", str(bad), "--out", str(out)]
        elif reader == "manifest":
            corrupt(pipeline["corpus"] / "manifest.json", corpus / "manifest.json")
            argv = ["featurize", "--corpus", str(corpus), "--out", str(out),
                    "--n-fft", "512", "--hop", "512", "--n-mels", "16"]
        else:
            corrupt(pipeline["corpus"] / "captions.jsonl", corpus / "captions.jsonl")
            argv = ["embed", "--corpus", str(corpus), "--out", str(out), "--dim", "32"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"ERROR {code}:")
        assert not out.exists()

    @pytest.mark.parametrize("rewrite", [
        lambda d: _first_split(d).update(feature=99999),
        lambda d: _first_split(d).update(feature=-1),
        lambda d: d["ridge"].update(weights=d["ridge"]["weights"][:-1]),
        lambda d: d["gbm"]["trees"].__setitem__(0, "DEEP"),
        lambda d: d["forest"].update(trees=[], seeds=[]),
        # a loaded model's weights and lambda are input data, not a run config
        lambda d: d.update(combine_weights=[0.5, 0.5, 0.5]),
        lambda d: d["ridge"].update({"lambda": -1.0}),
    ], ids=["feature_too_large", "feature_negative", "short_ridge_weights", "deep_tree",
            "empty_forest", "weights_off_the_simplex", "negative_ridge_lambda"])
    def test_bad_ensemble_model_exit_two(self, pipeline, tmp_path, capsys, rewrite):
        data = pipeline["stack"].read_bytes()
        d = json.loads(data[12:])
        rewrite(d)
        blob = json.dumps(d, sort_keys=True).replace('"DEEP"', _DEEP_TREE).encode()
        model, out = tmp_path / "bad.aten", tmp_path / "ens.tsv"
        model.write_bytes(data[:4] + struct.pack("<II", 1, len(blob)) + blob)
        assert run(["ensemble", "score", "--model", str(model),
                    "--scores", f"{pipeline['eval']},{pipeline['eval_abl']}",
                    "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
                    "--split", "eval", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")
        assert not out.exists()

    # BadConfig is a usage error: exit 1, as for every other run-config value
    @pytest.mark.parametrize("section", [
        {"grid_step": 0}, {"grid_step": 2}, {"gbm_rounds": 2.5}, {"gbm_depth": -1},
        {"forest_depth": -1},
    ], ids=["grid_step_0", "grid_step_2", "fractional_rounds", "gbm_depth_neg",
            "forest_depth_neg"])
    def test_bad_ensemble_config_exit_one(self, pipeline, tmp_path, capsys, section):
        config, out = tmp_path / "run.json", tmp_path / "stack.aten"
        config.write_text(json.dumps({"ensemble": section}))
        assert run(["ensemble", "fit", "--scores", f"{pipeline['dev']},{pipeline['dev_abl']}",
                    "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
                    "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")
        assert not out.exists()

    def test_unexpected_exception_exit_three(self, pipeline, capsys, monkeypatch):
        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli.md, "load_checkpoint", boom)
        assert run(["params", "--ckpt", str(pipeline["ckpt"])]) == 3
        assert capsys.readouterr().err.startswith("ERROR INTERNAL:")

    def test_bad_fraction(self, pipeline, capsys):
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]),
                    "--embeddings", str(pipeline["emb"]), "--track", "1",
                    "--fraction", "1.5", "--epochs", "1",
                    "--out-ckpt", str(pipeline["root"] / "y.atck")]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")

    # a run-config value of the wrong type is a usage error like any other
    # bad value: exit 1 with BAD_CONFIG, and nothing written
    @pytest.mark.parametrize("config, flags", [
        ({"corpus": {"n_clips": 12.5}}, []),
        ({"corpus": {"seed": True}}, []),
        ({"corpus": {"seed": 1.5}}, []),
        ({"corpus": {}}, ["--seed", "-1"]),
        ({"corpus": {"caption_generator_hints": "yes"}}, []),
        ({"corpus": {"duration_s": "2"}}, []),
        ({"corpus": {"fake_generators": [
            {"id": "a", "kind": "fake_lowpass_smear", "params": {"cutoff_hz": "0.3"}},
            {"id": "b", "kind": "fake_blackbox"}]}}, []),
        ({"corpus": {"fake_generators": [
            {"id": "a", "kind": "fake_spectral_quantize", "params": {"levels": 10.7}},
            {"id": "b", "kind": "fake_blackbox"}]}}, []),
        ({"corpus": {"fake_generators": [{"id": "a"}, {"id": "b", "kind": "fake_blackbox"}]}}, []),
        ([{"corpus": {}}], []),
    ], ids=["fractional_n_clips", "bool_seed", "fractional_seed", "negative_seed_flag",
            "hints_as_str", "duration_as_str", "float_param_as_str", "fractional_int_param",
            "generator_without_kind", "config_not_object"])
    def test_bad_corpus_config_exit_one(self, tmp_path, capsys, config, flags):
        path, out = tmp_path / "run.json", tmp_path / "corpus"
        if isinstance(config, dict):
            config = {"corpus": {"n_clips": 12, "duration_s": 0.5, "sample_rate": 8000,
                                 **config["corpus"]}}
        path.write_text(json.dumps(config))
        assert run(["corpus", "synth", "--config", str(path), "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")
        assert not (out / "manifest.json").exists()

    # levels scale as 10 / strength, and the black box's draws as up to
    # 48 / strength: 1e-310 overflows both, 1e-307 only the black box's
    @pytest.mark.parametrize("strength", [1e-310, 1e-307])
    def test_too_small_artifact_strength_exit_one_and_old_corpus_kept(self, tmp_path, capsys,
                                                                       strength):
        path, out = tmp_path / "run.json", tmp_path / "corpus"
        corpus = {"n_clips": 12, "duration_s": 0.5, "sample_rate": 8000}
        path.write_text(json.dumps({"corpus": corpus}))
        argv = ["corpus", "synth", "--config", str(path), "--out", str(out)]
        assert run(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        path.write_text(json.dumps({"corpus": {**corpus, "artifact_strength": strength}}))
        assert run(argv + ["--force"]) == 1
        assert capsys.readouterr().err.startswith(f"ERROR BAD_CONFIG: artifact strength {strength}")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_levels_too_large_for_a_float_exit_one_and_old_corpus_kept(self, tmp_path, capsys):
        path, out = tmp_path / "run.json", tmp_path / "corpus"
        corpus = {"n_clips": 12, "duration_s": 0.5, "sample_rate": 8000}
        path.write_text(json.dumps({"corpus": corpus}))
        argv = ["corpus", "synth", "--config", str(path), "--out", str(out)]
        assert run(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        gens = [{"id": "q", "kind": "fake_spectral_quantize", "params": {"levels": 10**400}},
                {"id": "b", "kind": "fake_blackbox"}]
        path.write_text(json.dumps({"corpus": {**corpus, "fake_generators": gens}}))
        assert run(argv + ["--force"]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_small_artifact_strength_that_stays_finite_synthesizes(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"corpus": {"n_clips": 12, "duration_s": 0.5,
                                               "sample_rate": 8000, "artifact_strength": 1e-300}}))
        assert run(["corpus", "synth", "--config", str(path), "--out", str(tmp_path / "c")]) == 0

    @pytest.mark.parametrize("section", [
        {"train": {"epochs": 1.5}}, {"train": {"epochs": "2"}}, {"train": {"batch_size": 2.5}},
        {"train": {"seed": 1.5}}, {"train": {"patience": True}},
        {"train": {"auto_class_weights": "no"}}, {"train": {"grad_clip": "5"}},
        {"model": {"d_model": 8.0}}, {"model": {"gru_layers": "2"}},
        {"model": {"class_weights": [1, "a"]}}, {"model": {"class_weights": 2}},
    ], ids=["fractional_epochs", "epochs_as_str", "fractional_batch", "fractional_seed",
            "bool_patience", "auto_weights_as_str", "grad_clip_as_str", "float_d_model",
            "gru_layers_as_str", "weight_as_str", "weights_not_pair"])
    def test_bad_train_config_exit_one(self, pipeline, tmp_path, capsys, section):
        config = {"train": {"epochs": 1},
                  "model": {"d_model": 8, "d_k": 8, "gru_layers": 1, "gru_hidden": 8}}
        for name, fields in section.items():
            config[name] = {**config[name], **fields}
        path, ckpt = tmp_path / "run.json", tmp_path / "m.atck"
        path.write_text(json.dumps(config))
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]), "--embeddings", str(pipeline["emb"]),
                    "--track", "1", "--config", str(path), "--out-ckpt", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")
        assert not ckpt.exists()

    @pytest.mark.parametrize("argv", [
        ["featurize", "--hop", "0"], ["featurize", "--n-fft", "1000"],
        ["featurize", "--n-mels", "0"], ["embed", "--dim", "4"], ["embed", "--seed", "-1"],
    ], ids=["hop_0", "n_fft_not_power_of_two", "n_mels_0", "dim_4", "negative_seed"])
    def test_bad_flag_value_exit_one(self, pipeline, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(argv + ["--corpus", str(pipeline["corpus"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG:")
        assert not out.exists()

    def test_ensemble_score_with_too_few_score_files_exit_two(self, pipeline, tmp_path, capsys):
        # the ensemble was fit on two score files
        out = tmp_path / "ens.tsv"
        assert run(["ensemble", "score", "--model", str(pipeline["stack"]),
                    "--scores", str(pipeline["eval"]), "--embeddings", str(pipeline["emb"]),
                    "--protocol", pipeline["protocol"], "--split", "eval",
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ERROR DIM_MISMATCH:")
        assert not out.exists()


# nested far deeper than the JSON parser's recursion limit
_DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _score_argv(pipeline, emb, out):
    return ["score", "--ckpt", str(pipeline["ckpt"]), "--protocol", pipeline["protocol"],
            "--features", str(pipeline["feats"]), "--embeddings", str(emb),
            "--split", "eval", "--out", str(out)]


def _ensemble_score_argv(pipeline, model, out):
    return ["ensemble", "score", "--model", str(model),
            "--scores", f"{pipeline['eval']},{pipeline['eval_abl']}",
            "--embeddings", str(pipeline["emb"]), "--protocol", pipeline["protocol"],
            "--split", "eval", "--out", str(out)]


_BINARY = ("features", "checkpoint", "ensemble")


def _damaged_embedding_copy(pipeline, tmp_path, split, damage=None, index_line=None):
    """A copy of the pipeline's embedding file in which the first clip of
    ``split`` has its block damaged (``magic``: a bad block magic; ``nan``:
    a NaN first value) or its index line replaced; and the score path."""
    entries = filter_split(read_protocol(pipeline["protocol"]), split)
    lines = (pipeline["root"] / "emb.bin.index.jsonl").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["utt_id"] == entries[0].utt_id)
    data = bytearray(pipeline["emb"].read_bytes())
    offset = json.loads(lines[at])["offset"]
    if damage == "magic":
        data[offset : offset + 4] = b"XXXX"
    elif damage == "nan":
        data[offset + 16 : offset + 20] = struct.pack("<f", float("nan"))
    if index_line is not None:
        lines[at] = index_line
    emb = tmp_path / "emb.bin"
    emb.write_bytes(bytes(data))
    (tmp_path / "emb.bin.index.jsonl").write_text("\n".join(lines) + "\n")
    return emb, tmp_path / "s.tsv"


class TestHostileInput:
    """Inputs that once escaped as a bare exception (exit 3) reach the CLI
    as a typed data error (exit 2)."""

    def test_deep_run_config_exit_two(self, tmp_path, capsys):
        path, out = tmp_path / "run.json", tmp_path / "corpus"
        path.write_text('{"corpus": ' + _DEEP_JSON + "}")
        assert run(["corpus", "synth", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["captions", "manifest", "index", "checkpoint", "ensemble"])
    def test_deep_json_exit_two(self, pipeline, tmp_path, capsys, reader):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        corpus.mkdir()
        blob = _DEEP_JSON.encode()
        if reader == "captions":
            bad = corpus / "captions.jsonl"
            lines = (pipeline["corpus"] / "captions.jsonl").read_text().splitlines()
            bad.write_text("\n".join([lines[0], _DEEP_JSON]) + "\n")
            argv = ["embed", "--corpus", str(corpus), "--out", str(out)]
        elif reader == "manifest":
            bad = corpus / "manifest.json"
            bad.write_text(_DEEP_JSON)
            argv = ["featurize", "--corpus", str(corpus), "--out", str(out)]
        elif reader == "index":
            emb, bad = tmp_path / "emb.bin", tmp_path / "emb.bin.index.jsonl"
            emb.write_bytes(pipeline["emb"].read_bytes())
            bad.write_text(_DEEP_JSON + "\n")
            argv = _score_argv(pipeline, emb, out)
        elif reader == "checkpoint":
            bad = tmp_path / "m.atck"
            bad.write_bytes(b"ATCK" + struct.pack("<II", 1, len(blob)) + blob)
            argv = ["params", "--ckpt", str(bad)]
        else:
            bad = tmp_path / "m.aten"
            bad.write_bytes(b"ATEN" + struct.pack("<II", 1, len(blob)) + blob)
            argv = _ensemble_score_argv(pipeline, bad, out)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR BAD_JSON:")
        assert str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["clip_in_two_splits", "splits_not_a_map"])
    def test_manifest_that_breaks_validation_exit_two(self, pipeline, tmp_path, capsys, fault):
        # the same faults in a manifest built in memory are a BadConfig
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        corpus.mkdir()
        d = json.loads((pipeline["corpus"] / "manifest.json").read_text())
        track1 = d["splits"]["track1"]
        if fault == "clip_in_two_splits":
            track1["dev"].append(track1["train"][0])
        else:
            d["splits"] = [track1]
        (corpus / "manifest.json").write_text(json.dumps(d))
        assert run(["featurize", "--corpus", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR BAD_JSON: malformed manifest:")
        assert str(corpus / "manifest.json") in err
        assert not out.exists()

    def test_checkpoint_length_flip_exit_two(self, tmp_path, capsys):
        # one of the single-byte flips that made a tensor's dims length ask
        # for more bytes than memory holds
        cfg = AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=2,
                         d_text=5)
        path = tmp_path / "m.atck"
        md.save_checkpoint(str(path), AtcaParams.init(cfg, seed=0))
        data = bytearray(path.read_bytes())
        assert len(data) == 1683
        data[140] ^= 0x80
        path.write_bytes(bytes(data))
        assert run(["params", "--ckpt", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR TRUNCATED_FILE:")
        assert str(path) in err

    def test_embedding_block_past_any_size_exit_two(self, pipeline, tmp_path, capsys):
        emb, out = tmp_path / "emb.bin", tmp_path / "s.tsv"
        data = bytearray(pipeline["emb"].read_bytes())
        data[8:16] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
        emb.write_bytes(bytes(data))
        lines = (pipeline["root"] / "emb.bin.index.jsonl").read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "L": 0xFFFFFFFF, "Dt": 0xFFFFFFFF})
        (tmp_path / "emb.bin.index.jsonl").write_text("\n".join(lines) + "\n")
        assert run(_score_argv(pipeline, emb, out)) == 2
        assert capsys.readouterr().err.startswith("ERROR SHAPE_MISMATCH:")
        assert not out.exists()

    @pytest.mark.parametrize("damage,code", [("magic", "BAD_HEADER"), ("nan", "NON_FINITE")])
    def test_damaged_block_of_a_scored_clip_exit_two(self, pipeline, tmp_path, capsys,
                                                     damage, code):
        emb, out = _damaged_embedding_copy(pipeline, tmp_path, "eval", damage=damage)
        assert run(_score_argv(pipeline, emb, out)) == 2
        assert capsys.readouterr().err.startswith(f"ERROR {code}:")
        assert not out.exists()

    @pytest.mark.parametrize("split", ["eval", "train"])
    def test_damaged_index_line_of_any_clip_exit_two(self, pipeline, tmp_path, capsys, split):
        emb, out = _damaged_embedding_copy(pipeline, tmp_path, split, index_line="{not json")
        assert run(_score_argv(pipeline, emb, out)) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")
        assert not out.exists()

    @pytest.mark.parametrize("empty", [("L",), ("Dt",), ("L", "Dt")], ids="+".join)
    @pytest.mark.parametrize("command", ["train", "score"])
    def test_index_line_of_an_empty_block_exit_two(self, pipeline, tmp_path, capsys, command, empty):
        # the only line names no clip of the protocol, so no block is read: its
        # declared shape must still be one a block can have
        emb, out = tmp_path / "emb.bin", tmp_path / "out"
        emb.write_bytes(pipeline["emb"].read_bytes())
        line = {"utt_id": "nobody", "offset": 0, "L": 4, "Dt": 32, "spans": [], **dict.fromkeys(empty, 0)}
        (tmp_path / "emb.bin.index.jsonl").write_text(json.dumps(line) + "\n")
        if command == "score":
            argv = _score_argv(pipeline, emb, out)
        else:
            argv = ["train", "--corpus", str(pipeline["corpus"]), "--features", str(pipeline["feats"]),
                    "--embeddings", str(emb), "--track", "1", "--config", str(pipeline["config"]),
                    "--out-ckpt", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("ERROR BAD_JSON:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "score", "ensemble_fit", "ensemble_score"])
    def test_blocks_of_two_widths_exit_two(self, pipeline, tmp_path, capsys, command):
        # every other block cut to half its width: each call reads both widths
        emb, out = tmp_path / "emb.bin", tmp_path / "out"
        tx.write_embeddings(str(emb), [
            tx.TextEmbedding(e.utt_id, e.matrix[:, :16] if i % 2 else e.matrix, e.style_spans)
            for i, e in enumerate(tx.load_embeddings(str(pipeline["emb"])))])
        if command == "train":
            argv = ["train", "--corpus", str(pipeline["corpus"]), "--features", str(pipeline["feats"]),
                    "--embeddings", str(emb), "--track", "1", "--config", str(pipeline["config"]),
                    "--out-ckpt", str(out)]
        elif command == "score":
            argv = _score_argv(pipeline, emb, out)
        elif command == "ensemble_fit":
            argv = ["ensemble", "fit", "--scores", f"{pipeline['dev']},{pipeline['dev_abl']}",
                    "--embeddings", str(emb), "--protocol", pipeline["protocol"], "--split", "dev",
                    "--folds", "3", "--seed", "0", "--out", str(out)]
        else:
            argv = _ensemble_score_argv(pipeline, pipeline["stack"], out)
            argv[argv.index("--embeddings") + 1] = str(emb)
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("ERROR DIM_MISMATCH:")
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["magic", "nan"])
    def test_damaged_block_of_an_unscored_clip_is_not_read(self, pipeline, tmp_path, damage):
        emb, out = _damaged_embedding_copy(pipeline, tmp_path, "train", damage=damage)
        assert run(_score_argv(pipeline, emb, out)) == 0
        assert out.read_bytes() == pipeline["eval"].read_bytes()

    @pytest.mark.parametrize("loader,given", [
        (loader, given) for loader in _BINARY for given in _BINARY if given != loader])
    def test_other_format_is_wrong_kind(self, pipeline, tmp_path, capsys, loader, given):
        source = {"features": sorted(pipeline["feats"].glob("*.atfx"))[0],
                  "checkpoint": pipeline["ckpt"], "ensemble": pipeline["stack"]}[given]
        out = tmp_path / "out"
        if loader == "features":
            (tmp_path / "ext").mkdir()
            (tmp_path / "ext" / "u0000.atfx").write_bytes(source.read_bytes())
            argv = ["embed", "import", "--from", str(tmp_path / "ext"), "--out", str(out)]
        elif loader == "checkpoint":
            argv = ["params", "--ckpt", str(source)]
        else:
            argv = _ensemble_score_argv(pipeline, source, out)
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("ERROR WRONG_KIND:")
        assert not out.exists()

    @pytest.mark.parametrize("split", [[], ["--split", "eval"]], ids=["default", "eval"])
    def test_eer_on_an_empty_score_file_exit_two(self, pipeline, tmp_path, capsys, split):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert run(["eer", "--scores", str(empty), "--protocol", pipeline["protocol"], *split]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR MISSING_SCORE:")
        assert str(empty) in err


def _error_classes():
    """AtcadetError and every class below it."""
    found, pending = [], [errors.AtcadetError]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending += cls.__subclasses__()
    return found


class TestExitCodes:
    """Each error class carries its stderr code and the exit code cli.main returns."""

    def test_codes_are_unique(self):
        codes = [cls.code for cls in _error_classes()]
        assert len(codes) > 30
        assert len(set(codes)) == len(codes)

    def test_exit_code_follows_the_family(self):
        for cls in _error_classes():
            want = (1 if issubclass(cls, errors.UsageError)
                    else 2 if issubclass(cls, errors.DataError) else 3)
            assert cls.exit_code == want, cls.__name__

    @pytest.mark.parametrize("error, exit_code", [
        (errors.BadConfig, 1), (errors.BadJson, 2), (errors.DetachedTensor, 3),
    ], ids=["usage", "data", "invariant"])
    def test_main_returns_the_exit_code(self, tmp_path, capsys, monkeypatch, error, exit_code):
        def fail(path):
            raise error("raised on purpose")

        monkeypatch.setattr(cli.md, "load_checkpoint", fail)
        (tmp_path / "m.atck").write_bytes(b"")
        assert run(["params", "--ckpt", str(tmp_path / "m.atck")]) == exit_code
        assert capsys.readouterr().err == f"ERROR {error.code}: raised on purpose\n"


class TestSubsetReads:
    """Each command reads the embedding blocks of the protocol rows it uses,
    and no others; the whole index is still checked."""

    @pytest.fixture
    def blocks_read(self, monkeypatch):
        count = [0]
        read_block = tx.read_block

        def counting(fh, path):
            count[0] += 1
            return read_block(fh, path)

        monkeypatch.setattr(tx, "read_block", counting)
        return count

    @pytest.mark.parametrize("command", ["score", "ensemble_fit", "ensemble_score", "train"])
    def test_each_command_reads_only_its_clips(self, pipeline, tmp_path, blocks_read, command):
        entries = read_protocol(pipeline["protocol"])
        emb, out = str(pipeline["emb"]), str(tmp_path / "out")
        if command == "score":
            argv, used = _score_argv(pipeline, emb, out), filter_split(entries, "eval")
        elif command == "ensemble_fit":
            argv = ["ensemble", "fit", "--scores", f"{pipeline['dev']},{pipeline['dev_abl']}",
                    "--embeddings", emb, "--protocol", pipeline["protocol"], "--split", "dev",
                    "--folds", "3", "--seed", "0", "--out", out]
            used = filter_split(entries, "dev")
        elif command == "ensemble_score":
            argv = _ensemble_score_argv(pipeline, pipeline["stack"], out)
            used = filter_split(entries, "eval")
        else:
            argv = ["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]), "--embeddings", emb, "--track", "1",
                    "--config", str(pipeline["config"]), "--epochs", "1", "--out-ckpt", out]
            used = [e for e in entries if e.split in ("train", "dev")]
        assert run(argv) == 0
        assert 0 < blocks_read[0] == len(used) < len(tx.load_embeddings(emb))

    def test_train_takes_its_width_from_a_block_it_reads(self, pipeline, tmp_path):
        # the first index line is an eval clip's; its declared width is not checked
        # against a block, so train does not take it
        needed = {e.utt_id for e in read_protocol(pipeline["protocol"])
                  if e.split in ("train", "dev")}
        lines = (pipeline["root"] / "emb.bin.index.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert first["utt_id"] not in needed
        lines[0] = json.dumps({**first, "Dt": first["Dt"] - 1})
        emb, ckpt = tmp_path / "emb.bin", tmp_path / "m.atck"
        emb.write_bytes(pipeline["emb"].read_bytes())
        (tmp_path / "emb.bin.index.jsonl").write_text("\n".join(lines) + "\n")
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]), "--embeddings", str(emb),
                    "--track", "1", "--config", str(pipeline["config"]),
                    "--out-ckpt", str(ckpt)]) == 0
        assert ckpt.read_bytes() == pipeline["ckpt"].read_bytes()

    @pytest.mark.parametrize("d_text", [None, 32], ids=["width_from_file", "width_in_config"])
    def test_train_on_a_file_without_its_clips_exit_two(self, pipeline, tmp_path, capsys,
                                                        d_text):
        # the file holds only the eval clips, 32 wide
        eval_ids = {e.utt_id for e in filter_split(read_protocol(pipeline["protocol"]), "eval")}
        emb = tmp_path / "eval_only.bin"
        tx.write_embeddings(str(emb), [e for e in tx.load_embeddings(str(pipeline["emb"]))
                                       if e.utt_id in eval_ids])
        config = json.loads(pipeline["config"].read_text())
        if d_text is not None:
            config["model"]["d_text"] = d_text
        path, ckpt = tmp_path / "run.json", tmp_path / "m.atck"
        path.write_text(json.dumps(config))
        assert run(["train", "--corpus", str(pipeline["corpus"]),
                    "--features", str(pipeline["feats"]), "--embeddings", str(emb),
                    "--track", "1", "--config", str(path), "--out-ckpt", str(ckpt)]) == 2
        assert capsys.readouterr().err.startswith("ERROR MISSING_EMBEDDING:")
        assert not ckpt.exists()


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        # and the process pools that corpus synth, featurize and ensemble fit
        # import lazily
        src = os.path.dirname(os.path.dirname(cli.__file__))
        lazy = ("scipy", "multiprocessing", "concurrent.futures")
        out = subprocess.run(
            [sys.executable, "-c", f"import sys, atcadet.cli; print([m in sys.modules for m in {lazy}])"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == str([False] * len(lazy))


    def test_package_import_loads_no_module_of_its_own_or_numpy(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = ("import sys, atcadet; "
                  "print(sorted(m for m in sys.modules if m.startswith(('atcadet.', 'numpy'))))")
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_one_version_in_the_cli_the_package_and_pyproject(self, capsys):
        pyproject = os.path.join(os.path.dirname(cli.__file__), "..", "..", "pyproject.toml")
        with open(pyproject, encoding="utf-8") as fh:
            declared = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE).group(1)
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.startswith(f"atcadet {declared} (formats:")
        assert atcadet.__version__ == declared


class TestSynthImports:
    def test_synth_loads_only_the_compiled_filter_of_scipy(self, tmp_path):
        # import scipy.signal alone takes about 1 s and keeps about 65 MB
        src = os.path.dirname(os.path.dirname(cli.__file__))
        heavy = ("scipy.signal", "scipy.linalg", "scipy.sparse")
        script = (
            "import json, sys\n"
            "from atcadet.cli import main\n"
            "out = sys.argv[1]\n"
            "open(out + '.json', 'w').write(json.dumps({'corpus': {'n_clips': 12, 'seed': 4}}))\n"
            "assert main(['corpus', 'synth', '--config', out + '.json', '--out', out]) == 0\n"
            f"print([m in sys.modules for m in {heavy}])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "corpus")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
            timeout=300)
        assert len(list((tmp_path / "corpus" / "wav").glob("*.wav"))) == 12
        assert out.stdout.strip().splitlines()[-1] == str([False] * len(heavy))


class TestVersionAndHelp:
    def test_version_embeds_format_versions(self, capsys):
        assert run(["--version"]) == 0
        out = capsys.readouterr().out
        for token in ("formats:", "wav=pcm16", "atfx=1", "atck=1", "aten=1"):
            assert token in out

    @pytest.mark.parametrize("argv", [
        [], ["corpus"], ["corpus", "synth"], ["featurize"], ["embed"],
        ["embed", "import"], ["train"], ["score"], ["eer"],
        ["ensemble"], ["ensemble", "fit"], ["ensemble", "score"], ["params"],
    ])
    def test_help_everywhere(self, argv, capsys):
        assert run(argv + ["--help"]) == 0
        assert "--help" in capsys.readouterr().out
