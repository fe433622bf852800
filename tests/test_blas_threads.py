"""Trained checkpoints, the score TSVs from one checkpoint, and fitted
``.aten`` ensembles do not depend on the BLAS thread count.

Each test writes fixed inputs, then runs the same ``train``, ``score`` or
``ensemble fit`` calls in two fresh processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with it unset, and compares the bytes
each wrote. The program itself sets no thread variable.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np

from atcadet import cli
from atcadet import corpus as cp
from atcadet import dsp
from atcadet import model as md
from atcadet import text as tx
from atcadet.protocol import ProtocolEntry, read_protocol, write_protocol

SRC = os.path.dirname(os.path.dirname(dsp.__file__))

# writes every score file of one checkpoint into sys.argv[2]
SCORE_SCRIPT = (
    "import sys\n"
    "from atcadet.cli import main\n"
    "inputs, out = sys.argv[1], sys.argv[2]\n"
    "for split in ('dev', 'eval'):\n"
    "    for ablate in ([], ['--ablate-text']):\n"
    "        assert main(['score', '--ckpt', inputs + '/model.atck',\n"
    "                     '--protocol', inputs + '/protocol.tsv', '--features', inputs + '/feats',\n"
    "                     '--embeddings', inputs + '/emb.bin', '--split', split, *ablate,\n"
    "                     '--out', f'{out}/{split}{len(ablate)}.tsv']) == 0\n"
)

# trains on sys.argv[1]'s track-1 protocol, writing sys.argv[2]/model.atck
TRAIN_SCRIPT = (
    "import sys\n"
    "from atcadet.cli import main\n"
    "inputs, out = sys.argv[1], sys.argv[2]\n"
    "assert main(['train', '--corpus', inputs, '--features', inputs + '/feats',\n"
    "             '--embeddings', inputs + '/emb.bin', '--track', '1', '--epochs', '3',\n"
    "             '--out-ckpt', out + '/model.atck']) == 0\n"
)


def _inputs(root, n=48):
    """A protocol of ``n`` clips over three splits, hop-512-sized features,
    toy caption embeddings and a checkpoint."""
    root.mkdir()
    rng = np.random.default_rng(21)
    entries = [
        ProtocolEntry(f"u{i:03d}", f"wav/u{i:03d}.wav", ("bonafide", "spoof")[i % 2],
                      ("real", "fake")[i % 2], ("train", "dev", "dev", "eval")[i % 4])
        for i in range(n)
    ]
    write_protocol(root / "protocol.tsv", entries)
    (root / "feats").mkdir()
    for e in entries:
        dsp.write_features(root / "feats" / f"{e.utt_id}.atfx",
                           dsp.FeatureMatrix(rng.normal(size=(169, 64))))
    tags = cp.EVENT_VOCAB
    tx.write_embeddings(root / "emb.bin", [
        tx.toy_embed(cp.make_captions(e.utt_id, (tags[i % 8], tags[(3 * i) % 8])))
        for i, e in enumerate(entries)
    ])
    md.save_checkpoint(root / "model.atck", md.AtcaParams.init(md.AtcaConfig(), seed=5))
    return root


def test_scores_from_one_checkpoint_independent_of_blas_threads(tmp_path):
    inputs = _inputs(tmp_path / "inputs")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    trees = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", SCORE_SCRIPT, str(inputs), str(out)],
                       env={**env, **extra}, check=True, timeout=300, capture_output=True)
        trees[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in out.iterdir()}
    assert sorted(trees["one"]) == ["dev0.tsv", "dev1.tsv", "eval0.tsv", "eval1.tsv"]
    assert trees["one"] == trees["unset"]


def test_scores_of_a_split_wider_than_64_clips_independent_of_blas_threads(tmp_path):
    # 300 clips: the dev split's 150 score as one batch, 150 columns wide
    inputs = _inputs(tmp_path / "inputs", n=300)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    trees = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", SCORE_SCRIPT, str(inputs), str(out)],
                       env={**env, **extra}, check=True, timeout=300, capture_output=True)
        trees[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(trees["one"]["dev0.tsv"].splitlines()) == 150
    assert trees["one"] == trees["unset"]


def test_trained_checkpoint_independent_of_blas_threads(tmp_path):
    inputs = _inputs(tmp_path / "inputs")
    # the score protocol trains on bonafide clips only: pair the labels in
    # train and dev instead
    entries = read_protocol(inputs / "protocol.tsv")
    write_protocol(inputs / "protocol_track1.tsv", [
        dataclasses.replace(e, split=("train", "dev")[(i // 2) % 2]) for i, e in enumerate(entries)
    ])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    digests = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", TRAIN_SCRIPT, str(inputs), str(out)],
                       env={**env, **extra}, check=True, timeout=300, capture_output=True)
        digests[name] = hashlib.sha256((out / "model.atck").read_bytes()).hexdigest()
    assert digests["one"] == digests["unset"]


# fits sys.argv[2]/stack.aten on the dev scores under sys.argv[1]
FIT_SCRIPT = (
    "import sys\n"
    "from atcadet.cli import main\n"
    "inputs, out = sys.argv[1], sys.argv[2]\n"
    "assert main(['ensemble', 'fit', '--scores', inputs + '/a.tsv,' + inputs + '/b.tsv',\n"
    "             '--embeddings', inputs + '/emb.bin', '--protocol', inputs + '/protocol.tsv',\n"
    "             '--split', 'dev', '--config', inputs + '/run.json', '--seed', '3',\n"
    "             '--out', out + '/stack.aten']) == 0\n"
)


def _bytes_per_thread_setting(tmp_path, script, inputs):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC
    trees = {}
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("unset", {})):
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", script, str(inputs), str(out)],
                       env={**env, **extra}, check=True, timeout=300, capture_output=True)
        trees[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    return trees


def test_stock_shaped_ensemble_independent_of_blas_threads(tmp_path):
    # 88 dev clips and 770 meta-features, two scores and a 768-d caption
    # vector, as the stock pipeline fits: more features than rows
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    rng = np.random.default_rng(23)
    entries = [ProtocolEntry(f"u{i:03d}", f"wav/u{i:03d}.wav", ("bonafide", "spoof")[i % 2],
                             ("real", "fake")[i % 2], "dev") for i in range(88)]
    write_protocol(inputs / "protocol.tsv", entries)
    for name in ("a", "b"):
        (inputs / f"{name}.tsv").write_text("".join(
            f"{e.utt_id}\t{rng.normal() + (i % 2 == 0):.6f}\n" for i, e in enumerate(entries)))
    tags = cp.EVENT_VOCAB
    tx.write_embeddings(inputs / "emb.bin", [
        tx.toy_embed(cp.make_captions(e.utt_id, (tags[i % 8], tags[(5 * i) % 8])))
        for i, e in enumerate(entries)
    ])
    (inputs / "run.json").write_text('{"ensemble": {"gbm_rounds": 5, "forest_trees": 5}}')
    trees = _bytes_per_thread_setting(tmp_path, FIT_SCRIPT, inputs)
    assert list(trees["one"]) == ["stack.aten"]
    assert trees["one"] == trees["unset"]


def _imported_inputs(root, n=64):
    """``_inputs`` with caption embeddings brought in by ``embed import``:
    random rows, none repeated, so the distinct rows of a batch fill more
    than one 32-row piece."""
    inputs = _inputs(root, n)
    rng = np.random.default_rng(24)
    (root / "external").mkdir()
    for i in range(n):
        dsp.write_features(root / "external" / f"u{i:03d}.atfx",
                           dsp.FeatureMatrix(rng.normal(size=(6 + i % 7, 768)).astype(np.float32)))
    assert cli.main(["embed", "import", "--from", str(root / "external"),
                     "--out", str(root / "emb.bin"), "--force"]) == 0
    return inputs


def test_imported_embeddings_score_independent_of_blas_threads(tmp_path):
    inputs = _imported_inputs(tmp_path / "inputs")
    trees = _bytes_per_thread_setting(tmp_path, SCORE_SCRIPT, inputs)
    assert sorted(trees["one"]) == ["dev0.tsv", "dev1.tsv", "eval0.tsv", "eval1.tsv"]
    assert trees["one"] == trees["unset"]


def test_imported_embeddings_train_independent_of_blas_threads(tmp_path):
    inputs = _imported_inputs(tmp_path / "inputs")
    entries = read_protocol(inputs / "protocol.tsv")
    write_protocol(inputs / "protocol_track1.tsv", [
        dataclasses.replace(e, split=("train", "dev")[(i // 2) % 2]) for i, e in enumerate(entries)
    ])
    trees = _bytes_per_thread_setting(tmp_path, TRAIN_SCRIPT, inputs)
    assert list(trees["one"]) == ["model.atck"]
    assert trees["one"] == trees["unset"]
