"""Trained checkpoints, and the score TSVs from one checkpoint, do not
depend on the BLAS thread count.

Each test writes fixed inputs, then runs the same ``train`` or ``score``
calls in two fresh processes, one with ``OPENBLAS_NUM_THREADS=1`` and one
with it unset, and compares the bytes each wrote. The program itself sets
no thread variable. ``.aten`` files are not pinned this way: their ridge
weights move in the last bits with the thread count (README).
"""

import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np

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
