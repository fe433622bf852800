"""Writers that go through ``errors.atomic_write``: a write that fails
part-way keeps the old file and leaves no temp file behind."""

import json
import struct

import numpy as np
import pytest

from atcadet import corpus as cp
from atcadet import dsp
from atcadet import ensemble as es
from atcadet import errors
from atcadet import model as md
from atcadet import text as tx
from atcadet import training as tr
from atcadet.metrics import Trial, write_scores
from atcadet.model import AtcaConfig, AtcaParams
from atcadet.protocol import ProtocolEntry, write_protocol
from atcadet.text import write_captions


def _checkpoint(seed):
    cfg = AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=2, gru_hidden=3, d_text=5)
    return AtcaParams.init(cfg, seed=seed)


def _ensemble(seed):
    rng = np.random.default_rng(seed)
    y = np.arange(12) % 2.0
    x = np.array([[*(t + 0.3 * rng.normal(size=2)), *rng.normal(size=4)] for t in y])
    return es.fit_stacked(x, y, folds=3, cfg=es.StackConfig(gbm_rounds=3, forest_trees=2, forest_depth=2))


def _report(seed):
    return tr.TrainReport([0.7, 0.5 + seed], [0.3, 0.2], 1, 1.5, (1.0, 1.0))


def _scores(seed):
    return [Trial(f"u{i}", 0.25 * i + seed) for i in range(5)]


def _protocol(seed):
    return [ProtocolEntry(f"u{i}", f"wav/u{i}.wav", "spoof" if (i + seed) % 2 else "bonafide", "g0", "train")
            for i in range(4)]


def _captions(seed):
    return [cp.make_captions(f"u{i}", ["dog", "rain"][: 1 + (i + seed) % 2]) for i in range(3)]


def _manifest(seed):
    clips = [cp.ClipRecord(f"u{i}", "real", "bonafide", ("dog",), 1.0 + seed, (seed, i)) for i in range(3)]
    return cp.CorpusManifest(clips, {"n_clips": 3 + seed})


def _wav(seed):
    return dsp.Waveform(np.random.default_rng(seed).uniform(-0.5, 0.5, 400), 16000)


def _features(seed):
    return dsp.FeatureMatrix(np.random.default_rng(seed).normal(size=(6, 4)))


def _embeddings(seed):
    rng = np.random.default_rng(seed)
    return [tx.TextEmbedding(f"u{i}", rng.normal(size=(2 + i, 3)))
            for i in range(3)]


def _index_lines(seed):
    return [{"utt_id": f"u{i}", "offset": 28 * i, "L": 2 + seed, "Dt": 3} for i in range(3)]


WRITERS = {
    "captions": (write_captions, _captions),
    "checkpoint": (md.save_checkpoint, _checkpoint),
    "embedding_index": (tx.write_embedding_index, _index_lines),
    "embedding_payload": (tx.write_embedding_payload, _embeddings),
    "ensemble": (es.save_ensemble, _ensemble),
    "features": (dsp.write_features, _features),
    "manifest": (cp.write_manifest, _manifest),
    "protocol": (write_protocol, _protocol),
    "report": (tr.write_report, _report),
    "scores": (write_scores, _scores),
    "wav": (dsp.write_wav, _wav),
}


class _DiskFullAfter:
    """A file object whose writes fail once ``allowed`` of them went through."""

    def __init__(self, fh, allowed):
        self._fh = fh
        self._left = allowed

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def write(self, data):
        if self._left == 0:
            raise OSError(28, "No space left on device")
        self._left -= 1
        return self._fh.write(data)

    def tell(self):
        return self._fh.tell()


@pytest.fixture
def fill_disk(monkeypatch):
    """Calling it makes every later write fail after its first chunk."""

    def arm():
        def failing_open(*args, **kwargs):
            return _DiskFullAfter(open(*args, **kwargs), allowed=1)

        monkeypatch.setattr(errors, "open", failing_open, raising=False)

    return arm


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_no_temp(kind, tmp_path, fill_disk):
    write, make = WRITERS[kind]
    path = tmp_path / "out"
    write(str(path), make(0))
    before = path.read_bytes()
    fill_disk()
    with pytest.raises(OSError):
        write(str(path), make(1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_first_write_leaves_nothing(kind, tmp_path, fill_disk):
    write, make = WRITERS[kind]
    fill_disk()
    with pytest.raises(OSError):
        write(str(tmp_path / "out"), make(0))
    assert list(tmp_path.iterdir()) == []


def test_report_bytes(tmp_path):
    tr.write_report(tmp_path / "r.json", _report(0))
    assert (tmp_path / "r.json").read_bytes() == (
        b'{\n  "best_epoch": 1,\n  "class_weights": [\n    1.0,\n    1.0\n  ],\n  "train_loss": [\n'
        b'    0.7,\n    0.5\n  ],\n  "val_eer": [\n    0.3,\n    0.2\n  ],\n  "wall_seconds": 1.5\n}\n'
    )


def _single_pass_embeddings(path, embeddings):
    """The embedding writer as it was before it went through atomic_write:
    offsets from ``tell()`` while the payload is written, then the index."""
    lines = []
    with open(path, "wb") as fh:
        for emb in embeddings:
            offset = fh.tell()
            values = emb.matrix.astype("<f4")
            fh.write(dsp.FEATURE_MAGIC + struct.pack("<III", dsp.FEATURE_VERSION, *values.shape))
            fh.write(values.tobytes(order="C"))
            lines.append({"utt_id": emb.utt_id, "offset": offset, "L": values.shape[0], "Dt": values.shape[1]})
    with open(tx.index_path_for(path), "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def test_embedding_files_match_single_pass_writer(tmp_path):
    tx.write_embeddings(tmp_path / "new.bin", _embeddings(0))
    _single_pass_embeddings(tmp_path / "old.bin", _embeddings(0))
    for suffix in ("", ".index.jsonl"):
        assert (tmp_path / f"new.bin{suffix}").read_bytes() == (tmp_path / f"old.bin{suffix}").read_bytes()


def test_failed_embedding_overwrite_leaves_no_index(tmp_path, fill_disk):
    # the index is the commit marker: it goes before the payload is replaced
    path = tmp_path / "emb.bin"
    tx.write_embeddings(path, _embeddings(0))
    before = path.read_bytes()
    fill_disk()
    with pytest.raises(OSError):
        tx.write_embeddings(path, _embeddings(1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]


def test_embedding_cut_before_its_index_leaves_only_the_payload(tmp_path, monkeypatch):
    path = tmp_path / "emb.bin"
    tx.write_embeddings(path, _embeddings(0))

    def disk_full(path, embeddings):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tx, "write_embedding_index", disk_full)
    with pytest.raises(OSError):
        tx.write_embeddings(path, _embeddings(1))
    assert [p.name for p in tmp_path.iterdir()] == ["emb.bin"]
    tx.write_embedding_payload(tmp_path / "want.bin", _embeddings(1))
    assert path.read_bytes() == (tmp_path / "want.bin").read_bytes()
