"""Loaded features and caption embeddings stay the float32 their files
store, and are widened to float64 exactly where they enter arithmetic.

Three kinds of pins:
- property tests: every reducer and model pass that reads a float32
  matrix gives the bytes it gives on the float64 widening of it;
- an end-to-end pin: a small CLI pipeline gives the same artifacts with
  the loaders as they are and with a reader that widens every block to a
  float64 copy, as the loaders did before;
- memory guards: loading allocates about the float32 payload, not a
  second, float64 copy of it; a caption load holds its distinct rows and
  one stage of blocks, not every row it reads; and ``embed`` writes each
  caption's matrix as it is made instead of holding them all.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atcadet import autodiff as ad
from atcadet import cli, dsp
from atcadet import ensemble as es
from atcadet import model as md
from atcadet import text as tx
from atcadet import training as tr
from atcadet.dsp import FeatureMatrix
from atcadet.errors import NonFinite
from atcadet.metrics import Trial
from atcadet.protocol import ProtocolEntry
from atcadet.text import TextEmbedding

from _oracles import load_external_features_f64_ref, logmel_stats, read_block_f64_ref, traced_peak

pytestmark = pytest.mark.filterwarnings("ignore:processing 8000 Hz")

# -0.0, or a float32 of magnitude 1e-30 to 1e30 and either sign
_VALUES = st.one_of(
    st.just(-0.0),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-30.0, 30.0)).map(
        lambda se: float(np.float32(se[0] * 10.0 ** se[1]))),
)


def _f32(rows, cols):
    return hnp.arrays(np.float32, (rows, cols), elements=_VALUES)


def _assert_same(got, want):
    """Equal dtype, shape and bytes, so the signs of zeros too."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _wide(m):
    return m.astype(np.float64)


def _params(d_spec, d_text, gru_layers=1, seed=0):
    cfg = md.AtcaConfig(d_spec=d_spec, d_model=4, d_k=2, n_heads=2, gru_layers=gru_layers,
                        gru_hidden=3, d_text=d_text)
    return md.AtcaParams.init(cfg, seed=seed)


@st.composite
def _spec_sets(draw, max_mats=4):
    """Float32 spectrograms of one width, d=1 and T=1 included."""
    d = draw(st.integers(1, 4))
    return [draw(_f32(draw(st.integers(1, 6)), d)) for _ in range(draw(st.integers(1, max_mats)))]


@st.composite
def _split_extremes(draw):
    """Spectrogram sets as ``_spec_sets`` draws them, of two clips or more,
    in which the first clip holds each column's smallest value over the
    set and the second its largest."""
    mats = [m.copy() for m in draw(_spec_sets().filter(lambda mats: len(mats) > 1))]
    for col in range(mats[0].shape[1]):
        values = np.concatenate([m[:, col] for m in mats])
        mats[0][0, col], mats[1][0, col] = values.min(), values.max()
    return mats


@st.composite
def _batches(draw):
    """A same-length batch: float32 spectrograms and caption matrices."""
    d, d_text = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    steps, size = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    specs = [draw(_f32(steps, d)) for _ in range(size)]
    texts = [draw(_f32(draw(st.integers(1, 4)), d_text)) for _ in range(size)]
    return specs, texts, draw(st.integers(1, 2)), draw(st.integers(0, 2**16))


class TestWidenedWhereRead:
    @given(_spec_sets())
    @settings(max_examples=60, deadline=None)
    def test_fit_normalizers(self, mats):
        narrow, wide = _params(mats[0].shape[1], 2), _params(mats[0].shape[1], 2)
        tr._fit_normalizers(narrow, mats)
        tr._fit_normalizers(wide, [_wide(m) for m in mats])
        for name in ("norm_mu", "norm_sigma"):
            _assert_same(narrow.buffers[name], wide.buffers[name])

    @given(st.one_of(_spec_sets(), _split_extremes()),
           st.lists(st.floats(-300.0, 3.0), min_size=2, max_size=2))
    @example([np.array([[-1.0]], np.float32), np.array([[1e30]], np.float32)], [-300.0, -290.0])
    @settings(max_examples=60, deadline=None)
    def test_check_inputs_verdicts(self, mats, exps):
        """Normalizers from 1e-300 to 1e3 make some standardized frames
        overflow. The verdict is that of standardizing every frame of every
        clip, also when a column's extremes lie in different clips: in the
        example only the second clip's frame overflows."""
        params = _params(mats[0].shape[1], 3)
        params.buffers["norm_mu"][:] = 10.0 ** exps[0]
        params.buffers["norm_sigma"][:] = 10.0 ** exps[1]
        texts = [np.full((1, 3), m.flat[0]) for m in mats]

        def verdict(specs, texts):
            try:
                md.check_inputs(specs, texts, params)
            except NonFinite:
                return False
            return True

        narrow = verdict([FeatureMatrix(m) for m in mats], [t.astype(np.float32) for t in texts])
        assert narrow == verdict([FeatureMatrix(_wide(m)) for m in mats], texts)
        with np.errstate(all="ignore"):
            assert narrow == all(np.isfinite(md._standardize(m, params)).all() for m in mats)

    @given(_spec_sets(max_mats=1))
    @settings(max_examples=60, deadline=None)
    def test_logmel_stats(self, mats):
        _assert_same(logmel_stats(FeatureMatrix(mats[0])),
                     logmel_stats(FeatureMatrix(_wide(mats[0]))))

    @given(_spec_sets(max_mats=1))
    @settings(max_examples=60, deadline=None)
    def test_pool_text_vector(self, mats):
        _assert_same(tx.pool_text_vector(TextEmbedding("u", mats[0])),
                     tx.pool_text_vector(TextEmbedding("u", _wide(mats[0]))))

    @given(_batches())
    @settings(max_examples=40, deadline=None)
    def test_forward_batch_logits_and_gradients(self, batch):
        specs, texts, layers, seed = batch
        params = _params(specs[0].shape[1], texts[0].shape[1], layers, seed)
        labels = np.arange(len(specs)) % 2

        def step(specs, texts):
            with ad.Tape() as tape:
                logits = md.forward_batch([FeatureMatrix(s) for s in specs], [None] * len(specs),
                                          [TextEmbedding(f"u{i}", t) for i, t in enumerate(texts)],
                                          params)
                loss = ad.weighted_ce_logits(logits, labels, np.array([1.0, 2.0]))
            grads = ad.backward(tape, loss)
            return logits.values, [grads[t] for t in params.tensors.values()]

        logits, grads = step(specs, texts)
        want_logits, want_grads = step([_wide(s) for s in specs], [_wide(t) for t in texts])
        _assert_same(logits, want_logits)
        for got, want in zip(grads, want_grads):
            _assert_same(got, want)

    @given(_batches())
    @settings(max_examples=40, deadline=None)
    def test_score_protocol_and_meta_examples(self, batch):
        specs, texts, layers, seed = batch
        params = _params(specs[0].shape[1], texts[0].shape[1], layers, seed)
        entries = [ProtocolEntry(f"u{i}", f"wav/u{i}.wav", ("bonafide", "spoof")[i % 2], "g", "eval")
                   for i in range(len(specs))]

        def run(specs, texts):
            feats = {e.utt_id: FeatureMatrix(s) for e, s in zip(entries, specs)}
            embs = {e.utt_id: TextEmbedding(e.utt_id, t) for e, t in zip(entries, texts)}
            trials = tr.score_protocol(params, entries, feats, embs)
            bases = [Trial(t.utt_id, t.score) for t in trials]
            x, _ = es.build_meta_examples([bases], embs, entries)
            return [t.score for t in trials], x

        scores, x = run(specs, texts)
        want_scores, want_x = run([_wide(s) for s in specs], [_wide(t) for t in texts])
        _assert_same(np.array(scores), np.array(want_scores))
        _assert_same(x, want_x)


# ---------------------------------------------------------------------------
# End to end


def _run_pipeline(root):
    corpus, feats, emb = root / "corpus", str(root / "feats"), str(root / "emb.bin")
    ckpt, protocol = str(root / "t1.atck"), str(corpus / "protocol_track1.tsv")
    (root / "run.json").write_text(json.dumps({
        "corpus": {"n_clips": 30, "duration_s": 0.5, "sample_rate": 8000, "seed": 3},
        "model": {"d_model": 8, "d_k": 4, "n_heads": 2, "gru_layers": 2, "gru_hidden": 6},
        "ensemble": {"gbm_rounds": 5, "forest_trees": 5},
    }))
    config = str(root / "run.json")

    def score(split, ablate):
        out = str(root / f"{split}{'_abl' if ablate else ''}.tsv")
        args = ["score", "--ckpt", ckpt, "--protocol", protocol, "--features", feats,
                "--split", split, "--out", out]
        return args + (["--ablate-text"] if ablate else ["--embeddings", emb])

    calls = [
        ["corpus", "synth", "--config", config, "--out", str(corpus)],
        ["featurize", "--corpus", str(corpus), "--out", feats, "--n-fft", "512",
         "--hop", "256", "--n-mels", "12"],
        ["embed", "--corpus", str(corpus), "--out", emb, "--dim", "24"],
        ["train", "--corpus", str(corpus), "--features", feats, "--embeddings", emb,
         "--track", "1", "--config", config, "--epochs", "2", "--batch-size", "8",
         "--out-ckpt", ckpt, "--out-report", str(root / "report.json")],
        score("dev", False), score("dev", True), score("eval", False), score("eval", True),
        ["ensemble", "fit", "--scores", f"{root / 'dev.tsv'},{root / 'dev_abl.tsv'}",
         "--embeddings", emb, "--protocol", protocol, "--config", config, "--folds", "3",
         "--out", str(root / "stack.aten")],
        ["ensemble", "score", "--model", str(root / "stack.aten"),
         "--scores", f"{root / 'eval.tsv'},{root / 'eval_abl.tsv'}", "--embeddings", emb,
         "--protocol", protocol, "--out", str(root / "ens.tsv")],
    ]
    for argv in calls:
        assert cli.main(argv) == 0, argv
    tree = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    report = json.loads(tree["report.json"])
    report.pop("wall_seconds")
    tree["report.json"] = json.dumps(report, sort_keys=True).encode()
    return tree


def test_pipeline_bytes_match_float64_loading(tmp_path, monkeypatch):
    """Every artifact, from features to the stacked ensemble's scores, is
    the same whether loaded matrices stay float32 or are widened whole."""
    (tmp_path / "f32").mkdir()
    (tmp_path / "f64").mkdir()
    narrow = _run_pipeline(tmp_path / "f32")
    monkeypatch.setattr(dsp, "load_external_features", load_external_features_f64_ref)
    monkeypatch.setattr(tx, "read_block", read_block_f64_ref)
    wide = _run_pipeline(tmp_path / "f64")
    assert sorted(narrow) == sorted(wide)
    assert len(narrow) > 60
    for rel in sorted(narrow):
        assert narrow[rel] == wide[rel], rel


# ---------------------------------------------------------------------------
# Memory


def _embeddings(n, rows, dims, seed=0):
    rng = np.random.default_rng(seed)
    return [TextEmbedding(f"u{i:03d}", rng.normal(size=(rows + i % 3, dims)).astype(np.float32))
            for i in range(n)]


def test_load_embeddings_holds_the_float32_payload(tmp_path):
    path = str(tmp_path / "emb.bin")
    embs = _embeddings(40, 20, 256)
    tx.write_embeddings(path, embs)
    payload = sum(4 * e.matrix.size for e in embs)
    loaded, peak = traced_peak(lambda: tx.load_embeddings(path))
    assert peak <= 1.1 * payload, peak / payload
    for got, want in zip(loaded, embs):
        assert got.matrix.dtype == np.float32 and not got.matrix.flags.writeable
        _assert_same(got.matrix, want.matrix)


def test_load_embeddings_holds_its_distinct_rows_and_one_stage(tmp_path):
    # 400 blocks of 24 rows drawn from 30 distinct rows: the load interns its
    # blocks as it reads them, so it holds the 30 rows and one stage of
    # blocks, never a buffer of every row it reads
    rng = np.random.default_rng(4)
    pool = rng.normal(size=(30, 768)).astype(np.float32)
    path = str(tmp_path / "emb.bin")
    tx.write_embeddings(path, (TextEmbedding(f"u{i:03d}", pool[rng.integers(0, 30, 24)])
                               for i in range(400)))
    payload = 4 * 400 * 24 * 768
    loaded, peak = traced_peak(lambda: tx.load_embeddings(path))
    assert peak < payload / 4, peak / payload
    assert len(loaded) == 400 and len(loaded[0].table) <= 30


def test_load_features_holds_the_float32_payload(tmp_path):
    rng = np.random.default_rng(1)
    entries, payload = [], 0
    for i in range(40):
        values = rng.normal(size=(120 + i % 5, 64))
        dsp.write_features(str(tmp_path / f"u{i:03d}.atfx"), FeatureMatrix(values))
        entries.append(ProtocolEntry(f"u{i:03d}", f"wav/u{i:03d}.wav", "bonafide", "g", "dev"))
        payload += 4 * values.size
    feats, peak = traced_peak(lambda: cli._load_features(str(tmp_path), entries))
    assert peak <= 1.1 * payload, peak / payload
    for feat in feats.values():
        assert feat.values.dtype == np.float32 and not feat.values.flags.writeable


# what ``embed`` may hold at its peak, as a multiple of the float32 matrices it
# writes: the matrices, the token-vector cache and one caption's float64 rows
EMBED_PEAK_RATIO = 1.4


def test_embed_holds_narrowed_matrices(tmp_path):
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(60)]
    with open(tmp_path / "captions.jsonl", "w") as fh:
        for i in range(80):
            caps = {style: " ".join(rng.choice(words, size=8)) for style in tx.STYLES}
            fh.write(json.dumps({"utt_id": f"u{i:03d}", "captions": caps}) + "\n")
    out = tmp_path / "emb.bin"
    tx._token_vector.cache_clear()
    code, peak = traced_peak(lambda: cli.main(
        ["embed", "--corpus", str(tmp_path), "--out", str(out), "--dim", "256"]))
    assert code == 0
    payload = os.path.getsize(out)
    assert peak <= EMBED_PEAK_RATIO * payload, peak / payload


def test_embed_streams_its_blocks(tmp_path):
    # each caption's matrix is written as it is made and then dropped, so
    # the peak stays well under the float32 matrices of all the captions
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(60)]
    with open(tmp_path / "captions.jsonl", "w") as fh:
        for i in range(300):
            caps = {style: " ".join(rng.choice(words, size=8)) for style in tx.STYLES}
            fh.write(json.dumps({"utt_id": f"u{i:03d}", "captions": caps}) + "\n")
    out = tmp_path / "emb.bin"
    tx._token_vector.cache_clear()
    code, peak = traced_peak(lambda: cli.main(
        ["embed", "--corpus", str(tmp_path), "--out", str(out), "--dim", "256"]))
    assert code == 0
    payload = os.path.getsize(out)
    assert peak < payload / 4, peak / payload
