"""End-to-end acceptance checks, one test per deliverable criterion.

Each test carries an ``acceptance`` marker; the conftest hook prints one
PASS/FAIL line per criterion at the end of the run.  Tolerances and
budgets are pinned here and must not be loosened to make a run green.
"""

import json
import os
import time

import numpy as np
import pytest

import atcadet.autodiff as ad
import atcadet.cli as cli
import atcadet.corpus as cp
import atcadet.dsp as dsp
import atcadet.ensemble as es
import atcadet.model as md
import atcadet.text as tx
import atcadet.training as tr
from atcadet.autodiff import Tape, Tensor
from atcadet.metrics import Trial, compute_eer, read_scores, write_scores
from atcadet.model import AtcaConfig, AtcaParams
from atcadet.protocol import filter_split, read_protocol
from atcadet.training import TrainConfig

from _oracles import (
    eer_bruteforce,
    fd_gradients,
    fit_linear_baseline,
    gru_scalar_oracle,
    gru_weights_from_params,
    rel_errors,
    ridge_gd_oracle,
    score_linear_baseline,
    simplex_bruteforce_oracle,
)

pytestmark = pytest.mark.filterwarnings("ignore:processing 8000 Hz")

SEEDS = (0, 1, 2)
HOP = 2048  # one 64-dim frame per 2048 samples keeps the GRU unrolls short

FD_CFG = AtcaConfig(d_spec=6, d_model=8, d_k=8, n_heads=1,
                    gru_layers=2, gru_hidden=8, d_text=8)
RUN_CFG = AtcaConfig(d_spec=64, d_model=16, d_k=16, n_heads=1,
                     gru_layers=2, gru_hidden=16, d_text=768)


def _train_cfg(seed: int) -> TrainConfig:
    return TrainConfig(epochs=50, batch_size=32, lr=1e-3, seed=seed, patience=10)


def _prepare_corpus(corpus_cfg, out_dir):
    """Build a corpus and return (entries, features, embeddings) for track 1."""
    cp.build_corpus(corpus_cfg, str(out_dir))
    entries = read_protocol(os.path.join(str(out_dir), "protocol_track1.tsv"))
    stft_cfg = dsp.StftConfig(hop=HOP)
    features = {}
    for e in entries:
        wave = dsp.load_wav(os.path.join(str(out_dir), e.wav_path))
        features[e.utt_id] = dsp.stft_logmel(wave, stft_cfg)
    captions = tx.load_captions(os.path.join(str(out_dir), "captions.jsonl"))
    embed_cfg = tx.ToyEmbedderConfig(dim=768, seed=0)
    embeddings = {cs.utt_id: tx.toy_embed(cs, embed_cfg) for cs in captions}
    return entries, features, embeddings


@pytest.fixture(scope="module")
def fd_sweep():
    """Tape gradients vs central differences over every learnable scalar."""
    t0 = time.perf_counter()
    params = AtcaParams.init(FD_CFG, seed=7)
    rng = np.random.default_rng(3)
    params.buffers["norm_mu"][:] = rng.normal(size=(1, FD_CFG.d_spec)) * 0.3
    params.buffers["norm_sigma"][:] = rng.uniform(0.5, 2.0, size=(1, FD_CFG.d_spec))
    specs = [rng.normal(size=(4, FD_CFG.d_spec)) for _ in range(2)]
    texts = [rng.normal(size=(3, FD_CFG.d_text)) for _ in range(2)]
    labels = np.array([0, 1])
    weights = (1.0, 1.5)
    tensors = list(params.tensors.values())

    def loss_value():
        logits = md.forward_batch(specs, [None, None], texts, params)
        return float(ad.weighted_ce_logits(logits, labels, weights).values)

    with Tape() as tape:
        logits = md.forward_batch(specs, [None, None], texts, params)
        loss = ad.weighted_ce_logits(logits, labels, weights)
    grads = ad.backward(tape, loss)
    numeric, probes = fd_gradients(loss_value, tensors)
    worst = max(
        float(rel_errors(grads[t], g).max()) for t, g in zip(tensors, numeric)
    )
    return {"worst": worst, "probes": probes, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """Track-1 training on the stock corpus, three seeds."""
    t0 = time.perf_counter()
    out = tmp_path_factory.mktemp("stock_corpus")
    entries, features, embeddings = _prepare_corpus(cp.CorpusConfig(), out)
    eval_entries = filter_split(entries, "eval")
    eers = {}
    for seed in SEEDS:
        params, _ = tr.train(entries, features, embeddings, _train_cfg(seed), RUN_CFG)
        trials = tr.score_protocol(params, eval_entries, features, embeddings)
        eers[seed] = compute_eer(trials).eer
    return {"eers": eers, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def hinted_runs(tmp_path_factory):
    """Weak-artifact corpus whose captions carry generator-correlated words.

    Used by the text-ablation and stacking criteria: the acoustic trace is
    deliberately faint (strength 0.35) so the caption channel matters.
    """
    out = tmp_path_factory.mktemp("hinted_corpus")
    corpus_cfg = cp.CorpusConfig(artifact_strength=0.35, caption_generator_hints=True)
    entries, features, embeddings = _prepare_corpus(corpus_cfg, out)
    dev_entries = filter_split(entries, "dev")
    eval_entries = filter_split(entries, "eval")
    baseline = fit_linear_baseline(filter_split(entries, "train"), features)
    runs = {}
    for seed in SEEDS:
        params, _ = tr.train(entries, features, embeddings, _train_cfg(seed), RUN_CFG)
        runs[seed] = {
            "full_dev": tr.score_protocol(params, dev_entries, features, embeddings),
            "full_eval": tr.score_protocol(params, eval_entries, features, embeddings),
            "abl_dev": tr.ablate_text(params, dev_entries, features),
            "abl_eval": tr.ablate_text(params, eval_entries, features),
        }
    return {
        "runs": runs,
        "base_dev": score_linear_baseline(baseline, dev_entries, features),
        "base_eval": score_linear_baseline(baseline, eval_entries, features),
        "dev_entries": dev_entries,
        "eval_entries": eval_entries,
        "embeddings": embeddings,
    }


@pytest.mark.acceptance(1, "tape gradients match finite differences")
def test_c01_gradient_check(fd_sweep):
    assert fd_sweep["worst"] < 1e-4
    assert fd_sweep["elapsed"] < 60.0


@pytest.mark.acceptance(2, "EER matches an exhaustive threshold sweep")
def test_c02_eer_bruteforce():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    sizes = [2, 3, 4, 5] + [int(v) for v in rng.integers(6, 1001, size=196)]
    for size in sizes:
        n_bona = int(rng.integers(1, size))
        n_spoof = size - n_bona
        if rng.random() < 0.5:
            # coarse integer grids force plenty of ties, within and across classes
            levels = int(rng.integers(2, 12))
            bona = rng.integers(0, levels, size=n_bona).astype(float)
            spoof = rng.integers(0, levels, size=n_spoof).astype(float)
        else:
            bona = rng.normal(loc=0.5, size=n_bona)
            spoof = rng.normal(loc=-0.5, size=n_spoof)
        trials = [Trial(f"b{i}", float(v), "bonafide") for i, v in enumerate(bona)]
        trials += [Trial(f"s{i}", float(v), "spoof") for i, v in enumerate(spoof)]
        got = compute_eer(trials).eer
        want = eer_bruteforce(bona, spoof)
        assert abs(got - want) <= 1e-12, (size, got, want)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.acceptance(3, "attention invariants hold on random configs")
def test_c03_attention_invariants():
    rng = np.random.default_rng(30)
    for _ in range(100):
        d_k = int(rng.integers(1, 7))
        n_heads = int(rng.integers(1, 5))
        cfg = AtcaConfig(d_spec=3, d_model=d_k * n_heads, d_k=d_k, n_heads=n_heads,
                         gru_layers=1, gru_hidden=2, d_text=int(rng.integers(1, 11)))
        params = AtcaParams.init(cfg, seed=int(rng.integers(0, 2**31)))
        t_frames = int(rng.integers(1, 9))
        l_rows = int(rng.integers(1, 7))
        acoustic = Tensor(rng.normal(size=(t_frames, cfg.d_model)))
        text = rng.normal(size=(l_rows, cfg.d_text))

        out, internals = md.cross_attention(acoustic, text, params, return_internals=True)
        for att in internals["attention_weights"]:
            assert att.shape == (t_frames, l_rows)
            assert np.all(att >= 0.0)
            np.testing.assert_allclose(att.sum(axis=1), 1.0, rtol=0, atol=1e-9)

        # permuting Keys and Values together must not change the output
        perm = rng.permutation(l_rows)
        out_perm = md.cross_attention(acoustic, text[perm], params)
        np.testing.assert_allclose(out_perm.values, out.values, rtol=0, atol=1e-9)

        # a single text row collapses the softmax: the row passes through
        out_one, internals_one = md.cross_attention(
            acoustic, text[:1], params, return_internals=True)
        for att in internals_one["attention_weights"]:
            np.testing.assert_allclose(att, 1.0, rtol=0, atol=1e-12)
        v_row = text[:1] @ params["Wv"].values
        expected = acoustic.values + v_row @ params["Wo"].values
        np.testing.assert_allclose(out_one.values, expected, rtol=0, atol=1e-12)


@pytest.mark.acceptance(4, "GRU fixed point, boundedness, scalar oracle")
def test_c04_gru_invariants():
    rng = np.random.default_rng(40)
    cfg = AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1,
                     gru_layers=2, gru_hidden=3, d_text=4)

    # all-zero recurrence weights keep the zero state fixed for any input
    params = AtcaParams.init(cfg, seed=1)
    for name, t in params.tensors.items():
        if name.startswith("gru"):
            t.values[:] = 0.0
    loud = Tensor(rng.normal(size=(6, cfg.d_model)) * 5.0)
    np.testing.assert_array_equal(
        md.gru_stack(loud, params).values, np.zeros((1, cfg.gru_hidden)))

    # states stay inside [-1, 1]: 100 parameter draws, 50 steps each
    for _ in range(100):
        p = AtcaParams.init(cfg, seed=int(rng.integers(0, 2**31)))
        scale = rng.uniform(0.5, 6.0)
        for name, t in p.tensors.items():
            if name.startswith("gru"):
                t.values[:] *= scale
        x = Tensor(rng.normal(size=(50, cfg.d_model)) * 3.0)
        h0 = rng.uniform(-1.0, 1.0, size=(1, cfg.gru_hidden))
        final, states = md.gru_stack(x, p, h0=h0, return_states=True)
        for layer_states in states:
            assert np.max(np.abs(layer_states)) <= 1.0 + 1e-12
        assert np.max(np.abs(final.values)) <= 1.0 + 1e-12

    # exact agreement with a pure-Python recurrence
    p = AtcaParams.init(cfg, seed=9)
    x_rows = rng.normal(size=(5, cfg.d_model))
    final, states = md.gru_stack(Tensor(x_rows), p, return_states=True)
    oracle = gru_scalar_oracle(
        [gru_weights_from_params(p, layer) for layer in range(cfg.gru_layers)],
        x_rows.tolist(),
    )
    for layer in range(cfg.gru_layers):
        np.testing.assert_allclose(
            states[layer], np.array(oracle[layer]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        final.values[0], np.array(oracle[-1][-1]), rtol=0, atol=1e-12)


@pytest.mark.acceptance(5, "stock corpus trains to low eval EER on track 1")
def test_c05_track1_low_eer(default_runs):
    eers = default_runs["eers"]
    assert default_runs["elapsed"] < 1200.0
    assert sum(eer <= 0.05 for eer in eers.values()) >= 2, eers


@pytest.mark.acceptance(6, "caption hints beat the text-ablated model")
def test_c06_text_branch_helps(hinted_runs):
    full, ablated = {}, {}
    for seed in SEEDS:
        full[seed] = compute_eer(hinted_runs["runs"][seed]["full_eval"]).eer
        ablated[seed] = compute_eer(hinted_runs["runs"][seed]["abl_eval"]).eer
    for seed in SEEDS:
        assert full[seed] <= ablated[seed] + 0.005 + 1e-12, (seed, full, ablated)
    assert sum(full[seed] < ablated[seed] for seed in SEEDS) >= 2, (full, ablated)


@pytest.mark.acceptance(7, "stacked ensemble never trails the best base")
def test_c07_stack_matches_best_base(hinted_runs):
    embeddings = hinted_runs["embeddings"]
    dev_entries = hinted_runs["dev_entries"]
    eval_entries = hinted_runs["eval_entries"]
    base_eval_eer = compute_eer(hinted_runs["base_eval"]).eer
    for seed in SEEDS:
        run = hinted_runs["runs"][seed]
        base_eers = [
            compute_eer(run["full_eval"]).eer,
            compute_eer(run["abl_eval"]).eer,
            base_eval_eer,
        ]
        dev_sets = [run["full_dev"], run["abl_dev"], hinted_runs["base_dev"]]
        stack_cfg = es.StackConfig(seed=seed, forest_trees=50, gbm_rounds=50)
        model = es.fit_stacked(*es.build_meta_examples(dev_sets, embeddings, dev_entries),
                               folds=5, cfg=stack_cfg)
        eval_sets = [run["full_eval"], run["abl_eval"], hinted_runs["base_eval"]]
        x, _ = es.build_meta_examples(eval_sets, embeddings, eval_entries)
        preds = es.predict_stacked(model, x)
        stacked = [Trial(e.utt_id, float(p), e.label)
                   for e, p in zip(eval_entries, preds)]
        stacked_eer = compute_eer(stacked).eer
        assert stacked_eer <= min(base_eers) + 0.01 + 1e-12, (seed, stacked_eer, base_eers)


@pytest.mark.acceptance(8, "ensemble components match independent oracles")
def test_c08_component_oracles():
    rng = np.random.default_rng(80)

    # ridge closed form vs plain gradient descent
    x = rng.normal(size=(40, 5))
    y = x @ rng.normal(size=5) + 0.3 + rng.normal(size=40) * 0.05
    for lam in (0.0, 0.7, 5.0):
        model = es.fit_ridge(x, y, lam=lam)
        w, b = ridge_gd_oracle(x, y, lam)
        np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-6)
        assert abs(model.intercept - b) <= 1e-6

    # every boosting round lowers (never raises) the training MSE
    x = rng.normal(size=(60, 4))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + rng.normal(size=60) * 0.1
    gbm = es.fit_gbm(x, y, rounds=30, depth=2, shrinkage=0.5)
    preds = np.full(60, gbm.init)
    prev = float(np.mean((y - preds) ** 2))
    for tree in gbm.trees:
        preds = preds + gbm.shrinkage * es.predict_tree(tree, x)
        mse = float(np.mean((y - preds) ** 2))
        assert mse <= prev + 1e-12
        prev = mse

    # a one-tree, full-feature, no-bootstrap forest is exactly one tree
    forest = es.fit_forest(x, y, n_trees=1, max_depth=4, feature_frac=1.0,
                           seed=5, bootstrap=False)
    single = es.fit_tree(x, y, max_depth=4)
    probe = rng.normal(size=(25, 4))
    np.testing.assert_array_equal(
        es.predict_forest(forest, probe), es.predict_tree(single, probe))

    # simplex grid search equals the brute-force sweep, ties included
    for trial in range(30):
        n = int(rng.integers(3, 40))
        preds3 = rng.normal(size=(n, 3))
        targets = rng.integers(0, 2, size=n).astype(float)
        step = 0.05 if trial % 2 == 0 else 0.1
        got = es.choose_combine_weights(preds3, targets, step=step)
        want = simplex_bruteforce_oracle(preds3.tolist(), targets.tolist(), step=step)
        assert tuple(got) == tuple(want)


def _hand_count(cfg: AtcaConfig) -> int:
    """Closed-form learnable scalar count, written out independently."""
    total = cfg.d_spec * cfg.d_model + cfg.d_model
    total += cfg.d_model * cfg.d_model          # Wq
    total += 2 * cfg.d_text * cfg.d_model       # Wk, Wv
    total += cfg.d_model * cfg.d_model          # Wo
    d_in = cfg.d_model
    for _ in range(cfg.gru_layers):
        total += 3 * (d_in * cfg.gru_hidden + cfg.gru_hidden * cfg.gru_hidden
                      + cfg.gru_hidden)
        d_in = cfg.gru_hidden
    total += cfg.gru_hidden * 2 + 2
    return total


@pytest.mark.acceptance(9, "parameter count matches hand enumeration and FD probes")
def test_c09_param_count(fd_sweep):
    cfg202 = AtcaConfig(d_spec=4, d_model=4, d_k=4, n_heads=1,
                        gru_layers=1, gru_hidden=4, d_text=4)
    assert _hand_count(cfg202) == 202
    assert md.count_params_for(cfg202) == 202
    assert md.count_params(AtcaParams.init(cfg202, seed=0)) == 202

    tested = [
        cfg202,
        FD_CFG,
        RUN_CFG,
        AtcaConfig(),
        AtcaConfig(d_spec=5, d_model=6, d_k=3, n_heads=2,
                   gru_layers=3, gru_hidden=4, d_text=7),
    ]
    for cfg in tested:
        assert md.count_params_for(cfg) == _hand_count(cfg), cfg
        assert md.count_params(AtcaParams.init(cfg, seed=1)) == _hand_count(cfg)

    # the FD sweep perturbed every learnable scalar exactly once
    assert fd_sweep["probes"] == md.count_params_for(FD_CFG)


@pytest.mark.acceptance(10, "all on-disk formats round-trip byte-identically")
def test_c10_format_round_trips(tmp_path):
    rng = np.random.default_rng(100)

    for i in range(5):
        n = int(rng.integers(50, 4000))
        samples = rng.integers(-32768, 32768, size=n) / 32768.0
        wave = dsp.Waveform(samples, int(rng.choice([8000, 16000, 44100])))
        first = tmp_path / f"w{i}a.wav"
        second = tmp_path / f"w{i}b.wav"
        dsp.write_wav(str(first), wave)
        dsp.write_wav(str(second), dsp.load_wav(str(first)))
        assert first.read_bytes() == second.read_bytes()

    for i in range(5):
        shape = (int(rng.integers(1, 20)), int(rng.integers(1, 20)))
        feat = dsp.FeatureMatrix(rng.normal(size=shape))
        first = tmp_path / f"f{i}a.atfx"
        second = tmp_path / f"f{i}b.atfx"
        dsp.write_features(str(first), feat)
        dsp.write_features(str(second), dsp.load_external_features(str(first)))
        assert first.read_bytes() == second.read_bytes()

    checkpoint_cfgs = [
        AtcaConfig(d_spec=3, d_model=4, d_k=2, n_heads=2,
                   gru_layers=2, gru_hidden=3, d_text=5),
        AtcaConfig(d_spec=4, d_model=4, d_k=4, n_heads=1, gru_layers=1,
                   gru_hidden=4, d_text=4, class_weights=(0.5, 1.5)),
    ]
    for i, cfg in enumerate(checkpoint_cfgs):
        params = AtcaParams.init(cfg, seed=i)
        params.buffers["norm_mu"][:] = rng.normal(size=params.buffers["norm_mu"].shape)
        params.buffers["norm_sigma"][:] = rng.uniform(
            0.5, 2.0, size=params.buffers["norm_sigma"].shape)
        first = tmp_path / f"c{i}a.atck"
        second = tmp_path / f"c{i}b.atck"
        md.save_checkpoint(str(first), params)
        md.save_checkpoint(str(second), md.load_checkpoint(str(first)))
        assert first.read_bytes() == second.read_bytes()

    for i in range(3):
        # per row: three base scores, two text features, a target
        rows = np.array([[*rng.normal(size=3), *rng.normal(size=2), rng.integers(0, 2)]
                         for _ in range(24)])
        model = es.fit_stacked(rows[:, :5], rows[:, 5], folds=3,
                               cfg=es.StackConfig(gbm_rounds=5, forest_trees=3, seed=i))
        first = tmp_path / f"e{i}a.aten"
        second = tmp_path / f"e{i}b.aten"
        es.save_ensemble(str(first), model)
        es.save_ensemble(str(second), es.load_ensemble(str(first)))
        assert first.read_bytes() == second.read_bytes()

    for i in range(5):
        trials = [Trial(f"u{j:03d}", float(rng.normal() * 10))
                  for j in range(int(rng.integers(1, 50)))]
        first = tmp_path / f"s{i}a.tsv"
        second = tmp_path / f"s{i}b.tsv"
        write_scores(str(first), trials)
        write_scores(str(second), read_scores(str(first)))
        assert first.read_bytes() == second.read_bytes()


def _run_cli_pipeline(root, config_path):
    corpus_dir = root / "corpus"
    protocol = str(corpus_dir / "protocol_track1.tsv")
    stages = [
        ["corpus", "synth", "--config", str(config_path), "--out", str(corpus_dir)],
        ["featurize", "--corpus", str(corpus_dir), "--out", str(root / "feats"),
         "--n-fft", "512", "--hop", "512", "--n-mels", "16"],
        ["embed", "--corpus", str(corpus_dir), "--out", str(root / "emb.bin"),
         "--dim", "32", "--seed", "0"],
        ["train", "--corpus", str(corpus_dir), "--features", str(root / "feats"),
         "--embeddings", str(root / "emb.bin"), "--track", "1",
         "--config", str(config_path), "--out-ckpt", str(root / "model.atck"),
         "--out-report", str(root / "report.json")],
        ["score", "--ckpt", str(root / "model.atck"), "--protocol", protocol,
         "--features", str(root / "feats"), "--embeddings", str(root / "emb.bin"),
         "--split", "dev", "--out", str(root / "dev.tsv")],
        ["score", "--ckpt", str(root / "model.atck"), "--protocol", protocol,
         "--features", str(root / "feats"), "--split", "dev", "--ablate-text",
         "--out", str(root / "dev_abl.tsv")],
        ["score", "--ckpt", str(root / "model.atck"), "--protocol", protocol,
         "--features", str(root / "feats"), "--embeddings", str(root / "emb.bin"),
         "--split", "eval", "--out", str(root / "eval.tsv")],
        ["score", "--ckpt", str(root / "model.atck"), "--protocol", protocol,
         "--features", str(root / "feats"), "--split", "eval", "--ablate-text",
         "--out", str(root / "eval_abl.tsv")],
        ["ensemble", "fit", "--scores", f"{root / 'dev.tsv'},{root / 'dev_abl.tsv'}",
         "--embeddings", str(root / "emb.bin"), "--protocol", protocol,
         "--split", "dev", "--folds", "3", "--seed", "0",
         "--out", str(root / "stack.aten")],
        ["ensemble", "score", "--model", str(root / "stack.aten"),
         "--scores", f"{root / 'eval.tsv'},{root / 'eval_abl.tsv'}",
         "--embeddings", str(root / "emb.bin"), "--protocol", protocol,
         "--split", "eval", "--out", str(root / "ens.tsv")],
        ["eer", "--scores", str(root / "ens.tsv"), "--protocol", protocol],
    ]
    for argv in stages:
        assert cli.main(argv) == 0, argv


def _tree_bytes(root) -> dict:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


@pytest.mark.acceptance(11, "two identical CLI runs produce identical trees")
def test_c11_cli_pipeline_deterministic(tmp_path):
    cfg = {
        "corpus": {"n_clips": 30, "duration_s": 0.5, "sample_rate": 8000, "seed": 5},
        "train": {"epochs": 3, "batch_size": 8, "lr": 1e-3, "seed": 0, "patience": 5},
        "model": {"d_model": 8, "d_k": 8, "n_heads": 1, "gru_layers": 1, "gru_hidden": 8},
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(cfg))
    trees = []
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        _run_cli_pipeline(root, config_path)
        trees.append(_tree_bytes(root))
    first, second = trees
    assert set(first) == set(second)
    for rel in sorted(first):
        if rel.endswith("report.json"):
            # wall-clock time is the one legitimately run-dependent field
            lhs = json.loads(first[rel])
            rhs = json.loads(second[rel])
            lhs.pop("wall_seconds")
            rhs.pop("wall_seconds")
            assert lhs == rhs, rel
        else:
            assert first[rel] == second[rel], rel
