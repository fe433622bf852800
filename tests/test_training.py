import dataclasses
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from atcadet import autodiff as ad
from atcadet import cli
from atcadet import model as md
from atcadet import training as tr
from atcadet.dsp import FeatureMatrix
from atcadet.errors import BadConfig, EmptySplit, MissingEmbedding, MissingFeature, NonFinite
from atcadet.metrics import compute_eer
from atcadet.protocol import ProtocolEntry
from atcadet.text import TextEmbedding

from _oracles import fit_linear_baseline, logmel_stats, score_linear_baseline, traced_peak

TOY_CFG = md.AtcaConfig(
    d_spec=4, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=4, d_text=8
)


def _toy_data(n_train=8, n_dev=4, seed=0, t_frames=3):
    """Linearly separable toy set: bonafide features sit at +1, spoof at -1."""
    rng = np.random.default_rng(seed)
    entries, features, embeddings = [], {}, {}
    for i in range(n_train + n_dev):
        split = "train" if i < n_train else "dev"
        label = "bonafide" if i % 2 == 0 else "spoof"
        mean = 1.0 if label == "bonafide" else -1.0
        utt = f"u{i}"
        entries.append(ProtocolEntry(utt, f"{utt}.wav", label, "g", split))
        features[utt] = mean + 0.1 * rng.normal(size=(t_frames, TOY_CFG.d_spec))
        embeddings[utt] = rng.normal(size=(2, TOY_CFG.d_text))
    return entries, features, embeddings


class TestTrainConfig:
    def test_defaults(self):
        cfg = tr.TrainConfig()
        assert cfg.lr == 1e-3 and cfg.grad_clip == 5.0

    def test_validation(self):
        with pytest.raises(BadConfig):
            tr.TrainConfig(epochs=0)
        with pytest.raises(BadConfig):
            tr.TrainConfig(lr=-0.1)
        with pytest.raises(BadConfig):
            tr.TrainConfig(adam_beta1=1.0)
        with pytest.raises(BadConfig):
            tr.TrainConfig(grad_clip=0.0)

    def test_zero_lr_allowed(self):
        assert tr.TrainConfig(lr=0.0).lr == 0.0

    def test_from_dict_unknown_key(self):
        with pytest.raises(BadConfig):
            cli._section_config(tr.TrainConfig, {"epochs": 3, "momentum": 0.9})


class TestClassWeights:
    def test_inverse_frequency_hand_case(self):
        entries = [
            ProtocolEntry(f"u{i}", "w", "bonafide", "g", "train") for i in range(3)
        ] + [ProtocolEntry("u3", "w", "spoof", "g", "train")]
        w = tr.inverse_frequency_weights(entries)
        assert w == pytest.approx((0.5, 1.5))
        assert (w[0] + w[1]) / 2 == pytest.approx(1.0)

    def test_balanced_gives_unit_weights(self):
        entries = [
            ProtocolEntry("u0", "w", "bonafide", "g", "train"),
            ProtocolEntry("u1", "w", "spoof", "g", "train"),
        ]
        assert tr.inverse_frequency_weights(entries) == pytest.approx((1.0, 1.0))

    def test_one_class_only(self):
        entries = [ProtocolEntry("u0", "w", "spoof", "g", "train")]
        with pytest.raises(EmptySplit):
            tr.inverse_frequency_weights(entries)


class TestTrain:
    def test_zero_lr_leaves_parameters_untouched(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=5, lr=0.0, seed=3, patience=10)
        params, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        fresh = md.AtcaParams.init(params.config, seed=cfg.seed)
        for name, tensor in params.tensors.items():
            assert np.array_equal(tensor.values, fresh[name].values), name
        assert len(set(report.val_eer)) == 1

    def test_overfits_separable_toy_set(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=200, batch_size=8, lr=3e-2, seed=0, patience=200)
        params, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        assert min(report.train_loss) < 1e-2
        assert len(report.train_loss) <= 200

    def test_same_seed_reproduces_report_and_params(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=6, seed=11, patience=6)
        p1, r1 = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        p2, r2 = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        assert r1.train_loss == r2.train_loss
        assert r1.val_eer == r2.val_eer
        assert r1.best_epoch == r2.best_epoch
        for (n1, a1), (n2, a2) in zip(p1.named_arrays(), p2.named_arrays()):
            assert n1 == n2 and np.array_equal(a1, a2)

    def test_best_epoch_tracks_lowest_dev_eer(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=10, seed=2, patience=10)
        params, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        assert report.val_eer[report.best_epoch] == min(report.val_eer)
        dev = [e for e in entries if e.split == "dev"]
        trials = tr.score_protocol(params, dev, features, embeddings)
        assert compute_eer(trials).eer == pytest.approx(report.val_eer[report.best_epoch], abs=1e-12)

    def test_patience_stops_early(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=50, lr=0.0, seed=1, patience=2)
        _, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        # epoch 0 sets the best; two non-improving epochs then stop
        assert len(report.val_eer) == 3

    def test_class_weights_derived_from_train_split(self):
        entries, features, embeddings = _toy_data()
        # drop one spoof train utterance: 4 bona vs 3 spoof
        entries = [e for e in entries if e.utt_id != "u1"]
        cfg = tr.TrainConfig(epochs=1, seed=0)
        params, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        inv = np.array([1 / 4, 1 / 3])
        expect = tuple(inv / inv.mean())
        assert report.class_weights == pytest.approx(expect)
        assert params.config.class_weights == pytest.approx(expect)

    def test_manual_class_weights_respected(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=1, seed=0, auto_class_weights=False)
        model_cfg = md.AtcaConfig(
            d_spec=4, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=4,
            d_text=8, class_weights=(2.0, 0.5),
        )
        params, report = tr.train(entries, features, embeddings, cfg, model_cfg)
        assert report.class_weights == (2.0, 0.5)

    def test_normalizer_buffers_match_train_stats(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=1, lr=0.0, seed=0)
        params, _ = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        train_ids = [e.utt_id for e in entries if e.split == "train"]
        stacked = np.concatenate([features[u] for u in train_ids], axis=0)
        assert np.allclose(params.buffers["norm_mu"], stacked.mean(axis=0), atol=0)
        assert np.allclose(
            params.buffers["norm_sigma"], np.maximum(stacked.std(axis=0), 1e-6), atol=0
        )

    def test_missing_feature_and_embedding(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=1)
        broken = dict(features)
        del broken["u0"]
        with pytest.raises(MissingFeature):
            tr.train(entries, broken, embeddings, cfg, TOY_CFG)
        broken_e = dict(embeddings)
        del broken_e["u2"]
        with pytest.raises(MissingEmbedding):
            tr.train(entries, features, broken_e, cfg, TOY_CFG)

    def test_empty_splits(self):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=1)
        train_only = [e for e in entries if e.split == "train"]
        with pytest.raises(EmptySplit):
            tr.train(train_only, features, embeddings, cfg, TOY_CFG)
        dev_only = [e for e in entries if e.split == "dev"]
        with pytest.raises(EmptySplit):
            tr.train(dev_only, features, embeddings, cfg, TOY_CFG)

    def test_wall_seconds_positive_and_report_round_trip(self, tmp_path):
        entries, features, embeddings = _toy_data()
        cfg = tr.TrainConfig(epochs=2, seed=0, patience=2)
        _, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        assert report.wall_seconds > 0
        path = tmp_path / "report.json"
        tr.write_report(path, report)
        again = tr.load_report(path)
        assert again.to_dict() == report.to_dict()


class TestLossSmoothness:
    def test_full_batch_gd_non_increasing_first_steps(self):
        # plain gradient descent with a small step on a fixed batch
        entries, features, embeddings = _toy_data()
        train_e = [e for e in entries if e.split == "train"]
        params = md.AtcaParams.init(TOY_CFG, seed=4)
        specs = [features[e.utt_id] for e in train_e]
        texts = [embeddings[e.utt_id] for e in train_e]
        labels = np.array([0 if e.label == "bonafide" else 1 for e in train_e])
        weights = np.array([1.0, 1.0])
        prev = np.inf
        for _ in range(10):
            with ad.Tape() as tape:
                logits = md.forward_batch(specs, [None] * len(specs), texts, params)
                loss = ad.weighted_ce_logits(logits, labels, weights)
            assert loss.item() <= prev + 1e-12
            prev = loss.item()
            grad_map = ad.backward(tape, loss)
            for name, tensor in params.tensors.items():
                tensor.values = tensor.values - 1e-3 * grad_map[tensor]


@pytest.fixture(scope="module")
def trained():
    entries, features, embeddings = _toy_data()
    cfg = tr.TrainConfig(epochs=5, seed=0, patience=5)
    params, _ = tr.train(entries, features, embeddings, cfg, TOY_CFG)
    return params, entries, features, embeddings


class TestScoreProtocol:
    def test_empty_protocol(self, trained):
        params, _, features, embeddings = trained
        assert tr.score_protocol(params, [], features, embeddings) == []

    def test_row_count_and_order(self, trained):
        params, entries, features, embeddings = trained
        trials = tr.score_protocol(params, entries, features, embeddings)
        assert [t.utt_id for t in trials] == [e.utt_id for e in entries]
        assert all(t.label == e.label for t, e in zip(trials, entries))

    def test_scoring_twice_identical(self, trained):
        params, entries, features, embeddings = trained
        a = tr.score_protocol(params, entries, features, embeddings)
        b = tr.score_protocol(params, entries, features, embeddings)
        assert [t.score for t in a] == [t.score for t in b]

    def test_batched_matches_single(self, trained):
        params, entries, features, embeddings = trained
        batched = tr.score_protocol(params, entries, features, embeddings)
        for e, t in zip(entries, batched):
            single = tr.score_protocol(params, [e], features, embeddings)[0]
            assert single.score == pytest.approx(t.score, abs=1e-12)

    def test_checkpoint_round_trip_scores(self, trained, tmp_path):
        params, entries, features, embeddings = trained
        path = tmp_path / "model.atck"
        md.save_checkpoint(path, params)
        clone = md.load_checkpoint(path)
        a = tr.score_protocol(params, entries, features, embeddings)
        b = tr.score_protocol(clone, entries, features, embeddings)
        assert [t.score for t in a] == [t.score for t in b]

    def test_missing_feature(self, trained):
        params, entries, features, embeddings = trained
        with pytest.raises(MissingFeature):
            tr.score_protocol(params, entries, {}, embeddings)

    def test_a_150_clip_split_scores_as_one_batch(self, monkeypatch):
        params = md.AtcaParams.init(md.AtcaConfig(), seed=8)
        rng = np.random.default_rng(9)
        entries, features, embeddings = [], {}, {}
        for i in range(150):
            utt = f"u{i:03d}"
            entries.append(ProtocolEntry(utt, f"{utt}.wav", ("bonafide", "spoof")[i % 2], "g", "eval"))
            features[utt] = FeatureMatrix(rng.normal(size=(43, 64)).astype(np.float32))
            embeddings[utt] = TextEmbedding(utt, rng.normal(size=(4 + i % 5, 768)).astype(np.float32), ())
        widths, forward = [], md.forward_batch

        def spy(specs, *args):
            widths.append(len(specs))
            return forward(specs, *args)

        monkeypatch.setattr(md, "forward_batch", spy)
        whole = tr.score_protocol(params, entries, features, embeddings)
        assert widths == [150]
        pieces = [t for k in range(0, 150, 64)
                  for t in tr.score_protocol(params, entries[k : k + 64], features, embeddings)]
        assert widths == [150, 64, 64, 22]
        assert np.array([t.score for t in whole]).tobytes() == np.array([t.score for t in pieces]).tobytes()


def _validate_every_step(monkeypatch):
    """Make the model check its inputs as it did on every step: each
    standardized spectrogram and caption matrix through a validating Tensor."""
    spec_input, text_input = md._spec_input, md._text_input
    monkeypatch.setattr(md, "_spec_input", lambda spec, raw, params: ad.Tensor(spec_input(spec, raw, params)).values)
    monkeypatch.setattr(md, "_text_input", lambda text, cfg: ad.Tensor(text_input(text, cfg)).values)


class TestInputsCheckedOncePerCall:
    """``train`` and ``score_protocol`` check their inputs once per call;
    the model's ops no longer check them on every step."""

    def _run(self, tmp_path, name):
        entries, features, embeddings = _toy_data(n_train=10, n_dev=6, seed=2, t_frames=4)
        cfg = tr.TrainConfig(epochs=3, batch_size=4, seed=1, patience=3)
        params, report = tr.train(entries, features, embeddings, cfg, TOY_CFG)
        md.save_checkpoint(tmp_path / name, params)
        scores = [t.score for t in tr.score_protocol(params, entries, features, embeddings)]
        specs = [features[e.utt_id] for e in entries[:4]]
        texts = [embeddings[e.utt_id] for e in entries[:4]]
        with ad.Tape() as tape:
            logits = md.forward_batch(specs, [None] * 4, texts, params)
            loss = ad.weighted_ce_logits(logits, np.array([0, 1, 0, 1]), np.ones(2))
        grads = ad.backward(tape, loss)
        return ((tmp_path / name).read_bytes(), report.train_loss, report.val_eer, scores,
                logits.values, [grads[t] for t in params.tensors.values()])

    def test_same_bits_as_checking_every_step(self, tmp_path, monkeypatch):
        now = self._run(tmp_path, "now.atck")
        _validate_every_step(monkeypatch)
        before = self._run(tmp_path, "before.atck")
        assert now[:4] == before[:4]
        assert np.array_equal(now[4], before[4])
        for a, b in zip(now[5], before[5], strict=True):
            assert np.array_equal(a, b)

    def test_one_check_per_call(self, monkeypatch):
        entries, features, embeddings = _toy_data()
        calls = []
        check = md.check_inputs

        def counted(specs, texts, params):
            calls.append(len(specs))
            check(specs, texts, params)

        monkeypatch.setattr(md, "check_inputs", counted)
        tr.train(entries, features, embeddings, tr.TrainConfig(epochs=3, seed=0, patience=3), TOY_CFG)
        assert calls == [8, 4, 4, 4]  # the train split, then dev once per epoch

    @pytest.mark.parametrize("where", ["spec", "text"])
    def test_non_finite_input_fails_before_the_first_step(self, where, monkeypatch):
        entries, features, embeddings = _toy_data()
        (features if where == "spec" else embeddings)["u1"][0, 0] = np.nan
        steps = []
        monkeypatch.setattr(md, "forward_batch", lambda *args: steps.append(args))
        with pytest.raises(NonFinite):
            tr.train(entries, features, embeddings, tr.TrainConfig(epochs=1), TOY_CFG)
        assert steps == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_scoring_rejects_a_non_finite_frame(self, value, trained):
        params, entries, features, embeddings = trained
        features = {**features, "u2": features["u2"].copy()}  # not the first sample
        features["u2"][1, 1] = value
        with pytest.raises(NonFinite, match="spectrogram"):
            tr.score_protocol(params, entries, features, embeddings)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_check_stays_exact_where_the_extremes_overflow(self):
        params = md.AtcaParams.init(TOY_CFG, seed=0)
        params.buffers["norm_sigma"][0, 1] = 1e-10
        spec = np.zeros((3, TOY_CFG.d_spec))
        spec[:, 0] = 1e300
        # the largest value overflows in column 1, which holds only zeros
        md.check_inputs([spec], [], params)
        spec[2, 1] = 1e300
        with pytest.raises(NonFinite):
            md.check_inputs([spec], [], params)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_scoring_checks_the_standardized_frames(self, trained):
        params, entries, features, embeddings = trained
        broken = params.copy()
        broken.buffers["norm_sigma"][0, 0] = 0.0
        with pytest.raises(NonFinite, match="spectrogram"):
            tr.score_protocol(broken, entries, features, embeddings)
        with pytest.raises(NonFinite, match="spectrogram"):
            tr.ablate_text(broken, entries, features)


# a float32 of magnitude 1e-20 to 1e20 and either sign
_WIDE_RANGE = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-20.0, 20.0)).map(
    lambda se: float(np.float32(se[0] * 10.0 ** se[1])))


class TestHeldMemory:
    """What ``train`` and ``score_protocol`` keep alive: no step's tape
    outlives the step, the normalizer fit holds one float64 copy of the
    train frames, and inference widens one caption at a time."""

    def test_no_tape_lives_while_dev_is_scored(self, monkeypatch):
        tapes, live = [], []
        init, score = ad.Tape.__init__, tr.score_protocol

        def spy_init(self):
            init(self)
            tapes.append(weakref.ref(self))

        def spy_score(*args, **kwargs):
            live.append(sum(ref() is not None for ref in tapes))
            return score(*args, **kwargs)

        monkeypatch.setattr(ad.Tape, "__init__", spy_init)
        monkeypatch.setattr(tr, "score_protocol", spy_score)
        entries, features, embeddings = _toy_data(n_train=24, n_dev=6)
        tr.train(entries, features, embeddings, tr.TrainConfig(epochs=3, batch_size=8, patience=3),
                 TOY_CFG)
        assert len(tapes) == 9
        assert live == [0, 0, 0]

    def test_normalizer_fit_holds_one_float64_stack(self):
        rng = np.random.default_rng(5)
        mats = [rng.normal(size=(100 + i % 7, 64)).astype(np.float32) for i in range(60)]
        params = md.AtcaParams.init(dataclasses.replace(TOY_CFG, d_spec=64), seed=0)
        stack = 8 * sum(m.size for m in mats)
        _, peak = traced_peak(lambda: tr._fit_normalizers(params, mats))
        assert peak <= 1.1 * stack, peak / stack

    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        hnp.arrays(np.float32, st.tuples(st.integers(1, 6), st.just(d)), elements=_WIDE_RANGE),
        min_size=1, max_size=4)))
    @settings(max_examples=200, deadline=None)
    def test_normalizer_fit_is_numpy_std(self, mats):
        params = md.AtcaParams.init(dataclasses.replace(TOY_CFG, d_spec=mats[0].shape[1]), seed=0)
        tr._fit_normalizers(params, mats)
        stacked = np.concatenate(mats, axis=0, dtype=np.float64)
        want_mu = stacked.mean(axis=0, keepdims=True)
        want_sigma = np.maximum(stacked.std(axis=0, keepdims=True), 1e-6)
        assert params.buffers["norm_mu"].tobytes() == want_mu.tobytes()
        assert params.buffers["norm_sigma"].tobytes() == want_sigma.tobytes()

    def test_scoring_widens_one_caption_at_a_time(self):
        cfg = md.AtcaConfig(d_spec=16, d_model=8, d_k=8, n_heads=1, gru_layers=1, gru_hidden=8,
                            d_text=768)
        params = md.AtcaParams.init(cfg, seed=0)
        rng = np.random.default_rng(6)
        entries, features, embeddings = [], {}, {}
        for i in range(64):  # one batch
            utt = f"u{i:02d}"
            entries.append(ProtocolEntry(utt, f"{utt}.wav", ("bonafide", "spoof")[i % 2], "g", "eval"))
            features[utt] = FeatureMatrix(rng.normal(size=(20, 16)).astype(np.float32))
            embeddings[utt] = TextEmbedding(
                utt, rng.normal(size=(20 + i % 9, 768)).astype(np.float32), ())
        wide = 8 * sum(e.matrix.size for e in embeddings.values())
        trials, peak = traced_peak(lambda: tr.score_protocol(params, entries, features, embeddings))
        assert len(trials) == 64
        assert peak < wide, peak / wide


class TestAblateText:
    def test_zero_value_projection_matches_full(self):
        entries, features, embeddings = _toy_data()
        params = md.AtcaParams.init(TOY_CFG, seed=6)
        params["Wv"].values = np.zeros_like(params["Wv"].values)
        full = tr.score_protocol(params, entries, features, embeddings)
        ablated = tr.ablate_text(params, entries, features)
        for a, b in zip(full, ablated):
            assert a.score == pytest.approx(b.score, abs=1e-12)

    def test_ablated_deterministic(self):
        entries, features, embeddings = _toy_data()
        params = md.AtcaParams.init(TOY_CFG, seed=7)
        a = tr.ablate_text(params, entries, features)
        b = tr.ablate_text(params, entries, features)
        assert [t.score for t in a] == [t.score for t in b]

    def test_ablated_ignores_embeddings_entirely(self, monkeypatch):
        # the same bytes as plain zero matrices, which each piece interns;
        # the shared zero-row embedding is never interned
        entries, features, embeddings = _toy_data()
        params = md.AtcaParams.init(TOY_CFG, seed=8)
        zero = np.zeros((1, TOY_CFG.d_text))
        b = tr.score_protocol(params, entries, features, {e.utt_id: zero for e in entries})

        def no_interning(blocks):
            raise AssertionError("ablated captions interned")

        monkeypatch.setattr(md, "intern_rows", no_interning)
        a = tr.ablate_text(params, entries, features)
        assert [t.utt_id for t in a] == [t.utt_id for t in b]
        assert np.array([t.score for t in a]).tobytes() == np.array([t.score for t in b]).tobytes()


class TestLinearBaseline:
    def test_separable_stats_reach_zero_eer(self):
        entries, features, _ = _toy_data(n_train=16, n_dev=8, seed=3)
        train_e = [e for e in entries if e.split == "train"]
        dev_e = [e for e in entries if e.split == "dev"]
        baseline = fit_linear_baseline(train_e, features)
        trials = score_linear_baseline(baseline, dev_e, features)
        assert compute_eer(trials).eer == 0.0

    def test_stats_vector_layout(self):
        m = np.array([[0.0, 2.0], [2.0, 2.0]])
        stats = logmel_stats(m)
        assert stats == pytest.approx([1.0, 2.0, 1.0, 0.0])

    def test_empty_and_missing(self):
        entries, features, _ = _toy_data()
        with pytest.raises(EmptySplit):
            fit_linear_baseline([], features)
        with pytest.raises(MissingFeature):
            fit_linear_baseline(entries, {})
        baseline = fit_linear_baseline(
            [e for e in entries if e.split == "train"], features
        )
        assert score_linear_baseline(baseline, [], features) == []
