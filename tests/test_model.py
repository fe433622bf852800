import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atcadet import autodiff as ad
from atcadet import model as md
from atcadet.autodiff import Tensor, no_grad
from atcadet.dsp import FeatureMatrix
from atcadet.errors import (
    BadConfig,
    BadHeader,
    NonFinite,
    ShapeMismatch,
    TruncatedFile,
    WrongKind,
)
from atcadet.model import AtcaConfig, AtcaParams
from atcadet.text import TextEmbedding

import _oracles as ops
from _oracles import (
    fd_gradients,
    graph_cross_attention,
    gru_scalar_oracle,
    gru_weights_from_params,
    per_step_forward_batch,
    per_step_gru,
    rel_errors,
    run_gru_ref,
    traced_peak,
)


def _tiny_cfg(**kw):
    base = dict(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=3, d_text=5)
    base.update(kw)
    return AtcaConfig(**base)


class TestConfig:
    def test_head_split_must_tile(self):
        with pytest.raises(BadConfig):
            AtcaConfig(d_model=8, d_k=3, n_heads=2)

    def test_json_round_trip(self):
        cfg = _tiny_cfg(class_weights=(0.5, 1.5))
        assert AtcaConfig.from_json(cfg.to_json()) == cfg

    def test_bad_weights(self):
        with pytest.raises(BadConfig):
            _tiny_cfg(class_weights=(0.0, 1.0))


class TestEncode:
    def test_identity_projection(self):
        cfg = AtcaConfig(d_spec=4, d_model=4, d_k=4, n_heads=1, gru_hidden=2, d_text=3)
        p = AtcaParams.init(cfg, seed=0)
        p["enc_spec_w"].values[:] = np.eye(4)
        p["enc_spec_b"].values[:] = 0.0
        spec = FeatureMatrix(np.array([[0.1, -0.2, 0.3, 0.0], [1.0, 2.0, -1.0, 0.5]]))
        out = md.encode_acoustic(spec, None, p)
        np.testing.assert_allclose(out.values, np.tanh(spec.values), atol=1e-15)

    def test_zero_input_zero_bias(self):
        cfg = _tiny_cfg()
        p = AtcaParams.init(cfg, seed=1)
        p["enc_spec_b"].values[:] = 0.0
        out = md.encode_acoustic(np.zeros((2, 3)), None, p)
        np.testing.assert_array_equal(out.values, np.zeros((2, 4)))

    def test_raw_mismatch_rejected(self):
        p = AtcaParams.init(_tiny_cfg(), seed=0)
        with pytest.raises(ShapeMismatch):
            md.encode_acoustic(np.zeros((2, 3)), np.zeros((2, 2)), p)

    def test_normalizer_buffers_applied(self):
        cfg = AtcaConfig(d_spec=2, d_model=2, d_k=2, n_heads=1, gru_hidden=2, d_text=2)
        p = AtcaParams.init(cfg, seed=3)
        p["enc_spec_w"].values[:] = np.eye(2)
        p["enc_spec_b"].values[:] = 0.0
        p.buffers["norm_mu"][:] = [[1.0, -1.0]]
        p.buffers["norm_sigma"][:] = [[2.0, 0.5]]
        out = md.encode_acoustic(np.array([[3.0, 0.0]]), None, p)
        np.testing.assert_allclose(out.values, np.tanh([[1.0, 2.0]]), atol=1e-15)


def _op_run(op, inp, params, watched, mix):
    """Output and gradients of ``op(inp, params)`` under the loss
    ``sum(out * mix)``, for the tensors in ``watched``."""
    with ad.Tape() as tape:
        out = op(inp, params)
        loss = ops.sum_all(ops.hadamard(out, mix))
    grads = ad.backward(tape, loss)
    return out.values, [grads[t].copy() for t in watched]


class TestHandWrittenOps:
    """The encoder and head ops against the generic-op chains they
    replaced, ``tanh(add(matmul(...)))`` and ``add(matmul(...))``: equal to
    the bit in values and gradients, and criterion 01's finite-difference
    check on each."""

    @pytest.fixture
    def params(self):
        return _perturbed_params(AtcaConfig(d_spec=6, d_model=8, d_k=8, n_heads=1, gru_layers=2,
                                            gru_hidden=5, d_text=7), seed=51)

    def test_encoder_matches_generic_chain_bitwise(self, params):
        rng = np.random.default_rng(52)
        spec, mix = rng.normal(size=(9, 6)), Tensor(rng.normal(size=(9, 8)))
        watched = [params["enc_spec_w"], params["enc_spec_b"]]
        out, grads = _op_run(lambda s, p: md.encode_acoustic(s, None, p), spec, params, watched, mix)
        ref, ref_grads = _op_run(ops.encode_ref, spec, params, watched, mix)
        assert np.array_equal(out, ref)
        for g, want in zip(grads, ref_grads):
            assert np.array_equal(g, want)

    def test_head_matches_generic_chain_bitwise(self, params):
        rng = np.random.default_rng(53)
        h, mix = Tensor(rng.uniform(-1.0, 1.0, size=(32, 5)), requires_grad=True), Tensor(rng.normal(size=(32, 2)))
        watched = [h, params["head_w"], params["head_b"]]
        out, grads = _op_run(md._head, h, params, watched, mix)
        ref, ref_grads = _op_run(ops.head_ref, h, params, watched, mix)
        assert np.array_equal(out, ref)
        for g, want in zip(grads, ref_grads):
            assert np.array_equal(g, want)

    def test_gru_output_is_contiguous(self, params):
        # the head's products round differently on a transposed view; the
        # checkpoint bytes of a train run depend on this layout
        x = Tensor(np.random.default_rng(56).normal(size=(3 * 4, 8)))
        assert md._run_gru(x, params, 4).values.flags.c_contiguous

    def test_encoder_gradients_match_finite_differences(self, params):
        rng = np.random.default_rng(54)
        spec, mix = rng.normal(size=(5, 6)), Tensor(rng.normal(size=(5, 8)))
        watched = [params["enc_spec_w"], params["enc_spec_b"]]
        _, grads = _op_run(lambda s, p: md.encode_acoustic(s, None, p), spec, params, watched, mix)
        numeric, _ = fd_gradients(lambda: float((md.encode_acoustic(spec, None, params).values * mix.values).sum()),
                                  watched)
        assert max(float(rel_errors(g, n).max()) for g, n in zip(grads, numeric)) < 1e-4

    def test_head_gradients_match_finite_differences(self, params):
        rng = np.random.default_rng(55)
        h = Tensor(rng.uniform(-1.0, 1.0, size=(4, 5)), requires_grad=True)
        labels, weights = np.array([0, 1, 1, 0]), (1.0, 1.5)
        watched = [h, params["head_w"], params["head_b"]]

        def loss_value():
            return float(ad.weighted_ce_logits(md._head(h, params), labels, weights).values)

        with ad.Tape() as tape:
            loss = ad.weighted_ce_logits(md._head(h, params), labels, weights)
        grads = ad.backward(tape, loss)
        numeric, _ = fd_gradients(loss_value, watched)
        assert max(float(rel_errors(grads[t], n).max()) for t, n in zip(watched, numeric)) < 1e-4


class TestCrossAttention:
    def _scalar_cfg_params(self):
        cfg = AtcaConfig(d_spec=1, d_model=1, d_k=1, n_heads=1, gru_layers=1, gru_hidden=1, d_text=1)
        p = AtcaParams.init(cfg, seed=0)
        p["Wq"].values[:] = 0.5
        p["Wk"].values[:] = 1.5
        p["Wv"].values[:] = -0.8
        p["Wo"].values[:] = 2.0
        return p

    def test_hand_scalar_case(self):
        p = self._scalar_cfg_params()
        acoustic = Tensor(np.array([[0.3], [-0.7]]))
        text = np.array([[1.0], [2.0]])
        out, internals = md.cross_attention(acoustic, text, p, return_internals=True)
        att = internals["attention_weights"][0]
        for t, a in enumerate([0.3, -0.7]):
            logits = [a * 0.5 * 1.0 * 1.5, a * 0.5 * 2.0 * 1.5]
            mx = max(logits)
            exps = [math.exp(v - mx) for v in logits]
            total = sum(exps)
            want = [e / total for e in exps]
            np.testing.assert_allclose(att[t], want, atol=1e-12)
            attended = want[0] * (1.0 * -0.8) + want[1] * (2.0 * -0.8)
            assert out.values[t, 0] == pytest.approx(a + attended * 2.0, abs=1e-12)

    def test_single_key_collapses_to_value(self):
        rng = np.random.default_rng(1)
        cfg = _tiny_cfg(n_heads=2, d_k=2)
        p = AtcaParams.init(cfg, seed=4)
        acoustic = Tensor(rng.normal(size=(3, 4)))
        text = rng.normal(size=(1, 5))
        out, internals = md.cross_attention(acoustic, text, p, return_internals=True)
        for att in internals["attention_weights"]:
            np.testing.assert_array_equal(att, np.ones((3, 1)))
        v_row = text @ p["Wv"].values
        expected = acoustic.values + np.tile(v_row, (3, 1)) @ p["Wo"].values
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_identical_text_rows(self):
        rng = np.random.default_rng(2)
        p = AtcaParams.init(_tiny_cfg(), seed=5)
        acoustic = Tensor(rng.normal(size=(2, 4)))
        row = rng.normal(size=(1, 5))
        text = np.tile(row, (4, 1))
        out = md.cross_attention(acoustic, text, p)
        single = md.cross_attention(acoustic, row, p)
        np.testing.assert_allclose(out.values, single.values, atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(3)
        p = AtcaParams.init(_tiny_cfg(n_heads=2, d_k=2), seed=6)
        out, internals = md.cross_attention(
            Tensor(rng.normal(size=(6, 4))), rng.normal(size=(7, 5)), p, return_internals=True
        )
        for att in internals["attention_weights"]:
            np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-9)

    def test_token_permutation_invariance(self):
        rng = np.random.default_rng(4)
        p = AtcaParams.init(_tiny_cfg(n_heads=4, d_k=1), seed=7)
        acoustic = Tensor(rng.normal(size=(5, 4)))
        text = rng.normal(size=(6, 5))
        base = md.cross_attention(acoustic, text, p).values
        perm = md.cross_attention(acoustic, text[rng.permutation(6)], p).values
        np.testing.assert_allclose(base, perm, atol=1e-12)

    def test_multihead_matches_blockwise_numpy(self):
        rng = np.random.default_rng(5)
        cfg = _tiny_cfg(n_heads=2, d_k=2)
        p = AtcaParams.init(cfg, seed=8)
        acoustic = rng.normal(size=(3, 4))
        text = rng.normal(size=(4, 5))
        out = md.cross_attention(Tensor(acoustic), text, p).values

        q = acoustic @ p["Wq"].values
        k = text @ p["Wk"].values
        v = text @ p["Wv"].values
        blocks = []
        for h in range(2):
            sl = slice(2 * h, 2 * h + 2)
            s = q[:, sl] @ k[:, sl].T / math.sqrt(2)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            blocks.append(a @ v[:, sl])
        expected = acoustic + np.concatenate(blocks, axis=1) @ p["Wo"].values
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestGru:
    def test_zero_params_fixed_point(self):
        cfg = _tiny_cfg(gru_layers=2)
        p = AtcaParams.init(cfg, seed=9)
        for name, t in p.tensors.items():
            if name.startswith("gru"):
                t.values[:] = 0.0
        out = md.gru_stack(Tensor(np.ones((4, 4))), p)
        np.testing.assert_array_equal(out.values, np.zeros((1, 3)))

    def test_forced_h0_decay(self):
        cfg = _tiny_cfg(gru_layers=2)
        p = AtcaParams.init(cfg, seed=10)
        for name, t in p.tensors.items():
            if name.startswith("gru"):
                t.values[:] = 0.0
        v = np.array([0.8, -0.4, 0.2])
        for t_len in (1, 3, 5):
            out = md.gru_stack(Tensor(np.ones((t_len, 4))), p, h0=v)
            np.testing.assert_allclose(out.values[0], 0.5**t_len * v, atol=1e-15)

    def test_matches_scalar_oracle(self):
        cfg = AtcaConfig(d_spec=3, d_model=3, d_k=3, n_heads=1, gru_layers=2, gru_hidden=2, d_text=4)
        p = AtcaParams.init(cfg, seed=11)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3))
        out, states = md.gru_stack(Tensor(x), p, return_states=True)
        oracle = gru_scalar_oracle(
            [gru_weights_from_params(p, 0), gru_weights_from_params(p, 1)], x.tolist()
        )
        for layer in range(2):
            np.testing.assert_allclose(states[layer], oracle[layer], atol=1e-12)
        np.testing.assert_allclose(out.values[0], oracle[1][-1], atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_boundedness(self, seed):
        rng = np.random.default_rng(seed)
        cfg = _tiny_cfg(gru_layers=2)
        p = AtcaParams.init(cfg, seed=seed % 1000)
        for name, t in p.tensors.items():
            if name.startswith("gru"):
                t.values[:] = rng.normal(scale=2.0, size=t.values.shape)
        x = rng.normal(scale=3.0, size=(10, 4))
        _, states = md.gru_stack(Tensor(x), p, return_states=True)
        for layer_states in states:
            assert np.all(np.abs(layer_states) <= 1.0 + 1e-12)


class TestForward:
    def test_deterministic(self):
        p = AtcaParams.init(_tiny_cfg(gru_layers=2), seed=12)
        rng = np.random.default_rng(7)
        spec = rng.normal(size=(4, 3))
        text = rng.normal(size=(3, 5))
        a = md.forward_batch([spec], [None], [text], p)
        b = md.forward_batch([spec], [None], [text], p)
        np.testing.assert_array_equal(a.values, b.values)

    def test_zero_head(self):
        p = AtcaParams.init(_tiny_cfg(), seed=13)
        p["head_w"].values[:] = 0.0
        p["head_b"].values[:] = 0.0
        rng = np.random.default_rng(8)
        out = md.forward_batch([rng.normal(size=(2, 3))], [None], [rng.normal(size=(2, 5))], p)
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])

    def test_composes_stages(self):
        p = AtcaParams.init(_tiny_cfg(gru_layers=2), seed=14)
        rng = np.random.default_rng(9)
        spec = rng.normal(size=(3, 3))
        text = rng.normal(size=(4, 5))
        logits = md.forward_batch([spec], [None], [text], p)
        enc = md.encode_acoustic(spec, None, p)
        att = md.cross_attention(enc, text, p)
        h_t = md.gru_stack(att, p)
        expected = h_t.values @ p["head_w"].values + p["head_b"].values
        np.testing.assert_allclose(logits.values, expected, atol=1e-13)

    def test_batch_matches_single(self):
        p = AtcaParams.init(_tiny_cfg(gru_layers=2), seed=15)
        rng = np.random.default_rng(10)
        specs = [rng.normal(size=(4, 3)) for _ in range(3)]
        texts = [rng.normal(size=(rng.integers(1, 5), 5)) for _ in range(3)]
        batched = md.forward_batch(specs, [None] * 3, texts, p)
        for i in range(3):
            single = md.forward_batch([specs[i]], [None], [texts[i]], p)
            np.testing.assert_allclose(batched.values[i], single.values[0], atol=1e-12)

    def test_batch_gradients_match_single(self):
        cfg = _tiny_cfg(gru_layers=2)
        p = AtcaParams.init(cfg, seed=16)
        rng = np.random.default_rng(11)
        specs = [rng.normal(size=(3, 3)) for _ in range(2)]
        texts = [rng.normal(size=(2, 5)) for _ in range(2)]
        labels = np.array([0, 1])
        weights = (1.0, 2.0)

        with ad.Tape() as tape:
            logits = md.forward_batch(specs, [None, None], texts, p)
            loss = ad.weighted_ce_logits(logits, labels, weights)
        grads = ad.backward(tape, loss)

        with ad.Tape() as tape2:
            parts = [md.forward_batch([specs[i]], [None], [texts[i]], p) for i in range(2)]
            loss2 = ad.weighted_ce_logits(ops.concat_rows(parts), labels, weights)
        grads2 = ad.backward(tape2, loss2)

        assert loss.values == pytest.approx(float(loss2.values), abs=1e-13)
        for name, t in p.tensors.items():
            np.testing.assert_allclose(grads[t], grads2[t], atol=1e-11, err_msg=name)


def _fused_forward_batch(specs, texts, params: AtcaParams) -> Tensor:
    return md.forward_batch(specs, [None] * len(specs), texts, params)


def _logits_and_grads(forward, specs, texts, params, labels):
    with ad.Tape() as tape:
        logits = forward(specs, texts, params)
        loss = ad.weighted_ce_logits(logits, labels, (1.0, 1.5))
    grads = ad.backward(tape, loss)
    return logits.values, {n: grads[t].copy() for n, t in params.tensors.items()}


def _perturbed_params(cfg: AtcaConfig, seed: int) -> AtcaParams:
    """Non-zero biases, larger weights and non-trivial normalizer buffers."""
    p = AtcaParams.init(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for t in p.tensors.values():
        t.values += rng.normal(scale=0.3, size=t.values.shape)
    p.buffers["norm_mu"][:] = rng.normal(scale=0.5, size=(1, cfg.d_spec))
    p.buffers["norm_sigma"][:] = rng.uniform(0.5, 2.0, size=(1, cfg.d_spec))
    return p


class TestFusedGru:
    """The fused GRU stack op against the per-step graph it replaced."""

    @pytest.fixture
    def params(self):
        cfg = AtcaConfig(d_spec=6, d_model=8, d_k=8, n_heads=1, gru_layers=2, gru_hidden=5, d_text=7)
        p = AtcaParams.init(cfg, seed=21)
        rng = np.random.default_rng(22)
        for t in p.tensors.values():  # non-zero biases, larger recurrent weights
            t.values += rng.normal(scale=0.3, size=t.values.shape)
        return p

    def test_forward_batch_matches_per_step_graph(self, params):
        rng = np.random.default_rng(23)
        specs = [rng.normal(size=(7, 6)) for _ in range(4)]
        texts = [rng.normal(size=(int(rng.integers(1, 5)), 7)) for _ in range(4)]
        labels = np.array([0, 1, 1, 0])
        fused, fused_grads = _logits_and_grads(_fused_forward_batch, specs, texts, params, labels)
        ref, ref_grads = _logits_and_grads(per_step_forward_batch, specs, texts, params, labels)
        np.testing.assert_allclose(fused, ref, rtol=1e-9, atol=1e-12)
        for name in ref_grads:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)

    def test_gru_stack_with_h0_matches_per_step_graph(self, params):
        rng = np.random.default_rng(24)
        x_rows = rng.normal(size=(7, 8))
        h0 = rng.uniform(-1.0, 1.0, size=(1, 5))
        x = Tensor(x_rows, requires_grad=True)
        with ad.Tape() as tape:
            out, states = md.gru_stack(x, params, h0=h0, return_states=True)
            loss = ops.sum_all(out)
        grads = ad.backward(tape, loss)
        ref_x = Tensor(x_rows, requires_grad=True)
        ref_states = []
        with ad.Tape() as ref_tape:
            ref_out = per_step_gru(ref_x, params, 1, h0=h0, collect=ref_states)
            ref_loss = ops.sum_all(ref_out)
        ref_grads = ad.backward(ref_tape, ref_loss)
        np.testing.assert_allclose(out.values, ref_out.values, rtol=1e-9, atol=1e-12)
        for layer in range(2):
            np.testing.assert_allclose(states[layer], ref_states[layer], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(grads[x], ref_grads[ref_x], rtol=1e-9, atol=1e-12)
        for name, t in params.tensors.items():
            np.testing.assert_allclose(grads[t], ref_grads[t], rtol=1e-9, atol=1e-12, err_msg=name)

    def test_tape_length_independent_of_frame_count(self):
        p = AtcaParams.init(_tiny_cfg(gru_layers=2), seed=25)
        rng = np.random.default_rng(26)
        lengths = []
        for t_frames in (5, 50):
            specs = [rng.normal(size=(t_frames, 3)) for _ in range(3)]
            texts = [rng.normal(size=(2, 5)) for _ in range(3)]
            with ad.Tape() as tape:
                logits = _fused_forward_batch(specs, texts, p)
                ad.weighted_ce_logits(logits, np.array([0, 1, 0]), (1.0, 1.0))
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]


def _gru_run(run_gru, params: AtcaParams, x_rows, batch: int, h0=None):
    """Logits, every layer's states and the gradients of the input and of
    every GRU and head tensor for one GRU stack implementation, under a
    weighted cross-entropy on the head."""
    x = Tensor(x_rows, requires_grad=True)
    states = []
    with ad.Tape() as tape:
        h_t = run_gru(x, params, batch, h0=h0, collect=states)
        logits = ops.head_ref(h_t, params)
        loss = ad.weighted_ce_logits(logits, np.arange(batch) % 2, (1.0, 1.5))
    grads = ad.backward(tape, loss)
    named = {n: grads[t].copy() for n, t in params.tensors.items() if n.startswith(("gru", "head"))}
    return logits.values, [np.array(s) for s in states], grads[x].copy(), named


def _assert_gru_runs_agree(got, want):
    (logits, states, gx, grads), (ref_logits, ref_states, ref_gx, ref_grads) = got, want
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-9, atol=1e-12)
    assert len(states) == len(ref_states)
    for layer, (s, ref) in enumerate(zip(states, ref_states)):
        np.testing.assert_allclose(s, ref, rtol=1e-9, atol=1e-12, err_msg=f"layer {layer} states")
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-9, atol=1e-12, err_msg="input gradient")
    assert grads.keys() == ref_grads.keys()
    for name in ref_grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)


class TestWavefrontGru:
    """The one-op wavefront GRU stack against the per-layer ops it replaced
    and against the per-step graph, including the start and end of the
    wavefront where some layers have not started or have finished."""

    @pytest.mark.parametrize("t_frames", [43, 169])
    def test_matches_per_layer_ops(self, t_frames):
        cfg = AtcaConfig()
        params = _perturbed_params(cfg, seed=41)
        x_rows = np.random.default_rng(42).normal(size=(t_frames * 32, cfg.d_model))
        _assert_gru_runs_agree(_gru_run(md._run_gru, params, x_rows, 32),
                               _gru_run(run_gru_ref, params, x_rows, 32))

    @pytest.mark.parametrize("layers,t_frames,batch", [
        (1, 6, 3),
        (3, 6, 3),
        (3, 1, 3),  # fewer steps than layers
        (3, 2, 3),
        (3, 6, 1),  # B=1
        (2, 1, 1),
    ], ids=["one_layer", "three_layers", "three_layers_T1", "three_layers_T2", "three_layers_B1", "two_layers_T1_B1"])
    @pytest.mark.parametrize("with_h0", [False, True], ids=["zero_h0", "h0"])
    def test_matches_per_step_graph(self, layers, t_frames, batch, with_h0):
        cfg = AtcaConfig(d_spec=6, d_model=8, d_k=8, n_heads=1, gru_layers=layers, gru_hidden=5, d_text=7)
        params = _perturbed_params(cfg, seed=43 + layers)
        rng = np.random.default_rng(44)
        x_rows = rng.normal(size=(t_frames * batch, cfg.d_model))
        h0 = rng.uniform(-1.0, 1.0, size=(1, cfg.gru_hidden)) if with_h0 else None
        _assert_gru_runs_agree(_gru_run(md._run_gru, params, x_rows, batch, h0=h0),
                               _gru_run(per_step_gru, params, x_rows, batch, h0=h0))

    @pytest.mark.parametrize("layers", [1, 3])
    def test_forward_batch_matches_per_step_graph(self, layers):
        params = _perturbed_params(_tiny_cfg(gru_layers=layers), seed=45)
        rng = np.random.default_rng(46)
        specs = [rng.normal(size=(4, 3)) for _ in range(3)]
        texts = [rng.normal(size=(2, 5)) for _ in range(3)]
        labels = np.array([0, 1, 1])
        fused, fused_grads = _logits_and_grads(_fused_forward_batch, specs, texts, params, labels)
        ref, ref_grads = _logits_and_grads(per_step_forward_batch, specs, texts, params, labels)
        np.testing.assert_allclose(fused, ref, rtol=1e-9, atol=1e-12)
        for name in ref_grads:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)

    def test_tape_length_independent_of_layer_count(self):
        rng = np.random.default_rng(47)
        specs = [rng.normal(size=(5, 3)) for _ in range(2)]
        texts = [rng.normal(size=(2, 5)) for _ in range(2)]
        lengths = []
        for layers in (1, 2, 3):
            p = AtcaParams.init(_tiny_cfg(gru_layers=layers), seed=48)
            with ad.Tape() as tape:
                ad.weighted_ce_logits(_fused_forward_batch(specs, texts, p), np.array([0, 1]), (1.0, 1.0))
            lengths.append(len(tape))
        assert lengths == [4, 4, 4]  # front end, GRU stack, head, loss

    def test_gradients_match_finite_differences(self):
        """Criterion 01's check, on a three-layer stack longer than deep."""
        cfg = AtcaConfig(d_spec=3, d_model=4, d_k=4, n_heads=1, gru_layers=3, gru_hidden=3, d_text=4)
        params = _perturbed_params(cfg, seed=49)
        rng = np.random.default_rng(50)
        specs = [rng.normal(size=(4, 3)) for _ in range(2)]
        texts = [rng.normal(size=(3, 4)) for _ in range(2)]
        labels, weights = np.array([0, 1]), (1.0, 1.5)
        tensors = list(params.tensors.values())

        def loss_value():
            return float(ad.weighted_ce_logits(_fused_forward_batch(specs, texts, params), labels, weights).values)

        with ad.Tape() as tape:
            loss = ad.weighted_ce_logits(_fused_forward_batch(specs, texts, params), labels, weights)
        grads = ad.backward(tape, loss)
        numeric, _ = fd_gradients(loss_value, tensors)
        worst = max(float(rel_errors(grads[t], g).max()) for t, g in zip(tensors, numeric))
        assert worst < 1e-4


class TestInferenceGru:
    """Without a tape the GRU stack keeps two iterations' state, not the
    whole run's: the taped pass's output bytes at a fraction of its peak."""

    @given(layers=st.integers(1, 3), t_frames=st.integers(1, 50), batch=st.integers(1, 70),
           with_h0=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_grad_output_bytes_match_the_taped_pass(self, layers, t_frames, batch, with_h0, seed):
        cfg = AtcaConfig(gru_layers=layers)
        params = _perturbed_params(cfg, seed=seed)
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(t_frames * batch, cfg.d_model)), requires_grad=True)
        h0 = rng.uniform(-1.0, 1.0, size=(1, cfg.gru_hidden)) if with_h0 else None
        with no_grad():
            inferred = md._run_gru(x, params, batch, h0=h0)
        with ad.Tape() as tape:
            taped = md._run_gru(x, params, batch, h0=h0)
        assert len(tape) == 1
        assert inferred.values.tobytes() == taped.values.tobytes()

    def test_gru_stack_returns_every_state_without_a_tape(self):
        cfg = AtcaConfig(d_spec=6, d_model=8, d_k=8, n_heads=1, gru_layers=3, gru_hidden=5, d_text=7)
        params = _perturbed_params(cfg, seed=51)
        x = Tensor(np.random.default_rng(52).normal(size=(7, cfg.d_model)))
        with no_grad():
            out, states = md.gru_stack(x, params, return_states=True)
            ref_states = []
            ref_out = run_gru_ref(x, params, 1, collect=ref_states)
        assert [s.shape for s in states] == [(7, cfg.gru_hidden)] * 3
        for s, ref in zip(states, ref_states):
            np.testing.assert_allclose(s, ref, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(out.values, ref_out.values, rtol=1e-9, atol=1e-12)

    def test_no_grad_run_peaks_below_one_whole_run_array(self):
        cfg = AtcaConfig()
        params = _perturbed_params(cfg, seed=53)
        steps, batch = 169, 64  # hop 512, a full scoring batch of the old cap
        x = Tensor(np.random.default_rng(54).normal(size=(steps * batch, cfg.d_model)))
        whole_run = 8 * steps * batch * cfg.gru_layers * cfg.gru_hidden
        with no_grad():
            _, peak = traced_peak(lambda: md._run_gru(x, params, batch))
        assert peak < whole_run, peak / whole_run


class TestFusedFront:
    """The fused encoder-and-attention op against the per-sample graphs it
    replaced, and cross_attention against the selector-matrix graph."""

    @staticmethod
    def _cfg(n_heads):
        return AtcaConfig(d_spec=6, d_model=8, d_k=8 // n_heads, n_heads=n_heads,
                          gru_layers=2, gru_hidden=5, d_text=7)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("t_frames,caption_lengths", [
        (7, [1, 3, 5, 2]),  # caption lengths differ within the batch
        (7, [4]),  # B=1
        (1, [2, 6, 3]),  # T=1
    ], ids=["ragged_captions", "one_sample", "one_frame"])
    def test_matches_per_sample_graph(self, n_heads, t_frames, caption_lengths):
        params = _perturbed_params(self._cfg(n_heads), seed=31 + n_heads)
        rng = np.random.default_rng(32)
        specs = [rng.normal(size=(t_frames, 6)) for _ in caption_lengths]
        texts = [rng.normal(size=(n, 7)) for n in caption_lengths]
        labels = np.arange(len(specs)) % 2
        fused, fused_grads = _logits_and_grads(_fused_forward_batch, specs, texts, params, labels)
        ref, ref_grads = _logits_and_grads(per_step_forward_batch, specs, texts, params, labels)
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for name in ref_grads:
            np.testing.assert_allclose(fused_grads[name], ref_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)

    def test_no_grad_logits_match(self):
        params = _perturbed_params(self._cfg(2), seed=33)
        rng = np.random.default_rng(34)
        specs = [rng.normal(size=(5, 6)) for _ in range(3)]
        texts = [rng.normal(size=(n, 7)) for n in (2, 4, 1)]
        with no_grad():
            fused = _fused_forward_batch(specs, texts, params)
        with ad.Tape() as tape:
            taped = _fused_forward_batch(specs, texts, params)
        assert len(tape) > 0
        np.testing.assert_array_equal(fused.values, taped.values)
        np.testing.assert_allclose(fused.values, per_step_forward_batch(specs, texts, params).values, rtol=0, atol=1e-12)

    def test_no_grad_logits_bytes_match_the_taped_pass_on_float32_inputs(self):
        # inference keeps nothing for a backward; the taped pass keeps each
        # caption as loaded and widens it again in the backward
        params = _perturbed_params(self._cfg(2), seed=41)
        rng = np.random.default_rng(42)
        specs = [FeatureMatrix(rng.normal(size=(9, 6)).astype(np.float32)) for _ in range(5)]
        texts = [TextEmbedding(f"u{i}", rng.normal(size=(n, 7)).astype(np.float32), ())
                 for i, n in enumerate((3, 1, 6, 2, 4))]
        with no_grad():
            fused = _fused_forward_batch(specs, texts, params)
        with ad.Tape() as tape:
            taped = _fused_forward_batch(specs, texts, params)
        assert len(tape) > 0
        assert fused.values.tobytes() == taped.values.tobytes()

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_cross_attention_matches_selector_graph(self, n_heads):
        params = _perturbed_params(self._cfg(n_heads), seed=35)
        rng = np.random.default_rng(36)
        acoustic_rows = rng.normal(size=(5, 8))
        text_rows = rng.normal(size=(3, 7))
        mix = Tensor(rng.normal(size=(5, 8)))  # makes the output gradient non-uniform
        results = []
        for attend in (md.cross_attention, graph_cross_attention):
            acoustic = Tensor(acoustic_rows, requires_grad=True)
            text = Tensor(text_rows, requires_grad=True)
            with ad.Tape() as tape:
                out = attend(acoustic, text, params)
                loss = ops.sum_all(ops.hadamard(out, mix))
            grads = ad.backward(tape, loss)
            watched = [acoustic, text] + [params[n] for n in ("Wq", "Wk", "Wv", "Wo")]
            results.append((out.values, [grads[t].copy() for t in watched]))
        (out, grads), (ref, ref_grads) = results
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for name, g, want in zip(("acoustic", "text", "Wq", "Wk", "Wv", "Wo"), grads, ref_grads):
            np.testing.assert_allclose(g, want, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_tape_length_independent_of_batch_size(self):
        p = AtcaParams.init(_tiny_cfg(gru_layers=2), seed=37)
        rng = np.random.default_rng(38)
        lengths = []
        for batch in (2, 32):
            specs = [rng.normal(size=(5, 3)) for _ in range(batch)]
            texts = [rng.normal(size=(int(rng.integers(1, 6)), 5)) for _ in range(batch)]
            with ad.Tape() as tape:
                logits = _fused_forward_batch(specs, texts, p)
                ad.weighted_ce_logits(logits, np.arange(batch) % 2, (1.0, 1.0))
            lengths.append(len(tape))
        assert lengths[0] == lengths[1] <= 10

    @pytest.mark.parametrize("case", ["d_spec", "d_text", "frames", "counts"])
    def test_shape_mismatch(self, case):
        p = AtcaParams.init(_tiny_cfg(), seed=39)
        rng = np.random.default_rng(40)
        specs = [rng.normal(size=(4, 3)) for _ in range(3)]
        texts = [rng.normal(size=(2, 5)) for _ in range(3)]
        if case == "d_spec":
            specs[1] = rng.normal(size=(4, 4))
        elif case == "d_text":
            texts[2] = rng.normal(size=(2, 6))
        elif case == "frames":
            specs[2] = rng.normal(size=(5, 3))
        else:
            texts = texts[:2]
        with pytest.raises(ShapeMismatch):
            _fused_forward_batch(specs, texts, p)


def _captions(rng, lengths, d_text, style, form):
    """Captions of the given lengths. ``templated`` draws their rows from
    five shared rows, so rows repeat within and across captions;
    ``distinct`` gives every row its own values. ``loaded`` captions are
    TextEmbeddings over one float32 row table, as ``load_embeddings``
    gives them; ``plain`` ones are float64 matrices."""
    if style == "templated":
        table = rng.normal(size=(5, d_text))
        ids = [rng.integers(0, 5, size=n) for n in lengths]
    else:
        table = rng.normal(size=(sum(lengths), d_text))
        ids = np.split(np.arange(sum(lengths)), np.cumsum(lengths)[:-1])
    if form == "plain":
        return [table[i] for i in ids]
    table = table.astype(np.float32)
    return [TextEmbedding.from_rows(f"u{b}", table, i, ()) for b, i in enumerate(ids)]


def _front_forward_batch(front):
    def forward(specs, texts, params):
        raws = [None] * len(specs)
        return md._head(md._run_gru(front(specs, raws, texts, params), params, len(specs)), params)
    return forward


class TestDistinctRowFront:
    """The front attends over each caption's distinct rows, batch-wide, in
    pieces of 32 samples and 32 caption rows. Against the per-sample front
    it replaced (``front_ref``), which attends over every row: logits agree
    to 1e-12 (the measured gap is about 2e-16) and every gradient to a
    relative 1e-9."""

    @staticmethod
    def _cfg(n_heads):
        return AtcaConfig(d_spec=6, d_model=8, d_k=8 // n_heads, n_heads=n_heads,
                          gru_layers=2, gru_hidden=5, d_text=7)

    @pytest.mark.parametrize("form", ["loaded", "plain"])
    @pytest.mark.parametrize("style", ["templated", "distinct"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("t_frames,lengths", [
        (6, [1, 7, 3, 5]),  # ragged captions
        (6, [6]),  # B=1
        (1, [4, 2, 6]),  # T=1
        (3, [2 + b % 5 for b in range(33)]),  # B=33: two sample pieces, over 32 distinct rows
    ], ids=["ragged", "one_sample", "one_frame", "two_pieces"])
    def test_matches_the_per_sample_front(self, form, style, n_heads, t_frames, lengths):
        params = _perturbed_params(self._cfg(n_heads), seed=60 + n_heads)
        rng = np.random.default_rng(61)
        specs = [rng.normal(size=(t_frames, 6)) for _ in lengths]
        texts = _captions(rng, lengths, 7, style, form)
        labels = np.arange(len(specs)) % 2
        got, got_grads = _logits_and_grads(_front_forward_batch(md._front), specs, texts, params, labels)
        want, want_grads = _logits_and_grads(_front_forward_batch(ops.front_ref), specs, texts, params, labels)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name in want_grads:
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=1e-9, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("n_heads,style,lengths", [
        *((h, "templated", [3, 8, 1, 5, 4]) for h in (1, 2, 4)),
        *((h, "distinct", [n]) for n in (1, 7, 32, 33, 70) for h in (1, 2, 4)),
    ], ids=[*"124", *(f"distinct-{n}-{h}" for n in (1, 7, 32, 33, 70) for h in (1, 2, 4))])
    def test_each_sample_matches_cross_attention(self, n_heads, style, lengths):
        # criterion 03 checks cross_attention; this ties the front to it. Both
        # run one attention kernel, so one sample over a caption whose rows
        # never repeat is the same bytes, forward and in every weight gradient
        params = _perturbed_params(self._cfg(n_heads), seed=62)
        rng = np.random.default_rng(63)
        specs = [rng.normal(size=(5, 6)) for _ in lengths]
        texts = _captions(rng, lengths, 7, style, "loaded")
        mix = rng.normal(size=(5, len(lengths), 8))  # the output gradient, time-major
        names = ("enc_spec_w", "enc_spec_b", "Wq", "Wk", "Wv", "Wo")
        watched = [params[n] for n in names]
        with ad.Tape() as tape:
            out = md._front(specs, [None] * len(specs), texts, params)
            loss = ops.sum_all(ops.hadamard(out, Tensor(mix.reshape(-1, 8))))
        grads = ad.backward(tape, loss)
        with ad.Tape() as tape:
            parts = [md.cross_attention(md.encode_acoustic(s, None, params), t.matrix, params)
                     for s, t in zip(specs, texts)]
            ref_loss = ops.sum_all(ops.concat_rows([ops.hadamard(p, Tensor(mix[:, b]))
                                                    for b, p in enumerate(parts)]))
        ref_grads = ad.backward(tape, ref_loss)
        rows = out.values.reshape(5, len(lengths), 8)
        if style == "distinct":
            assert rows[:, 0].tobytes() == parts[0].values.tobytes()
            for name, t in zip(names, watched):
                assert grads[t].tobytes() == ref_grads[t].tobytes(), name
        for b, part in enumerate(parts):
            np.testing.assert_allclose(rows[:, b], part.values, rtol=0, atol=1e-12)
        for t in watched:
            np.testing.assert_allclose(grads[t], ref_grads[t], rtol=1e-9, atol=1e-12)

    def test_one_tape_node(self):
        params = _perturbed_params(self._cfg(2), seed=64)
        rng = np.random.default_rng(65)
        lengths = [2 + b % 5 for b in range(40)]
        texts = _captions(rng, lengths, 7, "templated", "loaded")
        with ad.Tape() as tape:
            md._front([rng.normal(size=(4, 6)) for _ in lengths], [None] * 40, texts, params)
        assert len(tape) == 1

    def test_caption_keys_follow_each_caption(self):
        # a sample's keys and biases are its caption's distinct rows in the
        # order they first occur, whatever else its piece holds
        cfg = self._cfg(1)
        table = np.arange(5 * 7, dtype=np.float32).reshape(5, 7)
        caps = [TextEmbedding.from_rows("a", table, np.array([3, 1, 3, 3, 0]), ()),
                TextEmbedding.from_rows("b", table, np.array([4]), ())]
        rows, distinct, gather, bias = md._caption_keys(caps, cfg)
        assert rows is table
        np.testing.assert_array_equal(distinct, [0, 1, 3, 4])
        np.testing.assert_array_equal(gather, [[2, 1, 0], [3, 0, 0]])
        np.testing.assert_array_equal(bias, [[np.log(3), 0.0, 0.0], [0.0, -np.inf, -np.inf]])
        _, alone, alone_gather, alone_bias = md._caption_keys(caps[:1], cfg)
        np.testing.assert_array_equal(alone[alone_gather[0]], distinct[gather[0]])
        np.testing.assert_array_equal(alone_bias, bias[:1])

    def test_plain_captions_are_interned_with_their_piece(self):
        cfg = self._cfg(1)
        rng = np.random.default_rng(66)
        shared = rng.normal(size=(3, 7)).astype(np.float32).astype(np.float64)
        texts = [shared[[0, 1, 0]], shared[[2, 2]], shared[[1]].astype(np.float32)]
        table, distinct, gather, bias = md._caption_keys(texts, cfg)
        # the float32 caption widens to the first caption's second row exactly
        np.testing.assert_array_equal(table[distinct], shared)
        np.testing.assert_array_equal(gather, [[0, 1], [2, 0], [1, 0]])
        np.testing.assert_array_equal(bias[:, 0], [np.log(2), np.log(2), 0.0])

    def test_no_grad_front_peaks_below_one_batch_of_frames(self):
        cfg = AtcaConfig()
        params = _perturbed_params(cfg, seed=67)
        rng = np.random.default_rng(68)
        steps, batch = 169, 256  # hop 512, a full scoring batch
        specs = [rng.normal(size=(steps, cfg.d_spec)).astype(np.float32) for _ in range(batch)]
        texts = _captions(rng, [20 + b % 7 for b in range(batch)], cfg.d_text, "templated", "loaded")
        frames = 8 * batch * steps * cfg.d_spec
        with no_grad():
            _, peak = traced_peak(lambda: md._front(specs, [None] * batch, texts, params))
        assert peak < frames, peak / frames


def _weighted_ce(logits, labels, weights) -> float:
    return ad.weighted_ce_logits(Tensor(np.atleast_2d(logits)), np.atleast_1d(labels), weights).item()


class TestLossAndScore:
    def test_confident_correct_tiny_loss(self):
        assert _weighted_ce([30.0, -30.0], 0, (1.0, 9.0)) < 1e-12

    def test_hand_weighted_mean(self):
        loss = _weighted_ce([0.0, 0.0], 1, (1.0, 9.0))
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unit_weights_reduce_to_plain_ce(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(6, 2))
        labels = rng.integers(0, 2, size=6)
        got = _weighted_ce(logits, labels, (1.0, 1.0))
        shift = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shift) / np.exp(shift).sum(axis=1, keepdims=True)
        want = float(np.mean(-np.log(p[np.arange(6), labels])))
        assert got == pytest.approx(want, abs=1e-12)

    def test_tape_loss_agrees_with_float_loss(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(5, 2))
        labels = rng.integers(0, 2, size=5)
        t = ad.weighted_ce_logits(Tensor(logits), labels, (1.0, 3.0))
        shift = logits - logits.max(axis=1, keepdims=True)
        logp = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
        w = np.array([1.0, 3.0])[labels]
        want = float(np.sum(-w * logp[np.arange(5), labels]) / np.sum(w))
        assert float(t.values) == pytest.approx(want, abs=1e-13)

    def test_score_trivial_cases(self):
        np.testing.assert_array_equal(md.scores_from_logits(np.array([0.0, 0.0])), [0.0])
        np.testing.assert_array_equal(md.scores_from_logits(np.array([[2.0, -1.0]])), [3.0])

    def test_score_monotone_in_p_real(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(50, 2)) * 3
        scores = md.scores_from_logits(logits)
        p_real = 1.0 / (1.0 + np.exp(-(logits[:, 0] - logits[:, 1])))
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(p_real))


class TestCountParams:
    def test_hand_enumeration_202(self):
        cfg = AtcaConfig(d_spec=4, d_model=4, d_k=4, n_heads=1, gru_layers=1, gru_hidden=4, d_text=4)
        p = AtcaParams.init(cfg, seed=0)
        assert md.count_params(p) == 202
        assert md.count_params_for(cfg) == 202

    def test_head_split_invariance(self):
        a = md.count_params_for(_tiny_cfg(n_heads=1, d_k=4))
        b = md.count_params_for(_tiny_cfg(n_heads=2, d_k=2))
        c = md.count_params_for(_tiny_cfg(n_heads=4, d_k=1))
        assert a == b == c

    def test_large_config_no_overflow(self):
        cfg = AtcaConfig(
            d_spec=1024, d_model=4096, d_k=256, n_heads=16, gru_layers=4,
            gru_hidden=4096, d_text=8192,
        )
        n = md.count_params_for(cfg)
        assert n > 100_000_000
        assert isinstance(n, int)


class TestCheckpoint:
    def _params(self):
        cfg = _tiny_cfg(gru_layers=2, class_weights=(0.8, 1.2))
        p = AtcaParams.init(cfg, seed=17)
        p.buffers["norm_mu"][:] = np.random.default_rng(15).normal(size=(1, 3))
        return p

    def test_round_trip_bitwise(self, tmp_path):
        p = self._params()
        f = tmp_path / "model.atck"
        md.save_checkpoint(f, p)
        q = md.load_checkpoint(f)
        assert q.config == p.config
        for (na, a), (nb, b) in zip(p.named_arrays(), q.named_arrays()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        f2 = tmp_path / "again.atck"
        md.save_checkpoint(f2, q)
        assert f.read_bytes() == f2.read_bytes()

    def test_scores_identical_after_reload(self, tmp_path):
        p = self._params()
        f = tmp_path / "model.atck"
        md.save_checkpoint(f, p)
        q = md.load_checkpoint(f)
        rng = np.random.default_rng(16)
        spec = rng.normal(size=(3, 3))
        text = rng.normal(size=(2, 5))
        with no_grad():
            s1 = md.scores_from_logits(md.forward_batch([spec], [None], [text], p).values)
            s2 = md.scores_from_logits(md.forward_batch([spec], [None], [text], q).values)
        assert s1 == s2

    def test_wrong_kind(self, tmp_path):
        f = tmp_path / "file.bin"
        f.write_bytes(b"ATEN" + b"\x00" * 16)
        with pytest.raises(WrongKind):
            md.load_checkpoint(f)
        f.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(BadHeader):
            md.load_checkpoint(f)

    def test_truncated(self, tmp_path):
        p = self._params()
        f = tmp_path / "model.atck"
        md.save_checkpoint(f, p)
        raw = f.read_bytes()
        f.write_bytes(raw[: len(raw) - 9])
        with pytest.raises(TruncatedFile):
            md.load_checkpoint(f)

    def test_corrupted_dims(self, tmp_path):
        p = self._params()
        f = tmp_path / "model.atck"
        md.save_checkpoint(f, p)
        raw = bytearray(f.read_bytes())
        blob_len = int.from_bytes(raw[8:12], "little")
        offset = 12 + blob_len  # first tensor record
        name_len = int.from_bytes(raw[offset : offset + 4], "little")
        dims_at = offset + 4 + name_len + 4
        raw[dims_at : dims_at + 4] = (99).to_bytes(4, "little")
        f.write_bytes(bytes(raw))
        with pytest.raises(ShapeMismatch):
            md.load_checkpoint(f)

    def test_nonfinite_payload(self, tmp_path):
        p = self._params()
        f = tmp_path / "model.atck"
        md.save_checkpoint(f, p)
        raw = bytearray(f.read_bytes())
        blob_len = int.from_bytes(raw[8:12], "little")
        offset = 12 + blob_len
        name_len = int.from_bytes(raw[offset : offset + 4], "little")
        payload_at = offset + 4 + name_len + 4 + 8
        import struct as _s

        raw[payload_at : payload_at + 8] = _s.pack("<d", math.inf)
        f.write_bytes(bytes(raw))
        with pytest.raises(NonFinite):
            md.load_checkpoint(f)
