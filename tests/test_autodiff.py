"""The tape engine of ``atcadet.autodiff``, driven by the generic ops in
``_oracles`` that build the test reference graphs, and those ops' own
values and gradients."""

import inspect
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from atcadet import autodiff as ad
from atcadet.autodiff import Tape, Tensor, backward, no_grad
from atcadet.errors import DetachedTensor, NonFinite, NotScalarLoss, ShapeMismatch

import _oracles as ops
from _oracles import fd_gradients, make_leaf, rel_errors


class TestMatmul:
    def test_identity(self):
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ops.matmul(eye, b)
        np.testing.assert_array_equal(out.values, b.values)

    def test_hand_sum(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).values, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ops.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = make_leaf(rng, (3, 4))
        b = make_leaf(rng, (4, 2))

        def loss_fn():
            with no_grad():
                return float((a.values @ b.values).sum())

        with Tape() as tape:
            loss = ops.sum_all(ops.matmul(a, b))
        grads = backward(tape, loss)
        fd, _ = fd_gradients(loss_fn, [a, b])
        assert rel_errors(grads[a], fd[0]).max() < 1e-6
        assert rel_errors(grads[b], fd[1]).max() < 1e-6

    def test_transpose_b_gradients(self):
        rng = np.random.default_rng(1)
        a = make_leaf(rng, (3, 4))
        b = make_leaf(rng, (5, 4))

        def loss_fn():
            with no_grad():
                return float((a.values @ b.values.T).sum())

        with Tape() as tape:
            loss = ops.sum_all(ops.matmul(a, b, transpose_b=True))
        grads = backward(tape, loss)
        fd, _ = fd_gradients(loss_fn, [a, b])
        assert rel_errors(grads[a], fd[0]).max() < 1e-6
        assert rel_errors(grads[b], fd[1]).max() < 1e-6


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ops.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_hand_computation(self):
        out = ops.softmax_rows(Tensor([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out.values, [[0.25, 0.75]], atol=1e-12)

    def test_large_values_no_overflow(self):
        out = ops.softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_array_equal(out.values, [[0.5, 0.5]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ops.softmax_rows(Tensor(rng.normal(size=(40, 7)) * 10))
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-9)

    def test_exact_shift_invariance(self):
        # integer-valued inputs and shifts keep the additions exact, so
        # max-subtraction yields bit-identical results
        rng = np.random.default_rng(3)
        x = rng.integers(-8, 9, size=(5, 6)).astype(np.float64)
        shifted = x + 256.0
        a = ops.softmax_rows(Tensor(x)).values
        b = ops.softmax_rows(Tensor(shifted)).values
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_linear_case(self):
        w = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(w)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[w], np.ones((2, 2)))

    def test_quadratic_case(self):
        w = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        with Tape() as tape:
            loss = ops.affine(ops.sum_all(ops.hadamard(w, w)), 0.5)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[w], w.values, atol=1e-15)

    def test_untouched_tensor_gets_zero(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ops.sum_all(w)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[unused], np.zeros(3))

    def test_not_scalar_loss(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            out = ops.tanh(w)
        with pytest.raises(NotScalarLoss):
            backward(tape, out)

    def test_detached_loss(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            ops.sum_all(w)
        other = ops.sum_all(w)  # recorded on no tape
        with pytest.raises(DetachedTensor):
            backward(tape, other)

    def test_grad_query_on_non_grad_tensor(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            loss = ops.sum_all(ops.hadamard(w, x))
        grads = backward(tape, loss)
        with pytest.raises(DetachedTensor):
            grads[x]

    def test_backward_deterministic(self):
        rng = np.random.default_rng(4)
        w = make_leaf(rng, (4, 4))
        x = make_leaf(rng, (4, 4))
        with Tape() as tape:
            loss = ops.affine(ops.sum_all(ops.tanh(ops.matmul(w, ops.sigmoid(x)))), 1.0 / 16)
        g1 = backward(tape, loss)
        g2 = backward(tape, loss)
        np.testing.assert_array_equal(g1[w], g2[w])
        np.testing.assert_array_equal(g1[x], g2[x])


def _composite_graph(leaves):
    a, b, c, bias = leaves
    h = ops.add(ops.matmul(a, b), bias)
    h = ops.tanh(h)
    s = ops.sigmoid(ops.matmul(h, c, transpose_b=True))
    s = ops.softmax_rows(s)
    top = ops.slice_rows(s, 0, 2)
    rest = ops.slice_rows(s, 2, s.shape[0])
    gathered = ops.gather_rows(ops.concat_rows([rest, top]), np.array([0, 1, 1, 2]))
    mixed = ops.hadamard(gathered, ops.affine(gathered, -0.5, 1.0))
    return ops.add(ops.affine(ops.sum_all(mixed), 1.0 / mixed.values.size), ops.affine(ops.sum_all(top), 0.01))


class TestEveryOpFiniteDifference:
    """Randomized finite-difference pass over a graph touching every op."""

    def test_composite_graph(self):
        rng = np.random.default_rng(5)
        leaves = [
            make_leaf(rng, (5, 3)),
            make_leaf(rng, (3, 4)),
            make_leaf(rng, (4, 4)),
            make_leaf(rng, (1, 4)),
        ]

        def loss_fn():
            with no_grad():
                return float(_composite_graph(leaves).values)

        with Tape() as tape:
            loss = _composite_graph(leaves)
        grads = backward(tape, loss)
        fd, _ = fd_gradients(loss_fn, leaves)
        errs = np.concatenate([rel_errors(grads[t], f) for t, f in zip(leaves, fd)])
        assert np.quantile(errs, 0.99) < 1e-4
        assert errs.max() < 1e-2

    def test_weighted_ce_gradients(self):
        rng = np.random.default_rng(6)
        logits = make_leaf(rng, (6, 2), scale=2.0)
        labels = rng.integers(0, 2, size=6)
        weights = (1.0, 4.0)

        def loss_fn():
            with no_grad():
                return float(ad.weighted_ce_logits(logits, labels, weights).values)

        with Tape() as tape:
            loss = ad.weighted_ce_logits(logits, labels, weights)
        grads = backward(tape, loss)
        fd, _ = fd_gradients(loss_fn, [logits])
        assert rel_errors(grads[logits], fd[0]).max() < 1e-6


class TestTapeBehaviour:
    def test_no_recording_outside_tape(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ops.sum_all(w)
        assert out.requires_grad

    def test_no_grad_blocks_recording(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            with no_grad():
                ops.sum_all(w)
        assert len(tape) == 0

    def test_constant_inputs_not_recorded(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            ops.sum_all(x)
        assert len(tape) == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            Tensor([np.inf, 1.0])

    def test_finite_preserving(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(8, 8)) * 50)
        for op in (ops.sigmoid, ops.tanh, ops.softmax_rows):
            assert np.all(np.isfinite(op(x).values))


class TestSigmoidValues:
    """The tanh-form logistic against the logistic worked out to 40 digits
    and against the exp form it replaced (``_oracles``), over a sweep that
    takes in both tails, ±1e308, ±inf, ±0.0 and subnormals."""

    EDGES = [1e308, -1e308, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]

    def _sweep(self):
        rng = np.random.default_rng(11)
        return np.concatenate([np.linspace(-50.0, 50.0, 20001), rng.normal(scale=8.0, size=20000),
                               self.EDGES])

    def test_within_2_pow_minus_53_of_the_logistic(self):
        v = self._sweep()
        got = ad.sigmoid_values(v)
        worst = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 40
            for x, y in zip(v.tolist(), got.tolist()):
                e = Decimal(-abs(x)).exp()  # of a number <= 0: no overflow
                truth = 1 / (1 + e) if x >= 0 else e / (1 + e)
                worst = max(worst, abs(Decimal(y) - truth))
        assert worst <= Decimal(2.0**-53)

    def test_near_the_exp_form_and_equal_at_the_edges(self):
        # each form rounds: the exp form is off the logistic by up to 1.5 *
        # 2**-53, so the two differ by up to 2**-52 (in about 0.3 % of the
        # points of a dense sweep)
        v = self._sweep()
        with np.errstate(all="ignore"):  # the exp form underflows on the tails
            want = ops.sigmoid_values_ref(v)
        got = ad.sigmoid_values(v)
        assert np.abs(got - want).max() <= 2.0**-52
        edges = len(self.EDGES)
        assert got[-edges:].tobytes() == want[-edges:].tobytes()
        assert ad.sigmoid_values(np.array([-40.0]))[0] == 0.0 < want[v == -40.0][0]

    def test_nan_passes_and_no_floating_point_fault(self):
        v = np.append(self._sweep(), [np.nan, -np.nan])
        with np.errstate(all="raise"):
            got = ad.sigmoid_values(v)
        assert np.isnan(got[-2:]).all()
        assert ((got[:-2] >= 0.0) & (got[:-2] <= 1.0)).all()

    def test_writes_out_in_place(self):
        v = self._sweep()
        want = ad.sigmoid_values(v)
        out = np.full_like(v, np.nan)
        assert ad.sigmoid_values(v, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert ad.sigmoid_values(v, out=v) is v  # over its own input
        assert v.tobytes() == want.tobytes()


def test_package_surface_is_the_engine_alone():
    """The generic op layer lives in the tests, not in the package."""
    public = {name for name, obj in inspect.getmembers(ad, callable)
              if not name.startswith("_") and getattr(obj, "__module__", None) == ad.__name__}
    assert public == {"Tensor", "Tape", "no_grad", "GradientMap", "backward", "sigmoid_values", "weighted_ce_logits"}
