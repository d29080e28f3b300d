"""Tensor engine tests: forward oracles, gradient rules, tape behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpae import tensor as T


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


class TestMatmul:
    def test_identity(self):
        x = T.Tensor(rand((3, 4), seed=1))
        out = T.matmul(T.Tensor(np.eye(3)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        a = T.Parameter(rand((3, 4), seed=2), "a")
        b = T.Parameter(rand((4, 2), seed=3), "b")
        err = T.grad_check(lambda: T.sum_all(T.matmul(a, b)), [a, b])
        assert err <= 1e-7


class TestSoftmaxRows:
    def test_equal_values_give_uniform(self):
        out = T.softmax_rows(T.Tensor(np.full((2, 5), 3.7)))
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-15)

    def test_closed_form(self):
        out = T.softmax_rows(T.Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_no_overflow_on_large_logits(self):
        out = T.softmax_rows(T.Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, x):
        out = T.softmax_rows(T.Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        x = T.Parameter(rand((3, 5), seed=4), "x")
        w = T.Tensor(rand((3, 5), seed=5))
        err = T.grad_check(lambda: T.sum_all(T.hadamard(T.softmax_rows(x), w)), [x])
        assert err <= 1e-7


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        gain = T.Tensor(np.ones(4))
        bias = T.Tensor(np.zeros(4))
        out = T.layer_norm(T.Tensor(np.full((2, 4), 5.0)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        gain = T.Tensor(np.ones(2))
        bias = T.Tensor(np.zeros(2))
        out = T.layer_norm(T.Tensor([[1.0, 3.0]]), gain, bias)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-5)

    def test_row_statistics(self):
        x = T.Tensor(rand((6, 9), seed=6, lo=-3, hi=3))
        out = T.layer_norm(x, T.Tensor(np.ones(9)), T.Tensor(np.zeros(9)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)

    def test_gradient(self):
        x = T.Parameter(rand((3, 6), seed=7), "x")
        gain = T.Parameter(rand((6,), seed=8, lo=0.5, hi=1.5), "g")
        bias = T.Parameter(rand((6,), seed=9), "b")
        w = T.Tensor(rand((3, 6), seed=10))
        err = T.grad_check(
            lambda: T.sum_all(T.hadamard(T.layer_norm(x, gain, bias), w)),
            [x, gain, bias],
        )
        assert err <= 1e-6


class TestElementwise:
    def test_sigmoid_zero(self):
        assert T.sigmoid(T.Tensor([[0.0]])).item() == 0.5

    def test_tanh_zero(self):
        assert T.tanh(T.Tensor([[0.0]])).item() == 0.0

    def test_gelu_known_values(self):
        # gelu(0) = 0 and gelu(x) - gelu(-x) = x
        assert T.gelu(T.Tensor([[0.0]])).item() == 0.0
        x = 0.7
        d = T.gelu(T.Tensor([[x]])).item() - T.gelu(T.Tensor([[-x]])).item()
        assert abs(d - x) < 1e-12

    def test_add_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 2))))

    def test_bias_row_broadcast(self):
        a = T.Tensor(np.zeros((3, 2)))
        b = T.Tensor([[1.0, 2.0]])
        out = T.add(a, b)
        np.testing.assert_array_equal(out.data, [[1, 2], [1, 2], [1, 2]])

    def test_bias_row_gradient(self):
        a = T.Parameter(rand((4, 3), seed=11), "a")
        b = T.Parameter(rand((1, 3), seed=12), "b")
        err = T.grad_check(lambda: T.sum_all(T.square(T.add(a, b))), [a, b])
        assert err <= 1e-7

    def test_hadamard_gradient(self):
        a = T.Parameter(rand((3, 3), seed=13), "a")
        b = T.Parameter(rand((3, 3), seed=14), "b")
        err = T.grad_check(lambda: T.sum_all(T.hadamard(a, b)), [a, b])
        assert err <= 1e-7


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        w = T.Parameter(rand((3, 2), seed=15), "w")
        T.backward(T.sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 2)))

    def test_quadratic_form(self):
        w = T.Parameter([[1.0, 2.0]], "w")
        out = T.sum_all(T.hadamard(w, w))
        T.backward(out)
        np.testing.assert_allclose(w.grad, [[2.0, 4.0]])

    def test_diamond_graph_accumulates_both_paths(self):
        # y = a*a + 3a  =>  dy/da = 2a + 3
        a = T.Parameter([[2.0]], "a")
        y = T.add(T.hadamard(a, a), T.scale(a, 3.0))
        T.backward(T.sum_all(y))
        np.testing.assert_allclose(a.grad, [[7.0]])

    def test_non_scalar_root_rejected(self):
        w = T.Parameter(rand((2, 2), seed=16), "w")
        with pytest.raises(T.ShapeError):
            T.backward(T.add(w, w))

    def test_backward_twice_deterministic(self):
        w = T.Parameter(rand((4, 4), seed=17), "w")
        v = T.Parameter(rand((4, 4), seed=18), "v")
        out = T.mean_all(T.square(T.matmul(w, v)))
        T.backward(out)
        g1 = (w.grad.copy(), v.grad.copy())
        T.zero_grads([w, v])
        T.backward(out)
        np.testing.assert_array_equal(w.grad, g1[0])
        np.testing.assert_array_equal(v.grad, g1[1])

    def test_unreachable_parameter_stays_zero(self):
        w = T.Parameter(rand((2, 2), seed=19), "w")
        u = T.Parameter(rand((2, 2), seed=20), "u")
        T.zero_grads([w, u])
        T.backward(T.sum_all(T.square(w)))
        assert np.all(u.grad == 0.0)


class TestStructuralOps:
    def test_slice_concat_roundtrip(self):
        x = T.Tensor(rand((5, 3), seed=21))
        parts = [T.slice_rows(x, i, i + 1) for i in range(5)]
        back = T.concat_rows(parts)
        np.testing.assert_array_equal(back.data, x.data)

    def test_slice_rows_gradient(self):
        x = T.Parameter(rand((5, 3), seed=22), "x")
        err = T.grad_check(lambda: T.sum_all(T.square(T.slice_rows(x, 1, 3))), [x])
        assert err <= 1e-7

    def test_slice_cols_gradient(self):
        x = T.Parameter(rand((3, 6), seed=23), "x")
        err = T.grad_check(lambda: T.sum_all(T.square(T.slice_cols(x, 2, 5))), [x])
        assert err <= 1e-7

    def test_concat_cols_gradient(self):
        a = T.Parameter(rand((2, 2), seed=24), "a")
        b = T.Parameter(rand((2, 3), seed=25), "b")
        err = T.grad_check(lambda: T.sum_all(T.square(T.concat_cols([a, b]))), [a, b])
        assert err <= 1e-7

    def test_reshape_transpose_gradient(self):
        x = T.Parameter(rand((4, 6), seed=26), "x")
        err = T.grad_check(
            lambda: T.sum_all(T.square(T.transpose(T.reshape(x, (8, 3))))), [x]
        )
        assert err <= 1e-7


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = T.Tensor(rand((4, 4), seed=27))
        out = T.dropout(x, 0.5, train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(28)
        x = T.Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.1, train=True, rng=rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.9)
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError):
            T.dropout(T.Tensor([[1.0]]), 0.5, train=True)


class TestLstmCell:
    def _params(self, d, h, seed):
        rng = np.random.default_rng(seed)
        return (
            T.Parameter(rng.uniform(-0.5, 0.5, (d, 4 * h)), "w_ih"),
            T.Parameter(rng.uniform(-0.5, 0.5, (h, 4 * h)), "w_hh"),
            T.Parameter(rng.uniform(-0.5, 0.5, (1, 4 * h)), "b"),
        )

    def test_zero_weights_give_zero_state(self):
        h = 3
        x = T.Tensor(rand((1, 4), seed=29))
        out = T.lstm_cell(
            x,
            T.Tensor(np.zeros((1, h))),
            T.Tensor(np.zeros((1, h))),
            T.Tensor(np.zeros((4, 4 * h))),
            T.Tensor(np.zeros((h, 4 * h))),
            T.Tensor(np.zeros((1, 4 * h))),
        )
        np.testing.assert_array_equal(out.data, np.zeros((2, h)))

    def test_scalar_hand_evaluation(self):
        # all weights 1, bias 0, input 0, h0 = c0 = 0:
        # i = f = o = sigmoid(0) = 0.5, g = tanh(0) = 0, c = 0, h = 0
        out = T.lstm_cell(
            T.Tensor([[0.0]]),
            T.Tensor([[0.0]]),
            T.Tensor([[0.0]]),
            T.Tensor(np.ones((1, 4))),
            T.Tensor(np.ones((1, 4))),
            T.Tensor(np.zeros((1, 4))),
        )
        np.testing.assert_array_equal(out.data, [[0.0], [0.0]])

    def test_gradient_single_step(self):
        d, h = 4, 3
        w_ih, w_hh, b = self._params(d, h, seed=30)
        x = T.Parameter(rand((1, d), seed=31), "x")
        h0 = T.Parameter(rand((1, h), seed=32), "h0")
        c0 = T.Parameter(rand((1, h), seed=33), "c0")

        def f():
            return T.sum_all(T.square(T.lstm_cell(x, h0, c0, w_ih, w_hh, b)))

        err = T.grad_check(f, [x, h0, c0, w_ih, w_hh, b], eps=1e-5)
        assert err <= 1e-6

    def test_gradient_three_step_sequence(self):
        d, h = 3, 2
        w_ih, w_hh, b = self._params(d, h, seed=34)
        seq = T.Parameter(rand((3, d), seed=35), "seq")

        def f():
            hs = T.Tensor(np.zeros((1, h)))
            cs = T.Tensor(np.zeros((1, h)))
            for t in range(3):
                hc = T.lstm_cell(T.slice_rows(seq, t, t + 1), hs, cs, w_ih, w_hh, b)
                hs = T.slice_rows(hc, 0, 1)
                cs = T.slice_rows(hc, 1, 2)
            return T.sum_all(T.square(cs))

        err = T.grad_check(f, [seq, w_ih, w_hh, b], eps=1e-5)
        assert err <= 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        onehot = np.array([[1.0, 0.0]])
        out = T.cross_entropy_logits(T.Tensor([[0.0, 0.0]]), onehot)
        assert abs(out.item() - np.log(2.0)) < 1e-12

    def test_large_margin_is_stable(self):
        onehot = np.array([[0.0, 1.0]])
        out = T.cross_entropy_logits(T.Tensor([[-500.0, 500.0]]), onehot)
        assert np.isfinite(out.item())
        assert out.item() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(36)
        z = T.Parameter(rng.normal(size=(5, 2)), "z")
        onehot = np.eye(2)[rng.integers(0, 2, size=5)]
        err = T.grad_check(lambda: T.cross_entropy_logits(z, onehot), [z])
        assert err <= 1e-7


class TestGradCheck:
    def test_quadratic_is_exact(self):
        w = T.Parameter(rand((3,), seed=37), "w")
        err = T.grad_check(lambda: T.sum_all(T.square(w)), [w])
        assert err <= 1e-9

    def test_eps_bounds_enforced(self):
        w = T.Parameter([[1.0]], "w")
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.sum_all(w), [w], eps=1e-2)

    def test_sampled_entries(self):
        w = T.Parameter(rand((10, 10), seed=39), "w")
        err = T.grad_check(
            lambda: T.mean_all(T.square(w)), [w], entries_per_param=5
        )
        assert err <= 1e-9

    def test_higher_order_stencil(self):
        w = T.Parameter(rand((4, 4), seed=41), "w")
        v = T.Tensor(rand((4, 4), seed=42))
        err = T.grad_check(
            lambda: T.sum_all(T.hadamard(T.gelu(w), v)), [w], order=4
        )
        assert err <= 1e-9
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.sum_all(w), [w], order=3)

    def test_finite_outputs_required(self):
        w = T.Parameter([[np.inf]], "w")
        with pytest.raises(FloatingPointError):
            T.grad_check(lambda: T.sum_all(w), [w])


def test_forward_values_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(40)
    x = T.Tensor(rng.uniform(-0.5, 1.5, (6, 8)))
    outs = [
        T.softmax_rows(x),
        T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))),
        T.gelu(x),
        T.sigmoid(T.scale(x, 100.0)),
        T.tanh(T.scale(x, 100.0)),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()
