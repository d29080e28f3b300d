"""Tensor engine tests: forward oracles, gradient rules, tape behaviour."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpae import tensor as T
from dpae.model import DESK_PROFILE, DPAE, PAPER_PROFILE


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def sum_all(x):
    """ones(1, r) @ x @ ones(c, 1): its backward seeds every entry with exactly 1.0."""
    r, c = x.shape
    return T.matmul(T.matmul(T.Tensor(np.ones((1, r))), x), T.Tensor(np.ones((c, 1))))


def softmax_grad(y, g):
    """The input gradient of y = softmax(x): y_ij * (g_ij - sum_k g_ik y_ik)."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


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
        err = T.grad_check(lambda: T.mse(T.matmul(a, b), 0.0), [a, b])
        assert err <= 1e-7

    def test_one_row_weight_gradient_is_the_gemm_bit_for_bit(self):
        # The backward forms a one-row product's weight gradient as the
        # broadcast outer product a^T * g; at the decoder expansion's paper
        # shape it must equal a^T @ g, the k = 1 GEMM, and accumulate.
        rng = np.random.default_rng(45)
        a = T.Tensor(rng.normal(size=(1, 128)))
        b = T.Parameter(rng.normal(size=(128, 7600)), "b")
        g = rng.normal(size=(1, 7600))
        want = a.data.T @ g
        with T.tape():
            T.matmul(a, b)._backward_fn(g)
            assert b.grad.tobytes() == want.tobytes()
            T.matmul(a, b)._backward_fn(g)
        assert b.grad.tobytes() == (want + want).tobytes()

    def test_zero_row_product_has_zero_weight_gradient(self):
        a = T.Tensor(np.zeros((0, 3)))
        b = T.Parameter(rand((3, 2), seed=49), "b")
        with T.tape():
            T.matmul(a, b)._backward_fn(np.zeros((0, 2)))
        np.testing.assert_array_equal(b.grad, np.zeros((3, 2)))

    def test_one_row_gradient_vs_finite_differences(self):
        a = T.Parameter(rand((1, 4), seed=46), "a")
        b = T.Parameter(rand((4, 3), seed=47), "b")
        w = rand((1, 3), seed=48)
        err = T.grad_check(lambda: T.mse(T.matmul(a, b), w), [a, b])
        assert err <= 1e-7


class TestSoftmaxRows:
    """`softmax` along the last axis: the MLP heads' class probabilities, and
    the ufuncs that attention applies in place."""

    def test_equal_values_give_uniform(self):
        out = T.softmax(np.full((2, 5), 3.7))
        np.testing.assert_allclose(out, np.full((2, 5), 0.2), atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(np.array([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)

    def test_no_overflow_on_large_logits(self):
        out = T.softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    def test_rows_sum_to_one(self, x):
        np.testing.assert_allclose(T.softmax(x).sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        # The input gradient rule of `per_head_attention`, the attention
        # reference, against central differences of sum(g * softmax(x)).
        x, g, eps = rand((3, 5), seed=4), rand((3, 5), seed=5), 1e-5
        fd = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            step = np.zeros_like(x)
            step[i] = eps
            fd[i] = np.sum(g * (T.softmax(x + step) - T.softmax(x - step))) \
                / (2.0 * eps)
        np.testing.assert_allclose(softmax_grad(T.softmax(x), g), fd,
                                   rtol=1e-7, atol=1e-10)


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
        w = rand((3, 6), seed=10)
        err = T.grad_check(lambda: T.mse(T.layer_norm(x, gain, bias), w),
                           [x, gain, bias])
        assert err <= 1e-6


class TestElementwise:
    def test_gelu_known_values(self):
        # gelu(0) = 0 and gelu(x) - gelu(-x) = x
        assert T.gelu(T.Tensor([[0.0]])).item() == 0.0
        x = 0.7
        d = T.gelu(T.Tensor([[x]])).item() - T.gelu(T.Tensor([[-x]])).item()
        assert abs(d - x) < 1e-12

    def test_gelu_derivative_flushes_subnormals(self):
        # gelu'(-38) is -4.2e-313, a subnormal: it comes out as exactly 0,
        # while gelu'(-37), -7.8e-297, is a normal number and is kept.
        x = T.Parameter([[-38.0, -37.0]], "x")
        with T.tape():
            T.gelu(x)._backward_fn(np.ones((1, 2)))
        assert x.grad[0, 0] == 0.0
        assert -1e-296 < x.grad[0, 1] < -np.finfo(np.float64).tiny

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
        err = T.grad_check(lambda: T.mse(T.add(a, b), 0.0), [a, b])
        assert err <= 1e-7


class TestConstants:
    """A plain ndarray operand is a constant: it is never on the tape, and no
    op forms its gradient."""

    def run(self, wrap, monkeypatch):
        """Parameter gradients of a graph that reads constants through
        matmul's left operand, concat_rows' parts and add's second operand
        (full-shape and bias row), each passed through `wrap`; the tape; and
        every node an op handed a gradient to."""
        rng = np.random.default_rng(54)
        x, row = rng.normal(size=(6, 4)), rng.normal(size=(2, 3))
        table, bias = rng.normal(size=(9, 3)), rng.normal(size=(1, 3))
        w = T.Parameter(rng.normal(size=(4, 3)), "w")
        c = T.Parameter(rng.normal(size=(1, 3)), "c")
        accum, reached = T._accum, []
        monkeypatch.setattr(T, "_accum", lambda node, g: (reached.append(node),
                                                          accum(node, g)))
        with T.tape() as nodes:
            h = T.gelu(T.matmul(wrap(x), w))
            seq = T.add(T.concat_rows([c, h, wrap(row)]), wrap(table))
            T.backward(T.mse(T.add(seq, wrap(bias)), 0.0))
        monkeypatch.undo()
        return (w.grad, c.grad), nodes, reached, (x, row, table, bias)

    def test_constants_are_off_the_tape_and_get_no_gradient(self, monkeypatch):
        grads, nodes, reached, consts = self.run(lambda a: a, monkeypatch)
        assert not any(node.data is a for node in nodes for a in consts)
        assert all(isinstance(node, T.Tensor) for node in reached)
        # The reference wraps each constant in a Tensor: it is on the tape and
        # gets a gradient, and the Parameters' gradients are the same bits.
        want, nodes, reached, consts = self.run(T.Tensor, monkeypatch)
        wrapped = [node for node in nodes for a in consts if node.data is a]
        assert len(wrapped) == len(consts)
        assert all(node in reached for node in wrapped)
        for got, ref in zip(grads, want):
            assert got.tobytes() == ref.tobytes()


class TestMse:
    @pytest.mark.parametrize("shape", [(200, 38), (228, 1)])
    @pytest.mark.parametrize("zero_target", [False, True])
    def test_matches_three_op_arithmetic_bit_for_bit(self, shape, zero_target):
        # The loss was mean_all(square(sub(a, target))), or mean_all(square(a))
        # for a plain mean of squares; written out here in numpy.
        rng = np.random.default_rng(sum(shape))
        a = T.Parameter(rng.normal(size=shape), "a")
        target = 0.0 if zero_target else rng.normal(size=shape)
        with T.tape():
            loss = T.mse(a, target)
            T.backward(loss)
        d = a.data if zero_target else a.data - target          # sub
        s = d * d                                                # square
        want = np.array(s.mean())                                # mean_all
        g_s = np.full_like(s, 1.0 / s.size)                      # mean_all backward
        g_d = 2.0 * g_s * d                                      # square backward
        assert loss.data.tobytes() == want.tobytes()
        assert a.grad.tobytes() == (0.0 + g_d).tobytes()  # onto zeroed grads

    def test_gradient(self):
        a = T.Parameter(rand((4, 3), seed=55), "a")
        target = rand((4, 3), seed=56)
        assert T.grad_check(lambda: T.mse(a, target), [a]) <= 1e-5
        assert T.grad_check(lambda: T.mse(a, 0.0), [a]) <= 1e-5

    @pytest.mark.parametrize("shape", [(3, 4), (1, 3), (4, 1), (12,)])
    def test_other_target_shapes_raise(self, shape):
        a = T.Parameter(rand((4, 3), seed=57), "a")
        with pytest.raises(T.ShapeError, match=r"\(4, 3\)"):
            T.mse(a, np.zeros(shape))


class TestBackward:
    def test_sum_of_parameter_gives_ones(self):
        w = T.Parameter(rand((3, 2), seed=15), "w")
        with T.tape():
            T.backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((3, 2)))

    def test_quadratic_form(self):
        # w w^T = sum(w^2) for one row  =>  dL/dw = 2w, one w along each path
        w = T.Parameter([[1.0, 2.0]], "w")
        with T.tape():
            out = T.matmul(w, T.transpose(w))
            T.backward(out)
        np.testing.assert_allclose(w.grad, [[2.0, 4.0]])

    def test_diamond_graph_accumulates_both_paths(self):
        # y = a a + 3 a  =>  dy/da = 2a + 3; a a takes a's gradient twice
        a = T.Parameter([[2.0]], "a")
        with T.tape():
            y = T.add(T.matmul(a, a), T.matmul(np.array([[3.0]]), a))
            T.backward(y)
        np.testing.assert_allclose(a.grad, [[7.0]])

    def test_non_scalar_root_rejected(self):
        w = T.Parameter(rand((2, 2), seed=16), "w")
        with T.tape(), pytest.raises(T.ShapeError):
            T.backward(T.add(w, w))

    def test_backward_twice_deterministic(self):
        w = T.Parameter(rand((4, 4), seed=17), "w")
        v = T.Parameter(rand((4, 4), seed=18), "v")
        with T.tape():
            out = T.mse(T.matmul(w, v), 0.0)
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
        with T.tape():
            T.backward(T.mse(w, 0.0))
        assert np.all(u.grad == 0.0)


class TestTape:
    def test_nothing_is_recorded_outside_a_tape(self):
        x = T.Parameter(rand((2, 2), seed=50), "x")
        assert T.matmul(x, x)._backward_fn is None
        with T.tape() as nodes:
            y = T.matmul(x, x)
        assert y._backward_fn is not None
        assert len(nodes) == 1 and nodes[0] is y
        model = DPAE(DESK_PROFILE, seed=0)
        latent, _ = model.encode(np.zeros((DESK_PROFILE.N, DESK_PROFILE.D)))
        assert latent._backward_fn is None

    def test_backward_outside_a_tape_raises(self):
        w = T.Parameter(rand((2, 2), seed=51), "w")
        with pytest.raises(RuntimeError, match="tape"):
            T.backward(T.mse(w, 0.0))

    def test_grad_check_leaves_the_outer_tape_alone(self):
        w = T.Parameter(rand((3, 3), seed=52), "w")
        v = T.Parameter(rand((3, 2), seed=53), "v")
        with T.tape() as nodes:
            out = T.mse(T.matmul(w, w), 0.0)
            T.backward(out)
            before = [(node, node.grad.copy()) for node in nodes]
            assert T.grad_check(lambda: T.mse(v, 0.0), [v]) <= 1e-7
            assert len(nodes) == len(before)
            for (node, grad), now in zip(before, nodes):
                assert now is node and now.grad.tobytes() == grad.tobytes()
            last = T.mse(out, 0.0)
        assert nodes[-1] is last


class TestStructuralOps:
    def test_slice_concat_roundtrip(self):
        x = T.Tensor(rand((5, 3), seed=21))
        parts = [T.slice_rows(x, i, i + 1) for i in range(5)]
        back = T.concat_rows(parts)
        np.testing.assert_array_equal(back.data, x.data)

    def test_slice_rows_gradient(self):
        x = T.Parameter(rand((5, 3), seed=22), "x")
        err = T.grad_check(lambda: T.mse(T.slice_rows(x, 1, 3), 0.0), [x])
        assert err <= 1e-7

    def test_reshape_transpose_gradient(self):
        x = T.Parameter(rand((4, 6), seed=26), "x")
        err = T.grad_check(
            lambda: T.mse(T.transpose(T.reshape(x, (8, 3))), 0.0), [x])
        assert err <= 1e-7


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = T.Tensor(rand((4, 4), seed=27))
        out = T.dropout(x, 0.5, None)
        np.testing.assert_array_equal(out.data, x.data)
        assert out is x

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(28)
        x = T.Tensor(np.ones((200, 200)))
        out = T.dropout(x, 0.1, rng)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.9)
        assert abs(out.data.mean() - 1.0) < 0.01


def hex_rows(*rows):
    return np.array([[float.fromhex(v) for v in row] for row in rows])


class TestLstm:
    def _params(self, d, h, seed):
        rng = np.random.default_rng(seed)
        return (
            T.Parameter(rng.uniform(-0.5, 0.5, (d, 4 * h)), "w_ih"),
            T.Parameter(rng.uniform(-0.5, 0.5, (h, 4 * h)), "w_hh"),
            T.Parameter(rng.uniform(-0.5, 0.5, (1, 4 * h)), "b"),
        )

    def test_zero_weights_give_zero_output(self):
        h = 3
        out = T.lstm(
            T.Tensor(rand((3, 4), seed=29)),
            T.Tensor(np.zeros((4, 4 * h))),
            T.Tensor(np.zeros((h, 4 * h))),
            T.Tensor(np.zeros((1, 4 * h))),
        )
        np.testing.assert_array_equal(out.data, np.zeros((4, h)))

    def test_one_step_hand_evaluation(self):
        # all weights 1, bias 0, input 1, zero state: every gate sees 1, so
        # i = f = o = sigmoid(1), g = tanh(1), c = i * g, h = o * tanh(c)
        out = T.lstm(
            T.Tensor([[1.0]]),
            T.Tensor(np.ones((1, 4))),
            T.Tensor(np.ones((1, 4))),
            T.Tensor(np.zeros((1, 4))),
        )
        s = 1.0 / (1.0 + np.exp(-1.0))
        c = s * np.tanh(1.0)
        np.testing.assert_allclose(out.data, [[s * np.tanh(c)], [c]],
                                   rtol=1e-15)

    def test_shape_mismatch_raises(self):
        w_ih, w_hh, b = self._params(3, 2, seed=36)
        with pytest.raises(T.ShapeError):
            T.lstm(T.Tensor(rand((4, 2))), w_ih, w_hh, b)

    def test_gradient_single_step(self):
        d, h = 4, 3
        w_ih, w_hh, b = self._params(d, h, seed=30)
        x = T.Parameter(rand((1, d), seed=31), "x")

        def f():
            return T.mse(T.lstm(x, w_ih, w_hh, b), 0.0)

        err = T.grad_check(f, [x, w_ih, w_hh, b], eps=1e-5)
        assert err <= 1e-6

    def test_gradient_three_row_sequence(self):
        d, h = 3, 2
        w_ih, w_hh, b = self._params(d, h, seed=34)
        seq = T.Parameter(rand((3, d), seed=35), "seq")

        def f():
            return T.mse(T.lstm(seq, w_ih, w_hh, b), 0.0)

        err = T.grad_check(f, [seq, w_ih, w_hh, b], eps=1e-5)
        assert err <= 1e-6

    def test_matches_unrolled_cells_bit_for_bit(self):
        # `recorded` is from the per-step path this op replaced: one fused
        # cell per row returning [h; c], split with slice_rows, the hidden
        # states and the final cell state concatenated. Loss sum(out ** 2), whose
        # gradient 2 out is handed to the op's backward.
        # The forward still matches it bit for bit. The backward forms the
        # weight, bias and input gradients as GEMMs after the time loop, which
        # reorders their sums: `hoisted` records those bits. It then took every
        # step's gate derivative factors before the time loop, which
        # reassociates the dpre products: `factored` records those bits, and
        # both older records hold within 1e-12 relative.
        rng = np.random.default_rng(41)
        xs = T.Parameter(rng.uniform(-1.0, 1.0, (4, 3)), "xs")
        w_ih = T.Parameter(rng.uniform(-0.5, 0.5, (3, 8)), "w_ih")
        w_hh = T.Parameter(rng.uniform(-0.5, 0.5, (2, 8)), "w_hh")
        b = T.Parameter(rng.uniform(-0.5, 0.5, (1, 8)), "b")
        with T.tape():
            out = T.lstm(xs, w_ih, w_hh, b)
            out._backward_fn(2.0 * out.data)
        recorded = {
            "out": hex_rows(
                ("0x1.fb95e721b5af0p-10", "-0x1.b444a544b91cfp-4"),
                ("0x1.139c969f833a0p-6", "-0x1.0f065838853e8p-3"),
                ("-0x1.bdae788eb88d3p-4", "-0x1.41242c4fd2de9p-4"),
                ("-0x1.c68d003d45c4bp-6", "0x1.7d35c28380b90p-6"),
                ("-0x1.0edbe3e8ed1c4p-4", "0x1.7fd940052ce80p-5"),
            ),
            "xs": hex_rows(
                ("0x1.1bc6c339be4d7p-6", "0x1.ddf12ead476aap-7", "-0x1.1ea40bd6dda2dp-5"),
                ("0x1.4d8577d9fcf07p-7", "0x1.4edd6fe2c47f4p-8", "-0x1.3136ab7745880p-5"),
                ("-0x1.11f45d1abe515p-5", "-0x1.0763769babeaap-5", "-0x1.3c42caa66c5eap-5"),
                ("-0x1.7de3c735040f5p-5", "-0x1.e17aa76fe0d9cp-6", "-0x1.760bb8a61ae88p-9"),
            ),
            "w_ih": hex_rows(
                ("-0x1.f92cb12bc7f79p-11", "0x1.01b65e5f89d56p-5", "0x1.088fe96e42e43p-9",
                 "0x1.03f99549cb96bp-8", "-0x1.22fa35307534dp-5", "-0x1.398541a590772p-4",
                 "0x1.7e76c122ac8d4p-11", "0x1.982283f942288p-6"),
                ("0x1.8bc4a263e79a0p-10", "0x1.9b5a1f447d976p-6", "0x1.e09bf88294403p-9",
                 "0x1.cc84eb8cb89b3p-9", "-0x1.11bf87fd5225fp-4", "-0x1.b24df8e53b945p-5",
                 "0x1.83d2dcd983731p-9", "0x1.721e54930d627p-6"),
                ("-0x1.1f6b39515c388p-7", "-0x1.bd004f8e297b5p-7", "0x1.ad6ccb4a5d0ebp-8",
                 "-0x1.9c39ad58824dap-8", "-0x1.1d6d56d2fb3b1p-6", "0x1.53f8df612b7dep-4",
                 "-0x1.9102fc56406edp-9", "-0x1.1f27252088b5bp-6"),
            ),
            "w_hh": hex_rows(
                ("0x1.8c4559dffe135p-11", "-0x1.2ce4d9592284bp-10", "-0x1.efc8192a10e14p-11",
                 "0x1.27324238134a9p-11", "0x1.a424294afb2b4p-8", "-0x1.ed56657a7ff6bp-9",
                 "0x1.7b036ed5ee32cp-14", "0x1.bff64df29148cp-14"),
                ("-0x1.116d4d259ddf6p-9", "-0x1.eeb061907cd88p-10", "-0x1.0380b9dcaaf6fp-11",
                 "-0x1.53b0749ac7704p-11", "0x1.36575e6c54c11p-6", "0x1.197bb1c17697ap-8",
                 "-0x1.9dcfc6a13944ep-10", "-0x1.a10bc19f1d856p-9"),
            ),
            "bias": hex_rows(
                ("0x1.ca280f4db9598p-7", "0x1.717e4754f7550p-5", "0x1.d79014b9363bbp-8",
                 "0x1.243d4bff1c3ffp-8", "-0x1.6ddf1007d425dp-3", "-0x1.5966a41f94146p-4",
                 "0x1.95c9579d8722ep-7", "0x1.4e5f742f08552p-5"),
            ),
        }
        hoisted = {
            "xs": hex_rows(
                ("0x1.1bc6c339be4d7p-6", "0x1.ddf12ead476aap-7", "-0x1.1ea40bd6dda2dp-5"),
                ("0x1.4d8577d9fcf05p-7", "0x1.4edd6fe2c47f1p-8", "-0x1.3136ab7745881p-5"),
                ("-0x1.11f45d1abe514p-5", "-0x1.0763769babeabp-5", "-0x1.3c42caa66c5ebp-5"),
                ("-0x1.7de3c735040f5p-5", "-0x1.e17aa76fe0d9cp-6", "-0x1.760bb8a61ae96p-9"),
            ),
            "w_ih": hex_rows(
                ("-0x1.f92cb12bc7f78p-11", "0x1.01b65e5f89d56p-5", "0x1.088fe96e42e44p-9",
                 "0x1.03f99549cb96bp-8", "-0x1.22fa35307534dp-5", "-0x1.398541a590772p-4",
                 "0x1.7e76c122ac8d4p-11", "0x1.982283f942288p-6"),
                ("0x1.8bc4a263e79a1p-10", "0x1.9b5a1f447d975p-6", "0x1.e09bf88294402p-9",
                 "0x1.cc84eb8cb89b3p-9", "-0x1.11bf87fd5225fp-4", "-0x1.b24df8e53b944p-5",
                 "0x1.83d2dcd983731p-9", "0x1.721e54930d627p-6"),
                ("-0x1.1f6b39515c388p-7", "-0x1.bd004f8e297b3p-7", "0x1.ad6ccb4a5d0ecp-8",
                 "-0x1.9c39ad58824dbp-8", "-0x1.1d6d56d2fb3afp-6", "0x1.53f8df612b7dep-4",
                 "-0x1.9102fc56406edp-9", "-0x1.1f27252088b5cp-6"),
            ),
            "w_hh": hex_rows(
                ("0x1.8c4559dffe135p-11", "-0x1.2ce4d9592284bp-10", "-0x1.efc8192a10e15p-11",
                 "0x1.27324238134a8p-11", "0x1.a424294afb2b4p-8", "-0x1.ed56657a7ff6cp-9",
                 "0x1.7b036ed5ee32bp-14", "0x1.bff64df29148cp-14"),
                ("-0x1.116d4d259ddf6p-9", "-0x1.eeb061907cd88p-10", "-0x1.0380b9dcaaf6fp-11",
                 "-0x1.53b0749ac7705p-11", "0x1.36575e6c54c11p-6", "0x1.197bb1c176979p-8",
                 "-0x1.9dcfc6a13944fp-10", "-0x1.a10bc19f1d856p-9"),
            ),
            "bias": hex_rows(
                ("0x1.ca280f4db9598p-7", "0x1.717e4754f7550p-5", "0x1.d79014b9363bbp-8",
                 "0x1.243d4bff1c400p-8", "-0x1.6ddf1007d425ep-3", "-0x1.5966a41f94145p-4",
                 "0x1.95c9579d8722ep-7", "0x1.4e5f742f08552p-5"),
            ),
        }
        factored = {
            "xs": hex_rows(
                ("0x1.1bc6c339be4d8p-6", "0x1.ddf12ead476abp-7", "-0x1.1ea40bd6dda2fp-5"),
                ("0x1.4d8577d9fcf02p-7", "0x1.4edd6fe2c47f1p-8", "-0x1.3136ab7745881p-5"),
                ("-0x1.11f45d1abe515p-5", "-0x1.0763769babeacp-5", "-0x1.3c42caa66c5ebp-5"),
                ("-0x1.7de3c735040f4p-5", "-0x1.e17aa76fe0d9ap-6", "-0x1.760bb8a61ae8ep-9"),
            ),
            "w_ih": hex_rows(
                ("-0x1.f92cb12bc7f7ap-11", "0x1.01b65e5f89d57p-5", "0x1.088fe96e42e44p-9",
                 "0x1.03f99549cb96bp-8", "-0x1.22fa35307534ep-5", "-0x1.398541a590773p-4",
                 "0x1.7e76c122ac8d5p-11", "0x1.982283f942289p-6"),
                ("0x1.8bc4a263e79a1p-10", "0x1.9b5a1f447d976p-6", "0x1.e09bf88294404p-9",
                 "0x1.cc84eb8cb89b2p-9", "-0x1.11bf87fd5225fp-4", "-0x1.b24df8e53b946p-5",
                 "0x1.83d2dcd983731p-9", "0x1.721e54930d628p-6"),
                ("-0x1.1f6b39515c389p-7", "-0x1.bd004f8e297b5p-7", "0x1.ad6ccb4a5d0edp-8",
                 "-0x1.9c39ad58824dbp-8", "-0x1.1d6d56d2fb3aap-6", "0x1.53f8df612b7dfp-4",
                 "-0x1.9102fc56406eep-9", "-0x1.1f27252088b5cp-6"),
            ),
            "w_hh": hex_rows(
                ("0x1.8c4559dffe136p-11", "-0x1.2ce4d9592284bp-10", "-0x1.efc8192a10e17p-11",
                 "0x1.27324238134a9p-11", "0x1.a424294afb2b2p-8", "-0x1.ed56657a7ff6cp-9",
                 "0x1.7b036ed5ee32ep-14", "0x1.bff64df29148cp-14"),
                ("-0x1.116d4d259ddf6p-9", "-0x1.eeb061907cd87p-10", "-0x1.0380b9dcaaf6fp-11",
                 "-0x1.53b0749ac7705p-11", "0x1.36575e6c54c12p-6", "0x1.197bb1c176979p-8",
                 "-0x1.9dcfc6a139450p-10", "-0x1.a10bc19f1d856p-9"),
            ),
            "bias": hex_rows(
                ("0x1.ca280f4db959ap-7", "0x1.717e4754f7550p-5", "0x1.d79014b9363bdp-8",
                 "0x1.243d4bff1c3ffp-8", "-0x1.6ddf1007d425ep-3", "-0x1.5966a41f94147p-4",
                 "0x1.95c9579d87230p-7", "0x1.4e5f742f08554p-5"),
            ),
        }
        got = {"out": out.data, "xs": xs.grad, "w_ih": w_ih.grad,
               "w_hh": w_hh.grad, "bias": b.grad}
        assert got["out"].tobytes() == recorded["out"].tobytes()
        for name, want in factored.items():
            assert got[name].tobytes() == want.tobytes(), name
            for older in (recorded, hoisted):
                np.testing.assert_allclose(got[name], older[name], rtol=1e-12,
                                           atol=0.0, err_msg=name)

    def _stack(self, n, d, h, seed):
        """xs and (w_ih, w_hh, bias) for two layers, bottom first, as Parameters."""
        rng = np.random.default_rng(seed)
        shapes = [(d, 4 * h), (h, 4 * h), (1, 4 * h), (h, 4 * h), (h, 4 * h), (1, 4 * h)]
        return (T.Parameter(rng.uniform(-1.0, 1.0, (n, d)), "xs"),
                [T.Parameter(rng.uniform(-0.5, 0.5, s), f"w{j}")
                 for j, s in enumerate(shapes)])

    @pytest.mark.parametrize("n, d, h", [(191, 40, 40), (33, 20, 20), (1, 40, 40)],
                             ids=["paper", "desk", "one_row"])
    def test_two_layers_match_two_chained_layers_bit_for_bit(self, n, d, h):
        # The chain is the two one-layer ops with slice_rows between them, as
        # the encoder ran its stack before the stacked op.
        def chained(xs, w):
            return T.lstm(T.slice_rows(T.lstm(xs, *w[:3]), 0, n), *w[3:])

        target = rand((n + 1, h), seed=43)
        got = []
        for run in (chained, lambda xs, w: T.lstm(xs, *w)):
            xs, w = self._stack(n, d, h, seed=42)
            with T.tape():
                out = run(xs, w)
                T.backward(T.mse(out, target))
            got.append([out.data, xs.grad] + [p.grad for p in w])
        for name, want, have in zip(["out", "xs"] + [f"w{j}" for j in range(6)], *got):
            assert have.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [4, 1])
    def test_gradient_two_layer_stack(self, n):
        xs, w = self._stack(n, 3, 2, seed=44)

        def f():
            return T.mse(T.lstm(xs, *w), 0.0)

        assert T.grad_check(f, [xs, *w], eps=1e-5) <= 1e-5

    @pytest.mark.parametrize("drop", [slice(0, 5), slice(0, 4), slice(0, 0)],
                             ids=["five_arrays", "four_arrays", "none"])
    def test_weight_count_not_a_multiple_of_three_raises(self, drop):
        xs, w = self._stack(4, 3, 2, seed=45)
        with T.tape() as nodes, pytest.raises(T.ShapeError, match="per layer"):
            T.lstm(xs, *w[drop])
        assert nodes == []

    def test_upper_layer_must_take_the_lower_hidden_width(self):
        xs, w = self._stack(4, 3, 2, seed=46)
        w[3] = T.Parameter(rand((3, 8), seed=47), "w_ih1")  # reads 3 columns, not 2
        with T.tape() as nodes, pytest.raises(T.ShapeError, match="layer 1"):
            T.lstm(xs, *w)
        assert nodes == []


def hex_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(",".join(float.hex(v) for v in a.ravel().tolist()).encode())
        h.update(b";")
    return h.hexdigest()


def per_head_attention(x, qkv, proj, w, heads):
    """out = attention(x @ qkv) @ proj and the x, qkv and proj gradients of
    mean((out - w) ** 2), head by head in 2-D matmuls, in the arithmetic that
    `TestAttention.RECORDED` was taken with."""
    n, d = x.shape
    dh = d // heads
    factor = 1.0 / np.sqrt(dh)
    a = x @ qkv
    cols = [[slice((3 * h + j) * dh, (3 * h + j + 1) * dh) for j in range(3)]
            for h in range(heads)]
    ys = [T.softmax(a[:, q] @ np.ascontiguousarray(a[:, k].T) * factor)
          for q, k, _ in cols]
    att = np.concatenate([y @ a[:, v] for y, (_, _, v) in zip(ys, cols)], axis=1)
    out = att @ proj
    gout = 2.0 * np.full_like(out, 1.0 / out.size) * (out - w)
    datt = gout @ proj.T
    da = np.empty_like(a)
    for h, (y, (q, k, v)) in enumerate(zip(ys, cols)):
        g = datt[:, h * dh:(h + 1) * dh]
        dl = softmax_grad(y, g @ a[:, v].T) * factor
        da[:, q] = dl @ np.ascontiguousarray(a[:, k].T).T
        da[:, k] = (a[:, q].T @ dl).T
        da[:, v] = y.T @ g
    # Gradients land on zeroed parameter buffers, which turns -0.0 into 0.0.
    return out, 0.0 + da @ qkv.T, 0.0 + x.T @ da, 0.0 + att.T @ gout


class TestAttention:
    # (rows, width, heads): the gradcheck toy, one desk block, one paper block,
    # a single head and a single row.
    CASES = {
        "toy": (7, 4, 2),
        "desk": (DESK_PROFILE.N + 1, DESK_PROFILE.D, DESK_PROFILE.heads),
        "paper": (PAPER_PROFILE.N + 1, PAPER_PROFILE.D, PAPER_PROFILE.heads),
        "one_head": (7, 4, 1),
        "one_row": (1, DESK_PROFILE.D, DESK_PROFILE.heads),
    }
    # Recorded from the per-head tape this op replaced: per head, three
    # column slices, a transpose, q @ k^T scaled by 1/sqrt(dh), softmax_rows
    # and a matmul with v; then the heads concatenated by columns. Each digest
    # covers the output of x @ qkv -> attention -> @ proj and the x, qkv and
    # proj gradients of mean((out - w) ** 2).
    RECORDED = {
        "toy": "210150b402ed5b177fa79c925b7fc9f0e7c6feb7cf5abde999dd4b4fee37004f",
        "desk": "f1f8813c7ecc3d32801a01404f65382a091231bc2e1ecdf63a9bd2c0e4b1c5da",
        "paper": "b36118c15520b3c9f31c221118a20e4eb0da4824e4ef99d1cdea8ecddd8815b2",
        "one_head": "941e48d8899756e1e5c036fc88527bbf82b02b473ba7f5a65140c772da187a38",
        "one_row": "394d68122b6dad8ad9c869382705b7e7b7f8020159b043bd38a4946ee528bcac",
    }

    def run(self, name):
        """(op's output and x, qkv, proj gradients, the same from the reference)."""
        n, d, heads = self.CASES[name]
        rng = np.random.default_rng(sum(map(ord, name)))
        x = T.Parameter(rng.normal(size=(n, d)), "x")
        qkv = T.Parameter(rng.normal(size=(d, 3 * d)) / np.sqrt(d), "qkv")
        proj = T.Parameter(rng.normal(size=(d, d)) / np.sqrt(d), "proj")
        w = rng.normal(size=(n, d))
        with T.tape():
            out = T.matmul(T.attention(T.matmul(x, qkv), heads), proj)
            T.backward(T.mse(out, w))
        return ((out.data, x.grad, qkv.grad, proj.grad),
                per_head_attention(x.data, qkv.data, proj.data, w, heads))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_per_head_tape_bit_for_bit(self, name):
        # The reference repeats the tape's arithmetic bit for bit, and the
        # op's forward repeats the reference's.
        got, want = self.run(name)
        assert hex_digest(*want) == self.RECORDED[name]
        assert got[0].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradients_match_per_head_reference(self, name):
        # The backward takes the softmax row sums over the dh columns of the
        # head output and scales dq and dk instead of the scores, which
        # reorders sums. Tolerance: 1e-12 of each gradient's largest entry
        # (7.7e-16 measured); entries that cancel move by more relative to
        # themselves (1.5e-11 measured), so the bound is not elementwise.
        got, want = self.run(name)
        for label, g, r in zip(("x", "qkv", "proj"), got[1:], want[1:]):
            assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max(), label

    def test_equal_keys_average_the_values(self):
        # One head whose keys are all equal attends uniformly to every row.
        rng = np.random.default_rng(42)
        q, v = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        k = np.tile(rng.normal(size=(1, 3)), (5, 1))
        out = T.attention(T.Tensor(np.concatenate([q, k, v], axis=1)), 1)
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (5, 1)),
                                   rtol=1e-12)

    def test_gradient(self):
        qkv = T.Parameter(rand((5, 18), seed=43), "qkv")
        w = rand((5, 6), seed=44)
        err = T.grad_check(lambda: T.mse(T.attention(qkv, 2), w), [qkv])
        assert err <= 1e-7

    @pytest.mark.parametrize("shape, heads", [
        ((4, 10), 2), ((4, 12), 5), ((4, 12), 0), ((12,), 2), ((2, 4, 12), 2)])
    def test_shape_errors(self, shape, heads):
        with pytest.raises(T.ShapeError):
            T.attention(T.Tensor(np.zeros(shape)), heads)


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
        err = T.grad_check(lambda: T.mse(w, 0.0), [w])
        assert err <= 1e-9

    def test_eps_bounds_enforced(self):
        w = T.Parameter([[1.0]], "w")
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.mse(w, 0.0), [w], eps=1e-2)

    def test_sampled_entries(self):
        w = T.Parameter(rand((10, 10), seed=39), "w")
        err = T.grad_check(lambda: T.mse(w, 0.0), [w], entries_per_param=5)
        assert err <= 1e-9

    def test_higher_order_stencil(self):
        # gelu(w) + w has a derivative of at least 0.8, which keeps every
        # entry's gradient away from zero; w holds -0.748, next to gelu's
        # stationary point, where a gradient carrying gelu'(w) as a factor is
        # too small to certify at this tolerance.
        w = T.Parameter(rand((4, 4), seed=41), "w")
        err = T.grad_check(lambda: T.mse(T.add(T.gelu(w), w), 0.0), [w], order=4)
        assert err <= 1e-9
        with pytest.raises(ValueError):
            T.grad_check(lambda: T.mse(w, 0.0), [w], order=3)

    def test_finite_outputs_required(self):
        w = T.Parameter([[np.inf]], "w")
        with pytest.raises(FloatingPointError):
            T.grad_check(lambda: T.mse(w, 0.0), [w])


def test_forward_values_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(40)
    x = T.Tensor(rng.uniform(-0.5, 1.5, (6, 8)))
    qkv = T.Tensor(rng.uniform(-0.5, 1.5, (6, 12)))
    outs = [
        T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))),
        T.gelu(x),
        T.attention(qkv, 2),
    ]
    for out in outs:
        assert np.isfinite(out.data).all()
