import inspect
import math
import weakref
import zlib

import numpy as np
import pytest
from scipy.special import erf

from deskclip import tensor as T
from deskclip.encoders import _block, _block_shapes
from deskclip.errors import ContractError, DimensionError
from deskclip.tensor import Tensor


def rand_tensor(rng, shape, requires_grad=False, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


class TestMatmul:
    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose((a @ b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, (5, 5))
        eye = Tensor(np.eye(5))
        np.testing.assert_allclose((a @ eye).data, a.data)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        b = rand_tensor(rng, (4, 2))
        proj = rng.standard_normal((3, 2))

        def f(a):
            return T.tsum(T.mul(T.matmul(a, Tensor(b.data, dtype=a.dtype)), Tensor(proj, dtype=a.dtype)))

        err = T.grad_check(f, rand_tensor(rng, (3, 4)), eps=1e-3)
        assert err < 1e-3

        a = rand_tensor(rng, (3, 4))

        def g(bt):
            return T.tsum(T.mul(T.matmul(Tensor(a.data, dtype=bt.dtype), bt), Tensor(proj, dtype=bt.dtype)))

        assert T.grad_check(g, b, eps=1e-3) < 1e-3

    def test_agrees_with_triple_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            m, k, n = rng.integers(1, 33, size=3)
            a = rng.standard_normal((m, k)).astype(np.float32)
            b = rng.standard_normal((k, n)).astype(np.float32)
            ref = np.zeros((m, n), dtype=np.float64)
            for i in range(m):
                for j in range(n):
                    acc = 0.0
                    for t in range(k):
                        acc += float(a[i, t]) * float(b[t, j])
                    ref[i, j] = acc
            got = T.matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(3, 4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(DimensionError, match=r"\(2, 3, 4\).*\(4, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2))))


class TestLayerNorm:
    def test_hand_row(self):
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)
        np.testing.assert_allclose(out.data, [-1.2247449, 0.0, 1.2247449], atol=1e-6)

    def test_constant_row_is_zero(self):
        out = T.layer_norm(Tensor(np.full((2, 4), 3.7)), Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-7)

    def test_moments_of_output(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (2, 8), scale=3.0)
        out = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)), eps=0.0).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(T.softmax_rows(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = T.softmax_rows(Tensor([math.log(2.0), 0.0])).data
        np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-7)

    def test_overflow_safety(self):
        out = T.softmax_rows(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one_at_large_magnitude(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((16, 9)) * 1e3)
        s = T.softmax_rows(x).data.sum(axis=-1)
        np.testing.assert_allclose(s, 1.0, atol=1e-6)


class TestBackward:
    def test_square(self):
        x = Tensor([3.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        T.backward(T.tsum(T.add(x, x)))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_shared_subexpression_equals_unrolled(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(6).astype(np.float32)

        x1 = Tensor(vals, requires_grad=True)
        z = T.mul(x1, x1)
        T.backward(T.tsum(T.add(z, z)))

        x2 = Tensor(vals, requires_grad=True)
        T.backward(T.tsum(T.add(T.mul(x2, x2), T.mul(x2, x2))))

        np.testing.assert_array_equal(x1.grad, x2.grad)

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            T.backward(T.mul(x, x))

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.mul(x, x))
        assert not y.requires_grad

    def test_frozen_tensor_never_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        T.backward(T.tsum(T.mul(x, c)))
        assert c.grad is None

    def test_second_walk_of_the_same_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.tsum(T.mul(x, x))
        T.backward(y)
        with pytest.raises(ContractError, match="walked once"):
            T.backward(y)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_walk_reaching_a_consumed_intermediate_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        h = T.mul(x, x)
        T.backward(T.tsum(h))
        with pytest.raises(ContractError, match="walked once"):
            T.backward(T.tsum(T.gelu(h)))

    def test_walk_frees_saved_activations(self):
        rng = np.random.default_rng(11)
        x = rand_tensor(rng, (4, 3), requires_grad=True)
        w = rand_tensor(rng, (3, 5), requires_grad=True)
        h = T.matmul(x, w)
        saved = weakref.ref(h.data)
        y = T.tsum(T.gelu(h))
        del h
        T.backward(y)
        assert saved() is None  # y is still alive, but no longer holds the graph
        assert x.grad.shape == (4, 3) and w.grad.shape == (3, 5)
        assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()

    def test_leaves_accumulate_across_separate_graphs(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        T.backward(T.tsum(T.mul(x, w)))
        T.backward(T.tsum(T.mul(T.mul(x, x), w)))
        np.testing.assert_allclose(x.grad, [3.0 + 2 * 3.0, 4.0 + 2 * 2 * 4.0])
        np.testing.assert_allclose(w.grad, [1.0 + 1.0, 2.0 + 4.0])


class TestPrecisionPolicy:
    """Ops compute in the storage dtype; float64 stays the exact oracle."""

    def test_float32_erf_within_5e_7_of_scipy(self):
        grid = np.linspace(-8.0, 8.0, 2_000_001).astype(np.float32)
        got = T.erf_f32(grid)
        assert got.dtype == np.float32
        assert np.abs(got - erf(grid.astype(np.float64))).max() < 5e-7

    def test_float32_erf_propagates_nan(self):
        got = T.erf_f32(np.array([np.nan, -np.inf, 0.5, np.inf], dtype=np.float32))
        assert np.isnan(got[0])
        np.testing.assert_array_equal(got[[1, 3]], [-1.0, 1.0])
        assert abs(got[2] - erf(0.5)) < 5e-7

    def test_float64_gelu_is_the_scipy_formula(self):
        x = np.random.default_rng(8).standard_normal((4, 33)) * 3.0
        got = T.gelu(Tensor(x, dtype=np.float64)).data
        np.testing.assert_array_equal(got, 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ops_keep_the_storage_dtype(self, dtype):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True, dtype=dtype)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True, dtype=dtype)
        gain = Tensor(np.ones(4), requires_grad=True, dtype=dtype)
        bias = Tensor(np.zeros(4), requires_grad=True, dtype=dtype)
        outs = [T.matmul(x, w), T.layer_norm(x, gain, bias), T.softmax_rows(x),
                T.l2_normalize_rows(x), T.gelu(x), T.cross_entropy(x, np.array([0, 3, 1]))]
        for out in outs:
            assert out.dtype == dtype
        total = outs[0]
        for out in outs[1:]:
            total = T.add(total, out)
        T.backward(T.tsum(total))
        for leaf in (x, w, gain, bias):
            assert leaf.grad.dtype == dtype

    @pytest.mark.parametrize("first,second", [(np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("op", ["add", "mul", "matmul", "linear", "layer_norm"])
    def test_mixed_dtypes_raise_naming_the_op_and_both_dtypes(self, op, first, second):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((4, 4)), dtype=first)
        b = Tensor(rng.standard_normal((4, 4)), dtype=second)
        bias = Tensor(np.zeros(4), dtype=second)
        build = {
            "add": lambda: T.add(a, b),
            "mul": lambda: T.mul(a, b),
            "matmul": lambda: T.matmul(a, b),
            "linear": lambda: T.linear(a, b, bias),
            "layer_norm": lambda: T.layer_norm(a, Tensor(np.ones(4), dtype=second), bias),
        }[op]
        with pytest.raises(ContractError, match=rf"^{op}:") as err:
            build()
        assert "float32" in str(err.value) and "float64" in str(err.value)

    def test_python_number_takes_the_tensor_dtype(self):
        x = np.random.default_rng(15).standard_normal(5)
        out = Tensor(x, dtype=np.float64) * 0.1
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, x * 0.1)

    def test_grads_stored_on_leaves_only(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        h = T.matmul(x, w)
        y = T.gelu(h)
        T.backward(T.tsum(y))
        assert x.grad is not None and w.grad is not None
        assert h.grad is None and y.grad is None


class TestEmbeddingBackward:
    def test_repeated_ids_sum_within_float32_rounding(self):
        """Each row's gradient is the sum of its occurrences, up to float32 summation order."""
        rng = np.random.default_rng(12)
        vocab, width = 259, 64
        ids = rng.integers(0, vocab, (64, 22))
        ids[:, 10:] = 256  # a padding id repeated hundreds of times, like caption batches
        g = rng.standard_normal((64, 22, width)).astype(np.float32) * 4.0
        table = Tensor(rng.standard_normal((vocab, width)), requires_grad=True)
        T.backward(T.tsum(T.mul(T.embedding(table, ids), Tensor(g))))

        exact = np.zeros((vocab, width))
        magnitude = np.zeros((vocab, width))
        for i, row in zip(ids.reshape(-1), g.reshape(-1, width).astype(np.float64)):
            exact[i] += row
            magnitude[i] += np.abs(row)
        count = np.bincount(ids.reshape(-1), minlength=vocab)[:, None]
        # a float32 sum of n terms is off by at most (n - 1) ulp-halves of the magnitude sum
        bound = np.maximum(count - 1, 0) * np.finfo(np.float32).eps / 2 * magnitude
        err = np.abs(table.grad.astype(np.float64) - exact)
        assert table.grad.dtype == np.float32
        assert np.all(err <= bound + np.abs(exact) * np.finfo(np.float32).eps / 2)
        np.testing.assert_array_equal(table.grad[count[:, 0] == 0], 0.0)


def _row_sum64(x):
    return x.sum(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)


def _run(op, arrays, g):
    """Output and input gradients of the one-node ``op`` under the upstream
    gradient ``g``; also checks that its rules wrote to neither the inputs nor ``g``."""
    before = [a.copy() for a in arrays] + [g.copy()]
    out = op(*(Tensor(a, requires_grad=True) for a in arrays))
    grads = out._backward(g)
    for kept, now in zip(before, list(arrays) + [g]):
        np.testing.assert_array_equal(now, kept)
    return [out.data, *grads]


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# (2, 3, 7) fits one chunk of the GELU loop; (3, 9363, 7) has 3 * 2**16 + 15 elements
@pytest.mark.parametrize("shape", [(2, 3, 7), (3, 9363, 7)], ids=["one_chunk", "straddles_chunks"])
class TestOpsMatchTheirFormulas:
    """The float32 ops give the bytes of their reference formulas, and their
    backward rules write into neither their inputs nor the incoming gradient."""

    def _arrays(self, shape, *extra):
        rng = np.random.default_rng(shape[1])
        return [rng.standard_normal(s).astype(np.float32) for s in (shape,) + extra]

    def test_linear_is_matmul_then_bias_add(self, shape):
        x, w, b, g = self._arrays(shape, (shape[-1], 5), (5,), shape[:-1] + (5,))
        leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        rows = T.reshape(leaves[0], (-1, shape[-1]))
        composite = T.reshape(T.add(T.matmul(rows, leaves[1]), leaves[2]), shape[:-1] + (5,))
        T.backward(T.tsum(T.mul(composite, Tensor(g))))
        _assert_bytes_equal(_run(T.linear, [x, w, b], g),
                            [composite.data] + [leaf.grad for leaf in leaves])

    def test_gelu_is_the_erf_formula(self, shape):
        x, g = self._arrays(shape, shape)
        inner = T.erf_f32(x * np.float32(1.0 / math.sqrt(2.0)))
        pdf = x * x
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf *= x
        pdf *= 1.0 / math.sqrt(2.0 * math.pi)
        grad = inner * 0.5
        grad += 0.5
        grad += pdf
        grad *= g
        _assert_bytes_equal(_run(T.gelu, [x], g), [0.5 * x * (1.0 + inner), grad])
        with T.no_grad():  # keeps no full-size erf values
            _assert_bytes_equal([T.gelu(Tensor(x)).data], [0.5 * x * (1.0 + inner)])

    def test_layer_norm_is_the_moment_formula(self, shape):
        x, gain, bias, g = self._arrays(shape, shape[-1:], shape[-1:], shape)
        xhat = x - x.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        var = np.mean(xhat * xhat, axis=-1, keepdims=True, dtype=np.float64)
        inv_sigma = (1.0 / np.sqrt(var + 1e-5)).astype(np.float32)
        xhat *= inv_sigma
        dxhat = g * gain
        gx = dxhat - dxhat.mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        gx -= xhat * (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(np.float32)
        gx *= inv_sigma
        rows = (-1, shape[-1])
        ggain = (g * xhat).reshape(rows).sum(axis=0, dtype=np.float64).astype(np.float32)
        gbias = g.reshape(rows).sum(axis=0, dtype=np.float64).astype(np.float32)
        _assert_bytes_equal(_run(T.layer_norm, [x, gain, bias], g),
                            [xhat * gain + bias, gx, ggain, gbias])

    def test_softmax_is_the_exp_formula(self, shape):
        x, g = self._arrays(shape, shape)
        s = np.exp(x - x.max(axis=-1, keepdims=True))
        s /= _row_sum64(s)
        _assert_bytes_equal(_run(T.softmax_rows, [x], g), [s, s * (g - _row_sum64(g * s))])

    def test_l2_normalize_is_the_norm_formula(self, shape):
        x, g = self._arrays(shape, shape)
        norm = np.sqrt(_row_sum64(x * x))
        y = x / norm
        grad = g - y * _row_sum64(g * y)
        grad /= norm
        _assert_bytes_equal(_run(T.l2_normalize_rows, [x], g), [y, grad])

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, shape):
        n, classes = math.prod(shape[:-1]), shape[-1]
        x, g = self._arrays((n, classes), ())
        targets = np.random.default_rng(n).integers(0, classes, n)
        ls = x - x.max(axis=-1, keepdims=True)
        ls -= np.log(_row_sum64(np.exp(ls)))
        onehot = np.zeros_like(x)
        onehot[np.arange(n), targets] = 1.0
        loss = np.asarray(-ls[np.arange(n), targets].sum(dtype=np.float64) / n).astype(np.float32)
        _assert_bytes_equal(_run(lambda t: T.cross_entropy(t, targets), [x], g),
                            [loss, (np.exp(ls) - onehot) * g / n])


class TestLinear:
    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\).*\(5,\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(DimensionError, match=r"\(4,\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))


class TestGradCheck:
    def test_sum_of_squares_is_tight(self):
        rng = np.random.default_rng(6)
        for seed in range(3):
            x = rand_tensor(np.random.default_rng(seed), (7,))
            assert T.grad_check(lambda t: T.tsum(T.mul(t, t)), x) < 1e-6

    def test_layer_norm_then_mean(self):
        rng = np.random.default_rng(7)
        gain = rng.standard_normal(6).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)

        def f(x):
            out = T.layer_norm(x, Tensor(gain, dtype=x.dtype), Tensor(bias, dtype=x.dtype))
            return T.tsum(out * (1.0 / out.size))

        assert T.grad_check(f, rand_tensor(rng, (3, 6))) < 1e-3


def _const(arr, x):
    return Tensor(arr, dtype=x.data.dtype)


_IDS = np.array([[0, 2], [1, 1]])
_TOK_IDX = np.array([[0, 2], [3, 1]])
_TOK_IDX_REPEATED = np.array([[1, 1], [3, 0]])
_TARGETS = np.array([2, 0, 4, 2])
_POOLED_ROWS = np.array([[3], [1]])  # one row at the last position, one inside
_BLOCK_SHAPES = _block_shapes(8)


def _pruned_causal_block(x, c):
    """Width-8 causal block computing only ``_POOLED_ROWS``, parameters drawn from one vector."""
    flat = c((sum(int(np.prod(s)) for s in _BLOCK_SHAPES.values()),)) * 0.3
    params, at = {}, 0
    for name, shape in _BLOCK_SHAPES.items():
        size = int(np.prod(shape))
        params[f"blocks.0.{name}"] = _const(flat[at:at + size].reshape(shape), x)
        at += size
    return _block(x, params, 0, heads=2, causal=True, rows=_POOLED_ROWS)


# (name, input shape, graph builder): one probe per differentiable op
OP_CASES = [
    ("add", (2, 5), lambda x, c: T.add(x, _const(c((2, 5)), x))),
    ("add_broadcast", (2, 5), lambda x, c: T.add(x, _const(c((5,)), x))),
    ("mul", (2, 5), lambda x, c: T.mul(x, _const(c((2, 5)), x))),
    ("exp", (6,), lambda x, c: T.exp(x)),
    ("gelu", (2, 4), lambda x, c: T.gelu(x)),
    ("matmul", (2, 4), lambda x, c: T.matmul(x, _const(c((4, 3)), x))),
    ("matmul_batched", (2, 3, 5, 4), lambda x, c: T.matmul(x, _const(c((2, 3, 4, 2)), x))),
    ("linear", (2, 3, 4), lambda x, c: T.linear(x, _const(c((4, 5)), x), _const(c((5,)), x))),
    ("linear_weight_grad", (4, 5), lambda x, c: T.linear(_const(c((2, 3, 4)), x), x, _const(c((5,)), x))),
    ("linear_bias_grad", (5,), lambda x, c: T.linear(_const(c((2, 3, 4)), x), _const(c((4, 5)), x), x)),
    ("reshape", (2, 6), lambda x, c: T.reshape(x, (3, 4))),
    ("transpose", (2, 3, 2), lambda x, c: T.transpose(x, (1, 0, 2))),
    ("concat", (2, 4), lambda x, c: T.concat([x, _const(c((2, 3)), x)], axis=1)),
    ("embedding", (3, 4), lambda x, c: T.embedding(x, _IDS)),
    ("take_tokens", (2, 4, 3), lambda x, c: T.take_tokens(x, _TOK_IDX)),
    ("take_tokens_repeated", (2, 4, 3), lambda x, c: T.take_tokens(x, _TOK_IDX_REPEATED)),
    ("sum_axis", (3, 4), lambda x, c: T.tsum(x, axis=1)),
    ("layer_norm", (3, 5), lambda x, c: T.layer_norm(x, _const(c((5,)), x), _const(c((5,)), x))),
    ("softmax", (3, 5), lambda x, c: T.softmax_rows(x)),
    ("cross_entropy", (4, 5), lambda x, c: T.cross_entropy(x, _TARGETS)),
    ("l2_normalize", (3, 5), lambda x, c: T.l2_normalize_rows(x)),
    ("causal_block_pruned_rows", (2, 4, 8), _pruned_causal_block),
]


def test_every_recording_op_has_a_grad_check_case(monkeypatch):
    """Each tensor.py function that records a node through ``_make`` produces
    one while some OP_CASES entry builds, so criterion 1 checks every op."""
    makers = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and "_make" in fn.__code__.co_names}
    produced, make = set(), T._make

    def recording(data, parents, backward):
        produced.add(inspect.currentframe().f_back.f_code.co_name)
        return make(data, parents, backward)

    monkeypatch.setattr(T, "_make", recording)
    rng = np.random.default_rng(0)
    for _, shape, build in OP_CASES:
        build(rand_tensor(rng, shape, requires_grad=True), lambda s: rng.standard_normal(s).astype(np.float32))
    assert "cross_entropy" in makers  # the inspection sees the ops
    assert makers <= produced, f"no OP_CASES entry produces {sorted(makers - produced)}"


def case_rng(name: str, seed: int) -> np.random.Generator:
    # process-independent seeding (hash() is randomized per interpreter)
    return np.random.default_rng(zlib.crc32(f"{name}/{seed}".encode()))


@pytest.mark.parametrize("seed", range(10))
def test_every_op_passes_grad_check(seed):
    for name, shape, build in OP_CASES:
        rng = case_rng(name, seed)
        consts = {}

        def c(s):
            if s not in consts:
                consts[s] = rng.standard_normal(s).astype(np.float32)
            return consts[s]

        proj = {}

        def f(x):
            out = build(x, c)
            if "r" not in proj:
                proj["r"] = rng.standard_normal(out.shape).astype(np.float32)
            return T.tsum(T.mul(out, _const(proj["r"], x)))

        x = rand_tensor(np.random.default_rng(seed * 37 + 11), shape)
        err = T.grad_check(f, x, eps=1e-3)
        assert err < 1e-3, f"{name}: grad check error {err}"
