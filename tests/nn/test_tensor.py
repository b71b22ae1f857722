"""Gradient and semantics tests for the autograd Tensor."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor, is_grad_enabled, no_grad

from .gradcheck import check_gradients

RNG = np.random.default_rng(42)


def rand(*shape):
    return RNG.normal(size=shape)


class TestBasicOps:
    def test_add_grad(self):
        check_gradients(lambda a, b: (a + b).sum(), [rand(3, 4), rand(3, 4)])

    def test_add_broadcast_grad(self):
        check_gradients(lambda a, b: (a + b).sum(), [rand(3, 4), rand(4)])

    def test_sub_grad(self):
        check_gradients(lambda a, b: (a - b).sum(), [rand(2, 5), rand(2, 5)])

    def test_mul_grad(self):
        check_gradients(lambda a, b: (a * b).sum(), [rand(3, 3), rand(3, 3)])

    def test_mul_broadcast_scalar_shape(self):
        check_gradients(lambda a, b: (a * b).sum(), [rand(4, 2), rand(1, 2)])

    def test_div_grad(self):
        b = rand(3, 3) + 3.0  # keep away from zero
        check_gradients(lambda x, y: (x / y).sum(), [rand(3, 3), b])

    def test_pow_grad(self):
        a = np.abs(rand(4, 4)) + 0.5
        check_gradients(lambda x: (x ** 3).sum(), [a])

    def test_matmul_grad(self):
        check_gradients(lambda a, b: (a @ b).sum(), [rand(3, 4), rand(4, 2)])

    def test_neg_grad(self):
        check_gradients(lambda a: (-a).sum(), [rand(5)])

    def test_rsub_rdiv(self):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        out = (1.0 - a) + (8.0 / a)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [1.0 - 2 + 4, 1.0 - 4 + 2])
        np.testing.assert_allclose(a.grad, [-1 - 8 / 4, -1 - 8 / 16])


class TestElementwise:
    def test_exp_grad(self):
        check_gradients(lambda a: a.exp().sum(), [rand(3, 3)])

    def test_log_grad(self):
        a = np.abs(rand(3, 3)) + 0.5
        check_gradients(lambda x: x.log().sum(), [a])

    def test_sqrt_grad(self):
        a = np.abs(rand(3, 3)) + 0.5
        check_gradients(lambda x: x.sqrt().sum(), [a])

    def test_tanh_grad(self):
        check_gradients(lambda a: a.tanh().sum(), [rand(4, 2)])

    def test_sigmoid_grad(self):
        check_gradients(lambda a: a.sigmoid().sum(), [rand(4, 2)])

    def test_relu_grad(self):
        a = rand(5, 5) + 0.1  # avoid kink at exactly 0
        check_gradients(lambda x: x.relu().sum(), [a])

    def test_leaky_relu_values(self):
        t = Tensor(np.array([-2.0, 3.0]))
        np.testing.assert_allclose(t.leaky_relu(0.1).data, [-0.2, 3.0])

    def test_elu_grad(self):
        a = rand(4, 4) + 0.05
        check_gradients(lambda x: x.elu().sum(), [a])

    def test_abs_grad(self):
        a = rand(3, 3)
        a[np.abs(a) < 0.1] += 0.5
        check_gradients(lambda x: x.abs().sum(), [a])

    def test_clip_passes_gradient_inside_window(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        t.clip(-1, 1).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_grad(self):
        check_gradients(lambda a: a.sum(axis=0).sum(), [rand(3, 4)])
        check_gradients(lambda a: a.sum(axis=1, keepdims=True).sum(),
                        [rand(3, 4)])

    def test_mean_grad(self):
        check_gradients(lambda a: a.mean(), [rand(6, 2)])
        check_gradients(lambda a: a.mean(axis=-1).sum(), [rand(2, 7)])

    def test_max_grad_unique(self):
        a = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        t = Tensor(a, requires_grad=True)
        t.max(axis=1).sum().backward()
        expected = np.array([[0, 1, 0], [1, 0, 0]], dtype=float)
        np.testing.assert_allclose(t.grad, expected)

    def test_max_grad_ties_split(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])


class TestShape:
    def test_reshape_grad(self):
        check_gradients(lambda a: (a.reshape(6) * np.arange(6)).sum(),
                        [rand(2, 3)])

    def test_transpose_grad(self):
        w = rand(4, 3)
        check_gradients(lambda a: (a.transpose() * w).sum(), [rand(3, 4)])

    def test_getitem_grad(self):
        t = Tensor(rand(5, 3), requires_grad=True)
        t[1:4].sum().backward()
        expected = np.zeros((5, 3))
        expected[1:4] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_gather_rows_repeated_index_accumulates(self):
        t = Tensor(np.eye(3), requires_grad=True)
        idx = np.array([0, 0, 2])
        t.gather_rows(idx).sum().backward()
        expected = np.array([[2.0] * 3, [0.0] * 3, [1.0] * 3])
        np.testing.assert_allclose(t.grad, expected)


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        out = a * a + a  # dy/da = 2a + 1 = 7
        out.backward()
        np.testing.assert_allclose(a.grad, [7.0])

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.ones(4), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x + 1e-6
        x.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(4))

    def test_backward_nonscalar_requires_grad_arg(self):
        t = Tensor(rand(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.grad, [2.0, 4.0, 6.0])

    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = t * 5
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores_outer_mode(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        (d * 3).sum()
        assert not d.requires_grad
        assert t.grad is None

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestGradModePerThread:
    """Grad mode is thread-local: ``no_grad`` in one thread never stops
    another thread's graph from recording (hammered under a 10 µs GIL
    switch interval so the threads interleave inside each other's
    ``no_grad`` blocks)."""

    THREADS = 6
    ROUNDS = 300

    def test_no_grad_never_leaks_across_threads(self):
        errors = []
        start = threading.Barrier(self.THREADS)

        def quiet(tid):
            start.wait()
            for i in range(self.ROUNDS):
                with no_grad():
                    out = Tensor(np.ones(3), requires_grad=True) * 2.0
                    if is_grad_enabled() or out.requires_grad:
                        errors.append(f"quiet {tid} round {i}: recording")
                if not is_grad_enabled():
                    errors.append(f"quiet {tid} round {i}: not restored")

        def learner(tid):
            rng = np.random.default_rng(tid)
            start.wait()
            for i in range(self.ROUNDS):
                x = rng.normal(size=(4, 3))
                w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
                (Tensor(x) @ w).tanh().sum().backward()
                expected = x.T @ (1.0 - np.tanh(x @ w.data) ** 2)
                if not is_grad_enabled() or w.grad is None \
                        or not np.allclose(w.grad, expected):
                    errors.append(f"learner {tid} round {i}: no gradient")

        threads = [threading.Thread(target=quiet if t % 2 else learner,
                                    args=(t,))
                   for t in range(self.THREADS)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old)
        assert not errors, errors[:5]
        assert is_grad_enabled()

    def test_new_thread_starts_recording(self):
        seen = []
        with no_grad():
            worker = threading.Thread(
                target=lambda: seen.append(is_grad_enabled()))
            worker.start()
            worker.join()
            assert not is_grad_enabled()
        assert seen == [True]


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                               min_side=1, max_side=5),
                  elements=st.floats(-5, 5)))
def test_property_sum_gradient_is_ones(arr):
    """d(sum(x))/dx = 1 everywhere, for any shape."""
    t = Tensor(arr, requires_grad=True)
    t.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(arr))


@settings(max_examples=25, deadline=None)
@given(hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)),
       hnp.arrays(np.float64, (4, 3), elements=st.floats(-3, 3)))
def test_property_addition_commutes(a, b):
    """Forward and gradients of a+b match b+a."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta + tb).sum().backward()
    ga1, gb1 = ta.grad.copy(), tb.grad.copy()
    ta.zero_grad(), tb.zero_grad()
    (tb + ta).sum().backward()
    np.testing.assert_allclose(ga1, ta.grad)
    np.testing.assert_allclose(gb1, tb.grad)


@settings(max_examples=20, deadline=None)
@given(hnp.arrays(np.float64, (3, 3), elements=st.floats(-2, 2)))
def test_property_tanh_bounded(arr):
    out = Tensor(arr).tanh()
    assert np.all(np.abs(out.data) <= 1.0)
