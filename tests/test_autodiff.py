"""Unit tests for the autodiff tape: forward values and gradient exactness.

Expected gradients come from central finite differences computed by
gradcheck, which only ever evaluates the forward pass.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import ldlnet.autodiff as ad
from ldlnet.distributions import batch_loss_graph
from ldlnet.errors import BatchSizeError, ConfigurationError, DimensionError
from ldlnet.gradcheck import end_to_end_check, grad_check, gradient_suite
from ldlnet.network import Network, NetworkSpec, init_weights


def t64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestDense:
    def test_identity(self):
        out = ad.dense(t64([[1.0, 2.0]]), t64(np.eye(2)), t64([0.0, 0.0]))
        assert np.array_equal(out.data, [[1.0, 2.0]])

    def test_hand_product(self):
        x = t64([[1.0, 0.0], [0.0, 1.0]])
        w = t64([[3.0, 4.0], [5.0, 6.0]])
        b = t64([1.0, 1.0])
        assert np.array_equal(ad.dense(x, w, b).data, [[4.0, 5.0], [6.0, 7.0]])

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = t64(rng.standard_normal((3, 2)))
        w = t64(rng.standard_normal((2, 4)), requires_grad=True)
        b = t64(rng.standard_normal(4), requires_grad=True)
        rep = grad_check([("w", w), ("b", b)],
                         lambda: ad.tsum(ad.dense(x, w, b)), eps=1e-6, tol=1e-6)
        assert rep.passed, rep.summary()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            ad.dense(t64(np.ones((2, 3))), t64(np.ones((4, 2))), t64(np.ones(2)))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


class TestConv2d:
    def test_identity_kernel(self):
        x = t64(np.random.default_rng(0).uniform(size=(1, 1, 4, 5)))
        k = t64(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, k, stride=1, pad=0)
        assert np.array_equal(out.data, x.data)

    def test_all_ones_sum(self):
        x = t64(np.ones((1, 1, 3, 3)))
        k = t64(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, k, stride=1, pad=0)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 9.0

    def test_cross_correlation_no_flip(self):
        # an asymmetric kernel distinguishes correlation from true convolution
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 0, 2] = 1.0
        k = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = ad.conv2d(t64(x), t64(k), stride=1, pad=0)
        assert out.data[0, 0, 0, 0] == 2.0  # k[0, 0, 0, 2]

    def test_kernel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = t64(rng.standard_normal((1, 2, 5, 5)))
        k = t64(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        rep = grad_check([("k", k)],
                         lambda: ad.tsum(ad.conv2d(x, k, stride=1, pad=0)),
                         eps=1e-6, tol=1e-6)
        assert rep.passed, rep.summary()

    def test_input_gradient_with_stride_and_pad(self):
        rng = np.random.default_rng(12)
        x = t64(rng.standard_normal((2, 2, 6, 6)), requires_grad=True)
        k = t64(rng.standard_normal((2, 2, 3, 3)))
        rep = grad_check([("x", x)],
                         lambda: ad.tsum(ad.conv2d(x, k, stride=2, pad=1)),
                         eps=1e-6, tol=1e-6)
        assert rep.passed, rep.summary()

    def test_nonpositive_output_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.conv2d(t64(np.ones((1, 1, 2, 2))), t64(np.ones((1, 1, 3, 3))),
                      stride=1, pad=0)

    def test_negative_pad_rejected(self):
        # a negative pad would crop the input instead of padding it
        with pytest.raises(ConfigurationError, match="pad"):
            ad.conv2d(t64(np.ones((1, 1, 5, 5))), t64(np.ones((1, 1, 3, 3))),
                      stride=1, pad=-1)

    def test_pointwise_forward_holds_only_its_output(self):
        # a 1x1 stride-1 conv reads its input in place: the tape keeps no copy of it
        self._check_forward_holds_only_its_output((2, 64, 28, 28), (32, 64, 1, 1), pad=0, seed=13)

    def test_stride_one_forward_keeps_no_window_rows(self):
        # dK comes from the backward's gradient rows against x, which the tape holds anyway
        self._check_forward_holds_only_its_output((2, 64, 28, 28), (64, 64, 3, 3), pad=1, seed=14)

    def test_pointwise_backward_sums_dk_without_a_batch_stack(self):
        # dK is summed image by image: no (N, F, C) stack of per-image products
        rng = np.random.default_rng(15)
        x = ad.Tensor(rng.standard_normal((4, 256, 7, 7)).astype(np.float32), requires_grad=True)
        k = ad.Tensor(rng.standard_normal((512, 256, 1, 1)).astype(np.float32), requires_grad=True)
        out = ad.conv2d(x, k)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backward(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 2 * k.data.nbytes + x.data.nbytes + g.nbytes    # dK, one part, dX, g
        assert bound < 4 * 512 * 256 * 4                          # the N*F*C stack alone
        assert peak < bound, f"{peak} bytes traced, bound {bound}"
        assert k.grad.shape == k.shape and x.grad.shape == x.shape

    @staticmethod
    def _check_forward_holds_only_its_output(xs, ks, pad, seed):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.standard_normal(xs).astype(np.float32), requires_grad=True)
        k = ad.Tensor(rng.standard_normal(ks).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, k, stride=1, pad=pad)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        assert held <= 1.1 * out.data.nbytes, f"{held} bytes held for a {out.data.nbytes}-byte output"

    @pytest.mark.parametrize("name,value", [("stride", 1.5), ("stride", 2.0), ("pad", 1.0),
                                            ("stride", None), ("pad", True)])
    def test_non_integer_geometry_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match="integer"):
            ad.conv2d(t64(np.ones((1, 1, 5, 5))), t64(np.ones((1, 1, 3, 3))), **{name: value})


def _conv_reference(x, k, stride, pad, g):
    """Direct-loop float64 conv2d: output, and dX and dK for upstream gradient g."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    kh, kw = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = g.shape[2:]
    out = np.zeros(g.shape)
    dxp = np.zeros(xp.shape)
    dk = np.zeros(k.shape)
    for i in range(ho):
        for j in range(wo):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            window = xp[:, :, rows, cols]
            out[:, :, i, j] = np.tensordot(window, k, axes=([1, 2, 3], [1, 2, 3]))
            dxp[:, :, rows, cols] += np.tensordot(g[:, :, i, j], k, axes=(1, 0))
            dk += np.tensordot(g[:, :, i, j], window, axes=(0, 0))
    return out, dxp[:, :, pad:pad + x.shape[2], pad:pad + x.shape[3]], dk


# (input shape, kernel shape, stride, pad): every conv the networks use, a
# non-square kernel, a pad larger than the kernel minus one, and the unpadded
# 1x1 convs that run as per-image NCHW matmuls (one image, C > F and F > C,
# stride 2 on an even side) beside a padded 1x1 that takes the general path
CONV_CASES = [
    ((2, 3, 8, 8), (4, 3, 3, 3), 1, 1),
    ((2, 3, 8, 8), (4, 3, 3, 3), 2, 1),
    ((2, 3, 6, 6), (5, 3, 1, 1), 1, 0),
    ((2, 3, 7, 7), (5, 3, 1, 1), 2, 0),
    ((2, 3, 15, 15), (4, 3, 7, 7), 2, 3),
    ((2, 3, 7, 9), (4, 3, 2, 3), 1, 1),
    ((2, 3, 9, 8), (4, 3, 3, 2), 2, 1),
    ((2, 3, 5, 5), (4, 3, 2, 2), 1, 3),
    ((2, 3, 5, 5), (4, 3, 3, 3), 2, 3),
    ((1, 6, 5, 4), (3, 6, 1, 1), 1, 0),
    ((1, 3, 4, 5), (7, 3, 1, 1), 1, 0),
    ((2, 3, 8, 8), (5, 3, 1, 1), 2, 0),
    ((2, 3, 5, 5), (4, 3, 1, 1), 1, 1),
]


class TestConv2dAgainstDirectLoops:
    # tolerance from the dtype alone: 64 epsilons relative to the largest reference value
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("xs,ks,stride,pad", CONV_CASES)
    def test_output_and_both_gradients(self, xs, ks, stride, pad, dtype):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal(xs).astype(dtype), requires_grad=True)
        k = ad.Tensor(rng.standard_normal(ks).astype(dtype), requires_grad=True)
        out = ad.conv2d(x, k, stride=stride, pad=pad)
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.tsum(ad.mul_const(out, g)).backward()
        refs = _conv_reference(x.data, k.data, stride, pad, g)
        tol = 64 * np.finfo(dtype).eps
        for name, got, ref in zip(("out", "dX", "dK"), (out.data, x.grad, k.grad), refs):
            assert got.shape == ref.shape and got.dtype == dtype, name
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert err <= tol, f"{name}: relative error {err:.2e} > {tol:.2e}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("xs,ks,stride,pad", CONV_CASES)
    def test_kernel_gradient_of_an_input_without_gradient(self, xs, ks, stride, pad, dtype):
        # the stem's case: the window rows stay on the tape and give dK at every stride
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal(xs).astype(dtype))
        k = ad.Tensor(rng.standard_normal(ks).astype(dtype), requires_grad=True)
        out = ad.conv2d(x, k, stride=stride, pad=pad)
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.tsum(ad.mul_const(out, g)).backward()
        ref = _conv_reference(x.data, k.data, stride, pad, g)[2]
        assert x.grad is None
        assert k.grad.shape == ref.shape and k.grad.dtype == dtype
        err = np.max(np.abs(k.grad - ref)) / np.max(np.abs(ref))
        assert err <= 64 * np.finfo(dtype).eps, f"dK: relative error {err:.2e}"


def _max_pool_grad_reference(x, window, stride, g):
    """Loop max-pool backward: each window's gradient to its first maximum."""
    dx = np.zeros(x.shape)
    n, c, ho, wo = g.shape
    for a in range(n):
        for b in range(c):
            for i in range(ho):
                for j in range(wo):
                    win = x[a, b, i * stride:i * stride + window, j * stride:j * stride + window]
                    u, v = np.unravel_index(np.argmax(win), win.shape)
                    dx[a, b, i * stride + u, j * stride + v] += g[a, b, i, j]
    return dx


class TestMaxPoolAgainstLoops:
    @pytest.mark.parametrize("window,stride,pad", [(2, 2, 0), (3, 2, 1), (3, 1, 0)])
    def test_backward_on_ties(self, window, stride, pad):
        rng = np.random.default_rng(window * 10 + stride)
        # few distinct values: most windows hold a tie, many of them at the padding's 0
        x = t64(rng.integers(-2, 3, size=(2, 3, 9, 9)), requires_grad=True)
        xp = ad.pad2d(x, pad)
        out = ad.pool(xp, "max", window, stride)
        g = rng.integers(1, 100, size=out.shape).astype(np.float64)
        ad.tsum(ad.mul_const(out, g)).backward()
        ref = _max_pool_grad_reference(xp.data, window, stride, g)
        # integer-valued sums are exact in any order
        assert np.array_equal(x.grad, ref[:, :, pad:pad + 9, pad:pad + 9])


def _batch_norm_reference(x, gamma, beta, g, mean=None, var=None, eps=1e-5):
    """Channel-loop float64 batch norm: output, dX, dgamma and dbeta for
    upstream gradient g. Without ``mean``/``var`` (train mode) it uses the
    batch statistics and the textbook chain rule through them (Ioffe &
    Szegedy 2015, section 3)."""
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    out, dx = np.zeros(x.shape), np.zeros(x.shape)
    dgamma, dbeta = np.zeros(x.shape[1]), np.zeros(x.shape[1])
    for ch in range(x.shape[1]):
        xc, gc, gam = x[:, ch], g[:, ch], float(gamma[ch])
        m = xc.size
        mu = xc.sum() / m if mean is None else float(mean[ch])
        v = ((xc - mu) ** 2).sum() / m if var is None else float(var[ch])
        xhat = (xc - mu) / np.sqrt(v + eps)
        out[:, ch] = gam * xhat + float(beta[ch])
        dgamma[ch], dbeta[ch] = (gc * xhat).sum(), gc.sum()
        dxhat = gc * gam
        dx[:, ch] = dxhat / np.sqrt(v + eps)
        if mean is None:
            dvar = (dxhat * (xc - mu)).sum() * -0.5 * (v + eps) ** -1.5
            dmu = -(dxhat.sum() / np.sqrt(v + eps)) - 2.0 * dvar * (xc - mu).sum() / m
            dx[:, ch] += 2.0 * dvar * (xc - mu) / m + dmu / m
    return out, dx, dgamma, dbeta


class TestBatchNormAgainstLoops:
    # tolerance from the dtype alone: 64 epsilons relative to the largest reference value.
    # Inputs of mean 1.5, 6 and 20 at sd 2 (0.75, 3 and 10 sd off zero) guard the
    # cancellation in sum(g*x) - mu*sum(g), from which the backward takes dgamma and dX.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_output_and_all_gradients(self, mode, dtype):
        self._check(mode, dtype, mean=1.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("mean", [6.0, 20.0])
    def test_input_far_from_zero_mean(self, mean, mode, dtype):
        self._check(mode, dtype, mean)

    @staticmethod
    def _check(mode, dtype, mean):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.normal(mean, 2.0, (4, 3, 5, 5)).astype(dtype), requires_grad=True)
        gamma = ad.Tensor(rng.uniform(0.5, 1.5, 3).astype(dtype), requires_grad=True)
        beta = ad.Tensor(rng.standard_normal(3).astype(dtype), requires_grad=True)
        stats = ad.RunningStats(3, dtype=dtype)
        stats.mean = rng.standard_normal(3).astype(dtype)
        stats.var = rng.uniform(0.5, 2.0, 3).astype(dtype)
        out = ad.batch_norm(x, gamma, beta, mode=mode, stats=stats)
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.tsum(ad.mul_const(out, g)).backward()
        fixed = {} if mode == "train" else {"mean": stats.mean, "var": stats.var}
        refs = _batch_norm_reference(x.data, gamma.data, beta.data, g, **fixed)
        tol = 64 * np.finfo(dtype).eps
        got = (out.data, x.grad, gamma.grad, beta.grad)
        for name, a, ref in zip(("out", "dX", "dgamma", "dbeta"), got, refs):
            assert a.shape == ref.shape and a.dtype == dtype, name
            err = np.max(np.abs(a - ref)) / np.max(np.abs(ref))
            assert err <= tol, f"{name}: relative error {err:.2e} > {tol:.2e}"


class TestBatchNorm:
    def test_normalizes_per_channel(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(5.0, 3.0, size=(8, 3, 4, 4)))
        gamma = t64(np.ones(3))
        beta = t64(np.zeros(3))
        out = ad.batch_norm(x, gamma, beta, mode="train").data
        for c in range(3):
            assert abs(out[:, c].mean()) < 1e-5
            assert abs(out[:, c].var() - 1.0) < 1e-3  # eps shrinks it slightly

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(4)
        x = t64(rng.standard_normal((4, 2, 3, 3)))
        beta = t64([1.5, -0.5])
        out = ad.batch_norm(x, t64(np.zeros(2)), beta, mode="train").data
        assert np.allclose(out[:, 0], 1.5) and np.allclose(out[:, 1], -0.5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = t64(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = t64(rng.standard_normal(2), requires_grad=True)
        pw = rng.standard_normal((4, 2, 3, 3))
        rep = grad_check(
            [("x", x), ("gamma", gamma), ("beta", beta)],
            lambda: ad.tsum(ad.mul_const(ad.batch_norm(x, gamma, beta, mode="train"), pw)),
            eps=1e-5, tol=1e-5)
        assert rep.passed, rep.summary()

    def test_batch_of_one_rejected_in_train_mode(self):
        with pytest.raises(BatchSizeError):
            ad.batch_norm(t64(np.ones((1, 2, 3, 3))), t64(np.ones(2)), t64(np.zeros(2)),
                          mode="train")

    def test_train_mode_keeps_only_the_batch_statistics(self):
        # eval-mode statistics come from training.recompute_bn_stats alone
        rng = np.random.default_rng(6)
        x = t64(rng.normal(2.0, 1.5, size=(8, 2, 4, 4)))
        stats = ad.RunningStats(2, dtype=np.float64)
        ad.batch_norm(x, t64(np.ones(2)), t64(np.zeros(2)), mode="train", stats=stats)
        assert np.array_equal(stats.mean, np.zeros(2)) and np.array_equal(stats.var, np.ones(2))
        assert np.allclose(stats.batch_mean, x.data.mean(axis=(0, 2, 3)))
        assert np.allclose(stats.batch_var, x.data.var(axis=(0, 2, 3)))

    def test_float32_variance_far_from_zero_mean(self):
        # from the centred input; E[x^2] - mean^2 would cancel away most digits here
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(1000.0, 1.0, (8, 3, 8, 8)).astype(np.float32))
        stats = ad.RunningStats(3)
        ad.batch_norm(x, ad.Tensor(np.ones(3, np.float32)), ad.Tensor(np.zeros(3, np.float32)),
                      mode="train", stats=stats)
        want = x.data.astype(np.float64).var(axis=(0, 2, 3))
        np.testing.assert_allclose(stats.batch_var, want, rtol=1e-3)


class TestBatchNormRecompute:
    """The backward uses the mean and 1/sqrt(var + eps) the forward captured."""

    @staticmethod
    def _grads(mode, disturb):
        rng = np.random.default_rng(19)
        x = t64(rng.normal(1.0, 2.0, (4, 3, 5, 5)), requires_grad=True)
        gamma = t64(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = t64(rng.standard_normal(3), requires_grad=True)
        stats = ad.RunningStats(3, dtype=np.float64)
        stats.mean = rng.standard_normal(3)
        stats.var = rng.uniform(0.5, 2.0, 3)
        loss = ad.tsum(ad.mul_const(ad.batch_norm(x, gamma, beta, mode=mode, stats=stats),
                                    rng.standard_normal((4, 3, 5, 5))))
        disturb(stats, x)
        loss.backward()
        return x.grad, gamma.grad, beta.grad

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("disturb", [
        lambda stats, x: stats.reset(),
        lambda stats, x: setattr(stats, "mean", stats.mean + 3.0),
        lambda stats, x: setattr(stats, "var", stats.var * 5.0),
        # a second train-mode forward replaces batch_mean/batch_var
        lambda stats, x: ad.batch_norm(t64(x.data * 2.0 + 1.0), t64(np.ones(3)),
                                       t64(np.zeros(3)), mode="train", stats=stats),
    ], ids=["reset", "new_mean", "new_var", "new_batch"])
    def test_statistics_changed_after_the_forward_do_not_reach_the_backward(
            self, mode, disturb):
        want = self._grads(mode, lambda stats, x: None)
        got = self._grads(mode, disturb)
        for name, a, b in zip(("dX", "dgamma", "dbeta"), got, want):
            assert np.array_equal(a, b), name


class TestRelu:
    def test_definition(self):
        out = ad.relu(t64([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_positive_unchanged(self):
        x = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(ad.relu(t64(x)).data, x)

    def test_gradient_mask_away_from_zero(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((4, 5))
        data += np.where(data >= 0, 0.1, -0.1)
        x = t64(data, requires_grad=True)
        rep = grad_check([("x", x)], lambda: ad.tsum(ad.relu(x)), eps=1e-6, tol=1e-8)
        assert rep.passed, rep.summary()


class TestPool:
    def test_max_definition(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ad.pool(x, "max", 2).data[0, 0, 0, 0] == 4.0

    def test_avg_definition(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ad.pool(x, "avg", 2).data[0, 0, 0, 0] == 2.5

    def test_max_gradient_one_hot_at_argmax(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]], requires_grad=True)
        ad.tsum(ad.pool(x, "max", 2)).backward()
        assert np.array_equal(x.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_max_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = t64(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        rep = grad_check([("x", x)], lambda: ad.tsum(ad.pool(x, "max", 2, 2)),
                         eps=1e-6, tol=1e-7)
        assert rep.passed, rep.summary()

    def test_tie_breaks_to_first_index(self):
        x = t64([[[[7.0, 7.0], [7.0, 7.0]]]], requires_grad=True)
        ad.tsum(ad.pool(x, "max", 2)).backward()
        assert np.array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_window_exceeding_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.pool(t64(np.ones((1, 1, 2, 2))), "max", 3)

    @pytest.mark.parametrize("window,stride", [(2.0, None), (2, 1.5), (True, None), (2, "2")])
    def test_non_integer_window_or_stride_rejected(self, window, stride):
        with pytest.raises(ConfigurationError, match="integer"):
            ad.pool(t64(np.ones((1, 1, 4, 4))), "max", window, stride)

    def test_global_avg(self):
        x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        assert ad.pool(x, "avg", 4).data[0, 0, 0, 0] == 7.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_global_avg_backward_is_exactly_g_over_area(self, dtype):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((2, 3, 3, 3)).astype(dtype), requires_grad=True)
        out = ad.pool(x, "avg", 3)
        g = rng.standard_normal(out.shape).astype(dtype)
        ad.tsum(ad.mul_const(out, g)).backward()
        assert x.grad.dtype == dtype
        assert np.array_equal(x.grad, np.broadcast_to(g / 9, x.shape))

    @pytest.mark.parametrize("window,stride", [(2, None), (3, 1), (2, 2)])
    def test_avg_smaller_than_the_input_rejected(self, window, stride):
        with pytest.raises(ConfigurationError):
            ad.pool(t64(np.ones((1, 1, 4, 4))), "avg", window, stride)


class TestPad2d:
    @pytest.mark.parametrize("pad", [1.0, True, None])
    def test_non_integer_pad_rejected(self, pad):
        with pytest.raises(ConfigurationError, match="integer"):
            ad.pad2d(t64(np.ones((1, 1, 3, 3))), pad)


class TestAdd:
    def test_identity(self):
        a = t64([1.0, -2.0, 3.0])
        assert np.array_equal(ad.add(a, t64(np.zeros(3))).data, a.data)

    def test_values(self):
        assert np.array_equal(ad.add(t64([1.0, 2.0]), t64([3.0, 4.0])).data, [4.0, 6.0])

    def test_gradient_passes_to_both(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        pw = np.array([2.0, 5.0])
        ad.tsum(ad.mul_const(ad.add(a, b), pw)).backward()
        assert np.array_equal(a.grad, pw) and np.array_equal(b.grad, pw)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add(t64([1.0]), t64([1.0, 2.0]))


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.softmax(t64(np.zeros((1, 5))))
        assert np.allclose(out.data, 0.2)

    def test_no_overflow_at_large_logit(self):
        z = np.zeros((1, 5))
        z[0, 0] = 1000.0
        out = ad.softmax(t64(z)).data
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-6

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        out = ad.softmax(t64(rng.standard_normal((20, 5)) * 10)).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_jacobian_vector_product_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        z = t64(rng.standard_normal((3, 5)), requires_grad=True)
        pw = rng.standard_normal((3, 5))
        rep = grad_check([("z", z)],
                         lambda: ad.tsum(ad.mul_const(ad.softmax(z), pw)),
                         eps=1e-6, tol=1e-6)
        assert rep.passed, rep.summary()


class TestTapeProperties:
    def test_forward_determinism_is_bitwise(self):
        rng = np.random.default_rng(14)
        x = np.asarray(rng.standard_normal((4, 3, 8, 8)), dtype=np.float32)
        k = ad.Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        a = ad.conv2d(ad.Tensor(x), k, stride=1, pad=1).data
        b = ad.conv2d(ad.Tensor(x), k, stride=1, pad=1).data
        assert np.array_equal(a, b)

    def test_dense_linearity_without_bias(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4))
        w = t64(rng.standard_normal((4, 2)))
        zero_b = t64(np.zeros(2))
        one = ad.dense(t64(x), w, zero_b).data
        scaled = ad.dense(t64(2.5 * x), w, zero_b).data
        assert np.allclose(scaled, 2.5 * one)

    def test_add_linearity(self):
        rng = np.random.default_rng(16)
        a, b = rng.standard_normal((2, 6))
        assert np.allclose(ad.add(t64(3.0 * a), t64(3.0 * b)).data,
                           3.0 * ad.add(t64(a), t64(b)).data)

    def test_backward_visits_shared_node_once(self):
        # y = x + x: gradient is exactly 2, not 4, when the node is revisited
        x = t64([1.0, 2.0], requires_grad=True)
        h = ad.scale(x, 1.0)
        ad.tsum(ad.add(h, h)).backward()
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_no_grad_suppresses_tape(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with ad.no_grad():
            out = ad.relu(x)
        assert out._backward is None and not out.requires_grad


TINY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(2, 3, 4, 5), input_size=16)


def _tiny_step():
    """Forward of a tiny network on a batch of 2 and its Euclidean loss."""
    net = Network(TINY)
    init_weights(net, 0)
    rng = np.random.default_rng(20)
    images = rng.random((2, 3, 16, 16), dtype=np.float32)
    targets = rng.dirichlet(np.ones(TINY.num_labels), size=2).astype(np.float32)
    out = net.forward(images, mode="train")
    return net, out, batch_loss_graph("euclidean", out.distribution, targets)


class TestTapeRelease:
    def test_backward_frees_the_tape_and_leaves_keep_their_gradients(self):
        net, out, loss = _tiny_step()
        order = ad._topo_order(loss)
        convs = [n for n in order if n.op == "conv2d"]
        conv = convs[len(convs) // 2]
        conv_data = weakref.ref(conv.data)
        inner = [n for n in order if n._backward is not None and n is not conv]
        assert out.distribution in inner and out.features in inner
        del order, convs, conv
        loss.backward()
        assert conv_data() is None
        assert all(n.grad is None for n in inner)
        assert all(n._parents == () for n in inner)
        for rec in net.param_records():
            assert rec.tensor.grad is not None, rec.name
            assert rec.tensor.grad.shape == rec.tensor.shape, rec.name

    def test_second_backward_raises_and_leaves_gradients_alone(self):
        net, _, loss = _tiny_step()
        loss.backward()
        before = {r.name: r.tensor.grad.copy() for r in net.param_records()}
        with pytest.raises(ConfigurationError, match="consumed"):
            loss.backward()
        for rec in net.param_records():
            assert np.array_equal(rec.tensor.grad, before[rec.name]), rec.name

    def test_new_graph_on_a_consumed_node_raises(self):
        net, out, loss = _tiny_step()
        loss.backward()
        before = {r.name: r.tensor.grad.copy() for r in net.param_records()}
        # the new graph also reaches live weights, which must not be touched
        extra = ad.tsum(ad.dense(out.features, net.fc.weight, net.fc.bias))
        with pytest.raises(ConfigurationError, match="consumed"):
            extra.backward()
        for rec in net.param_records():
            assert np.array_equal(rec.tensor.grad, before[rec.name]), rec.name


_GATED_PARENTS = {
    "dense": lambda rng: [rng.standard_normal((3, 4)), rng.standard_normal((4, 2)),
                          rng.standard_normal(2)],
    "add": lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))],
    "sub": lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))],
    "mul": lambda rng: [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))],
    "batch_norm": lambda rng: [rng.standard_normal((2, 3, 2, 2)), rng.uniform(0.5, 1.5, 3),
                               rng.standard_normal(3)],
}


class TestGradientGating:
    @pytest.mark.parametrize("op", sorted(_GATED_PARENTS))
    def test_a_parent_that_needs_no_gradient_gets_none(self, op):
        arrays = _GATED_PARENTS[op](np.random.default_rng(31))
        for frozen in range(len(arrays)):
            parents = [t64(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]
            out = getattr(ad, op)(*parents)
            ad.tsum(ad.mul(out, out)).backward()
            for i, p in enumerate(parents):
                assert (p.grad is None) == (i == frozen), (op, i, frozen)
                if p.grad is not None:
                    assert p.grad.shape == p.shape

    def test_conv_backward_builds_no_gradient_for_an_input_that_needs_none(self):
        # the stem's case: its input is the image, so the backward computes dK only
        rng = np.random.default_rng(32)
        xs = rng.standard_normal((2, 16, 32, 32)).astype(np.float32)
        ks = rng.standard_normal((4, 16, 3, 3)).astype(np.float32)
        peaks = {}
        for needs_grad in (False, True):
            x = ad.Tensor(xs, requires_grad=needs_grad)
            k = ad.Tensor(ks, requires_grad=True)
            out = ad.conv2d(x, k, stride=1, pad=1)
            g = rng.standard_normal(out.shape).astype(np.float32)
            tracemalloc.start()
            try:
                out._backward(g)
                _, peaks[needs_grad] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (x.grad is not None) == needs_grad and k.grad.shape == k.shape
        assert peaks[False] < xs.nbytes <= peaks[True], peaks


SUITE_CASES = ["dense", "conv2d", "conv2d_strided", "batch_norm_train", "batch_norm_eval",
               "relu", "max_pool", "global_avg_pool", "add", "softmax", "pad2d",
               "euclidean_graph", "euclidean_sq_graph", "kl_graph", "conv2d_pointwise",
               "conv2d_padded"]
# the suite's cases that call each network op
CASES_OF_OP = {
    "dense": {"dense"},
    "conv2d": {"conv2d", "conv2d_strided", "conv2d_pointwise", "conv2d_padded"},
    "batch_norm": {"batch_norm_train", "batch_norm_eval"},
    "relu": {"relu"},
    "pool": {"max_pool", "global_avg_pool"},
    "add": {"add"},
    "softmax": {"softmax", "euclidean_graph", "euclidean_sq_graph", "kl_graph"},
    "pad2d": {"pad2d"},
}


class TestGradCheckHarness:
    def test_suite_checks_every_case(self):
        worst, passed = gradient_suite(num_seeds=1)
        assert list(worst) == SUITE_CASES and passed, worst

    @pytest.mark.parametrize("op", list(CASES_OF_OP))
    def test_suite_fails_every_case_of_a_wrong_backward(self, monkeypatch, op):
        right = getattr(ad, op)

        def scaled_backward(*args, **kwargs):
            out = right(*args, **kwargs)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: backward(1.05 * g)
            return out

        monkeypatch.setattr(ad, op, scaled_backward)
        worst, passed = gradient_suite(num_seeds=1, tol=1e-5)
        assert not passed
        assert {name for name, err in worst.items() if err > 1e-5} == CASES_OF_OP[op], worst

    @pytest.mark.parametrize("num_seeds", [0, -2, 1.0])
    def test_suite_without_a_draw_is_refused(self, num_seeds):
        # no draw would check no op and still pass
        with pytest.raises(ConfigurationError, match="num_seeds"):
            gradient_suite(num_seeds=num_seeds)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_end_to_end_check_refuses_a_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="end_to_end_check seed"):
            end_to_end_check(seed=seed)

    def test_dense_with_squared_loss_passes(self):
        rng = np.random.default_rng(17)
        x = t64(rng.standard_normal((4, 3)))
        w = t64(rng.standard_normal((3, 2)), requires_grad=True)
        b = t64(rng.standard_normal(2), requires_grad=True)

        def loss_fn():
            out = ad.dense(x, w, b)
            return ad.scale(ad.tsum(ad.mul(out, out)), 0.5)

        rep = grad_check([("w", w), ("b", b)], loss_fn, eps=1e-6, tol=1e-6)
        assert rep.passed, rep.summary()

    def test_corrupted_gradient_fails_with_rel_err_near_one(self):
        rng = np.random.default_rng(18)
        w = t64(rng.uniform(1.0, 2.0, size=(3, 3)), requires_grad=True)
        pw = rng.uniform(1.0, 2.0, size=(3, 3))

        def doubled_identity(x):
            return ad._node(x.data.copy(), "doubled_identity", (x,), lambda g: (2.0 * g,))

        rep = grad_check([("w", w)],
                         lambda: ad.tsum(ad.mul_const(doubled_identity(w), pw)),
                         eps=1e-6, tol=1e-6)
        assert not rep.passed
        assert abs(rep.max_rel_err - 1.0) < 1e-3

    def test_zero_parameter_graph_passes_trivially(self):
        rep = grad_check([], lambda: ad.tsum(t64([1.0])), eps=1e-6, tol=1e-6)
        assert rep.passed and rep.params == [] and rep.max_rel_err == 0.0

    def test_parameter_without_grad_is_refused(self):
        # its analytic gradient would read as zero, like a wrong backward
        w = t64(np.ones(3))
        with pytest.raises(ConfigurationError, match="w does not require grad"):
            grad_check([("w", w)], lambda: ad.tsum(ad.mul(w, w)), eps=1e-6, tol=1e-6)

    def test_requires_float64(self):
        w = ad.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ConfigurationError):
            grad_check([("w", w)], lambda: ad.tsum(w), eps=1e-6, tol=1e-6)

    def test_nan_forward_reports_offending_op(self):
        w = t64([-1.0], requires_grad=True)
        with np.errstate(invalid="ignore"):
            rep = grad_check([("w", w)], lambda: ad.tsum(ad.log_(w)), eps=1e-6, tol=1e-6)
        assert not rep.passed
        assert "log" in rep.failure
