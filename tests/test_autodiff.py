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
from ldlnet.gradcheck import _every_trick, _op_cases, end_to_end_check, grad_check, gradient_suite
from ldlnet.network import Network, NetworkSpec, full_scale_spec, init_weights
from ldlnet.training import TrainConfig, sgd_step


@pytest.fixture
def every_trick():
    """The tape at MIN_SAVED_BYTES = 0, so the small shapes below take the
    recipes, rebuilt window rows and deferred weight gradients that full-scale
    shapes take at the default threshold."""
    with _every_trick():
        yield


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

    @pytest.mark.parametrize("xs,ws,bs,message", [
        ((2, 3, 1), (3, 2), (2,), "2-d x and w"), ((2, 3), (3,), (2,), "2-d x and w"),
        ((2, 3), (3, 2), (3,), "bias shape"), ((2, 3), (3, 2), (1, 2), "bias shape")])
    def test_malformed_operands_are_refused(self, xs, ws, bs, message):
        with pytest.raises(DimensionError, match=message):
            ad.dense(t64(np.ones(xs)), t64(np.ones(ws)), t64(np.ones(bs)))


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

    @pytest.mark.parametrize("xs,ks,message", [
        ((1, 5, 5), (1, 1, 3, 3), "4-d operands"), ((1, 1, 5, 5), (1, 3, 3), "4-d operands"),
        ((1, 2, 5, 5), (1, 3, 3, 3), "channel mismatch")])
    def test_malformed_operands_are_refused(self, xs, ks, message):
        with pytest.raises(DimensionError, match=message):
            ad.conv2d(t64(np.ones(xs)), t64(np.ones(ks)))

    def test_negative_pad_rejected(self):
        # a negative pad would crop the input instead of padding it
        with pytest.raises(ConfigurationError, match="pad"):
            ad.conv2d(t64(np.ones((1, 1, 5, 5))), t64(np.ones((1, 1, 3, 3))),
                      stride=1, pad=-1)

    def test_pointwise_forward_holds_only_its_output(self):
        # a 1x1 conv keeps only its input, which the tape holds anyway; at stride 2 each
        # direction slices the input afresh instead of keeping a quarter-size copy
        for stride in (1, 2):
            self._check_forward_holds_only_its_output((2, 64, 28, 28), (32, 64, 1, 1), pad=0,
                                                      seed=13, stride=stride)

    @pytest.mark.usefixtures("every_trick")
    def test_stride_one_forward_keeps_no_window_rows(self):
        # dK comes from the backward's gradient rows against x, which the tape holds anyway
        self._check_forward_holds_only_its_output((2, 64, 28, 28), (64, 64, 3, 3), pad=1, seed=14)

    @pytest.mark.usefixtures("every_trick")
    def test_strided_forward_keeps_no_window_rows(self):
        # the backward rebuilds the window rows of x, which the tape holds anyway
        self._check_forward_holds_only_its_output((2, 64, 28, 28), (64, 64, 3, 3), pad=1, seed=16,
                                                  stride=2)

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
    def _check_forward_holds_only_its_output(xs, ks, pad, seed, stride=1):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.standard_normal(xs).astype(np.float32), requires_grad=True)
        k = ad.Tensor(rng.standard_normal(ks).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, k, stride=stride, pad=pad)
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

    def test_eval_without_stats_and_an_unknown_mode_are_refused(self):
        x, gamma, beta = t64(np.ones((2, 3, 2, 2))), t64(np.ones(3)), t64(np.zeros(3))
        with pytest.raises(ConfigurationError, match="eval mode requires running stats"):
            ad.batch_norm(x, gamma, beta, mode="eval")
        with pytest.raises(ConfigurationError, match="mode must be 'train' or 'eval'"):
            ad.batch_norm(x, gamma, beta, mode="test", stats=ad.RunningStats(3))

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_mask_is_the_input_mask_bit_for_bit(self, dtype):
        data = np.array([-1.0, -0.0, 0.0, 1e-30, 2.0], dtype=dtype)
        g = np.array([0.5, -3.0, 7.0, -0.25, 1.5], dtype=dtype)
        x = ad.Tensor(data, requires_grad=True)
        ad.tsum(ad.mul_const(ad.relu(x), g)).backward()
        assert x.grad.tobytes() == (g * (data > 0)).tobytes()


def _recipe_chain(seed, mode="train"):
    """x -> batch_norm -> relu -> pad2d -> relu, each output with its recipe
    at MIN_SAVED_BYTES = 0; returns x, gamma, beta and the four outputs."""
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
    gamma = ad.Tensor(rng.uniform(0.5, 1.5, 3).astype(np.float32), requires_grad=True)
    beta = ad.Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
    stats = ad.RunningStats(3)
    stats.mean, stats.var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    bn = ad.batch_norm(x, gamma, beta, mode=mode, stats=stats)
    r = ad.relu(bn)
    p = ad.pad2d(r, 1)
    return x, gamma, beta, (bn, r, p, ad.relu(p))


@pytest.mark.usefixtures("every_trick")
class TestRecipes:
    """Every recipe returns a new array, which its reader owns."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("which", ["batch_norm", "relu", "pad2d", "relu_over_pad2d"])
    def test_each_call_returns_a_new_array_of_the_forward_value(self, which, mode):
        _, _, _, outs = _recipe_chain(30, mode)
        t = dict(zip(["batch_norm", "relu", "pad2d", "relu_over_pad2d"], outs))[which]
        assert t.recipe is not None
        first, second = t.recipe(), t.recipe()
        assert not np.shares_memory(first, second) and not np.shares_memory(first, t.data)
        assert first.tobytes() == second.tobytes() == t.data.tobytes()
        first[...] = np.nan   # the reader owns it: the next call is unchanged
        assert t.recipe().tobytes() == t.data.tobytes()

    def test_a_relu_over_a_rebuilt_pad2d_rebuilds_and_keeps_the_eager_gradients(self, monkeypatch):
        def grads():
            x, gamma, beta, outs = _recipe_chain(31)
            w = np.random.default_rng(32).standard_normal(outs[-1].shape).astype(np.float32)
            ad.tsum(ad.mul_const(outs[-1], w)).backward()
            return outs[-1].recipe, [t.grad for t in (x, gamma, beta)]

        recipe, rebuilt = grads()
        with monkeypatch.context() as m:
            m.setattr(ad, "MIN_SAVED_BYTES", 1 << 20)
            no_recipe, eager = grads()
        assert recipe is not None and no_recipe is None
        for name, a, b in zip(("dX", "dgamma", "dbeta"), rebuilt, eager):
            assert a.tobytes() == b.tobytes(), name


class TestPool:
    def test_max_definition(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ad.pool(x, "max", 2).data[0, 0, 0, 0] == 4.0

    def test_unknown_mode_is_refused(self):
        with pytest.raises(ConfigurationError, match="pool mode must be 'max' or 'avg'"):
            ad.pool(t64(np.ones((1, 1, 2, 2))), "min", 2)

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

    @pytest.mark.parametrize("op", [ad.sub, ad.mul])
    def test_the_loss_graphs_elementwise_ops_refuse_a_shape_mismatch(self, op):
        with pytest.raises(DimensionError, match=f"{op.__name__} shape mismatch"):
            op(t64([1.0]), t64([1.0, 2.0]))


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = ad.softmax(t64(np.zeros((1, 5))))
        assert np.allclose(out.data, 0.2)

    def test_a_single_column_is_refused(self):
        # one level would always read 1.0
        with pytest.raises(DimensionError, match="c >= 2"):
            ad.softmax(t64(np.zeros((3, 1))))

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
    def test_backward_of_a_non_scalar_is_refused(self):
        x = t64(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(DimensionError, match="needs a scalar loss, got shape"):
            ad.relu(x).backward()
        assert x.grad is None

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

    @pytest.mark.parametrize("data", [[1, 2, 3], np.arange(3, dtype=np.int64), np.array([True, False])])
    def test_integer_or_boolean_data_becomes_float32(self, data):
        t = ad.Tensor(data)
        assert t.dtype == np.float32 and np.array_equal(t.data, np.asarray(data, dtype=np.float32))

    def test_no_grad_suppresses_tape(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with ad.no_grad():
            out = ad.relu(x)
        assert out._backward is None and not out.requires_grad


TINY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(2, 3, 4, 5), input_size=16)


TINY_BOTTLENECK = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(2, 3, 4, 5), input_size=16,
                              block_kind="bottleneck", stem_pool_window=3, stem_pool_pad=1)


def _owner(a):
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


def _tiny_step(spec=TINY, record=None):
    """Forward of a tiny network on a batch of 2 and its Euclidean loss.

    With ``record`` (a list), every op the network's forward records through
    ``autodiff._node`` appends (op, weakref to its output's memory, weakrefs
    to its parents' memory, the record index of the op that made each parent,
    None for a leaf); the record holds no array itself.
    """
    net = Network(spec)
    init_weights(net, 0)
    rng = np.random.default_rng(20)
    images = rng.random((2, 3, spec.input_size, spec.input_size), dtype=np.float32)
    targets = rng.dirichlet(np.ones(spec.num_labels), size=2).astype(np.float32)
    real = ad._node
    made_by = {}   # id of a live output Tensor -> its record index

    def watch(value, op, parents, vjp):
        record.append((op, weakref.ref(_owner(value)),
                       [weakref.ref(_owner(p.data)) for p in parents],
                       [made_by.get(id(p)) for p in parents]))
        out = real(value, op, parents, vjp)
        made_by[id(out)] = len(record) - 1
        return out

    if record is not None:
        ad._node = watch
    try:
        out = net.forward(images, mode="train")
    finally:
        ad._node = real
    return net, out, batch_loss_graph("euclidean", out.distribution, targets)


@pytest.mark.usefixtures("every_trick")
class TestTapeRelease:
    def test_backward_frees_the_tape_and_leaves_keep_their_gradients(self):
        record = []
        net, out, loss = _tiny_step(record=record)
        convs = [ref for op, ref, _, _ in record if op == "conv2d"]
        conv_data = convs[len(convs) // 2]
        assert conv_data() is not None
        order = ad._topo_order(loss.node)
        inner = [n for n in order if n._backward is not None]
        assert out.distribution.node in inner and out.features.node in inner
        del order
        loss.backward()
        assert conv_data() is None
        assert all(n.grad is None for n in inner)
        assert all(n._parents == () for n in inner)
        for rec in net.param_records():
            assert rec.tensor.grad is not None, rec.name
            assert rec.tensor.grad.shape == rec.tensor.shape, rec.name

    @pytest.mark.parametrize("spec", [TINY, TINY_BOTTLENECK], ids=["basic", "bottleneck_padded_pool"])
    def test_the_tape_keeps_no_value_a_backward_does_not_read(self, spec):
        # a ReLU over batch norm, and the pad2d of one, are rebuilt in the backward
        # from batch norm's input; every other conv or max-pool input an op made
        # stays (the stem conv rebuilds its window rows from the image)
        record = []
        net, _, loss = _tiny_step(spec, record)
        ops = [op for op, _, _, _ in record]
        assert {"batch_norm", "add", "conv2d", "max_pool"} <= set(ops)
        assert ("pad2d" in ops) == (spec.stem_pool_pad > 0)

        def rebuilt(i):
            op, _, _, makers = record[i]
            if op == "pad2d":
                return rebuilt(makers[0])
            return op == "relu" and record[makers[0]][0] == "batch_norm"

        freed = 0
        for op, value, parents, makers in record:
            if op in ("batch_norm", "add"):
                assert value() is None, op
            if op in ("conv2d", "max_pool") and makers[0] is not None:
                gone = rebuilt(makers[0])
                assert (parents[0]() is None) == gone, op
                freed += gone
        # every block's mid-block ReLUs, and the stem's ReLU or its pad2d copy
        assert freed == sum(len(blk.units) - 1 for blocks in net.stages for blk in blocks) + 1
        loss.backward()
        got = {r.name: r.tensor.grad for r in net.param_records()}

        net, _, loss = _tiny_step(spec)
        loss.backward()
        for rec in net.param_records():
            assert np.array_equal(got[rec.name], rec.tensor.grad), rec.name

    def test_a_forward_leaves_one_form_of_each_value_on_the_tape(self):
        # the numpy bytes a forward leaves alive are the batch-norm inputs, the
        # block-output ReLU outputs, the max-pool output, the five per-channel
        # vectors of each batch norm (mu, var, 1/std, s and the copy of beta) and
        # the head's outputs, which the caller holds; the stem keeps the caller's
        # image, not its window rows: a second form of any value, such as a kept
        # mid-block ReLU output or the stem's rows, exceeds the sum
        spec = TINY_BOTTLENECK
        net = Network(spec)
        init_weights(net, 0)
        images = np.random.default_rng(21).random((2, 3, 16, 16), dtype=np.float32)
        made = []   # (op, output bytes, the ops that made the parents, parent bytes)
        real = ad._node

        def watch(value, op, parents, vjp):
            made.append((op, value.nbytes, [p.op for p in parents], [p.data.nbytes for p in parents]))
            return real(value, op, parents, vjp)

        ad._node = watch
        tracemalloc.start()
        try:
            out = net.forward(images, mode="train")
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            ad._node = real
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        held = sum(t.size for t in snapshot.filter_traces([numpy_domain]).traces)

        assert made[0][0] == "conv2d" and made[0][2][0] == "leaf"   # the stem conv reads the image
        expected = (sum(sizes[0] for op, _, _, sizes in made if op == "batch_norm")
                    + sum(size for op, size, parent_ops, _ in made
                          if op == "relu" and parent_ops == ["add"])
                    + sum(size for op, size, _, _ in made if op == "max_pool")
                    + 5 * sum(s.mean.nbytes for s in net.running_stats())
                    + sum(t.data.nbytes for t in (out.features, out.logits, out.distribution)))
        assert held <= expected, (held, expected)

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


# (x shape, kernel shape, stride, pad, x needs a gradient): each kernel has more elements
# than the output gradient plus the operand its dK product reads, so its dK is deferred
DEFERRED_CONVS = {
    "stride1_3x3": ((2, 16, 4, 4), (32, 16, 3, 3), 1, 1, True),
    "pointwise": ((2, 32, 3, 3), (64, 32, 1, 1), 1, 0, True),
    "strided_pointwise": ((2, 16, 4, 4), (128, 16, 1, 1), 2, 0, True),
    "strided_3x3": ((2, 8, 6, 6), (32, 8, 3, 3), 2, 1, True),
    "input_without_gradient": ((2, 16, 4, 4), (32, 16, 3, 3), 1, 1, False),
    # read through a recipe: the ReLU over batch norm is rebuilt for the deferred dK
    "relu_over_batch_norm": ((2, 16, 4, 4), (32, 16, 3, 3), 1, 1, True),
    "strided_relu_over_batch_norm": ((2, 8, 6, 6), (32, 8, 3, 3), 2, 1, True),
}

# a bottleneck net whose last stage (1x1 maps at batch 2) has kernels larger than its activations
LAST_STAGE_HEAVY = NetworkSpec(block_counts=(1, 1, 1, 1), stage_widths=(4, 8, 16, 64), input_size=32,
                               block_kind="bottleneck", stem_pool_window=3, stem_pool_pad=1)


def _deferred_conv(case, seed=40):
    """A conv of DEFERRED_CONVS behind a scale, or a ReLU over batch norm (whose
    backward the walk runs after the conv's), and the loss sum(out * w) whose output
    gradient is w exactly."""
    xs, ks, stride, pad, x_grad = DEFERRED_CONVS[case]
    rng = np.random.default_rng(seed)
    x0 = ad.Tensor(rng.standard_normal(xs).astype(np.float32), requires_grad=x_grad)
    k = ad.Tensor(rng.standard_normal(ks).astype(np.float32), requires_grad=True)
    if case.endswith("relu_over_batch_norm"):
        c = xs[1]
        x = ad.relu(ad.batch_norm(x0, ad.Tensor(np.ones(c, np.float32), requires_grad=True),
                                  ad.Tensor(np.zeros(c, np.float32), requires_grad=True)))
        assert x.recipe is not None
    else:
        x = ad.scale(x0, 1.0)
    out = ad.conv2d(x, k, stride=stride, pad=pad)
    w = rng.standard_normal(out.shape).astype(np.float32)
    return x0, x, k, out, w, ad.tsum(ad.mul_const(out, w))


@pytest.mark.usefixtures("every_trick")
class TestDeferredWeightGradients:
    @pytest.mark.parametrize("case", [c for c, v in DEFERRED_CONVS.items() if v[-1]])
    def test_kernel_gradient_arrives_after_the_walk(self, case):
        _, x, k, _, _, loss = _deferred_conv(case)
        seen = []
        inner = x._backward

        def later(g):   # the walk reaches the scale after the conv
            seen.append(k.grad is None)
            inner(g)

        x._backward = later
        loss.backward()
        assert seen == [True]
        assert k.grad is not None and k.grad.shape == k.shape
        assert ad._deferred is None

    @pytest.mark.parametrize("case", sorted(DEFERRED_CONVS))
    def test_deferred_gradient_is_bitwise_the_direct_one(self, case):
        x0, _, k, _, _, loss = _deferred_conv(case)
        loss.backward()
        _, _, k_direct, out, w, _ = _deferred_conv(case)
        out._backward(w)   # outside a walk the callable runs at once
        assert np.array_equal(k.grad, k_direct.grad)
        assert x0.requires_grad == (x0.grad is not None)

    def test_a_shared_kernel_gets_the_sum_of_both_gradients(self):
        xs, ks, stride, pad, _ = DEFERRED_CONVS["stride1_3x3"]
        rng = np.random.default_rng(41)
        xa, xb = (ad.Tensor(rng.standard_normal(xs).astype(np.float32), requires_grad=True)
                  for _ in range(2))
        k = ad.Tensor(rng.standard_normal(ks).astype(np.float32), requires_grad=True)
        outs = [ad.conv2d(xi, k, stride=stride, pad=pad) for xi in (xa, xb)]
        ws = [rng.standard_normal(o.shape).astype(np.float32) for o in outs]
        ad.add(*(ad.tsum(ad.mul_const(o, wi)) for o, wi in zip(outs, ws))).backward()
        parts = []
        for xi, wi in zip((xa, xb), ws):
            kd = ad.Tensor(k.data, requires_grad=True)
            ad.conv2d(ad.Tensor(xi.data, requires_grad=True), kd, stride=stride, pad=pad)._backward(wi)
            parts.append(kd.grad)
        assert np.array_equal(k.grad, parts[0] + parts[1])

    def test_an_error_mid_walk_leaves_no_queued_gradient(self):
        _, x, k, _, _, loss = _deferred_conv("stride1_3x3")

        def fail(g):
            raise RuntimeError("vjp failed")

        x._backward = fail
        with pytest.raises(RuntimeError, match="vjp failed"):
            loss.backward()
        assert ad._deferred is None and k.grad is None
        x0, _, k2, _, _, other = _deferred_conv("pointwise")
        other.backward()   # a later walk runs only its own queue
        assert k.grad is None and k2.grad is not None and x0.grad is not None

    def test_backward_peak_stays_near_the_forward_peak(self):
        # the last stage's weight gradients wait for the end of the walk, when the
        # tape the walk consumed is gone; made in the walk they sat beside all of it
        net = Network(LAST_STAGE_HEAVY)
        init_weights(net, 0)
        rng = np.random.default_rng(42)
        images = rng.random((2, 3, 32, 32), dtype=np.float32)
        targets = rng.dirichlet(np.ones(5), size=2).astype(np.float32)
        tracemalloc.start()
        try:
            loss = batch_loss_graph("euclidean", net.forward(images).distribution, targets)
            _, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stage4 = sum(r.tensor.data.nbytes for r in net.param_records() if r.name.startswith("stage4"))
        assert stage4 > 0.4 * forward_peak   # made in the walk, these gradients would show
        assert backward_peak <= 1.1 * forward_peak, (forward_peak, backward_peak)


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

    @pytest.mark.usefixtures("every_trick")
    def test_conv_backward_builds_no_gradient_for_an_input_that_needs_none(self):
        # the stem's case: its input is the image, so the backward computes dK only.
        # Beyond the window rows it rebuilds and the padded copy of x they come from,
        # it allocates less than one dX
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
        rebuilt = 2 * 32 * 32 * 9 * 16 * 4 + 2 * 34 * 34 * 16 * 4   # (N*Ho*Wo, 9*C) rows, padded x
        assert peaks[False] - rebuilt < xs.nbytes <= peaks[True], peaks


def _desk_step_record():
    """One desk-scale training step (``NetworkSpec()``, batch 32), recording
    every conv2d call, every op's output Tensor, the window rows each
    backward builds and the leaves whose gradient arrives after the walk."""
    net = Network(NetworkSpec())
    init_weights(net, 0)
    rng = np.random.default_rng(23)
    images = rng.random((32, 3, 32, 32), dtype=np.float32)
    targets = rng.dirichlet(np.ones(5), size=32).astype(np.float32)
    convs, made, rows_built, late = [], [], [], []
    real_conv, real_node, real_rows, real_acc = ad.conv2d, ad._node, ad._window_rows, ad._accumulate

    def conv(x, k, stride=1, pad=0):
        convs.append((x.shape, x.requires_grad, k, stride, pad))
        return real_conv(x, k, stride=stride, pad=pad)

    def node(value, op, parents, vjp):
        out = real_node(value, op, parents, vjp)
        made.append((op, out, parents[0].op))
        return out

    def window_rows(a, kh, kw, stride):
        rows_built.append((a.shape, kh, stride))
        return real_rows(a, kh, kw, stride)

    def accumulate(leaf, grad):
        if ad._deferred is None:   # Tensor.backward has finished its walk
            late.append(leaf)
        real_acc(leaf, grad)

    ad.conv2d, ad._node = conv, node
    try:
        loss = batch_loss_graph("euclidean", net.forward(images).distribution, targets)
    finally:
        ad.conv2d, ad._node = real_conv, real_node
    ad._window_rows, ad._accumulate = window_rows, accumulate
    try:
        loss.backward()
    finally:
        ad._window_rows, ad._accumulate = real_rows, real_acc
    return convs, made, rows_built, late


class TestMemoryRule:
    def test_a_desk_step_takes_each_trick_where_the_rule_predicts(self):
        convs, made, rows_built, late = _desk_step_record()
        floor = ad.MIN_SAVED_BYTES
        recipes = [(op, out.recipe is not None, out.data.nbytes >= floor) for op, out, parent in made
                   if op == "batch_norm" or (op, parent) == ("relu", "batch_norm")]
        assert all(has == big for _, has, big in recipes), recipes
        # at desk scale only the stem's batch-norm output (32x8x32x32 floats, 1 MiB) and its ReLU
        assert sum(has for _, has, _ in recipes) == 2

        expected_rows, expected_late = [], []
        for (n, c, h, w), x_grad, k, stride, pad in convs:
            f, _, kh, kw = k.shape
            ho, wo = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
            defer = k.data.nbytes >= floor and k.data.size > n * f * ho * wo + n * c * h * w
            expected_late += [k] * defer
            if kh == kw == 1:
                continue
            if stride == 1 and x_grad:   # the padded gradient's rows, rebuilt for a deferred dK
                pg = kh - 1 - pad
                expected_rows += [((n, ho + 2 * pg, wo + 2 * pg, f), kh, 1)] * (1 + defer)
            elif n * ho * wo * kh * kw * c * 4 >= floor:   # the input's rows, rebuilt for dK
                expected_rows.append(((n, h + 2 * pad, w + 2 * pad, c), kh, stride))
        assert sorted(rows_built) == sorted(expected_rows)
        assert [id(t.node) for t in expected_late] == [id(leaf) for leaf in late]
        # desk scale defers no dK, and rebuilds the stem's 3.4 MiB of rows from the image
        assert late == [] and ((32, 34, 34, 3), 3, 1) in rows_built

    def test_a_resnet50_step_fits_its_pinned_bytes(self):
        # numpy's bytes, traced after one warm-up step, so the weights, the SGD
        # velocities and numpy's first-use allocations are not counted; these
        # bytes repeat to within 2 KiB across steps, inputs and processes
        spec = full_scale_spec(50)
        net = Network(spec)
        init_weights(net, 0)
        rng = np.random.default_rng(24)
        images = rng.random((2, 3, 224, 224), dtype=np.float32)
        targets = rng.dirichlet(np.ones(5), size=2).astype(np.float32)
        records, velocities = net.param_records(), {}
        config = TrainConfig(batch_size=2, loss="euclidean", seed=0)
        numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        mib = 2 ** 20
        for iteration in range(2):
            if iteration:
                tracemalloc.start()
            try:
                loss = batch_loss_graph("euclidean", net.forward(images).distribution, targets)
                if iteration:
                    _, forward_peak = tracemalloc.get_traced_memory()
                    tape = sum(t.size for t in
                               tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces)
                    tracemalloc.reset_peak()
                loss.backward()
                sgd_step(records, velocities, config, iteration)
                if iteration:
                    _, backward_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert tape <= 141.5 * mib, tape / mib
        assert max(forward_peak, backward_peak) <= 153 * mib, (forward_peak / mib, backward_peak / mib)


SUITE_CASES = ["dense", "conv2d", "conv2d_strided", "batch_norm_train", "batch_norm_eval",
               "relu", "max_pool", "global_avg_pool", "add", "softmax", "pad2d",
               "euclidean_graph", "euclidean_sq_graph", "kl_graph", "conv2d_pointwise",
               "conv2d_padded", "conv2d_over_bn_relu"]
# the suite's cases that call each network op
CASES_OF_OP = {
    "dense": {"dense"},
    "conv2d": {"conv2d", "conv2d_strided", "conv2d_pointwise", "conv2d_padded",
               "conv2d_over_bn_relu"},
    "batch_norm": {"batch_norm_train", "batch_norm_eval", "conv2d_over_bn_relu"},
    "relu": {"relu", "conv2d_over_bn_relu"},
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

    def test_the_oracle_takes_the_rebuilt_and_deferred_paths(self, monkeypatch):
        # its shapes are far below MIN_SAVED_BYTES, so it runs with the threshold at 0
        recipes, late = [], []
        right_bn, right_acc = ad.batch_norm, ad._accumulate

        def recording(*args, **kwargs):
            out = right_bn(*args, **kwargs)
            recipes.append(out.recipe is not None)
            return out

        def accumulate(leaf, grad):
            late.append(ad._deferred is None)   # added after the walk: a deferred dK
            right_acc(leaf, grad)

        monkeypatch.setattr(ad, "batch_norm", recording)
        monkeypatch.setattr(ad, "_accumulate", accumulate)
        floor = ad.MIN_SAVED_BYTES
        assert gradient_suite(num_seeds=1)[1] and any(recipes)
        assert end_to_end_check(seed=0)[0].passed and any(late)
        assert ad.MIN_SAVED_BYTES == floor == 1 << 20

    def test_the_rebuilt_relu_case_keeps_every_input_off_the_kink(self, monkeypatch):
        # the draws of the acceptance suite: no batch-norm output within 0.05 of 0
        outputs = []
        right = ad.batch_norm

        def recording(*args, **kwargs):
            out = right(*args, **kwargs)
            outputs.append(out.data)
            return out

        monkeypatch.setattr(ad, "batch_norm", recording)
        for s in range(50):
            _, loss_fn = _op_cases(np.random.default_rng(1000 + s))["conv2d_over_bn_relu"]
            outputs.clear()
            loss_fn()
            assert len(outputs) == 1 and np.abs(outputs[0]).min() >= 0.05, s

    @pytest.mark.parametrize("num_seeds", [0, -2, 1.0])
    def test_suite_without_a_draw_is_refused(self, num_seeds):
        # no draw would check no op and still pass
        with pytest.raises(ConfigurationError, match="num_seeds"):
            gradient_suite(num_seeds=num_seeds)

    @pytest.mark.parametrize("seed", [-1, 0.5])
    def test_end_to_end_check_refuses_a_bad_seed(self, seed):
        with pytest.raises(ConfigurationError, match="end_to_end_check seed"):
            end_to_end_check(seed=seed)

    @pytest.mark.parametrize("check", [gradient_suite, end_to_end_check])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0, -1e-5, "1e-5", True])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, check, tol):
        # NaN and <= 0 failed every op after the whole suite ran; inf passed any error
        with pytest.raises(ConfigurationError, match=f"{check.__name__} tol"):
            check(tol=tol)

    @pytest.mark.parametrize("knob,value", [("eps", 0), ("eps", -1e-5), ("eps", float("nan")),
                                            ("tol", float("nan")), ("tol", 0), ("tol", "1e-5")])
    def test_a_step_or_tolerance_that_is_not_finite_and_positive_is_refused(self, knob, value):
        # eps 0 divided by zero, -1e-5 passed as +1e-5, NaN failed every parameter;
        # tol NaN and 0 failed every parameter with a 0.0 error
        w = t64(np.ones(2), requires_grad=True)
        with pytest.raises(ConfigurationError, match=f"grad_check {knob} must be a finite num"):
            grad_check([("w", w)], lambda: ad.tsum(ad.mul(w, w)), **{knob: value})

    def test_summary_lists_each_parameter_and_the_verdict(self):
        w = t64(np.ones(2), requires_grad=True)
        rep = grad_check([("w", w)], lambda: ad.tsum(ad.mul(w, w)))
        assert rep.summary().splitlines() == [
            "gradcheck eps=1e-05 tol=1e-05",
            "  w: checked 2 elements, max rel err 0.000e+00",
            "  overall max rel err 0.000e+00 -> PASS"]
        rep = grad_check([("w", w)], lambda: ad.tsum(ad.mul_const(w, np.array([1.0, np.nan]))))
        lines = rep.summary().splitlines()
        assert lines[1].startswith("  FAILURE: non-finite loss in forward pass")
        assert lines[2].endswith("-> FAIL")

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

    @pytest.mark.parametrize("value", [5e-6, 1e-5], ids=["nan", "minus_inf"])
    def test_a_perturbed_loss_that_is_not_finite_fails_the_check(self, value):
        # the forward at value is finite; log(value - eps) is NaN or -inf
        w = t64([2.0, value], requires_grad=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            rep = grad_check([("w", w)], lambda: ad.tsum(ad.log_(w)), eps=1e-5)
        assert not rep.passed and rep.failure == "non-finite loss while perturbing w[1]"

    def test_suite_records_inf_for_a_case_whose_perturbed_loss_is_not_finite(self, monkeypatch):
        right = ad.relu

        def nan_without_tape(x):   # the perturbed losses run under no_grad
            out = right(x)
            if not ad._grad_enabled:
                out.data = out.data * np.nan
            return out

        monkeypatch.setattr(ad, "relu", nan_without_tape)
        worst, passed = gradient_suite(num_seeds=1)
        assert not passed
        assert {name for name, err in worst.items() if err == float("inf")} == CASES_OF_OP["relu"]

    @pytest.mark.parametrize("view", [lambda a: a.T, lambda a: a[:, ::2]], ids=["transposed", "strided"])
    def test_a_non_contiguous_parameter_is_checked_through_a_contiguous_copy(self, view):
        rng = np.random.default_rng(33)
        w = ad.Tensor(view(rng.standard_normal((4, 6))), requires_grad=True)
        assert not w.data.flags["C_CONTIGUOUS"]
        pw = rng.standard_normal(w.shape)
        rep = grad_check([("w", w)], lambda: ad.tsum(ad.mul(w, ad.mul_const(w, pw))))
        assert rep.passed and rep.params[0].checked == w.data.size, rep.summary()
        assert w.data.flags["C_CONTIGUOUS"]
