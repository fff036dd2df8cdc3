"""Reverse-mode automatic differentiation over dense numpy tensors.

A :class:`Tensor` wraps a float32/float64 ndarray. Ops build a dynamic tape:
every result remembers its parent tensors and a backward closure, and
``loss.backward()`` walks the tape once in reverse topological order,
accumulating gradients into every reachable tensor with ``requires_grad``.

Training runs in float32; float64 exists for finite-difference verification
(see :mod:`ldlnet.gradcheck`).

Every op takes and returns (N,C,H,W) activations. ``conv2d`` computes
channels-last inside the op: its window rows, matmuls and gradient buffers
are (N,H,W,C), so each window is a run of kw*C contiguous floats and the
input gradient needs no scatter. The op boundary stays NCHW because every
other op, the network, the tests and gradcheck use that layout, and so does
the benchmark's tracer, which counts conv FLOPs from NCHW output shapes.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchSizeError, ConfigurationError, DimensionError

_grad_enabled = True


class no_grad:
    """Disable tape recording inside a ``with`` block (eval-mode forwards)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense n-dimensional float array, a node of the differentiation tape."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, op="leaf", dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def backward(self):
        """Propagate d(self)/d(param) into ``.grad`` of every reachable tensor."""
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"


def _topo_order(root):
    """Parents-before-children ordering of every node reachable from ``root``."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _wire(out, parents, bwd):
    if _grad_enabled and any(p.requires_grad for p in parents):
        out._parents = tuple(parents)
        out._backward = bwd
        out.requires_grad = True
    return out


def _bc(a):
    """Broadcast a per-channel vector over an (N, C, H, W) block."""
    return a.reshape(1, -1, 1, 1)


# ---------------------------------------------------------------------------
# layer primitives
# ---------------------------------------------------------------------------

def dense(x, w, b):
    """Affine map ``x @ w + b`` for x:(N,K), w:(K,M), b:(M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise DimensionError(f"dense expects 2-d x and w, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"dense inner dimensions disagree: x {x.shape} vs w {w.shape}")
    if b.data.ndim != 1 or b.shape[0] != w.shape[1]:
        raise DimensionError(f"dense bias shape {b.shape} does not match w {w.shape}")
    out = Tensor(x.data @ w.data + b.data, op="dense")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _wire(out, (x, w, b), bwd)


def _pad_hw(a, ph, pw):
    """C-contiguous copy of the channels-last a:(N,H,W,C) with its H and W
    axes zero-padded by ph and pw on each side, or cropped by as much where
    negative. A contiguous ``a`` with nothing to pad or crop comes back as is.
    """
    ch, cw = max(-ph, 0), max(-pw, 0)
    a = a[:, ch:a.shape[1] - ch, cw:a.shape[2] - cw]
    ph, pw = max(ph, 0), max(pw, 0)
    if ph == pw == 0:
        return np.ascontiguousarray(a)
    n, h, w, c = a.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=a.dtype)
    out[:, ph:ph + h, pw:pw + w] = a
    return out


def _window_rows(a, kh, kw, stride):
    """The kh x kw windows of a contiguous channels-last a:(N,H,W,C) at
    ``stride``, one row per output position: (N*Ho*Wo, kh*kw*C), ordered
    (kh, kw, C).

    A row is kh runs of kw*C contiguous floats; for a 1x1 window at stride 1
    the rows are a free reshape of ``a``.
    """
    n, h, w, c = a.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = a.strides
    win = np.lib.stride_tricks.as_strided(
        a,
        (n, ho, wo, kh, kw, c),
        (s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    return win.reshape(n * ho * wo, kh * kw * c)


def _kernel_rows(kd):
    """Kernels kd:(F,C,kh,kw) as an (F, kh*kw*C) matrix, columns ordered as window rows."""
    return kd.transpose(0, 2, 3, 1).reshape(kd.shape[0], -1)


def _nchw(rows, n, h, w):
    """(N*H*W, C) channels-last rows as a contiguous (N,C,H,W) array."""
    return np.ascontiguousarray(rows.reshape(n, h, w, -1).transpose(0, 3, 1, 2))


def conv2d(x, k, stride=1, pad=0):
    """Cross-correlation of x:(N,C,H,W) with kernels k:(F,C,kh,kw); no kernel flip.

    Inside the op everything is channels-last. The forward transposes the
    padded input to (N,H,W,C) once, takes its window rows (N*Ho*Wo, kh*kw*C)
    and multiplies them by the kernel reordered to (F, kh*kw*C) in one
    matmul (im2col, Chellapilla et al. 2006). The weight gradient is
    gmat.T @ rows. At stride 1 the input gradient is the stride-1
    convolution of the gradient, padded by kh-1-pad (cropped when pad is
    larger), with the flipped, transposed kernels (Dumoulin & Visin 2016):
    one window copy and one matmul. At larger strides it is kh*kw slab adds
    of contiguous C-runs into an (N,H,W,C) buffer. The boundary stays NCHW
    because every other op, the network, gradcheck and the tests use it.
    Only the window rows are kept for the backward; the reordered kernel
    is rebuilt there rather than held on the tape.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d operands, got {x.shape} and {k.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = k.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {k.shape}")
    if stride < 1:
        raise ConfigurationError(f"conv2d stride must be >= 1, got {stride}")
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ConfigurationError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ConfigurationError(f"conv2d output dims {ho}x{wo} are not positive")

    rows = _window_rows(_pad_hw(x.data.transpose(0, 2, 3, 1), pad, pad), kh, kw, stride)
    out = Tensor(_nchw(rows @ _kernel_rows(k.data).T, n, ho, wo), op="conv2d")

    def bwd(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        if k.requires_grad:
            dk = (gmat.T @ rows).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
            _accum(k, np.ascontiguousarray(dk))
        if not x.requires_grad:
            return
        if stride == 1:
            grows = _window_rows(
                _pad_hw(gmat.reshape(n, ho, wo, f), kh - 1 - pad, kw - 1 - pad), kh, kw, 1)
            kflip = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, kh * kw * f)
            _accum(x, _nchw(grows @ kflip.T, n, h, w))
            return
        drows = (gmat @ _kernel_rows(k.data)).reshape(n, ho, wo, kh, kw, c)
        dxp = np.zeros((n, hp, wp, c), dtype=drows.dtype)
        for u in range(kh):
            for v in range(kw):
                dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += drows[:, :, :, u, v]
        _accum(x, np.ascontiguousarray(dxp[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)))

    return _wire(out, (x, k), bwd)


class RunningStats:
    """Per-channel running mean/variance used by eval-mode batch norm.

    ``batch_mean`` and ``batch_var`` hold the statistics of the last
    train-mode batch itself (None before the first one).
    """

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.batch_mean = self.batch_var = None

    def reset(self):
        self.mean = np.zeros_like(self.mean)
        self.var = np.ones_like(self.var)


def batch_norm(x, gamma, beta, mode="train", stats=None, momentum=0.9, eps=1e-5):
    """Per-channel normalization of x:(N,C,H,W).

    Train mode normalizes with batch statistics (biased variance), keeps
    them in ``stats.batch_mean``/``stats.batch_var`` and folds them into
    ``stats`` with momentum; eval mode normalizes with ``stats``.
    The backward pass is exact through the batch mean and variance.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"batch_norm expects (N,C,H,W), got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3)

    if mode == "train":
        if x.shape[0] < 2:
            raise BatchSizeError(
                f"batch_norm train mode needs batch size >= 2, got {x.shape[0]}")
        m = float(x.shape[0] * x.shape[2] * x.shape[3])
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        if stats is not None:
            stats.batch_mean, stats.batch_var = mu, var
            stats.mean = (momentum * stats.mean + (1.0 - momentum) * mu).astype(stats.mean.dtype)
            stats.var = (momentum * stats.var + (1.0 - momentum) * var).astype(stats.var.dtype)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - _bc(mu)) * _bc(inv)
        out = Tensor(_bc(gamma.data) * xhat + _bc(beta.data), op="batch_norm")

        def bwd(g):
            sum_g = g.sum(axis=axes)
            sum_gx = (g * xhat).sum(axis=axes)
            if gamma.requires_grad:
                _accum(gamma, sum_gx)
            if beta.requires_grad:
                _accum(beta, sum_g)
            if x.requires_grad:
                coef = _bc(gamma.data * inv) / m
                _accum(x, coef * (m * g - _bc(sum_g) - xhat * _bc(sum_gx)))

        return _wire(out, (x, gamma, beta), bwd)

    if mode == "eval":
        if stats is None:
            raise ConfigurationError("batch_norm eval mode requires running stats")
        inv = 1.0 / np.sqrt(stats.var.astype(x.dtype) + eps)
        xhat = (x.data - _bc(stats.mean.astype(x.dtype))) * _bc(inv)
        out = Tensor(_bc(gamma.data) * xhat + _bc(beta.data), op="batch_norm")

        def bwd(g):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).sum(axis=axes))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=axes))
            if x.requires_grad:
                _accum(x, g * _bc(gamma.data * inv))

        return _wire(out, (x, gamma, beta), bwd)

    raise ConfigurationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")


def relu(x):
    """Elementwise max(0, x); subgradient at 0 defined as 0."""
    out = Tensor(np.maximum(x.data, 0), op="relu")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * (x.data > 0))

    return _wire(out, (x,), bwd)


def pool(x, mode, window, stride=None):
    """Square max/avg pooling over x:(N,C,H,W).

    Max pooling routes the gradient to the argmax (first-index tie-break);
    avg pooling distributes it uniformly. Global average pooling is the
    window == spatial-size case.
    """
    if mode not in ("max", "avg"):
        raise ConfigurationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    if x.data.ndim != 4:
        raise DimensionError(f"pool expects (N,C,H,W), got {x.shape}")
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ConfigurationError(f"pool window {window} exceeds spatial dims {h}x{w}")
    if window < 1 or stride < 1:
        raise ConfigurationError("pool window and stride must be >= 1")
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    s0, s1, s2, s3 = x.data.strides
    win = np.lib.stride_tricks.as_strided(
        x.data,
        (n, c, ho, wo, window, window),
        (s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )

    if mode == "avg":
        out = Tensor(win.mean(axis=(4, 5)), op="avg_pool")

        def bwd(g):
            if not x.requires_grad:
                return
            dx = np.zeros_like(x.data)
            share = g / (window * window)
            for u in range(window):
                for v in range(window):
                    dx[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += share
            _accum(x, dx)

        return _wire(out, (x,), bwd)

    flat = win.reshape(n, c, ho, wo, window * window)
    idx = flat.argmax(axis=4)
    out = Tensor(np.take_along_axis(flat, idx[..., None], axis=4)[..., 0], op="max_pool")

    def bwd(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        for u in range(window):
            for v in range(window):
                dx[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += \
                    g * (idx == u * window + v)
        _accum(x, dx)

    return _wire(out, (x,), bwd)


def add(a, b):
    """Elementwise sum of identically shaped tensors (residual shortcut)."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data, op="add")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _wire(out, (a, b), bwd)


def softmax(z):
    """Row softmax of z:(N,c), computed with max subtraction for stability."""
    if z.data.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"softmax expects (N,c) with c >= 2, got {z.shape}")
    e = np.exp(z.data - z.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, op="softmax")

    def bwd(g):
        if z.requires_grad:
            _accum(z, p * (g - (g * p).sum(axis=1, keepdims=True)))

    return _wire(out, (z,), bwd)


def pad2d(x, pad):
    """Zero-pad the two spatial dims of x:(N,C,H,W) by ``pad`` on every side."""
    if pad < 0:
        raise ConfigurationError(f"pad2d pad must be >= 0, got {pad}")
    if pad == 0:
        return x
    out = Tensor(np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))), op="pad2d")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g[:, :, pad:-pad, pad:-pad])

    return _wire(out, (x,), bwd)


# ---------------------------------------------------------------------------
# elementwise / reduction helpers used by the loss graphs
# ---------------------------------------------------------------------------

def sub(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data, op="sub")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, -g)

    return _wire(out, (a, b), bwd)


def mul(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data, op="mul")

    def bwd(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _wire(out, (a, b), bwd)


def mul_const(x, c):
    """Multiply by a constant array (no gradient flows into ``c``)."""
    c = np.asarray(c, dtype=x.dtype)
    out = Tensor(x.data * c, op="mul_const")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * c)

    return _wire(out, (x,), bwd)


def scale(x, s):
    out = Tensor(x.data * s, op="scale")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * s)

    return _wire(out, (x,), bwd)


def add_scalar(x, s):
    out = Tensor(x.data + s, op="add_scalar")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g)

    return _wire(out, (x,), bwd)


def tsum(x, axis=None):
    """Sum over all elements (axis=None, scalar result) or over one axis."""
    out = Tensor(x.data.sum(axis=axis), op="sum")

    def bwd(g):
        if not x.requires_grad:
            return
        if axis is None:
            _accum(x, np.broadcast_to(g, x.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.shape).copy())

    return _wire(out, (x,), bwd)


def sqrt_(x):
    root = np.sqrt(x.data)
    out = Tensor(root, op="sqrt")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * 0.5 / root)

    return _wire(out, (x,), bwd)


def log_(x):
    out = Tensor(np.log(x.data), op="log")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g / x.data)

    return _wire(out, (x,), bwd)


def clamp_min(x, floor):
    """Elementwise max(x, floor); gradient passes only where x > floor."""
    out = Tensor(np.maximum(x.data, floor), op="clamp_min")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * (x.data > floor))

    return _wire(out, (x,), bwd)


def reshape(x, shape):
    out = Tensor(x.data.reshape(shape), op="reshape")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g.reshape(x.shape))

    return _wire(out, (x,), bwd)
