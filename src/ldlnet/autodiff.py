"""Reverse-mode automatic differentiation over dense numpy tensors.

A :class:`Tensor` wraps a float32/float64 ndarray. Ops build a dynamic tape:
every result remembers its parent tensors and a backward closure, and
``loss.backward()`` walks the tape once in reverse topological order and
consumes it. Leaves (tensors with no closure: parameters and inputs that
require grad) receive their gradients in ``.grad``; every other node drops
its ``.grad``, closure and parents once its closure has run, so each saved
activation is freed as soon as the walk passes its last reader. A second
backward through a consumed node raises :class:`ConfigurationError`.

Training runs in float32; float64 exists for finite-difference verification
(see :mod:`ldlnet.gradcheck`).

Every op takes and returns (N,C,H,W) activations. An unpadded 1x1
``conv2d`` is a per-image matmul of the kernel with the input as it lies,
(F,C) @ (C,H*W), with no layout copy. Every other ``conv2d`` computes
channels-last inside the op: its window rows, matmuls and gradient buffers
are (N,H,W,C), so each window is a run of kw*C contiguous floats and the
input gradient needs no scatter. Only strided convs and convs whose input
needs no gradient keep their window rows on the tape; at stride 1 the window
rows of the padded gradient, built for the input gradient, give the weight
gradient as well. The op boundary stays NCHW because every other op, the
network, the tests and gradcheck use that layout, and so does the
benchmark's tracer, which counts conv FLOPs from NCHW output shapes.
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

    def backward(self):
        """Propagate d(self)/d(leaf) into ``.grad`` of every reachable leaf,
        consuming the tape.

        Nodes are popped off the topological order, last first. Once a
        node's closure has run, its ``.grad``, closure and parents are
        dropped, and with them the arrays the closure saved; only leaves
        keep ``.grad``. A graph that reaches a node an earlier backward
        consumed raises ConfigurationError before any gradient is touched.
        """
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self)
        if any(node._backward is _consumed for node in order):
            raise ConfigurationError(
                "backward() reached a node an earlier backward() consumed; run the forward again")
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad, node._backward, node._parents = None, _consumed, ()

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


def _consumed(g):
    """The closure of a node whose backward has run. A marker only:
    ``Tensor.backward`` refuses any graph that reaches it."""


def _accum(t, g):
    t.grad = g if t.grad is None else t.grad + g


def _integer(op, name, value, least):
    """``value`` as an int no smaller than ``least``; ConfigurationError for
    anything else, a bool or a whole-valued float included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{op} {name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{op} {name} must be >= {least}, got {value}")
    return int(value)


def _wire(out, parents, bwd):
    if _grad_enabled and any(p.requires_grad for p in parents):
        out._parents = tuple(parents)
        out._backward = bwd
        out.requires_grad = True
    return out


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

    A 1x1 kernel with no pad skips im2col, as Caffe's convolution layer
    does: with cols = x[:, :, ::stride, ::stride] as (N, C, Ho*Wo), a free
    view at stride 1 and the only array it keeps, each image's output is
    k2 @ cols[n] for k2 = k as (F, C). Its backward is dK = sum_n
    g[n] @ cols[n].T and dX = k2.T @ g, put into every stride-th pixel of
    zeros when stride > 1.

    Every other conv is channels-last inside the op. The forward transposes
    the padded input to (N,H,W,C) once, takes its window rows
    (N*Ho*Wo, kh*kw*C) and multiplies them by the kernel reordered to
    (F, kh*kw*C) in one matmul (im2col, Chellapilla et al. 2006).

    At stride 1, when x needs a gradient, the forward drops its window rows.
    The input gradient is the stride-1 convolution of the gradient, padded
    by kh-1-pad (cropped when pad is larger), with the flipped, transposed
    kernels (Dumoulin & Visin 2016): one matmul on the window rows ``grows``
    of that padded gradient. The same rows give the weight gradient against
    x itself, which the tape holds anyway as the op's parent: with X the
    input as (N*H*W, C) rows and M = grows.T @ X as (kh, kw, F, C),
    dK[f,c,i,j] = M[kh-1-i, kw-1-j, f, c].

    Every other conv (stride > 1, or an input that needs no gradient, such
    as the stem's image) keeps its window rows and takes dK = gmat.T @ rows.
    At stride > 1 the input gradient is kh*kw slab adds of contiguous C-runs
    into an (N,H,W,C) buffer. The boundary stays NCHW because every other
    op, the network, gradcheck and the tests use it. The reordered kernel is
    rebuilt in the backward rather than held on the tape.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-d operands, got {x.shape} and {k.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = k.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {k.shape}")
    stride = _integer("conv2d", "stride", stride, 1)
    pad = _integer("conv2d", "pad", pad, 0)
    hp, wp = h + 2 * pad, w + 2 * pad
    if kh > hp or kw > wp:
        raise ConfigurationError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    if kh == kw == 1 and pad == 0:
        cols = x.data[:, :, ::stride, ::stride].reshape(n, c, ho * wo)
        k2 = k.data.reshape(f, c)
        out = Tensor(np.matmul(k2, cols).reshape(n, f, ho, wo), op="conv2d")

        def bwd(g):
            gv = g.reshape(n, f, ho * wo)
            if k.requires_grad:
                _accum(k, np.matmul(gv, cols.transpose(0, 2, 1)).sum(axis=0).reshape(k.shape))
            if not x.requires_grad:
                return
            dx = np.matmul(k2.T, gv).reshape(n, c, ho, wo)
            if stride > 1:
                dx, dcols = np.zeros_like(x.data), dx
                dx[:, :, ::stride, ::stride] = dcols
            _accum(x, dx)

        return _wire(out, (x, k), bwd)

    rows = _window_rows(_pad_hw(x.data.transpose(0, 2, 3, 1), pad, pad), kh, kw, stride)
    out = Tensor(_nchw(rows @ _kernel_rows(k.data).T, n, ho, wo), op="conv2d")
    from_grad_rows = stride == 1 and x.requires_grad
    if from_grad_rows:
        rows = None   # the backward's gradient rows give dK against x itself

    def bwd(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        if from_grad_rows:
            grows = _window_rows(
                _pad_hw(gmat.reshape(n, ho, wo, f), kh - 1 - pad, kw - 1 - pad), kh, kw, 1)
            if k.requires_grad:
                m = grows.T @ x.data.transpose(0, 2, 3, 1).reshape(n * h * w, c)
                dk = m.reshape(kh, kw, f, c)[::-1, ::-1].transpose(2, 3, 0, 1)
                _accum(k, np.ascontiguousarray(dk))
            kflip = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, kh * kw * f)
            _accum(x, _nchw(grows @ kflip.T, n, h, w))
            return
        if k.requires_grad:
            dk = (gmat.T @ rows).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
            _accum(k, np.ascontiguousarray(dk))
        if not x.requires_grad:
            return
        drows = (gmat @ _kernel_rows(k.data)).reshape(n, ho, wo, kh, kw, c)
        dxp = np.zeros((n, hp, wp, c), dtype=drows.dtype)
        for u in range(kh):
            for v in range(kw):
                dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += drows[:, :, :, u, v]
        _accum(x, np.ascontiguousarray(dxp[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)))

    return _wire(out, (x, k), bwd)


class RunningStats:
    """Per-channel mean/variance used by eval-mode batch norm.

    In a network, ``mean`` and ``var`` are written only by
    ``training.recompute_bn_stats`` (population values over the train split),
    ``reset`` and ``Network.load_state_dict``. ``batch_mean`` and
    ``batch_var`` hold the statistics of the last train-mode batch itself
    (None before the first one).
    """

    def __init__(self, channels, dtype=np.float32):
        self.mean = np.zeros(channels, dtype=dtype)
        self.var = np.ones(channels, dtype=dtype)
        self.batch_mean = self.batch_var = None

    def reset(self):
        self.mean = np.zeros_like(self.mean)
        self.var = np.ones_like(self.var)


def batch_norm(x, gamma, beta, mode="train", stats=None, eps=1e-5):
    """Per-channel normalization of x:(N,C,H,W); one forward and one
    backward serve both modes.

    Train mode normalizes with the batch statistics (the biased variance is
    taken from the centred input), keeps them in ``stats.batch_mean``/
    ``batch_var``, and its backward is exact through them. Eval mode
    normalizes with ``stats.mean``/``stats.var``.

    Both directions work from per-channel sums over an (N, C, H*W) view.
    With ``inv`` = 1/sqrt(var + eps) and s = gamma*inv, the output is
    (x - mu)*s + beta. The tape keeps only x and the per-channel mu and
    ``inv`` of the forward, so later changes to ``stats`` do not reach the
    backward. The backward takes sum(g) and sum(g*x) in one pass each and
    gets sum(g*(x - mu)) = sum(g*x) - mu*sum(g) from them, with no
    normalized or centred copy of x: dgamma = inv*sum(g*(x - mu)),
    dbeta = sum(g), and in train mode, with m = N*H*W and
    b = s*inv**2*sum(g*(x - mu))/m,
    dx = g*s - x*b + (b*mu - s*sum(g)/m). In eval mode dx = g*s.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"batch_norm expects (N,C,H,W), got {x.shape}")
    n, c = x.shape[:2]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(
            f"batch_norm gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}")
    xv = x.data.reshape(n, c, -1)
    m = xv.shape[0] * xv.shape[2]
    if mode == "train":
        if n < 2:
            raise BatchSizeError(f"batch_norm train mode needs batch size >= 2, got {n}")
        mu = np.einsum("nci->c", xv) / m
        out = xv - mu[:, None]
        var = np.einsum("nci,nci->c", out, out) / m
        if stats is not None:
            stats.batch_mean, stats.batch_var = mu, var
    elif mode == "eval":
        if stats is None:
            raise ConfigurationError("batch_norm eval mode requires running stats")
        mu = stats.mean.astype(x.dtype)
        var = stats.var.astype(x.dtype)
    else:
        raise ConfigurationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(var + eps)
    s = gamma.data * inv
    if mode == "train":
        out *= s[:, None]
        out += beta.data[:, None]
    else:
        out = xv * s[:, None]
        out += (beta.data - mu * s)[:, None]
    out = Tensor(out.reshape(x.shape), op="batch_norm")

    def bwd(g):
        gv = g.reshape(xv.shape)
        sum_g = np.einsum("nci->c", gv)
        sum_gxc = np.einsum("nci,nci->c", gv, xv) - mu * sum_g
        if gamma.requires_grad:
            _accum(gamma, inv * sum_gxc)
        if beta.requires_grad:
            _accum(beta, sum_g)
        if x.requires_grad:
            dx = gv * s[:, None]
            if mode == "train":
                b = s * inv * inv * sum_gxc / m
                dx -= xv * b[:, None]
                dx += (b * mu - s * sum_g / m)[:, None]
            _accum(x, dx.reshape(x.shape))

    return _wire(out, (x, gamma, beta), bwd)


def relu(x):
    """Elementwise max(0, x); subgradient at 0 defined as 0."""
    out = Tensor(np.maximum(x.data, 0), op="relu")

    def bwd(g):
        if x.requires_grad:
            _accum(x, g * (x.data > 0))

    return _wire(out, (x,), bwd)


def pool(x, mode, window, stride=None):
    """Square max pooling, or global average pooling, of x:(N,C,H,W).

    Max pooling is a running maximum over the window**2 strided slabs
    ``x[:, :, u::stride, v::stride]``; the backward sends each gradient to
    the first slab, in row-major order, that holds the maximum. Average
    pooling needs window == H == W: a per-channel mean, backward g/(H*W).
    """
    if mode not in ("max", "avg"):
        raise ConfigurationError(f"pool mode must be 'max' or 'avg', got {mode!r}")
    if x.data.ndim != 4:
        raise DimensionError(f"pool expects (N,C,H,W), got {x.shape}")
    window = _integer("pool", "window", window, 1)
    stride = window if stride is None else _integer("pool", "stride", stride, 1)
    h, w = x.shape[2:]
    if window > h or window > w:
        raise ConfigurationError(f"pool window {window} exceeds spatial dims {h}x{w}")

    if mode == "avg":
        if window != h or window != w:
            raise ConfigurationError(
                f"average pooling is global only: window {window} on {h}x{w}")
        out = Tensor(x.data.mean(axis=(2, 3), keepdims=True), op="avg_pool")

        def bwd(g):
            if x.requires_grad:
                _accum(x, np.broadcast_to(g / (h * w), x.shape).copy())

        return _wire(out, (x,), bwd)

    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    offsets = [(u, v) for u in range(window) for v in range(window)]

    def slab(a, u, v):
        return a[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]

    top = slab(x.data, 0, 0).copy()
    for u, v in offsets[1:]:
        np.maximum(top, slab(x.data, u, v), out=top)
    out = Tensor(top, op="max_pool")

    def bwd(g):
        if not x.requires_grad:
            return
        dx = np.zeros_like(x.data)
        free = np.ones(top.shape, dtype=bool)   # outputs no earlier slab has taken
        for u, v in offsets:
            hit = free & (slab(x.data, u, v) == top)
            free &= ~hit
            slab(dx, u, v)[...] += g * hit
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
    if x.data.ndim != 4:
        raise DimensionError(f"pad2d expects (N,C,H,W), got {x.shape}")
    pad = _integer("pad2d", "pad", pad, 0)
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
