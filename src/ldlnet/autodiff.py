"""Reverse-mode automatic differentiation over dense numpy tensors.

A :class:`Tensor` wraps a float32/float64 ndarray, its value, and owns one
small graph :class:`Node` that holds ``grad``, ``requires_grad``, the parent
nodes and the backward closure ``_backward``; the Tensor reads and assigns
``grad``, ``requires_grad`` and ``_backward`` through its node. Ops build a
dynamic tape of nodes: every result's node links to its parents' *nodes*,
never to their values, so an array outlives the forward only while some
backward closure captured it, and each closure captures only what its
vector-Jacobian product reads (Chainer's ``VariableNode`` and PyTorch's
``grad_fn`` keep graph and values apart in the same way).
``loss.backward()`` walks the nodes once in reverse topological order and
consumes them. Leaves (nodes with no closure: parameters and inputs that
require grad) receive their gradients in ``.grad``; every other node drops
its ``.grad``, closure and parents once its closure has run, so each saved
array is freed once the walk has passed its last reader and no deferred
weight gradient (below) still reads it. A second backward through a
consumed node raises :class:`ConfigurationError`.

Every op records itself through one helper, ``_node(value, op, parents,
vjp)``: the op computes its output value and hands over a vector-Jacobian
product, ``vjp(g)``, that returns one gradient per parent (None for one it
skips). In the backward, ``_node`` adds each gradient into its parent when
that parent requires grad. A vjp reads ``requires_grad`` itself only to skip
costly work: conv2d's dX and dK, and batch_norm's dx.

A vjp may hand back a zero-argument callable instead of a gradient array,
as conv2d does for a kernel larger than the arrays its dK product reads. For
a leaf, during a walk, ``_node`` queues the callable and ``Tensor.backward``
runs the queue in walk order once the walk is done, so the big weight
gradient is not held while the rest of the tape waits (the input-/weight-
gradient split of Zero Bubble pipeline parallelism, Qi et al. 2023, applied
to memory). Outside a walk, or for a parent that is not a leaf, the callable
runs at once. The FLOPs, operands and summation order do not change, so the
gradients are bitwise the same. This relies on one rule every vjp keeps: no
vjp writes into the ``g`` it receives (``add`` hands the same ``g`` to both
parents), so an array a queued callable captured still holds its value.

A Tensor may also carry a ``recipe``: a zero-argument function that
rebuilds its value bitwise from arrays the tape holds anyway, through the
forward's own operations (the memory sharing of Chen et al. 2016, arXiv
1604.06174). Ops set one after ``_node`` returns, and only on wired nodes
with big values (below): a ``batch_norm`` output gets one from its input,
mu, s and a copy of beta, and a ``relu`` or ``pad2d`` of a value with a
recipe one from that recipe. A backward that reads a parent's value
(conv2d's dK, the max pool's slab comparison) keeps ``_saved(parent)``, the
recipe when there is one and the array otherwise (read through ``_value``),
and the parent's node rather than the parent Tensor, so a value with a recipe
is freed as soon as the forward has moved past it. The FLOPs and operands
do not change, so every gradient is bitwise what the stored values would
give. This relies on one more rule: every recipe returns a new array, which
its reader owns.

Each of these memory tricks spends time to hold one array less, so each
fires only for a big array, one of at least MIN_SAVED_BYTES (1 MiB): a
batch-norm output gets a recipe (and so the relu over it and a pad2d of
that) only when big, conv2d defers dK only for a big kernel, and keeps its
window rows only when they are not big. Below that size a rebuild costs
more time than its memory is worth: at the desk network's and smaller
shapes the tricks would save about 2 MiB and cost 7-12% of a step. The
threshold is a module constant, not an option; the gradient oracle
(:mod:`ldlnet.gradcheck`) runs with it at 0, so that its small shapes take
every trick.

Training runs in float32; float64 exists for finite-difference verification
(see :mod:`ldlnet.gradcheck`).

Every op takes and returns (N,C,H,W) activations. An unpadded 1x1
``conv2d`` is a per-image matmul of the kernel with the input as it lies,
(F,C) @ (C,H*W), with no layout copy. Every other ``conv2d`` computes
channels-last inside the op: its window rows, matmuls and gradient buffers
are (N,H,W,C), so each window is a run of kw*C contiguous floats and the
input gradient needs no scatter. A conv keeps its window rows on the tape
only when they are not big; otherwise it rebuilds them from its saved input
in the backward. At stride 1, when the input needs a gradient, the window
rows of the padded gradient, built for the input gradient, give the weight
gradient as well, and no input rows are kept.
The op boundary stays NCHW because every other op, the network, the tests
and gradcheck use that layout, and so does the benchmark's tracer, which
counts conv FLOPs from NCHW output shapes.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchSizeError, ConfigurationError, DimensionError, _integer

_grad_enabled = True
_deferred = None   # (leaf node, callable) pairs queued while Tensor.backward walks, else None
BN_EPS = 1e-5   # added to the variance under batch norm's square root
MIN_SAVED_BYTES = 1 << 20   # the least an array must hold for the tape to rebuild it or wait past it


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


class Node:
    """The graph side of one Tensor: its gradient, whether it needs one, the
    nodes of its parents and the backward closure that feeds them."""

    __slots__ = ("grad", "requires_grad", "_parents", "_backward")

    def __init__(self, requires_grad):
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None


def _on_node(name):
    """A Tensor attribute that reads and assigns its node's ``name``."""
    return property(lambda t: getattr(t.node, name), lambda t, v: setattr(t.node, name, v))


class Tensor:
    """Dense n-dimensional float array, the graph node it owns and, on some
    wired nodes, the ``recipe`` that rebuilds the array (module docstring)."""

    __slots__ = ("data", "op", "node", "recipe")
    grad = _on_node("grad")
    requires_grad = _on_node("requires_grad")
    _backward = _on_node("_backward")

    def __init__(self, data, requires_grad=False, op="leaf", dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.op = op
        self.node = Node(bool(requires_grad))
        self.recipe = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self):
        """Propagate d(self)/d(leaf) into ``.grad`` of every reachable leaf,
        consuming the tape.

        The walk visits graph nodes, not values: nodes are popped off the
        topological order, last first. Once a node's closure has run, its
        ``.grad``, closure and parents are dropped, and with them the arrays
        the closure saved, unless a deferred weight gradient still reads
        them; only leaves keep ``.grad``. The deferred weight gradients run
        after the walk, in walk order, each freeing what it read; the queue
        is emptied even when the walk raises. A graph that reaches a node an
        earlier backward consumed raises ConfigurationError before any
        gradient is touched.
        """
        global _deferred
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self.node)
        if any(node._backward is _consumed for node in order):
            raise ConfigurationError(
                "backward() reached a node an earlier backward() consumed; run the forward again")
        self.grad = np.ones_like(self.data)
        outer, _deferred = _deferred, []
        try:
            while order:
                node = order.pop()
                if node._backward is not None:
                    node._backward(node.grad)
                    node.grad, node._backward, node._parents = None, _consumed, ()
            queue, _deferred = _deferred[::-1], None   # popped, so each runs once and is freed
            while queue:
                node, grad = queue.pop()
                _accumulate(node, grad())
        finally:
            _deferred = outer

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"


def _topo_order(root):
    """Parents-before-children ordering of every node reachable from the node ``root``."""
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


def _accumulate(node, grad):
    node.grad = grad if node.grad is None else node.grad + grad


def _node(value, op, parents, vjp):
    """The Tensor ``value`` that ``op`` made from ``parents``, its node wired
    to the parents' nodes with a backward that adds ``vjp(g)``'s gradients
    into the parents that require grad. The node holds no value: ``vjp``
    keeps alive only what it captured. The vjp's scratch arrays are freed
    before any gradient is added. A gradient handed back as a callable is
    queued for the end of the walk when its parent is a leaf and a walk is
    running, and called at once otherwise."""
    out = Tensor(value, op=op)
    nodes = tuple(p.node for p in parents)
    if _grad_enabled and any(p.requires_grad for p in nodes):
        def bwd(g):
            for p, dp in zip(nodes, vjp(g)):
                if dp is None or not p.requires_grad:
                    continue
                if callable(dp):
                    if _deferred is not None and p._backward is None:
                        _deferred.append((p, dp))
                        continue
                    dp = dp()
                _accumulate(p, dp)

        node = out.node
        node.requires_grad, node._parents, node._backward = True, nodes, bwd
    return out


def _with_recipe(out, recipe):
    """``out``, carrying ``recipe`` when its node is wired and its value holds
    at least MIN_SAVED_BYTES."""
    if out.node._backward is not None and out.data.nbytes >= MIN_SAVED_BYTES:
        out.recipe = recipe
    return out


def _saved(t):
    """What a backward keeps to read ``t``'s value: its recipe, or else its
    array. No closure is made, so the tape holds no object for it."""
    return t.data if t.recipe is None else t.recipe


def _value(saved):
    """The value that ``_saved`` kept: the array, or what its recipe rebuilds."""
    return saved() if callable(saved) else saved


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
    return _node(x.data @ w.data + b.data, "dense", (x, w, b),
                 lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


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


def _input_rows(xd, kh, kw, stride, pad):
    """The window rows of x:(N,C,H,W), zero-padded by ``pad``, as conv2d reads them."""
    return _window_rows(_pad_hw(xd.transpose(0, 2, 3, 1), pad, pad), kh, kw, stride)


def _grad_rows(gmat, n, ho, wo, kh, kw, pad):
    """The stride-1 window rows of the channels-last gradient gmat:(N*Ho*Wo, F),
    padded by kh-1-pad (cropped where pad is larger), that conv2d's
    stride-1 backward reads."""
    return _window_rows(_pad_hw(gmat.reshape(n, ho, wo, -1), kh - 1 - pad, kw - 1 - pad), kh, kw, 1)


def _columns(xd, stride):
    """The columns of an unpadded 1x1 conv over x:(N,C,H,W): every stride-th
    pixel of each channel, as (N, C, Ho*Wo)."""
    return xd[:, :, ::stride, ::stride].reshape(*xd.shape[:2], -1)


def _defers(kd, operand_size):
    """Whether conv2d hands back the weight gradient of kernels kd for the end
    of the walk: they hold at least MIN_SAVED_BYTES and have more elements
    than the operands its callable keeps (the output gradient and the input)."""
    return kd.nbytes >= MIN_SAVED_BYTES and kd.size > operand_size


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
    view at stride 1 and a copy taken afresh from x by each direction at
    stride > 1 (the op keeps only ``_saved(x)``), each image's output is
    k2 @ cols[n] for k2 = k as (F, C). Its backward is
    dK = sum_n g[n] @ cols[n].T and dX = k2.T @ g, put into every stride-th
    pixel of zeros when stride > 1. dK is summed image by image into one
    (F, C) buffer through one (F, C) scratch product, in batch order, so no
    (N, F, C) stack of per-image products is ever held.

    Every other conv is channels-last inside the op. The forward transposes
    the padded input to (N,H,W,C) once, takes its window rows
    (N*Ho*Wo, kh*kw*C) and multiplies them by the kernel reordered to
    (F, kh*kw*C) in one matmul (im2col, Chellapilla et al. 2006).

    The forward keeps its window rows, and then not its input, only when
    they hold less than MIN_SAVED_BYTES: dK = gmat.T @ rows. Bigger rows,
    such as the full-scale stem's, are rebuilt from ``_saved(x)`` in the
    backward (the stem keeps the image instead). When x needs a gradient
    and stride > 1, dX is kh*kw slab adds of contiguous C-runs into an
    (N,H,W,C) buffer.

    At stride 1, when x needs a gradient, the forward keeps no rows,
    whatever their size, and the input gradient is the stride-1
    convolution of the gradient, padded by kh-1-pad (cropped when
    pad is larger), with the flipped, transposed kernels (Dumoulin & Visin
    2016): one matmul on the window rows ``grows`` of that padded gradient.
    The same rows give the weight gradient against x itself: with X the
    input as (N*H*W, C) rows and M = grows.T @ X as (kh, kw, F, C),
    dK[f,c,i,j] = M[kh-1-i, kw-1-j, f, c].

    The boundary stays NCHW because every other op, the network, gradcheck
    and the tests use it. The reordered kernel is rebuilt in the backward
    rather than held on the tape.

    When the kernel holds at least MIN_SAVED_BYTES and has more elements
    than the output gradient plus x, the backward hands dK back as a
    callable that ``Tensor.backward`` runs after its walk: the callable
    keeps the gradient (``gmat`` channels-last) and what the tape already
    held, and rebuilds the gradient or window rows rather than keep them.
    In a ResNet-50 at batch 2 that is the stride-1 3x3 convs of stage 3,
    the strided 3x3 convs of stages 3 and 4 and every stage-4 conv but the
    first block's 1x1 reduce; at desk scale no kernel is that big.
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
    xnode = x.node

    if kh == kw == 1 and pad == 0:
        saved = _saved(x)
        k2 = k.data.reshape(f, c)

        def vjp(g):
            gv = g.reshape(n, f, ho * wo)

            def weight_grad():
                cols = _columns(_value(saved), stride)
                dk = gv[0] @ cols[0].T
                part = np.empty_like(dk)
                for gi, ci in zip(gv[1:], cols[1:]):
                    dk += np.matmul(gi, ci.T, out=part)
                return dk.reshape(k.shape)

            dk = None
            if k.requires_grad:
                dk = weight_grad if _defers(k.data, g.size + n * c * h * w) else weight_grad()
            if not xnode.requires_grad:
                return None, dk
            dx = np.matmul(k2.T, gv).reshape(n, c, ho, wo)
            if stride > 1:
                dx, dcols = np.zeros((n, c, h, w), dtype=dx.dtype), dx
                dx[:, :, ::stride, ::stride] = dcols
            return dx, dk

        return _node(np.matmul(k2, _columns(x.data, stride)).reshape(n, f, ho, wo), "conv2d", (x, k),
                     vjp)

    rows = _input_rows(x.data, kh, kw, stride, pad)
    out = _nchw(rows @ _kernel_rows(k.data).T, n, ho, wo)
    from_grad_rows = stride == 1 and xnode.requires_grad   # dK from the gradient's rows against x
    saved = None
    if from_grad_rows or rows.nbytes >= MIN_SAVED_BYTES:   # the backward reads x, not rows
        rows, saved = None, _saved(x)

    def vjp(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        grows = _grad_rows(gmat, n, ho, wo, kh, kw, pad) if from_grad_rows else None

        def weight_grad(grows=None):   # deferred, it rebuilds the rows it reads
            if not from_grad_rows:
                m = gmat.T @ (_input_rows(_value(saved), kh, kw, stride, pad) if rows is None else rows)
                return np.ascontiguousarray(m.reshape(f, kh, kw, c).transpose(0, 3, 1, 2))
            if grows is None:
                grows = _grad_rows(gmat, n, ho, wo, kh, kw, pad)
            m = grows.T @ _value(saved).transpose(0, 2, 3, 1).reshape(n * h * w, c)
            return np.ascontiguousarray(m.reshape(kh, kw, f, c)[::-1, ::-1].transpose(2, 3, 0, 1))

        dk = None
        if k.requires_grad:
            dk = weight_grad if _defers(k.data, g.size + n * c * h * w) else weight_grad(grows)
        if from_grad_rows:
            kflip = k.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, kh * kw * f)
            return _nchw(grows @ kflip.T, n, h, w), dk
        if not xnode.requires_grad:
            return None, dk
        drows = (gmat @ _kernel_rows(k.data)).reshape(n, ho, wo, kh, kw, c)
        dxp = np.zeros((n, hp, wp, c), dtype=drows.dtype)
        for u in range(kh):
            for v in range(kw):
                dxp[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += drows[:, :, :, u, v]
        return np.ascontiguousarray(dxp[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)), dk

    return _node(out, "conv2d", (x, k), vjp)


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


def batch_norm(x, gamma, beta, mode="train", stats=None):
    """Per-channel normalization of x:(N,C,H,W); one forward and one
    backward serve both modes.

    Train mode normalizes with the batch statistics (the biased variance is
    taken from the centred input), keeps them in ``stats.batch_mean``/
    ``batch_var``, and its backward is exact through them. Eval mode
    normalizes with ``stats.mean``/``stats.var``.

    Both directions work from per-channel sums over an (N, C, H*W) view.
    With ``inv`` = 1/sqrt(var + BN_EPS) and s = gamma*inv, the output is
    (x - mu)*s + beta. The tape keeps only x and the per-channel mu and
    ``inv`` of the forward, so later changes to ``stats`` do not reach the
    backward. On a wired node whose output holds at least MIN_SAVED_BYTES,
    the output's recipe rebuilds it bitwise from x, mu, s and a copy of
    beta through the forward's own ops, so a relu over it need not keep its
    output. The backward takes sum(g) and sum(g*x) in one pass each and
    gets sum(g*(x - mu)) = sum(g*x) - mu*sum(g) from them, with no
    normalized or centred copy of x:
    dgamma = inv*sum(g*(x - mu)),
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
    centred = None
    if mode == "train":
        if n < 2:
            raise BatchSizeError(f"batch_norm train mode needs batch size >= 2, got {n}")
        mu = np.einsum("nci->c", xv) / m
        centred = xv - mu[:, None]
        var = np.einsum("nci,nci->c", centred, centred) / m
        if stats is not None:
            stats.batch_mean, stats.batch_var = mu, var
    elif mode == "eval":
        if stats is None:
            raise ConfigurationError("batch_norm eval mode requires running stats")
        mu = stats.mean.astype(x.dtype)
        var = stats.var.astype(x.dtype)
    else:
        raise ConfigurationError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    inv = 1.0 / np.sqrt(var + BN_EPS)
    s = gamma.data * inv
    b, shape = beta.data.copy(), x.shape

    def output(out=None):
        """The output from xv, mu, s and b; ``out`` is the centred input in train mode."""
        if mode == "train":
            out = xv - mu[:, None] if out is None else out
            out *= s[:, None]
            out += b[:, None]
        else:
            out = xv * s[:, None]
            out += (b - mu * s)[:, None]
        return out.reshape(shape)

    def vjp(g):
        gv = g.reshape(xv.shape)
        sum_g = np.einsum("nci->c", gv)
        sum_gxc = np.einsum("nci,nci->c", gv, xv) - mu * sum_g
        dx = None
        if x.requires_grad:
            dx = gv * s[:, None]
            if mode == "train":
                b = s * inv * inv * sum_gxc / m
                dx -= xv * b[:, None]
                dx += (b * mu - s * sum_g / m)[:, None]
            dx = dx.reshape(x.shape)
        return dx, inv * sum_gxc, sum_g

    return _with_recipe(_node(output(centred), "batch_norm", (x, gamma, beta), vjp), output)


def relu(x):
    """Elementwise max(0, x); subgradient at 0 defined as 0. The backward
    masks with the output, which is > 0 exactly where x is, so x's value
    stays off the tape.

    Where x has a recipe (a big batch-norm output, or a pad2d of its ReLU),
    the output is not kept either: its recipe takes np.maximum, in place, of
    the new array x's recipe returns, and the backward masks with a rebuild.
    """
    r = np.maximum(x.data, 0)
    if x.recipe is None:
        return _node(r, "relu", (x,), lambda g: (g * (r > 0),))
    rebuild = x.recipe

    def recipe():
        v = rebuild()
        return np.maximum(v, 0, out=v)

    return _with_recipe(_node(r, "relu", (x,), lambda g: (g * (rebuild() > 0),)), recipe)


def pool(x, mode, window, stride=None):
    """Square max pooling, or global average pooling, of x:(N,C,H,W).

    Max pooling is a running maximum over the window**2 strided slabs
    ``x[:, :, u::stride, v::stride]``; the backward sends each gradient to
    the first slab, in row-major order, that holds the maximum, reading x
    through ``_saved(x)`` (in the network, the stem's rebuilt ReLU). Average
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
        shape = x.shape
        return _node(x.data.mean(axis=(2, 3), keepdims=True), "avg_pool", (x,),
                     lambda g: (np.broadcast_to(g / (h * w), shape).copy(),))

    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    offsets = [(u, v) for u in range(window) for v in range(window)]

    def slab(a, u, v):
        return a[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride]

    top = slab(x.data, 0, 0).copy()
    for u, v in offsets[1:]:
        np.maximum(top, slab(x.data, u, v), out=top)
    saved, shape, dtype = _saved(x), x.shape, x.dtype

    def vjp(g):
        xd = _value(saved)
        dx = np.zeros(shape, dtype=dtype)
        free = np.ones(top.shape, dtype=bool)   # outputs no earlier slab has taken
        for u, v in offsets:
            hit = free & (slab(xd, u, v) == top)
            free &= ~hit
            slab(dx, u, v)[...] += g * hit
        return (dx,)

    return _node(top, "max_pool", (x,), vjp)


def add(a, b):
    """Elementwise sum of identically shaped tensors (residual shortcut)."""
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _node(a.data + b.data, "add", (a, b), lambda g: (g, g))


def softmax(z):
    """Row softmax of z:(N,c), computed with max subtraction for stability."""
    if z.data.ndim != 2 or z.shape[1] < 2:
        raise DimensionError(f"softmax expects (N,c) with c >= 2, got {z.shape}")
    e = np.exp(z.data - z.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return _node(p, "softmax", (z,), lambda g: (p * (g - (g * p).sum(axis=1, keepdims=True)),))


def pad2d(x, pad):
    """Zero-pad the two spatial dims of x:(N,C,H,W) by ``pad`` on every side.
    Where x has a recipe, so has the output: np.pad of x's."""
    if x.data.ndim != 4:
        raise DimensionError(f"pad2d expects (N,C,H,W), got {x.shape}")
    pad = _integer("pad2d", "pad", pad, 0)
    if pad == 0:
        return x
    widths = ((0, 0), (0, 0), (pad, pad), (pad, pad))
    out = _node(np.pad(x.data, widths), "pad2d", (x,), lambda g: (g[:, :, pad:-pad, pad:-pad],))
    rebuild = x.recipe
    return out if rebuild is None else _with_recipe(out, lambda: np.pad(rebuild(), widths))


# ---------------------------------------------------------------------------
# elementwise / reduction helpers used by the loss graphs
# ---------------------------------------------------------------------------

def sub(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    return _node(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a, b):
    if a.shape != b.shape:
        raise DimensionError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    return _node(a.data * b.data, "mul", (a, b), lambda g: (g * b.data, g * a.data))


def mul_const(x, c):
    """Multiply by a constant array (no gradient flows into ``c``)."""
    c = np.asarray(c, dtype=x.dtype)
    return _node(x.data * c, "mul_const", (x,), lambda g: (g * c,))


def scale(x, s):
    return _node(x.data * s, "scale", (x,), lambda g: (g * s,))


def add_scalar(x, s):
    return _node(x.data + s, "add_scalar", (x,), lambda g: (g,))


def tsum(x, axis=None):
    """Sum over all elements (axis=None, scalar result) or over one axis."""
    shape = x.shape

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _node(x.data.sum(axis=axis), "sum", (x,), vjp)


def sqrt_(x):
    root = np.sqrt(x.data)
    return _node(root, "sqrt", (x,), lambda g: (g * 0.5 / root,))


def log_(x):
    return _node(np.log(x.data), "log", (x,), lambda g: (g / x.data,))


def clamp_min(x, floor):
    """Elementwise max(x, floor); gradient passes only where x > floor."""
    return _node(np.maximum(x.data, floor), "clamp_min", (x,), lambda g: (g * (x.data > floor),))


def reshape(x, shape):
    old = x.shape
    return _node(x.data.reshape(shape), "reshape", (x,), lambda g: (g.reshape(old),))
