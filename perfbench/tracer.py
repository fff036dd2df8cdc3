"""Outside-in span tracer for ldlnet.

The tracer never edits the package. ``install()`` replaces public functions
on the ldlnet modules (and a few methods on their classes) with timing
wrappers, and wraps the backward closure of every tensor an autodiff op
creates; ``restore()`` puts every original attribute back.

Accounting: every wrapped call is a span. A span adds its wall time to
``<name>.ms``, its self time (wall time minus the wall time of the spans it
directly contains) to ``<name>.self_ms``, and one to ``<name>.calls``; a
span that also counts toward an aggregate adds its wall time and one call
to the aggregate's ``.ms`` and ``.calls``.
Op spans are named ``autodiff.<op>.fwd`` / ``autodiff.<op>.bwd``; an op that
runs inside ``Network.forward`` is also charged to ``network.<stage>.fwd`` /
``.bwd``, the stage coming from the parameter registry name of the op's
weight (``stem``, ``stage1``..``stage4``, ``fc`` -> ``head``).

Spans opened through :meth:`Tracer.root` are the benchmark's own timed calls;
their wall time adds up in ``root.ms``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from ldlnet import autodiff, checkpoint, data, imageio, imaging, network, synth, training

# autodiff functions timed one by one; the helpers only the loss graphs use
# are pooled under ``loss_ops``
OPS = ("conv2d", "batch_norm", "relu", "add", "pad2d", "dense", "softmax", "reshape")
LOSS_OPS = ("sub", "mul", "mul_const", "scale", "add_scalar", "tsum", "sqrt_", "log_", "clamp_min")

# the argument that carries the op's registered weight, by op
_WEIGHT_ARG = {"conv2d": 1, "batch_norm": 1, "dense": 1}


def _stage_of_name(param_name):
    head = param_name.split(".", 1)[0]
    return "head" if head == "fc" else head


class Tracer:
    """Span totals for one traced region; install, run, then restore."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.stage = None          # network stage of the op running now, None outside forward
        self._child = []           # per open span: wall time of its direct children
        self._patched = []         # (owner, attribute, original)
        self._network = None       # the network whose parameters _param_stage maps
        self._param_stage = {}     # id(param tensor) -> (tensor, stage)

    # -- span accounting ---------------------------------------------------

    def _enter(self):
        self._child.append(0.0)
        return perf_counter()

    def _exit(self, name, t0, extra=None):
        dur = perf_counter() - t0
        child = self._child.pop()
        if self._child:
            self._child[-1] += dur
        tot = self.totals
        tot[name + ".ms"] += dur * 1e3
        tot[name + ".self_ms"] += (dur - child) * 1e3
        tot[name + ".calls"] += 1
        if extra is not None:
            tot[extra + ".ms"] += dur * 1e3
            tot[extra + ".calls"] += 1
        return dur

    def root(self, name, fn, *args, **kwargs):
        """Run one of the benchmark's timed calls as a root span."""
        t0 = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.totals["root.ms"] += self._exit(name, t0) * 1e3

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_fn(self, name, fn, after=None, extra=None):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, t0, extra)
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _op_fn(self, op, fn):
        tracer = self
        weight_arg = _WEIGHT_ARG.get(op)

        def wrapper(*args, **kwargs):
            name = op
            if op == "pool":
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                name = "max_pool" if mode == "max" else "avg_pool"
            stage = tracer.stage
            if stage is not None and weight_arg is not None and len(args) > weight_arg:
                hit = tracer._param_stage.get(id(args[weight_arg]))
                if hit is not None and hit[0] is args[weight_arg]:
                    stage = tracer.stage = hit[1]
            key = "autodiff." + name
            t0 = tracer._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(key + ".fwd", t0,
                             extra=None if stage is None else f"network.{stage}.fwd")
            if name == "conv2d":
                tracer._count_conv(args, out)
            # pad2d(x, 0) hands back x itself: its backward belongs to x's op
            created = all(out is not a for a in args)
            if created and getattr(out, "_backward", None) is not None:
                out._backward = tracer._timed_backward(key, stage, out._backward,
                                                       args if name == "conv2d" else None)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_backward(self, key, stage, bwd, conv_args):
        tracer = self
        extra = None if stage is None else f"network.{stage}.bwd"

        def timed(g):
            t0 = tracer._enter()
            try:
                bwd(g)
            finally:
                tracer._exit(key + ".bwd", t0, extra=extra)
            if conv_args is not None:
                x, k = conv_args[0], conv_args[1]
                n_grads = int(x.requires_grad) + int(k.requires_grad)
                tracer.totals["autodiff.conv2d.gflop"] += n_grads * tracer._conv_gflop(k, g)

        return timed

    @staticmethod
    def _conv_gflop(k, out_like):
        n, _, ho, wo = out_like.shape
        f, c, kh, kw = k.shape
        return 2.0 * n * ho * wo * f * c * kh * kw / 1e9

    def _count_conv(self, args, out):
        self.totals["autodiff.conv2d.gflop"] += self._conv_gflop(args[1], out.data)
        self.totals["autodiff.conv2d.out_mb"] += out.data.nbytes / 1e6

    def _register_network(self, net):
        self._network = net
        self._param_stage = {id(t): (t, _stage_of_name(name))
                             for name, t in net.named_parameters()}

    def install(self):
        """Replace the traced attributes; pair every call with :meth:`restore`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        tracer = self
        for op in OPS + ("pool",):
            self._patch(autodiff, op, self._op_fn(op, getattr(autodiff, op)))
        for op in LOSS_OPS:
            self._patch(autodiff, op, self._op_fn("loss_ops", getattr(autodiff, op)))
        self._patch(autodiff.Tensor, "backward",
                    self._span_fn("autodiff.tape", autodiff.Tensor.backward))

        for attr in ("__init__", "load_state_dict"):
            self._patch(network.Network, attr,
                        self._span_fn("network.build", getattr(network.Network, attr)))
        for owner in (network, training):
            self._patch(owner, "init_weights", self._span_fn("network.build", owner.init_weights))

        net_forward = network.Network.forward

        def forward(net, batch, mode="train"):
            if tracer._network is not net:
                tracer._register_network(net)
            prev, tracer.stage = tracer.stage, "stem"
            try:
                out = net_forward(net, batch, mode)
            finally:
                tracer.stage = prev
            tracer.totals["network.forward_images"] += out.logits.shape[0]
            return out

        self._patch(network.Network, "forward", forward)
        block_forward = network.ResidualBlock.forward

        def block(blk, x, mode):
            out = block_forward(blk, x, mode)
            if tracer.stage is not None:
                tracer.stage = "head"   # what follows the last block is the head
            return out

        self._patch(network.ResidualBlock, "forward", block)

        for attr in ("sgd_step", "evaluate"):
            self._patch(training, attr, self._span_fn("training." + attr, getattr(training, attr)))
        self._patch(training, "_batch_arrays",
                    self._span_fn("training.batch", training._batch_arrays))
        self._patch(training, "batch_loss_value",
                    self._span_fn("distributions.loss", training.batch_loss_value))
        for attr in ("kl_loss", "chebyshev", "pearson"):
            self._patch(training, attr, self._span_fn("distributions." + attr, getattr(training, attr),
                                                      extra="distributions.eval_metrics"))

        self._patch(data, "load_index", self._span_fn("data.load_index", data.load_index))
        for owner in (data, imaging):
            self._patch(owner, "normalize_image",
                        self._span_fn("imaging.normalize_image", owner.normalize_image))

        def ppm_bytes(args, kwargs, out):
            tracer.totals["imageio.read_ppm.mb"] += out.shape[1] * out.shape[2] * 3 / 1e6

        self._patch(imageio, "read_ppm", self._span_fn("imageio.read_ppm", imageio.read_ppm, ppm_bytes))

        def ckpt_bytes(args, kwargs, out):
            tracer.totals["checkpoint.mb"] += os.path.getsize(args[-1]) / 1e6

        self._patch(checkpoint, "load", self._span_fn("checkpoint.load", checkpoint.load, ckpt_bytes))
        self._patch(checkpoint, "save", self._span_fn("checkpoint.save", checkpoint.save, ckpt_bytes))
        self._patch(synth, "synth_dataset", self._span_fn("synth.synth_dataset", synth.synth_dataset))
        return self

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.stage = None
        self._network = None
        self._param_stage = {}

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
