"""Residual convolutional network over the autodiff tape.

The layout is stem conv -> BN -> ReLU -> maxpool -> four block groups ->
global average pool -> dense head -> softmax. Group i holds ``n_i + 1``
blocks (one explicit downsampling block plus n_i repeats), so block counts
{2,3,5,2} give the familiar 50 weighted layers and {2,3,22,2} give 101.
``skip_connections=False`` builds the plain twin: the same main-path
convolutions with every shortcut removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError, DimensionError, _integer

# main-path (conv, BN) units of each block kind: (kernel, width as a multiple
# of the stage width, whether the unit takes the block's stride)
BLOCK_LAYOUTS = {
    "basic": ((3, 1, True), (3, 1, False)),
    "bottleneck": ((1, 1, False), (3, 1, True), (1, 4, False)),
}
# initial gamma of the last batch norm in each residual branch (skip nets only)
BRANCH_END_GAMMA = 0.1


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture, desk-scale by default; refused when made if its stem pool outgrows its map."""

    block_counts: tuple = (1, 1, 1, 1)
    stage_widths: tuple = (8, 16, 32, 64)
    block_kind: str = "basic"          # "basic" | "bottleneck"
    skip_connections: bool = True
    input_size: int = 32               # square side
    num_labels: int = 5
    stem_kernel: int = 3
    stem_stride: int = 1
    stem_pool_window: int = 2
    stem_pool_stride: int = 2
    stem_pool_pad: int = 0

    def __post_init__(self):
        for name in ("block_counts", "stage_widths"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)) or len(value) != 4:
                raise ConfigurationError(f"{name} must be 4 integers >= 1, got {value!r}")
            object.__setattr__(self, name, tuple(_integer("NetworkSpec", name, n, 1) for n in value))
        if not isinstance(self.block_kind, str) or self.block_kind not in BLOCK_LAYOUTS:
            raise ConfigurationError(
                f"block_kind must be one of {tuple(BLOCK_LAYOUTS)}, got {self.block_kind!r}")
        if not isinstance(self.skip_connections, bool):
            raise ConfigurationError(
                f"skip_connections must be a bool, got {self.skip_connections!r}")
        for name in ("input_size", "num_labels", "stem_kernel", "stem_stride",
                     "stem_pool_window", "stem_pool_stride", "stem_pool_pad"):
            low = 0 if name == "stem_pool_pad" else 1
            object.__setattr__(self, name, _integer("NetworkSpec", name, getattr(self, name), low))
        stage_spatial_sizes(self)


def full_scale_spec(depth=50):
    """The full-scale configuration: bottleneck blocks on 224x224 inputs."""
    counts = {50: (2, 3, 5, 2), 101: (2, 3, 22, 2)}
    if depth not in counts:
        raise ConfigurationError(f"full_scale_spec supports depths 50 and 101, got {depth}")
    return NetworkSpec(
        block_counts=counts[depth],
        stage_widths=(64, 128, 256, 512),
        block_kind="bottleneck",
        input_size=224,
        stem_kernel=7,
        stem_stride=2,
        stem_pool_window=3,
        stem_pool_stride=2,
        stem_pool_pad=1,
    )


def stage_spatial_sizes(spec):
    """Spatial side after the stem and after each block group.

    Raises a configuration error when the stem pool window exceeds its padded
    input, which :class:`NetworkSpec` checks when it is made. Nothing else can
    collapse a map: the stem conv pads by kernel // 2, so input_size >= 1
    leaves it at least one pixel, and each later map is ceil(size / 2).
    """
    size = spec.input_size
    size = (size + 2 * (spec.stem_kernel // 2) - spec.stem_kernel) // spec.stem_stride + 1
    padded = size + 2 * spec.stem_pool_pad
    if spec.stem_pool_window > padded:
        raise ConfigurationError(
            f"stem pool window {spec.stem_pool_window} exceeds feature map {padded}")
    sizes = [(padded - spec.stem_pool_window) // spec.stem_pool_stride + 1]
    for _ in range(3):
        sizes.append((sizes[-1] - 1) // 2 + 1)
    return sizes


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class ConvUnit:
    def __init__(self, in_ch, out_ch, kernel, stride=1, dtype=np.float32):
        self.stride = stride
        self.pad = kernel // 2
        self.weight = ad.Tensor(
            np.zeros((out_ch, in_ch, kernel, kernel), dtype=dtype), requires_grad=True, op="param")

    def forward(self, x):
        return ad.conv2d(x, self.weight, stride=self.stride, pad=self.pad)


class NormUnit:
    def __init__(self, channels, dtype=np.float32):
        self.gamma = ad.Tensor(np.ones(channels, dtype=dtype), requires_grad=True, op="param")
        self.beta = ad.Tensor(np.zeros(channels, dtype=dtype), requires_grad=True, op="param")
        self.stats = ad.RunningStats(channels, dtype=dtype)

    def forward(self, x, mode):
        return ad.batch_norm(x, self.gamma, self.beta, mode=mode, stats=self.stats)


class DenseUnit:
    def __init__(self, in_features, out_features, dtype=np.float32):
        self.weight = ad.Tensor(
            np.zeros((in_features, out_features), dtype=dtype), requires_grad=True, op="param")
        self.bias = ad.Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True, op="param")

    def forward(self, x):
        return ad.dense(x, self.weight, self.bias)


class ResidualBlock:
    """One basic (3x3-3x3) or bottleneck (1x1-3x3-1x1) block: a list of
    (conv, BN) units with a ReLU between them.

    With skips enabled, a 1x1 projection shortcut (conv + BN) bridges any
    stride or channel change; without skips the same main path stands alone.
    """

    def __init__(self, kind, in_ch, base_width, stride, skip, dtype=np.float32):
        self.skip = skip
        self.units = []
        ch = in_ch
        for kernel, mult, strided in BLOCK_LAYOUTS[kind]:
            conv = ConvUnit(ch, base_width * mult, kernel, stride if strided else 1, dtype=dtype)
            ch = base_width * mult
            self.units.append((conv, NormUnit(ch, dtype=dtype)))
        self.out_channels = ch
        self.proj_conv = self.proj_bn = None
        if skip and (stride != 1 or in_ch != ch):
            self.proj_conv = ConvUnit(in_ch, ch, 1, stride, dtype=dtype)
            self.proj_bn = NormUnit(ch, dtype=dtype)

    def main_convs(self):
        return [conv for conv, _ in self.units]

    def forward(self, x, mode):
        out = x
        for i, (conv, norm) in enumerate(self.units):
            if i:
                out = ad.relu(out)
            out = norm.forward(conv.forward(out), mode)
        if self.skip:
            shortcut = x
            if self.proj_conv is not None:
                shortcut = self.proj_bn.forward(self.proj_conv.forward(x), mode)
            out = ad.add(out, shortcut)
        return ad.relu(out)


@dataclass
class NetworkOutput:
    logits: ad.Tensor
    distribution: ad.Tensor          # None for the scalar-head (num_labels=1) variant
    features: ad.Tensor


@dataclass
class ParamRecord:
    name: str
    tensor: ad.Tensor
    kind: str          # "weight" | "bias" | "bn_gamma" | "bn_beta"
    last_layer: bool = False
    branch_end: bool = False   # gamma of a residual branch's last batch norm


class Network:
    """A built network: parameters, running stats, and the forward graph."""

    def __init__(self, spec, dtype=np.float32):
        self.spec = spec
        self.dtype = dtype
        self.stage_sizes = stage_spatial_sizes(spec)

        widths = spec.stage_widths
        self.stem_conv = ConvUnit(3, widths[0], spec.stem_kernel, spec.stem_stride, dtype=dtype)
        self.stem_bn = NormUnit(widths[0], dtype=dtype)

        self.stages = []
        in_ch = widths[0]
        for i in range(4):
            blocks = []
            for j in range(spec.block_counts[i] + 1):
                stride = 2 if (i > 0 and j == 0) else 1
                block = ResidualBlock(spec.block_kind, in_ch, widths[i], stride,
                                      spec.skip_connections, dtype=dtype)
                in_ch = block.out_channels
                blocks.append(block)
            self.stages.append(blocks)

        self.feature_dim = in_ch
        self.fc = DenseUnit(in_ch, spec.num_labels, dtype=dtype)

        self._records = []
        self._stat_entries = []
        self._register()

    # -- registry ----------------------------------------------------------

    def _add_unit(self, conv_name, bn_name, conv, norm, branch_end=False):
        self._records += [
            ParamRecord(f"{conv_name}.weight", conv.weight, "weight"),
            ParamRecord(f"{bn_name}.gamma", norm.gamma, "bn_gamma", branch_end=branch_end),
            ParamRecord(f"{bn_name}.beta", norm.beta, "bn_beta")]
        self._stat_entries.append((bn_name, norm.stats))

    def _register(self):
        self._add_unit("stem.conv", "stem.bn", self.stem_conv, self.stem_bn)
        for i, blocks in enumerate(self.stages):
            for j, blk in enumerate(blocks):
                base = f"stage{i + 1}.block{j}"
                for ci, (conv, norm) in enumerate(blk.units, start=1):
                    self._add_unit(f"{base}.conv{ci}", f"{base}.bn{ci}", conv, norm,
                                   branch_end=blk.skip and ci == len(blk.units))
                if blk.proj_conv is not None:
                    self._add_unit(f"{base}.proj", f"{base}.proj.bn", blk.proj_conv, blk.proj_bn)
        self._records += [ParamRecord("fc.weight", self.fc.weight, "weight", last_layer=True),
                          ParamRecord("fc.bias", self.fc.bias, "bias", last_layer=True)]

    def param_records(self):
        return list(self._records)

    def running_stats(self):
        """Every batch-norm layer's RunningStats, in registry order."""
        return [stats for _, stats in self._stat_entries]

    def named_parameters(self):
        return [(r.name, r.tensor) for r in self._records]

    def parameter_count(self):
        return sum(r.tensor.data.size for r in self._records)

    def weighted_layer_count(self):
        """Stem conv + main-path convs + dense head, by inspection of the built graph."""
        return 1 + sum(len(blk.units) for blocks in self.stages for blk in blocks) + 1

    # -- forward -----------------------------------------------------------

    def forward(self, batch, mode="train"):
        """Run a (N,3,H,W) array through the network, in the network's dtype.

        Returns logits, the softmax distribution (None when num_labels == 1),
        and the post-avgpool feature vector.
        """
        if mode not in ("train", "eval"):
            raise ConfigurationError(f"mode must be 'train' or 'eval', got {mode!r}")
        data = np.asarray(batch)
        s = self.spec.input_size
        if data.ndim != 4 or data.shape[1] != 3 or data.shape[2] != s or data.shape[3] != s:
            raise DimensionError(
                f"batch shape {data.shape} does not match expected (N,3,{s},{s})")
        x = ad.Tensor(data.astype(self.dtype, copy=False))

        x = ad.relu(self.stem_bn.forward(self.stem_conv.forward(x), mode))
        x = ad.pad2d(x, self.spec.stem_pool_pad)
        x = ad.pool(x, "max", self.spec.stem_pool_window, self.spec.stem_pool_stride)
        for blocks in self.stages:
            for blk in blocks:
                x = blk.forward(x, mode)
        side = x.shape[2]
        x = ad.pool(x, "avg", side)
        features = ad.reshape(x, (x.shape[0], self.feature_dim))
        logits = self.fc.forward(features)
        dist = ad.softmax(logits) if self.spec.num_labels >= 2 else None
        return NetworkOutput(logits=logits, distribution=dist, features=features)

    # -- state -------------------------------------------------------------

    def state_dict(self):
        state = {r.name: r.tensor.data.copy() for r in self._records}
        for name, stats in self._stat_entries:
            state[f"{name}.running_mean"] = stats.mean.copy()
            state[f"{name}.running_var"] = stats.var.copy()
        return state

    def load_state_dict(self, state):
        expected = {r.name: r.tensor.data.shape for r in self._records}
        for name, stats in self._stat_entries:
            expected[f"{name}.running_mean"] = stats.mean.shape
            expected[f"{name}.running_var"] = stats.var.shape
        missing = sorted(set(expected) - set(state))
        extra = sorted(set(state) - set(expected))
        if missing or extra:
            raise ConfigurationError(
                f"state does not match the architecture (missing {missing}, unexpected {extra})")
        for name, shape in expected.items():
            if tuple(state[name].shape) != tuple(shape):
                raise DimensionError(
                    f"parameter {name}: checkpoint shape {state[name].shape} vs network {shape}")
        for r in self._records:
            r.tensor.data = np.asarray(state[r.name], dtype=self.dtype).copy()
        for name, stats in self._stat_entries:
            stats.mean = np.asarray(state[f"{name}.running_mean"], dtype=self.dtype).copy()
            stats.var = np.asarray(state[f"{name}.running_var"], dtype=self.dtype).copy()


def init_weights(network, seed):
    """He-normal conv/dense weights, zero biases, batch norm gamma 1 / beta 0.

    In skip nets, the last batch norm of each residual branch (``bn2`` in
    basic blocks, ``bn3`` in bottleneck blocks) starts at gamma
    ``BRANCH_END_GAMMA`` = 0.1 instead, so every block starts close to its
    shortcut and early training is stable (Goyal et al. 2017 start it at 0).
    It is small rather than 0: with 0 the branch adds exactly 0, so wherever
    the shortcut carries an exact ReLU zero the block's sum sits on its
    ReLU's kink, where finite-difference gradient checks fail. Plain nets
    keep gamma 1 everywhere, or their signal would vanish. The gamma to
    start small is marked ``branch_end`` in the parameter registry.

    Fully reproducible: parameters are drawn in registry order from a single
    generator seeded with ``seed``.
    """
    _integer("init_weights", "seed", seed, 0)
    rng = np.random.default_rng(seed)
    for rec in network.param_records():
        t = rec.tensor
        if rec.kind == "weight":
            shape = t.data.shape
            fan_in = shape[0] if t.data.ndim == 2 else int(np.prod(shape[1:]))
            t.data = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape).astype(network.dtype)
        elif rec.kind in ("bias", "bn_beta"):
            t.data = np.zeros_like(t.data)
        elif rec.kind == "bn_gamma":
            t.data = np.full_like(t.data, BRANCH_END_GAMMA if rec.branch_end else 1.0)
    for stats in network.running_stats():
        stats.reset()
