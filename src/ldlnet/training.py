"""SGD training with the step learning-rate schedule and per-layer multipliers.

``train`` (distribution head) and ``train_mean_regression`` (scalar head)
share one SGD loop and one batched eval-mode prediction loop, and differ only
in their batch loss and eval-point record. ``evaluate`` scores a split with
one call to each batched loss and metric function of ``distributions``.

The optimizer minimizes the batch-summed distribution loss. The final dense
layer trains with 10x the learning rate and 100x the weight decay; batch-norm
scale/shift parameters are exempt from weight decay. Everything is
deterministic in (dataset, spec, config): weight init and batch shuffling
derive from config.seed.

Train-mode batch norm keeps no moving average. At each evaluation point, the
last iteration always among them, every batch-norm layer's eval-mode
statistics are set to population averages over the train split
(``recompute_bn_stats``), so eval-mode losses and the returned checkpoint
describe the trained weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .checkpoint import Checkpoint
from .data import expand
from .distributions import (
    LOSS_KINDS,
    batch_loss_graph,
    batch_loss_value,
    chebyshev,
    euclidean_loss_graph,
    kl_loss,
    pearson,
)
from .errors import ConfigurationError, NumericalError, UndefinedCorrelationError, _integer, _real
from .network import Network, init_weights

PREDICT_BATCH = 64   # images per eval-mode forward in the prediction loop

@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    base_lr: float = 0.001
    lr_step: int = 4000
    lr_factor: float = 0.1
    max_iter: int = 17000
    weight_decay: float = 0.0005
    last_layer_lr_mult: float = 10.0
    last_layer_decay_mult: float = 100.0
    momentum: float = 0.9
    loss: str = "euclidean"
    augment_factor: int = 1
    seed: int = 0
    eval_every: int = 500

    def __post_init__(self):
        # batch_size >= 2: train-mode batch norm needs two samples
        for name, check, *bounds in (
                ("batch_size", _integer, 2), ("lr_step", _integer, 1), ("max_iter", _integer, 1),
                ("augment_factor", _integer, 1), ("eval_every", _integer, 1), ("seed", _integer, 0),
                ("base_lr", _real, 0), ("lr_factor", _real, 0, 1),
                ("weight_decay", _real, 0, math.inf, True), ("momentum", _real, 0, math.inf, True),
                ("last_layer_lr_mult", _real, 0), ("last_layer_decay_mult", _real, 0)):
            object.__setattr__(self, name, check("TrainConfig", name, getattr(self, name), *bounds))
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")


def lr_at(config, iteration):
    """Step schedule: base_lr * lr_factor ** floor(iteration / lr_step)."""
    if not 0 <= iteration < config.max_iter:
        raise ConfigurationError(
            f"iteration {iteration} outside [0, {config.max_iter})")
    return config.base_lr * config.lr_factor ** (iteration // config.lr_step)


@dataclass
class EvalPoint:
    iteration: int
    train_loss: float
    test_loss: float
    test_pc: float        # nan when the correlation is undefined
    test_kl: float
    test_chebyshev: float


@dataclass
class MetricsLog:
    points: list = field(default_factory=list)

    def append(self, point):
        if self.points and point.iteration <= self.points[-1].iteration:
            raise ConfigurationError("metrics iterations must be strictly increasing")
        self.points.append(point)

    def to_csv(self):
        rows = ["iter,train_loss,test_loss,test_pc,test_kl,test_chebyshev"]
        for p in self.points:
            rows.append(f"{p.iteration},{p.train_loss!r},{p.test_loss!r},"
                        f"{p.test_pc!r},{p.test_kl!r},{p.test_chebyshev!r}")
        return "\n".join(rows) + "\n"

    def save_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


@dataclass
class EvalRecord:
    n: int
    pc: float                 # nan when undefined
    pc_error: str | None
    mean_kl: float
    mean_chebyshev: float
    mean_loss: float
    loss_kind: str
    predictions: np.ndarray = field(repr=False)   # (n, c) float64, in split order


def sgd_step(records, velocities, config, iteration):
    """One momentum-SGD update: v <- mu v - lr (g + wd w); w <- w + v.

    Every gradient is checked before any record changes, so a non-finite
    one leaves all weights, velocities and gradients as they were. Each
    record's ``.grad`` is released once applied: the step owns the
    gradients' lifetime, and none of them sits beside the next tape.
    """
    lr = lr_at(config, iteration)
    for rec in records:
        g = rec.tensor.grad
        if g is not None and not np.all(np.isfinite(g)):
            raise NumericalError(
                f"non-finite gradient at iteration {iteration} in parameter {rec.name}")
    for rec in records:
        g = rec.tensor.grad
        if g is None:
            g = np.zeros_like(rec.tensor.data)
        lr_l = lr * (config.last_layer_lr_mult if rec.last_layer else 1.0)
        if rec.kind in ("bn_gamma", "bn_beta"):
            wd = 0.0
        else:
            wd = config.weight_decay * (config.last_layer_decay_mult if rec.last_layer else 1.0)
        v = velocities.get(rec.name)
        if v is None:
            v = np.zeros_like(rec.tensor.data)
            velocities[rec.name] = v
        v *= config.momentum
        v -= lr_l * (g + wd * rec.tensor.data)
        rec.tensor.data += v
        rec.tensor.grad = None


def _batch_arrays(dataset, indices):
    images = np.stack([dataset.samples[i].image for i in indices], dtype=np.float32)
    targets = np.stack([dataset.samples[i].distribution for i in indices], dtype=np.float32)
    return images, targets


def _predict(net, dataset, indices, readout):
    """Eval-mode ``readout(network output)`` for the given sample indices,
    in batches of PREDICT_BATCH, as one float64 array in index order."""
    if len(indices) == 0:
        raise ConfigurationError("prediction needs a non-empty split")
    preds = []
    with ad.no_grad():
        for start in range(0, len(indices), PREDICT_BATCH):
            images, _ = _batch_arrays(dataset, indices[start:start + PREDICT_BATCH])
            preds.append(readout(net.forward(images, mode="eval")).astype(np.float64))
    return np.concatenate(preds)


def predict_distributions(net, dataset, indices):
    """Eval-mode predicted distributions for the given sample indices."""
    return _predict(net, dataset, indices, lambda out: out.distribution.data)


def predict_scalar_scores(net, dataset, indices):
    """Eval-mode scalar-head predictions (mean-regression baseline)."""
    return _predict(net, dataset, indices, lambda out: out.logits.data[:, 0])


def recompute_bn_stats(net, dataset, indices, batch_size):
    """Set every batch-norm layer's running statistics to population values.

    Runs the split through ``net`` in train mode, in consecutive batches of
    ``batch_size`` (a lone trailing sample joins the batch before it, as
    train-mode batch norm needs two), and sets each layer's running mean and
    variance to the batch-size-weighted average of the per-batch means and
    biased variances, accumulated in float64 (Ioffe & Szegedy 2015, Alg. 2).
    """
    batch_size = _integer("recompute_bn_stats", "batch_size", batch_size, 2)
    if len(indices) == 0:
        raise ConfigurationError("recompute_bn_stats needs a non-empty split")
    stats = net.running_stats()
    means = [np.zeros(s.mean.shape) for s in stats]
    variances = [np.zeros(s.var.shape) for s in stats]
    starts = list(range(0, len(indices), batch_size))
    if len(starts) > 1 and len(indices) - starts[-1] < 2:
        starts.pop()
    with ad.no_grad():
        for lo, hi in zip(starts, starts[1:] + [len(indices)]):
            images, _ = _batch_arrays(dataset, indices[lo:hi])
            net.forward(images, mode="train")
            for s, mean, var in zip(stats, means, variances):
                mean += (hi - lo) * s.batch_mean.astype(np.float64)
                var += (hi - lo) * s.batch_var.astype(np.float64)
    for s, mean, var in zip(stats, means, variances):
        s.mean = (mean / len(indices)).astype(s.mean.dtype)
        s.var = (var / len(indices)).astype(s.var.dtype)


def evaluate(net, dataset, indices, loss_kind="euclidean"):
    """Eval-mode metrics over one split: PC, mean KL, mean Chebyshev, mean loss,
    and the predicted distributions they were computed from."""
    preds = predict_distributions(net, dataset, indices)
    if preds.shape[1] != len(dataset.scale):
        raise ConfigurationError(
            f"network predicts {preds.shape[1]} levels, score scale has {len(dataset.scale)}")
    targets = np.stack([dataset.samples[i].distribution for i in indices])
    pred_scores = preds @ dataset.scale.values
    true_scores = np.array([dataset.samples[i].mean_score for i in indices])

    pc, pc_error = math.nan, None
    try:
        pc = pearson(pred_scores, true_scores)
    except UndefinedCorrelationError as exc:
        pc_error = str(exc)

    mean_kl = float(np.mean(kl_loss(targets, preds)))
    mean_cheb = float(np.mean(chebyshev(preds, targets)))
    mean_loss = batch_loss_value(loss_kind, preds, targets)
    return EvalRecord(n=len(indices), pc=pc, pc_error=pc_error, mean_kl=mean_kl,
                      mean_chebyshev=mean_cheb, mean_loss=mean_loss, loss_kind=loss_kind,
                      predictions=preds)


def _check_images(dataset, spec):
    want = (3, spec.input_size, spec.input_size)
    for i in dataset.train_idx + dataset.test_idx:
        got = dataset.samples[i].image.shape
        if tuple(got) != want:
            raise ConfigurationError(
                f"sample {i} image shape {got} does not match network input {want}")


def _batch_stream(train_idx, batch_size, rng):
    """Shuffled batches without end, a new permutation per epoch; a trailing
    batch of one is dropped, as train-mode batch norm needs two."""
    while True:
        perm = rng.permutation(len(train_idx))
        for start in range(0, len(perm), batch_size):
            chunk = [train_idx[j] for j in perm[start:start + batch_size]]
            if len(chunk) >= 2:
                yield chunk


def _fit(dataset, spec, config, loss_of, on_eval):
    """The SGD loop both heads share; returns the final checkpoint. ``loss_of(out,
    targets, ds, batch_idx)`` gives the batch loss; ``on_eval(iteration, net, ds,
    loss)`` runs at each eval point, after the update and ``recompute_bn_stats``."""
    if not dataset.train_idx or not dataset.test_idx:
        raise ConfigurationError("train needs non-empty train and test splits")
    _check_images(dataset, spec)   # an augmented copy has its base's shape
    ds = expand(dataset, config.augment_factor, seed=config.seed)
    if len(ds.train_idx) < 2:
        raise ConfigurationError("train needs at least 2 train samples (batch norm)")

    net = Network(spec)
    init_weights(net, config.seed)
    records = net.param_records()
    velocities = {}
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xBA7C)))
    batches = _batch_stream(ds.train_idx, config.batch_size, shuffle_rng)
    for it in range(config.max_iter):
        batch_idx = next(batches)
        images, targets = _batch_arrays(ds, batch_idx)
        loss = loss_of(net.forward(images, mode="train"), targets, ds, batch_idx)
        if not np.isfinite(loss.data):
            raise NumericalError(f"non-finite loss at iteration {it}")
        loss.backward()
        sgd_step(records, velocities, config, it)

        if (it + 1) % config.eval_every == 0 or it + 1 == config.max_iter:
            recompute_bn_stats(net, ds, ds.train_idx, config.batch_size)
            on_eval(it + 1, net, ds, loss)
    return Checkpoint.from_network(net, config.max_iter, dataset.scale.labels)


def train(dataset, spec, config):
    """Full training run; returns the final checkpoint and the metrics log."""
    if spec.num_labels != len(dataset.scale):
        raise ConfigurationError(
            f"train needs num_labels = {len(dataset.scale)}, one per score level, got "
            f"{spec.num_labels} (a scalar head trains with train_mean_regression)")
    log = MetricsLog()

    def distribution_loss(out, targets, ds, batch_idx):
        return batch_loss_graph(config.loss, out.distribution, targets)

    def on_eval(iteration, net, ds, loss):
        tr = evaluate(net, ds, ds.train_idx, loss_kind=config.loss)
        te = evaluate(net, ds, ds.test_idx, loss_kind=config.loss)
        log.append(EvalPoint(iteration, tr.mean_loss, te.mean_loss, te.pc, te.mean_kl,
                             te.mean_chebyshev))

    return _fit(dataset, spec, config, distribution_loss, on_eval), log


def train_mean_regression(dataset, spec, config):
    """Single-label baseline: the same backbone with a scalar head.

    Minimizes the batch-mean squared error between the head output and the
    mean score (mean, not sum: score targets sit around 3 and a summed loss
    blows up under the final-layer rate multiplier). Used to contrast
    distribution training against mean-score regression; returns the
    checkpoint and a list of (iteration, train_mse).
    """
    if spec.num_labels != 1:
        raise ConfigurationError("mean regression needs a num_labels=1 spec")
    history = []

    def squared_error(out, targets, ds, batch_idx):
        scores = np.array([ds.samples[i].mean_score for i in batch_idx], dtype=np.float32)
        return ad.scale(euclidean_loss_graph(out.logits, scores[:, None], squared=True),
                        1.0 / len(batch_idx))

    def on_eval(iteration, net, ds, loss):
        history.append((iteration, float(loss.data)))

    return _fit(dataset, spec, config, squared_error, on_eval), history
