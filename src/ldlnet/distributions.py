"""Score distributions, the two distribution-matching losses, and evaluation metrics.

A score distribution is a non-negative vector over the levels of a
:class:`ScoreScale` that sums to one: entry j is the degree to which level j
describes the face. All functions here are pure. The losses and metrics work
along the last axis: two vectors give a float, two (N,c) arrays one value
per row. The ``*_graph`` variants build the same losses on the autodiff tape
for training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    DimensionError,
    EmptyInputError,
    RangeError,
    UndefinedCorrelationError,
    ValidationError,
)

LOSS_KINDS = ("euclidean", "euclidean_sq", "kl")
KL_CLAMP = 1e-7        # floor on predicted probabilities inside the log
DIST_SUM_TOL = 1e-6    # how far a distribution's sum may stray from 1
EUCLIDEAN_EPS = 1e-12  # added under the square root to keep the gradient finite at zero


@dataclass(frozen=True)
class ScoreScale:
    """Ordered set of admissible score values, default the 1..5 rating levels."""

    labels: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)

    def __post_init__(self):
        labels = tuple(float(v) for v in self.labels)
        if not all(math.isfinite(v) for v in labels):
            raise ValidationError(f"score labels must be finite, got {labels}")
        if len(labels) < 2:
            raise ValidationError(f"a score scale needs at least 2 labels, got {len(labels)}")
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise ValidationError(f"score labels must be strictly increasing, got {labels}")
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.labels)

    @property
    def values(self):
        return np.asarray(self.labels, dtype=np.float64)


def validate_distribution(degrees):
    """Check the score-distribution invariants: entries in [0,1], sum 1 within
    DIST_SUM_TOL."""
    d = np.asarray(degrees, dtype=np.float64)
    if d.ndim != 1:
        raise ValidationError(f"a distribution must be a vector, got shape {d.shape}")
    if not np.all((d >= 0) & (d <= 1)):   # NaN fails both
        raise ValidationError(f"distribution degrees must lie in [0,1], got {d}")
    s = float(d.sum())
    if abs(s - 1.0) > DIST_SUM_TOL:
        raise ValidationError(f"distribution degrees must sum to 1, got sum {s}")
    return d


def distribution_from_ratings(ratings, scale=None):
    """Histogram raw rater scores onto the scale and normalize to sum 1.

    Non-integer ratings go to the nearest label; exact halfway ties go to the
    lower label.
    """
    scale = scale or ScoreScale()
    r = np.asarray(list(ratings), dtype=np.float64)
    if r.size == 0:
        raise EmptyInputError("distribution_from_ratings needs at least one rating")
    lo, hi = scale.labels[0], scale.labels[-1]
    bad = r[~((r >= lo) & (r <= hi))]   # NaN is outside too
    if bad.size:
        raise RangeError(f"rating {bad[0]} outside the scale range [{lo}, {hi}]")
    labels = scale.values
    dist = np.abs(r[:, None] - labels[None, :])
    # ties toward the lower label: argmin picks the first (lower) of equal distances
    idx = dist.argmin(axis=1)
    counts = np.bincount(idx, minlength=len(scale)).astype(np.float64)
    return counts / counts.sum()


def weighted_mean(degrees, scale=None):
    """Decode a distribution to a scalar score: dot product with the labels."""
    scale = scale or ScoreScale()
    d = np.asarray(degrees, dtype=np.float64)
    if d.shape != (len(scale),):
        raise DimensionError(f"distribution length {d.shape} does not match scale size {len(scale)}")
    return float(d @ scale.values)


def _paired(a, b, what):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"{what} shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def _per_row(values):
    """A float for one pair of vectors, the (N,) array for (N,c) rows."""
    return float(values) if values.ndim == 0 else values


def euclidean_loss(pred, target, squared=False):
    """L2 distance between distributions along the last axis (or half its
    square); a float per pair of vectors, one value per row of (N,c) arrays."""
    p, t = _paired(pred, target, "euclidean_loss")
    sse = ((t - p) ** 2).sum(axis=-1)
    return _per_row(0.5 * sse if squared else np.sqrt(sse))


def kl_loss(target, pred):
    """KL divergence sum_j d_j ln(d_j / f_j) along the last axis, with 0 ln 0 = 0
    and f clamped to >= KL_CLAMP; a float per pair of vectors, one value per row."""
    d, f = _paired(target, pred, "kl_loss")
    f = np.maximum(f, KL_CLAMP)
    mask = d > 0
    ratio = np.divide(d, f, out=np.ones_like(d), where=mask)
    return _per_row(np.where(mask, d * np.log(ratio), 0.0).sum(axis=-1))


def kl_logit_gradient(target, logits):
    """Exact gradient of kl_loss(target, softmax(logits)) wrt the logits: f - d."""
    d, z = _paired(target, logits, "kl_logit_gradient")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    f = e / e.sum(axis=-1, keepdims=True)
    return f - d


def chebyshev(pred, target):
    """Largest absolute per-level disagreement along the last axis."""
    p, t = _paired(pred, target, "chebyshev")
    return _per_row(np.abs(p - t).max(axis=-1))


def pearson(pred_scores, true_scores):
    """Sample Pearson correlation between two score vectors."""
    x = np.asarray(pred_scores, dtype=np.float64)
    y = np.asarray(true_scores, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"pearson needs two equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DimensionError(f"pearson needs at least 2 points, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc ** 2).sum()))
    sy = float(np.sqrt((yc ** 2).sum()))
    if sx == 0.0:
        raise UndefinedCorrelationError("pearson undefined: predicted scores are constant")
    if sy == 0.0:
        raise UndefinedCorrelationError("pearson undefined: true scores are constant")
    return float((xc @ yc) / (sx * sy))


# ---------------------------------------------------------------------------
# tape-building batch losses (targets are constants; gradients reach the
# prediction only)
# ---------------------------------------------------------------------------

def euclidean_loss_graph(pred, targets, squared=False):
    """Batch loss: sum over samples of the per-sample L2 distance.

    ``pred`` is an autodiff (N,c) tensor, ``targets`` a constant (N,c) array.
    The unsquared variant stabilizes the gradient with EUCLIDEAN_EPS under
    the square root.
    """
    t = ad.Tensor(np.asarray(targets, dtype=pred.dtype))
    if pred.shape != t.shape:
        raise DimensionError(f"loss shape mismatch: pred {pred.shape} vs targets {t.shape}")
    diff = ad.sub(pred, t)
    per_sample = ad.tsum(ad.mul(diff, diff), axis=1)
    if squared:
        return ad.scale(ad.tsum(per_sample), 0.5)
    return ad.tsum(ad.sqrt_(ad.add_scalar(per_sample, EUCLIDEAN_EPS)))


def kl_loss_graph(pred, targets):
    """Batch loss: sum over samples of KL(target || pred) on the tape, with
    pred clamped to >= KL_CLAMP."""
    d = np.asarray(targets, dtype=pred.dtype)
    if pred.shape != d.shape:
        raise DimensionError(f"loss shape mismatch: pred {pred.shape} vs targets {d.shape}")
    mask = d > 0
    entropy = float((d[mask] * np.log(d[mask])).sum())
    log_pred = ad.log_(ad.clamp_min(pred, KL_CLAMP))
    cross = ad.tsum(ad.mul_const(log_pred, d))
    return ad.add_scalar(ad.scale(cross, -1.0), entropy)


def batch_loss_graph(kind, pred, targets):
    """Dispatch on the configured loss kind: euclidean | euclidean_sq | kl."""
    if kind in ("euclidean", "euclidean_sq"):
        return euclidean_loss_graph(pred, targets, squared=kind == "euclidean_sq")
    if kind == "kl":
        return kl_loss_graph(pred, targets)
    raise ValidationError(f"unknown loss kind {kind!r}")


def batch_loss_value(kind, pred, targets):
    """Plain-array mean per-sample loss of the given kind (no tape)."""
    if kind in ("euclidean", "euclidean_sq"):
        return float(np.mean(euclidean_loss(pred, targets, squared=kind == "euclidean_sq")))
    if kind == "kl":
        return float(np.mean(kl_loss(targets, pred)))
    raise ValidationError(f"unknown loss kind {kind!r}")
