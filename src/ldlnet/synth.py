"""Synthetic rated-face generator.

Each sample is a parametric "face card": two eye disks, a nose line, and a
mouth arc drawn in grayscale on an RGB canvas. A latent attractiveness
t in [1,5] is a fixed smooth function of the card's symmetry, eye spacing,
and mouth curvature, and simulated raters score the card by drawing from
round(N(t, noise_sd)) clamped to the scale. A configurable fraction of
"controversial" cards draws instead from an even mixture of N(t-1, sd) and
N(t+1, sd), which makes the mean score an unrepresentative label: exactly
the case distribution targets are meant to handle.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Sample
from .distributions import ScoreScale, distribution_from_ratings, weighted_mean
from .errors import ConfigurationError, _integer

INK = 0.08          # feature darkness
BACKGROUND = 0.92   # canvas brightness

# latent weights over (symmetry, spacing, mouth) scores
_W_SYM, _W_SPACE, _W_MOUTH = 0.40, 0.25, 0.35


def latent_attractiveness(u_sym, u_space, u_mouth):
    """Smooth map from the three geometry draws in [0,1] to t in [1,5]."""
    spacing_score = 1.0 - (2.0 * u_space - 1.0) ** 2   # ideal spacing in the middle
    raw = _W_SYM * u_sym + _W_SPACE * spacing_score + _W_MOUTH * u_mouth
    return 1.0 + 4.0 * raw


def _disk(yy, xx, cy, cx, radius, aa):
    d = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return np.clip((radius - d) / aa + 0.5, 0.0, 1.0)


def _vline(yy, xx, x, y_top, y_bot, half_thick, aa):
    dx = np.abs(xx - x)
    dy = np.maximum(np.maximum(y_top - yy, yy - y_bot), 0.0)
    d = np.sqrt(dx ** 2 + dy ** 2)
    return np.clip((half_thick - d) / aa + 0.5, 0.0, 1.0)


def _mouth(yy, xx, cy, cx, half_width, curve, half_thick, aa):
    rel = (xx - cx) / half_width
    y_curve = cy - curve * rel ** 2          # curve > 0 raises the corners (smile)
    dy = np.abs(yy - y_curve)
    inside = np.abs(rel) <= 1.0
    return np.clip((half_thick - dy) / aa + 0.5, 0.0, 1.0) * inside


def render_face_card(size, u_sym, u_space, u_mouth):
    """Draw the card for one (symmetry, spacing, mouth) triple as (3,size,size)."""
    coords = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    aa = 1.0 / size  # one-pixel soft edge

    half_sp = 0.14 + 0.12 * u_space
    droop = 0.12 * (1.0 - u_sym)
    eye_r = 0.055
    left = _disk(yy, xx, 0.36, 0.5 - half_sp, eye_r, aa)
    right = _disk(yy, xx, 0.36 + droop, 0.5 + half_sp, eye_r, aa)
    nose = _vline(yy, xx, 0.5, 0.46, 0.62, 0.012, aa)
    curve = (u_mouth - 0.5) * 0.16
    mouth = _mouth(yy, xx, 0.76, 0.5, 0.17, curve, 0.015, aa)

    cover = np.clip(left + right + nose + mouth, 0.0, 1.0)
    gray = (BACKGROUND - cover * (BACKGROUND - INK)).astype(np.float32)
    return np.repeat(gray[None, :, :], 3, axis=0)


def simulate_ratings(t, raters, noise_sd, bimodal, rng, lo=1, hi=5):
    """Integer rater scores for latent t: round(N(center, sd)) clamped to the scale."""
    if bimodal:
        centers = t + rng.choice((-1.0, 1.0), size=raters)
    else:
        centers = np.full(raters, t)
    scores = rng.normal(centers, noise_sd) if noise_sd > 0 else centers
    return np.clip(np.round(scores), lo, hi).astype(int)


def synth_dataset(n, raters=70, noise_sd=0.4, bimodal_fraction=0.1, seed=0, image_size=32):
    """Generate n rated face cards, deterministic in the seed.

    The returned dataset has every sample in the train split; apply
    :func:`ldlnet.data.split` for a held-out protocol.
    """
    n = _integer("synth_dataset", "n", n, 2)
    raters = _integer("synth_dataset", "raters", raters, 1)
    image_size = _integer("synth_dataset", "image_size", image_size, 16)
    if not 0 <= noise_sd < np.inf:
        raise ConfigurationError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if not 0.0 <= bimodal_fraction <= 1.0:
        raise ConfigurationError(f"bimodal_fraction must be in [0,1], got {bimodal_fraction}")
    _integer("synth_dataset", "seed", seed, 0)

    scale = ScoreScale()
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        u_sym, u_space, u_mouth = rng.uniform(size=3)
        t = latent_attractiveness(u_sym, u_space, u_mouth)
        bimodal = rng.uniform() < bimodal_fraction
        ratings = simulate_ratings(t, raters, noise_sd, bimodal, rng,
                                   lo=scale.labels[0], hi=scale.labels[-1])
        dist = distribution_from_ratings(ratings, scale)
        samples.append(Sample(
            image=render_face_card(image_size, u_sym, u_space, u_mouth),
            ratings=[float(r) for r in ratings],
            distribution=dist,
            mean_score=weighted_mean(dist, scale),
            latent=float(t),
        ))
    return Dataset(samples=samples, train_idx=list(range(n)), test_idx=[], scale=scale)
