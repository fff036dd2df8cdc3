"""Samples, datasets, splits, augmentation, and the index-file format.

A dataset index is UTF-8 text with one sample per line:

    path[,crop=x0;y0;x1;y1],ratings:r1;r2;...
    path,dist:p1;p2;p3;p4;p5

Paths are resolved relative to the index file. Ratings rows are histogrammed
onto the score scale; dist rows are validated and renormalized when the sum
drifts by at most 1e-3, rejected beyond that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import ScoreScale, distribution_from_ratings, validate_distribution, weighted_mean
from .errors import (
    ConfigurationError,
    DatasetError,
    EmptyInputError,
    RangeError,
    ValidationError,
    _integer,
)
from .imageio import read_image, write_ppm
from .imaging import ColorPCA, adjust_contrast, normalize_image, pca_color_shift, rotate_image

DIST_SUM_DRIFT = 1e-3
AUGMENT_KINDS = ("color", "rotation", "contrast")
LABEL_FORMS = ("auto", "ratings", "dist")


@dataclass
class Sample:
    image: np.ndarray              # (3,H,W) float32 in [0,1]
    ratings: list | None
    distribution: np.ndarray       # (c,)
    mean_score: float
    latent: float | None = None    # synthetic ground truth, when known
    path: str | None = None


@dataclass
class Dataset:
    samples: list
    train_idx: list
    test_idx: list
    scale: ScoreScale = field(default_factory=ScoreScale)

    @property
    def n(self):
        return len(self.samples)


def split(dataset, train_fraction=None, counts=None, seed=0):
    """Uniform random disjoint train/test split, deterministic in the seed."""
    _integer("split", "seed", seed, 0)
    n = dataset.n
    if counts is not None:
        if not isinstance(counts, (tuple, list)) or len(counts) != 2:
            raise ConfigurationError(f"split counts must be a (train, test) pair, got {counts!r}")
        tr, te = (_integer("split", "counts", c, 0) for c in counts)
        if tr + te > n:
            raise ConfigurationError(f"split counts {counts} exceed dataset size {n}")
    elif train_fraction is not None:
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError(f"train_fraction must be in (0,1), got {train_fraction}")
        tr = int(round(train_fraction * n))
        te = n - tr
    else:
        raise ConfigurationError("split needs either train_fraction or counts")
    perm = np.random.default_rng(seed).permutation(n)
    return Dataset(
        samples=dataset.samples,
        train_idx=sorted(int(i) for i in perm[:tr]),
        test_idx=sorted(int(i) for i in perm[tr:tr + te]),
        scale=dataset.scale,
    )


def augment(sample, kind, seed, pca=None):
    """One augmented copy of a sample; labels are never touched.

    color    per-component jitter along the RGB principal directions,
             alpha ~ N(0, 0.1); the PCA basis normally comes from the whole
             training split and falls back to this sample's pixels
    rotation uniform in [-15, +15] degrees about the center, zero fill
    contrast per-channel scaling around the channel mean, factor in [0.8, 1.25]
    """
    rng = np.random.default_rng(seed)
    if kind == "color":
        basis = pca if pca is not None else ColorPCA.fit([sample.image])
        image = pca_color_shift(sample.image, rng.normal(0.0, 0.1, size=3), basis)
    elif kind == "rotation":
        image = rotate_image(sample.image, rng.uniform(-15.0, 15.0))
    elif kind == "contrast":
        image = adjust_contrast(sample.image, rng.uniform(0.8, 1.25))
    else:
        raise ConfigurationError(f"unknown augmentation kind {kind!r}")
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return replace(sample, image=image, path=None)


def _child_seed(seed, i, j):
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1, np.uint64)[0])


def expand(dataset, factor, seed=0):
    """Each train sample plus (factor - 1) augmented copies; test split untouched."""
    _integer("expand", "seed", seed, 0)
    factor = _integer("expand", "factor", factor, 1)
    if factor == 1:
        return dataset
    pca = ColorPCA.fit([dataset.samples[i].image for i in dataset.train_idx])
    samples = list(dataset.samples)
    train_idx = list(dataset.train_idx)
    for pos, idx in enumerate(dataset.train_idx):
        for j in range(factor - 1):
            kind = AUGMENT_KINDS[j % len(AUGMENT_KINDS)]
            samples.append(augment(dataset.samples[idx], kind, _child_seed(seed, pos, j), pca))
            train_idx.append(len(samples) - 1)
    return Dataset(samples=samples, train_idx=train_idx,
                   test_idx=list(dataset.test_idx), scale=dataset.scale)


# ---------------------------------------------------------------------------
# index files
# ---------------------------------------------------------------------------

def _format_value(v):
    f = float(v)
    if f == int(f):
        return str(int(f))
    return f"{f:.10g}"


def save_index(dataset, index_path, labels="auto"):
    """Write the index plus one PPM per sample into ``<index stem>_images``
    beside it; returns the index path.

    ``labels`` picks the row form: "ratings" / "dist" / "auto" (ratings when
    the sample has them).
    """
    if labels not in LABEL_FORMS:
        raise ConfigurationError(f"save_index labels must be one of {LABEL_FORMS}, got {labels!r}")
    index_path = str(index_path)
    base = os.path.dirname(os.path.abspath(index_path))
    stem = os.path.splitext(os.path.basename(index_path))[0]
    image_dir = os.path.join(base, stem + "_images")
    os.makedirs(image_dir, exist_ok=True)
    lines = []
    for i, s in enumerate(dataset.samples):
        img_path = os.path.join(image_dir, f"img_{i:05d}.ppm")
        write_ppm(img_path, s.image)
        rel = os.path.relpath(img_path, base)
        if labels == "ratings" or (labels == "auto" and s.ratings is not None):
            if s.ratings is None:
                raise ValidationError(f"sample {i} has no ratings to export")
            row = rel + ",ratings:" + ";".join(_format_value(r) for r in s.ratings)
        else:
            row = rel + ",dist:" + ";".join(f"{v:.10g}" for v in s.distribution)
        lines.append(row)
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return index_path


def _parse_crop(token, lineno):
    parts = token.split("=", 1)[1].split(";")
    if len(parts) != 4:
        raise ValidationError(f"row {lineno}: crop needs 4 values, got {token!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"row {lineno}: unparseable crop value in {token!r}")


def _parse_floats(text, lineno, what):
    try:
        return [float(v) for v in text.split(";") if v]
    except ValueError:
        raise ValidationError(f"row {lineno}: unparseable {what} value in {text!r}")


def _row_labels(token, lineno, scale):
    """(ratings or None, distribution) of one row's label field."""
    if token.startswith("ratings:"):
        ratings = _parse_floats(token[len("ratings:"):], lineno, "rating")
        return ratings, distribution_from_ratings(ratings, scale)
    if not token.startswith("dist:"):
        raise ValidationError(
            f"row {lineno}: labels must start with 'ratings:' or 'dist:', got {token!r}")
    vals = np.array(_parse_floats(token[len("dist:"):], lineno, "degree"))
    if vals.size != len(scale):
        raise ValidationError(
            f"row {lineno}: distribution has {vals.size} degrees, scale has {len(scale)}")
    if not np.all(vals >= 0):   # NaN too
        raise ValidationError(f"row {lineno}: negative or NaN degree in {vals}")
    total = float(vals.sum())
    if abs(total - 1.0) > DIST_SUM_DRIFT:
        raise ValidationError(
            f"row {lineno}: distribution sums to {total}, beyond drift {DIST_SUM_DRIFT}")
    return None, validate_distribution(vals / total)


def load_index(index_path, scale=None, image_size=None):
    """Read an index file into a Dataset (all samples in the train split).

    When ``image_size`` is given every image is normalized (crop, square
    zero-pad, resize); otherwise images are kept at their stored size and
    crops must be absent.
    """
    if image_size is not None:
        image_size = _integer("load_index", "image_size", image_size, 1)
    scale = scale or ScoreScale()
    index_path = str(index_path)
    if not os.path.exists(index_path):
        raise FileNotFoundError(f"index file not found: {index_path}")
    base = os.path.dirname(os.path.abspath(index_path))
    samples = []
    with open(index_path, "rb") as fh:
        for lineno, row in enumerate(fh.read().splitlines(), start=1):
            try:
                line = row.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"row {lineno}: not UTF-8 text ({exc.reason})") from exc
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValidationError(f"row {lineno}: expected 'path,labels', got {line!r}")
            rel = parts[0]
            crop = None
            label_token = parts[-1]
            if len(parts) == 3:
                if not parts[1].startswith("crop="):
                    raise ValidationError(f"row {lineno}: unrecognized field {parts[1]!r}")
                crop = _parse_crop(parts[1], lineno)
            elif len(parts) > 3:
                raise ValidationError(f"row {lineno}: too many fields in {line!r}")

            img_path = rel if os.path.isabs(rel) else os.path.join(base, rel)
            if not os.path.exists(img_path):
                raise DatasetError(f"row {lineno}: image not found: {img_path}")
            image = read_image(img_path)
            try:
                if image_size is not None:
                    image = normalize_image(image, crop=crop, target=image_size)
                elif crop is not None:
                    # crop and square up at the region's natural resolution
                    side = max(crop[2] - crop[0], crop[3] - crop[1])
                    image = normalize_image(image, crop=crop, target=side)
                ratings, dist = _row_labels(label_token, lineno, scale)
            except (RangeError, EmptyInputError) as exc:   # crop or rating off its range
                raise ValidationError(f"row {lineno}: {exc}") from exc

            samples.append(Sample(
                image=image.astype(np.float32),
                ratings=ratings,
                distribution=dist,
                mean_score=weighted_mean(dist, scale),
                path=img_path,
            ))
    return Dataset(samples=samples, train_idx=list(range(len(samples))),
                   test_idx=[], scale=scale)
