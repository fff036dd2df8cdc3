"""Image normalization and the augmentation primitives.

Images are (3, H, W) float arrays in [0, 1]. Normalization crops the face
region, zero-pads the shorter side to a square (odd remainder goes to the
bottom/right), and bilinearly resizes to the network input size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyInputError, RangeError, _integer


def _bilinear(img, ys, xs):
    """Sample (C,H,W) at the points (ys, xs), two broadcastable arrays of
    pixel coordinates, with bilinear weights in the image's dtype; a point
    beyond the border takes the edge pixel."""
    _, h, w = img.shape
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys)
    x0 = np.floor(xs)
    wy = (ys - y0).astype(img.dtype)
    wx = (xs - x0).astype(img.dtype)
    y0 = y0.astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x0 = x0.astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    top = img[:, y0, x0] * (1 - wx) + img[:, y0, x1] * wx
    bot = img[:, y1, x0] * (1 - wx) + img[:, y1, x1] * wx
    return top * (1 - wy) + bot * wy


def bilinear_resize(img, out_h, out_w):
    """Resample (C,H,W) to (C,out_h,out_w) with half-pixel-centered bilinear
    weights; a sample point beyond the border takes the edge pixel."""
    _, h, w = img.shape
    if (out_h, out_w) == (h, w):
        return img.copy()
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    return _bilinear(img, ys[:, None], xs[None, :])


def normalize_image(raw, crop=None, target=32):
    """Crop, square up with zero padding, and resize to target x target."""
    img = np.asarray(raw)
    if img.ndim != 3 or img.shape[0] != 3:
        raise RangeError(f"expected a (3,H,W) image, got shape {img.shape}")
    _, h, w = img.shape
    if crop is not None:
        if np.shape(crop) != (4,):
            raise ConfigurationError(
                f"normalize_image crop needs 4 values x0, y0, x1, y1, got {crop!r}")
        x0, y0, x1, y1 = (_integer("normalize_image", "crop value", v) for v in crop)
        if x0 < 0 or y0 < 0 or x1 > w or y1 > h:
            raise RangeError(f"crop box {crop} outside image bounds {w}x{h}")
        if x1 <= x0 or y1 <= y0:
            raise EmptyInputError(f"zero-area crop box {crop}")
        img = img[:, y0:y1, x0:x1]
        _, h, w = img.shape
    # after the crop checks, so a bad crop is reported as such
    target = _integer("normalize_image", "target", target, 1)
    if h != w:
        side = max(h, w)
        dh, dw = side - h, side - w
        # odd remainder: the extra pixel goes to the bottom/right
        pads = ((0, 0), (dh // 2, dh - dh // 2), (dw // 2, dw - dw // 2))
        img = np.pad(img, pads)
    return bilinear_resize(img.astype(np.float32, copy=False), target, target)


def rotate_image(img, angle_deg):
    """Rotate about the image center with bilinear sampling and zero fill."""
    _, h, w = img.shape
    theta = np.deg2rad(angle_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    # inverse map: where each output pixel samples the input
    sx = cos * (xx - cx) + sin * (yy - cy) + cx
    sy = -sin * (xx - cx) + cos * (yy - cy) + cy

    inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    return np.where(inside, _bilinear(img, sy, sx), 0.0)


def adjust_contrast(img, factor):
    """Scale each channel around its own mean; factor 1 is the exact identity."""
    if factor == 1.0:
        return img.copy()
    mean = img.mean(axis=(1, 2), keepdims=True)
    return np.clip(mean + factor * (img - mean), 0.0, 1.0).astype(img.dtype)


@dataclass
class ColorPCA:
    """Eigen-decomposition of the RGB pixel covariance over a set of images."""

    eigvals: np.ndarray   # (3,)
    eigvecs: np.ndarray   # (3,3), columns are principal directions

    @classmethod
    def fit(cls, images):
        pixels = np.concatenate([np.asarray(im).reshape(3, -1).T for im in images], axis=0)
        cov = np.cov(pixels, rowvar=False)
        vals, vecs = np.linalg.eigh(np.atleast_2d(cov))
        return cls(eigvals=np.maximum(vals, 0.0), eigvecs=vecs)


def pca_color_shift(img, alphas, pca):
    """Add the per-component jitter alphas . eigvals along the principal directions."""
    shift = pca.eigvecs @ (np.asarray(alphas) * pca.eigvals)
    return np.clip(img + shift[:, None, None].astype(img.dtype), 0.0, 1.0).astype(img.dtype)
