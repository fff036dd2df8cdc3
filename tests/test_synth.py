"""Tests for the synthetic rated-face generator."""

import numpy as np
import pytest

from ldlnet.distributions import pearson, weighted_mean
from ldlnet.errors import ConfigurationError
from ldlnet.synth import latent_attractiveness, render_face_card, synth_dataset


class TestLatent:
    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            t = latent_attractiveness(*rng.uniform(size=3))
            assert 1.0 <= t <= 5.0

    def test_extremes(self):
        assert latent_attractiveness(0.0, 0.0, 0.0) == pytest.approx(1.0)
        assert latent_attractiveness(1.0, 0.5, 1.0) == pytest.approx(5.0)

    def test_smooth_in_each_argument(self):
        # small input changes move t by a bounded amount
        base = latent_attractiveness(0.5, 0.5, 0.5)
        for du in (1e-4, -1e-4):
            assert abs(latent_attractiveness(0.5 + du, 0.5, 0.5) - base) < 1e-2
            assert abs(latent_attractiveness(0.5, 0.5 + du, 0.5) - base) < 1e-2


class TestRenderer:
    def test_shape_and_range(self):
        img = render_face_card(32, 0.5, 0.5, 0.5)
        assert img.shape == (3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_grayscale_on_rgb(self):
        img = render_face_card(24, 0.2, 0.7, 0.9)
        assert np.array_equal(img[0], img[1]) and np.array_equal(img[1], img[2])

    def test_geometry_changes_pixels(self):
        a = render_face_card(32, 1.0, 0.5, 0.5)
        b = render_face_card(32, 0.0, 0.5, 0.5)
        assert np.abs(a - b).max() > 0.1


class TestSynthDataset:
    def test_noiseless_point_mass_at_rounded_latent(self):
        ds = synth_dataset(40, raters=7, noise_sd=0.0, bimodal_fraction=0.0,
                           seed=0, image_size=16)
        for s in ds.samples:
            expected = int(np.clip(np.round(s.latent), 1, 5))
            d = np.zeros(5)
            d[expected - 1] = 1.0
            assert np.array_equal(s.distribution, d)

    def test_same_seed_identical(self):
        a = synth_dataset(10, raters=5, seed=4, image_size=16)
        b = synth_dataset(10, raters=5, seed=4, image_size=16)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.image, sb.image)
            assert sa.ratings == sb.ratings
            assert sa.latent == sb.latent

    def test_different_seed_differs(self):
        a = synth_dataset(10, raters=5, seed=4, image_size=16)
        b = synth_dataset(10, raters=5, seed=5, image_size=16)
        assert any(sa.latent != sb.latent for sa, sb in zip(a.samples, b.samples))

    def test_latent_vs_rating_mean_correlation(self):
        ds = synth_dataset(800, raters=70, noise_sd=0.3, bimodal_fraction=0.0,
                           seed=6, image_size=16)
        lat = [s.latent for s in ds.samples]
        means = [s.mean_score for s in ds.samples]
        assert pearson(means, lat) > 0.95

    def test_mean_scores_track_mean_latent(self):
        ds = synth_dataset(10_000, raters=30, noise_sd=0.5, bimodal_fraction=0.0,
                           seed=7, image_size=16)
        mean_latent = np.mean([s.latent for s in ds.samples])
        mean_decoded = np.mean([weighted_mean(s.distribution) for s in ds.samples])
        assert abs(mean_decoded - mean_latent) < 0.1

    def test_mean_score_consistent_with_distribution(self):
        ds = synth_dataset(30, raters=11, seed=8, image_size=16)
        for s in ds.samples:
            assert abs(s.mean_score - weighted_mean(s.distribution)) < 1e-6

    def test_bimodal_samples_spread_mass(self):
        uni = synth_dataset(300, raters=70, noise_sd=0.2, bimodal_fraction=0.0,
                            seed=9, image_size=16)
        bi = synth_dataset(300, raters=70, noise_sd=0.2, bimodal_fraction=1.0,
                           seed=9, image_size=16)
        spread_uni = np.mean([(s.distribution > 0.05).sum() for s in uni.samples])
        spread_bi = np.mean([(s.distribution > 0.05).sum() for s in bi.samples])
        assert spread_bi > spread_uni

    @pytest.mark.parametrize("kwargs", [
        dict(n=1),
        dict(n=10, raters=0),
        dict(n=10, image_size=8),
        dict(n=10, noise_sd=-0.1),
        dict(n=10, bimodal_fraction=1.5),
        dict(n=10, seed=-1),
        dict(n=10, seed=1.5),
        dict(n=4.5),                  # was a raw TypeError
        dict(n=10, raters=2.5),       # was a raw TypeError
        dict(n=10, image_size=16.5),  # drew 17x17 images
        dict(n=4, noise_sd="a"),      # was a raw TypeError
        dict(n=4, bimodal_fraction=None),  # was a raw TypeError
        dict(n=4, noise_sd=True),     # drew ratings with noise 1
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            synth_dataset(**{"raters": 5, "seed": 0, "image_size": 16, **kwargs})

    @pytest.mark.parametrize("noise_sd", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise_sd):
        # NaN passed a `noise_sd < 0` check and then gave noiseless ratings
        with pytest.raises(ConfigurationError) as exc:
            synth_dataset(10, raters=5, noise_sd=noise_sd, image_size=16)
        assert "noise_sd" in str(exc.value)
