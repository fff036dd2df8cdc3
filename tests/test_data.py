"""Tests for image normalization, augmentation, splits, and index files."""

import numpy as np
import pytest

from ldlnet.data import (
    Dataset,
    Sample,
    augment,
    expand,
    load_index,
    save_index,
    split,
)
from ldlnet.distributions import ScoreScale
from ldlnet.errors import (
    ConfigurationError,
    DatasetError,
    EmptyInputError,
    RangeError,
    ValidationError,
)
from ldlnet.imageio import read_ppm, write_ppm
from ldlnet.imaging import (
    ColorPCA,
    adjust_contrast,
    bilinear_resize,
    normalize_image,
    pca_color_shift,
    rotate_image,
)
from ldlnet.synth import synth_dataset


class TestNormalizeImage:
    def test_square_input_same_target_is_identity(self):
        img = np.random.default_rng(0).uniform(size=(3, 20, 20)).astype(np.float32)
        assert np.array_equal(normalize_image(img, target=20), img)

    def test_pads_100x50_symmetrically(self):
        img = np.ones((3, 100, 50), dtype=np.float32)
        out = normalize_image(img, target=100)
        assert out.shape == (3, 100, 100)
        assert np.all(out[:, :, :25] == 0.0)
        assert np.all(out[:, :, 75:] == 0.0)
        assert np.all(out[:, :, 25:75] == 1.0)

    def test_odd_remainder_pads_extra_on_right(self):
        img = np.ones((3, 100, 51), dtype=np.float32)
        out = normalize_image(img, target=100)
        assert np.all(out[:, :, :24] == 0.0)       # 24 left
        assert np.all(out[:, :, 24:75] == 1.0)     # image columns
        assert np.all(out[:, :, 75:] == 0.0)       # 25 right

    def test_tall_image_pads_bottom_extra(self):
        img = np.ones((3, 51, 100), dtype=np.float32)
        out = normalize_image(img, target=100)
        assert np.all(out[:, :24, :] == 0.0)
        assert np.all(out[:, 75:, :] == 0.0)

    def test_crop_applied_first(self):
        img = np.zeros((3, 10, 10), dtype=np.float32)
        img[:, 2:6, 3:7] = 1.0
        out = normalize_image(img, crop=(3, 2, 7, 6), target=4)
        assert np.all(out == 1.0)

    def test_crop_outside_bounds(self):
        img = np.zeros((3, 10, 10), dtype=np.float32)
        with pytest.raises(RangeError):
            normalize_image(img, crop=(0, 0, 11, 5), target=4)

    def test_zero_area_crop(self):
        img = np.zeros((3, 10, 10), dtype=np.float32)
        with pytest.raises(EmptyInputError):
            normalize_image(img, crop=(4, 4, 4, 8), target=4)

    def test_output_always_square(self):
        rng = np.random.default_rng(1)
        for h, w in ((7, 31), (31, 7), (16, 16), (100, 3)):
            out = normalize_image(rng.uniform(size=(3, h, w)).astype(np.float32), target=24)
            assert out.shape == (3, 24, 24)

    def test_resize_identity_at_same_size(self):
        img = np.random.default_rng(2).uniform(size=(3, 9, 9)).astype(np.float32)
        assert np.array_equal(bilinear_resize(img, 9, 9), img)

    def test_resize_constant_image_stays_constant(self):
        img = np.full((3, 10, 10), 0.375, dtype=np.float32)
        out = bilinear_resize(img, 17, 17)
        assert np.allclose(out, 0.375, atol=1e-6)

    def test_upsampled_ramp_clamps_to_its_edges(self):
        # the first output row samples left of pixel 0 and took its fraction
        # from the unclamped floor: 0.75 instead of the edge value 0
        ramp = np.broadcast_to(np.arange(4.0)[None, :, None], (3, 4, 4))
        out = bilinear_resize(ramp, 8, 8)[0, :, 0]
        assert out[0] == 0.0 and out[-1] == 3.0
        assert np.all(np.diff(out) >= 0)

    @pytest.mark.parametrize("target", [16.5, True, 0, -3])
    def test_bad_target_is_refused(self, target):
        # 16.5 gave 17x17, True 1x1, 0 a raw ZeroDivisionError, -3 an empty image
        img = np.zeros((3, 8, 8), dtype=np.float32)
        with pytest.raises(ConfigurationError, match="normalize_image target"):
            normalize_image(img, target=target)


class TestAugmentPrimitives:
    def test_rotation_zero_is_identity(self):
        img = np.random.default_rng(3).uniform(size=(3, 12, 12)).astype(np.float32)
        assert np.array_equal(rotate_image(img, 0.0), img)

    def test_rotation_keeps_range(self):
        img = np.random.default_rng(4).uniform(size=(3, 12, 12)).astype(np.float32)
        out = rotate_image(img, 13.0)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_contrast_one_is_identity(self):
        img = np.random.default_rng(5).uniform(size=(3, 8, 8)).astype(np.float32)
        assert np.array_equal(adjust_contrast(img, 1.0), img)

    def test_contrast_scales_around_channel_mean(self):
        img = np.random.default_rng(6).uniform(0.3, 0.7, size=(3, 8, 8)).astype(np.float32)
        out = adjust_contrast(img, 0.8)
        mean = img.mean(axis=(1, 2), keepdims=True)
        assert np.allclose(out, mean + 0.8 * (img - mean), atol=1e-6)

    def test_color_shift_moves_along_basis(self):
        img = np.full((3, 4, 4), 0.5, dtype=np.float32)
        pca = ColorPCA(eigvals=np.array([0.1, 0.0, 0.0]),
                       eigvecs=np.eye(3))
        out = pca_color_shift(img, np.array([1.0, 0.0, 0.0]), pca)
        assert np.allclose(out[0], 0.6, atol=1e-6)
        assert np.allclose(out[1:], 0.5, atol=1e-6)


class TestAugmentAndExpand:
    def _sample(self, seed=0):
        rng = np.random.default_rng(seed)
        return Sample(
            image=rng.uniform(size=(3, 16, 16)).astype(np.float32),
            ratings=[3.0, 4.0],
            distribution=np.array([0, 0, 0.5, 0.5, 0.0]),
            mean_score=3.5,
        )

    def test_labels_never_touched(self):
        s = self._sample()
        for kind in ("color", "rotation", "contrast"):
            a = augment(s, kind, seed=11)
            assert a.ratings == s.ratings
            assert np.array_equal(a.distribution, s.distribution)
            assert a.mean_score == s.mean_score

    def test_same_seed_same_augmentation(self):
        s = self._sample()
        a = augment(s, "rotation", seed=5)
        b = augment(s, "rotation", seed=5)
        assert np.array_equal(a.image, b.image)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            augment(self._sample(), "blur", seed=0)

    def test_expand_factor_one_is_identity(self):
        ds = synth_dataset(6, raters=5, seed=0, image_size=16)
        assert expand(ds, 1) is ds

    def test_expand_counts_and_test_split_untouched(self):
        ds = synth_dataset(10, raters=5, seed=1, image_size=16)
        ds = split(ds, counts=(8, 2), seed=1)
        out = expand(ds, factor=3, seed=2)
        assert len(out.train_idx) == 24
        assert out.test_idx == ds.test_idx
        for i in out.test_idx:
            assert out.samples[i] is ds.samples[i]

    def test_expand_deterministic(self):
        ds = synth_dataset(6, raters=5, seed=3, image_size=16)
        ds = split(ds, counts=(4, 2), seed=3)
        a = expand(ds, factor=4, seed=9)
        b = expand(ds, factor=4, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.image, sb.image)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_expand_refuses_a_bad_seed(self, seed):
        # refused before it reaches numpy, which raises a raw ValueError or TypeError
        ds = split(synth_dataset(4, raters=3, seed=0, image_size=16), counts=(2, 2), seed=0)
        with pytest.raises(ConfigurationError, match="expand seed"):
            expand(ds, 2, seed=seed)

    @pytest.mark.parametrize("factor", [0, 2.5, True])
    def test_expand_refuses_a_bad_factor(self, factor):
        # 2.5 reached range() as a raw TypeError
        ds = split(synth_dataset(4, raters=3, seed=0, image_size=16), counts=(2, 2), seed=0)
        with pytest.raises(ConfigurationError, match="expand factor"):
            expand(ds, factor)


class TestSplit:
    def test_protocol_counts(self):
        ds = synth_dataset(500, raters=3, seed=4, image_size=16)
        out = split(ds, counts=(400, 100), seed=0)
        assert len(out.train_idx) == 400 and len(out.test_idx) == 100

    def test_same_seed_identical(self):
        ds = synth_dataset(20, raters=3, seed=5, image_size=16)
        a = split(ds, train_fraction=0.8, seed=7)
        b = split(ds, train_fraction=0.8, seed=7)
        assert a.train_idx == b.train_idx and a.test_idx == b.test_idx

    def test_disjoint_and_covering(self):
        ds = synth_dataset(30, raters=3, seed=6, image_size=16)
        out = split(ds, train_fraction=0.7, seed=1)
        assert set(out.train_idx) & set(out.test_idx) == set()
        assert sorted(out.train_idx + out.test_idx) == list(range(30))

    def test_counts_exceeding_n(self):
        ds = synth_dataset(10, raters=3, seed=7, image_size=16)
        with pytest.raises(ConfigurationError):
            split(ds, counts=(9, 2))

    @pytest.mark.parametrize("counts", [(2.7, 1.9), (3, 2.0), (True, 1), (-1, 2),
                                        (3,), (2, 2, 2), 5, "32"])
    def test_malformed_counts_are_refused(self, counts):
        # (2.7, 1.9) was truncated to a 2/1 split, (3,) raised a raw IndexError
        ds = synth_dataset(6, raters=3, seed=8, image_size=16)
        with pytest.raises(ConfigurationError, match="split counts"):
            split(ds, counts=counts)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_is_refused(self, seed):
        ds = synth_dataset(6, raters=3, seed=8, image_size=16)
        with pytest.raises(ConfigurationError, match="split seed"):
            split(ds, train_fraction=0.5, seed=seed)


class TestPpm:
    def test_round_trip_within_quantization(self, tmp_path):
        img = np.random.default_rng(8).uniform(size=(3, 9, 7)).astype(np.float32)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-6

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(DatasetError):
            read_ppm(path)

    @pytest.mark.parametrize("header", [
        b"P6\nab 3",                              # not a number
        b"P6\n-3 2\n255\n",                      # negative width
        b"P6\n3 0\n255\n",                       # zero height
        b"P6\n4294967296 4294967296\n255\n",     # far more pixels than the file holds
        b"P6\n2 2\n0x1\n",                       # not decimal
        pytest.param(b"P6\n" + b"9" * 5000 + b" 1\n255\n",
                     id="beyond-the-int-digit-limit"),
    ])
    def test_bad_header_is_a_dataset_error(self, tmp_path, header):
        path = tmp_path / "img.ppm"
        path.write_bytes(header + b"\0" * 12)
        with pytest.raises(DatasetError):
            read_ppm(path)

    def test_png_read_when_pillow_available(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        arr = (np.random.default_rng(9).uniform(size=(6, 5, 3)) * 255).astype(np.uint8)
        PIL.fromarray(arr).save(tmp_path / "img.png")
        from ldlnet.imageio import read_image
        back = read_image(tmp_path / "img.png")
        assert back.shape == (3, 6, 5)
        assert np.max(np.abs(back - arr.transpose(2, 0, 1) / 255.0)) < 1e-6

    def test_png_rows_load_in_index(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        arr = (np.full((8, 8, 3), 128)).astype(np.uint8)
        PIL.fromarray(arr).save(tmp_path / "img.png")
        (tmp_path / "d.idx").write_text("img.png,ratings:2;3\n")
        ds = load_index(tmp_path / "d.idx", image_size=8)
        assert ds.samples[0].image.shape == (3, 8, 8)
        assert np.allclose(ds.samples[0].distribution, [0, 0.5, 0.5, 0, 0])


class TestIndexFiles:
    def test_ratings_row_histogram(self, tmp_path):
        img = np.zeros((3, 8, 8), dtype=np.float32)
        write_ppm(tmp_path / "a.ppm", img)
        (tmp_path / "d.idx").write_text("a.ppm,ratings:3;3;4\n")
        ds = load_index(tmp_path / "d.idx")
        assert np.allclose(ds.samples[0].distribution, [0, 0, 2 / 3, 1 / 3, 0])

    def test_dist_row_within_drift_renormalized(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_text("a.ppm,dist:0.2;0.2;0.2;0.2;0.2005\n")
        ds = load_index(tmp_path / "d.idx")
        assert abs(ds.samples[0].distribution.sum() - 1.0) < 1e-9

    def test_dist_row_beyond_drift_rejected(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_text("a.ppm,dist:0.2;0.2;0.2;0.1;0.1\n")
        with pytest.raises(ValidationError) as exc:
            load_index(tmp_path / "d.idx")
        assert "0.8" in str(exc.value)

    def test_missing_image_reports_row(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_text("a.ppm,ratings:3\nghost.ppm,ratings:4\n")
        with pytest.raises(DatasetError) as exc:
            load_index(tmp_path / "d.idx")
        assert "row 2" in str(exc.value)

    def test_crop_field_applied(self, tmp_path):
        img = np.zeros((3, 10, 10), dtype=np.float32)
        img[:, 2:6, 3:7] = 1.0
        write_ppm(tmp_path / "a.ppm", img)
        (tmp_path / "d.idx").write_text("a.ppm,crop=3;2;7;6,ratings:5\n")
        ds = load_index(tmp_path / "d.idx", image_size=4)
        assert np.all(ds.samples[0].image > 0.99)

    def test_round_trip_preserves_distributions(self, tmp_path):
        ds = synth_dataset(8, raters=9, seed=9, image_size=16)
        idx = save_index(ds, tmp_path / "synth.idx")
        back = load_index(idx)
        assert back.n == ds.n
        for a, b in zip(ds.samples, back.samples):
            assert np.max(np.abs(a.distribution - b.distribution)) < 1e-6
            assert abs(a.mean_score - b.mean_score) < 1e-6

    def test_round_trip_as_dist_rows(self, tmp_path):
        ds = synth_dataset(5, raters=9, seed=10, image_size=16)
        idx = save_index(ds, tmp_path / "synth.idx", labels="dist")
        back = load_index(idx)
        for a, b in zip(ds.samples, back.samples):
            assert np.max(np.abs(a.distribution - b.distribution)) < 1e-6

    def test_missing_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "absent.idx")

    def test_row_that_is_not_utf8_reports_row(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_bytes(b"a.ppm,ratings:3\na\xff.ppm,ratings:4\n")
        with pytest.raises(ValidationError) as exc:
            load_index(tmp_path / "d.idx")
        assert "row 2" in str(exc.value) and "UTF-8" in str(exc.value)

    @pytest.mark.parametrize("labels", ["ratings:3;nan", "dist:0.2;0.2;nan;0.2;0.2"])
    def test_nan_label_rejected(self, tmp_path, labels):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_text(f"a.ppm,{labels}\n")
        with pytest.raises((RangeError, ValidationError)):
            load_index(tmp_path / "d.idx")

    @pytest.mark.parametrize("image_size", [None, 4])
    @pytest.mark.parametrize("row", ["a.ppm,ratings:7;3", "a.ppm,ratings:",
                                     "a.ppm,crop=0;0;11;5,ratings:3",
                                     "a.ppm,crop=4;4;4;8,ratings:3"])
    def test_row_off_its_range_is_invalid_data_with_its_row(self, tmp_path, row, image_size):
        # an off-scale rating, no rating, a crop outside the image, a
        # zero-area crop: each was a RangeError or EmptyInputError without a row
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 10, 10), dtype=np.float32))
        (tmp_path / "d.idx").write_text(f"a.ppm,ratings:3\n{row}\n")
        with pytest.raises(ValidationError, match="^row 2: "):
            load_index(tmp_path / "d.idx", image_size=image_size)

    @pytest.mark.parametrize("image_size", [16.5, True, 0, -3])
    def test_bad_image_size_is_refused_before_any_file_is_read(self, tmp_path, image_size):
        with pytest.raises(ConfigurationError, match="load_index image_size"):
            load_index(tmp_path / "absent.idx", image_size=image_size)

    @pytest.mark.parametrize("labels", ["bogus", "Dist", None])
    def test_unknown_label_form_is_refused(self, tmp_path, labels):
        # "bogus" wrote dist rows
        ds = synth_dataset(2, raters=3, seed=0, image_size=16)
        with pytest.raises(ConfigurationError, match="save_index labels"):
            save_index(ds, tmp_path / "d.idx", labels=labels)
        assert not (tmp_path / "d.idx").exists()

    def test_malformed_label_token(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((3, 8, 8), dtype=np.float32))
        (tmp_path / "d.idx").write_text("a.ppm,scores:1;2\n")
        with pytest.raises(ValidationError):
            load_index(tmp_path / "d.idx")
