"""Tests for score distributions, the two losses, decoding, and metrics.

Expected values are hand computations (norms, dot products, KL sums) frozen
into the assertions.
"""

import math

import numpy as np
import pytest

import ldlnet.autodiff as ad
from ldlnet.distributions import (
    ScoreScale,
    chebyshev,
    distribution_from_ratings,
    euclidean_loss,
    euclidean_loss_graph,
    kl_logit_gradient,
    kl_loss,
    kl_loss_graph,
    pearson,
    validate_distribution,
    weighted_mean,
)
from ldlnet.errors import (
    DimensionError,
    EmptyInputError,
    RangeError,
    UndefinedCorrelationError,
    ValidationError,
)


class TestScoreScale:
    def test_default_is_one_to_five(self):
        assert ScoreScale().labels == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            ScoreScale(labels=(1, 3, 2))

    def test_rejects_single_label(self):
        with pytest.raises(ValidationError):
            ScoreScale(labels=(1,))

    @pytest.mark.parametrize("labels", [(1, float("inf")), (1, float("nan"), 3),
                                        (float("-inf"), 1, 2)])
    def test_rejects_non_finite_labels(self, labels):
        # (1, inf) made weighted_mean NaN; (1, nan, 3) binned a rating of 1 on NaN
        with pytest.raises(ValidationError, match="finite"):
            ScoreScale(labels=labels)


class TestDistributionFromRatings:
    def test_single_bin(self):
        assert np.array_equal(distribution_from_ratings([3, 3, 3]), [0, 0, 1, 0, 0])

    def test_hand_histogram(self):
        assert np.array_equal(distribution_from_ratings([1, 2, 2, 5]),
                              [0.25, 0.5, 0, 0, 0.25])

    def test_constant_raters(self):
        assert np.array_equal(distribution_from_ratings([4] * 70), [0, 0, 0, 1, 0])

    def test_nearest_label_binning(self):
        assert np.array_equal(distribution_from_ratings([2.2, 4.9]),
                              [0, 0.5, 0, 0, 0.5])

    def test_halfway_tie_goes_down(self):
        assert np.array_equal(distribution_from_ratings([2.5]), [0, 1, 0, 0, 0])
        assert np.array_equal(distribution_from_ratings([4.5]), [0, 0, 0, 1, 0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            distribution_from_ratings([])

    def test_out_of_range_names_value(self):
        with pytest.raises(RangeError) as exc:
            distribution_from_ratings([3, 6.5])
        assert "6.5" in str(exc.value)

    def test_nan_rating_is_out_of_range(self):
        with pytest.raises(RangeError):
            distribution_from_ratings([3, float("nan")])
        with pytest.raises(ValidationError):
            validate_distribution([0.2, 0.2, float("nan"), 0.2, 0.2])

    def test_randomized_outputs_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = rng.integers(1, 40)
            ratings = rng.uniform(1.0, 5.0, size=n)
            d = distribution_from_ratings(ratings)
            validate_distribution(d)
            assert 1.0 <= weighted_mean(d) <= 5.0


class TestWeightedMean:
    def test_uniform_is_midpoint(self):
        assert weighted_mean([0.2] * 5) == pytest.approx(3.0)

    def test_point_mass(self):
        assert weighted_mean([0, 0, 0, 0, 1]) == 5.0

    def test_hand_dot_product(self):
        assert weighted_mean([0.1, 0.2, 0.3, 0.2, 0.2]) == pytest.approx(3.2)

    def test_point_mass_exact_at_every_label(self):
        for j in range(5):
            d = np.zeros(5)
            d[j] = 1.0
            assert weighted_mean(d) == float(j + 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_mean([0.5, 0.5])


class TestEuclideanLoss:
    def test_zero_at_identity(self):
        d = [0.2, 0.3, 0.1, 0.2, 0.2]
        assert euclidean_loss(d, d) == 0.0

    def test_hand_norm(self):
        assert euclidean_loss([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == pytest.approx(
            math.sqrt(2), abs=5e-7)

    def test_hand_norm_squared(self):
        assert euclidean_loss([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], squared=True) == pytest.approx(
            1.0, abs=5e-7)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            euclidean_loss([1, 0], [1, 0, 0])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(5), size=200)
        b = rng.dirichlet(np.ones(5), size=200)
        b[::7] = a[::7]
        for squared in (False, True):
            rows = euclidean_loss(a, b, squared=squared)
            assert rows.shape == (200,)
            for p, t, v in zip(a, b, rows):
                one = euclidean_loss(p, t, squared=squared)
                assert isinstance(one, float) and one == v   # the (N,c) call, row by row
                assert v >= 0
                assert (v == 0) == bool(np.array_equal(p, t))


class TestKlLoss:
    def test_zero_at_identity(self):
        d = [0.2, 0.2, 0.2, 0.2, 0.2]
        assert kl_loss(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value_ln2(self):
        v = kl_loss([0.5, 0.5, 0, 0, 0], [0.25, 0.25, 0.25, 0.25, 0])
        assert v == pytest.approx(math.log(2), abs=5e-7)

    def test_hand_value_ln5(self):
        v = kl_loss([1, 0, 0, 0, 0], [0.2, 0.2, 0.2, 0.2, 0.2])
        assert v == pytest.approx(math.log(5), abs=5e-7)

    def test_zero_target_degree_contributes_nothing(self):
        # the 0 ln 0 convention: target mass 0 against pred mass 0 is fine
        assert np.isfinite(kl_loss([1, 0, 0, 0, 0], [1, 0, 0, 0, 0]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            kl_loss([1, 0], [0.5, 0.25, 0.25])

    def test_nonnegative_over_random_pairs(self):
        rng = np.random.default_rng(2)
        a = rng.dirichlet(np.ones(5), size=200)
        b = rng.dirichlet(np.ones(5), size=200)
        a[::5, rng.integers(5)] = 0.0    # zero target degrees take the 0 ln 0 branch
        b[::11, 0] = 0.0                 # and zero predictions the clamp
        a /= a.sum(axis=1, keepdims=True)
        b /= b.sum(axis=1, keepdims=True)
        rows = kl_loss(a, b)
        assert rows.shape == (200,)
        for t, p, v in zip(a, b, rows):
            one = kl_loss(t, p)
            assert isinstance(one, float) and one == v   # the (N,c) call, row by row
            assert v >= -1e-9


class TestKlLogitGradient:
    def test_zero_at_minimum(self):
        z = np.array([0.3, -0.2, 1.0, 0.0, -1.0])
        e = np.exp(z - z.max())
        d = e / e.sum()
        assert np.allclose(kl_logit_gradient(d, z), 0.0, atol=1e-15)

    def test_hand_value_uniform_minus_point_mass(self):
        g = kl_logit_gradient(np.array([1.0, 0, 0, 0, 0]), np.zeros(5))
        assert np.allclose(g, [-0.8, 0.2, 0.2, 0.2, 0.2])

    def test_matches_autodiff_through_softmax(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.standard_normal((1, 5))
            d = rng.dirichlet(np.ones(5))[None, :]
            zt = ad.Tensor(z, requires_grad=True, dtype=np.float64)
            kl_loss_graph(ad.softmax(zt), d).backward()
            assert np.max(np.abs(zt.grad - kl_logit_gradient(d, z))) < 1e-8


class TestPearson:
    def test_self_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_sign_flip(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)

    def test_hand_formula(self):
        # r = 3 / (sqrt(2) * sqrt(42)/3) = 9 / (2 sqrt(21))
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / (2 * math.sqrt(21)))

    def test_constant_vector_is_an_error(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [2.0, 2.0, 2.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        base = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.2 * y - 4.0) == pytest.approx(base, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            assert -1.0 <= pearson(x, y) <= 1.0


class TestChebyshev:
    def test_identical(self):
        assert chebyshev([0.2, 0.8, 0, 0, 0], [0.2, 0.8, 0, 0, 0]) == 0.0

    def test_disjoint_masses(self):
        assert chebyshev([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]) == 1.0

    def test_hand_max(self):
        assert chebyshev([0.5, 0.5, 0, 0, 0], [0.25, 0.25, 0.25, 0.25, 0]) == 0.25

    def test_rows_of_a_batch_match_vector_calls(self):
        rng = np.random.default_rng(8)
        a = rng.dirichlet(np.ones(5), size=100)
        b = rng.dirichlet(np.ones(5), size=100)
        rows = chebyshev(a, b)
        assert rows.shape == (100,)
        for p, t, v in zip(a, b, rows):
            one = chebyshev(p, t)
            assert isinstance(one, float) and one == v

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            chebyshev([1, 0], [1, 0, 0])


class TestLossGraphs:
    def test_euclidean_graph_matches_scalar_function(self):
        rng = np.random.default_rng(6)
        pred = rng.dirichlet(np.ones(5), size=4)
        targ = rng.dirichlet(np.ones(5), size=4)
        total = euclidean_loss_graph(ad.Tensor(pred, dtype=np.float64), targ)
        expected = sum(euclidean_loss(p, t) for p, t in zip(pred, targ))
        assert float(total.data) == pytest.approx(expected, rel=1e-9)

    def test_kl_graph_matches_scalar_function(self):
        rng = np.random.default_rng(7)
        pred = rng.dirichlet(np.ones(5), size=4)
        targ = rng.dirichlet(np.ones(5), size=4)
        total = kl_loss_graph(ad.Tensor(pred, dtype=np.float64), targ)
        expected = sum(kl_loss(t, p) for p, t in zip(pred, targ))
        assert float(total.data) == pytest.approx(expected, rel=1e-9)

    def test_euclidean_gradient_finite_at_perfect_fit(self):
        targ = np.full((2, 5), 0.2)
        pred = ad.Tensor(targ.copy(), requires_grad=True, dtype=np.float64)
        loss = euclidean_loss_graph(pred, targ)
        loss.backward()
        assert np.all(np.isfinite(pred.grad))
