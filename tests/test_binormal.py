"""Closed-form and inversion checks for the two-normal score model.

Frozen reference values were computed independently with 30-digit
arithmetic (mpmath) and rounded to double precision; the code under test
must reproduce them through its own standardized-frame route.
"""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant.binormal import (
    BinormalModel,
    ModelFieldError,
    Rates,
    ThresholdClassifier,
    classifier_rates,
    likelihood_ratio,
    mixture_cdf,
    mixture_quantile,
    posterior,
    std_normal_cdf,
    std_normal_quantile,
)

# Phi(1) and the 97.5% point of the standard normal.
PHI_ONE = 0.8413447460685429
Z_975 = 1.959963984540054

# Mixture distribution function at x = 1 for the default model below.
MIX_CDF_ONE = 0.6706723730342715

DEFAULT_MODEL = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)


class TestStdNormalCdf:
    def test_value_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_value_at_one(self):
        np.testing.assert_allclose(std_normal_cdf(1.0), PHI_ONE, rtol=1e-15)

    def test_symmetry(self):
        """Phi(x) + Phi(-x) = 1 on a wide grid."""
        x = np.linspace(-8.0, 8.0, 2001)
        np.testing.assert_allclose(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, atol=1e-15)

    def test_strictly_increasing(self):
        # Above x ~ 7.5 the CDF saturates against the float64 spacing at 1,
        # so strictness is only testable below that; the left tail is saved
        # by the denser spacing near 0.
        x = np.linspace(-8.0, 7.0, 2001)
        assert np.all(np.diff(std_normal_cdf(x)) > 0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(std_normal_cdf(0.3), float)

    def test_array_shape_preserved(self):
        x = np.zeros((3, 4))
        assert std_normal_cdf(x).shape == (3, 4)

    def test_far_tails(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0


class TestStdNormalQuantile:
    def test_known_point(self):
        np.testing.assert_allclose(std_normal_quantile(0.975), Z_975, atol=1e-10)

    def test_median(self):
        np.testing.assert_allclose(std_normal_quantile(0.5), 0.0, atol=1e-14)

    def test_round_trip(self):
        u = np.linspace(1e-6, 1.0 - 1e-6, 501)
        np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(u)), u, atol=1e-12)

    def test_rejects_boundary_levels(self):
        for u in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                std_normal_quantile(u)

    def test_accepts_the_smallest_subnormal_level(self):
        assert math.isfinite(std_normal_quantile(5e-324))
        assert np.isfinite(std_normal_quantile(np.array([5e-324, 0.5]))).all()


_QUANTILES = {"std_normal_quantile": std_normal_quantile,
              "mixture_quantile": functools.partial(mixture_quantile, DEFAULT_MODEL)}
_LEVEL_FAULT = r"^probability level must lie in \(0, 1\), got (nan|inf|-inf|0\.0|-0\.0|1\.0)$"


@pytest.mark.parametrize("name", _QUANTILES)
class TestLevelArrays:
    """An array of levels is rejected as a whole when one level lies outside (0, 1),
    wherever it sits, with the message a scalar level gets."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0], ids=repr)
    @pytest.mark.parametrize("at", [0, 4, 9])
    def test_one_bad_level_rejects_the_array(self, name, bad, at):
        u = np.linspace(0.05, 0.95, 10)
        u[at] = bad
        with pytest.raises(ValueError, match=_LEVEL_FAULT):
            _QUANTILES[name](u)

    def test_empty_array_passes(self, name):
        assert _QUANTILES[name](np.empty(0)).shape == (0,)


class TestMixtureCdf:
    def test_value_at_one(self):
        np.testing.assert_allclose(mixture_cdf(DEFAULT_MODEL, 1.0), MIX_CDF_ONE, rtol=1e-15)

    def test_class_decomposition(self):
        """The mixture is the prior-weighted sum of the component CDFs."""
        m = DEFAULT_MODEL
        x = np.linspace(-6.0, 8.0, 401)
        expected = m.p * std_normal_cdf((x - m.nu) / m.sigma) + (1.0 - m.p) * std_normal_cdf(
            (x - m.mu) / m.sigma
        )
        np.testing.assert_allclose(mixture_cdf(m, x), expected, atol=1e-15)

    def test_limits(self):
        assert mixture_cdf(DEFAULT_MODEL, -60.0) == 0.0
        assert mixture_cdf(DEFAULT_MODEL, 60.0) == 1.0

    def test_strictly_increasing(self):
        x = np.linspace(-6.0, 8.0, 1001)
        assert np.all(np.diff(mixture_cdf(DEFAULT_MODEL, x)) > 0)


class TestMixtureQuantile:
    def test_round_trip(self):
        """|cdf(quantile(u)) - u| <= 1e-9 across essentially all of (0, 1)."""
        u = np.linspace(1e-6, 1.0 - 1e-6, 1001)
        back = mixture_cdf(DEFAULT_MODEL, mixture_quantile(DEFAULT_MODEL, u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    def test_extreme_levels_round_trip(self):
        for u in (1e-12, 1.0 - 1e-12):
            x = mixture_quantile(DEFAULT_MODEL, u)
            assert abs(mixture_cdf(DEFAULT_MODEL, x) - u) <= 1e-10

    def test_median_between_means(self):
        x = mixture_quantile(DEFAULT_MODEL, 0.5)
        assert DEFAULT_MODEL.mu < x < DEFAULT_MODEL.nu

    def test_rejects_boundary_levels(self):
        for u in (0.0, 1.0):
            with pytest.raises(ValueError):
                mixture_quantile(DEFAULT_MODEL, u)

    def test_asymmetric_model(self):
        model = BinormalModel(mu=-3.0, nu=0.5, sigma=2.5, p=0.9)
        u = np.linspace(0.001, 0.999, 200)
        back = mixture_cdf(model, mixture_quantile(model, u))
        np.testing.assert_allclose(back, u, atol=1e-9)

    def test_tail_levels_keep_relative_accuracy(self):
        """Deep lower-tail levels round-trip to 1e-12 relative; upper-tail
        levels are solved against 1 - u, so the mass above the quantile
        matches 1 - u to the same relative accuracy."""
        for model in (DEFAULT_MODEL, BinormalModel(mu=-3.0, nu=0.5, sigma=2.5, p=0.9)):
            for u in (1e-300, 1e-100, 1e-16):
                back = mixture_cdf(model, mixture_quantile(model, u))
                assert abs(back - u) <= 1e-12 * u
            for tail in (1e-16, 1e-12, 1e-6):
                t = mixture_quantile(model, 1.0 - tail)
                rates = classifier_rates(model, ThresholdClassifier(t))
                above = model.p * rates.tpr + (1.0 - model.p) * rates.fpr
                assert abs(above - (1.0 - (1.0 - tail))) <= 1e-12 * tail


_TAIL_LEVELS = st.one_of(
    st.floats(-300.0, math.log10(0.5)).map(lambda t: 10.0 ** t),
    st.floats(-16.0, math.log10(0.5)).map(lambda t: 1.0 - 10.0 ** t),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=_TAIL_LEVELS, mu=st.floats(-100.0, 100.0), log_sigma=st.floats(-2.0, 2.0),
       log_d=st.floats(-2.0, 1.0), p=st.floats(0.001, 0.999))
def test_mixture_round_trip_holds_in_both_tails(u, mu, log_sigma, log_d, p):
    """|mixture_cdf(mixture_quantile(u)) - u| <= 1e-10, the documented tolerance, at
    levels from 1e-300 up to 1 - 1e-16."""
    sigma = 10.0 ** log_sigma
    model = BinormalModel(mu=mu, nu=mu + 10.0 ** log_d * sigma, sigma=sigma, p=p)
    assert abs(mixture_cdf(model, mixture_quantile(model, u)) - u) <= 1e-10


@pytest.mark.parametrize("mu, sigma", [(1e6, 1e-3), (1e3, 1e-9), (1e6, 1e-9)])
def test_round_trip_bound_holds_in_z_at_large_offsets(mu, sigma):
    """Where |mu| / sigma is large the spacing of doubles near x, not the solver,
    limits |mixture_cdf(x) - u|: the z-score that x rounds meets 1e-10, and x
    misses only by what rounding it moves the mixture CDF."""
    model = BinormalModel(mu=mu, nu=mu + 2.0 * sigma, sigma=sigma, p=0.3)
    standard = BinormalModel(mu=0.0, nu=model.d, sigma=1.0, p=model.p)
    u = np.linspace(0.1, 0.9, 81)
    z = mixture_quantile(standard, u)
    assert np.all(np.abs(mixture_cdf(standard, z) - u) <= 1e-10)
    x = mixture_quantile(model, u)
    assert np.array_equal(x, model.score(z))
    move = np.spacing(np.maximum(np.abs(x), abs(mu))) / sigma
    assert np.all(np.abs(mixture_cdf(model, x) - u) <= 1e-10 + move / math.sqrt(2.0 * math.pi))


_SCORE_Z = st.one_of(st.floats(-40.0, 40.0), st.floats(-1e12, 1e12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-1e6, 1e6), log_sigma=st.floats(-9.0, 6.0), log_d=st.floats(-2.0, 1.0),
       p=st.floats(0.001, 0.999), zs=st.lists(_SCORE_Z, min_size=2, max_size=8))
def test_rates_and_posterior_are_monotone_in_the_score(mu, log_sigma, log_d, p, zs):
    """Over random models with sigma from 1e-9 to 1e6, a higher threshold never
    raises tpr or fpr, and a higher score never lowers the posterior."""
    sigma = 10.0 ** log_sigma
    nu = max(mu + 10.0 ** log_d * sigma, math.nextafter(mu, math.inf))
    model = BinormalModel(mu=mu, nu=nu, sigma=sigma, p=p)
    scores = sorted(float(model.score(z)) for z in zs)
    rates = [classifier_rates(model, ThresholdClassifier(t)) for t in scores]
    posteriors = [posterior(model, t) for t in scores]
    for lower, higher in zip(rates, rates[1:]):
        assert higher.tpr <= lower.tpr and higher.fpr <= lower.fpr
    assert all(a <= b for a, b in zip(posteriors, posteriors[1:]))


class TestPosterior:
    def test_equals_prior_at_unit_score(self):
        """For the default parameters the posterior at x = 1 is exactly the prior."""
        np.testing.assert_allclose(posterior(DEFAULT_MODEL, 1.0), 0.25, atol=1e-12)

    def test_consistency_with_likelihood_ratio(self):
        """posterior = p lam / (p lam + 1 - p) pointwise."""
        m = DEFAULT_MODEL
        for x in np.linspace(-4.0, 6.0, 101):
            lam = likelihood_ratio(m, x)
            expected = m.p * lam / (m.p * lam + 1.0 - m.p)
            assert abs(posterior(m, x) - expected) <= 1e-12

    def test_strictly_increasing(self):
        xs = np.linspace(-10.0, 12.0, 401)
        values = [posterior(DEFAULT_MODEL, x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_saturates_cleanly(self):
        assert 0.0 <= posterior(DEFAULT_MODEL, -1e6) < 1e-12
        assert 1.0 - 1e-12 < posterior(DEFAULT_MODEL, 1e6) <= 1.0


class TestLikelihoodRatio:
    def test_unit_at_midpoint(self):
        np.testing.assert_allclose(likelihood_ratio(DEFAULT_MODEL, 1.0), 1.0, atol=1e-12)

    def test_value_at_two(self):
        # exp((2*2 - 2)/1) = e^2
        np.testing.assert_allclose(likelihood_ratio(DEFAULT_MODEL, 2.0), math.e**2, rtol=1e-14)

    def test_strictly_increasing(self):
        xs = np.linspace(-10.0, 12.0, 401)
        values = [likelihood_ratio(DEFAULT_MODEL, x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_extreme_scores_stay_finite(self):
        assert likelihood_ratio(DEFAULT_MODEL, 1e9) < math.inf
        assert likelihood_ratio(DEFAULT_MODEL, -1e9) > 0.0


class TestClassifierRates:
    def test_minimax_threshold_rates(self):
        rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(1.0))
        np.testing.assert_allclose(rates.tpr, PHI_ONE, rtol=1e-15)
        np.testing.assert_allclose(rates.fpr, 1.0 - PHI_ONE, rtol=1e-14)

    def test_everything_positive_at_low_threshold(self):
        rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(-60.0))
        assert rates.tpr == 1.0
        assert rates.fpr == 1.0

    def test_half_recall_at_positive_mean(self):
        rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(DEFAULT_MODEL.nu))
        np.testing.assert_allclose(rates.tpr, 0.5, atol=1e-15)

    def test_rates_decrease_in_threshold(self):
        thresholds = np.linspace(-4.0, 6.0, 101)
        pairs = [classifier_rates(DEFAULT_MODEL, ThresholdClassifier(t)) for t in thresholds]
        tprs = [r.tpr for r in pairs]
        fprs = [r.fpr for r in pairs]
        assert all(b < a for a, b in zip(tprs, tprs[1:]))
        assert all(b < a for a, b in zip(fprs, fprs[1:]))

    def test_tpr_exceeds_fpr(self):
        for t in np.linspace(-6.0, 8.0, 57):
            rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(t))
            assert rates.tpr > rates.fpr

    def test_prevalence_identity(self):
        """p tpr + (1-p) fpr equals the mass above the cut-point."""
        m = DEFAULT_MODEL
        for t in np.linspace(-4.0, 6.0, 41):
            rates = classifier_rates(m, ThresholdClassifier(t))
            mass = m.p * rates.tpr + (1.0 - m.p) * rates.fpr
            assert abs(mass - (1.0 - mixture_cdf(m, t))) <= 1e-12

    def test_fnr_complements_tpr(self):
        rates = Rates(tpr=0.7, fpr=0.1)
        assert rates.fnr == 1.0 - 0.7


class TestValidation:
    def test_model_rejects_reversed_means(self):
        with pytest.raises(ValueError):
            BinormalModel(mu=2.0, nu=0.0, sigma=1.0, p=0.25)

    def test_model_rejects_equal_means(self):
        with pytest.raises(ValueError):
            BinormalModel(mu=1.0, nu=1.0, sigma=1.0, p=0.25)

    def test_model_rejects_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                BinormalModel(mu=0.0, nu=2.0, sigma=sigma, p=0.25)

    def test_model_rejects_degenerate_prior(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=p)

    def test_model_prior_is_a_normal_float(self):
        """A subnormal prior once divided by zero in the posterior cut or failed in its log."""
        smallest = sys.float_info.min
        for p in (5e-324, 1e-312, smallest * (1.0 - 2.0 ** -52)):
            fault = f"^positive prior must be a normal float, got {p!r}$"
            with pytest.raises(ValueError, match=fault):
                BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=p)
        assert BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=smallest).p == smallest

    @pytest.mark.parametrize("fields, changed", [
        (("mu", "nu"), {"mu": math.nan}),
        (("mu", "nu"), {"nu": math.inf}),
        (("mu", "nu"), {"mu": 2.0}),
        (("sigma",), {"sigma": 0.0}),
        (("p",), {"p": 1.0}),
        (("p",), {"p": 5e-324}),
        (("mu", "nu", "sigma"), {"nu": 1e-300, "sigma": 1e300}),
        (("mu", "nu", "sigma"), {"nu": 1e-310}),
        (("mu", "nu", "sigma"), {"nu": 1e300, "sigma": 1e-300}),
        (("mu", "nu", "sigma"), {"mu": -1e308, "nu": 1e308}),
    ], ids=repr)
    def test_model_errors_name_their_fields(self, fields, changed):
        with pytest.raises(ModelFieldError) as exc:
            BinormalModel(**{"mu": 0.0, "nu": 2.0, "sigma": 1.0, "p": 0.25, **changed})
        assert exc.value.fields == fields

    def test_separation_is_a_finite_normal_float(self):
        """A separation d that underflowed to 0 once divided by zero in the Bayes cut, and
        an infinite one gave that cut an infinite threshold."""
        smallest = sys.float_info.min
        assert BinormalModel(mu=0.0, nu=smallest, sigma=1.0, p=0.25).d == smallest
        assert BinormalModel(mu=0.0, nu=1e300, sigma=1e-8, p=0.25).d == 1e308
        for nu, sigma, d in ((math.nextafter(smallest, 0.0), 1.0, "2.225073858507201e-308"),
                             (1e300, 1e-9, "inf")):
            with pytest.raises(ModelFieldError) as exc:
                BinormalModel(mu=0.0, nu=nu, sigma=sigma, p=0.25)
            assert str(exc.value) == (f"separation (nu - mu) / sigma must be a finite normal "
                                      f"float, got {d} from mu=0.0, nu={nu!r}, sigma={sigma!r}")

    def test_classifier_rejects_nonfinite_threshold(self):
        for t in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                ThresholdClassifier(t)

    def test_rates_reject_out_of_range(self):
        with pytest.raises(ValueError):
            Rates(tpr=1.2, fpr=0.0)
        with pytest.raises(ValueError):
            Rates(tpr=0.5, fpr=-0.1)

    def test_predicts_positive_is_strict(self):
        clf = ThresholdClassifier(1.0)
        assert not clf.predicts_positive(1.0)
        assert clf.predicts_positive(1.0 + 1e-12)
