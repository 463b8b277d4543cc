"""Optimal cut-point construction and count-adjustment inversion checks.

The frozen thresholds, masses and objective values below were computed
independently (30-digit arithmetic for the closed forms, a separate
high-resolution scan for the optimizer targets) before being written into
this file.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binquant.binormal import (
    BinormalModel,
    Rates,
    ThresholdClassifier,
    classifier_rates,
    mixture_cdf,
    posterior,
)
from binquant.metrics import CostParams, NasVariant, QConfig, prediction_error, shifted_prevalence
from binquant.quantifiers import (
    DegenerateClassifierError,
    DegenerateCostError,
    _q_measures_of_mass,
    adjusted_count,
    bayes_classifier,
    f_measure_of_mass,
    f_optimal_classifier,
    locally_best_classifier,
    minimax_classifier,
    q_measure_of_mass,
    q_optimal_classifier,
    threshold_for_positive_mass,
)

DEFAULT_MODEL = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)

# With nas and beta = 0.5, Q on this model rises all the way to u = 1.
END_MODEL = BinormalModel(mu=0.0, nu=0.335, sigma=1.0, p=0.856)

# Calibrated cut-point of the default model (predicted-positive mass 0.25)
# and its exact rates.
T_LOCALLY_BEST = 1.3595731419891028
TPR_LOCALLY_BEST = 0.7390524367828794
FPR_LOCALLY_BEST = 0.08698252107237354

# Balanced error level at the midpoint cut, 1 - Phi(1).
BALANCED_ERR = 0.15865525393145707

# Q-measure optima of the default model (starred calibration score).
Q_STAR_BETA2 = 0.9340410190823871
Q_STAR_BETA1 = 0.8676735839141421
U_STAR_BETA1 = 0.315105917126133

# F-measure optimum at beta = 1.
U_F_BETA1 = 0.2655598854411315
F_STAR_BETA1 = 0.74016395662914

# Worked adjustment: mass 0.25 observed under the midpoint cut's rates.
AC_FROM_MINIMAX_RATES = 0.13380130662711398


class TestBayesClassifier:
    def test_equal_costs_threshold(self):
        """Posterior cutoff 1/2 lands at (2 + ln 3) / 2 under the defaults."""
        clf = bayes_classifier(DEFAULT_MODEL, CostParams(1.0, 1.0)).classifier
        np.testing.assert_allclose(clf.threshold, (2.0 + math.log(3.0)) / 2.0, atol=1e-12)

    def test_threshold_hits_requested_posterior(self):
        for fn, fp in ((1.0, 1.0), (3.0, 1.0), (0.5, 2.0)):
            cost = CostParams(fn, fp)
            clf = bayes_classifier(DEFAULT_MODEL, cost).classifier
            back = posterior(DEFAULT_MODEL, clf.threshold)
            np.testing.assert_allclose(back, cost.posterior_cutoff, atol=1e-12)

    def test_free_false_alarms_degenerate(self):
        with pytest.raises(DegenerateCostError) as exc:
            bayes_classifier(DEFAULT_MODEL, CostParams(fn_cost=1.0, fp_cost=0.0))
        assert exc.value.outcome == "all_positive"

    def test_free_misses_degenerate(self):
        with pytest.raises(DegenerateCostError) as exc:
            bayes_classifier(DEFAULT_MODEL, CostParams(fn_cost=0.0, fp_cost=1.0))
        assert exc.value.outcome == "all_negative"

    def test_cheaper_misses_push_threshold_up(self):
        low = bayes_classifier(DEFAULT_MODEL, CostParams(fn_cost=4.0, fp_cost=1.0))
        high = bayes_classifier(DEFAULT_MODEL, CostParams(fn_cost=1.0, fp_cost=4.0))
        assert low.classifier.threshold < high.classifier.threshold


class TestThresholdForPositiveMass:
    def test_round_trip(self):
        for u in (0.01, 0.25, 0.5, 0.9):
            clf = threshold_for_positive_mass(DEFAULT_MODEL, u)
            mass = 1.0 - mixture_cdf(DEFAULT_MODEL, clf.threshold)
            np.testing.assert_allclose(mass, u, atol=1e-10)

    def test_rejects_boundary_mass(self):
        for u in (0.0, 1.0):
            with pytest.raises(ValueError):
                threshold_for_positive_mass(DEFAULT_MODEL, u)


class TestMinimaxClassifier:
    def test_midpoint_threshold(self):
        result = minimax_classifier(DEFAULT_MODEL)
        np.testing.assert_allclose(result.classifier.threshold, 1.0, atol=1e-12)
        np.testing.assert_allclose(result.objective_value, BALANCED_ERR, rtol=1e-14)

    def test_rates_balance_for_random_models(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            mu = rng.uniform(-3.0, 3.0)
            model = BinormalModel(
                mu=mu,
                nu=mu + rng.uniform(0.5, 4.0),
                sigma=rng.uniform(0.5, 2.0),
                p=rng.uniform(0.05, 0.95),
            )
            result = minimax_classifier(model)
            assert abs(result.classifier.threshold - (model.mu + model.nu) / 2.0) <= 1e-10
            assert abs(result.rates.fpr - result.rates.fnr) <= 1e-10

    def test_no_threshold_does_better(self):
        """The balanced level is a lower envelope over a threshold sweep."""
        result = minimax_classifier(DEFAULT_MODEL)
        for t in np.linspace(-2.0, 4.0, 301):
            rates = classifier_rates(DEFAULT_MODEL, ThresholdClassifier(t))
            assert max(rates.fpr, rates.fnr) >= result.objective_value - 1e-12


class TestLocallyBestClassifier:
    def test_frozen_threshold_and_rates(self):
        result = locally_best_classifier(DEFAULT_MODEL)
        np.testing.assert_allclose(result.classifier.threshold, T_LOCALLY_BEST, atol=1e-8)
        np.testing.assert_allclose(result.rates.tpr, TPR_LOCALLY_BEST, atol=1e-9)
        np.testing.assert_allclose(result.rates.fpr, FPR_LOCALLY_BEST, atol=1e-9)

    def test_calibration(self):
        """Predicted-positive mass matches the prior; counting is then exact."""
        rng = np.random.default_rng(23)
        for _ in range(50):
            mu = rng.uniform(-3.0, 3.0)
            model = BinormalModel(
                mu=mu,
                nu=mu + rng.uniform(0.5, 4.0),
                sigma=rng.uniform(0.5, 2.0),
                p=rng.uniform(0.05, 0.95),
            )
            result = locally_best_classifier(model)
            assert abs(result.u_star - model.p) <= 1e-9
            assert prediction_error(result.rates, model.p) <= 1e-9


class TestQMeasureOfMass:
    def test_boundary_values_are_zero(self):
        assert q_measure_of_mass(DEFAULT_MODEL, 0.0, 1.0) == 0.0
        assert q_measure_of_mass(DEFAULT_MODEL, 1.0, 1.0) == 0.0

    def test_frozen_interior_values(self):
        np.testing.assert_allclose(
            q_measure_of_mass(DEFAULT_MODEL, 0.25, 2.0), Q_STAR_BETA2, rtol=1e-12
        )
        np.testing.assert_allclose(
            q_measure_of_mass(DEFAULT_MODEL, 0.25, 1.0), 0.8499484215094424, rtol=1e-12
        )
        np.testing.assert_allclose(
            q_measure_of_mass(DEFAULT_MODEL, 0.5, 1.0), 0.782514584148568, rtol=1e-12
        )

    def test_calibrated_mass_reduces_to_recall_mean(self):
        """At u = p the calibration score is 1, so Q is a mean with recall."""
        result = locally_best_classifier(DEFAULT_MODEL)
        tpr = result.rates.tpr
        for beta in (0.5, 1.0, 2.0):
            b2 = beta * beta
            expected = (1.0 + b2) * tpr / (b2 * tpr + 1.0)
            np.testing.assert_allclose(
                q_measure_of_mass(DEFAULT_MODEL, 0.25, beta), expected, atol=1e-9
            )

    def test_variant_changes_under_prediction_only(self):
        plain = q_measure_of_mass(DEFAULT_MODEL, 0.1, 1.0, NasVariant.NAS)
        starred = q_measure_of_mass(DEFAULT_MODEL, 0.1, 1.0, NasVariant.NAS_STAR)
        assert starred < plain
        np.testing.assert_allclose(
            q_measure_of_mass(DEFAULT_MODEL, 0.5, 1.0, NasVariant.NAS),
            q_measure_of_mass(DEFAULT_MODEL, 0.5, 1.0, NasVariant.NAS_STAR),
            rtol=1e-14,
        )

    def test_rejects_out_of_range_mass(self):
        with pytest.raises(ValueError):
            q_measure_of_mass(DEFAULT_MODEL, 1.5, 1.0)

    def test_all_positive_limit_of_plain_variant(self):
        """With nas and p > 1/2, Q tends to (1 + b2) n / (b2 + n), n = (2p - 1) / p, as u -> 1."""
        b2 = 0.25
        n = (2.0 * END_MODEL.p - 1.0) / END_MODEL.p
        at_full = q_measure_of_mass(END_MODEL, 1.0, 0.5, NasVariant.NAS)
        assert at_full == pytest.approx((1.0 + b2) * n / (b2 + n), rel=1e-15)
        near_full = q_measure_of_mass(END_MODEL, 1.0 - 1e-12, 0.5, NasVariant.NAS)
        assert abs(at_full - near_full) <= 1e-10
        assert q_measure_of_mass(END_MODEL, 1.0, 0.5, NasVariant.NAS_STAR) == 0.0


class TestSharedGridSolve:
    """``figure-qcurve`` solves the mass-u cut-points once for all betas; each
    column must equal a ``q_measure_of_mass`` call of its own, bit for bit."""

    BETAS = (0.5, 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("model, nas_variant", [
        (DEFAULT_MODEL, NasVariant.NAS_STAR),
        (BinormalModel(mu=0.0, nu=2e-9, sigma=1e-9, p=0.25), NasVariant.NAS_STAR),
        (END_MODEL, NasVariant.NAS),  # p > 1/2: Q is not 0 at u = 1
    ])
    def test_columns_equal_separate_calls(self, model, nas_variant):
        u = np.sort(np.append(np.linspace(0.0, 1.0, 101), model.p))
        assert u[0] == 0.0 and model.p in u and u[-1] == 1.0
        columns = _q_measures_of_mass(model, u, self.BETAS, nas_variant)
        assert len(columns) == len(self.BETAS)
        for beta, column in zip(self.BETAS, columns):
            alone = q_measure_of_mass(model, u, beta, nas_variant)
            assert column.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
        for point in (0.0, -0.0, model.p, 1.0):
            values = _q_measures_of_mass(model, point, self.BETAS, nas_variant)
            assert values == [q_measure_of_mass(model, point, beta, nas_variant)
                              for beta in self.BETAS]
            assert all(type(value) is float for value in values)
            assert all(math.copysign(1.0, value) == 1.0 for value in values)  # no -0.0

    def test_invalid_beta_is_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            _q_measures_of_mass(DEFAULT_MODEL, 0.5, (1.0, math.inf), NasVariant.NAS_STAR)


class TestAnchorsPerModel:
    """Each model solves its mass-p cut-point (the locally best cut and the kink of the
    Q search) and the far end of the Q search at most once and keeps them on itself;
    no solve is shared between models, equal ones included."""

    MODELS = {
        "default": (0.0, 2.0, 1.0, 0.25),
        "q-rises-to-the-end": (0.0, 0.335, 1.0, 0.856),
        "tiny-sigma-far-offset": (1e6, 1e6 + 2e-9, 1e-9, 0.3),
        "prior-past-the-mass-edge": (0.0, 1.0, 1.0, 1.0 - 1e-10),
    }

    @staticmethod
    def _rules(model: BinormalModel) -> list:
        """The bits of every rule built on the anchors."""
        rules = [locally_best_classifier(model),
                 *(q_optimal_classifier(model, QConfig(beta, nas_variant))
                   for beta in (0.5, 1.0, 2.0) for nas_variant in NasVariant)]
        return [tuple(float(v).hex() for v in (r.classifier.threshold, r.u_star,
                                               r.objective_value, r.rates.tpr, r.rates.fpr))
                for r in rules]

    @pytest.mark.parametrize("name", MODELS)
    def test_equal_models_give_identical_rules(self, name):
        model = BinormalModel(*self.MODELS[name])
        first = self._rules(model)
        assert self._rules(model) == first  # from the kept anchors
        assert self._rules(BinormalModel(*self.MODELS[name])) == first
        p = model.p
        assert first[0][0] == threshold_for_positive_mass(model, p).threshold.hex()

    @pytest.mark.parametrize("name", MODELS)
    def test_pickled_model_gives_the_same_rules(self, name):
        model = BinormalModel(*self.MODELS[name])
        before = pickle.loads(pickle.dumps(model))
        rules = self._rules(model)
        after = pickle.loads(pickle.dumps(model))
        assert before == model == after and hash(before) == hash(model) == hash(after)
        assert self._rules(before) == rules == self._rules(after)

    def test_each_model_solves_its_anchors_once(self, mass_solves):
        model = BinormalModel(*self.MODELS["default"])
        self._rules(model)
        assert mass_solves == [1, 1]
        self._rules(model)
        assert mass_solves == [1, 1]
        self._rules(BinormalModel(*self.MODELS["default"]))
        assert mass_solves == [1, 1, 1, 1]

    def test_the_far_end_is_solved_only_when_the_search_needs_it(self, mass_solves):
        """At beta = 2 the default model's Q already falls at the kink."""
        q_optimal_classifier(BinormalModel(*self.MODELS["default"]), QConfig(beta=2.0))
        assert mass_solves == [1]


class TestQOptimalClassifier:
    def test_beta2_maximum_at_the_prior(self):
        result = q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=2.0))
        assert abs(result.u_star - 0.25) <= 1e-4
        np.testing.assert_allclose(result.objective_value, Q_STAR_BETA2, rtol=1e-10)

    def test_beta1_maximum_above_the_prior(self):
        result = q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=1.0))
        assert result.u_star > 0.25 + 1e-4
        np.testing.assert_allclose(result.u_star, U_STAR_BETA1, atol=1e-6)
        np.testing.assert_allclose(result.objective_value, Q_STAR_BETA1, rtol=1e-10)

    def test_dominates_full_mass_grid(self):
        """No mass anywhere in (0, 1), including below p, does better."""
        for beta in (1.0, 2.0):
            result = q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=beta))
            grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
            values = q_measure_of_mass(DEFAULT_MODEL, grid, beta)
            assert float(np.max(values)) <= result.objective_value + 1e-9

    def test_plain_variant_also_maximized(self):
        config = QConfig(beta=1.0, nas_variant=NasVariant.NAS)
        result = q_optimal_classifier(DEFAULT_MODEL, config)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 5_000)
        values = q_measure_of_mass(DEFAULT_MODEL, grid, 1.0, NasVariant.NAS)
        assert float(np.max(values)) <= result.objective_value + 1e-9

    def test_rising_to_the_end_returns_the_end_cut(self):
        """Where Q still rises at u = 1 - 1e-9, the search returns that end cut."""
        result = q_optimal_classifier(END_MODEL, QConfig(beta=0.5, nas_variant=NasVariant.NAS))
        end = threshold_for_positive_mass(END_MODEL, 1.0 - 1e-9)
        assert result.classifier.threshold == end.threshold
        assert result.u_star == pytest.approx(1.0 - 1e-9, abs=1e-15)
        grid = np.linspace(END_MODEL.p, 1.0 - 1e-9, 2_001)
        values = q_measure_of_mass(END_MODEL, grid, 0.5, NasVariant.NAS)
        assert float(np.max(values)) <= result.objective_value

    def test_extreme_prior_still_converges(self):
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.999999999)
        result = q_optimal_classifier(model, QConfig(beta=1.0))
        assert 0.0 < result.u_star < 1.0
        assert 0.0 <= result.objective_value <= 1.0

    def test_tiny_beta_square_times_tiny_prior(self):
        """beta^2 p = 1e-500 underflows to 0, whose log once raised a math domain
        error; Q rises all the way, so the end cut is returned."""
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=1e-300)
        result = q_optimal_classifier(model, QConfig(beta=1e-100))
        assert result.classifier == threshold_for_positive_mass(model, 1.0 - 1e-9)
        assert 0.0 < result.objective_value <= 1.0

    def test_prior_next_to_one_ends_at_the_kink(self):
        """At p = 1 - 2^-53 the far mass (p + 1) / 2 rounds to 1, whose cut once took
        log(0); no mass lies between p and 1, so the kink is the far end too."""
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=1.0 - 2.0 ** -53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = q_optimal_classifier(model, QConfig(beta=1e-15))
        assert result.classifier == locally_best_classifier(model).classifier
        assert 0.0 < result.objective_value <= 1.0


class TestFOptimalClassifier:
    def test_frozen_beta1_optimum(self):
        result = f_optimal_classifier(DEFAULT_MODEL, 1.0)
        np.testing.assert_allclose(result.u_star, U_F_BETA1, atol=1e-6)
        np.testing.assert_allclose(result.objective_value, F_STAR_BETA1, rtol=1e-10)

    def test_calibrated_mass_value_is_recall(self):
        """F at u = p collapses to tpr: 2 p tpr / (p + p)."""
        result = locally_best_classifier(DEFAULT_MODEL)
        np.testing.assert_allclose(
            f_measure_of_mass(DEFAULT_MODEL, 0.25, 1.0), result.rates.tpr, atol=1e-9
        )

    def test_all_positive_limit(self):
        np.testing.assert_allclose(
            f_measure_of_mass(DEFAULT_MODEL, 1.0, 1.0), 2.0 * 0.25 / 1.25, rtol=1e-15
        )
        assert f_measure_of_mass(DEFAULT_MODEL, 0.0, 1.0) == 0.0
        assert math.copysign(1.0, f_measure_of_mass(DEFAULT_MODEL, -0.0, 1.0)) == 1.0

    def test_dominates_other_constructions(self):
        best = f_optimal_classifier(DEFAULT_MODEL, 1.0)
        rivals = (
            minimax_classifier(DEFAULT_MODEL),
            locally_best_classifier(DEFAULT_MODEL),
            q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=1.0)),
        )
        for rival in rivals:
            rival_f = f_measure_of_mass(DEFAULT_MODEL, rival.u_star, 1.0)
            assert best.objective_value >= rival_f - 1e-9

    def test_dominates_mass_grid(self):
        for beta in (0.5, 2.0):
            result = f_optimal_classifier(DEFAULT_MODEL, beta)
            grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
            values = f_measure_of_mass(DEFAULT_MODEL, grid, beta)
            assert float(np.max(values)) <= result.objective_value + 1e-9

    @pytest.mark.parametrize("beta", [1e-9, 1e-20])
    def test_stops_before_a_posterior_cut_of_one(self, beta):
        """F rounds to 1 here, so the next posterior cut F / (1 + beta^2) rounds to
        1, which has no finite cut-point and once raised ZeroDivisionError."""
        model = BinormalModel(mu=0.0, nu=12.0, sigma=1.0, p=0.9)
        result = f_optimal_classifier(model, beta)
        assert math.isfinite(result.classifier.threshold)
        assert posterior(model, result.classifier.threshold) < 1.0
        assert result.objective_value == f_measure_of_mass(model, result.u_star, beta) == 1.0

    def test_stops_before_a_cut_flagging_no_mass(self):
        """F keeps rising toward the precision limit 1, but the mass of the cut
        underflows to 0 first; the cut there once gave F = 0 / 0 = nan."""
        model = BinormalModel(mu=0.0, nu=0.003869, sigma=1.0, p=2.36e-33)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = f_optimal_classifier(model, 4.67e-149)
        assert result.u_star > 0.0
        assert 0.0 < result.objective_value < 1.0


class TestClassifyAndCount:
    """``shifted_prevalence`` as the Classify & Count mass of a fixed classifier."""

    def test_interpolates_rates(self):
        rates = Rates(tpr=0.8, fpr=0.2)
        assert shifted_prevalence(rates, 0.0) == 0.2
        assert shifted_prevalence(rates, 1.0) == 0.8
        np.testing.assert_allclose(shifted_prevalence(rates, 0.5), 0.5, atol=1e-15)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            shifted_prevalence(Rates(tpr=0.8, fpr=0.2), -0.5)


class TestAdjustedCount:
    def test_symmetric_rates_midpoint(self):
        estimate = adjusted_count(0.5, Rates(tpr=0.8, fpr=0.2))
        np.testing.assert_allclose(estimate.ac, 0.5, atol=1e-15)
        assert estimate.cc == 0.5

    def test_frozen_worked_example(self):
        rates = Rates(tpr=1.0 - BALANCED_ERR, fpr=BALANCED_ERR)
        estimate = adjusted_count(0.25, rates)
        np.testing.assert_allclose(estimate.ac, AC_FROM_MINIMAX_RATES, rtol=1e-12)

    def test_inverts_the_count_map_randomized(self):
        """adjusted_count after shifted_prevalence recovers w, 10^4 cases."""
        rng = np.random.default_rng(314)
        failures = 0
        for _ in range(10_000):
            tpr = rng.uniform(0.0, 1.0)
            fpr = rng.uniform(0.0, 1.0)
            if abs(tpr - fpr) < 1e-6:
                continue
            w = rng.uniform(0.0, 1.0)
            rates = Rates(tpr=tpr, fpr=fpr)
            back = adjusted_count(shifted_prevalence(rates, w), rates).ac
            if abs(back - w) > 1e-12:
                failures += 1
        assert failures == 0

    def test_clamping(self):
        rates = Rates(tpr=0.8, fpr=0.2)
        low = adjusted_count(0.1, rates)
        assert low.ac < 0.0
        assert low.ac_clamped == 0.0
        high = adjusted_count(0.9, rates)
        assert high.ac > 1.0
        assert high.ac_clamped == 1.0

    def test_rejects_signal_free_rates(self):
        with pytest.raises(DegenerateClassifierError):
            adjusted_count(0.5, Rates(tpr=0.4, fpr=0.4))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            adjusted_count(1.5, Rates(tpr=0.8, fpr=0.2))


def _within_or_bracketed(value, f, t, tol=1e-12):
    """value equals f(t) within tol, or lies between f at the float neighbours of t.

    The second form accepts a tolerance finer than the threshold's own float
    spacing: no float threshold can do better.
    """
    if abs(f(t) - value) <= tol:
        return True
    lo, hi = f(np.nextafter(t, -np.inf)), f(np.nextafter(t, np.inf))
    return min(lo, hi) <= value <= max(lo, hi)


def _mass_above(model, t):
    rates = classifier_rates(model, ThresholdClassifier(t))
    return model.p * rates.tpr + (1.0 - model.p) * rates.fpr


class TestScaleAndOffset:
    """Cut-points keep their accuracy far from unit scale and zero offset."""

    def test_bayes_closed_form_at_large_offset(self):
        """mu = 1e6, sigma = 1e-3: the cut-point sits at z = d/2 + (logit q - logit p) / d."""
        model = BinormalModel(mu=1e6, nu=1e6 + 2.5e-3, sigma=1e-3, p=0.3)
        for cost in (CostParams(1.0, 1.0), CostParams(4.0, 1.0), CostParams(1.0, 3.0)):
            q = cost.posterior_cutoff
            d = model.d
            z_closed = d / 2.0 + (math.log(q / (1.0 - q)) - math.log(model.p / (1.0 - model.p))) / d
            t = bayes_classifier(model, cost).classifier.threshold
            assert _within_or_bracketed(
                model.mu + model.sigma * z_closed, lambda x: x, t, tol=1e-8 * model.sigma
            ), (t, z_closed)

    @pytest.mark.parametrize("sigma", [1e-9, 1e6])
    def test_locally_best_calibrated_at_extreme_scale(self, sigma):
        """The predicted-positive mass hits p within 1e-10 at sigma 1e-9 and 1e6."""
        model = BinormalModel(mu=0.0, nu=2.0 * sigma, sigma=sigma, p=0.25)
        result = locally_best_classifier(model)
        t = result.classifier.threshold
        assert _within_or_bracketed(model.p, lambda x: _mass_above(model, x), t, tol=1e-10)
        assert abs(result.u_star - model.p) <= 1e-10


_RULES = {
    "bayes": lambda m: bayes_classifier(m, CostParams(1.0, 1.0)),
    "minimax": minimax_classifier,
    "locally_best": locally_best_classifier,
    "q_optimal_beta=1": lambda m: q_optimal_classifier(m, QConfig(beta=1.0)),
    "q_optimal_beta=2": lambda m: q_optimal_classifier(m, QConfig(beta=2.0)),
    "f_optimal_beta=1": lambda m: f_optimal_classifier(m, 1.0),
    "f_optimal_beta=2": lambda m: f_optimal_classifier(m, 2.0),
}


class TestAffineInvariance:
    """Scores a + b * x give thresholds a + b * t with the same masses, rates and values.

    The reference is the standardized model (0, d, 1, p), taking d from the
    transformed model itself, so that the rounding of a + b * nu does not
    count against the invariance.
    """

    @pytest.mark.parametrize("a, b", [(0.0, 1e-9), (1e6, 1e-3), (-5e5, 1e6)])
    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_cut_points_map_affinely(self, a, b, rule):
        self._check(a, b, 2.0, 0.25, rule)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-1e6, 1e6), log10_b=st.floats(-9.0, 6.0), d=st.floats(0.1, 6.0),
           p=st.floats(0.01, 0.99), rule=st.sampled_from(sorted(_RULES)))
    def test_cut_points_map_affinely_random(self, a, log10_b, d, p, rule):
        self._check(a, 10.0 ** log10_b, d, p, rule)

    @staticmethod
    def _check(a, b, d, p, rule):
        model = BinormalModel(mu=a, nu=a + d * b, sigma=b, p=p)
        reference = BinormalModel(mu=0.0, nu=model.d, sigma=1.0, p=model.p)
        got, want = _RULES[rule](model), _RULES[rule](reference)
        t, t_ref = got.classifier.threshold, want.classifier.threshold
        assert abs(t - (a + b * t_ref)) <= max(1e-12 * b, 2.0 * np.spacing(abs(t)))

        def rates_at(x):
            return classifier_rates(model, ThresholdClassifier(x))

        ref_rates = classifier_rates(reference, ThresholdClassifier(t_ref))
        checks = {
            "tpr": (ref_rates.tpr, lambda x: rates_at(x).tpr),
            "fpr": (ref_rates.fpr, lambda x: rates_at(x).fpr),
            "mass": (_mass_above(reference, t_ref), lambda x: _mass_above(model, x)),
        }
        for name, (expected, f) in checks.items():
            assert _within_or_bracketed(expected, f, t), (name, expected, f(t))
        assert _within_or_bracketed(want.u_star, lambda x: _mass_above(model, x), t)
        if rule.startswith(("q_", "f_")):
            assert abs(got.objective_value - want.objective_value) <= 1e-12
