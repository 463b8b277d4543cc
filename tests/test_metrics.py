"""Checks for the scalar quality measures and the prior-shift error curve."""

import math

import numpy as np
import pytest

from binquant.binormal import BinormalModel, Rates
from binquant.discrete_oracle import DiscretePopulation, brute_force_fbeta_max, check_population
from binquant.metrics import (
    ConfusionProbs,
    CostParams,
    NasVariant,
    QConfig,
    error_bound,
    f_beta,
    misclassification_cost,
    nas,
    nas_star,
    prediction_error,
    q_beta,
    shifted_prevalence,
)
from binquant.quantifiers import adjusted_count, f_optimal_classifier, threshold_for_positive_mass

# Balanced error level of the midpoint cut under the default model,
# 1 - Phi(1); doubles as the sharp error bound for those rates.
BALANCED_ERR = 0.15865525393145707

MINIMAX_RATES = Rates(tpr=1.0 - BALANCED_ERR, fpr=BALANCED_ERR)


class TestCostParams:
    def test_posterior_cutoff(self):
        assert CostParams(fn_cost=1.0, fp_cost=1.0).posterior_cutoff == 0.5
        assert CostParams(fn_cost=3.0, fp_cost=1.0).posterior_cutoff == 0.25

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            CostParams(fn_cost=-1.0, fp_cost=1.0)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            CostParams(fn_cost=0.0, fp_cost=0.0)

    def test_one_zero_cost_allowed(self):
        assert CostParams(fn_cost=0.0, fp_cost=2.0).posterior_cutoff == 1.0
        assert CostParams(fn_cost=2.0, fp_cost=0.0).posterior_cutoff == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_costs(self, bad):
        for fn_cost, fp_cost in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="costs must be finite"):
                CostParams(fn_cost=fn_cost, fp_cost=fp_cost)


class TestBetaRule:
    """Every entry point that takes a measure weight rejects the same values
    with the same message."""

    @staticmethod
    def _messages(beta) -> set:
        model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)
        probs = ConfusionProbs(p_pos_and_pred=0.2, p_neg_and_pred=0.1, p_pos=0.25, p_pred=0.3)
        population = DiscretePopulation(atoms=((0.25, 0.25), (0.25, 0.25)))
        calls = (
            lambda: QConfig(beta=beta),
            lambda: f_beta(probs, beta),
            lambda: q_beta(0.5, 0.5, beta),
            lambda: f_optimal_classifier(model, beta),
            lambda: brute_force_fbeta_max(population, beta),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        return messages

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0])
    def test_one_message_everywhere(self, beta):
        assert self._messages(beta) == {f"beta must be finite and positive, got {beta!r}"}

    @pytest.mark.parametrize("beta, square", [(1e200, math.inf), (1e-200, 0.0),
                                              (2e-162, 5e-324), (1e-155, 1e-310)])
    def test_square_out_of_range_has_one_message_everywhere(self, beta, square):
        """beta^2 = inf made Q and F nan, beta^2 = 0 dropped the weight, and a
        subnormal beta^2 failed in the logs of the cut-point searches."""
        assert self._messages(beta) == {
            f"beta^2 must be a normal positive float, got {beta!r} ** 2 = {square!r}"}

    @pytest.mark.parametrize("beta", [1.3e154, 1.5e-154])
    def test_squares_near_the_float_range_pass(self, beta):
        QConfig(beta=beta)
        assert 0.0 < f_beta(ConfusionProbs(0.2, 0.1, 0.25, 0.3), beta) <= 1.0
        assert 0.0 < q_beta(0.5, 0.5, beta) <= 1.0


class TestMisclassificationCost:
    def test_hand_value(self):
        rates = Rates(tpr=0.8, fpr=0.1 / 0.75)
        cost = CostParams(fn_cost=2.0, fp_cost=1.0)
        # misses 0.25 * 0.2 = 0.05 at price 2, false alarms 0.75 * 0.1 / 0.75 = 0.1 at price 1
        np.testing.assert_allclose(misclassification_cost(cost, rates, 0.25), 0.2, atol=1e-15)

    def test_perfect_classifier_costs_nothing(self):
        rates = Rates(tpr=1.0, fpr=0.0)
        assert misclassification_cost(CostParams(1.0, 1.0), rates, 0.25) == 0.0

    def test_rejects_prior_outside_unit_interval(self):
        with pytest.raises(ValueError, match="p_pos must lie in"):
            misclassification_cost(CostParams(1.0, 1.0), Rates(tpr=0.5, fpr=0.5), 1.5)


class TestConfusionProbs:
    def test_rejects_cells_exceeding_marginals(self):
        with pytest.raises(ValueError):
            ConfusionProbs(p_pos_and_pred=0.5, p_neg_and_pred=0.0, p_pos=0.25, p_pred=0.5)

    def test_rejects_inconsistent_total(self):
        with pytest.raises(ValueError):
            ConfusionProbs(p_pos_and_pred=0.1, p_neg_and_pred=0.1, p_pos=0.25, p_pred=0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConfusionProbs(p_pos_and_pred=-0.2, p_neg_and_pred=0.2, p_pos=0.25, p_pred=0.0)


class TestNas:
    def test_calibrated_prediction_scores_one(self):
        assert nas(0.25, 0.25) == 1.0

    def test_symmetric_normalization(self):
        # Deviations are scaled by the larger class share, 0.75 here.
        np.testing.assert_allclose(nas(0.5, 0.25), 1.0 - 0.25 / 0.75, atol=1e-15)
        np.testing.assert_allclose(nas(0.1, 0.25), 1.0 - 0.15 / 0.75, atol=1e-15)

    def test_worst_constant_scores_zero(self):
        np.testing.assert_allclose(nas(1.0, 0.25), 0.0, atol=1e-15)

    def test_other_constant_stays_positive(self):
        # The smaller-side constant prediction keeps a positive score,
        # which is the asymmetry the starred variant removes.
        assert nas(0.0, 0.25) > 0.5

    def test_rejects_degenerate_prior(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                nas(0.5, p)


class TestNasStar:
    def test_calibrated_prediction_scores_one(self):
        assert nas_star(0.25, 0.25) == 1.0

    def test_zero_exactly_at_constant_predictions(self):
        for p in (0.1, 0.25, 0.5, 0.9):
            np.testing.assert_allclose(nas_star(0.0, p), 0.0, atol=1e-15)
            np.testing.assert_allclose(nas_star(1.0, p), 0.0, atol=1e-15)

    def test_side_dependent_normalization(self):
        # Under-prediction scaled by p, over-prediction by 1 - p.
        np.testing.assert_allclose(nas_star(0.1, 0.25), 1.0 - 0.15 / 0.25, atol=1e-15)
        np.testing.assert_allclose(nas_star(0.5, 0.25), 1.0 - 0.25 / 0.75, atol=1e-15)

    def test_range_and_calibration_equivalence(self):
        """Randomized: values lie in [0,1]; the score is 1 iff calibrated."""
        rng = np.random.default_rng(42)
        p_pred = rng.uniform(0.0, 1.0, size=10_000)
        p_pos = rng.uniform(0.01, 0.99, size=10_000)
        for u, p in zip(p_pred, p_pos):
            v = nas_star(u, p)
            assert 0.0 <= v <= 1.0
            if u != p:
                assert v < 1.0

    def test_agrees_with_nas_at_calibration(self):
        for p in (0.1, 0.25, 0.7):
            assert nas(p, p) == 1.0
            assert nas_star(p, p) == 1.0

    def test_vectorizes(self):
        u = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(nas_star(u, 0.25), [0.0, 1.0, 0.0], atol=1e-15)


class TestFBeta:
    def test_hand_value(self):
        probs = ConfusionProbs(p_pos_and_pred=0.2, p_neg_and_pred=0.1, p_pos=0.25, p_pred=0.3)
        # beta=1: 2 * 0.2 / (0.25 + 0.3)
        np.testing.assert_allclose(f_beta(probs, 1.0), 0.4 / 0.55, rtol=1e-15)

    def test_empty_prediction_scores_zero(self):
        probs = ConfusionProbs(p_pos_and_pred=0.0, p_neg_and_pred=0.0, p_pos=0.25, p_pred=0.0)
        assert f_beta(probs, 1.0) == 0.0

    def test_perfect_classifier_scores_one(self):
        probs = ConfusionProbs(p_pos_and_pred=0.25, p_neg_and_pred=0.0, p_pos=0.25, p_pred=0.25)
        for beta in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(f_beta(probs, beta), 1.0, rtol=1e-15)

    def test_rejects_bad_beta(self):
        probs = ConfusionProbs(p_pos_and_pred=0.2, p_neg_and_pred=0.1, p_pos=0.25, p_pred=0.3)
        for beta in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                f_beta(probs, beta)

    def test_nondecreasing_in_true_positive_mass(self):
        values = []
        for tp in np.linspace(0.0, 0.25, 26):
            probs = ConfusionProbs(
                p_pos_and_pred=tp, p_neg_and_pred=0.3 - tp, p_pos=0.25, p_pred=0.3
            )
            values.append(f_beta(probs, 2.0))
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestQBeta:
    def test_hand_value(self):
        # harmonic mean at beta=1: 2 * 0.8 * 0.9 / (0.8 + 0.9)
        np.testing.assert_allclose(q_beta(0.8, 0.9, 1.0), 1.44 / 1.7, rtol=1e-15)

    def test_zero_denominator_gives_zero(self):
        assert q_beta(0.0, 0.0, 1.0) == 0.0

    def test_vanishes_with_recall(self):
        """Q -> 0 as tpr -> 0 with any fixed positive calibration score."""
        for tpr in (1e-3, 1e-6, 1e-9, 1e-12):
            # Q <= (1 + beta^2) tpr, so it inherits the decay of tpr.
            assert 0.0 < q_beta(tpr, 0.8, 2.0) <= 5.0 * tpr

    def test_perfect_inputs_score_one(self):
        for beta in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(q_beta(1.0, 1.0, beta), 1.0, rtol=1e-15)

    def test_nondecreasing_in_each_argument(self):
        grid = np.linspace(0.0, 1.0, 21)
        for other in (0.3, 0.7, 1.0):
            along_tpr = [q_beta(t, other, 2.0) for t in grid]
            along_nas = [q_beta(other, v, 2.0) for v in grid]
            assert all(b >= a for a, b in zip(along_tpr, along_tpr[1:]))
            assert all(b >= a for a, b in zip(along_nas, along_nas[1:]))

    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            q_beta(1.2, 0.5, 1.0)
        with pytest.raises(ValueError):
            q_beta(0.5, -0.1, 1.0)
        with pytest.raises(ValueError):
            q_beta(0.5, 0.5, 0.0)


class TestQConfig:
    def test_defaults(self):
        config = QConfig()
        assert config.beta == 1.0
        assert config.nas_variant is NasVariant.NAS_STAR

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            QConfig(beta=0.0)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            QConfig(nas_variant="nas")


class TestShiftedPrevalence:
    def test_affine_endpoints(self):
        rates = Rates(tpr=0.8, fpr=0.1)
        assert shifted_prevalence(rates, 0.0) == 0.1
        assert shifted_prevalence(rates, 1.0) == 0.8

    def test_no_shift_recovers_training_mass(self):
        mass = shifted_prevalence(MINIMAX_RATES, 0.25)
        expected = 0.25 * MINIMAX_RATES.tpr + 0.75 * MINIMAX_RATES.fpr
        np.testing.assert_allclose(mass, expected, atol=1e-15)

    def test_rejects_out_of_range_prior(self):
        with pytest.raises(ValueError):
            shifted_prevalence(MINIMAX_RATES, 1.5)


class TestPredictionError:
    def test_balanced_rates_are_exact_at_half(self):
        np.testing.assert_allclose(prediction_error(MINIMAX_RATES, 0.5), 0.0, atol=1e-15)

    def test_piecewise_two_branch_equivalence(self):
        """|w - shifted| matches the explicit V formula on a fine grid."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            tpr = rng.uniform(0.0, 1.0)
            fpr = rng.uniform(0.0, tpr) if tpr > 0 else 0.0
            rates = Rates(tpr=tpr, fpr=fpr)
            slope = fpr + 1.0 - tpr
            w = np.linspace(0.0, 1.0, 201)
            branch = np.where(slope * w <= fpr, fpr - slope * w, slope * w - fpr)
            np.testing.assert_allclose(prediction_error(rates, w), branch, atol=1e-14)

    def test_zero_point_location(self):
        rates = Rates(tpr=0.7, fpr=0.2)
        w0 = rates.fpr / (rates.fpr + 1.0 - rates.tpr)
        np.testing.assert_allclose(prediction_error(rates, w0), 0.0, atol=1e-15)

    def test_perfect_classifier_never_errs(self):
        rates = Rates(tpr=1.0, fpr=0.0)
        w = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(prediction_error(rates, w), 0.0, atol=1e-15)


class TestErrorBound:
    def test_trivial_values(self):
        assert error_bound(Rates(tpr=1.0, fpr=0.0)) == 0.0
        np.testing.assert_allclose(error_bound(Rates(tpr=0.8, fpr=0.1)), 0.2, rtol=1e-15)
        np.testing.assert_allclose(error_bound(MINIMAX_RATES), BALANCED_ERR, rtol=1e-15)

    def test_bound_property_randomized(self):
        """prediction_error <= max(fpr, fnr) over 10^4 random (rates, w)."""
        rng = np.random.default_rng(2026)
        tpr = rng.uniform(0.0, 1.0, size=10_000)
        fpr = rng.uniform(0.0, 1.0, size=10_000)
        w = rng.uniform(0.0, 1.0, size=10_000)
        violations = 0
        for t, f, wi in zip(tpr, fpr, w):
            rates = Rates(tpr=t, fpr=f)
            if prediction_error(rates, wi) > error_bound(rates) + 1e-15:
                violations += 1
        assert violations == 0

    def test_bound_is_attained_at_an_endpoint(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rates = Rates(tpr=rng.uniform(0, 1), fpr=rng.uniform(0, 1))
            attained = max(prediction_error(rates, 0.0), prediction_error(rates, 1.0))
            np.testing.assert_allclose(attained, error_bound(rates), atol=1e-15)


_POPULATION = DiscretePopulation(atoms=((0.30, 0.05), (0.10, 0.15), (0.10, 0.30)))


@pytest.mark.parametrize("call, message", [
    (lambda: Rates(tpr=1.2, fpr=0.0), "tpr must lie in [0, 1], got 1.2"),
    (lambda: q_beta(0.5, -1e-300, 1.0), "nas_value must lie in [0, 1], got -1e-300"),
    (lambda: shifted_prevalence(MINIMAX_RATES, np.array([0.5, 1.5, -1.0])),
     "w must lie in [0, 1], got 1.5"),
    (lambda: nas(np.array([[0.2, 0.3], [math.nan, 2.0]]), 0.25),
     "p_pred must lie in [0, 1], got nan"),
    (lambda: adjusted_count(math.inf, MINIMAX_RATES), "flagged mass must lie in [0, 1], got inf"),
    (lambda: threshold_for_positive_mass(BinormalModel(0.0, 2.0, 1.0, 0.25), 1.0),
     "predicted-positive mass must lie in (0, 1), got 1.0"),
    (lambda: check_population(_POPULATION, cost=CostParams(1.0, 1.0), cut_levels=(0.3, math.nan)),
     "cut level must lie in [0, 1], got nan"),
    (lambda: BinormalModel(0.0, 2.0, 1.0, -0.0), "positive prior must lie in (0, 1), got -0.0"),
])
def test_probability_ranges_share_one_message(call, message):
    """Every probability-range check names its quantity and the first value out of range."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
