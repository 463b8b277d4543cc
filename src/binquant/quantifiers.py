"""Optimal cut-point classifiers and count-based prevalence estimators.

Construction side: given a two-normal score model, build the classifier
that is optimal for a chosen objective.  Each of the five constructors
returns an ``OptimizedClassifier``: the cut-point rule, its exact rates,
its predicted-positive mass and the value of its objective.

* ``bayes_classifier``: minimum expected misclassification cost; the
  optimal rule thresholds the posterior at fp_cost / (fn_cost + fp_cost).
* ``minimax_classifier``: minimum over thresholds of max(fpr, fnr); with
  equal component variances the rates balance exactly at the
  component-mean midpoint.
* ``locally_best_classifier``: the calibrated cut-point, placed so the
  predicted-positive mass equals the positive prior.
* ``q_optimal_classifier`` / ``f_optimal_classifier``: maximizers of the
  Q and F trade-off measures over the threshold family, parameterized by
  predicted-positive mass.

Estimation side: ``adjusted_count`` inverts the affine map
``metrics.shifted_prevalence`` from a shifted positive prior to the mass a
fixed classifier flags (the Classify & Count mass), recovering the prior
from an observed flagged mass.

Everything is deterministic.  The two maximizations solve stationarity
conditions in z instead of comparing objective values: the F optimum
thresholds the posterior at F* / (1 + beta^2) (the theorem of Ye et al.,
2012), found as a fixed point, and the Q optimum is the sign change of
posterior * c * nas^2 - beta^2 p tpr^2, found by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binormal import (
    BinormalModel,
    Rates,
    ThresholdClassifier,
    _ULPS,
    _cdf_in_z,
    _log_ratio_in_z,
    _score_at_posterior,
    _tpr_in_z,
    _upper_mass,
    _z_at_posterior,
    _z_at_upper_mass,
    classifier_rates,
)
from .metrics import (CostParams, NasVariant, QConfig, _check_beta, _check_unit_interval,
                      _f_formula, _q_formula, error_bound, misclassification_cost, nas,
                      nas_star, shifted_prevalence)

__all__ = [
    "DegenerateCostError",
    "DegenerateClassifierError",
    "OptimizedClassifier",
    "QuantificationEstimate",
    "bayes_classifier",
    "threshold_for_positive_mass",
    "minimax_classifier",
    "locally_best_classifier",
    "q_optimal_classifier",
    "f_optimal_classifier",
    "q_measure_of_mass",
    "f_measure_of_mass",
    "adjusted_count",
]

# Below this tpr - fpr gap the count-adjustment map is numerically
# non-invertible.
_RATE_GAP_MIN = 1e-12


class DegenerateCostError(ValueError):
    """A zero cost makes a constant classifier optimal; no finite cut-point exists.

    ``outcome`` names the optimal constant rule: "all_positive" when false
    alarms are free, "all_negative" when misses are free.
    """

    def __init__(self, outcome: str, message: str) -> None:
        super().__init__(message)
        self.outcome = outcome


class DegenerateClassifierError(ValueError):
    """The classifier's rates carry no class signal (tpr = fpr), so observed
    counts cannot be mapped back to a prevalence."""


@dataclass(frozen=True)
class OptimizedClassifier:
    """A cut-point rule together with what its construction achieved.

    ``u_star`` is the predicted-positive mass at the training prior,
    ``objective_value`` the attained value of the construction's objective
    (a cost or error level when minimizing, a measure value when
    maximizing), and ``rates`` the exact error-rate pair under the model.
    """

    classifier: ThresholdClassifier
    u_star: float
    objective_value: float
    rates: Rates


@dataclass(frozen=True)
class QuantificationEstimate:
    """Prevalence estimates from an observed flagged mass.

    ``cc`` is the raw flagged fraction, ``ac`` the count-adjusted estimate
    (cc - fpr) / (tpr - fpr), which may leave [0, 1] on finite samples, and
    ``ac_clamped`` its projection back onto [0, 1].
    """

    cc: float
    ac: float
    ac_clamped: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.cc <= 1.0):
            raise ValueError(f"cc must lie in [0, 1], got {self.cc!r}")
        if self.ac_clamped != min(max(self.ac, 0.0), 1.0):
            raise ValueError("ac_clamped must equal ac clipped to [0, 1]")


def bayes_classifier(model: BinormalModel, cost: CostParams) -> OptimizedClassifier:
    """Minimum-expected-cost cut-point.

    Predicting positive is cheaper exactly where the posterior exceeds
    fp_cost / (fn_cost + fp_cost); because the posterior is strictly
    increasing in the score, that region is a cut-point rule, solved here
    in closed form.  ``objective_value`` is the expected cost of its rates.

    Raises
    ------
    DegenerateCostError
        If one cost is zero.  The optimal rule is then a constant
        classifier (predict everything positive when false alarms are
        free, everything negative when misses are free), which no finite
        cut-point represents.
    """
    cutoff = cost.posterior_cutoff
    if cutoff <= 0.0:
        raise DegenerateCostError(
            "all_positive",
            "false alarms cost nothing; predicting all positive is optimal",
        )
    if cutoff >= 1.0:
        raise DegenerateCostError(
            "all_negative",
            "misses cost nothing; predicting all negative is optimal",
        )
    classifier = ThresholdClassifier(_score_at_posterior(model, cutoff))
    return _optimized(model, classifier, lambda rates: misclassification_cost(cost, rates, model.p))


def threshold_for_positive_mass(model: BinormalModel, u: float) -> ThresholdClassifier:
    """The cut-point whose predicted-positive mass is u, for u in (0, 1)."""
    if not (0.0 < u < 1.0):
        raise ValueError(f"predicted-positive mass must lie in (0, 1), got {u!r}")
    return ThresholdClassifier(float(model.score(_z_at_upper_mass(model, u))))


def _optimized(
    model: BinormalModel, classifier: ThresholdClassifier, objective
) -> OptimizedClassifier:
    """The rule with its exact rates; ``objective`` maps those rates to its objective value."""
    rates = classifier_rates(model, classifier)
    return OptimizedClassifier(
        classifier=classifier,
        u_star=shifted_prevalence(rates, model.p),
        objective_value=objective(rates),
        rates=rates,
    )


def minimax_classifier(model: BinormalModel) -> OptimizedClassifier:
    """Cut-point minimizing the worse of the two error rates.

    With equal component variances, fpr(t) = 1 - Phi((t - mu) / sigma) and
    fnr(t) = Phi((t - nu) / sigma) cross exactly at the midpoint
    t = (mu + nu) / 2, where both equal Phi(-(nu - mu) / (2 sigma)); one
    rate rises and the other falls in t, so the crossing is the minimax
    point.  ``objective_value`` is the balanced error level.
    """
    classifier = ThresholdClassifier((model.mu + model.nu) / 2.0)
    return _optimized(model, classifier, error_bound)


def locally_best_classifier(model: BinormalModel) -> OptimizedClassifier:
    """Calibrated cut-point: predicted-positive mass equals the positive prior.

    Among all classifiers with that property it minimizes max(fpr, fnr);
    its count-based prevalence prediction is exact when the deployment
    prior equals the training prior.  ``objective_value`` is max(fpr, fnr).
    """
    classifier = ThresholdClassifier(float(model.score(model._z_at_prior_mass)))
    return _optimized(model, classifier, error_bound)


def _nas_of(u, p: float, nas_variant: NasVariant):
    """The chosen calibration score of predicted-positive mass u against the prior p."""
    return nas_star(u, p) if nas_variant is NasVariant.NAS_STAR else nas(u, p)


def _tpr_of_mass(model: BinormalModel, u) -> tuple[np.ndarray, np.ndarray]:
    """The checked masses u, at least one-dimensional, and the recall of the mass-u
    cut-points: solved in z inside (0, 1), and exactly 0 at u = 0 and 1 at u = 1."""
    arr = np.atleast_1d(_check_unit_interval(u, "predicted-positive mass"))
    tpr = np.where(arr >= 1.0, 1.0, 0.0)
    interior = (arr > 0.0) & (arr < 1.0)
    if interior.any():
        tpr[interior] = _tpr_in_z(model.d, _z_at_upper_mass(model, arr[interior]))
    return arr, tpr


def _q_measures_of_mass(model: BinormalModel, u, betas, nas_variant: NasVariant) -> list:
    """``q_measure_of_mass`` for each of ``betas``, from one solve of the mass-u cut-points."""
    b2s = [_check_beta(beta) for beta in betas]
    arr, tpr = _tpr_of_mass(model, u)
    nas_vals = _nas_of(arr, model.p, nas_variant)
    return [out if np.ndim(u) else float(out[0])
            for out in (_q_formula(tpr, nas_vals, b2) for b2 in b2s)]


def q_measure_of_mass(model: BinormalModel, u, beta: float, nas_variant: NasVariant = NasVariant.NAS_STAR):
    """Q measure of the cut-point with predicted-positive mass u.

    Recall is Phi(d - z(u)) with z(u) the z-score of the mass-u cut-point;
    the calibration score is the chosen normalized absolute score of u
    against the prior.  At u = 0 and u = 1 it takes its limits at the
    constant classifiers: 0 at u = 0, and at u = 1 the all-positive value
    (1 + beta^2) n / (beta^2 + n) with n the calibration score of u = 1,
    which is 0 except for ``nas`` with p > 1/2, where n = (2p - 1) / p.
    Vectorizes over ``u``.
    """
    return _q_measures_of_mass(model, u, (beta,), nas_variant)[0]


def f_measure_of_mass(model: BinormalModel, u, beta: float):
    """F measure of the cut-point with predicted-positive mass u.

    The true-positive cell is p * Phi(d - z(u)), so the measure is
    (1 + beta^2) p tpr / (beta^2 p + u).  Defined as 0 at u = 0 (nothing
    predicted positive); at u = 1 it equals the all-positive classifier's
    value.  Vectorizes over ``u``.
    """
    b2 = _check_beta(beta)
    arr, tpr = _tpr_of_mass(model, u)
    out = _f_formula(model.p * tpr, model.p, arr, b2)
    return out if np.ndim(u) else float(out[0])


def q_optimal_classifier(model: BinormalModel, config: QConfig) -> OptimizedClassifier:
    """Cut-point maximizing the Q measure over predicted-positive masses.

    The search runs over u in [p, 1 - 1e-9], the masses at which the
    classifier does not under-predict the training prior; the measure
    cannot do better below p.  The all-positive rule u = 1 has no finite
    cut-point, so when Q still rises at u = 1 - 1e-9 (possible only for
    ``nas`` with p > 1/2) that end cut is returned.

    On u >= p the calibration score is nas = 1 - (u - p) / c, with
    c = 1 - p for ``nas_star`` and c = max(p, 1 - p) for ``nas``, and
    Q = (1 + beta^2) / (beta^2 / nas + 1 / tpr).  Q rises with u exactly
    where posterior * c * nas^2 > beta^2 p tpr^2, so an interior optimum
    satisfies posterior * c * nas^2 = beta^2 p tpr^2.  The sign of the log
    of that ratio is checked at the kink u = p, where Q is returned if it
    already falls, and at the far end, and otherwise bisected in z to a
    few ulp.  The cut-points of both ends are solved once per model and
    kept on it.  ``objective_value`` is the attained Q value.
    """
    b2 = _check_beta(config.beta)
    p, d = model.p, model.d
    if config.nas_variant is NasVariant.NAS_STAR:
        c, shift = 1.0 - p, 0.0
    else:
        c, shift = max(p, 1.0 - p), max(2.0 * p - 1.0, 0.0)
    log_offset = math.log(c) + math.log(b2) + math.log(p)
    logit_p = math.log(p / (1.0 - p))

    def rises(z: float) -> float:
        """log(posterior c nas^2 / (beta^2 p tpr^2)) at z; positive where Q rises with u."""
        # c nas = 1 - u + shift, where 1 - u is the mixture CDF at z, formed without cancellation.
        c_nas = float(_cdf_in_z(d, p, 1.0 - p, z)) + shift
        log_posterior = -float(np.logaddexp(0.0, -(logit_p + _log_ratio_in_z(d, z))))
        return log_posterior + 2.0 * (math.log(c_nas) - math.log(_tpr_in_z(d, z))) - log_offset

    z_kink = model._z_at_prior_mass
    if rises(z_kink) <= 0.0:
        z = z_kink
    elif rises(z_end := model._z_at_far_mass) >= 0.0:
        z = z_end
    else:
        # rises() is negative at z_end and positive at z_kink; u falls as z grows.
        lo, up = z_end, z_kink
        while up - lo > _ULPS * (1.0 + abs(lo)):
            mid = 0.5 * (lo + up)
            if rises(mid) > 0.0:
                up = mid
            else:
                lo = mid
        z = 0.5 * (lo + up)
    nas_value = _nas_of(_upper_mass(model, z), p, config.nas_variant)
    value = float(_q_formula(_tpr_in_z(d, z), nas_value, b2))
    return _optimized(model, ThresholdClassifier(float(model.score(z))), lambda _: value)


def f_optimal_classifier(model: BinormalModel, beta: float) -> OptimizedClassifier:
    """Cut-point maximizing the F measure over predicted-positive masses.

    By the theorem of Ye et al. (2012) the F-optimal rule thresholds the
    posterior at F* / (1 + beta^2).  That is solved as Dinkelbach's fixed
    point: from the all-positive value lam = (1 + beta^2) p / (beta^2 p + 1),
    cut at posterior lam / (1 + beta^2) in closed form and take the F value
    of that cut as the next lam, until F no longer increases or the next
    posterior cut rounds to 1, where no finite cut-point lies, or the mass
    of the next cut underflows to 0, where F is 0 / 0.  The cut from the
    last lam is returned, or the last cut with a positive mass, and
    ``objective_value`` is its F value.  Where F is nearly flat up to the
    all-positive rule, the mass of the returned cut can round to 1.
    """
    b2 = _check_beta(beta)
    p = model.p
    lam = _f_formula(p, p, 1.0, b2)
    while True:
        # The first posterior cut is at most p, so that cut flags at least mass p / 2.
        z_next = _z_at_posterior(model, lam / (1.0 + b2))
        mass = _upper_mass(model, z_next)
        if mass == 0.0:
            break
        z = z_next
        value = float(_f_formula(p * _tpr_in_z(model.d, z), p, mass, b2))
        if not (value > lam and value / (1.0 + b2) < 1.0):
            break
        lam = value
    return _optimized(model, ThresholdClassifier(float(model.score(z))), lambda _: value)


def adjusted_count(p1_h: float, rates: Rates) -> QuantificationEstimate:
    """Invert the flagged-mass map to estimate a shifted positive prior.

    ac = (p1_h - fpr) / (tpr - fpr), exact whenever the observed flagged
    mass really is w (tpr - fpr) + fpr for some prior w.  On finite
    samples the estimate may leave [0, 1]; ``ac_clamped`` projects it
    back.

    Raises
    ------
    DegenerateClassifierError
        If tpr and fpr agree to within 1e-12.  Such a classifier flags
        the same mass under every prior, so the map has no inverse.
    """
    if not (0.0 <= p1_h <= 1.0):
        raise ValueError(f"flagged mass must lie in [0, 1], got {p1_h!r}")
    gap = rates.tpr - rates.fpr
    if abs(gap) < _RATE_GAP_MIN:
        raise DegenerateClassifierError(
            f"tpr and fpr agree to within {_RATE_GAP_MIN:g}; "
            "flagged counts carry no prevalence signal"
        )
    ac = (p1_h - rates.fpr) / gap
    return QuantificationEstimate(cc=p1_h, ac=ac, ac_clamped=min(max(ac, 0.0), 1.0))
