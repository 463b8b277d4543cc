"""Optimal cut-point classifiers and count-based prevalence estimators.

Construction side: given a two-normal score model, build the classifier
that is optimal for a chosen objective.

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

Estimation side: ``classify_and_count`` maps a shifted positive prior to
the mass a fixed classifier will flag, and ``adjusted_count`` inverts
that affine map to recover the prior from an observed flagged mass.

Everything is deterministic; the scalar maximizations use a fixed-width
grid scan over the predicted-positive mass, inverted to z-scores once,
followed by golden-section refinement in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binormal import (
    BinormalModel,
    Rates,
    ThresholdClassifier,
    _score_at_posterior,
    _upper_mass,
    _z_at_upper_mass,
    classifier_rates,
    std_normal_cdf,
)
from .metrics import (CostParams, NasVariant, QConfig, _check_beta, _check_unit_interval,
                      _f_formula, _q_formula, error_bound, nas, nas_star, shifted_prevalence)

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
    "classify_and_count",
    "adjusted_count",
]

# Scalar maximization scheme: grid scan at this resolution to locate the
# basin, then golden-section refinement until the bracket spans at most the
# predicted-positive mass below.
_SCAN_POINTS = 512
_REFINE_WIDTH = 1e-8
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Open-interval guard for predicted-positive masses: thresholds exist only
# for masses strictly inside (0, 1).
_MASS_EDGE = 1e-9

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


def bayes_classifier(model: BinormalModel, cost: CostParams) -> ThresholdClassifier:
    """Minimum-expected-cost cut-point.

    Predicting positive is cheaper exactly where the posterior exceeds
    fp_cost / (fn_cost + fp_cost); because the posterior is strictly
    increasing in the score, that region is a cut-point rule, solved here
    in closed form.

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
    return ThresholdClassifier(_score_at_posterior(model, cutoff))


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
    classifier = threshold_for_positive_mass(model, model.p)
    return _optimized(model, classifier, error_bound)


def _q_value(model: BinormalModel, tpr, u, b2: float, nas_variant: NasVariant):
    """Q measure from recall and predicted-positive mass; 0 where both terms vanish."""
    nas_vals = nas_star(u, model.p) if nas_variant is NasVariant.NAS_STAR else nas(u, model.p)
    return _q_formula(tpr, nas_vals, b2)


def _measure_of_mass(model: BinormalModel, u, value, at_full: float):
    """Evaluate ``value(tpr, u)`` at the mass-u cut-points; 0 at u = 0, ``at_full`` at u = 1."""
    scalar = np.ndim(u) == 0
    arr = np.atleast_1d(_check_unit_interval(u, "predicted-positive mass"))

    out = np.zeros(arr.shape)
    interior = (arr > 0.0) & (arr < 1.0)
    if np.any(interior):
        ui = arr[interior]
        tpr = std_normal_cdf(model.d - _z_at_upper_mass(model, ui))
        out[interior] = value(tpr, ui)
    out[arr >= 1.0] = at_full
    return float(out[0]) if scalar else out


def q_measure_of_mass(model: BinormalModel, u, beta: float, nas_variant: NasVariant = NasVariant.NAS_STAR):
    """Q measure of the cut-point with predicted-positive mass u.

    Recall is Phi(d - z(u)) with z(u) the z-score of the mass-u cut-point;
    the calibration score is the chosen normalized absolute score of u
    against the prior.  Defined as 0 at u = 0 and u = 1, the limits of the
    measure at the constant classifiers.  Vectorizes over ``u``.
    """
    b2 = _check_beta(beta)
    return _measure_of_mass(
        model, u, lambda tpr, ui: _q_value(model, tpr, ui, b2, nas_variant), 0.0
    )


def f_measure_of_mass(model: BinormalModel, u, beta: float):
    """F measure of the cut-point with predicted-positive mass u.

    The true-positive cell is p * Phi(d - z(u)), so the measure is
    (1 + beta^2) p tpr / (beta^2 p + u).  Defined as 0 at u = 0 (nothing
    predicted positive); at u = 1 it equals the all-positive classifier's
    value.  Vectorizes over ``u``.
    """
    b2 = _check_beta(beta)
    return _measure_of_mass(
        model, u, lambda tpr, ui: _f_formula(model.p * tpr, model.p, ui, b2),
        _f_formula(model.p, model.p, 1.0, b2),
    )


def _golden_max(f, lo: float, hi: float, width) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] until ``width(a, b)`` <= 1e-8.

    On ties the left subinterval is kept, so among equal maxima the
    smallest abscissa wins.
    """
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while width(a, b) > _REFINE_WIDTH:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _maximize_over_mass(
    model: BinormalModel, value, lo: float, hi: float, extra_masses: tuple[float, ...] = ()
) -> tuple[ThresholdClassifier, float]:
    """Maximize ``value(tpr, u)`` over cut-points with mass u in [lo, hi].

    A grid scan over u, inverted to z-scores once, locates the basin.
    Golden-section refinement inside the bracketing cell then runs over
    s = -z, which increases with the mass, and evaluates masses and
    recalls in closed form; it stops once the bracket spans at most 1e-8
    of mass.  The listed extra masses are compared explicitly.
    Deterministic; among equal values the smallest mass wins.
    """
    d = model.d

    def objective(z):
        return value(std_normal_cdf(d - z), _upper_mass(model, z))

    grid_z = _z_at_upper_mass(model, np.linspace(lo, hi, _SCAN_POINTS))
    values = objective(grid_z)
    i = int(np.argmax(values))
    refined_s, refined_value = _golden_max(
        lambda s: float(objective(-s)),
        -float(grid_z[max(i - 1, 0)]),
        -float(grid_z[min(i + 1, len(grid_z) - 1)]),
        lambda a, b: float(_upper_mass(model, -b) - _upper_mass(model, -a)),
    )
    candidates = [(float(grid_z[i]), float(values[i])), (-refined_s, refined_value)]
    for mass in extra_masses:
        z = float(_z_at_upper_mass(model, mass))
        candidates.append((z, float(objective(z))))
    # The largest z flags the smallest mass.
    best_z, best_value = min(candidates, key=lambda pair: (-pair[1], -pair[0]))
    return ThresholdClassifier(float(model.score(best_z))), best_value


def q_optimal_classifier(model: BinormalModel, config: QConfig) -> OptimizedClassifier:
    """Cut-point maximizing the Q measure over predicted-positive masses.

    The search runs over u in [p, 1), the masses at which the classifier
    does not under-predict the training prior; the measure cannot do
    better below p.  The calibration term is kinked at u = p, so that
    point is always evaluated explicitly alongside the smooth interior
    optimum.  ``objective_value`` is the attained Q value.
    """
    b2 = _check_beta(config.beta)
    hi = 1.0 - _MASS_EDGE
    if hi <= model.p:
        hi = 0.5 * (model.p + 1.0)
    classifier, best_value = _maximize_over_mass(
        model,
        lambda tpr, u: _q_value(model, tpr, u, b2, config.nas_variant),
        model.p,
        hi,
        extra_masses=(model.p,),
    )
    return _optimized(model, classifier, lambda _: best_value)


def f_optimal_classifier(model: BinormalModel, beta: float) -> OptimizedClassifier:
    """Cut-point maximizing the F measure over predicted-positive masses.

    Over the threshold family the measure is a smooth function of the
    predicted-positive mass; the same grid-then-golden-section scheme
    locates its maximum over (0, 1).  ``objective_value`` is the attained
    F value.
    """
    b2 = _check_beta(beta)
    classifier, best_value = _maximize_over_mass(
        model, lambda tpr, u: _f_formula(model.p * tpr, model.p, u, b2),
        _MASS_EDGE, 1.0 - _MASS_EDGE,
    )
    return _optimized(model, classifier, lambda _: best_value)


def classify_and_count(rates: Rates, w_true: float) -> float:
    """Mass a fixed classifier flags positive when the positive prior is w_true.

    Simply ``shifted_prevalence``; the raw flagged fraction used as a
    prevalence estimate, before any adjustment.
    """
    return shifted_prevalence(rates, w_true)


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
