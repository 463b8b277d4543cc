"""Scalar quality measures for classifiers and prevalence estimators.

Population-level measures only: every quantity here is a function of event
probabilities (confusion cells, predicted-positive mass, class prior), not
of finite samples.  The measures fall into three groups:

* cost: expected misclassification cost with separate false-negative and
  false-positive prices,
* calibration: normalized absolute score in its symmetric (``nas``) and
  prior-weighted (``nas_star``) forms, and the F / Q trade-off measures
  built from them,
* prior shift: the predicted-positive mass under a shifted positive
  prior, the resulting count-based prediction error, and its sharp bound.

``nas``, ``nas_star``, ``shifted_prevalence`` and ``prediction_error``
accept floats or ndarrays in their first argument and vectorize
elementwise; the rest are scalar.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .binormal import Rates, _check_prior, _check_probability

__all__ = [
    "CostParams",
    "NasVariant",
    "QConfig",
    "ConfusionProbs",
    "misclassification_cost",
    "nas",
    "nas_star",
    "f_beta",
    "q_beta",
    "shifted_prevalence",
    "prediction_error",
    "error_bound",
]

_PROB_TOL = 1e-9


def _check_beta(beta: float) -> float:
    """beta^2 for a valid measure weight: beta must be finite and positive, and its
    square a normal float.  An inf square turns the measures into nan; a subnormal
    or 0 one drops the weight or fails in the logs of the cut-point searches."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be finite and positive, got {beta!r}")
    b2 = beta * beta
    if not sys.float_info.min <= b2 < math.inf:
        raise ValueError(f"beta^2 must be a normal positive float, got {beta!r} ** 2 = {b2!r}")
    return b2


@dataclass(frozen=True)
class CostParams:
    """Misclassification prices: ``fn_cost`` for missing a positive,
    ``fp_cost`` for a false alarm.  Both finite and nonnegative, not both
    zero."""

    fn_cost: float
    fp_cost: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fn_cost) and math.isfinite(self.fp_cost)):
            raise ValueError("costs must be finite")
        if self.fn_cost < 0.0 or self.fp_cost < 0.0:
            raise ValueError("costs must be nonnegative")
        if self.fn_cost + self.fp_cost <= 0.0:
            raise ValueError("at least one cost must be positive")

    @property
    def posterior_cutoff(self) -> float:
        """Posterior level fp_cost / (fn_cost + fp_cost) above which predicting
        positive is the cheaper action."""
        return self.fp_cost / (self.fn_cost + self.fp_cost)


class NasVariant(Enum):
    """Choice of calibration score inside the Q measure."""

    NAS = "nas"
    NAS_STAR = "nas-star"


@dataclass(frozen=True)
class QConfig:
    """Q-measure settings: recall/calibration weight ``beta`` and which
    normalized absolute score to use (the prior-weighted variant by default)."""

    beta: float = 1.0
    nas_variant: NasVariant = NasVariant.NAS_STAR

    def __post_init__(self) -> None:
        _check_beta(self.beta)
        if not isinstance(self.nas_variant, NasVariant):
            raise ValueError(f"nas_variant must be a NasVariant, got {self.nas_variant!r}")


@dataclass(frozen=True)
class ConfusionProbs:
    """Joint event probabilities of one classifier on one population.

    ``p_pos_and_pred`` is the true-positive cell P[predict positive and
    positive], ``p_neg_and_pred`` the false-positive cell, ``p_pos`` the
    positive prior and ``p_pred`` the total predicted-positive mass.
    """

    p_pos_and_pred: float
    p_neg_and_pred: float
    p_pos: float
    p_pred: float

    def __post_init__(self) -> None:
        for name, value in (
            ("p_pos_and_pred", self.p_pos_and_pred),
            ("p_neg_and_pred", self.p_neg_and_pred),
            ("p_pos", self.p_pos),
            ("p_pred", self.p_pred),
        ):
            if not (-_PROB_TOL <= value <= 1.0 + _PROB_TOL):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.p_pos_and_pred > min(self.p_pos, self.p_pred) + _PROB_TOL:
            raise ValueError("true-positive mass cannot exceed prior or predicted mass")
        if abs(self.p_pos_and_pred + self.p_neg_and_pred - self.p_pred) > _PROB_TOL:
            raise ValueError("confusion cells must add up to the predicted-positive mass")


def misclassification_cost(cost: CostParams, rates: Rates, p_pos: float) -> float:
    """Expected cost fn_cost * P[miss] + fp_cost * P[false alarm] at positive prior p_pos.

    The miss cell is ``p_pos * fnr``; forming it as ``p_pos - p_pos * tpr`` would
    cancel as tpr nears 1, while ``fnr = 1 - tpr`` is exact for tpr >= 1/2.
    """
    p = float(_check_probability(p_pos, "p_pos"))
    return cost.fn_cost * (p * rates.fnr) + cost.fp_cost * ((1.0 - p) * rates.fpr)


def nas(p_pred, p_pos: float):
    """Normalized absolute score of a predicted-positive mass.

    1 - |p_pred - p_pos| / max(p_pos, 1 - p_pos): equal to 1 exactly at
    calibration p_pred = p_pos and to 0 at the worst constant prediction.
    Requires 0 < p_pos < 1.  Vectorizes over ``p_pred``.
    """
    _check_prior(p_pos)
    arr = _check_probability(p_pred, "p_pred")
    out = 1.0 - np.abs(arr - p_pos) / max(p_pos, 1.0 - p_pos)
    return out if np.ndim(p_pred) else float(out)


def nas_star(p_pred, p_pos: float):
    """Prior-weighted normalized absolute score.

    1 - max(p_pred - p_pos, 0) / (1 - p_pos) - max(p_pos - p_pred, 0) / p_pos:
    over-prediction is normalized by the negative prior and under-prediction
    by the positive prior, so the score reaches 0 exactly at the constant
    classifiers p_pred = 0 and p_pred = 1 whatever the prior.  Requires
    0 < p_pos < 1.  Vectorizes over ``p_pred``.
    """
    _check_prior(p_pos)
    arr = _check_probability(p_pred, "p_pred")
    over = np.maximum(arr - p_pos, 0.0) / (1.0 - p_pos)
    under = np.maximum(p_pos - arr, 0.0) / p_pos
    out = 1.0 - over - under
    return out if np.ndim(p_pred) else float(out)


def _f_formula(p_pos_and_pred, p_pos, p_pred, b2: float):
    """F measure (1 + b2) p_pos_and_pred / (b2 p_pos + p_pred) from its cells; vectorizes."""
    return (1.0 + b2) * p_pos_and_pred / (b2 * p_pos + p_pred)


def _q_formula(tpr, nas_value, b2: float):
    """Q measure (1 + b2) tpr nas / (b2 tpr + nas), 0 where both terms vanish; vectorizes."""
    denom = b2 * tpr + nas_value
    safe = denom > 0.0
    return np.where(safe, (1.0 + b2) * tpr * nas_value / np.where(safe, denom, 1.0), 0.0)


def f_beta(probs: ConfusionProbs, beta: float) -> float:
    """F measure with recall weight beta.

    (1 + beta^2) * p_pos_and_pred / (beta^2 * p_pos + p_pred), the weighted
    harmonic mean of precision and recall; defined as 0 when nothing is
    predicted positive.
    """
    b2 = _check_beta(beta)
    if probs.p_pred <= 0.0:
        return 0.0
    return _f_formula(probs.p_pos_and_pred, probs.p_pos, probs.p_pred, b2)


def q_beta(tpr: float, nas_value: float, beta: float) -> float:
    """Q measure: weighted harmonic mean of recall and a calibration score.

    (1 + beta^2) * tpr * nas / (beta^2 * tpr + nas); defined as 0 when both
    inputs vanish, matching the limit of the measure at empty predictions.
    """
    b2 = _check_beta(beta)
    _check_probability(tpr, "tpr")
    _check_probability(nas_value, "nas_value")
    return float(_q_formula(tpr, nas_value, b2))


def shifted_prevalence(rates: Rates, w):
    """Predicted-positive mass after the positive prior shifts to w.

    Affine in the shifted prior: w * (tpr - fpr) + fpr.  Only the class
    priors move; the class-conditional score distributions stay fixed, so
    the classifier keeps its error-rate pair.  Vectorizes over ``w``.
    """
    arr = _check_probability(w, "w")
    out = arr * (rates.tpr - rates.fpr) + rates.fpr
    return out if np.ndim(w) else float(out)


def prediction_error(rates: Rates, w):
    """Absolute error of raw positive-prediction counting at shifted prior w.

    |w - (w * (tpr - fpr) + fpr)|: piecewise linear and V-shaped in w, with
    its only zero at fpr / (fpr + 1 - tpr).  Vectorizes over ``w``.
    """
    out = np.abs(np.asarray(w, dtype=float) - shifted_prevalence(rates, w))
    return out if np.ndim(w) else float(out)


def error_bound(rates: Rates) -> float:
    """Sharp prior-independent bound on ``prediction_error``: max(fpr, fnr).

    The error is convex piecewise linear in w, so it peaks at an endpoint,
    where it equals fpr (at w = 0) or fnr (at w = 1).
    """
    return max(rates.fpr, rates.fnr)
