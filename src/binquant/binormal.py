"""Exact analytics for the equal-variance two-normal score model.

Scores form a two-class mixture: negative-class scores are drawn from
N(mu, sigma^2), positive-class scores from N(nu, sigma^2) with mu < nu,
and the positive class carries prior weight p.  Everything downstream
(threshold selection, prevalence estimation) reduces to closed forms
collected here:

* the mixture distribution function and its inverse,
* the positive-class posterior, which is logistic in the score,
* the class-density likelihood ratio, increasing in the score,
* the true/false positive rates of cut-point classifiers.

Only the separation d = (nu - mu) / sigma and the prior p matter, so
formulas are evaluated on z = (x - mu) / sigma and mapped back with
x = mu + sigma * z, which keeps them accurate at any scale and offset.

All functions are pure and the carrier types are immutable.
``std_normal_cdf``, ``std_normal_quantile``, ``mixture_cdf`` and
``mixture_quantile`` accept a float or an ndarray and return a result of
matching shape; everything else is scalar.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinormalModel",
    "ThresholdClassifier",
    "Rates",
    "std_normal_cdf",
    "std_normal_quantile",
    "mixture_cdf",
    "mixture_quantile",
    "posterior",
    "likelihood_ratio",
    "classifier_rates",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# exp() overflows past ~709.8; clamping at +-700 keeps results finite and
# strictly inside (0, 1) / (0, inf) at the extremes.
_EXP_CLAMP = 700.0

# Mixture quantile: stop once a Newton step moves z by at most _NEWTON_TOL
# relative to 1 + |z| (leaving about its square) or the bracket is a few ulp
# wide.  The cap binds only where F is flat to rounding and any z will do.
_NEWTON_TOL = 1e-12
_ULPS = 4.0 * np.finfo(float).eps
_MAX_NEWTON_STEPS = 100


# Open-interval guard for predicted-positive masses: thresholds exist only
# for masses strictly inside (0, 1).
_MASS_EDGE = 1e-9


# ``scipy.special.ndtr`` and ``ndtri``, imported on first use: runs that never evaluate
# the normal model (``oracle``, ``quantify --threshold``) do not pay for the import.
# Each stub rebinds its module name to the ufunc on its first call, so later calls
# reach the ufunc with one global lookup.

def _ndtr(x):
    global _ndtr
    from scipy.special import ndtr as _ndtr

    return _ndtr(x)


def _ndtri(u):
    global _ndtri
    from scipy.special import ndtri as _ndtri

    return _ndtri(u)


@dataclass(frozen=True)
class BinormalModel:
    """Two-class score population with equal-variance normal components.

    Parameters
    ----------
    mu : float
        Mean of the negative-class score distribution.
    nu : float
        Mean of the positive-class score distribution; must exceed ``mu``
        so that larger scores favour the positive class.
    sigma : float
        Common standard deviation of both components, strictly positive.
    p : float
        Prior probability of the positive class, strictly inside (0, 1).
    """

    mu: float
    nu: float
    sigma: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise ValueError("component means must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma!r}")
        if not self.mu < self.nu:
            raise ValueError(
                f"negative-class mean must lie below positive-class mean, "
                f"got mu={self.mu!r}, nu={self.nu!r}"
            )
        _check_prior(self.p)

    @property
    def d(self) -> float:
        """Separation of the component means in units of sigma, (nu - mu) / sigma."""
        return (self.nu - self.mu) / self.sigma

    def z_score(self, x):
        """Standardized score (x - mu) / sigma; the negative class is N(0, 1) in it."""
        return (x - self.mu) / self.sigma

    def score(self, z):
        """Inverse of ``z_score``: mu + sigma * z."""
        return self.mu + self.sigma * z

    # The two anchor cut-points of the optimizers, each solved at most once per model
    # and kept on it: a frozen dataclass still has the __dict__ that cached_property
    # writes to.

    @functools.cached_property
    def _z_at_prior_mass(self) -> float:
        """z-score of the cut-point flagging mass p: the locally best cut-point and
        the kink of the Q search."""
        return float(_z_at_upper_mass(self, self.p))

    @functools.cached_property
    def _z_at_far_mass(self) -> float:
        """z-score of the cut-point flagging mass 1 - _MASS_EDGE, or (p + 1) / 2 where
        p is not below that: the far end of the Q search.  Where that midpoint rounds
        to 1, no mass lies strictly between p and 1, and the far end is the kink."""
        far = 1.0 - _MASS_EDGE
        if far <= self.p:
            far = 0.5 * (self.p + 1.0)
            if far >= 1.0:
                return self._z_at_prior_mass
        return float(_z_at_upper_mass(self, far))


@dataclass(frozen=True)
class ThresholdClassifier:
    """Cut-point rule on the score axis: predict positive iff score > threshold."""

    threshold: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")

    def predicts_positive(self, score):
        """Whether the rule flags the score positive; a float or an ndarray of them."""
        return score > self.threshold


@dataclass(frozen=True)
class Rates:
    """True and false positive rates of a classifier.

    ``tpr`` is the probability of a positive prediction given a positive
    instance, ``fpr`` the same given a negative instance.
    """

    tpr: float
    fpr: float

    def __post_init__(self) -> None:
        for name, value in (("tpr", self.tpr), ("fpr", self.fpr)):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    @property
    def fnr(self) -> float:
        """False negative rate, 1 - tpr."""
        return 1.0 - self.tpr


def _check_prior(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError(f"positive prior must lie in (0, 1), got {p!r}")


def _check_levels(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    # min and max propagate nan, and -0.0 > 0.0 is False, so nan, +-inf and +-0.0 fail too
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("probability level must lie strictly inside (0, 1)")
    return arr


def std_normal_cdf(x):
    """Standard normal distribution function Phi, ``scipy.special.ndtr``; a float or an ndarray."""
    out = _ndtr(np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


def std_normal_quantile(u):
    """Inverse of ``std_normal_cdf`` on (0, 1).

    ``scipy.special.ndtri``, accurate to a few ulp; levels outside (0, 1)
    raise ``ValueError``.  Accepts a float or an ndarray.
    """
    out = _ndtri(_check_levels(u))
    return out if np.ndim(u) else float(out)


# The z-frame expressions, each formed in one place.  Their callers pass z as a float
# or an ndarray, and they call the bare ufunc: on the floats of a bisection,
# std_normal_cdf's array handling would cost more than the ufunc itself.

def _cdf_in_z(d: float, pos: float, neg: float, z):
    """The mixture CDF pos Phi(z - d) + neg Phi(z) in z."""
    return pos * _ndtr(z - d) + neg * _ndtr(z)


def _tpr_in_z(d: float, z):
    """True positive rate Phi(d - z) of the cut-point at the z-score z."""
    return _ndtr(d - z)


def _fpr_in_z(z):
    """False positive rate Phi(-z) of the cut-point at the z-score z."""
    return _ndtr(-z)


def _log_ratio_in_z(d: float, z):
    """Log likelihood ratio d (z - d / 2) at the z-score z."""
    return d * (z - 0.5 * d)


def _upper_mass(model: BinormalModel, z):
    """Mass above the z-score z, p Phi(d - z) + (1 - p) Phi(-z), to full relative accuracy."""
    return model.p * _tpr_in_z(model.d, z) + (1.0 - model.p) * _fpr_in_z(z)


def _z_at_mass(d: float, pos: float, neg: float, u: np.ndarray) -> np.ndarray:
    """Solve F(z) = pos * Phi(z - d) + neg * Phi(z) = u for z, elementwise.

    Newton steps on log F(z) - log u inside the exact bracket
    [ndtri(u), ndtri(u) + d] from Phi(z - d) <= F(z) <= Phi(z); a step that
    would leave the bracket bisects it instead.  Levels above 1/2 are solved
    in survival form, which in w = d - z is the same equation against 1 - u
    with the weights swapped, so the upper tail keeps its accuracy.
    """
    upper = u > 0.5
    pos, neg = np.where(upper, neg, pos), np.where(upper, pos, neg)
    u = np.where(upper, 1.0 - u, u)
    z = lo = _ndtri(u)
    hi = lo + d
    log_u = np.log(u)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_NEWTON_STEPS):
            cdf = _cdf_in_z(d, pos, neg, z)
            pdf = (pos * np.exp(-0.5 * (z - d) ** 2) + neg * np.exp(-0.5 * z * z)) / _SQRT_2PI
            gap = np.log(cdf) - log_u
            lo = np.where(gap < 0.0, z, lo)
            hi = np.where(gap > 0.0, z, hi)
            newton = z - gap * cdf / pdf
            inside = (newton >= lo) & (newton <= hi)
            scale = 1.0 + np.abs(z)
            done = np.where(
                inside, np.abs(newton - z) <= _NEWTON_TOL * scale, hi - lo <= _ULPS * scale
            )
            z = np.where(inside, newton, 0.5 * (lo + hi))
            if np.all(done):
                break
    return np.where(upper, d - z, z)


def _z_at_upper_mass(model: BinormalModel, v):
    """The z-score of the cut-point flagging mass v, solved without forming 1 - v."""
    d = model.d
    return d - _z_at_mass(d, 1.0 - model.p, model.p, np.asarray(v, dtype=float))


def mixture_cdf(model: BinormalModel, x):
    """Distribution function of the score mixture, P[X <= x].

    p * Phi(z - d) + (1 - p) * Phi(z) at z = (x - mu) / sigma.  Accepts a
    float or an ndarray.
    """
    z = model.z_score(np.asarray(x, dtype=float))
    out = _cdf_in_z(model.d, model.p, 1.0 - model.p, z)
    return out if np.ndim(x) else float(out)


def mixture_quantile(model: BinormalModel, u):
    """Inverse of ``mixture_cdf`` on (0, 1), by safeguarded Newton steps in z.

    The bound holds in z: the result is x = mu + sigma z rounded to a double,
    where p Phi(z - d) + (1 - p) Phi(z) is within 1e-10 of u, in practice a
    few ulp in either tail.  Rounding x moves its z-score by up to a few ulp
    of max(|x|, |mu|) divided by sigma, and ``mixture_cdf(x)`` by that move
    times a density of at most 1 / sqrt(2 pi), so |mixture_cdf(x) - u| stays
    within 1e-10 only while |x| / sigma is below about 1e5: at mu = 1e6 it
    reaches 1.5e-8 for sigma = 1e-3 and 1.7e-2 for sigma = 1e-9.  Accepts a
    float or an ndarray.
    """
    out = model.score(_z_at_mass(model.d, model.p, 1.0 - model.p, _check_levels(u)))
    return out if np.ndim(u) else float(out)


def likelihood_ratio(model: BinormalModel, x: float) -> float:
    """Positive-to-negative class density ratio at score x.

    exp(d (z - d / 2)) with z = (x - mu) / sigma; strictly increasing and
    equal to 1 at the component-mean midpoint (nu + mu) / 2.
    """
    log_ratio = _log_ratio_in_z(model.d, model.z_score(x))
    return math.exp(min(max(log_ratio, -_EXP_CLAMP), _EXP_CLAMP))


def posterior(model: BinormalModel, x: float) -> float:
    """Positive-class posterior probability at score x.

    p lam / (p lam + 1 - p) with lam the likelihood ratio, which is logistic
    in the score.  Strictly increasing, with limits 0 and 1 at -inf and +inf.
    """
    weighted = model.p * likelihood_ratio(model, x)
    return weighted / (weighted + 1.0 - model.p)


def _z_at_posterior(model: BinormalModel, q: float) -> float:
    """z-score at which the posterior equals q in (0, 1): d / 2 + (logit q - logit p) / d."""
    logit_gap = math.log(q * (1.0 - model.p) / ((1.0 - q) * model.p))
    return 0.5 * model.d + logit_gap / model.d


def _score_at_posterior(model: BinormalModel, q: float) -> float:
    """Score at which the posterior equals q in (0, 1)."""
    return model.score(_z_at_posterior(model, q))


def classifier_rates(model: BinormalModel, classifier: ThresholdClassifier) -> Rates:
    """Exact error-rate pair of a cut-point classifier under the model.

    tpr = Phi(d - z) and fpr = Phi(-z) at z = (t - mu) / sigma; both
    decrease in the threshold and tpr > fpr because d > 0.
    """
    z = model.z_score(classifier.threshold)
    return Rates(tpr=float(_tpr_in_z(model.d, z)), fpr=float(_fpr_in_z(z)))
