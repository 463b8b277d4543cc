"""Q- and F-optimal cut-points against 40-digit mpmath references.

The references do not use the package's solvers.  In the standardized
frame (negatives N(0, 1), positives N(d, 1), cut z) they bisect, at 40
digits, the sign of the derivative of the objective written out with
the quotient rule:

* F: d/dz log F = m / (beta^2 p + u) - phi(d - z) / tpr;
* Q on u >= p: Q = (1 + beta^2) / g with g = beta^2 / nas + 1 / tpr,
  g' = phi(z - d) / tpr^2 - beta^2 m / (c nas^2),

where u is the mass above z, m = p phi(z - d) + (1 - p) phi(z) its
density and c the calibration normalizer (1 - p for nas-star,
max(p, 1 - p) for nas).  Q's kink u = p and its end u = 1 - 1e-9 are
located by Newton steps on the mixture mass at 40 digits, started from
scipy's ``brentq``, and the sign of g' there decides whether the optimum
is the kink, the end or an interior root.

Models span the ``model-sweep`` box: sigma from 1e-9 to 1e6, offsets up
to 1e6 in size, d from 0.25 to 6 and p from 0.01 to 0.99.  References
take d from the model itself, so the rounding of nu does not count, and
a threshold is compared on the score axis, where its own float spacing
is added to the tolerance of 1e-14 (1 + |z|) z-units.  The two
stationarity conditions are checked on the standardized copy of each
model, where the cut is z itself.
"""

import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from binquant.binormal import BinormalModel, classifier_rates, posterior
from binquant.discrete_oracle import (DiscretePopulation, check_population, local_bayes_check,
                                      minimax_comparison)
from binquant.metrics import CostParams, NasVariant, QConfig, nas, nas_star
from binquant.quantifiers import (
    bayes_classifier,
    f_optimal_classifier,
    minimax_classifier,
    q_optimal_classifier,
)

mp.mp.dps = 40

BETAS = (0.5, 1.0, 2.0, 3.0)
Z_TOL = 1e-14


def _box_models():
    """Corners of the model-sweep box, the default model, and seeded draws inside the box."""
    models = [
        (0.0, 2.0, 1.0, 0.25),
        (0.0, 2e-9, 1e-9, 0.25),
        (1e6, 1e6 + 0.25e-9, 1e-9, 0.01),
        (-1e6, -1e6 + 6.0 * 1e6, 1e6, 0.99),
        (1e6, 1e6 + 6.0 * 1e-3, 1e-3, 0.5),
        (0.0, 0.335, 1.0, 0.856),
    ]
    rng = np.random.default_rng(2016)
    for _ in range(6):
        sigma = 10.0 ** rng.uniform(-9.0, 6.0)
        offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0)
        d, p = rng.uniform(0.25, 6.0), rng.uniform(0.01, 0.99)
        models.append((float(offset), float(offset + d * sigma), float(sigma), float(p)))
    return [BinormalModel(*m) for m in models]


MODELS = _box_models()


def _bisect(f, a, b):
    """A root of f in [a, b], where f changes sign, to 1e-18 absolute."""
    fa = f(a)
    assert fa * f(b) < 0, (a, b)
    while b - a > mp.mpf("1e-18"):
        mid = (a + b) / 2
        fm = f(mid)
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return (a + b) / 2


def _frame(model):
    return mp.mpf(model.d), mp.mpf(model.p)


def _terms(d, p, z):
    """tpr, mass above z and its density, at 40 digits."""
    tpr = mp.ncdf(d - z)
    mass = p * tpr + (1 - p) * mp.ncdf(-z)
    density = p * mp.npdf(z - d) + (1 - p) * mp.npdf(z)
    return tpr, mass, density


def _z_at_mass(model, target):
    """The z whose mass above it is target: float brentq, then Newton steps at 40 digits."""
    d, p = _frame(model)
    start = optimize.brentq(
        lambda z: model.p * special.ndtr(model.d - z) + (1.0 - model.p) * special.ndtr(-z) - float(target),
        -40.0, 40.0 + model.d, xtol=1e-15,
    )
    z = mp.mpf(start)
    for _ in range(100):
        _, mass, density = _terms(d, p, z)
        step = (mass - target) / density
        z += step
        if abs(step) < mp.mpf("1e-28") * (1 + abs(z)):
            return z
    raise AssertionError("mass inversion did not converge")


@functools.cache
def _f_reference(model, beta):
    d, p = _frame(model)
    b2 = mp.mpf(beta) ** 2

    def dlog_f(z):
        tpr, mass, density = _terms(d, p, z)
        return density / (b2 * p + mass) - mp.npdf(d - z) / tpr

    return _bisect(dlog_f, mp.mpf(-40), 40 + d)


@functools.cache
def _q_reference(model, beta, variant):
    """The Q-optimal z and which of "kink", "end" or "interior" it is."""
    d, p = _frame(model)
    b2 = mp.mpf(beta) ** 2
    c = 1 - p if variant is NasVariant.NAS_STAR else max(p, 1 - p)

    def g_prime(z):
        tpr, mass, density = _terms(d, p, z)
        nas_value = 1 - (mass - p) / c
        return mp.npdf(z - d) / tpr**2 - b2 * density / (c * nas_value**2)

    top = 1.0 - 1e-9
    z_kink = _z_at_mass(model, p)
    z_end = _z_at_mass(model, mp.mpf(top))
    if g_prime(z_kink) <= 0:
        return z_kink, "kink"
    if g_prime(z_end) >= 0:
        return z_end, "end"
    return _bisect(g_prime, z_end, z_kink), "interior"


def _assert_cut_near(model, threshold, z_ref):
    """The threshold lies within 1e-14 (1 + |z|) z-units of mu + sigma z_ref, plus its spacing."""
    gap = abs(mp.mpf(threshold) - (mp.mpf(model.mu) + mp.mpf(model.sigma) * z_ref))
    tol = Z_TOL * (1.0 + abs(float(z_ref))) * model.sigma + float(np.spacing(abs(threshold)))
    assert float(gap) <= tol, (threshold, float(z_ref), float(gap) / model.sigma)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"d={m.d:.3g},p={m.p:.3g},sigma={m.sigma:.0e}")
def test_f_optimum_matches_mpmath(model):
    for beta in BETAS:
        result = f_optimal_classifier(model, beta)
        _assert_cut_near(model, result.classifier.threshold, _f_reference(model, beta))


@pytest.mark.parametrize("variant", list(NasVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"d={m.d:.3g},p={m.p:.3g},sigma={m.sigma:.0e}")
def test_q_optimum_matches_mpmath(model, variant):
    for beta in BETAS:
        result = q_optimal_classifier(model, QConfig(beta=beta, nas_variant=variant))
        z_ref, _ = _q_reference(model, beta, variant)
        _assert_cut_near(model, result.classifier.threshold, z_ref)


def test_box_reaches_every_kind_of_q_optimum():
    """The models above put Q optima at the kink, in the interior and at the end."""
    kinds = {
        _q_reference(model, beta, variant)[1]
        for model in MODELS[:6] for beta in BETAS for variant in NasVariant
    }
    assert kinds == {"kink", "interior", "end"}


def _standardized(model):
    """The same (d, p) at mu = 0 and sigma = 1, where the cut is z itself."""
    return BinormalModel(mu=0.0, nu=model.d, sigma=1.0, p=model.p)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"d={m.d:.3g},p={m.p:.3g},sigma={m.sigma:.0e}")
def test_f_threshold_theorem(model):
    """The posterior at the F-optimal cut is F* / (1 + beta^2) (Ye et al., 2012)."""
    std = _standardized(model)
    for beta in BETAS:
        result = f_optimal_classifier(std, beta)
        level = result.objective_value / (1.0 + beta * beta)
        assert math.isclose(posterior(std, result.classifier.threshold), level, rel_tol=1e-13)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.floats(0.25, 6.0), p=st.floats(0.01, 0.99), beta=st.floats(0.5, 3.0))
def test_f_threshold_theorem_over_the_box(d, p, beta):
    """The same theorem at random (d, p) in the model-sweep box and beta over the range of BETAS."""
    std = BinormalModel(mu=0.0, nu=d, sigma=1.0, p=p)
    result = f_optimal_classifier(std, beta)
    level = result.objective_value / (1.0 + beta * beta)
    assert math.isclose(posterior(std, result.classifier.threshold), level, rel_tol=1e-13)


@pytest.mark.parametrize("variant", list(NasVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"d={m.d:.3g},p={m.p:.3g},sigma={m.sigma:.0e}")
def test_q_stationarity_at_interior_optima(model, variant):
    """At an interior Q optimum, posterior * c * nas^2 = beta^2 p tpr^2."""
    std = _standardized(model)
    p = model.p
    c = 1.0 - p if variant is NasVariant.NAS_STAR else max(p, 1.0 - p)
    score = nas_star if variant is NasVariant.NAS_STAR else nas
    for beta in BETAS:
        if _q_reference(model, beta, variant)[1] != "interior":
            continue
        result = q_optimal_classifier(std, QConfig(beta=beta, nas_variant=variant))
        rates = classifier_rates(std, result.classifier)
        lhs = posterior(std, result.classifier.threshold) * c * score(result.u_star, p) ** 2
        rhs = beta * beta * p * rates.tpr**2
        assert math.isclose(lhs, rhs, rel_tol=1e-12), (beta, lhs, rhs)


@pytest.mark.parametrize(
    "model",
    [
        (4429.176442020577, 4429.176448751711, 4.178667913545731e-06, 0.8719138181932115),
        (959.1372118763754, 962.2523254649822, 0.6313782491705784, 0.22767010459441492),
        (-957454.3727869223, -957177.6821818631, 47.226912717190956, 0.7028944645335705),
    ],
)
def test_bayes_row_cost_is_exact_for_its_rates(tmp_path, model):
    """``optimize`` reports the Bayes row's cost within 2 ulp of the exact cost of the
    row's own rates, on models where tpr is 0.9959 to 0.99970 (a miss cell formed
    as p - p tpr was 14 to 57 ulp off on these)."""
    from binquant.cli import main

    mu, nu, sigma, p = model
    out = tmp_path / "optimize.csv"
    argv = ["optimize", "--mu", repr(mu), "--nu", repr(nu), "--sigma", repr(sigma), "--p", repr(p),
            "--cost-fn", "4", "--cost-fp", "0.5", "--out", str(out)]
    assert main(argv) == 0
    row = next(line for line in out.read_text().splitlines() if line.startswith("bayes,"))
    tpr, fpr, cost = (float(v) for v in row.split(",")[3:])
    assert tpr > 0.995
    exact = 4 * mp.mpf(p) * (1 - mp.mpf(tpr)) + mp.mpf(0.5) * (1 - mp.mpf(p)) * mp.mpf(fpr)
    assert abs(mp.mpf(cost) - exact) <= 2 * np.spacing(float(exact))


def _interval_population(d, p, cut, width):
    """Twenty atoms of the standardized model (d, p): the z axis cut at edges
    cut + k width, k = -9..9, with 40-digit class masses on each interval.
    Atoms 10..19 lie above ``cut``."""
    edges = [-mp.inf, *(mp.mpf(cut) + k * mp.mpf(width) for k in range(-9, 10)), mp.inf]
    return DiscretePopulation(atoms=tuple(
        (float(p * (mp.ncdf(b - d) - mp.ncdf(a - d))), float((1 - p) * (mp.ncdf(b) - mp.ncdf(a))))
        for a, b in zip(edges, edges[1:])))


@pytest.mark.parametrize("width", [0.5, 0.05])
class TestOracleChecksBinormalOptimizers:
    """The paper's two halves check each other.  A set of intervals of the score
    axis is a classifier of the binormal model, so over the atoms of a grid with
    an edge at an optimizer's cut, the oracle's best subset must be the upper
    set at that cut, atoms 10..19, and its F value is F at the cut within 2 ulp."""

    @pytest.mark.parametrize("d, p, beta", [(2.0, 0.25, 1.0), (2.0, 0.25, 2.0),
                                            (1.0, 0.7, 0.5), (4.0, 0.05, 1.0)])
    def test_no_subset_beats_the_f_optimal_cut(self, d, p, beta, width):
        model = BinormalModel(mu=0.0, nu=d, sigma=1.0, p=p)
        opt = f_optimal_classifier(model, beta)
        found = check_population(_interval_population(d, p, opt.classifier.threshold, width),
                                 betas=(beta,))
        (best, value), = found.fbeta
        assert best.included == frozenset(range(10, 20))
        assert abs(value - opt.objective_value) <= 2 * np.spacing(opt.objective_value)
        assert found.failed == ()

    @pytest.mark.parametrize("d, p", [(2.0, 0.25), (1.0, 0.7), (4.0, 0.05)])
    def test_no_subset_beats_the_minimax_cut(self, d, p, width):
        cut = minimax_classifier(BinormalModel(mu=0.0, nu=d, sigma=1.0, p=p)).classifier.threshold
        report = minimax_comparison(_interval_population(d, p, cut, width))
        assert report.brute_classifier.included == frozenset(range(10, 20))
        assert report.equal


@pytest.mark.parametrize("width", [0.5, 0.05])
@pytest.mark.parametrize("d, p", [(2.0, 0.25), (1.0, 0.7), (4.0, 0.05)])
class TestOracleChecksTheBayesCut:
    """Over the atoms of a grid with its middle edge at the Bayes cut, the oracle's
    posterior cut at the cost ratio is the upper set at that cut, atoms 10..19, and
    no subset costs less."""

    @pytest.mark.parametrize("fn, fp", [(1.0, 1.0), (4.0, 0.5), (0.3, 2.0)])
    def test_no_subset_beats_the_bayes_cut(self, d, p, fn, fp, width):
        cost = CostParams(fn, fp)
        opt = bayes_classifier(BinormalModel(mu=0.0, nu=d, sigma=1.0, p=p), cost)
        pop = _interval_population(d, p, opt.classifier.threshold, width)
        report = local_bayes_check(pop, cost, cost.posterior_cutoff)
        assert report.constraint == "all"
        assert report.included == frozenset(range(10, 20)) and report.holds
        assert report.best_cost == report.cut_cost
        # The oracle's prevalence, pos and neg each sum at most 20 atom masses, each
        # rounded once from 40 digits and added with at most 19 more roundings, so
        # each lies within 39 u < 20 eps of its exact sum, and the cut cost
        # fn (prevalence - pos) + fp neg within 20 eps (fn (prevalence + pos) + fp neg).
        # Allow 8 eps of the cost for its own few roundings and for the row's cost,
        # which rounds ndtr and its two cells.
        eps = np.finfo(float).eps
        pos = sum(pop.atoms[i][0] for i in range(10, 20))
        neg = sum(pop.atoms[i][1] for i in range(10, 20))
        slack = 20 * eps * (fn * (pop.prevalence + pos) + fp * neg) + 8 * eps * report.cut_cost
        assert abs(report.cut_cost - opt.objective_value) <= slack

    def test_a_grid_off_the_cut_moves_the_cut_set(self, d, p, width):
        """With the grid moved up by 1.2 widths, atom 9 lies above the cut too."""
        cost = CostParams(1.0, 1.0)
        cut = bayes_classifier(BinormalModel(mu=0.0, nu=d, sigma=1.0, p=p), cost).classifier.threshold
        report = local_bayes_check(_interval_population(d, p, cut + 1.2 * width, width), cost,
                                   cost.posterior_cutoff)
        assert min(report.included) == 9 and report.holds
