"""Acceptance gate: ten numbered end-to-end criteria.

Each test prints one ``ACCEPTANCE n: PASS/FAIL (detail)`` line and then
asserts, so the gate reads as a checklist::

    pytest -s tests/test_acceptance.py

Closed forms are cross-checked against an independent route (scipy's
``ndtr`` and ``brentq`` root finding in raw score units rather than this
package's Newton solver on z-scores); randomized criteria use fixed
seeds, so the whole gate is deterministic.
"""

import math

import numpy as np
from scipy import optimize, stats

from binquant.binormal import (
    BinormalModel,
    Rates,
    ThresholdClassifier,
    classifier_rates,
    likelihood_ratio,
    posterior,
)
from binquant.cli import main
from binquant.discrete_oracle import (
    brute_force_fbeta_max,
    local_bayes_check,
    minimax_comparison,
    random_population,
    thresholded_fbeta_sup,
)
from binquant.empirical import ScoreSample, sample_binormal, quantify_sample
from binquant.metrics import CostParams, QConfig, error_bound, prediction_error, shifted_prevalence
from binquant.quantifiers import (
    adjusted_count,
    locally_best_classifier,
    minimax_classifier,
    q_measure_of_mass,
    q_optimal_classifier,
)

DEFAULT_MODEL = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.25)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _random_model(rng) -> BinormalModel:
    mu = rng.uniform(-3.0, 3.0)
    return BinormalModel(
        mu=mu,
        nu=mu + rng.uniform(0.5, 4.0),
        sigma=rng.uniform(0.5, 2.0),
        p=rng.uniform(0.05, 0.95),
    )


def _mixed_populations(n_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        n_atoms = int(rng.integers(2, 13))
        yield random_population(rng, n_atoms, tied=False)
        yield random_population(rng, n_atoms, tied=True)


def test_criterion_1_closed_forms():
    """Posterior, likelihood ratio and balanced cut-point of the defaults."""
    post_err = abs(posterior(DEFAULT_MODEL, 1.0) - 0.25)
    lam_err = abs(likelihood_ratio(DEFAULT_MODEL, 1.0) - 1.0)
    mm = minimax_classifier(DEFAULT_MODEL)
    t_err = abs(mm.classifier.threshold - 1.0)
    balanced = float(stats.norm.sf(1.0))  # independent 1 - Phi(1)
    fpr_err = abs(mm.rates.fpr - balanced)
    fnr_err = abs(mm.rates.fnr - balanced)
    ok = post_err <= 1e-12 and lam_err <= 1e-12 and t_err <= 1e-10 and max(fpr_err, fnr_err) <= 1e-10
    _report(
        1,
        ok,
        f"posterior err {post_err:.1e}, ratio err {lam_err:.1e}, "
        f"threshold err {t_err:.1e}, rate errs {fpr_err:.1e}/{fnr_err:.1e}",
    )


def test_criterion_2_calibrated_cut_point():
    """Calibrated threshold against an independent root finder; zero error
    at an unshifted prior."""
    lb = locally_best_classifier(DEFAULT_MODEL)

    def mass_gap(t: float) -> float:
        m = DEFAULT_MODEL
        upper = m.p * stats.norm.sf(t - m.nu) + (1.0 - m.p) * stats.norm.sf(t - m.mu)
        return upper - m.p

    t_oracle = optimize.brentq(mass_gap, -10.0, 10.0, xtol=1e-12)
    t_err = abs(lb.classifier.threshold - t_oracle)
    err_at_prior = prediction_error(lb.rates, 0.25)
    ok = t_err <= 1e-8 and err_at_prior <= 1e-9
    _report(2, ok, f"threshold err vs root finder {t_err:.1e}, error at w=p {err_at_prior:.1e}")


def test_criterion_3_q_measure_maxima():
    """Starred Q: beta=2 peaks exactly at the prior, beta=1 above it, and
    both mass curves are unimodal."""
    beta2 = q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=2.0))
    beta1 = q_optimal_classifier(DEFAULT_MODEL, QConfig(beta=1.0))
    at_prior = abs(beta2.u_star - 0.25) <= 1e-4
    above_prior = beta1.u_star > 0.25 + 1e-4

    unimodal = True
    u = np.linspace(0.0, 1.0, 1001)
    for beta in (1.0, 2.0):
        values = q_measure_of_mass(DEFAULT_MODEL, u, beta)
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        if int(np.sum(np.diff(signs) != 0)) != 1 or signs[0] <= 0 or signs[-1] >= 0:
            unimodal = False

    ok = at_prior and above_prior and unimodal
    _report(
        3,
        ok,
        f"beta=2 u*={beta2.u_star:.6f}, beta=1 u*={beta1.u_star:.6f}, "
        f"unimodal={unimodal}",
    )


def test_criterion_4_error_figure(tmp_path):
    """The counting-error artifact: exact zeros for the two reference rules
    and a single sign change per V-shaped curve."""
    path = str(tmp_path / "err.csv")
    assert main(["figure-error", "--out", path]) == 0
    data = np.genfromtxt(path, delimiter=",", names=True, comments="#", skip_header=1)

    at = lambda col, w: float(data[col][np.argmin(np.abs(data["w"] - w))])
    minimax_zero = at("err_minimax", 0.5)
    locally_zero = at("err_locallybest", 0.25)

    v_shaped = True
    for col in ("err_qopt", "err_minimax", "err_locallybest"):
        diffs = np.diff(data[col])
        signs = np.sign(diffs[np.abs(diffs) > 1e-13])
        if int(np.sum(np.diff(signs) != 0)) != 1:
            v_shaped = False

    ok = minimax_zero <= 1e-9 and locally_zero <= 1e-9 and v_shaped
    _report(
        4,
        ok,
        f"err_minimax(0.5)={minimax_zero:.1e}, err_locallybest(0.25)={locally_zero:.1e}, "
        f"v_shaped={v_shaped}",
    )


def test_criterion_5_error_bound():
    """10^4 random (rates, w): counting error never exceeds max(fpr, fnr)."""
    rng = np.random.default_rng(55)
    violations = 0
    worst_slack = -math.inf
    for _ in range(10_000):
        rates = Rates(tpr=float(rng.uniform(0, 1)), fpr=float(rng.uniform(0, 1)))
        w = float(rng.uniform(0, 1))
        slack = prediction_error(rates, w) - error_bound(rates)
        worst_slack = max(worst_slack, slack)
        if slack > 0.0:
            violations += 1
    _report(5, violations == 0, f"violations={violations}, worst slack {worst_slack:.1e}")


def test_criterion_6_adjustment_exactness():
    """10^4 random (model, threshold, w): adjusting the shifted count
    recovers the prior to 1e-10."""
    rng = np.random.default_rng(66)
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        model = _random_model(rng)
        gap = model.nu - model.mu
        t = float(rng.uniform(model.mu - gap / 2.0, model.nu + gap / 2.0))
        rates = classifier_rates(model, ThresholdClassifier(t))
        w = float(rng.uniform(0, 1))
        back = adjusted_count(shifted_prevalence(rates, w), rates).ac
        err = abs(back - w)
        worst = max(worst, err)
        if err > 1e-10:
            violations += 1
    _report(6, violations == 0, f"violations={violations}, worst |ac - w| {worst:.1e}")


def test_criterion_7_thresholding_reaches_brute_force():
    """100 discrete populations (half tied) x beta in {0.5, 1, 2}: posterior
    threshold sets attain the exhaustive F maximum."""
    checks = 0
    violations = 0
    worst = 0.0
    for population in _mixed_populations(50, seed=777):
        for beta in (0.5, 1.0, 2.0):
            _, brute = brute_force_fbeta_max(population, beta)
            sup = thresholded_fbeta_sup(population, beta)
            gap = abs(brute - sup)
            worst = max(worst, gap)
            checks += 1
            if gap > 1e-12:
                violations += 1
    ok = violations == 0 and checks == 300
    _report(7, ok, f"checks={checks}, violations={violations}, worst gap {worst:.1e}")


def test_criterion_8_constrained_cut_optimality():
    """100 populations x random costs, a cut level on each side of the cost
    ratio: enumeration never undercuts the posterior cut."""
    rng = np.random.default_rng(888)
    checks = 0
    violations = 0
    for population in _mixed_populations(50, seed=888):
        cost = CostParams(
            fn_cost=float(rng.uniform(0.05, 2.0)), fp_cost=float(rng.uniform(0.05, 2.0))
        )
        ratio = cost.posterior_cutoff
        below = ratio * float(rng.uniform(0.05, 0.95))
        above = ratio + (1.0 - ratio) * float(rng.uniform(0.05, 0.95))
        for level in (below, above):
            report = local_bayes_check(population, cost, level)
            checks += 1
            if not report.holds:
                violations += 1
    _report(8, violations == 0, f"checks={checks}, violations={violations}")


def test_criterion_9_minimax_comparison():
    """Brute-force minimax never beats the threshold family the wrong way on
    discrete populations; in the continuous model the optimum is the
    balanced cut at unit likelihood ratio."""
    violations = 0
    for population in _mixed_populations(50, seed=999):
        report = minimax_comparison(population)
        if report.brute_value > report.threshold_value + 1e-12:
            violations += 1

    mm = minimax_classifier(DEFAULT_MODEL)
    lam_err = abs(likelihood_ratio(DEFAULT_MODEL, mm.classifier.threshold) - 1.0)
    balance_err = abs(mm.rates.fpr - mm.rates.fnr)
    ok = violations == 0 and lam_err <= 1e-12 and balance_err <= 1e-10
    _report(
        9,
        ok,
        f"discrete violations={violations}, ratio err {lam_err:.1e}, "
        f"balance err {balance_err:.1e}",
    )


def test_criterion_10_monte_carlo_pipeline():
    """n = 10^5 sampled at target prior 0.6: the adjusted estimate lands on
    0.6 and the raw count misses by the analytic error, both within 0.01."""
    lb = locally_best_classifier(DEFAULT_MODEL)
    target_model = BinormalModel(mu=0.0, nu=2.0, sigma=1.0, p=0.6)
    target = sample_binormal(target_model, 100_000, seed=11)
    sample = ScoreSample(scores=tuple(float(s) for s in target.scores()))

    estimate = quantify_sample(sample, lb.classifier, lb.rates)
    ac_err = abs(estimate.ac - 0.6)
    cc_dev = abs(estimate.cc - 0.6)
    analytic_dev = prediction_error(lb.rates, 0.6)
    cc_gap = abs(cc_dev - analytic_dev)

    ok = ac_err <= 0.01 and cc_gap <= 0.01
    _report(
        10,
        ok,
        f"|ac - 0.6|={ac_err:.2e}, |cc dev - analytic dev|={cc_gap:.2e}",
    )
