"""The benchmark's four workloads: seeded inputs and independent checks.

Each workload turns a seed into a list of operations for worker.py and later
checks the worker's raw outputs against references computed here with numpy
and scipy alone (``scipy.special.ndtr``, ``scipy.optimize.brentq``), never
with binquant.  The checks and their tolerances are fixed in this file and do
not depend on the seed.

A check that fails returns a ``Failure``.  ``KNOWN_DEFECTS`` names the checks
that fail at the commit that introduced this benchmark because of defects in
binquant itself; they count as failed operations like any other, but they do
not make the run incorrect.  Any other failure does.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr

# Checks that fail because of known binquant defects, not because of the harness.
KNOWN_DEFECTS = {
    # Bisection stops at an absolute width of 1e-14 score units, so at small
    # sigma the calibrated cut-point misses its target mass by up to ~1e-6.
    "locally_best.calibration",
    # The posterior intercept (nu^2 - mu^2) / (2 sigma^2) cancels
    # catastrophically when the means are large against sigma, which moves
    # the cost-optimal cut-point by up to ~1e9 sigma.
    "bayes.closed_form",
}

DEFAULT_MODEL = (0.0, 2.0, 1.0, 0.25)  # the README's (mu, nu, sigma, p)
TINY_SIGMA_MODEL = (0.0, 2e-9, 1e-9, 0.25)  # the known calibration miss


@dataclass(frozen=True)
class Failure:
    check: str
    detail: str

    @property
    def known(self) -> bool:
        return self.check in KNOWN_DEFECTS


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


def _bracketed(f, x: float, target: float) -> bool:
    """True when target lies between f at the float neighbours of x.

    A tolerance finer than x's own float spacing is met this way: no float
    threshold can do better.
    """
    lo, hi = f(np.nextafter(x, -np.inf)), f(np.nextafter(x, np.inf))
    return min(lo, hi) <= target <= max(lo, hi)


# --------------------------------------------------------------- quantify-files

def _write_labeled(path: str, scores: np.ndarray, positive: np.ndarray) -> None:
    labels = np.where(positive, 1, -1)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# generated by perfbench\nscore,label\n")
        handle.write("\n".join(f"{s!r},{l}" for s, l in zip(scores.tolist(), labels.tolist())))
        handle.write("\n")


def _write_scores(path: str, scores: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# generated by perfbench\nscore\n")
        handle.write("\n".join(map(repr, scores.tolist())))
        handle.write("\n")


class QuantifyFiles:
    """``binquant quantify`` on a labeled train file and a prior-shifted target file."""

    name = "quantify-files"
    item = "row read"
    latency_group = 1

    def __init__(self, seed: int, workdir: str, rows: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.mu = float(rng.uniform(-1.0, 1.0))
        self.sigma = float(rng.uniform(0.5, 2.0))
        self.nu = self.mu + float(rng.uniform(1.5, 2.5)) * self.sigma
        p_train = float(rng.uniform(0.2, 0.4))
        p_target = p_train + float(rng.uniform(0.2, 0.4))
        self.train_pos = rng.random(rows) < p_train
        self.train = np.where(self.train_pos, self.nu, self.mu) + self.sigma * rng.standard_normal(rows)
        target_pos = rng.random(rows) < p_target
        self.target = np.where(target_pos, self.nu, self.mu) + self.sigma * rng.standard_normal(rows)
        self.threshold = 0.5 * (self.mu + self.nu) + float(rng.uniform(-0.5, 0.5)) * self.sigma

        train_path = os.path.join(workdir, "train.csv")
        target_path = os.path.join(workdir, "target.csv")
        _write_labeled(train_path, self.train, self.train_pos)
        _write_scores(target_path, self.target)
        self.inputs = {path: {"rows": rows, "bytes": os.path.getsize(path), "sha256": _sha256(path)}
                       for path in (train_path, target_path)}
        base = ["quantify", train_path, target_path]
        commands = [
            base + ["--rule", "locally-best"],
            base + ["--rule", "q-optimal"],
            base + ["--threshold", repr(self.threshold), "--method", "cc"],
        ]
        self.ops = [{"kind": "cli", "argvs": [argv], "items": 2 * rows} for argv in commands]
        self.min_ops = self.trace_ops = len(self.ops)

    def check(self, op: dict, record: dict) -> list[Failure]:
        out = _parse_fields(record["outputs"][0]["stdout"])
        needed = {"threshold", "tpr", "fpr", "cc"} | ({"ac"} if "--rule" in op["argvs"][0] else set())
        if not needed <= out.keys():
            return [Failure("quantify.output", f"missing fields in {out}")]
        failures = []
        t = out["threshold"]
        flagged = self.train > t
        n_pos = int(np.count_nonzero(self.train_pos))
        ref = {
            "tpr": int(np.count_nonzero(flagged & self.train_pos)) / n_pos,
            "fpr": int(np.count_nonzero(flagged & ~self.train_pos)) / (self.train.size - n_pos),
            "cc": int(np.count_nonzero(self.target > t)) / self.target.size,
        }
        for key, value in ref.items():
            if not _close(out[key], value, 1e-12):
                failures.append(Failure(f"quantify.{key}", f"{out[key]!r} != recount {value!r}"))
        if "ac" in out:
            ac = (ref["cc"] - ref["fpr"]) / (ref["tpr"] - ref["fpr"])
            if not _close(out["ac"], ac, 1e-9):
                failures.append(Failure("quantify.ac", f"{out['ac']!r} != {ac!r}"))
        argv = op["argvs"][0]
        if "--threshold" in argv and t != self.threshold:
            failures.append(Failure("quantify.threshold", f"{t!r} != {self.threshold!r}"))
        if "locally-best" in argv:
            ref_t = self._fitted_locally_best()
            if not _close(t, ref_t, 1e-8 * self._fit()[2]):
                failures.append(Failure("quantify.locally_best", f"{t!r} != {ref_t!r}"))
        return failures

    def _fit(self) -> tuple[float, float, float, float]:
        pos, neg = self.train[self.train_pos], self.train[~self.train_pos]
        nu, mu = float(np.mean(pos)), float(np.mean(neg))
        ss = float(np.sum((pos - nu) ** 2)) + float(np.sum((neg - mu) ** 2))
        return mu, nu, math.sqrt(ss / (self.train.size - 2)), pos.size / self.train.size

    def _fitted_locally_best(self) -> float:
        mu, nu, sigma, p = self._fit()
        z = brentq(lambda z: _upper_mass_z(z, (nu - mu) / sigma, p) - p, -40.0, 40.0,
                   xtol=1e-14)
        return mu + sigma * z


def _parse_fields(text: str) -> dict[str, float]:
    out = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


# ------------------------------------------------------------------ model-sweep

def _upper_mass_z(z: float, d: float, p: float) -> float:
    """Predicted-positive mass of the cut-point z in the standardized frame."""
    return p * ndtr(d - z) + (1.0 - p) * ndtr(-z)


def _lhs(design: np.random.Generator, jitter: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """Latin hypercube sample: each column has one point in each of n strata.

    ``design`` pairs the strata across columns and ``jitter`` places the
    points inside their strata.
    """
    strata = np.stack([design.permutation(n) for _ in range(dims)], axis=1)
    return (strata + jitter.random((n, dims))) / n


class ModelSweep:
    """``optimize``, ``figure-qcurve`` and ``figure-error`` for one model per operation.

    Models come in blocks of eight: the README default, the same model at
    sigma = 1e-9, and six Latin-hypercube draws over log sigma in [-9, 6],
    log |offset| in [-3, 6] with a random sign, d in [0.25, 6] and p in
    [0.01, 0.99].  Which strata are paired in the k-th block is the same for
    every seed; the seed places the models inside their strata.  That keeps
    the mix of cheap and expensive models nearly the same from seed to seed.

    A run cycles through a few blocks and runs every model at least once,
    so ``attempted`` and ``failed`` (which count distinct models) depend on
    the seed alone.  The known defects fail on a share of the models, and
    two runs with the same seed must report the same count.

    One model is one operation for ``attempted`` and ``failed``, but
    ``op_p50_s`` times whole blocks: a model either takes the cheap path or
    runs its bisections to the 200-step cap, the two kinds come near half and
    half, and so the median of single models jumps between the two modes
    from seed to seed.
    """

    name = "model-sweep"
    item = "model"
    BLOCK = 8
    latency_group = BLOCK

    def __init__(self, seed: int, workdir: str, blocks: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.models: list[tuple[float, float, float, float]] = []
        for _ in range(blocks):
            self.models += [DEFAULT_MODEL, TINY_SIGMA_MODEL]
            design = np.random.default_rng([len(self.models), 2])
            for u in _lhs(design, rng, self.BLOCK - 2, 5):
                sigma = 10.0 ** (-9.0 + 15.0 * float(u[0]))
                offset = (1.0 if u[4] < 0.5 else -1.0) * 10.0 ** (-3.0 + 9.0 * float(u[1]))
                d = 0.25 + 5.75 * float(u[2])
                p = 0.01 + 0.98 * float(u[3])
                self.models.append((offset, offset + d * sigma, sigma, p))
        self.ops = []
        for i, (mu, nu, sigma, p) in enumerate(self.models):
            flags = ["--mu", repr(mu), "--nu", repr(nu), "--sigma", repr(sigma), "--p", repr(p)]
            argvs = [[cmd] + flags + ["--out", os.path.join(workdir, f"{cmd}-{i}.csv")]
                     for cmd in ("optimize", "figure-qcurve", "figure-error")]
            self.ops.append({"kind": "cli", "argvs": argvs, "items": 1, "model": i})
        self.inputs = {"models": len(self.models)}
        self.min_ops = len(self.ops)
        self.trace_ops = self.BLOCK

    def check(self, op: dict, record: dict) -> list[Failure]:
        mu, nu, sigma, p = self.models[op["model"]]
        paths = [argv[-1] for argv in op["argvs"]]
        try:
            rows = _read_named_rows(paths[0])
            qcurve = _read_numeric(paths[1])
            error = _read_numeric(paths[2])
        except (OSError, ValueError) as exc:
            return [Failure("sweep.output", str(exc))]
        return check_optimize_rows(mu, nu, sigma, p, rows) + _check_figures(rows, qcurve, error)


def _read_named_rows(path: str) -> dict[str, tuple[float, ...]]:
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("name,"):
                continue
            name, *values = line.strip().split(",")
            rows[name] = tuple(float(v) for v in values)
    return rows


def _read_numeric(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


OPTIMIZE_ROWS = ("bayes", "minimax", "locally_best", "q_optimal_beta=1", "q_optimal_beta=2",
                 "f_optimal_beta=1", "f_optimal_beta=2")


def check_optimize_rows(mu: float, nu: float, sigma: float, p: float,
                        rows: dict[str, tuple[float, ...]]) -> list[Failure]:
    """Re-check ``optimize`` rows (threshold, u_star, tpr, fpr, objective) in the z-frame."""
    if set(rows) != set(OPTIMIZE_ROWS):
        return [Failure("optimize.rows", f"rows {sorted(rows)}")]
    d = (nu - mu) / sigma
    failures = []

    def z_of(t: float) -> float:
        return (t - mu) / sigma

    def mass(t: float) -> float:
        return _upper_mass_z(z_of(t), d, p)

    for name, (t, u_star, tpr, fpr, _) in rows.items():
        for what, value, f in (("mass", u_star, mass),
                               ("tpr", tpr, lambda x: ndtr(d - z_of(x))),
                               ("fpr", fpr, lambda x: ndtr(-z_of(x)))):
            if not (_close(f(t), value, 1e-12) or _bracketed(f, t, value)):
                failures.append(Failure(f"{name}.{what}", f"{value!r} vs {float(f(t))!r} at t={t!r}"))

    t_lb = rows["locally_best"][0]
    if not (_close(mass(t_lb), p, 1e-10) or _bracketed(mass, t_lb, p)):
        z_ref = brentq(lambda z: _upper_mass_z(z, d, p) - p, -40.0, 40.0 + d, xtol=1e-15)
        failures.append(Failure("locally_best.calibration",
                                f"mass {float(mass(t_lb)) - p:+.2e} off p, z off by {z_of(t_lb) - z_ref:+.2e}"))

    t_mm = rows["minimax"][0]
    midpoint = mu + sigma * (0.5 * d)
    if not (_close(z_of(t_mm), 0.5 * d, 1e-12) or _bracketed(lambda x: x, t_mm, midpoint)):
        failures.append(Failure("minimax.midpoint", f"t={t_mm!r}, midpoint {midpoint!r}"))

    z_bayes = 0.5 * d + math.log((1.0 - p) / p) / d
    t_bayes = rows["bayes"][0]
    if not (_close(z_of(t_bayes), z_bayes, 1e-8) or _bracketed(lambda x: x, t_bayes, mu + sigma * z_bayes)):
        failures.append(Failure("bayes.closed_form", f"z={z_of(t_bayes)!r}, closed form {z_bayes!r}"))
    return failures


def _check_figures(rows, qcurve: np.ndarray, error: np.ndarray) -> list[Failure]:
    failures = []
    grid = 1001
    if qcurve.shape not in ((grid, 3), (grid + 1, 3)) or not np.all((qcurve >= 0) & (qcurve <= 1)):
        failures.append(Failure("figure-qcurve.shape", f"shape {qcurve.shape} or values outside [0, 1]"))
    if error.shape != (grid, 4):
        return failures + [Failure("figure-error.shape", f"shape {error.shape}")]
    w = error[:, 0]
    for column, name in ((1, "q_optimal_beta=1"), (2, "minimax"), (3, "locally_best")):
        tpr, fpr = rows[name][2], rows[name][3]
        expected = np.abs(w - (w * (tpr - fpr) + fpr))
        if not np.allclose(error[:, column], expected, rtol=0.0, atol=1e-12):
            failures.append(Failure("figure-error.values", f"column {name} off its rates"))
    return failures


# --------------------------------------------------------------- mc-prior-shift

class McPriorShift:
    """The Monte Carlo prior-shift study, one replicate per operation.

    A replicate draws a training sample, fits the model, builds the
    locally-best, minimax and Q-optimal rules, estimates their rates and runs
    ``quantify_sample`` on a fresh target sample at each of four shifted
    priors, one per quarter of (0, 1).
    """

    name = "mc-prior-shift"
    item = "score drawn"
    latency_group = 1
    PRIORS = 4
    SE_BOUND = 6.0  # accepted distance of ac from the true prior, in standard errors

    def __init__(self, seed: int, workdir: str, n: int, replicates: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        for _ in range(replicates):
            mu = float(rng.uniform(-1.0, 1.0))
            sigma = float(rng.uniform(0.5, 2.0))
            nu = mu + float(rng.uniform(1.0, 3.0)) * sigma
            priors = ((np.arange(self.PRIORS) + rng.uniform(0.2, 0.8, self.PRIORS)) / self.PRIORS).tolist()
            seeds = rng.integers(0, 2**63, size=1 + self.PRIORS).tolist()
            self.ops.append({"kind": "mc", "mu": mu, "nu": nu, "sigma": sigma,
                             "p": float(rng.uniform(0.2, 0.5)), "n": n, "train_seed": seeds[0],
                             "priors": priors, "target_seeds": seeds[1:],
                             "items": n * (1 + self.PRIORS)})
        self.inputs = {"replicates": replicates, "n": n}
        self.min_ops = 1
        self.trace_ops = 2

    def check(self, op: dict, record: dict) -> list[Failure]:
        mu, nu, sigma, p, n = op["mu"], op["nu"], op["sigma"], op["p"], op["n"]
        failures = []
        if len(record["estimates"]) != 3 * self.PRIORS:
            failures.append(Failure("mc.estimates", f"{len(record['estimates'])} estimates"))
        for est in record["estimates"]:
            t = record["rules"][est["rule"]]["threshold"]
            tpr, fpr = ndtr((nu - t) / sigma), ndtr((mu - t) / sigma)
            w = est["w"]
            flagged = w * tpr + (1.0 - w) * fpr
            variance = (flagged * (1.0 - flagged) / est["n_target"]
                        + w * w * tpr * (1.0 - tpr) / (n * p)
                        + (1.0 - w) ** 2 * fpr * (1.0 - fpr) / (n * (1.0 - p))) / (tpr - fpr) ** 2
            bound = self.SE_BOUND * math.sqrt(variance)
            if not abs(est["ac"] - w) <= bound:
                failures.append(Failure("mc.ac", f"{est['rule']} ac={est['ac']!r} w={w!r} bound={bound:.2e}"))
        return failures


# ------------------------------------------------------------------- oracle-enum

class OracleEnum:
    """``binquant oracle --max-atoms 20 --trials 1`` with seeds from the workload seed.

    The CLI draws a trial's atom count as ``default_rng(seed).integers(2, 21)``.
    Seeds are picked so that each cycle of 19 commands covers every atom count
    from 2 to 20 once, in a seeded order: the distribution of sizes the CLI
    draws itself, without the run-to-run swing in how many 20-atom
    populations (each about 2^20 subsets) a run happens to get.
    """

    name = "oracle-enum"
    item = "oracle check"
    latency_group = 1
    MAX_ATOMS = 20
    CHECKS_PER_TRIAL = 12

    def __init__(self, seed: int, workdir: str, cycles: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.ops = []
        for _ in range(cycles):
            for n_atoms in rng.permutation(np.arange(2, self.MAX_ATOMS + 1)).tolist():
                while True:
                    cli_seed = int(rng.integers(0, 2**31))
                    if int(np.random.default_rng(cli_seed).integers(2, self.MAX_ATOMS + 1)) == n_atoms:
                        break
                argv = ["oracle", "--max-atoms", str(self.MAX_ATOMS), "--trials", "1",
                        "--seed", str(cli_seed)]
                self.ops.append({"kind": "cli", "argvs": [argv], "items": self.CHECKS_PER_TRIAL})
        self.inputs = {"commands": len(self.ops)}
        self.min_ops = 1
        self.trace_ops = 2 * (self.MAX_ATOMS - 1)

    def check(self, op: dict, record: dict) -> list[Failure]:
        last = record["outputs"][0]["stdout"].strip().splitlines()[-1:]
        expected = f"oracle: checks={self.CHECKS_PER_TRIAL} violations=0"
        if last != [expected]:
            return [Failure("oracle.summary", f"last line {last!r}, expected {expected!r}")]
        return []


# Sizes per workload: the full benchmark, and a tiny one for the self-test.
SIZES = {
    "full": {"quantify-files": {"rows": 1_000_000}, "model-sweep": {"blocks": 4},
             "mc-prior-shift": {"n": 100_000, "replicates": 200}, "oracle-enum": {"cycles": 40}},
    "tiny": {"quantify-files": {"rows": 2000}, "model-sweep": {"blocks": 2},
             "mc-prior-shift": {"n": 2000, "replicates": 3}, "oracle-enum": {"cycles": 1}},
}
WORKLOADS = {cls.name: cls for cls in (QuantifyFiles, ModelSweep, McPriorShift, OracleEnum)}


def make(name: str, seed: int, workdir: str, size: str = "full"):
    return WORKLOADS[name](seed, workdir, **SIZES[size][name])
