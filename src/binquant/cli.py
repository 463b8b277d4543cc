"""Command-line interface.

Subcommands::

    figure-qcurve   Q measure of mass-u cut-points over a u grid (CSV)
    figure-error    counting error of three classifiers over a prior grid (CSV)
    optimize        table of optimal cut-points under the model
    quantify        prevalence estimates for score files
    oracle          randomized enumeration checks on discrete populations

Exit codes: 0 success, 1 usage error, 2 data error (unreadable, unwritable
or malformed files, degenerate rates), 3 oracle violation.  Every command
is deterministic given its flags; CSV artifacts start with a ``#`` comment
recording the parameters that produced them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .binormal import BinormalModel, ThresholdClassifier, classifier_rates
from .discrete_oracle import (
    MAX_ATOMS,
    brute_force_fbeta_max,
    local_bayes_check,
    minimax_comparison,
    random_population,
    thresholded_fbeta_sup,
)
from .empirical import (
    CsvFormatError,
    LabeledSample,
    ScoreSample,
    _flagged_fraction,
    estimate_rates,
    fit_binormal,
    quantify_sample,
    read_labeled_csv,
    read_score_csv,
)
from .metrics import (CostParams, NasVariant, QConfig, _check_beta,
                      misclassification_cost, prediction_error, shifted_prevalence)
from .quantifiers import (
    bayes_classifier,
    f_optimal_classifier,
    locally_best_classifier,
    minimax_classifier,
    q_measure_of_mass,
    q_optimal_classifier,
)

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3

_ORACLE_TOL = 1e-12


class _UsageError(Exception):
    """Bad flag values or flag combinations."""


@dataclass(frozen=True)
class RunConfig:
    """Model and evaluation settings shared by the analytic commands."""

    model: BinormalModel
    betas: tuple[float, ...]
    nas_variant: NasVariant
    out: str | None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_model_flags(parser: argparse.ArgumentParser, with_defaults: bool = True) -> None:
    defaults = {"mu": 0.0, "nu": 2.0, "sigma": 1.0, "p": 0.25} if with_defaults else {}
    parser.add_argument("--mu", type=float, default=defaults.get("mu"),
                        help="negative-class mean (default %(default)s)")
    parser.add_argument("--nu", type=float, default=defaults.get("nu"),
                        help="positive-class mean (default %(default)s)")
    parser.add_argument("--sigma", type=float, default=defaults.get("sigma"),
                        help="common standard deviation (default %(default)s)")
    parser.add_argument("--p", type=float, default=defaults.get("p"),
                        help="positive-class prior (default %(default)s)")


def _add_shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, action="append", metavar="B",
                        help="measure weight, repeatable (default 1 and 2)")
    parser.add_argument("--nas", choices=[v.value for v in NasVariant], default="nas-star",
                        help="calibration score used in Q (default %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")


def _betas(args: argparse.Namespace, default: tuple[float, ...]) -> tuple[float, ...]:
    betas = tuple(args.beta) if args.beta else default
    try:
        for beta in betas:
            _check_beta(beta)
    except ValueError as exc:
        raise _UsageError(f"--beta: {exc}") from exc
    return betas


def _model(args: argparse.Namespace) -> BinormalModel:
    try:
        return BinormalModel(mu=args.mu, nu=args.nu, sigma=args.sigma, p=args.p)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run_config(args: argparse.Namespace) -> RunConfig:
    betas = _betas(args, (1.0, 2.0))
    return RunConfig(
        model=_model(args), betas=betas, nas_variant=NasVariant(args.nas), out=args.out
    )


def _grid(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    return args.grid


def _fmt_betas(betas: tuple[float, ...]) -> str:
    return ",".join(f"{b:g}" for b in betas)


def _comment(command: str, cfg: RunConfig, betas: tuple[float, ...]) -> str:
    """Provenance comment of an analytic command's CSV artifact."""
    m = cfg.model
    return (f"binquant {command} mu={m.mu:g} nu={m.nu:g} sigma={m.sigma:g} p={m.p:g} "
            f"beta={_fmt_betas(betas)} nas={cfg.nas_variant.value}")


def _write_csv(out: str | None, comment: str, header: list[str], rows) -> None:
    lines = [f"# {comment}", ",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else repr(float(v)) for v in row))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_figure_qcurve(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    grid = _grid(args)
    model = cfg.model
    u = np.linspace(0.0, 1.0, grid)
    if not np.any(u == model.p):
        u = np.sort(np.append(u, model.p))
    header = ["u"]
    columns: list = [u]
    for beta in cfg.betas:
        header.append(f"q_beta_{beta:g}")
        columns.append(q_measure_of_mass(model, u, beta, cfg.nas_variant))
    comment = f"{_comment('figure-qcurve', cfg, cfg.betas)} grid={grid}"
    _write_csv(cfg.out, comment, header, zip(*columns))
    return EXIT_OK


def _cmd_figure_error(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    grid = _grid(args)
    model = cfg.model
    beta = cfg.betas[0]
    q_opt = q_optimal_classifier(model, QConfig(beta=beta, nas_variant=cfg.nas_variant))
    mm = minimax_classifier(model)
    lb = locally_best_classifier(model)
    w = np.linspace(0.0, 1.0, grid)
    header = ["w", "err_qopt", "err_minimax", "err_locallybest"]
    columns = [
        w,
        prediction_error(q_opt.rates, w),
        prediction_error(mm.rates, w),
        prediction_error(lb.rates, w),
    ]
    comment = f"{_comment('figure-error', cfg, (beta,))} grid={grid}"
    _write_csv(cfg.out, comment, header, zip(*columns))
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    model = cfg.model
    try:
        cost = CostParams(fn_cost=args.cost_fn, fp_cost=args.cost_fp)
        bayes = bayes_classifier(model, cost)
    except ValueError as exc:  # degenerate or invalid costs have no cut-point
        raise _UsageError(f"cannot build the cost-optimal classifier: {exc}") from exc

    rows: list[tuple[str, float, float, float, float, float]] = []
    bayes_rates = classifier_rates(model, bayes)
    bayes_mass = shifted_prevalence(bayes_rates, model.p)
    bayes_cost = misclassification_cost(cost, bayes_rates, model.p)
    rows.append((
        "bayes", bayes.threshold, bayes_mass, bayes_rates.tpr, bayes_rates.fpr, bayes_cost,
    ))
    for name, opt in (("minimax", minimax_classifier(model)),
                      ("locally_best", locally_best_classifier(model))):
        rows.append((name, opt.classifier.threshold, opt.u_star,
                     opt.rates.tpr, opt.rates.fpr, opt.objective_value))
    for beta in cfg.betas:
        opt = q_optimal_classifier(model, QConfig(beta=beta, nas_variant=cfg.nas_variant))
        rows.append((f"q_optimal_beta={beta:g}", opt.classifier.threshold, opt.u_star,
                     opt.rates.tpr, opt.rates.fpr, opt.objective_value))
    for beta in cfg.betas:
        opt = f_optimal_classifier(model, beta)
        rows.append((f"f_optimal_beta={beta:g}", opt.classifier.threshold, opt.u_star,
                     opt.rates.tpr, opt.rates.fpr, opt.objective_value))

    header = ["name", "threshold", "u_star", "tpr", "fpr", "objective"]
    if cfg.out is not None:
        comment = (f"{_comment('optimize', cfg, cfg.betas)} "
                   f"cost-fn={args.cost_fn:g} cost-fp={args.cost_fp:g}")
        _write_csv(cfg.out, comment, header, rows)
    else:
        print(f"{header[0]:<22}" + "".join(f"{h:>14}" for h in header[1:]))
        for name, *values in rows:
            print(f"{name:<22}" + "".join(f"{v:>14.6f}" for v in values))
    return EXIT_OK


def _read_inputs(train_path: str, target_path: str) -> tuple[LabeledSample, ScoreSample]:
    """Read the train and target files of ``quantify``: the target in a forked child
    while this process reads the train file, where the platform can fork and this
    process runs one thread (forking a threaded process can deadlock).  Elsewhere, or
    when the fork fails, both are read here, one after the other.

    Either way the train file's error wins, as in a sequential read.  The child sends
    back ``(True, sample)`` or ``(False, error)`` through a pipe and never writes to
    stdout or stderr.  Any other ending of the child makes this process read the target
    itself, so the same result or error comes out.
    """
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return read_labeled_csv(train_path), read_score_csv(target_path)
    import pickle
    import signal

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return read_labeled_csv(train_path), read_score_csv(target_path)
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                reply = (True, read_score_csv(target_path))
            except (CsvFormatError, OSError) as exc:  # their texts survive pickling
                reply = (False, exc)
            with open(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)  # runs no atexit handler and flushes no inherited buffer
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            train = read_labeled_csv(train_path)
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        return train, read_score_csv(target_path)
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return train, value


def _cmd_quantify(args: argparse.Namespace) -> int:
    if (args.threshold is None) == (args.rule is None):
        raise _UsageError("provide exactly one of --threshold or --rule")
    betas = _betas(args, (1.0,))
    given = [v is not None for v in (args.mu, args.nu, args.sigma, args.p)]
    model = None
    if args.threshold is not None:
        if any(given):
            raise _UsageError("give none of --mu/--nu/--sigma/--p with --threshold "
                              "(they set the model of --rule)")
        try:
            classifier = ThresholdClassifier(args.threshold)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    elif all(given):
        model = _model(args)
    elif any(given):
        raise _UsageError("give all of --mu/--nu/--sigma/--p or none (to fit from the train file)")

    train, target = _read_inputs(args.train, args.target)

    if args.rule is not None:
        if model is None:
            model = fit_binormal(train)
        if args.rule == "minimax":
            classifier = minimax_classifier(model).classifier
        elif args.rule == "locally-best":
            classifier = locally_best_classifier(model).classifier
        else:
            config = QConfig(beta=betas[0], nas_variant=NasVariant(args.nas))
            classifier = q_optimal_classifier(model, config).classifier

    rates = estimate_rates(train, classifier)
    print(f"threshold={classifier.threshold!r}")
    print(f"tpr={rates.tpr!r} fpr={rates.fpr!r} (estimated from {args.train})")
    if args.method == "cc":
        print(f"cc={_flagged_fraction(target, classifier)!r}")
    else:
        estimate = quantify_sample(target, classifier, rates)
        print(f"cc={estimate.cc!r}")
        print(f"ac={estimate.ac!r} ac_clamped={estimate.ac_clamped!r}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not (2 <= args.max_atoms <= MAX_ATOMS):
        raise _UsageError(f"--max-atoms must lie in [2, {MAX_ATOMS}], got {args.max_atoms}")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    betas = _betas(args, (0.5, 1.0, 2.0))

    rng = np.random.default_rng(args.seed)
    checks = 0
    violations: list[str] = []

    def record(trial: int, kind: str, what: str, detail: str, atoms) -> None:
        violations.append(f"trial={trial} {kind} {what}: {detail} atoms={json.dumps(atoms)}")

    for trial in range(args.trials):
        n_atoms = int(rng.integers(2, args.max_atoms + 1))
        for tied in (False, True):
            try:
                population = random_population(rng, n_atoms, tied=tied)
            except RuntimeError as exc:  # the draw gave up on separating posteriors
                raise ValueError(f"trial {trial}: {exc}") from exc
            kind = "tied" if tied else "distinct"
            for beta in betas:
                _, brute = brute_force_fbeta_max(population, beta)
                threshold = thresholded_fbeta_sup(population, beta)
                checks += 1
                if abs(brute - threshold) > _ORACLE_TOL:
                    record(trial, kind, f"fbeta beta={beta:g}",
                           f"brute={brute!r} threshold={threshold!r}", population.atoms)
            fn_cost, fp_cost = (float(v) for v in rng.uniform(0.05, 2.0, size=2))
            cost = CostParams(fn_cost=fn_cost, fp_cost=fp_cost)
            ratio = cost.posterior_cutoff
            cut_below = ratio * float(rng.uniform(0.05, 0.95))
            cut_above = ratio + (1.0 - ratio) * float(rng.uniform(0.05, 0.95))
            for cut in (cut_below, cut_above):
                report = local_bayes_check(population, cost, cut)
                checks += 1
                if not report.holds:
                    record(trial, kind, f"local-bayes cut={cut!r}",
                           f"cut_cost={report.cut_cost!r} best={report.best_cost!r}",
                           population.atoms)
            comparison = minimax_comparison(population)
            checks += 1
            if comparison.brute_value > comparison.threshold_value + _ORACLE_TOL:
                record(trial, kind, "minimax",
                       f"brute={comparison.brute_value!r} "
                       f"threshold={comparison.threshold_value!r}", population.atoms)

    print(f"oracle: trials={args.trials} max-atoms={args.max_atoms} seed={args.seed} "
          f"beta={_fmt_betas(betas)}")
    for line in violations:
        print(f"violation: {line}")
    print(f"oracle: checks={checks} violations={len(violations)}")
    return EXIT_VIOLATION if violations else EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binquant", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler in (
        ("figure-qcurve", "Q measure over a predicted-mass grid", _cmd_figure_qcurve),
        ("figure-error", "counting error over a shifted-prior grid", _cmd_figure_error),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_model_flags(sub)
        _add_shared_flags(sub)
        sub.add_argument("--grid", type=int, default=1001,
                         help="grid resolution (default %(default)s)")
        sub.set_defaults(handler=handler)

    sub = subparsers.add_parser("optimize", help="optimal cut-points under the model")
    _add_model_flags(sub)
    _add_shared_flags(sub)
    sub.add_argument("--cost-fn", type=float, default=1.0,
                     help="false-negative cost for the bayes row (default %(default)s)")
    sub.add_argument("--cost-fp", type=float, default=1.0,
                     help="false-positive cost for the bayes row (default %(default)s)")
    sub.set_defaults(handler=_cmd_optimize)

    sub = subparsers.add_parser("quantify", help="prevalence estimates for score files")
    sub.add_argument("train", help="labeled CSV (score,label) for rates and fitting")
    sub.add_argument("target", help="unlabeled CSV (score) to quantify")
    sub.add_argument("--method", choices=["cc", "ac"], default="ac",
                     help="estimator to report (default %(default)s)")
    sub.add_argument("--threshold", type=float, default=None,
                     help="explicit cut-point")
    sub.add_argument("--rule", choices=["minimax", "locally-best", "q-optimal"], default=None,
                     help="named cut-point construction")
    _add_model_flags(sub, with_defaults=False)
    sub.add_argument("--beta", type=float, action="append", metavar="B",
                     help="measure weight for --rule q-optimal (default 1)")
    sub.add_argument("--nas", choices=[v.value for v in NasVariant], default="nas-star",
                     help="calibration score for --rule q-optimal (default %(default)s)")
    sub.set_defaults(handler=_cmd_quantify)

    sub = subparsers.add_parser("oracle", help="randomized enumeration checks")
    sub.add_argument("--trials", type=int, default=100,
                     help="number of random populations (default %(default)s)")
    sub.add_argument("--max-atoms", type=int, default=12,
                     help=f"largest population size, at most {MAX_ATOMS} (default %(default)s)")
    sub.add_argument("--seed", type=int, default=0,
                     help="random seed (default %(default)s)")
    sub.add_argument("--beta", type=float, action="append", metavar="B",
                     help="measure weights to check (default 0.5, 1 and 2)")
    sub.set_defaults(handler=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.handler(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # ValueError includes CsvFormatError and DegenerateClassifierError; OSError
    # covers unreadable inputs and unwritable --out paths, and names the path.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
