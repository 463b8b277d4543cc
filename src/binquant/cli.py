"""Command-line interface.

Subcommands::

    figure-qcurve   Q measure of mass-u cut-points over a u grid (CSV)
    figure-error    counting error of three classifiers over a prior grid (CSV)
    optimize        table of optimal cut-points under the model
    quantify        prevalence estimates for score files
    oracle          randomized enumeration checks on discrete populations

Exit codes: 0 success, 1 usage error, 2 data error (unreadable, unwritable
or malformed files, degenerate rates, an arithmetic fault), 3 oracle
violation.  Every command is deterministic given its flags; CSV artifacts
start with a ``#`` comment recording the parameters that produced them.
A negative value in e-notation needs the ``=`` form: ``--mu=-1e-3``, not
``--mu -1e-3``, which is read as an option.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .binormal import BinormalModel, ModelFieldError, ThresholdClassifier
from .discrete_oracle import MAX_ATOMS, check_population, random_population
from .empirical import (
    _write_csv,
    classify_and_count,
    estimate_rates,
    fit_binormal,
    quantify_sample,
    read_train_and_target,
)
from .metrics import CostParams, NasVariant, QConfig, _check_beta, prediction_error
from .quantifiers import (
    DegenerateCostError,
    _q_measures_of_mass,
    bayes_classifier,
    f_optimal_classifier,
    locally_best_classifier,
    minimax_classifier,
    q_optimal_classifier,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3

_NAS_DEFAULT = NasVariant.NAS_STAR.value

_BETAS_HELP = "measure weight, repeatable (default 1 and 2)"

# The --rule cut-points in order: figure-error column, flags beyond the model's that set
# the cut, and constructor of (model, QConfig).  Each lambda looks its constructor up at
# call time, so a wrapper set on this module's names (perfbench/tracing.py) sees each call.
_RULES = {
    "minimax": ("err_minimax", "", lambda model, config: minimax_classifier(model)),
    "locally-best": ("err_locallybest", "", lambda model, config: locally_best_classifier(model)),
    "q-optimal": ("err_qopt", "/--beta", lambda model, config: q_optimal_classifier(model, config)),
}


class _UsageError(Exception):
    """Bad flag values or flag combinations."""


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


def _add_shared_flags(parser: argparse.ArgumentParser, beta_help: str) -> None:
    parser.add_argument("--beta", type=float, action="append", metavar="B", help=beta_help)
    parser.add_argument("--nas", choices=[v.value for v in NasVariant], default=_NAS_DEFAULT,
                        help="calibration score used in Q (default %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output file (default: stdout)")


def _from_flags(flags: str, build, *args):
    """``build(*args)``, or a usage error led by ``flags`` where it raises ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _UsageError(f"{flags}: {exc}") from exc


def _cut(what: str, flags: str, build, *args):
    """``build(*args)``, or a usage error naming the flags that set the cut of ``what``."""
    return _from_flags(f"--mu/--nu/--sigma/--p{flags}: cannot build the {what}", build, *args)


def _betas(args: argparse.Namespace, default: tuple[float, ...]) -> tuple[float, ...]:
    betas = tuple(args.beta) if args.beta else default
    for beta in betas:
        _from_flags("--beta", _check_beta, beta)
    return betas


def _model(args: argparse.Namespace) -> BinormalModel:
    try:
        return BinormalModel(mu=args.mu, nu=args.nu, sigma=args.sigma, p=args.p)
    except ModelFieldError as exc:
        flags = "/".join(f"--{field}" for field in exc.fields)
        raise _UsageError(f"{flags}: {exc}") from exc


def _grid(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    return args.grid


def _fmt_float(value: float) -> str:
    """``value`` as ``:g`` text where that reads back as ``value``, else as its ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _fmt_betas(betas: tuple[float, ...]) -> str:
    return ",".join(map(_fmt_float, betas))


def _comment(command: str, model: BinormalModel, betas: tuple[float, ...],
             nas_variant: NasVariant) -> str:
    """Provenance comment of an analytic command's CSV artifact."""
    return (f"binquant {command} mu={_fmt_float(model.mu)} nu={_fmt_float(model.nu)} "
            f"sigma={_fmt_float(model.sigma)} p={_fmt_float(model.p)} "
            f"beta={_fmt_betas(betas)} nas={nas_variant.value}")


def _cmd_figure_qcurve(args: argparse.Namespace) -> int:
    betas, model, nas_variant = _betas(args, (1.0, 2.0)), _model(args), NasVariant(args.nas)
    grid = _grid(args)
    u = np.linspace(0.0, 1.0, grid)
    if not np.any(u == model.p):
        u = np.sort(np.append(u, model.p))
    header = ["u", *(f"q_beta_{_fmt_float(beta)}" for beta in betas)]
    columns = [u, *_q_measures_of_mass(model, u, betas, nas_variant)]
    comment = f"{_comment('figure-qcurve', model, betas, nas_variant)} grid={grid}"
    _write_csv(args.out, comment, header, columns)
    return EXIT_OK


def _cmd_figure_error(args: argparse.Namespace) -> int:
    betas, model, nas_variant = _betas(args, (1.0,)), _model(args), NasVariant(args.nas)
    if len(betas) > 1:
        raise _UsageError(f"figure-error takes one --beta, got {len(betas)}")
    grid = _grid(args)
    config = QConfig(beta=betas[0], nas_variant=nas_variant)
    *others, q_opt = _RULES.values()
    cuts = [q_opt, *others]  # q-optimal comes first
    w = np.linspace(0.0, 1.0, grid)
    header = ["w", *(name for name, _, _ in cuts)]
    columns = [w, *(prediction_error(_cut(f"{name} column", flags, rule, model, config).rates, w)
                    for name, flags, rule in cuts)]
    comment = f"{_comment('figure-error', model, betas, nas_variant)} grid={grid}"
    _write_csv(args.out, comment, header, columns)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    betas, model, nas_variant = _betas(args, (1.0, 2.0)), _model(args), NasVariant(args.nas)
    cost = _from_flags("--cost-fn/--cost-fp", CostParams, args.cost_fn, args.cost_fp)
    try:
        bayes = bayes_classifier(model, cost)
    except DegenerateCostError as exc:  # a free miss or false alarm has no cut-point
        raise _UsageError(f"--cost-fn/--cost-fp: {exc}") from exc
    except ValueError as exc:  # a cut-point beyond the float range, set by model and costs
        raise _UsageError("--mu/--nu/--sigma/--p/--cost-fn/--cost-fp: "
                          f"cannot build the cost-optimal classifier: {exc}") from exc

    solvers = {"q_optimal": lambda b: q_optimal_classifier(model, QConfig(b, nas_variant)),
               "f_optimal": lambda b: f_optimal_classifier(model, b)}
    builds = [("minimax", "", minimax_classifier, model),
              ("locally_best", "", locally_best_classifier, model),
              *((f"{kind}_beta={_fmt_float(b)}", "/--beta", solve, b)
                for kind, solve in solvers.items() for b in betas)]
    named = [("bayes", bayes), *((name, _cut(f"{name} row", flags, build, arg))
                                 for name, flags, build, arg in builds)]
    rows = [(name, opt.classifier.threshold, opt.u_star, opt.rates.tpr, opt.rates.fpr,
             opt.objective_value) for name, opt in named]

    header = ["name", "threshold", "u_star", "tpr", "fpr", "objective"]
    if args.out is not None:
        comment = (f"{_comment('optimize', model, betas, nas_variant)} "
                   f"cost-fn={_fmt_float(args.cost_fn)} cost-fp={_fmt_float(args.cost_fp)}")
        _write_csv(args.out, comment, header, list(zip(*rows)))
    else:
        print(_table_line(header[0], (f"{h:>14}" for h in header[1:])))
        for name, *values in rows:
            print(_table_line(name, (f"{v:>14.6f}" for v in values)))
    return EXIT_OK


def _table_line(name: str, cells) -> str:
    """A row of the optimize table: the name padded to 22 characters, then the cells,
    each led by one space where it would otherwise touch the text before it."""
    line = f"{name:<22}"
    for cell in cells:
        line += cell if line[-1] == " " or cell[0] == " " else f" {cell}"
    return line


def _cmd_quantify(args: argparse.Namespace) -> int:
    if (args.threshold is None) == (args.rule is None):
        raise _UsageError("provide exactly one of --threshold or --rule")
    betas = _betas(args, (1.0,))
    if args.rule != "q-optimal" and (args.beta or args.nas is not None):
        used = "--threshold" if args.rule is None else f"--rule {args.rule}"
        raise _UsageError(f"give neither --beta nor --nas with {used} "
                          "(they set the measure of --rule q-optimal)")
    if len(betas) > 1:
        raise _UsageError(f"--rule q-optimal takes one --beta, got {len(betas)}")
    given = [v is not None for v in (args.mu, args.nu, args.sigma, args.p)]
    if args.rule is not None:
        _, flags, rule = _RULES[args.rule]
        config = QConfig(beta=betas[0], nas_variant=NasVariant(args.nas or _NAS_DEFAULT))
    if args.threshold is not None:
        if any(given):
            raise _UsageError("give none of --mu/--nu/--sigma/--p with --threshold "
                              "(they set the model of --rule)")
        classifier = _from_flags("--threshold", ThresholdClassifier, args.threshold)
    elif all(given):
        classifier = _cut(f"--rule {args.rule} cut", flags, rule, _model(args), config).classifier
    elif any(given):
        raise _UsageError("give all of --mu/--nu/--sigma/--p or none (to fit from the train file)")

    train, target = read_train_and_target(args.train, args.target)

    if not any(given) and args.rule is not None:  # a model fitted from the train file
        classifier = rule(fit_binormal(train), config).classifier

    rates = estimate_rates(train, classifier)
    print(f"threshold={classifier.threshold!r}")
    print(f"tpr={rates.tpr!r} fpr={rates.fpr!r} (estimated from {args.train})")
    if args.method == "cc":
        print(f"cc={classify_and_count(target, classifier)!r}")
    else:  # adjusted before the cc line, so that a DegenerateClassifierError prints no cc
        estimate = quantify_sample(target, classifier, rates)
        print(f"cc={estimate.cc!r}")
        print(f"ac={estimate.ac!r} ac_clamped={estimate.ac_clamped!r}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    if not (2 <= args.max_atoms <= MAX_ATOMS):
        raise _UsageError(f"--max-atoms must lie in [2, {MAX_ATOMS}], got {args.max_atoms}")
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise _UsageError("--seed must be at least 0")
    betas = _betas(args, (0.5, 1.0, 2.0))

    rng = np.random.default_rng(args.seed)
    checks = 0
    violations: list[str] = []
    for trial in range(args.trials):
        n_atoms = int(rng.integers(2, args.max_atoms + 1))
        for kind, tied in (("distinct", False), ("tied", True)):
            try:
                population = random_population(rng, n_atoms, tied=tied)
            except RuntimeError as exc:  # the draw gave up on separating posteriors
                raise ValueError(f"trial {trial}: {exc}") from exc
            fn_cost, fp_cost = (float(v) for v in rng.uniform(0.05, 2.0, size=2))
            cost = CostParams(fn_cost=fn_cost, fp_cost=fp_cost)
            ratio = cost.posterior_cutoff
            cut_below = ratio * float(rng.uniform(0.05, 0.95))
            cut_above = ratio + (1.0 - ratio) * float(rng.uniform(0.05, 0.95))
            found = check_population(population, betas, cost, (cut_below, cut_above), minimax=True)
            checks += len(found.fbeta) + len(found.local_bayes) + 1  # 1 minimax check
            violations += [f"trial={trial} {kind} {line} atoms={json.dumps(population.atoms)}"
                           for line in found.failed]

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

    for name, help_text, handler, beta_help in (
        ("figure-qcurve", "Q measure over a predicted-mass grid", _cmd_figure_qcurve,
         _BETAS_HELP),
        ("figure-error", "counting error over a shifted-prior grid", _cmd_figure_error,
         "measure weight of the q-optimal rule, given at most once (default 1)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_model_flags(sub)
        _add_shared_flags(sub, beta_help)
        sub.add_argument("--grid", type=int, default=1001,
                         help="grid resolution (default %(default)s)")
        sub.set_defaults(handler=handler)

    sub = subparsers.add_parser("optimize", help="optimal cut-points under the model")
    _add_model_flags(sub)
    _add_shared_flags(sub, _BETAS_HELP)
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
    sub.add_argument("--rule", choices=_RULES, default=None,
                     help="named cut-point construction")
    _add_model_flags(sub, with_defaults=False)
    sub.add_argument("--beta", type=float, action="append", metavar="B",
                     help="measure weight for --rule q-optimal, given at most once (default 1)")
    sub.add_argument("--nas", choices=[v.value for v in NasVariant], default=None,
                     help=f"calibration score for --rule q-optimal (default {_NAS_DEFAULT})")
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
    # Any but a _UsageError is a data error.  ValueError includes CsvFormatError and
    # DegenerateClassifierError; OSError covers unreadable inputs and unwritable --out
    # paths, and names the path.  ArithmeticError is a stray overflow or division fault.
    except (_UsageError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, _UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
