"""Child process of the benchmark: runs one workload's operations and times them.

Usage: python worker.py PLAN.json RESULT.json

The plan (written by run.py) gives the source directory binquant must be
imported from (run.py puts it on PYTHONPATH), the operations in order, how
many seconds to keep cycling through them, and whether to trace.  Each operation calls
``binquant.cli.main`` or the public module functions in-process, one at a
time.  The worker only records raw outputs and latencies; run.py checks them
after the worker has exited, so that the worker's peak memory is the
program's and not the checker's.

With tracing on, the worker first runs the trace operations untraced, then
installs the wrappers of tracing.py and runs the same operations again; the
difference between the two wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cli(argv: list[str]) -> dict:
    from binquant import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": err.getvalue()}


def run_cli_ops(op: dict) -> dict:
    """One or more CLI commands run back to back as one operation."""
    outs = [_cli(argv) for argv in op["argvs"]]
    return {"rc": max(o["rc"] for o in outs), "outputs": outs}


def run_mc_replicate(op: dict) -> dict:
    """One replicate of the Monte Carlo prior-shift study, through the library."""
    from binquant.binormal import BinormalModel
    from binquant.empirical import (
        ScoreSample, estimate_rates, fit_binormal, quantify_sample, sample_binormal,
    )
    from binquant.metrics import QConfig
    from binquant.quantifiers import (
        locally_best_classifier, minimax_classifier, q_optimal_classifier,
    )

    mu, nu, sigma = op["mu"], op["nu"], op["sigma"]
    n = op["n"]
    train = sample_binormal(BinormalModel(mu=mu, nu=nu, sigma=sigma, p=op["p"]), n, op["train_seed"])
    fitted = fit_binormal(train)
    rules = {
        "locally_best": locally_best_classifier(fitted).classifier,
        "minimax": minimax_classifier(fitted).classifier,
        "q_optimal": q_optimal_classifier(fitted, QConfig(beta=1.0)).classifier,
    }
    rates = {name: estimate_rates(train, clf) for name, clf in rules.items()}
    estimates = []
    for w, seed in zip(op["priors"], op["target_seeds"]):
        drawn = sample_binormal(BinormalModel(mu=mu, nu=nu, sigma=sigma, p=w), n, seed)
        target = ScoreSample(scores=drawn.scores())
        for name, clf in rules.items():
            est = quantify_sample(target, clf, rates[name])
            estimates.append({"rule": name, "w": w, "n_target": target.n,
                              "cc": est.cc, "ac": est.ac})
    return {
        "rc": 0,
        "rules": {name: {"threshold": clf.threshold, "tpr": rates[name].tpr,
                         "fpr": rates[name].fpr} for name, clf in rules.items()},
        "estimates": estimates,
    }


RUNNERS = {"cli": run_cli_ops, "mc": run_mc_replicate}


def _run(op: dict) -> dict:
    try:
        return RUNNERS[op["kind"]](op)
    except Exception:  # a raising operation is counted as failed and the run goes on
        return {"rc": None, "error": traceback.format_exc(limit=3)}


def _run_ops(ops: list[dict], seconds: float | None, group: int = 1, min_ops: int = 0,
             tracer=None) -> tuple[list[dict], float]:
    """Run ops in order and return their records and the wall time.

    With ``seconds`` the ops cycle until that time is up, at least
    ``min_ops`` ops have run and a whole group of ``group`` ops is done;
    without it each op runs once.
    """
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        if seconds is None:
            if i == len(ops):
                break
        elif i % group == 0 and i >= min_ops and time.perf_counter() - start >= seconds:
            break
        op = ops[i % len(ops)]
        span = tracer.begin(0) if tracer else None  # name 0 is the "op" span
        t0 = time.perf_counter()
        out = _run(op)
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        records.append({"index": i % len(ops), "latency_s": latency, "items": op["items"], **out})
        i += 1
    return records, time.perf_counter() - start


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    import binquant.cli  # noqa: F401  (the import every operation relies on)

    expected = os.path.join(plan["src"], "binquant")
    if os.path.dirname(os.path.abspath(binquant.cli.__file__)) != os.path.abspath(expected):
        print(f"binquant imported from {binquant.cli.__file__}, not {expected}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    result: dict = {"versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                                 "scipy": scipy.__version__}}
    ops = plan["ops"]
    if plan["trace"]:
        from tracing import Tracer

        trace_ops = ops[: plan["trace_ops"]]
        _, result["untraced_wall_s"] = _run_ops(trace_ops, None)
        tracer = Tracer()
        tracer.install()
        records, result["traced_wall_s"] = _run_ops(trace_ops, None, tracer=tracer)
        result["layers"] = tracer.layer_metrics()
        tracer.write(plan["spans_path"])
    else:
        records, _ = _run_ops(ops, plan["seconds"], plan["group"], plan["min_ops"])
    result["records"] = records
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
