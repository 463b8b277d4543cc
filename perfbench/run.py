"""binquant benchmark: times the CLI and the library from outside, per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  A run

1. with ``--trace 0``, times ``setup_s``: fresh interpreters that only
   ``import binquant.cli``, from process start to exit, after one untimed
   warm-up; half of them run before the workload and half after it, and
   the median is reported;
2. writes the workload's inputs from ``--seed`` into a scratch directory
   inside the checkout;
3. starts worker.py in one fresh child process, which runs the operations
   one at a time (a closed loop with one caller) for ``--seconds`` seconds,
   or, with ``--trace 1``, runs one fixed cycle of them untraced and then
   traced;
4. checks every operation's output (workloads.py) and prints one JSON line:
   the end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.

Provenance (versions, thread settings, input sizes and hashes) is printed on
the line before the result and kept with the result and spans under
``.perfbench-out/`` in the checkout.  Child processes run with BLAS and
OpenMP pools pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (needs HERE on the path)
import workloads  # noqa: E402

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_REPEATS = 4  # on each side of the workload
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "items/s", "op_p50_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and waited for."""
    try:
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish within {timeout} s") from exc


def measure_setup(env: dict[str, str], warm_up: bool) -> list[float]:
    """Wall times of fresh interpreters that import binquant.cli and exit."""
    argv = [sys.executable, "-c", "import binquant.cli"]
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        start = time.perf_counter()
        proc = run_child(argv, env, 60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"import binquant.cli failed: {proc.stderr.strip()[-500:]}")
        if i or not warm_up:  # a warm-up compiles bytecode and warms the file cache
            times.append(elapsed)
    return times


def measure_import_split(env: dict[str, str]) -> dict[str, float]:
    """Median self time of numpy, scipy and binquant modules under ``-X importtime``."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "binquant": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import binquant.cli"], env, 60)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
            if match:
                package = match.group(2).split(".")[0]
                if package in totals:
                    totals[package] += int(match.group(1)) * 1e-6
        for package, value in totals.items():
            samples[package].append(value)
    return {f"import.{package}_s": statistics.median(values) for package, values in samples.items()}


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str, env: dict[str, str], workload, args, versions: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "git_sha": sha, "src_sha256": source_digest(os.path.join(root, "src")),
        **versions,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_env": {k: env.get(k) for k in THREAD_ENV},
        "item": workload.item,
        "inputs": {os.path.basename(k): v for k, v in workload.inputs.items()},
    }


def check_records(workload, records: list[dict]) -> tuple[int, int, list[str], bool]:
    """Count and check the distinct operations among the records.

    Returns how many distinct operations ran, how many of them failed (an
    operation that ran more than once fails if any of its runs fails), the
    failure lines, and whether every failure is a known defect.  Counting
    distinct operations makes ``attempted`` and ``failed`` a function of the
    seed alone for a workload whose every operation runs in each run.
    """
    failed_ops = set()
    lines = []
    all_known = True
    for record in records:
        op = workload.ops[record["index"]]
        if record.get("error") is not None or record["rc"] != 0:
            failures = [workloads.Failure("op.exit", f"rc={record['rc']} "
                                          f"{record.get('error') or _stderr(record)}")]
        else:
            failures = workload.check(op, record)
        if failures:
            all_known &= all(f.known for f in failures)
            if record["index"] not in failed_ops:
                failed_ops.add(record["index"])
                lines += [f"op {record['index']}: {f.check}: {f.detail}" for f in failures]
    return len({r["index"] for r in records}), len(failed_ops), lines, all_known


def _stderr(record: dict) -> str:
    return " ".join(o["stderr"].strip() for o in record.get("outputs", []))[-300:]


def end_to_end(setup_s: float, result: dict, records: list[dict], group: int) -> dict[str, float]:
    """End-to-end metrics; ``op_p50_s`` times complete groups of ``group`` operations."""
    latencies = [r["latency_s"] for r in records]
    grouped = [sum(latencies[i:i + group]) for i in range(0, len(latencies) - group + 1, group)]
    return {
        "setup_s": setup_s,
        "items_per_s": sum(r["items"] for r in records) / sum(latencies),
        "op_p50_s": statistics.median(grouped),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
    }


def per_layer(result: dict, import_split: dict[str, float]) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["trace.overhead_share"] = (
        (result["traced_wall_s"] - result["untraced_wall_s"]) / result["untraced_wall_s"])
    metrics.update(import_split)
    return metrics


def execute(root: str, env: dict[str, str], workload, workdir: str, seconds: float | None,
            trace: int, spans_path: str) -> dict:
    """Run the workload's operations in a fresh worker process and return its records.

    ``seconds=None`` runs every operation once.
    """
    plan = {
        "src": os.path.join(root, "src"), "ops": workload.ops, "seconds": seconds,
        "group": workload.latency_group, "min_ops": workload.min_ops, "trace": bool(trace),
        "trace_ops": workload.trace_ops,
        "spans_path": spans_path,
    }
    plan_path = os.path.join(workdir, "plan.json")
    result_path = os.path.join(workdir, "result.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = run_child([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                     env, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run(args) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "binquant", "cli.py")):
        raise BenchError(f"no binquant sources under {root}/src; run from the repository root")
    env = child_env(root)
    setup_times = [] if args.trace else measure_setup(env, warm_up=True)

    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=out_dir)
    try:
        workload = workloads.make(args.workload, args.seed, workdir, args.size)
        result = execute(root, env, workload, workdir, args.seconds, args.trace,
                         os.path.join(out_dir, f"spans-{tag}.json"))
        prov = provenance(root, env, workload, args, result["versions"])
        records = result["records"]
        attempted, failed, failure_lines, all_known = check_records(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result, measure_import_split(env))
        units = tracing.per_layer_units()
    else:
        setup_times += measure_setup(env, warm_up=False)
        metrics = end_to_end(statistics.median(setup_times), result, records,
                             workload.latency_group)
        units = END_TO_END_UNITS
    mismatched = set(units) ^ set(metrics)
    if mismatched:
        raise BenchError(f"metric names out of step with their units: {sorted(mismatched)}")

    summary = {
        "correct": bool(records) and all_known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"provenance": prov, "failures": failure_lines, "result": summary,
                   "latencies_s": [r["latency_s"] for r in records]}, handle, indent=1)
    for line in failure_lines[:20]:
        print(f"failure: {line}")
    print(f"{args.workload}: {len(records)} runs of {attempted} distinct operations "
          f"({workload.item} as the item), {failed} failed")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
