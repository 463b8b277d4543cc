"""Self-test of the benchmark harness, at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. Every workload runs each operation once; its checks must pass apart from
   the known defects, and each perturbed copy of a result must register a
   failure of the expected check, so the correctness gate cannot pass
   vacuously.
2. run.py, at tiny sizes with ``--trace 0`` and ``--trace 1``, must print
   every metric that BENCHMARK.json names, with its unit.
3. run.py started in a directory without binquant's sources must exit
   non-zero without printing a result.

Exits 0 when everything holds and prints each problem otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        PROBLEMS.append(message)


def _failed_checks(workload, record: dict) -> set[str]:
    _, _, lines, _ = run.check_records(workload, [record])
    return {line.split(": ")[1] for line in lines}


def _replace_stdout(record: dict, old: str, new: str) -> dict:
    out = copy.deepcopy(record)
    text = out["outputs"][0]["stdout"]
    assert old in text, (old, text)
    out["outputs"][0]["stdout"] = text.replace(old, new, 1)
    return out


def _field(text: str, key: str) -> str:
    return next(tok for tok in text.split() if tok.startswith(key + "=")).split("=", 1)[1]


def _bump(value: str, delta: float) -> str:
    return repr(float(value) + delta)


def perturb_quantify(workload, records) -> None:
    for record in records:
        text = record["outputs"][0]["stdout"]
        for key in ("tpr", "fpr", "cc"):
            value = _field(text, key)
            bad = _replace_stdout(record, f"{key}={value}", f"{key}={_bump(value, 1e-6)}")
            expect(f"quantify.{key}" in _failed_checks(workload, bad), f"quantify: {key} + 1e-6 passed")
        if "ac=" in text:
            value = _field(text, "ac")
            bad = _replace_stdout(record, f"ac={value}", f"ac={_bump(value, 1e-6)}")
            expect("quantify.ac" in _failed_checks(workload, bad), "quantify: ac + 1e-6 passed")
    lb = next(r for r in records if "locally-best" in workload.ops[r["index"]]["argvs"][0])
    value = _field(lb["outputs"][0]["stdout"], "threshold")
    bad = _replace_stdout(lb, f"threshold={value}", f"threshold={_bump(value, 1e-3)}")
    expect("quantify.locally_best" in _failed_checks(workload, bad),
           "quantify: shifted locally-best threshold passed")


def perturb_sweep(workload, records) -> None:
    record = records[0]  # the README default model, which passes every check
    path = workload.ops[record["index"]]["argvs"][0][-1]
    with open(path, encoding="utf-8") as handle:
        original = handle.read()
    cases = [  # (row, column, delta, the check that must fail)
        ("bayes", 0, 1e-6, "bayes.closed_form"),
        ("minimax", 0, 1e-9, "minimax.midpoint"),
        ("locally_best", 1, 1e-9, "locally_best.mass"),
        ("locally_best", 0, 1e-6, "locally_best.calibration"),
        ("q_optimal_beta=1", 2, 1e-9, "q_optimal_beta=1.tpr"),
        ("f_optimal_beta=2", 3, 1e-9, "f_optimal_beta=2.fpr"),
        ("minimax", 2, 1e-6, "figure-error.values"),
    ]
    try:
        for row, column, delta, check in cases:
            lines = original.splitlines()
            for i, line in enumerate(lines):
                fields = line.split(",")
                if fields[0] == row:
                    fields[1 + column] = repr(float(fields[1 + column]) + delta)
                    lines[i] = ",".join(fields)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            expect(check in _failed_checks(workload, record), f"model-sweep: {row} column {column} passed")
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(original)
    expect(not _failed_checks(workload, record), "model-sweep: restored default model fails")


def perturb_mc(workload, records) -> None:
    for delta in (0.5, -0.5):
        bad = copy.deepcopy(records[0])
        bad["estimates"][0]["ac"] += delta
        expect("mc.ac" in _failed_checks(workload, bad), f"mc-prior-shift: ac {delta:+} passed")
    bad = copy.deepcopy(records[0])
    bad["estimates"].pop()
    expect("mc.estimates" in _failed_checks(workload, bad), "mc-prior-shift: missing estimate passed")


def perturb_oracle(workload, records) -> None:
    for old, new in (("violations=0", "violations=1"), ("checks=12", "checks=11")):
        bad = _replace_stdout(records[0], old, new)
        expect("oracle.summary" in _failed_checks(workload, bad), f"oracle-enum: {new} passed")


PERTURB = {"quantify-files": perturb_quantify, "model-sweep": perturb_sweep,
           "mc-prior-shift": perturb_mc, "oracle-enum": perturb_oracle}


def check_gate(root: str, out_dir: str) -> None:
    env = run.child_env(root)
    for name, perturb in PERTURB.items():
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=out_dir)
        try:
            workload = workloads.make(name, 7, workdir, "tiny")
            records = run.execute(root, env, workload, workdir, None, 0, "")["records"]
            expect(len(records) == len(workload.ops), f"{name}: {len(records)} records")
            _, _, lines, all_known = run.check_records(workload, records)
            expect(all_known, f"{name}: unexpected failures {lines[:3]}")
            perturb(workload, records)
            crashed = dict(copy.deepcopy(records[0]), rc=None, error="Traceback")
            expect(_failed_checks(workload, crashed) == {"op.exit"}, f"{name}: raising op passed")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_metric_names(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name in workloads.WORKLOADS:
        for trace, units in wanted.items():
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                   "--seed", "3", "--seconds", "1", "--trace", str(trace),
                                   "--size", "tiny"], capture_output=True, text=True, cwd=root)
            if proc.returncode != 0:
                PROBLEMS.append(f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result keys {sorted(result)}")
            expect(result["correct"] and result["attempted"] >= 1, f"{name} trace {trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace {trace}: metrics differ: "
                                 f"{sorted(set(got.items()) ^ set(units.items()))}")


def check_refuses_without_sources(root: str, out_dir: str) -> None:
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-enum",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=170)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    check_gate(root, out_dir)
    check_metric_names(root)
    check_refuses_without_sources(root, out_dir)
    for problem in PROBLEMS:
        print(f"FAIL: {problem}")
    print("selftest: " + ("ok" if not PROBLEMS else f"{len(PROBLEMS)} problems"))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
