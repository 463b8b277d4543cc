"""In-memory span tracing of binquant's public functions, from outside.

``install`` replaces each traced function with a wrapper in the module that
defines it and in every binquant module that imported it by name, so calls
through ``cli``, ``quantifiers`` and ``empirical`` are seen too.  A wrapper
records one span (name, parent span, start, end, work count) per call; spans
stay in a list until ``Tracer.layer_metrics`` and ``Tracer.write`` run at the
end.  A span's self time is its duration minus the durations of its direct
children, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _levels(args, kwargs, result):
    return int(np.size(args[-1]))


def _first_arg_n(args, kwargs, result):
    return int(args[0].n)


def _result_n(args, kwargs, result):
    return int(result.n)


def _draws(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _subsets(args, kwargs, result):
    population = args[0] if args and hasattr(args[0], "n_atoms") else result
    return 1 << int(population.n_atoms)


# module -> function -> (name of its work count or None, work count of one call)
TRACED = {
    "binormal": {
        "mixture_quantile": ("levels", _levels),
        "std_normal_quantile": ("levels", _levels),
    },
    "quantifiers": {
        "q_optimal_classifier": (None, None),
        "f_optimal_classifier": (None, None),
        "locally_best_classifier": (None, None),
        "q_measure_of_mass": (None, None),
        "f_measure_of_mass": (None, None),
    },
    "metrics": {
        "nas": (None, None),
        "nas_star": (None, None),
        "shifted_prevalence": (None, None),
        "prediction_error": (None, None),
    },
    "empirical": {
        "read_labeled_csv": ("rows", _result_n),
        "read_score_csv": ("rows", _result_n),
        "sample_binormal": ("draws", _draws),
        "fit_binormal": ("rows", _first_arg_n),
        "estimate_rates": ("rows", _first_arg_n),
        "quantify_sample": ("rows", _first_arg_n),
    },
    "discrete_oracle": {
        "random_population": ("subsets", _subsets),
        "brute_force_fbeta_max": ("subsets", _subsets),
        "thresholded_fbeta_sup": ("subsets", _subsets),
        "local_bayes_check": ("subsets", _subsets),
        "minimax_comparison": ("subsets", _subsets),
    },
    "cli": {
        "main": (None, None),
    },
}

# The quantifier solves whose inner mixture_quantile calls are counted.
SOLVES = ("quantifiers.q_optimal_classifier", "quantifiers.f_optimal_classifier",
          "quantifiers.locally_best_classifier")
METRICS_FUNCTIONS = tuple(f"metrics.{name}" for name in TRACED["metrics"])
OP_SPAN = "op"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order.

    ``trace.overhead_share`` and the ``import.*`` times are measured by run.py.
    """
    units = {}
    for module_name, functions in TRACED.items():
        if module_name in ("metrics", "cli"):
            continue
        for func_name, (work_name, _) in functions.items():
            units[f"{module_name}.{func_name}.calls"] = "count"
            units[f"{module_name}.{func_name}.self_s"] = "s"
            if work_name:
                units[f"{module_name}.{func_name}.{work_name}"] = "count"
    units.update({
        "quantifiers.quantile_calls_per_solve": "ratio",
        "metrics.calls": "count", "metrics.self_s": "s",
        "cli.main.calls": "count", "cli.self_s": "s",
        "unattributed.self_s": "s", "trace.wall_s": "s", "trace.overhead_share": "fraction",
        "import.numpy_s": "s", "import.scipy_s": "s", "import.binquant_s": "s",
    })
    return units


class Tracer:
    """Span recorder shared by all wrappers of one process."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.spans: list[list] = []  # [name id, parent index, start, end, work]
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, name_id: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, parent, time.perf_counter(), 0.0, 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, work: int = 0) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[4] = work
        self._stack.pop()

    def wrap(self, qualified: str, func, work_fn):
        name_id = self.name_id(qualified)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.begin(name_id)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                work = work_fn(args, kwargs, result) if work_fn and result is not None else 0
                self.end(index, work)

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever binquant bound it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "binquant" or name.startswith("binquant."))]
        for module_name, functions in TRACED.items():
            defining = sys.modules[f"binquant.{module_name}"]
            for func_name, (_, work_fn) in functions.items():
                original = getattr(defining, func_name)
                wrapped = self.wrap(f"{module_name}.{func_name}", original, work_fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def self_times(self) -> list[float]:
        own = [span[3] - span[2] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[3] - span[2]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: calls, self time and work per traced function."""
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        for span, s in zip(self.spans, own):
            name = self.names[span[0]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + s
            work[name] = work.get(name, 0) + span[4]

        out: dict[str, float] = {}
        for module_name, functions in TRACED.items():
            if module_name in ("metrics", "cli"):
                continue
            for func_name, (work_name, _) in functions.items():
                name = f"{module_name}.{func_name}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
                if work_name:
                    out[f"{name}.{work_name}"] = work.get(name, 0)
        out["metrics.calls"] = sum(calls.get(n, 0) for n in METRICS_FUNCTIONS)
        out["metrics.self_s"] = sum(self_s.get(n, 0.0) for n in METRICS_FUNCTIONS)
        out["cli.main.calls"] = calls.get("cli.main", 0)
        out["cli.self_s"] = self_s.get("cli.main", 0.0)
        out["unattributed.self_s"] = self_s.get(OP_SPAN, 0.0)
        out["trace.wall_s"] = sum(span[3] - span[2] for span in self.spans if span[1] < 0)
        out["quantifiers.quantile_calls_per_solve"] = self._quantile_calls_per_solve()
        return out

    def _quantile_calls_per_solve(self) -> float:
        solve_ids = {i for i, n in enumerate(self.names) if n in SOLVES}
        quantile_id = self.names.index("binormal.mixture_quantile")
        inside: list[bool] = []  # span index -> lies under a solve span
        solves = 0
        quantiles = 0
        for span in self.spans:
            parent_inside = span[1] >= 0 and inside[span[1]]
            is_solve = span[0] in solve_ids
            if is_solve and not parent_inside:
                solves += 1
            if span[0] == quantile_id and parent_inside:
                quantiles += 1
            inside.append(parent_inside or is_solve)
        return quantiles / solves if solves else 0.0

    def write(self, path: str) -> None:
        """Write the spans as JSON: name table and [name, parent, start, end, work] rows."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)
