"""Outside-in layer trace: spans around calls into hybridflow's public functions.

`Tracer.install` replaces each traced function at every binding site,
that is, in every loaded module whose namespace holds the original
function object (`from .solver import solve_newton_raphson` makes
`hybrid`, `cli` and `loadgen` binding sites besides `solver` itself).
Spans stay in memory as tuples and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time

import numpy as np


def _solve_extra(args, kwargs, result):
    return result.iterations


def _step_extra(args, kwargs, result):
    # step(state, surrogate, network, p_t, q_t, config, settings, timestamp=)
    config = args[5] if len(args) > 5 else kwargs["config"]
    _, record, new_state = result
    useless = None
    if record.decision == "solver":
        useless = new_state.last_observed_model_error < config.error_check_threshold
    return record.decision, record.triggering_check, useless


def _read_extra(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _write_extra(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _len_extra(args, kwargs, result):
    return len(result)


# (module, function, span name, extra extractor or None)
TARGETS = [
    ("hybridflow.config", "load_config", "config.load_config", None),
    ("hybridflow.netmodel", "load_network", "netmodel.load_network", None),
    ("hybridflow.loadgen", "generate", "loadgen.generate", None),
    ("hybridflow.solver", "solve_newton_raphson", "solver.nr", _solve_extra),
    ("hybridflow.dataset", "read_csv", "dataset.read_csv", _read_extra),
    ("hybridflow.dataset", "write_csv", "dataset.write_csv", _write_extra),
    ("hybridflow.surrogate", "train", "surrogate.train", None),
    ("hybridflow.surrogate", "kmeans", "surrogate.kmeans", None),
    ("hybridflow.surrogate", "fit_regression", "surrogate.fit_regression", None),
    ("hybridflow.surrogate", "evaluate", "surrogate.evaluate", None),
    ("hybridflow.surrogate", "save", "surrogate.save", None),
    ("hybridflow.surrogate", "load", "surrogate.load", None),
    ("hybridflow.metrics", "eps_inf", "metrics.eps_inf", None),
    ("hybridflow.hybrid", "step", "hybrid.step", _step_extra),
    ("hybridflow.hybrid", "run_series", "hybrid.run_series", None),
    ("hybridflow.hybrid", "run_pure_solver", "hybrid.run_pure_solver", None),
    ("hybridflow.hybrid", "write_records", "hybrid.write_records", None),
    ("hybridflow.tuning", "sweep", "tuning.sweep", _len_extra),
]

# benchmark modules that bind traced functions by name besides the
# hybridflow ones (`workloads` imports `load_config` and `solve_newton_raphson`)
BINDING_MODULES = ("workloads",)
TRIGGERS = ("forced_first", "error_stale", "error_high", "step_change", "distance")


class Tracer:
    """Span recorder. A span is (name, stage, t0 ns, t1 ns, extra); the
    stage names the CLI stage that caused it."""

    def __init__(self):
        self.spans: list = []
        self.stage: str | None = None
        self._patched: list = []

    @staticmethod
    def _binding_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name.startswith("hybridflow")
                                      or name in BINDING_MODULES)]

    def install(self) -> None:
        self._patched = []
        modules = self._binding_modules()
        for module_name, func_name, span_name, extra in TARGETS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(span_name, original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)

    def binding_sites(self) -> list[str]:
        """Every `module.name` the last install replaced."""
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._patched)

    def _wrap(self, name, fn, extra):
        spans, clock = self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, returned = None, False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                info = None
                if extra is not None and returned:
                    try:
                        info = extra(args, kwargs, result)
                    except Exception:  # a changed signature loses the detail, not the span
                        info = None
                spans.append((name, self.stage, t0, t1, info))
        return wrapper

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "stage", "t0_ns", "t1_ns", "extra"],
                       "spans": self.spans}, f)


def _select(spans, name, stage=None):
    return [s for s in spans if s[0] == name and (stage is None or s[1] == stage)]


def _seconds(spans) -> float:
    return sum(s[3] - s[2] for s in spans) / 1e9


def _us_percentile(spans, q: float) -> float:
    if not spans:
        return 0.0
    return float(np.percentile([(s[3] - s[2]) / 1e3 for s in spans], q))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced stage sequence (see BENCHMARK.json)."""
    nr = _select(spans, "solver.nr")
    iterations = [s[4] for s in nr if s[4] is not None]
    reads = _select(spans, "dataset.read_csv")
    writes = _select(spans, "dataset.write_csv")
    read_s, write_s = _seconds(reads), _seconds(writes)
    bytes_read = sum(s[4] or 0 for s in reads)
    bytes_written = sum(s[4] or 0 for s in writes)
    evaluate = _select(spans, "surrogate.evaluate")
    eps = _select(spans, "metrics.eps_inf")
    fits = _select(spans, "surrogate.fit_regression")
    steps = [s for s in _select(spans, "hybrid.step") if s[4] is not None]
    model_steps = [s for s in steps if s[4][0] == "model"]
    solver_steps = [s for s in steps if s[4][0] == "solver"]
    # gate counts come from the hybrid `simulate` stage alone, not the sweep
    sim_solver = [s for s in solver_steps if s[1] == "simulate"]
    m = {
        "solver.nr_calls": len(nr),
        "solver.nr_iterations_mean": float(np.mean(iterations)) if iterations else 0.0,
        "solver.nr_call_us_p50": _us_percentile(nr, 50),
        "solver.nr_call_us_p99": _us_percentile(nr, 99),
        "solver.nr_total_s": _seconds(nr),
        "dataset.read_csv_s": read_s,
        "dataset.write_csv_s": write_s,
        "dataset.read_MBps": bytes_read / read_s / 1e6 if read_s else 0.0,
        "dataset.write_MBps": bytes_written / write_s / 1e6 if write_s else 0.0,
        "dataset.bytes_written": bytes_written,
        "surrogate.evaluate_calls": len(evaluate),
        "surrogate.evaluate_us_p50": _us_percentile(evaluate, 50),
        "surrogate.evaluate_us_p99": _us_percentile(evaluate, 99),
        "metrics.eps_inf_calls": len(eps),
        "metrics.eps_inf_us_p50": _us_percentile(eps, 50),
        "metrics.eps_inf_total_s": _seconds(eps),
        "surrogate.train_s": _seconds(_select(spans, "surrogate.train")),
        "surrogate.kmeans_s": _seconds(_select(spans, "surrogate.kmeans")),
        "surrogate.fit_regression_calls": len(fits),
        "surrogate.fit_regression_s": _seconds(fits),
        "surrogate.save_s": _seconds(_select(spans, "surrogate.save")),
        "surrogate.load_s": _seconds(_select(spans, "surrogate.load")),
        "hybrid.run_series_s": _seconds(_select(spans, "hybrid.run_series")),
        "hybrid.run_pure_solver_s": _seconds(_select(spans, "hybrid.run_pure_solver")),
        "hybrid.write_records_s": _seconds(_select(spans, "hybrid.write_records")),
        "hybrid.model_step_us_p50": _us_percentile(model_steps, 50),
        "hybrid.model_step_us_p99": _us_percentile(model_steps, 99),
        "hybrid.solver_step_us_p50": _us_percentile(solver_steps, 50),
        "hybrid.solver_step_us_p99": _us_percentile(solver_steps, 99),
    }
    for trigger in TRIGGERS:
        m[f"hybrid.trigger.{trigger}"] = sum(1 for s in sim_solver if s[4][1] == trigger)
    m["hybrid.unneeded_solve_fraction"] = (
        sum(1 for s in sim_solver if s[4][2]) / len(sim_solver) if sim_solver else 0.0)
    m["loadgen.generate_s"] = _seconds(_select(spans, "loadgen.generate"))
    sweeps = _select(spans, "tuning.sweep")
    m["tuning.sweep_s"] = _seconds(sweeps)
    m["tuning.grid_points"] = sum(s[4] or 0 for s in sweeps)
    m["netmodel.load_network_s"] = _seconds(_select(spans, "netmodel.load_network"))
    m["config.load_config_s"] = _seconds(_select(spans, "config.load_config"))
    return m


def sample_counts(spans) -> dict[str, int]:
    """Samples behind each percentile metric, by span name."""
    counts = {}
    for s in spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts


def calls(spans, name: str, stage: str) -> int:
    return len(_select(spans, name, stage))
