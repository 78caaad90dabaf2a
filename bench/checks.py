"""Correctness checks on a finished stage sequence.

Each check returns (name, passed, detail). The benchmark reads the
program's output files itself (np.loadtxt, csv) instead of through
`hybridflow.dataset`, so a fault in the program's reader cannot hide a
fault in what it wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from hybridflow.solver import power_mismatch

SUMMARY_RTOL = 1e-12
SUMMARY_KEYS = ("avoided_solves_fraction", "max_eps_inf", "median_eps_inf")


def read_numeric_csv(path, n_loads: int) -> dict[str, np.ndarray]:
    """Dataset-format CSV (timestamp, p, q, v, a) as float matrices."""
    with open(path) as f:
        width = len(f.readline().split(","))
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, width), ndmin=2)
    n_v = (width - 1 - 2 * n_loads) // 2
    p, q = data[:, :n_loads], data[:, n_loads:2 * n_loads]
    v = data[:, 2 * n_loads:2 * n_loads + n_v]
    a = data[:, 2 * n_loads + n_v:]
    return {"p": p, "q": q, "v": v, "a": a}


def read_decisions(path) -> tuple[list[tuple[str, str]], list[dict]]:
    """(decision, triggering_check) per records.csv row, and the raw rows."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return [(r["decision"], r["triggering_check"]) for r in rows], rows


def decisions_sha256(path) -> str:
    decisions, _ = read_decisions(path)
    text = "\n".join(f"{d},{t}" for d, t in decisions)
    return hashlib.sha256(text.encode()).hexdigest()


def eps_inf_rows(v, a, true_v, true_a) -> np.ndarray:
    """Worst-bus normalized chord error per row (metrics.vector_error's
    formula, restated here as the benchmark's own oracle)."""
    dr = v * np.cos(a) - true_v * np.cos(true_a)
    di = v * np.sin(a) - true_v * np.sin(true_a)
    return (np.sqrt(dr * dr + di * di) / np.abs(true_v)).max(axis=1)


def _max_mismatch(network, m, rows) -> float:
    worst = 0.0
    for t in rows:
        r = power_mismatch(network, m["p"][t], m["q"][t], m["v"][t], m["a"][t])
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def check_outputs(config, network, test_lo: int, test_hi: int, products) -> tuple[list, dict]:
    """Checks on one `simulate` run's products (records.csv, solutions.csv,
    summary.json in the directory `products`) against the dataset truth in
    rows [test_lo, test_hi); returns (checks, facts)."""
    tol = config.solver.mismatch_tolerance
    truth = read_numeric_csv(config.resolve(config.dataset_path), network.n_loads)
    sols = read_numeric_csv(products / "solutions.csv", network.n_loads)
    decisions, rows = read_decisions(products / "records.csv")
    with open(products / "summary.json") as f:
        summary = json.load(f)
    checks = []

    worst = _max_mismatch(network, truth, range(len(truth["v"])))
    checks.append(("truth_power_mismatch", worst <= tol, f"max {worst:.3g} vs tol {tol:g}"))

    solver_rows = [t for t, (d, _) in enumerate(decisions) if d == "solver"]
    worst = _max_mismatch(network, sols, solver_rows)
    checks.append(("solver_rows_power_mismatch", worst <= tol,
                   f"max {worst:.3g} over {len(solver_rows)} rows"))

    n = len(decisions)
    facts = {"test_steps": n, "solver_steps": len(solver_rows),
             "model_steps": n - len(solver_rows), "generated_steps": len(truth["v"]),
             "summary": {k: summary[k] for k in SUMMARY_KEYS}}
    shapes_ok = n == test_hi - test_lo == len(sols["v"])
    checks.append(("test_rows", shapes_ok,
                   f"{n} records, {len(sols['v'])} solutions, {test_hi - test_lo} expected"))
    if not shapes_ok:
        return checks, facts
    errors = eps_inf_rows(sols["v"], sols["a"], truth["v"][test_lo:test_hi],
                          truth["a"][test_lo:test_hi])
    recorded = np.array([float(r["eps_inf"]) for r in rows])
    same = np.allclose(recorded, errors, rtol=SUMMARY_RTOL, atol=0.0)
    checks.append(("records_eps_inf", bool(same),
                   f"max rel diff {np.max(np.abs(recorded - errors) / errors.clip(1e-300)):.3g}"))

    is_model = np.array([d == "model" for d, _ in decisions])
    accepted = np.where(is_model, errors, 0.0)
    mine = {"avoided_solves_fraction": float(is_model.mean()),
            "max_eps_inf": float(accepted.max()),
            "median_eps_inf": float(np.median(accepted))}
    for key in SUMMARY_KEYS:
        ok = np.isclose(summary[key], mine[key], rtol=SUMMARY_RTOL, atol=0.0)
        checks.append((f"summary_{key}", bool(ok), f"{summary[key]!r} vs {mine[key]!r}"))
    return checks, facts


def check_sweep(path, n_points: int) -> tuple[str, bool, str]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return ("tune_grid_rows", len(rows) == n_points, f"{len(rows)} rows, {n_points} expected")


def sweep_solver_steps(path, calibration_steps: int) -> int:
    """Solver steps summed over the grid, from each point's model fraction."""
    with open(path, newline="") as f:
        fractions = [float(r["model_fraction"]) for r in csv.DictReader(f)]
    return sum(round((1.0 - m) * calibration_steps) for m in fractions)
