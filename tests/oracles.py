"""Test oracles: slow reference implementations, structurally independent
of the library code they check."""

import math
from dataclasses import replace

import numpy as np

from hybridflow import surrogate as sg
from hybridflow.dataset import Dataset
from hybridflow.hybrid import (AUDIT_SAFETY, ERROR_HIGH, ERROR_STALE, FORCED_FIRST,
                               HybridConfig, HybridState, input_gates)
from hybridflow.loadgen import LoadProfileSpec, LoadSeries, minute_of_week, mode_table
from hybridflow.metrics import eps_inf
from hybridflow.netmodel import Network
from hybridflow.solver import (MODEL, SOLVER, Chord, SolverSettings, VoltageSolution,
                               solve_newton_raphson)

GS_MAX_SWEEPS = 20000
GS_ACCELERATION = 1.6  # SOR factor; 1.0 recovers plain Gauss-Seidel


def injections(network: Network, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-bus net injection vectors from load-vector consumption."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (network.n_loads,) or q.shape != (network.n_loads,):
        raise ValueError(f"expected load vectors of length {network.n_loads}, "
                         f"got {p.shape} and {q.shape}")
    p_inj = np.zeros(network.n_bus)
    q_inj = np.zeros(network.n_bus)
    p_inj[network.load_buses] = -p
    q_inj[network.load_buses] = -q
    return p_inj, q_inj


def solve_gauss_seidel(network: Network, p: np.ndarray, q: np.ndarray,
                       settings: SolverSettings | None = None) -> VoltageSolution:
    """Complex-voltage Gauss-Seidel sweep; slow but structurally independent
    of the Newton path, used for cross-verification."""
    settings = settings or SolverSettings()
    n = network.n_bus
    slack = network.slack_index
    pq = network.pq_indices
    p_inj, q_inj = injections(network, p, q)
    S_inj = p_inj + 1j * q_inj

    Y = network.Y
    V = np.ones(n, dtype=complex)
    inv_diag = 1.0 / np.diag(Y)

    for sweep in range(1, GS_MAX_SWEEPS + 1):
        for i in pq:
            sigma = Y[i] @ V - Y[i, i] * V[i]
            update = inv_diag[i] * (np.conj(S_inj[i] / V[i]) - sigma)
            V[i] += GS_ACCELERATION * (update - V[i])
        S = V * np.conj(Y @ V)
        residual = np.concatenate([p_inj[pq] - S.real[pq], q_inj[pq] - S.imag[pq]])
        if np.max(np.abs(residual)) <= settings.mismatch_tolerance:
            V[slack] = 1.0
            return VoltageSolution(v=np.abs(V), a=np.angle(V), iterations=sweep,
                                   converged=True)
    return VoltageSolution(v=np.abs(V), a=np.angle(V), iterations=GS_MAX_SWEEPS,
                           converged=False)


def jacobian_dense(Y: np.ndarray, V: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """MATPOWER's complex power derivatives as dense n x n products (O(n^3)),
    cut down to the pq rows and columns of the polar Newton Jacobian."""
    diagV = np.diag(V)
    diagI = np.diag(Y @ V)
    diagVnorm = np.diag(V / np.abs(V))
    dS_da = 1j * diagV @ np.conj(diagI - Y @ diagV)
    dS_dv = diagVnorm @ np.conj(diagI) + diagV @ np.conj(Y @ diagVnorm)
    return np.block([
        [dS_da.real[np.ix_(pq, pq)], dS_dv.real[np.ix_(pq, pq)]],
        [dS_da.imag[np.ix_(pq, pq)], dS_dv.imag[np.ix_(pq, pq)]],
    ])


def solve_newton_dense(network: Network, p: np.ndarray, q: np.ndarray,
                       initial_guess: VoltageSolution | None = None,
                       settings: SolverSettings | None = None) -> VoltageSolution:
    """Polar Newton-Raphson driven by `jacobian_dense`: the reference loop
    the library solver must match iteration for iteration."""
    settings = settings or SolverSettings()
    slack = network.slack_index
    pq = network.pq_indices
    p_inj, q_inj = injections(network, p, q)
    if initial_guess is not None:
        v = np.array(initial_guess.v, dtype=float)
        a = np.array(initial_guess.a, dtype=float)
    else:
        v = np.ones(network.n_bus)
        a = np.zeros(network.n_bus)
    v[slack] = 1.0
    a[slack] = 0.0
    for iteration in range(settings.max_iterations + 1):
        V = v * np.exp(1j * a)
        S = V * np.conj(network.Y @ V)
        mismatch = np.concatenate([p_inj[pq] - S.real[pq], q_inj[pq] - S.imag[pq]])
        if np.max(np.abs(mismatch)) <= settings.mismatch_tolerance:
            return VoltageSolution(v=v, a=a, iterations=iteration, converged=True)
        if iteration == settings.max_iterations:
            break
        dx = np.linalg.solve(jacobian_dense(network.Y, V, pq), mismatch)
        a[pq] += dx[:len(pq)]
        v[pq] += dx[len(pq):]
    return VoltageSolution(v=v, a=a, iterations=settings.max_iterations,
                           converged=False)


def mode_labels(timestamps: np.ndarray) -> np.ndarray:
    """Ground-truth generator mode index per timestamp."""
    return mode_table()[minute_of_week(timestamps)]


def scaled_spec(spec: LoadProfileSpec, factor: float) -> LoadProfileSpec:
    """Copy of spec with its base level, and so every mode's level, scaled by factor."""
    return replace(spec, base_level=spec.base_level * factor)


def write_csv_rowwise(dataset: Dataset, path) -> None:
    """Reference dataset writer: one Python '%' format per row, every value
    cell '%+.16e'."""
    n_p, n_v = dataset.n_loads, dataset.outputs_v.shape[1]
    header = ["timestamp"] + [f"{name}_{i}" for name, n in (("p", n_p), ("q", n_p),
                                                            ("v", n_v), ("a", n_v))
                              for i in range(n)]
    row = "%sZ" + ",%+.16e" * (len(header) - 1) + "\r\n"
    stamps = np.datetime_as_string(dataset.timestamps.astype("datetime64[s]"), unit="s")
    values = np.hstack([dataset.inputs, dataset.outputs_v, dataset.outputs_a])
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(row % (stamp, *x) for stamp, x in zip(stamps.tolist(), values.tolist()))


def run_series_stepwise(surrogate: sg.ClusteredSurrogate, network: Network,
                        series: LoadSeries, config: HybridConfig, settings: SolverSettings,
                        start: HybridState | None = None
                        ) -> tuple[list[VoltageSolution], list[tuple]]:
    """The hybrid run as a per-step state machine: every row decides on its
    own between the model and a warm-started solve, counting the steps since
    the last solve. A model row accepts its prediction plus the last solve's
    solution minus that solve's prediction, and a solve audits its own
    prediction plus the same correction. The staleness interval starts at
    `max_check_interval`; with `max_interval_growth` set, each solve whose
    audit is under `error_check_threshold / AUDIT_SAFETY` doubles it, up to
    `max_interval_growth` times the start, and any other solve resets it.
    Returns the accepted outputs and, per row, its `(decision,
    triggering_check, solver_iterations)`."""
    X = np.hstack([series.P, series.Q])
    pred = sg.evaluate(surrogate, X)
    gates = input_gates(X, pred.percentile, config)
    if start is None:
        accepted, chord = None, Chord()
    else:  # a holder of its own, sharing the start's read-only inverse
        accepted, chord = start.last_accepted, replace(start.chord)
    error, steps_since = math.inf, 0
    interval = config.max_check_interval
    correction_v = np.zeros(network.n_bus)
    correction_a = np.zeros(network.n_bus)
    solutions, decisions = [], []
    for t in range(series.n_steps):
        corrected_v = pred.v[t] + correction_v
        corrected_a = pred.a[t] + correction_a
        trigger = gates[t]
        if t == 0:
            trigger = FORCED_FIRST
        elif trigger is None and steps_since + 1 >= interval:
            trigger = ERROR_STALE
        elif trigger is None and error >= config.error_check_threshold:
            trigger = ERROR_HIGH
        if trigger is None:
            accepted = VoltageSolution(v=corrected_v, a=corrected_a, iterations=0,
                                       converged=True)
            steps_since += 1
            decisions.append((MODEL, None, None))
        else:
            if settings.warm_start:
                accepted = solve_newton_raphson(network, series.P[t], series.Q[t],
                                                accepted, settings, chord)
            else:
                accepted = solve_newton_raphson(network, series.P[t], series.Q[t], None,
                                                settings)
            assert accepted.converged, t
            error = eps_inf(corrected_v, corrected_a, accepted.v, accepted.a)
            correction_v = accepted.v - pred.v[t]
            correction_a = accepted.a - pred.a[t]
            if config.max_interval_growth is not None:
                if error < config.error_check_threshold / AUDIT_SAFETY:
                    interval = min(2 * interval,
                                   config.max_interval_growth * config.max_check_interval)
                else:
                    interval = config.max_check_interval
            steps_since = 0
            decisions.append((SOLVER, trigger, accepted.iterations))
        solutions.append(accepted)
    return solutions, decisions
