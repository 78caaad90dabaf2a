"""Solver/model switching engine for quasi-steady-state time series.

Before the loop, the surrogate is evaluated for the whole series and the
input gates (distance percentile, relative load step change) are computed
as one array. A row goes to the physics solver when its input gate fired,
the staleness cap is reached or the model's error at the last solve was
over budget, so `run_series` loops over its solves (`step`) alone and the
rows between take the model's output in bulk. Each solve is warm-started
from the row before's accepted output, reuses the run's inverted Jacobian
(`solver.Chord`) and stores the model's error against it. Each solve also
feeds its error forward: the model rows after it accept their prediction
plus the solve's solution minus its prediction. With `max_interval_growth`
set, a clean audit doubles the staleness cap, as an error-controlled step
size grows.

One loop solves every step (`_solve_row` on one state): `run_pure_solver`,
the sequential warm-started baseline the hybrid is timed against, and
`run_ground_truth`, which first iterates `generate`'s rows in blocks of
batched chord passes and then runs that loop from the batch points.
`run_series` and `run_pure_solver` can start from `first_row_state`, one
cold solve of a series' first row, in place of the flat start.
"""

from __future__ import annotations

import bisect
import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import surrogate as sg
from .dataset import format_timestamps, parse_timestamp
from .loadgen import LoadSeries
from .metrics import MetricError, eps_inf
from .netmodel import Network
from .report import RunSummary, summarize, write_table
from .solver import (MODEL, SOLVER, Chord, SingularJacobianError, SolverSettings,
                     VoltageSolution, chord_blocks, solve_newton_raphson)

# triggering_check values
FORCED_FIRST = "forced_first"
DISTANCE = "distance"
STEP_CHANGE = "step_change"
ERROR_STALE = "error_stale"
ERROR_HIGH = "error_high"
TRIGGERS = (FORCED_FIRST, DISTANCE, STEP_CHANGE, ERROR_STALE, ERROR_HIGH)

# pu; relative load changes are taken against at least this magnitude, so a
# return from a zero load registers (the smallest generated load is 2.3e-3)
LOAD_FLOOR = 1e-3

# a solve whose audit error is under error_check_threshold / AUDIT_SAFETY
# lets the staleness cap grow (with `max_interval_growth` set); safety 100
# and 1,000 gave avoided fractions within 0.01 of 10 on the full study
AUDIT_SAFETY = 10


class SimulationError(RuntimeError):
    """Solver failure during a hybrid run; never papered over by the model."""


@dataclass
class HybridConfig:
    error_check_threshold: float = 0.01     # always on; also the run's error budget
    max_check_interval: int = 12            # steps; 60 min at 5-min resolution
    # None switches an input gate off. Distance is off by default: at threshold 100 it
    # cuts event_week's avoided-solve fraction from 0.886 to 0.624 (see ROADMAP.md)
    distance_percentile_threshold: float | None = None
    step_change_threshold: float | None = 0.20  # relative change of any load
    # None keeps the staleness cap at max_check_interval (the paper's rule); g lets
    # clean audits double it up to g * max_check_interval
    max_interval_growth: int | None = None

    def __post_init__(self):  # written so that a NaN fails each comparison
        if not self.max_check_interval >= 1:
            raise ValueError("max_check_interval must be >= 1")
        if self.max_interval_growth is not None and not self.max_interval_growth >= 1:
            raise ValueError("max_interval_growth must be >= 1 or null")
        if not self.error_check_threshold >= 0:
            raise ValueError("error_check_threshold must be >= 0")
        for name in ("distance_percentile_threshold", "step_change_threshold"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be >= 0 or null")


@dataclass
class HybridState:
    last_accepted: VoltageSolution | None = None
    last_observed_model_error: float = math.inf
    chord: Chord = field(default_factory=Chord)  # used only with warm starts


@dataclass
class StepRecord:
    timestamp: np.datetime64
    decision: str                        # "model" or "solver"
    triggering_check: str | None
    model_eps_inf_vs_truth: float | None = None
    solver_iterations: int | None = None
    wall_time: float | None = 0.0          # None when read back from records.csv


def input_gates(X: np.ndarray, percentile: np.ndarray,
                config: HybridConfig) -> np.ndarray:
    """Per-step input gate: DISTANCE, STEP_CHANGE or None.

    `X` is the `[T, 2*n_p]` input [P, Q] and `percentile` its `[T]`
    distance percentiles. Step change compares each row with the one
    before, so row 0 never fires it. DISTANCE wins where both fire.
    """
    step_change = np.zeros(len(X), dtype=bool)
    if config.step_change_threshold is not None:
        change = np.abs(X[1:] - X[:-1]) / np.maximum(np.abs(X[:-1]), LOAD_FLOOR)
        step_change[1:] = change.max(axis=1) >= config.step_change_threshold
    gates = np.where(step_change, STEP_CHANGE, None)
    if config.distance_percentile_threshold is not None:
        gates[percentile >= config.distance_percentile_threshold] = DISTANCE
    return gates


def step(state: HybridState, prediction: tuple[np.ndarray, np.ndarray, str],
         network: Network, p_t: np.ndarray, q_t: np.ndarray, config: HybridConfig,
         settings: SolverSettings, timestamp: np.datetime64 | None = None,
         row: int | None = None) -> tuple[VoltageSolution, StepRecord, HybridState]:
    """One solve of row `row`, at `timestamp`. `prediction` is `(v, a,
    trigger)`: the row's model output, corrected by the last solve, and the
    check that fired; `config` is not read. Updates `state` in place (last
    accepted solution, the model's error against it) and returns it with
    the solution and the record."""
    began = time.perf_counter()
    pred_v, pred_a, trigger = prediction
    solution = _solve_row(state, network, p_t, q_t, settings, timestamp, row)
    state.last_observed_model_error = eps_inf(pred_v, pred_a, solution.v, solution.a)
    record = StepRecord(timestamp=timestamp, decision=SOLVER, triggering_check=trigger,
                        solver_iterations=solution.iterations,
                        wall_time=time.perf_counter() - began)
    return solution, record, state


def run_series(surrogate: sg.ClusteredSurrogate, network: Network,
               load_series: LoadSeries, config: HybridConfig,
               settings: SolverSettings,
               ground_truth: tuple[np.ndarray, np.ndarray] | None = None,
               start: HybridState | None = None
               ) -> tuple[list[VoltageSolution], list[StepRecord], RunSummary]:
    """Sequential hybrid simulation over a load series.

    Row 0 solves, from the flat start or warm from `start` (see
    `run_pure_solver`). After a solve at row t the next is the earliest of
    the next gated row, t + the staleness interval and, if the model's error
    at t is over budget, t + 1, named in that order. The interval is
    `max_check_interval`; with `max_interval_growth` g, a solve whose error
    is under `error_check_threshold / AUDIT_SAFETY` doubles it, up to g
    times that, and any other solve resets it. The rows between, and the
    next solve's audit, take the model's output plus the solution at t
    minus the model's output at t; the correction is added in place to the
    model's output. Each row's wall time is an even share of the time
    outside solves, plus its solve on a solver row.
    `ground_truth`, (v, a) matrices aligned with the series, scores every
    accepted output in one pass after the loop.
    """
    stamps = load_series.timestamps
    n = load_series.n_steps
    began = time.perf_counter()
    X = np.hstack([load_series.P, load_series.Q])
    pred = sg.evaluate(surrogate, X)
    gates = input_gates(X, pred.percentile, config)
    gates[:1] = FORCED_FIRST  # also when `start` holds a solution
    finite = (np.isfinite(pred.v) & np.isfinite(pred.a)).all(axis=1)
    if not finite.all():
        t = int(finite.argmin())
        raise SimulationError(f"non-finite model prediction at {stamps[t]} (row {t})")
    gated = np.flatnonzero(gates.astype(bool)).tolist() + [n]
    state = _own(start)
    solved = {}
    t = stale = 0  # the row the staleness cap forces after the last solve
    interval = config.max_check_interval
    longest = interval * (config.max_interval_growth or 1)
    fix_v = fix_a = 0.0  # the last solve's solution minus the model's output there
    solutions = [VoltageSolution(v, a, 0, True) for v, a in zip(pred.v, pred.a)]
    while t < n:
        if t:  # the warm start: row t-1's accepted output
            state.last_accepted = solutions[t - 1]
        trigger = gates[t] or (ERROR_STALE if t == stale else ERROR_HIGH)
        v, a = pred.v[t], pred.a[t]
        solutions[t], solved[t], state = step(
            state, (v + fix_v, a + fix_a, trigger), network, load_series.P[t],
            load_series.Q[t], config, settings, timestamp=stamps[t], row=t)
        fix_v, fix_a = solutions[t].v - v, solutions[t].a - a
        error = state.last_observed_model_error
        clean = error < config.error_check_threshold / AUDIT_SAFETY
        interval = min(2 * interval, longest) if clean else config.max_check_interval
        stale = t + interval
        if error >= config.error_check_threshold:
            following = t + 1
        else:
            following = min(gated[bisect.bisect_right(gated, t)], stale)
        pred.v[t + 1:following] += fix_v  # the model rows up to the next solve
        pred.a[t + 1:following] += fix_a
        t = following
    outside = time.perf_counter() - began - sum(r.wall_time for r in solved.values())
    share = outside / max(n, 1)
    for record in solved.values():
        record.wall_time += share
    records = [solved.get(t) or StepRecord(stamp, MODEL, None, wall_time=share)
               for t, stamp in enumerate(stamps)]
    if ground_truth is not None:
        try:
            errors = eps_inf(np.array([s.v for s in solutions]),
                             np.array([s.a for s in solutions]), *ground_truth)
        except MetricError as exc:
            if exc.row is None:  # truth not aligned with the series
                raise
            raise SimulationError(f"{exc} at {stamps[exc.row]} (row {exc.row})") from None
        for record, error in zip(records, errors.tolist()):
            record.model_eps_inf_vs_truth = error
    summary = summarize(records, threshold=config.error_check_threshold)
    return solutions, records, summary


def run_pure_solver(network: Network, load_series: LoadSeries, settings: SolverSettings,
                    start: HybridState | None = None) -> list[VoltageSolution]:
    """The sequential baseline the hybrid is timed against: solve every
    timestep in order, warm-starting from the previous solution and its
    inverted Jacobian. The first row is solved by full Newton from the
    flat start or, given `start` (`first_row_state` of the row before),
    warm from its solution and inverse; `start` itself is not changed."""
    state = _own(start)
    rows = zip(load_series.P, load_series.Q, load_series.timestamps)
    return [_solve_row(state, network, p, q, settings, stamp, t)
            for t, (p, q, stamp) in enumerate(rows)]


def first_row_state(network: Network, load_series: LoadSeries,
                    settings: SolverSettings) -> HybridState:
    """The loop state after one cold solve of the series' first row: its
    solution and, with warm starts on, the inverse of its last Jacobian."""
    state = HybridState()
    _solve_row(state, network, load_series.P[0], load_series.Q[0], settings,
               load_series.timestamps[0], 0)
    return state


def _own(start: HybridState | None) -> HybridState:
    """A loop's own state: empty, or `start`'s in a new `Chord` holder that
    shares its read-only inverse and its solution's injections."""
    return HybridState() if start is None else replace(start, chord=replace(start.chord))


def run_ground_truth(network: Network, load_series: LoadSeries,
                     settings: SolverSettings) -> list[VoltageSolution]:
    """Every timestep's power flow, solved in row blocks of batched chord
    passes (`solver.chord_blocks`), then certified in order by the loop of
    `run_pure_solver`: one `solve_newton_raphson` call per row, whose
    convergence test is the only verdict. A row the batch converged starts
    from its batch point and returns at iteration 0; any other row is
    solved as in the baseline, from the row before."""
    P, Q, stamps = load_series.P, load_series.Q, load_series.timestamps
    state = HybridState()
    solutions = []
    for start, v, a, converged in chord_blocks(network, P, Q, settings):
        for r, batch_converged in enumerate(converged.tolist()):
            point = VoltageSolution(v[r], a[r], 0, True) if batch_converged else None
            t = start + r
            solutions.append(_solve_row(state, network, P[t], Q[t], settings, stamps[t], t,
                                        point))
    return solutions


def _solve_row(state: HybridState, network: Network, p: np.ndarray, q: np.ndarray,
               settings: SolverSettings, stamp: np.datetime64 | None, row: int | None,
               guess: VoltageSolution | None = None) -> VoltageSolution:
    """Row `row`, at `stamp`, solved and stored in `state`; a failure names
    the row. It starts from `guess` if given, else from `state`'s last
    accepted solution with `settings.warm_start` on (using and updating
    `state`'s inverse) or from the flat start with it off."""
    chord = state.chord if settings.warm_start else None
    if guess is None and chord is not None:
        guess = state.last_accepted
    try:
        solution = solve_newton_raphson(network, p, q, guess, settings, chord)
    except SingularJacobianError as exc:
        raise SimulationError(f"{exc} at {stamp} (row {row})") from None
    if not solution.converged:
        raise SimulationError(f"solver did not converge (max {settings.max_iterations} "
                              f"iterations) at {stamp} (row {row})")
    state.last_accepted = solution
    return solution


RECORD_HEADER = ["timestamp", "decision", "triggering_check", "eps_inf",
                 "solver_iterations"]


def write_records(records: list[StepRecord], path) -> None:
    """The records as CSV; wall times are not written, so reruns are
    byte-identical."""
    stamps = format_timestamps([r.timestamp for r in records])
    write_table(path, RECORD_HEADER,
                ([stamp, r.decision, r.triggering_check, r.model_eps_inf_vs_truth,
                  r.solver_iterations] for stamp, r in zip(stamps, records)))


def read_records(path) -> list[StepRecord]:
    """A records CSV: a model row names no check or iterations, a solver row a
    trigger or (`--pure-solver`) none; errors and iterations are finite, >= 0."""
    records = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != RECORD_HEADER:
            raise ValueError(f"{path}: unexpected records header {header}")
        for row in reader:
            try:  # a short or long row fails the unpacking
                stamp, decision, check, error, iterations = row
                if not (decision == MODEL and check == iterations == ""
                        or decision == SOLVER and check in ("", *TRIGGERS)) \
                        or not 0 <= float(error or 0) < math.inf or int(iterations or 0) < 0:
                    raise ValueError
                records.append(StepRecord(parse_timestamp(stamp), decision, check or None,
                                          float(error) if error else None,
                                          int(iterations) if iterations else None,
                                          wall_time=None))
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: malformed record "
                                 f"{row!r}") from None
    return records
