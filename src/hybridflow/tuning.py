"""Gate-threshold calibration sweeps over a held-out calibration slice.

One hybrid run per grid point; ground truth for the slice comes from a
single pure-solver replay shared across all points. The slice's first row
is solved once, cold (`hybrid.first_row_state`): the replay of the rows
after it and every grid run start from that solution and its inverted
Jacobian, so each grid run's first step is one warm solve that converges
at iteration 0 with the same bits. Results are emitted as a CSV table of
error quantiles and model-use fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .hybrid import HybridConfig, first_row_state, run_pure_solver, run_series
from .loadgen import LoadSeries
from .netmodel import Network
from .report import step_errors, write_table
from .solver import SolverSettings
from .surrogate import ClusteredSurrogate

DISTANCE_PERCENTILE = "distance_percentile"
STEP_CHANGE = "step_change"
ERROR_THRESHOLD = "error_threshold"
ERROR_GRID = "error_threshold_x_max_interval"
MAX_INTERVAL_GROWTH = "max_interval_growth"

PARAMETERS = (DISTANCE_PERCENTILE, STEP_CHANGE, ERROR_THRESHOLD, ERROR_GRID,
              MAX_INTERVAL_GROWTH)


class TuningError(ValueError):
    """Raised for invalid sweep specifications."""


@dataclass
class SweepSpec:
    parameter: str
    values: list[float]
    values2: list[float] | None = None          # max_check_interval grid for ERROR_GRID
    calibration_days: tuple[int, int] = (0, 1)  # day range within the test set
    base_config: HybridConfig = field(default_factory=HybridConfig)

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise TuningError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values:
            raise TuningError("sweep values must be non-empty")
        lo, hi = self.calibration_days
        if not 0 <= lo < hi:
            raise TuningError(f"calibration_days {lo},{hi}: need 0 <= LO < HI")
        if self.parameter != ERROR_GRID and self.values2 is not None:
            raise TuningError(f"values2 applies only to {ERROR_GRID}, "
                              f"not to the 1-D sweep of {self.parameter!r}")
        if self.parameter == ERROR_GRID:
            if not self.values2:
                raise TuningError("2-D sweep needs values2 (max_check_interval grid)")
            _whole_numbers("max_check_interval", self.values2)
        if self.parameter == MAX_INTERVAL_GROWTH:
            _whole_numbers(MAX_INTERVAL_GROWTH, self.values)


def _whole_numbers(name: str, values: list[float]) -> None:
    for value in values:  # run as int(value), recorded as given
        if not (float(value).is_integer() and value >= 1):
            raise TuningError(f"{name} grid value {value!r} is not a whole number >= 1")


@dataclass
class SweepPoint:
    parameter: str
    value: float
    value2: float | None
    q25: float
    q50: float
    q75: float
    max_eps: float
    model_fraction: float
    extreme: bool


def config_for(spec: SweepSpec, value: float, value2: float | None = None) -> HybridConfig:
    base = spec.base_config
    if spec.parameter == DISTANCE_PERCENTILE:
        return replace(base, distance_percentile_threshold=value)
    if spec.parameter == STEP_CHANGE:
        return replace(base, step_change_threshold=value)
    if spec.parameter == ERROR_THRESHOLD:
        return replace(base, error_check_threshold=value)
    if spec.parameter == ERROR_GRID:
        return replace(base, error_check_threshold=value, max_check_interval=int(value2))
    if spec.parameter == MAX_INTERVAL_GROWTH:
        return replace(base, max_interval_growth=int(value))
    raise TuningError(f"unknown sweep parameter {spec.parameter!r}")


def sweep(spec: SweepSpec, surrogate: ClusteredSurrogate, network: Network,
          test_series: LoadSeries, steps_per_day: int,
          settings: SolverSettings | None = None) -> list[SweepPoint]:
    """Run the grid on the calibration slice of the test series, whose
    dataset has `steps_per_day` steps a day."""
    settings = settings or SolverSettings()
    lo = spec.calibration_days[0] * steps_per_day
    hi = spec.calibration_days[1] * steps_per_day
    if hi > test_series.n_steps:
        raise TuningError(f"calibration slice {spec.calibration_days} outside the "
                          f"test span of {test_series.n_steps // steps_per_day} days")
    series = test_series.rows(lo, hi)
    # one pure-solver replay amortized across all grid points, which also
    # start from its first row
    start = first_row_state(network, series, settings)
    truth_solutions = [start.last_accepted] + run_pure_solver(
        network, series.rows(1, series.n_steps), settings, start)
    truth = (np.array([s.v for s in truth_solutions]),
             np.array([s.a for s in truth_solutions]))

    points = []
    for value in spec.values:
        for value2 in spec.values2 or [None]:
            config = config_for(spec, value, value2)
            _, records, summary = run_series(surrogate, network, series, config, settings,
                                             ground_truth=truth, start=start)
            q25, q50, q75 = np.percentile(step_errors(records), [25, 50, 75])
            points.append(SweepPoint(
                parameter=spec.parameter, value=value, value2=value2,
                q25=float(q25), q50=float(q50), q75=float(q75),
                max_eps=summary.max_eps_inf,
                model_fraction=summary.avoided_solves_fraction,
                extreme=summary.max_eps_inf > 10.0 * spec.base_config.error_check_threshold))
    return points


def recommend(results: list[SweepPoint],
              max_error_budget: float) -> SweepPoint | None:
    """Highest model-use fraction among settings within the error budget;
    ties broken toward the smaller threshold, then the smaller interval.
    None if nothing qualifies."""
    if not results:
        raise TuningError("empty sweep results")
    feasible = [r for r in results if r.max_eps <= max_error_budget]
    if not feasible:
        return None
    return min(feasible, key=lambda r: (-r.model_fraction, r.value, r.value2 or 0.0))


def write_sweep(results: list[SweepPoint], path) -> None:
    write_table(path, ["parameter", "value", "value2", "q25", "q50", "q75", "max",
                       "model_fraction", "extreme_flag"],
                ([r.parameter, r.value, r.value2, r.q25, r.q50, r.q75, r.max_eps,
                  r.model_fraction, int(r.extreme)] for r in results))
