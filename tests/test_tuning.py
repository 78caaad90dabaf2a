import numpy as np
import pytest

from hybridflow import hybrid
from hybridflow import surrogate as sg
from hybridflow.hybrid import run_pure_solver, run_series
from hybridflow.report import step_errors
from hybridflow.tuning import (ERROR_GRID, ERROR_THRESHOLD, MAX_INTERVAL_GROWTH,
                               STEP_CHANGE, SweepPoint, SweepSpec, TuningError,
                               config_for, recommend, sweep, write_sweep)

PER_DAY = 96  # the small fixture's 15-minute steps


@pytest.fixture(scope="module")
def trained(small_dataset):
    return sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)


@pytest.fixture(scope="module")
def test_slice(small_dataset):
    # last 4 days of the small fixture act as a test set
    per_day = small_dataset.steps_per_day
    return small_dataset.rows(6 * per_day, 10 * per_day)


def test_empty_grid_rejected():
    with pytest.raises(TuningError, match="non-empty"):
        SweepSpec(parameter=STEP_CHANGE, values=[])


def test_unknown_parameter_rejected():
    with pytest.raises(TuningError, match="unknown"):
        SweepSpec(parameter="bogus", values=[1.0])


def test_2d_sweep_needs_second_grid():
    with pytest.raises(TuningError, match="values2"):
        SweepSpec(parameter=ERROR_GRID, values=[0.01])


def test_1d_sweep_rejects_second_grid():
    with pytest.raises(TuningError, match="1-D sweep of 'step_change'"):
        SweepSpec(parameter=STEP_CHANGE, values=[0.1], values2=[3.0])


@pytest.mark.parametrize("days", [(-2, -1), (-1, 1), (1, 1), (2, 1)],
                         ids=["negative", "negative_lo", "empty", "reversed"])
def test_calibration_days_need_0_le_lo_lt_hi(days):
    with pytest.raises(TuningError, match=r"calibration_days .*: need 0 <= LO < HI"):
        SweepSpec(parameter=STEP_CHANGE, values=[0.1], calibration_days=days)


@pytest.mark.parametrize("value2", [2.7, 0.0, -4.0, float("nan"), float("inf")])
def test_2d_grid_rejects_an_interval_that_is_not_a_whole_number(value2):
    with pytest.raises(TuningError, match=rf"grid value {value2!r} is not a whole"):
        SweepSpec(parameter=ERROR_GRID, values=[0.01], values2=[4.0, value2])


@pytest.mark.parametrize("value", [2.5, 0.0, -1.0, float("nan")])
def test_growth_grid_rejects_a_value_that_is_not_a_whole_number(value):
    with pytest.raises(TuningError, match=rf"max_interval_growth grid value {value!r} "
                                          rf"is not a whole number >= 1"):
        SweepSpec(parameter=MAX_INTERVAL_GROWTH, values=[1.0, value])


def test_growth_grid_monotone(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=MAX_INTERVAL_GROWTH, values=[1, 2, 4, 8])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    assert [config_for(spec, r.value).max_interval_growth for r in results] == [1, 2, 4, 8]
    fractions = [r.model_fraction for r in results]
    assert fractions == sorted(fractions) and fractions[0] < fractions[-1]
    # growth 1 caps the interval at its start: the fixed interval's run
    fixed = sweep(SweepSpec(parameter=STEP_CHANGE, values=[0.2]), trained, feeder30,
                  test_slice.series(), PER_DAY, settings)[0]
    assert (results[0].model_fraction, results[0].max_eps) == (fixed.model_fraction,
                                                             fixed.max_eps)


def test_single_point_equals_direct_run(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.05])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    assert len(results) == 1

    series = test_slice.rows(0, test_slice.steps_per_day).series()
    config = config_for(spec, 0.05)
    # the sweep's truth is its own replay of the slice, started cold; the
    # dataset's continuous replay agrees with it only to mismatch_tolerance.
    # Its runs start from the replay's first row, which gives the same bits
    # as these cold runs.
    truth_solutions = run_pure_solver(feeder30, series, settings)
    truth = (np.array([s.v for s in truth_solutions]),
             np.array([s.a for s in truth_solutions]))
    _, records, summary = run_series(trained, feeder30, series, config, settings,
                                     ground_truth=truth)
    point = results[0]
    assert point.model_fraction == summary.avoided_solves_fraction
    errors = step_errors(records)
    assert [point.q25, point.q50, point.q75] == np.percentile(errors, [25, 50, 75]).tolist()
    assert point.max_eps == float(np.max(errors))


def _count_solves(monkeypatch) -> list[bool]:
    """Whether each `solve_newton_raphson` call of a hybrid loop starts flat."""
    calls = []
    real = hybrid.solve_newton_raphson

    def counting(network, p, q, guess, settings, chord=None):
        calls.append(guess is None)
        return real(network, p, q, guess, settings, chord)

    monkeypatch.setattr(hybrid, "solve_newton_raphson", counting)
    return calls


@pytest.mark.parametrize("values", [[0.05], [0.0, 0.05, 0.2, 0.5]], ids=["1", "4"])
def test_sweep_makes_one_flat_start_solve(trained, feeder30, test_slice, settings,
                                          monkeypatch, values):
    calls = _count_solves(monkeypatch)
    sweep(SweepSpec(parameter=STEP_CHANGE, values=values), trained, feeder30,
          test_slice.series(), PER_DAY, settings)
    assert sum(calls) == 1


def test_sweep_solves_each_calibration_row_and_solver_step_once(
        trained, feeder30, test_slice, settings, monkeypatch):
    calls = _count_solves(monkeypatch)
    spec = SweepSpec(parameter=ERROR_GRID, values=[1e-4, 1e-2], values2=[2, 12])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    steps = PER_DAY  # calibration days 0-1
    assert len(calls) == steps + sum(round((1 - r.model_fraction) * steps)
                                     for r in results)


def test_step_change_zero_grid_point(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.0, 0.5])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    zero = results[0]
    assert zero.model_fraction == 0.0
    assert zero.max_eps == 0.0


def test_quantiles_ordered(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=ERROR_THRESHOLD, values=[1e-6, 1e-4, 1e-2])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    for r in results:
        assert r.q25 <= r.q50 <= r.q75 <= r.max_eps
        assert 0.0 <= r.model_fraction <= 1.0


def test_2d_grid_monotone(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=ERROR_GRID, values=[1e-7, 1e-4, 1e-1],
                     values2=[4, 8, 16])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    frac = {(r.value, r.value2): r.model_fraction for r in results}
    for v2 in spec.values2:
        fractions = [frac[(v, v2)] for v in spec.values]
        assert fractions == sorted(fractions)
    for v in spec.values:
        fractions = [frac[(v, v2)] for v2 in spec.values2]
        assert fractions == sorted(fractions)


def test_sweep_deterministic(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.01, 0.2])
    series = test_slice.series()
    r1 = sweep(spec, trained, feeder30, series, PER_DAY, settings)
    r2 = sweep(spec, trained, feeder30, series, PER_DAY, settings)
    assert [(a.q50, a.max_eps, a.model_fraction) for a in r1] \
        == [(b.q50, b.max_eps, b.model_fraction) for b in r2]


def test_recommend_picks_highest_model_use(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=ERROR_THRESHOLD, values=[1e-7, 1e-4, 1e-2])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    best = recommend(results, max_error_budget=1.0)
    assert best is not None
    assert best.model_fraction == max(r.model_fraction for r in results)
    assert best.max_eps <= 1.0


def test_recommend_breaks_ties_toward_the_smaller_threshold():
    def point(value, value2):
        return SweepPoint(ERROR_GRID, value, value2, q25=0.0, q50=0.0, q75=0.0,
                          max_eps=0.0, model_fraction=0.5, extreme=False)

    for results in ([point(0.1, 2), point(1e-4, 6)], [point(1e-4, 6), point(0.1, 2)]):
        best = recommend(results, max_error_budget=0.01)
        assert (best.value, best.value2) == (1e-4, 6)
    best = recommend([point(1e-4, 12), point(1e-4, 6)], max_error_budget=0.01)
    assert (best.value, best.value2) == (1e-4, 6)


def test_recommend_infeasible_budget(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=ERROR_THRESHOLD, values=[1e-2])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    assert recommend(results, max_error_budget=0.0) is None


def test_recommend_never_violates_budget(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.0, 0.01, 0.2])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    budget = np.median([r.max_eps for r in results])
    best = recommend(results, budget)
    if best is not None:
        assert best.max_eps <= budget


def test_calibration_slice_out_of_range(trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.1], calibration_days=(0, 99))
    with pytest.raises(TuningError, match="outside"):
        sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)


def test_write_sweep_csv(tmp_path, trained, feeder30, test_slice, settings):
    spec = SweepSpec(parameter=STEP_CHANGE, values=[0.05, 0.2])
    results = sweep(spec, trained, feeder30, test_slice.series(), PER_DAY, settings)
    path = tmp_path / "sweep.csv"
    write_sweep(results, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("parameter,value,value2,q25,q50,q75")
    assert len(lines) == 3
