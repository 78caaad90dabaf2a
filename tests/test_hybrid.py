import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hybridflow import solver
from hybridflow import surrogate as sg
from hybridflow.hybrid import (DISTANCE, STEP_CHANGE, HybridConfig, SimulationError,
                               first_row_state, input_gates, read_records,
                               run_pure_solver, run_series, write_records)
from hybridflow.loadgen import LoadSeries
from hybridflow.metrics import eps_inf
from hybridflow.solver import MODEL, SOLVER, Chord
from tests.oracles import mode_labels, run_series_stepwise
from tests.test_solver import load_events, x3_step


def constant_series(network, level=0.01, T=64):
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(T) * np.timedelta64(300, "s"))
    P = np.full((T, network.n_loads), level)
    return LoadSeries(timestamps=ts, P=P, Q=0.3 * P)


def perfect_surrogate(network, settings, level=0.01):
    """Surrogate that reproduces the solver bit-exactly on a constant-load
    toy case: a zero coefficient matrix with the solver solution as the
    intercept."""
    series = constant_series(network, level, T=1)
    from hybridflow.solver import solve_newton_raphson
    sol = solve_newton_raphson(network, series.P[0], series.Q[0], None, settings)
    assert sol.converged
    x = np.concatenate([series.P[0], series.Q[0]])
    n_in, n_v = len(x), network.n_bus
    return sg.ClusteredSurrogate(method=sg.KMEANS, centers=x[None, :],
                                 coef=np.zeros((1, 2 * n_v, n_in)),
                                 intercept=np.concatenate([sol.v, sol.a])[None, :],
                                 train_distances=[np.zeros(1)],
                                 input_mean=np.zeros(n_in), input_scale=np.ones(n_in))


@pytest.fixture(scope="module")
def small_model(small_dataset):
    return sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)


CONFIGS = st.builds(
    HybridConfig,
    max_check_interval=st.integers(1, 24),
    error_check_threshold=st.sampled_from([0.0, math.inf]) | st.floats(1e-8, 1e-2),
    step_change_threshold=st.none() | st.floats(0.0, 0.3),
    distance_percentile_threshold=st.none() | st.floats(50.0, 100.0))


def assert_matches_the_stepwise_loop(network, series, model, config, settings, start):
    solutions, records, _ = run_series(model, network, series, config, settings,
                                       start=start)
    expected, decisions = run_series_stepwise(model, network, series, config, settings,
                                              start)
    assert [(r.decision, r.triggering_check, r.solver_iterations)
            for r in records] == decisions
    for got, want in zip(solutions, expected, strict=True):
        assert np.array_equal(got.v, want.v) and np.array_equal(got.a, want.a)


@pytest.mark.parametrize("started", [False, True], ids=["flat", "start"])
@pytest.mark.parametrize("events", [False, True], ids=["slice", "load_events"])
@hyp_settings(max_examples=15, deadline=None)
@given(config=CONFIGS)
def test_run_series_matches_the_stepwise_loop(feeder30, small_series, small_model,
                                              settings, events, started, config):
    # load_events drives the model off its training range: its audits fire error_high
    series = load_events(small_series) if events else small_series.rows(0, 96)
    start = first_row_state(feeder30, series, settings) if started else None
    assert_matches_the_stepwise_loop(feeder30, series, small_model, config, settings, start)


@pytest.mark.parametrize("events", [False, True], ids=["slice", "load_events"])
@hyp_settings(max_examples=15, deadline=None)
@given(config=CONFIGS, growth=st.integers(1, 8))
def test_run_series_with_interval_growth_matches_the_stepwise_loop(
        feeder30, small_series, small_model, settings, events, config, growth):
    series = load_events(small_series) if events else small_series.rows(0, 96)
    config = replace(config, max_interval_growth=growth)
    assert_matches_the_stepwise_loop(feeder30, series, small_model, config, settings, None)


def test_perfect_model_accepts_all_non_forced_steps(net4, settings):
    model = perfect_surrogate(net4, settings)
    series = constant_series(net4, T=60)
    config = HybridConfig(max_check_interval=12)
    truth_sols = run_pure_solver(net4, series, settings)
    truth = (np.array([s.v for s in truth_sols]), np.array([s.a for s in truth_sols]))
    _, records, _ = run_series(model, net4, series, config, settings, ground_truth=truth)

    for t, r in enumerate(records):
        forced = t % 12 == 0  # staleness fires every 12th step after the first
        assert (r.decision == SOLVER) == forced
        if r.decision == MODEL:
            assert r.model_eps_inf_vs_truth == 0.0


def test_step_change_zero_bit_identical_to_pure_solver(feeder30, small_dataset, settings,
                                                        monkeypatch):
    test_series = small_dataset.rows(0, 100).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(step_change_threshold=0.0)
    evaluations = []
    real_injection = solver._injection

    def injection(*args):
        evaluations.append(args)
        return real_injection(*args)

    monkeypatch.setattr(solver, "_injection", injection)
    solutions, records, _ = run_series(model, feeder30, test_series, config, settings)
    hybrid_evaluations = len(evaluations)
    pure = run_pure_solver(feeder30, test_series, settings)
    assert all(r.decision == SOLVER for r in records)
    # each solve starts from the previous solve's own solution object, so it
    # reuses that solve's last evaluation as the sequential loop does
    assert hybrid_evaluations == len(evaluations) - hybrid_evaluations
    for got, expected in zip(solutions, pure):
        assert np.array_equal(got.v, expected.v)
        assert np.array_equal(got.a, expected.a)


@pytest.mark.parametrize("degenerate", ["error", "distance"])
def test_other_degenerate_gates_reduce_to_pure_solver(degenerate, feeder30,
                                                      small_dataset, settings):
    test_series = small_dataset.rows(0, 50).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    if degenerate == "error":
        config = HybridConfig(error_check_threshold=0.0)
    else:
        config = HybridConfig(distance_percentile_threshold=0.0)
    _, records, _ = run_series(model, feeder30, test_series, config, settings)
    assert all(r.decision == SOLVER for r in records)


def test_all_checks_disabled_model_always_used(feeder30, small_dataset, settings):
    test_series = small_dataset.rows(0, 40).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(error_check_threshold=math.inf,
                          max_check_interval=test_series.n_steps + 1,
                          step_change_threshold=None, distance_percentile_threshold=None)
    _, records, summary = run_series(model, feeder30, test_series, config, settings)
    T = len(records)
    assert summary.avoided_solves_fraction == (T - 1) / T


def test_day_of_week_model_serves_days_missing_from_training(feeder30, small_dataset,
                                                              settings):
    # trained on Monday and Tuesday only, every later day routes to a fitted map
    per_day = small_dataset.steps_per_day
    model = sg.train(small_dataset.rows(0, 2 * per_day), method=sg.DAY_OF_WEEK)
    test_series = small_dataset.rows(2 * per_day, small_dataset.n_steps).series()
    solutions, records, _ = run_series(model, feeder30, test_series, HybridConfig(),
                                       settings)
    assert len(records) == test_series.n_steps
    assert min(s.v.min() for s in solutions) > 0.5


def test_safety_floor_solver_calls(feeder30, small_dataset, settings):
    test_series = small_dataset.rows(0, 97).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(max_check_interval=10)
    _, records, _ = run_series(model, feeder30, test_series, config, settings)
    n_solver = sum(r.decision == SOLVER for r in records)
    assert n_solver >= math.ceil(len(records) / config.max_check_interval)
    # staleness invariant: never more than interval-1 consecutive model steps
    run = 0
    for r in records:
        if r.decision == MODEL:
            run += 1
            assert run <= config.max_check_interval - 1
        else:
            run = 0


def test_gate_soundness_replay(feeder30, small_dataset, settings):
    """Model decisions iff every enabled gate quantity was within threshold,
    replayed from the inputs and the accepted-output stream (implies
    gate-order independence)."""
    test_series = small_dataset.rows(0, 120).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(max_check_interval=8, error_check_threshold=1e-4,
                          step_change_threshold=0.08,
                          distance_percentile_threshold=99.0)
    solutions, records, _ = run_series(model, feeder30, test_series, config, settings)
    assert {r.decision for r in records} == {MODEL, SOLVER}

    stored_error = math.inf
    steps_since = 0
    correction_v = correction_a = 0.0  # the last solve's solution minus its prediction
    for t, (r, accepted) in enumerate(zip(records, solutions)):
        # each step's prediction on its own, not from the run's batch
        pred = sg.evaluate(model, np.hstack([test_series.P[t:t + 1],
                                             test_series.Q[t:t + 1]]))
        pred_v, pred_a = pred.v[0], pred.a[0]
        if t == 0:
            assert r.decision == SOLVER
        else:
            # largest relative load change since the last step, 1e-3 pu floor
            x_now = list(test_series.P[t]) + list(test_series.Q[t])
            x_prev = list(test_series.P[t - 1]) + list(test_series.Q[t - 1])
            change = max(abs(x - p) / max(abs(p), 1e-3) for x, p in zip(x_now, x_prev))
            gates = [
                pred.percentile[0] >= config.distance_percentile_threshold,
                change >= config.step_change_threshold,
                steps_since + 1 >= config.max_check_interval,
                stored_error >= config.error_check_threshold,
            ]
            assert (r.decision == SOLVER) == any(gates)
        if r.decision == SOLVER:
            stored_error = eps_inf(pred_v + correction_v, pred_a + correction_a,
                                   accepted.v, accepted.a)
            correction_v, correction_a = accepted.v - pred_v, accepted.a - pred_a
            steps_since = 0
        else:
            steps_since += 1


GATE_LO, GATE_HI = 40, 56  # 10:00-14:00 on day 0: inside small_series' weekday-day mode


@pytest.mark.parametrize("case", ["step3", "drop_half", "one_mode", "zero", "null",
                                  "both"])
def test_input_gates(case, small_series):
    P, Q = small_series.P.copy(), small_series.Q.copy()
    percentile = np.zeros(len(P))
    config = HybridConfig()  # step change 0.20, no distance check
    rows = range(GATE_LO - 3, GATE_HI + 3)
    expected = {}
    if case in ("step3", "both"):
        P[GATE_LO:GATE_HI] *= 3.0
        Q[GATE_LO:GATE_HI] *= 3.0
        expected = {GATE_LO: STEP_CHANGE, GATE_HI: STEP_CHANGE}
    if case == "both":
        config = HybridConfig(distance_percentile_threshold=99.0)
        percentile[[GATE_LO, GATE_LO + 5]] = 100.0
        expected.update({GATE_LO: DISTANCE, GATE_LO + 5: DISTANCE})
    elif case == "drop_half":
        P[GATE_LO:GATE_HI, ::2] = 0.0
        Q[GATE_LO:GATE_HI, ::2] = 0.0
        expected = {GATE_LO: STEP_CHANGE, GATE_HI: STEP_CHANGE}
    elif case == "one_mode":
        labels = mode_labels(small_series.timestamps)
        rows = np.flatnonzero(labels[1:] == labels[:-1]) + 1
    elif case == "zero":
        config = HybridConfig(step_change_threshold=0.0)
        rows = range(len(P))
        expected = {t: STEP_CHANGE for t in range(1, len(P))}
    elif case == "null":
        config = HybridConfig(step_change_threshold=None)
        P[GATE_LO:GATE_HI] *= 3.0
        percentile[:] = 100.0
        rows = range(len(P))
    # the 1e-3 pu floor keeps a zero load from dividing by zero
    with np.errstate(divide="raise", invalid="raise"):
        gates = input_gates(np.hstack([P, Q]), percentile, config)
    assert len(gates) == len(P)
    assert [gates[t] for t in rows] == [expected.get(t) for t in rows]


def test_solver_failure_propagates(net4, settings):
    model = perfect_surrogate(net4, settings)
    series = constant_series(net4, level=50.0, T=3)  # infeasible load
    with pytest.raises(SimulationError, match="did not converge"):
        run_series(model, net4, series, HybridConfig(), settings)


def test_pure_solver_failure_reads_as_the_hybrid_one(net4, settings):
    series = constant_series(net4, level=50.0, T=3)  # infeasible load
    message = (rf"^solver did not converge \(max {settings.max_iterations} iterations\) "
               rf"at {series.timestamps[0]} \(row 0\)$")
    with pytest.raises(SimulationError, match=message):
        run_pure_solver(net4, series, settings)
    with pytest.raises(SimulationError, match=message):
        run_series(perfect_surrogate(net4, settings), net4, series, HybridConfig(),
                   settings)


def test_run_series_deterministic(feeder30, small_dataset, settings):
    test_series = small_dataset.rows(0, 80).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    truth = (small_dataset.outputs_v[:80], small_dataset.outputs_a[:80])
    _, r1, _ = run_series(model, feeder30, test_series, HybridConfig(), settings,
                          ground_truth=truth)
    _, r2, _ = run_series(model, feeder30, test_series, HybridConfig(), settings,
                          ground_truth=truth)
    assert [(x.decision, x.triggering_check, x.model_eps_inf_vs_truth) for x in r1] \
        == [(x.decision, x.triggering_check, x.model_eps_inf_vs_truth) for x in r2]


def test_runs_share_no_solver_state(feeder30, small_dataset, settings):
    # a run in between, on other loads, must not change a repeat of the first
    series = small_dataset.rows(0, 80).series()
    other = small_dataset.rows(300, 380).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(max_check_interval=4)
    s1, r1, _ = run_series(model, feeder30, series, config, settings)
    run_series(model, feeder30, other, config, settings)
    s2, r2, _ = run_series(model, feeder30, series, config, settings)
    assert [(x.decision, x.triggering_check, x.solver_iterations) for x in r1] \
        == [(x.decision, x.triggering_check, x.solver_iterations) for x in r2]
    for a, b in zip(s1, s2):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.a, b.a)


def test_loop_inverse_is_read_only(feeder30, small_series, settings):
    start = first_row_state(feeder30, small_series, settings)
    assert start.chord.inversions == 1
    with pytest.raises(ValueError, match="read-only"):
        start.chord.inverse[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        start.chord.inverse *= 2.0


def test_runs_from_a_shared_start_leave_it_unchanged(feeder30, small_dataset, small_series,
                                                     settings, monkeypatch):
    # a x3 load step makes each loop refresh its inverse
    series = x3_step(small_series)
    cold = run_pure_solver(feeder30, series, settings)
    start = first_row_state(feeder30, series, settings)
    inverse, inverse_bits = start.chord.inverse, start.chord.inverse.copy()
    first = start.last_accepted
    assert np.array_equal(first.v, cold[0].v) and np.array_equal(first.a, cold[0].a)

    refreshed = []
    real_invert = Chord.invert

    def invert(chord, J, iteration):
        refreshed.append(chord)
        real_invert(chord, J, iteration)

    monkeypatch.setattr(Chord, "invert", invert)
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(step_change_threshold=0.0)  # every step solves
    solutions, records, _ = run_series(model, feeder30, series, config, settings,
                                       start=start)
    rest = run_pure_solver(feeder30, series.rows(1, series.n_steps), settings, start)
    assert refreshed and all(chord is not start.chord for chord in refreshed)
    assert start.chord.inverse is inverse and np.array_equal(inverse, inverse_bits)
    assert start.chord.inversions == 1 and start.last_accepted is first

    # the same bits as the cold loops; the grid run's first solve is warm
    assert records[0].triggering_check == "forced_first"
    assert records[0].solver_iterations == 0 < cold[0].iterations
    for got in (solutions, [first] + rest):
        for a, b in zip(got, cold, strict=True):
            assert np.array_equal(a.v, b.v) and np.array_equal(a.a, b.a)


def test_records_csv_round_trip(tmp_path, feeder30, small_dataset, settings):
    test_series = small_dataset.rows(0, 40).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    truth = (small_dataset.outputs_v[:40], small_dataset.outputs_a[:40])
    _, records, _ = run_series(model, feeder30, test_series, HybridConfig(),
                               settings, ground_truth=truth)
    path = tmp_path / "records.csv"
    write_records(records, path)
    loaded = read_records(path)
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert a.timestamp == b.timestamp
        assert a.decision == b.decision
        assert a.triggering_check == b.triggering_check
        assert a.model_eps_inf_vs_truth == b.model_eps_inf_vs_truth
        assert a.solver_iterations == b.solver_iterations


def test_nan_load_names_the_step(net4, settings):
    model = perfect_surrogate(net4, settings)
    series = constant_series(net4, T=4)
    series.P[2, 0] = np.nan
    # the NaN reaches the model's prediction, which is checked before the loop
    with pytest.raises(SimulationError,
                       match=r"non-finite .* at 2024-01-01T00:10:00 \(row 2\)$"):
        run_series(model, net4, series, HybridConfig(), settings)


def test_nan_load_without_step_change_names_the_step(net4, settings):
    model = perfect_surrogate(net4, settings)
    series = constant_series(net4, T=4)
    series.P[2, 0] = np.nan
    # no gate reads the prediction and no truth scores it: the run must
    # still refuse the non-finite model output rather than accept it
    config = HybridConfig(step_change_threshold=None)
    with pytest.raises(SimulationError,
                       match=r"non-finite .* at 2024-01-01T00:10:00 \(row 2\)$"):
        run_series(model, net4, series, config, settings)


def test_nan_ground_truth_names_the_step(net4, settings):
    model = perfect_surrogate(net4, settings)
    series = constant_series(net4, T=4)
    truth_sols = run_pure_solver(net4, series, settings)
    truth = (np.array([s.v for s in truth_sols]), np.array([s.a for s in truth_sols]))
    truth[0][2, 1] = np.nan
    with pytest.raises(SimulationError,
                       match=r"non-finite .* at 2024-01-01T00:10:00 \(row 2\)$"):
        run_series(model, net4, series, HybridConfig(), settings, ground_truth=truth)
