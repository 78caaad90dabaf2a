import numpy as np
import pytest

from hybridflow import loadgen
from hybridflow.hybrid import SimulationError, run_pure_solver
from hybridflow.loadgen import (MINUTES_PER_DAY, MINUTES_PER_WEEK, MODES, LoadProfileSpec,
                                LoadSpecError, generate)
from hybridflow.solver import SolverSettings
from hybridflow.surrogate import kmeans
from tests.oracles import mode_labels, scaled_spec


def test_zero_noise_weeks_repeat_bit_for_bit():
    spec = LoadProfileSpec(n_loads=3, duration_days=14, noise_scale=0.0, seed=1)
    series = generate(spec)
    week = 7 * MINUTES_PER_DAY // spec.resolution_minutes
    assert np.array_equal(series.P[:week], series.P[week:])
    assert np.array_equal(series.Q[:week], series.Q[week:])


def test_determinism_same_seed():
    spec = LoadProfileSpec(n_loads=5, duration_days=3, seed=7)
    s1 = generate(spec)
    s2 = generate(spec)
    assert np.array_equal(s1.P, s2.P)
    assert np.array_equal(s1.Q, s2.Q)
    assert np.array_equal(s1.timestamps, s2.timestamps)


def test_distinct_seeds_differ():
    base = dict(n_loads=5, duration_days=3)
    s1 = generate(LoadProfileSpec(seed=1, **base))
    s2 = generate(LoadProfileSpec(seed=2, **base))
    assert not np.array_equal(s1.P, s2.P)


def test_default_modes_cover_week_exactly():
    coverage = np.zeros(MINUTES_PER_WEEK, dtype=int)
    for days, start, end, _ in MODES:
        for day in days:
            coverage[day * MINUTES_PER_DAY + start:day * MINUTES_PER_DAY + end] += 1
    assert np.all(coverage == 1)


def test_bad_resolution_rejected():
    with pytest.raises(LoadSpecError, match="does not divide"):
        LoadProfileSpec(n_loads=2, resolution_minutes=7)


@pytest.mark.parametrize("change, key", [
    ({"resolution_minutes": 0}, "resolution_minutes"),
    ({"resolution_minutes": -5}, "resolution_minutes"),
    ({"noise_scale": float("nan")}, "noise_scale"),
    ({"noise_scale": float("inf")}, "noise_scale"),
    ({"base_level": float("nan")}, "base_level"),
    ({"base_level": -0.01}, "base_level"),
    ({"base_level": float("inf")}, "base_level"),
    ({"seed": -1}, "seed"),
], ids=["resolution_zero", "resolution_negative", "noise_nan", "noise_inf", "level_nan",
        "level_negative", "level_inf", "seed_negative"])
def test_bad_scalar_is_rejected_naming_its_key(change, key):
    with pytest.raises(LoadSpecError, match=key):
        LoadProfileSpec(n_loads=2, **change)


def test_power_factor_bound():
    spec = LoadProfileSpec(n_loads=6, duration_days=7, seed=3)
    series = generate(spec)
    limit = np.tan(np.arccos(spec.min_power_factor))
    assert np.all(series.Q <= series.P * limit + 1e-12)
    assert np.all(series.Q >= 0.0)
    assert np.isfinite(series.P).all() and np.isfinite(series.Q).all()


def test_weekly_periodicity_of_expectations():
    spec = LoadProfileSpec(n_loads=4, duration_days=28, noise_scale=0.01, seed=11)
    series = generate(spec)
    steps_per_week = 7 * 1440 // spec.resolution_minutes
    weeks = series.P.reshape(4, steps_per_week, -1)
    week_means = weeks.mean(axis=(1, 2))
    # identical mode structure every week: only noise separates week averages
    assert np.max(np.abs(week_means - week_means.mean())) < 5 * spec.noise_scale * week_means.mean()


def test_mode_labels_recovered_by_kmeans():
    spec = LoadProfileSpec(n_loads=10, duration_days=28, seed=21)
    series = generate(spec)
    truth = mode_labels(series.timestamps)
    X = np.hstack([series.P, series.Q])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    labels = kmeans(X, len(MODES), seed=0).assignments
    agreeing = 0
    for k in range(len(MODES)):
        members = labels == k
        if members.any():
            agreeing += np.bincount(truth[members]).max()
    assert agreeing / len(labels) >= 0.95


def test_mismatched_network_load_count(net4):
    spec = LoadProfileSpec(n_loads=5, duration_days=1)
    with pytest.raises(LoadSpecError, match="load-attached"):
        generate(spec, net4)


def test_feasibility_check_flags_timestamp(net4):
    spec = scaled_spec(LoadProfileSpec(n_loads=net4.n_loads, duration_days=1, seed=2),
                       factor=2000.0)
    with pytest.raises(SimulationError, match="row"):
        run_pure_solver(net4, generate(spec, net4), SolverSettings())


def test_feasible_spec_passes_check(net4):
    spec = LoadProfileSpec(n_loads=net4.n_loads, duration_days=1, seed=2,
                           resolution_minutes=60)
    solutions = run_pure_solver(net4, generate(spec, net4), SolverSettings())
    assert len(solutions) == 24
    assert all(s.converged for s in solutions)


def test_minute_of_week_monday_start():
    # default start 2024-01-01 is a Monday
    series = generate(LoadProfileSpec(n_loads=1, duration_days=1, seed=1))
    assert loadgen.minute_of_week(series.timestamps)[0] == 0
