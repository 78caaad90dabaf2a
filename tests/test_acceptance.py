"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with `pytest -v -s` to see them
on success)."""

import json
import math
import time

import numpy as np
import pytest

from hybridflow import dataset as ds
from hybridflow import loadgen, report, surrogate as sg, tuning
from hybridflow.cli import main
from hybridflow.config import load_bundled_or_path
from hybridflow.hybrid import HybridConfig, read_records, run_pure_solver, run_series
from hybridflow.loadgen import LoadSeries
from hybridflow.metrics import eps_inf
from hybridflow.solver import (SOLVER, SolverSettings, power_mismatch,
                               solve_newton_raphson)
from tests.oracles import mode_labels, solve_gauss_seidel
from tests.test_hybrid import constant_series, perfect_surrogate

STUDY_CONFIG = """\
network: feeder30
dataset: {out}/dataset.csv
load_spec:
  n_loads: 29
  resolution_minutes: 5
  duration_days: 28
  base_level: 0.01
  noise_scale: 0.02
  seed: 42
split:
  drop_days: 3
  train_days: 7
  test_days: 18
surrogate:
  method: kmeans
  n_clusters: 7
  seed: 7
  model_file: {out}/surrogate.json
hybrid:
  error_check_threshold: 0.01
  max_check_interval: 12
  step_change_threshold: 0.20
  distance_percentile_threshold: null
solver:
  mismatch_tolerance: 1.0e-8
output_dir: {out}
"""


def run_pipeline(root):
    config = root / "run.yaml"
    config.write_text(STUDY_CONFIG.format(out=root / "out"))
    for command in (["generate"], ["train"], ["simulate"]):
        assert main(["--config", str(config), *command]) == 0
    return root / "out"


@pytest.fixture(scope="module")
def full_study(tmp_path_factory):
    """Criterion-6 pipeline artifacts: the desk-scale final-model run."""
    start = time.perf_counter()
    out = run_pipeline(tmp_path_factory.mktemp("full_study"))
    elapsed = time.perf_counter() - start
    summary = json.loads((out / "summary.json").read_text())
    return out, summary, elapsed


@pytest.fixture(scope="module")
def full_study_parts(full_study):
    out, _, _ = full_study
    data = ds.read_csv(out / "dataset.csv")
    train_set, test_set = ds.split(data, ds.SplitSpec(3, 7, 18))
    model = sg.load(out / "surrogate.json")
    network = load_bundled_or_path("feeder30")
    return network, model, train_set, test_set


def test_criterion_1_solver_correctness(net4, feeder30, settings):
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    draws = 0
    for network in (net4, feeder30):
        for _ in range(100):
            p = rng.uniform(0.001, 0.015, network.n_loads)
            q = p * rng.uniform(0.1, 0.45, network.n_loads)
            nr = solve_newton_raphson(network, p, q, None, settings)
            assert nr.converged
            residual = power_mismatch(network, p, q, nr.v, nr.a)
            assert np.max(np.abs(residual)) <= 1e-8
            gs = solve_gauss_seidel(network, p, q, settings)
            assert gs.converged
            assert np.max(np.abs(nr.v - gs.v)) <= 1e-6
            assert np.max(np.abs(nr.a - gs.a)) <= 1e-6
            draws += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 1: PASS - NR/GS agreement on {draws} draws "
          f"in {elapsed:.1f}s")


def test_criterion_2_regression_oracle():
    rng = np.random.default_rng(1002)
    checked = 0
    for case in range(20):
        m = rng.integers(20, 80)
        n = rng.integers(3, 10)
        X = rng.standard_normal((m, n))
        if case == 0:
            X[:, -1] = X[:, 0]  # rank-deficient: duplicated column
        Y = rng.standard_normal((m, rng.integers(1, 5)))
        A, _ = sg.fit_regression(X, Y, intercept=False)
        oracle = (np.linalg.pinv(X) @ Y).T
        scale = max(np.abs(oracle).max(), 1e-30)
        assert np.abs(A - oracle).max() <= 1e-8 * scale
        checked += 1
    print(f"\nACCEPTANCE 2: PASS - {checked} problems match the pseudo-inverse "
          f"oracle at 1e-8 relative (incl. rank-deficient minimum-norm)")


def test_criterion_3_clustering():
    rng = np.random.default_rng(1003)
    for seed in range(50):
        pts = rng.standard_normal((150, 5))
        result = sg.kmeans(pts, 4, seed=seed, n_restarts=3)
        h = result.wcss_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1))
        d2 = ((pts[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        assert np.array_equal(labels, result.assignments)
        for k in range(4):
            assert np.allclose(result.centers[k], pts[labels == k].mean(axis=0),
                               atol=1e-6)

    blob_a = rng.standard_normal((80, 3)) * 0.2
    blob_b = rng.standard_normal((80, 3)) * 0.2 + 8.0
    labels = sg.kmeans(np.vstack([blob_a, blob_b]), 2, seed=0).assignments
    assert len(set(labels[:80])) == 1 and len(set(labels[80:])) == 1
    assert labels[0] != labels[80]

    spec = loadgen.LoadProfileSpec(n_loads=29, resolution_minutes=5,
                                   duration_days=28, seed=42)
    series = loadgen.generate(spec)
    truth = mode_labels(series.timestamps)
    X = np.hstack([series.P, series.Q])
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    labels = sg.kmeans(X, 7, seed=7).assignments
    agreeing = sum(np.bincount(truth[labels == k]).max()
                   for k in range(7) if (labels == k).any())
    purity = agreeing / len(labels)
    assert purity >= 0.95
    print(f"\nACCEPTANCE 3: PASS - Lloyd monotone/fixed-point on 50 runs, "
          f"blob purity 100%, 7-mode purity {purity:.1%}")


def test_criterion_4_metric_examples():
    v = np.array([1.0, 0.97])
    a = np.array([0.0, -0.02])
    assert eps_inf(v, a, v, a) <= 1e-12

    got = eps_inf(np.array([1.01]), np.array([0.0]), np.array([1.0]), np.array([0.0]))
    assert abs(got - 0.01) <= 1e-12

    for theta in (0.01, 0.1):
        chord = abs(np.exp(1j * theta) - 1.0)
        got = eps_inf(np.array([1.0]), np.array([theta]), np.array([1.0]), np.array([0.0]))
        assert abs(got - chord) <= 1e-12
    print("\nACCEPTANCE 4: PASS - identity, magnitude, chord-length examples "
          "at 1e-12 absolute")


def test_criterion_5_degenerate_equivalences(net4, feeder30, small_dataset, settings):
    test_series = small_dataset.rows(0, 96).series()
    model = sg.train(small_dataset, method=sg.KMEANS, n_c=3, seed=0)
    config = HybridConfig(step_change_threshold=0.0)
    solutions, records, _ = run_series(model, feeder30, test_series, config, settings)
    pure = run_pure_solver(feeder30, test_series, settings)
    assert all(r.decision == SOLVER for r in records)
    for got, expected in zip(solutions, pure):
        assert np.array_equal(got.v, expected.v)
        assert np.array_equal(got.a, expected.a)

    perfect = perfect_surrogate(net4, settings)
    series = constant_series(net4, T=48)
    truth_solutions = run_pure_solver(net4, series, settings)
    truth = (np.array([s.v for s in truth_solutions]),
             np.array([s.a for s in truth_solutions]))
    _, records, _ = run_series(perfect, net4, series,
                               HybridConfig(max_check_interval=12), settings,
                               ground_truth=truth)
    for t, r in enumerate(records):
        assert (r.decision == SOLVER) == (t % 12 == 0)
        if r.decision != SOLVER:
            assert r.model_eps_inf_vs_truth == 0.0
    print("\nACCEPTANCE 5: PASS - step_change=0 bit-identical to pure solver; "
          "perfect surrogate accepted with zero error")


def test_criterion_6_full_study(full_study):
    _, summary, elapsed = full_study
    assert summary["avoided_solves_fraction"] >= 0.60
    assert summary["median_eps_inf"] <= 0.01
    assert summary["fraction_above_threshold"] <= 0.01
    assert elapsed <= 600.0
    print(f"\nACCEPTANCE 6: PASS - avoided {summary['avoided_solves_fraction']:.1%}, "
          f"median eps {summary['median_eps_inf']:.2e}, "
          f"above-1% fraction {summary['fraction_above_threshold']:.2%}, "
          f"end-to-end {elapsed:.0f}s")


def test_criterion_7_tuning_monotonicity(full_study_parts, settings):
    network, model, _, test_set = full_study_parts
    series = test_set.series()
    grids = [
        (tuning.ERROR_THRESHOLD, [1e-9, 1e-7, 1e-5, 1e-3, 1e-1], None),
        (tuning.ERROR_GRID, [1e-5], [2, 4, 8, 16, 32]),
        (tuning.STEP_CHANGE, [0.0, 1e-6, 1e-4, 1e-2, 0.5], None),
        (tuning.DISTANCE_PERCENTILE, [0.0, 25.0, 50.0, 75.0, 90.0, 100.0], None),
        (tuning.MAX_INTERVAL_GROWTH, [1, 2, 4, 8, 16], None),
    ]
    for parameter, values, values2 in grids:
        spec = tuning.SweepSpec(parameter=parameter, values=values, values2=values2)
        results = tuning.sweep(spec, model, network, series, test_set.steps_per_day,
                               settings)
        fractions = [r.model_fraction for r in results]
        assert fractions == sorted(fractions), (parameter, fractions)
    print("\nACCEPTANCE 7: PASS - model-use fraction non-decreasing in all "
          "five gate grids")


def test_criterion_8_determinism(full_study, tmp_path_factory):
    out1, _, _ = full_study
    out2 = run_pipeline(tmp_path_factory.mktemp("full_study_repeat"))
    for name in ("dataset.csv", "surrogate.json", "records.csv", "solutions.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    # clustering determinism (criterion-3 full_study) in serialized form
    spec = loadgen.LoadProfileSpec(n_loads=29, resolution_minutes=5,
                                   duration_days=28, seed=42)
    series = loadgen.generate(spec)
    X = np.hstack([series.P, series.Q])
    r1 = sg.kmeans((X - X.mean(0)) / X.std(0), 7, seed=7)
    r2 = sg.kmeans((X - X.mean(0)) / X.std(0), 7, seed=7)
    assert np.array_equal(r1.centers, r2.centers)
    assert np.array_equal(r1.assignments, r2.assignments)
    print("\nACCEPTANCE 8: PASS - repeated pipeline byte-identical "
          "(dataset, model, records, solutions)")


def test_criterion_9_speed_sanity(full_study):
    out, summary, _ = full_study
    decisions = [r.decision for r in read_records(out / "records.csv")]
    ratio = ((summary["wall_time_model"] / decisions.count("model"))
             / (summary["wall_time_solver"] / decisions.count("solver")))
    assert ratio <= 0.1
    print(f"\nACCEPTANCE 9: PASS - model step / solver step wall-time ratio "
          f"{ratio:.3f} <= 0.1")


def test_load_events_within_budget(full_study_parts, settings):
    """Every accepted output stays within budget through load events longer
    than the staleness cap: all loads x3 in the weekday evening peak, and
    half the loads dropped to zero."""
    network, model, _, test_set = full_study_parts
    series = test_set.rows(0, 288).series()  # the first test day, a weekday
    P, Q = series.P.copy(), series.Q.copy()
    # 17:30-19:30, off the hourly phase of the stale solves
    P[210:234] *= 3.0
    Q[210:234] *= 3.0
    P[60:84, ::2] = 0.0  # 05:00-07:00
    Q[60:84, ::2] = 0.0
    events = LoadSeries(timestamps=series.timestamps, P=P, Q=Q)
    truth_solutions = run_pure_solver(network, events, settings)
    truth = (np.array([s.v for s in truth_solutions]),
             np.array([s.a for s in truth_solutions]))
    config = HybridConfig()
    _, _, summary = run_series(model, network, events, config, settings,
                               ground_truth=truth)
    assert summary.max_eps_inf <= config.error_check_threshold
    print(f"\nACCEPTANCE events: PASS - worst accepted error {summary.max_eps_inf:.2e} "
          f"<= {config.error_check_threshold} through a x3 step and a half drop, "
          f"avoided {summary.avoided_solves_fraction:.1%}")


DRIFT_SLOT, DRIFT_ROWS = 600, 100  # one 100-row event in each 600-row slot
DRIFT_OFFSETS = np.random.default_rng(5).integers(0, 400, 8)


def drift(series, kind):
    """The test series with 8 events of `kind` the input gates cannot see, or
    see only at their edges: Q doubled (a power-factor shift off the trained
    P-Q plane), every load x5, 10 loads injecting 0.05 pu, and a linear
    x1 -> x3 ramp over the event rows held to the end of its slot."""
    P, Q = series.P.copy(), series.Q.copy()
    for slot, offset in enumerate(DRIFT_OFFSETS.tolist()):
        lo = slot * DRIFT_SLOT + offset
        rows = slice(lo, lo + DRIFT_ROWS)
        if kind == "q_x2":
            Q[rows] *= 2.0
        elif kind == "step_x5":
            P[rows] *= 5.0
            Q[rows] *= 5.0
        elif kind == "injection":
            P[rows, ::3] = -0.05
            Q[rows, ::3] = 0.0
        else:  # ramp_x3
            end = (slot + 1) * DRIFT_SLOT
            factor = np.concatenate([np.linspace(1.0, 3.0, DRIFT_ROWS),
                                     np.full(end - lo - DRIFT_ROWS, 3.0)])[:, None]
            P[lo:end] *= factor
            Q[lo:end] *= factor
    return LoadSeries(timestamps=series.timestamps, P=P, Q=Q)


@pytest.mark.parametrize("kind", ["q_x2", "step_x5", "injection", "ramp_x3"])
def test_drift_within_budget(full_study_parts, settings, kind):
    """The budget holds through drift in the full study's test window, with
    the fixed staleness interval and with clean audits stretching it 4x."""
    network, model, _, test_set = full_study_parts
    events = drift(test_set.series(), kind)
    truth_solutions = run_pure_solver(network, events, settings)
    truth = (np.array([s.v for s in truth_solutions]),
             np.array([s.a for s in truth_solutions]))
    measured = []
    for config in (HybridConfig(), HybridConfig(max_interval_growth=4)):
        _, _, summary = run_series(model, network, events, config, settings,
                                   ground_truth=truth)
        assert summary.max_eps_inf <= config.error_check_threshold, (config, summary)
        measured.append(f"{summary.max_eps_inf:.2e} (avoided "
                        f"{summary.avoided_solves_fraction:.1%})")
    print(f"\nACCEPTANCE drift {kind}: PASS - worst accepted error, fixed interval "
          f"{measured[0]}, growth 4 {measured[1]}")
