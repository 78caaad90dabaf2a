import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from hybridflow import hybrid, loadgen, solver
from hybridflow.hybrid import (HybridConfig, HybridState, SimulationError,
                              run_ground_truth, run_pure_solver, step)
from hybridflow.loadgen import LoadSeries
from hybridflow.netmodel import PQ, SLACK, Bus, Line, make_network
from hybridflow.solver import (Chord, SingularJacobianError, SolverSettings,
                               VoltageSolution, _jacobian, power_mismatch,
                               solve_newton_raphson)
from tests.oracles import jacobian_dense, solve_gauss_seidel, solve_newton_dense


@pytest.fixture(scope="module")
def two_bus():
    buses = [Bus(0, "slack"), Bus(1, "pq", load_attachment=0)]
    return make_network(buses, [Line(0, 1, 0.0, 0.1)])


def two_bus_closed_form(p, q, X):
    """Closed-form two-bus solution from the quadratic voltage equation.

    For a slack at 1.0 pu feeding load (p, q) through z = jX:
    u^2 + u(2qX - 1) + X^2(p^2 + q^2) = 0 with u = v^2 (upper root).
    """
    disc = (1.0 - 2.0 * q * X) ** 2 - 4.0 * X ** 2 * (p ** 2 + q ** 2)
    u = (1.0 - 2.0 * q * X + math.sqrt(disc)) / 2.0
    v = math.sqrt(u)
    delta = math.atan2(-p * X, u + q * X)
    return v, delta


def test_zero_load_flat_start(net4, settings):
    p = np.zeros(net4.n_loads)
    sol = solve_newton_raphson(net4, p, p, None, settings)
    assert sol.converged
    assert sol.iterations <= 1
    assert np.allclose(sol.v, 1.0, atol=1e-12)
    assert np.allclose(sol.a, 0.0, atol=1e-12)


def test_zero_load_gauss_seidel(net4, settings):
    p = np.zeros(net4.n_loads)
    sol = solve_gauss_seidel(net4, p, p, settings)
    assert sol.converged
    assert np.allclose(sol.v, 1.0, atol=1e-8)
    assert np.allclose(sol.a, 0.0, atol=1e-8)


@pytest.mark.parametrize("p,q", [(0.1, 0.0), (0.2, 0.05), (0.05, 0.1)])
def test_two_bus_matches_closed_form(two_bus, settings, p, q):
    v_exp, a_exp = two_bus_closed_form(p, q, 0.1)
    for solve in (solve_newton_raphson, solve_gauss_seidel):
        if solve is solve_newton_raphson:
            sol = solve(two_bus, [p], [q], None, settings)
        else:
            sol = solve(two_bus, [p], [q], settings)
        assert sol.converged
        assert sol.v[0] == 1.0 and sol.a[0] == 0.0
        assert sol.v[1] == pytest.approx(v_exp, abs=1e-8)
        assert sol.a[1] == pytest.approx(a_exp, abs=1e-8)


def test_closed_form_satisfies_mismatch(two_bus):
    # self-check of the oracle: the closed form must zero the residual
    v_exp, a_exp = two_bus_closed_form(0.1, 0.0, 0.1)
    residual = power_mismatch(two_bus, [0.1], [0.0],
                              np.array([1.0, v_exp]), np.array([0.0, a_exp]))
    assert np.max(np.abs(residual)) < 1e-12


def test_feeder_nr_vs_gauss_seidel(feeder30, settings):
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(0.001, 0.015, feeder30.n_loads)
        q = p * rng.uniform(0.1, 0.4, feeder30.n_loads)
        nr = solve_newton_raphson(feeder30, p, q, None, settings)
        gs = solve_gauss_seidel(feeder30, p, q, settings)
        assert nr.converged and gs.converged
        assert np.max(np.abs(nr.v - gs.v)) < 1e-6
        assert np.max(np.abs(nr.a - gs.a)) < 1e-6


def test_converged_mismatch_below_tolerance(feeder30, settings):
    rng = np.random.default_rng(4)
    p = rng.uniform(0.001, 0.015, feeder30.n_loads)
    q = 0.3 * p
    sol = solve_newton_raphson(feeder30, p, q, None, settings)
    residual = power_mismatch(feeder30, p, q, sol.v, sol.a)
    assert np.max(np.abs(residual)) <= settings.mismatch_tolerance


def test_flat_profile_residual_equals_negated_load(feeder30):
    p = np.full(feeder30.n_loads, 0.01)
    q = np.full(feeder30.n_loads, 0.003)
    v = np.ones(feeder30.n_bus)
    a = np.zeros(feeder30.n_bus)
    residual = power_mismatch(feeder30, p, q, v, a)
    pq = feeder30.pq_indices
    expected = np.zeros(2 * len(pq))
    load_pos = {bus: i for i, bus in enumerate(feeder30.load_buses)}
    for row, bus in enumerate(pq):
        if bus in load_pos:
            expected[row] = -p[load_pos[bus]]
            expected[row + len(pq)] = -q[load_pos[bus]]
    assert np.allclose(residual, expected, atol=1e-14)


@pytest.mark.parametrize("name", ["net4", "feeder30"])
def test_batched_mismatch_matches_the_rows(name, request, settings):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(8)
    P = rng.uniform(0.001, 0.015, (40, network.n_loads))
    Q = 0.3 * P
    solutions = [solve_newton_raphson(network, p, q, None, settings) for p, q in zip(P, Q)]
    # even rows at their solutions, odd rows 1% off them (a large mismatch)
    v = np.array([s.v for s in solutions]) * (1.0 + 0.01 * rng.standard_normal((40, 1)))
    a = np.array([s.a for s in solutions]) + 0.01 * rng.standard_normal((40, 1))
    v[::2], a[::2] = [s.v for s in solutions[::2]], [s.a for s in solutions[::2]]
    rows = np.array([power_mismatch(network, *x) for x in zip(P, Q, v, a)])
    # the batch's product sums in another order than a row's: they agree
    # within the round-off of a dot product over the buses
    round_off = network.n_bus * np.finfo(float).eps * np.abs(network.Y).max()
    np.testing.assert_allclose(power_mismatch(network, P, Q, v, a), rows, rtol=0,
                               atol=round_off)
    for t in range(0, 40, 7):  # a batch of one row keeps the row's bits
        one, = power_mismatch(network, P[t:t + 1], Q[t:t + 1], v[t:t + 1], a[t:t + 1])
        assert np.array_equal(one, rows[t])


def test_perturbed_solution_increases_residual(feeder30, settings):
    p = np.full(feeder30.n_loads, 0.01)
    q = 0.3 * p
    sol = solve_newton_raphson(feeder30, p, q, None, settings)
    base = np.max(np.abs(power_mismatch(feeder30, p, q, sol.v, sol.a)))
    v = sol.v.copy()
    v[5] += 1e-3
    perturbed = np.max(np.abs(power_mismatch(feeder30, p, q, v, sol.a)))
    assert perturbed > base


def test_infeasible_load_is_explicit(two_bus, settings):
    # beyond the loadability nose: never a silent bad answer
    try:
        sol = solve_newton_raphson(two_bus, [10.0], [0.0], None, settings)
        assert not sol.converged
    except SingularJacobianError:
        pass


def test_warm_start_consistency(feeder30, settings):
    rng = np.random.default_rng(5)
    p = rng.uniform(0.001, 0.015, feeder30.n_loads)
    q = 0.3 * p
    flat = solve_newton_raphson(feeder30, p, q, None, settings)
    p2 = p * 1.01
    warm = solve_newton_raphson(feeder30, p2, 0.3 * p2, flat, settings)
    cold = solve_newton_raphson(feeder30, p2, 0.3 * p2, None, settings)
    assert np.max(np.abs(warm.v - cold.v)) < 10 * settings.mismatch_tolerance
    assert np.max(np.abs(warm.a - cold.a)) < 10 * settings.mismatch_tolerance


def test_warm_start_reduces_iterations(feeder30, small_series, settings):
    steps = 50
    warm_iters = []
    guess = None
    for t in range(steps):
        sol = solve_newton_raphson(feeder30, small_series.P[t], small_series.Q[t],
                                   guess, settings)
        warm_iters.append(sol.iterations)
        guess = sol
    flat_iters = [
        solve_newton_raphson(feeder30, small_series.P[t], small_series.Q[t],
                             None, settings).iterations
        for t in range(steps)
    ]
    assert np.mean(warm_iters) <= np.mean(flat_iters)


def test_slack_pinned(feeder30, settings):
    p = np.full(feeder30.n_loads, 0.01)
    sol = solve_newton_raphson(feeder30, p, 0.3 * p, None, settings)
    slack = feeder30.slack_index
    assert sol.v[slack] == 1.0
    assert sol.a[slack] == 0.0


@pytest.mark.parametrize("name", ["net4", "feeder30"])
def test_jacobian_matches_dense_oracle(name, request, settings):
    network = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    p = rng.uniform(0.001, 0.015, network.n_loads)
    sol = solve_newton_raphson(network, p, 0.3 * p, None, settings)
    # a loaded operating point, nudged off the solution so S != injections
    v = sol.v * (1.0 + 0.01 * rng.standard_normal(network.n_bus))
    a = sol.a + 0.01 * rng.standard_normal(network.n_bus)
    V = v * np.exp(1j * a)
    pq = network.pq_indices
    Sp = V[pq] * np.conj((network.Y @ V)[pq])
    J = _jacobian(network.Y[np.ix_(pq, pq)], V[pq], Sp)
    np.testing.assert_allclose(J, jacobian_dense(network.Y, V, pq), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["net4", "feeder30"])
def test_cached_index_sets_match_buses(name, request):
    network = request.getfixturevalue(name)
    buses = network.buses
    assert network.slack_index == next(b.id for b in buses if b.kind == SLACK)
    assert network.pq_indices.tolist() == [b.id for b in buses if b.kind == PQ]
    by_load = sorted((b.load_attachment, b.id) for b in buses
                     if b.load_attachment is not None)
    assert network.load_buses.tolist() == [bus for _, bus in by_load]
    for attr in ("pq_indices", "load_buses", "Y_pq", "Y_pq_rows"):
        arr = getattr(network, attr)
        assert getattr(network, attr) is arr  # computed once per network
        assert not arr.flags.writeable
    pq = network.pq_indices
    assert np.array_equal(network.Y_pq, network.Y[np.ix_(pq, pq)])
    assert np.array_equal(network.Y_pq_rows, network.Y[pq])


def test_iterations_match_dense_oracle_warm_started(feeder30, small_series, settings):
    fast = dense = None
    for t in range(200):
        p, q = small_series.P[t], small_series.Q[t]
        fast = solve_newton_raphson(feeder30, p, q, fast, settings)
        dense = solve_newton_dense(feeder30, p, q, dense, settings)
        assert fast.converged and dense.converged
        assert fast.iterations == dense.iterations, t
        assert np.max(np.abs(fast.v - dense.v)) < 1e-12
        assert np.max(np.abs(fast.a - dense.a)) < 1e-12


def x3_step(series, start=64, at=68, stop=71, level=1.5):
    """Rows start:stop of `series` at `level` x their loads, x3 from row `at`
    on. Rows 64-67 lead into the evening peak. At 1x the held inverse still
    halves the mismatch at every iteration through a x3 step; at 1.5x the
    step leaves it stale enough to be refreshed."""
    scale = np.where(np.arange(start, stop) >= at, 3.0 * level, level)[:, None]
    return LoadSeries(timestamps=series.timestamps[start:stop],
                      P=scale * series.P[start:stop], Q=scale * series.Q[start:stop])


def test_chord_replay_meets_tolerance_and_tracks_full_newton(feeder30, small_series,
                                                              settings):
    chord = Chord()
    warm = full = None
    debt = 0
    for t in range(small_series.n_steps):
        p, q = small_series.P[t], small_series.Q[t]
        warm = solve_newton_raphson(feeder30, p, q, warm, settings, chord)
        full = solve_newton_raphson(feeder30, p, q, full, settings)
        assert warm.converged, t
        residual = power_mismatch(feeder30, p, q, warm.v, warm.a)
        assert np.max(np.abs(residual)) <= settings.mismatch_tolerance, t
        if t == 0:  # a loop's first solve, with an empty holder, is full Newton
            assert np.array_equal(warm.v, full.v) and np.array_equal(warm.a, full.a)
        else:
            debt += max(warm.iterations - 2, 0)
        assert np.max(np.abs(warm.v - full.v)) < 1e-7, t
        assert np.max(np.abs(warm.a - full.a)) < 1e-7, t
    # each refresh after the first solve's inversion is paid for by a full
    # debt, when no iteration fails to halve the mismatch (none does here)
    threshold = solver.REFRESH_DEBT_PER_PQ_BUS * len(feeder30.pq_indices)
    assert 1 <= chord.inversions <= 1 + debt // threshold


def test_load_step_refreshes_the_inverse(feeder30, small_series, settings):
    series = x3_step(small_series)
    chord = Chord()
    sol = None
    inversions = []
    for t in range(series.n_steps):
        sol = solve_newton_raphson(feeder30, series.P[t], series.Q[t], sol, settings, chord)
        assert sol.converged, t
        residual = power_mismatch(feeder30, series.P[t], series.Q[t], sol.v, sol.a)
        assert np.max(np.abs(residual)) <= settings.mismatch_tolerance, t
        inversions.append(chord.inversions)
    # the first solve leaves one inverse, which serves until the x3 step
    assert inversions[:4] == [1, 1, 1, 1] and inversions[4] > 1


def test_iteration_debt_refreshes_a_stale_inverse(feeder30, small_series, settings):
    # at 1x the held inverse halves the mismatch at every iteration through
    # the x3 step, so only the debt refreshes it; before the debt rule each
    # row after the step took 8-10 iterations
    series = x3_step(small_series, stop=80, level=1.0)
    chord = Chord()
    sol = None
    iterations, inversions = [], []
    for t in range(series.n_steps):
        sol = solve_newton_raphson(feeder30, series.P[t], series.Q[t], sol, settings, chord)
        assert sol.converged, t
        iterations.append(sol.iterations)
        inversions.append(chord.inversions)
    threshold = solver.REFRESH_DEBT_PER_PQ_BUS * len(feeder30.pq_indices)
    debt = np.cumsum([max(n - 2, 0) for n in iterations[1:]])
    due = 1 + int(np.argmax(debt >= threshold))  # the row whose solve reaches it
    assert iterations[4] > 3 and due > 4
    assert inversions[:due] == [1] * due and inversions[due] == 2
    assert max(iterations[due + 1:]) <= 3


def test_reused_injection_keeps_the_bits(feeder30, small_series, settings, monkeypatch):
    # a warm solve from the holder's last solution skips one evaluation;
    # copied guesses (no reuse) give the same bits, iterations and refreshes
    series = x3_step(small_series, stop=80, level=1.0)
    evaluations = []
    real = solver._injection

    def counting(*args):
        evaluations.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_injection", counting)

    def loop(copied):
        evaluations.clear()
        chord = Chord()
        solutions = []
        for t in range(series.n_steps):
            guess = solutions[-1] if solutions else None
            if copied and guess is not None:
                guess = VoltageSolution(guess.v.copy(), guess.a.copy(), 0, True)
            solutions.append(solve_newton_raphson(feeder30, series.P[t], series.Q[t],
                                                  guess, settings, chord))
        return solutions, chord, len(evaluations)

    reused, chord, reused_evaluations = loop(copied=False)
    copied, copied_chord, copied_evaluations = loop(copied=True)
    assert copied_evaluations - reused_evaluations == series.n_steps - 1
    for x, y in zip(reused, copied):
        assert np.array_equal(x.v, y.v) and np.array_equal(x.a, y.a)
        assert x.iterations == y.iterations
    assert chord.inversions == copied_chord.inversions > 1
    assert np.array_equal(chord.inverse, copied_chord.inverse)

    # the holder keeps one injection vector, that of its last solution;
    # the solutions carry none, and their bits are read-only
    assert chord.solution is reused[-1]
    assert np.array_equal(chord.injection, real(feeder30, reused[-1].v, reused[-1].a))
    assert [f.name for f in fields(VoltageSolution)] == ["v", "a", "iterations",
                                                         "converged"]
    assert not reused[-1].v.flags.writeable and not reused[-1].a.flags.writeable


def test_failed_chord_solve_is_retried_as_full_newton(feeder30, small_series):
    # from row 3's solution on row 0's inverse, the x3 step takes 10 chord
    # iterations but 4 of full Newton
    series = x3_step(small_series)
    settings = SolverSettings(max_iterations=6)
    chord = Chord()
    sol = None
    for t in range(4):
        sol = solve_newton_raphson(feeder30, series.P[t], series.Q[t], sol, settings, chord)
    full_chord = Chord()  # empty: full Newton, which leaves its inverse there
    full = solve_newton_raphson(feeder30, series.P[4], series.Q[4], sol, settings,
                                full_chord)
    retried = solve_newton_raphson(feeder30, series.P[4], series.Q[4], sol, settings, chord)
    assert full.converged and retried.converged
    assert retried.iterations == settings.max_iterations + full.iterations
    assert np.array_equal(retried.v, full.v) and np.array_equal(retried.a, full.a)
    assert np.array_equal(chord.inverse, full_chord.inverse)
    assert chord.debt == 0

    # a retry that fails too ends in the same one-line error as before
    failing = LoadSeries(timestamps=series.timestamps[:2], P=series.P[:2] * [[1.0], [50.0]],
                         Q=series.Q[:2] * [[1.0], [50.0]])
    stamp = np.datetime_as_string(failing.timestamps[1], unit="s")
    with pytest.raises(SimulationError, match=rf"^solver did not converge \(max 6 "
                                              rf"iterations\) at {stamp} \(row 1\)$"):
        run_pure_solver(feeder30, failing, settings)


def test_singular_jacobian_at_refresh_names_the_row(feeder30, small_series, settings,
                                                   monkeypatch):
    series = x3_step(small_series)
    built = []
    real = solver._jacobian

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_jacobian", counting)
    solve_newton_raphson(feeder30, series.P[0], series.Q[0], None, settings)
    first_solve = len(built)
    built.clear()

    def singular_after_first_solve(*args):
        J = counting(*args)
        return J if len(built) <= first_solve else np.zeros_like(J)

    monkeypatch.setattr(solver, "_jacobian", singular_after_first_solve)
    stamp = np.datetime_as_string(series.timestamps[4], unit="s")
    with pytest.raises(SimulationError, match=rf"^singular Jacobian at Newton iteration "
                                              rf"[1-9]\d* at {stamp} \(row 4\)$"):
        run_pure_solver(feeder30, series, settings)


def test_cold_starts_carry_no_inverse(feeder30, small_series):
    settings = SolverSettings(warm_start=False)
    series = LoadSeries(timestamps=small_series.timestamps[:20],
                        P=small_series.P[:20], Q=small_series.Q[:20])
    for t, sol in enumerate(run_pure_solver(feeder30, series, settings)):
        direct = solve_newton_raphson(feeder30, series.P[t], series.Q[t], None, settings)
        assert np.array_equal(sol.v, direct.v) and np.array_equal(sol.a, direct.a)
        assert sol.iterations == direct.iterations

    state = HybridState()
    prediction = (np.ones(feeder30.n_bus), np.zeros(feeder30.n_bus), "step_change")
    for t in range(2):
        _, record, state = step(state, prediction, feeder30, series.P[t], series.Q[t],
                                HybridConfig(), settings)
        assert record.decision == "solver"
    assert state.chord.inverse is None and state.chord.inversions == 0


def load_events(series):
    """Rows 56:96 of `series` (into the evening peak) at twice their loads,
    with three events: x3 loads at rows 8-13, every other load dropped to
    zero at rows 18-23 and three loads injecting 0.03 pu (PV-like) at rows
    28-33. The x3 rows come near the nose of the PV curve (lowest voltage
    0.64 pu), and the batched passes leave some of them unconverged."""
    P, Q = 2.0 * series.P[56:96], 2.0 * series.Q[56:96]
    P[8:14] *= 3.0
    Q[8:14] *= 3.0
    P[18:24, ::2] = Q[18:24, ::2] = 0.0
    P[28:34, [3, 11, 20]] = -0.03
    Q[28:34, [3, 11, 20]] = 0.0
    return LoadSeries(timestamps=series.timestamps[56:96], P=P, Q=Q)


@pytest.mark.parametrize("events", [False, True], ids=["small_series", "load_events"])
def test_ground_truth_matches_the_sequential_replay(feeder30, small_series, settings,
                                                    events):
    series = load_events(small_series) if events else small_series
    truth = run_ground_truth(feeder30, series, settings)
    replay = run_pure_solver(feeder30, series, settings)
    assert len(truth) == series.n_steps
    for t, (x, y) in enumerate(zip(truth, replay)):
        assert x.converged, t
        residual = power_mismatch(feeder30, series.P[t], series.Q[t], x.v, x.a)
        assert np.max(np.abs(residual)) <= settings.mismatch_tolerance, t
        assert np.max(np.abs(x.v - y.v)) < 1e-7, t
        assert np.max(np.abs(x.a - y.a)) < 1e-7, t
    batch_converged = np.concatenate([c for *_, c in solver.chord_blocks(
        feeder30, series.P, series.Q, settings)])
    iterations = np.array([x.iterations for x in truth])
    assert (iterations[batch_converged] == 0).all()  # certified where they stand
    assert (iterations[~batch_converged] > 0).all()  # solved warm from row t-1
    assert (~batch_converged).any() == events


def test_ground_truth_stalled_rows_take_chord_steps(feeder30, small_series, settings,
                                                   monkeypatch):
    # rows the batch leaves unconverged are solved by the baseline's loop:
    # the first by full Newton, which leaves its inverse with the loop's
    # holder, the later ones by chord steps on it
    series = load_events(small_series)
    holders = []
    real = hybrid.solve_newton_raphson

    def spy(*args):
        holders.append(args[5])
        return real(*args)

    monkeypatch.setattr(hybrid, "solve_newton_raphson", spy)
    truth = run_ground_truth(feeder30, series, settings)
    stalled = [t for t, x in enumerate(truth) if x.iterations > 0]
    assert len(holders) == series.n_steps and len(stalled) > 1
    assert all(chord is holders[0] for chord in holders)
    assert 1 <= holders[0].inversions < len(stalled)


def test_ground_truth_cold_fallback_starts_flat(feeder30, small_series):
    settings = SolverSettings(warm_start=False)
    series = load_events(small_series)
    truth = run_ground_truth(feeder30, series, settings)
    stalled = [t for t, x in enumerate(truth) if x.iterations > 0]
    assert stalled
    for t in stalled:
        direct = solve_newton_raphson(feeder30, series.P[t], series.Q[t], None, settings)
        assert np.array_equal(truth[t].v, direct.v) and np.array_equal(truth[t].a, direct.a)
        assert truth[t].iterations == direct.iterations


def test_flat_start_pass_need_not_halve_the_mismatch(feeder30, small_series, settings):
    # at 4x the evening ramp, pass 1 on the flat-start inverse shrinks 28 of
    # these 40 rows' worst mismatch by less than half (as it grows most rows'
    # at 1000 buses); the passes on the mean-point inverse converge them all
    P, Q = 4.0 * small_series.P[56:96], 4.0 * small_series.Q[56:96]
    (_, _, _, converged), = solver.chord_blocks(feeder30, P, Q, settings)
    assert converged.all()


def test_singular_jacobian_in_certification_names_the_row(feeder30, small_series,
                                                          settings, monkeypatch):
    series = load_events(small_series)  # one block: its passes come first
    stalled = [t for t, x in enumerate(run_ground_truth(feeder30, series, settings))
               if x.iterations > 0]
    built = []
    real = solver._jacobian

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_jacobian", counting)
    list(solver.chord_blocks(feeder30, series.P, series.Q, settings))
    batch = len(built)
    built.clear()

    def singular_after_batch(*args):
        J = counting(*args)
        return J if len(built) <= batch else np.zeros_like(J)

    monkeypatch.setattr(solver, "_jacobian", singular_after_batch)
    stamp = np.datetime_as_string(series.timestamps[stalled[0]], unit="s")
    with pytest.raises(SimulationError, match=rf"^singular Jacobian at Newton iteration 0 "
                                              rf"at {stamp} \(row {stalled[0]}\)$"):
        run_ground_truth(feeder30, series, settings)


@pytest.mark.parametrize("singular_build", [1, 2], ids=["flat_start", "first_mean_point"])
def test_singular_block_jacobian_falls_through_to_certification(
        feeder30, small_series, settings, monkeypatch, singular_build):
    replay = run_pure_solver(feeder30, small_series, settings)
    built = []
    real = solver._jacobian

    def singular_once(*args):
        built.append(args)
        J = real(*args)
        return np.zeros_like(J) if len(built) == singular_build else J

    monkeypatch.setattr(solver, "_jacobian", singular_once)
    truth = run_ground_truth(feeder30, small_series, settings)
    # the flat-start inverse serves every block; a mean point, one block
    stalled_rows = small_series.n_steps if singular_build == 1 else solver.BLOCK_ROWS
    assert small_series.n_steps > solver.BLOCK_ROWS
    iterations = np.array([x.iterations for x in truth])
    assert (iterations[:stalled_rows] > 0).all() and (iterations[stalled_rows:] == 0).all()
    for t, (x, y) in enumerate(zip(truth, replay)):
        assert np.max(np.abs(x.v - y.v)) < 1e-7, t
        assert np.max(np.abs(x.a - y.a)) < 1e-7, t


def test_chord_block_memory_is_bounded_by_the_block(feeder30, settings):
    # the full study's 28 days at 5 minutes; one pass over all 8,064 rows
    # at once peaks at 36 MiB of numpy memory
    spec = loadgen.LoadProfileSpec(n_loads=feeder30.n_loads, resolution_minutes=5,
                                   duration_days=28, seed=11)
    series = loadgen.generate(spec, feeder30)
    assert series.n_steps == 8064
    rows = 0
    tracemalloc.start()
    try:
        for start, v, a, converged in solver.chord_blocks(feeder30, series.P, series.Q,
                                                          settings):
            assert start == rows and len(converged) <= solver.BLOCK_ROWS
            rows += len(converged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == series.n_steps
    assert peak < 6 * 2 ** 20
