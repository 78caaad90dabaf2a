"""Polar Newton-Raphson power flow solver.

Loads are given as positive consumption (p, q) on the load-attached
buses; injections are negated internally. Voltages are solved at every
bus, with the slack pinned to 1.0 pu / 0.0 rad.

The Jacobian holds only the pq x pq blocks, built straight from the
cached pq rows and columns of Y in O(n^2) (`_jacobian`). A solve without
a held inverse is full Newton: every iteration builds the Jacobian and
LU-solves the dense 2*npq system, O(n^3). A loop of warm-started solves
passes one `Chord` holder to each: after its first solve the holder keeps
an inverted Jacobian, and each iteration is one O(n^2) `inverse @ mismatch`
product (chord Newton, the idea behind fast decoupled load flow). The
inverse is refreshed, at O(n^3), when an iteration shrank the max mismatch
by less than half, and at a converged point once the solves on it have
run REFRESH_DEBT_PER_PQ_BUS iterations per pq bus past their second (the
chord/Shamanskii trade-off between refactoring and iterating), as after a
large load step. A chord solve that does not converge is retried once as
full Newton. The holder also keeps the injections of the solution it last
returned, so a solve warm-started from that solution skips its first
evaluation.

The steps of a time series are independent power flows, so `chord_blocks`
also iterates a block of rows at once from the flat start: per pass, the
same `_injection` taken over the block's full-bus rows and one product
with a held inverse, which `_jacobian_at` builds at the flat start and
once more at the block's mean point. Its rows are only guesses;
`solve_newton_raphson` judges each one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .netmodel import Network

SOLVER = "solver"
MODEL = "model"

# rows per block of `chord_blocks`: on feeder30 the passes over 8,064 rows
# peak near 3 MiB of numpy memory in blocks, and at 36 MiB in one block
BLOCK_ROWS = 512

# a held inverse is refreshed at a converged point once the chord solves on
# it have run this many iterations per pq bus past their second (a fresh
# inverse brings a warm row back to 2). An inversion is O(m^3) in the
# Jacobian's order m = 2*npq, an iteration O(m^2); over the full study's
# 8,064 rows with load events, 1 (m/2) gave 2.47 iterations and 42 us per
# row on a 2-vCPU VM with one BLAS thread, 2 (m) gave 2.77 and 44 us
REFRESH_DEBT_PER_PQ_BUS = 1


class SingularJacobianError(RuntimeError):
    """Jacobian became singular during a Newton iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"singular Jacobian at Newton iteration {iteration}")
        self.iteration = iteration


@dataclass
class SolverSettings:
    mismatch_tolerance: float = 1e-8
    max_iterations: int = 50
    warm_start: bool = True

    def __post_init__(self):  # written so that a NaN fails each comparison
        if not self.mismatch_tolerance > 0:
            raise ValueError("mismatch_tolerance must be > 0")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class Chord:
    """What a loop of warm-started solves carries between them: the
    inverted Jacobian, its iteration debt (how stale it has grown), and the
    pq injections [P, Q] of the solution the holder last returned, keyed by
    that object's identity: one vector, replaced at every return.

    Each loop has its own holder, but loops started from one state
    (`hybrid.first_row_state`) share its inverse, so every inverse is
    read-only: a refresh replaces it and never writes into it."""
    inverse: np.ndarray | None = None
    inversions: int = 0  # inversions so far, the first included
    debt: int = 0  # iterations past each chord solve's second, since the last inversion
    solution: VoltageSolution | None = None
    injection: np.ndarray | None = None  # at `solution`

    def invert(self, J: np.ndarray, iteration: int) -> None:
        try:
            self.inverse = np.linalg.inv(J)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iteration) from None
        self.inverse.flags.writeable = False
        self.inversions += 1
        self.debt = 0


@dataclass
class VoltageSolution:
    v: np.ndarray
    a: np.ndarray
    iterations: int
    converged: bool


def power_mismatch(network: Network, p: np.ndarray, q: np.ndarray,
                   v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Real/reactive injection residuals at the pq buses, stacked [dP, dQ].

    This is the quantity driven below mismatch_tolerance at convergence.
    """
    return _target(network, p, q) - _injection(network, v, a)


def _injection(network: Network, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The injections [P, Q] = V conj(Y V) at the pq buses for bus voltages
    (v, a), one row or a `[rows, n_bus]` batch (hence the index on `V.T`)."""
    V = np.empty(np.shape(v), dtype=complex)  # cos and sin: faster than exp on a batch
    np.multiply(v, np.cos(a), out=V.real)
    np.multiply(v, np.sin(a), out=V.imag)
    Sp = V.T[network.pq_indices].T * np.conj(V @ network.Y_pq_rows.T)
    return np.concatenate([Sp.real, Sp.imag], axis=-1)


def _jacobian(Y_pp: np.ndarray, Vp: np.ndarray, Sp: np.ndarray) -> np.ndarray:
    """[[dP/da, dP/dv], [dQ/da, dQ/dv]] over the pq buses in O(npq^2): with
    W = diag(V) conj(Y) diag(conj V) and S = V conj(I), MATPOWER's
    dS/da = j (diag(S) - W) and dS/dv = (diag(S) + W) / |V| (per column)."""
    npq = len(Vp)
    d = np.diag_indices(npq)
    W = Vp[:, None] * np.conj(Y_pp) * np.conj(Vp)
    da = -W
    da[d] += Sp
    W[d] += Sp
    J = np.empty((2 * npq, 2 * npq))
    J[:npq, :npq] = -da.imag
    J[npq:, :npq] = da.real
    J[:npq, npq:] = W.real / np.abs(Vp)
    J[npq:, npq:] = W.imag / np.abs(Vp)
    return J


def _target(network: Network, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The pq injections [P, Q] that the mismatch is taken against: each
    load negated at its bus's pq position, one row per row of P and Q."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape[-1:] != (network.n_loads,) or Q.shape != P.shape:
        raise ValueError(f"expected load vectors of length {network.n_loads}, "
                         f"got {P.shape} and {Q.shape}")
    zero = np.zeros(P.shape[:-1] + (1,))
    return -np.concatenate([P, Q, zero], axis=-1).take(network.pq_target_index, axis=-1)


def chord_blocks(network: Network, P: np.ndarray, Q: np.ndarray, settings: SolverSettings
                 ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Batched chord passes over the `[T, n_loads]` rows of a load series,
    BLOCK_ROWS rows at a time; yields `(start, v, a, converged)` per block.

    Every row is its own power flow from the flat start. Pass 1 steps all
    of a block's rows by the inverse of the flat-start Jacobian; the
    Jacobian is then re-linearised once, at the mean point of the rows
    left, and its inverse serves every later pass. A pass is one batched
    mismatch and one `mismatch @ inverse.T`. A row leaves the block when it
    converged, when its worst mismatch is not finite or, from pass 2 on,
    failed to halve, or after max_iterations passes. `converged` marks the
    first kind, whose `v` and `a` rows hold the converged point; the others
    are left at the flat start. A singular block Jacobian leaves the
    block's remaining rows unconverged. No row is final:
    `solve_newton_raphson` alone judges it.
    """
    pq = network.pq_indices
    npq = len(pq)

    def inverse_at(v: np.ndarray, a: np.ndarray) -> np.ndarray | None:
        try:
            return np.linalg.inv(_jacobian_at(network, v, a, _injection(network, v, a)))
        except np.linalg.LinAlgError:
            return None

    flat_inverse = inverse_at(*_start(network, None))
    for start in range(0, len(P), BLOCK_ROWS):
        target = _target(network, P[start:start + BLOCK_ROWS], Q[start:start + BLOCK_ROWS])
        n_rows = len(target)
        out = np.zeros((n_rows, 2, network.n_bus))  # each row's [a, v] at every bus
        out[:, 1] = 1.0
        converged = np.zeros(n_rows, dtype=bool)
        rows, x = np.arange(n_rows), out.copy()  # the rows still iterating, their iterates
        previous = np.full(n_rows, np.inf)
        inverse = flat_inverse
        for iteration in range(settings.max_iterations + 1):
            mismatch = target - _injection(network, x[:, 1], x[:, 0])
            worst = np.abs(mismatch).max(axis=1)
            done = worst <= settings.mismatch_tolerance
            out[rows[done]] = x[done]
            converged[rows[done]] = True
            keep = ~done & np.isfinite(worst) & (worst <= 0.5 * previous)
            if iteration == settings.max_iterations or not keep.any():
                break
            rows, x, target, mismatch = rows[keep], x[keep], target[keep], mismatch[keep]
            # pass 1, on the flat-start inverse, only carries the rows towards
            # the mean point (at 1000 buses it grows most rows' mismatch), so
            # halving is asked of the passes on the mean-point inverse
            previous = worst[keep] if iteration else previous[keep]
            if iteration == 1:
                inverse = inverse_at(x[:, 1].mean(axis=0), x[:, 0].mean(axis=0))
            if inverse is None:
                break
            dx = np.zeros_like(x)  # 0 at the slack: an indexed `+=` took 3x as long
            dx[:, :, pq] = (mismatch @ inverse.T).reshape(-1, 2, npq)
            x += dx
        yield start, out[:, 1], out[:, 0], converged


def solve_newton_raphson(network: Network, p: np.ndarray, q: np.ndarray,
                         initial_guess: VoltageSolution | None = None,
                         settings: SolverSettings | None = None,
                         chord: Chord | None = None) -> VoltageSolution:
    """Polar-coordinate Newton-Raphson power flow.

    Full Newton unless `chord` holds an inverse; given a `chord` without
    one, it leaves the inverse of its last Jacobian there. With a held
    inverse each iteration steps by `inverse @ mismatch`. The inverse is
    refreshed at the current point when the previous iteration shrank the
    max mismatch by less than half, and at the converged point once the
    holder's debt reaches REFRESH_DEBT_PER_PQ_BUS per pq bus: each
    converged chord solve adds its iterations past the second, and every
    inversion clears it. A chord solve that does not converge is retried
    once as full Newton from the same guess, whose inverse the holder
    takes; `iterations` counts both attempts.

    A guess that is the solution the holder last returned starts from the
    injections the holder kept for it, with the same bits as computing
    them. Either way convergence is judged on the true mismatch. The
    returned `v` and `a` are read-only. Returns an explicit non-converged
    result if max_iterations is exhausted; raises SingularJacobianError on
    a singular system.
    """
    settings = settings or SolverSettings()
    target = _target(network, p, q)
    known = None
    if chord is not None and initial_guess is not None and initial_guess is chord.solution:
        known = chord.injection
    chord_steps = chord is not None and chord.inverse is not None
    v, a = _start(network, initial_guess)
    iterations, converged, injection, J = _iterate(network, target, v, a, settings,
                                                   chord if chord_steps else None, known)
    spent = 0
    if chord_steps and not converged:  # the retry, as full Newton
        spent, chord_steps = iterations, False
        v, a = _start(network, initial_guess)
        iterations, converged, injection, J = _iterate(network, target, v, a, settings,
                                                       None, known)
    if chord is not None and converged:
        if chord_steps:
            chord.debt += max(iterations - 2, 0)
            if chord.debt >= REFRESH_DEBT_PER_PQ_BUS * len(network.pq_indices):
                chord.invert(_jacobian_at(network, v, a, injection), iterations)
        elif J is not None:
            chord.invert(J, iterations - 1)
    v.flags.writeable = False
    a.flags.writeable = False
    solution = VoltageSolution(v=v, a=a, iterations=spent + iterations, converged=converged)
    if chord is not None:
        chord.solution, chord.injection = solution, injection
    return solution


def _start(network: Network, guess: VoltageSolution | None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Writable copies of the guess's v and a with the slack pinned, or the
    flat start."""
    if guess is None:
        return np.ones(network.n_bus), np.zeros(network.n_bus)
    v = np.array(guess.v, dtype=float)
    a = np.array(guess.a, dtype=float)
    v[network.slack_index] = 1.0
    a[network.slack_index] = 0.0
    return v, a


def _iterate(network: Network, target: np.ndarray, v: np.ndarray, a: np.ndarray,
             settings: SolverSettings, chord: Chord | None, injection: np.ndarray | None
             ) -> tuple[int, bool, np.ndarray, np.ndarray | None]:
    """Newton iterations from (v, a), which are updated in place: full
    Newton without `chord`, else chord steps on its inverse. `injection`,
    if given, is the injections at the start. Returns the iterations run,
    whether they converged, the injections at the final (v, a) and the last
    full-Newton Jacobian (None on chord steps)."""
    pq = network.pq_indices
    npq = len(pq)
    J = None
    previous = np.inf
    for iteration in range(settings.max_iterations + 1):
        if injection is None:
            injection = _injection(network, v, a)
        mismatch = target - injection
        worst = np.abs(mismatch).max()
        if worst <= settings.mismatch_tolerance:
            return iteration, True, injection, J
        if iteration == settings.max_iterations:
            break
        if chord is None:
            J = _jacobian_at(network, v, a, injection)
            try:
                dx = np.linalg.solve(J, mismatch)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(iteration) from None
        else:
            if not worst <= 0.5 * previous:  # also refreshes on a NaN mismatch
                chord.invert(_jacobian_at(network, v, a, injection), iteration)
            dx = chord.inverse @ mismatch
        previous = worst
        a[pq] += dx[:npq]
        v[pq] += dx[npq:]
        injection = None
    return settings.max_iterations, False, injection, J


def _jacobian_at(network: Network, v: np.ndarray, a: np.ndarray,
                 injection: np.ndarray) -> np.ndarray:
    """The Jacobian at (v, a), whose injections are `injection`."""
    pq = network.pq_indices
    Sp = injection[:len(pq)] + 1j * injection[len(pq):]
    return _jacobian(network.Y_pq, v[pq] * np.exp(1j * a[pq]), Sp)
