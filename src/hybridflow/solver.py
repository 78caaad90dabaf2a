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
inverse is refreshed, at O(n^3), only when an iteration shrank the max
mismatch by less than half, as after a large load step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Network

SOLVER = "solver"
MODEL = "model"


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
    """The inverted Jacobian a loop of warm-started solves carries between
    them. It belongs to one loop: a new loop starts with an empty holder."""
    inverse: np.ndarray | None = None
    inversions: int = 0  # inversions so far, the first included

    def invert(self, J: np.ndarray, iteration: int) -> None:
        try:
            self.inverse = np.linalg.inv(J)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iteration) from None
        self.inversions += 1


@dataclass
class VoltageSolution:
    v: np.ndarray
    a: np.ndarray
    iterations: int
    converged: bool


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


def power_mismatch(network: Network, p: np.ndarray, q: np.ndarray,
                   v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Real/reactive injection residuals at the pq buses, stacked [dP, dQ].

    This is the quantity driven below mismatch_tolerance at convergence.
    """
    p_inj, q_inj = injections(network, p, q)
    V = v * np.exp(1j * a)
    S = V * np.conj(network.Y @ V)
    pq = network.pq_indices
    return np.concatenate([p_inj[pq] - S.real[pq], q_inj[pq] - S.imag[pq]])


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


def solve_newton_raphson(network: Network, p: np.ndarray, q: np.ndarray,
                         initial_guess: VoltageSolution | None = None,
                         settings: SolverSettings | None = None,
                         chord: Chord | None = None) -> VoltageSolution:
    """Polar-coordinate Newton-Raphson power flow.

    Full Newton unless `chord` holds an inverse; given an empty `chord`, it
    leaves the inverse of its last Jacobian there. With a held inverse each
    iteration steps by `inverse @ mismatch`, refreshing the inverse at the
    current point when the previous iteration shrank the max mismatch by
    less than half. Either way convergence is judged on the true mismatch.
    Returns an explicit non-converged result if max_iterations is
    exhausted; raises SingularJacobianError on a singular system.
    """
    settings = settings or SolverSettings()
    slack = network.slack_index
    pq = network.pq_indices
    npq = len(pq)
    p_inj, q_inj = injections(network, p, q)
    target = np.concatenate([p_inj[pq], q_inj[pq]])

    if initial_guess is not None:
        v = np.array(initial_guess.v, dtype=float)
        a = np.array(initial_guess.a, dtype=float)
    else:
        v = np.ones(network.n_bus)
        a = np.zeros(network.n_bus)
    v[slack] = 1.0
    a[slack] = 0.0

    full_newton = chord is None or chord.inverse is None
    J = None
    previous = np.inf
    for iteration in range(settings.max_iterations + 1):
        V = v * np.exp(1j * a)
        Vp = V[pq]
        Sp = Vp * np.conj((network.Y @ V)[pq])
        mismatch = target - np.concatenate([Sp.real, Sp.imag])
        worst = np.max(np.abs(mismatch))
        if worst <= settings.mismatch_tolerance:
            if chord is not None and full_newton and J is not None:
                chord.invert(J, iteration - 1)
            return VoltageSolution(v=v, a=a, iterations=iteration, converged=True)
        if iteration == settings.max_iterations:
            break
        if full_newton:
            J = _jacobian(network.Y_pq, Vp, Sp)
            try:
                dx = np.linalg.solve(J, mismatch)
            except np.linalg.LinAlgError:
                raise SingularJacobianError(iteration) from None
        else:
            if not worst <= 0.5 * previous:  # also refreshes on a NaN mismatch
                chord.invert(_jacobian(network.Y_pq, Vp, Sp), iteration)
            dx = chord.inverse @ mismatch
        previous = worst
        a[pq] += dx[:npq]
        v[pq] += dx[npq:]

    return VoltageSolution(v=v, a=a, iterations=settings.max_iterations,
                           converged=False)
