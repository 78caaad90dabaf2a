"""Test oracles: slow reference implementations, structurally independent
of the library code they check."""

import time

import numpy as np

from hybridflow.netmodel import Network
from hybridflow.solver import SolverSettings, VoltageSolution, injections

GS_MAX_SWEEPS = 20000
GS_ACCELERATION = 1.6  # SOR factor; 1.0 recovers plain Gauss-Seidel


def solve_gauss_seidel(network: Network, p: np.ndarray, q: np.ndarray,
                       settings: SolverSettings | None = None) -> VoltageSolution:
    """Complex-voltage Gauss-Seidel sweep; slow but structurally independent
    of the Newton path, used for cross-verification."""
    settings = settings or SolverSettings()
    start = time.perf_counter()
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
                                   converged=True, wall_time=time.perf_counter() - start)
    return VoltageSolution(v=np.abs(V), a=np.angle(V), iterations=GS_MAX_SWEEPS,
                           converged=False, wall_time=time.perf_counter() - start)
