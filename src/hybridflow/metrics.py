"""Normalized complex-voltage vector error and its infinity-norm aggregate.

Per bus, predicted and true (magnitude, angle) pairs are compared in
rectangular coordinates: the error is the chord length between the two
complex voltages divided by the true voltage's norm. The aggregate is
the maximum over buses: one per vector of n_v buses, or one per row of a
[T, n_v] batch of T steps.
"""

from __future__ import annotations

import numpy as np


class MetricError(ValueError):
    """Raised for non-finite metric inputs; `row` is the first offending
    row of a batch (None for a single vector)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


def eps_inf(pred_v, pred_a, true_v, true_a) -> float | np.ndarray:
    """Worst-bus normalized chord error: a float for one vector of n_v
    buses, [T] for a [T, n_v] batch."""
    pred_v = np.asarray(pred_v, dtype=float)
    pred_a = np.asarray(pred_a, dtype=float)
    true_v = np.asarray(true_v, dtype=float)
    true_a = np.asarray(true_a, dtype=float)
    if not (pred_v.shape == pred_a.shape == true_v.shape == true_a.shape):
        raise MetricError("shape mismatch between prediction and truth vectors")

    dr = pred_v * np.cos(pred_a) - true_v * np.cos(true_a)
    di = pred_v * np.sin(pred_a) - true_v * np.sin(true_a)
    diff = np.sqrt(dr * dr + di * di)
    norm = np.abs(true_v)  # ||(v cos a, v sin a)|| = |v|
    # zero-norm truth: fall back to the unnormalized error
    per_bus = np.divide(diff, norm, out=diff, where=norm > 0.0)
    # NaN/inf in any input propagates here, and max prefers NaN to any
    # finite value, so checking the worst bus covers all four
    eps = per_bus.max(axis=-1)
    finite = np.isfinite(eps)
    if not finite.all():
        raise MetricError("non-finite value in metric input",
                          row=int(finite.argmin()) if eps.ndim else None)
    return float(eps) if eps.ndim == 0 else eps
