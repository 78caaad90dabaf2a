"""Normalized complex-voltage vector error and its infinity-norm aggregate.

Per bus, predicted and true (magnitude, angle) pairs are compared in
rectangular coordinates: the error is the chord length between the two
complex voltages divided by the true voltage's norm. The aggregate is
the maximum over buses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    """Raised for non-finite metric inputs."""


@dataclass
class ErrorReport:
    per_bus: np.ndarray
    eps_inf: float
    worst_bus: int


def vector_error(pred_v: np.ndarray, pred_a: np.ndarray,
                 true_v: np.ndarray, true_a: np.ndarray) -> ErrorReport:
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
    # NaN/inf in any input propagates here and argmax prefers it to any
    # finite value, so checking the worst bus covers all four
    worst = int(per_bus.argmax())
    if not math.isfinite(per_bus[worst]):
        raise MetricError("non-finite value in metric input")
    return ErrorReport(per_bus=per_bus, eps_inf=float(per_bus[worst]), worst_bus=worst)


def eps_inf(pred_v, pred_a, true_v, true_a) -> float:
    """Scalar aggregate of vector_error."""
    return vector_error(pred_v, pred_a, true_v, true_a).eps_inf
