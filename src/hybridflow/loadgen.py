"""Synthetic load time-series generator with weekly mode structure.

The week is partitioned into the seven operating modes of `MODES`
(time-of-day windows on weekday/weekend day groups). Each mode carries
its own per-load level pattern, so the generated (p, q) series genuinely
occupies distinct regions of input space. Transitions between modes are
sharp steps; within a mode, loads vary smoothly (low-order Fourier
components) plus seeded multiplicative noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import Network

WEEKDAYS = (0, 1, 2, 3, 4)
WEEKEND = (5, 6)
MINUTES_PER_DAY = 1440
MINUTES_PER_WEEK = 7 * MINUTES_PER_DAY

# 2024-01-01 is a Monday; keeps day-of-week clustering aligned with day 0
DEFAULT_START = np.datetime64("2024-01-01T00:00:00")


class LoadSpecError(ValueError):
    """Raised for invalid load profile specifications."""


# The weekly operating modes, four weekday and three weekend regimes:
# (days, start minute of day, end minute of day (exclusive), mean per-load
# real power as a multiple of `LoadProfileSpec.base_level`). They cover
# every minute of the week exactly once.
MODES = (
    (WEEKDAYS, 0, 360, 0.40),      # night
    (WEEKDAYS, 360, 540, 0.95),    # morning
    (WEEKDAYS, 540, 1020, 0.70),   # day
    (WEEKDAYS, 1020, 1440, 1.30),  # evening
    (WEEKEND, 0, 480, 0.50),       # night
    (WEEKEND, 480, 1080, 0.85),    # day
    (WEEKEND, 1080, 1440, 1.10),   # evening
)
VARIABILITY = 0.05  # relative amplitude of the variation within a mode


@dataclass
class LoadProfileSpec:
    n_loads: int
    resolution_minutes: int = 5
    duration_days: int = 28
    base_level: float = 0.01       # pu; each mode's mean load is a multiple of it
    noise_scale: float = 0.02
    seed: int = 12345
    min_power_factor: float = 0.90
    start: np.datetime64 = DEFAULT_START

    def __post_init__(self):
        if self.duration_days < 1:
            raise LoadSpecError("duration_days must be >= 1")
        if np.isnat(self.start):
            raise LoadSpecError("start must be a time, got NaT")
        if self.n_loads < 1:
            raise LoadSpecError("n_loads must be >= 1")
        if self.resolution_minutes < 1:
            raise LoadSpecError(f"resolution_minutes must be >= 1, got {self.resolution_minutes}")
        if MINUTES_PER_DAY % self.resolution_minutes != 0:
            raise LoadSpecError(f"resolution {self.resolution_minutes} min does not divide 1440")
        if not (0.0 < self.min_power_factor <= 1.0):
            raise LoadSpecError("min_power_factor must be in (0, 1]")
        if not np.isfinite(self.noise_scale):
            raise LoadSpecError(f"noise_scale must be finite, got {self.noise_scale}")
        if not 0.0 <= self.base_level < np.inf:  # written so that a NaN fails it
            raise LoadSpecError(f"base_level must be finite and >= 0, got {self.base_level}")
        if self.seed < 0:
            raise LoadSpecError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LoadSeries:
    timestamps: np.ndarray  # datetime64[s], strictly increasing, uniform
    P: np.ndarray           # [T, n_loads] real power, pu, consumption positive
    Q: np.ndarray           # [T, n_loads] reactive power, pu

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    def rows(self, lo: int, hi: int) -> "LoadSeries":
        return LoadSeries(self.timestamps[lo:hi], self.P[lo:hi], self.Q[lo:hi])


def mode_table() -> np.ndarray:
    """Index into `MODES` for every minute of the week."""
    table = np.empty(MINUTES_PER_WEEK, dtype=int)
    for m, (days, start, end, _) in enumerate(MODES):
        for day in days:
            lo = day * MINUTES_PER_DAY
            table[lo + start:lo + end] = m
    return table


def minute_of_week(timestamps: np.ndarray) -> np.ndarray:
    # datetime64 epoch (1970-01-01) is a Thursday; shift so Monday = 0
    minutes = timestamps.astype("datetime64[m]").astype(np.int64)
    return (minutes + 3 * MINUTES_PER_DAY) % MINUTES_PER_WEEK


def generate(spec: LoadProfileSpec, network: Network | None = None) -> LoadSeries:
    """Generate a deterministic (seeded) load series for the spec.

    With `network`, the load count must match its load-attached buses;
    `hybrid.run_ground_truth` checks that every timestamp is feasible.
    """
    if network is not None and spec.n_loads != network.n_loads:
        raise LoadSpecError(f"spec has {spec.n_loads} loads but network has "
                            f"{network.n_loads} load-attached buses")

    rng = np.random.default_rng(spec.seed)
    # Structural draws first: per-mode load patterns, Fourier shapes, power factors
    weights = 0.6 + 0.8 * rng.random((len(MODES), spec.n_loads))
    fourier_phase = rng.uniform(0.0, 2.0 * np.pi, size=(len(MODES), 2))
    pf = rng.uniform(spec.min_power_factor, 0.99, size=spec.n_loads)
    tan_phi = np.tan(np.arccos(pf))

    steps_per_day = MINUTES_PER_DAY // spec.resolution_minutes
    n_steps = spec.duration_days * steps_per_day
    timestamps = (spec.start.astype("datetime64[s]")
                  + np.arange(n_steps) * np.timedelta64(spec.resolution_minutes * 60, "s"))

    week_min = minute_of_week(timestamps)
    labels = mode_table()[week_min]
    minute_of_day = week_min % MINUTES_PER_DAY

    levels = np.array([multiple * spec.base_level for *_, multiple in MODES])
    # Smooth intra-mode variation: two Fourier harmonics of the day cycle
    angle = 2.0 * np.pi * minute_of_day / MINUTES_PER_DAY
    shape = (np.sin(angle + fourier_phase[labels, 0])
             + 0.5 * np.sin(2.0 * angle + fourier_phase[labels, 1])) / 1.5
    factor = levels[labels] * (1.0 + VARIABILITY * shape)

    noise = rng.standard_normal((n_steps, spec.n_loads))
    P = factor[:, None] * weights[labels] * (1.0 + spec.noise_scale * noise)
    np.clip(P, 0.0, None, out=P)
    Q = P * tan_phi[None, :]

    return LoadSeries(timestamps=timestamps, P=P, Q=Q)

