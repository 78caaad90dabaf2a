"""Run summaries and plot-ready error distribution files.

No plots are rendered here; histogram bins are emitted as a CSV for
external plotting tools, and `records.csv` is the per-step error series.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .solver import MODEL, SOLVER

if TYPE_CHECKING:
    from .hybrid import StepRecord


class ReportError(ValueError):
    """Raised for inconsistent report inputs."""


# `histogram` allocates every edge and `write_histogram` writes a row per bin:
# a tiny --bin-width would ask for gigabytes, and no plot shows this many
MAX_BINS = 100_000


@dataclass
class RunSummary:
    n_steps: int
    avoided_solves_fraction: float
    median_eps_inf: float
    max_eps_inf: float
    fraction_above_threshold: float
    threshold: float
    wall_time_solver: float | None        # the two times are None when any
    wall_time_model: float | None         # record carries no wall time
    mean_solver_iterations: float
    solves_by_trigger: dict[str, int]     # solver steps per triggering_check


def step_errors(records: list[StepRecord]) -> np.ndarray:
    """Accepted-output error per test step; solver steps contribute 0."""
    errors = np.zeros(len(records))
    for i, r in enumerate(records):
        if r.decision == MODEL and r.model_eps_inf_vs_truth is not None:
            errors[i] = r.model_eps_inf_vs_truth
    return errors


def summarize(records: list[StepRecord], threshold: float = 0.01) -> RunSummary:
    """Aggregate a record stream into the standard comparison metrics."""
    if not records:
        raise ReportError("no records to summarize")
    n = len(records)
    model_steps = [r for r in records if r.decision == MODEL]
    solver_steps = [r for r in records if r.decision == SOLVER]
    errors = step_errors(records)
    iterations = [r.solver_iterations for r in solver_steps
                  if r.solver_iterations is not None]
    timed = all(r.wall_time is not None for r in records)
    solver_time = sum(r.wall_time for r in solver_steps) if timed else None
    model_time = sum(r.wall_time for r in model_steps) if timed else None
    return RunSummary(
        n_steps=n,
        avoided_solves_fraction=len(model_steps) / n,
        median_eps_inf=float(np.median(errors)),
        max_eps_inf=float(np.max(errors)),
        fraction_above_threshold=float(np.mean(errors > threshold)),
        threshold=threshold,
        wall_time_solver=solver_time,
        wall_time_model=model_time,
        mean_solver_iterations=(float(np.mean(iterations)) if iterations else 0.0),
        solves_by_trigger=dict(sorted(Counter(r.triggering_check for r in solver_steps
                                              if r.triggering_check).items())),
    )


@dataclass
class Histogram:
    edges: np.ndarray        # bin edges on [0, clip)
    counts: np.ndarray
    clipped_count: int


def histogram(errors: np.ndarray, bin_width: float, clip: float) -> Histogram:
    """Fixed-width bins on [0, clip); values >= clip are counted as clipped."""
    errors = np.asarray(errors, dtype=float)
    # written so that a NaN fails each comparison
    if not 0 < bin_width < math.inf:
        raise ReportError("bin_width must be finite and > 0")
    if not 0 < clip < math.inf:
        raise ReportError("clip must be finite and > 0")
    if (errors < 0).any():
        raise ReportError("errors must be non-negative")
    n_bins = clip / bin_width  # inf for a tiny width, so capped before the ceil
    if n_bins > MAX_BINS:
        raise ReportError(f"--clip over --bin-width gives {n_bins:.3g} bins, "
                          f"more than {MAX_BINS}")
    edges = np.arange(math.ceil(n_bins) + 1) * bin_width
    in_range = errors[errors < clip]
    counts, _ = np.histogram(in_range, bins=edges)
    return Histogram(edges=edges, counts=counts, clipped_count=int(np.sum(errors >= clip)))


def write_summary(summary: RunSummary, path) -> None:
    with open(path, "w") as f:
        json.dump(asdict(summary), f, indent=2, sort_keys=True)
        f.write("\n")


def format_summary(summary: RunSummary) -> str:
    lines = [
        f"steps:                    {summary.n_steps}",
        f"avoided solves:           {summary.avoided_solves_fraction:.1%}",
        f"median eps_inf:           {summary.median_eps_inf:.3e}",
        f"max eps_inf:              {summary.max_eps_inf:.3e}",
        f"above {summary.threshold:g} threshold:   {summary.fraction_above_threshold:.2%}",
        f"solver wall time:         {_seconds(summary.wall_time_solver)}",
        f"model wall time:          {_seconds(summary.wall_time_model)}",
        f"mean solver iterations:   {summary.mean_solver_iterations:.2f}",
        "solves by trigger:        " + (", ".join(
            f"{check} {count}" for check, count in summary.solves_by_trigger.items())
            or "none recorded"),
    ]
    return "\n".join(lines)


def _seconds(value: float | None) -> str:
    return "not recorded" if value is None else f"{value:.3f} s"


def write_table(path, header: list[str], rows) -> None:
    """A small CSV (the csv module's excel dialect): the header, then one
    line per row. A None cell is written empty, a float as `%.17g` (a
    lossless round trip) and any other cell with str."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)  # writes None empty and other cells with str
        writer.writerow(header)
        writer.writerows([f"{cell:.17g}" if isinstance(cell, float) else cell
                          for cell in row] for row in rows)


def write_histogram(hist: Histogram, path) -> None:
    rows = [[lo, hi, int(c)] for lo, hi, c in zip(hist.edges[:-1], hist.edges[1:], hist.counts)]
    write_table(path, ["bin_lo", "bin_hi", "count"],
                rows + [["clipped", None, hist.clipped_count]])
