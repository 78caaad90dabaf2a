"""The benchmark's workloads: seeded inputs, run configs and stage lists.

Every input is derived from the workload seed; seed 0 reproduces the
committed `configs/full_study.yaml` exactly. The program only ever sees
the files written here (config YAML, network YAML, dataset CSV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from hybridflow import dataset as ds
from hybridflow import hybrid, loadgen
from hybridflow.config import load_config
from hybridflow.netmodel import Bus, Line, make_network, save_network
from hybridflow.solver import solve_newton_raphson

WORKLOADS = ("feeder30_study", "radial200", "event_week")

FULL_STUDY_GRID = ["--parameter", "error_threshold_x_max_interval",
                   "--values", "1e-4,1e-3,1e-2,1e-1", "--values2", "2,6,12,24",
                   "--calibration-days", "0,1"]
# radial200 solves cost ~25x more; a 2x2 grid keeps `tune` near 3 s
RADIAL_GRID = ["--parameter", "error_threshold_x_max_interval",
               "--values", "1e-3,1e-2", "--values2", "4,12",
               "--calibration-days", "0,1"]

# salts keep the streams drawn from one workload seed independent
_OFFSET_SALT, _RADIAL_SALT, _EVENT_SALT = 101, 202, 303


@dataclass
class Workload:
    """One prepared workload: where its config lives and what to run."""
    config_path: Path
    stages: list[list[str]]        # CLI argv tails, run in order
    generate: Callable[[], int] | None = None   # replaces the CLI `generate` stage
    info: dict = field(default_factory=dict)

    def argv(self, stage: list[str]) -> list[str]:
        return ["--config", str(self.config_path)] + stage


def start_offset_steps(seed: int, span_steps: int) -> int:
    """Seed -> start shift of the load calendar, in whole steps below span_steps.

    Shifting the start by k steps pairs every time of day with another
    draw of the seeded noise, so each seed gives a new load series while
    the per-load population (weights, power factors) stays the committed
    one. Seed 0 keeps the committed start.
    """
    if seed == 0:
        return 0
    return int(np.random.default_rng([_OFFSET_SALT, seed]).integers(1, span_steps))


def _shifted_start(load_spec: dict, seed: int, span_days: int = 7) -> str:
    res = int(load_spec.get("resolution_minutes", 5))
    offset = start_offset_steps(seed, span_days * 1440 // res)
    start = np.datetime64(load_spec.get("start", "2024-01-01T00:00:00"), "s")
    return str(start + np.timedelta64(offset * res * 60, "s"))


def _write_config(raw: dict, workdir: Path) -> Path:
    raw = dict(raw, dataset="dataset.csv", output_dir=".")
    raw["surrogate"] = dict(raw["surrogate"], model_file="surrogate.json")
    path = workdir / "config.yaml"
    with open(path, "w") as f:
        yaml.safe_dump(raw, f, sort_keys=False)
    return path


def _full_study_raw(root: Path, seed: int) -> dict:
    with open(root / "configs" / "full_study.yaml") as f:
        raw = yaml.safe_load(f)
    raw["load_spec"] = dict(raw["load_spec"], start=_shifted_start(raw["load_spec"], seed))
    return raw


def _stages(tune_grid: list[str]) -> list[list[str]]:
    return [["generate"], ["train"], ["simulate", "--pure-solver"], ["simulate"],
            ["tune"] + tune_grid]


def prepare(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the workload's inputs for `seed` into workdir."""
    if name == "feeder30_study":
        path = _write_config(_full_study_raw(root, seed), workdir)
        return Workload(path, _stages(FULL_STUDY_GRID))
    if name == "radial200":
        save_network(build_radial(seed), workdir / "radial200.yaml")
        path = _write_config(radial_raw(seed), workdir)
        return Workload(path, _stages(RADIAL_GRID))
    if name == "event_week":
        path = _write_config(_full_study_raw(root, seed), workdir)
        wl = Workload(path, _stages(FULL_STUDY_GRID))
        wl.generate = lambda: generate_with_events(path, seed, wl.info)
        return wl
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- radial200

RADIAL_BUSES = 200
RADIAL_TRUNK = 40
RADIAL_VMIN = 0.95      # lowest voltage at the peak deterministic load


def radial_raw(seed: int) -> dict:
    """radial200 run config: 15-minute steps, 3 days, 2 train + 1 test.

    The start stays within the first two days of the committed Monday
    start, so all three days are weekdays and the test day meets no
    operating mode that the two training days lack.
    """
    return {
        "network": "radial200.yaml",
        "load_spec": {"n_loads": RADIAL_BUSES - 1, "resolution_minutes": 15,
                      "duration_days": 3, "base_level": 0.01, "noise_scale": 0.02,
                      "seed": 42, "min_power_factor": 0.90,
                      "start": _shifted_start({"resolution_minutes": 15,
                                               "start": "2024-01-01T00:00:00"},
                                              seed, span_days=2)},
        "split": {"drop_days": 0, "train_days": 2, "test_days": 1},
        "surrogate": {"method": "kmeans", "n_clusters": 2, "seed": 7,
                      "intercept": True, "standardize": True},
        "hybrid": {"error_check_threshold": 0.01, "max_check_interval": 4,
                   "step_change_threshold": 0.20,
                   "distance_percentile_threshold": None},
        "solver": {"mismatch_tolerance": 1.0e-8, "max_iterations": 50,
                   "warm_start": True},
    }


def _peak_load(n_loads: int, base_level: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    # highest mode level x highest per-load weight x intra-mode swing
    p = np.full(n_loads, 1.30 * base_level * 1.4 * 1.05)
    return p, p * np.tan(np.arccos(0.90))


def build_radial(seed: int, n_bus: int = RADIAL_BUSES, trunk: int = RADIAL_TRUNK):
    """Seeded radial feeder: a trunk 0..trunk-1 with chain laterals hung
    off random trunk buses, a load on every non-slack bus. Impedances are
    then scaled so the peak deterministic load bottoms out at RADIAL_VMIN,
    which keeps every seed's feeder equally stressed."""
    rng = np.random.default_rng([_RADIAL_SALT, seed])
    edges = [(i, i + 1) for i in range(trunk - 1)]
    nxt = trunk
    while nxt < n_bus:
        length = min(int(rng.integers(3, 13)), n_bus - nxt)
        prev = int(rng.integers(1, trunk))
        for node in range(nxt, nxt + length):
            edges.append((prev, node))
            prev = node
        nxt += length
    r = rng.uniform(0.004, 0.010, size=len(edges))
    x = rng.uniform(0.012, 0.030, size=len(edges))
    buses = [Bus(0, "slack")] + [Bus(i, "pq", load_attachment=i - 1)
                                 for i in range(1, n_bus)]
    p, q = _peak_load(n_bus - 1)

    def assemble(scale: float):
        lines = [Line(i, j, float(ri * scale), float(xi * scale))
                 for (i, j), ri, xi in zip(edges, r, x)]
        return make_network(buses, lines, name=f"radial{n_bus}")

    # the voltage drop is close to linear in the impedance scale, so a few
    # secant-like corrections from a lightly loaded start reach the target
    scale = 0.01
    for _ in range(6):
        sol = solve_newton_raphson(assemble(scale), p, q)
        if not sol.converged:
            raise RuntimeError(f"radial feeder for seed {seed} does not converge "
                               f"at impedance scale {scale:g}")
        drop = 1.0 - float(sol.v.min())
        if abs(drop - (1.0 - RADIAL_VMIN)) < 1e-4:
            break
        scale *= (1.0 - RADIAL_VMIN) / drop
    return assemble(scale)


# --------------------------------------------------------------- event_week

EVENT_KINDS = ("step3", "drop_half", "ramp", "pv")
EVENTS_PER_KIND = 4
EVENT_STEPS = (90, 111)          # event length range, steps
PV_BUSES = 3
PV_LEVEL = 0.03                  # pu injected per PV-like bus


def inject_events(P: np.ndarray, Q: np.ndarray, lo: int, hi: int, seed: int
                  ) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Seeded load events in rows [lo, hi) of copies of P and Q.

    The window is cut into equal slots, one event per slot, so events
    never overlap; the kinds are a seeded permutation with the same count
    of each, and each event's start, length and buses are seeded.
    """
    rng = np.random.default_rng([_EVENT_SALT, seed])
    P, Q = P.copy(), Q.copy()
    n_events = EVENTS_PER_KIND * len(EVENT_KINDS)
    kinds = rng.permutation(np.repeat(np.arange(len(EVENT_KINDS)), EVENTS_PER_KIND))
    slot = (hi - lo) // n_events
    if slot <= EVENT_STEPS[1]:
        raise ValueError(f"window of {hi - lo} steps is too short for {n_events} events")
    n_loads = P.shape[1]
    events = []
    for k, kind_index in enumerate(kinds):
        kind = EVENT_KINDS[kind_index]
        length = int(rng.integers(*EVENT_STEPS))
        start = lo + k * slot + int(rng.integers(0, slot - length))
        rows = slice(start, start + length)
        buses = []
        if kind == "step3":
            P[rows] *= 3.0
            Q[rows] *= 3.0
        elif kind == "ramp":
            ramp = 1.0 + 1.5 * np.arange(1, length + 1)[:, None] / length
            P[rows] *= ramp
            Q[rows] *= ramp
        elif kind == "drop_half":
            buses = np.sort(rng.choice(n_loads, size=n_loads // 2, replace=False))
            P[rows, buses] = 0.0
            Q[rows, buses] = 0.0
        else:  # pv
            buses = np.sort(rng.choice(n_loads, size=PV_BUSES, replace=False))
            P[rows, buses] = -PV_LEVEL
            Q[rows, buses] = 0.0
        events.append({"kind": kind, "start": start, "steps": length,
                       "buses": [int(b) for b in buses]})
    return P, Q, events


def generate_with_events(config_path: Path, seed: int, info: dict) -> int:
    """event_week's `generate`: the full-study loads with events injected
    into the test window, solved by `hybrid.run_pure_solver` and written
    with `dataset.write_csv`. Returns 0 like a CLI stage."""
    config = load_config(config_path)
    network = config.load_network()
    series = loadgen.generate(config.load_spec, network)
    per_day = 1440 // config.load_spec.resolution_minutes
    lo = (config.split.drop_days + config.split.train_days) * per_day
    hi = lo + config.split.test_days * per_day
    P, Q, events = inject_events(series.P, series.Q, lo, hi, seed)
    series = loadgen.LoadSeries(timestamps=series.timestamps, P=P, Q=Q)
    solutions = hybrid.run_pure_solver(network, series, config.solver)
    data = ds.Dataset(timestamps=series.timestamps, inputs=np.hstack([P, Q]),
                      outputs_v=np.array([s.v for s in solutions]),
                      outputs_a=np.array([s.a for s in solutions]))
    ds.write_csv(data, config.resolve(config.dataset_path))
    info["events"] = [(e["kind"], e["start"], e["steps"]) for e in events]
    return 0
