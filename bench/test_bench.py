"""Smoke tests of the benchmark's own helpers (run with pytest from the repo root)."""

import json
from pathlib import Path

import numpy as np
import yaml

import checks
import workloads
from hybridflow.cli import main as cli_main
from hybridflow.config import load_config
from hybridflow.solver import solve_newton_raphson


def test_inject_events_is_seeded_and_stays_in_window():
    rng = np.random.default_rng(0)
    P = rng.random((3000, 6))
    Q = 0.5 * P
    lo, hi = 1000, 2900
    a = workloads.inject_events(P, Q, lo, hi, seed=5)
    b = workloads.inject_events(P, Q, lo, hi, seed=5)
    c = workloads.inject_events(P, Q, lo, hi, seed=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]
    assert not np.array_equal(a[0], c[0])
    assert np.array_equal(a[0][:lo], P[:lo]) and np.array_equal(a[0][hi:], P[hi:])
    events = a[2]
    kinds = [e["kind"] for e in events]
    assert sorted(kinds) == sorted(workloads.EVENT_KINDS * workloads.EVENTS_PER_KIND)
    spans = sorted((e["start"], e["start"] + e["steps"]) for e in events)
    assert spans[0][0] >= lo and spans[-1][1] <= hi
    assert all(end <= nxt for (_, end), (nxt, _) in zip(spans, spans[1:]))


def test_radial_builder_is_valid_and_converges_from_flat_start():
    net = workloads.build_radial(3)
    assert net.n_bus == workloads.RADIAL_BUSES
    assert len(net.lines) == net.n_bus - 1          # a tree: radial and connected
    assert net.n_loads == net.n_bus - 1
    p, q = workloads._peak_load(net.n_loads)
    sol = solve_newton_raphson(net, p, q)
    assert sol.converged
    assert abs(sol.v.min() - workloads.RADIAL_VMIN) < 5e-3
    again = workloads.build_radial(3)
    assert [ln.resistance for ln in again.lines] == [ln.resistance for ln in net.lines]


def test_summary_recomputation_on_net4(tmp_path):
    raw = {
        "network": "net4",
        "load_spec": {"n_loads": 2, "resolution_minutes": 60, "duration_days": 5,
                      "seed": 3},
        "split": {"drop_days": 0, "train_days": 3, "test_days": 2},
        "surrogate": {"method": "kmeans", "n_clusters": 2, "seed": 1},
        "hybrid": {"max_check_interval": 4},
    }
    path = workloads._write_config(raw, tmp_path)
    for stage in (["generate"], ["train"], ["simulate"]):
        assert cli_main(["--config", str(path)] + stage) == 0
    config = load_config(path)
    network = config.load_network()
    found, facts = checks.check_outputs(config, network, 72, 120, tmp_path)
    assert all(ok for _, ok, _ in found), found
    assert facts["test_steps"] == 48

    summary_path = tmp_path / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["max_eps_inf"] *= 1.001
    summary_path.write_text(json.dumps(summary))
    found, _ = checks.check_outputs(config, network, 72, 120, tmp_path)
    failed = [name for name, ok, _ in found if not ok]
    assert failed == ["summary_max_eps_inf"]


def test_full_study_seed_zero_is_the_committed_config(tmp_path):
    root = Path(__file__).resolve().parent.parent
    wl = workloads.prepare("feeder30_study", 0, root, tmp_path)
    written = yaml.safe_load(wl.config_path.read_text())
    committed = yaml.safe_load((root / "configs" / "full_study.yaml").read_text())
    assert written["load_spec"]["seed"] == committed["load_spec"]["seed"]
    assert np.datetime64(written["load_spec"]["start"]) == np.datetime64(
        committed["load_spec"]["start"])
    assert written["surrogate"]["seed"] == committed["surrogate"]["seed"]
