import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridflow import dataset as ds
from hybridflow import hybrid
from hybridflow import surrogate as sg
from hybridflow.cli import main
from hybridflow.config import ConfigError, load_config
from hybridflow.hybrid import read_records
from hybridflow.solver import SingularJacobianError

CONFIG_TEMPLATE = """\
network: feeder30
dataset: {out}/dataset.csv
load_spec:
  n_loads: 29
  resolution_minutes: 30
  duration_days: 6
  seed: 5
split:
  drop_days: 1
  train_days: 3
  test_days: 2
surrogate:
  method: kmeans
  n_clusters: 3
  seed: 3
  model_file: {out}/surrogate.npz
hybrid:
  error_check_threshold: 0.01
  max_check_interval: 2
  step_change_threshold: 0.20
solver:
  mismatch_tolerance: 1.0e-8
output_dir: {out}
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config plus generated dataset and trained model, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=root / "out"))
    assert main(["--config", str(config), "generate"]) == 0
    assert main(["--config", str(config), "train"]) == 0
    return root


def test_generate_writes_dataset(workdir):
    data = ds.read_csv(workdir / "out" / "dataset.csv")
    assert data.n_steps == 6 * 48
    assert data.n_loads == 29
    assert data.outputs_v.shape[1] == 30


def test_generate_reproducible(workdir, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out"))
    assert main(["--config", str(config), "generate"]) == 0
    original = (workdir / "out" / "dataset.csv").read_bytes()
    assert (tmp_path / "out" / "dataset.csv").read_bytes() == original


def test_train_writes_model(workdir):
    model = sg.load(workdir / "out" / "surrogate.npz")
    assert model.method == "kmeans"
    assert model.n_c == 3


def test_simulate_hybrid(workdir, capsys):
    config = workdir / "run.yaml"
    assert main(["--config", str(config), "simulate"]) == 0
    out = capsys.readouterr().out
    assert "avoided solves" in out
    summary = json.loads((workdir / "out" / "summary.json").read_text())
    assert 0.0 <= summary["avoided_solves_fraction"] <= 1.0
    assert (workdir / "out" / "records.csv").exists()
    assert (workdir / "out" / "solutions.csv").exists()


def test_summary_counts_solves_by_trigger(workdir, tmp_path, capsys):
    config = workdir / "run.yaml"
    sim, rep = tmp_path / "sim", tmp_path / "report"
    assert main(["--config", str(config), "--out", str(sim), "simulate"]) == 0
    printed = capsys.readouterr().out
    records = read_records(sim / "records.csv")
    counts = {}
    for r in records:
        if r.decision == "solver":
            counts[r.triggering_check] = counts.get(r.triggering_check, 0) + 1
    summary = json.loads((sim / "summary.json").read_text())
    assert summary["solves_by_trigger"] == counts and counts["forced_first"] == 1
    line = "solves by trigger:        " + ", ".join(f"{check} {count}" for check, count
                                                   in sorted(counts.items()))
    assert line in printed.splitlines()
    assert main(["--config", str(config), "--out", str(rep), "report", "--records",
                 str(sim / "records.csv")]) == 0
    assert line in capsys.readouterr().out.splitlines()
    reported = json.loads((rep / "report_summary.json").read_text())
    assert reported["solves_by_trigger"] == counts


def test_simulate_pure_solver_deterministic(workdir, tmp_path):
    config = workdir / "run.yaml"
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    assert main(["--config", str(config), "--out", str(out1),
                 "simulate", "--pure-solver"]) == 0
    assert main(["--config", str(config), "--out", str(out2),
                 "simulate", "--pure-solver"]) == 0
    assert (out1 / "solutions.csv").read_bytes() == (out2 / "solutions.csv").read_bytes()


def test_pure_solver_records_name_no_check(workdir, tmp_path):
    # no gate runs when every step is solved, so no row names one
    config = workdir / "run.yaml"
    assert main(["--config", str(config), "--out", str(tmp_path),
                 "simulate", "--pure-solver"]) == 0
    records = read_records(tmp_path / "records.csv")
    assert len(records) == 2 * 48
    assert all(r.decision == "solver" for r in records)
    assert all(r.triggering_check is None for r in records)


def test_generate_solves_each_row_once(tmp_path, monkeypatch):
    calls = []
    real = hybrid.solve_newton_raphson

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    # counted where the benchmark's trace wraps it: the `hybrid` binding
    monkeypatch.setattr(hybrid, "solve_newton_raphson", counting)
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out"))
    assert main(["--config", str(config), "generate"]) == 0
    data = ds.read_csv(tmp_path / "out" / "dataset.csv")
    assert len(calls) == data.n_steps == 6 * 48
    assert np.array_equal(np.array([p for p, _ in calls]), data.inputs[:, :29])


def test_generate_infeasible_load_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out").replace(
        "duration_days: 6", "duration_days: 1\n  base_level: 20.0"))
    assert main(["--config", str(config), "generate"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "(row 0)" in lines[0]


@pytest.mark.parametrize("anchor, key", [
    ("  step_change_threshold: 0.20\n", "step_change_enabled"),
    ("  step_change_threshold: 0.20\n", "error_check_enabled"),
    ("  mismatch_tolerance: 1.0e-8\n", "gs_max_iterations"),
    ("  test_days: 2\n", "train_day"),
    ("  n_clusters: 3\n", "n_cluster"),
    ("  seed: 5\n", "modes"),
], ids=["hybrid", "hybrid_error_check", "solver", "split", "surrogate", "load_spec"])
def test_unknown_config_key_is_error(tmp_path, anchor, key):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=tmp_path / "out").replace(
        anchor, f"{anchor}  {key}: false\n"))
    with pytest.raises(ConfigError, match=f"unknown key .*: {key}$"):
        load_config(config)


def test_version_1_surrogate_is_one_line_error(workdir, tmp_path, capsys):
    # the version-1 layout: a list of per-cluster maps A1/A2 (v/a) and b1/b2
    model = sg.load(workdir / "out" / "surrogate.npz")
    n_v = model.coef.shape[1] // 2
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps({
        "format": "hybridflow-surrogate", "version": 1, "method": model.method,
        "n_c": model.n_c, "n_inputs": model.centers.shape[1],
        "centers": model.centers.tolist(),
        "input_mean": model.input_mean.tolist(),
        "input_scale": model.input_scale.tolist(),
        "train_distances": [d.tolist() for d in model.train_distances],
        "models": [{"A1": c[:n_v].tolist(), "A2": c[n_v:].tolist(),
                    "b1": b[:n_v].tolist(), "b2": b[n_v:].tolist()}
                   for c, b in zip(model.coef, model.intercept)],
    }))
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=workdir / "out").replace(
        f"model_file: {workdir / 'out'}/surrogate.npz", f"model_file: {v1}"))
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "simulate"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert lines[0].endswith(f"{v1}: unreadable archive (File is not a zip file); retrain")


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    return lines[0]


def _config_with(workdir, tmp_path, old, new) -> Path:
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=workdir / "out").replace(old, new))
    return config


ZERO_IMPEDANCE = """\
buses: [{id: 0, kind: slack}, {id: 1, load: 0}]
lines: [{from: 0, to: 1, r: 0.0, x: 0.0}]
"""
BUS_WITHOUT_ID = """\
buses: [{kind: slack}, {id: 1, load: 0}]
lines: [{from: 0, to: 1, r: 0.01, x: 0.05}]
"""
RECORDS = """\
timestamp,decision,triggering_check,eps_inf,solver_iterations
2024-01-05T00:00:00Z,solver,forced_first,0,3
"""
SHORT_RECORD = RECORDS + "2024-01-05T00:30:00Z,model\n"
REPEATED_LOAD = """\
buses:
  - {id: 0, kind: slack}
  - {id: 1, load: 0, load: 1}
lines: [{from: 0, to: 1, r: 0.01, x: 0.05}]
"""
NEGATIVE_LEVEL = ("  seed: 5\n", "  seed: 5\n  base_level: -0.01\n")
NEGATIVE_LEVEL_ERROR = "section 'load_spec': base_level must be finite and >= 0, got -0.01"


@pytest.mark.parametrize("old, new, files, argv, named", [
    ("max_check_interval: 2", "max_check_interval: two", {}, ["simulate"], None),
    ("max_check_interval: 2", "max_check_interval: 0", {}, ["simulate"], None),
    ("error_check_threshold: 0.01", "error_check_threshold: null", {}, ["simulate"], None),
    ("error_check_threshold: 0.01", "error_check_threshold: .nan", {}, ["simulate"], None),
    ("step_change_threshold: 0.20", "step_change_threshold: -1.0", {}, ["simulate"], None),
    ("step_change_threshold: 0.20", "step_change_threshold: .nan", {}, ["simulate"], None),
    ("  step_change_threshold: 0.20\n",
     "  step_change_threshold: 0.20\n  distance_percentile_threshold: -1.0\n", {},
     ["simulate"], None),
    ("mismatch_tolerance: 1.0e-8", "mismatch_tolerance: .nan", {"records.csv": RECORDS},
     ["report", "--records", "{tmp}/records.csv"], None),
    ("  n_clusters: 3\n", '  n_clusters: 3\n  intercept: "no"\n', {}, ["simulate"], None),
    ("  n_loads: 29\n", "", {}, ["simulate"], None),
    ("hybrid:\n", "hybrid: [\n", {}, ["simulate"], None),
    ("model_file: {out}/surrogate.npz", "model_file: {tmp}/model.json",
     {"model.json": "{not json"}, ["simulate"], None),
    ("network: feeder30", "network: {tmp}/net.yaml", {"net.yaml": ZERO_IMPEDANCE},
     ["simulate"], None),
    ("network: feeder30", "network: {tmp}/net.yaml", {"net.yaml": BUS_WITHOUT_ID},
     ["simulate"], None),
    ("resolution_minutes: 30", "resolution_minutes: 0", {}, ["generate"], None),
    ("resolution_minutes: 30", "resolution_minutes: -5", {}, ["generate"], None),
    ("  seed: 5\n", "  seed: 5\n  noise_scale: .nan\n", {}, ["generate"], None),
    (*NEGATIVE_LEVEL, {}, ["generate"], NEGATIVE_LEVEL_ERROR),
    ("  seed: 5\n", '  seed: 5\n  start: "NaT"\n', {}, ["generate"], None),
    ("method: kmeans\n  n_clusters: 3\n  seed: 3\n  model_file: {out}",
     "method: none\n  n_clusters: 3\n  seed: 3\n  model_file: {tmp}", {}, ["train"], None),
    ("", "", {}, ["tune", "--parameter", "step_change", "--values", "0.2",
                  "--calibration-days", "0"], None),
    ("", "", {}, ["tune", "--parameter", "step_change", "--values", "0.2",
                  "--calibration-days=-1,1"], None),
    ("", "", {}, ["tune", "--parameter", "step_change", "--values", "0.2",
                  "--calibration-days", "-1,1"], None),
    ("", "", {"records.csv": RECORDS},
     ["report", "--records", "{tmp}/records.csv", "--bin-width", "0"], None),
    ("", "", {"records.csv": SHORT_RECORD}, ["report", "--records", "{tmp}/records.csv"],
     None),
    ("", "", {"records.csv": RECORDS},
     ["report", "--records", "{tmp}/records.csv", "--clip", "inf"], None),
    ("", "", {"records.csv": RECORDS},
     ["report", "--records", "{tmp}/records.csv", "--bin-width", "nan"], None),
    ("  seed: 5\n", "  seed: -1\n", {}, ["generate"],
     "section 'load_spec': seed must be >= 0, got -1"),
    ("seed: 3\n  model_file: {out}", "seed: -1\n  model_file: {tmp}", {}, ["train"],
     "section 'surrogate': seed must be >= 0, got -1"),
    ("n_clusters: 3\n  seed: 3\n  model_file: {out}",
     "n_clusters: 0\n  seed: 3\n  model_file: {tmp}", {}, ["train"],
     "section 'surrogate': n_clusters must be >= 1, got 0"),
    ("", "", {}, ["--seed=-1", "generate"], "--seed must be >= 0, got -1"),
    ("", "", {"records.csv": RECORDS},
     ["report", "--records", "{tmp}/records.csv", "--bin-width", "1e-300"],
     "--clip over --bin-width"),
    (*NEGATIVE_LEVEL, {}, ["train"], NEGATIVE_LEVEL_ERROR),
    (*NEGATIVE_LEVEL, {}, ["simulate"], NEGATIVE_LEVEL_ERROR),
    (*NEGATIVE_LEVEL, {}, ["tune", "--parameter", "step_change", "--values", "0.2"],
     NEGATIVE_LEVEL_ERROR),
    ("  seed: 5\n", "  seed: 5\n  seed: 6\n", {}, ["simulate"],
     "{tmp}/run.yaml:8: invalid YAML: repeated key 'seed'"),
    ("network: feeder30\n", "network: feeder30\nnetwork: net4\n", {}, ["simulate"],
     "{tmp}/run.yaml:2: invalid YAML: repeated key 'network'"),
    ("network: feeder30", "network: {tmp}/net.yaml", {"net.yaml": REPEATED_LOAD},
     ["simulate"], "{tmp}/net.yaml:3: invalid YAML: repeated key 'load'"),
    ("max_check_interval: 2", "max_check_interval: 2\n  max_interval_growth: 0", {},
     ["simulate"], "section 'hybrid': max_interval_growth must be >= 1 or null"),
], ids=["interval_not_int", "interval_zero", "threshold_null", "threshold_nan",
        "step_change_negative", "step_change_nan", "distance_negative", "tolerance_nan",
        "intercept_string", "no_n_loads", "yaml_syntax", "surrogate_not_json",
        "zero_impedance", "bus_without_id", "resolution_zero", "resolution_negative",
        "noise_nan", "base_level_negative", "start_nat", "method_none", "calibration_days",
        "calibration_days_negative", "calibration_days_negative_spaced", "bin_width_zero",
        "records_short_row", "clip_inf", "bin_width_nan", "load_spec_seed_negative",
        "surrogate_seed_negative", "n_clusters_zero", "seed_option_negative",
        "bin_width_tiny", "base_level_negative_train", "base_level_negative_simulate",
        "base_level_negative_tune", "repeated_section_key", "repeated_top_level_key",
        "repeated_network_key", "growth_zero"])
def test_malformed_input_is_one_line_error(workdir, tmp_path, capsys, old, new, files, argv,
                                           named):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # `generate` writes to the configured dataset path, which --out does not
    # redirect: a case that wrongly succeeds must not overwrite the shared dataset
    out = tmp_path / "out" if "generate" in argv else workdir / "out"
    paths = {"out": out, "tmp": tmp_path}
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.replace(old, new).format(**paths))
    argv = [arg.format(**paths) for arg in argv]
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), *argv]) == 1
    line = _one_error_line(capsys)
    if named is not None:  # the line names the bad key, and a YAML error its file and line
        assert named.format(**paths) in line


def _damaged_model(workdir, tmp_path, damage) -> Path:
    """The trained model's archive with `damage` applied to its arrays."""
    with np.load(workdir / "out" / "surrogate.npz") as archive:
        fields = dict(archive)
    damage(fields)
    damaged = tmp_path / "damaged.npz"
    with open(damaged, "wb") as f:
        np.savez(f, **fields)
    return damaged


def test_surrogate_missing_key_is_one_line_error(workdir, tmp_path, capsys):
    damaged = _damaged_model(workdir, tmp_path, lambda fields: fields.pop("coef"))
    config = _config_with(workdir, tmp_path, f"model_file: {workdir / 'out'}/surrogate.npz",
                          f"model_file: {damaged}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "simulate"]) == 1
    assert _one_error_line(capsys) == f"error: {damaged}: missing entry 'coef'; retrain"


@pytest.mark.parametrize("name, width", [("centers", 4), ("intercept", 10)])
def test_surrogate_of_mismatched_widths_is_one_line_error(workdir, tmp_path, capsys, name,
                                                          width):
    def narrowed(fields):
        fields[name] = fields[name][:, :width]

    damaged = _damaged_model(workdir, tmp_path, narrowed)
    config = _config_with(workdir, tmp_path, f"model_file: {workdir / 'out'}/surrogate.npz",
                          f"model_file: {damaged}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "simulate"]) == 1
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {damaged}: array shapes ")
    assert f"'{name}': (3, {width})" in line and line.endswith(" do not agree; retrain")


def test_surrogate_empty_cluster_is_one_line_error(workdir, tmp_path, capsys):
    # a cluster without training rows: the zero-map weekday of older files
    def empty_cluster_1(fields):
        sizes = fields["train_sizes"]
        fields["train_distances"] = np.delete(fields["train_distances"],
                                              np.s_[sizes[0]:sizes[0] + sizes[1]])
        sizes[1] = 0

    damaged = _damaged_model(workdir, tmp_path, empty_cluster_1)
    config = _config_with(workdir, tmp_path, f"model_file: {workdir / 'out'}/surrogate.npz",
                          f"model_file: {damaged}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "simulate"]) == 1
    assert _one_error_line(capsys) == (f"error: {damaged}: cluster 1 has no "
                                       f"training rows; retrain")


@pytest.mark.parametrize("argv", [["simulate"],
                                  ["tune", "--parameter", "step_change", "--values", "0.2"]],
                         ids=["simulate", "tune"])
def test_model_of_another_network_is_one_line_error(workdir, tmp_path, capsys, argv):
    # a model fitted to net4: 2 loads and 4 buses, where feeder30 has 29 and 30
    n_in, n_out = 4, 8
    other = tmp_path / "net4.npz"
    sg.save(sg.ClusteredSurrogate(method=sg.KMEANS, centers=np.zeros((1, n_in)),
                                  coef=np.zeros((1, n_out, n_in)),
                                  intercept=np.ones((1, n_out)),
                                  train_distances=[np.zeros(1)],
                                  input_mean=np.zeros(n_in), input_scale=np.ones(n_in)),
            other)
    config = _config_with(workdir, tmp_path, f"model_file: {workdir / 'out'}/surrogate.npz",
                          f"model_file: {other}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), *argv]) == 1
    assert _one_error_line(capsys) == (
        f"error: {other}: model of shape (8, 4) ([v, a] outputs, [P, Q] inputs) does not "
        f"fit network feeder30, which needs (60, 58); retrain")


@pytest.mark.parametrize("flags", [[], ["--pure-solver"]], ids=["hybrid", "pure_solver"])
def test_singular_jacobian_is_one_line_error(workdir, tmp_path, capsys, monkeypatch, flags):
    def singular(*args, **kwargs):
        raise SingularJacobianError(2)

    monkeypatch.setattr("hybridflow.hybrid.solve_newton_raphson", singular)
    assert main(["--config", str(workdir / "run.yaml"), "--out", str(tmp_path),
                 "simulate", *flags]) == 1
    line = _one_error_line(capsys)
    # the first test-window step: 1 dropped and 3 training days after 2024-01-01
    assert line == "error: singular Jacobian at Newton iteration 2 at 2024-01-05T00:00:00 (row 0)"


def test_nan_load_in_dataset_is_one_line_error(workdir, tmp_path, capsys):
    data = ds.read_csv(workdir / "out" / "dataset.csv")
    # data row i is on line i + 2; after 1 dropped and 3 training days of
    # 48 rows, the test window starts at row 4 * 48
    lineno = 2 + 4 * 48 + 5
    data.inputs[lineno - 2, 0] = np.nan
    dataset = tmp_path / "dataset.csv"
    ds.write_csv(data, dataset)
    config = _config_with(workdir, tmp_path, f"dataset: {workdir / 'out'}/dataset.csv",
                          f"dataset: {dataset}")
    assert main(["--config", str(config), "--out", str(tmp_path / "out"),
                 "simulate"]) == 1
    assert _one_error_line(capsys) == (f"error: {dataset}:{lineno}: non-finite value "
                                       f"in column 'p_0'")


@pytest.mark.parametrize("damage, named", [
    (lambda csv: csv.write_text(csv.read_text().replace(",+", ",", 1)), ":2"),
    (lambda csv: Path(f"{csv}.npz").unlink(), ".npz"),
    (lambda csv: Path(f"{csv}.npz").write_bytes(Path(f"{csv}.npz").read_bytes()[:100]), ".npz"),
], ids=["edited_csv", "absent_archive", "truncated_archive"])
def test_stale_dataset_is_one_line_error(workdir, tmp_path, capsys, damage, named):
    dataset = tmp_path / "dataset.csv"
    for suffix in ("", ".npz"):
        Path(f"{dataset}{suffix}").write_bytes(
            Path(f"{workdir / 'out' / 'dataset.csv'}{suffix}").read_bytes())
    damage(dataset)
    config = _config_with(workdir, tmp_path, f"dataset: {workdir / 'out'}/dataset.csv",
                          f"dataset: {dataset}")
    assert main(["--config", str(config), "train"]) == 1
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {dataset}{named}: ")
    assert line.endswith("; rerun generate")


ONE_ROW_TEST_SET = """\
network: net4
dataset: {out}/dataset.csv
load_spec:
  n_loads: 2
  resolution_minutes: 1440
  duration_days: 14
split:
  drop_days: 0
  train_days: 12
  test_days: 1
surrogate:
  method: kmeans
  n_clusters: 1
  model_file: {out}/surrogate.npz
output_dir: {out}
"""


def test_tune_on_a_one_row_test_set_writes_one_sweep_row(tmp_path):
    # the calibration day is sliced with the dataset's resolution, not the test set's
    config = tmp_path / "run.yaml"
    config.write_text(ONE_ROW_TEST_SET.format(out=tmp_path / "out"))
    for stage in (["generate"], ["train"], ["simulate"],
                  ["tune", "--parameter", "step_change", "--values", "0.2"]):
        assert main(["--config", str(config), *stage]) == 0
    rows = (tmp_path / "out" / "sweep_step_change.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("step_change,0.20000000000000001,,")


def test_cli_import_leaves_scipy_out():
    # scipy.sparse.linalg alone costs about 0.25 s of import and 29 MiB of RSS
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hybridflow.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_src_imports_only_stdlib_numpy_and_yaml():
    # numpy and pyyaml are the only dependencies; importing scipy.sparse.linalg
    # alone would add about 32 MiB to every run's peak RSS
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml"}
    src = Path(__file__).resolve().parents[1] / "src" / "hybridflow"
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one
                continue
            outside = {name.split(".")[0] for name in names} - allowed
            assert not outside, f"{path.name}:{node.lineno} imports {sorted(outside)}"


@pytest.mark.parametrize("argv", [
    ["simulate", "--pure-solver"],
    ["simulate"],
    ["tune", "--parameter", "step_change", "--values", "0.2"],
], ids=["pure_solver", "simulate", "tune"])
def test_empty_test_split_is_one_line_error(workdir, tmp_path, capsys, argv):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=workdir / "out").replace(
        "test_days: 2", "test_days: 0"))
    assert main(["--config", str(config), "--out", str(tmp_path), *argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: split.test_days is 0: simulate and tune need a test set"]


def test_train_accepts_an_empty_test_split(workdir, tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(CONFIG_TEMPLATE.format(out=workdir / "out")
                      .replace("test_days: 2", "test_days: 0")
                      .replace(f"model_file: {workdir / 'out'}", f"model_file: {tmp_path}"))
    with pytest.warns(UserWarning, match="empty test set"):
        assert main(["--config", str(config), "train"]) == 0
    assert sg.load(tmp_path / "surrogate.npz").n_c == 3


def test_tune_single_point(workdir):
    config = workdir / "run.yaml"
    assert main(["--config", str(config), "tune", "--parameter", "step_change",
                 "--values", "0.2", "--calibration-days", "0,1"]) == 0
    sweep_file = workdir / "out" / "sweep_step_change.csv"
    assert sweep_file.exists()
    assert len(sweep_file.read_text().strip().splitlines()) == 2


def test_tune_empty_grid_is_usage_error(workdir):
    config = workdir / "run.yaml"
    assert main(["--config", str(config), "tune", "--parameter", "step_change",
                 "--values", ""]) == 1


def test_tune_rejects_second_grid_on_a_1d_sweep(workdir, capsys):
    config = workdir / "run.yaml"
    assert main(["--config", str(config), "tune", "--parameter", "step_change",
                 "--values", "0.1", "--values2", "3"]) == 1
    assert "1-D sweep of 'step_change'" in capsys.readouterr().err


def test_report_from_records(workdir, tmp_path, capsys):
    config = workdir / "run.yaml"
    sim, out = tmp_path / "sim", tmp_path / "report"
    assert main(["--config", str(config), "--out", str(sim), "simulate"]) == 0
    capsys.readouterr()
    assert main(["--config", str(config), "--out", str(out), "report", "--records",
                 str(sim / "records.csv")]) == 0
    assert "median eps_inf" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["error_histogram.csv",
                                                     "report_summary.json"]
    # the histogram's row total and the largest error follow from the two files
    summary = json.loads((out / "report_summary.json").read_text())
    rows = (out / "error_histogram.csv").read_text().splitlines()[1:]
    assert sum(int(row.split(",")[2]) for row in rows) == summary["n_steps"]
    records = read_records(sim / "records.csv")
    assert summary["max_eps_inf"] == max(r.model_eps_inf_vs_truth for r in records
                                         if r.decision == "model")


def test_report_keeps_the_simulate_summary(workdir):
    config = workdir / "run.yaml"
    out = workdir / "out"
    assert main(["--config", str(config), "simulate"]) == 0
    written = (out / "summary.json").read_bytes()
    assert main(["--config", str(config), "report", "--records",
                 str(out / "records.csv")]) == 0
    assert (out / "summary.json").read_bytes() == written
    assert (out / "report_summary.json").exists()


def test_missing_config_is_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.yaml"), "generate"]) == 1


def test_missing_network_is_error(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("network: does_not_exist.yaml\n")
    assert main(["--config", str(config), "train"]) == 1


def test_bundled_example_config_parses():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "full_study.yaml"
    config = load_config(path)
    assert config.load_spec.duration_days == 28
    assert config.hybrid.max_check_interval == 12
    assert config.load_network().n_bus == 30
