import csv
import json
import re

import numpy as np
import pytest

from hybridflow.dataset import format_timestamps
from hybridflow.hybrid import StepRecord, read_records, write_records
from hybridflow.report import (ReportError, format_summary, histogram, step_errors,
                               summarize, write_histogram, write_summary)


def record(t, decision, eps=None, iters=None):
    ts = np.datetime64("2024-01-01T00:00:00", "s") + np.timedelta64(300 * t, "s")
    return StepRecord(timestamp=ts, decision=decision,
                      triggering_check=("error_stale" if decision == "solver" else None),
                      model_eps_inf_vs_truth=eps, solver_iterations=iters,
                      wall_time=0.001 if decision == "solver" else 0.0001)


def test_all_solver_run():
    records = [record(t, "solver", eps=1e-9, iters=2) for t in range(10)]
    summary = summarize(records, threshold=0.01)
    assert summary.avoided_solves_fraction == 0.0
    assert summary.median_eps_inf == 0.0   # solver steps contribute zero error
    assert summary.max_eps_inf == 0.0
    assert summary.mean_solver_iterations == 2.0


def test_solves_without_a_trigger_are_not_counted_by_trigger():
    # `simulate --pure-solver` records name no check
    records = [record(0, "solver", iters=2), record(1, "solver", iters=2)]
    records[1].triggering_check = None
    summary = summarize(records)
    assert summary.solves_by_trigger == {"error_stale": 1}
    records[0].triggering_check = None
    assert summarize(records).solves_by_trigger == {}
    assert "solves by trigger:        none recorded" in format_summary(summarize(records))


def test_all_model_perfect_run():
    records = [record(0, "solver", iters=3)]
    records += [record(t, "model", eps=0.0) for t in range(1, 20)]
    summary = summarize(records, threshold=0.01)
    assert summary.avoided_solves_fraction == 19 / 20
    assert summary.median_eps_inf == 0.0
    assert summary.fraction_above_threshold == 0.0


def test_summary_fields():
    records = [record(0, "solver", iters=4),
               record(1, "model", eps=0.005),
               record(2, "model", eps=0.02),
               record(3, "solver", iters=2)]
    summary = summarize(records, threshold=0.01)
    assert summary.avoided_solves_fraction == 0.5
    assert summary.fraction_above_threshold == 0.25
    assert summary.max_eps_inf == 0.02
    assert summary.mean_solver_iterations == 3.0
    assert summary.median_eps_inf == float(np.median([0.0, 0.005, 0.02, 0.0]))
    # two steps of each kind: 1 ms per solver step, 0.1 ms per model step
    assert summary.wall_time_solver == pytest.approx(2 * 0.001)
    assert summary.wall_time_model == pytest.approx(2 * 0.0001)


def test_empty_records_rejected():
    with pytest.raises(ReportError):
        summarize([])


def test_summary_pure_function_of_records():
    records = [record(0, "solver", iters=1), record(1, "model", eps=0.003)]
    assert summarize(records) == summarize(records)


def test_histogram_all_zero():
    hist = histogram(np.zeros(50), bin_width=0.001, clip=0.01)
    assert hist.counts[0] == 50
    assert hist.counts[1:].sum() == 0
    assert hist.clipped_count == 0


def test_histogram_clipping():
    hist = histogram(np.array([0.5, 1.5]), bin_width=0.1, clip=1.0)
    assert hist.counts.sum() == 1
    assert hist.clipped_count == 1


def test_histogram_counts_conserved():
    rng = np.random.default_rng(0)
    errors = rng.exponential(0.005, 1000)
    hist = histogram(errors, bin_width=0.0005, clip=0.01)
    assert hist.counts.sum() + hist.clipped_count == 1000
    assert hist.clipped_count == int(np.sum(errors >= 0.01))


def test_histogram_validation():
    with pytest.raises(ReportError):
        histogram(np.array([0.1]), bin_width=0.0, clip=1.0)
    with pytest.raises(ReportError):
        histogram(np.array([-0.1]), bin_width=0.1, clip=1.0)


def test_write_summary_and_histogram(tmp_path):
    records = [record(0, "solver", iters=2), record(1, "model", eps=0.003)]
    summary = summarize(records)
    write_summary(summary, tmp_path / "s.json")
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["avoided_solves_fraction"] == 0.5
    assert "median_eps_inf" in doc

    hist = histogram(step_errors(records), bin_width=0.001, clip=0.01)
    write_histogram(hist, tmp_path / "h.csv")
    with open(tmp_path / "h.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["bin_lo", "bin_hi", "count"]
    assert rows[-1][0] == "clipped"
    assert sum(int(row[2]) for row in rows[1:]) == summary.n_steps  # bins and clipped row
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "s.json"]

    text = format_summary(summary)
    assert "avoided solves" in text


def test_stamp_columns_match_per_row_formatting(tmp_path):
    # a leap day, a year end, the epoch and stamps held in other units
    stamps = [np.datetime64("2024-02-28T23:55:00", "s"), np.datetime64("2024-02-29", "D"),
              np.datetime64("2024-12-31T23:59:59", "s"), np.datetime64("1970-01-01T00:00", "m"),
              np.datetime64("2031-07-04T12:30:15", "ms")]
    per_row = [np.datetime_as_string(t, unit="s") + "Z" for t in stamps]
    assert format_timestamps(stamps) == per_row
    records = [StepRecord(timestamp=t, decision="model", triggering_check=None,
                          model_eps_inf_vs_truth=0.0) for t in stamps]
    write_records(records, tmp_path / "records.csv")
    with open(tmp_path / "records.csv", newline="") as f:
        assert [row[0] for row in list(csv.reader(f))[1:]] == per_row


def test_records_read_back_carry_no_wall_time(tmp_path):
    records = [record(0, "solver", iters=2), record(1, "model", eps=0.003),
               record(2, "model", eps=0.001)]
    write_records(records, tmp_path / "records.csv")
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == format_timestamps(
        [r.timestamp for r in records])
    loaded = read_records(tmp_path / "records.csv")
    assert [r.wall_time for r in loaded] == [None] * 3
    summary = summarize(loaded)
    assert summary.wall_time_solver is None and summary.wall_time_model is None
    assert summary.avoided_solves_fraction == summarize(records).avoided_solves_fraction
    text = format_summary(summary)
    assert "solver wall time:         not recorded" in text
    assert "model wall time:          not recorded" in text
    assert "model wall time:          0.000 s" in format_summary(summarize(records))


@pytest.mark.parametrize("row", [
    "2024-01-01T00:05:00Z,modle,,0.001,",
    "2024-01-01T00:05:00Z,,,0.001,",
    "2024-01-01T00:05:00Z,model,bogus_check,0.001,",
    "2024-01-01T00:05:00Z,model,error_stale,0.001,",
    "2024-01-01T00:05:00Z,model,,0.001,3",
    "2024-01-01T00:05:00Z,solver,bogus_check,0,3",
    "2024-01-01T00:05:00Z,solver,model,0,3",
    "2024-01-01T00:05:00Z,model,,nan,",
    "2024-01-01T00:05:00Z,model,,-inf,",
    "2024-01-01T00:05:00Z,model,,inf,",
    "2024-01-01T00:05:00Z,solver,error_stale,-0.001,3",
    "2024-01-01T00:05:00Z,solver,error_stale,0,-3",
], ids=["decision_misspelt", "decision_empty", "model_bogus_check", "model_with_check",
        "model_with_iterations", "solver_bogus_check", "solver_check_model", "error_nan",
        "error_minus_inf", "error_inf", "error_negative", "iterations_negative"])
def test_malformed_record_names_its_line(tmp_path, row):
    path = tmp_path / "records.csv"
    path.write_text("timestamp,decision,triggering_check,eps_inf,solver_iterations\r\n"
                    "2024-01-01T00:00:00Z,solver,forced_first,0,3\r\n" + row + "\r\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: malformed record "):
        read_records(path)


@pytest.mark.parametrize("check", ["", "forced_first", "distance", "step_change",
                                   "error_stale", "error_high"])
def test_solver_record_checks_read_back(tmp_path, check):
    path = tmp_path / "records.csv"
    path.write_text("timestamp,decision,triggering_check,eps_inf,solver_iterations\r\n"
                    f"2024-01-01T00:00:00Z,solver,{check},0,3\r\n"
                    "2024-01-01T00:05:00Z,model,,0.001,\r\n")
    solver, model = read_records(path)
    assert (solver.decision, solver.triggering_check, solver.solver_iterations) \
        == ("solver", check or None, 3)
    assert (model.decision, model.triggering_check, model.solver_iterations) \
        == ("model", None, None)
