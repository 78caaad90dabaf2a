#!/usr/bin/env python3
"""hybridflow benchmark: one workload, one process, one stage at a time.

Run from the root of a hybridflow checkout:

    python3 bench/run.py --workload feeder30_study --seed 1 --seconds 38 --trace 0

Each stage runs in-process as `hybridflow.cli.main([...])`, closed loop.
The whole stage sequence runs once and its outputs are checked. Until
`--seconds` (counted from process start) is used up, single stages are
then run again, always the one with the least measured time so far
among those whose slowest sample still fits, so the short, noisy stages
get the most samples. A stage's time is the median of its samples and
`study_s` is the sum of those medians. After every stage run a fresh
process times the set-up; `setup_s` is the fastest of these samples.

`--trace 1` instead runs the sequence three times: untraced (warm-up),
traced, untraced; it reports the per-layer metrics of the traced one and
the traced minus the last untraced time as the tracing overhead.

Metric names and units come from BENCHMARK.json. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the info fields. The full record of the run
(samples, checks, info, and in trace mode the spans) is written under
.bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# products of `simulate` and `tune` that the checks read; `simulate
# --pure-solver` overwrites the first two, so they are kept aside
CHECKED_FILES = ("records.csv", "solutions.csv", "summary.json")
# kept free at the end of the budget for the report and the clean-up
FINISH_RESERVE_S = 1.0


def stage_name(stage: list[str]) -> str:
    return "pure_solver" if "--pure-solver" in stage else stage[0]


class Runner:
    """Runs one prepared workload's stages and keeps every stage's samples."""

    def __init__(self, workload, cli_main, checks, setup_probe=None):
        self.wl = workload
        self.cli_main = cli_main
        self.checks = checks
        self.setup_probe = setup_probe
        self.setup_samples: list[float] = []
        self.probe_wall = 0.0
        self.tracer = None
        self.stages = {stage_name(s): s for s in workload.stages}
        self.samples: dict[str, list[float]] = {name: [] for name in self.stages}
        self.stage_runs: list[tuple[str, bool]] = []
        self.decision_hashes: list[str] = []

    def run_stage(self, name: str) -> float:
        if self.tracer is not None:
            self.tracer.stage = name
        captured = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                if name == "generate" and self.wl.generate is not None:
                    rc = self.wl.generate()
                else:
                    rc = self.cli_main(self.wl.argv(self.stages[name]))
        except Exception:
            rc = None
            captured.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        self.stage_runs.append((name, rc == 0))
        if rc != 0:
            sys.stderr.write(f"stage {name} failed (rc={rc}):\n{captured.getvalue()}\n")
        elif name == "simulate":
            records = self.wl.config_path.parent / "records.csv"
            self.decision_hashes.append(self.checks.decisions_sha256(records))
        self.samples[name].append(elapsed)
        if self.setup_probe is not None:
            # one set-up sample after every stage spreads them over the run
            t0 = time.perf_counter()
            self.setup_samples.append(self.setup_probe())
            self.probe_wall = max(self.probe_wall, time.perf_counter() - t0)
        return elapsed

    def run_sequence(self) -> dict[str, float]:
        times = {name: self.run_stage(name) for name in self.stages}
        times["study"] = sum(times.values())
        return times

    def fill(self, deadline: float) -> None:
        """Re-run single stages while one, at its slowest so far and with
        the slowest set-up probe after it, still ends before the deadline."""
        while True:
            room = deadline - FINISH_RESERVE_S - self.probe_wall - time.perf_counter()
            fits = [n for n, s in self.samples.items() if max(s) <= room]
            if not fits:
                return
            self.run_stage(min(fits, key=lambda n: sum(self.samples[n])))


def setup_seconds(src: Path, config_path: Path) -> float:
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src),
                           str(config_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((src / "hybridflow").rglob("*.py")))


def declared_metrics(root: Path) -> tuple[dict, dict]:
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the committed study")
    parser.add_argument("--seconds", type=int, default=38,
                        help="time budget of the run, counted from process start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    # One BLAS thread: with OpenBLAS's default of one per core, a process's
    # first lstsq calls sometimes stall ~0.3 s each on a 2-vCPU VM, which
    # swung `train` between 1.2 and 2.4 s. Set before numpy is imported;
    # the setup probes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    root = Path.cwd()
    src = root / "src"
    needed = [src / "hybridflow" / "__init__.py", root / "configs" / "full_study.yaml",
              root / "BENCHMARK.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the root of a hybridflow checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hybridflow
    if Path(hybridflow.__file__).resolve().parent != (src / "hybridflow").resolve():
        print(f"error: imported hybridflow from {hybridflow.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import numpy as np
    from hybridflow import cli
    from hybridflow.config import load_config

    import checks
    import layertrace
    import workloads

    args = parse_args(argv)
    e2e_units, layer_units = declared_metrics(root)
    workdir = root / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    keep = workdir / "checked"
    outdir = root / ".bench_out"
    keep.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    try:
        wl = workloads.prepare(args.workload, args.seed, root, workdir)
        config = load_config(wl.config_path)
        network = config.load_network()
        probe = None if args.trace else (lambda: setup_seconds(src, wl.config_path))
        runner = Runner(wl, cli.main, checks, probe)
        tune = wl.stages[-1]
        sweep_name = f"sweep_{tune[tune.index('--parameter') + 1]}.csv"

        if args.trace:
            runner.run_sequence()  # warm-up: the first sequence of a process is slower
            tracer = layertrace.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced = runner.run_sequence()
            finally:
                tracer.uninstall()
                runner.tracer = None
            untraced = runner.run_sequence()
        else:
            runner.run_sequence()
            # after one full sequence: later re-runs of single stages only
            # add allocator fragmentation that depends on their order
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for name in CHECKED_FILES + (sweep_name,):
            shutil.copy(config.out / name, keep / name)

        per_day = 1440 // config.load_spec.resolution_minutes
        test_lo = (config.split.drop_days + config.split.train_days) * per_day
        test_hi = test_lo + config.split.test_days * per_day
        results, facts = checks.check_outputs(config, network, test_lo, test_hi, keep)
        grid = (len(tune[tune.index("--values") + 1].split(","))
                * len(tune[tune.index("--values2") + 1].split(",")))
        results.append(checks.check_sweep(keep / sweep_name, grid))
        if not args.trace:
            runner.fill(t_start + args.seconds)
        results += [(f"stage_{name}_rc0", ok, "") for name, ok in runner.stage_runs]
        results.append(("decisions_identical_across_repeats",
                        len(set(runner.decision_hashes)) == 1,
                        f"{len(runner.decision_hashes)} simulate runs"))

        median = {name: statistics.median(s) for name, s in runner.samples.items()}
        info = {
            "decisions_sha256": runner.decision_hashes[0] if runner.decision_hashes else None,
            "src_lines": src_lines(src),
            "pure_solver_over_simulate": median["pure_solver"] / median["simulate"],
            **{k: facts.get(k) for k in ("generated_steps", "test_steps",
                                          "model_steps", "solver_steps")},
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "scipy": _version("scipy"),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            **wl.info,
            "stage_samples": {name: len(s) for name, s in runner.samples.items()},
        }
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "samples": runner.samples}

        accuracy = facts.get("summary", {})
        info.update({k: accuracy.get(k) for k in ("max_eps_inf", "median_eps_inf")})
        if args.trace:
            spans = tracer.spans
            metrics = layertrace.layer_metrics(spans)
            for k in ("max_eps_inf", "median_eps_inf"):
                metrics[f"hybrid.{k}"] = accuracy.get(k)
            metrics.update({f"cli.{name}_s": traced[name] for name in runner.stages})
            cal_steps = per_day * _calibration_days(tune)
            expected = {
                "generate": facts.get("generated_steps"),
                "pure_solver": facts.get("test_steps"),
                "simulate": facts.get("solver_steps"),
                "tune": cal_steps + checks.sweep_solver_steps(keep / sweep_name, cal_steps),
            }
            for stage, want in expected.items():
                seen = layertrace.calls(spans, "solver.nr", stage)
                results.append((f"trace_solver_calls_{stage}", seen == want,
                                f"{seen} traced, {want} expected"))
            info["trace_overhead_s"] = traced["study"] - untraced["study"]
            info["trace_samples"] = layertrace.sample_counts(spans)
            info["binding_sites"] = tracer.binding_sites()
            tracer.write(outdir / f"{args.workload}-seed{args.seed}-spans.json.gz")
            units = layer_units
        else:
            info["stage_medians_s"] = median
            metrics = {"setup_s": min(runner.setup_samples),
                       "study_s": sum(median.values()),
                       "avoided_solves_fraction": accuracy.get("avoided_solves_fraction"),
                       "peak_rss_mb": peak_rss_mb}
            record["setup_samples"] = runner.setup_samples
            units = e2e_units

        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"error: run produced no value for {missing}", file=sys.stderr)
            return 1
        failed = [r for r in results if not r[1]]
        for name, _, detail in failed:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        result = {
            "correct": not failed,
            "attempted": len(results),
            "failed": len(failed),
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        record.update(info=info, checks=results, result=result)
        with open(outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
            json.dump(record, f, indent=1, default=str)
        print(json.dumps({"info": info}, default=str))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _calibration_days(tune: list[str]) -> int:
    lo, hi = tune[tune.index("--calibration-days") + 1].split(",")
    return int(hi) - int(lo)


if __name__ == "__main__":
    sys.exit(main())
