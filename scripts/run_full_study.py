#!/usr/bin/env python3
"""Full desk-scale experiment: generate the 28-day dataset, train the
7-cluster surrogate, run the hybrid simulation and a pure-solver
baseline, then sweep the error-check grid on the calibration days.

    python3 scripts/run_full_study.py [--out OUT_DIR]

Products land in OUT_DIR (default `out/` next to the config): dataset,
model, step records, summary, error histogram, and sweep tables.
"""

import argparse
import sys
import time
from pathlib import Path

from hybridflow import dataset as ds
from hybridflow import surrogate as sg
from hybridflow import tuning
from hybridflow.cli import main as cli_main
from hybridflow.config import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "full_study.yaml"


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    base = ["--config", str(CONFIG)]
    if args.out:
        base += ["--out", args.out]

    config = load_config(CONFIG, out_override=args.out)
    # pure-solver baseline first: `simulate` overwrites solutions/records
    for stage in (["generate"], ["train"],
                  ["simulate", "--pure-solver"], ["simulate"],
                  ["report", "--records", str(config.out / "records.csv")]):
        t0 = time.perf_counter()
        if cli_main(base + stage) != 0:
            return 1
        print(f"[{stage[0]}] {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    network = config.load_network()
    data = ds.read_csv(config.resolve(config.dataset_path))
    _, test_set = ds.split(data, config.split)
    model = sg.load(config.resolve(config.surrogate.model_file))

    spec = tuning.SweepSpec(parameter=tuning.ERROR_GRID,
                            values=[1e-4, 1e-3, 1e-2, 1e-1],
                            values2=[2, 6, 12, 24],
                            base_config=config.hybrid)
    results = tuning.sweep(spec, model, network, test_set.series(), data.steps_per_day,
                           config.solver)
    tuning.write_sweep(results, config.out / "sweep_error_grid.csv")
    best = tuning.recommend(results, max_error_budget=0.01)
    if best is not None:
        print(f"recommended: threshold={best.value:g} interval={best.value2:g} "
              f"(model fraction {best.model_fraction:.1%}, "
              f"q50 error {best.q50:.2e})")
    return 0


if __name__ == "__main__":
    sys.exit(run())
