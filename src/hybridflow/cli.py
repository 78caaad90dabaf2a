"""Command-line entry point: generate | train | simulate | tune | report."""

from __future__ import annotations

import argparse
import sys

from . import dataset as ds
from . import hybrid, loadgen, report, surrogate as sg, tuning
from .config import ConfigError, RunConfig, load_config
from .netmodel import Network
from .solver import SOLVER


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_generate(config: RunConfig) -> None:
    """Generate loads and solve every timestep, writing the dataset CSV."""
    if config.load_spec is None:
        raise ConfigError("generate requires a load_spec section")
    network = config.load_network()
    series = loadgen.generate(config.load_spec, network)
    solutions = hybrid.run_ground_truth(network, series, config.solver)
    data = ds.Dataset.from_solutions(series, solutions)
    out_path = config.resolve(config.dataset_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    ds.write_csv(data, out_path)
    _progress(f"generate: wrote {data.n_steps} rows to {out_path}")


def cmd_train(config: RunConfig) -> None:
    data = ds.read_csv(config.resolve(config.dataset_path))
    train_set, _ = ds.split(data, config.split)
    model = sg.train(train_set, method=config.surrogate.method,
                     n_c=config.surrogate.n_clusters, seed=config.surrogate.seed,
                     intercept=config.surrogate.intercept,
                     standardize=config.surrogate.standardize)
    model_path = config.resolve(config.surrogate.model_file)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    sg.save(model, model_path)
    _progress(f"train: {model.method} n_c={model.n_c} model written to {model_path}")


def _dataset_and_test_set(config: RunConfig) -> tuple[ds.Dataset, ds.Dataset]:
    if config.split.test_days == 0:  # `split` allows it, for a train-only run
        raise ds.DatasetError("split.test_days is 0: simulate and tune need a test set")
    data = ds.read_csv(config.resolve(config.dataset_path))
    return data, ds.split(data, config.split)[1]


def _load_model(config: RunConfig, network: Network) -> sg.ClusteredSurrogate:
    """The configured model, if it maps `network`'s [P, Q] to its [v, a]."""
    path = config.resolve(config.surrogate.model_file)
    model = sg.load(path)
    shape, want = model.coef.shape[1:], (2 * network.n_bus, 2 * network.n_loads)
    if shape != want:
        raise sg.SurrogateError(f"{path}: model of shape {shape} ([v, a] outputs, [P, Q] "
                                f"inputs) does not fit network {network.name}, which "
                                f"needs {want}; retrain")
    return model


def cmd_simulate(config: RunConfig, pure_solver: bool = False) -> None:
    network = config.load_network()
    _, test_set = _dataset_and_test_set(config)
    series = test_set.series()
    out = config.out

    if pure_solver:
        solutions = hybrid.run_pure_solver(network, series, config.solver)
        # every step is solved and no gate runs, so no check triggered one
        records = [hybrid.StepRecord(timestamp=stamp, decision=SOLVER,
                                     triggering_check=None,
                                     solver_iterations=s.iterations)
                   for stamp, s in zip(series.timestamps, solutions)]
    else:
        model = _load_model(config, network)
        truth = (test_set.outputs_v, test_set.outputs_a)
        solutions, records, summary = hybrid.run_series(model, network, series,
                                                        config.hybrid, config.solver,
                                                        ground_truth=truth)
    ds.write_csv(ds.Dataset.from_solutions(series, solutions), out / "solutions.csv")
    hybrid.write_records(records, out / "records.csv")
    if pure_solver:
        _progress(f"simulate: pure solver, {len(solutions)} steps -> {out}")
    else:
        report.write_summary(summary, out / "summary.json")
        print(report.format_summary(summary))


def cmd_tune(config: RunConfig, parameter: str, values: list[float],
             values2: list[float] | None, calibration_days: tuple[int, int]) -> None:
    spec = tuning.SweepSpec(parameter=parameter, values=values, values2=values2,
                            calibration_days=calibration_days,
                            base_config=config.hybrid)
    network = config.load_network()
    data, test_set = _dataset_and_test_set(config)
    model = _load_model(config, network)
    results = tuning.sweep(spec, model, network, test_set.series(), data.steps_per_day,
                           config.solver)
    out = config.out / f"sweep_{parameter}.csv"
    tuning.write_sweep(results, out)
    _progress(f"tune: {len(results)} grid points -> {out}")


def cmd_report(config: RunConfig, records_path, bin_width: float, clip: float) -> None:
    records = hybrid.read_records(records_path)
    summary = report.summarize(records, threshold=config.hybrid.error_check_threshold)
    out = config.out
    # its own name: `simulate` writes summary.json, with measured wall times
    report.write_summary(summary, out / "report_summary.json")
    errors = report.step_errors(records)
    hist = report.histogram(errors, bin_width=bin_width, clip=clip)
    report.write_histogram(hist, out / "error_histogram.csv")
    print(report.format_summary(summary))


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


# `tune`'s options whose values are comma-separated lists
LIST_OPTIONS = ("--values", "--values2", "--calibration-days")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridflow")
    parser.add_argument("--config", required=True, help="run configuration YAML")
    parser.add_argument("--seed", type=int, default=None,
                        help="override all seeds in the config")
    parser.add_argument("--out", default=None, help="override output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="generate loads and ground-truth dataset")
    sub.add_parser("train", help="train the clustered surrogate")

    p_sim = sub.add_parser("simulate", help="run the hybrid simulation")
    p_sim.add_argument("--pure-solver", action="store_true",
                       help="solve every step (produces ground truth)")

    p_tune = sub.add_parser("tune", help="sweep a gate threshold grid")
    p_tune.add_argument("--parameter", required=True, choices=tuning.PARAMETERS)
    p_tune.add_argument("--values", required=True, type=_float_list,
                        help="comma-separated grid values")
    p_tune.add_argument("--values2", type=_float_list, default=None,
                        help="comma-separated max_check_interval grid (2-D sweep)")
    p_tune.add_argument("--calibration-days", default="0,1",
                        help="day range within the test set, e.g. 0,1")

    p_rep = sub.add_parser("report", help="summarize a records CSV")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--bin-width", type=float, default=0.0005)
    p_rep.add_argument("--clip", type=float, default=0.01)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """`argv` with each comma-list option joined to the value after it by
    "=": argparse reads a value such as "-1,1" as an option and ends in its
    usage error, while joined it reaches the option's own one-line check."""
    out = []
    for arg in argv:
        if out and out[-1] in LIST_OPTIONS:
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    try:
        config = load_config(args.config, seed_override=args.seed,
                             out_override=args.out)
        if args.command == "generate":
            cmd_generate(config)
        elif args.command == "train":
            cmd_train(config)
        elif args.command == "simulate":
            cmd_simulate(config, pure_solver=args.pure_solver)
        elif args.command == "tune":
            try:
                lo, hi = (int(x) for x in args.calibration_days.split(","))
            except ValueError:
                raise ValueError("--calibration-days expects LO,HI") from None
            cmd_tune(config, args.parameter, args.values, args.values2, (lo, hi))
        elif args.command == "report":
            cmd_report(config, args.records, args.bin_width, args.clip)
    # every hybridflow input error derives from ValueError; OSError covers unreadable files
    except (ValueError, OSError, hybrid.SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
