"""Run configuration file: one YAML document wiring every stage together.

See docs/formats.md and configs/full_study.yaml for the schema. All
randomness is funneled through the seeds declared here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .dataset import SplitSpec
from .hybrid import HybridConfig
from .loadgen import LoadProfileSpec, default_modes
from .netmodel import Loader, Network, load_network
from .solver import SolverSettings


class ConfigError(ValueError):
    """Raised for malformed run configuration files."""


@dataclass
class SurrogateSettings:
    method: str = "kmeans"
    n_clusters: int = 7
    seed: int = 0
    intercept: bool = True
    standardize: bool = True
    model_file: str = "surrogate.json"


@dataclass
class RunConfig:
    network_path: str
    dataset_path: str
    load_spec: LoadProfileSpec | None
    split: SplitSpec
    surrogate: SurrogateSettings
    hybrid: HybridConfig
    solver: SolverSettings
    output_dir: str
    base_dir: Path = field(default_factory=Path)

    def resolve(self, path: str) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p

    def load_network(self) -> Network:
        return load_bundled_or_path(self.resolve(self.network_path))

    @property
    def out(self) -> Path:
        out = self.resolve(self.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out


def load_bundled_or_path(path) -> Network:
    """Resolve a network by filesystem path or bundled name (net4, feeder30)."""
    p = Path(path)
    if p.exists():
        return load_network(p)
    bundled = resources.files("hybridflow") / "networks" / f"{p.name}.yaml"
    if p.suffix == "" and bundled.is_file():
        return load_network(bundled)
    raise ConfigError(f"network file not found: {path}")


def _keys(schema) -> set[str]:
    return {f.name for f in fields(schema)}


def _section(raw: dict, key: str, allowed: set[str]) -> dict:
    """The mapping under `key`; only the `allowed` key names are accepted,
    so a removed or misspelt key is not ignored."""
    value = raw.get(key, {})
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {key!r} must be a mapping")
    unknown = set(value) - allowed
    if unknown:
        raise ConfigError(f"unknown key in section {key!r}: "
                          f"{', '.join(sorted(map(str, unknown)))}")
    return value


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    path = Path(path)
    with open(path) as f:
        raw = yaml.load(f, Loader=Loader)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    if "network" not in raw:
        raise ConfigError(f"{path}: missing required key 'network'")

    # the modes come from default_modes(base_level), not from the file
    ls = _section(raw, "load_spec", _keys(LoadProfileSpec) - {"modes"} | {"base_level"})
    load_spec = None
    if ls:
        base_level = float(ls.get("base_level", 0.01))
        load_spec = LoadProfileSpec(
            n_loads=int(ls["n_loads"]),
            resolution_minutes=int(ls.get("resolution_minutes", 5)),
            duration_days=int(ls.get("duration_days", 28)),
            modes=default_modes(base_level),
            noise_scale=float(ls.get("noise_scale", 0.02)),
            seed=int(ls.get("seed", 12345)),
            min_power_factor=float(ls.get("min_power_factor", 0.90)),
            start=np.datetime64(ls.get("start", "2024-01-01T00:00:00")),
        )
        if seed_override is not None:
            load_spec.seed = seed_override

    sp = _section(raw, "split", _keys(SplitSpec))
    split = SplitSpec(drop_days=int(sp.get("drop_days", 3)),
                      train_days=int(sp.get("train_days", 7)),
                      test_days=int(sp.get("test_days", 18)))

    sg = _section(raw, "surrogate", _keys(SurrogateSettings))
    surrogate = SurrogateSettings(
        method=str(sg.get("method", "kmeans")),
        n_clusters=int(sg.get("n_clusters", 7)),
        seed=(seed_override if seed_override is not None else int(sg.get("seed", 0))),
        intercept=bool(sg.get("intercept", True)),
        standardize=bool(sg.get("standardize", True)),
        model_file=str(sg.get("model_file", "surrogate.json")),
    )

    hy = _section(raw, "hybrid", _keys(HybridConfig))
    dpt = hy.get("distance_percentile_threshold", None)
    sct = hy.get("step_change_threshold", 0.20)
    hybrid = HybridConfig(
        error_check_threshold=float(hy.get("error_check_threshold", 0.01)),
        max_check_interval=int(hy.get("max_check_interval", 12)),
        distance_percentile_threshold=(None if dpt is None else float(dpt)),
        step_change_threshold=(None if sct is None else float(sct)),
    )

    so = _section(raw, "solver", _keys(SolverSettings))
    solver = SolverSettings(
        mismatch_tolerance=float(so.get("mismatch_tolerance", 1e-8)),
        max_iterations=int(so.get("max_iterations", 50)),
        warm_start=bool(so.get("warm_start", True)),
    )

    dataset_path = str(raw.get("dataset", "dataset.csv"))
    if out_override is not None:
        # redirect relative run products into the overridden directory
        if not Path(dataset_path).is_absolute():
            dataset_path = str(Path(out_override) / Path(dataset_path).name)
        if not Path(surrogate.model_file).is_absolute():
            surrogate.model_file = str(Path(out_override)
                                       / Path(surrogate.model_file).name)

    return RunConfig(
        network_path=str(raw["network"]),
        dataset_path=dataset_path,
        load_spec=load_spec,
        split=split,
        surrogate=surrogate,
        hybrid=hybrid,
        solver=solver,
        output_dir=(out_override if out_override is not None
                    else str(raw.get("output_dir", "out"))),
        base_dir=path.parent,
    )
