"""Run configuration file: one YAML document wiring every stage together.

See docs/formats.md and configs/full_study.yaml for the schema. All
randomness is funneled through the seeds declared here.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import get_args, get_type_hints

from .dataset import SplitSpec
from .hybrid import HybridConfig
from .loadgen import LoadProfileSpec
from .netmodel import Network, load_network, read_yaml
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
    model_file: str = "surrogate.npz"

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _section(raw: dict, key: str) -> dict:
    """A copy of the mapping under `key`; an absent or null section is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {key!r} must be a mapping")
    return dict(value)


def _convert(name: str, hint, value):
    """`value` of key `name` as the type `hint` names: null only where the
    hint is `X | None`, a bool only for a bool, and no float for an int."""
    args = get_args(hint)
    if value is None and type(None) in args:
        return None
    kind = args[0] if args else hint
    try:
        if (value is None or (kind is bool) != isinstance(value, bool)
                or kind is int and isinstance(value, float)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}") from None


def _build(schema, key: str, section: dict):
    """`schema(...)` from the mapping of section `key`: the parameters of
    `schema` are the accepted keys, an absent one keeps its default, and
    each value is converted by its annotation."""
    unknown = set(section) - set(inspect.signature(schema).parameters)
    if unknown:
        raise ConfigError(f"unknown key in section {key!r}: "
                          f"{', '.join(sorted(map(str, unknown)))}")
    hints = get_type_hints(schema)
    try:
        return schema(**{name: _convert(name, hints[name], value)
                         for name, value in section.items()})
    except (TypeError, ValueError) as exc:  # a bad value, a missing key, or __post_init__
        raise ConfigError(f"section {key!r}: {exc}") from None


def load_config(path, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    path = Path(path)
    raw = read_yaml(path, ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    if "network" not in raw:
        raise ConfigError(f"{path}: missing required key 'network'")

    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed_override}")
    seed = {} if seed_override is None else {"seed": seed_override}
    ls = _section(raw, "load_spec")
    load_spec = _build(LoadProfileSpec, "load_spec", ls | seed) if ls else None
    split = _build(SplitSpec, "split", _section(raw, "split"))
    surrogate = _build(SurrogateSettings, "surrogate", _section(raw, "surrogate") | seed)
    hybrid = _build(HybridConfig, "hybrid", _section(raw, "hybrid"))
    solver = _build(SolverSettings, "solver", _section(raw, "solver"))

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
