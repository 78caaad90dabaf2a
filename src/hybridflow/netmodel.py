"""Balanced per-unit network model and admittance matrix construction.

Buses are indexed 0..n_bus-1 with exactly one slack bus. Lines are
pi-model branches with series impedance and optional shunt susceptance.
All quantities are per-unit on a 1.0 pu voltage base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import yaml

SLACK = "slack"
PQ = "pq"


class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader, on libyaml's parser when the installed PyYAML has it
    (about 7x faster), that refuses a mapping repeating a key."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        # the entries a `<<` merge key brings in may be overridden, so it is skipped
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and not key_node.tag.endswith(":merge"):
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


class NetworkValidationError(ValueError):
    """Raised for malformed network element data (e.g. zero impedance)."""


class NetworkStructureError(ValueError):
    """Raised for structural defects such as a disconnected graph."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str = PQ  # "slack" or "pq"
    load_attachment: int | None = None  # index into the load vector, or None


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    resistance: float
    reactance: float
    shunt_susceptance: float = 0.0

    @property
    def series_impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


@dataclass
class Network:
    buses: list[Bus]
    lines: list[Line]
    Y: np.ndarray = field(repr=False)
    name: str = "network"

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @cached_property
    def slack_index(self) -> int:
        for bus in self.buses:
            if bus.kind == SLACK:
                return bus.id
        raise NetworkStructureError("network has no slack bus")

    @cached_property
    def pq_indices(self) -> np.ndarray:
        return _frozen([b.id for b in self.buses if b.kind == PQ])

    @cached_property
    def Y_pq(self) -> np.ndarray:
        """Y over the pq rows and columns, the block the Jacobian is built from."""
        block = self.Y[np.ix_(self.pq_indices, self.pq_indices)]
        block.setflags(write=False)
        return block

    @cached_property
    def Y_pq_rows(self) -> np.ndarray:
        """Y's pq rows: `Y_pq_rows @ V` is the pq buses' currents."""
        rows = self.Y[self.pq_indices]
        rows.setflags(write=False)
        return rows

    @cached_property
    def load_buses(self) -> np.ndarray:
        """Bus indices ordered by their position in the load vector."""
        attached = sorted((b.load_attachment, b.id) for b in self.buses
                          if b.load_attachment is not None)
        return _frozen([bus_id for _, bus_id in attached])

    @cached_property
    def pq_target_index(self) -> np.ndarray:
        """Indices into the stacked [p, q, 0] of length 2*n_loads + 1 that
        give [p, q] at the pq buses: a pq bus with no load reads the 0, and
        a load on the slack bus is left out (the slack takes it up)."""
        load_of = {bus: k for k, bus in enumerate(self.load_buses.tolist())}
        zero = 2 * self.n_loads
        p_index = [load_of.get(bus, zero) for bus in self.pq_indices.tolist()]
        return _frozen(p_index + [zero if k == zero else self.n_loads + k
                                  for k in p_index])

    @property
    def n_loads(self) -> int:
        return len(self.load_buses)


def _frozen(ids: list[int]) -> np.ndarray:
    arr = np.array(ids, dtype=int)
    arr.setflags(write=False)
    return arr


def build_admittance(buses: list[Bus], lines: list[Line]) -> np.ndarray:
    """Build the complex bus admittance matrix from pi-model lines.

    Off-diagonals get -1/z per branch; diagonals accumulate 1/z plus half
    the branch shunt susceptance. Raises if any line has zero impedance,
    references an invalid bus, or the resulting graph is disconnected.
    """
    n = len(buses)
    ids = sorted(b.id for b in buses)
    if ids != list(range(n)):
        raise NetworkValidationError(f"bus ids must be 0..{n - 1}, got {ids}")

    Y = np.zeros((n, n), dtype=complex)
    for k, line in enumerate(lines):
        i, j = line.from_bus, line.to_bus
        if not (0 <= i < n and 0 <= j < n):
            raise NetworkValidationError(f"line {k} references missing bus ({i}, {j})")
        if i == j:
            raise NetworkValidationError(f"line {k} is a self-loop at bus {i}")
        z = line.series_impedance
        if abs(z) == 0.0:
            raise NetworkValidationError(f"line {k} ({i}-{j}) has zero impedance")
        y = 1.0 / z
        Y[i, j] -= y
        Y[j, i] -= y
        Y[i, i] += y + 0.5j * line.shunt_susceptance
        Y[j, j] += y + 0.5j * line.shunt_susceptance

    if n == 0 or len(_reachable(n, lines)) != n:
        raise NetworkStructureError("line graph is not connected")
    return Y


def _reachable(n_bus: int, lines: list[Line]) -> set[int]:
    """Buses reachable from bus 0 over the lines (bus 0 included)."""
    adjacency: list[list[int]] = [[] for _ in range(n_bus)]
    for line in lines:
        adjacency[line.from_bus].append(line.to_bus)
        adjacency[line.to_bus].append(line.from_bus)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def make_network(buses: list[Bus], lines: list[Line], name: str = "network") -> Network:
    """Validate elements, build Y, and assemble an immutable Network.

    Besides what `build_admittance` checks, raises unless there is one
    slack bus, every bus kind is known and the load attachments are
    0..n_loads-1.
    """
    Y = build_admittance(buses, lines)
    slacks = [b.id for b in buses if b.kind == SLACK]
    if len(slacks) != 1:
        raise NetworkValidationError(f"expected exactly one slack bus, found {slacks}")
    for bus in buses:
        if bus.kind not in (SLACK, PQ):
            raise NetworkValidationError(f"bus {bus.id} has unknown kind {bus.kind!r}")
    attachments = sorted(b.load_attachment for b in buses if b.load_attachment is not None)
    if attachments != list(range(len(attachments))):
        raise NetworkValidationError(f"load attachments not contiguous "
                                     f"0..{len(attachments) - 1}: {attachments}")
    Y.setflags(write=False)
    return Network(buses=buses, lines=lines, Y=Y, name=name)


def read_yaml(path, error: type[Exception] = NetworkValidationError):
    """The YAML document in `path`; a syntax error or a repeated key raises
    `error` naming the file."""
    with open(path) as f:
        try:
            return yaml.load(f, Loader=Loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = path if mark is None else f"{path}:{mark.line + 1}"
            problem = " ".join(str(exc).split()) if mark is None else exc.problem
            raise error(f"{where}: invalid YAML: {problem}") from None


def load_network(path) -> Network:
    """Read a network definition file (YAML schema, see docs/formats)."""
    raw = read_yaml(path)
    if not isinstance(raw, dict) or "buses" not in raw or "lines" not in raw:
        raise NetworkValidationError(f"{path}: expected mapping with 'buses' and 'lines'")
    try:
        buses = [
            Bus(
                id=int(entry["id"]),
                kind=str(entry.get("kind", PQ)),
                load_attachment=(None if entry.get("load") is None else int(entry["load"])),
            )
            for entry in raw["buses"]
        ]
        lines = [
            Line(
                from_bus=int(entry["from"]),
                to_bus=int(entry["to"]),
                resistance=float(entry.get("r", 0.0)),
                reactance=float(entry.get("x", 0.0)),
                shunt_susceptance=float(entry.get("b", 0.0)),
            )
            for entry in raw["lines"]
        ]
        return make_network(buses, lines, name=str(raw.get("name", "network")))
    except KeyError as exc:
        raise NetworkValidationError(f"{path}: a bus or line has no {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # a bad value or element
        raise NetworkValidationError(f"{path}: {exc}") from None


def save_network(network: Network, path) -> None:
    doc = {
        "name": network.name,
        "buses": [
            {"id": b.id, "kind": b.kind,
             **({"load": b.load_attachment} if b.load_attachment is not None else {})}
            for b in network.buses
        ],
        "lines": [
            {"from": ln.from_bus, "to": ln.to_bus, "r": ln.resistance,
             "x": ln.reactance, "b": ln.shunt_susceptance}
            for ln in network.lines
        ],
    }
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=False)
