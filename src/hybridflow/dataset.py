"""Dataset persistence and chronological splitting.

Canonical interchange format: a single CSV with header
``timestamp,p_0..p_{np-1},q_0..q_{np-1},v_0..v_{nv-1},a_0..a_{nv-1}``,
ISO-8601 UTC timestamps, per-unit values and radians printed with 17
significant digits (lossless float round-trip).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .loadgen import LoadSeries


class DatasetError(ValueError):
    """Raised for malformed dataset files or invalid split specs."""


@dataclass
class Dataset:
    timestamps: np.ndarray   # datetime64[s]
    inputs: np.ndarray       # [T, 2*n_p] stacked (p, q)
    outputs_v: np.ndarray    # [T, n_v]
    outputs_a: np.ndarray    # [T, n_v]

    @property
    def n_steps(self) -> int:
        return len(self.timestamps)

    @property
    def n_loads(self) -> int:
        return self.inputs.shape[1] // 2

    @property
    def n_voltages(self) -> int:
        return self.outputs_v.shape[1]

    def __post_init__(self):
        T = len(self.timestamps)
        for name in ("inputs", "outputs_v", "outputs_a"):
            arr = getattr(self, name)
            if arr.shape[0] != T:
                raise DatasetError(f"{name} has {arr.shape[0]} rows, expected {T}")
        if self.outputs_a.shape != self.outputs_v.shape:
            raise DatasetError("outputs_v and outputs_a shapes differ")
        if T > 1:
            deltas = np.diff(self.timestamps.astype("datetime64[s]").astype(np.int64))
            if (deltas <= 0).any():
                raise DatasetError("timestamps not strictly increasing")
            if (deltas != deltas[0]).any():
                raise DatasetError("timestamps not uniformly spaced")

    @property
    def step_seconds(self) -> int:
        if self.n_steps < 2:
            raise DatasetError("cannot infer resolution from fewer than 2 rows")
        t = self.timestamps.astype("datetime64[s]").astype(np.int64)
        return int(t[1] - t[0])

    @property
    def steps_per_day(self) -> int:
        step = self.step_seconds
        if 86400 % step != 0:
            raise DatasetError(f"step of {step} s does not divide one day")
        return 86400 // step

    def rows(self, lo: int, hi: int) -> "Dataset":
        return Dataset(self.timestamps[lo:hi], self.inputs[lo:hi],
                       self.outputs_v[lo:hi], self.outputs_a[lo:hi])

    def series(self) -> LoadSeries:
        """The load columns as a LoadSeries (views, not copies)."""
        n_p = self.n_loads
        return LoadSeries(timestamps=self.timestamps, P=self.inputs[:, :n_p],
                          Q=self.inputs[:, n_p:])

    @classmethod
    def from_solutions(cls, series: LoadSeries, solutions) -> "Dataset":
        """Loads plus the solved voltage magnitude and angle of each step."""
        return cls(timestamps=series.timestamps,
                   inputs=np.hstack([series.P, series.Q]),
                   outputs_v=np.array([s.v for s in solutions]),
                   outputs_a=np.array([s.a for s in solutions]))


@dataclass(frozen=True)
class SplitSpec:
    drop_days: int = 3
    train_days: int = 7
    test_days: int = 18

    def __post_init__(self):
        if self.drop_days < 0 or self.test_days < 0:
            raise DatasetError("drop_days and test_days must be >= 0")
        if self.train_days < 1:
            raise DatasetError("train_days must be >= 1")


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Chronological [drop][train][test] partition, no shuffling."""
    per_day = dataset.steps_per_day
    need = (spec.drop_days + spec.train_days + spec.test_days) * per_day
    if need > dataset.n_steps:
        raise DatasetError(f"split needs {need} rows "
                           f"({spec.drop_days}+{spec.train_days}+{spec.test_days} days), "
                           f"dataset has {dataset.n_steps}")
    a = spec.drop_days * per_day
    b = a + spec.train_days * per_day
    c = b + spec.test_days * per_day
    if spec.test_days == 0:
        warnings.warn("split produced an empty test set", stacklevel=2)
    return dataset.rows(a, b), dataset.rows(b, c)


def format_timestamp(t: np.datetime64) -> str:
    """ISO-8601 UTC to the second, as written in every CSV: 2024-01-01T00:05:00Z."""
    return np.datetime_as_string(t, unit="s") + "Z"


def parse_timestamp(text: str) -> np.datetime64:
    """Inverse of format_timestamp; raises ValueError on a malformed stamp."""
    stamp = np.datetime64(text.rstrip("Z"), "s")
    if np.isnat(stamp):  # numpy reads an empty cell or 'NaT' as not-a-time
        raise ValueError(f"not a timestamp: {text!r}")
    return stamp


def write_csv(dataset: Dataset, path) -> None:
    n_p, n_v = dataset.n_loads, dataset.n_voltages
    header = (["timestamp"]
              + [f"p_{i}" for i in range(n_p)] + [f"q_{i}" for i in range(n_p)]
              + [f"v_{i}" for i in range(n_v)] + [f"a_{i}" for i in range(n_v)])
    # the csv module's excel dialect (\r\n line ends); no cell needs quoting
    row = "%sZ" + ",%.17g" * (len(header) - 1) + "\r\n"
    stamps = np.datetime_as_string(dataset.timestamps, unit="s").tolist()
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for stamp, x, v, a in zip(stamps, dataset.inputs, dataset.outputs_v,
                                  dataset.outputs_a):
            f.write(row % (stamp, *x.tolist(), *v.tolist(), *a.tolist()))


def read_csv(path) -> Dataset:
    """Read a dataset CSV in one pass; every error names the file line.

    A generator checks each data row's cell count and timestamp as
    `np.loadtxt` pulls it and hands on the rest of the line, whose numbers
    the C parser converts. That parser converts each row before it pulls
    the next, so a conversion error belongs to the generator's current line.
    """
    with open(path, newline="") as f:
        try:
            header = next(csv.reader(f))
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        n_p, n_v = _parse_header(path, header)
        width = 1 + 2 * (n_p + n_v)
        stamps = []
        lineno = 1

        def values():
            nonlocal lineno
            for lineno, line in enumerate(f, start=2):
                cells = line.count(",") + 1 if line.strip("\r\n") else 0
                if cells != width:
                    raise DatasetError(f"{path}:{lineno}: expected {width} columns, "
                                       f"got {cells}")
                stamp, _, rest = line.partition(",")
                if len(stamp) > 1 and stamp[0] == stamp[-1] == '"':
                    stamp = stamp[1:-1]
                try:
                    stamps.append(parse_timestamp(stamp))
                except ValueError:
                    raise DatasetError(f"{path}:{lineno}: bad timestamp {stamp!r}") from None
                yield rest

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a header-only file is "no data"
                data = np.loadtxt(values(), delimiter=",", quotechar='"',
                                  comments=None, ndmin=2)
        except DatasetError:
            raise
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: non-numeric value") from None
    if not stamps:
        raise DatasetError(f"{path}: no data rows")
    # data row t is file line t + 2
    finite = np.isfinite(data)
    if not finite.all():
        t, k = np.argwhere(~finite)[0]  # the first bad row, then its first bad column
        raise DatasetError(f"{path}:{t + 2}: non-finite value in column "
                           f"{header[1 + k]!r}")
    ts = np.array(stamps, dtype="datetime64[s]")
    not_increasing = np.diff(ts.astype(np.int64)) <= 0
    if not_increasing.any():  # the later row of pair t is line t + 3
        raise DatasetError(f"{path}:{int(not_increasing.argmax()) + 3}: "
                           f"non-monotone timestamp")
    return Dataset(
        timestamps=ts,
        inputs=data[:, :2 * n_p],
        outputs_v=data[:, 2 * n_p:2 * n_p + n_v],
        outputs_a=data[:, 2 * n_p + n_v:],
    )


def _parse_header(path, header: list[str]) -> tuple[int, int]:
    if not header or header[0] != "timestamp":
        raise DatasetError(f"{path}: header must start with 'timestamp'")
    counts = {"p": 0, "q": 0, "v": 0, "a": 0}
    for pos, col in enumerate(header[1:]):
        prefix, _, idx = col.partition("_")
        if prefix not in counts or not idx.isdigit():
            raise DatasetError(f"{path}: unexpected column {col!r}")
        counts[prefix] += 1
    expected = (["p_%d" % i for i in range(counts["p"])]
                + ["q_%d" % i for i in range(counts["q"])]
                + ["v_%d" % i for i in range(counts["v"])]
                + ["a_%d" % i for i in range(counts["a"])])
    if header[1:] != expected:
        raise DatasetError(f"{path}: columns out of canonical p,q,v,a order")
    if counts["p"] != counts["q"] or counts["v"] != counts["a"]:
        raise DatasetError(f"{path}: p/q or v/a column counts differ: {counts}")
    if counts["p"] == 0 or counts["v"] == 0:
        raise DatasetError(f"{path}: missing load or voltage columns")
    return counts["p"], counts["v"]
