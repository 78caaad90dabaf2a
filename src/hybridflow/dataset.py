"""Dataset persistence and chronological splitting.

Canonical interchange format: a single CSV with header
``timestamp,p_0..p_{np-1},q_0..q_{np-1},v_0..v_{nv-1},a_0..a_{nv-1}``,
ISO-8601 UTC timestamps, per-unit values and radians printed with 17
significant digits (lossless float round-trip).

`write_csv` also writes an archive of the same arrays beside the CSV,
bound to the CSV's bytes by their sha256; `read_csv` takes the arrays from
it while that digest matches and parses the CSV otherwise.
"""

from __future__ import annotations

import csv
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .loadgen import LoadSeries


ARCHIVE_FORMAT = "hybridflow-dataset"
ARCHIVE_VERSION = 1
ARCHIVE_ARRAYS = ("timestamps", "inputs", "outputs_v", "outputs_a")


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
    """Write the CSV, then its archive at `path` + ".npz" (see module doc)."""
    n_p, n_v = dataset.n_loads, dataset.n_voltages
    header = (["timestamp"]
              + [f"p_{i}" for i in range(n_p)] + [f"q_{i}" for i in range(n_p)]
              + [f"v_{i}" for i in range(n_v)] + [f"a_{i}" for i in range(n_v)])
    # the csv module's excel dialect (\r\n line ends); no cell needs quoting
    row = "%sZ" + ",%.17g" * (len(header) - 1) + "\r\n"
    ts = dataset.timestamps.astype("datetime64[s]")
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for stamp, x, v, a in zip(np.datetime_as_string(ts, unit="s").tolist(),
                                  dataset.inputs, dataset.outputs_v, dataset.outputs_a):
            f.write(row % (stamp, *x.tolist(), *v.tolist(), *a.tolist()))
    # a handle, since np.savez appends .npz to a name; float64, as the parse reads it
    with open(_archive_path(path), "wb") as f:
        np.savez(f, format=np.array(ARCHIVE_FORMAT), version=np.array(ARCHIVE_VERSION),
                 csv_sha256=np.array(_sha256(path)), timestamps=ts.astype(np.int64),
                 **{name: np.asarray(getattr(dataset, name), dtype=np.float64)
                    for name in ARCHIVE_ARRAYS[1:]})


def read_csv(path) -> Dataset:
    """Read a dataset CSV, from its archive while the archive's digest
    matches the CSV; every error names the file line.

    The parse is one pass: a generator checks each data row's cell count
    and timestamp as `np.loadtxt` pulls it and hands on the rest of the
    line, whose numbers the C parser converts. That parser converts each
    row before it pulls the next, so a conversion error belongs to the
    generator's current line.
    """
    with open(path, newline="") as f:
        try:
            header = next(csv.reader(f))
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        n_p, n_v = _parse_header(path, header)
        archived = _read_archive(path)
        if archived is not None:
            return _checked(path, header, *archived)
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
    return _checked(path, header, np.array(stamps, dtype="datetime64[s]"),
                    data[:, :2 * n_p], data[:, 2 * n_p:2 * n_p + n_v],
                    data[:, 2 * n_p + n_v:])


def _checked(path, header: list[str], ts, inputs, outputs_v, outputs_a) -> Dataset:
    """The checks both sources pass; data row t is file line t + 2."""
    if not len(ts):
        raise DatasetError(f"{path}: no data rows")
    nat = np.isnat(ts)  # never parsed, but write_csv writes a not-a-time as 'NaTZ'
    if nat.any():
        t = int(nat.argmax())
        raise DatasetError(f"{path}:{t + 2}: bad timestamp {format_timestamp(ts[t])!r}")
    blocks = (inputs, outputs_v, outputs_a)
    if not all(np.isfinite(block).all() for block in blocks):
        # the first bad row, then its first bad column
        t, k = np.argwhere(~np.isfinite(np.hstack(blocks)))[0]
        raise DatasetError(f"{path}:{t + 2}: non-finite value in column "
                           f"{header[1 + k]!r}")
    not_increasing = np.diff(ts.astype(np.int64)) <= 0
    if not_increasing.any():  # the later row of pair t is line t + 3
        raise DatasetError(f"{path}:{int(not_increasing.argmax()) + 3}: "
                           f"non-monotone timestamp")
    return Dataset(timestamps=ts, inputs=inputs, outputs_v=outputs_v, outputs_a=outputs_a)


def _archive_path(path) -> str:
    return str(path) + ".npz"


def _sha256(path) -> str:
    import hashlib  # here: loading OpenSSL adds ~5 ms to every CLI start

    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_archive(path) -> tuple | None:
    """The arrays of the archive beside `path`, or None unless that archive
    is readable, of this format and version, and written with the bytes
    the CSV has now. A miss only means the CSV is parsed."""
    try:
        with open(_archive_path(path), "rb") as f:
            if f.read(4) != b"PK\x03\x04":  # the zip magic that opens every .npz
                return None
            f.seek(0)
            with np.load(f, allow_pickle=False) as archive:
                if (archive["format"].tolist() != ARCHIVE_FORMAT
                        or archive["version"].tolist() != ARCHIVE_VERSION
                        or archive["csv_sha256"].tolist() != _sha256(path)):
                    return None
                ts, *values = (archive[name] for name in ARCHIVE_ARRAYS)
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return (ts.astype("datetime64[s]"), *values)


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
