"""Dataset persistence and chronological splitting.

Canonical interchange format: a single CSV with header
``timestamp,p_0..p_{np-1},q_0..q_{np-1},v_0..v_{nv-1},a_0..a_{nv-1}``,
ISO-8601 UTC timestamps, per-unit values and radians printed as
`'%+.16e' % x` (17 significant digits, a lossless float round-trip),
which `write_csv` builds in numpy a block of rows at a time.

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
# cells `write_csv` formats at once: bounds its temporaries whatever the row width
BLOCK_CELLS = 1 << 11


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
    """Write the CSV, then its archive at `path` + ".npz" (see module doc).

    Each value cell is the text of `'%+.16e' % x`. The cells of a block of
    rows are formatted in numpy (`_CellFormatter`); a row holding a value
    outside its range or a stamp other than 19 characters is formatted by
    Python, to the same spec. The digest is taken of the bytes as written.
    """
    import hashlib  # here: loading OpenSSL adds ~5 ms to every CLI start

    n_p, n_v = dataset.n_loads, dataset.n_voltages
    header = (["timestamp"]
              + [f"p_{i}" for i in range(n_p)] + [f"q_{i}" for i in range(n_p)]
              + [f"v_{i}" for i in range(n_v)] + [f"a_{i}" for i in range(n_v)])
    # the csv module's excel dialect (\r\n line ends); no cell needs quoting
    row = "%sZ" + ",%+.16e" * (len(header) - 1) + "\r\n"
    ts = dataset.timestamps.astype("datetime64[s]")
    stamps = np.datetime_as_string(ts, unit="s")
    blocks = (dataset.inputs, dataset.outputs_v, dataset.outputs_a)
    block_rows = max(1, BLOCK_CELLS // (len(header) - 1))
    cells = _CellFormatter()
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        def emit(chunk) -> None:
            digest.update(chunk)
            f.write(chunk)

        emit((",".join(header) + "\r\n").encode())
        for lo in range(0, len(stamps), block_rows):
            x = np.concatenate([b[lo:lo + block_rows] for b in blocks], axis=1,
                               dtype=np.float64)
            lines, fast = cells.lines(stamps[lo:lo + block_rows], x)
            start = 0
            for t in np.flatnonzero(~fast).tolist():
                emit(lines[start:t])
                emit((row % (stamps[lo + t], *x[t].tolist())).encode())
                start = t + 1
            emit(lines[start:])
    # a handle, since np.savez appends .npz to a name; float64, as the parse reads it
    with open(_archive_path(path), "wb") as f:
        np.savez(f, format=np.array(ARCHIVE_FORMAT), version=np.array(ARCHIVE_VERSION),
                 csv_sha256=np.array(digest.hexdigest()), timestamps=ts.astype(np.int64),
                 **{name: np.asarray(getattr(dataset, name), dtype=np.float64)
                    for name in ARCHIVE_ARRAYS[1:]})


class _CellFormatter:
    """Formats float64 cells as `'%+.16e' % x` in numpy, for x = +-0 or
    1e-6 < |x| < 1e16 (the double 1e-6 is below 10**-6).

    With e = floor(log10|x|), the 17 digits are D = round(|x| * 10**(16 - e)),
    ties to even. 10**s is an exact double for 0 <= s <= 22, so Dekker's
    two-product gives |x| * 10**s exactly as hi + lo; then D = hi + rint(lo),
    since hi >= 1e16 > 2**53 is an even integer. e comes from log10 and is
    corrected by one where hi + lo falls outside [1e16, 1e17). D never
    rounds up to 1e17 here: that needs a double within 5e-18 (relative)
    below a power of ten, and none of 1e-5 .. 1e16 has one.

    A cell is six 4-byte words taken from tables: ",+d." for the sign and
    leading digit, four groups of four digits, and "e+XX" for the exponent.
    """

    SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles

    def __init__(self):
        digits = np.arange(10000)
        groups = np.stack([digits // 1000, digits // 100 % 10, digits // 10 % 10,
                           digits % 10], axis=1) + ord("0")
        self.groups = groups.astype(np.uint8).view(np.uint32).ravel()
        self.leads = _words([f",{sign}{d}." for sign in "+-" for d in range(10)])
        self.exponents = _words([f"e{e:+03d}" for e in range(-6, 16)])  # index e + 6
        self.pow10 = np.array([float(10 ** s) for s in range(23)])
        self.pow10_hi, self.pow10_lo = self._split(self.pow10)

    def _split(self, a):
        c = self.SPLIT * a
        hi = c - (c - a)
        return hi, a - hi

    def _scaled(self, a, e):
        """|x| * 10**(16 - e) exactly, as the pair (hi, lo)."""
        s = 16 - e
        b = self.pow10[s]
        hi = a * b
        a_hi, a_lo = self._split(a)
        b_hi, b_lo = self.pow10_hi[s], self.pow10_lo[s]
        lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        return hi, lo

    def lines(self, stamps, x) -> tuple[np.ndarray, np.ndarray]:
        """The block's lines as a [rows, bytes] uint8 array, and which rows
        in it are right: those whose cells are all in range and whose stamp
        has 19 characters."""
        n, k = x.shape
        a = np.abs(x)
        zero = a == 0
        fast = ((a > 1e-6) & (a < 1e16)) | zero  # a NaN compares false
        a[~fast | zero] = 1.0  # any value in range: these cells are overwritten or unused
        e = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.intp)
        hi, lo = self._scaled(a, e)
        shift = (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
                 - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))
        moved = np.flatnonzero(shift)
        if len(moved):
            e.flat[moved] += shift.flat[moved]
            hi.flat[moved], lo.flat[moved] = self._scaled(a.flat[moved], e.flat[moved])
        d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        d[zero] = 0
        e[zero] = 0
        lead, rest = np.divmod(d, 10 ** 16)
        high8, low8 = np.divmod(rest, 10 ** 8)
        words = np.empty((n, k, 6), np.uint32)
        words[..., 0] = self.leads[lead + 10 * np.signbit(x)]
        words[..., 1], words[..., 2] = (self.groups[g] for g in np.divmod(high8, 10 ** 4))
        words[..., 3], words[..., 4] = (self.groups[g] for g in np.divmod(low8, 10 ** 4))
        words[..., 5] = self.exponents[e + 6]
        out = np.empty((n, 20 + 24 * k + 2), np.uint8)
        out[:, :19] = stamps.astype("S19").view(np.uint8).reshape(n, 19)
        out[:, 19] = ord("Z")
        out[:, 20:-2] = words.view(np.uint8).reshape(n, 24 * k)
        out[:, -2:] = (ord("\r"), ord("\n"))
        return out, fast.all(axis=1) & (np.char.str_len(stamps) == 19)


def _words(texts: list[str]) -> np.ndarray:
    """Four-character ASCII texts as uint32 words, in native byte order."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


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
