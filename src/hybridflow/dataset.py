"""Dataset persistence and chronological splitting.

`write_csv` writes a dataset as a CSV with header
``timestamp,p_0..p_{np-1},q_0..q_{np-1},v_0..v_{nv-1},a_0..a_{nv-1}``,
ISO-8601 UTC timestamps, per-unit values and radians printed as
`'%+.16e' % x` (17 significant digits, a lossless float round-trip),
which it builds in numpy a block of rows at a time; then, beside the
CSV, an archive of the same arrays bound to the CSV's bytes by their
sha256.

`read_csv` reads the archive only: the CSV is a write-only export, and
reading checks only that its digest still matches. An edited CSV (cited
by its first edited line), or an absent or damaged archive, is an error
naming the file, with no fallback. `write_archive` and `read_archive`
are the one `.npz` codec, which the surrogate model file shares.
"""

from __future__ import annotations

import itertools
import warnings
import zipfile
from dataclasses import dataclass

import numpy as np

from .loadgen import LoadSeries


ARCHIVE_FORMAT = "hybridflow-dataset"
ARCHIVE_VERSION = 1
ARCHIVE_ARRAYS = ("timestamps", "inputs", "outputs_v", "outputs_a")
# cells `write_csv` formats at once: bounds its temporaries whatever the row
# width, yet holds several wide rows (10 of radial200's 798-cell rows)
BLOCK_CELLS = 1 << 13


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
    def steps_per_day(self) -> int:
        """Steps per day, from the first step; the others equal it."""
        if self.n_steps < 2:
            raise DatasetError("cannot infer resolution from fewer than 2 rows")
        step = int((self.timestamps[1] - self.timestamps[0]) / np.timedelta64(1, "s"))
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


def format_timestamps(stamps) -> list[str]:
    """Each stamp in ISO-8601 UTC to the second, as written in every CSV
    (2024-01-01T00:05:00Z), by one numpy call for them all."""
    text = np.datetime_as_string(np.asarray(stamps, dtype="datetime64[s]"), unit="s")
    return np.char.add(text, "Z").tolist()


def parse_timestamp(text: str) -> np.datetime64:
    """Inverse of format_timestamps for one stamp; raises ValueError on a malformed stamp."""
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

    ts = dataset.timestamps.astype("datetime64[s]")
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for chunk in _csv_chunks(ts, dataset.inputs, dataset.outputs_v, dataset.outputs_a):
            digest.update(chunk)
            f.write(chunk)
    # float64, as `read_csv` requires
    write_archive(_archive_path(path), ARCHIVE_FORMAT, ARCHIVE_VERSION,
                  csv_sha256=np.array(digest.hexdigest()), timestamps=ts.astype(np.int64),
                  **{name: np.asarray(getattr(dataset, name), dtype=np.float64)
                     for name in ARCHIVE_ARRAYS[1:]})


def write_archive(path, kind: str, version: int, **arrays) -> None:
    """An uncompressed .npz archive at exactly `path`: 0-d `format` (`kind`)
    and `version` entries, then `arrays` in order. numpy stamps every entry
    with one fixed date, so the same arrays give the same bytes."""
    with open(path, "wb") as f:  # a handle: numpy appends .npz to a name
        np.savez(f, format=np.array(kind), version=np.array(version), **arrays)


def read_archive(path, kind: str, version: int, names, error, fix: str) -> list:
    """The arrays `names` of the `write_archive` archive at `path`, which
    must be of format `kind` and `version`. Every failure raises `error`
    with one line naming the file and ending in `; fix`."""
    try:
        with open(path, "rb") as f:
            if f.read(4) != b"PK\x03\x04":  # the zip magic that opens every .npz
                raise zipfile.BadZipFile("File is not a zip file")
            f.seek(0)
            with np.load(f, allow_pickle=False) as npz:
                entries = dict(npz)
    except FileNotFoundError as exc:
        raise error(f"{exc.filename}: no such file; {fix}") from None
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise error(f"{path}: unreadable archive ({' '.join(str(exc).split())}); "
                    f"{fix}") from None
    for name in ("format", "version", *names):
        if name not in entries:
            raise error(f"{path}: missing entry {name!r}; {fix}")
    found = entries["format"].tolist(), entries["version"].tolist()
    if found != (kind, version):
        raise error(f"{path}: {found[0]!r} version {found[1]!r}, not "
                    f"{kind!r} version {version}; {fix}")
    return [entries[name] for name in names]


def _csv_chunks(ts, inputs, outputs_v, outputs_a):
    """The CSV's bytes, in chunks: the header line, then each block's lines."""
    header = _header(inputs.shape[1] // 2, outputs_v.shape[1])
    # the csv module's excel dialect (\r\n line ends); no cell needs quoting
    row = "%sZ" + ",%+.16e" * (len(header) - 1) + "\r\n"
    stamps = np.datetime_as_string(ts, unit="s")
    blocks = (inputs, outputs_v, outputs_a)
    block_rows = max(1, BLOCK_CELLS // (len(header) - 1))
    cells = _CellFormatter()
    yield (",".join(header) + "\r\n").encode()
    for lo in range(0, len(stamps), block_rows):
        x = np.concatenate([b[lo:lo + block_rows] for b in blocks], axis=1,
                           dtype=np.float64)
        lines, fast = cells.lines(stamps[lo:lo + block_rows], x)
        start = 0
        for t in np.flatnonzero(~fast).tolist():
            yield lines[start:t]
            yield (row % (stamps[lo + t], *x[t].tolist())).encode()
            start = t + 1
        yield lines[start:]


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
    """The dataset `write_csv` wrote at `path`, read from its archive.

    The archive must be of this format and version and hold the sha256 of
    the CSV as it is on disk now. Every failure is one DatasetError naming
    the file; an error in the values, or an edit to the CSV, names its CSV
    line.
    """
    return _checked(path, *_read_archive(path))


def _read_archive(path) -> list:
    """The timestamps and value arrays of the archive beside `path`."""
    archive = _archive_path(path)
    rerun = "rerun generate"
    csv_sha256, *arrays = read_archive(archive, ARCHIVE_FORMAT, ARCHIVE_VERSION,
                                       ("csv_sha256", *ARCHIVE_ARRAYS), DatasetError, rerun)
    ts, inputs, outputs_v, outputs_a = arrays
    if not (ts.ndim == 1 and ts.dtype == np.int64
            and all(a.ndim == 2 and len(a) == len(ts) and a.dtype == np.float64
                    for a in arrays[1:])
            and inputs.shape[1] % 2 == 0 and outputs_v.shape == outputs_a.shape):
        shapes = ", ".join(f"{name} {a.dtype}{list(a.shape)}"
                           for name, a in zip(ARCHIVE_ARRAYS, arrays))
        raise DatasetError(f"{archive}: arrays {shapes} do not form a dataset; {rerun}")
    arrays = [ts.astype("datetime64[s]"), inputs, outputs_v, outputs_a]
    try:
        digest = _sha256(path)
    except FileNotFoundError:
        raise DatasetError(f"{path}: no such file; {rerun}") from None
    if csv_sha256.tolist() != digest:
        line = _first_edited_line(path, arrays)
        raise DatasetError(f"{path}{f':{line}' if line else ''}: sha256 does not match its "
                           f"archive (CSV edited, or archive of another file); {rerun}")
    return arrays


def _first_edited_line(path, arrays) -> int | None:
    """The first line of the CSV at `path` whose text differs from the CSV
    `write_csv` writes for the arrays, line ends aside; None if none does."""
    with open(path, "rb") as f:
        on_disk = f.read().splitlines()
    written = b"".join(_csv_chunks(*arrays)).splitlines()
    pairs = enumerate(itertools.zip_longest(on_disk, written), start=1)
    return next((n for n, (a, b) in pairs if a != b), None)


def _checked(path, ts, inputs, outputs_v, outputs_a) -> Dataset:
    """The arrays as a Dataset once their values pass; data row t is CSV line t + 2."""
    if not len(ts):
        raise DatasetError(f"{path}: no data rows")
    nat = np.isnat(ts)  # write_csv writes a not-a-time as 'NaTZ'
    if nat.any():
        t = int(nat.argmax())
        raise DatasetError(f"{path}:{t + 2}: bad timestamp {format_timestamps(ts[t:t + 1])[0]!r}")
    blocks = (inputs, outputs_v, outputs_a)
    if not all(np.isfinite(block).all() for block in blocks):
        # the first bad row, then its first bad column
        t, k = np.argwhere(~np.isfinite(np.hstack(blocks)))[0]
        column = _header(inputs.shape[1] // 2, outputs_v.shape[1])[1 + k]
        raise DatasetError(f"{path}:{t + 2}: non-finite value in column {column!r}")
    deltas = np.diff(ts.astype(np.int64))
    for bad, problem in ((deltas <= 0, "non-monotone timestamp"),
                         (deltas != deltas[:1], "timestamps not uniformly spaced")):
        if bad.any():  # the later row of pair t is line t + 3
            raise DatasetError(f"{path}:{int(bad.argmax()) + 3}: {problem}")
    return Dataset(timestamps=ts, inputs=inputs, outputs_v=outputs_v, outputs_a=outputs_a)


def _header(n_p: int, n_v: int) -> list[str]:
    """The CSV's column names: timestamp, then p, q, v and a by index."""
    return ["timestamp"] + [f"{name}_{i}" for name, n in (("p", n_p), ("q", n_p),
                                                          ("v", n_v), ("a", n_v))
                            for i in range(n)]


def _archive_path(path) -> str:
    return str(path) + ".npz"


def _sha256(path) -> str:
    import hashlib  # here: loading OpenSSL adds ~5 ms to every CLI start

    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
