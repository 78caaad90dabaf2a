import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hybridflow import surrogate as sg
from hybridflow.dataset import (BLOCK_CELLS, Dataset, DatasetError, SplitSpec,
                                read_csv, split, write_csv)
from hybridflow.surrogate import SurrogateError
from tests.oracles import write_csv_rowwise


def make_data(T=96, n_p=2, n_v=3, seed=0, step_minutes=15):
    rng = np.random.default_rng(seed)
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(T) * np.timedelta64(step_minutes * 60, "s"))
    return Dataset(timestamps=ts,
                   inputs=rng.standard_normal((T, 2 * n_p)),
                   outputs_v=1.0 + 0.01 * rng.standard_normal((T, n_v)),
                   outputs_a=0.01 * rng.standard_normal((T, n_v)))


def archive_of(path) -> Path:
    return Path(str(path) + ".npz")


def written(data, path):
    write_csv(data, path)
    return path


def test_split_default_structure():
    data = make_data(T=28 * 96)
    train, test = split(data, SplitSpec(drop_days=3, train_days=7, test_days=18))
    per_day = 96
    assert train.n_steps == 7 * per_day
    assert test.n_steps == 18 * per_day
    assert np.array_equal(train.timestamps, data.timestamps[3 * per_day:10 * per_day])
    assert np.array_equal(test.timestamps, data.timestamps[10 * per_day:28 * per_day])


def test_split_is_a_partition():
    data = make_data(T=10 * 96)
    spec = SplitSpec(drop_days=2, train_days=5, test_days=3)
    train, test = split(data, spec)
    rebuilt = np.vstack([data.inputs[:2 * 96], train.inputs, test.inputs])
    assert np.array_equal(rebuilt, data.inputs)


def test_split_empty_test_warns():
    data = make_data(T=5 * 96)
    with pytest.warns(UserWarning, match="empty test set"):
        train, test = split(data, SplitSpec(drop_days=0, train_days=5, test_days=0))
    assert test.n_steps == 0
    assert train.n_steps == data.n_steps


def test_split_too_short():
    data = make_data(T=5 * 96)
    with pytest.raises(DatasetError, match="needs"):
        split(data, SplitSpec(drop_days=3, train_days=7, test_days=18))


def test_steps_per_day_needs_a_step_that_divides_a_day():
    assert make_data(step_minutes=15).steps_per_day == 96
    with pytest.raises(DatasetError, match="step of 420 s does not divide one day"):
        make_data(step_minutes=7).steps_per_day
    with pytest.raises(DatasetError, match="fewer than 2 rows"):
        make_data(T=1).steps_per_day


def test_round_trip_identity(tmp_path):
    data = make_data(T=50, seed=3)
    loaded = read_csv(written(data, tmp_path / "d.csv"))
    assert np.array_equal(loaded.timestamps, data.timestamps)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.outputs_v, data.outputs_v)
    assert np.array_equal(loaded.outputs_a, data.outputs_a)


def test_round_trip_write_read_write_identical_bytes(tmp_path):
    data = make_data(T=30, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(read_csv(written(data, p1)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_minimal_two_row_file(tmp_path):
    data = make_data(T=2, n_p=1, n_v=1, step_minutes=5)
    data.inputs[1, 0] = 0.2
    path = written(data, tmp_path / "min.csv")
    assert path.read_text().splitlines()[0] == "timestamp,p_0,q_0,v_0,a_0"
    loaded = read_csv(path)
    assert loaded.n_steps == 2
    assert loaded.n_loads == 1
    assert loaded.inputs[1, 0] == 0.2


def test_nan_value_cites_row(tmp_path):
    data = make_data(T=6, n_p=1, n_v=1, step_minutes=5)
    data.inputs[3, 1] = np.nan
    with pytest.raises(DatasetError, match=r"nan\.csv:5.*q_0"):
        read_csv(written(data, tmp_path / "nan.csv"))


def test_non_monotone_timestamps_rejected(tmp_path):
    data = make_data(T=2, n_p=1, n_v=1, step_minutes=5)
    data.timestamps[:] = data.timestamps[::-1].copy()
    with pytest.raises(DatasetError, match="monotone"):
        read_csv(written(data, tmp_path / "mono.csv"))


def test_generated_dataset_round_trip(tmp_path, small_dataset):
    loaded = read_csv(written(small_dataset, tmp_path / "gen.csv"))
    assert np.array_equal(loaded.inputs, small_dataset.inputs)
    assert np.array_equal(loaded.outputs_v, small_dataset.outputs_v)
    assert np.array_equal(loaded.outputs_a, small_dataset.outputs_a)


@hyp_settings(max_examples=20, deadline=None)
@given(T=st.integers(2, 12), n_p=st.integers(1, 3), n_v=st.integers(1, 4),
       seed=st.integers(0, 1000))
def test_round_trip_property(tmp_path_factory, T, n_p, n_v, seed):
    data = make_data(T=T, n_p=n_p, n_v=n_v, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    loaded = read_csv(written(data, path))
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.outputs_v, data.outputs_v)
    assert np.array_equal(loaded.outputs_a, data.outputs_a)
    assert np.array_equal(loaded.timestamps, data.timestamps)


def dataset_bytes(data):
    """A dataset's arrays as their bytes, with dtype and shape."""
    return [(a.dtype, a.shape, a.tobytes()) for a in
            (data.timestamps, data.inputs, data.outputs_v, data.outputs_a)]


def _set(data, array, index, value):
    getattr(data, array)[index] = value
    return data


def _nat(data):
    data.timestamps[:] = np.datetime64("NaT")
    return data


@pytest.mark.parametrize("edit, outcome", [
    (lambda d: d, None),
    (lambda d: _set(d, "outputs_v", (3, 1), np.nan),
     "d.csv:5: non-finite value in column 'v_1'"),
    (lambda d: _set(_set(_set(d, "outputs_a", (2, 0), np.nan), "inputs", (2, 3), -np.inf),
                    "outputs_v", (4, 0), np.inf),
     "d.csv:4: non-finite value in column 'q_1'"),
    (lambda d: _set(d, "inputs", (slice(None), 0), -0.0), None),
    (lambda d: _set(_set(d, "outputs_a", (0, 0), 5e-324), "inputs", (1, 2), -2.2e-310), None),
    (lambda d: d.rows(0, 1), None),
    (lambda d: d.rows(0, 0), "d.csv: no data rows"),
    (lambda d: _nat(d.rows(0, 1)), "d.csv:2: bad timestamp 'NaTZ'"),
    (lambda d: _set(d, "timestamps", 3, d.timestamps[2]), "d.csv:5: non-monotone timestamp"),
    (lambda d: _set(d, "timestamps", 3, d.timestamps[3] + np.timedelta64(1, "s")),
     "d.csv:5: timestamps not uniformly spaced"),
    (lambda d: Dataset(d.timestamps.astype("datetime64[ms]"), d.inputs.astype(np.float32),
                       d.outputs_v, d.outputs_a), None),
], ids=["plain", "nan", "first_bad_column_of_first_bad_row", "negative_zero", "subnormal",
        "one_row", "no_rows", "not_a_time", "repeated_stamp", "uneven_steps", "float32_ms"])
def test_archive_and_parse_agree_on_written_files(tmp_path, edit, outcome):
    """Every file `write_csv` writes reads back from its archive: the written
    arrays to the byte, as float64 values and whole-second stamps, or one
    error that cites the CSV line."""
    path = tmp_path / "d.csv"
    data = edit(make_data(T=6, n_p=2, n_v=3, seed=7))
    write_csv(data, path)
    if outcome is None:
        expected = Dataset(data.timestamps.astype("datetime64[s]"),
                           *(np.asarray(a, dtype=np.float64)
                             for a in (data.inputs, data.outputs_v, data.outputs_a)))
        assert dataset_bytes(read_csv(path)) == dataset_bytes(expected)
    else:
        with pytest.raises(DatasetError) as info:
            read_csv(path)
        assert str(info.value).endswith(outcome)


def test_archive_is_byte_identical_on_rewrite(tmp_path):
    data = make_data(T=20, seed=5)
    first = archive_of(written(data, tmp_path / "a.csv")).read_bytes()
    assert archive_of(written(data, tmp_path / "a.csv")).read_bytes() == first
    assert archive_of(written(data, tmp_path / "b.csv")).read_bytes() == first


STALE = "sha256 does not match its archive (CSV edited, or archive of another file)"


def stale_file(tmp_path):
    """A written file with a unique cell, 0.125 at data row 1 (line 3)."""
    data = make_data(T=6)
    data.inputs[1, 0] = 0.125
    path = written(data, tmp_path / "d.csv")
    assert path.read_text().count(",+1.2500000000000000e-01,") == 1
    return path


def test_edited_cell_of_the_same_length_is_one_line_error(tmp_path):
    path = stale_file(tmp_path)
    path.write_text(path.read_text().replace(",+1.2500000000000000e-01,",
                                            ",+3.7500000000000000e-01,"))
    with pytest.raises(DatasetError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:3: {STALE}; rerun generate"


def test_edited_bad_cell_cites_its_line(tmp_path):
    path = stale_file(tmp_path)
    path.write_text(path.read_text().replace(",+1.2500000000000000e-01,",
                                            ",+1.2x00000000000000e-01,"))
    with pytest.raises(DatasetError) as info:
        read_csv(path)
    assert str(info.value) == f"{path}:3: {STALE}; rerun generate"


@pytest.mark.parametrize("cell, column", [
    ("2024-01-01T00:61:00Z", 0),
    ("0.1x", 2),
    ('"0,1"', 2),
], ids=["bad_timestamp", "non_numeric", "quoted_comma"])
def test_bad_cell_cites_line(tmp_path, cell, column):
    """A cell edited into a written file is cited by its line."""
    path = written(make_data(T=4, n_p=1, n_v=1, step_minutes=5), tmp_path / "bad.csv")
    lines = path.read_bytes().decode().split("\r\n")
    cells = lines[3].split(",")
    cells[column] = cell
    lines[3] = ",".join(cells)
    path.write_bytes("\r\n".join(lines).encode())
    with pytest.raises(DatasetError, match=rf"bad\.csv:4: {re.escape(STALE)}; rerun generate$"):
        read_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = written(make_data(T=2, n_p=1, n_v=1), tmp_path / "ragged.csv")
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:lines[1].rindex(",")] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(DatasetError, match=r"ragged\.csv:2: "):
        read_csv(path)


def test_bad_header_rejected(tmp_path):
    path = written(make_data(T=2, n_p=1, n_v=1), tmp_path / "hdr.csv")
    path.write_bytes(path.read_bytes().replace(b"timestamp,", b"time,", 1))
    with pytest.raises(DatasetError, match=r"hdr\.csv:1: "):
        read_csv(path)


def test_non_numeric_cell_deep_in_a_long_file_cites_its_line(tmp_path):
    """The first line that differs from what the archive writes is found
    55,000 rows into a 60,000-row file."""
    path = written(make_data(T=60_000, n_p=1, n_v=1, step_minutes=1), tmp_path / "long.csv")
    lines = path.read_bytes().split(b"\r\n")
    lines[54_999] = lines[54_999].replace(b"e", b"x", 1)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DatasetError, match=r"long\.csv:55000: "):
        read_csv(path)


def test_archive_of_another_file_is_not_used(tmp_path):
    other = written(make_data(T=6, seed=1), tmp_path / "other.csv")
    path = written(make_data(T=6, seed=2), tmp_path / "d.csv")
    shutil.copyfile(archive_of(other), archive_of(path))
    with pytest.raises(DatasetError, match=rf"d\.csv:2: {re.escape(STALE)}"):
        read_csv(path)


def test_written_file_is_read_from_its_archive(tmp_path):
    """The values come from the archive; the CSV is only hashed."""
    data = make_data(T=8)
    path = written(data, tmp_path / "d.csv")
    _rewrite_archive(path, inputs=data.inputs + 1.0)
    assert np.array_equal(read_csv(path).inputs, data.inputs + 1.0)


def _rewrite(archive, **changes):
    """Rewrite the .npz `archive` with entries changed (None drops one)."""
    with np.load(archive) as npz:
        entries = {name: npz[name] for name in npz.files}
    entries.update(changes)
    with open(archive, "wb") as f:
        np.savez(f, **{k: v for k, v in entries.items() if v is not None})


def _rewrite_archive(path, **changes):
    """`_rewrite` of the archive beside `path`; the CSV digest in it still matches."""
    _rewrite(archive_of(path), **changes)


UNREADABLE = r"d\.csv\.npz: unreadable archive \(File is not a zip file\); rerun generate"


@pytest.mark.parametrize("damage, message", [
    (lambda path: archive_of(path).unlink(), r"d\.csv\.npz: no such file; rerun generate"),
    (lambda path: archive_of(path).write_bytes(b""), UNREADABLE),
    (lambda path: archive_of(path).write_bytes(b"timestamp,p_0\n"), UNREADABLE),
    (lambda path: archive_of(path).write_bytes(archive_of(path).read_bytes()[:100]),
     UNREADABLE),
    (lambda path: _rewrite_archive(path, csv_sha256=None),
     r"d\.csv\.npz: missing entry 'csv_sha256'; rerun generate"),
    (lambda path: _rewrite_archive(path, outputs_a=None),
     r"d\.csv\.npz: missing entry 'outputs_a'; rerun generate"),
    (lambda path: _rewrite_archive(path, version=np.array(2)),
     r"d\.csv\.npz: 'hybridflow-dataset' version 2, not 'hybridflow-dataset' version 1; "
     r"rerun generate"),
    (lambda path: _rewrite_archive(path, format=np.array("hybridflow-surrogate")),
     r"d\.csv\.npz: 'hybridflow-surrogate' version 1, not 'hybridflow-dataset' version 1; "
     r"rerun generate"),
    (lambda path: _rewrite_archive(path, csv_sha256=np.array("0" * 64)),
     r"d\.csv: " + re.escape(STALE) + "; rerun generate"),
    (lambda path: _rewrite_archive(path, inputs=np.zeros(6)),
     r"d\.csv\.npz: arrays .*inputs float64\[6\], .* do not form a dataset; rerun generate"),
    (lambda path: _rewrite_archive(path, inputs=np.zeros((6, 3))),
     r"d\.csv\.npz: arrays .*inputs float64\[6, 3\], .* do not form a dataset; "
     r"rerun generate"),
], ids=["absent", "empty", "not_a_zip", "truncated", "no_digest", "no_outputs_a", "version_2",
        "other_format", "other_digest", "inputs_1d", "odd_input_width"])
def test_damaged_archive_is_one_line_error(tmp_path, damage, message):
    path = written(make_data(T=6), tmp_path / "d.csv")
    damage(path)
    with pytest.raises(DatasetError) as info:
        read_csv(path)
    assert re.fullmatch(re.escape(f"{tmp_path}/") + message, str(info.value))


def _dataset_reader(tmp_path):
    path = written(make_data(), tmp_path / "d.csv")
    return path, archive_of(path), read_csv, DatasetError, "rerun generate"


def _model_reader(tmp_path):
    path = tmp_path / "m.npz"
    sg.save(sg.train(make_data(), method=sg.KMEANS, n_c=1), path)
    return path, path, sg.load, SurrogateError, "retrain"


@pytest.mark.parametrize("damage, problem", [
    (lambda a: a.unlink(), "no such file"),
    (lambda a: a.write_bytes(b""), r"unreadable archive \(File is not a zip file\)"),
    (lambda a: a.write_bytes(b'{"format": "x"}'),
     r"unreadable archive \(File is not a zip file\)"),
    (lambda a: a.write_bytes(a.read_bytes()[:100]), r"unreadable archive \(.+\)"),
    (lambda a: _rewrite(a, format=np.array("other")),
     r"'other' version \d+, not 'hybridflow-\w+' version \d+"),
    (lambda a: _rewrite(a, version=np.array(99)),
     r"'hybridflow-\w+' version 99, not 'hybridflow-\w+' version \d+"),
    (lambda a: _rewrite(a, version=None), "missing entry 'version'"),
], ids=["absent", "empty", "not_a_zip", "truncated", "other_format", "other_version",
        "missing_entry"])
@pytest.mark.parametrize("reader", [_dataset_reader, _model_reader], ids=["dataset", "model"])
def test_archive_failure_is_one_line_naming_the_file_and_its_fix(tmp_path, reader, damage,
                                                                 problem):
    """`read_csv` and `surrogate.load` share one archive reader: each
    failure is one line that names the archive and ends in its fix."""
    path, archive, read, error, fix = reader(tmp_path)
    damage(archive)
    with pytest.raises(error) as info:
        read(path)
    assert re.fullmatch(re.escape(f"{archive}: ") + problem + re.escape(f"; {fix}"),
                        str(info.value))


# ---- the writer against the row-at-a-time reference writer ----------------

def dataset_of(values, n_p=1) -> Dataset:
    """A dataset whose rows are `values` ([T, 2*n_p + 2*n_v]), 5 min apart."""
    values = np.asarray(values)
    n_v = (values.shape[1] - 2 * n_p) // 2
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(len(values)) * np.timedelta64(300, "s"))
    return Dataset(timestamps=ts, inputs=values[:, :2 * n_p],
                   outputs_v=values[:, 2 * n_p:2 * n_p + n_v],
                   outputs_a=values[:, 2 * n_p + n_v:])


def assert_writes_like_oracle(data, tmp_path):
    write_csv(data, tmp_path / "fast.csv")
    write_csv_rowwise(data, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def block_rows(width: int) -> int:
    return max(1, BLOCK_CELLS // width)


# any pattern, and patterns whose exponent field is near the formatter's
# range (1e-6 is 2**-19.9, 1e16 is 2**53.2)
BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.tuples(st.integers(0, 1), st.integers(1023 - 21, 1023 + 54), st.integers(0, 2 ** 52 - 1))
    .map(lambda f: f[0] << 63 | f[1] << 52 | f[2]))


@hyp_settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 5), bits=st.lists(BITS, min_size=20, max_size=20))
def test_writer_matches_oracle_on_any_bits(tmp_path_factory, rows, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64).reshape(5, 4)[:rows]
    assert_writes_like_oracle(dataset_of(values), tmp_path_factory.mktemp("bits"))


def _near(x: float, steps: int = 2) -> list[float]:
    """x and its `steps` neighbours on each side."""
    out = [x]
    down = up = x
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [float(down), float(up)]
    return out


EDGE_VALUES = (
    [0.0, -0.0, 0.1, 0.125, 1.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     np.inf, np.nan, 1234567890123456.25, 1234567890123456.75]
    + _near(1e-6) + _near(1e16)
    + [y for k in range(-6, 16) for y in _near(float(f"1e{k}"), 1)]
    # these doubles lie just below their power of ten and print as it
    + [float(f"1e{k}") for k in (-14, -70, 98)])


def test_writer_matches_oracle_on_edge_values(tmp_path):
    rows = []
    for x in EDGE_VALUES:  # each value among ordinary cells, and negated
        rows.append([x, 0.5, 1.0, -0.25])
        rows.append([0.5, -x, 1.0, x])
    assert_writes_like_oracle(dataset_of(rows), tmp_path)


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)],
                         ids=["0", "1", "block-1", "block", "block+1"])
def test_writer_matches_oracle_at_block_edges(tmp_path, blocks, extra):
    """A non-finite row sits on each side of the first block's end."""
    block = block_rows(4)
    values = np.random.default_rng(blocks).standard_normal((blocks * block + extra, 4))
    values[block - 1:block + 1, 2] = np.nan
    assert_writes_like_oracle(dataset_of(values), tmp_path)


def test_writer_matches_oracle_on_798_wide_rows(tmp_path):
    data = make_data(T=2 * block_rows(798) + 3, n_p=199, n_v=200, seed=11)
    data.outputs_a[5, 17] = np.inf
    assert_writes_like_oracle(data, tmp_path)


def test_writer_matches_oracle_on_float32_and_ms_stamps(tmp_path):
    data = make_data(T=40, seed=12)
    data = Dataset(data.timestamps.astype("datetime64[ms]") + np.timedelta64(250, "ms"),
                   data.inputs.astype(np.float32), data.outputs_v.astype(np.float32),
                   data.outputs_a)
    assert_writes_like_oracle(data, tmp_path)


def test_values_read_back_bit_for_bit_by_loadtxt(tmp_path):
    """Read as the benchmark reads the CSV: every value has the same bits."""
    rng = np.random.default_rng(13)
    values = rng.standard_normal((60, 10)) * 10.0 ** rng.integers(-9, 18, (60, 10))
    finite = [x for x in EDGE_VALUES if np.isfinite(x)]
    values.flat[:len(finite)] = finite
    path = written(dataset_of(values, n_p=2), tmp_path / "d.csv")
    parsed = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 11), ndmin=2)
    assert np.array_equal(parsed.view(np.uint64), values.view(np.uint64))


def test_writer_matches_oracle_on_stamps_of_other_lengths(tmp_path):
    values = np.random.default_rng(14).standard_normal((3, 4))
    stamps = np.array(["9999-12-31T23:55:00", "10000-01-01T00:00:00", "10000-01-01T00:05:00"],
                      dtype="datetime64[s]")
    for ts in (stamps, np.array(["NaT"], dtype="datetime64[s]")):
        data = dataset_of(values[:len(ts)])
        assert_writes_like_oracle(Dataset(ts, data.inputs, data.outputs_v, data.outputs_a),
                                  tmp_path)
