import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hybridflow.dataset import (Dataset, DatasetError, SplitSpec, read_csv,
                                split, write_csv)


def make_data(T=96, n_p=2, n_v=3, seed=0, step_minutes=15):
    rng = np.random.default_rng(seed)
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(T) * np.timedelta64(step_minutes * 60, "s"))
    return Dataset(timestamps=ts,
                   inputs=rng.standard_normal((T, 2 * n_p)),
                   outputs_v=1.0 + 0.01 * rng.standard_normal((T, n_v)),
                   outputs_a=0.01 * rng.standard_normal((T, n_v)))


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


def test_round_trip_identity(tmp_path):
    data = make_data(T=50, seed=3)
    path = tmp_path / "d.csv"
    write_csv(data, path)
    loaded = read_csv(path)
    assert np.array_equal(loaded.timestamps, data.timestamps)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.outputs_v, data.outputs_v)
    assert np.array_equal(loaded.outputs_a, data.outputs_a)


def test_round_trip_write_read_write_identical_bytes(tmp_path):
    data = make_data(T=30, seed=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(data, p1)
    write_csv(read_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_minimal_two_row_file(tmp_path):
    path = tmp_path / "min.csv"
    path.write_text(
        "timestamp,p_0,q_0,v_0,a_0\n"
        "2024-01-01T00:00:00Z,0.1,0.02,0.99,-0.01\n"
        "2024-01-01T00:05:00Z,0.2,0.03,0.98,-0.02\n")
    data = read_csv(path)
    assert data.n_steps == 2
    assert data.n_loads == 1
    assert data.inputs[1, 0] == 0.2


def test_nan_value_cites_row(tmp_path):
    path = tmp_path / "nan.csv"
    rows = ["timestamp,p_0,q_0,v_0,a_0"]
    for t in range(6):
        val = "nan" if t == 3 else "0.02"
        rows.append(f"2024-01-01T00:{5 * t:02d}:00Z,0.1,{val},0.99,-0.01")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetError, match=r"nan\.csv:5.*q_0"):
        read_csv(path)


@pytest.mark.parametrize("cell, column, message", [
    ("2024-01-01T00:61:00Z", 0, "bad timestamp '2024-01-01T00:61:00Z'"),
    ("0.1x", 2, "non-numeric value"),
], ids=["bad_timestamp", "non_numeric"])
def test_bad_cell_cites_line(tmp_path, cell, column, message):
    path = tmp_path / "bad.csv"
    rows = [["2024-01-01T00:%02d:00Z" % (5 * t), "0.1", "0.02", "0.99", "-0.01"]
            for t in range(4)]
    rows[2][column] = cell
    path.write_text("timestamp,p_0,q_0,v_0,a_0\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(DatasetError, match=rf"bad\.csv:4: {message}$"):
        read_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("timestamp,p_0,q_0,v_0,a_0\n"
                    "2024-01-01T00:00:00Z,0.1,0.02,0.99\n")
    with pytest.raises(DatasetError, match="ragged.csv:2"):
        read_csv(path)


def test_non_monotone_timestamps_rejected(tmp_path):
    path = tmp_path / "mono.csv"
    path.write_text("timestamp,p_0,q_0,v_0,a_0\n"
                    "2024-01-01T00:05:00Z,0.1,0.02,0.99,0.0\n"
                    "2024-01-01T00:00:00Z,0.1,0.02,0.99,0.0\n")
    with pytest.raises(DatasetError, match="monotone"):
        read_csv(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,p_0,q_0,v_0,a_0\n")
    with pytest.raises(DatasetError, match="header"):
        read_csv(path)


def test_generated_dataset_round_trip(tmp_path, small_dataset):
    path = tmp_path / "gen.csv"
    write_csv(small_dataset, path)
    loaded = read_csv(path)
    assert np.array_equal(loaded.inputs, small_dataset.inputs)
    assert np.array_equal(loaded.outputs_v, small_dataset.outputs_v)
    assert np.array_equal(loaded.outputs_a, small_dataset.outputs_a)


@hyp_settings(max_examples=20, deadline=None)
@given(T=st.integers(2, 12), n_p=st.integers(1, 3), n_v=st.integers(1, 4),
       seed=st.integers(0, 1000))
def test_round_trip_property(tmp_path_factory, T, n_p, n_v, seed):
    data = make_data(T=T, n_p=n_p, n_v=n_v, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(data, path)
    loaded = read_csv(path)
    assert np.array_equal(loaded.inputs, data.inputs)
    assert np.array_equal(loaded.outputs_v, data.outputs_v)
    assert np.array_equal(loaded.outputs_a, data.outputs_a)
    assert np.array_equal(loaded.timestamps, data.timestamps)
