import json

import numpy as np
import pytest

from hybridflow import loadgen, surrogate as sg
from hybridflow.dataset import Dataset
from hybridflow.surrogate import (SurrogateError, cluster_day_of_week, evaluate,
                                  fit_regression, kmeans, train)


def linear_dataset(T=200, n_p=2, n_v=3, seed=0, noise=0.0):
    """Outputs exactly (or nearly) linear in the stacked (p, q) inputs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 1.5, (T, 2 * n_p))
    A_v = rng.standard_normal((n_v, 2 * n_p)) * 0.05
    A_a = rng.standard_normal((n_v, 2 * n_p)) * 0.05
    V = 1.0 + X @ A_v.T + noise * rng.standard_normal((T, n_v))
    A = X @ A_a.T + noise * rng.standard_normal((T, n_v))
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(T) * np.timedelta64(300, "s"))
    return Dataset(timestamps=ts, inputs=X, outputs_v=V, outputs_a=A), A_v, A_a


# --- fit_regression ---------------------------------------------------------

def test_exact_linear_map_recovered():
    data, A_v, _ = linear_dataset()
    A, b = fit_regression(data.inputs, data.outputs_v, intercept=True)
    pred = data.inputs @ A.T + b
    assert np.max(np.abs(pred - data.outputs_v)) < 1e-9 * np.abs(data.outputs_v).max()
    assert np.allclose(A, A_v, atol=1e-9)


def test_repeated_input_predicts_mean_output():
    X = np.tile([[1.0, 2.0]], (10, 1))
    Y = np.arange(10.0).reshape(-1, 1)
    A, b = fit_regression(X, Y, intercept=True)
    assert (X[0] @ A.T + b)[0] == pytest.approx(Y.mean(), abs=1e-10)


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 6))
    Y = rng.standard_normal((50, 4))
    A, b = fit_regression(X, Y, intercept=False)
    assert np.array_equal(b, np.zeros(4))
    oracle = (np.linalg.pinv(X) @ Y).T  # brute-force pseudo-inverse
    assert np.allclose(A, oracle, rtol=1e-8, atol=1e-12)


def test_rank_deficient_gives_minimum_norm():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((30, 3))
    X = np.hstack([base, base[:, :2]])  # duplicated columns: rank 3 of 5
    Y = rng.standard_normal((30, 2))
    A, _ = fit_regression(X, Y, intercept=False)
    oracle = (np.linalg.pinv(X) @ Y).T
    assert np.allclose(A, oracle, rtol=1e-8, atol=1e-10)


def test_nonfinite_training_rejected():
    X = np.array([[1.0], [np.inf]])
    with pytest.raises(SurrogateError, match="non-finite"):
        fit_regression(X, X, intercept=False)


def test_least_squares_optimality_under_perturbation():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3))
    Y = X @ rng.standard_normal((3, 2)) + 0.1 * rng.standard_normal((40, 2))
    A, b = fit_regression(X, Y, intercept=True)
    base_rss = np.sum((Y - X @ A.T - b) ** 2)
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            for delta in (1e-4, -1e-4):
                A2 = A.copy()
                A2[i, j] += delta
                rss = np.sum((Y - X @ A2.T - b) ** 2)
                assert rss >= base_rss - 1e-12


# --- kmeans -----------------------------------------------------------------

def test_single_cluster_center_is_mean():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((50, 3))
    result = kmeans(pts, 1, seed=0)
    assert np.allclose(result.centers[0], pts.mean(axis=0), atol=1e-12)
    assert np.all(result.assignments == 0)


def test_two_blob_recovery():
    rng = np.random.default_rng(9)
    blob_a = rng.standard_normal((100, 2)) * 0.1
    blob_b = rng.standard_normal((100, 2)) * 0.1 + 10.0
    pts = np.vstack([blob_a, blob_b])
    labels = kmeans(pts, 2, seed=0).assignments
    assert len(set(labels[:100])) == 1
    assert len(set(labels[100:])) == 1
    assert labels[0] != labels[100]


def test_wcss_monotone_and_fixed_point():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((200, 4))
    result = kmeans(pts, 5, seed=3)
    history = result.wcss_history
    assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))
    # fixed point: reassign then recompute centers changes nothing
    d2 = ((pts[:, None, :] - result.centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    assert np.array_equal(labels, result.assignments)
    for k in range(5):
        assert np.allclose(result.centers[k], pts[labels == k].mean(axis=0), atol=1e-7)


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((120, 3))
    r1 = kmeans(pts, 4, seed=42)
    r2 = kmeans(pts, 4, seed=42)
    assert np.array_equal(r1.centers, r2.centers)
    assert np.array_equal(r1.assignments, r2.assignments)


def test_kmeans_too_many_clusters():
    pts = np.zeros((10, 2))
    with pytest.raises(SurrogateError, match="distinct"):
        kmeans(pts, 2, seed=0)


# --- day-of-week clustering -------------------------------------------------

def test_monday_is_cluster_zero():
    ts = np.array([np.datetime64("2024-01-01T12:00:00", "s")])  # a Monday
    assert cluster_day_of_week(ts)[0] == 0


def test_seven_day_set_fills_all_clusters():
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(7 * 24) * np.timedelta64(3600, "s"))
    labels = cluster_day_of_week(ts)
    assert set(labels) == set(range(7))


def test_28_day_set_splits_evenly():
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(28 * 24) * np.timedelta64(3600, "s"))
    counts = np.bincount(cluster_day_of_week(ts), minlength=7)
    assert np.all(counts == 28 * 24 // 7)


# --- train / evaluate -------------------------------------------------------

def test_piecewise_linear_regimes_need_clustering():
    rng = np.random.default_rng(12)
    T = 600
    regimes = np.repeat(np.arange(3), T // 3)
    offsets = np.array([0.0, 5.0, 10.0])
    X = rng.uniform(0, 0.5, (T, 4)) + offsets[regimes][:, None]
    slopes = np.array([[1.0, -1.0, 0.5, 0.2], [-2.0, 0.3, 1.5, -0.7],
                       [0.1, 2.0, -1.2, 0.9]])
    Y = np.einsum("tj,tj->t", X, slopes[regimes])[:, None] + offsets[regimes][:, None]
    ts = (np.datetime64("2024-01-01T00:00:00", "s")
          + np.arange(T) * np.timedelta64(300, "s"))
    data = Dataset(ts, X, Y, np.zeros_like(Y))

    s3 = train(data, method=sg.KMEANS, n_c=3, seed=0)
    s1 = train(data, method=sg.KMEANS, n_c=1, seed=0)
    err3 = np.max(np.abs(evaluate(s3, X[::7]).v[:, 0] - Y[::7, 0]))
    err1 = np.max(np.abs(evaluate(s1, X[::7]).v[:, 0] - Y[::7, 0]))
    assert err3 <= 1e-6
    assert err1 > 100 * err3


def test_day_of_week_makes_one_cluster_per_weekday_present():
    data, _, _ = linear_dataset(T=2 * 288)  # Monday and Tuesday at 5 minutes
    model = train(data, method=sg.DAY_OF_WEEK)
    assert model.n_c == 2
    assert [len(d) for d in model.train_distances] == [288, 288]


def test_evaluate_training_rows_gives_stored_distances():
    data, _, _ = linear_dataset(noise=0.001, T=300)
    model = train(data, method=sg.KMEANS, n_c=4, seed=1)
    result = evaluate(model, data.inputs)
    for k, stored in enumerate(model.train_distances):
        assert np.array_equal(np.sort(result.distance[result.cluster == k]), stored)


def test_small_cluster_rejected():
    data, _, _ = linear_dataset(T=30)
    with pytest.raises(SurrogateError, match="smaller n_c"):
        train(data, method=sg.KMEANS, n_c=10, seed=0)


def test_assign_center_exactly():
    data, _, _ = linear_dataset(noise=0.001)
    model = train(data, method=sg.KMEANS, n_c=3, seed=0)
    # un-standardize the center to get the raw-space input that maps onto it
    raw = model.centers[1] * model.input_scale + model.input_mean
    result = evaluate(model, raw[None, :])
    assert result.cluster[0] == 1
    assert result.distance[0] == pytest.approx(0.0, abs=1e-12)
    assert result.percentile[0] == 0.0


def test_assign_far_point_percentile_100():
    data, _, _ = linear_dataset(noise=0.001)
    model = train(data, method=sg.KMEANS, n_c=2, seed=0)
    far = data.inputs[0] + 1e6
    assert evaluate(model, far[None, :]).percentile[0] == 100.0


def test_assign_matches_linear_scan():
    data, _, _ = linear_dataset(noise=0.001, T=300)
    model = train(data, method=sg.KMEANS, n_c=4, seed=1)
    rng = np.random.default_rng(13)
    X = rng.uniform(0.5, 1.5, (20, data.inputs.shape[1]))
    clusters = evaluate(model, X).cluster
    for x, cluster in zip(X, clusters):
        xs = (x - model.input_mean) / model.input_scale
        scan = min(range(model.n_c),
                   key=lambda k: (np.linalg.norm(xs - model.centers[k]), k))
        assert cluster == scan


def test_predict_reproduces_noiseless_training_sample():
    data, _, _ = linear_dataset(noise=0.0)
    model = train(data, method=sg.KMEANS, n_c=2, seed=0)
    result = evaluate(model, data.inputs[50:51])
    assert np.max(np.abs(result.v[0] - data.outputs_v[50])) < 1e-9
    assert np.max(np.abs(result.a[0] - data.outputs_a[50])) < 1e-9


def test_zero_input_no_intercept_gives_zero():
    data, _, _ = linear_dataset()
    model = train(data, method=sg.KMEANS, n_c=1, seed=0, intercept=False,
                  standardize=False)
    result = evaluate(model, np.zeros((1, data.inputs.shape[1])))
    assert np.allclose(result.v, 0.0, atol=1e-12)
    assert np.allclose(result.a, 0.0, atol=1e-12)


def test_predict_equals_manual_evaluation():
    data, _, _ = linear_dataset(noise=0.01)
    model = train(data, method=sg.KMEANS, n_c=2, seed=0)
    x = data.inputs[123]
    result = evaluate(model, x[None, :])
    k = result.cluster[0]
    xs = (x - model.input_mean) / model.input_scale
    y = model.coef[k] @ xs + model.intercept[k]
    n_v = data.outputs_v.shape[1]
    assert np.array_equal(result.v[0], y[:n_v])
    assert np.array_equal(result.a[0], y[n_v:])


def test_batch_matches_single_rows():
    data, _, _ = linear_dataset(noise=0.01, T=300)
    model = train(data, method=sg.KMEANS, n_c=4, seed=2)
    batch = evaluate(model, data.inputs)
    T, n_v = data.outputs_v.shape
    assert batch.cluster.shape == batch.distance.shape == batch.percentile.shape == (T,)
    assert batch.v.shape == batch.a.shape == (T, n_v)
    for t in range(T):
        single = evaluate(model, data.inputs[t:t + 1])
        assert batch.cluster[t] == single.cluster[0]
        assert batch.distance[t] == single.distance[0]
        assert batch.percentile[t] == single.percentile[0]
        assert np.array_equal(batch.v[t], single.v[0])
        assert np.array_equal(batch.a[t], single.a[0])



def test_clustering_improves_mode_structured_fit(small_dataset):
    from hybridflow.metrics import eps_inf

    n_modes = len(loadgen.MODES)
    s_multi = train(small_dataset, method=sg.KMEANS, n_c=n_modes, seed=0)
    s_single = train(small_dataset, method=sg.KMEANS, n_c=1, seed=0)
    truth = (small_dataset.outputs_v, small_dataset.outputs_a)
    multi = evaluate(s_multi, small_dataset.inputs)
    single = evaluate(s_single, small_dataset.inputs)
    e_multi = eps_inf(multi.v, multi.a, *truth)
    e_single = eps_inf(single.v, single.a, *truth)
    assert np.mean(e_multi <= e_single) >= 0.90


def test_serialization_round_trip(tmp_path):
    data, _, _ = linear_dataset(noise=0.01)
    for fitted in (True, False):  # with and without intercept and z-scoring
        model = train(data, method=sg.KMEANS, n_c=3, seed=2,
                      intercept=fitted, standardize=fitted)
        path = tmp_path / f"model_{fitted}.json"
        sg.save(model, path)
        loaded = sg.load(path)
        assert loaded.method == model.method
        assert loaded.n_c == model.n_c
        for name in ("centers", "coef", "intercept", "input_mean", "input_scale"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        x = data.inputs[3:4]
        assert np.array_equal(evaluate(loaded, x).v, evaluate(model, x).v)
    assert not loaded.intercept.any()
    assert not loaded.input_mean.any() and (loaded.input_scale == 1.0).all()


def test_serialized_determinism(tmp_path):
    data, _, _ = linear_dataset(noise=0.01)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    sg.save(train(data, method=sg.KMEANS, n_c=3, seed=5), p1)
    sg.save(train(data, method=sg.KMEANS, n_c=3, seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_writes_exactly_the_given_path(tmp_path):
    data, _, _ = linear_dataset(noise=0.01)
    model = train(data, method=sg.KMEANS, n_c=3, seed=5)
    sg.save(model, tmp_path / "model.json")
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    loaded = sg.load(tmp_path / "model.json")
    for mine, theirs in zip(loaded.train_distances, model.train_distances):
        assert np.array_equal(mine, theirs)


NOT_A_ZIP = r"unreadable archive \(File is not a zip file\); retrain$"


def test_version_2_json_model_is_rejected(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"format": "hybridflow-surrogate", "version": 2,
                                "method": "none", "centers": [[0.0]]}))
    with pytest.raises(SurrogateError, match=r"v2\.json: " + NOT_A_ZIP):
        sg.load(path)


@pytest.mark.parametrize("content", [b"", b"[1, 2]", b"\x93NUMPY"], ids=["empty", "json", "npy"])
def test_non_archive_is_rejected(tmp_path, content):
    path = tmp_path / "model.npz"
    path.write_bytes(content)
    with pytest.raises(SurrogateError, match=r"model\.npz: " + NOT_A_ZIP):
        sg.load(path)


def test_non_surrogate_archive_is_rejected(tmp_path):
    path = tmp_path / "other.npz"
    np.savez(path, x=np.arange(3))
    with pytest.raises(SurrogateError, match=r"other\.npz: missing entry 'format'; retrain$"):
        sg.load(path)


@pytest.mark.parametrize("sizes", [[100, 50, 49], [200, 1, -1], [200]],
                         ids=["short", "negative", "too_few"])
def test_bad_train_sizes_are_rejected(tmp_path, sizes):
    data, _, _ = linear_dataset(noise=0.01)
    sg.save(train(data, method=sg.KMEANS, n_c=3, seed=5), tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as archive:
        fields = dict(archive)
    assert fields["train_sizes"].sum() == len(fields["train_distances"]) == 200
    fields["train_sizes"] = np.array(sizes)
    np.savez(tmp_path / "bad.npz", **fields)
    with pytest.raises(SurrogateError, match=r"bad\.npz: train_sizes .* do not split .*; retrain$"):
        sg.load(tmp_path / "bad.npz")
