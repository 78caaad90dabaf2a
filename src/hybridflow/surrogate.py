"""Clustered linear-regression surrogate for the power flow mapping.

Inputs x = (p, q) are z-scored with train-set statistics (mean 0 and
scale 1 when trained without standardization) before both clustering
distances and regression. Each cluster k of similar inputs gets one
least-squares map, (v, a) = coef[k] @ xs + intercept[k], whose first n_v
rows give voltage magnitudes and last n_v rows angles. `evaluate` takes
a [T, 2*n_p] batch, routes each row to the nearest cluster center, maps
it with that cluster's map, and returns one `Evaluation` of arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, read_archive, write_archive
from .loadgen import MINUTES_PER_DAY, minute_of_week

KMEANS = "kmeans"
DAY_OF_WEEK = "day_of_week"

FORMAT_NAME = "hybridflow-surrogate"
FORMAT_VERSION = 3
# the arrays of a version-3 archive besides `format` and `version`
ARCHIVE_ARRAYS = ("method", "centers", "coef", "intercept", "input_mean", "input_scale",
                  "train_distances", "train_sizes")
MIN_CLUSTER_SIZE = 10  # fewest training rows a cluster's map is fit on


class SurrogateError(ValueError):
    """Raised for invalid training data or configurations."""


@dataclass
class Evaluation:
    """Surrogate output for a batch of T inputs."""
    cluster: np.ndarray            # [T] nearest center, ties to the lowest index
    distance: np.ndarray           # [T] distance to it, in standardized space
    percentile: np.ndarray         # [T] nearest rank against train_distances
    v: np.ndarray                  # [T, n_v] voltage magnitudes
    a: np.ndarray                  # [T, n_v] voltage angles


@dataclass
class ClusteredSurrogate:
    method: str                    # "kmeans" or "day_of_week"
    centers: np.ndarray            # [n_c, 2*n_p], in standardized space
    coef: np.ndarray               # [n_c, 2*n_v, 2*n_p]; rows [:n_v] -> v, [n_v:] -> a
    intercept: np.ndarray          # [n_c, 2*n_v]; zeros when fit without one
    train_distances: list[np.ndarray]  # per cluster, sorted ascending
    input_mean: np.ndarray         # [2*n_p]; zeros when not standardized
    input_scale: np.ndarray        # [2*n_p]; ones when not standardized

    @property
    def n_c(self) -> int:
        return len(self.centers)


def fit_regression(train_inputs: np.ndarray, train_outputs: np.ndarray,
                   intercept: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least squares A and intercept b minimizing
    sum ||y - A x - b||^2, via SVD on centred data; rank-deficient systems
    yield the minimum-norm coefficient matrix. Without an intercept the
    data are not centred and b is zero.
    """
    X = np.asarray(train_inputs, dtype=float)
    Y = np.asarray(train_outputs, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise SurrogateError(f"incompatible training shapes {X.shape} and {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise SurrogateError("non-finite values in training data")
    x_mean = X.mean(axis=0) if intercept else np.zeros(X.shape[1])
    y_mean = Y.mean(axis=0) if intercept else np.zeros(Y.shape[1])
    At, *_ = np.linalg.lstsq(X - x_mean, Y - y_mean, rcond=None)
    A = At.T
    return A, y_mean - A @ x_mean


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    wcss: float
    wcss_history: list[float]      # per Lloyd iteration of the winning restart


def _nearest(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center, ties to the lowest index, and its squared
    distance to it; computed per center, so no [N, n_c, D] temporary."""
    d2 = np.empty((len(points), len(centers)))
    for j, center in enumerate(centers):
        diff = points - center
        d2[:, j] = np.einsum("ij,ij->i", diff, diff)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(len(points)), labels]


def _kmeans_pp_init(points: np.ndarray, n_c: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((n_c, points.shape[1]))
    centers[0] = points[rng.integers(len(points))]
    d2 = _nearest(points, centers[:1])[1]
    for k in range(1, n_c):
        total = d2.sum()
        if total <= 0.0:
            centers[k] = points[rng.integers(len(points))]
        else:
            idx = rng.choice(len(points), p=d2 / total)
            centers[k] = points[idx]
        d2 = np.minimum(d2, _nearest(points, centers[k:k + 1])[1])
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int,
           tol: float) -> KMeansResult:
    history = []
    labels, d2 = _nearest(points, centers)
    for _ in range(max_iter):
        history.append(float(d2.sum()))
        new_centers = centers.copy()
        for k in range(len(centers)):
            members = labels == k
            if members.any():
                new_centers[k] = points[members].mean(axis=0)
            else:
                # re-seed empty cluster at the point farthest from its center
                new_centers[k] = points[np.argmax(d2)]
        movement = np.max(np.abs(new_centers - centers))
        centers = new_centers
        labels, d2 = _nearest(points, centers)
        if movement < tol:
            break
    history.append(float(d2.sum()))
    return KMeansResult(centers, labels, history[-1], history)


def kmeans(points: np.ndarray, n_c: int, seed: int = 0, n_restarts: int = 10,
           max_iter: int = 300, tol: float = 1e-8) -> KMeansResult:
    """k-means++ seeded Lloyd clustering, best of n_restarts by WCSS."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise SurrogateError("points must be a 2-D array")
    if n_c < 1:
        raise SurrogateError("n_c must be >= 1")
    if len(np.unique(points, axis=0)) < n_c:
        raise SurrogateError(f"n_c={n_c} exceeds the number of distinct points")

    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_restarts):
        result = _lloyd(points, _kmeans_pp_init(points, n_c, rng), max_iter, tol)
        if best is None or result.wcss < best.wcss:
            best = result
    return best


def cluster_day_of_week(timestamps: np.ndarray) -> np.ndarray:
    """Weekday index per timestamp, Monday = 0."""
    return minute_of_week(timestamps) // MINUTES_PER_DAY


def train(dataset: Dataset, method: str = KMEANS, n_c: int = 7, seed: int = 0,
          intercept: bool = True, standardize: bool = True) -> ClusteredSurrogate:
    """Fit a clustered surrogate on a training dataset: `n_c` clusters for
    `kmeans` (one cluster for the unclustered model), one per weekday
    present for `day_of_week`."""
    if dataset.n_steps == 0:
        raise SurrogateError("empty training dataset")
    X = dataset.inputs
    if standardize:
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 1e-12, scale, 1.0)
    else:
        mean, scale = np.zeros(X.shape[1]), np.ones(X.shape[1])
    Xs = (X - mean) / scale

    if method == DAY_OF_WEEK:  # each weekday's cluster centred at its mean
        _, labels = np.unique(cluster_day_of_week(dataset.timestamps), return_inverse=True)
        n_c = labels.max() + 1
        centers = np.array([Xs[labels == k].mean(axis=0) for k in range(n_c)])
    elif method == KMEANS:
        fit = kmeans(Xs, n_c, seed=seed)
        centers, labels = fit.centers, fit.assignments
    else:
        raise SurrogateError(f"unknown clustering method {method!r}")

    Y = np.hstack([dataset.outputs_v, dataset.outputs_a])
    coef = np.empty((n_c, Y.shape[1], Xs.shape[1]))
    bias = np.empty((n_c, Y.shape[1]))
    train_distances = []
    for k in range(n_c):
        members = labels == k
        count = int(members.sum())
        if count < MIN_CLUSTER_SIZE:
            raise SurrogateError(f"cluster {k} has only {count} samples "
                                 f"(minimum {MIN_CLUSTER_SIZE}); try smaller n_c")
        coef[k], bias[k] = fit_regression(Xs[members], Y[members], intercept)
        _, d2 = _nearest(Xs[members], centers[k:k + 1])
        train_distances.append(np.sort(np.sqrt(d2)))

    return ClusteredSurrogate(method=method, centers=centers, coef=coef, intercept=bias,
                              train_distances=train_distances,
                              input_mean=mean, input_scale=scale)


def evaluate(surrogate: ClusteredSurrogate, X: np.ndarray) -> Evaluation:
    """Route each row of a [T, 2*n_p] batch to its nearest cluster center
    (ties to the lowest index) and evaluate that cluster's map."""
    Xs = (np.asarray(X, dtype=float) - surrogate.input_mean) / surrogate.input_scale
    k, d2 = _nearest(Xs, surrogate.centers)
    d = np.sqrt(d2)
    percentile = np.full(len(Xs), 100.0)
    for j, dists in enumerate(surrogate.train_distances):
        # nearest rank: fraction of the cluster's training members strictly closer
        members = k == j
        percentile[members] = 100.0 * dists.searchsorted(d[members]) / len(dists)
    Y = np.empty((len(Xs), surrogate.coef.shape[1]))
    # one matrix-vector product per row: the same sums for a row in any
    # batch, and no multi-threaded BLAS call on a large batch
    for t, (j, xs_t) in enumerate(zip(k.tolist(), Xs)):
        np.matmul(surrogate.coef[j], xs_t, out=Y[t])
    Y += surrogate.intercept[k]
    n_v = Y.shape[1] // 2
    return Evaluation(cluster=k, distance=d, percentile=percentile,
                      v=Y[:, :n_v], a=Y[:, n_v:])


def save(surrogate: ClusteredSurrogate, path) -> None:
    """Serialize to a versioned, self-describing, uncompressed .npz archive.
    The ragged per-cluster training distances are stored as one flat array
    plus one length per cluster."""
    write_archive(path, FORMAT_NAME, FORMAT_VERSION,
                  method=np.array(surrogate.method), centers=surrogate.centers,
                  coef=surrogate.coef, intercept=surrogate.intercept,
                  input_mean=surrogate.input_mean, input_scale=surrogate.input_scale,
                  train_distances=np.concatenate(surrogate.train_distances),
                  train_sizes=np.array([len(d) for d in surrogate.train_distances],
                                       dtype=np.int64))


def load(path) -> ClusteredSurrogate:
    """The model `save` wrote at `path`; each failure is one SurrogateError naming it."""
    fields = dict(zip(ARCHIVE_ARRAYS, read_archive(path, FORMAT_NAME, FORMAT_VERSION,
                                                   ARCHIVE_ARRAYS, SurrogateError, "retrain")))
    shapes = {name: fields[name].shape for name in ARCHIVE_ARRAYS[1:6]}  # centers ... input_scale
    n_c, n_out, k = (shapes["coef"] + (None,) * 3)[:3]  # coef is [n_c, 2*n_v, 2*n_p]
    if list(shapes.values()) != [(n_c, k), (n_c, n_out, k), (n_c, n_out), (k,), (k,)]:
        raise SurrogateError(f"{path}: array shapes {shapes} do not agree; retrain")
    flat, sizes = fields["train_distances"], fields["train_sizes"]
    if (flat.ndim != 1 or sizes.ndim != 1 or sizes.dtype.kind not in "iu" or len(sizes) != n_c
            or (sizes < 0).any() or sizes.sum() != flat.size):
        raise SurrogateError(f"{path}: train_sizes {sizes.tolist()} do not split "
                             f"{flat.size} train_distances into {n_c} clusters; retrain")
    train_distances = np.split(flat, np.cumsum(sizes)[:-1])
    for k, dists in enumerate(train_distances):
        if not len(dists):  # no fitted map behind it: a cluster must have training rows
            raise SurrogateError(f"{path}: cluster {k} has no training rows; retrain")
    return ClusteredSurrogate(method=str(fields["method"]), centers=fields["centers"],
                              coef=fields["coef"], intercept=fields["intercept"],
                              train_distances=train_distances,
                              input_mean=fields["input_mean"],
                              input_scale=fields["input_scale"])
