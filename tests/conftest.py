import os

# one BLAS thread, as the benchmark runs: criterion 9 compares per-step wall
# times, and a multi-threaded BLAS call can be several times slower on a busy
# machine. Set before anything imports numpy; an explicit setting still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from hybridflow import dataset as ds
from hybridflow import hybrid, loadgen
from hybridflow.config import load_bundled_or_path
from hybridflow.solver import SolverSettings


@pytest.fixture(scope="session")
def net4():
    return load_bundled_or_path("net4")


@pytest.fixture(scope="session")
def feeder30():
    return load_bundled_or_path("feeder30")


@pytest.fixture(scope="session")
def settings():
    return SolverSettings()


@pytest.fixture(scope="session")
def small_spec(feeder30):
    # 10 days at 15-min resolution keeps fixture construction quick
    return loadgen.LoadProfileSpec(n_loads=feeder30.n_loads, resolution_minutes=15,
                                   duration_days=10, seed=99)


@pytest.fixture(scope="session")
def small_series(small_spec, feeder30):
    return loadgen.generate(small_spec, feeder30)


@pytest.fixture(scope="session")
def small_dataset(small_series, feeder30, settings):
    solutions = hybrid.run_pure_solver(feeder30, small_series, settings)
    return ds.Dataset.from_solutions(small_series, solutions)
