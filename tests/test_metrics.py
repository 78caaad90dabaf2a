import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hybridflow.metrics import MetricError, eps_inf


def test_identity_is_zero():
    v = np.array([1.0, 0.98, 1.02])
    a = np.array([0.0, -0.01, 0.02])
    assert eps_inf(v, a, v, a) == 0.0


def test_pure_magnitude_perturbation():
    true_v = np.array([1.0, 1.0, 1.0])
    true_a = np.zeros(3)
    pred_v = np.array([1.0, 1.01, 1.0])
    errors = [eps_inf(pred_v[i:i + 1], true_a[i:i + 1], true_v[i:i + 1], true_a[i:i + 1])
              for i in range(3)]
    assert errors[1] == pytest.approx(0.01, abs=1e-12)
    assert errors[0] == 0.0 and errors[2] == 0.0
    assert eps_inf(pred_v, true_a, true_v, true_a) == errors[1]


@pytest.mark.parametrize("theta", [0.01, 0.1])
def test_pure_angle_perturbation_chord_length(theta):
    # |e^{i theta} - 1| = 2 sin(theta / 2); cross-checked in the complex plane
    chord = abs(np.exp(1j * theta) - 1.0)
    assert chord == pytest.approx(2.0 * np.sin(theta / 2.0), abs=1e-15)
    got = eps_inf(np.array([1.0]), np.array([theta]), np.array([1.0]), np.array([0.0]))
    assert got == pytest.approx(chord, abs=1e-12)


def test_zero_norm_truth_uses_absolute_error():
    got = eps_inf(np.array([0.05]), np.array([0.3]), np.array([0.0]), np.array([0.0]))
    assert got == pytest.approx(0.05, abs=1e-15)


def test_nan_rejected():
    with pytest.raises(MetricError):
        eps_inf(np.array([np.nan]), np.array([0.0]), np.array([1.0]), np.array([0.0]))


def test_shape_mismatch_rejected():
    with pytest.raises(MetricError):
        eps_inf(np.ones(2), np.zeros(2), np.ones(3), np.zeros(3))


@hyp_settings(max_examples=50, deadline=None)
@given(v=st.floats(0.5, 1.5), a=st.floats(-0.5, 0.5),
       dv=st.floats(-0.1, 0.1), da=st.floats(-0.1, 0.1),
       c=st.floats(0.1, 10.0))
def test_scale_invariance(v, a, dv, da, c):
    base = eps_inf(np.array([v + dv]), np.array([a + da]),
                   np.array([v]), np.array([a]))
    scaled = eps_inf(np.array([c * (v + dv)]), np.array([a + da]),
                     np.array([c * v]), np.array([a]))
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_eps_inf_attains_max_at_worst_bus():
    rng = np.random.default_rng(0)
    true_v = 1.0 + 0.01 * rng.standard_normal(10)
    true_a = 0.02 * rng.standard_normal(10)
    pred_v = true_v + 0.005 * rng.standard_normal(10)
    pred_a = true_a + 0.005 * rng.standard_normal(10)
    per_bus = [eps_inf(pred_v[i:i + 1], pred_a[i:i + 1], true_v[i:i + 1], true_a[i:i + 1])
               for i in range(10)]
    assert eps_inf(pred_v, pred_a, true_v, true_a) == max(per_bus)


def test_batch_reduces_over_last_axis():
    rng = np.random.default_rng(4)
    pred_v, true_v = rng.uniform(0.9, 1.1, (2, 6, 5))
    pred_a, true_a = rng.uniform(-0.2, 0.2, (2, 6, 5))
    batch = eps_inf(pred_v, pred_a, true_v, true_a)
    assert batch.shape == (6,)
    for t in range(6):
        assert batch[t] == eps_inf(pred_v[t], pred_a[t], true_v[t], true_a[t])


def test_batch_nan_names_first_row():
    true_v, true_a = np.ones((4, 3)), np.zeros((4, 3))
    true_v[2, 1] = true_v[3, 0] = np.nan
    with pytest.raises(MetricError) as info:
        eps_inf(np.ones((4, 3)), np.zeros((4, 3)), true_v, true_a)
    assert info.value.row == 2
