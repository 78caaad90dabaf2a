import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from hybridflow.netmodel import (Bus, Line, NetworkStructureError,
                                 NetworkValidationError, build_admittance,
                                 load_network, make_network, read_yaml, save_network)


def two_bus():
    return [Bus(0, "slack"), Bus(1, "pq", load_attachment=0)]


def test_single_branch_analytic():
    # one line z = j0.1 -> Y = [[-10j, 10j], [10j, -10j]]
    Y = build_admittance(two_bus(), [Line(0, 1, 0.0, 0.1)])
    expected = np.array([[-10j, 10j], [10j, -10j]])
    assert np.allclose(Y, expected, atol=1e-14)


def test_zero_shunt_rows_sum_to_zero(feeder30):
    sums = np.abs(feeder30.Y.sum(axis=1))
    assert np.all(sums <= 1e-12 * np.abs(feeder30.Y).max())


def test_four_bus_ring_matches_brute_force():
    buses = [Bus(0, "slack"), Bus(1, "pq"), Bus(2, "pq"), Bus(3, "pq")]
    lines = [Line(0, 1, 0.01, 0.05, 0.02), Line(1, 2, 0.03, 0.08),
             Line(2, 3, 0.02, 0.04, 0.01), Line(3, 0, 0.01, 0.06)]
    Y = build_admittance(buses, lines)

    # independent brute-force accumulation over branches
    expected = np.zeros((4, 4), dtype=complex)
    for ln in lines:
        y = 1.0 / complex(ln.resistance, ln.reactance)
        i, j = ln.from_bus, ln.to_bus
        expected[i, j] += -y
        expected[j, i] += -y
        expected[i, i] += y + 1j * ln.shunt_susceptance / 2
        expected[j, j] += y + 1j * ln.shunt_susceptance / 2
    assert np.allclose(Y, expected, atol=1e-15)


def test_symmetry_is_exact(net4, feeder30):
    for net in (net4, feeder30):
        assert np.max(np.abs(net.Y - net.Y.T)) == 0.0


def test_zero_impedance_rejected():
    with pytest.raises(NetworkValidationError, match="zero impedance"):
        build_admittance(two_bus(), [Line(0, 1, 0.0, 0.0)])


def test_disconnected_rejected():
    buses = two_bus() + [Bus(2, "pq")]
    with pytest.raises(NetworkStructureError, match="not connected"):
        build_admittance(buses, [Line(0, 1, 0.0, 0.1)])


def test_validate_duplicate_slack():
    with pytest.raises(NetworkValidationError,
                       match=r"expected exactly one slack bus, found \[0, 1\]"):
        make_network([Bus(0, "slack"), Bus(1, "slack")], [Line(0, 1, 0.01, 0.05)])


@pytest.mark.parametrize("bus, message", [
    (Bus(1, "pv", load_attachment=0), "bus 1 has unknown kind 'pv'"),
    (Bus(1, "pq", load_attachment=1), r"load attachments not contiguous 0..0: \[1\]"),
], ids=["unknown_kind", "gap_in_load_attachments"])
def test_make_network_rejects_bad_buses(bus, message):
    with pytest.raises(NetworkValidationError, match=message):
        make_network([Bus(0, "slack"), bus], [Line(0, 1, 0.01, 0.05)])


@hyp_settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_permutation_equivariance(rnd):
    n = 6
    buses = [Bus(0, "slack")] + [Bus(i, "pq") for i in range(1, n)]
    lines = [Line(i, i + 1, 0.01 + 0.01 * rnd.random(), 0.03 + 0.02 * rnd.random())
             for i in range(n - 1)]
    lines.append(Line(0, n - 1, 0.02, 0.05))
    Y = build_admittance(buses, lines)

    perm = list(range(n))
    rnd.shuffle(perm)
    relabel = {old: new for new, old in enumerate(perm)}
    buses2 = sorted(
        (Bus(relabel[b.id], b.kind) for b in buses), key=lambda b: b.id)
    lines2 = [Line(relabel[ln.from_bus], relabel[ln.to_bus],
                   ln.resistance, ln.reactance) for ln in lines]
    Y2 = build_admittance(buses2, lines2)

    P = np.zeros((n, n))
    for new, old in enumerate(perm):
        P[relabel[old], old] = 1.0
    assert np.allclose(Y2, P @ Y @ P.T, atol=1e-15)


def test_file_round_trip(tmp_path, net4):
    path = tmp_path / "net.yaml"
    save_network(net4, path)
    loaded = load_network(path)
    assert loaded.buses == net4.buses
    assert loaded.lines == net4.lines
    assert np.array_equal(loaded.Y, net4.Y)


def test_bundled_networks_valid(net4, feeder30):
    # the fixtures load through `make_network`, which raises on an invalid network
    assert net4.slack_index == feeder30.slack_index == 0
    assert feeder30.n_bus >= 25
    assert feeder30.n_loads == feeder30.n_bus - 1


def test_yaml_merge_key_is_not_a_repeat(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("base: &base {x: 1, y: 2}\nmerged:\n  <<: *base\n  x: 3\n")
    assert read_yaml(path) == {"base": {"x": 1, "y": 2}, "merged": {"x": 3, "y": 2}}
