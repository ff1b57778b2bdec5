"""Parallel-link, flow, and network aggregate quantities."""

import math

import numpy as np
import pytest

from qlink.cutoff import joint_prob, prob_active, steady_state
from qlink.engine import materialize_average_state
from qlink.network import (
    EdgeConfig,
    NetworkConfig,
    ParallelLinkSpec,
    collective_status,
    expected_flow,
    expected_total_links,
    flow_distribution,
    joint_state_descriptor,
    prob_at_least_one,
)
from qlink.quantum import preset_channel, preset_state


def make_edge(specs, edge_id="e"):
    return EdgeConfig(edge_id=edge_id,
                      links=tuple(ParallelLinkSpec(p=p, tstar=ts) for p, ts in specs))


def test_config_validation():
    with pytest.raises(ValueError):
        EdgeConfig(edge_id="e", links=())
    with pytest.raises(ValueError):
        ParallelLinkSpec(p=1.5, tstar=1)
    edge = make_edge([(0.5, 1)])
    with pytest.raises(ValueError):
        NetworkConfig(edges=(edge, edge))


def test_per_link_probability_delegates_to_analytics():
    spec = ParallelLinkSpec(p=0.3, tstar=4)
    for t in (1, 5, 12):
        assert spec.prob_active(t) == prob_active(t, 4, 0.3)
    assert spec.prob_active(math.inf) == steady_state(4, 0.3).prob_active


def test_prob_at_least_one_product_form():
    edge = make_edge([(0.3, 2), (0.6, "inf"), (0.1, 0)])
    t = 7
    qs = [link.prob_active(t) for link in edge.links]
    expected = 1.0 - math.prod(1.0 - q for q in qs)
    assert prob_at_least_one(edge, t) == pytest.approx(expected, abs=1e-14)


def test_expected_flow_and_distribution_agree():
    edge = make_edge([(0.3, 2), (0.6, 5), (0.45, "inf"), (0.8, 0)])
    t = 9
    dist = flow_distribution(edge, t)
    assert dist.size == 5
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    mean = float(np.arange(5) @ dist)
    assert expected_flow(edge, t) == pytest.approx(mean, abs=1e-12)
    assert 1.0 - dist[0] == pytest.approx(prob_at_least_one(edge, t), abs=1e-12)


def test_steady_flow_values():
    # two identical links: E[N] at steady state = 2 (t*+1)p / (1 + t* p),
    # also the limit of the Cesaro-mean link activity rate
    edge = make_edge([(0.5, 1), (0.5, 1)])
    assert expected_flow(edge, math.inf) == pytest.approx(2 * 2 * 0.5 / 1.5, abs=1e-12)


def test_network_totals_and_collective_status():
    net = NetworkConfig(edges=(
        make_edge([(0.4, 2), (0.3, 3)], "a"),
        make_edge([(0.6, "inf")], "b"),
    ))
    t = 8
    assert expected_total_links(net, t) == pytest.approx(
        prob_active(t, 2, 0.4) + prob_active(t, 3, 0.3) + prob_active(t, "inf", 0.6),
        abs=1e-13)
    expected = prob_at_least_one(net.edges[0], t) * prob_at_least_one(net.edges[1], t)
    assert collective_status(net, t) == pytest.approx(expected, abs=1e-13)
    # collective status never exceeds the weakest edge
    assert collective_status(net, t) <= min(
        prob_at_least_one(e, t) for e in net.edges)


def test_collective_status_product_example():
    # two single-link edges with activity 0.72 and 0.75 combine to 0.54
    net = NetworkConfig(edges=(
        make_edge([(0.9, 3)], "a"),   # steady activity 4*0.9/3.7
        make_edge([(0.6, 1)], "b"),   # steady activity 2*0.6/1.6 = 0.75
    ))
    a = steady_state(3, 0.9).prob_active
    b = steady_state(1, 0.6).prob_active
    assert b == pytest.approx(0.75, abs=1e-12)
    assert collective_status(net, math.inf) == pytest.approx(a * b, abs=1e-12)


def test_early_time_activity_bound():
    # within the first t* + 1 steps activity equals the no-cutoff bound
    spec = ParallelLinkSpec(p=0.35, tstar=6)
    for t in range(1, 8):
        assert spec.prob_active(t) == pytest.approx(1 - 0.65 ** t, abs=1e-12)
    # beyond it, the cutoff strictly hurts
    assert spec.prob_active(20) < 1 - 0.65 ** 20


def test_time_validation():
    edge = make_edge([(0.5, 1)])
    with pytest.raises(ValueError):
        expected_flow(edge, 0)
    with pytest.raises(ValueError):
        expected_flow(edge, 2.5)


# ---------------------------------------------------------------------------
# joint state descriptors
# ---------------------------------------------------------------------------

def test_joint_state_descriptor_weights():
    specs = [ParallelLinkSpec(p=0.3, tstar=2),
             ParallelLinkSpec(p=0.6, tstar="inf")]
    rows, rho = joint_state_descriptor(specs, t=6)
    assert rho is None
    assert [row.t for row in rows] == [6, 6]
    for spec, row in zip(specs, rows):
        assert row.prob_active == spec.prob_active(6)
        assert row.prob_active == pytest.approx(sum(row.joint), abs=1e-15)
        for m, w in enumerate(row.joint):
            assert w == pytest.approx(joint_prob(6, spec.tstar, spec.p, m, 1),
                                      abs=1e-14)


def test_joint_state_descriptor_materialized():
    bell = preset_state("bell_phi_plus")
    channel = preset_channel("depolarizing", 4, 0.9)
    specs = [ParallelLinkSpec(p=0.5, tstar=1)]
    rows, rho = joint_state_descriptor(specs, t=4, states=[(bell.projector(), channel)])
    assert rho is not None and rho.dim == 5
    assert rho.matrix[4, 4].real == 1.0 - rows[0].prob_active
    with pytest.raises(ValueError):
        joint_state_descriptor(specs, t=4, states=[(bell.projector(), channel)] * 2)


def test_joint_state_descriptor_at_the_limit():
    """t = math.inf gives each link's steady state; other times are
    integers >= 1."""
    specs = [ParallelLinkSpec(p=0.3, tstar=2), ParallelLinkSpec(p=0.6, tstar="inf")]
    rows, rho = joint_state_descriptor(specs, math.inf)
    assert rho is None
    assert rows == [steady_state(2, 0.3), steady_state("inf", 0.6)]
    for t in (2.5, 0):
        with pytest.raises(ValueError, match="t must be an integer >= 1"):
            joint_state_descriptor(specs, t)


def test_infinite_cutoff_limit_state_has_no_density_matrix():
    """An ever-kept link's limit state holds its weight at no finite age."""
    bell = preset_state("bell_phi_plus").projector()
    channel = preset_channel("depolarizing", 4, 0.9)
    message = "limit state has no density matrix: the kept link's age grows without bound"
    with pytest.raises(ValueError, match=message):
        materialize_average_state(steady_state("inf", 0.3), bell, channel)
    specs = [ParallelLinkSpec(p=0.5, tstar=1), ParallelLinkSpec(p=0.3, tstar="inf")]
    with pytest.raises(ValueError, match=message):
        joint_state_descriptor(specs, math.inf, [(bell, channel)] * 2)
    # a finite cutoff's limit state, and a never-active link's, have one
    rows, rho = joint_state_descriptor(specs[:1], math.inf, [(bell, channel)])
    assert rho.matrix[4, 4].real == 1.0 - rows[0].prob_active
    never = materialize_average_state(steady_state("inf", 0.0), bell, channel)
    assert never.matrix[4, 4] == 1.0
