"""Closed-form cutoff-policy analytics against independent oracles."""

import math
import sys
import threading
from array import array
from fractions import Fraction
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlink.cutoff as ca
from qlink.config import MAX_TIME
from qlink.cutoff import (
    Cutoff,
    active_rows,
    count_sequences,
    cutoff_policy,
    cutoff_table,
    expected_fidelity_cutoff,
    expected_success_rate,
    expected_success_rates,
    history_prob_cutoff,
    hyp2f1_series,
    joint_prob,
    memory_time_cutoff,
    prob_active,
    sequence_stats,
    steady_fidelity_cutoff,
    steady_state,
    success_rate_limits,
    transition_matrix,
    waiting_time,
    waiting_times,
)
from qlink.engine import History, iter_supported_histories
from qlink.quantum import FidelityCurve

from oracles import (
    enumerate_supported,
    exact_joint_prob,
    exact_success_rate,
    expected_fidelity_lgamma,
    expected_success_rate_lgamma,
    joint_prob_lgamma,
    prob_active_lgamma,
    simulate_waiting_time,
)

TSTARS = [0, 1, 2, 3, 5, math.inf]


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

def test_cutoff_parse_and_str():
    assert Cutoff.parse(3).finite_value == 3
    assert Cutoff.parse("7").finite_value == 7
    assert Cutoff.parse("inf").is_infinite
    assert Cutoff.parse("Infinity").is_infinite
    assert str(Cutoff(math.inf)) == "inf"
    assert str(Cutoff(4)) == "4"
    with pytest.raises(ValueError):
        Cutoff(-1)
    with pytest.raises(ValueError):
        Cutoff(2.5)
    with pytest.raises(ValueError):
        Cutoff(math.inf).finite_value


def test_cutoff_policy_decisions():
    rule = cutoff_policy(2).decide_state
    assert rule(1, 0, -1) == 1.0  # down: request
    assert rule(1, 1, 0) == 0.0   # fresh link: hold
    assert rule(1, 1, 1) == 0.0
    assert rule(1, 1, 2) == 1.0   # at cutoff age: discard and re-request
    inf_rule = cutoff_policy("inf").decide_state
    assert inf_rule(1, 0, -1) == 1.0
    assert inf_rule(1, 1, 99) == 0.0


@pytest.mark.parametrize("tstar", [0, 3, "inf"])
def test_cutoff_policy_runs_are_the_run_length_encoded_rule(tstar):
    """``decide_runs(t)`` is the run-length encoding of the scalar rule over
    ages 0..t-1, at every t, in any order of calls."""
    policy = cutoff_policy(tstar)
    rule = policy.decide_state
    for t in (1, 5, 2, 40, 7, 41, 300, 3, 4):
        down, starts, probs = policy.decide_runs(t)
        assert down == rule(t, 0, -1) == 1.0
        expected_starts, expected_probs = [], []
        for m in range(t):
            if not expected_probs or rule(t, 1, m) != expected_probs[-1]:
                expected_starts.append(m)
                expected_probs.append(rule(t, 1, m))
        assert list(starts) == expected_starts
        assert list(probs) == expected_probs
        assert all(type(prob) is float for prob in probs)


@pytest.mark.parametrize("tstar", TSTARS)
def test_memory_time_cutoff_matches_engine_on_support(tstar):
    """On supported sequences the mod-convention memory time agrees with the
    engine's M(t) whenever loaded and equals t* when unloaded (finite t*)."""
    for t in (1, 3, 6, 8):
        for xs, _ns, _nf, age in enumerate_supported(t, tstar):
            m = memory_time_cutoff(xs, tstar)
            if age >= 0:
                assert m == age
            elif tstar != math.inf:
                assert m == tstar
            else:
                assert m == -1


# ---------------------------------------------------------------------------
# sequence statistics and per-sequence probabilities
# ---------------------------------------------------------------------------

def test_sequence_stats_examples():
    # t* = 3: full blocks are runs of 4 ones completed before the final time
    assert sequence_stats((1, 1, 1, 1, 0, 0, 0, 0, 0, 0), 3) == \
        sequence_stats((0, 0, 0, 0, 0, 1, 1, 1, 1, 0), 3)
    stats = sequence_stats((1, 1, 1, 1, 0, 0, 0, 0, 0, 0), 3)
    assert (stats.y1, stats.y2) == (1, 0)
    # a block completing exactly at time t counts as trailing ones
    stats = sequence_stats((0, 0, 0, 0, 0, 0, 1, 1, 1, 1), 3)
    assert (stats.y1, stats.y2) == (0, 4)
    stats = sequence_stats((1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 3)
    assert (stats.y1, stats.y2) == (2, 2)
    stats = sequence_stats((1,) * 6, "inf")
    assert (stats.y1, stats.y2) == (0, 6)


@pytest.mark.parametrize("tstar", TSTARS)
@pytest.mark.parametrize("p", [0.2, 0.5, 0.85])
def test_history_prob_cutoff_matches_success_failure_counts(tstar, p):
    """p^(successes) (1-p)^(failures) from the replay oracle equals the
    (Y1, Y2) closed form on every supported sequence."""
    for t in (1, 4, 7, 9):
        for xs, n_succ, n_fail, _age in enumerate_supported(t, tstar):
            stats = sequence_stats(xs, tstar)
            expected = p ** n_succ * (1.0 - p) ** n_fail
            assert history_prob_cutoff(stats, t, tstar, p) == \
                pytest.approx(expected, rel=1e-12)


def test_history_prob_cutoff_rejects_unrealizable_stats():
    from qlink.cutoff import SequenceStats
    with pytest.raises(ValueError):
        history_prob_cutoff(SequenceStats(y1=3, y2=0), t=4, tstar=3, p=0.5)
    with pytest.raises(ValueError):
        history_prob_cutoff(SequenceStats(y1=0, y2=9), t=4, tstar=3, p=0.5)
    with pytest.raises(ValueError):
        history_prob_cutoff(SequenceStats(y1=1, y2=0), t=3, tstar=math.inf, p=0.5)


@pytest.mark.parametrize("tstar", TSTARS)
def test_count_sequences_matches_enumeration(tstar):
    for t in range(1, 13):
        assert count_sequences(t, tstar) == sum(1 for _ in enumerate_supported(t, tstar))


def test_count_sequences_closed_cases():
    for t in range(1, 15):
        assert count_sequences(t, 0) == 2 ** t          # every bitstring
        assert count_sequences(t, "inf") == 1 + t       # run length of final ones
        assert count_sequences(t, t) == 1 + t           # t <= t* + 1
    assert count_sequences(10, 3) == 36


# ---------------------------------------------------------------------------
# joint status distribution
# ---------------------------------------------------------------------------

def _joint_support(t, tstar):
    if tstar == math.inf:
        return [(m, 1) for m in range(t)] + [(-1, 0)]
    ts = int(tstar)
    return [(m, 1) for m in range(min(t, ts + 1))] + [(ts, 0)]


@given(t=st.integers(1, 300), tstar=st.sampled_from(TSTARS),
       p=st.floats(0.01, 0.99))
@settings(max_examples=150, deadline=None)
def test_joint_prob_normalizes(t, tstar, p):
    total = sum(joint_prob(t, tstar, p, m, x) for m, x in _joint_support(t, tstar))
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tstar", [0, 1, 2, 3, 5])
@pytest.mark.parametrize("p", [Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)])
def test_joint_prob_matches_exact_rational_oracle(tstar, p):
    for t in range(1, 31):
        for m, x in _joint_support(t, tstar):
            exact = float(exact_joint_prob(t, tstar, p, m, x))
            got = joint_prob(t, tstar, float(p), m, x)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("tstar", TSTARS)
def test_joint_prob_matches_enumeration(tstar):
    p = 0.3
    for t in (1, 3, 6, 9):
        grouped = {}
        for xs, n_succ, n_fail, age in enumerate_supported(t, tstar):
            x = xs[-1]
            if tstar == math.inf:
                m = age
            else:
                m = age if age >= 0 else tstar
            grouped[(m, x)] = grouped.get((m, x), 0.0) + \
                p ** n_succ * (1.0 - p) ** n_fail
        for (m, x), weight in grouped.items():
            assert joint_prob(t, tstar, p, m, x) == pytest.approx(weight, rel=1e-12)


def test_joint_prob_edge_probabilities():
    assert joint_prob(8, 3, 0.0, 3, 0) == 1.0
    assert joint_prob(8, 3, 0.0, 1, 1) == 0.0
    assert joint_prob(8, 3, 1.0, (8 - 1) % 4, 1) == 1.0
    assert joint_prob(8, 3, 1.0, 3, 0) == 0.0
    with pytest.raises(ValueError):
        joint_prob(5, 3, 0.5, 4, 1)
    with pytest.raises(ValueError):
        joint_prob(5, math.inf, 0.5, 0, 0)


@pytest.mark.parametrize("tstar", TSTARS)
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_prob_active_forms(tstar, p):
    for t in range(1, 15):
        if tstar == math.inf or t <= tstar + 1:
            assert prob_active(t, tstar, p) == pytest.approx(1 - (1 - p) ** t,
                                                             abs=1e-12)
        active = sum(joint_prob(t, tstar, p, m, 1) for m, x in
                     _joint_support(t, tstar) if x == 1)
        assert prob_active(t, tstar, p) == pytest.approx(active, abs=1e-12)


@pytest.mark.parametrize("tstar", [0, 3, 10, math.inf])
@pytest.mark.parametrize("p", [0.0, 1e-9, 0.3, 0.999, 1.0])
def test_prob_active_equals_the_active_row(tstar, p):
    last = 200 if tstar == math.inf else tstar + 3
    for t in range(1, last + 1):
        assert prob_active(t, tstar, p) == next(active_rows((t,), tstar, p)).prob_active


def test_prob_active_within_a_block_builds_no_row(monkeypatch):
    """At t <= t*+1, Pr[X(t) = 1] = 1 - (1-p)^t costs O(1), not a row of t
    joint terms."""
    def no_row(*args, **kwargs):
        raise AssertionError("active_rows called")

    monkeypatch.setattr(ca, "active_rows", no_row)
    for t, tstar in [(100_000, math.inf), (4, 3), (1, 0)]:
        assert prob_active(t, tstar, 0.3) == 1.0 - (1.0 - 0.3) ** t
    with pytest.raises(AssertionError, match="active_rows"):
        prob_active(5, 3, 0.3)


# ---------------------------------------------------------------------------
# steady state and fidelity expectations
# ---------------------------------------------------------------------------

def test_steady_state_values():
    ss = steady_state(2, 0.5)
    assert ss.prob_active_inf == pytest.approx(3 * 0.5 / 2.0)
    assert ss.joint_active_inf == {m: pytest.approx(0.25) for m in range(3)}
    assert ss.joint_failed_inf == pytest.approx(0.25)
    assert ss.conditional_m_inf == pytest.approx(1 / 3)
    inf_ss = steady_state("inf", 0.3)
    assert inf_ss.prob_active_inf == 1.0
    assert steady_state("inf", 0.0).prob_active_inf == 0.0


@pytest.mark.parametrize("tstar", [0, 2, 5])
@pytest.mark.parametrize("p", [0.2, 0.6])
def test_steady_state_is_large_t_limit(tstar, p):
    ss = steady_state(tstar, p)
    t = 2000
    assert prob_active(t, tstar, p) == pytest.approx(ss.prob_active_inf, abs=1e-8)
    for m in range(tstar + 1):
        assert joint_prob(t, tstar, p, m, 1) == pytest.approx(
            ss.joint_active_inf[m], abs=1e-8)


def test_fidelity_expectations():
    curve = FidelityCurve.depolarizing(1.0, 0.9, 4)
    fid = expected_fidelity_cutoff(6, 2, 0.4, curve)
    expected = sum(curve(m) * joint_prob(6, 2, 0.4, m, 1) for m in range(3))
    assert fid.e_ftilde == pytest.approx(expected, abs=1e-14)
    assert fid.e_f == pytest.approx(expected / prob_active(6, 2, 0.4), abs=1e-14)
    assert expected_fidelity_cutoff(4, 2, 0.0, curve).e_f is None

    steady = steady_fidelity_cutoff(2, 0.4, curve)
    assert steady.e_f == pytest.approx(sum(curve(m) for m in range(3)) / 3, abs=1e-14)
    # the finite-t expectation converges to the steady value
    late = expected_fidelity_cutoff(2000, 2, 0.4, curve)
    assert late.e_ftilde == pytest.approx(steady.e_ftilde, abs=1e-8)
    with pytest.raises(ValueError):
        steady_fidelity_cutoff("inf", 0.4, curve)


# ---------------------------------------------------------------------------
# success rate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tstar", [0, 1, 2, 3, 5, math.inf])
@pytest.mark.parametrize("p", [Fraction(1, 4), Fraction(3, 5)])
def test_success_rate_matches_exact_rational_oracle(tstar, p):
    for t in range(1, 31):
        exact = float(exact_success_rate(t, tstar, p))
        assert expected_success_rate(t, tstar, float(p)) == \
            pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("tstar", [0, 2, math.inf])
def test_success_rate_matches_history_enumeration(tstar):
    p = 0.35
    policy = cutoff_policy(tstar)
    for t in (1, 4, 8):
        expected = sum(w * h.n_succ() / h.n_req()
                       for h, w in iter_supported_histories(p, policy, t))
        assert expected_success_rate(t, tstar, p) == pytest.approx(expected,
                                                                   abs=1e-13)


def test_success_rate_limits_and_plateaus():
    finite = success_rate_limits(3, 0.3)
    assert finite.limit == 0.3
    inf = success_rate_limits("inf", 0.3)
    assert inf.limit == pytest.approx(-0.3 * math.log(0.3) / 0.7, abs=1e-14)
    # plateau(0) is the t -> infinity limit itself
    assert inf.plateau(0) == pytest.approx(inf.limit, abs=1e-12)
    assert success_rate_limits("inf", 0.0).limit == 0.0
    assert success_rate_limits("inf", 1.0).limit == 1.0
    with pytest.raises(ValueError):
        inf.plateau(-1)


def test_hyp2f1_series():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    for z in (0.05, 0.4, 0.9, -0.5):
        assert hyp2f1_series(1, 1, 2, z) == pytest.approx(-math.log1p(-z) / z,
                                                          rel=1e-12)
    # 2F1(1,b;b;z) = 1/(1-z)
    assert hyp2f1_series(1, 3, 3, 0.25) == pytest.approx(1 / 0.75, rel=1e-13)
    with pytest.raises(ValueError):
        hyp2f1_series(1, 1, 2, 1.0)
    with pytest.raises(ValueError):
        hyp2f1_series(1, 1, 0, 0.5)


# ---------------------------------------------------------------------------
# waiting time
# ---------------------------------------------------------------------------

def test_waiting_time_expectation_matches_pmf_series():
    wait = waiting_time(10, 5, 0.3)
    series = sum(t * wait.pmf(t) for t in range(1, 3000))
    assert wait.expectation == pytest.approx(series, rel=1e-12)
    assert wait.total_mass == pytest.approx(sum(wait.pmf(t) for t in range(1, 3000)),
                                            rel=1e-12)


def test_waiting_time_conditional_pmf_normalizes():
    for tstar in (0, 5, math.inf):
        wait = waiting_time(7, tstar, 0.4)
        total = sum(wait.conditional_pmf(t) for t in range(0, 2000))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert wait.conditional_pmf(1) == 0.0


def test_waiting_time_known_values():
    # fresh request at t_req = 0: the link is down iff the A(0) request failed
    wait = waiting_time(0, 4, 0.25)
    assert wait.expectation == pytest.approx(1 / 0.25, rel=1e-12)
    assert wait.limit == pytest.approx(1 / (0.25 * (1 + 4 * 0.25)), rel=1e-12)
    # infinite cutoff: q = (1-p)^(t_req+1), the limit vanishes
    inf_wait = waiting_time(3, math.inf, 0.5)
    assert inf_wait.expectation == pytest.approx(0.5 ** 4 / (0.5 * 0.5), rel=1e-12)
    assert inf_wait.limit == 0.0
    # the expectation approaches the limit for late requests
    late = waiting_time(3000, 4, 0.25)
    assert late.expectation == pytest.approx(late.limit, abs=1e-8)


def test_waiting_time_edge_probabilities():
    sure = waiting_time(5, 3, 1.0)
    assert sure.expectation == 1.0 and sure.pmf(1) == 1.0
    never = waiting_time(5, 3, 0.0)
    assert never.expectation == math.inf
    with pytest.raises(ValueError):
        waiting_time(-1, 3, 0.5)
    with pytest.raises(ValueError, match="t_req"):
        waiting_times([4, -1], 3, 0.5)
    assert waiting_times([], 3, 0.5) == []


def test_simulated_waiting_time_matches_formula():
    wait = waiting_time(10, 5, 0.3)
    mean, se = simulate_waiting_time(10, 5, 0.3, n_trials=40_000, seed=11)
    assert abs(mean - wait.expectation) < 4 * se
    with pytest.raises(ValueError):
        simulate_waiting_time(2, 3, 1.0, 10, seed=0)


# ---------------------------------------------------------------------------
# Markov-chain form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tstar", [0, 1, 3, math.inf])
@pytest.mark.parametrize("p", [0.2, 0.7])
def test_transition_matrix_is_column_stochastic(tstar, p):
    tm = transition_matrix(tstar, p)
    np.testing.assert_allclose(tm.matrix.sum(axis=0), 1.0, atol=1e-14)
    assert (tm.matrix >= 0).all()
    np.testing.assert_allclose(tm.initial_distribution().sum(), 1.0, atol=1e-14)


def test_transition_matrix_entries():
    tm = transition_matrix(2, 0.4)
    i = tm.state_index
    # active below the cutoff age: deterministically ages by one step
    assert tm.matrix[i((1, 1)), i((1, 0))] == 1.0
    assert tm.matrix[i((1, 2)), i((1, 1))] == 1.0
    # at the cutoff age or down: a fresh request is made
    for src in ((1, 2), (0, 0), (0, 1), (0, 2)):
        assert tm.matrix[i((1, 0)), i(src)] == pytest.approx(0.4)
        assert tm.matrix[i((0, 2)), i(src)] == pytest.approx(0.6)
    inf_tm = transition_matrix(math.inf, 0.4)
    np.testing.assert_allclose(inf_tm.matrix, [[0.6, 0.0], [0.4, 1.0]])


@pytest.mark.parametrize("tstar", [0, 2, 4])
def test_transition_matrix_powers_reproduce_joint(tstar):
    p = 0.35
    tm = transition_matrix(tstar, p)
    for t in (1, 2, 7, 20):
        dist = tm.distribution_at(t)
        for (x, m), idx in ((s, i) for i, s in enumerate(tm.states)):
            assert dist[idx] == pytest.approx(joint_prob(t, tstar, p, m, x),
                                              abs=1e-12)


def test_transition_matrix_infinite_powers():
    p = 0.35
    tm = transition_matrix(math.inf, p)
    for t in (1, 5, 15):
        dist = tm.distribution_at(t)
        assert dist[tm.state_index(0)] == pytest.approx((1 - p) ** t, abs=1e-12)
        assert dist[tm.state_index(1)] == pytest.approx(1 - (1 - p) ** t, abs=1e-12)


# ---------------------------------------------------------------------------
# the shared-series kernels against the term-at-a-time evaluation
# ---------------------------------------------------------------------------

ORACLE_PS = [0.0, 1e-9, 0.3, 1.0 - 1e-9, 1.0]
ORACLE_TSTARS = [0, 1, 2, 7, 35, math.inf]
# both sides of t*+1 for every cutoff, then one large t on its own
ORACLE_TIMES = list(range(1, 41)) + [1500]


def _ages(t, tstar):
    return range(t) if tstar == math.inf else range(min(t, tstar + 1))


@pytest.mark.parametrize("tstar", ORACLE_TSTARS)
@pytest.mark.parametrize("p", ORACLE_PS)
def test_closed_forms_equal_term_at_a_time_reference(tstar, p):
    """Every public closed form equals the lgamma-per-term reference under ==."""
    curve = FidelityCurve.depolarizing(1.0, 0.9, 4)
    for t in ORACLE_TIMES:
        for m in _ages(t, tstar):
            assert joint_prob(t, tstar, p, m, 1) == joint_prob_lgamma(t, tstar, p, m, 1)
        m0 = -1 if tstar == math.inf else tstar
        assert joint_prob(t, tstar, p, m0, 0) == joint_prob_lgamma(t, tstar, p, m0, 0)
        assert prob_active(t, tstar, p) == prob_active_lgamma(t, tstar, p)
        fid = expected_fidelity_cutoff(t, tstar, p, curve)
        assert (fid.e_ftilde, fid.e_f) == expected_fidelity_lgamma(t, tstar, p, curve)
        assert expected_success_rate(t, tstar, p) == expected_success_rate_lgamma(t, tstar, p)
        if 0.0 < p < 1.0:
            q = joint_prob_lgamma(t, tstar, p, m0, 0)
            assert waiting_time(t - 1, tstar, p).expectation == q / (p * (1.0 - p))


@pytest.mark.parametrize("tstar", ORACLE_TSTARS)
@pytest.mark.parametrize("p", ORACLE_PS)
def test_joint_prob_is_zero_off_the_support(tstar, p):
    """Pr[M = m, X = 1] is 0.0 at the ages m >= t a link cannot have yet,
    and Pr[M = m, X = 0] is 0.0 at every m but t* (the unloaded memory)."""
    for t in ORACLE_TIMES:
        top = t + 3 if tstar == math.inf else tstar
        for m in range(t, top + 1):
            assert joint_prob(t, tstar, p, m, 1) == 0.0
        if tstar != math.inf:
            for m in range(tstar):
                assert joint_prob(t, tstar, p, m, 0) == 0.0


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("args", [
    (5, math.inf, -1, 1),  # m = -1 is the unloaded memory, not an age
    (5, math.inf, -2, 1),  # no m below -1
    (5, math.inf, -5, 1),
    (5, math.inf, 0, 0),   # X = 0 at t* = inf needs m = -1
    (5, math.inf, 7, 0),
    (5, 3, -1, 1),         # m outside 0..t*
    (5, 3, 4, 1),
    (5, 3, -1, 0),
    (5, 3, 4, 0),
    (5, 3, 1, 2),          # x not a bit
    (5, math.inf, 1, -1),
    (0, 3, 1, 1),          # t < 1
    (-2, math.inf, 0, 1),
], ids=repr)
def test_joint_prob_rejects_states_outside_its_domain(args, p):
    t, tstar, m, x = args
    with pytest.raises(ValueError):
        joint_prob(t, tstar, p, m, x)


def test_joint_prob_at_infinite_cutoff_keeps_the_unloaded_state():
    """m = -1 with x = 0 is the down probability (1-p)^t at t* = inf; the
    ages a link cannot have yet read 0.0."""
    for t, p in [(1, 0.3), (5, 0.3), (40, 0.77)]:
        assert joint_prob(t, math.inf, p, -1, 0) == (1.0 - p) ** t
        assert joint_prob(t, math.inf, p, t, 1) == 0.0


@pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("tstar", [3, math.inf])
def test_joint_prob_rejects_probabilities_outside_0_1(tstar, p):
    for x in (0, 1):
        with pytest.raises(ValueError, match="probability"):
            joint_prob(5, tstar, p, -1 if tstar == math.inf and x == 0 else 0, x)


@pytest.mark.parametrize("tstar", ORACLE_TSTARS)
@pytest.mark.parametrize("p", ORACLE_PS)
def test_active_rows_equal_term_at_a_time_reference(tstar, p):
    """A series in any order, with repeats, equals the per-time reference."""
    curve = FidelityCurve.depolarizing(1.0, 0.9, 4)
    times = ORACLE_TIMES[::-1] + [3, 3, 1500]
    rows = list(active_rows(times, tstar, p, curve))
    assert [row.t for row in rows] == times
    for row in rows:
        t = row.t
        assert row.joint == tuple(joint_prob_lgamma(t, tstar, p, m, 1)
                                  for m in _ages(t, tstar))
        assert row.prob_active == prob_active_lgamma(t, tstar, p)
        assert (row.fidelity.e_ftilde, row.fidelity.e_f) == \
            expected_fidelity_lgamma(t, tstar, p, curve)
    assert all(row.fidelity is None for row in active_rows(times, tstar, p))


@pytest.mark.parametrize("curve", [
    FidelityCurve.constant(0.9),
    FidelityCurve.depolarizing(1.0, 0.8, 4),
    FidelityCurve.dephasing_bell(0.95),
], ids=["constant", "depolarizing", "dephasing_bell"])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_cutoff_table_equals_active_rows(p, curve):
    """The one-time table of every cutoff, at the optimizer's T+1, equals
    each cutoff's own `active_rows` row, t* >= T and infinity included."""
    for T in (1, 2, 3, 40, 500):
        tstars = list(range(T + 3)) + [math.inf]
        table = cutoff_table(T + 1, tstars, p, curve)
        assert len(table) == len(tstars)
        for tstar, values in zip(tstars, table):
            row = next(active_rows((T + 1,), tstar, p, curve))
            assert values == (row.fidelity.e_ftilde, row.prob_active, row.fidelity.e_f)


@pytest.mark.parametrize("tstar", [0, 3, 10, 200, "inf"])
def test_active_rows_short_rows_equal_the_per_age_products(tstar):
    """Rows at t <= t*+1 hold p (1-p)^(t-m-1) at every age m, the product
    formed per age, and the fidelity and E[S] sums over them."""
    curve = FidelityCurve.depolarizing(1.0, 0.9, 4)
    times = range(1, 260)
    block = math.inf if tstar == "inf" else tstar + 1
    for p in (0.0, 1e-9, 0.01, 0.3, 0.5, 0.999, 1.0):
        rows = list(active_rows(times, tstar, p, curve, success=True))
        assert [row.success_rate for row in rows] == \
            ca.expected_success_rates(times, tstar, p)
        for row in rows:
            if row.t > block:
                continue
            joint = tuple(p * (1.0 - p) ** (row.t - m - 1) for m in range(row.t))
            assert row.joint == joint
            assert row.prob_active == 1.0 - (1.0 - p) ** row.t
            e_ftilde = reduce(add, map(mul, map(curve, range(row.t)), joint), 0.0)
            assert row.fidelity.e_ftilde == e_ftilde


def test_active_rows_rejects_bad_input():
    with pytest.raises(ValueError, match="t must be"):
        list(active_rows([3, 0], 2, 0.3))
    with pytest.raises(ValueError, match="probability"):
        list(active_rows([3], 2, 1.5))
    assert list(active_rows([], 2, 0.3)) == []


# the cutoffs of the sweep benchmark, and p on both sides of 1/2
SERIES_TSTARS = [0, 1, 2, 3, 5, 8, 10, 20, 35, math.inf]
SERIES_PS = ORACLE_PS + [0.5, 0.9]
SERIES_TIMES = list(range(1, 401))
# unsorted, repeated, on both sides of each t*+1, and far beyond the dense grid
SPARSE_TIMES = [[1500], [1, 2, 8, 9, 500], [37, 3, 1500, 3, 36, 1, 37, 11, 2]]


def _expected_wait(t, tstar, p):
    """E[W] of a request at t_req = t-1 from the term-at-a-time Pr[M = t*,
    X(t) = 0]."""
    if p in (0.0, 1.0):
        return math.inf if p == 0.0 else 1.0
    q = joint_prob_lgamma(t, tstar, p, -1 if tstar == math.inf else tstar, 0)
    return q / (p * (1.0 - p))


@pytest.mark.parametrize("tstar", SERIES_TSTARS)
@pytest.mark.parametrize("p", SERIES_PS)
def test_success_rate_series_equals_term_at_a_time_reference(tstar, p):
    """E[S(t)] over a dense series, and over sparse, unsorted or repeated
    times, equals the lgamma-per-term reference at every t under ==; so do
    the waiting times of requests at t_req = t-1, 0 included."""
    for times in [SERIES_TIMES] + SPARSE_TIMES:
        assert expected_success_rates(times, tstar, p) == \
            [expected_success_rate_lgamma(t, tstar, p) for t in times]
        waits = waiting_times([t - 1 for t in times], tstar, p)
        assert [wait.t_req for wait in waits] == [t - 1 for t in times]
        assert [wait.expectation for wait in waits] == [_expected_wait(t, tstar, p)
                                                        for t in times]


@pytest.mark.parametrize("tstar", SERIES_TSTARS)
@pytest.mark.parametrize("p", SERIES_PS)
def test_active_rows_series_equal_term_at_a_time_reference(tstar, p):
    """The rows of a dense series, and of sparse, unsorted or repeated
    times, equal the lgamma-per-term joint probabilities under ==."""
    for times in [SERIES_TIMES] + SPARSE_TIMES:
        rows = list(active_rows(times, tstar, p))
        assert [row.t for row in rows] == times
        for row in rows:
            assert row.joint == tuple(joint_prob_lgamma(row.t, tstar, p, m, 1)
                                      for m in _ages(row.t, tstar))
            assert row.success_rate is None


@pytest.mark.parametrize("tstar", [0, 3, 35, math.inf])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.9])
def test_rows_with_success_rate_share_one_pass(tstar, p):
    """Rows asked for E[S(t)] carry the same joint row and the same E[S(t)]
    as the two series functions called on their own."""
    for times in [SERIES_TIMES] + SPARSE_TIMES:
        rows = list(active_rows(times, tstar, p, success=True))
        assert [row.joint for row in rows] == \
            [row.joint for row in active_rows(times, tstar, p)]
        assert [row.success_rate for row in rows] == \
            expected_success_rates(times, tstar, p)


def test_runs_merge_windows_that_touch_or_overlap():
    # windows 8..10 and 11..13 touch, 12..14 overlaps, 18..20 stands apart
    assert ca._runs([10, 13, 14, 20], 2) == [
        (8, 14, [(10, 10), (13, 14)]), (18, 20, [(20, 20)])]
    # 8..10 and 12..14 leave u = 11 out, so they stay apart
    assert ca._runs([10, 14], 2) == [(8, 10, [(10, 10)]), (12, 14, [(14, 14)])]
    assert ca._runs([5], 0) == [(5, 5, [(5, 5)])]


@pytest.mark.parametrize("chunk", [1, 2, 7, 100])
def test_binomial_sums_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    """Grouping b-rows, and splitting E[S]'s rows by columns, changes no
    bit: a single far time is a tall narrow group, a dense series one row
    at a time.  The same holds for the waiting times' down family.  All
    series take the numpy route, which alone reads the chunk size."""
    monkeypatch.setattr(ca, "_CHUNK", chunk)
    monkeypatch.setattr(ca, "_SHORT", 0)
    for tstar in [0, 1, 3, 8]:
        for p in [0.01, 0.3, 0.9]:
            for times in [list(range(1, 120)), [150], [37, 3, 90, 3, 36, 95, 99]]:
                rows = list(active_rows(times, tstar, p, success=True))
                for row in rows:
                    assert row.joint == tuple(joint_prob_lgamma(row.t, tstar, p, m, 1)
                                              for m in _ages(row.t, tstar))
                    assert row.success_rate == expected_success_rate_lgamma(row.t, tstar, p)
                waits = waiting_times([t - 1 for t in times], tstar, p)
                assert [wait.expectation for wait in waits] == [_expected_wait(t, tstar, p)
                                                                for t in times]


@pytest.mark.parametrize("tstar", [0, 1, 2, 5, 35])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.77, 0.999999])
def test_binomial_sums_are_equal_on_both_routes(monkeypatch, tstar, p):
    """The term-at-a-time route and the numpy route give the same bits for
    g, the down family and E[S], on dense, sparse and single-time series
    that end at the route threshold and one above it."""
    top = ca._SHORT
    for times in [range(1, top + 1), range(1, top + 2), [top], [top + 1],
                  [3, 40, 41, top - 7, top]]:
        long = sorted({t for t in times if t > tstar + 1})
        for want in [{"g"}, {"down"}, {"es"}, {"g", "es"}, {"g", "down", "es"}]:
            runs = ca._runs(long, tstar if want & {"g", "es"} else 0)
            monkeypatch.setattr(ca, "_SHORT", 0)
            by_numpy = ca._binomial_sums(runs, tstar, p, want)
            monkeypatch.setattr(ca, "_SHORT", MAX_TIME)
            by_terms = ca._binomial_sums(runs, tstar, p, want)
            assert by_terms == by_numpy
            assert all(by_terms[name] for name in want)


def test_success_rate_series_rejects_bad_input():
    with pytest.raises(ValueError, match="t must be"):
        expected_success_rates([3, 0], 2, 0.3)
    with pytest.raises(ValueError, match="probability"):
        expected_success_rates([3], 2, 1.5)
    assert expected_success_rates([], 2, 0.3) == []
    assert expected_success_rates([1, 50], 2, 0) == [0.0, 0.0]


def test_log_factorial_table_is_thread_safe(monkeypatch):
    """4 threads that grow the shared table in lockstep from cold lose or
    misplace no entry, as library callers on several threads may."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            cold = array("d", [0.0])
            monkeypatch.setattr(ca, "_LOG_FACTORIAL", cold)
            start = threading.Barrier(4)

            def grow():
                start.wait(timeout=10)
                for n in range(0, 5000, 7):
                    ca._log_factorials(n)

            workers = [threading.Thread(target=grow) for _ in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            table = ca._LOG_FACTORIAL
            assert len(table) > 4990
            assert table.tolist() == [math.lgamma(k + 1) for k in range(len(table))]
            assert cold.tolist() == [0.0]  # grown by rebinding, never in place
    finally:
        sys.setswitchinterval(interval)


def test_log_factorial_table_grows_while_a_view_of_it_is_held(monkeypatch):
    """A reader's ``np.frombuffer`` view pins the array it was made from
    (``array.extend`` would raise BufferError), so growing the table
    rebinds it and leaves the view's entries as they were."""
    monkeypatch.setattr(ca, "_LOG_FACTORIAL", array("d", [0.0]))
    view = np.frombuffer(ca._log_factorials(10), float)
    with pytest.raises(BufferError):
        ca._LOG_FACTORIAL.extend([0.0])
    grown = ca._log_factorials(1000)
    assert len(grown) > 1000 and grown[:len(view)].tolist() == view.tolist()
    assert grown.tolist() == [math.lgamma(k + 1) for k in range(len(grown))]
