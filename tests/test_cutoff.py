"""Closed-form cutoff-policy analytics against independent oracles."""

import math
import sys
import threading
import tracemalloc
from array import array
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qlink.cutoff as ca
from qlink.config import MAX_TIME
from qlink.cutoff import (
    LinkState,
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
    parse_cutoff,
    prob_active,
    sequence_stats,
    steady_state,
    success_rate_limits,
    transition_matrix,
    waiting_time,
    waiting_times,
)
from qlink.engine import (
    History,
    LinkParams,
    evolve_exhaustive,
    history_prob,
    iter_supported_histories,
    simulate_trajectories,
)
from qlink.network import ParallelLinkSpec
from qlink.optimize import backward_recursion_reduced, evaluate_state_policy
from qlink.quantum import FidelityCurve, memory_evolve, preset_channel, preset_state

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
# the cutoff as a number
# ---------------------------------------------------------------------------

def test_parse_cutoff():
    """A cutoff parses to an int or math.inf; the int spells as the number."""
    for value, expected in [(3, 3), ("7", 7), (4.0, 4), (np.int64(5), 5),
                            ("inf", math.inf), ("Infinity", math.inf),
                            (math.inf, math.inf)]:
        ts = parse_cutoff(value)
        assert ts == expected and type(ts) is type(expected)
    assert f"{parse_cutoff('inf')}" == "inf" and f"{parse_cutoff(4.0)}" == "4"
    for value in (-1, 2.5, True, False, np.True_, np.bool_(False), "2.5", "x", None, [3],
                  math.nan, -math.inf):
        with pytest.raises(ValueError, match="cutoff must be"):
            parse_cutoff(value)


# the accessors whose times `_checked_times` checks, with the smallest time each takes
TIME_ACCESSORS = {
    "prob_active": (lambda t: prob_active(t, 3, 0.3), 1),
    "joint_prob": (lambda t: joint_prob(t, 3, 0.3, 0, 1), 1),
    "active_rows": (lambda t: list(active_rows((t,), 3, 0.3)), 1),
    "expected_success_rates": (lambda t: expected_success_rates((t,), 3, 0.3), 1),
    "cutoff_table": (lambda t: cutoff_table(t, [3, "inf"], 0.3, lambda m: 1.0), 1),
    "waiting_times": (lambda t: [w.expectation for w in waiting_times((t,), 3, 0.3)], 0),
    "parallel_link": (lambda t: ParallelLinkSpec(0.3, 3).prob_active(t), 1),
    "count_sequences": (lambda t: count_sequences(t, 3), 1),
    "history_prob_cutoff": (lambda t: history_prob_cutoff(ca.SequenceStats(0, 1), t, 3, 0.3), 1),
    "distribution_at": (lambda t: transition_matrix(3, 0.3).distribution_at(t).tolist(), 1),
}


@pytest.mark.parametrize("name", TIME_ACCESSORS)
def test_accessors_take_only_integer_times(name):
    """A time is an integer at or above the accessor's smallest time: a
    bool, a float (integral or not) or a string raises ValueError, and a
    numpy integer gives the int's value."""
    accessor, low = TIME_ACCESSORS[name]
    for t in (2.5, 10.5, 10.7, 10.0, True, "10", None, low - 1):
        with pytest.raises(ValueError, match="must be an integer >= "):
            accessor(t)
    accessor(low)
    assert accessor(np.int64(10)) == accessor(10)


# ---------------------------------------------------------------------------
# the argument contract
# ---------------------------------------------------------------------------

_CURVE = FidelityCurve.dephasing_bell(0.9)
_PARAMS = LinkParams(0.3, _CURVE)
_WERNER = preset_state("werner", f0=0.9)
_DEPHASING = preset_channel("dephasing", 4, 0.9)

# Each public call that checks an argument with `cutoff`'s checkers, taking
# that one argument: (call, kind, a valid value).  The kind is ("int", low),
# "prob", "bits" (a sequence) or "cutoff", and each call returns a value
# that compares with ==.
ARGUMENTS = {
    "parse_cutoff": (parse_cutoff, "cutoff", 5),
    "count_sequences.t": (lambda t: count_sequences(t, 3), ("int", 1), 6),
    "history_prob_cutoff.t": (
        lambda t: history_prob_cutoff(ca.SequenceStats(0, 1), t, 3, 0.3), ("int", 1), 6),
    "history_prob_cutoff.p": (
        lambda p: history_prob_cutoff(ca.SequenceStats(0, 1), 6, 3, p), "prob", 0.3),
    "SequenceStats.y1": (lambda y1: ca.SequenceStats(y1, 1), ("int", 0), 2),
    "SequenceStats.y2": (lambda y2: ca.SequenceStats(1, y2), ("int", 0), 2),
    "joint_prob.t": (lambda t: joint_prob(t, 3, 0.3, 2, 1), ("int", 1), 9),
    "joint_prob.m": (lambda m: joint_prob(9, 3, 0.3, m, 1), ("int", 0), 2),
    "joint_prob.x": (lambda x: joint_prob(9, 3, 0.3, 3, x), "bit", 1),
    "joint_prob.p": (lambda p: joint_prob(9, 3, p, 2, 1), "prob", 0.3),
    "prob_active.t": (lambda t: prob_active(t, 3, 0.3), ("int", 1), 9),
    "active_rows.p": (lambda p: list(active_rows((5, 9), 3, p)), "prob", 0.3),
    "plateau": (success_rate_limits("inf", 0.3).plateau, ("int", 0), 2),
    "WaitingTime.pmf": (waiting_time(3, 2, 0.3).pmf, ("int", 0), 4),
    "WaitingTime.conditional_pmf": (waiting_time(3, 2, 0.3).conditional_pmf, ("int", 0), 4),
    "distribution_at": (
        lambda t: transition_matrix(3, 0.3).distribution_at(t).tolist(), ("int", 1), 6),
    "memory_time_cutoff": (lambda xs: memory_time_cutoff(xs, 2), "bits", [1, 0, 1, 1]),
    "sequence_stats": (lambda xs: sequence_stats(xs, 1), "bits", [1, 1, 0, 1]),
    "History.observations": (lambda xs: History(xs, (1, 0)), "bits", [0, 1, 1]),
    "History.actions": (lambda acts: History((0, 1, 1), acts), "bits", [1, 0]),
    "history_prob.p": (
        lambda p: history_prob(History((1, 1, 0), (0, 1)), cutoff_policy(1), p), "prob", 0.3),
    "LinkParams.p": (lambda p: LinkParams(p, _CURVE), "prob", 0.3),
    "iter_supported_histories": (
        lambda h: list(iter_supported_histories(0.3, cutoff_policy(1), h)), ("int", 1), 3),
    "iter_supported_histories.p": (  # refused at the call, before any history
        lambda p: iter_supported_histories(p, cutoff_policy(1), 3), "prob", 0.3),
    "evolve_exhaustive": (
        lambda h: evolve_exhaustive(_PARAMS, cutoff_policy(1), h), ("int", 1), 3),
    "simulate_trajectories.horizon": (
        lambda h: simulate_trajectories(_PARAMS, cutoff_policy(1), h, 5, 1), ("int", 1), 3),
    "simulate_trajectories.n_trials": (
        lambda n: simulate_trajectories(_PARAMS, cutoff_policy(1), 3, n, 1), ("int", 1), 5),
    "simulate_trajectories.seed": (
        lambda seed: simulate_trajectories(_PARAMS, cutoff_policy(1), 3, 5, seed), ("int", 0), 7),
    "evaluate_state_policy": (
        lambda t: evaluate_state_policy(_PARAMS, cutoff_policy(1), t), ("int", 1), 4),
    "backward_recursion_reduced": (
        lambda T: backward_recursion_reduced(_PARAMS, T).optimal_value, ("int", 0), 4),
    "ParallelLinkSpec.p": (lambda p: ParallelLinkSpec(p, 3), "prob", 0.3),
    "memory_evolve": (
        lambda m: memory_evolve(_WERNER, _DEPHASING, m).matrix.tolist(), ("int", 0), 2),
    "preset_channel.lam": (
        lambda lam: [op.tolist() for op in preset_channel("depolarizing", 2, lam).kraus_ops],
        "prob", 0.9),
    "preset_channel.dim": (
        lambda dim: [op.tolist() for op in preset_channel("depolarizing", dim, 0.9).kraus_ops],
        ("int", 1), 2),
    "preset_state.werner": (
        lambda f0: preset_state("werner", f0=f0).matrix.tolist(), "prob", 0.9),
    "preset_state.ghz": (
        lambda k: preset_state("ghz", k=k).amplitudes.tolist(), ("int", 2), 3),
    "FidelityCurve.constant": (lambda f0: FidelityCurve.constant(f0)(3), "prob", 0.9),
    "FidelityCurve.depolarizing.f0": (
        lambda f0: FidelityCurve.depolarizing(f0, 0.9, 4)(3), "prob", 0.9),
    "FidelityCurve.depolarizing.lam": (
        lambda lam: FidelityCurve.depolarizing(1.0, lam, 4)(3), "prob", 0.9),
    "FidelityCurve.depolarizing.dim": (
        lambda dim: FidelityCurve.depolarizing(1.0, 0.9, dim)(3), ("int", 1), 4),
    "FidelityCurve.dephasing_bell": (
        lambda lam: FidelityCurve.dephasing_bell(lam)(3), "prob", 0.9),
    "FidelityCurve.__call__": (_CURVE, ("int", 0), 3),
}

_NUMPY_BOOLS = st.sampled_from([np.True_, np.False_])


def _malformed(kind) -> st.SearchStrategy:
    """Values the contract refuses for an argument of ``kind``: bools, numpy
    bools, strings and None always; for an integer or a bit every float and
    the integers out of range; for a probability the floats and integers
    outside [0, 1] and NaN; for a cutoff the negative or non-integral floats
    and integers and the strings that spell no number."""
    common = [st.booleans(), _NUMPY_BOOLS, st.none()]
    if kind == "prob":
        outside = lambda v: not 0 <= v <= 1  # NaN too
        return st.one_of(*common, st.text(), st.floats().filter(outside),
                         st.integers().filter(outside))
    if kind == "cutoff":
        return st.one_of(*common, st.text(alphabet="abcdeghjk.-+ "),
                         st.floats().filter(lambda v: not (v >= 0 and (v == math.inf
                                                                         or v.is_integer()))),
                         st.integers(max_value=-1))
    low, high = (0, 1) if kind in ("bit", "bits") else (kind[1], math.inf)
    return st.one_of(*common, st.text(), st.floats(),
                     st.integers().filter(lambda v: not low <= v <= high))


@pytest.mark.parametrize("name", ARGUMENTS)
def test_every_checked_argument_refuses_malformed_values(name):
    """Each call raises ValueError, never TypeError and never a result, when
    its one argument is replaced by a malformed value (in a sequence of
    bits, one entry, or the whole argument by a value that is no sequence);
    a numpy integer gives what the equal int gives."""
    call, kind, valid = ARGUMENTS[name]
    if kind == "bits":
        assert call([np.int64(x) for x in valid]) == call(valid)
    elif kind != "prob":
        assert call(np.int64(valid)) == call(valid)

    @given(bad=_malformed(kind), at=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def refuses(bad, at):
        if kind == "bits":
            bad = [*valid[:at % len(valid)], bad, *valid[at % len(valid) + 1:]]
        with pytest.raises(ValueError):
            call(bad)

    refuses()
    for bad in ((5, 1, None, 1.5, True, np.True_) if kind == "bits" else ()):
        with pytest.raises(ValueError):
            call(bad)


def test_cutoff_policy_decisions():
    """The state rule at ages a link can have, m < t."""
    rule = cutoff_policy(2).decide_state
    assert rule(1, 0, -1) == 1.0  # down: request
    assert rule(1, 1, 0) == 0.0   # fresh link: hold
    assert rule(2, 1, 1) == 0.0
    assert rule(3, 1, 2) == 1.0   # at cutoff age: discard and re-request
    inf_rule = cutoff_policy("inf").decide_state
    assert inf_rule(1, 0, -1) == 1.0
    assert inf_rule(100, 1, 99) == 0.0


@pytest.mark.parametrize("tstar", [0, 3, "inf"])
def test_cutoff_policy_runs_are_the_run_length_encoded_rule(tstar):
    """``decide_runs(t)`` is the run-length encoding of the cutoff rule
    (request iff unloaded or held for t* steps) over ages 0..t-1, at every
    t, in any order of calls, and ``decide_state`` is that rule there."""
    policy = cutoff_policy(tstar)
    ts = parse_cutoff(tstar)
    rule = lambda t, x, m: 1.0 if (m == -1 or m >= ts) else 0.0
    for t in (1, 5, 2, 40, 7, 41, 300, 3, 4):
        down, starts, probs = policy.decide_runs(t)
        assert down == rule(t, 0, -1) == policy.decide_state(t, 0, -1) == 1.0
        assert all(policy.decide_state(t, 1, m) == rule(t, 1, m) for m in range(t))
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
    stats = sequence_stats((1, 1, 0, 1, 1, 1), "inf")
    assert (stats.y1, stats.y2) == (0, 3)


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
    assert isinstance(ss, LinkState) and ss.t == math.inf
    assert ss.prob_active == pytest.approx(3 * 0.5 / 2.0)
    assert ss.joint == (pytest.approx(0.25),) * 3
    assert 1.0 - ss.prob_active == pytest.approx(0.25)
    assert ss.e_ftilde is None and ss.e_f is None
    inf_ss = steady_state("inf", 0.3)
    assert inf_ss.prob_active == 1.0 and inf_ss.joint == ()
    assert steady_state("inf", 0.0).prob_active == 0.0


@pytest.mark.parametrize("tstar", [0, 2, 5])
@pytest.mark.parametrize("p", [0.2, 0.6])
def test_steady_state_is_large_t_limit(tstar, p):
    ss = steady_state(tstar, p)
    t = 2000
    assert prob_active(t, tstar, p) == pytest.approx(ss.prob_active, abs=1e-8)
    for m in range(tstar + 1):
        assert joint_prob(t, tstar, p, m, 1) == pytest.approx(ss.joint[m], abs=1e-8)


def test_fidelity_expectations():
    curve = FidelityCurve.depolarizing(1.0, 0.9, 4)
    fid = expected_fidelity_cutoff(6, 2, 0.4, curve)
    expected = sum(curve(m) * joint_prob(6, 2, 0.4, m, 1) for m in range(3))
    assert fid.e_ftilde == pytest.approx(expected, abs=1e-14)
    assert fid.e_f == pytest.approx(expected / prob_active(6, 2, 0.4), abs=1e-14)
    assert expected_fidelity_cutoff(4, 2, 0.0, curve).e_f is None

    steady = steady_state(2, 0.4, curve)
    assert steady.e_f == pytest.approx(sum(curve(m) for m in range(3)) / 3, abs=1e-14)
    assert steady.e_ftilde == pytest.approx(
        sum(curve(m) * w for m, w in enumerate(steady.joint)), abs=1e-14)
    # the finite-t expectation converges to the steady value
    late = expected_fidelity_cutoff(2000, 2, 0.4, curve)
    assert late.e_ftilde == pytest.approx(steady.e_ftilde, abs=1e-8)
    never = steady_state(2, 0.0, curve)
    assert (never.e_ftilde, never.e_f) == (0.0, None)
    with pytest.raises(ValueError):
        steady_state("inf", 0.4, curve)


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
    # the edge values of p hold E[S] at p on every plateau, and reject
    # a negative index as the interior does
    for p in (0.0, 1.0):
        for tstar in (3, "inf"):
            edge = success_rate_limits(tstar, p)
            assert edge.limit == p and edge.plateau(0) == edge.plateau(5) == p
            with pytest.raises(ValueError, match="plateau index"):
                edge.plateau(-1)


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
    np.testing.assert_allclose(tm.distribution_at(1).sum(), 1.0, atol=1e-14)


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


@pytest.mark.parametrize("tstar", [0, 1, 4, 30, math.inf])
def test_joint_prob_in_the_first_block_is_the_row_entry(tstar):
    """At x = 1 and t <= t*+1, `joint_prob` equals the `active_rows` entry
    under ``==`` (0.0 past the row), p near 0 and 1 and t* = inf included."""
    block = tstar + 1
    for p in (0.0, 1e-9, 0.01, 0.3, 0.999, 1.0):
        for t in range(1, min(block, 40) + 1):
            joint = next(active_rows((t,), tstar, p)).joint
            ages = range(t + 2) if tstar == math.inf else range(tstar + 1)
            assert [joint_prob(t, tstar, p, m, 1) for m in ages] == \
                [joint[m] if m < t else 0.0 for m in ages]


def test_joint_prob_in_the_first_block_builds_no_row(monkeypatch):
    """Within the first block `joint_prob` at x = 1 never calls
    `active_rows`: t = 10^5 at t* = inf is O(1)."""
    def refuse(*args, **kwargs):
        raise AssertionError("active_rows called")

    monkeypatch.setattr(ca, "active_rows", refuse)
    assert joint_prob(100_000, math.inf, 0.3, 99_990, 1) == 0.3 * (1.0 - 0.3) ** 9 > 0.0
    assert joint_prob(100_000, "inf", 1e-6, 99_999, 1) == 1e-6
    assert joint_prob(7, 10, 0.3, 2, 1) == 0.3 * (1.0 - 0.3) ** 4
    assert joint_prob(7, 10, 0.3, 9, 1) == 0.0
    with pytest.raises(AssertionError, match="active_rows"):
        joint_prob(12, 10, 0.3, 2, 1)  # past the first block: the series row


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
        assert (row.e_ftilde, row.e_f) == expected_fidelity_lgamma(t, tstar, p, curve)
    assert all(row.e_ftilde is row.e_f is None for row in active_rows(times, tstar, p))


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
            assert values == (row.e_ftilde, row.prob_active, row.e_f)


@pytest.mark.parametrize("p", [1e-9, 0.01, 0.3, 0.999999])
def test_long_cutoff_table_equals_active_rows(p):
    """At t = 1500 the table's sums, over blocks with more b-rows than the
    shared table holds and over blocks of two rows, equal each cutoff's
    `active_rows` row, which the numpy kernel sums."""
    curve = FidelityCurve.dephasing_bell(0.95)
    t = 1500
    tstars = [0, 1, 2, 7, 26, 27, 28, 52, 53, 54, 100, 748, 749, 750, t - 2, t - 1, t, math.inf]
    table = cutoff_table(t, tstars, p, curve)
    for tstar, values in zip(tstars, table):
        row = next(active_rows((t,), tstar, p, curve))
        assert values == (row.e_ftilde, row.prob_active, row.e_f), tstar


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
            assert row.e_ftilde == e_ftilde


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


BACKENDS = [(math.inf, ca._Lines), (0, ca._NumpyLines)]  # (`_SHORT_TERMS`, the lines it picks)


@pytest.mark.parametrize("by_rows", [True, False], ids=["rows", "columns"])
@pytest.mark.parametrize("bound, lines", BACKENDS, ids=["python", "numpy"])
def test_walk_by_rows_or_columns_equals_references_on_each_backend(monkeypatch, by_rows,
                                                                   bound, lines):
    """A walk forced to take every group by rows, or every run by columns,
    gives the term-at-a-time references under ==, for g, E[S] and the
    waiting times' down family, on Python lines and on numpy lines: a
    single far time, a dense series and sparse times.  Pieces of b of at
    most 3 rows make a column several pieces long."""
    term_sums, backends = ca._term_sums, []
    monkeypatch.setattr(ca, "_term_sums", lambda *args: backends.append(args[3])
                        or term_sums(*args))
    monkeypatch.setattr(ca, "_by_rows", lambda depth, width: by_rows)
    monkeypatch.setattr(ca, "_PIECE", 7)
    monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
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
    assert set(backends) == {lines}


WANTS = [{"g"}, {"down"}, {"es"}, {"g", "es"}, {"g", "down", "es"}]


def _both_routes(monkeypatch, times, tstar, p, want):
    """`_long_sums`' sums for ``tstar`` over ``times`` on numpy lines, then
    on Python lines, each from one walk on the lines asked for."""
    term_sums, backends, by_route = ca._term_sums, [], []
    monkeypatch.setattr(ca, "_term_sums", lambda *args: backends.append(args[3])
                        or term_sums(*args))
    for bound, lines in reversed(BACKENDS):
        monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
        by_route.append(ca._long_sums(list(times), (tstar,), p, want)[0])
        assert backends == [lines]
        backends.clear()
    monkeypatch.setattr(ca, "_term_sums", term_sums)
    return by_route


@pytest.mark.parametrize("tstar", [0, 1, 2, 5, 35, 127])
@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.77, 0.999999])
def test_binomial_sums_are_equal_on_both_routes(monkeypatch, tstar, p):
    """The walk on Python lines and on numpy lines gives the same bits for
    g, the down family and E[S], on dense, sparse and single-time series,
    with times on both sides of a block boundary of t* = 127."""
    for times in [range(1, 301), [3, 40, 41, 128, 129, 130, 257, 300], [129], [300]]:
        for want in WANTS:
            by_numpy, by_python = _both_routes(monkeypatch, times, tstar, p, want)
            assert by_python == by_numpy
            assert all(by_python[name] for name in want)


@pytest.mark.parametrize("tstar, p", [(0, 0.3), (5, 0.01)])
def test_binomial_sums_are_equal_on_both_routes_at_the_bound(monkeypatch, tstar, p):
    """The dense series 1..T with the most g terms at or under
    `_SHORT_TERMS` is walked on Python lines, and 1..T+1 on numpy lines;
    each gives the other lines' bits."""
    bound, term_sums, backends = ca._SHORT_TERMS, ca._term_sums, []
    # g(u) has ceil(u / (t*+1)) terms, and the series 1..T forms g at u = 2..T
    g_terms = accumulate(len(range(0, u, tstar + 1)) for u in range(2, MAX_TIME))
    top = next(u for u, total in enumerate(g_terms, start=2) if total > bound) - 1
    for times, lines in [(range(1, top + 1), ca._Lines), (range(1, top + 2), ca._NumpyLines)]:
        want = {"g", "down", "es"}
        monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
        monkeypatch.setattr(ca, "_term_sums", lambda *args: backends.append(args[3])
                            or term_sums(*args))
        routed = ca._long_sums(list(times), (tstar,), p, want)[0]
        assert backends == [lines]
        backends.clear()
        monkeypatch.setattr(ca, "_term_sums", term_sums)
        assert _both_routes(monkeypatch, times, tstar, p, want) == [routed, routed]


def test_python_route_memory_is_linear_in_the_series():
    """At the route bound, g and E[S] at t* = 0 over t = 1..499 peak at
    less than 512 KB beyond their sums on Python lines: a row of terms
    and the sums by u at a time, not every term of the series (4 MB)."""
    top = max(t for t in range(2, 2000) if t * (t + 1) // 2 - 1 <= ca._SHORT_TERMS)
    runs = ca._runs(list(range(2, top + 1)), 0)
    ca._log_factorials(top)  # grow the shared table first
    tracemalloc.start()
    try:
        sums = ca._term_sums([(runs, 0)], 0.3, {"g", "es"}, ca._Lines)[0]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sums["es"]) == top - 1
    assert peak - held < 512 * 1024


def test_python_route_lists_no_table_past_the_bound(monkeypatch):
    """A single down time forms few terms, but Python lines list their
    tables up to that time: at t = `_SHORT_TERMS` they peak under 10 MB
    beyond the sum (importing numpy costs 13 MB), and one step later the
    series is walked on numpy lines.  Both give the same bits."""
    bound, term_sums, backends = ca._SHORT_TERMS, ca._term_sums, []
    monkeypatch.setattr(ca, "_term_sums", lambda *args: backends.append(args[3])
                        or term_sums(*args))
    ca._log_factorials(bound + 1)  # grow the shared table first
    tracemalloc.start()
    try:
        down = ca._long_sums([bound], (1000,), 0.3, {"down"})[0]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert backends == [ca._Lines] and peak - held < 10 * 1024 * 1024
    monkeypatch.setattr(ca, "_SHORT_TERMS", 0)
    assert ca._long_sums([bound], (1000,), 0.3, {"down"})[0] == down
    monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
    assert backends[1:] == [ca._NumpyLines]
    backends.clear()
    past = ca._long_sums([bound + 1], (1000,), 0.3, {"down"})[0]
    assert backends == [ca._NumpyLines] and past["down"][bound + 1] > 0.0


def test_numpy_lines_memory_is_bounded_at_a_far_time():
    """The down family at the one time t = 10^6, t* = 0 (a column of 10^6
    terms) peaks at less than 2 MB beyond its sum on numpy lines: the
    column is walked in pieces of `_PIECE` // 2 terms, and no table but
    the shared log factorials is listed, where the whole column would take
    8 MB as float64 and 32 MB as Python floats.  Python lines give the
    same bits."""
    t = 10 ** 6
    runs = ca._runs([t], 0)
    ca._log_factorials(t)  # grow the shared table first
    tracemalloc.start()
    try:
        down = ca._term_sums([(runs, 0)], 0.3, {"down"}, ca._NumpyLines)[0]
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 2 * 1024 * 1024
    assert down == ca._term_sums([(runs, 0)], 0.3, {"down"}, ca._Lines)[0]
    assert down["down"][t] > 0.0


SHARED_TSTARS = [0, 1, 2, 3, 5, 8, 10, 20, 35, 127]
# dense, stepped, sparse and unsorted times, and single far times that the
# walk takes by columns at t* = 0 and 1
SHARED_TIMES = [range(1, 301), range(1, 400, 7), [3, 40, 41, 128, 129, 130, 257, 300],
                [300, 37, 3, 36, 37, 129]]
FAR_TIMES = [[1500], [2000, 2001]]


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.77, 0.999999])
def test_shared_walk_equals_each_cutoff_on_both_routes(monkeypatch, p):
    """The sums of several cutoffs in one walk over the terms equal, under
    ==, each cutoff's sums alone, for every family, on Python lines and on
    numpy lines; the cutoffs of each call share a single `_term_sums` on
    the lines its bound picks."""
    term_sums, walks = ca._term_sums, []
    monkeypatch.setattr(ca, "_term_sums", lambda *args: walks.append((len(args[0]), args[3]))
                        or term_sums(*args))
    cases = [(times, SHARED_TSTARS) for times in SHARED_TIMES]
    cases += [(times, [0, 1]) for times in FAR_TIMES]
    for times, tstars in cases:
        for want in WANTS:
            by_backend = []
            for bound, lines in BACKENDS:
                monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
                walks.clear()
                by_backend.append(ca._long_sums(list(times), tstars, p, want))
                assert walks == [(len(tstars), lines)]
            shared = by_backend[0]
            assert shared == by_backend[1]
            assert shared == [ca._long_sums(list(times), (ts,), p, want)[0] for ts in tstars]
            assert all(sums[name] for sums, ts in zip(shared, tstars) for name in want
                       if any(t > ts + 1 for t in times))


@pytest.mark.parametrize("p", [1e-6, 0.3, 0.999999])
def test_shared_walk_rows_equal_term_at_a_time_reference(p):
    """The rows of `active_rows_by_cutoff` equal the lgamma-per-term joint
    probabilities and E[S(t)] under ==, on dense, stepped, sparse and far
    times."""
    cases = [(range(1, 161), SHARED_TSTARS), (range(1, 300, 13), SHARED_TSTARS),
             (SHARED_TIMES[2], SHARED_TSTARS)] + [(times, [0, 1]) for times in FAR_TIMES]
    for times, tstars in cases:
        for tstar, rows in zip(tstars, ca.active_rows_by_cutoff(times, tstars, p, success=True)):
            for t, row in zip(times, rows):
                assert row.t == t
                assert row.joint == tuple(joint_prob_lgamma(t, tstar, p, m, 1)
                                          for m in _ages(t, tstar))
                assert row.success_rate == expected_success_rate_lgamma(t, tstar, p)


def test_far_cutoff_success_rate_equals_both_routes(monkeypatch):
    """E[S] at t = 10^5 + 2 with t* = 10^5 walks 10^5 + 1 k-terms in a
    row: on Python lines its chain of `map(add, ...)` is listed every
    `_CHAIN` levels, so it does not overflow the C stack, and the sum
    equals numpy lines' and the term-at-a-time reference."""
    t, tstar = 100_002, 100_000
    by_python = expected_success_rate(t, tstar, 0.3)
    monkeypatch.setattr(ca, "_SHORT_TERMS", 0)
    assert expected_success_rate(t, tstar, 0.3) == by_python
    assert by_python == expected_success_rate_lgamma(t, tstar, 0.3)


def test_sweep_forms_each_term_once(monkeypatch):
    """A sweep over t* forms each (F, b) cell's g term and down term once:
    as many `math.exp` calls as the smallest cutoff alone, 2 sum_u u over
    u = 2..400 (b = 0..u-1 at t* = 0), where a walk per cutoff makes more
    than twice as many."""
    exps = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: exps.append(1) or exp(x))
    tstars, times = [0, 1, 2, 3, 5, 8, 10, 20, 35, math.inf], range(1, 401)
    for rows in ca.active_rows_by_cutoff(times, tstars, 0.3, success=True):
        list(rows)
    shared, alone = len(exps), []
    for tstar in tstars:
        exps.clear()
        list(active_rows(times, tstar, 0.3, success=True))
        alone.append(len(exps))
    assert shared == alone[0] == 2 * sum(range(2, 401))
    assert sum(alone) > 2 * shared


def test_shared_walk_memory_is_linear_in_the_series():
    """At the sweep-grid shape (nine finite cutoffs, t = 1..400, g and
    E[S]) one walk peaks at less than 256 KB beyond its sums: a row of
    terms and each cutoff's sums by u at a time, not the 160k terms of the
    series (5 MB)."""
    times, tstars = list(range(1, 401)), [0, 1, 2, 3, 5, 8, 10, 20, 35]
    ca._long_sums(times, tstars, 0.3, {"g", "es"})  # grow the shared log-factorial table first
    tracemalloc.start()
    try:
        sums = ca._long_sums(times, tstars, 0.3, {"g", "es"})
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s["es"]) for s in sums] == [399 - ts for ts in tstars]
    assert peak - held < 256 * 1024


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


def test_log_factorial_table_grows_in_one_pass(monkeypatch):
    """Growing the table allocates about the grown table, not also the new
    entries beside it, which a concatenation would."""
    monkeypatch.setattr(ca, "_LOG_FACTORIAL", array("d", [0.0]))
    ca._log_factorials(1 << 16)
    tracemalloc.start()
    try:
        grown = ca._log_factorials(1 << 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grown) == (1 << 18) + 1
    assert grown.tolist() == [math.lgamma(k + 1) for k in range(len(grown))]
    assert peak < 1.2 * len(grown) * grown.itemsize, peak


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
