"""Finite-horizon policy optimization: the three routes and their tables."""

import math
import random
import tracemalloc
from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul

import pytest

from qlink.cutoff import cutoff_policy
from qlink.engine import LinkParams, Policy, simulate_trajectories
from qlink.optimize import (
    PolicyEvaluation,
    _pairwise_sum,
    backward_recursion_reduced,
    evaluate_state_policy,
    forward_greedy,
)
from qlink.quantum import FidelityCurve

import oracles
from oracles import (
    EXHAUSTIVE_ENGINE_MAX_T,
    EXHAUSTIVE_TENSOR_MAX_T,
    FULL_TREE_MAX_T,
    backward_recursion_full,
    backward_recursion_states,
    evaluate_policy,
    exhaustive_policy_search,
    exhaustive_policy_search_engine,
    state_space,
)

CURVE = FidelityCurve.depolarizing(1.0, 0.8, 4)


def params_for(p, curve=CURVE):
    return LinkParams.symbolic(p, curve)


# ---------------------------------------------------------------------------
# small closed cases
# ---------------------------------------------------------------------------

def test_no_decision_horizon():
    params = params_for(0.4)
    assert backward_recursion_full(params, 0).optimal_value == \
        pytest.approx(0.4 * CURVE(0))
    assert backward_recursion_reduced(params, 0).optimal_value == \
        pytest.approx(0.4 * CURVE(0))


def test_single_decision_by_hand():
    p = 0.4
    params = params_for(p)
    f0, f1 = CURVE(0), CURVE(1)
    expected = p * max(f1, p * f0) + (1.0 - p) * (p * f0)
    for result in (backward_recursion_full(params, 1),
                   backward_recursion_reduced(params, 1)):
        assert result.optimal_value == pytest.approx(expected, abs=1e-14)


def test_perfect_memory_never_discards():
    params = params_for(0.3, FidelityCurve.constant(0.9))
    for T in (1, 4, 9):
        result = backward_recursion_reduced(params, T)
        assert result.optimal_value == pytest.approx(
            (1.0 - 0.7 ** (T + 1)) * 0.9, abs=1e-13)
        rule = result.policy.decide_state
        for t in range(1, T + 1):
            assert rule(t, 0, -1) == 1.0
            for m in range(t):
                assert rule(t, 1, m) == 0.0  # tie or better: hold the link


def test_degenerate_success_probabilities():
    assert backward_recursion_reduced(params_for(1.0), 5).optimal_value == \
        pytest.approx(CURVE(0))
    assert backward_recursion_reduced(params_for(0.0), 5).optimal_value == 0.0


# ---------------------------------------------------------------------------
# route agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_full_and_reduced_agree(p, lam):
    params = params_for(p, FidelityCurve.depolarizing(1.0, lam, 4))
    for T in range(0, 8):
        full = backward_recursion_full(params, T).optimal_value
        reduced = backward_recursion_reduced(params, T).optimal_value
        assert full == pytest.approx(reduced, abs=1e-13)


def test_exhaustive_routes_agree_with_recursion():
    params = params_for(0.45, FidelityCurve.depolarizing(1.0, 0.7, 4))
    for T in range(1, 5):
        value = backward_recursion_reduced(params, T).optimal_value
        assert exhaustive_policy_search_engine(params, T) == \
            pytest.approx(value, abs=1e-12)
        assert exhaustive_policy_search(params, T) == \
            pytest.approx(value, abs=1e-12)
    for T in (5, 6):
        value = backward_recursion_reduced(params, T).optimal_value
        assert exhaustive_policy_search(params, T) == \
            pytest.approx(value, abs=1e-12)


def test_route_caps_enforced():
    params = params_for(0.5)
    with pytest.raises(ValueError):
        backward_recursion_full(params, FULL_TREE_MAX_T + 1)
    with pytest.raises(ValueError):
        exhaustive_policy_search_engine(params, EXHAUSTIVE_ENGINE_MAX_T + 1)
    with pytest.raises(ValueError):
        exhaustive_policy_search(params, EXHAUSTIVE_TENSOR_MAX_T + 1)


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_factory", [
    lambda: cutoff_policy(2),
    lambda: cutoff_policy("inf"),
    lambda: Policy.from_state_rule(lambda t, x, m: 0.25 + 0.5 * x, "stochastic"),
])
def test_state_evaluation_matches_history_enumeration(policy_factory):
    params = params_for(0.4)
    policy = policy_factory()
    for t in (1, 3, 6, 9):
        by_history = evaluate_policy(params, policy, t)
        by_state = evaluate_state_policy(params, policy, t)
        assert by_state.e_ftilde == pytest.approx(by_history.e_ftilde, abs=1e-12)
        assert by_state.e_x == pytest.approx(by_history.e_x, abs=1e-12)


CURVES = {"constant": FidelityCurve.constant(0.9),
          "depolarizing": FidelityCurve.depolarizing(1.0, 0.8, 4),
          "dephasing_bell": FidelityCurve.dephasing_bell(0.95)}


@pytest.mark.parametrize("kind", CURVES)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
def test_state_evaluation_equals_the_state_at_a_time_loop(p, kind):
    """The propagator gives the oracle loop's floats under ``==``, for
    the optimum (also past its horizon), greedy, cutoffs and a stochastic
    rule, whose per-age decisions come from the rule itself."""
    params = params_for(p, CURVES[kind])
    stochastic = Policy.from_state_rule(lambda t, x, m: 0.25 + 0.5 * x, "stochastic")
    for T in (1, 2, 7, 40, 300):
        optimal = backward_recursion_reduced(params, T, keep_table=False).policy
        cases = [(optimal, T + 1), (optimal, T + 3), (forward_greedy(params), T + 1),
                 (stochastic, T + 1)]
        cases += [(cutoff_policy(tstar), T + 1) for tstar in (0, 3, T, math.inf)]
        for policy, t in cases:
            assert evaluate_state_policy(params, policy, t) == \
                oracles.evaluate_state_policy(params, policy, t)


def test_state_evaluation_requires_state_rule():
    params = params_for(0.4)
    history_only = Policy(decide=lambda t, h: 0.0, kind="deterministic")
    with pytest.raises(ValueError):
        evaluate_state_policy(params, history_only, 3)
    with pytest.raises(ValueError):
        simulate_trajectories(params, history_only, 3, 10, seed=0)


def test_optimal_policy_reproduces_its_value():
    params = params_for(0.35, FidelityCurve.depolarizing(1.0, 0.85, 4))
    for T in (1, 4, 8, 12):
        result = backward_recursion_reduced(params, T)
        check = evaluate_state_policy(params, result.policy, T + 1)
        assert check.e_ftilde == pytest.approx(result.optimal_value, abs=1e-12)
    full = backward_recursion_full(params, 6)
    check = evaluate_policy(params, full.policy, 7)
    assert check.e_ftilde == pytest.approx(full.optimal_value, abs=1e-12)


# ---------------------------------------------------------------------------
# dominance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.15, 0.5, 0.85])
@pytest.mark.parametrize("lam", [0.6, 0.95])
def test_optimum_dominates_baselines(p, lam):
    curve = FidelityCurve.depolarizing(1.0, lam, 4)
    params = params_for(p, curve)
    for T in (2, 5, 9):
        optimal = backward_recursion_reduced(params, T).optimal_value
        greedy = evaluate_state_policy(params, forward_greedy(params), T + 1)
        assert optimal >= greedy.e_ftilde - 1e-12
        for tstar in list(range(T + 1)) + [math.inf]:
            value = evaluate_state_policy(params, cutoff_policy(tstar), T + 1)
            assert optimal >= value.e_ftilde - 1e-12


def test_forward_greedy_rule(monkeypatch):
    params = params_for(0.4)
    evaluate = FidelityCurve.__call__
    calls = []
    monkeypatch.setattr(FidelityCurve, "__call__",
                        lambda curve, m: calls.append(m) or evaluate(curve, m))
    rule = forward_greedy(params).decide_state
    assert rule(1, 0, -1) == 1.0
    for t in range(1, 12):
        for m in range(10):
            keep = evaluate(CURVE, m + 1) >= 0.4 * evaluate(CURVE, 0)
            assert rule(t, 1, m) == (0.0 if keep else 1.0)
    # f_0 when the rule is built, then f_{m+1} once per age, whatever t
    assert sorted(calls) == list(range(11))


# ---------------------------------------------------------------------------
# value tables
# ---------------------------------------------------------------------------

def decisions_of(result, T):
    """The recursion's actions at every state of times 1..T, read through
    its policy's state rule, keyed as in a ``ValueTable``."""
    rule = result.policy.decide_state
    return {(t, x, m): int(rule(t, x, m))
            for t in range(1, T + 1) for x, m in state_space(t)}


def test_reduced_table_is_bellman_consistent():
    """The state-at-a-time table satisfies the Bellman equations, and the
    recursion's decisions and optimum are its own under ``==``."""
    p = 0.4
    curve = FidelityCurve.depolarizing(1.0, 0.8, 4)
    params = params_for(p, curve)
    T = 7
    table, optimum = backward_recursion_states(params, T)

    def value(j, x, m):
        if j == T + 1:
            return curve(m) if x == 1 else 0.0
        action = table.decisions[(j, x, m)]
        return table.values[(j, x, m, action)]

    for j in range(1, T + 1):
        q_request = p * value(j + 1, 1, 0) + (1 - p) * value(j + 1, 0, -1)
        assert table.values[(j, 0, -1, 1)] == q_request
        assert table.values[(j, 0, -1, 0)] == value(j + 1, 0, -1)
        for m in range(j):
            assert table.values[(j, 1, m, 1)] == q_request
            assert table.values[(j, 1, m, 0)] == value(j + 1, 1, m + 1)
            # the recorded decision maximizes, ties broken toward wait
            q0, q1 = table.values[(j, 1, m, 0)], table.values[(j, 1, m, 1)]
            assert table.decisions[(j, 1, m)] == (0 if q0 >= q1 else 1)
    assert optimum == p * value(1, 1, 0) + (1 - p) * value(1, 0, -1)
    result = backward_recursion_reduced(params, T)
    assert result.optimal_value == optimum
    assert decisions_of(result, T) == table.decisions


def test_reduced_recursion_keeps_no_table():
    params = params_for(0.4)
    assert backward_recursion_reduced(params, 5).table is None
    for T in (0, 5):
        with pytest.raises(ValueError, match="tests/oracles.py"):
            backward_recursion_reduced(params, T, keep_table=True)


def test_full_table_is_bellman_consistent():
    p = 0.45
    curve = FidelityCurve.depolarizing(1.0, 0.75, 4)
    params = params_for(p, curve)
    T = 5
    result = backward_recursion_full(params, T)
    table = result.table
    from qlink.engine import History

    def node_value(xs, acts):
        action = table.decisions[(xs, acts)]
        return table.values[(xs, acts, action)]

    for (xs, acts), action in table.decisions.items():
        j = len(xs)
        q0 = table.values[(xs, acts, 0)]
        q1 = table.values[(xs, acts, 1)]
        assert action == (0 if q0 >= q1 else 1)
        x, m = xs[-1], History(xs, acts).memory_time()
        if j == T:
            assert q0 == pytest.approx(curve(m + 1) if x == 1 else 0.0, abs=1e-14)
            assert q1 == pytest.approx(p * curve(0), abs=1e-14)
        else:
            assert q0 == pytest.approx(node_value(xs + (x,), acts + (0,)), abs=1e-13)
            assert q1 == pytest.approx(
                p * node_value(xs + (1,), acts + (1,))
                + (1 - p) * node_value(xs + (0,), acts + (1,)), abs=1e-13)
    # the root combines the two first observations
    assert result.optimal_value == pytest.approx(
        p * node_value((1,), ()) + (1 - p) * node_value((0,), ()), abs=1e-13)


# a fidelity that revives with age: the optimum keeps and discards in turns
REVIVING = FidelityCurve(
    evaluator=lambda m: 0.5 + 0.45 * math.cos(2 * math.pi * m / 5) * 0.97 ** m,
    kind="closed-form", label="reviving")


def test_state_rule_and_decide_runs_agree_with_the_table_over_many_runs():
    """The scalar rule and the runs, expanded age by age, give the
    state-at-a-time recursion's table decisions, at times with three or
    more runs over m, and wait everywhere past the horizon."""
    T = 60
    params = params_for(0.3, REVIVING)
    result = backward_recursion_reduced(params, T)
    rule, runs = result.policy.decide_state, result.policy.decide_runs
    table, optimum = backward_recursion_states(params, T)
    decisions = table.decisions
    assert result.optimal_value == optimum
    most = 0
    for t in range(1, T + 3):
        down, starts, probs = runs(t)
        assert list(starts) == sorted(starts) and starts[0] == 0
        ends = [*starts[1:], t]
        expanded = [float(prob) for lo, hi, prob in zip(starts, ends, probs)
                    for _ in range(lo, hi)]
        assert down == rule(t, 0, -1) == decisions.get((t, 0, -1), 0)
        assert expanded == [rule(t, 1, m) for m in range(t)] \
            == [decisions.get((t, 1, m), 0) for m in range(t)]
        most = max(most, len(starts))
    assert most > 2


def test_reduced_result_holds_o_of_t_bytes():
    """Without the table, the result keeps each time's decisions as runs
    over m: ~76 KB at T=4000, where one decision array per time held
    ~8.9 MB."""
    params = params_for(0.5, FidelityCurve.dephasing_bell(0.95))
    backward_recursion_reduced(params, 2, keep_table=False)  # one-time caches
    T = 4000
    tracemalloc.start()
    try:
        result = backward_recursion_reduced(params, T, keep_table=False)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.runs.down) == T
    assert held < 64 * T, held


def test_reduced_recursion_is_deterministic():
    params = params_for(0.3)
    r1 = backward_recursion_reduced(params, 10)
    r2 = backward_recursion_reduced(params, 10)
    table, optimum = backward_recursion_states(params, 10)
    assert r1.optimal_value == r2.optimal_value == optimum
    assert decisions_of(r1, 10) == decisions_of(r2, 10) == table.decisions


# ---------------------------------------------------------------------------
# the recursion and the propagator against the state-at-a-time oracles
# ---------------------------------------------------------------------------

def random_curve(seed, levels=None):
    """A fidelity curve with an independent value at each age: uniform in
    [0, 1], or drawn from ``levels``, which makes ties."""
    rng = random.Random(seed)
    values = []

    def evaluate(m):
        while len(values) <= m:
            values.append(rng.choice(levels) if levels else rng.random())
        return values[m]

    return FidelityCurve(evaluator=evaluate, kind="closed-form", label=f"random({seed})")


def random_rule(seed):
    """A stochastic state rule with its own probability at each (t, x, m),
    0 and 1 among them, fixed on first use."""
    rng = random.Random(seed)
    probs = {}

    def rule(t, x, m):
        if (t, x, m) not in probs:
            probs[t, x, m] = rng.choice([0.0, 1.0, 1.0, 0.5, 0.125, rng.random()])
        return probs[t, x, m]

    return rule


RANDOM_CURVES = {
    "uniform": lambda: random_curve(1),
    "levels": lambda: random_curve(2, [0.0, 0.25, 0.5, 0.5, 0.75, 1.0]),
    "reviving": lambda: REVIVING,
}
ORACLE_PS = [0.0, 1e-9, 0.3, 1.0]


@pytest.mark.parametrize("kind", RANDOM_CURVES)
@pytest.mark.parametrize("p", ORACLE_PS)
def test_reduced_recursion_equals_the_state_at_a_time_recursion(p, kind):
    """The running-maximum recursion gives the state-at-a-time recursion's
    optimum and every one of its decisions under ``==``, on curves that
    rise and fall with age and on curves with ties."""
    params = params_for(p, RANDOM_CURVES[kind]())
    for T in (1, 2, 3, 8, 40, 300):
        table, optimum = backward_recursion_states(params, T)
        result = backward_recursion_reduced(params, T)
        assert result.optimal_value == optimum
        assert decisions_of(result, T) == table.decisions


@pytest.mark.parametrize("kind", RANDOM_CURVES)
@pytest.mark.parametrize("p", ORACLE_PS)
def test_state_evaluation_equals_the_loop_on_random_curves_and_rules(p, kind):
    """The birth-indexed propagator gives the state-at-a-time loop's floats
    under ``==`` for stochastic rules, the optimum and greedy on curves
    that rise and fall with age."""
    params = params_for(p, RANDOM_CURVES[kind]())
    for T in (1, 2, 9, 40, 300):
        rules = [random_rule(T),
                 lambda t, x, m: 0.7 if x == 0 else (0.0 if m < 3 else 0.6),
                 lambda t, x, m: 0.25 if x == 0 else float(m % 4 == 0)]
        policies = [Policy.from_state_rule(rule, "stochastic") for rule in rules]
        policies += [backward_recursion_reduced(params, T).policy, forward_greedy(params)]
        for policy in policies:
            assert evaluate_state_policy(params, policy, T + 1) == \
                oracles.evaluate_state_policy(params, policy, T + 1)


def test_pairwise_sum_is_numpys_sum():
    """`_pairwise_sum` equals numpy's pairwise sum of the whole float64 row
    under ``==``: every length up to 300, the lengths around numpy's
    8192-value buffer, and random lengths up to 3e4, on values of both
    signs and magnitudes 1e-12 to 1e12."""
    rng = random.Random(7)
    lengths = [*range(301), 8191, 8192, 8193, *(rng.randint(301, 30_000) for _ in range(40))]
    for n in lengths:
        values = [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12)
                  for _ in range(n)]
        assert _pairwise_sum(values) == oracles.whole_row_sum(values), n


def test_state_evaluation_past_numpys_buffer():
    """At T = 10^4, past numpy's 8192-value buffer, a policy that keeps its
    first link forever holds p (1-p)^(j-1) of the link born at time j,
    formed by the propagator's products.  E[X] is their pairwise sum taken
    whole, not one buffer at a time, and E[F~] their in-order sum with f."""
    p, T = 1e-4, 10_000
    params = params_for(p, FidelityCurve.dephasing_bell(0.95))
    keep = Policy.from_state_rule(None, "deterministic", "keep", lambda t: (1.0, [0], [0.0]))
    downs = accumulate(repeat(1.0 - p, T), mul)  # Pr[X = 0] at times 1..T
    active = [p * down for down in downs][::-1] + [p]  # by age 0..T at time T+1
    buffered = reduce(add, (_pairwise_sum(active[i:i + 8192]) for i in range(0, T + 1, 8192)))
    assert _pairwise_sum(active) != buffered  # the orders differ on this row
    e_ftilde = reduce(add, map(mul, map(params.fcurve, range(T + 1)), active), 0.0)
    e_x = oracles.whole_row_sum(active)
    assert evaluate_state_policy(params, keep, T + 1) == \
        PolicyEvaluation(e_ftilde=e_ftilde, e_x=e_x, e_f=e_ftilde / e_x)
