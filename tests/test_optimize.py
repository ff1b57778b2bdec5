"""Finite-horizon policy optimization: the three routes and their tables."""

import math
import tracemalloc

import pytest

from qlink.cutoff import cutoff_policy
from qlink.engine import LinkParams, Policy
from qlink.optimize import (
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
    evaluate_policy,
    exhaustive_policy_search,
    exhaustive_policy_search_engine,
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
    """The numpy propagator gives the oracle loop's floats under ``==``, for
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

def test_reduced_table_is_bellman_consistent():
    p = 0.4
    curve = FidelityCurve.depolarizing(1.0, 0.8, 4)
    params = params_for(p, curve)
    T = 7
    table = backward_recursion_reduced(params, T, keep_table=True).table

    def value(j, x, m):
        if j == T + 1:
            return curve(m) if x == 1 else 0.0
        action = table.decisions[(j, x, m)]
        return table.values[(j, x, m, action)]

    for j in range(1, T + 1):
        q_request = p * value(j + 1, 1, 0) + (1 - p) * value(j + 1, 0, -1)
        assert table.values[(j, 0, -1, 1)] == pytest.approx(q_request, abs=1e-13)
        assert table.values[(j, 0, -1, 0)] == pytest.approx(value(j + 1, 0, -1),
                                                            abs=1e-13)
        for m in range(j):
            assert table.values[(j, 1, m, 1)] == pytest.approx(q_request, abs=1e-13)
            assert table.values[(j, 1, m, 0)] == pytest.approx(
                value(j + 1, 1, m + 1), abs=1e-13)
            # the recorded decision maximizes, ties broken toward wait
            q0, q1 = table.values[(j, 1, m, 0)], table.values[(j, 1, m, 1)]
            assert table.decisions[(j, 1, m)] == (0 if q0 >= q1 else 1)


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
    recursion's own table decisions, at times with three or more runs over
    m, and wait everywhere past the horizon."""
    T = 60
    result = backward_recursion_reduced(params_for(0.3, REVIVING), T, keep_table=True)
    rule, runs = result.policy.decide_state, result.policy.decide_runs
    decisions = result.table.decisions
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
    r1 = backward_recursion_reduced(params, 10, keep_table=True)
    r2 = backward_recursion_reduced(params, 10, keep_table=True)
    assert r1.optimal_value == r2.optimal_value
    assert r1.table.decisions == r2.table.decisions
