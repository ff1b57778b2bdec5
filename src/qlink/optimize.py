"""Finite-horizon policy optimization for a single elementary link.

Horizon convention: ``T`` is the number of decision epochs.  Decisions are
made at times 1..T and the fidelity reward X(T+1) * f_{M(T+1)} is granted at
observation time T+1, so the optimized objective is E[F~(T+1)].

Three routes to the optimum are provided and cross-checked in the tests:

* ``backward_recursion_full`` -- the literal backward recursion over full
  history trees (no state reduction), feasible for small T;
* ``backward_recursion_reduced`` -- the same recursion keyed on the
  (x, m) sufficient statistic, the one the CLI runs;
* ``exhaustive_policy_search`` -- brute-force maximum over all deterministic
  (t, x, m) -> action maps, an oracle independent of any Bellman argument.

Ties in every argmax are broken toward action 0 (wait) so results are
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import History, LinkParams, Policy, evolve_exhaustive, expected_quantities

FULL_TREE_MAX_T = 14
FULL_TREE_TABLE_MAX_T = 10
EXHAUSTIVE_TENSOR_MAX_T = 6


@dataclass
class ValueTable:
    """Backward-recursion values and the decisions they induce.

    ``values[key]`` holds the action value q_j(., a); ``decisions[key]``
    holds the chosen action.  Keys are (j, x, m, a) / (j, x, m) in reduced
    mode and (observations, actions, a) / (observations, actions) in full
    mode.  Values are conditional expectations of the terminal reward given
    the keyed situation (the positive history weight common to both actions
    is factored out, which leaves every argmax unchanged).
    """

    horizon: int
    mode: str  # "full-tree" | "reduced"
    values: dict
    decisions: dict


@dataclass
class OptimizationResult:
    optimal_value: float
    policy: Optional[Policy]
    mode: str
    table: Optional[ValueTable]


def state_space(j: int) -> list:
    """Reachable (x, m) states at observation time j: down, or active with
    age 0..j-1."""
    return [(0, -1)] + [(1, m) for m in range(j)]


# ---------------------------------------------------------------------------
# greedy baseline
# ---------------------------------------------------------------------------

def forward_greedy(params: LinkParams) -> Policy:
    """One-step-lookahead policy: request when down; when up, keep the link
    iff its next-step fidelity f_{m+1} still beats a fresh attempt p * f_0."""
    fcurve = params.fcurve
    fresh = params.p * fcurve(0)
    keep: dict[int, bool] = {}  # m -> f_{m+1} >= p * f_0, evaluated once per age

    def rule(t: int, x: int, m: int) -> float:
        if x == 0:
            return 1.0
        if m not in keep:
            keep[m] = fcurve(m + 1) >= fresh
        return 0.0 if keep[m] else 1.0

    return Policy.from_state_rule(rule, "deterministic", "forward-greedy")


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyEvaluation:
    e_ftilde: float
    e_x: float
    e_f: Optional[float]


def evaluate_policy(params: LinkParams, policy: Policy, t: int) -> PolicyEvaluation:
    """Exact E[F~(t)], E[X(t)], E[F(t)] by exhaustive history enumeration."""
    mixture = evolve_exhaustive(params, policy, t)[-1]
    quantities = expected_quantities(mixture, params.fcurve)
    return PolicyEvaluation(e_ftilde=quantities.e_ftilde,
                            e_x=quantities.prob_active,
                            e_f=quantities.e_f)


def evaluate_state_policy(params: LinkParams, policy: Policy, t: int) -> PolicyEvaluation:
    """Exact link quantities at time t for a (t, x, m)-feedback policy.

    Propagates the occupation distribution over (x, m) states directly, so
    it stays exact at horizons where history enumeration is infeasible.
    Requires ``policy.decide_state``; cross-checked against evaluate_policy
    in the tests.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rule = policy.decide_state
    if rule is None:
        raise ValueError("evaluate_state_policy needs a policy with a state rule")
    p = params.p
    active = np.zeros(t)  # m -> Pr[X=1, M=m]
    down = 1.0 - p
    active[0] = p
    for j in range(1, t):
        pi_down = rule(j, 0, -1)
        request_mass = down * pi_down
        stay_down = down * (1.0 - pi_down)
        new_active = np.zeros(t)
        for m in range(j):
            if active[m] == 0.0:
                continue
            pi1 = rule(j, 1, m)
            request_mass += active[m] * pi1
            new_active[m + 1] += active[m] * (1.0 - pi1)
        new_active[0] += p * request_mass
        down = stay_down + (1.0 - p) * request_mass
        active = new_active
    e_x = float(active.sum())
    e_ftilde = float(sum(params.fcurve(m) * w for m, w in enumerate(active) if w))
    e_f = e_ftilde / e_x if e_x > 0.0 else None
    return PolicyEvaluation(e_ftilde=e_ftilde, e_x=e_x, e_f=e_f)


# ---------------------------------------------------------------------------
# full-history backward recursion
# ---------------------------------------------------------------------------

def backward_recursion_full(params: LinkParams, T: int,
                            keep_table: Optional[bool] = None) -> OptimizationResult:
    """Optimal E[F~(T+1)] by recursion over the full history tree.

    The terminal action values at a history h^T are p * f_0 (request) and
    x_T * f_{M(T)+1} (wait); interior values propagate by summing over the
    next observation and maximizing over the next action.  No two histories
    share state, so the tree is explored in full -- exponential in T, hence
    the cap.
    """
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    if T > FULL_TREE_MAX_T:
        raise ValueError(f"full-tree mode is capped at T={FULL_TREE_MAX_T}, got {T}")
    p = params.p
    fcurve = params.fcurve
    f0 = fcurve(0)
    if keep_table is None:
        keep_table = T <= FULL_TREE_TABLE_MAX_T
    table = ValueTable(horizon=T, mode="full-tree", values={}, decisions={}) \
        if keep_table else None

    if T == 0:
        # no decisions: the A(0) request alone
        return OptimizationResult(optimal_value=p * f0, policy=None,
                                  mode="full-tree", table=table)

    def best(xs: tuple[int, ...], acts: tuple[int, ...], x: int, m: int
             ) -> tuple[float, int]:
        j = len(xs)
        if j == T:
            q_wait = fcurve(m + 1) if x == 1 else 0.0
            q_req = p * f0
        else:
            q_wait = best(xs + (x,), acts + (0,), x, m + x)[0]
            q_req = (p * best(xs + (1,), acts + (1,), 1, 0)[0]
                     + (1.0 - p) * best(xs + (0,), acts + (1,), 0, -1)[0])
        action = 0 if q_wait >= q_req else 1
        value = q_wait if action == 0 else q_req
        if table is not None:
            table.values[(xs, acts, 0)] = q_wait
            table.values[(xs, acts, 1)] = q_req
            table.decisions[(xs, acts)] = action
        return value, action

    value = (p * best((1,), (), 1, 0)[0]
             + (1.0 - p) * best((0,), (), 0, -1)[0])

    policy = None
    if table is not None:
        decisions = table.decisions

        def decide(t: int, history: History) -> float:
            key = (history.observations, history.actions)
            if key in decisions:
                return float(decisions[key])
            return 0.0  # beyond the horizon (or off-tree): wait

        policy = Policy(decide=decide, kind="deterministic", label="optimal-full-tree")

    return OptimizationResult(optimal_value=value, policy=policy,
                              mode="full-tree", table=table)


# ---------------------------------------------------------------------------
# reduced backward recursion on (x, m)
# ---------------------------------------------------------------------------

def backward_recursion_reduced(params: LinkParams, T: int,
                               keep_table: bool = True) -> OptimizationResult:
    """Optimal E[F~(T+1)] keyed on the state (X(t), M(t)).

    The conditional value-to-go of a history depends on it only through the
    current link value and memory age, so the tree recursion collapses to
    O(T^2) states; values over m are held as numpy arrays per time step.
    The policy keeps one decision byte per state.  ``keep_table=True`` also
    records every action value and decision in a ValueTable, O(T^2) dict
    entries, for inspection at small T.
    """
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    p = params.p
    fcurve = params.fcurve
    f0 = fcurve(0)
    if T == 0:
        return OptimizationResult(optimal_value=p * f0, policy=None,
                                  mode="reduced", table=None)

    f_vals = np.array([fcurve(m) for m in range(T + 1)])

    # v_active[j] : value at time j with x=1, m = 0..j-1 (array of length j)
    # v_down[j]   : value at time j with x=0
    # terminal (time T+1): reward f_m when active, 0 when down
    v_active_next = f_vals[: T + 1].copy()
    v_down_next = 0.0
    wait_when_active: dict[int, np.ndarray] = {}
    request_when_down: dict[int, bool] = {}
    table = ValueTable(horizon=T, mode="reduced", values={}, decisions={}) \
        if keep_table else None

    for j in range(T, 0, -1):
        q_request = p * v_active_next[0] + (1.0 - p) * v_down_next
        q_wait_active = v_active_next[1: j + 1]  # m -> value at (j+1, m+1)
        wait = q_wait_active >= q_request
        v_active = np.where(wait, q_wait_active, q_request)
        # down: waiting keeps the link down
        down_wait = v_down_next
        request_down = bool(q_request > down_wait)  # tie -> wait
        v_down = q_request if request_down else down_wait
        wait_when_active[j] = wait
        request_when_down[j] = request_down
        if table is not None:
            for m in range(j):
                table.values[(j, 1, m, 0)] = float(q_wait_active[m])
                table.values[(j, 1, m, 1)] = q_request
                table.decisions[(j, 1, m)] = 0 if wait[m] else 1
            table.values[(j, 0, -1, 0)] = down_wait
            table.values[(j, 0, -1, 1)] = q_request
            table.decisions[(j, 0, -1)] = 1 if request_down else 0
        v_active_next = v_active
        v_down_next = v_down

    value = p * v_active_next[0] + (1.0 - p) * v_down_next

    def rule(t: int, x: int, m: int) -> float:
        if t > T:
            return 0.0  # beyond the horizon: wait
        if x == 0:
            return 1.0 if request_when_down[t] else 0.0
        return 0.0 if wait_when_active[t][m] else 1.0

    policy = Policy.from_state_rule(rule, "deterministic", "optimal-reduced")
    return OptimizationResult(optimal_value=float(value), policy=policy,
                              mode="reduced", table=table)


# ---------------------------------------------------------------------------
# exhaustive oracle over (t, x, m) feedback policies
# ---------------------------------------------------------------------------

def exhaustive_policy_search(params: LinkParams, T: int) -> float:
    """Maximum E[F~(T+1)] over every deterministic (t, x, m) -> action map.

    All candidates are evaluated at once by propagating occupation
    distributions for every decision-table prefix -- a brute-force maximum
    over the full policy class, with the evaluation vectorized -- up to T=6
    (~1.3e8 candidates).
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if T > EXHAUSTIVE_TENSOR_MAX_T:
        raise ValueError(f"exhaustive search is capped at T={EXHAUSTIVE_TENSOR_MAX_T}")
    p = params.p
    fcurve = params.fcurve

    def step_tensor(j: int) -> np.ndarray:
        """shape (2^(j+1), j+1, j+2): transition rows for every action
        assignment over the time-j states."""
        states = state_space(j)
        n_states = len(states)
        rows = np.zeros((2, n_states, n_states + 1))
        for i, (x, m) in enumerate(states):
            # action 0: wait
            if x == 0:
                rows[0, i, 0] = 1.0
            else:
                rows[0, i, 2 + m] = 1.0  # (1, m) -> (1, m+1)
            # action 1: request
            rows[1, i, 0] = 1.0 - p
            rows[1, i, 1] = p  # fresh (1, 0)
        out = np.zeros((2 ** n_states, n_states, n_states + 1))
        for code in range(2 ** n_states):
            for i in range(n_states):
                out[code, i] = rows[(code >> i) & 1, i]
        return out

    dist = np.array([[1.0 - p, p]])  # over state_space(1)
    for j in range(1, T):
        tensor = step_tensor(j)
        dist = np.einsum("ns,ast->nat", dist, tensor).reshape(-1, j + 2)

    # terminal values per final-step assignment: shape (2^(T+1), T+1)
    final = np.einsum("ast,t->as", step_tensor(T), _terminal_reward(fcurve, T))
    best = -math.inf
    chunk = 1 << 14
    for start in range(0, dist.shape[0], chunk):
        block = dist[start: start + chunk] @ final.T
        best = max(best, float(block.max()))
    return best


def _terminal_reward(fcurve: Callable[[int], float], T: int) -> np.ndarray:
    """Reward at observation time T+1 over state_space(T+1)."""
    return np.array([0.0] + [fcurve(m) for m in range(T + 1)])
