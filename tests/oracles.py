"""Independent test oracles.

Nothing here imports the analytic formulas under test: supported sequences
are found by literally replaying the cutoff rules over all bitstrings, and
the binomial-sum formulas are re-evaluated in exact rational arithmetic.
The trial-at-a-time Monte Carlo loop is kept here as the reference for the
engine's vectorized simulator; it shares only the engine's types and its
per-trial RNG streams.  The term-at-a-time lgamma evaluation of the cutoff
binomial sums is kept as the reference the shared-series kernels in
`qlink.cutoff` must equal under `==`; like the package, it adds floats in
order, never with the built-in `sum()`.  The explicit-sum form of the memory
time cross-checks the engine's M(t) recursion.  The optimizer's reduced
(x, m) recursion is cross-checked against policy evaluation by history
enumeration, the literal recursion over full history trees, two
brute-force searches over every deterministic (t, x, m) -> action map (one
vectorized over all candidates, one evaluating each candidate by history
enumeration), and, under ``==``, the same recursion one state at a time,
which keeps every action value in a ``ValueTable``.  A second Monte Carlo
chain checks the waiting-time closed form.  The policy dump as a dict of action records (format 1) is the
reference the CLI's run-length ``.policy.json`` (format 2) must equal once
expanded back to records and passed through ``json.dumps``.  The
optimizer's state-at-a-time policy evaluation loop and its record-at-a-time
format-1 dump writer are the references the birth-indexed propagator and
the CLI's writer must equal under ``==`` and, after the expansion, byte for
byte.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Iterator, Optional, TextIO, Union

import numpy as np

from qlink import optimize as opt
from qlink.cutoff import CutoffLike, LinkState, parse_cutoff
from qlink.engine import (History, LinkParams, Policy, SimulationResult,
                          evolve_exhaustive, trial_rng)
from qlink.optimize import OptimizationResult


def replay_cutoff_sequence(xs: tuple[int, ...], tstar: Union[int, float]
                           ) -> Optional[tuple[int, int, int]]:
    """Replay a link-value sequence under the cutoff rules.

    Returns (n_succ, n_fail, m) with m the final memory age (-1 if the
    memory is unloaded), or None if the sequence is impossible under the
    policy (a wait step must carry the link value over).
    """
    infinite = tstar == math.inf
    loaded = False
    age = -1
    n_succ = n_fail = 0
    requested = True  # A(0) = 1
    prev = None
    for x in xs:
        if requested:
            if x == 1:
                n_succ += 1
                loaded, age = True, 0
            else:
                n_fail += 1
                loaded, age = False, -1
        else:
            if x != prev:
                return None  # waiting cannot change the link value
            if loaded:
                age += 1
        prev = x
        if not loaded:
            requested = True
        elif infinite:
            requested = False
        else:
            requested = age == tstar
    return n_succ, n_fail, age


def enumerate_supported(t: int, tstar: Union[int, float]
                        ) -> Iterator[tuple[tuple[int, ...], int, int, int]]:
    """All supported link-value sequences of length t with their statistics."""
    for code in range(2 ** t):
        xs = tuple((code >> (t - 1 - j)) & 1 for j in range(t))
        replay = replay_cutoff_sequence(xs, tstar)
        if replay is not None:
            n_succ, n_fail, age = replay
            yield xs, n_succ, n_fail, age


def exact_joint_prob(t: int, tstar: int, p: Fraction, m: int, x: int) -> Fraction:
    """Pr[M=m, X=x] for a finite cutoff, in exact rational arithmetic."""
    block = tstar + 1
    if x == 0:
        if m != tstar:
            return Fraction(0)
        if t <= tstar + 1:
            return (1 - p) ** t
        total = Fraction(0)
        for b in range((t - 1) // block + 1):
            total += math.comb(t - 1 - b * tstar, b) * p ** b * (1 - p) ** (t - b * block)
        return total
    if t <= tstar + 1:
        return p * (1 - p) ** (t - m - 1) if m <= t - 1 else Fraction(0)
    total = Fraction(0)
    for b in range((t - 1) // block + 1):
        fail = t - (m + 1) - b * block
        if fail < 0:
            continue
        total += (math.comb(t - (m + 1) - b * tstar, b)
                  * p ** (b + 1) * (1 - p) ** fail)
    return total


def exact_success_rate(t: int, tstar: Union[int, float], p: Fraction) -> Fraction:
    """E[S(t)] in exact rational arithmetic (both branches)."""
    if tstar == math.inf or t <= tstar + 1:
        return sum((p * (1 - p) ** j) / (j + 1) for j in range(t))
    tstar = int(tstar)
    block = tstar + 1
    total = Fraction(0)
    for b in range((t - 1) // block + 1):
        if b > 0:
            total += (Fraction(b, t - tstar * b) * math.comb(t - 1 - b * tstar, b)
                      * p ** b * (1 - p) ** (t - b * block))
        for k in range(1, block + 1):
            fail = t - k - b * block
            if fail < 0:
                continue
            total += (Fraction(b + 1, t - k - tstar * b + 1)
                      * math.comb(t - k - b * tstar, b)
                      * p ** (b + 1) * (1 - p) ** fail)
    return total


# ---------------------------------------------------------------------------
# the cutoff binomial sums, one lgamma-evaluated term at a time
# ---------------------------------------------------------------------------

def _validate_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n:
        raise ValueError(f"invalid binomial C({n}, {k})")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _term(n: int, b: int, p: float, succ: int, fail: int) -> float:
    """C(n, b) * p^succ * (1-p)^fail, evaluated in log space."""
    log_val = _log_comb(n, b)
    if succ:
        log_val += succ * math.log(p)
    if fail:
        log_val += fail * math.log1p(-p)
    return math.exp(log_val)


def joint_prob_lgamma(t: int, tstar: CutoffLike, p: float, m: int, x: int) -> float:
    """Pr[M_{t*}(t) = m, X(t) = x], every term evaluated on its own."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if x not in (0, 1):
        raise ValueError(f"x must be a bit, got {x}")
    _validate_p(p)
    ts = parse_cutoff(tstar)

    if ts == math.inf:
        if x == 0:
            if m != -1:
                raise ValueError(f"for infinite cutoff X=0 requires m=-1, got m={m}")
            return (1.0 - p) ** t
        if not 0 <= m <= t - 1:
            if m == -1:
                raise ValueError("m=-1 encodes the unloaded memory, not an active link")
            return 0.0
        return p * (1.0 - p) ** (t - m - 1)

    block = ts + 1
    if not 0 <= m <= ts:
        raise ValueError(f"m must be in 0..{ts}, got {m}")

    if p == 0.0:
        return 1.0 if (x == 0 and m == ts) else 0.0
    if p == 1.0:
        # the only sequence is all ones
        return 1.0 if (x == 1 and m == (t - 1) % block) else 0.0

    if x == 0:
        if m != ts:
            return 0.0
        if t <= ts + 1:
            return (1.0 - p) ** t
        total = 0.0
        for b in range((t - 1) // block + 1):
            total += _term(t - 1 - b * ts, b, p, b, t - b * block)
        return total

    # x == 1
    if t <= ts + 1:
        return p * (1.0 - p) ** (t - m - 1) if m <= t - 1 else 0.0
    total = 0.0
    for b in range((t - 1) // block + 1):
        fail = t - (m + 1) - b * block
        if fail < 0:
            continue
        total += _term(t - (m + 1) - b * ts, b, p, b + 1, fail)
    return total


def prob_active_lgamma(t: int, tstar: CutoffLike, p: float) -> float:
    """Pr[X(t) = 1] as the sum of the term-at-a-time joint probabilities."""
    ts = parse_cutoff(tstar)
    if ts == math.inf or t <= ts + 1:
        return 1.0 - (1.0 - p) ** t
    return reduce(add, (joint_prob_lgamma(t, ts, p, m, 1) for m in range(ts + 1)), 0.0)


def expected_fidelity_lgamma(t: int, tstar: CutoffLike, p: float,
                             fcurve: Callable[[int], float]
                             ) -> tuple[float, Optional[float]]:
    """(E[F~(t)], E[F(t)]) from the term-at-a-time joint probabilities."""
    ts = parse_cutoff(tstar)
    if ts == math.inf:
        ages = range(t)
    else:
        ages = range(min(t, ts + 1))
    e_ftilde = reduce(add, (fcurve(m) * joint_prob_lgamma(t, ts, p, m, 1) for m in ages), 0.0)
    active = prob_active_lgamma(t, ts, p)
    if active == 0.0:
        return 0.0, None
    return e_ftilde, e_ftilde / active


def expected_success_rate_lgamma(t: int, tstar: CutoffLike, p: float) -> float:
    """E[S(t)], every term evaluated on its own."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    _validate_p(p)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    ts = parse_cutoff(tstar)
    if ts == math.inf or t <= ts + 1:
        return reduce(add, (p * (1.0 - p) ** j / (j + 1) for j in range(t)), 0.0)
    block = ts + 1
    total = 0.0
    for b in range((t - 1) // block + 1):
        if b > 0:
            # all-trailing-zeros sequences: S = Y1 / (t - t* Y1)
            total += b / (t - ts * b) * _term(t - 1 - b * ts, b, p, b, t - b * block)
        for k in range(1, block + 1):
            fail = t - k - b * block
            if fail < 0:
                continue
            total += (b + 1) / (t - k - ts * b + 1) * _term(t - k - b * ts, b, p,
                                                           b + 1, fail)
    return total


def _bernoulli(rng: np.random.Generator, prob: float) -> int:
    # inverse-CDF sampling from a single uniform draw
    return 1 if rng.random() < prob else 0


def simulate_trajectories_scalar(params: LinkParams, policy: Policy,
                                 horizon: int, n_trials: int, seed: int
                                 ) -> SimulationResult:
    """The trial-at-a-time Monte Carlo loop: the reference for the engine's
    vectorized simulator, which must return an equal SimulationResult."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    p = params.p
    fcurve = params.fcurve
    rule = policy.decide_state

    sum_x = np.zeros(horizon)
    sum_ft = np.zeros(horizon)
    sum_ft_sq = np.zeros(horizon)
    sum_s = np.zeros(horizon)
    sum_s_sq = np.zeros(horizon)
    n_active = np.zeros(horizon, dtype=np.int64)
    sum_f_active = np.zeros(horizon)
    sum_f_active_sq = np.zeros(horizon)

    for trial in range(n_trials):
        rng = trial_rng(seed, trial)
        x = _bernoulli(rng, p)  # A(0) = 1
        m = x - 1
        n_req, n_succ = 1, x
        for t in range(1, horizon + 1):
            idx = t - 1
            sum_x[idx] += x
            ft = fcurve(m) if x == 1 else 0.0
            sum_ft[idx] += ft
            sum_ft_sq[idx] += ft * ft
            s = n_succ / n_req
            sum_s[idx] += s
            sum_s_sq[idx] += s * s
            if x == 1:
                n_active[idx] += 1
                sum_f_active[idx] += ft
                sum_f_active_sq[idx] += ft * ft
            if t == horizon:
                break
            a = _bernoulli(rng, rule(t, x, m))
            if a == 1:
                x = _bernoulli(rng, p)
                m = x - 1
                n_req += 1
                n_succ += x
            else:
                m += x

    def mean_se(total: np.ndarray, total_sq: np.ndarray, n: int
                ) -> tuple[list[float], list[Optional[float]]]:
        means, ses = [], []
        for tot, tot_sq in zip(total, total_sq):
            mean = tot / n
            if n > 1:
                var = max(0.0, (tot_sq - n * mean * mean) / (n - 1))
                ses.append(float(np.sqrt(var / n)))
            else:
                ses.append(None)
            means.append(float(mean))
        return means, ses

    n = n_trials
    pa_mean, pa_se = mean_se(sum_x, sum_x, n)  # x^2 = x for bits
    ft_mean, ft_se = mean_se(sum_ft, sum_ft_sq, n)
    s_mean, s_se = mean_se(sum_s, sum_s_sq, n)

    e_f: list[Optional[float]] = []
    e_f_se: list[Optional[float]] = []
    for idx in range(horizon):
        k = int(n_active[idx])
        if k == 0:
            e_f.append(None)
            e_f_se.append(None)
            continue
        mean = sum_f_active[idx] / k
        e_f.append(float(mean))
        if k > 1:
            var = max(0.0, (sum_f_active_sq[idx] - k * mean * mean) / (k - 1))
            e_f_se.append(float(np.sqrt(var / k)))
        else:
            e_f_se.append(None)

    return SimulationResult(
        horizon=horizon, n_trials=n_trials, seed=seed,
        prob_active=pa_mean, prob_active_se=pa_se,
        e_ftilde=ft_mean, e_ftilde_se=ft_se,
        e_s=s_mean, e_s_se=s_se,
        e_f=e_f, e_f_se=e_f_se,
    )


# ---------------------------------------------------------------------------
# the memory time by its explicit sum
# ---------------------------------------------------------------------------

def memory_time_explicit(history: History) -> int:
    """M(t) by the explicit sum over request times (cross-check form).

    M(t) = sum_j A(j-1) (sum_{l=j..t} X(l) - 1) prod_{k=j..t-1} (1 - A(k)),
    with A(0) = 1.  Exactly one term survives: the most recent request.
    """
    t = history.t
    xs = history.observations
    total = 0
    for j in range(1, t + 1):
        a_prev = 1 if j == 1 else history.actions[j - 2]
        if a_prev == 0:
            continue
        blocker = 1
        for k in range(j, t):
            blocker *= 1 - history.actions[k - 1]
        if blocker == 0:
            continue
        total += sum(xs[j - 1:]) - 1
    return total


# ---------------------------------------------------------------------------
# the optimizer's cross-check routes: history enumeration, the full history
# tree and the brute-force search over (t, x, m) feedback policies
# ---------------------------------------------------------------------------

FULL_TREE_MAX_T = 14
FULL_TREE_TABLE_MAX_T = 10
EXHAUSTIVE_TENSOR_MAX_T = 6


def state_space(j: int) -> list:
    """Reachable (x, m) states at observation time j: down, or active with
    age 0..j-1."""
    return [(0, -1)] + [(1, m) for m in range(j)]


@dataclass
class ValueTable:
    """Backward-recursion values and the decisions they induce.

    ``values[key]`` holds the action value q_j(., a); ``decisions[key]``
    holds the chosen action.  Keys are (j, x, m, a) / (j, x, m) in reduced
    mode and (observations, actions, a) / (observations, actions) in
    full-tree mode.  Values are conditional expectations of the terminal
    reward given the keyed situation (the positive history weight common to
    both actions is factored out, which leaves every argmax unchanged).
    """

    horizon: int
    mode: str  # "full-tree" | "reduced"
    values: dict
    decisions: dict


def evaluate_policy(params: LinkParams, policy: Policy, t: int) -> LinkState:
    """The exact state at time t by exhaustive history enumeration."""
    return evolve_exhaustive(params, policy, t)[-1]


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

        policy = Policy(decide=decide, kind="deterministic")

    return OptimizationResult(optimal_value=value, policy=policy,
                              mode="full-tree", table=table)


def backward_recursion_states(params: LinkParams, T: int) -> tuple[ValueTable, float]:
    """The reduced (x, m) recursion one state at a time: its value table and
    the optimal E[F~(T+1)].

    Each state's action values are formed with the IEEE operations of
    ``optimize.backward_recursion_reduced`` in the same order, so its
    decisions and optimum must equal the recursion's under ``==``:
    q_request = p v(j+1, 1, 0) + (1-p) v(j+1, 0, -1), and a state waits iff
    q_wait >= q_request, so a tie waits whether the link is up or down.
    """
    p = params.p
    table = ValueTable(horizon=T, mode="reduced", values={}, decisions={})
    # the value at time T+1: f_m when active, 0 when down
    value = {(1, m): params.fcurve(m) for m in range(T + 1)}
    value[(0, -1)] = 0.0
    for j in range(T, 0, -1):
        q_request = p * value[(1, 0)] + (1.0 - p) * value[(0, -1)]
        now = {}
        for x, m in state_space(j):
            q_wait = value[(1, m + 1)] if x == 1 else value[(0, -1)]
            action = 0 if q_wait >= q_request else 1
            table.values[(j, x, m, 0)] = q_wait
            table.values[(j, x, m, 1)] = q_request
            table.decisions[(j, x, m)] = action
            now[(x, m)] = q_request if action else q_wait
        value = now
    return table, p * value[(1, 0)] + (1.0 - p) * value[(0, -1)]


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


# ---------------------------------------------------------------------------
# the waiting time by Monte Carlo
# ---------------------------------------------------------------------------

def simulate_waiting_time(t_req: int, tstar: CutoffLike, p: float,
                          n_trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the waiting-time expectation; returns (mean, SE).

    Each trial simulates the always-on generation chain through t_req + 1;
    if the link is down there, it keeps simulating requests until the next
    success.  The per-trial statistic 1{down} * (attempts) / (1-p) is an
    unbiased estimator of q * E[attempts] / (1-p) = q / (p (1-p)), the
    analytic expectation above.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    _validate_p(p)
    if p in (0.0, 1.0):
        raise ValueError("Monte Carlo waiting time requires p in (0, 1)")
    ts = parse_cutoff(tstar)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    ts = None if ts == math.inf else ts

    # vectorized over trials: one uniform per step of the length-(t_req+1) chain
    n = n_trials
    x = (rng.random(n) < p).astype(np.int64)
    m = np.where(x == 1, 0, ts if ts is not None else -1)
    for _ in range(t_req):
        if ts is None:
            request = x == 0
        else:
            request = (x == 0) | (m >= ts)
        u = rng.random(n)
        succ = request & (u < p)
        failr = request & ~succ
        m = np.where(succ, 0, np.where(failr, ts if ts is not None else -1, m + x))
        x = np.where(succ, 1, np.where(failr, 0, x))
    down = x == 0
    attempts = rng.geometric(p, size=n)  # attempts until the next success
    z = np.where(down, attempts, 0) / (1.0 - p)
    mean = float(z.mean())
    se = float(z.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, se


# ---------------------------------------------------------------------------
# exhaustive search, one history-enumerated policy at a time
# ---------------------------------------------------------------------------

EXHAUSTIVE_ENGINE_MAX_T = 4


def _policy_from_assignment(assignments: dict[int, tuple[int, ...]], T: int) -> Policy:
    """A Policy from explicit per-time action tuples over
    state_space(t)."""

    def rule(t: int, x: int, m: int) -> float:
        if t > T:
            return 0.0
        idx = 0 if x == 0 else 1 + m
        return float(assignments[t][idx])

    return Policy.from_state_rule(rule, "deterministic")


def exhaustive_policy_search_engine(params: LinkParams, T: int) -> float:
    """Maximum E[F~(T+1)] over every deterministic (t, x, m) -> action map.

    Each candidate policy is evaluated by exhaustive history enumeration
    (fully independent of any DP machinery), so the search is capped at
    T=4 (~1.6e4 candidates).
    """
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    if T > EXHAUSTIVE_ENGINE_MAX_T:
        raise ValueError(f"engine-mode search is capped at T={EXHAUSTIVE_ENGINE_MAX_T}")
    best = -math.inf
    spaces = [list(itertools.product((0, 1), repeat=j + 1)) for j in range(1, T + 1)]
    for combo in itertools.product(*spaces):
        assignments = {j + 1: combo[j] for j in range(T)}
        policy = _policy_from_assignment(assignments, T)
        value = evaluate_policy(params, policy, T + 1).e_ftilde
        if value > best:
            best = value
    return best


# ---------------------------------------------------------------------------
# the optimizer's policy dump as a dict
# ---------------------------------------------------------------------------

def policy_dump_dict(result: OptimizationResult, T: int) -> dict:
    """The ``.policy.json`` object of ``qlink optimize``, one dict per action
    in the documented order: t ascending, then down, then active by age."""
    decide = result.policy.decide_state
    actions = [{"t": t, "x": x, "m": m, "action": int(decide(t, x, m))}
               for t in range(1, T + 1) for x, m in state_space(t)]
    return {"horizon": T, "mode": result.mode, "actions": actions}


def expand_policy_dump(obj: dict) -> dict:
    """The format-1 object of a format-2 ``.policy.json`` object: every run
    ``[m, a]`` of ``active[t-1]`` becomes one record per age from m up to
    the next run's start, or t-1 for the last run.  Checks that the runs of
    each time start at age 0, rise, stay below t and are maximal."""
    assert obj["format_version"] == 2
    T = obj["horizon"]
    assert len(obj["down"]) == len(obj["active"]) == T
    actions = []
    for t, (down, runs) in enumerate(zip(obj["down"], obj["active"]), start=1):
        actions.append({"t": t, "x": 0, "m": -1, "action": down})
        starts = [m for m, _ in runs]
        assert starts[0] == 0 and starts == sorted(set(starts)) and starts[-1] < t
        assert all(a != b for (_, a), (_, b) in zip(runs, runs[1:]))
        for (start, action), end in zip(runs, starts[1:] + [t]):
            actions.extend({"t": t, "x": 1, "m": m, "action": action}
                           for m in range(start, end))
    return {"horizon": T, "mode": obj["mode"], "actions": actions}


def expanded_policy_text(text: str) -> str:
    """The format-1 ``.policy.json`` text of a format-2 dump's text."""
    return json.dumps(expand_policy_dump(json.loads(text)), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the optimizer's policy evaluation and dump, one state at a time
# ---------------------------------------------------------------------------

def whole_row_sum(row) -> float:
    """numpy's pairwise sum of a float64 row taken in one piece, the order
    of the optimizer's E[X].  The ufunc buffer is made at least as long as
    the row: where numpy's iterator buffers, it adds a longer row one
    buffer (8192 values by default) at a time, each piece pairwise."""
    row = np.ascontiguousarray(row, dtype=float)
    old = np.setbufsize(max(8192, -(-len(row) // 16) * 16))
    try:
        return float(np.add.reduce(row))
    finally:
        np.setbufsize(old)


def evaluate_state_policy(params: LinkParams, policy: Policy, t: int) -> LinkState:
    """Exact state at time t of a (t, x, m)-feedback policy, ``joint`` by
    age 0..t-1.

    Propagates the occupation distribution over (x, m) states directly, so
    it stays exact at horizons where history enumeration is infeasible.
    Requires ``policy.decide_state``; cross-checked against history
    enumeration in the tests.  E[X] is `whole_row_sum` of the active row.
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
    e_x = whole_row_sum(active)
    e_ftilde = float(reduce(add, (params.fcurve(m) * w for m, w in enumerate(active) if w), 0.0))
    e_f = e_ftilde / e_x if e_x > 0.0 else None
    return LinkState(t=t, joint=tuple(active.tolist()), prob_active=e_x,
                     e_ftilde=e_ftilde, e_f=e_f)


def write_policy_json(handle: TextIO, horizon: int,
                      result: opt.OptimizationResult) -> None:
    """Stream ``result``'s decisions over times 1..horizon to ``handle`` as
    the format-1 ``.policy.json``, one record per (t, x, m).

    The text equals ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``
    byte for byte, where ``obj = {"horizon": horizon, "mode": result.mode,
    "actions": [{"t", "x", "m", "action"}, ...]}`` lists the actions in the
    documented order: t ascending, then down, then active by age.  Every
    value but ``mode`` is an int, so each record is a fixed template, and
    one chunk per decision time is written.
    """
    decide = result.policy.decide_state
    handle.write('{\n  "actions": [\n')
    for t in range(1, horizon + 1):
        if t > 1:
            handle.write(",\n")
        handle.write(",\n".join([
            '    {\n      "action": %d,\n      "m": %d,\n      "t": %d,\n'
            '      "x": %d\n    }' % (decide(t, x, m), m, t, x)
            for x, m in state_space(t)]))
    handle.write('\n  ],\n  "horizon": %d,\n  "mode": %s\n}\n'
                 % (horizon, json.dumps(result.mode)))
