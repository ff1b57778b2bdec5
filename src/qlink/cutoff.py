"""Closed-form analysis of the memory-cutoff policy.

Under cutoff t*, a request is made at every step while the link is down,
and an established link is held for exactly t* further steps before being
discarded and re-requested.  t* = 0 requests every step; t* = infinity keeps
the first established link forever.  All formulas here are exact in the
model and are cross-checked against brute-force history enumeration in the
tests.

Convention: this module uses the cutoff policy's mod-(t*+1) memory time
M_{t*}(t) = (sum_j X(j) - 1) mod (t*+1), which lives in {0..t*} and equals
t* when the memory is unloaded.  The engine's general M(t) (with -1 for
unloaded) is a different accessor; `memory_time_cutoff` maps between them.

Shared series.  For t > t*+1 each b-term of Pr[M_{t*}(t) = m, X(t) = 1]
depends on t and m only through u = t - m, so that probability is g(t - m)
for the single sequence

    g(u) = sum_{b=0}^{(u-1)//(t*+1)} C(u-1-b t*, b) p^(b+1) (1-p)^(u-1-b(t*+1)),

and the row at time t is g(t), g(t-1), ..., g(t-t*).  `active_rows`
evaluates g once per (t*, p) series, only at the u its times need.

Summation order.  The values are bit-identical to adding the terms one at a
time, and the CSV goldens rely on that: each term is exp(log C + succ log p
+ fail log(1-p)) with log C = lgamma(n+1) - lgamma(b+1) - lgamma(n-b+1),
added left to right in exactly that order; g(u) and the other binomial sums
add their terms in increasing b with `+=` from 0.0; a row and E[F~] are
added with `sum()` in increasing m.  Swapping `+=` and `sum()` changes the
last bits (from Python 3.12, `sum()` of floats is compensated), and so does
numpy: `np.exp` is not `math.exp`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .engine import History, Policy

HYP2F1_REL_TOL = 1e-14
HYP2F1_MAX_TERMS = 10 ** 6


# ---------------------------------------------------------------------------
# the cutoff itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cutoff:
    """A memory cutoff t*: a non-negative integer or infinity."""

    value: float

    def __post_init__(self) -> None:
        if self.value == math.inf:
            return
        if self.value < 0 or int(self.value) != self.value:
            raise ValueError(f"cutoff must be a non-negative integer or inf, got {self.value}")
        object.__setattr__(self, "value", int(self.value))

    @property
    def is_infinite(self) -> bool:
        return self.value == math.inf

    @property
    def finite_value(self) -> int:
        if self.is_infinite:
            raise ValueError("infinite cutoff has no finite value")
        return int(self.value)

    @classmethod
    def parse(cls, value: Union["Cutoff", int, float, str]) -> "Cutoff":
        if isinstance(value, Cutoff):
            return value
        if isinstance(value, str):
            if value.lower() in ("inf", "infinity"):
                return cls(math.inf)
            return cls(int(value))
        return cls(value)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(int(self.value))


CutoffLike = Union[Cutoff, int, float, str]


def _validate_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p}")


# ---------------------------------------------------------------------------
# the policy and its memory/sequence accessors
# ---------------------------------------------------------------------------

def cutoff_policy(tstar: CutoffLike) -> Policy:
    """The deterministic memory-cutoff policy as an engine Policy.

    In engine state terms (x, M(t) with -1 for unloaded): request iff the
    memory is unloaded or has been held for t* steps.
    """
    cut = Cutoff.parse(tstar)
    if cut.is_infinite:
        rule = lambda t, x, m: 1.0 if x == 0 else 0.0
        label = "cutoff(inf)"
    else:
        ts = cut.finite_value
        rule = lambda t, x, m: 1.0 if (m == -1 or m >= ts) else 0.0
        label = f"cutoff({ts})"
    return Policy.from_state_rule(rule, "deterministic", label)


def memory_time_cutoff(history: Union[History, Sequence[int]], tstar: CutoffLike) -> int:
    """The cutoff policy's memory time M_{t*}(t) = (sum_j x_j - 1) mod (t*+1).

    Equals the engine's general M(t) whenever that is >= 0, and t* when the
    general M(t) is -1 (unloaded).  For t* = infinity it is sum_j x_j - 1.
    """
    xs = history.observations if isinstance(history, History) else tuple(history)
    cut = Cutoff.parse(tstar)
    total = sum(xs)
    if cut.is_infinite:
        return total - 1
    return (total - 1) % (cut.finite_value + 1)


@dataclass(frozen=True)
class SequenceStats:
    """(Y1, Y2) for a link-value sequence under a given cutoff.

    Y1 counts full blocks of t*+1 consecutive ones completed by time t-1;
    Y2 counts the remaining trailing ones up to time t.
    """

    y1: int
    y2: int


def sequence_stats(xs: Sequence[int], tstar: CutoffLike) -> SequenceStats:
    cut = Cutoff.parse(tstar)
    t = len(xs)
    if cut.is_infinite:
        trailing = 0
        for x in reversed(xs):
            if x != 1:
                break
            trailing += 1
        return SequenceStats(y1=0, y2=trailing)
    block = cut.finite_value + 1
    y1 = 0
    run = 0
    for j, x in enumerate(xs, start=1):
        if x == 1:
            run += 1
            if run == block and j < t:
                y1 += 1
                run = 0
        else:
            run = 0
    return SequenceStats(y1=y1, y2=run)


def history_prob_cutoff(stats: SequenceStats, t: int, tstar: CutoffLike,
                        p: float) -> float:
    """Probability of a supported history from its (Y1, Y2) statistics."""
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    y1, y2 = stats.y1, stats.y2
    if t < 1 or y1 < 0 or y2 < 0:
        raise ValueError(f"unrealizable stats (t={t}, Y1={y1}, Y2={y2})")
    if cut.is_infinite:
        if y1 != 0 or y2 > t:
            raise ValueError(f"unrealizable stats for infinite cutoff (Y1={y1}, Y2={y2})")
        if y2 == 0:
            return (1.0 - p) ** t
        return p * (1.0 - p) ** (t - y2)
    ts = cut.finite_value
    block = ts + 1
    fail_exp = t - y2 - block * y1
    ok = (y2 <= min(block, t)) and fail_exp >= 0
    if y2 == 0:
        ok = ok and y1 <= (t - 1) // block
    if not ok:
        raise ValueError(f"unrealizable stats (t={t}, t*={ts}, Y1={y1}, Y2={y2})")
    if y2 == 0:
        return p ** y1 * (1.0 - p) ** fail_exp
    return p ** (y1 + 1) * (1.0 - p) ** fail_exp


def count_sequences(t: int, tstar: CutoffLike) -> int:
    """|Omega(t; t*)|: the number of link-value sequences with nonzero probability."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    cut = Cutoff.parse(tstar)
    if cut.is_infinite:
        return 1 + t
    ts = cut.finite_value
    block = ts + 1
    total = 0
    for b in range((t - 1) // block + 1):
        total += math.comb(t - 1 - b * ts, b)  # Y2 = 0 sequences
        for k in range(1, block + 1):
            if t - k - b * block >= 0:
                total += math.comb(t - k - b * ts, b)
    return total


# ---------------------------------------------------------------------------
# binomial sums, evaluated once per (t*, p) series
# ---------------------------------------------------------------------------

# Entry k is math.lgamma(k + 1).  Sweeps read the table from several threads,
# so it is never changed in place: `_log_factorials` builds a longer list and
# rebinds the name, and every reader keeps the complete list it fetched.
_LOG_FACTORIAL: list[float] = [0.0]


def _log_factorials(n: int) -> list[float]:
    """The log-factorial table, grown first if it does not reach k = n."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if n >= len(table):
        size = max(n + 1, 2 * len(table))
        table = table + [math.lgamma(k + 1) for k in range(len(table), size)]
        _LOG_FACTORIAL = table
    return table


def _binomial_term(log_fact: list[float], n: int, b: int, succ: int, fail: int,
                   log_p: float, log_q: float) -> float:
    """C(n, b) * p^succ * (1-p)^fail in log space, given log p and log(1-p).

    Log evaluation keeps huge binomials times tiny probability powers finite.
    """
    log_val = log_fact[n] - log_fact[b] - log_fact[n - b]
    if succ:
        log_val += succ * log_p
    if fail:
        log_val += fail * log_q
    return math.exp(log_val)


def _active_series(us: Iterable[int], ts: int, p: float) -> dict[int, float]:
    """g(u) for each u in ``us``, for a finite cutoff t* and 0 < p < 1.

    g(u) = sum_{b=0}^{(u-1)//(t*+1)} C(u-1-b t*, b) p^(b+1) (1-p)^(u-1-b(t*+1))
    is Pr[M_{t*}(t) = m, X(t) = 1] for u = t - m and any t > t*+1.  Only the
    requested u are evaluated, so a sparse time grid costs no more than its
    own rows.
    """
    wanted = set(us)
    block = ts + 1
    log_fact = _log_factorials(max(wanted, default=0))
    log_p, log_q = math.log(p), math.log1p(-p)
    series = {}
    for u in wanted:
        total = 0.0
        for b in range((u - 1) // block + 1):
            total += _binomial_term(log_fact, u - 1 - b * ts, b, b + 1,
                                    u - 1 - b * block, log_p, log_q)
        series[u] = total
    return series


# ---------------------------------------------------------------------------
# joint and marginal link-status distributions
# ---------------------------------------------------------------------------

def joint_prob(t: int, tstar: CutoffLike, p: float, m: int, x: int) -> float:
    """Pr[M_{t*}(t) = m, X(t) = x] under the cutoff policy.

    For finite t* the memory time is the mod convention value in {0..t*};
    for t* = infinity, m = -1 encodes the unloaded memory (only state with
    X = 0) and m in {0..t-1} indexes ages of the kept link.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if x not in (0, 1):
        raise ValueError(f"x must be a bit, got {x}")
    _validate_p(p)
    cut = Cutoff.parse(tstar)

    if cut.is_infinite:
        if x == 0:
            if m != -1:
                raise ValueError(f"for infinite cutoff X=0 requires m=-1, got m={m}")
            return (1.0 - p) ** t
        if not 0 <= m <= t - 1:
            if m == -1:
                raise ValueError("m=-1 encodes the unloaded memory, not an active link")
            return 0.0
        return p * (1.0 - p) ** (t - m - 1)

    ts = cut.finite_value
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
        log_fact = _log_factorials(t)
        log_p, log_q = math.log(p), math.log1p(-p)
        total = 0.0
        for b in range((t - 1) // block + 1):
            total += _binomial_term(log_fact, t - 1 - b * ts, b, b, t - b * block,
                                    log_p, log_q)
        return total

    # x == 1
    if t <= ts + 1:
        return p * (1.0 - p) ** (t - m - 1) if m <= t - 1 else 0.0
    return _active_series((t - m,), ts, p)[t - m]


@dataclass(frozen=True)
class FidelityExpectations:
    e_ftilde: float
    e_f: Optional[float]  # None when the link is never active


@dataclass(frozen=True)
class ActiveRow:
    """The active-link distribution at one time t under the cutoff policy.

    ``joint[m]`` is Pr[M_{t*}(t) = m, X(t) = 1] for every age m the link can
    have at t: 0..min(t, t*+1)-1, or 0..t-1 for t* = infinity.
    ``prob_active`` is Pr[X(t) = 1].  ``fidelity`` holds E[F~(t)] and E[F(t)]
    when the row was built with a fidelity curve.
    """

    t: int
    joint: tuple[float, ...]
    prob_active: float
    fidelity: Optional[FidelityExpectations] = None


def active_rows(times: Sequence[int], tstar: CutoffLike, p: float,
                fcurve: Optional[Callable[[int], float]] = None) -> Iterator[ActiveRow]:
    """Yield the ActiveRow at each time in ``times``, in the order given.

    The binomial sums behind all rows are evaluated once for the series
    (see the module docstring), the powers (1-p)^k once, and f_m once per
    age.  Each value equals what `joint_prob`, `prob_active` and
    `expected_fidelity_cutoff` return for that time.  Rows are made as they
    are consumed, so a long series holds one row at a time.
    """
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    times = list(times)
    for t in times:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
    if cut.is_infinite:
        ts, block = None, None
        max_age = max(times, default=0)
    else:
        ts = cut.finite_value
        block = ts + 1
        max_age = min(max(times, default=0), block)
    series: dict[int, float] = {}
    if block is not None and 0.0 < p < 1.0:
        series = _active_series((t - m for t in times if t > block
                                 for m in range(block)), ts, p)
    powers = [(1.0 - p) ** k for k in range(max_age)]
    fvals = [fcurve(m) for m in range(max_age)] if fcurve is not None else None

    for t in times:
        if block is None or t <= block:
            joint = tuple(p * powers[t - m - 1] for m in range(t))
            active = 1.0 - (1.0 - p) ** t
        else:
            if p == 0.0:
                joint = (0.0,) * block
            elif p == 1.0:
                joint = tuple(1.0 if m == (t - 1) % block else 0.0 for m in range(block))
            else:
                joint = tuple(series[t - m] for m in range(block))
            active = sum(joint)
        fidelity = None
        if fvals is not None:
            e_ftilde = sum(fvals[m] * w for m, w in enumerate(joint))
            if active == 0.0:
                fidelity = FidelityExpectations(e_ftilde=0.0, e_f=None)
            else:
                fidelity = FidelityExpectations(e_ftilde=e_ftilde, e_f=e_ftilde / active)
        yield ActiveRow(t=t, joint=joint, prob_active=active, fidelity=fidelity)


def prob_active(t: int, tstar: CutoffLike, p: float) -> float:
    """Pr[X(t) = 1] under the cutoff policy."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if cut.is_infinite or t <= cut.finite_value + 1:
        return 1.0 - (1.0 - p) ** t
    return next(active_rows((t,), cut, p)).prob_active


@dataclass(frozen=True)
class SteadyState:
    """t -> infinity limits of the link-status distribution."""

    prob_active_inf: float
    joint_active_inf: dict[int, float]  # m -> lim Pr[M=m, X=1]
    joint_failed_inf: float             # lim Pr[M=t*, X=0]
    conditional_m_inf: Optional[float]  # lim Pr[M=m | X=1], uniform over m


def steady_state(tstar: CutoffLike, p: float) -> SteadyState:
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if cut.is_infinite:
        # the first established link is kept forever
        active = 1.0 if p > 0.0 else 0.0
        return SteadyState(prob_active_inf=active, joint_active_inf={},
                           joint_failed_inf=1.0 - active, conditional_m_inf=None)
    ts = cut.finite_value
    denom = 1.0 + ts * p
    active = (ts + 1) * p / denom
    per_age = p / denom
    joint_active = {m: per_age for m in range(ts + 1)}
    failed = (1.0 - p) / denom
    conditional = 1.0 / (ts + 1) if p > 0.0 else None
    return SteadyState(prob_active_inf=active, joint_active_inf=joint_active,
                       joint_failed_inf=failed, conditional_m_inf=conditional)


def expected_fidelity_cutoff(t: int, tstar: CutoffLike, p: float,
                             fcurve: Callable[[int], float]) -> FidelityExpectations:
    """E[F~(t)] = sum_m f_m Pr[M=m, X=1] and E[F(t)] = E[F~(t)] / Pr[X=1]."""
    return next(active_rows((t,), tstar, p, fcurve)).fidelity


def steady_fidelity_cutoff(tstar: CutoffLike, p: float,
                           fcurve: Callable[[int], float]) -> FidelityExpectations:
    """Steady-state fidelity: E[F~] = p/(1+t*p) sum_m f_m, E[F] = mean of f_0..f_t*."""
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if cut.is_infinite:
        raise ValueError("steady-state fidelity sums require a finite cutoff")
    ts = cut.finite_value
    f_sum = sum(fcurve(m) for m in range(ts + 1))
    e_ftilde = p / (1.0 + ts * p) * f_sum
    if p == 0.0:
        return FidelityExpectations(e_ftilde=0.0, e_f=None)
    return FidelityExpectations(e_ftilde=e_ftilde, e_f=f_sum / (ts + 1))


# ---------------------------------------------------------------------------
# success rate
# ---------------------------------------------------------------------------

def expected_success_rate(t: int, tstar: CutoffLike, p: float) -> float:
    """E[S(t)]: expected fraction of link requests that succeeded by time t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    _validate_p(p)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    cut = Cutoff.parse(tstar)
    if cut.is_infinite or t <= cut.finite_value + 1:
        return sum(p * (1.0 - p) ** j / (j + 1) for j in range(t))
    ts = cut.finite_value
    block = ts + 1
    log_fact = _log_factorials(t)
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for b in range((t - 1) // block + 1):
        if b > 0:
            # all-trailing-zeros sequences: S = Y1 / (t - t* Y1)
            total += b / (t - ts * b) * _binomial_term(
                log_fact, t - 1 - b * ts, b, b, t - b * block, log_p, log_q)
        for k in range(1, block + 1):
            fail = t - k - b * block
            if fail < 0:
                continue
            total += (b + 1) / (t - k - ts * b + 1) * _binomial_term(
                log_fact, t - k - b * ts, b, b + 1, fail, log_p, log_q)
    return total


@dataclass(frozen=True)
class SuccessRateLimits:
    limit: float
    plateau: Callable[[int], float]


def success_rate_limits(tstar: CutoffLike, p: float) -> SuccessRateLimits:
    """t -> infinity limit of E[S(t)] and the plateau values for t* = infinity.

    Finite t*: the limit is p.  t* = infinity: the limit is -p ln p / (1-p),
    and E[S(t)] descends through plateaus p * 2F1(1, 1, 2+x, 1-p), x = 0, 1, ...
    p in {0, 1} are handled as the continuous limits.
    """
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if p == 0.0:
        return SuccessRateLimits(limit=0.0, plateau=lambda x: 0.0)
    if p == 1.0:
        return SuccessRateLimits(limit=1.0, plateau=lambda x: 1.0)
    if cut.is_infinite:
        limit = -p * math.log(p) / (1.0 - p)
    else:
        limit = p

    def plateau(x: int) -> float:
        if x < 0:
            raise ValueError(f"plateau index must be >= 0, got {x}")
        return p * hyp2f1_series(1.0, 1.0, 2.0 + x, 1.0 - p)

    return SuccessRateLimits(limit=limit, plateau=plateau)


def hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) by direct series summation."""
    if abs(z) >= 1.0:
        raise ValueError(f"series requires |z| < 1, got {z}")
    if c <= 0.0 and c == int(c):
        raise ValueError(f"c must not be a non-positive integer, got {c}")
    total = 1.0
    term = 1.0
    for n in range(HYP2F1_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (1.0 + n)) * z
        total += term
        if abs(term) < HYP2F1_REL_TOL * abs(total):
            return total
    raise ArithmeticError(f"2F1 series did not converge for z={z}")


# ---------------------------------------------------------------------------
# waiting time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitingTime:
    """The waiting-time law for an end-user request at time t_req.

    ``pmf(t)`` is the analytic form q * p * (1-p)^(t-2) for t >= 1, where
    q = Pr[M = t*, X = 0 at t_req + 1]; its total mass is q/(1-p), not 1
    in general (the t = 1 value extrapolates the geometric tail rather than
    equal Pr[X(t_req+1) = 1]).  ``expectation`` = q / (p (1-p)) follows the
    same convention; ``conditional_pmf`` is the properly normalized law of
    the wait given the link was down at t_req + 1.
    """

    t_req: int
    expectation: float
    limit: float
    pmf: Callable[[int], float]
    total_mass: float

    def conditional_pmf(self, t: int) -> float:
        """Pr[W = t | link down at t_req + 1]: geometric from t = 2.

        The analytic pmf restricted to t >= 2 has total mass q (the down
        probability itself), so renormalizing by it yields a proper law.
        """
        if t < 2:
            return 0.0
        mass = self.total_mass - self.pmf(1)  # = q
        if mass == 0.0:
            return 0.0
        return self.pmf(t) / mass


def waiting_time(t_req: int, tstar: CutoffLike, p: float) -> WaitingTime:
    if t_req < 0:
        raise ValueError(f"t_req must be >= 0, got {t_req}")
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if p == 1.0:
        # a request never fails: the link is re-established instantly
        return WaitingTime(t_req=t_req, expectation=1.0, limit=1.0,
                           pmf=lambda t: 1.0 if t == 1 else 0.0, total_mass=1.0)
    if p == 0.0:
        return WaitingTime(t_req=t_req, expectation=math.inf, limit=math.inf,
                           pmf=lambda t: 0.0, total_mass=0.0)
    if cut.is_infinite:
        q = (1.0 - p) ** (t_req + 1)
        limit = 0.0
    else:
        q = joint_prob(t_req + 1, cut, p, cut.finite_value, 0)
        limit = 1.0 / (p * (1.0 + cut.finite_value * p))

    def pmf(t: int) -> float:
        if t < 1:
            return 0.0
        return q * p * (1.0 - p) ** (t - 2)

    return WaitingTime(t_req=t_req, expectation=q / (p * (1.0 - p)), limit=limit,
                       pmf=pmf, total_mass=q / (1.0 - p))


# ---------------------------------------------------------------------------
# Markov-chain form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionMatrix:
    """The cutoff policy's (X, M) chain as a column-stochastic matrix.

    For finite t*, states are all (x, m) pairs with m in {0..t*}; for
    t* = infinity, states are x alone.  ``matrix[i, j]`` is the probability
    of moving to state i from state j.
    """

    tstar: Cutoff
    p: float
    states: tuple
    matrix: np.ndarray

    def state_index(self, state) -> int:
        return self.states.index(state)

    def initial_distribution(self) -> np.ndarray:
        """The t = 1 distribution (the A(0) = 1 request)."""
        dist = np.zeros(len(self.states))
        if self.tstar.is_infinite:
            dist[self.state_index(1)] = self.p
            dist[self.state_index(0)] = 1.0 - self.p
        else:
            dist[self.state_index((1, 0))] = self.p
            dist[self.state_index((0, self.tstar.finite_value))] = 1.0 - self.p
        return dist

    def distribution_at(self, t: int) -> np.ndarray:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
        return np.linalg.matrix_power(self.matrix, t - 1) @ self.initial_distribution()


def transition_matrix(tstar: CutoffLike, p: float) -> TransitionMatrix:
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if cut.is_infinite:
        # states (x=0, x=1); an established link is kept forever
        mat = np.array([[1.0 - p, 0.0],
                        [p, 1.0]])
        return TransitionMatrix(tstar=cut, p=p, states=(0, 1), matrix=mat)
    ts = cut.finite_value
    states = tuple((x, m) for x in (0, 1) for m in range(ts + 1))
    index = {s: i for i, s in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for (x, m), j in index.items():
        if x == 1 and m < ts:
            # keep the link one more step
            mat[index[(1, m + 1)], j] = 1.0
        else:
            # memory unloaded (x=0) or at cutoff age: a request is made
            mat[index[(1, 0)], j] = p
            mat[index[(0, ts)], j] = 1.0 - p
    return TransitionMatrix(tstar=cut, p=p, states=states, matrix=mat)
