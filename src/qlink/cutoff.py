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

and the row at time t is g(t), g(t-1), ..., g(t-t*).  Beside each term of
g(t) lies a term of the down family, C(t-1-b t*, b) p^b (1-p)^(t-b(t*+1)),
whose sum is Pr[M_{t*}(t) = t*, X(t) = 0] and so the waiting time.  The
k-terms of E[S(t)] are g's terms at u = t-k+1 times a weight, and its
trailing-zero terms the down terms times another.  `_binomial_sums`
evaluates the sums a series asks for, only at the u and t the series
needs, by one of two routes.  A series whose times all lie within `_SHORT`
is summed term by term in Python (`_term_sums`), which needs no numpy: the
paper's figures are all such series, and `qlink reproduce` never imports
numpy.  A longer series is evaluated in b-rows of terms (b counts
completed blocks), several rows per numpy call; `_terms` is the one place
that route forms a term.  Both read the one log-factorial table.

Summation order.  The values are bit-identical to adding the terms one at a
time, on either route, and the CSV goldens rely on that.  Each term is
exp(log C + succ log p + fail log(1-p)) with log C = lgamma(n+1) -
lgamma(b+1) - lgamma(n-b+1).  Python and numpy both form the log with the
same IEEE double operations in that order (an integer count times log p is
the count converted exactly, then one multiply; a zero count adds -0.0,
which changes nothing); `math.exp` is applied to each log on its own, never
`np.exp`, whose last bit differs.  Each sum starts at 0.0 and takes its
terms one addition at a time, as a Python `+=` or `reduce(add, ..., 0.0)`
on the short route and a numpy `+=` per row or a cumulative sum down the
columns on the long one, the same IEEE additions: b outer; within b, E[S]'s
trailing-zero term (0.0 for b = 0), then its k = 1..t*+1 terms, each
weight formed before it multiplies its term.  Adding 0.0 changes no sum,
so the short route skips the cells where the long one adds a 0.0 term.
A row of the distribution and E[F~] are added in increasing m with
`reduce(add, ..., 0.0)` or `np.cumsum`, and the geometric E[S] prefix with
`itertools.accumulate`.  No float sum in the package uses the built-in
`sum()`, which adds floats with compensation from Python 3.12, so the
values do not depend on the Python version.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
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
    memory is unloaded or has been held for t* steps: one hold run over
    age while t <= t*, then a request run from t*."""
    from .engine import Policy
    cut = Cutoff.parse(tstar)
    ts = cut.value  # no age reaches t* = infinity
    rule = lambda t, x, m: 1.0 if (m == -1 or m >= ts) else 0.0
    hold = (1.0, (0,), (0.0,))
    discard = (1.0, (0, ts), (0.0, 1.0)) if ts else (1.0, (0,), (1.0,))
    return Policy.from_state_rule(rule, "deterministic", f"cutoff({cut})",
                                  lambda t: hold if t <= ts else discard)


def memory_time_cutoff(history: Union[History, Sequence[int]], tstar: CutoffLike) -> int:
    """The cutoff policy's memory time M_{t*}(t) = (sum_j x_j - 1) mod (t*+1).

    Equals the engine's general M(t) whenever that is >= 0, and t* when the
    general M(t) is -1 (unloaded).  For t* = infinity it is sum_j x_j - 1.
    """
    from .engine import History
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

# Entry k is math.lgamma(k + 1).  It is never changed in place, because
# `array.extend` raises BufferError while a reader's `np.frombuffer` view of
# it is alive: `_log_factorials` builds a longer array and rebinds the name,
# and every reader keeps the array it fetched.
_LOG_FACTORIAL = array("d", [0.0])


def _log_factorials(n: int) -> array:
    """The log-factorial table, grown first if it does not reach k = n."""
    global _LOG_FACTORIAL
    table = _LOG_FACTORIAL
    if n >= len(table):
        size = max(n + 1, 2 * len(table))
        table = table + array("d", map(math.lgamma, range(len(table) + 1, size + 1)))
        _LOG_FACTORIAL = table
    return table


def _terms(log_fact: np.ndarray, n, b, succ, fail, log_p: float,
           log_q: float) -> np.ndarray:
    """C(n, b) p^succ (1-p)^fail for integer arrays that broadcast to n's
    shape, given log p and log(1-p), and 0.0 where n < b: math.exp of each
    lf[n] - lf[b] - lf[n-b] + succ log p + fail log(1-p).  Log evaluation
    keeps huge binomials times tiny probability powers finite; np.exp
    differs from math.exp in the last bit."""
    import numpy as np
    logs = (log_fact.take(n, mode="clip") - log_fact[b] - log_fact.take(n - b, mode="clip")
            + succ * log_p + fail * log_q)
    logs[n < b] = -math.inf  # math.exp(-inf) == 0.0
    values = map(math.exp, logs.ravel().tolist())
    return np.fromiter(values, float, logs.size).reshape(logs.shape)


def _accumulate(acc: np.ndarray, rows: np.ndarray) -> None:
    """acc += rows[0]; acc += rows[1]; ...: one numpy add per row while
    there are no more rows than columns, else one cumulative sum down the
    columns, the same IEEE additions in the same order."""
    import numpy as np
    if len(rows) <= rows.shape[1]:
        for row in rows:
            acc += row
    else:
        acc[:] = np.cumsum(np.concatenate((acc[None], rows)), axis=0)[-1]


# The most cells of a transient array: the kernel's memory stays
# O(_CHUNK + the largest u + t*) whatever the times asked for.
_CHUNK = 4096

Run = tuple[int, int, list[tuple[int, int]]]


def _runs(times: Sequence[int], reach: int) -> list[Run]:
    """The windows t-reach..t of the sorted distinct ``times``, merged where
    they touch or overlap, as (lo, hi, t_runs) with t_runs the runs of
    consecutive times in lo..hi."""
    runs: list[Run] = []
    for t in times:
        if runs and t - reach <= runs[-1][1] + 1:
            lo, _, t_runs = runs.pop()
            if t == t_runs[-1][1] + 1:
                t_runs[-1] = (t_runs[-1][0], t)
            else:
                t_runs.append((t, t))
            runs.append((lo, t, t_runs))
        else:
            runs.append((t - reach, t, [(t, t)]))
    return runs


def _row_chunks(lo: int, hi: int, block: int) -> Iterator[tuple[int, int, int]]:
    """(b0, b1, u0) for each group of up to _CHUNK cells of the b-rows of
    the run lo..hi, evaluated from u0, the first u with a term in row b0.
    Row b has terms from u = b(t*+1) + 1 on."""
    rows = (hi - 1) // block + 1
    height = max(1, _CHUNK // max(hi - lo + 1, block + 1))
    for b0 in range(0, rows, height):
        yield b0, min(rows, b0 + height), max(lo, b0 * block + 1)


# The largest time of a series that `_binomial_sums` sums term by term in
# Python.  Up to it the Python loop costs a few ms at most, less than numpy's
# import (~0.1 s and 13 MB) in a process that needs numpy for nothing else;
# above it the loop falls well behind the numpy route (g and E[S] at t* = 0
# over t = 1..128 already take ~9 ms against ~3 ms).
_SHORT = 128


def _term_sums(runs: list[Run], ts: int, p: float,
               want: set[str]) -> dict[str, dict[int, float]]:
    """`_binomial_sums` one term at a time: each term formed by `_terms`'
    expression, each sum added from 0.0 in the kernel's order, leaving out
    the cells where the kernel adds 0.0.  The same bits."""
    block, top = ts + 1, runs[-1][1]
    lf = _log_factorials(top)[:top + 1].tolist()
    log_p, log_q = math.log(p), math.log1p(-p)

    def term(n: int, b: int, succ: int, fail: int) -> float:
        return math.exp(lf[n] - lf[b] - lf[n - b] + succ * log_p + fail * log_q)

    sums: dict[str, dict[int, float]] = {name: {} for name in want}
    for lo, hi, t_runs in runs:
        # g's terms at each u, by b up to the last row with a term at u
        g_terms = {u: [term(u - 1 - b * ts, b, b + 1, u - 1 - b * block)
                       for b in range((u - 1) // block + 1)]
                   for u in range(lo, hi + 1)} if want & {"g", "es"} else {}
        if "g" in want:
            sums["g"].update((u, reduce(add, terms, 0.0)) for u, terms in g_terms.items())
        if not want & {"down", "es"}:
            continue
        for t in (t for ta, tb in t_runs for t in range(ta, tb + 1)):
            down = [term(t - 1 - b * ts, b, b, t - b * block)
                    for b in range((t - 1) // block + 1)]
            if "down" in want:
                sums["down"][t] = reduce(add, down, 0.0)
            if "es" in want:
                total = 0.0
                for b, term_b in enumerate(down):
                    total += b / (t - b * ts) * term_b
                    for u in range(t, max(t - block, b * block), -1):  # k = t-u+1
                        total += (b + 1) / (u - b * ts) * g_terms[u][b]
                sums["es"][t] = total
    return sums


def _binomial_sums(runs: list[Run], ts: int, p: float,
                   want: set[str]) -> dict[str, dict[int, float]]:
    """The sums named in ``want``, for a finite cutoff t* and 0 < p < 1:
    "g", g(u) at every u of the ``runs``; "down", Pr[M_{t*}(t) = t*,
    X(t) = 0], and "es", E[S(t)], at every t of their t_runs.

    Every t must be above t*+1, and for E[S] its window t-t*..t must lie in
    its run, as `_runs(times, t*)` makes them.  The b-rows of terms (b
    counts completed blocks) are formed in the groups of `_row_chunks`, only
    for the families the asked sums need, and added in increasing b.  With
    n = t-1-b t* and F = n-b, g's term at u = t has p^(b+1) (1-p)^F and the
    down term p^b (1-p)^(F+1).  E[S(t)] takes, for each b, the down term
    times b/(t - t* b), then g's terms at u = t-k+1, k = 1..t*+1, times
    (b+1)/(u - t* b).

    Series whose times all lie within `_SHORT` are summed term by term in
    Python (`_term_sums`), longer ones with numpy.
    """
    if runs[-1][1] <= _SHORT:
        return _term_sums(runs, ts, p, want)
    import numpy as np
    block = ts + 1
    log_fact = np.frombuffer(_log_factorials(runs[-1][1]), float)  # a view, no copy
    log_p, log_q = math.log(p), math.log1p(-p)
    with_g, with_es = bool(want & {"g", "es"}), "es" in want
    with_down = bool(want & {"down", "es"})
    sums: dict[str, dict[int, float]] = {name: {} for name in want}
    for lo, hi, t_runs in runs:
        g_run = np.zeros(hi - lo + 1)
        by_t = {name: [np.zeros(tb - ta + 1) for ta, tb in t_runs]
                for name in ("down", "es") if name in want}
        for b0, b1, u0 in _row_chunks(lo, hi, block):
            # cells before a row's first u hold 0.0, which adds nothing; their
            # weights only need to be finite (n + 1 >= b+1 >= 1 on the others)
            b = np.arange(b0, b1)[:, None]
            fail = np.arange(u0 - 1, hi) - b * block  # F at (b, u)
            n = fail + b  # and n + 1 = u - t* b
            if with_g:
                terms = _terms(log_fact, n, b, b + 1, fail, log_p, log_q)
                _accumulate(g_run[u0 - lo:], terms)
            if with_es:
                weighted = np.zeros((b1 - b0, hi - lo + 1))  # E[S]'s k-terms by u
                weighted[:, u0 - lo:] = (b + 1) / np.maximum(n + 1, 1) * terms
            if not with_down:
                continue
            for i, (ta, tb) in enumerate(t_runs):
                if tb < u0:  # these rows add nothing to these times
                    continue
                first = max(ta, u0)
                at_t = np.s_[:, first - u0:tb - u0 + 1]
                down = _terms(log_fact, n[at_t], b, b, fail[at_t] + 1, log_p, log_q)
                if "down" in want:
                    _accumulate(by_t["down"][i][first - ta:], down)
                if not with_es:
                    continue
                # S = Y1 / (t - t* Y1) on the all-trailing-zeros sequences
                trailing = np.zeros((b1 - b0, tb - ta + 1))
                trailing[:, first - ta:] = b / np.maximum(n[at_t] + 1, 1) * down
                # [i, k-1, j] is the k-term of t = ta + j, at u = t - k + 1
                row_step, col_step = weighted.strides
                k_terms = np.ndarray((b1 - b0, block, tb - ta + 1), float, weighted,
                                     (ta - lo) * col_step, (row_step, -col_step, col_step))
                # add trailing, then k = 1..t*+1, for each b in turn, at
                # most _CHUNK cells at a time
                step = max(1, _CHUNK // ((b1 - b0) * (block + 1)))
                for j in range(0, tb - ta + 1, step):
                    chain = np.concatenate((trailing[:, None, j:j + step],
                                            k_terms[:, :, j:j + step]), axis=1)
                    _accumulate(by_t["es"][i][j:j + step], chain.reshape(-1, chain.shape[2]))
        if "g" in want:
            sums["g"].update(zip(range(lo, hi + 1), g_run.tolist()))
        for name, t_sums in by_t.items():
            for (ta, tb), values in zip(t_runs, t_sums):
                sums[name].update(zip(range(ta, tb + 1), values.tolist()))
    return sums


# ---------------------------------------------------------------------------
# joint and marginal link-status distributions
# ---------------------------------------------------------------------------

def joint_prob(t: int, tstar: CutoffLike, p: float, m: int, x: int) -> float:
    """Pr[M_{t*}(t) = m, X(t) = x] under the cutoff policy.

    For finite t* the memory time is the mod convention value in {0..t*};
    for t* = infinity, m = -1 encodes the unloaded memory (only state with
    X = 0) and m in {0..t-1} indexes ages of the kept link; any other m
    raises ValueError.  It reads the `active_rows` row at x = 1, 0.0 past
    it, and `_down_probs` at x = 0.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if x not in (0, 1):
        raise ValueError(f"x must be a bit, got {x}")
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    unloaded = -1 if cut.is_infinite else cut.finite_value
    if cut.is_infinite and (m == unloaded) != (x == 0):
        raise ValueError("for infinite cutoff m=-1 encodes the unloaded memory, the only "
                         f"state with X=0, got m={m}, x={x}")
    if cut.is_infinite and m < -1:
        raise ValueError(f"m must be -1 or an age m >= 0, got {m}")
    if not cut.is_infinite and not 0 <= m <= unloaded:
        raise ValueError(f"m must be in 0..{unloaded}, got {m}")
    if x == 0:
        return _down_probs([t], cut, p)[0] if m == unloaded else 0.0
    joint = next(active_rows((t,), cut, p)).joint
    return joint[m] if 0 <= m < len(joint) else 0.0


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
    when the row was built with a fidelity curve, and ``success_rate``
    E[S(t)] when it was asked for.
    """

    t: int
    joint: tuple[float, ...]
    prob_active: float
    fidelity: Optional[FidelityExpectations] = None
    success_rate: Optional[float] = None


def _checked_times(times: Sequence[int]) -> list[int]:
    times = list(times)
    for t in times:
        if t < 1:
            raise ValueError(f"t must be >= 1, got {t}")
    return times


def _block(cut: Cutoff) -> Union[int, float]:
    """t*+1, the length of a held link's life; infinity for t* = infinity."""
    return math.inf if cut.is_infinite else cut.finite_value + 1


def _long_sums(times: list[int], cut: Cutoff, p: float,
               want: set[str]) -> dict[str, dict[int, float]]:
    """`_binomial_sums` over the times above t*+1, where it applies; g and
    E[S] at t read g over t-t*..t, the down family only at t."""
    long = sorted({t for t in times if t > _block(cut)})
    if not long or not 0.0 < p < 1.0:
        return {name: {} for name in want}
    ts = cut.finite_value
    return _binomial_sums(_runs(long, ts if want & {"g", "es"} else 0), ts, p, want)


def _down_probs(times: list[int], cut: Cutoff, p: float) -> list[float]:
    """Pr[M_{t*}(t) = t*, X(t) = 0] at each of ``times``: the down family
    of `_long_sums` where it applies, else (1-p)^t, the all-fail sequence."""
    down = _long_sums(times, cut, p, {"down"})["down"]
    return [down[t] if t in down else (1.0 - p) ** t for t in times]


def _success_rates(times: list[int], block: Union[int, float], p: float,
                   sums: dict[int, float]) -> list[float]:
    """E[S(t)] at each of ``times``, given `_long_sums`' E[S] for t > t*+1.

    For t <= t*+1 it is the geometric prefix sum of p (1-p)^j / (j+1) over
    j < t."""
    if p == 0.0 or p == 1.0:
        return [float(p)] * len(times)
    short = {t for t in times if t <= block}
    prefix = accumulate(p * (1.0 - p) ** j / (j + 1)
                        for j in range(max(short, default=0)))
    values = {t: total for t, total in enumerate(prefix, start=1) if t in short}
    return [values[t] if t <= block else sums[t] for t in times]


def active_rows(times: Sequence[int], tstar: CutoffLike, p: float,
                fcurve: Optional[Callable[[int], float]] = None,
                success: bool = False) -> Iterator[ActiveRow]:
    """Yield the ActiveRow at each time in ``times``, in the order given.

    The binomial sums behind all rows, and behind E[S(t)] when ``success``
    is set, are evaluated in one pass for the series (see the module
    docstring), the powers (1-p)^k once, and f_m once per age.  Each value
    equals what `joint_prob`, `prob_active`, `expected_fidelity_cutoff` and
    `expected_success_rate` return for that time.  Rows are made as they
    are consumed, so a long series holds one row at a time.
    """
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    times = _checked_times(times)
    block = _block(cut)
    sums = _long_sums(times, cut, p, {"g", "es"} if success else {"g"})
    series = sums["g"]
    rates = _success_rates(times, block, p, sums["es"]) if success else [None] * len(times)
    max_age = min(max(times, default=0), block)
    heads = [p * (1.0 - p) ** k for k in range(max_age)]  # Pr[M = t-1-k, X = 1], t <= t*+1
    fvals = [fcurve(m) for m in range(max_age)] if fcurve is not None else None

    for t, rate in zip(times, rates):
        if t <= block:
            joint = tuple(heads[t - 1::-1])
            active = 1.0 - (1.0 - p) ** t
        else:
            if p == 0.0:
                joint = (0.0,) * block
            elif p == 1.0:
                joint = tuple(1.0 if m == (t - 1) % block else 0.0 for m in range(block))
            else:
                joint = tuple(series[t - m] for m in range(block))
            active = reduce(add, joint, 0.0)
        fidelity = None
        if fvals is not None:
            e_ftilde = reduce(add, map(mul, fvals, joint), 0.0)
            if active == 0.0:
                fidelity = FidelityExpectations(e_ftilde=0.0, e_f=None)
            else:
                fidelity = FidelityExpectations(e_ftilde=e_ftilde, e_f=e_ftilde / active)
        yield ActiveRow(t=t, joint=joint, prob_active=active, fidelity=fidelity,
                        success_rate=rate)


def cutoff_table(t: int, tstars: Sequence[CutoffLike], p: float,
                 fcurve: Callable[[int], float]
                 ) -> list[tuple[float, float, Optional[float]]]:
    """(E[F~(t)], Pr[X(t) = 1], E[F(t)]) at one time t for each cutoff in
    ``tstars``, in order, each equal bit for bit to the values of
    ``next(active_rows((t,), t*, p, fcurve))``; f_m is evaluated at most once.

    For t > t*+1 and 0 < p < 1, g(t-m) for m = 0..t* is the column sums,
    in increasing b, of a (b, m) array of terms formed as `_binomial_sums`
    forms them.  Its cell k = b(t*+1) + m has F = t-1-k failures, so the
    terms fill its first t cells and depend on (k, b) alone.  Terms with
    b < sqrt(t/2) are shared by every cutoff and evaluated once, which
    takes the `math.exp` calls from O(t^2) to O(t^1.5); a cutoff reads
    them as one strided (b, m) view of a table zero-padded to width 2t.
    The sums add rows in order (`_accumulate`).  At p = 0 the link is never
    active, and at p = 1 it is active at age (t-1) mod (t*+1) with
    probability 1.  Other cutoffs go through `active_rows`.
    """
    _validate_p(p)
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if p == 0.0:
        return [(0.0, 0.0, None)] * len(tstars)
    fvals = [fcurve(m) for m in range(t)]
    if p == 1.0:
        ages = ((t - 1) % block if t > block else t - 1
                for block in map(_block, map(Cutoff.parse, tstars)))
        return [(fvals[m], 1.0, fvals[m]) for m in ages]
    import numpy as np
    from numpy.lib.stride_tricks import as_strided
    f = np.array(fvals)
    log_fact = np.frombuffer(_log_factorials(t), float)  # a view, no copy
    log_p, log_q = math.log(p), math.log1p(-p)

    def terms_at(k, b):
        """g's terms at cells k with b completed blocks: F = t-1-k."""
        fail = t - 1 - k
        return _terms(log_fact, fail + b, b, b + 1, fail, log_p, log_q)

    cells = np.arange(t)
    low = math.isqrt(t // 2) + 1
    width, step = 2 * t, 8  # float64 bytes; width >= t + block for every block < t
    shared = np.zeros((low, width))  # [b, k]: the term, for b <= k < t; 0 past t
    for b in range(low):
        shared[b, b:t] = terms_at(cells[b:], b)
    table = []
    for tstar in tstars:
        cut = Cutoff.parse(tstar)
        if t <= _block(cut):
            row = next(active_rows((t,), cut, p, fvals.__getitem__))
            table.append((row.fidelity.e_ftilde, row.prob_active, row.fidelity.e_f))
            continue
        block = cut.finite_value + 1
        rows = min(low, -(-t // block))
        joint = np.zeros(block)  # g(t - m)
        # shared's cell (b, b*block + m) sits at flat offset b*(width + block) + m
        _accumulate(joint, as_strided(shared, (rows, block), ((width + block) * step, step),
                                      writeable=False))
        if rows * block < t:  # rows b >= low
            k = cells[rows * block:]
            terms = np.zeros(-(-len(k) // block) * block)
            terms[:len(k)] = terms_at(k, k // block)
            _accumulate(joint, terms.reshape(-1, block))
        active = float(np.cumsum(joint)[-1])
        e_ftilde = float(np.cumsum(f[:block] * joint)[-1])
        table.append((e_ftilde, active, e_ftilde / active) if active != 0.0
                     else (0.0, active, None))
    return table


def prob_active(t: int, tstar: CutoffLike, p: float) -> float:
    """Pr[X(t) = 1] under the cutoff policy: ``active_rows``' value, which
    for t <= t*+1 is 1 - (1-p)^t, formed here without the row."""
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if 1 <= t <= _block(cut):
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
    f_sum = reduce(add, (fcurve(m) for m in range(ts + 1)), 0.0)
    e_ftilde = p / (1.0 + ts * p) * f_sum
    if p == 0.0:
        return FidelityExpectations(e_ftilde=0.0, e_f=None)
    return FidelityExpectations(e_ftilde=e_ftilde, e_f=f_sum / (ts + 1))


# ---------------------------------------------------------------------------
# success rate
# ---------------------------------------------------------------------------

def expected_success_rates(times: Sequence[int], tstar: CutoffLike,
                           p: float) -> list[float]:
    """E[S(t)], the expected fraction of link requests that succeeded by
    time t, at each time in ``times``, in the order given.

    For t <= t*+1, and for t* = infinity, E[S(t)] is the geometric prefix
    sum of p (1-p)^j / (j+1) over j < t.  The later times share one
    `_binomial_sums` pass.
    """
    times = _checked_times(times)
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    sums = _long_sums(times, cut, p, {"es"})["es"]
    return _success_rates(times, _block(cut), p, sums)


def expected_success_rate(t: int, tstar: CutoffLike, p: float) -> float:
    """E[S(t)]: expected fraction of link requests that succeeded by time t."""
    return expected_success_rates((t,), tstar, p)[0]


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


def _waiting_time(t_req: int, q: float, p: float, limit: float) -> WaitingTime:
    return WaitingTime(t_req=t_req, expectation=q / (p * (1.0 - p)), limit=limit,
                       pmf=lambda t: q * p * (1.0 - p) ** (t - 2) if t >= 1 else 0.0,
                       total_mass=q / (1.0 - p))


def waiting_times(t_reqs: Sequence[int], tstar: CutoffLike,
                  p: float) -> list[WaitingTime]:
    """The WaitingTime at each t_req in ``t_reqs``, in the order given.

    q = Pr[M = t*, X = 0 at t_req + 1] comes from `_down_probs`, so the
    requests after t* share one `_binomial_sums` pass.
    """
    t_reqs = list(t_reqs)
    for t_req in t_reqs:
        if t_req < 0:
            raise ValueError(f"t_req must be >= 0, got {t_req}")
    _validate_p(p)
    cut = Cutoff.parse(tstar)
    if p in (0.0, 1.0):  # a request always fails, or never does
        wait, mass = (1.0, 1.0) if p == 1.0 else (math.inf, 0.0)
        return [WaitingTime(t_req=t_req, expectation=wait, limit=wait, total_mass=mass,
                            pmf=lambda t: mass if t == 1 else 0.0) for t_req in t_reqs]
    downs = _down_probs([t_req + 1 for t_req in t_reqs], cut, p)
    limit = 0.0 if cut.is_infinite else 1.0 / (p * (1.0 + cut.finite_value * p))
    return [_waiting_time(t_req, q, p, limit) for t_req, q in zip(t_reqs, downs)]


def waiting_time(t_req: int, tstar: CutoffLike, p: float) -> WaitingTime:
    """The waiting-time law for an end-user request at time t_req."""
    return waiting_times((t_req,), tstar, p)[0]


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
        import numpy as np
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
        import numpy as np
        return np.linalg.matrix_power(self.matrix, t - 1) @ self.initial_distribution()


def transition_matrix(tstar: CutoffLike, p: float) -> TransitionMatrix:
    import numpy as np
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
