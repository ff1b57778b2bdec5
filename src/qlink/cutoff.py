"""Closed-form analysis of the memory-cutoff policy.

Under cutoff t*, a request is made at every step while the link is down,
and an established link is held for exactly t* further steps before being
discarded and re-requested.  t* = 0 requests every step; t* = infinity keeps
the first established link forever.  All formulas here are exact in the
model and are cross-checked against brute-force history enumeration in the
tests.

A cutoff is a number, an ``int`` or ``math.inf``: each accessor reads its
``tstar`` with `parse_cutoff`, and t*+1 is a held link's life.  The library
checks its other arguments here too, raising ValueError: an integer (a time,
horizon, age, count or seed) is what `operator.index` takes, numpy integers
included, never a bool or numpy bool (`_checked_int`); a probability (p,
f0, lam) is a number in [0, 1], not a bool or NaN (`_validate_p`); a bit is
the integer 0 or 1, and a bit sequence any iterable of bits (`_checked_bits`).

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
needs, by one of two routes, chosen by the number of g terms the series
forms and by its last time T.  A series of at most `_SHORT_TERMS` terms
that ends by T = `_SHORT_TERMS` is summed in Python (`_term_sums`), which
needs no numpy: it lists the tables it reads up to T, walks u upward,
forms each u's column of terms over b with one list comprehension, and
keeps only the last t*+1 weighted columns, which E[S] reads.  The paper's
figures, and a sweep over t <= 400 at any cutoff, are such series, so
`qlink reproduce` and `qlink sweep` at those sizes never import numpy.
Any other series is evaluated in b-rows of terms (b counts completed
blocks), several rows per numpy call; `_terms` is the one place that route
forms a term.  Both read the one log-factorial table.

Summation order.  The values are bit-identical to adding the terms one at a
time, on either route, and the CSV goldens rely on that.  Each term is
exp(log C + succ log p + fail log(1-p)) with log C = lgamma(n+1) -
lgamma(b+1) - lgamma(n-b+1).  Python and numpy both form the log with the
same IEEE double operations in that order (an integer count times log p is
the count converted exactly, then one multiply; a zero count adds -0.0,
which changes nothing); `math.exp` is applied to each log on its own, never
`np.exp`, whose last bit differs.  A weight is an integer over an integer,
one correctly rounded division whether the two are ints or the floats that
hold them exactly.  Each sum starts at 0.0 and takes its terms one addition
at a time, as `reduce(add, ..., 0.0)` in Python and a numpy `+=` per row or
a cumulative sum down the columns, the same IEEE additions: b outer; within
b, E[S]'s trailing-zero term (0.0 for b = 0), then its k = 1..t*+1 terms,
each weight formed before it multiplies its term.  Adding 0.0 changes no
sum, so the Python route skips g's and the down family's cells where numpy
adds a 0.0 term.
A row of the distribution and E[F~] are added in increasing m with
`reduce(add, ..., 0.0)` or `np.cumsum`, and the geometric E[S] prefix with
`itertools.accumulate`.  No float sum in the package uses the built-in
`sum()`, which adds floats with compensation from Python 3.12, so the
values do not depend on the Python version.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate, repeat
from operator import add, index, mul, truediv
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

    from .engine import Policy

HYP2F1_REL_TOL = 1e-14
HYP2F1_MAX_TERMS = 10 ** 6


# ---------------------------------------------------------------------------
# the cutoff and the argument checks
# ---------------------------------------------------------------------------

CutoffLike = Union[int, float, str]
_BOOLS = ("bool", "bool_")  # the type names of Python's and numpy's bools (numpy 1: "bool_")


def _checked_int(value, low: int, name: str) -> int:
    """``value`` as an ``int`` >= ``low``, else ValueError: `operator.index`
    takes a numpy integer, not a float, a string or None; no bool passes."""
    try:
        checked = None if type(value).__name__ in _BOOLS else index(value)
    except TypeError:
        checked = None
    if checked is None or checked < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return checked


def _checked_times(times: Iterable[int], low: int = 1, name: str = "t") -> list[int]:
    return [_checked_int(t, low, name) for t in times]


def _checked_bits(bits: Iterable[int], name: str) -> tuple[int, ...]:
    """``bits`` as a tuple of ints, else ValueError: a non-iterable, or an
    entry that is not the integer 0 or 1."""
    try:
        checked = tuple(_checked_int(x, 0, name) for x in bits)
    except TypeError:  # not iterable; _checked_int raises only ValueError
        raise ValueError(f"{name} must be a sequence of bits, got {bits!r}") from None
    if max(checked, default=0) > 1:
        raise ValueError(f"{name} must be bits, 0 or 1, got {max(checked)}")
    return checked


def _validate_p(p: float, name: str = "success probability") -> None:
    """ValueError unless ``p`` is a number in [0, 1], not a bool or NaN."""
    try:
        valid = type(p).__name__ not in _BOOLS and 0.0 <= p <= 1.0
    except TypeError:  # not a number
        valid = False
    if not valid:
        raise ValueError(f"{name} must be in [0, 1], got {p!r}")


def parse_cutoff(value: CutoffLike) -> Union[int, float]:
    """t* as a non-negative ``int`` or ``math.inf``, from an int, an integral
    float, infinity, a numeric string or "inf" / "infinity" in any case;
    anything else, a bool included, raises ValueError."""
    ts = value
    try:
        if isinstance(value, str):
            ts = math.inf if value.lower() in ("inf", "infinity") else int(value)
        if ts == math.inf:
            return math.inf
        if type(ts).__name__ not in _BOOLS and ts >= 0 and int(ts) == ts:
            return int(ts)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"cutoff must be a non-negative integer or inf, got {value!r}")


# ---------------------------------------------------------------------------
# the policy and its memory/sequence accessors
# ---------------------------------------------------------------------------

def cutoff_policy(tstar: CutoffLike) -> Policy:
    """The deterministic memory-cutoff policy as an engine Policy.

    In engine state terms (x, M(t) with -1 for unloaded): request iff the
    memory is unloaded or has been held for t* steps, written once as runs:
    one hold run over age while t <= t*, then a request run from t*."""
    from .engine import Policy
    ts = parse_cutoff(tstar)  # no age reaches t* = infinity
    hold = (1.0, (0,), (0.0,))
    discard = (1.0, (0, ts), (0.0, 1.0)) if ts else (1.0, (0,), (1.0,))
    return Policy.from_state_rule(None, "deterministic", lambda t: hold if t <= ts else discard)


def memory_time_cutoff(history: Sequence[int], tstar: CutoffLike) -> int:
    """The cutoff policy's memory time M_{t*}(t) = (sum_j x_j - 1) mod (t*+1)
    of the link values x_1..x_t in ``history``.

    Equals the engine's general M(t) whenever that is >= 0, and t* when the
    general M(t) is -1 (unloaded).  For t* = infinity it is sum_j x_j - 1.
    """
    total = sum(_checked_bits(history, "history"))
    ts = parse_cutoff(tstar)
    return total - 1 if ts == math.inf else (total - 1) % (ts + 1)


@dataclass(frozen=True)
class SequenceStats:
    """(Y1, Y2) for a link-value sequence under a given cutoff.

    Y1 counts full blocks of t*+1 consecutive ones completed by time t-1;
    Y2 counts the remaining trailing ones up to time t.
    """

    y1: int
    y2: int

    def __post_init__(self) -> None:
        _checked_int(self.y1, 0, "Y1")
        _checked_int(self.y2, 0, "Y2")


def sequence_stats(xs: Sequence[int], tstar: CutoffLike) -> SequenceStats:
    xs = _checked_bits(xs, "xs")
    block = parse_cutoff(tstar) + 1  # no run of ones fills an infinite block
    t = len(xs)
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
    t = _checked_int(t, 1, "t")
    ts = parse_cutoff(tstar)
    y1, y2 = stats.y1, stats.y2
    if ts == math.inf:
        if y1 != 0 or y2 > t:
            raise ValueError(f"unrealizable stats for infinite cutoff (Y1={y1}, Y2={y2})")
        if y2 == 0:
            return (1.0 - p) ** t
        return p * (1.0 - p) ** (t - y2)
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
    t = _checked_int(t, 1, "t")
    ts = parse_cutoff(tstar)
    if ts == math.inf:
        return 1 + t
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


# The most g terms, (u-1)//(t*+1) + 1 summed over the u of its runs, of a
# series that `_binomial_sums` sums in Python, and the latest time it ends
# at: `_term_sums` lists its tables up to the last time T, about 32 bytes a
# float, so a few far times take the numpy route.  The Python route takes
# 2.5-2.8x the numpy route's time (g and E[S] at t* = 0, p = 0.3, numpy loaded,
# best of 3 on 2 vCPUs: t <= 400, 80k terms, 42 against 16 ms; t <= 1000,
# 500k terms, 255 against 91 ms), but importing numpy costs 70-140 ms and
# 13 MB in a process that needs it for nothing else.  Near this bound, t* = 0
# over t = 1..500, a ten-cutoff sweep breaks even (218 ms in Python against
# 94 ms plus the import); below it, Python wins.  These are in-process
# timings of one shape: no benchmark workload runs a series above the
# bound, so the numpy side of it is not checked end to end.
_SHORT_TERMS = 125_000


def _term_at(top: int, p: float) -> Callable[[int, int, int, int], float]:
    """term(n, b, succ, fail) = C(n, b) p^succ (1-p)^fail for n <= top, one
    at a time, by `_terms`' expression."""
    lf = _log_factorials(top)[:top + 1].tolist()
    log_p, log_q = math.log(p), math.log1p(-p)

    def term(n: int, b: int, succ: int, fail: int) -> float:
        return math.exp(lf[n] - lf[b] - lf[n - b] + succ * log_p + fail * log_q)

    return term


def _term_sums(runs: list[Run], ts: int, p: float,
               want: set[str]) -> dict[str, dict[int, float]]:
    """`_binomial_sums` in Python, walking u upward: each term formed by
    `_terms`' expression, each sum added from 0.0 in the numpy route's
    order.  The same bits.

    g's terms at u are one column over b, zipped from slices of the tables:
    lf[n] at n = u-1-b t*, lf[b], lf[F] and F log(1-p) at F = u-1-b(t*+1),
    and (b+1) log p.  The down family at t = u has b log p and (F+1)
    log(1-p) instead.  E[S(t)] reads the weighted g columns at u = t-t*..t
    only, so only the last t*+1 are kept, and memory is O(T) beside the
    sums for a series that ends at T: the tables and, for E[S], the counts
    k as floats."""
    block = ts + 1
    top = runs[-1][1]
    lf = _log_factorials(top)[:top + 1].tolist()
    log_p, log_q = math.log(p), math.log1p(-p)
    fail_logs = [f * log_q for f in range(top + 1)]
    succ_logs = [b * log_p for b in range((top - 1) // block + 2)]
    g_succ_logs = succ_logs[1:]
    # exact, so k / j is int k / int j
    counts = [float(k) for k in range(top + 1)] if "es" in want else []
    exp = math.exp

    def terms(n: int, succ: list[float], fail: int) -> list[float]:
        """math.exp(lf[n - b t*] - lf[b] - lf[n - b(t*+1)] + succ[b] +
        fail_logs[fail - b(t*+1)]) for b = 0..n // (t*+1)."""
        return [exp(x - y - z + s + f) for x, y, z, s, f in
                zip(lf[n::-ts] if ts else repeat(lf[n]), lf, lf[n::-block], succ,
                    fail_logs[fail::-block])]

    def weighted(first: int, u: int, column: list[float]) -> list[float]:
        """(b + first) / (u - b t*) * column[b] for each b."""
        ratios = map(truediv, counts[first:first + len(column)],
                     counts[u::-ts] if ts else repeat(counts[u]))
        return list(map(mul, ratios, column))

    with_g, with_es = bool(want & {"g", "es"}), "es" in want
    with_down = bool(want & {"down", "es"})
    sums: dict[str, dict[int, float]] = {name: {} for name in want}
    for lo, hi, t_runs in runs:
        at_t = {t for ta, tb in t_runs for t in range(ta, tb + 1)}
        window: deque[list[float]] = deque(maxlen=block)  # E[S]'s k-terms at u, u-1, ..., u-t*
        for u in range(lo, hi + 1):
            if with_g:
                col = terms(u - 1, g_succ_logs, u - 1)
                if "g" in want:
                    sums["g"][u] = reduce(add, col, 0.0)
                if with_es:
                    window.appendleft(weighted(1, u, col))
            if not with_down or u not in at_t:
                continue
            down = terms(u - 1, succ_logs, u)
            if "down" in want:
                sums["down"][u] = reduce(add, down, 0.0)
            if with_es:
                # row b of `cells` is the trailing-zero term, then k = 1..t*+1;
                # a column that ends before the last row adds 0.0, as in numpy
                trail = weighted(0, u, down)
                cells = [0.0] * (len(trail) * (block + 1))
                cells[::block + 1] = trail
                for k, column in enumerate(window, 1):
                    cells[k:k + len(column) * (block + 1):block + 1] = column
                sums["es"][u] = reduce(add, cells, 0.0)
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

    Series that form at most `_SHORT_TERMS` g terms, and end by that time,
    are summed in Python (`_term_sums`), the others with numpy.
    """
    block = ts + 1
    g_terms = sum((u - 1) // block + 1 for lo, hi, _ in runs for u in range(lo, hi + 1))
    if max(g_terms, runs[-1][1]) <= _SHORT_TERMS:
        return _term_sums(runs, ts, p, want)
    import numpy as np
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
    it, and `_down_probs` at x = 0.  At x = 1 and t <= t*+1 the row's entry
    p (1-p)^(t-1-m) is formed alone, in O(1).
    """
    t = _checked_int(t, 1, "t")
    m = _checked_int(m, -1, "m")
    _checked_bits((x,), "x")
    _validate_p(p)
    ts = parse_cutoff(tstar)
    unloaded = -1 if ts == math.inf else ts
    if ts == math.inf and (m == unloaded) != (x == 0):
        raise ValueError("for infinite cutoff m=-1 encodes the unloaded memory, the only "
                         f"state with X=0, got m={m}, x={x}")
    if ts != math.inf and not 0 <= m <= ts:
        raise ValueError(f"m must be in 0..{ts}, got {m}")
    if x == 0:
        return _down_probs([t], ts, p)[0] if m == unloaded else 0.0
    if t <= ts + 1:
        return p * (1.0 - p) ** (t - 1 - m) if m < t else 0.0
    joint = next(active_rows((t,), ts, p)).joint
    return joint[m] if 0 <= m < len(joint) else 0.0


@dataclass(frozen=True)
class LinkState:
    """The link's (x, m) distribution at one time t, whatever the policy:
    the average state sum_m joint[m] rho_m + (1 - prob_active) |0><0|.

    ``joint[m]`` is Pr[X(t) = 1, M(t) = m] for every age m the link can
    have at t, ``prob_active`` is Pr[X(t) = 1], and the down weight
    Pr[X(t) = 0] is 1 - prob_active.  ``t = math.inf`` marks the limit
    state.  ``e_ftilde`` and ``e_f`` are E[F~(t)] and E[F(t)] when the
    state was built with a fidelity curve (``e_f`` None while the link is
    never active), and ``success_rate`` E[S(t)] when it was asked for.
    """

    t: Union[int, float]
    joint: tuple[float, ...]
    prob_active: float
    e_ftilde: Optional[float] = None
    e_f: Optional[float] = None
    success_rate: Optional[float] = None

    @classmethod
    def from_joint(cls, t: Union[int, float], joint: tuple[float, ...], prob_active: float,
                   fvals: Optional[Sequence[float]] = None,
                   success_rate: Optional[float] = None) -> "LinkState":
        """The state whose E[F~] is the in-order sum of ``fvals[m] joint[m]``
        (``fvals[m]`` = f_m, given for every age of ``joint``), 0.0 while
        the link is never active, and E[F] = E[F~] / prob_active."""
        if fvals is None:
            return cls(t, joint, prob_active, success_rate=success_rate)
        if prob_active == 0.0:
            return cls(t, joint, prob_active, 0.0, None, success_rate)
        e_ftilde = reduce(add, map(mul, fvals, joint), 0.0)
        return cls(t, joint, prob_active, e_ftilde, e_ftilde / prob_active, success_rate)


def _long_sums(times: list[int], ts: Union[int, float], p: float,
               want: set[str]) -> dict[str, dict[int, float]]:
    """`_binomial_sums` over the times above t*+1, where it applies; g and
    E[S] at t read g over t-t*..t, the down family only at t."""
    long = sorted({t for t in times if t > ts + 1})
    if not long or not 0.0 < p < 1.0:
        return {name: {} for name in want}
    return _binomial_sums(_runs(long, ts if want & {"g", "es"} else 0), ts, p, want)


def _down_probs(times: list[int], ts: Union[int, float], p: float) -> list[float]:
    """Pr[M_{t*}(t) = t*, X(t) = 0] at each of ``times``: the down family
    of `_long_sums` where it applies, else (1-p)^t, the all-fail sequence."""
    down = _long_sums(times, ts, p, {"down"})["down"]
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
                success: bool = False) -> Iterator[LinkState]:
    """Yield the LinkState at each time in ``times``, in the order given.

    The binomial sums behind all rows, and behind E[S(t)] when ``success``
    is set, are evaluated in one pass for the series (see the module
    docstring), the powers (1-p)^k once, and f_m once per age.  Each value
    equals what `joint_prob`, `prob_active`, `expected_fidelity_cutoff` and
    `expected_success_rate` return for that time.  Rows are made as they
    are consumed, so a long series holds one row at a time.
    """
    _validate_p(p)
    ts = parse_cutoff(tstar)
    times = _checked_times(times)
    block = ts + 1
    sums = _long_sums(times, ts, p, {"g", "es"} if success else {"g"})
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
        yield LinkState.from_joint(t, joint, active, fvals, rate)


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
    takes the `math.exp` calls from O(t^2) to O(t^1.5).  The sums are
    added one term at a time, in Python: O(t) additions per cutoff, so
    O(t^2) over the t cutoffs of `qlink optimize`.  Repeated cutoffs share
    one sum.  At p = 0 the link is never active, and at p = 1 it is active
    at age (t-1) mod (t*+1) with probability 1.  Other cutoffs go through
    `active_rows`.
    """
    _validate_p(p)
    t = _checked_int(t, 1, "t")
    if p == 0.0:
        return [(0.0, 0.0, None)] * len(tstars)
    fvals = [fcurve(m) for m in range(t)]
    tss = [parse_cutoff(tstar) for tstar in tstars]
    if p == 1.0:
        ages = ((t - 1) % (ts + 1) if t > ts + 1 else t - 1 for ts in tss)
        return [(fvals[m], 1.0, fvals[m]) for m in ages]
    term_at = _term_at(t, p)

    def term(k: int, b: int) -> float:
        """g's term at cell k with b completed blocks: F = t-1-k."""
        return term_at(t - 1 - k + b, b, b + 1, t - 1 - k)

    low = math.isqrt(t // 2) + 1
    shared = [array("d", [term(k, b) for k in range(b, t)]) for b in range(low)]  # [b][k - b]
    sums = {}  # block t*+1 < t -> (E[F~], Pr[X = 1])
    for block in sorted({ts + 1 for ts in tss if t > ts + 1}):
        joint = shared[0][:block].tolist()  # g(t - m); 0.0 + a term is the term
        for b in range(1, -(-t // block)):
            first = b * block
            row = (shared[b][first - b:first - b + block] if b < low
                   else [term(k, b) for k in range(first, min(first + block, t))])
            joint[:len(row)] = map(add, joint, row)
        sums[block] = (reduce(add, map(mul, fvals, joint)), reduce(add, joint))
    table = []
    for ts in tss:
        if t <= ts + 1:
            row = next(active_rows((t,), ts, p, fvals.__getitem__))
            table.append((row.e_ftilde, row.prob_active, row.e_f))
            continue
        e_ftilde, active = sums[ts + 1]
        table.append((e_ftilde, active, e_ftilde / active) if active != 0.0
                     else (0.0, active, None))
    return table


def prob_active(t: int, tstar: CutoffLike, p: float) -> float:
    """Pr[X(t) = 1] under the cutoff policy: ``active_rows``' value, which
    for t <= t*+1 is 1 - (1-p)^t, formed here without the row."""
    _validate_p(p)
    ts = parse_cutoff(tstar)
    t = _checked_int(t, 1, "t")
    if t <= ts + 1:
        return 1.0 - (1.0 - p) ** t
    return next(active_rows((t,), ts, p)).prob_active


def steady_state(tstar: CutoffLike, p: float,
                 fcurve: Optional[Callable[[int], float]] = None) -> LinkState:
    """The t -> infinity limit of the link's state, at ``t = math.inf``.

    For finite t* every age 0..t* has weight p / (1 + t* p), so
    Pr[X = 1] = (t*+1) p / (1 + t* p); given ``fcurve``, E[F~] =
    p / (1 + t* p) sum_m f_m and E[F] is the mean of f_0..f_t*.  For
    t* = infinity the first established link is kept forever, at an age
    that grows without bound: ``joint`` is empty, Pr[X = 1] is 1 for p > 0,
    and the fidelity sums raise ValueError.
    """
    _validate_p(p)
    ts = parse_cutoff(tstar)
    if ts == math.inf:
        if fcurve is not None:
            raise ValueError("steady-state fidelity sums require a finite cutoff")
        return LinkState(math.inf, (), 1.0 if p > 0.0 else 0.0)
    denom = 1.0 + ts * p
    state = LinkState(math.inf, (p / denom,) * (ts + 1), (ts + 1) * p / denom)
    if fcurve is None:
        return state
    if p == 0.0:
        return replace(state, e_ftilde=0.0)
    f_sum = reduce(add, (fcurve(m) for m in range(ts + 1)), 0.0)
    return replace(state, e_ftilde=p / denom * f_sum, e_f=f_sum / (ts + 1))


def expected_fidelity_cutoff(t: int, tstar: CutoffLike, p: float,
                             fcurve: Callable[[int], float]) -> LinkState:
    """The `active_rows` state at t with E[F~(t)] = sum_m f_m Pr[M=m, X=1]
    and E[F(t)] = E[F~(t)] / Pr[X=1]."""
    return next(active_rows((t,), tstar, p, fcurve))


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
    ts = parse_cutoff(tstar)
    sums = _long_sums(times, ts, p, {"es"})["es"]
    return _success_rates(times, ts + 1, p, sums)


def expected_success_rate(t: int, tstar: CutoffLike, p: float) -> float:
    """E[S(t)]: expected fraction of link requests that succeeded by time t."""
    return expected_success_rates((t,), tstar, p)[0]


@dataclass(frozen=True)
class SuccessRateLimits:
    limit: float
    p: float

    def plateau(self, x: int) -> float:
        """p * 2F1(1, 1, 2+x, 1-p), the x-th plateau of E[S(t)] at t* = inf."""
        _checked_int(x, 0, "plateau index")
        p = self.p
        return p * hyp2f1_series(1.0, 1.0, 2.0 + x, 1.0 - p) if 0.0 < p < 1.0 else float(p)


def success_rate_limits(tstar: CutoffLike, p: float) -> SuccessRateLimits:
    """t -> infinity limit of E[S(t)] and the plateau values for t* = infinity.

    Finite t*: the limit is p.  t* = infinity: the limit is -p ln p / (1-p),
    and E[S(t)] descends through plateaus p * 2F1(1, 1, 2+x, 1-p), x = 0, 1, ...
    p in {0, 1} are handled as the continuous limits.
    """
    _validate_p(p)
    ts = parse_cutoff(tstar)
    limit = -p * math.log(p) / (1.0 - p) if 0.0 < p < 1.0 and ts == math.inf else float(p)
    return SuccessRateLimits(limit, p)


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
    equal Pr[X(t_req+1) = 1]); at p in {0, 1} it is ``total_mass`` at t = 1
    alone.  ``expectation`` = q / (p (1-p)) follows the same convention;
    ``conditional_pmf`` is the law of the wait given the link was down."""

    t_req: int
    expectation: float
    limit: float
    total_mass: float
    q: float
    p: float

    def pmf(self, t: int) -> float:
        t, p = _checked_int(t, 0, "t"), self.p
        if not 0.0 < p < 1.0:
            return self.total_mass if t == 1 else 0.0
        return self.q * p * (1.0 - p) ** (t - 2) if t >= 1 else 0.0

    def conditional_pmf(self, t: int) -> float:
        """Pr[W = t | link down at t_req + 1]: geometric from t = 2.

        The analytic pmf restricted to t >= 2 has total mass q (the down
        probability itself), so renormalizing by it yields a proper law.
        """
        if _checked_int(t, 0, "t") < 2:
            return 0.0
        mass = self.total_mass - self.pmf(1)  # = q
        if mass == 0.0:
            return 0.0
        return self.pmf(t) / mass


def waiting_times(t_reqs: Sequence[int], tstar: CutoffLike,
                  p: float) -> list[WaitingTime]:
    """The WaitingTime at each t_req in ``t_reqs``, in the order given.

    q = Pr[M = t*, X = 0 at t_req + 1] comes from `_down_probs`, so the
    requests after t* share one `_binomial_sums` pass.
    """
    t_reqs = _checked_times(t_reqs, 0, "t_req")
    _validate_p(p)
    ts = parse_cutoff(tstar)
    downs = _down_probs([t_req + 1 for t_req in t_reqs], ts, p)
    if p in (0.0, 1.0):  # a request always fails, or never does
        wait, mass = (1.0, 1.0) if p == 1.0 else (math.inf, 0.0)
        return [WaitingTime(t_req, wait, wait, mass, q, p) for t_req, q in zip(t_reqs, downs)]
    limit = 0.0 if ts == math.inf else 1.0 / (p * (1.0 + ts * p))
    return [WaitingTime(t_req, q / (p * (1.0 - p)), limit, q / (1.0 - p), q, p)
            for t_req, q in zip(t_reqs, downs)]


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

    tstar: Union[int, float]
    p: float
    states: tuple
    matrix: np.ndarray

    def state_index(self, state) -> int:
        return self.states.index(state)

    def initial_distribution(self) -> np.ndarray:
        """The t = 1 distribution (the A(0) = 1 request)."""
        import numpy as np
        dist = np.zeros(len(self.states))
        up, down = (1, 0) if self.tstar == math.inf else ((1, 0), (0, self.tstar))
        dist[self.state_index(up)] = self.p
        dist[self.state_index(down)] = 1.0 - self.p
        return dist

    def distribution_at(self, t: int) -> np.ndarray:
        t = _checked_int(t, 1, "t")
        import numpy as np
        return np.linalg.matrix_power(self.matrix, t - 1) @ self.initial_distribution()


def transition_matrix(tstar: CutoffLike, p: float) -> TransitionMatrix:
    import numpy as np
    _validate_p(p)
    ts = parse_cutoff(tstar)
    if ts == math.inf:
        # states (x=0, x=1); an established link is kept forever
        mat = np.array([[1.0 - p, 0.0],
                        [p, 1.0]])
        return TransitionMatrix(tstar=ts, p=p, states=(0, 1), matrix=mat)
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
    return TransitionMatrix(tstar=ts, p=p, states=states, matrix=mat)
