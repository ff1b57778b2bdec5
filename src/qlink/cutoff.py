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
trailing-zero terms the down terms times another.  One walk, `_term_sums`,
evaluates the sums a call asks for, only at the u and t its series need.
It walks a run of times in b-rows (b counts completed blocks): one line of
g terms and one of down terms over the failures F, which each sum of the
run takes up with a slice.  The rows serve every cutoff of the call
(`active_rows_by_cutoff`, `qlink sweep` over t*): a cell (F, b) is the
term at u = F+1+b(t*+1) for each t*, so it is formed once for all of them.
A run narrower than it is deep, such as one far time, is walked in columns
over b instead, one per u, in pieces of b.  The lines are Python lists
(`_Lines`), which need no numpy, when every series of the call forms at
most `_SHORT_TERMS` g terms and ends by that time, else numpy arrays
(`_NumpyLines`).  So `qlink reproduce`, and `qlink sweep` over t <= 400 at
any cutoff, never import numpy.

Summation order.  The values are bit-identical to adding the terms one at a
time, on either kind of line, and the CSV goldens rely on that.  Each term
is exp(log C + succ log p + fail log(1-p)) with log C = lgamma(n+1) -
lgamma(b+1) - lgamma(n-b+1), from the one log-factorial table.  Python and
numpy form the log with the same IEEE double operations in that order (an
integer count times log p is the count converted exactly, then one
multiply), and `math.exp` is applied to each log on its own, never
`np.exp`, whose last bit differs.  A weight is an integer over an integer,
one correctly rounded division whether the two are ints or the floats that
hold them exactly, formed before it multiplies its term.  Each sum starts
at 0.0 and takes its terms one addition at a time, in the same order on
either kind of line: b outer; within b, E[S]'s trailing-zero term (0.0 for
b = 0), then its k = 1..t*+1 terms.  Rows are added into sums with
`map(add, ...)` or `+=`, a column into a total with `reduce(add, ...)` or a
cumulative sum.  Adding 0.0 changes no sum, so no cell before a row's or a
column's first term is formed.  A row of the distribution and E[F~] are
added in increasing m with `reduce(add, ..., 0.0)`, and the geometric E[S]
prefix with `itertools.accumulate`.  No float sum in the package uses the
built-in `sum()`, which adds floats with compensation from Python 3.12, so
the values do not depend on the Python version.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, iadd, index, itemgetter, mul
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


# The most g terms, (u-1)//(t*+1) + 1 summed over the u of its runs, of a
# series that `_long_sums` walks on Python lines, and the latest time it
# ends at: `_Lines` lists its tables up to the last time T, about 32 bytes
# a float, so a few far times take numpy lines.  Python lines take
# 1.5-2.4x the time of numpy lines (g and E[S] at t* = 0, p = 0.3, numpy
# loaded, best of 3 on 2 vCPUs: t <= 400, 80k terms, 41 against 28 ms;
# t <= 1000, 500k terms, 248 against 128 ms), but importing numpy costs
# 70-140 ms and 13 MB in a process that needs it for nothing else.  Near
# this bound, a ten-cutoff sweep over t = 1..500 about breaks even (148 ms
# in Python against 61 ms plus the import); below it, Python wins.  No
# benchmark workload runs a series above the bound, so numpy lines are
# not checked end to end.
_SHORT_TERMS = 125_000


Series = tuple[list[Run], int]  # the runs of one cutoff t*, and t*

# The deepest chain of `map(add, ...)` that Python lines build for E[S]
# before they list the partial sums: draining the chain takes one C call
# frame a level, so a chain t*+1 deep would overflow the stack at far
# cutoffs.  The sums do not depend on it.
_CHAIN = 64

# The most cells of a piece of the column walk, which takes b in pieces of
# _PIECE // (t*+2) rows: one far time's terms, and E[S]'s window of t*+1
# columns, stay O(_PIECE) on numpy lines however far the time.  At t = 10^6
# (t* = 0 and 5, 2 vCPUs) 2^13-2^15 take the same time at 0.2-1.5 MB beside
# the sums; 2^12 is up to 10% slower, 2^16 up to 45% slower at 3 MB.
_PIECE = 1 << 14


def _is_short(runs: list[Run], ts: int) -> bool:
    """Whether the series forms at most `_SHORT_TERMS` g terms and ends by
    that time, so that its walk may take Python lines."""
    g_terms = sum((u - 1) // (ts + 1) + 1 for lo, hi, _ in runs for u in range(lo, hi + 1))
    return max(g_terms, runs[-1][1]) <= _SHORT_TERMS


def _seq(table: Sequence, start: int, step: int, count: int) -> Iterable:
    """table[start + i step] for i = 0..count-1, all at indices >= 0."""
    if not step:
        return repeat(table[start], count)
    stop = start + step * count
    return table[start:stop if stop >= 0 else None:step]


class _Lines:
    """`_term_sums`' lines as lists of floats, which need no numpy, with the
    tables listed up to the last time."""

    zeros = staticmethod(lambda n: [0.0] * n)
    total = partial(reduce, add)  # (line, start)
    floats = staticmethod(lambda values: values)

    def __init__(self, top: int, p: float, block: int, weights: bool) -> None:
        log_p, log_q = math.log(p), math.log1p(-p)
        self.lf = _log_factorials(top)[:top + 1].tolist()
        self.fail_logs = [f * log_q for f in range(top + 1)]
        self.succ_logs = [b * log_p for b in range((top - 1) // block + 2)]
        self.counts = [float(k) for k in range(top + 1)] if weights else []  # exact

    def row(self, b: int, f0: int, f1: int, succ: int, shift: int = 0) -> list[float]:
        """C(F+b, b) p^succ (1-p)^(F+shift) for F = f0..f1-1: math.exp(lf[F+b]
        - lf[b] - lf[F] + succ log p + (F+shift) log(1-p)) with lf[k] =
        log k!.  g's row at b completed blocks has succ = b+1 and shift 0,
        the down family's succ = b and shift 1."""
        lf, y, s, exp = self.lf, self.lf[b], self.succ_logs[succ], math.exp
        return [exp(x - y - z + s + f) for x, z, f in
                zip(lf[f0 + b:f1 + b], lf[f0:f1], self.fail_logs[f0 + shift:f1 + shift])]

    def column(self, n: int, b0: int, count: int, ts: int, succ: int,
               fail: int) -> list[float]:
        """C(n - b t*, b) p^(b+succ) (1-p)^(fail - b(t*+1)), b = b0..b0+count-1."""
        lf, block, exp = self.lf, ts + 1, math.exp
        return [exp(x - y - z + s + f) for x, y, z, s, f in
                zip(_seq(lf, n - b0 * ts, -ts, count), lf[b0:b0 + count],
                    _seq(lf, n - b0 * block, -block, count),
                    self.succ_logs[b0 + succ:b0 + succ + count],
                    _seq(self.fail_logs, fail - b0 * block, -block, count))]

    def weigh(self, num: int, num_step: int, den: int, den_step: int, line: list[float],
              pad: int = 0) -> list[float]:
        """``pad`` zeros, then (num + i num_step) / (den + i den_step) * line[i]
        for each i."""
        counts, count = self.counts, len(line)
        dens = _seq(counts, den, den_step, count)
        if not num_step:  # one numerator, out of the loop
            x = counts[num]
            return [0.0] * pad + [x / y * t for y, t in zip(dens, line)]
        return [0.0] * pad + [x / y * t for x, y, t in zip(counts[num:num + count], dens, line)]

    @staticmethod
    def add(values: list[float], start: int, lines: list[list[float]]) -> None:
        """values[start:] += each of ``lines`` in turn, cell by cell."""
        for k in range(0, len(lines), _CHAIN):
            values[start:] = reduce(partial(map, add), lines[k:k + _CHAIN], values[start:])


class _NumpyLines:
    """`_Lines` as float64 arrays, bit for bit (see the module docstring):
    the counts are formed per line, so no table but the log factorials is
    listed, and `+=` adds in place."""

    add = staticmethod(lambda values, start, lines: reduce(iadd, lines, values[start:]))

    def __init__(self, top: int, p: float, block: int, weights: bool) -> None:
        import numpy as np
        self.np, self.zeros, self.floats = np, np.zeros, np.ndarray.tolist
        self.log_p, self.log_q = math.log(p), math.log1p(-p)
        self.lf = np.frombuffer(_log_factorials(top), float)  # a view, no copy

    def _exp(self, logs: np.ndarray) -> np.ndarray:
        return self.np.fromiter(map(math.exp, logs.tolist()), float, len(logs))

    def _ints(self, start: int, step: int, count: int):
        return self.np.arange(start, start + step * count, step) if step else start

    def row(self, b: int, f0: int, f1: int, succ: int, shift: int = 0) -> np.ndarray:
        lf = self.lf
        return self._exp(lf[f0 + b:f1 + b] - lf[b] - lf[f0:f1] + succ * self.log_p
                         + self._ints(f0 + shift, 1, f1 - f0) * self.log_q)

    def column(self, n: int, b0: int, count: int, ts: int, succ: int,
               fail: int) -> np.ndarray:
        lf, block = self.lf, ts + 1
        return self._exp((lf[n - b0 * ts::-ts][:count] if ts else lf[n]) - lf[b0:b0 + count]
                         - lf[n - b0 * block::-block][:count]
                         + self._ints(b0 + succ, 1, count) * self.log_p
                         + self._ints(fail - b0 * block, -block, count) * self.log_q)

    def weigh(self, num: int, num_step: int, den: int, den_step: int, line: np.ndarray,
              pad: int = 0) -> np.ndarray:
        count = len(line)
        weighted = self._ints(num, num_step, count) / self._ints(den, den_step, count) * line
        return self.np.concatenate((self.np.zeros(pad), weighted)) if pad else weighted

    def total(self, line: np.ndarray, start: float) -> float:  # 0.0 + x is x
        sums = self.np.cumsum(self.np.concatenate(((start,), line)) if start else line)
        return sums[-1].item()


def _by_rows(depth: int, width: int) -> bool:
    """Whether `_term_sums` walks a group ``depth`` rows deep, ``width`` u wide, by rows."""
    return depth <= width


def _term_sums(series: list[Series], p: float, want: set[str],
               lines_type: type) -> list[dict[str, dict[int, float]]]:
    """The sums named in ``want`` for each (runs, t*) of ``series``, all at
    0 < p < 1 and a finite t*: "g", g(u) at every u of the runs; "down",
    Pr[M_{t*}(t) = t*, X(t) = 0], and "es", E[S(t)], at every t of their
    t_runs.  Every t must be above t*+1, and for E[S] its window t-t*..t
    must lie in its run, as `_runs(times, t*)` makes them.  With n =
    t-1-b t* and F = n-b, g's term at u = t has p^(b+1) (1-p)^F and the
    down term p^b (1-p)^(F+1).  E[S(t)] takes, for each b, the down term
    times b/(t - t* b), then g's terms at u = t-k+1, k = 1..t*+1, times
    (b+1)/(u - t* b).

    ``lines_type``, `_Lines` or `_NumpyLines`, forms the lines of terms
    and adds them; the walk is the same on both.  Runs whose u ranges
    overlap, of one cutoff or of several, form a group, walked by rows if
    `_by_rows`, else each run by columns.  Row b spans every F =
    u-1-b(t*+1) a run of the group reads at b, so each (F, b) cell is
    formed once: g's and the down terms, and for E[S] the two weighted by
    (b+1)/(F+b+1) and b/(F+b+1).  Each run adds g's row into its g sums at
    u = F+1+b(t*+1), the down row into its down sums at t = u, and into
    E[S(t)] the weighted down term, then the weighted g terms at u = t,
    t-1, ..., t-t*.  A column at u is g's terms over b in pieces of
    `_PIECE` // (t*+2) rows, each added on to the totals of the pieces
    before; E[S] keeps a piece's last t*+1 weighted columns.  Memory
    beside the sums is O(T) on Python lines for a series that ends at T,
    and O(_PIECE) on numpy lines at a far time."""
    top = max(runs[-1][1] for runs, _ in series)
    lines = lines_type(top, p, min(ts for _, ts in series) + 1, "es" in want)
    with_g, with_down, with_es = bool(want - {"down"}), bool(want - {"g"}), "es" in want
    sums = [{name: {} for name in want} for _ in series]

    def by_columns(lo, hi, t_runs, ts, out):
        block = ts + 1
        at_t = {t for ta, tb in t_runs for t in range(ta, tb + 1)}
        for name in want:
            out[name].update(dict.fromkeys(range(lo, hi + 1) if name == "g" else at_t, 0.0))
        height = max(1, _PIECE // (block + 1))
        for b0 in range(0, (hi - 1) // block + 1, height):
            window: deque = deque(maxlen=block)  # E[S]'s k-terms at u, u-1, ..., u-t*
            for u in range(max(lo, b0 * block + 1), hi + 1):  # the u with a term at b0
                count = min(height, (u - 1) // block + 1 - b0)
                if with_g:
                    col = lines.column(u - 1, b0, count, ts, 1, u - 1)
                    if "g" in want:
                        out["g"][u] = lines.total(col, out["g"][u])
                    if with_es:
                        window.appendleft(lines.weigh(b0 + 1, 1, u - b0 * ts, -ts, col))
                if not with_down or u not in at_t:
                    continue
                down = lines.column(u - 1, b0, count, ts, 0, u)
                if "down" in want:
                    out["down"][u] = lines.total(down, out["down"][u])
                if with_es:
                    # row b: the trailing-zero term, then k = 1..t*+1 (0.0 past a column's end)
                    cells = lines.zeros(count * (block + 1))
                    cells[::block + 1] = lines.weigh(b0, 1, u - b0 * ts, -ts, down)
                    for k, column in enumerate(window, 1):
                        cells[k:k + len(column) * (block + 1):block + 1] = column
                    out["es"][u] = lines.total(cells, out["es"][u])

    def by_rows(group, depth):
        # each run's sums by u from lo (of the down family and E[S], read at its times only)
        acc = [{name: lines.zeros(hi - lo + 1) for name in want} for lo, hi, *_ in group]
        for b in range(depth):
            # the runs with a term in row b: F = f..hi-1-bb at u = F+1+bb
            live = [(lo, hi, t_runs[0][0], ts, bb, max(lo - 1 - bb, 0), run_sums)
                    for (lo, hi, t_runs, ts, _), run_sums in zip(group, acc)
                    if (bb := b * (ts + 1)) < hi]
            f0 = min(f for *_, f, _ in live)
            f1 = max(hi - bb for _, hi, _, _, bb, _, _ in live)
            g = lines.row(b, f0, f1, b + 1) if with_g else None
            down = lines.row(b, f0, f1, b, 1) if with_down else None
            if with_es:  # E[S] reads 0.0 at the F < 0 of its k-terms
                pad = max(ts for _, _, _, ts, _, _, _ in live)
                k_terms = lines.weigh(b + 1, 0, f0 + b + 1, 1, g, pad)
                trail = lines.weigh(b, 0, f0 + b + 1, 1, down)
            for lo, hi, first, ts, bb, f, run_sums in live:
                u0, j = f + 1 + bb, hi - bb - f0
                for name, row in (("g", g), ("down", down)):  # down before t0 is not read
                    if name in run_sums:
                        lines.add(run_sums[name], u0 - lo, [row[f - f0:j]])
                if with_es:  # at t = t0..hi, from the row's cell i: the (k+1)-term at u = t - k
                    t0 = max(first, u0)
                    i = t0 - 1 - bb - f0
                    lines.add(run_sums["es"], t0 - lo, [trail[i:j]] + [
                        k_terms[pad + i - k:pad + j - k] for k in range(ts + 1)])
        for (lo, hi, t_runs, _, out), run_sums in zip(group, acc):
            for name, values in run_sums.items():
                for ta, tb in [(lo, hi)] if name == "g" else t_runs:
                    out[name].update(zip(range(ta, tb + 1),
                                         lines.floats(values[ta - lo:tb - lo + 1])))

    groups = []  # the runs by first u, those that overlap together
    for job in sorted(((lo, hi, t_runs, ts, out) for (runs, ts), out in zip(series, sums)
                       for lo, hi, t_runs in runs), key=itemgetter(0)):
        if groups and job[0] <= max(hi for _, hi, *_ in groups[-1]):
            groups[-1].append(job)
        else:
            groups.append([job])
    for group in groups:
        depth = max((hi - 1) // (ts + 1) + 1 for _, hi, _, ts, _ in group)
        if _by_rows(depth, sum(hi - lo + 1 for lo, hi, *_ in group)):
            by_rows(group, depth)
        else:
            for job in group:
                by_columns(*job)
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


def _long_sums(times: list[int], tss: Sequence[Union[int, float]], p: float,
               want: set[str]) -> list[dict[str, dict[int, float]]]:
    """`_term_sums` for each cutoff of ``tss`` over its times above t*+1,
    where it applies; g and E[S] at t read g over t-t*..t, the down family
    only at t.  All the series share one walk, on Python lines if each
    passes `_is_short`, else on numpy lines."""
    series = {ts: _runs(long, ts if want - {"down"} else 0) for ts in tss
              if (long := sorted({t for t in times if t > ts + 1})) and 0.0 < p < 1.0}
    python = all(_is_short(runs, ts) for ts, runs in series.items())
    walk = _term_sums([(runs, ts) for ts, runs in series.items()], p, want,
                      _Lines if python else _NumpyLines) if series else []
    sums = dict(zip(series, walk))
    return [sums.get(ts, {name: {} for name in want}) for ts in tss]


def _down_probs(times: list[int], ts: Union[int, float], p: float) -> list[float]:
    """Pr[M_{t*}(t) = t*, X(t) = 0] at each of ``times``: the down family
    of `_long_sums` where it applies, else (1-p)^t, the all-fail sequence."""
    down = _long_sums(times, (ts,), p, {"down"})[0]["down"]
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


def active_rows_by_cutoff(times: Sequence[int], tstars: Sequence[CutoffLike], p: float,
                          fcurve: Optional[Callable[[int], float]] = None,
                          success: bool = False) -> list[Iterator[LinkState]]:
    """For each cutoff in ``tstars``, in order, the rows that
    ``active_rows(times, t*, p, fcurve, success)`` yields, equal bit for
    bit.  The cutoffs' series share one walk over the binomial terms (see
    the module docstring), so each term is formed once for all of them;
    f_m is evaluated once per age."""
    _validate_p(p)
    tss = [parse_cutoff(tstar) for tstar in tstars]
    times = _checked_times(times)
    last = max(times, default=0)
    fvals = ([fcurve(m) for m in range(min(last, max(tss, default=-1) + 1))]
             if fcurve is not None else None)

    def rows(ts, sums):
        block = ts + 1
        series = sums["g"]
        rates = _success_rates(times, block, p, sums["es"]) if success else [None] * len(times)
        # Pr[M = t-1-k, X = 1] at t <= t*+1
        heads = [p * (1.0 - p) ** k for k in range(min(last, block))]
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
                    joint = tuple(map(series.__getitem__, range(t, t - block, -1)))
                active = reduce(add, joint, 0.0)
            yield LinkState.from_joint(t, joint, active, fvals, rate)

    sums = _long_sums(times, tss, p, {"g", "es"} if success else {"g"})
    return [rows(ts, ts_sums) for ts, ts_sums in zip(tss, sums)]


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
    yield from active_rows_by_cutoff(times, (tstar,), p, fcurve, success)[0]


def cutoff_table(t: int, tstars: Sequence[CutoffLike], p: float,
                 fcurve: Callable[[int], float]
                 ) -> list[tuple[float, float, Optional[float]]]:
    """(E[F~(t)], Pr[X(t) = 1], E[F(t)]) at one time t for each cutoff in
    ``tstars``, in order, each equal bit for bit to the values of
    ``next(active_rows((t,), t*, p, fcurve))``; f_m is evaluated at most once.

    For t > t*+1 and 0 < p < 1, g(t-m) for m = 0..t* is the column sums,
    in increasing b, of a (b, m) array of terms formed by `_Lines.row`.
    Its cell k = b(t*+1) + m has F = t-1-k failures, so the terms fill its
    first t cells and depend on (k, b) alone.  The b-rows with
    b < sqrt(t/2) are shared by every cutoff and formed once, which takes
    the `math.exp` calls from O(t^2) to O(t^1.5); a later row is formed
    over the t*+1 cells a cutoff reads.  The sums are added one term at a
    time, in Python: O(t) additions per cutoff, so O(t^2) over the t
    cutoffs of `qlink optimize`.  Repeated cutoffs share one sum.  At p = 0
    the link is never active, and at p = 1 it is active at age (t-1) mod
    (t*+1) with probability 1.  Other cutoffs go through `active_rows`.
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
    lines = _Lines(t, p, 1, False)

    def row(b, first, last):  # g's terms at b in cells k = first..last-1: F = t-1-k
        return lines.row(b, t - last, t - first, b + 1)[::-1]

    low = math.isqrt(t // 2) + 1
    shared = [array("d", row(b, b, t)) for b in range(low)]  # [b][k - b]
    sums = {}  # block t*+1 < t -> (E[F~], Pr[X = 1])
    for block in sorted({ts + 1 for ts in tss if t > ts + 1}):
        joint = shared[0][:block].tolist()  # g(t - m); 0.0 + a term is the term
        for b in range(1, -(-t // block)):
            first = b * block
            terms = (shared[b][first - b:first - b + block] if b < low
                     else row(b, first, min(first + block, t)))
            joint[:len(terms)] = map(add, joint, terms)
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
    `_term_sums` walk.
    """
    times = _checked_times(times)
    _validate_p(p)
    ts = parse_cutoff(tstar)
    sums = _long_sums(times, (ts,), p, {"es"})[0]["es"]
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
    requests after t* share one `_term_sums` walk.
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
