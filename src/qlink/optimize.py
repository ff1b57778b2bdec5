"""Finite-horizon policy optimization for a single elementary link.

Horizon convention: ``T`` is the number of decision epochs.  Decisions are
made at times 1..T and the fidelity reward X(T+1) * f_{M(T+1)} is granted at
observation time T+1, so the optimized objective is E[F~(T+1)].

``backward_recursion_reduced`` finds the optimum by backward recursion keyed
on the (x, m) sufficient statistic; ``evaluate_state_policy`` gives the exact
link quantities of any (t, x, m)-feedback policy, such as the optimum or the
``forward_greedy`` baseline.  The tests cross-check the recursion against the
literal recursion over full history trees, a brute-force search over all
deterministic (t, x, m) -> action maps and, under ``==``, a recursion that
visits one state at a time and keeps every action value, all kept in
``tests/oracles.py``.  Both run on the standard library, as does the
cutoff table, so ``qlink optimize`` never imports numpy.

Ties in every argmax are broken toward action 0 (wait) so results are
reproducible bit-for-bit.

Recursion bits.  Waiting carries an active value to the next age, and every
value is the larger of its wait and request values, so the value at time j
and age m is max(f_s, M_j): f at the terminal age s = m + T + 1 - j, and M_j
the running maximum of the request values q_T, ..., q_j.  Each max picks one
of the floats the state-at-a-time loop picks, and q_j = p max(f_{T-j},
M_{j+1}) + (1 - p) v_down is formed with its operations, so the two agree
under ``==``.  Time j waits at every age when M_{j+1} >= q_j, and otherwise
exactly where f_s >= q_j.

Propagator bits.  ``evaluate_state_policy`` holds the active masses by birth
time, so aging moves nothing, and reads the request probabilities pi_m as
runs over m (``Policy.decide_runs``).  Its results equal, under ``==``,
those of the loop over states in ``tests/oracles.py``, because it makes the
same IEEE operations in the same order.  Each live mass inside a request run
is multiplied by pi and by 1 - pi; a waiting run's masses and a mass of 0.0
are left alone, because multiplying by 1.0 and adding 0.0 change nothing.
The request mass adds down * pi_down, a_0 pi_0, a_1 pi_1, ... in increasing
age, one at a time.  E[F~] is the in-order sum of f_m a_m, and E[X] numpy's
pairwise sum over the whole zero-padded age row (``_pairwise_sum``), as in
the loop.  That order does not depend on the numpy version: ``ndarray.sum``
gives it for rows of up to 8192 values, and for longer rows wherever
numpy's iterator hands it the row in one piece, as numpy 2.4 does;
numpy's buffered reductions instead add one 8192-value buffer at a time,
which at horizons past 8191 can differ in the last bit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Optional, Sequence

from .engine import LinkParams, Policy


@dataclass(frozen=True)
class DecisionRuns:
    """The decisions at times 1..T in run-length form, as ``.policy.json``
    format 2 writes them: at time t, ``down[t-1]`` when down and, over the
    active ages, ``action[k]`` from age ``start[k]`` on for the runs k in
    ``bounds[t-1]:bounds[t]`` (``runs(t)`` is ``Policy.decide_runs``).
    Runs are maximal, so one time's actions alternate; a nonincreasing
    fidelity curve gives at most two per time, O(T) bytes in all."""

    down: array    # "b" per time: 1 request, 0 wait
    start: array   # "q" per run: the age it starts at
    action: array  # "b" per run
    bounds: array  # "q", T + 1 offsets into start and action

    def runs(self, t: int) -> tuple[float, Sequence[int], Sequence[int]]:
        if t > len(self.down):  # past the horizon: wait
            return 0.0, (0,), (0,)
        lo, hi = self.bounds[t - 1], self.bounds[t]
        return float(self.down[t - 1]), self.start[lo:hi], self.action[lo:hi]

    def active_runs(self) -> list[list[list[int]]]:
        """Per time, the runs ``[m, a]`` as nested lists."""
        pairs = [[m, a] for m, a in zip(self.start.tolist(), self.action.tolist())]
        bounds = self.bounds.tolist()
        return [pairs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@dataclass
class OptimizationResult:
    optimal_value: float
    policy: Optional[Policy]
    mode: str
    table: Optional[object] = None  # filled by tests/oracles.py; perfbench reads it
    runs: Optional[DecisionRuns] = None


# ---------------------------------------------------------------------------
# greedy baseline
# ---------------------------------------------------------------------------

def forward_greedy(params: LinkParams) -> Policy:
    """One-step-lookahead policy: request when down; when up, keep the link
    iff its next-step fidelity f_{m+1} still beats a fresh attempt p * f_0."""
    fcurve = params.fcurve
    fresh = params.p * fcurve(0)
    starts, probs, decided = [], [], 0  # runs over ages < decided: request iff f_{m+1} < p f_0

    def runs(t: int) -> tuple[float, list[int], list[float]]:
        """The runs over ages 0..t-1 at least; each f_{m+1} is evaluated once."""
        nonlocal decided
        for m in range(decided, t):
            prob = 0.0 if fcurve(m + 1) >= fresh else 1.0
            if not probs or prob != probs[-1]:
                starts.append(m)
                probs.append(prob)
        decided = max(decided, t)
        return 1.0, starts, probs

    def rule(t: int, x: int, m: int) -> float:
        return 1.0 if x == 0 else runs(m + 1)[2][bisect_right(starts, m) - 1]

    return Policy.from_state_rule(rule, "deterministic", "forward-greedy", runs)


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyEvaluation:
    e_ftilde: float
    e_x: float
    e_f: Optional[float]


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's pairwise ``add.reduce`` of a whole float64 row, bit for bit:
    fewer than 8 values added in order from 0.0; up to 128 in 8
    accumulators, value i into accumulator i mod 8 up to the last multiple
    of 8, the accumulators added as a tree and the rest in order; more
    split at the multiple of 8 nearest below half, each side summed so."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, values[k:tail:8]) for k in range(8)]
        tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[tail:], tree)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def evaluate_state_policy(params: LinkParams, policy: Policy, t: int) -> PolicyEvaluation:
    """Exact link quantities at time t for a (t, x, m)-feedback policy.

    Propagates the occupation distribution over (x, m) states directly, so
    it stays exact at horizons where history enumeration is infeasible.
    Each step reads the policy's decisions at all ages at once, as runs
    over m, from ``policy.decide_runs``, and visits only the live masses
    inside request runs (see the module docstring for the order of the
    sums).  Cross-checked against history enumeration, and under ``==``
    against the state-at-a-time loop, in the tests.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    runs = policy.decide_runs
    if runs is None:
        raise ValueError("evaluate_state_policy needs a policy with a state rule")
    p = params.p
    born = [0.0, p]  # born[i]: Pr[X=1, the link born at time i], of age j - i at time j
    oldest = 1       # every born[i] with i < oldest is 0.0
    down = 1.0 - p
    for j in range(1, t):
        pi_down, starts, probs = runs(j)
        request_mass = down * pi_down
        for lo, hi, prob in zip(starts, [*starts[1:], j], probs):
            if not prob:  # waiting keeps each mass as it is
                continue
            for i in range(j - lo, max(j - hi, oldest - 1), -1):  # ages lo..hi-1
                mass = born[i]
                if mass:
                    request_mass += mass * prob
                    born[i] = mass * (1.0 - prob)
        born.append(p * request_mass)
        down = down * (1.0 - pi_down) + (1.0 - p) * request_mass
        while oldest < len(born) and not born[oldest]:
            oldest += 1
    active = born[:0:-1]  # by age 0..t-1
    e_x = _pairwise_sum(active)
    e_ftilde = reduce(add, map(mul, [params.fcurve(m) for m in range(t)], active), 0.0)
    e_f = e_ftilde / e_x if e_x > 0.0 else None
    return PolicyEvaluation(e_ftilde=e_ftilde, e_x=e_x, e_f=e_f)


# ---------------------------------------------------------------------------
# reduced backward recursion on (x, m)
# ---------------------------------------------------------------------------

def backward_recursion_reduced(params: LinkParams, T: int,
                               keep_table: bool = False) -> OptimizationResult:
    """Optimal E[F~(T+1)] keyed on the state (X(t), M(t)).

    The conditional value-to-go of a history depends on it only through the
    current link value and memory age, so the tree recursion collapses to
    O(T^2) states.  Their values are f clamped from below by the running
    maximum of the request values (see the module docstring), so one pass
    over the times finds them in O(T log T) steps, plus one per change of
    decision along the ages.  The policy keeps each time's decisions as
    runs over m (``DecisionRuns``), O(T) bytes for the presets.
    ``keep_table`` takes only ``False``: the table of every action value is
    the state-at-a-time recursion of ``tests/oracles.py``.
    """
    if keep_table:
        raise ValueError("the reduced recursion keeps no value table; "
                         "tests/oracles.py builds one")
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    p = params.p
    fcurve = params.fcurve
    f = [fcurve(m) for m in range(T + 1)]  # by terminal age s
    if T == 0:
        return OptimizationResult(optimal_value=p * f[0], policy=None, mode="reduced")

    best = -math.inf  # the running maximum M of the request values
    v_down = 0.0
    # edges: the terminal ages s in 2..T where f[s] >= best and
    # f[s - 1] >= best differ, ascending.  As best rises, the ages in
    # ascending f turn to request once each, toggling the edges beside them.
    edges: list[int] = []
    rising = sorted(range(1, T + 1), key=f.__getitem__)
    turned = 0
    down, runs = array("b"), []  # per time, from T down to 1
    for j in range(T, 0, -1):
        q_request = p * max(f[T - j], best) + (1.0 - p) * v_down
        if q_request > best:  # a new maximum: wait exactly where f[s] >= it
            best = q_request
            while turned < T and f[rising[turned]] < best:
                s = rising[turned]
                turned += 1
                for edge in (s, s + 1):
                    if 2 <= edge <= T:
                        k = bisect_left(edges, edge)
                        if k < len(edges) and edges[k] == edge:
                            del edges[k]
                        else:
                            edges.insert(k, edge)
            lo = T + 1 - j  # the terminal age of age 0
            runs.append(([0, *(s - lo for s in edges[bisect_right(edges, lo):])],
                         0 if f[lo] >= best else 1))
        else:  # every age waits
            runs.append(([0], 0))
        down.append(q_request > v_down)  # waiting keeps it down; tie -> wait
        v_down = max(v_down, q_request)

    value = p * max(f[T], best) + (1.0 - p) * v_down
    down.reverse()
    runs.reverse()
    start, action, bounds = array("q"), array("b"), array("q", [0])
    for starts, first in runs:
        start.extend(starts)
        action.extend(first ^ (k & 1) for k in range(len(starts)))
        bounds.append(len(start))
    decisions = DecisionRuns(down=down, start=start, action=action, bounds=bounds)
    policy = Policy.from_state_rule(None, "deterministic", "optimal-reduced",
                                    decisions.runs)
    return OptimizationResult(optimal_value=value, policy=policy,
                              mode="reduced", runs=decisions)
