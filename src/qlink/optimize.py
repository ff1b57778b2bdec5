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
``tests/oracles.py``.

Ties in every argmax are broken toward action 0 (wait) so results are
reproducible bit-for-bit.

Propagator bits.  ``evaluate_state_policy`` moves the whole active row
a_m = Pr[X=1, M=m] at once, one run of ages at a time, given the request
probabilities pi_m as runs over m (``Policy.decide_runs``).  Its results
equal, under ``==``, those of the loop over states in ``tests/oracles.py``,
because it makes the same IEEE operations in the same order: each mass is
multiplied by pi and by 1 - pi (a zero mass gives 0.0, which adds nothing),
and the request mass is the in-order ``np.cumsum`` of [down * pi_down,
a_0 pi_0, a_1 pi_1, ...], never the pairwise ``sum``.  E[F~] is the
in-order cumsum of f_m a_m, and E[X] the row's ``ndarray.sum``, as in the loop.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import LinkParams, Policy


@dataclass(frozen=True)
class DecisionRuns:
    """The decisions at times 1..T in run-length form, as ``.policy.json``
    format 2 writes them: at time t, ``down[t-1]`` when down and, over the
    active ages, ``action[k]`` from age ``start[k]`` on for the runs k in
    ``bounds[t-1]:bounds[t]`` (``runs(t)`` is ``Policy.decide_runs``).
    Runs are maximal, so one time's actions alternate; a nonincreasing
    fidelity curve gives at most two per time, O(T) bytes in all."""

    down: np.ndarray    # int8 per time: 1 request, 0 wait
    start: np.ndarray   # int64 per run: the age it starts at
    action: np.ndarray  # int8 per run
    bounds: np.ndarray  # int64, T + 1 offsets into start and action

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


def evaluate_state_policy(params: LinkParams, policy: Policy, t: int) -> PolicyEvaluation:
    """Exact link quantities at time t for a (t, x, m)-feedback policy.

    Propagates the occupation distribution over (x, m) states directly, so
    it stays exact at horizons where history enumeration is infeasible.
    Each step reads the policy's decisions at all ages at once, as runs
    over m, from ``policy.decide_runs`` (see the module docstring for the
    order of the sums).  Cross-checked against history enumeration, and
    under ``==`` against the state-at-a-time loop, in the tests.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    runs = policy.decide_runs
    if runs is None:
        raise ValueError("evaluate_state_policy needs a policy with a state rule")
    p = params.p
    active = np.array([p])  # m -> Pr[X=1, M=m]
    down = 1.0 - p
    for j in range(1, t):
        pi_down, starts, probs = runs(j)
        moved = np.zeros(j + 1)  # [down pi_down, a_0 pi_0, a_1 pi_1, ...]
        kept = np.empty(j + 1)   # [the new link, a_0 (1 - pi_0), ...]
        moved[0] = down * pi_down
        for lo, hi, prob in zip(starts, [*starts[1:], j], probs):
            if prob:  # a waiting run's a_m * 0.0 is the 0.0 already there
                np.multiply(active[lo:hi], prob, out=moved[lo + 1:hi + 1])
            np.multiply(active[lo:hi], 1.0 - prob, out=kept[lo + 1:hi + 1])
        request_mass = np.cumsum(moved, out=moved)[-1]
        kept[0] = p * request_mass
        down = down * (1.0 - pi_down) + (1.0 - p) * request_mass
        active = kept
    e_x = float(active.sum())
    fvals = np.array([params.fcurve(m) for m in range(t)])
    e_ftilde = float(np.cumsum(fvals * active)[-1])
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
    O(T^2) states; values over m are held as numpy arrays per time step.
    The policy keeps each time's decisions as runs over m (``DecisionRuns``),
    O(T) bytes for the presets.  ``keep_table`` takes only ``False``: the
    table of every action value is the state-at-a-time recursion of
    ``tests/oracles.py``.
    """
    if keep_table:
        raise ValueError("the reduced recursion keeps no value table; "
                         "tests/oracles.py builds one")
    if T < 0:
        raise ValueError(f"horizon must be >= 0, got {T}")
    p = params.p
    fcurve = params.fcurve
    f0 = fcurve(0)
    if T == 0:
        return OptimizationResult(optimal_value=p * f0, policy=None, mode="reduced")

    f_vals = np.array([fcurve(m) for m in range(T + 1)])

    # v_active[j] : value at time j with x=1, m = 0..j-1 (array of length j)
    # v_down[j]   : value at time j with x=0
    # terminal (time T+1): reward f_m when active, 0 when down
    v_active_next = f_vals[: T + 1].copy()
    v_down_next = 0.0
    # per time, from T down to 1: the down action, and the runs (m, a) over m
    down, runs = [], []

    for j in range(T, 0, -1):
        q_request = p * v_active_next[0] + (1.0 - p) * v_down_next
        q_wait_active = v_active_next[1: j + 1]  # m -> value at (j+1, m+1)
        wait = q_wait_active >= q_request
        v_active = np.where(wait, q_wait_active, q_request)
        request_down = bool(q_request > v_down_next)  # waiting keeps it down; tie -> wait
        v_down = q_request if request_down else v_down_next
        # a run starts at age 0 and wherever the decision changes
        start = [0, *(np.flatnonzero(wait[1:] != wait[:-1]) + 1).tolist()]
        first = 0 if wait[0] else 1
        down.append(request_down)
        runs.append([(m, first ^ (k & 1)) for k, m in enumerate(start)])
        v_active_next = v_active
        v_down_next = v_down

    value = p * v_active_next[0] + (1.0 - p) * v_down_next
    runs.reverse()
    pairs = [pair for time_runs in runs for pair in time_runs]
    decisions = DecisionRuns(
        down=np.array(down[::-1], dtype=np.int8),
        start=np.array([m for m, _ in pairs], dtype=np.int64),
        action=np.array([a for _, a in pairs], dtype=np.int8),
        bounds=np.cumsum([0, *map(len, runs)]))
    policy = Policy.from_state_rule(None, "deterministic", "optimal-reduced",
                                    decisions.runs)
    return OptimizationResult(optimal_value=float(value), policy=policy,
                              mode="reduced", runs=decisions)
