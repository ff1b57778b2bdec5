"""The elementary-link decision process: histories, policies, exact evolution,
and Monte Carlo trajectory simulation.

Time convention.  Observations are X(1), X(2), ... with X(t) in {0, 1}
("link active at time t").  Actions are A(1), ..., A(t-1) with A(t) in
{0 = wait, 1 = request}; a request is always made before the first step
(A(0) = 1).  A request at time t succeeds with probability p, producing
X(t+1) = 1 and a fresh memory; waiting carries the current link value over
unchanged.  The memory time M(t) counts the steps the current state has sat
in memory, with -1 for an unloaded memory:

    M(t) = M(t-1) + X(t)   if A(t-1) = 0
    M(t) = X(t) - 1        if A(t-1) = 1

A link is the paper's pair (p, f_m), `LinkParams`; density matrices enter
only through `materialize_average_state`, from the state and memory channel
the curve was made from.

Monte Carlo draw contract.  Trial i of a run seeded with s takes every
random number from its own stream `trial_rng(s, i)`, in this order: one
uniform for the outcome of the initial request A(0), then for each
t = 1..H-1 one uniform for the decision A(t) and, if A(t) is a request, one
more for its outcome.  That is at most 2H - 1 uniforms per trial.  An event
of probability q happens when its uniform is below q.  The simulator does
not call `trial_rng`: it holds a block of trials' PCG64 states on uint64
arrays, seeded with the same bits from numpy's SeedSequence hash, and runs
PCG64's step and XSL-RR output on them (see `_trial_streams` and `_draw`).
It forms no double: u = bits * 2**-53 is below q exactly when the bits are
below ceil(q * 2**53) (`_cut`), and a step whose decisions all have
probability 0 or 1 forms no output for them.  NEP 19 keeps these streams
stable, and a test compares them bit for bit with `trial_rng`.
"""

from __future__ import annotations

import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, reduce
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .config import MAX_TRIALS
from .cutoff import LinkState, _checked_bits, _checked_int, _validate_p
from .quantum import DensityOperator, FidelityCurve, KrausChannel, _memory_states

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE_WARN_HORIZON = 20
# Trials the simulator advances together, in buffers of about 90 bytes a
# trial whatever the horizon.  With blocks of 8192 / 4096 / 2048 trials,
# `simulate-mc` (20,000 trials, H = 50) peaks at 30.4 / 29.8 / 29.7 MB of
# RSS, and 2048 runs up to 20% slower in process (2-vCPU Xeon, numpy 2.4).
BLOCK_TRIALS = 4096
# Trial indices 0..MAX_TRIALS-1 (config.MAX_TRIALS) are one 32-bit word of
# the SeedSequence spawn key, the case `_trial_streams` reproduces.

# numpy's SeedSequence hash (pool size 4)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


@cache
def _uint64() -> SimpleNamespace:
    """The multiplier's 64-bit words, its low word's 32-bit halves, the
    low-half mask, and the shifts of PCG64's step and output (``u1`` ..
    ``u63``), all np.uint64 so that every operation stays on uint64 under
    either of numpy's promotion rules.  Made on first use, so that
    importing the engine loads no numpy."""
    import numpy as np
    return SimpleNamespace(
        mult_hi=np.uint64(_PCG64_MULT >> 64),
        mult_lo=np.uint64(_PCG64_MULT & (1 << 64) - 1),
        mult_lo_1=np.uint64(_PCG64_MULT >> 32 & _MASK32),
        mult_lo_0=np.uint64(_PCG64_MULT & _MASK32),
        low32=np.uint64(_MASK32),
        **{f"u{k}": np.uint64(k) for k in (1, 11, 32, 58, 63)})


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class History:
    """Alternating observation/action record (x1, a1, x2, ..., a_{t-1}, x_t)."""

    observations: tuple[int, ...]
    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", _checked_bits(self.observations, "observations"))
        object.__setattr__(self, "actions", _checked_bits(self.actions, "actions"))
        if len(self.observations) < 1:
            raise ValueError("history needs at least one observation")
        if len(self.actions) != len(self.observations) - 1:
            raise ValueError(
                f"history with {len(self.observations)} observations must have "
                f"{len(self.observations) - 1} actions, got {len(self.actions)}"
            )

    @property
    def t(self) -> int:
        return len(self.observations)

    def memory_time(self) -> int:
        """M(t) by the recursion; -1 means the memory is unloaded."""
        m = -1
        a_prev = 1  # A(0) = 1
        for j, x in enumerate(self.observations):
            m = m + x if a_prev == 0 else x - 1
            if j < len(self.actions):
                a_prev = self.actions[j]
        return m

    def n_req(self) -> int:
        """Number of requests made up to time t (A(0) counts)."""
        return 1 + sum(self.actions)

    def n_succ(self) -> int:
        """Number of successful requests up to time t."""
        total = self.observations[0]  # A(0) = 1
        for j, a in enumerate(self.actions):
            total += a * self.observations[j + 1]
        return total


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def _checked_prob(val: float, kind: str) -> float:
    """``val`` if it is a probability, and 0 or 1 for a deterministic ``kind``."""
    _validate_p(val, "the probability the policy returned")
    if kind == "deterministic" and val not in (0.0, 1.0):
        raise ValueError(f"deterministic policy returned {val}")
    return val


@dataclass(frozen=True)
class Policy:
    """A decision-function family d_t: histories -> Pr[A(t) = 1].

    ``decide`` consumes the full history; ``decide_state`` is the same
    decision for policies that only look at (t, x_t, M(t)), and
    ``decide_runs(t)`` all its decisions at time t as ``(down, starts,
    probs)``: Pr[request] when down, and at active age m < t the ``probs``
    entry of the last run starting at or below m (``starts`` ascend from 0).
    The simulator and `evaluate_state_policy` read a policy only through it.
    """

    decide: Callable[[int, History], float]
    kind: str  # "deterministic" | "stochastic"
    decide_state: Optional[Callable[[int, int, int], float]] = None
    decide_runs: Optional[Callable[[int], tuple[float, Sequence[int], Sequence[float]]]] = None

    def action_prob(self, t: int, history: History) -> float:
        return _checked_prob(float(self.decide(t, history)), self.kind)

    @classmethod
    def from_state_rule(cls, rule: Optional[Callable[[int, int, int], float]], kind: str,
                        runs: Optional[Callable] = None) -> "Policy":
        """Build a policy from a rule on (t, x_t, M(t)), ``runs`` as
        ``decide_runs`` giving probabilities, 0 or 1 if ``kind`` is
        deterministic.  Either may be None: runs are then built from the
        rule one checked age at a time, or the rule reads the runs."""
        if rule is None:
            def rule(t: int, x: int, m: int) -> float:
                down, starts, probs = runs(t)
                return down if x == 0 else float(probs[bisect_right(starts, m) - 1])

        def decide(t: int, history: History) -> float:
            return rule(t, history.observations[-1], history.memory_time())

        if runs is None:
            def runs(t: int) -> tuple[float, list[int], list[float]]:
                row = [_checked_prob(float(rule(t, 1, m)), kind) for m in range(t)]
                starts = [m for m in range(t) if m == 0 or row[m] != row[m - 1]]
                return _checked_prob(float(rule(t, 0, -1)), kind), starts, [row[m] for m in starts]

        return cls(decide=decide, kind=kind, decide_state=rule, decide_runs=runs)


# ---------------------------------------------------------------------------
# link parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinkParams:
    """One elementary link as the paper models it: the success probability p
    of a request and the memory's fidelity curve f_m.  A curve made from a
    noise model is ``FidelityCurve.from_channel(rho0, channel, target)``."""

    p: float
    fcurve: FidelityCurve

    def __post_init__(self) -> None:
        _validate_p(self.p)

    @classmethod
    def symbolic(cls, p: float, fcurve: FidelityCurve) -> "LinkParams":
        return cls(p=p, fcurve=fcurve)


# ---------------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------------

def history_prob(history: History, policy: Policy, p: float) -> float:
    """Pr[H(t) = h] = prod_j d_j(a_j) * p^N_succ * (1-p)^(N_req - N_succ).

    Histories outside the transition support (waiting must carry the link
    value over) get probability 0.
    """
    _validate_p(p)
    xs, acts = history.observations, history.actions
    prob = p if xs[0] == 1 else 1.0 - p  # A(0) = 1
    for j, a in enumerate(acts, start=1):
        pi1 = policy.action_prob(j, History(xs[:j], acts[: j - 1]))
        prob *= pi1 if a == 1 else 1.0 - pi1
        if prob == 0.0:
            return 0.0
        if a == 1:
            prob *= p if xs[j] == 1 else 1.0 - p
        elif xs[j] != xs[j - 1]:
            return 0.0
    return prob


def _supported_prefixes(p: float, policy: Policy, horizon: int
                        ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int, int, float]]:
    """Every history prefix of length 1..horizon with nonzero probability,
    as (observations, actions, x, M, weight), depth first: each prefix
    before its extensions, requests before waits, successes before
    failures."""
    # children are pushed in reverse, so they pop in the order above
    stack = [((x1,), (), x1, x1 - 1, x_prob)
             for x1, x_prob in ((0, 1.0 - p), (1, p)) if x_prob != 0.0]
    while stack:
        node = stack.pop()
        yield node
        xs, acts, x, m, weight = node
        t = len(xs)
        if t == horizon:
            continue
        pi1 = policy.action_prob(t, History(xs, acts))
        if pi1 < 1.0:
            stack.append((xs + (x,), acts + (0,), x, m + x, weight * (1.0 - pi1)))
        if pi1 > 0.0:
            for xn, x_prob in ((0, 1.0 - p), (1, p)):
                if x_prob != 0.0:
                    stack.append((xs + (xn,), acts + (1,), xn, xn - 1,
                                  weight * pi1 * x_prob))


def iter_supported_histories(p: float, policy: Policy, horizon: int
                             ) -> Iterator[tuple[History, float]]:
    """All length-`horizon` histories with nonzero probability, with
    weights; p and the horizon are checked at the call, before enumerating."""
    _validate_p(p)
    horizon = _checked_int(horizon, 1, "horizon")
    return ((History(xs, acts), weight)
            for xs, acts, _, _, weight in _supported_prefixes(p, policy, horizon)
            if len(xs) == horizon)


def evolve_exhaustive(params: LinkParams, policy: Policy, horizon: int
                      ) -> list[LinkState]:
    """Exact state at every t = 1..horizon by support enumeration, with
    E[F~(t)] and E[F(t)] from ``params.fcurve``.  The down weight and the
    age weights are summed apart, and their total must be 1 within 1e-10
    with no weight below -1e-10."""
    horizon = _checked_int(horizon, 1, "horizon")
    if horizon > EXHAUSTIVE_WARN_HORIZON:
        warnings.warn(
            f"exhaustive evolution at horizon {horizon} may enumerate a very "
            f"large history support", RuntimeWarning, stacklevel=2)
    failure = [0.0] * (horizon + 1)
    ages = [[0.0] * t for t in range(horizon + 1)]  # ages[t][m]
    for xs, _, x, m, weight in _supported_prefixes(params.p, policy, horizon):
        t = len(xs)
        if x == 1:
            ages[t][m] += weight
        else:
            failure[t] += weight

    fvals = [params.fcurve(m) for m in range(horizon)]
    out = []
    for t in range(1, horizon + 1):
        joint = tuple(ages[t])
        active = reduce(operator.add, joint, 0.0)
        total = failure[t] + active
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"mixture weights at t={t} sum to {total}")
        if min(failure[t], *joint) < -1e-10:
            raise ValueError(f"negative weight in mixture at t={t}")
        out.append(LinkState.from_joint(t, joint, active, fvals))
    return out


def materialize_average_state(state: LinkState, rho0: DensityOperator,
                              channel: KrausChannel) -> DensityOperator:
    """The average state as a density matrix on dim+1 dimensions: the state
    ``rho0`` after m steps of the memory ``channel``, weighted by
    Pr[X(t) = 1, M(t) = m], one step of the memory's walk per age.

    The failure branch, 1 - Pr[X(t) = 1], occupies one appended basis
    vector orthogonal to the link space, so fidelities against (padded)
    targets are unchanged.  The t* = inf limit state raises ValueError.
    """
    import numpy as np
    if state.prob_active and not state.joint:
        raise ValueError("the t* = inf limit state has no density matrix: the kept "
                         "link's age grows without bound")
    dim = rho0.dim
    out = np.zeros((dim + 1, dim + 1), dtype=complex)
    # joint first: n ages pull n states, n - 1 channel applications
    for weight, rho in zip(state.joint, _memory_states(rho0, channel)):
        out[:dim, :dim] += weight * rho.matrix
    out[dim, dim] = 1.0 - state.prob_active
    return DensityOperator(out)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class SimulationResult:
    """Per-time-step Monte Carlo estimates with standard errors.

    Arrays are indexed by t = 1..horizon (position t-1).  ``e_f[t-1]`` is
    None when no trial had an active link at t; standard errors are None
    when fewer than two samples back them.
    """

    horizon: int
    n_trials: int
    seed: int
    prob_active: list[float]
    prob_active_se: list[Optional[float]]
    e_ftilde: list[float]
    e_ftilde_se: list[Optional[float]]
    e_s: list[float]
    e_s_se: list[Optional[float]]
    e_f: list[Optional[float]]
    e_f_se: list[Optional[float]]


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial RNG stream: PCG64 keyed on (seed, trial_index).

    Streams are independent across trials, and trial i's stream is the same
    whichever block of the simulator it falls in.
    """
    import numpy as np
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (xor, multiplier) pair of each successive SeedSequence hash."""
    const = init
    while True:
        step = const * mult & _MASK32
        yield const, step
        const = step


def _hash(value, consts: Iterator[tuple[int, int]]):
    """One SeedSequence hash of a 32-bit word, or of each of a uint32 array."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    r = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _trial_streams(seed: int, start: int, n: int,
                   work: Optional[np.ndarray] = None) -> np.ndarray:
    """The PCG64 states of ``trial_rng(seed, start + i)`` for i < n, as a
    (4, n) uint64 array: the state's high and low words, then the
    increment's.  `_draw` advances them; ``work`` is passed on to it.

    `trial_rng` seeds PCG64 from ``SeedSequence(entropy=seed,
    spawn_key=(trial,))``.  That hashes the seed's 32-bit words, padded with
    zeros to the pool's 4, into the pool, then the trial's one word, then
    hashes the pool into four 64-bit words: initstate and initseq, high word
    first.  Only the trial's round and the output hash depend on the trial,
    and the hash constants advance the same way for every trial, so the
    seed's rounds run once, on Python ints, and the rest on uint32 arrays
    over the block.  PCG64 then sets inc = 2 initseq + 1 and the state to
    one LCG step from initstate + inc.
    """
    import numpy as np
    seed = _checked_int(seed, 0, "seed")  # numpy integers become exact Python ints
    if start < 0 or start + n > MAX_TRIALS:
        raise ValueError(f"trials {start}..{start + n - 1} are outside "
                         f"0..{MAX_TRIALS - 1}")
    words = [seed >> shift & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, consts) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    trials = np.arange(n, dtype=np.uint32) + np.uint32(start)
    for word in words[4:] + [trials]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    u = _uint64()
    streams = np.empty((4, n), dtype=np.uint64)
    for k, word in enumerate(streams):  # little-endian pairs of hash outputs
        word[...] = _hash(pool[2 * k % 4], consts)
        word |= _hash(pool[2 * k % 4 + 1], consts).astype(np.uint64) << u.u32
    state_hi, state_lo, inc_hi, inc_lo = streams  # initstate, initseq so far
    inc_hi <<= u.u1
    inc_hi |= inc_lo >> u.u63
    inc_lo <<= u.u1
    inc_lo |= u.u1
    state_lo += inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)  # with the carry
    _draw(streams, None, work, False)  # the seeding step; its output is not a draw
    return streams


def _draw(streams: np.ndarray, mask: Optional[np.ndarray] = None,
          work: Optional[np.ndarray] = None, output: bool = True
          ) -> Optional[np.ndarray]:
    """Advance each stream by one draw and return its uniform's 53 bits,
    ``bits * 2**-53`` being numpy's ``random()``: the LCG step state * MULT
    + inc mod 2**128, then the new state's XSL-RR output, whose top 53 bits
    they are.  The high word of low * MULT's low word comes from 32-bit
    partial products; every other product wraps mod 2**64 as it should.
    Streams where ``mask`` is False keep their state and their bits are to
    be ignored; with ``output`` False, None is returned.  Intermediates go
    to the uint64 rows of ``work`` (made here when not given): the bits are
    row 1, and rows 0, 2 and 3 are free after.  Additions mod 2**64 give
    the same bits in any order."""
    import numpy as np
    u = _uint64()
    work = np.empty_like(streams) if work is None else work
    new_hi, new_lo, x, y = work
    hi, lo, inc_hi, inc_lo = streams
    np.right_shift(lo, u.u32, out=x)  # lo_1
    np.multiply(x, u.mult_lo_1, out=new_hi)
    x *= u.mult_lo_0
    np.bitwise_and(lo, u.low32, out=y)  # lo_0
    np.multiply(y, u.mult_lo_0, out=new_lo)
    new_lo >>= u.u32
    x += new_lo  # mid = lo_1 * MULT_0 + (lo_0 * MULT_0 >> 32)
    y *= u.mult_lo_1
    np.bitwise_and(x, u.low32, out=new_lo)
    y += new_lo  # mid_0 = lo_0 * MULT_1 + (mid & low32)
    x >>= u.u32
    new_hi += x
    y >>= u.u32
    new_hi += y
    np.multiply(hi, u.mult_lo, out=x)
    new_hi += x
    np.multiply(lo, u.mult_hi, out=x)
    new_hi += x
    new_hi += inc_hi
    np.multiply(lo, u.mult_lo, out=new_lo)
    new_lo += inc_lo
    np.less(new_lo, inc_lo, out=x)  # the carry into the high word
    new_hi += x
    np.copyto(streams[:2], work[:2], where=True if mask is None else mask)
    if not output:
        return None
    np.bitwise_xor(new_hi, new_lo, out=x)  # XSL
    np.right_shift(new_hi, u.u58, out=y)  # RR: rotate right by the top 6 bits
    np.right_shift(x, y, out=new_lo)
    np.negative(y, out=y)
    y &= u.u63
    x <<= y
    new_lo |= x
    new_lo >>= u.u11
    return new_lo


def _cut(q):
    """ceil(q * 2**53) as uint64: bits < _cut(q) exactly when bits * 2**-53 < q."""
    import numpy as np
    return np.ceil(np.multiply(q, 2.0 ** 53)).astype(np.uint64)


def simulate_trajectories(params: LinkParams, policy: Policy, horizon: int,
                          n_trials: int, seed: int) -> SimulationResult:
    """Sample n_trials trajectories of a state policy and estimate the
    tracked link quantities.

    Trials run in blocks, in buffers made once, as one state machine over
    (M + 1, N_req, N_succ), advanced a time step at a time; M + 1 is 0
    exactly when the link is down.  Each step draws every trial's decision
    uniform, then the outcome uniform of the trials that request, from the
    block's streams (see the module docstring), so each trial consumes its
    stream in the order a trial-at-a-time loop would.  The policy is read
    only through ``policy.decide_runs``, expanded over the ages present; a
    policy without a state rule raises ValueError.  Sums over trials add in
    trial order, so the result does not depend on the block size.
    """
    import numpy as np
    horizon = _checked_int(horizon, 1, "horizon")
    if _checked_int(n_trials, 1, "n_trials") > MAX_TRIALS:
        raise ValueError(f"n_trials must be in [1, {MAX_TRIALS}], got {n_trials}")
    runs = policy.decide_runs
    if runs is None:
        raise ValueError("simulate_trajectories needs a policy with a state rule")

    # ftable[m + 1] = f_m for every age reached so far; ftable[0] = 0.0 stands
    # for the unloaded memory, since x = 0 exactly when M = -1
    ftable = np.zeros(1)
    n_active = np.zeros(horizon, dtype=np.int64)
    sums = np.zeros((4, horizon))  # per t: sum of Ftilde, Ftilde^2, S, S^2
    # one block's buffers, made once: a shorter last block uses their first
    # n columns, and the draws' uint64 intermediates share theirs with the
    # fold of the sums, as the two never hold live values at once
    size = min(BLOCK_TRIALS, n_trials)
    shared = np.empty(4 * (size + 1), dtype=np.uint64)
    ages = np.empty(size, dtype=np.intp)  # M + 1: 0 when down
    req_succ = np.empty((2, size))  # N_req and N_succ, exact as doubles
    masks = np.empty((3, size), dtype=bool)  # request, success, up
    p_cut = _cut(params.p)
    for start in range(0, n_trials, size):
        n = min(size, n_trials - start)
        draws = shared[:4 * n].reshape(4, n)
        fold = shared[:4 * (n + 1)].view(np.float64).reshape(4, n + 1)
        age, (n_req, n_succ), (request, success, up) = (
            ages[:n], req_succ[:, :n], masks[:, :n])
        streams = None  # the last block's streams go before the next are made
        streams = _trial_streams(seed, start, n, draws)
        np.less(_draw(streams, None, draws), p_cut, out=success)  # A(0) = 1
        n_req[...], n_succ[...], age[...] = 1.0, success, success
        for t in range(1, horizon + 1):
            top = int(age.max()) - 1  # the largest M present
            if top + 2 > len(ftable):  # ages grow by one per step: no gaps
                ftable = np.append(ftable, [params.fcurve(m) for m in
                                            range(len(ftable) - 1, top + 1)])
            np.take(ftable, age, out=fold[0, 1:], mode="clip")
            np.divide(n_succ, n_req, out=fold[2, 1:])
            np.multiply(fold[::2, 1:], fold[::2, 1:], out=fold[1::2, 1:])
            n_active[t - 1] += np.count_nonzero(age)
            # cumsum adds in trial order; sum() would add pairwise
            fold[:, 0] = sums[:, t - 1]
            sums[:, t - 1] = np.cumsum(fold, axis=1, out=fold)[:, -1]
            if t == horizon:
                break

            # [down, the runs over the ages present], read at M + 1
            down, starts, probs = runs(t)
            pi = np.full(top + 2, down, dtype=float)
            for lo, hi, prob in zip(starts, [*starts[1:], top + 1], probs):
                pi[lo + 1:hi + 1] = prob
            # a decision of probability 0 or 1 takes any uniform as 0: none formed
            certain = {down, *probs} <= {0.0, 1.0}
            bits = _draw(streams, None, draws, not certain)
            np.take(_cut(pi), age, out=draws[2], mode="clip")
            np.less(np.uint64(0) if certain else bits, draws[2], out=request)
            np.less(_draw(streams, request, draws), p_cut, out=success)
            success &= request
            age += np.greater(age, 0, out=up)  # M + x when waiting
            np.copyto(age, success, where=request)  # x - 1 after a request
            n_req += request
            n_succ += success

    def mean_se(total: np.ndarray, total_sq: np.ndarray, counts: list[int]
                ) -> tuple[list, list]:
        """Per t: the mean over that t's count of samples, None without
        any, and its standard error, None with fewer than two."""
        means, ses = [], []
        for tot, tot_sq, k in zip(total, total_sq, counts):
            mean = tot / max(k, 1)
            var = max(0.0, (tot_sq - k * mean * mean) / max(k - 1, 1))
            means.append(float(mean) if k else None)
            ses.append(float(np.sqrt(var / k)) if k > 1 else None)
        return means, ses

    trials = [n_trials] * horizon
    sum_x = n_active.astype(float)  # x^2 = x for bits
    # in field order; Ftilde is 0.0 on inactive trials, so its sums are also
    # the sums over active trials alone, those of E[F]
    return SimulationResult(
        horizon, n_trials, seed, *mean_se(sum_x, sum_x, trials),
        *mean_se(sums[0], sums[1], trials), *mean_se(sums[2], sums[3], trials),
        *mean_se(sums[0], sums[1], n_active.tolist()))
