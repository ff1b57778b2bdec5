"""Histories, policies, exact evolution, and the trajectory simulator."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlink import engine
from qlink.cutoff import cutoff_policy, prob_active
from qlink.engine import (
    History,
    LinkParams,
    Policy,
    evolve_exhaustive,
    expected_quantities,
    history_prob,
    iter_supported_histories,
    materialize_average_state,
    simulate_trajectories,
    trial_rng,
)
from qlink.optimize import evaluate_state_policy
from qlink.quantum import FidelityCurve, fidelity, preset_channel, preset_state

from oracles import enumerate_supported, memory_time_explicit, simulate_trajectories_scalar

CURVE = FidelityCurve.depolarizing(1.0, 0.9, 4)


def stochastic_policy() -> Policy:
    return Policy.from_state_rule(lambda t, x, m: 0.3 + 0.4 * x, "stochastic",
                                  "test-stochastic")


def always_request() -> Policy:
    return Policy.from_state_rule(lambda t, x, m: 1.0, "deterministic", "always-request")


def never_request() -> Policy:
    return Policy.from_state_rule(lambda t, x, m: 0.0, "deterministic", "never-request")


def history_policy() -> Policy:
    """A stochastic policy with no decide_state: it reads the whole history."""
    return Policy(decide=lambda t, h: 0.2 + 0.3 * (sum(h.actions) % 3),
                  kind="stochastic", label="test-history")


@st.composite
def histories(draw, max_t=10):
    t = draw(st.integers(1, max_t))
    xs = tuple(draw(st.lists(st.integers(0, 1), min_size=t, max_size=t)))
    acts = tuple(draw(st.lists(st.integers(0, 1), min_size=t - 1, max_size=t - 1)))
    return History(xs, acts)


# ---------------------------------------------------------------------------
# histories and memory time
# ---------------------------------------------------------------------------

def test_history_validation():
    with pytest.raises(ValueError):
        History((), ())
    with pytest.raises(ValueError):
        History((1, 0), ())
    with pytest.raises(ValueError):
        History((2,), ())


@given(histories())
@settings(max_examples=300, deadline=None)
def test_memory_time_recursion_matches_explicit_sum(history):
    assert history.memory_time() == memory_time_explicit(history)


@given(histories())
@settings(max_examples=200, deadline=None)
def test_request_counts(history):
    assert history.n_req() == 1 + sum(history.actions)
    assert 0 <= history.n_succ() <= history.n_req()


def test_memory_time_examples():
    # wait after a success ages the link; a failed request unloads it
    assert History((1,), ()).memory_time() == 0
    assert History((0,), ()).memory_time() == -1
    assert History((1, 1, 1), (0, 0)).memory_time() == 2
    assert History((1, 0), (1,)).memory_time() == -1
    assert History((0, 0, 0), (0, 0)).memory_time() == -1
    assert History((1, 1, 1), (0, 1)).memory_time() == 0


# ---------------------------------------------------------------------------
# history probabilities and support enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_factory", [
    lambda: cutoff_policy(2),
    lambda: cutoff_policy("inf"),
    always_request,
    never_request,
    stochastic_policy,
    history_policy,
])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.8, 1.0])
def test_history_prob_sums_to_one(policy_factory, p):
    policy = policy_factory()
    for t in (1, 3, 6):
        total = sum(w for _, w in iter_supported_histories(p, policy, t))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_iter_weights_match_history_prob():
    for policy in (stochastic_policy(), history_policy()):
        for history, weight in iter_supported_histories(0.35, policy, 6):
            assert history_prob(history, policy, 0.35) == pytest.approx(weight, rel=1e-12)


def test_history_prob_zero_off_support():
    # waiting cannot flip the link value
    policy = never_request()
    assert history_prob(History((1, 0), (0,)), policy, 0.5) == 0.0
    # a request the policy never makes
    assert history_prob(History((1, 1), (1,)), policy, 0.5) == 0.0


@pytest.mark.parametrize("tstar", [0, 1, 3, math.inf])
def test_engine_support_matches_bitstring_replay(tstar):
    """The engine's supported histories under the cutoff policy are exactly
    the sequences the independent replay oracle accepts, with equal stats."""
    policy = cutoff_policy(tstar)
    for t in (1, 2, 5, 8):
        engine = {}
        for history, weight in iter_supported_histories(0.3, policy, t):
            engine[history.observations] = (history.n_succ(),
                                            history.n_req() - history.n_succ(),
                                            history.memory_time())
        oracle = {xs: (ns, nf, m) for xs, ns, nf, m in enumerate_supported(t, tstar)}
        assert engine == oracle


# ---------------------------------------------------------------------------
# exact evolution
# ---------------------------------------------------------------------------

def test_evolve_mixture_normalized_and_consistent():
    params = LinkParams.symbolic(0.4, CURVE)
    policy = cutoff_policy(2)
    mixtures = evolve_exhaustive(params, policy, 9)
    assert [mx.t for mx in mixtures] == list(range(1, 10))
    for mx in mixtures:
        mx.check_normalized()
        assert mx.prob_active == pytest.approx(
            prob_active(mx.t, 2, 0.4), abs=1e-12)


def test_evolve_first_step():
    params = LinkParams.symbolic(0.25, CURVE)
    mx = evolve_exhaustive(params, always_request(), 1)[0]
    assert mx.failure_weight == pytest.approx(0.75)
    assert mx.age_weights == {0: pytest.approx(0.25)}


BAD_STATE_RULES = {
    "stochastic-1.5": ("stochastic", lambda t, x, m: 1.5),
    "deterministic-0.5": ("deterministic", lambda t, x, m: 0.5),
    "stochastic-negative-at-age-1": ("stochastic", lambda t, x, m: -0.5 if m == 1 else 0.5),
    "deterministic-0.5-at-age-1": ("deterministic",
                                   lambda t, x, m: 0.5 if m == 1 else float(x == 0)),
}


@pytest.mark.parametrize("rule", BAD_STATE_RULES)
@pytest.mark.parametrize("reader", ["evolve_exhaustive", "evaluate_state_policy",
                                    "simulate_trajectories"])
def test_every_reader_rejects_a_state_rule_that_is_not_a_probability(reader, rule):
    """A rule value outside [0, 1], or not 0 or 1 for a deterministic rule,
    is a ValueError whether the rule is read per history or per age row."""
    kind, decide = BAD_STATE_RULES[rule]
    policy = Policy.from_state_rule(decide, kind)
    params = LinkParams.symbolic(0.3, CURVE)
    run = {"evolve_exhaustive": lambda: evolve_exhaustive(params, policy, 4),
           "evaluate_state_policy": lambda: evaluate_state_policy(params, policy, 4),
           "simulate_trajectories": lambda: simulate_trajectories(params, policy, 4, 50, 1)}
    with pytest.raises(ValueError, match="policy returned"):
        run[reader]()


def test_expected_quantities_degenerate():
    params = LinkParams.symbolic(0.0, CURVE)
    mx = evolve_exhaustive(params, always_request(), 3)[-1]
    q = expected_quantities(mx, CURVE)
    assert q.prob_active == 0.0 and q.e_ftilde == 0.0
    assert q.e_f is None and q.conditional_ages is None


def test_expected_quantities_match_weights():
    params = LinkParams.symbolic(0.6, CURVE)
    mx = evolve_exhaustive(params, cutoff_policy(3), 7)[-1]
    q = expected_quantities(mx, CURVE)
    assert q.e_ftilde == pytest.approx(
        sum(CURVE(m) * w for m, w in mx.age_weights.items()), abs=1e-14)
    assert q.e_f == pytest.approx(q.e_ftilde / q.prob_active, abs=1e-14)


def test_evolve_warns_above_horizon_cap():
    params = LinkParams.symbolic(0.5, CURVE)
    with pytest.warns(RuntimeWarning):
        evolve_exhaustive(params, cutoff_policy("inf"), 21)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def test_materialized_average_state():
    bell = preset_state("bell_phi_plus")
    channel = preset_channel("depolarizing", 4, 0.85)
    params = LinkParams.from_quantum(0.45, bell.projector(), channel, bell)
    policy = cutoff_policy(2)
    mx = evolve_exhaustive(params, policy, 6)[-1]
    rho = materialize_average_state(mx, params)
    assert rho.dim == 5
    # failure branch sits on the appended basis vector
    assert rho.matrix[4, 4].real == pytest.approx(mx.failure_weight, abs=1e-12)
    # fidelity against the padded target equals E[Ftilde]
    padded = preset_state("bell_phi_plus").amplitudes
    target = np.concatenate([padded, [0.0]])
    e_ftilde = float((target.conj() @ rho.matrix @ target).real)
    q = expected_quantities(mx, params.fcurve)
    assert e_ftilde == pytest.approx(q.e_ftilde, abs=1e-12)


def test_materialize_requires_quantum_params():
    params = LinkParams.symbolic(0.5, CURVE)
    mx = evolve_exhaustive(params, cutoff_policy(1), 2)[-1]
    with pytest.raises(ValueError):
        materialize_average_state(mx, params)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_trial_rng_streams_are_stable_and_distinct():
    a1 = trial_rng(123, 0).random(4)
    a2 = trial_rng(123, 0).random(4)
    b = trial_rng(123, 1).random(4)
    c = trial_rng(124, 0).random(4)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


STREAM_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 130 + 3,
                12345678901234567890123456789012345678901234567890]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_block_streams_equal_trial_rng(seed):
    """The simulator's block streams draw each trial's stream bit for bit,
    for seeds of one to six 32-bit words and trial indices up to the last
    one-word spawn key."""
    rows = 64
    for start in (0, 1, 331, engine.MAX_TRIALS - rows):
        for width in (1, 2, 99):
            streams = engine._trial_streams(seed, start, rows)
            out = np.array([engine._draw(streams) for _ in range(width)]).T
            expected = np.array([trial_rng(seed, start + i).random(width)
                                 for i in range(rows)])
            assert (out == expected).all(), (start, width)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_masked_draws_hold_streams_back(seed):
    """A trial the mask leaves out keeps its state: its next draw is its
    stream's next unused uniform, as `trial_rng` gives it."""
    rows, rounds = 64, 12
    masks = np.random.default_rng(5).random((rounds, rows)) < 0.5
    masks[0], masks[1] = False, True
    for start in (0, 1, 331, engine.MAX_TRIALS - rows):
        expected = np.array([trial_rng(seed, start + i).random(rounds + 1)
                             for i in range(rows)])
        streams = engine._trial_streams(seed, start, rows)
        used = np.zeros(rows, dtype=np.int64)
        for mask in masks:
            out = engine._draw(streams, mask)
            assert (out[mask] == expected[mask, used[mask]]).all(), start
            used += mask
        out = engine._draw(streams)
        assert (out == expected[np.arange(rows), used]).all(), start


def test_trial_block_builder_rejects_keys_it_does_not_reproduce():
    with pytest.raises(ValueError, match="outside"):
        engine._trial_streams(0, engine.MAX_TRIALS - 1, 2)
    with pytest.raises(ValueError, match="seed"):
        engine._trial_streams(-1, 0, 2)
    params = LinkParams.symbolic(0.3, CURVE)
    with pytest.raises(ValueError, match="n_trials"):
        simulate_trajectories(params, cutoff_policy(2), 5, engine.MAX_TRIALS + 1, seed=0)


def test_simulation_builds_streams_without_trial_rng(monkeypatch):
    def unused(seed, trial):
        raise AssertionError("simulate_trajectories called trial_rng")

    monkeypatch.setattr(engine, "trial_rng", unused)
    params = LinkParams.symbolic(0.3, CURVE)
    simulate_trajectories(params, cutoff_policy(2), 5, 100, seed=0)


def test_simulation_is_deterministic_given_seed():
    params = LinkParams.symbolic(0.3, CURVE)
    policy = cutoff_policy(2)
    r1 = simulate_trajectories(params, policy, 10, 500, seed=42)
    r2 = simulate_trajectories(params, policy, 10, 500, seed=42)
    assert r1.prob_active == r2.prob_active
    assert r1.e_ftilde == r2.e_ftilde
    assert r1.e_s == r2.e_s
    r3 = simulate_trajectories(params, policy, 10, 500, seed=43)
    assert r1.prob_active != r3.prob_active


SIM_POLICIES = {
    "cutoff0": lambda: cutoff_policy(0),
    "cutoff3": lambda: cutoff_policy(3),
    "cutoffinf": lambda: cutoff_policy("inf"),
    "stochastic": stochastic_policy,
}


@pytest.mark.parametrize("policy_name", sorted(SIM_POLICIES))
@pytest.mark.parametrize("horizon", [1, 2, 50])
def test_simulation_matches_scalar_oracle(horizon, policy_name, monkeypatch):
    """The vectorized simulator returns exactly the trial-at-a-time loop's
    result, for trial counts on both sides of the block boundaries."""
    block = 16
    monkeypatch.setattr(engine, "BLOCK_TRIALS", block)
    policy = SIM_POLICIES[policy_name]()
    for p in (0.0, 0.3, 1.0):
        params = LinkParams.symbolic(p, CURVE)
        for n in (1, block - 1, block, block + 1, 3 * block + 7):
            fast = simulate_trajectories(params, policy, horizon, n, seed=n)
            slow = simulate_trajectories_scalar(params, policy, horizon, n, seed=n)
            assert fast == slow, (p, n)


def test_simulation_matches_scalar_oracle_at_default_block_size():
    horizon = 50
    block = engine.BLOCK_TRIALS
    params = LinkParams.symbolic(0.3, CURVE)
    policy = cutoff_policy(5)
    assert (simulate_trajectories(params, policy, horizon, block + 1, seed=9)
            == simulate_trajectories_scalar(params, policy, horizon, block + 1, seed=9))


# Working memory that may grow with the horizon: the per-t sums, the age
# table and one decision row, about 130 KB at H = 2000 (measured with
# tracemalloc)
HORIZON_SLACK_BYTES = 1 << 18


def traced_extra_bytes(params: LinkParams, policy: Policy, horizon: int,
                       n: int) -> int:
    """Peak memory of one simulation beyond the result it returns."""
    # a first call keeps one-time imports and caches out of the measurement
    simulate_trajectories(params, policy, 2, 2, seed=1)
    tracemalloc.start()
    try:
        result = simulate_trajectories(params, policy, horizon, n, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_trials == n
    return peak - held


def test_state_rule_simulation_memory_does_not_grow_with_horizon():
    """No per-trial buffer scales with the horizon: a block holds each
    trial's state and PCG64 stream, not its draws."""
    params = LinkParams.symbolic(0.3, CURVE)
    short, long = (traced_extra_bytes(params, cutoff_policy(5), horizon, 200)
                   for horizon in (50, 2000))
    assert long < short + HORIZON_SLACK_BYTES, (short, long)


def test_simulation_evaluates_each_visited_age_once():
    calls = []

    def counted(m):
        calls.append(m)
        return CURVE(m)

    params = LinkParams.symbolic(0.3, FidelityCurve(counted, "closed-form"))
    simulate_trajectories_scalar(params, cutoff_policy("inf"), 30, 300, seed=3)
    visited = set(calls)
    calls.clear()
    simulate_trajectories(params, cutoff_policy("inf"), 30, 300, seed=3)
    assert sorted(calls) == sorted(visited)


def test_simulation_matches_exact_evolution_within_4_sigma():
    params = LinkParams.symbolic(0.3, CURVE)
    policy = cutoff_policy(3)
    n = 20_000
    result = simulate_trajectories(params, policy, 12, n, seed=2024)
    mixtures = evolve_exhaustive(params, policy, 12)
    for t in range(1, 13):
        exact = expected_quantities(mixtures[t - 1], CURVE)
        idx = t - 1
        se = result.prob_active_se[idx] or 1e-12
        assert abs(result.prob_active[idx] - exact.prob_active) < 4 * se + 1e-9
        se = result.e_ftilde_se[idx] or 1e-12
        assert abs(result.e_ftilde[idx] - exact.e_ftilde) < 4 * se + 1e-9


def test_single_trial_has_no_standard_errors():
    params = LinkParams.symbolic(0.5, CURVE)
    result = simulate_trajectories(params, cutoff_policy(1), 4, 1, seed=1)
    assert all(se is None for se in result.prob_active_se)
    assert all(se is None for se in result.e_s_se)


@pytest.mark.slow
def test_mc_convergence_over_100_seeds():
    """At n=1e5, at least 99 of 100 seeds land within 4 sigma of the exact
    activity probability at every checked time."""
    params = LinkParams.symbolic(0.3, CURVE)
    policy = cutoff_policy(3)
    horizon = 10
    exact = [prob_active(t, 3, 0.3) for t in range(1, horizon + 1)]
    good = 0
    for seed in range(100):
        result = simulate_trajectories(params, policy, horizon, 100_000, seed=seed)
        ok = all(
            abs(result.prob_active[t - 1] - exact[t - 1])
            <= 4 * (result.prob_active_se[t - 1] or 1e-12)
            for t in range(1, horizon + 1)
        )
        good += ok
    assert good >= 99
