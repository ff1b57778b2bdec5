"""Acceptance gate: one test (or parametrized family) per release criterion.

Each criterion is reported as a single PASS/FAIL line in the terminal
summary (see conftest.py).  Expected values come from independent oracles:
bitstring replay of the cutoff rules, exact rational arithmetic, channel
powers, and hand-derived constants -- never from the code under test.
"""

import builtins
import json
import math
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest

import qlink.cutoff as ca
import qlink.optimize as opt
from qlink import cli
from qlink.config import load_config
from qlink.csvio import read_result_table
from qlink.cutoff import (
    count_sequences,
    history_prob_cutoff,
    hyp2f1_series,
    joint_prob,
    memory_time_cutoff,
    prob_active,
    sequence_stats,
    transition_matrix,
    waiting_time,
)
from qlink.engine import (
    BLOCK_TRIALS,
    LinkParams,
    history_prob,
    iter_supported_histories,
    materialize_average_state,
    simulate_trajectories,
)
from qlink.network import (
    EdgeConfig,
    NetworkConfig,
    ParallelLinkSpec,
    collective_status,
    expected_flow,
    expected_total_links,
    flow_distribution,
    joint_state_descriptor,
    prob_at_least_one,
)
from qlink.quantum import (
    DensityOperator,
    FidelityCurve,
    PureState,
    apply_channel,
    fidelity,
    memory_evolve,
    preset_channel,
    preset_state,
    tensor_channel,
)

from oracles import (
    backward_recursion_full,
    enumerate_supported,
    exhaustive_policy_search,
    exhaustive_policy_search_engine,
    expanded_policy_text,
    expected_fidelity_lgamma,
    expected_success_rate_lgamma,
    joint_prob_lgamma,
    prob_active_lgamma,
    simulate_trajectories_scalar,
    simulate_waiting_time,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

P_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
CURVE = FidelityCurve.depolarizing(1.0, 0.9, 4)


# ---------------------------------------------------------------------------
# criterion 1: brute-force equivalence of all closed forms, t <= 12
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tstar", [0, 1, 2, 3, math.inf])
def test_criterion_01_brute_force_equivalence(tstar):
    t_max = 12
    # replay every bitstring once; reuse the statistics across all p values
    stats = {t: list(enumerate_supported(t, tstar)) for t in range(1, t_max + 1)}
    for p in P_GRID:
        for t in range(1, t_max + 1):
            active = 0.0
            e_ftilde = 0.0
            e_s = 0.0
            joint: dict[tuple[int, int], float] = {}
            for xs, n_succ, n_fail, age in stats[t]:
                prob = p ** n_succ * (1.0 - p) ** n_fail
                x = xs[-1]
                if tstar == math.inf:
                    m = age
                else:
                    m = age if age >= 0 else int(tstar)
                joint[(m, x)] = joint.get((m, x), 0.0) + prob
                e_s += prob * n_succ / (n_succ + n_fail)
                if x == 1:
                    active += prob
                    e_ftilde += prob * CURVE(m)
            assert abs(prob_active(t, tstar, p) - active) <= 1e-10
            if tstar == math.inf or t <= tstar + 1:
                assert abs(active - (1.0 - (1.0 - p) ** t)) <= 1e-10
            for (m, x), weight in joint.items():
                assert abs(joint_prob(t, tstar, p, m, x) - weight) <= 1e-10
            fid = ca.expected_fidelity_cutoff(t, tstar, p, CURVE)
            assert abs(fid.e_ftilde - e_ftilde) <= 1e-10
            assert abs(ca.expected_success_rate(t, tstar, p) - e_s) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 2: the 36-row sequence table at (t=10, t*=3)
# ---------------------------------------------------------------------------

# (sequence, Y1, Y2, exponent of p, exponent of 1-p, memory time)
SEQUENCE_TABLE_T10_TS3 = [
    ("0000000000", 0, 0, 0, 10, 3),
    ("1111000000", 1, 0, 1, 6, 3),
    ("0111100000", 1, 0, 1, 6, 3),
    ("0011110000", 1, 0, 1, 6, 3),
    ("0001111000", 1, 0, 1, 6, 3),
    ("0000111100", 1, 0, 1, 6, 3),
    ("0000011110", 1, 0, 1, 6, 3),
    ("1111111100", 2, 0, 2, 2, 3),
    ("1111011110", 2, 0, 2, 2, 3),
    ("0111111110", 2, 0, 2, 2, 3),
    ("0000000001", 0, 1, 1, 9, 0),
    ("0000000011", 0, 2, 1, 8, 1),
    ("0000000111", 0, 3, 1, 7, 2),
    ("0000001111", 0, 4, 1, 6, 3),
    ("1111000001", 1, 1, 2, 5, 0),
    ("0111100001", 1, 1, 2, 5, 0),
    ("0011110001", 1, 1, 2, 5, 0),
    ("0001111001", 1, 1, 2, 5, 0),
    ("0000111101", 1, 1, 2, 5, 0),
    ("0000011111", 1, 1, 2, 5, 0),
    ("1111000011", 1, 2, 2, 4, 1),
    ("0111100011", 1, 2, 2, 4, 1),
    ("0011110011", 1, 2, 2, 4, 1),
    ("0001111011", 1, 2, 2, 4, 1),
    ("0000111111", 1, 2, 2, 4, 1),
    ("1111000111", 1, 3, 2, 3, 2),
    ("0111100111", 1, 3, 2, 3, 2),
    ("0011110111", 1, 3, 2, 3, 2),
    ("0001111111", 1, 3, 2, 3, 2),
    ("1111001111", 1, 4, 2, 2, 3),
    ("0111101111", 1, 4, 2, 2, 3),
    ("0011111111", 1, 4, 2, 2, 3),
    ("1111111101", 2, 1, 3, 1, 0),
    ("1111011111", 2, 1, 3, 1, 0),
    ("0111111111", 2, 1, 3, 1, 0),
    ("1111111111", 2, 2, 3, 0, 1),
]


def test_criterion_02_sequence_table_fixture():
    assert len(SEQUENCE_TABLE_T10_TS3) == 36
    assert count_sequences(10, 3) == 36

    fixture = {}
    p = 0.3
    for bits, y1, y2, p_exp, fail_exp, m in SEQUENCE_TABLE_T10_TS3:
        xs = tuple(int(c) for c in bits)
        stats = sequence_stats(xs, 3)
        assert (stats.y1, stats.y2) == (y1, y2), bits
        assert memory_time_cutoff(xs, 3) == m, bits
        expected = p ** p_exp * (1.0 - p) ** fail_exp
        assert history_prob_cutoff(stats, 10, 3, p) == pytest.approx(
            expected, rel=1e-14), bits
        fixture[xs] = (p_exp, fail_exp, m)

    # the brute-force support is exactly the fixture, row for row
    enumerated = {}
    for xs, n_succ, n_fail, age in enumerate_supported(10, 3):
        enumerated[xs] = (n_succ, n_fail, age if age >= 0 else 3)
    assert enumerated == fixture

    # the QPOMDP's history weights Pr[H(t) = h] under the cutoff policy are
    # the (Y1, Y2) form: its supported histories are the fixture's
    # sequences, each weighted p^a (1-p)^b
    policy = ca.cutoff_policy(3)
    histories = [history for history, _ in iter_supported_histories(p, policy, 10)]
    assert sorted(history.observations for history in histories) == sorted(fixture)
    for history in histories:
        p_exp, fail_exp, _ = fixture[history.observations]
        assert history_prob(history, policy, p) == pytest.approx(
            p ** p_exp * (1.0 - p) ** fail_exp, rel=1e-14), history.observations


# ---------------------------------------------------------------------------
# criterion 3: counting identities
# ---------------------------------------------------------------------------

def test_criterion_03_counting_identities():
    for t in range(1, 21):
        assert count_sequences(t, 0) == 2 ** t
        assert count_sequences(t, "inf") == 1 + t
        for tstar in range(t - 1, t + 3):  # covers every t <= t* + 1 boundary
            if t <= tstar + 1:
                assert count_sequences(t, tstar) == 1 + t
    # the cutoff policy's supported histories are the counted sequences,
    # and their weights are a probability law
    for tstar in (0, 1, 3, math.inf):
        policy = ca.cutoff_policy(tstar)
        for t in range(1, 11):
            weights = [w for _, w in iter_supported_histories(0.3, policy, t)]
            assert len(weights) == count_sequences(t, tstar), (tstar, t)
            assert abs(math.fsum(weights) - 1.0) <= 1e-12, (tstar, t)


# ---------------------------------------------------------------------------
# criterion 4: steady-state limits at t = 5000
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.1, 0.3, 0.7])
def test_criterion_04_steady_state_limits(p):
    t = 5000
    for tstar in (0, 2, 5, 10):
        denom = 1.0 + tstar * p
        assert abs(prob_active(t, tstar, p) - (tstar + 1) * p / denom) <= 1e-6
        for m in range(tstar + 1):
            assert abs(joint_prob(t, tstar, p, m, 1) - p / denom) <= 1e-6
        row = next(ca.active_rows((t,), tstar, p, CURVE))
        steady = ca.steady_state(tstar, p, CURVE)
        assert abs(row.e_ftilde - steady.e_ftilde) <= 1e-6
        assert abs(row.e_f - steady.e_f) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 5: success-rate limits and the plateau identity
# ---------------------------------------------------------------------------

def test_criterion_05_success_rate_limits():
    t = 2000
    for p in (0.1, 0.3, 0.7):
        for tstar in (0, 2, 5, 10):
            assert ca.success_rate_limits(tstar, p).limit == p
            assert abs(ca.expected_success_rate(t, tstar, p) - p) <= 2e-3
    target = -0.3 * math.log(0.3) / 0.7
    assert abs(target - 0.515988) < 1e-6  # hand-derived constant
    assert abs(ca.success_rate_limits(math.inf, 0.3).limit - target) <= 1e-12
    assert abs(ca.expected_success_rate(t, math.inf, 0.3) - target) <= 2e-3
    for p in (0.1, 0.3, 0.5, 0.9):
        plateau = p * hyp2f1_series(1, 1, 2, 1.0 - p)
        assert abs(plateau - (-p * math.log(p) / (1.0 - p))) <= 1e-10
        assert abs(ca.success_rate_limits(math.inf, p).plateau(0) - plateau) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 6: waiting time (analytic, limiting, Monte Carlo)
# ---------------------------------------------------------------------------

def test_criterion_06_waiting_time():
    # t* = 0: the chain is memoryless, E[W] = 1/p for every request time
    for p in (0.2, 0.5, 0.8):
        for t_req in range(0, 51):
            assert waiting_time(t_req, 0, p).expectation == \
                pytest.approx(1.0 / p, rel=1e-12)
    # a request at time 0 always finds a fresh attempt: E[W(0)] = 1/p
    for tstar in (0, 3, 10, math.inf):
        assert waiting_time(0, tstar, 0.3).expectation == \
            pytest.approx(1.0 / 0.3, rel=1e-12)
    # late requests approach 1/(p(1+t*p)); convergence slows with the cutoff
    # (at t* = 35 the true value is still 1.6e-6 from the limit at t_req=5000,
    # confirmed against the Markov chain, so the grid stops at t* = 10)
    for tstar in (0, 5, 10):
        wait = waiting_time(5000, tstar, 0.3)
        assert abs(wait.expectation - 1.0 / (0.3 * (1.0 + tstar * 0.3))) <= 1e-6
    # larger cutoffs wait less, asymptotically
    limits = [waiting_time(5000, ts, 0.3).limit for ts in (0, 5, 35)]
    assert limits[0] > limits[1] > limits[2]
    # Monte Carlo agreement at n = 1e5
    for tstar in (0, 5, 35):
        for t_req in (0, 10, 30):
            expected = waiting_time(t_req, tstar, 0.3).expectation
            mean, se = simulate_waiting_time(t_req, tstar, 0.3,
                                             n_trials=100_000,
                                             seed=900 + 10 * tstar + t_req)
            assert abs(mean - expected) <= 4.0 * se, (tstar, t_req)


# ---------------------------------------------------------------------------
# criterion 7: Markov-chain cross-check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_criterion_07_markov_chain_powers(p):
    for tstar in (0, 1, 3, 5):
        tm = transition_matrix(tstar, p)
        for t in range(1, 51):
            dist = tm.distribution_at(t)
            for idx, (x, m) in enumerate(tm.states):
                assert abs(dist[idx] - joint_prob(t, tstar, p, m, x)) <= 1e-10
    inf_tm = transition_matrix(math.inf, p)
    np.testing.assert_allclose(inf_tm.matrix, [[1.0 - p, 0.0], [p, 1.0]],
                               atol=1e-15)
    for t in range(1, 51):
        dist = inf_tm.distribution_at(t)
        assert abs(dist[inf_tm.state_index(0)] - (1.0 - p) ** t) <= 1e-10
        assert abs(dist[inf_tm.state_index(1)] - (1.0 - (1.0 - p) ** t)) <= 1e-10


# ---------------------------------------------------------------------------
# criterion 8: optimizer routes, dominance, and baseline claims
# ---------------------------------------------------------------------------

LAM_GRID = (0.5, 0.8, 0.95)


def _opt_params(p, lam):
    return LinkParams.symbolic(p, FidelityCurve.depolarizing(1.0, lam, 4))


def test_criterion_08a_full_tree_equals_reduced():
    for p in P_GRID:
        for lam in LAM_GRID:
            params = _opt_params(p, lam)
            for T in range(0, 9):
                full = backward_recursion_full(params, T).optimal_value
                reduced = opt.backward_recursion_reduced(params, T).optimal_value
                assert abs(full - reduced) <= 1e-12
    # spot checks at the cap (full grid at T = 14 would blow the time budget)
    for (p, lam) in ((0.3, 0.8), (0.7, 0.95)):
        params = _opt_params(p, lam)
        for T in (12, 14):
            full = backward_recursion_full(params, T, keep_table=False)
            reduced = opt.backward_recursion_reduced(params, T)
            assert abs(full.optimal_value - reduced.optimal_value) <= 1e-12


def test_criterion_08b_exhaustive_search_equals_reduced():
    for (p, lam) in ((0.3, 0.5), (0.3, 0.9), (0.7, 0.5), (0.7, 0.9)):
        params = _opt_params(p, lam)
        for T in range(1, 7):
            reduced = opt.backward_recursion_reduced(params, T).optimal_value
            search = exhaustive_policy_search(params, T)
            assert abs(search - reduced) <= 1e-10
    # the literal per-policy engine evaluation, where feasible
    params = _opt_params(0.45, 0.7)
    for T in range(1, 5):
        reduced = opt.backward_recursion_reduced(params, T).optimal_value
        search = exhaustive_policy_search_engine(params, T)
        assert abs(search - reduced) <= 1e-10


def test_criterion_08c_optimum_dominates_cutoff_policies():
    for p in P_GRID:
        for lam in LAM_GRID:
            params = _opt_params(p, lam)
            T = 10
            optimal = opt.backward_recursion_reduced(params, T).optimal_value
            for tstar in list(range(T + 1)) + [math.inf]:
                value = opt.evaluate_state_policy(
                    params, ca.cutoff_policy(tstar), T + 1).e_ftilde
                assert optimal >= value - 1e-12


def test_criterion_08d_perfect_memory_optimum():
    f0 = 0.9
    curve = FidelityCurve.constant(f0)
    for p in P_GRID:
        params = LinkParams.symbolic(p, curve)
        for T in (1, 5, 12):
            result = opt.backward_recursion_reduced(params, T)
            assert abs(result.optimal_value
                       - (1.0 - (1.0 - p) ** (T + 1)) * f0) <= 1e-12
            # the optimal decisions are the infinite-cutoff rule:
            # request when down, hold any established link
            rule = result.policy.decide_state
            for t in range(1, T + 1):
                assert rule(t, 0, -1) == 1.0
                for m in range(t):
                    assert rule(t, 1, m) == 0.0


def test_criterion_08e_baseline_objective_optima():
    for p in P_GRID:
        for lam in LAM_GRID:
            curve = FidelityCurve.depolarizing(1.0, lam, 4)
            T = 10
            cutoffs = list(range(T + 1)) + [math.inf]
            # the activity objective E[X] is maximized by never discarding
            activities = {ts: prob_active(T + 1, ts, p) for ts in cutoffs}
            assert all(activities[math.inf] >= a - 1e-12
                       for a in activities.values())
            # the conditional-fidelity objective E[F | active] is maximized
            # by discarding immediately (always a fresh link)
            e_f = {}
            for ts in cutoffs:
                fid = ca.expected_fidelity_cutoff(T + 1, ts, p, curve)
                e_f[ts] = fid.e_f
            assert all(e_f[0] >= v - 1e-12 for v in e_f.values())


# ---------------------------------------------------------------------------
# criterion 9: quantum core closed forms and invariants
# ---------------------------------------------------------------------------

def test_criterion_09_quantum_core():
    # closed form against literal channel powers
    bell = preset_state("bell_phi_plus")
    basis2 = PureState(np.array([1.0, 0.0]))
    cases = [
        (0.9, 4, preset_state("werner", f0=0.9), bell),
        (0.5, 4, bell.projector(), bell),
        (0.99, 2, basis2.projector(), basis2),
    ]
    for lam, dim, rho0, target in cases:
        f0 = fidelity(rho0, target)
        channel = preset_channel("depolarizing", dim, lam)
        for m in range(51):
            closed = lam ** m * f0 + (1.0 - lam ** m) / dim
            powered = fidelity(memory_evolve(rho0, channel, m), target)
            assert abs(powered - closed) <= 1e-12, (lam, dim, m)

    # 1000 randomized channel applications keep all state invariants
    rng = np.random.default_rng(987)
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(2, 5))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = raw @ raw.conj().T
        rho = DensityOperator(mat / np.trace(mat))
        name = ("depolarizing", "dephasing")[int(rng.integers(0, 2))]
        lam = float(rng.random())
        out = apply_channel(preset_channel(name, dim, lam), rho)
        # DensityOperator construction re-validates Hermiticity / PSD / trace;
        # assert them explicitly as well
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
        assert np.abs(out.matrix - out.matrix.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-10
        checked += 1

    # the average state of a k-node link under per-node dephasing: trace 1,
    # failure weight on the appended vector, E[F~(t)] as the fidelity with
    # the zero-padded target
    t, p = 8, 0.4
    for k in (2, 3):
        target = preset_state("ghz", k=k)
        rho0 = target.projector()
        channel = tensor_channel([preset_channel("dephasing", 2, 0.9)] * k)
        curve = FidelityCurve.from_channel(rho0, channel, target)
        padded = PureState(np.append(target.amplitudes, 0.0))
        for tstar in (0, 3, 5, math.inf):
            row = next(ca.active_rows((t,), tstar, p, curve))
            rho = materialize_average_state(row, rho0, channel)
            assert rho.dim == 2 ** k + 1
            assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
            assert rho.matrix[-1, -1] == 1.0 - row.prob_active
            assert abs(fidelity(rho, padded) - row.e_ftilde) <= 1e-12

    # two parallel Bell-pair links: independent, so their joint state is
    # the tensor product, and its fidelity with the padded target psi x psi
    # is the product of the links' E[F~(t)]
    channel = tensor_channel([preset_channel("dephasing", 2, 0.9)] * 2)
    rho0 = bell.projector()
    curve = FidelityCurve.from_channel(rho0, channel, bell)
    specs = [ParallelLinkSpec(0.4, 3), ParallelLinkSpec(0.3, "inf")]
    rows, joint = joint_state_descriptor(specs, t, [(rho0, channel)] * 2)
    padded = np.append(bell.amplitudes, 0.0)
    assert abs(np.trace(joint.matrix) - 1.0) <= 1e-12
    product = reduce(mul, (next(ca.active_rows((t,), spec.tstar, spec.p, curve)).e_ftilde
                           for spec in specs))
    assert abs(fidelity(joint, PureState(np.kron(padded, padded))) - product) <= 1e-12
    # and tracing out either link leaves the other's average state, in the
    # order of the specs
    blocks = joint.matrix.reshape(5, 5, 5, 5)
    for trace, row in zip(("ikjk->ij", "kikj->ij"), rows):
        own = materialize_average_state(row, rho0, channel).matrix
        assert np.abs(np.einsum(trace, blocks) - own).max() <= 1e-12


# ---------------------------------------------------------------------------
# criterion 10: network products against per-link Monte Carlo
# ---------------------------------------------------------------------------

def test_criterion_10_network_aggregation():
    # hand-derived steady product: 0.72 * 0.75 = 0.54
    link_a = ParallelLinkSpec(p=0.5625, tstar=1)
    link_b = ParallelLinkSpec(p=0.6, tstar=1)
    assert link_a.prob_active(math.inf) == pytest.approx(0.72, abs=1e-12)
    assert link_b.prob_active(math.inf) == pytest.approx(0.75, abs=1e-12)
    net = NetworkConfig(edges=(
        EdgeConfig(edge_id="a", links=(link_a,)),
        EdgeConfig(edge_id="b", links=(link_b,)),
    ))
    assert collective_status(net, math.inf) == pytest.approx(0.54, abs=1e-12)

    # product formulas against independent per-link Monte Carlo streams
    t = 20
    n = 100_000
    specs = [ParallelLinkSpec(p=0.3, tstar=5),
             ParallelLinkSpec(p=0.5, tstar=2)]
    curve = FidelityCurve.constant(1.0)
    estimates = []
    for idx, spec in enumerate(specs):
        params = LinkParams.symbolic(spec.p, curve)
        result = simulate_trajectories(params, ca.cutoff_policy(spec.tstar),
                                       t, n, seed=5000 + idx)
        estimates.append((result.prob_active[t - 1],
                          result.prob_active_se[t - 1]))
    (a_hat, a_se), (b_hat, b_se) = estimates

    edge = EdgeConfig(edge_id="e", links=tuple(specs))
    # Pr[N >= 1]: delta-method error of 1 - (1-a)(1-b)
    mc = 1.0 - (1.0 - a_hat) * (1.0 - b_hat)
    sigma = math.hypot((1.0 - b_hat) * a_se, (1.0 - a_hat) * b_se)
    assert abs(prob_at_least_one(edge, t) - mc) <= 4.0 * sigma
    # E[N]: plain sum
    mc = a_hat + b_hat
    sigma = math.hypot(a_se, b_se)
    assert abs(expected_flow(edge, t) - mc) <= 4.0 * sigma
    # collective status of two single-link edges: product a*b
    two_edges = NetworkConfig(edges=(
        EdgeConfig(edge_id="a", links=(specs[0],)),
        EdgeConfig(edge_id="b", links=(specs[1],)),
    ))
    mc = a_hat * b_hat
    sigma = math.hypot(b_hat * a_se, a_hat * b_se)
    assert abs(collective_status(two_edges, t) - mc) <= 4.0 * sigma
    # E[L_E]: every link of the network, summed
    assert abs(expected_total_links(two_edges, t) - (a_hat + b_hat)) <= \
        4.0 * math.hypot(a_se, b_se)
    # the distribution of N: its mean and Pr[N = 0] are the closed forms
    # above, and each entry (1-a)(1-b), a(1-b) + (1-a)b, ab is within 4
    # delta-method sigmas of the same product of the estimates
    dist = flow_distribution(edge, t)
    assert abs(dist @ np.arange(3) - expected_flow(edge, t)) <= 1e-12
    assert abs(dist[0] - (1.0 - prob_at_least_one(edge, t))) <= 1e-12
    entries = [((1.0 - a_hat) * (1.0 - b_hat), b_hat - 1.0, a_hat - 1.0),
               (a_hat * (1.0 - b_hat) + (1.0 - a_hat) * b_hat, 1.0 - 2.0 * b_hat,
                1.0 - 2.0 * a_hat),
               (a_hat * b_hat, b_hat, a_hat)]  # (product, d/da, d/db)
    for k, (mc, d_a, d_b) in enumerate(entries):
        assert abs(dist[k] - mc) <= 4.0 * math.hypot(d_a * a_se, d_b * b_se), k


# ---------------------------------------------------------------------------
# criterion 11: CLI determinism and golden figure data
# ---------------------------------------------------------------------------

def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "qlink.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("figure", ["fig4-left", "fig4-right", "fig5", "fig7", "fig8", "fig9"])
def test_criterion_11_cli_determinism_and_golden_figures(figure, tmp_path):
    config = GOLDEN_DIR / f"{figure}.json"
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    _run_cli(["reproduce", "--config", str(config), "--out", str(out1)])
    _run_cli(["reproduce", "--config", str(config), "--out", str(out2)])
    bytes1 = out1.read_bytes()
    assert bytes1 == out2.read_bytes()
    assert bytes1 == (GOLDEN_DIR / f"{figure}.csv").read_bytes()


def test_criterion_11_simulate_determinism(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "schema_version": 1, "mode": "simulate",
        "link": {"p": 0.3, "tstar": 3,
                 "fidelity": {"kind": "depolarizing", "lam": 0.9}},
        "horizon": 10, "trials": 2000, "seed": 77,
    }))
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    _run_cli(["simulate", "--config", str(config), "--out", str(out1)])
    _run_cli(["simulate", "--config", str(config), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_criterion_11_simulate_golden(tmp_path):
    """`qlink simulate` reproduces the stored Monte Carlo table byte for byte."""
    out = tmp_path / "simulate.csv"
    _run_cli(["simulate", "--config", str(GOLDEN_DIR / "simulate.json"),
              "--out", str(out)])
    assert out.read_bytes() == (GOLDEN_DIR / "simulate.csv").read_bytes()


@pytest.mark.parametrize("name", ["sweep", "analytic", "analytic-wait", "optimize"])
def test_criterion_11_cutoff_series_goldens(name, tmp_path):
    """`qlink sweep|analytic|optimize` reproduce their stored tables byte for
    byte: t* in {0,1,2,7,inf} x t=1..120, a sparse grid at p=0.999999, the
    waiting times at t_req on both sides of t*+1, and the optimizer's cutoff
    baselines at T=40."""
    config = GOLDEN_DIR / f"{name}.json"
    mode = json.loads(config.read_text())["mode"]
    out = tmp_path / f"{name}.csv"
    _run_cli([mode, "--config", str(config), "--out", str(out)])
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_criterion_11_single_time_goldens_equal_the_term_at_a_time_oracle():
    """The goldens of the single-time accessors hold, under ==, the values
    of the lgamma-per-term reference: fig4-left Pr[X(t) = 1], fig8 its sum
    and fig9 its product over the links, and the waiting times
    q / (p (1-p)) with q = Pr[M = t*, X = 0 at t_req + 1]."""
    def rows(name):
        return read_result_table(str(GOLDEN_DIR / f"{name}.csv")).rows

    fig4 = rows("fig4-left")
    assert len(fig4) == 5 * 51
    for tstar, t, p, e_x in fig4:
        assert e_x == prob_active_lgamma(t, tstar, p)
    cutoffs = (5, 15, 10, 20)
    fig8, fig9 = rows("fig8"), rows("fig9")
    assert [row[0] for row in fig8] == [row[0] for row in fig9] == [i / 50 for i in range(51)]
    for (p, t, e_total), (_, _, collective) in zip(fig8, fig9):
        actives = [prob_active_lgamma(t, c, p) for c in cutoffs]
        assert e_total == reduce(add, actives, 0.0)
        assert collective == reduce(mul, (1.0 - (1.0 - a) for a in actives), 1.0)
    config = json.loads((GOLDEN_DIR / "analytic-wait.json").read_text())
    p, tstar = config["link"]["p"], config["link"]["tstar"]
    waits = rows("analytic-wait")
    assert [row[2] for row in waits] == config["t_req"]
    assert {t_req + 1 > tstar + 1 for t_req in config["t_req"]} == {False, True}
    for _, _, t_req, e_wait, limit in waits:
        q = joint_prob_lgamma(t_req + 1, tstar, p, tstar, 0)
        assert e_wait == q / (p * (1.0 - p))
        assert limit == 1.0 / (p * (1.0 + tstar * p))


def test_criterion_11_sweep_p_and_multi_block_simulate_goldens_equal_their_oracles():
    """The sweep over p holds, under ==, the term-at-a-time Pr[X(t) = 1],
    E[S(t)] and fidelities, and the simulate golden with more than two
    blocks of trials at t* = inf holds the trial-at-a-time loop's estimates
    and the exact Pr[X(t) = 1]."""
    def load(name):
        config = load_config(str(GOLDEN_DIR / f"{name}.json"))
        rows = read_result_table(str(GOLDEN_DIR / f"{name}.csv")).rows
        return config, config.link.fidelity.curve(), rows

    config, curve, rows = load("sweep-p")
    assert {row[0] for row in rows} == set(config.sweep_values)
    assert len(rows) == len(config.sweep_values) * len(config.times)
    for p, tstar, t, e_x, e_ftilde, e_f, e_s in rows:
        assert e_x == prob_active_lgamma(t, tstar, p)
        assert e_s == expected_success_rate_lgamma(t, tstar, p)
        assert (e_ftilde, e_f) == expected_fidelity_lgamma(t, tstar, p, curve)
    config, curve, rows = load("simulate-blocks")
    assert config.trials == 2 * BLOCK_TRIALS + 1 and config.link.tstar == math.inf
    ref = simulate_trajectories_scalar(LinkParams.symbolic(config.link.p, curve),
                                       ca.cutoff_policy("inf"), config.horizon,
                                       config.trials, config.seed)
    assert [row[0] for row in rows] == list(range(1, config.horizon + 1))
    columns = [list(column) for column in zip(*rows)]
    assert columns[1] == [prob_active_lgamma(t, "inf", config.link.p)
                          for t in range(1, config.horizon + 1)]
    assert columns[2:] == [ref.prob_active, ref.prob_active_se, ref.e_ftilde,
                           ref.e_ftilde_se, ref.e_s, ref.e_s_se, ref.e_f, ref.e_f_se]


SERIES_GOLDENS = ["fig4-left", "fig4-right", "fig5", "fig7", "fig8", "fig9",
                  "analytic", "analytic-wait", "sweep", "sweep-p", "simulate"]


@pytest.mark.parametrize("name", SERIES_GOLDENS)
def test_criterion_11_goldens_are_equal_on_both_series_routes(name, monkeypatch, tmp_path):
    """Every golden whose path sums cutoff series is written byte for byte
    with every series walked on numpy lines, and again with every series
    walked on Python lines."""
    config = GOLDEN_DIR / f"{name}.json"
    mode = json.loads(config.read_text())["mode"]
    backends = []
    term_sums = ca._term_sums
    monkeypatch.setattr(ca, "_term_sums", lambda *args: backends.append(args[3])
                        or term_sums(*args))
    for bound, lines in ((0, ca._NumpyLines), (math.inf, ca._Lines)):
        monkeypatch.setattr(ca, "_SHORT_TERMS", bound)
        out = tmp_path / f"{name}-{bound}.csv"
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()
        assert set(backends) == {lines}  # every walk ran on the lines asked for
        backends.clear()


def test_criterion_11_optimize_policy_golden(tmp_path):
    """`qlink optimize` reproduces the stored format-2 policy dump at T=40
    byte for byte, and its expansion the stored format-1 dump."""
    out = tmp_path / "optimize.csv"
    _run_cli(["optimize", "--config", str(GOLDEN_DIR / "optimize.json"),
              "--out", str(out)])
    dump = (tmp_path / "optimize.csv.policy.json").read_bytes()
    assert dump == (GOLDEN_DIR / "optimize.v2.policy.json").read_bytes()
    v1 = (GOLDEN_DIR / "optimize.policy.json").read_bytes()
    assert expanded_policy_text(dump.decode()).encode() == v1


_BUILTIN_SUM = builtins.sum


def _sum_from_python_312(iterable, start=0):
    """`sum` as CPython 3.12 and later add: ints exactly, and, once the
    total is a float, float items with Neumaier's compensation, which is
    folded in at the end.  Other items fall back to plain `+`."""
    items = iter(iterable)
    total = start
    while type(total) is not float:
        item = next(items, items)
        if item is items:
            return total
        total = total + item
    comp = 0.0
    for item in items:
        if type(item) is int:
            total += float(item)
        elif type(item) is float:
            new = total + item
            if abs(total) >= abs(item):
                comp += (total - new) + item
            else:
                comp += (item - new) + total
            total = new
        else:
            if comp and math.isfinite(comp):
                total += comp
            return _BUILTIN_SUM(items, total + item)
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_criterion_11_goldens_do_not_depend_on_how_sum_adds_floats(monkeypatch, tmp_path):
    """Every golden, the policy dump included, is written in process byte for
    byte while the built-in `sum` adds floats as Python 3.12 and later do."""
    assert _sum_from_python_312([0.1] * 10) == 1.0
    assert _sum_from_python_312([1e16, 1.0, -1e16]) == 1.0
    assert _sum_from_python_312([2, 3], 1) == 6
    monkeypatch.setattr(builtins, "sum", _sum_from_python_312)
    configs = sorted(set(GOLDEN_DIR.glob("*.json")) - set(GOLDEN_DIR.glob("*.policy.json")))
    assert len(configs) == 13
    for config in configs:
        out = tmp_path / f"{config.stem}.csv"
        mode = json.loads(config.read_text())["mode"]
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
        assert out.read_bytes() == config.with_suffix(".csv").read_bytes(), config.name
    policy = (tmp_path / "optimize.csv.policy.json").read_text()
    v1 = (GOLDEN_DIR / "optimize.policy.json").read_bytes()
    assert expanded_policy_text(policy).encode() == v1
