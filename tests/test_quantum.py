"""States, channels, presets, and fidelity curves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlink import quantum
from qlink.config import MAX_DIM
from qlink.quantum import (
    DensityOperator,
    FidelityCurve,
    KrausChannel,
    PureState,
    apply_channel,
    fidelity,
    memory_evolve,
    preset_channel,
    preset_state,
    tensor_channel,
)


def random_density(rng: np.random.Generator, dim: int) -> DensityOperator:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityOperator(mat / np.trace(mat))


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amp / np.linalg.norm(amp))


# ---------------------------------------------------------------------------
# invariant checks on the dataclasses
# ---------------------------------------------------------------------------

def test_density_operator_rejects_bad_matrices():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        DensityOperator(np.zeros((2, 3)))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_kraus_trace_preservation_checked():
    """Every channel is trace preserving: a trace-decreasing or increasing
    family is refused, and there is no switch to admit one."""
    for ops in ((0.5 * np.eye(2),), (0.5 * np.eye(2), 0.5 * np.eye(2)), (2.0 * np.eye(2),)):
        with pytest.raises(ValueError, match="not trace-preserving"):
            KrausChannel(2, 2, ops)
    with pytest.raises(TypeError, match="trace_preserving"):
        KrausChannel(2, 2, (np.eye(2),), trace_preserving=False)


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_channel_application_preserves_state_invariants(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    for lam in (0.0, 0.37, 1.0):
        for name in ("depolarizing", "dephasing"):
            out = apply_channel(preset_channel(name, dim, lam), rho)
            # DensityOperator validated Hermiticity/trace/PSD on construction
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10


def test_identity_channel_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 3)
    out = apply_channel(preset_channel("identity", 3), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


@given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0), dim=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_depolarizing_action_matches_definition(seed, lam, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    channel = preset_channel("depolarizing", dim, lam)
    assert len(channel.kraus_ops) == dim ** 2 + 1
    out = apply_channel(channel, rho)
    expected = lam * rho.matrix + (1.0 - lam) * np.eye(dim) / dim
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


@given(seed=st.integers(0, 10_000), lam=st.floats(0.0, 1.0), dim=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_dephasing_action_matches_definition(seed, lam, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    channel = preset_channel("dephasing", dim, lam)
    assert len(channel.kraus_ops) == dim + 1
    out = apply_channel(channel, rho)
    expected = lam * rho.matrix + (1.0 - lam) * np.diag(np.diag(rho.matrix))
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)


def test_memory_evolve_composes():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    channel = preset_channel("depolarizing", 2, 0.8)
    step = rho
    for m in range(6):
        np.testing.assert_allclose(memory_evolve(rho, channel, m).matrix,
                                   step.matrix, atol=1e-12)
        step = apply_channel(channel, step)


def test_memory_walk_refuses_a_channel_that_does_not_map_rho0_to_itself():
    """A channel that is not square, or whose input dimension is not rho0's,
    is refused with ValueError before any state, at m = 0 too."""
    basis = PureState(np.array([1.0, 0.0]))
    embed = KrausChannel(2, 3, (np.eye(3, 2),))  # an isometry into 3 levels
    for channel in (embed, preset_channel("dephasing", 3, 0.5)):
        with pytest.raises(ValueError, match="must map the state's dimension 2"):
            memory_evolve(basis.projector(), channel, 0)
        with pytest.raises(ValueError, match="must map the state's dimension 2"):
            FidelityCurve.from_channel(basis.projector(), channel, basis)(0)


def test_channel_curve_forms_each_state_once(monkeypatch):
    """Evaluating a channel curve at m = 5, then 2, then 8 applies the
    channel 8 times: the curve keeps each state of its walk."""
    calls = []

    def counted(*args):
        calls.append(args)
        return apply_channel(*args)

    monkeypatch.setattr(quantum, "apply_channel", counted)
    psi = random_pure(np.random.default_rng(19), 3)
    curve = FidelityCurve.from_channel(psi.projector(), preset_channel("depolarizing", 3, 0.8),
                                       psi)
    closed = FidelityCurve.depolarizing(1.0, 0.8, 3)
    for m, applied in ((5, 5), (2, 5), (8, 8)):
        assert curve(m) == pytest.approx(closed(m), abs=1e-12)
        assert len(calls) == applied


def test_fidelity_basic_properties():
    rng = np.random.default_rng(11)
    psi = random_pure(rng, 4)
    assert fidelity(psi.projector(), psi) == pytest.approx(1.0, abs=1e-12)
    rho = random_density(rng, 4)
    assert 0.0 <= fidelity(rho, psi) <= 1.0
    with pytest.raises(ValueError):
        fidelity(random_density(rng, 3), psi)


def test_tensor_channel_factorizes():
    rng = np.random.default_rng(13)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    cha = preset_channel("depolarizing", 2, 0.6)
    chb = preset_channel("dephasing", 2, 0.4)
    joint = apply_channel(tensor_channel([cha, chb]),
                          DensityOperator(np.kron(rho_a.matrix, rho_b.matrix)))
    expected = np.kron(apply_channel(cha, rho_a).matrix,
                       apply_channel(chb, rho_b).matrix)
    np.testing.assert_allclose(joint.matrix, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_states():
    bell = preset_state("bell_phi_plus")
    assert isinstance(bell, PureState)
    np.testing.assert_allclose(np.abs(bell.amplitudes) ** 2, [0.5, 0, 0, 0.5],
                               atol=1e-14)
    ghz = preset_state("ghz", k=3)
    assert ghz.dim == 8
    werner = preset_state("werner", f0=0.9)
    assert isinstance(werner, DensityOperator)
    assert fidelity(werner, bell) == pytest.approx(0.9, abs=1e-12)
    with pytest.raises(ValueError):
        preset_state("nope")
    with pytest.raises(ValueError):
        preset_channel("nope", 2, 0.5)
    for name in ("identity", "depolarizing", "dephasing"):
        with pytest.raises(ValueError, match="exceeds cap"):
            preset_channel(name, MAX_DIM + 1, 0.5)


# ---------------------------------------------------------------------------
# fidelity curves: channel powers against closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.35, 0.8, 1.0])
@pytest.mark.parametrize("dim", [2, 4])
def test_depolarizing_curve_matches_channel_powers(lam, dim):
    rng = np.random.default_rng(17)
    psi = random_pure(rng, dim)
    rho0 = psi.projector()
    powered = FidelityCurve.from_channel(rho0, preset_channel("depolarizing", dim, lam),
                                         psi)
    closed = FidelityCurve.depolarizing(1.0, lam, dim)
    for m in range(25):
        assert powered(m) == pytest.approx(closed(m), abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9, 1.0])
def test_dephasing_bell_curve_matches_channel_powers(lam):
    bell = preset_state("bell_phi_plus")
    both_arms = tensor_channel([preset_channel("dephasing", 2, lam)] * 2)
    powered = FidelityCurve.from_channel(bell.projector(), both_arms, bell)
    closed = FidelityCurve.dephasing_bell(lam)
    for m in range(25):
        assert powered(m) == pytest.approx(closed(m), abs=1e-12)


def test_curve_validates_range():
    bad = FidelityCurve(lambda m: 1.5)
    with pytest.raises(ValueError):
        bad(0)
    with pytest.raises(ValueError):
        FidelityCurve.constant(0.5)(-1)
    assert FidelityCurve.constant(0.7)(123) == 0.7
