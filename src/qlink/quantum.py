"""Finite-dimensional density operators, Kraus channels, and memory fidelity curves.

Everything here is dense complex linear algebra on small Hilbert spaces
(a handful of qubits at most).  The rest of the package mostly runs in a
"symbolic" mode that only needs the fidelity curve f_m = <psi| N^m(rho0) |psi>;
this module supplies that curve either by repeated channel application or by
a closed form (used as an independent cross-check in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import MAX_DIM

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
NORM_TOL = 1e-12
TRACE_PRESERVING_TOL = 1e-12


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityOperator:
    """A Hermitian, unit-trace, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density operator must be a square matrix, got shape {mat.shape}")
        if mat.shape[0] > MAX_DIM:
            raise ValueError(f"dimension {mat.shape[0]} exceeds cap {MAX_DIM}")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density operator is not Hermitian")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator trace {tr} is not 1")
        herm = (mat + mat.conj().T) / 2.0
        if np.linalg.eigvalsh(herm).min() < PSD_TOL:
            raise ValueError("density operator is not positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PureState:
    """A unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size == 0 or amp.size > MAX_DIM:
            raise ValueError(f"invalid state vector length {amp.size}")
        if abs(np.linalg.norm(amp) - 1.0) > NORM_TOL:
            raise ValueError("state vector is not normalized")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> DensityOperator:
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus family {K_k}."""

    dim_in: int
    dim_out: int
    kraus_ops: tuple[np.ndarray, ...]
    trace_preserving: bool = True

    def __post_init__(self) -> None:
        if not self.kraus_ops:
            raise ValueError("Kraus family must be nonempty")
        ops = []
        for op in self.kraus_ops:
            op = np.array(op, dtype=complex)
            if op.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus operator shape {op.shape} does not match "
                    f"({self.dim_out}, {self.dim_in})"
                )
            op.setflags(write=False)
            ops.append(op)
        object.__setattr__(self, "kraus_ops", tuple(ops))
        total = sum(op.conj().T @ op for op in self.kraus_ops)
        defect = total - np.eye(self.dim_in)
        if self.trace_preserving:
            if np.abs(defect).max() > TRACE_PRESERVING_TOL:
                raise ValueError("Kraus family is not trace-preserving")
        else:
            # trace-non-increasing: sum K^dag K <= I
            if np.linalg.eigvalsh((defect + defect.conj().T) / 2).max() > TRACE_PRESERVING_TOL:
                raise ValueError("Kraus family is not trace-non-increasing")


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Kraus action sum_k K_k rho K_k^dag."""
    if channel.dim_in != rho.dim:
        raise ValueError(f"channel input dim {channel.dim_in} != state dim {rho.dim}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for op in channel.kraus_ops:
        out += op @ rho.matrix @ op.conj().T
    return DensityOperator(out)


def memory_evolve(rho0: DensityOperator, channel: KrausChannel, m: int) -> DensityOperator:
    """State of a memory after m applications of its decoherence channel."""
    if m < 0:
        raise ValueError(f"number of channel applications must be >= 0, got {m}")
    if channel.dim_in != channel.dim_out:
        raise ValueError("memory channel must have equal input and output dimensions")
    rho = rho0
    for _ in range(m):
        rho = apply_channel(channel, rho)
    return rho


def fidelity(rho: DensityOperator, psi: PureState) -> float:
    """<psi| rho |psi>, checked to be real."""
    if rho.dim != psi.dim:
        raise ValueError(f"state dim {rho.dim} != target dim {psi.dim}")
    val = psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes
    if abs(val.imag) > 1e-12:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag}")
    return float(min(1.0, max(0.0, val.real)))


def tensor_channel(channels: Sequence[KrausChannel]) -> KrausChannel:
    """Tensor product channel; Kraus family is all products of component ops."""
    if not channels:
        raise ValueError("tensor_channel requires a nonempty list of channels")
    ops = [np.array([[1.0 + 0.0j]])]
    dim_in, dim_out = 1, 1
    tp = all(c.trace_preserving for c in channels)
    for channel in channels:
        ops = [np.kron(left, k) for left in ops for k in channel.kraus_ops]
        dim_in *= channel.dim_in
        dim_out *= channel.dim_out
    return KrausChannel(dim_in=dim_in, dim_out=dim_out, kraus_ops=tuple(ops),
                        trace_preserving=tp)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _weyl_shift(dim: int) -> np.ndarray:
    """Cyclic shift |j> -> |j+1 mod d>."""
    op = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        op[(j + 1) % dim, j] = 1.0
    return op


def _weyl_clock(dim: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / dim)
    return np.diag([omega ** k for k in range(dim)])


def preset_channel(name: str, dim: int = 2, lam: float | None = None) -> KrausChannel:
    """Named memory channels: identity, depolarizing(lam), dephasing(lam)."""
    if name == "identity":
        return KrausChannel(dim, dim, (np.eye(dim, dtype=complex),))
    if lam is None:
        raise ValueError(f"channel {name!r} requires a noise parameter")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"noise parameter must be in [0, 1], got {lam}")
    if name == "depolarizing":
        # rho -> lam*rho + (1-lam)*I/d, realized with the Heisenberg-Weyl family:
        # sum_{a,b} W_ab rho W_ab^dag = d * Tr(rho) * I.
        shift = _weyl_shift(dim)
        clock = _weyl_clock(dim)
        ops = [np.sqrt(lam) * np.eye(dim, dtype=complex)]
        coeff = np.sqrt((1.0 - lam) / dim ** 2)
        for a in range(dim):
            for b in range(dim):
                ops.append(coeff * (np.linalg.matrix_power(shift, a)
                                    @ np.linalg.matrix_power(clock, b)))
        return KrausChannel(dim, dim, tuple(ops))
    if name == "dephasing":
        # rho -> lam*rho + (1-lam)*diag(rho)
        ops = [np.sqrt(lam) * np.eye(dim, dtype=complex)]
        for k in range(dim):
            proj = np.zeros((dim, dim), dtype=complex)
            proj[k, k] = 1.0
            ops.append(np.sqrt(1.0 - lam) * proj)
        return KrausChannel(dim, dim, tuple(ops))
    raise ValueError(f"unknown preset channel {name!r}")


def preset_state(name: str, *, k: int = 2, f0: float = 1.0) -> PureState | DensityOperator:
    """Named target/initial states: bell_phi_plus, ghz(k), werner(f0)."""
    if name == "bell_phi_plus":
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1.0 / np.sqrt(2.0)
        return PureState(amp)
    if name == "ghz":
        if k < 2:
            raise ValueError(f"GHZ needs at least 2 parties, got {k}")
        dim = 2 ** k
        if dim > MAX_DIM:
            raise ValueError(f"GHZ dimension 2^{k} exceeds cap {MAX_DIM}")
        amp = np.zeros(dim, dtype=complex)
        amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
        return PureState(amp)
    if name == "werner":
        if not 0.0 <= f0 <= 1.0:
            raise ValueError(f"Werner fidelity must be in [0, 1], got {f0}")
        bell = preset_state("bell_phi_plus")
        assert isinstance(bell, PureState)
        proj = bell.projector().matrix
        mat = f0 * proj + (1.0 - f0) / 3.0 * (np.eye(4) - proj)
        return DensityOperator(mat)
    raise ValueError(f"unknown preset state {name!r}")


# ---------------------------------------------------------------------------
# fidelity curves
# ---------------------------------------------------------------------------

@dataclass
class FidelityCurve:
    """The map m -> f_m = <psi| N^m(rho0) |psi>, however it is obtained.

    ``kind`` records whether values come from repeated channel application
    ("channel-powered") or from an analytic expression ("closed-form").
    """

    evaluator: Callable[[int], float]
    kind: str
    label: str = ""

    def __call__(self, m: int) -> float:
        if m < 0:
            raise ValueError(f"memory age must be >= 0, got {m}")
        val = float(self.evaluator(m))
        if not -1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"fidelity curve value {val} at m={m} is outside [0, 1]")
        return min(1.0, max(0.0, val))

    @classmethod
    def from_channel(cls, rho0: DensityOperator, channel: KrausChannel,
                     target: PureState) -> "FidelityCurve":
        """Curve obtained by applying the memory channel m times to rho0."""
        cache: list[DensityOperator] = [rho0]

        def evaluate(m: int) -> float:
            while len(cache) <= m:
                cache.append(apply_channel(channel, cache[-1]))
            return fidelity(cache[m], target)

        return cls(evaluator=evaluate, kind="channel-powered", label="channel")

    @classmethod
    def constant(cls, f0: float) -> "FidelityCurve":
        """Perfect memory: f_m = f0 for all m."""
        if not 0.0 <= f0 <= 1.0:
            raise ValueError(f"f0 must be in [0, 1], got {f0}")
        return cls(evaluator=lambda m: f0, kind="closed-form", label=f"constant({f0})")

    @classmethod
    def depolarizing(cls, f0: float, lam: float, dim: int) -> "FidelityCurve":
        """Closed form for a depolarizing memory: f_m = lam^m f0 + (1-lam^m)/d."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {lam}")
        if not 0.0 <= f0 <= 1.0:
            raise ValueError(f"f0 must be in [0, 1], got {f0}")
        return cls(
            evaluator=lambda m: lam ** m * f0 + (1.0 - lam ** m) / dim,
            kind="closed-form",
            label=f"depolarizing(f0={f0}, lam={lam}, d={dim})",
        )

    @classmethod
    def dephasing_bell(cls, lam: float) -> "FidelityCurve":
        """Closed form for |Phi+> under single-qubit dephasing on both arms.

        Each application scales the |00><11| coherence by lam^2, so
        f_m = (1 + lam^(2m)) / 2.
        """
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {lam}")
        return cls(
            evaluator=lambda m: (1.0 + lam ** (2 * m)) / 2.0,
            kind="closed-form",
            label=f"dephasing_bell(lam={lam})",
        )
