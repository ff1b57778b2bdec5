"""Finite-dimensional density operators, Kraus channels, and memory fidelity curves.

Everything here is dense complex linear algebra on small Hilbert spaces
(a handful of qubits at most).  The rest of the package mostly runs in a
"symbolic" mode that only needs the fidelity curve f_m = <psi| N^m(rho0) |psi>;
this module supplies that curve either from the memory's ageing walk
rho0, N(rho0), N^2(rho0), ... (`_memory_states`, the one place a channel is
applied to a memory) or by a closed form (used as an independent cross-check
in the tests).  The preset channels are built from matrix units |i><j|.
Only the matrix code imports numpy, each function where it runs: a
closed-form curve needs none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .config import MAX_DIM
from .cutoff import _checked_int, _validate_p

if TYPE_CHECKING:
    import numpy as np

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
        import numpy as np
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
        import numpy as np
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
        import numpy as np
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    """A completely positive, trace-preserving map given by its Kraus
    family {K_k}: sum_k K_k^dag K_k = I."""

    dim_in: int
    dim_out: int
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        import numpy as np
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
        if np.abs(total - np.eye(self.dim_in)).max() > TRACE_PRESERVING_TOL:
            raise ValueError("Kraus family is not trace-preserving")


def apply_channel(channel: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Kraus action sum_k K_k rho K_k^dag."""
    import numpy as np
    if channel.dim_in != rho.dim:
        raise ValueError(f"channel input dim {channel.dim_in} != state dim {rho.dim}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for op in channel.kraus_ops:
        out += op @ rho.matrix @ op.conj().T
    return DensityOperator(out)


def _memory_states(rho0: DensityOperator, channel: KrausChannel) -> Iterator[DensityOperator]:
    """The memory's ageing walk rho0, N(rho0), N^2(rho0), ...: one channel
    application a step, none for rho0.  A channel that does not map rho0's
    space to itself is refused at the call."""
    if not channel.dim_in == channel.dim_out == rho0.dim:
        raise ValueError(f"memory channel must map the state's dimension {rho0.dim} to "
                         f"itself, got {channel.dim_in} -> {channel.dim_out}")
    return accumulate(repeat(channel), lambda rho, noise: apply_channel(noise, rho),
                      initial=rho0)


def memory_evolve(rho0: DensityOperator, channel: KrausChannel, m: int) -> DensityOperator:
    """State of a memory after m applications of its decoherence channel."""
    m = _checked_int(m, 0, "number of channel applications")
    return next(islice(_memory_states(rho0, channel), m, None))


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
    import numpy as np
    if not channels:
        raise ValueError("tensor_channel requires a nonempty list of channels")
    ops = [np.array([[1.0 + 0.0j]])]
    dim_in, dim_out = 1, 1
    for channel in channels:
        ops = [np.kron(left, k) for left in ops for k in channel.kraus_ops]
        dim_in *= channel.dim_in
        dim_out *= channel.dim_out
    return KrausChannel(dim_in=dim_in, dim_out=dim_out, kraus_ops=tuple(ops))


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def preset_channel(name: str, dim: int = 2, lam: float | None = None) -> KrausChannel:
    """Named memory channels on ``dim`` levels: identity, and depolarizing(lam)
    and dephasing(lam), each sqrt(lam) I plus weighted matrix units |i><j|."""
    import numpy as np
    dim = _checked_int(dim, 1, "dim")
    if dim > MAX_DIM:
        raise ValueError(f"channel dimension {dim} exceeds cap {MAX_DIM}")
    eye = np.eye(dim, dtype=complex)
    if name == "identity":
        return KrausChannel(dim, dim, (eye,))
    if lam is None:
        raise ValueError(f"channel {name!r} requires a noise parameter")
    _validate_p(lam, "noise parameter")
    if name == "depolarizing":
        # rho -> lam*rho + (1-lam)*I/d: sum_ij |i><j| rho |j><i| = Tr(rho) I
        coeff = np.sqrt((1.0 - lam) / dim)
        units = (np.outer(ket, bra) for ket in eye for bra in eye)
    elif name == "dephasing":
        # rho -> lam*rho + (1-lam)*diag(rho), with the projectors |k><k|
        coeff, units = np.sqrt(1.0 - lam), (np.diag(ket) for ket in eye)
    else:
        raise ValueError(f"unknown preset channel {name!r}")
    return KrausChannel(dim, dim, (np.sqrt(lam) * eye, *(coeff * unit for unit in units)))


def preset_state(name: str, *, k: int = 2, f0: float = 1.0) -> PureState | DensityOperator:
    """Named target/initial states: bell_phi_plus, ghz(k), werner(f0)."""
    import numpy as np
    if name == "bell_phi_plus":
        amp = np.zeros(4, dtype=complex)
        amp[0] = amp[3] = 1.0 / np.sqrt(2.0)
        return PureState(amp)
    if name == "ghz":
        _checked_int(k, 2, "GHZ party count k")
        dim = 2 ** k
        if dim > MAX_DIM:
            raise ValueError(f"GHZ dimension 2^{k} exceeds cap {MAX_DIM}")
        amp = np.zeros(dim, dtype=complex)
        amp[0] = amp[-1] = 1.0 / np.sqrt(2.0)
        return PureState(amp)
    if name == "werner":
        _validate_p(f0, "Werner fidelity")
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
    """The map m -> f_m = <psi| N^m(rho0) |psi>, however it is obtained:
    by repeated channel application or from an analytic expression."""

    evaluator: Callable[[int], float]

    def __call__(self, m: int) -> float:
        _checked_int(m, 0, "memory age")
        val = float(self.evaluator(m))
        if not -1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"fidelity curve value {val} at m={m} is outside [0, 1]")
        return min(1.0, max(0.0, val))

    @classmethod
    def from_channel(cls, rho0: DensityOperator, channel: KrausChannel,
                     target: PureState) -> "FidelityCurve":
        """Curve obtained by applying the memory channel m times to rho0;
        the states of its walk are kept, so each is formed once."""
        walk, cache = _memory_states(rho0, channel), []

        def evaluate(m: int) -> float:
            cache.extend(islice(walk, max(0, m + 1 - len(cache))))
            return fidelity(cache[m], target)

        return cls(evaluate)

    @classmethod
    def constant(cls, f0: float) -> "FidelityCurve":
        """Perfect memory: f_m = f0 for all m."""
        _validate_p(f0, "f0")
        return cls(lambda m: f0)

    @classmethod
    def depolarizing(cls, f0: float, lam: float, dim: int) -> "FidelityCurve":
        """Closed form for a depolarizing memory: f_m = lam^m f0 + (1-lam^m)/d."""
        _validate_p(lam, "lam")
        _validate_p(f0, "f0")
        _checked_int(dim, 1, "dim")
        return cls(lambda m: lam ** m * f0 + (1.0 - lam ** m) / dim)

    @classmethod
    def dephasing_bell(cls, lam: float) -> "FidelityCurve":
        """Closed form for |Phi+> under single-qubit dephasing on both arms.

        Each application scales the |00><11| coherence by lam^2, so
        f_m = (1 + lam^(2m)) / 2.
        """
        _validate_p(lam, "lam")
        return cls(lambda m: (1.0 + lam ** (2 * m)) / 2.0)
