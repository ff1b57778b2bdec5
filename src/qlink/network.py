"""Multi-link and multi-edge aggregates: parallel links, flows, total active
links, and collective status.

Every link generates independently (no shared randomness), so all aggregate
quantities factor into per-link activity probabilities delivered by the
cutoff analytics.  A time is an integer t >= 1, or ``t = math.inf``, which
selects the steady-state values; a cutoff is an ``int`` or ``math.inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Optional, Sequence, Union

from . import cutoff as ca

if TYPE_CHECKING:
    import numpy as np

    from .quantum import DensityOperator, KrausChannel

MATERIALIZE_DIM_CAP = 2 ** 12

TimeLike = Union[int, float]


@dataclass(frozen=True)
class ParallelLinkSpec:
    """One parallel link on an edge: its success probability and cutoff."""

    p: float
    tstar: Union[int, float]

    def __post_init__(self) -> None:
        ca._validate_p(self.p)
        object.__setattr__(self, "tstar", ca.parse_cutoff(self.tstar))

    def prob_active(self, t: TimeLike) -> float:
        if t == math.inf:
            return ca.steady_state(self.tstar, self.p).prob_active
        return ca.prob_active(t, self.tstar, self.p)


@dataclass(frozen=True)
class EdgeConfig:
    """An edge with N_max >= 1 parallel links."""

    edge_id: str
    links: tuple[ParallelLinkSpec, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"edge {self.edge_id!r} needs at least one link")
        object.__setattr__(self, "links", tuple(self.links))


@dataclass(frozen=True)
class NetworkConfig:
    edges: tuple[EdgeConfig, ...]

    def __post_init__(self) -> None:
        ids = [e.edge_id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate edge ids: {ids}")
        object.__setattr__(self, "edges", tuple(self.edges))


def _check_time(t: TimeLike) -> None:
    if t != math.inf:
        ca._checked_int(t, 1, "t")


def prob_at_least_one(edge: EdgeConfig, t: TimeLike) -> float:
    """Pr[N_e(t) >= 1] = 1 - prod_j (1 - Pr[X_j(t) = 1])."""
    _check_time(t)
    product = 1.0
    for link in edge.links:
        product *= 1.0 - link.prob_active(t)
    return 1.0 - product


def expected_flow(edge: EdgeConfig, t: TimeLike) -> float:
    """E[N_e(t)] = sum_j Pr[X_j(t) = 1]; at t = math.inf the steady flow,
    which is also the limit of the Cesaro-mean link activity rate."""
    _check_time(t)
    return reduce(add, (link.prob_active(t) for link in edge.links), 0.0)


def flow_distribution(edge: EdgeConfig, t: TimeLike) -> np.ndarray:
    """Exact distribution of N_e(t) (Poisson binomial, by convolution)."""
    import numpy as np
    _check_time(t)
    dist = np.array([1.0])
    for link in edge.links:
        q = link.prob_active(t)
        new = np.zeros(dist.size + 1)
        new[: dist.size] += dist * (1.0 - q)
        new[1:] += dist * q
        dist = new
    return dist


def expected_total_links(net: NetworkConfig, t: TimeLike) -> float:
    """E[L_E(t)] = sum over all links of Pr[X(t) = 1]."""
    _check_time(t)
    return reduce(add, (expected_flow(edge, t) for edge in net.edges), 0.0)


def collective_status(net: NetworkConfig, t: TimeLike) -> float:
    """E[X_tot(t)] = prod_e Pr[N_e(t) >= 1] (all edges simultaneously usable)."""
    _check_time(t)
    product = 1.0
    for edge in net.edges:
        product *= prob_at_least_one(edge, t)
    return product


def joint_state_descriptor(
        specs: Sequence[ParallelLinkSpec], t: TimeLike,
        states: Optional[Sequence[tuple[DensityOperator, KrausChannel]]] = None,
) -> tuple[list[ca.LinkState], Optional[DensityOperator]]:
    """Each link's state at time t under its cutoff policy, in the order of
    ``specs``, its `cutoff.steady_state` at t = math.inf; the links are
    independent, so the joint state is their tensor product.

    Given ``states``, one ``(rho0, channel)`` pair per link, that product is
    materialised and returned alongside, else None; total dimension is
    capped.
    """
    import numpy as np

    from .engine import materialize_average_state
    from .quantum import DensityOperator
    _check_time(t)
    rows = [ca.steady_state(spec.tstar, spec.p) if t == math.inf
            else next(ca.active_rows((t,), spec.tstar, spec.p)) for spec in specs]
    if states is None:
        return rows, None
    if len(states) != len(specs):
        raise ValueError(f"materialization needs one (rho0, channel) per link, "
                         f"got {len(states)} for {len(specs)}")
    total_dim = math.prod(rho0.dim + 1 for rho0, _ in states)
    if total_dim > MATERIALIZE_DIM_CAP:
        raise ValueError(f"joint dimension {total_dim} exceeds cap {MATERIALIZE_DIM_CAP}")
    joint = np.array([[1.0 + 0.0j]])
    for row, (rho0, channel) in zip(rows, states):
        joint = np.kron(joint, materialize_average_state(row, rho0, channel).matrix)
    return rows, DensityOperator(joint)
