"""Multi-link and multi-edge aggregates: parallel links, flows, total active
links, and collective status.

Every link generates independently (no shared randomness), so all aggregate
quantities factor into per-link activity probabilities delivered by the
cutoff analytics.  ``t = math.inf`` selects the steady-state values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from . import cutoff as ca

if TYPE_CHECKING:
    from .engine import LinkParams, LinkStateMixture
    from .quantum import DensityOperator, FidelityCurve

MATERIALIZE_DIM_CAP = 2 ** 12

TimeLike = Union[int, float]


@dataclass(frozen=True)
class ParallelLinkSpec:
    """One parallel link on an edge: its success probability and cutoff."""

    p: float
    tstar: ca.Cutoff
    fcurve: Optional[FidelityCurve] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability must be in [0, 1], got {self.p}")
        object.__setattr__(self, "tstar", ca.Cutoff.parse(self.tstar))

    def prob_active(self, t: TimeLike) -> float:
        if t == math.inf:
            return ca.steady_state(self.tstar, self.p).prob_active_inf
        return ca.prob_active(int(t), self.tstar, self.p)


@dataclass(frozen=True)
class EdgeConfig:
    """An edge with N_max >= 1 parallel links."""

    edge_id: str
    links: tuple[ParallelLinkSpec, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError(f"edge {self.edge_id!r} needs at least one link")
        object.__setattr__(self, "links", tuple(self.links))

    @property
    def n_max(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class NetworkConfig:
    edges: tuple[EdgeConfig, ...]

    def __post_init__(self) -> None:
        ids = [e.edge_id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate edge ids: {ids}")
        object.__setattr__(self, "edges", tuple(self.edges))


def _check_time(t: TimeLike) -> None:
    if t != math.inf and (int(t) != t or t < 1):
        raise ValueError(f"time must be an integer >= 1 or inf, got {t}")


def prob_at_least_one(edge: EdgeConfig, t: TimeLike) -> float:
    """Pr[N_e(t) >= 1] = 1 - prod_j (1 - Pr[X_j(t) = 1])."""
    _check_time(t)
    product = 1.0
    for link in edge.links:
        product *= 1.0 - link.prob_active(t)
    return 1.0 - product


def expected_flow(edge: EdgeConfig, t: TimeLike) -> float:
    """E[N_e(t)] = sum_j Pr[X_j(t) = 1]."""
    _check_time(t)
    return reduce(add, (link.prob_active(t) for link in edge.links), 0.0)


def flow_distribution(edge: EdgeConfig, t: TimeLike) -> np.ndarray:
    """Exact distribution of N_e(t) (Poisson binomial, by convolution)."""
    _check_time(t)
    dist = np.array([1.0])
    for link in edge.links:
        q = link.prob_active(t)
        new = np.zeros(dist.size + 1)
        new[: dist.size] += dist * (1.0 - q)
        new[1:] += dist * q
        dist = new
    return dist


def expected_rate_limit(edge: EdgeConfig) -> float:
    """lim_t of the Cesaro-mean link activity rate; equals the steady flow."""
    return expected_flow(edge, math.inf)


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


@dataclass
class JointStateDescriptor:
    """Per-link average states at a common time, under structural independence.

    The joint state is the tensor product of the per-link mixtures; it is
    materialized only on request and only below the dimension cap.
    """

    t: int
    mixtures: list[LinkStateMixture]

    @property
    def joint_failure_weight(self) -> float:
        prod = 1.0
        for mixture in self.mixtures:
            prod *= mixture.failure_weight
        return prod

    @property
    def joint_active_probability(self) -> float:
        prod = 1.0
        for mixture in self.mixtures:
            prod *= mixture.prob_active
        return prod


def joint_state_descriptor(specs: Sequence[ParallelLinkSpec], t: int,
                           link_params: Optional[Sequence[LinkParams]] = None,
                           materialize: bool = False
                           ) -> tuple[JointStateDescriptor, Optional[DensityOperator]]:
    """Per-link mixtures at time t under each link's cutoff policy.

    When ``materialize`` is set, ``link_params`` must supply materialized
    LinkParams (rho0/channel/target) for every link and the tensor-product
    average state is returned alongside; total dimension is capped.
    """
    from .engine import LinkStateMixture, materialize_average_state
    from .quantum import DensityOperator
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    mixtures = []
    for spec in specs:
        row = next(ca.active_rows((t,), spec.tstar, spec.p))
        mixtures.append(LinkStateMixture(t=t, failure_weight=1.0 - row.prob_active,
                                         age_weights=dict(enumerate(row.joint))))
    descriptor = JointStateDescriptor(t=t, mixtures=mixtures)
    if not materialize:
        return descriptor, None
    if link_params is None or len(link_params) != len(specs):
        raise ValueError("materialization needs one materialized LinkParams per link")
    total_dim = 1
    for params in link_params:
        if not params.materialized:
            raise ValueError("materialization needs materialized-mode LinkParams")
        assert params.rho0 is not None
        total_dim *= params.rho0.dim + 1
    if total_dim > MATERIALIZE_DIM_CAP:
        raise ValueError(f"joint dimension {total_dim} exceeds cap {MATERIALIZE_DIM_CAP}")
    joint = np.array([[1.0 + 0.0j]])
    for mixture, params in zip(mixtures, link_params):
        joint = np.kron(joint, materialize_average_state(mixture, params).matrix)
    return descriptor, DensityOperator(joint)
