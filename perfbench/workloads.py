"""The four benchmark workloads: their `qlink` invocations, work and gates.

Each workload is a fixed list of CLI invocations.  Only `simulate-mc`
depends on the seed, which it passes to `qlink simulate --seed`; the other
three have the same inputs under every seed.  Every gate takes the output
paths of one invocation and returns the problems it found (empty when the
output is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEPOLARIZING = {"kind": "depolarizing", "lam": 0.9, "dim": 4}

OPTIMIZE_T = 500
SIM_HORIZON, SIM_TRIALS = 50, 20_000
SWEEP_TSTARS = [0, 1, 2, 3, 5, 8, 10, 20, 35, "inf"]
SWEEP_T_MAX = 400
FIGURES = ("fig4-left", "fig4-right", "fig5", "fig7", "fig8", "fig9")
GOLDEN_FIGURES = ("fig4-right", "fig5", "fig7")
FIGURE_ROWS = {"fig4-left": 5 * 51, "fig8": 51, "fig9": 51}

MC_Z_LIMIT = 5.0
ORACLE_TOL = 1e-12
SWEEP_SAMPLE_STRIDE = 13


@dataclass(frozen=True)
class Invocation:
    """One `qlink <command> --config <label>.json --out <label>.csv` child."""

    label: str
    command: str
    config: dict
    args: tuple = ()


@dataclass
class GateContext:
    """What the gates read besides the outputs: the goldens and the library."""

    golden_dir: Path
    qlink: object  # the imported qlink package, for oracles


@dataclass(frozen=True)
class Workload:
    """A named list of invocations, its work per repetition and its gate.

    Why each workload exists is recorded in perfbench/README.md.
    """

    name: str
    work: float
    work_unit: str
    invocations: Callable[[int], list]
    gate: Callable[[Invocation, Path, GateContext], list]
    outputs: Callable[[Path], list] = field(default=lambda csv: [csv])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a qlink CSV, skipping its '#' metadata lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _cell(text: str):
    return None if text == "" else float(text)


# ---------------------------------------------------------------------------
# optimize-horizon
# ---------------------------------------------------------------------------

def _optimize_invocations(seed: int) -> list:
    return [Invocation("optimize", "optimize", {
        "schema_version": 1, "mode": "optimize",
        "link": {"p": 0.5, "tstar": 0,
                 "fidelity": {"kind": "dephasing_bell", "lam": 0.95}},
        "horizon": OPTIMIZE_T})]


def _optimize_gate(inv: Invocation, csv: Path, ctx: GateContext) -> list:
    """`optimal` equals the keep_table=False optimum exactly; nothing beats it."""
    q = ctx.qlink
    cfg = q.config.parse_config(inv.config)
    params = q.engine.LinkParams.symbolic(cfg.link.p, cfg.link.fidelity.curve())
    best = q.optimize.backward_recursion_reduced(
        params, cfg.horizon, keep_table=False).optimal_value
    header, rows = read_csv(csv)
    problems = []
    if header != ["policy", "e_ftilde", "e_x", "e_f"]:
        problems.append(f"header {header}")
    if len(rows) != cfg.horizon + 4:  # optimal, greedy, cutoffs 0..T, inf
        problems.append(f"{len(rows)} rows")
    values = {row[0]: _cell(row[1]) for row in rows}
    if values.get("optimal") != best:
        problems.append(f"optimal {values.get('optimal')!r} != {best!r}")
    for name, value in values.items():
        if value is None or value > best + ORACLE_TOL:
            problems.append(f"{name} value {value!r} exceeds optimum {best!r}")
    policy = Path(str(csv) + ".policy.json")
    try:
        dump = json.loads(policy.read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"policy dump unreadable: {exc}"]
    if not isinstance(dump, dict) or dump.get("horizon") != cfg.horizon:
        problems.append("policy dump lacks the horizon")
    return problems


# ---------------------------------------------------------------------------
# simulate-mc
# ---------------------------------------------------------------------------

def _simulate_invocations(seed: int) -> list:
    return [Invocation("simulate", "simulate", {
        "schema_version": 1, "mode": "simulate",
        "link": {"p": 0.3, "tstar": 5, "fidelity": DEPOLARIZING},
        "horizon": SIM_HORIZON, "trials": SIM_TRIALS, "seed": 0},
        args=("--seed", str(seed)))]


def _simulate_gate(inv: Invocation, csv: Path, ctx: GateContext) -> list:
    """Every Monte Carlo Pr[X=1] lies within 5 standard errors of the exact one."""
    header, rows = read_csv(csv)
    if len(rows) != SIM_HORIZON:
        return [f"{len(rows)} rows"]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    for row in rows:
        exact = _cell(row[col["prob_active_exact"]])
        estimate = _cell(row[col["prob_active"]])
        se = _cell(row[col["prob_active_se"]])
        if None in (exact, estimate, se) or abs(estimate - exact) > MC_Z_LIMIT * se:
            problems.append(f"t={row[0]} estimate {estimate} exact {exact} "
                            f"se {se}")
    return problems


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------

def _sweep_invocations(seed: int) -> list:
    return [Invocation("sweep", "sweep", {
        "schema_version": 1, "mode": "sweep",
        "link": {"p": 0.3, "tstar": 0, "fidelity": DEPOLARIZING},
        "times": {"start": 1, "stop": SWEEP_T_MAX},
        "sweep": {"field": "tstar", "values": SWEEP_TSTARS}},
        args=("--threads", "2"))]


def _sweep_gate(inv: Invocation, csv: Path, ctx: GateContext) -> list:
    """Sampled rows agree with the Markov chain `distribution_at(t)`."""
    ca = ctx.qlink.cutoff
    cfg = ctx.qlink.config.parse_config(inv.config)
    curve = cfg.link.fidelity.curve()
    p = cfg.link.p
    header, rows = read_csv(csv)
    expected = [(float("inf") if c == "inf" else c, t)
                for c in SWEEP_TSTARS for t in range(1, SWEEP_T_MAX + 1)]
    got = [(_cell(row[1]), int(row[2])) for row in rows]
    if got != expected:
        return ["rows are not the (tstar, t) grid in order"]
    col = {name: i for i, name in enumerate(header)}
    chains = {}
    problems = []
    for row in rows[::SWEEP_SAMPLE_STRIDE]:
        raw = row[col["tstar"]]
        tstar = "inf" if raw == "inf" else int(float(raw))
        t = int(row[col["t"]])
        chain = chains.setdefault(tstar, ca.transition_matrix(tstar, p))
        dist = chain.distribution_at(t)
        if tstar == "inf":
            active, ftilde = dist[chain.state_index(1)], None
        else:
            ages = range(tstar + 1)
            weights = [dist[chain.state_index((1, m))] for m in ages]
            active = sum(weights)
            ftilde = sum(curve(m) * w for m, w in zip(ages, weights))
        pairs = [("prob_active", active), ("e_ftilde", ftilde)]
        for name, want in pairs:
            value = _cell(row[col[name]])
            if want is not None and not abs(value - want) <= ORACLE_TOL:
                problems.append(f"t*={tstar} t={t} {name} {value!r} "
                                f"vs chain {want!r}")
    return problems


# ---------------------------------------------------------------------------
# reproduce-figs
# ---------------------------------------------------------------------------

def _reproduce_invocations(seed: int) -> list:
    return [Invocation(fig, "reproduce",
                       {"schema_version": 1, "mode": "reproduce", "figure": fig})
            for fig in FIGURES]


def _reproduce_gate(inv: Invocation, csv: Path, ctx: GateContext) -> list:
    """Golden figures match byte for byte; the others have their full grid."""
    figure = inv.config["figure"]
    if figure in GOLDEN_FIGURES:
        golden = ctx.golden_dir / f"{figure}.csv"
        try:
            same = csv.read_bytes() == golden.read_bytes()
        except OSError as exc:
            return [str(exc)]
        return [] if same else [f"differs from {golden}"]
    _, rows = read_csv(csv)
    values = [_cell(row[-1]) for row in rows]
    if len(rows) != FIGURE_ROWS[figure]:
        return [f"{len(rows)} rows"]
    if not all(v is not None and math.isfinite(v) and v >= 0.0 for v in values):
        return ["a value is missing, negative or not finite"]
    return []


WORKLOADS = {w.name: w for w in (
    Workload("optimize-horizon", OPTIMIZE_T, "epochs", _optimize_invocations,
             _optimize_gate,
             outputs=lambda csv: [csv, Path(str(csv) + ".policy.json")]),
    Workload("simulate-mc", SIM_TRIALS * SIM_HORIZON, "trial-steps",
             _simulate_invocations, _simulate_gate),
    Workload("sweep-grid", len(SWEEP_TSTARS) * SWEEP_T_MAX, "grid-points",
             _sweep_invocations, _sweep_gate),
    Workload("reproduce-figs", len(FIGURES), "figures", _reproduce_invocations,
             _reproduce_gate),
)}
