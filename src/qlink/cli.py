"""Batch command-line front end.

    qlink analytic|simulate|optimize|sweep|reproduce --config <path> --out <path>
          [--seed N] [--threads N]

All commands read a JSON RunConfig, write one CSV ResultTable with a '#'
metadata header, and are deterministic given (config, seed).  ``--seed`` is
read by ``simulate`` only, and ``--threads`` (an integer N >= 1) by ``sweep``
only, as an upper bound on its threads that the one-thread sweep always
meets.  Exit codes: 0 success, 2 config error (an unknown field, or a flag
the command does not read, included), 3 numeric error, 4 I/O error.
``optimize`` always runs the reduced (x, m) backward recursion and
also writes ``<out>.policy.json``.

Each command imports only the modules it runs: ``config``, ``csvio`` and
``cutoff`` here, and ``engine``, ``quantum``, ``optimize`` and ``network``
where a command first uses them.  numpy comes with ``engine``, ``quantum``
(a fidelity curve) and the cutoff series longer than ``cutoff._SHORT``, so
``reproduce`` at its default sizes runs without it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TextIO

from . import __version__
from . import cutoff as ca
from .config import ConfigError, LinkSpec, RunConfig, load_config, parse_config
from .csvio import ResultTable, config_hash, write_result_table

if TYPE_CHECKING:
    from .optimize import OptimizationResult
    from .quantum import FidelityCurve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _tstar_cell(tstar: ca.Cutoff):
    return math.inf if tstar.is_infinite else tstar.finite_value


def _link_curve(link: LinkSpec) -> Optional[FidelityCurve]:
    return link.fidelity.curve() if link.fidelity is not None else None


def _metadata(config: RunConfig, seed: Optional[int] = None) -> dict[str, str]:
    meta = {
        "qlink-version": __version__,
        "mode": config.mode,
        "config-hash": config_hash(config.hash_source()),
    }
    if config.figure is not None:
        meta["figure"] = config.figure
    if seed is not None:
        meta["seed"] = str(seed)
    return meta


# ---------------------------------------------------------------------------
# analytic / sweep
# ---------------------------------------------------------------------------

def _analytic_rows(link: LinkSpec, times: Sequence[int]) -> list[tuple]:
    rows = []
    for row in ca.active_rows(times, link.tstar, link.p, _link_curve(link), success=True):
        fid = row.fidelity
        e_ftilde, e_f = (fid.e_ftilde, fid.e_f) if fid is not None else (None, None)
        rows.append((link.p, _tstar_cell(link.tstar), row.t, row.prob_active,
                     e_ftilde, e_f, row.success_rate))
    return rows


ANALYTIC_COLUMNS = ["p", "tstar", "t", "prob_active", "e_ftilde", "e_f", "e_s"]
WAITING_COLUMNS = ["p", "tstar", "t_req", "e_wait", "e_wait_limit"]


def run_analytic(config: RunConfig) -> ResultTable:
    assert config.link is not None
    link = config.link
    if config.t_req:
        table = ResultTable(columns=list(WAITING_COLUMNS), rows=[],
                            metadata=_metadata(config))
        for wait in ca.waiting_times(config.t_req, link.tstar, link.p):
            table.append(link.p, _tstar_cell(link.tstar), wait.t_req,
                         wait.expectation, wait.limit)
        return table
    table = ResultTable(columns=list(ANALYTIC_COLUMNS), rows=[],
                        metadata=_metadata(config))
    table.rows.extend(_analytic_rows(link, config.times))
    return table


def run_sweep(config: RunConfig) -> ResultTable:
    assert config.link is not None and config.sweep_field is not None
    base = config.link

    def link_for(value) -> LinkSpec:
        if config.sweep_field == "p":
            return LinkSpec(p=value, tstar=base.tstar, fidelity=base.fidelity)
        return LinkSpec(p=base.p, tstar=value, fidelity=base.fidelity)

    def sort_key(value):
        if config.sweep_field == "p":
            return (0, value)
        return (1, 0) if value.is_infinite else (0, value.finite_value)

    table = ResultTable(columns=list(ANALYTIC_COLUMNS), rows=[],
                        metadata=_metadata(config))
    for value in sorted(config.sweep_values, key=sort_key):  # then by t
        table.rows.extend(_analytic_rows(link_for(value), config.times))
    return table


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_COLUMNS = [
    "t", "prob_active_exact", "prob_active", "prob_active_se",
    "e_ftilde", "e_ftilde_se", "e_s", "e_s_se", "e_f", "e_f_se",
]


def simulate_trajectories(*args, **kwargs):
    """``engine.simulate_trajectories``, importing ``engine`` on first use;
    ``run_simulate`` calls it by this module's name (perfbench's tracer
    wraps that name)."""
    from .engine import simulate_trajectories
    return simulate_trajectories(*args, **kwargs)


def run_simulate(config: RunConfig, seed_override: Optional[int]) -> ResultTable:
    from .engine import LinkParams
    from .quantum import FidelityCurve
    assert config.link is not None and config.horizon is not None
    assert config.trials is not None
    seed = seed_override if seed_override is not None else config.seed
    assert seed is not None
    link = config.link
    curve = _link_curve(link) or FidelityCurve.constant(1.0)
    params = LinkParams.symbolic(link.p, curve)
    policy = ca.cutoff_policy(link.tstar)
    result = simulate_trajectories(params, policy, config.horizon,
                                   config.trials, seed)
    table = ResultTable(columns=list(SIMULATE_COLUMNS), rows=[],
                        metadata=_metadata(config, seed=seed))
    exact = ca.active_rows(range(1, config.horizon + 1), link.tstar, link.p)
    for t, row in enumerate(exact, start=1):
        idx = t - 1
        table.append(
            t,
            row.prob_active,
            result.prob_active[idx], result.prob_active_se[idx],
            result.e_ftilde[idx], result.e_ftilde_se[idx],
            result.e_s[idx], result.e_s_se[idx],
            result.e_f[idx], result.e_f_se[idx],
        )
    return table


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

OPTIMIZE_COLUMNS = ["policy", "e_ftilde", "e_x", "e_f"]


def run_optimize(config: RunConfig) -> tuple[ResultTable, Callable[[TextIO], None]]:
    """The optimize table, and a writer of the optimal policy's JSON dump."""
    from . import optimize as opt
    from .engine import LinkParams
    assert config.link is not None and config.horizon is not None
    link = config.link
    curve = _link_curve(link)
    assert curve is not None
    params = LinkParams.symbolic(link.p, curve)
    T = config.horizon
    result = opt.backward_recursion_reduced(params, T)

    table = ResultTable(columns=list(OPTIMIZE_COLUMNS), rows=[],
                        metadata=_metadata(config))
    check = opt.evaluate_state_policy(params, result.policy, T + 1)
    table.append("optimal", result.optimal_value, check.e_x, check.e_f)

    greedy = opt.forward_greedy(params)
    ev = opt.evaluate_state_policy(params, greedy, T + 1)
    table.append("greedy", ev.e_ftilde, ev.e_x, ev.e_f)

    cutoffs = [ca.Cutoff(v) for v in range(T + 1)] + [ca.Cutoff(math.inf)]
    for cut, row in zip(cutoffs, ca.cutoff_table(T + 1, cutoffs, link.p, curve)):
        table.append(f"cutoff({cut})", *row)

    return table, lambda handle: write_policy_json(handle, T, result)


def write_policy_json(handle: TextIO, horizon: int,
                      result: OptimizationResult) -> None:
    """Write ``result``'s decisions over times 1..horizon to ``handle`` in
    format 2: ``json.dump(obj, sort_keys=True, separators=(",", ":"))`` and
    a newline, with ``obj = {"active", "down", "format_version": 2,
    "horizon", "mode"}``.  ``down[t-1]`` is the action when down at time t;
    ``active[t-1]`` lists the maximal runs ``[m, a]`` of the action over
    active ages 0..t-1: ``a`` holds from age ``m`` to the age before the
    next run's start, the last run to age t-1.  Both are the recursion's
    ``result.runs`` as it holds them."""
    obj = {"active": result.runs.active_runs(), "down": result.runs.down.tolist(),
           "format_version": 2, "horizon": horizon, "mode": result.mode}
    json.dump(obj, handle, sort_keys=True, separators=(",", ":"))
    handle.write("\n")


# ---------------------------------------------------------------------------
# figure reproduction
# ---------------------------------------------------------------------------

_P_GRID = tuple(i / 50 for i in range(51))  # the p axis of fig4-left, fig8 and fig9


def reproduce_figure(figure: str, ov: dict) -> ResultTable:
    """The exact data grids behind the paper-style figures.

    ``ov`` holds every override ``figure`` reads, parsed, with the defaults
    of ``config.FIGURE_OVERRIDES`` filled in."""
    if figure == "fig4-left":
        # E[X(t)] against p at a fixed time, one curve per cutoff
        t = ov["t"]
        table = ResultTable(columns=["tstar", "t", "p", "e_x"], rows=[])
        for cut in ov["tstars"]:
            for pv in _P_GRID:
                table.append(_tstar_cell(cut), t, pv, ca.prob_active(t, cut, pv))
        return table
    if figure == "fig4-right":
        times = range(1, ov["t_max"] + 1)
        table = ResultTable(columns=["tstar", "t", "e_x"], rows=[])
        for cut in ov["tstars"]:
            for row in ca.active_rows(times, cut, ov["p"]):
                table.append(_tstar_cell(cut), row.t, row.prob_active)
        return table
    if figure == "fig5":
        times = range(1, ov["t_max"] + 1)
        table = ResultTable(columns=["tstar", "t", "e_s"], rows=[])
        for cut in ov["tstars"]:
            for t, e_s in zip(times, ca.expected_success_rates(times, cut, ov["p"])):
                table.append(_tstar_cell(cut), t, e_s)
        return table
    if figure == "fig7":
        table = ResultTable(columns=["tstar", "t_req", "e_wait"], rows=[])
        for cut in ov["tstars"]:
            for wait in ca.waiting_times(range(ov["t_req_max"] + 1), cut, ov["p"]):
                table.append(_tstar_cell(cut), wait.t_req, wait.expectation)
        return table

    # fig8 / fig9: four parallel links with the captioned cutoffs at t = 50
    from . import network as net
    t, cutoffs = ov["t"], ov["cutoffs"]
    if figure == "fig8":
        table = ResultTable(columns=["p", "t", "e_total"], rows=[])
        for pv in _P_GRID:
            links = tuple(net.ParallelLinkSpec(p=pv, tstar=c) for c in cutoffs)
            edge = net.EdgeConfig(edge_id="e", links=links)
            table.append(pv, t, net.expected_flow(edge, t))
        return table
    # fig9: collective status of the same links placed on separate edges
    table = ResultTable(columns=["p", "t", "collective"], rows=[])
    for pv in _P_GRID:
        edges = tuple(
            net.EdgeConfig(edge_id=f"e{i}",
                           links=(net.ParallelLinkSpec(p=pv, tstar=c),))
            for i, c in enumerate(cutoffs))
        table.append(pv, t, net.collective_status(net.NetworkConfig(edges=edges), t))
    return table


def run_reproduce(config: RunConfig) -> ResultTable:
    assert config.figure is not None
    table = reproduce_figure(config.figure, config.figure_overrides)
    table.metadata = _metadata(config)
    return table


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _check_flags(args: argparse.Namespace, mode: str) -> None:
    """Reject a flag that ``mode`` does not read."""
    if args.seed is not None and mode != "simulate":
        raise ConfigError(f"--seed is read only by simulate, not by {mode}")
    if args.threads is not None and mode != "sweep":
        raise ConfigError(f"--threads is read only by sweep, not by {mode}")


def write_outputs(table: ResultTable,
                  write_policy: Optional[Callable[[TextIO], None]], out: str) -> None:
    """Write the CSV, and the optimizer's ``<out>.policy.json`` through
    ``write_policy``, atomically.

    Each file is written in full under a temporary name in its own directory
    and then renamed over its target, so a failed run leaves no partial file.
    The CSV is renamed last: a new CSV never sits next to an old policy dump.
    """
    pending = [(f"{out}.{os.getpid()}.tmp", out)]
    try:
        write_result_table(table, pending[0][0])
        if write_policy is not None:
            policy = out + ".policy.json"
            pending.append((f"{policy}.{os.getpid()}.tmp", policy))
            with open(pending[-1][0], "w") as handle:
                write_policy(handle)
        for tmp, path in reversed(pending):
            os.replace(tmp, path)
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analytic", "simulate", "optimize", "sweep", "reproduce"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", required=True, help="output CSV path")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--threads", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.mode != args.command:
            raise ConfigError(
                f"config mode {config.mode!r} does not match command {args.command!r}")
        _check_flags(args, config.mode)
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be a positive integer, got {args.threads}")
        write_policy = None
        if config.mode == "analytic":
            table = run_analytic(config)
        elif config.mode == "simulate":
            table = run_simulate(config, args.seed)
        elif config.mode == "optimize":
            table, write_policy = run_optimize(config)
        elif config.mode == "sweep":
            table = run_sweep(config)
        else:
            table = run_reproduce(config)
    except ConfigError as exc:
        print(f"qlink: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the config file is missing or unreadable
        print(f"qlink: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"qlink: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    try:
        write_outputs(table, write_policy, args.out)
    except OSError as exc:
        print(f"qlink: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # a ragged result table
        print(f"qlink: output error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
