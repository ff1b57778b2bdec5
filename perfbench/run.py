"""qlink benchmark: fixed CLI workloads, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qlink checkout.  Each `qlink` invocation is a child
process (`python3 -m qlink.cli` with PYTHONPATH=src); the benchmark starts
the next one only after the previous one has exited (a closed loop with one
client).  With `--trace 0` it repeats the workload for S seconds and reports
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
repetitions (see tracer.py) and reports the per-layer metrics.  Every output
is checked by the workload's correctness gate.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The line
before it holds the detail: samples, percentiles, machine facts, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import check_trace
from workloads import WORKLOADS, GateContext, Invocation, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 7
MIN_REPEATS = 2
SETUP_CODE = "import sys, qlink.cli; qlink.cli.load_config(sys.argv[1])"

END_TO_END = {"wall_s": "s", "work_per_s": "units/s", "setup_s": "s",
              "peak_rss_mb": "MB", "output_bytes": "bytes"}
PER_LAYER_UNITS = {
    "config.load_config.total_s": "s",
    "cli.compute.total_s": "s",
    "cli.emit.total_s": "s",
    "csvio.write_result_table.total_s": "s",
    "csvio.csv_bytes": "bytes",
    "cli.policy_json.total_s": "s",
    "cli.policy_json.bytes": "bytes",
    "cutoff.joint_prob.calls": "count",
    "cutoff.joint_prob.self_s": "s",
    "cutoff.prob_active.calls": "count",
    "cutoff.prob_active.total_s": "s",
    "cutoff.expected_fidelity_cutoff.calls": "count",
    "cutoff.expected_fidelity_cutoff.total_s": "s",
    "cutoff.expected_success_rate.calls": "count",
    "cutoff.expected_success_rate.total_s": "s",
    "cutoff.waiting_time.calls": "count",
    "cutoff.waiting_time.total_s": "s",
    "optimize.cutoff_baselines.total_s": "s",
    "optimize.backward_recursion_reduced.total_s": "s",
    "optimize.table_entries": "count",
    "optimize.rss_growth_mb": "MB",
    "optimize.evaluate_state_policy.calls": "count",
    "optimize.evaluate_state_policy.total_s": "s",
    "engine.simulate_trajectories.total_s": "s",
    "engine.us_per_trial_step": "us",
    "engine.trial_rng.calls": "count",
    "engine.trial_rng.total_s": "s",
    "quantum.fidelity_curve.calls": "count",
    "quantum.fidelity_curve.total_s": "s",
    "network.expected_flow.calls": "count",
    "network.collective_status.calls": "count",
    "network.collective_status.total_s": "s",
    "cli.run_sweep.threads1_s": "s",
    "cli.run_sweep.threads2_s": "s",
    "cli.run_sweep.pool_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}
# the per-layer metrics that must repeat exactly from run to run
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes")]


@dataclass
class Child:
    """One finished child process, with its own rusage from os.wait4."""

    code: int
    wall_s: float
    maxrss_mb: float
    stderr: str


@dataclass
class Bench:
    """Where a run writes, how it starts children, and its failure tally.

    Children are started through launcher.py, which is itself started
    before the harness imports numpy or qlink; see launcher.py for why.
    Call close() to stop it.
    """

    root: Path
    out: Path
    golden_dir: Path | None = None
    attempted: int = 0
    failures: list = field(default_factory=list)
    first_hash: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._launcher = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait()

    def spawn_all(self, argvs: list) -> tuple[float, list]:
        """Run each argv to exit, one after the other: (wall time, children)."""
        request = {"argvs": argvs, "stderr": str(self.out / "stderr.txt")}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return reply["wall_s"], [Child(c["code"], c["wall_s"], c["maxrss_kb"] / 1024.0,
                                       c["stderr"]) for c in reply["children"]]

    def spawn(self, argv: list) -> Child:
        return self.spawn_all([argv])[1][0]

    def qlink_argv(self, inv: Invocation, traced: Path | None = None,
                   extra: tuple = ()) -> list:
        head = ([sys.executable, str(BENCH_DIR / "tracer.py"), str(traced)] if traced
                else [sys.executable, "-m", "qlink.cli"])
        return head + [inv.command, "--config", str(self.config_path(inv)),
                       "--out", str(self.csv_path(inv)), *inv.args, *extra]

    def config_path(self, inv: Invocation) -> Path:
        return self.out / f"{inv.label}.json"

    def csv_path(self, inv: Invocation) -> Path:
        return self.out / f"{inv.label}.csv"


def gate_context(bench: Bench) -> GateContext:
    src = str(bench.root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    qlink = importlib.import_module("qlink")
    for sub in ("config", "cutoff", "engine", "optimize"):
        importlib.import_module(f"qlink.{sub}")
    return GateContext(golden_dir=bench.golden_dir or bench.root / "tests" / "golden",
                       qlink=qlink)


def check_invocation(bench: Bench, workload: Workload, inv: Invocation,
                     child: Child, ctx: GateContext) -> tuple[int, list]:
    """Exit code, outputs, repeatability and gate of one invocation.

    Returns the bytes it wrote and the problems found; an invocation with
    any problem counts as one failed attempt once tallied.
    """
    if child.code != 0:
        return 0, [f"exit {child.code}: {child.stderr.strip()}"]
    paths = workload.outputs(bench.csv_path(inv))
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return 0, [f"missing output {missing}"]
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    if bench.first_hash.setdefault(inv.label, digest.hexdigest()) != digest.hexdigest():
        return 0, ["output differs between repetitions"]
    try:
        problems = workload.gate(inv, bench.csv_path(inv), ctx)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    return sum(p.stat().st_size for p in paths), problems


def tally(bench: Bench, label: str, problems: list) -> None:
    bench.attempted += 1
    if problems:
        bench.failures.append(f"{label}: " + "; ".join(problems[:5]))


def clear_outputs(bench: Bench, workload: Workload, inv: Invocation) -> None:
    for path in workload.outputs(bench.csv_path(inv)):
        path.unlink(missing_ok=True)


@dataclass
class Repetition:
    wall_s: float
    peak_rss_mb: float
    output_bytes: int


def repeat_workload(bench: Bench, workload: Workload, invs: list,
                    ctx: GateContext, trace_dir: Path | None = None) -> Repetition:
    """One run of the workload: every invocation in turn, then the gates."""
    for inv in invs:
        clear_outputs(bench, workload, inv)
    wall, children = bench.spawn_all([
        bench.qlink_argv(inv, trace_dir / f"{inv.label}.trace.json" if trace_dir else None)
        for inv in invs])
    written = 0
    for inv, child in zip(invs, children):
        size, problems = check_invocation(bench, workload, inv, child, ctx)
        if trace_dir and not problems:
            problems = trace_problems(trace_dir / f"{inv.label}.trace.json")
        tally(bench, inv.label, problems)
        written += size
    return Repetition(wall, max(c.maxrss_mb for c in children), written)


def trace_problems(path: Path) -> list:
    if not path.is_file():
        return ["no trace written"]
    return check_trace(json.loads(path.read_text()))


def measure_setup(bench: Bench, inv: Invocation, repeats: int) -> list:
    """Interpreter start, `import qlink.cli` and `load_config`, in a child."""
    argv = [sys.executable, "-c", SETUP_CODE, str(bench.config_path(inv))]
    times = []
    for _ in range(repeats):
        child = bench.spawn(argv)
        tally(bench, "setup", [f"exit {child.code}: {child.stderr.strip()}"]
              if child.code != 0 else [])
        times.append(child.wall_s)
    return times


def summary(values: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    high = None
    if n > 10:
        k = n - 10
        high = {"percentile": round(100.0 * k / n, 1), "value": values[k - 1]}
    return {"median": statistics.median(values), "high": high, "n": n,
            "samples": values}


def machine_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# per-layer metrics from one repetition's traces
# ---------------------------------------------------------------------------

def _span_total(spans: list, name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(traces: list, workload: Workload) -> dict:
    """Sum the per-layer metrics over the traces of one repetition."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for trace in traces:
        spans, leaves = trace["spans"], trace["leaves"]
        compute = [s for s in spans if s["name"].startswith("cli.run_")]
        main = next(s for s in spans if s["name"] == "cli.main")
        m["config.load_config.total_s"] += _span_total(spans, "config.load_config")
        m["cli.compute.total_s"] += sum(s["end"] - s["start"] for s in compute)
        if compute:
            m["cli.emit.total_s"] += main["end"] - max(s["end"] for s in compute)
        for name in ("csvio.write_result_table", "cli.policy_json",
                     "optimize.backward_recursion_reduced",
                     "optimize.evaluate_state_policy",
                     "engine.simulate_trajectories"):
            m[f"{name}.total_s"] += _span_total(spans, name)
        m["optimize.evaluate_state_policy.calls"] += sum(
            s["name"] == "optimize.evaluate_state_policy" for s in spans)
        for leaf in leaves:
            name = leaf["name"]
            for stat, value in (("calls", leaf["calls"]), ("total_s", leaf["total_s"]),
                                ("self_s", leaf["self_s"])):
                if f"{name}.{stat}" in m:
                    m[f"{name}.{stat}"] += value
            if name.startswith("cutoff.") and leaf["parent"] == "cli.run_optimize":
                m["optimize.cutoff_baselines.total_s"] += leaf["total_s"]
        for name, value in trace["extras"].items():
            m[name] += value
    if workload.work_unit == "trial-steps":
        m["engine.us_per_trial_step"] = (
            1e6 * m["engine.simulate_trajectories.total_s"] / workload.work)
    return m


def traced_repetition(bench: Bench, workload: Workload, invs: list,
                      ctx: GateContext) -> tuple[Repetition, dict]:
    """One traced run of the workload; its per-layer metrics ({} on failure)."""
    trace_dir = bench.out / "traces"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    failed = len(bench.failures)
    rep = repeat_workload(bench, workload, invs, ctx, trace_dir)
    if len(bench.failures) > failed:
        return rep, {}
    traces = [json.loads((trace_dir / f"{inv.label}.trace.json").read_text())
              for inv in invs]
    metrics = layer_metrics(traces, workload)
    for inv in invs:
        for path in workload.outputs(bench.csv_path(inv)):
            key = "cli.policy_json.bytes" if path.suffix == ".json" else "csvio.csv_bytes"
            metrics[key] += path.stat().st_size
    if workload.name == "sweep-grid":
        # the same sweep on one thread: the pool ratio's base; its output
        # must not depend on the thread count
        inv = invs[0]
        one = trace_dir / "threads1.trace.json"
        clear_outputs(bench, workload, inv)
        child = bench.spawn(bench.qlink_argv(inv, one, ("--threads", "1")))
        _, problems = check_invocation(bench, workload, inv, child, ctx)
        tally(bench, f"{inv.label} --threads 1", problems or trace_problems(one))
        if problems:
            return rep, {}
        metrics["cli.run_sweep.threads1_s"] = _span_total(
            json.loads(one.read_text())["spans"], "cli.run_sweep")
        metrics["cli.run_sweep.threads2_s"] = _span_total(
            traces[0]["spans"], "cli.run_sweep")
        metrics["cli.run_sweep.pool_ratio"] = (
            metrics["cli.run_sweep.threads2_s"] / metrics["cli.run_sweep.threads1_s"])
    return rep, metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def fits(start: float, seconds: float, done: int) -> bool:
    """Whether one more repetition, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def prepare(bench: Bench, workload: Workload, seed: int) -> tuple[list, GateContext]:
    """Write the workload's configs, load the gates' oracles, warm the caches."""
    invs = workload.invocations(seed)
    for inv in invs:
        bench.config_path(inv).write_text(json.dumps(inv.config))
    ctx = gate_context(bench)
    measure_setup(bench, invs[0], 1)  # fills the file cache and bytecode cache
    return invs, ctx


def end_to_end(bench: Bench, workload: Workload, invs: list, ctx: GateContext,
               seconds: float, detail: dict) -> dict:
    setup: list = []
    reps: list = []
    start = time.perf_counter()
    while len(reps) < MIN_REPEATS or fits(start, seconds, len(reps)):
        # set-up children are spread over the run, so that both medians see
        # the same stretch of machine time
        setup += measure_setup(bench, invs[0], 1)
        reps.append(repeat_workload(bench, workload, invs, ctx))
    setup += measure_setup(bench, invs[0], max(0, SETUP_REPEATS - len(setup)))
    walls = [r.wall_s for r in reps]
    detail.update(wall_s=summary(walls), setup_s=summary(setup),
                  peak_rss_mb=[r.peak_rss_mb for r in reps],
                  output_bytes=[r.output_bytes for r in reps])
    return {
        "wall_s": statistics.median(walls),
        "work_per_s": workload.work / statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(detail["peak_rss_mb"]),
        "output_bytes": statistics.median(detail["output_bytes"]),
    }


def per_layer(bench: Bench, workload: Workload, invs: list, ctx: GateContext,
              seconds: float, detail: dict) -> dict:
    """Alternate untraced and traced repetitions; medians of the layer metrics."""
    untraced: list = []
    traced: list = []
    start = time.perf_counter()
    while len(traced) < MIN_REPEATS or fits(start, seconds, len(traced)):
        untraced.append(repeat_workload(bench, workload, invs, ctx).wall_s)
        traced.append(traced_repetition(bench, workload, invs, ctx))
    traced_walls = [rep.wall_s for rep, _ in traced]
    detail.update(wall_s=summary(untraced), traced_wall_s=summary(traced_walls))
    layers = [layer for _, layer in traced]
    if not all(layers):
        return {}
    for name in COUNTS:
        if len({layer[name] for layer in layers}) != 1:
            bench.failures.append(f"count {name} differs between traced repetitions")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in PER_LAYER_UNITS if name in layers[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        bench: Bench) -> tuple[dict, dict]:
    """Set up, measure for `seconds`, and return (metrics, detail)."""
    detail: dict = {"workload": workload.name, "seed": seed, "trace": trace,
                    "work": {"amount": workload.work, "unit": workload.work_unit},
                    "machine": machine_facts()}
    invs, ctx = prepare(bench, workload, seed)
    measure = per_layer if trace else end_to_end
    metrics = measure(bench, workload, invs, ctx, seconds, detail)
    units = PER_LAYER_UNITS if trace else END_TO_END
    detail.update(output_sha256=bench.first_hash,
                  loadavg_after=list(os.getloadavg()),
                  error_rate=len(bench.failures) / max(1, bench.attempted),
                  failures=bench.failures)
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items() if name in metrics}
    return result, detail


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qlink" / "cli.py").is_file():
        print(f"perfbench: no qlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = BENCH_DIR / "out" / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(root=ROOT, out=out)
    try:
        metrics, detail = run(workload, args.seed, args.seconds, bool(args.trace), bench)
    finally:
        bench.close()
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
