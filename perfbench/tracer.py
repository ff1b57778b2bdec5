"""Run one `qlink` invocation with its layer boundaries traced.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_OUT <qlink arguments...>

The tracer changes no program file.  It wraps public qlink names in the
module where their callers look them up (``cli`` imported
``simulate_trajectories``, ``write_result_table`` and ``load_config`` by
name, so those are patched on ``qlink.cli``), calls ``qlink.cli.main`` and
exits with its return code.  The trace is written to TRACE_OUT as JSON when
``main`` returns:

- ``spans``: one record per stage-level call (name, id, parent id, thread,
  start, end, self time);
- ``leaves``: hot calls aggregated per (name, parent name, enclosing span,
  thread) into calls, total and self time, so memory stays bounded;
- ``extras``: values read off results (optimizer table size, RSS growth).

Self time is a call's duration minus the time its traced children in the
same thread took.  A call made in a pool thread has no parent in its own
thread; it is attributed to the innermost stage span open in any thread,
but it is not subtracted from that span's self time.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import threading
import time
import types
from collections import defaultdict


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans for stage-level calls, per-thread aggregates for hot leaf calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.extras: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[list] = []  # open span frames, any thread
        self._aggregates: list[tuple[int, dict]] = []
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.agg = {}
            with self._lock:
                self._aggregates.append((threading.get_ident(), self._local.agg))
            return self._local.stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        with self._lock:
            return self._open[-1] if self._open else None

    def span(self, name: str, fn):
        """Wrap ``fn`` so that each call records one span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            frame = [name, next(self._ids), 0.0]  # name, span id, child time
            stack.append(frame)
            with self._lock:
                self._open.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self._open.remove(frame)
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                self.spans.append({
                    "id": frame[1], "name": name,
                    "parent": parent[1] if parent else None,
                    "thread": threading.get_ident(),
                    "start": start, "end": end, "self_s": duration - frame[2],
                })

        return traced

    def leaf(self, name: str, fn):
        """Wrap ``fn`` so that its calls are counted and timed in aggregate."""
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = parent[1] if parent else None
            frame = [name, span_id, 0.0]  # a leaf carries its enclosing span id
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                key = (name, parent[0] if parent else None, span_id)
                record = self._local.agg.get(key)
                if record is None:
                    self._local.agg[key] = [1, duration, duration - frame[2]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[2]

        return traced

    def add(self, name: str, value: float) -> None:
        self.extras[name] = self.extras.get(name, 0) + value

    def to_json(self) -> dict:
        leaves = []
        with self._lock:
            aggregates = list(self._aggregates)
        for thread, agg in aggregates:
            for (name, parent, span), (calls, total, self_s) in agg.items():
                leaves.append({"name": name, "parent": parent, "span": span,
                               "thread": thread, "calls": calls,
                               "total_s": total, "self_s": self_s})
        return {"spans": self.spans, "leaves": leaves, "extras": self.extras}


def install(tracer: Tracer) -> None:
    """Patch the qlink names the CLI path looks up, in the looking-up module."""
    import qlink.cli as cli
    import qlink.cutoff as ca
    import qlink.engine as eng
    import qlink.network as net
    import qlink.optimize as opt
    import qlink.quantum as qu

    cli.load_config = tracer.span("config.load_config", cli.load_config)
    for mode in ("analytic", "simulate", "optimize", "sweep", "reproduce"):
        name = f"run_{mode}"
        setattr(cli, name, tracer.span(f"cli.{name}", getattr(cli, name)))
    cli.write_result_table = tracer.span("csvio.write_result_table",
                                         cli.write_result_table)
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(cli.json.__dict__)
    json_proxy.dump = tracer.span("cli.policy_json", cli.json.dump)
    cli.json = json_proxy
    cli.simulate_trajectories = tracer.span("engine.simulate_trajectories",
                                            cli.simulate_trajectories)

    for name in ("joint_prob", "prob_active", "expected_fidelity_cutoff",
                 "expected_success_rate", "waiting_time"):
        setattr(ca, name, tracer.leaf(f"cutoff.{name}", getattr(ca, name)))
    eng.trial_rng = tracer.leaf("engine.trial_rng", eng.trial_rng)
    qu.FidelityCurve.__call__ = tracer.leaf("quantum.fidelity_curve",
                                            qu.FidelityCurve.__call__)
    net.expected_flow = tracer.leaf("network.expected_flow", net.expected_flow)
    net.collective_status = tracer.leaf("network.collective_status",
                                        net.collective_status)

    recursion = opt.backward_recursion_reduced

    def measured_recursion(*args, **kwargs):
        before = maxrss_mb()
        result = recursion(*args, **kwargs)
        tracer.add("optimize.rss_growth_mb", maxrss_mb() - before)
        table = result.table
        entries = len(table.values) + len(table.decisions) if table else 0
        tracer.add("optimize.table_entries", entries)
        return result

    opt.backward_recursion_reduced = tracer.span(
        "optimize.backward_recursion_reduced", measured_recursion)
    opt.evaluate_state_policy = tracer.span("optimize.evaluate_state_policy",
                                            opt.evaluate_state_policy)


def check_trace(trace: dict, tol: float = 1e-9) -> list[str]:
    """Invariants every trace must meet; returns the violations found.

    Each span's and aggregate's self time is at most its duration, and the
    traced children of a span or leaf in one thread never take longer in
    sum than it does.
    """
    problems = []
    spans = {s["id"]: s for s in trace["spans"]}
    child_sum: dict = defaultdict(float)     # span id -> same-thread children
    leaf_total: dict = defaultdict(float)    # (name, span, thread) -> time
    leaf_children: dict = defaultdict(float)  # (parent name, span, thread) -> time
    for s in trace["spans"]:
        duration = s["end"] - s["start"]
        if not -tol <= s["self_s"] <= duration + tol:
            problems.append(f"span {s['name']}#{s['id']}: self {s['self_s']} "
                            f"outside [0, {duration}]")
        parent = spans.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            child_sum[s["parent"]] += duration
    for leaf in trace["leaves"]:
        if not -tol <= leaf["self_s"] <= leaf["total_s"] + tol:
            problems.append(f"leaf {leaf['name']}: self {leaf['self_s']} "
                            f"outside [0, {leaf['total_s']}]")
        scope = (leaf["span"], leaf["thread"])
        leaf_total[(leaf["name"],) + scope] += leaf["total_s"]
        span = spans.get(leaf["span"])
        if span is not None and leaf["parent"] == span["name"]:
            if span["thread"] == leaf["thread"]:
                child_sum[span["id"]] += leaf["total_s"]
        elif leaf["parent"] is not None:
            leaf_children[(leaf["parent"],) + scope] += leaf["total_s"]
    for span_id, total in child_sum.items():
        s = spans[span_id]
        if total > s["end"] - s["start"] + tol:
            problems.append(f"span {s['name']}#{span_id}: children take {total} "
                            f"of {s['end'] - s['start']}")
    for key, total in leaf_children.items():
        if total > leaf_total[key] + tol:
            problems.append(f"leaf {key[0]} in span {key[1]}: children take "
                            f"{total} of {leaf_total[key]}")
    return problems


def main(argv: list[str]) -> int:
    trace_out, qlink_args = argv[0], argv[1:]
    import qlink.cli as cli

    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli.main", cli.main)(qlink_args)
    with open(trace_out, "w") as handle:
        json.dump(tracer.to_json(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
