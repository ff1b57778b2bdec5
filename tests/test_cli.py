"""Configuration parsing, CSV round-trips, and the command-line front end."""

import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qlink import cli
from qlink.cli import main
from qlink.config import (FIELDS, FIGURES, MAX_HORIZON, MAX_TIME, MODES, ConfigError,
                          load_config, parse_config)
from qlink.csvio import ResultTable, config_hash, read_result_table, write_result_table
from qlink.cutoff import prob_active, waiting_time
from qlink.engine import LinkParams
from qlink.optimize import backward_recursion_reduced
from qlink.quantum import FidelityCurve

import oracles
from oracles import (backward_recursion_states, expand_policy_dump, expanded_policy_text,
                     policy_dump_dict)

README = Path(__file__).resolve().parents[1] / "README.md"
API_TABLE = Path(__file__).resolve().parents[1] / "docs" / "api.md"
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CONFIGS = sorted(set(GOLDEN_DIR.glob("*.json")) - set(GOLDEN_DIR.glob("*.policy.json")))


def write_raw_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def write_config(tmp_path, doc, name="config.json"):
    return write_raw_config(tmp_path, json.dumps(doc).encode(), name)


def analytic_doc(**extra):
    doc = {
        "schema_version": 1,
        "mode": "analytic",
        "link": {"p": 0.3, "tstar": 2,
                 "fidelity": {"kind": "depolarizing", "f0": 1.0, "lam": 0.9, "dim": 4}},
        "times": [1, 2, 5, 10],
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_valid_config():
    config = parse_config(analytic_doc())
    assert config.mode == "analytic"
    assert config.link.p == 0.3
    assert config.link.tstar.finite_value == 2
    assert config.times == (1, 2, 5, 10)


def test_parse_infinite_cutoff_and_range_times():
    doc = analytic_doc(times={"start": 1, "stop": 6, "step": 2})
    doc["link"]["tstar"] = "inf"
    config = parse_config(doc)
    assert config.link.tstar.is_infinite
    assert config.times == (1, 3, 5)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.update(mode="frobnicate"), "mode"),
    (lambda d: d["link"].update(p=1.5), "link.p"),
    (lambda d: d["link"].update(tstar=-2), "link.tstar"),
    (lambda d: d["link"].update(tstar="soon"), "link.tstar"),
    (lambda d: d.update(times=[]), "times"),
    (lambda d: d.update(times=[0]), "times"),
    (lambda d: d["link"]["fidelity"].update(kind="magic"), "kind"),
    (lambda d: d.update(schema_version=1.0), "schema_version must be an integer"),
    (lambda d: d["link"]["fidelity"].update(kind=3), "kind must be str, got int"),
    (lambda d: d["link"]["fidelity"].update(kind="dephasing_bell"),
     "link.fidelity.f0 for kind 'dephasing_bell'"),
])
def test_parse_rejects_invalid_fields(mutate, fragment):
    doc = analytic_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(doc)


def test_mode_specific_requirements():
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"schema_version": 1, "mode": "simulate",
                      "link": {"p": 0.3, "tstar": 2}, "trials": 10, "horizon": 5})
    with pytest.raises(ConfigError, match="fidelity"):
        parse_config({"schema_version": 1, "mode": "optimize",
                      "link": {"p": 0.3, "tstar": 2}, "horizon": 5})
    with pytest.raises(ConfigError, match="sweep"):
        parse_config({"schema_version": 1, "mode": "sweep",
                      "link": {"p": 0.3, "tstar": 2}, "times": [1]})
    with pytest.raises(ConfigError, match="figure"):
        parse_config({"schema_version": 1, "mode": "reproduce"})
    with pytest.raises(ConfigError, match="figure"):
        parse_config({"schema_version": 1, "mode": "reproduce", "figure": "fig99"})


def test_readme_example_configs_parse():
    examples = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(examples) == 5
    modes = [parse_config(json.loads(text)).mode for text in examples]
    assert sorted(modes) == sorted(MODES)


def test_readme_field_table_is_config_fields():
    """The README's table of which modes read and require each top-level
    field says what ``config.FIELDS`` says."""
    def modes(cell):
        return set(MODES) if cell == "every mode" else set(re.findall(r"`(\w+)`", cell))

    table = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            for name in re.findall(r"`(\w+)`", cells[0]):
                table[name] = (modes(cells[1]), modes(cells[2]))
    assert table == {key: (set(read), set(required))
                     for key, (read, required) in FIELDS.items()}


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "mode" "analytic"\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# config hashing and CSV round-trips
# ---------------------------------------------------------------------------

def test_config_hash_ignores_key_order_but_not_values():
    a = {"mode": "analytic", "link": {"p": 0.3, "tstar": 2}}
    b = {"link": {"tstar": 2, "p": 0.3}, "mode": "analytic"}
    assert config_hash(a) == config_hash(b)
    c = {"mode": "analytic", "link": {"p": 0.31, "tstar": 2}}
    assert config_hash(a) != config_hash(c)


def hashlib_config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("path", GOLDEN_CONFIGS, ids=lambda path: path.stem)
def test_config_hash_is_hashlib_sha256_on_golden_configs(path):
    """The built-in SHA-256 gives ``hashlib``'s digest, and the golden CSV's
    ``config-hash`` line."""
    digest = config_hash(load_config(str(path)).hash_source())
    assert digest == hashlib_config_hash(json.loads(path.read_text()))
    golden = read_result_table(str(path.with_suffix(".csv")))
    assert golden.metadata["config-hash"] == digest


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@given(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=5))
def test_config_hash_is_hashlib_sha256(config):
    assert config_hash(config) == hashlib_config_hash(config)


@pytest.mark.skipif(not (importlib.util.find_spec("_sha2")
                         or importlib.util.find_spec("_sha256")),
                    reason="the interpreter has no built-in SHA-256 module")
def test_cli_never_imports_hashlib(tmp_path):
    """``hashlib`` loads OpenSSL's libcrypto (``_hashlib``), ~3.5 MB of peak
    RSS: neither is imported by ``import qlink.cli``, nor by any command."""
    runs = []
    for doc in (analytic_doc(), SIMULATE_DOC, OPTIMIZE_DOC, SWEEP_DOC, FIG5_DOC):
        mode = doc["mode"]
        runs.append([mode, "--config", write_config(tmp_path, doc, f"{mode}.json"),
                     "--out", str(tmp_path / f"{mode}.csv")])
    child = (
        "import json, sys\n"
        "from qlink import cli\n"
        "loaded = lambda: sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "assert not loaded(), ('import qlink.cli', loaded())\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert not loaded(), (argv[0], loaded())\n")
    run_python(child, json.dumps(runs))
    assert all((tmp_path / f"{argv[0]}.csv").exists() for argv in runs)


def run_python(code: str, *args: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's ``src``; its
    standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_result_table_round_trip(tmp_path):
    table = ResultTable(columns=["a", "b", "c"], rows=[],
                        metadata={"mode": "analytic", "seed": "7"})
    table.append(1, 0.1 + 0.2, None)
    table.append(math.inf, -0.0, "text")
    path = str(tmp_path / "out.csv")
    write_result_table(table, path)
    back = read_result_table(path)
    assert back.columns == table.columns
    assert back.metadata == table.metadata
    assert back.rows == table.rows  # repr round-trips floats exactly


def test_result_table_rejects_ragged_rows(tmp_path):
    table = ResultTable(columns=["a", "b"], rows=[(1,)])
    with pytest.raises(ValueError):
        write_result_table(table, str(tmp_path / "bad.csv"))
    assert not (tmp_path / "bad.csv").exists()  # refused before opening
    with pytest.raises(ValueError):
        table.append(1, 2, 3)


# ---------------------------------------------------------------------------
# the command-line interface
# ---------------------------------------------------------------------------

def test_cli_analytic(tmp_path):
    config = write_config(tmp_path, analytic_doc())
    out = str(tmp_path / "out.csv")
    assert main(["analytic", "--config", config, "--out", out]) == 0
    table = read_result_table(out)
    assert table.columns == ["p", "tstar", "t", "prob_active", "e_ftilde", "e_f", "e_s"]
    assert table.metadata["mode"] == "analytic"
    assert "config-hash" in table.metadata
    row = dict(zip(table.columns, table.rows[-1]))
    assert row["t"] == 10
    assert row["prob_active"] == pytest.approx(prob_active(10, 2, 0.3), abs=0)


def test_cli_analytic_waiting_table(tmp_path):
    doc = {"schema_version": 1, "mode": "analytic",
           "link": {"p": 0.3, "tstar": 5}, "t_req": [0, 10, 30]}
    config = write_config(tmp_path, doc)
    out = str(tmp_path / "wait.csv")
    assert main(["analytic", "--config", config, "--out", out]) == 0
    table = read_result_table(out)
    assert table.columns == ["p", "tstar", "t_req", "e_wait", "e_wait_limit"]
    row = dict(zip(table.columns, table.rows[0]))
    assert row["e_wait"] == pytest.approx(waiting_time(0, 5, 0.3).expectation, abs=0)


def test_cli_sweep_is_thread_count_invariant(tmp_path):
    doc = {"schema_version": 1, "mode": "sweep",
           "link": {"p": 0.3, "tstar": 2}, "times": [1, 5, 9],
           "sweep": {"field": "tstar", "values": [5, 0, "inf", 2]}}
    config = write_config(tmp_path, doc)
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert main(["sweep", "--config", config, "--out", out1, "--threads", "1"]) == 0
    assert main(["sweep", "--config", config, "--out", out2, "--threads", "4"]) == 0
    assert open(out1).read() == open(out2).read()
    # rows are ordered by sweep value (finite ascending, then inf)
    table = read_result_table(out1)
    assert [r[1] for r in table.rows[::3]] == [0, 2, 5, math.inf]


def test_cli_sweep_starts_no_thread(tmp_path, monkeypatch):
    """``--threads`` bounds the sweep's threads; the sweep runs on the
    calling thread, whatever the bound."""
    doc = {"schema_version": 1, "mode": "sweep",
           "link": {"p": 0.3, "tstar": 2}, "times": [1, 5, 9],
           "sweep": {"field": "tstar", "values": [5, 0, "inf", 2]}}
    config = write_config(tmp_path, doc)

    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "s.csv"),
                 "--threads", "4"]) == 0


def test_cli_simulate_deterministic_and_seed_override(tmp_path):
    doc = {"schema_version": 1, "mode": "simulate",
           "link": {"p": 0.4, "tstar": 2,
                    "fidelity": {"kind": "depolarizing", "lam": 0.9}},
           "horizon": 6, "trials": 200, "seed": 5}
    config = write_config(tmp_path, doc)
    outs = [str(tmp_path / f"sim{i}.csv") for i in range(3)]
    assert main(["simulate", "--config", config, "--out", outs[0]]) == 0
    assert main(["simulate", "--config", config, "--out", outs[1]]) == 0
    assert open(outs[0]).read() == open(outs[1]).read()
    assert main(["simulate", "--config", config, "--out", outs[2],
                 "--seed", "6"]) == 0
    assert open(outs[0]).read() != open(outs[2]).read()
    table = read_result_table(outs[2])
    assert table.metadata["seed"] == "6"
    row = dict(zip(table.columns, table.rows[0]))
    assert row["prob_active_exact"] == pytest.approx(0.4, abs=0)


def test_cli_simulate_single_trial_blank_errors(tmp_path):
    doc = {"schema_version": 1, "mode": "simulate",
           "link": {"p": 0.4, "tstar": 2}, "horizon": 3, "trials": 1, "seed": 1}
    config = write_config(tmp_path, doc)
    out = str(tmp_path / "one.csv")
    assert main(["simulate", "--config", config, "--out", out]) == 0
    table = read_result_table(out)
    row = dict(zip(table.columns, table.rows[0]))
    assert row["prob_active_se"] is None


def test_cli_optimize(tmp_path):
    doc = {"schema_version": 1, "mode": "optimize",
           "link": {"p": 0.3, "tstar": 2,
                    "fidelity": {"kind": "depolarizing", "lam": 0.8}},
           "horizon": 8}
    config = write_config(tmp_path, doc)
    out = str(tmp_path / "opt.csv")
    assert main(["optimize", "--config", config, "--out", out]) == 0
    table = read_result_table(out)
    rows = {r[0]: dict(zip(table.columns, r)) for r in table.rows}
    assert set(rows) == {"optimal", "greedy"} | {
        f"cutoff({v})" for v in list(range(9)) + ["inf"]}
    best = rows["optimal"]["e_ftilde"]
    for name, row in rows.items():
        assert best >= row["e_ftilde"] - 1e-12
    # the policy dump sits next to the table
    dump = json.load(open(out + ".policy.json"))
    assert dump["format_version"] == 2
    assert dump["horizon"] == 8 and dump["mode"] == "reduced"
    assert any(a["x"] == 0 and a["action"] == 1
               for a in expand_policy_dump(dump)["actions"])


@pytest.mark.parametrize("T", [1, 2, 7, 40])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("fidelity", [
    {"kind": "constant", "f0": 0.9},
    {"kind": "depolarizing", "lam": 0.8},
    {"kind": "dephasing_bell", "lam": 0.95},
], ids=["constant", "depolarizing", "dephasing_bell"])
def test_cli_policy_dump_matches_the_value_table(tmp_path, T, p, fidelity):
    """The dumped actions, expanded from their runs, are the table decisions
    of the state-at-a-time recursion in (t, x, m) order, the optimum is
    its optimum, and the expansion is the oracle dict's ``json.dumps`` text."""
    doc = {"schema_version": 1, "mode": "optimize",
           "link": {"p": p, "tstar": 0, "fidelity": fidelity}, "horizon": T}
    assert main(["optimize", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "opt.csv")]) == 0
    data = (tmp_path / "opt.csv.policy.json").read_text()
    dump = expand_policy_dump(json.loads(data))
    params = LinkParams.symbolic(p, parse_config(doc).link.fidelity.curve())
    table, optimum = backward_recursion_states(params, T)
    assert dump["actions"] == [{"t": t, "x": x, "m": m, "action": action}
                               for (t, x, m), action in sorted(table.decisions.items())]
    result = backward_recursion_reduced(params, T)
    assert result.optimal_value == optimum
    oracle = json.dumps(policy_dump_dict(result, T), indent=2, sort_keys=True) + "\n"
    assert expanded_policy_text(data) == oracle


def test_cli_policy_dump_bytes_at_a_long_horizon(tmp_path):
    """At T=500 the dump, expanded, is still the oracle dict's ``json.dumps``
    text, byte for byte."""
    T = 500
    doc = {"schema_version": 1, "mode": "optimize",
           "link": {"p": 0.5, "tstar": 0,
                    "fidelity": {"kind": "dephasing_bell", "lam": 0.95}},
           "horizon": T}
    assert main(["optimize", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "opt.csv")]) == 0
    params = LinkParams.symbolic(0.5, parse_config(doc).link.fidelity.curve())
    result = backward_recursion_reduced(params, T, keep_table=False)
    oracle = json.dumps(policy_dump_dict(result, T), indent=2, sort_keys=True) + "\n"
    assert expanded_policy_text((tmp_path / "opt.csv.policy.json").read_text()) == oracle


# a fidelity that revives with age: the optimum keeps and discards in turns
REVIVING = FidelityCurve(
    evaluator=lambda m: 0.5 + 0.45 * math.cos(2 * math.pi * m / 5) * 0.97 ** m,
    kind="closed-form", label="reviving")


@pytest.mark.parametrize("curve", [
    FidelityCurve.constant(0.9),
    FidelityCurve.depolarizing(1.0, 0.8, 4),
    FidelityCurve.dephasing_bell(0.95),
    REVIVING,
], ids=["constant", "depolarizing", "dephasing_bell", "reviving"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_cli_policy_dump_equals_the_record_at_a_time_writer(p, curve):
    """The dump written from the decision arrays, expanded, is the oracle
    writer's text, byte for byte.  The presets decrease with age, so each
    time has at most two runs; the reviving curve has three or more at
    some time when 0 < p < 1."""
    most = 0
    for T in (1, 2, 7, 40, 300):
        result = backward_recursion_reduced(LinkParams.symbolic(p, curve), T,
                                            keep_table=False)
        new, old = io.StringIO(), io.StringIO()
        cli.write_policy_json(new, T, result)
        oracles.write_policy_json(old, T, result)
        assert expanded_policy_text(new.getvalue()) == old.getvalue()
        most = max(most, *map(len, json.loads(new.getvalue())["active"]))
    assert (most >= 3) == (curve is REVIVING and 0.0 < p < 1.0)


@pytest.mark.parametrize("value", ["full", "reduced"])
def test_cli_optimizer_mode_is_an_unknown_field(tmp_path, value):
    doc = {"schema_version": 1, "mode": "optimize", "optimizer_mode": value,
           "link": {"p": 0.3, "tstar": 2,
                    "fidelity": {"kind": "depolarizing", "lam": 0.8}},
           "horizon": 4}
    config = write_config(tmp_path, doc)
    assert main(["optimize", "--config", config,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert os.listdir(tmp_path) == ["config.json"]


def test_cli_exit_codes(tmp_path):
    good = write_config(tmp_path, analytic_doc())
    # bad config document
    bad = write_config(tmp_path, {"schema_version": 1, "mode": "nope"}, "bad.json")
    assert main(["analytic", "--config", bad, "--out", str(tmp_path / "o.csv")]) == 2
    # command/mode mismatch
    assert main(["simulate", "--config", good, "--out", str(tmp_path / "o.csv")]) == 2
    # missing config file
    assert main(["analytic", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o.csv")]) == 4
    # unwritable output
    assert main(["analytic", "--config", good,
                 "--out", str(tmp_path / "no_dir" / "o.csv")]) == 4


@pytest.mark.parametrize("value", ["2", "many"])
def test_cli_ignores_the_environment_for_threads(tmp_path, monkeypatch, value):
    """An exported QLINK_THREADS, which no command reads, changes neither
    the exit code nor the output bytes of analytic or sweep."""
    runs = [("analytic", write_config(tmp_path, analytic_doc(), "a.json")),
            ("sweep", write_config(tmp_path, SWEEP_DOC, "s.json"))]
    plain = []
    for command, config in runs:
        out = tmp_path / f"{command}-plain.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        plain.append(out.read_bytes())
    monkeypatch.setenv("QLINK_THREADS", value)
    for (command, config), expected in zip(runs, plain):
        out = tmp_path / f"{command}-env.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 0
        assert out.read_bytes() == expected


def test_cli_reproduce_figure(tmp_path):
    doc = {"schema_version": 1, "mode": "reproduce", "figure": "fig7",
           "overrides": {"t_req_max": 5, "tstars": [0, 5]}}
    config = write_config(tmp_path, doc)
    out = str(tmp_path / "fig7.csv")
    assert main(["reproduce", "--config", config, "--out", out]) == 0
    table = read_result_table(out)
    assert table.columns == ["tstar", "t_req", "e_wait"]
    assert table.metadata["figure"] == "fig7"
    assert len(table.rows) == 12
    row = dict(zip(table.columns, table.rows[0]))
    assert row["e_wait"] == pytest.approx(waiting_time(0, 0, 0.3).expectation, abs=0)


def test_negative_seeds_are_config_errors(tmp_path):
    doc = {"schema_version": 1, "mode": "simulate",
           "link": {"p": 0.4, "tstar": 2}, "horizon": 3, "trials": 5, "seed": -1}
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 2
    doc["seed"] = 1
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


def test_cli_failed_write_keeps_previous_outputs(tmp_path, monkeypatch):
    """A run that fails while writing leaves no partial file and no new CSV
    beside an old policy dump."""
    doc = {"schema_version": 1, "mode": "optimize",
           "link": {"p": 0.3, "tstar": 2,
                    "fidelity": {"kind": "depolarizing", "lam": 0.8}},
           "horizon": 4}
    config = write_config(tmp_path, doc)
    out = tmp_path / "opt.csv"
    policy = tmp_path / "opt.csv.policy.json"
    out.write_text("old table\n")
    policy.write_text("old policy\n")

    def failing_writer(handle, horizon, result):
        handle.write('{\n  "actions": [\n    {\n      "action": ')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_policy_json", failing_writer)
    assert main(["optimize", "--config", config, "--out", str(out)]) == 4
    assert out.read_text() == "old table\n"
    assert policy.read_text() == "old policy\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json", "opt.csv",
                                            "opt.csv.policy.json"]


def test_cli_ragged_table_is_a_numeric_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_analytic",
                        lambda config: ResultTable(columns=["a", "b"], rows=[(1,)]))
    config = write_config(tmp_path, analytic_doc())
    assert main(["analytic", "--config", config,
                 "--out", str(tmp_path / "o.csv")]) == 3
    assert os.listdir(tmp_path) == ["config.json"]


def _with(doc, path, value):
    """A copy of ``doc`` with the field at the dotted ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


FIG5_DOC = {"schema_version": 1, "mode": "reproduce", "figure": "fig5",
            "overrides": {"t_max": 5}}
SWEEP_DOC = {"schema_version": 1, "mode": "sweep",
             "link": {"p": 0.3, "tstar": 2}, "times": [1, 2],
             "sweep": {"field": "p", "values": [0.5]}}
OPTIMIZE_DOC = {"schema_version": 1, "mode": "optimize", "horizon": 3,
                "link": {"p": 0.3, "tstar": 2, "fidelity": {"kind": "constant"}}}
SIMULATE_DOC = {"schema_version": 1, "mode": "simulate", "horizon": 3,
                "trials": 5, "seed": 1, "link": {"p": 0.3, "tstar": 2}}


def nested_overrides_config(depth):
    """An ``analytic`` config whose ``overrides`` is ``depth`` nested lists."""
    head = json.dumps({"schema_version": 1, "mode": "analytic",
                       "link": {"p": 0.3, "tstar": 2}, "times": [1, 2]})
    return (head[:-1] + ', "overrides": ' + "[" * depth + "]" * depth + "}").encode()


@pytest.mark.parametrize("command, doc, code", [
    ("analytic", _with(analytic_doc(), "link.fidelity.dim", "a"), 2),
    ("analytic", _with(analytic_doc(), "link.fidelity.dim", 0), 2),
    ("analytic", analytic_doc(times={"start": 1, "stop": 5, "step": "a"}), 2),
    ("reproduce", _with(FIG5_DOC, "overrides.t_max", "x"), 2),
    ("reproduce", _with(FIG5_DOC, "overrides.tstars", [-1]), 2),
    ("reproduce", _with(FIG5_DOC, "overrides.p", 2), 2),
    ("analytic", analytic_doc(optimizer_mod="full"), 2),
    ("reproduce", _with(FIG5_DOC, "overrides.t_maxx", 300), 2),
    ("analytic", None, 4),  # --config names a directory
    ("analytic", json.dumps(analytic_doc()).encode("utf-16"), 2),  # not UTF-8
    ("analytic", b"[" * 200_000, 2),
    ("analytic", analytic_doc(figure="fig5"), 2),
    ("optimize", dict(OPTIMIZE_DOC, overrides={}), 2),
    ("reproduce", dict(FIG5_DOC, sweep=SWEEP_DOC["sweep"]), 2),
    ("sweep", dict(SWEEP_DOC, overrides={"t_max": 5}), 2),
    ("analytic", nested_overrides_config(988), 2),
    ("optimize", dict(OPTIMIZE_DOC, times=[1, 2]), 2),
    ("optimize", dict(OPTIMIZE_DOC, seed=1), 2),
    ("optimize", dict(OPTIMIZE_DOC, trials=5), 2),
    ("analytic", analytic_doc(horizon=3), 2),
    ("analytic", analytic_doc(trials=5), 2),
    ("analytic", analytic_doc(seed=1), 2),
    ("reproduce", dict(FIG5_DOC, link=SWEEP_DOC["link"]), 2),
    ("reproduce", dict(FIG5_DOC, times=[1, 2]), 2),
    ("reproduce", dict(FIG5_DOC, horizon=3), 2),
    ("simulate", dict(SIMULATE_DOC, times=[1, 2]), 2),
    ("simulate", dict(SIMULATE_DOC, t_req=[0, 1]), 2),
    ("analytic", analytic_doc(t_req=[0, 1]), 2),
    ("sweep", {key: value for key, value in dict(SWEEP_DOC, t_req=[0, 1]).items()
               if key != "times"}, 2),
    ("analytic", _with(analytic_doc(), "link.p", 10 ** 400), 2),
    ("reproduce", _with(FIG5_DOC, "overrides.p", 10 ** 400), 2),
    ("analytic", _with(analytic_doc(), "link.fidelity.dim", 10 ** 400), 2),
    ("optimize", _with(OPTIMIZE_DOC, "link.fidelity",
                       {"kind": "depolarizing", "dim": 65}), 2),
    ("analytic --seed 5", analytic_doc(), 2),
    ("optimize --seed 1", OPTIMIZE_DOC, 2),
    ("sweep --seed 1", SWEEP_DOC, 2),
    ("reproduce --seed 1", FIG5_DOC, 2),
    ("analytic --threads 2", analytic_doc(), 2),
    ("simulate --threads 2", SIMULATE_DOC, 2),
    ("reproduce --threads 1", FIG5_DOC, 2),
    ("sweep --threads 0", SWEEP_DOC, 2),
    ("sweep --threads -5", SWEEP_DOC, 2),
    ("analytic", analytic_doc(schema_version=True), 2),
    ("analytic", analytic_doc(times={"start": True, "stop": 3}), 2),
    ("analytic", analytic_doc(times={"start": 1, "stop": True}), 2),
    ("analytic", _with(analytic_doc(), "link.fidelity",
                       {"kind": "dephasing_bell", "lam": 0.9, "dim": 3, "f0": 0.5}), 2),
    ("analytic", _with(analytic_doc(), "link.fidelity",
                       {"kind": "constant", "lam": 0.9}), 2),
    ("optimize", _with(OPTIMIZE_DOC, "link.fidelity", {"kind": "constant", "dim": 2}), 2),
    ("analytic", analytic_doc(times={"start": 1, "stop": 10 ** 15}), 2),
    ("sweep", dict(SWEEP_DOC, times={"start": 1, "stop": MAX_TIME + 1}), 2),
    ("analytic", analytic_doc(times=[10 ** 12]), 2),
    ("sweep", dict(SWEEP_DOC, times=[1, MAX_TIME + 1]), 2),
    ("analytic", analytic_doc(times={"start": 10 ** 12, "stop": 10 ** 12}), 2),
    ("analytic", {key: value for key, value in analytic_doc(t_req=[10 ** 12]).items()
                  if key != "times"}, 2),
    ("reproduce", _with(FIG5_DOC, "overrides.t_max", MAX_TIME + 1), 2),
    ("reproduce", dict(FIG5_DOC, figure="fig4-left", overrides={"t": 10 ** 12}), 2),
    ("reproduce", dict(FIG5_DOC, figure="fig7", overrides={"t_req_max": 10 ** 12}), 2),
    ("optimize", dict(OPTIMIZE_DOC, horizon=10 ** 12), 2),
    ("simulate", dict(SIMULATE_DOC, horizon=MAX_HORIZON + 1), 2),
    ("simulate", dict(SIMULATE_DOC, trials=2 ** 32 + 1), 2),
], ids=["dim-str", "dim-zero", "step-str", "t_max-str", "tstars-negative",
        "p-above-one", "unknown-top-level", "unknown-override", "config-dir",
        "not-utf8", "deep-nesting", "figure-outside-reproduce",
        "overrides-outside-reproduce", "sweep-outside-sweep",
        "overrides-in-sweep", "deep-overrides-outside-reproduce",
        "times-in-optimize", "seed-in-optimize", "trials-in-optimize",
        "horizon-in-analytic", "trials-in-analytic", "seed-in-analytic",
        "link-in-reproduce", "times-in-reproduce", "horizon-in-reproduce",
        "times-in-simulate", "t_req-in-simulate", "times-and-t_req-in-analytic",
        "t_req-without-times-in-sweep", "p-huge-int", "override-p-huge-int",
        "dim-huge-int", "dim-above-cap", "seed-flag-in-analytic",
        "seed-flag-in-optimize", "seed-flag-in-sweep", "seed-flag-in-reproduce",
        "threads-flag-in-analytic", "threads-flag-in-simulate",
        "threads-flag-in-reproduce", "threads-zero", "threads-negative",
        "schema_version-bool", "times-start-bool",
        "times-stop-bool", "dephasing-with-dim-and-f0", "constant-with-lam",
        "constant-with-dim-in-optimize", "times-range-huge",
        "times-range-above-cap", "time-huge", "time-above-cap",
        "times-range-start-huge", "t_req-huge", "override-t_max-above-cap",
        "override-t-huge", "override-t_req_max-huge", "horizon-huge-in-optimize",
        "horizon-above-cap-in-simulate", "trials-above-cap"])
def test_cli_malformed_input_exit_codes(tmp_path, command, doc, code):
    """Malformed input ends in its documented exit code, never a traceback,
    and writes no output.  Words of ``command`` after the first are passed
    after --config and --out."""
    words = command.split()
    if doc is None:
        config = str(tmp_path)
    elif isinstance(doc, bytes):
        config = write_raw_config(tmp_path, doc)
    else:
        config = write_config(tmp_path, doc)
    out = tmp_path / "o.csv"
    assert main([words[0], "--config", config, "--out", str(out), *words[1:]]) == code
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    dict(SWEEP_DOC, sweep={"field": "tstar", "values": [json.loads("[" * 500 + "]" * 500)]}),
    _with(SWEEP_DOC, "link.tstar", list(range(1000))),
    _with(FIG5_DOC, "overrides.tstars", [{"t": list(range(1000))}]),
], ids=["deep-list-in-sweep-values", "long-list-tstar", "object-in-tstars"])
def test_cli_cutoff_error_names_a_list_or_object_by_type(tmp_path, capsys, doc):
    """A list or an object where a cutoff belongs exits 2 with a message of
    one short line, naming its type instead of printing it."""
    config = write_config(tmp_path, doc)
    assert main([doc["mode"], "--config", config, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"got (list|dict)$", err.strip()), err
    assert len(err) < 200


@pytest.mark.parametrize("depth", [988, 989])
def test_cli_deep_stray_overrides_exit_2_in_a_fresh_process(tmp_path, depth):
    """Overrides nested just shallower than the parser's limit load, but
    would overflow the stack when hashed; ``analytic`` rejects the field
    before that.  The window depends on the stack depth at the call, so the
    CLI runs in its own process, as a user runs it."""
    config = write_raw_config(tmp_path, nested_overrides_config(depth))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlink.cli", "analytic", "--config", config,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# the exit-code contract under mutated configs
# ---------------------------------------------------------------------------

def _figure_doc(figure, **overrides):
    return {"schema_version": 1, "mode": "reproduce", "figure": figure,
            "overrides": overrides}


VALID_DOCS = [
    analytic_doc(),
    {"schema_version": 1, "mode": "analytic", "link": {"p": 0.3, "tstar": 5},
     "t_req": [0, 3, 7]},
    dict(SIMULATE_DOC, link={"p": 0.4, "tstar": "inf",
                             "fidelity": {"kind": "dephasing_bell", "lam": 0.9}}),
    OPTIMIZE_DOC,
    SWEEP_DOC,
    dict(SWEEP_DOC, sweep={"field": "tstar", "values": [0, 3, "inf"]}),
    _figure_doc("fig4-left", t=5, tstars=[0, "inf"]),
    _figure_doc("fig4-right", t_max=5),
    FIG5_DOC,
    _figure_doc("fig7", t_req_max=5, p=0.6),
    _figure_doc("fig8", t=5, cutoffs=[1, 2]),
    _figure_doc("fig9", t=5),
]
# fields whose size sets the run time, and the largest value a mutation
# gives them, so that no example runs long or exhausts memory
SIZE_CAPS = {"horizon": 40, "trials": 20, "times": 200, "start": 200,
             "stop": 200, "t_req": 200, "t": 200, "t_max": 200, "t_req_max": 200}
HUGE = [2 ** 31, 2 ** 63, 10 ** 30, 10 ** 400]
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from(["inf", "Infinity", "soon", "", "fig5", "p", "tstar"]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-2, 5), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 5), max_size=2))


def _paths(node, prefix=()):
    """The path to every value below ``node``, through keys and indices."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _number_for(path):
    """Out-of-range or huge numbers, below the cap of a size field."""
    caps = [SIZE_CAPS[key] for key in path if key in SIZE_CAPS]
    if caps:
        return st.one_of(st.integers(-3, min(caps)),
                         st.sampled_from([-n for n in HUGE]))
    return st.one_of(st.integers(-3, 50), st.floats(-2.0, 2.0),
                     st.sampled_from(HUGE + [-n for n in HUGE]),
                     st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]))


def _mutate(doc, data):
    """Apply one drop, retype, misspelling, stray field or numeric change."""
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(["drop", "retype", "misspell", "stray",
                                      "number"]))
    if kind == "stray":
        donor = data.draw(st.sampled_from(VALID_DOCS))
        key = data.draw(st.sampled_from(sorted(donor)))
        doc[key] = json.loads(json.dumps(donor[key]))
        return
    if not paths:
        return
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if kind == "drop":
        del parent[last]
    elif kind == "retype":
        parent[last] = data.draw(ODD_VALUES)
    elif kind == "number":
        parent[last] = data.draw(_number_for(path))
    elif isinstance(last, str):  # misspell a key
        spelling = data.draw(st.sampled_from([last + "s", last[:-1], last.upper(),
                                              last.replace("_", "-")]))
        parent[spelling] = parent.pop(last)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_exit_codes_hold_for_mutated_configs(data):
    """Whatever is dropped, retyped, misspelled, added or pushed out of range,
    the CLI returns a documented exit code, raises nothing, and leaves no
    output behind a failure."""
    base = data.draw(st.sampled_from(VALID_DOCS))
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        with open(config, "w") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp, "out.csv")
        code = main([base["mode"], "--config", config, "--out", out])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert os.path.exists(out)
        else:
            assert os.listdir(tmp) == ["config.json"]


BASE_MODULES = {"cli", "config", "csvio", "cutoff"}
FIG8_DOC = {"schema_version": 1, "mode": "reproduce", "figure": "fig8"}


@pytest.mark.parametrize("doc, extra, numpy", [
    (analytic_doc(), {"quantum"}, False),
    (SWEEP_DOC, set(), False),
    (dict(SWEEP_DOC, times={"start": 1, "stop": 200}), set(), True),
    (SIMULATE_DOC, {"engine", "quantum"}, True),
    (OPTIMIZE_DOC, {"engine", "quantum", "optimize"}, False),
    (dict(OPTIMIZE_DOC, horizon=200), {"engine", "quantum", "optimize"}, False),
    (FIG5_DOC, set(), False),
    (FIG8_DOC, {"network"}, False),
], ids=["analytic-fidelity", "sweep", "sweep-long", "simulate", "optimize",
        "optimize-long", "fig5", "fig8"])
def test_each_command_loads_only_its_modules(tmp_path, doc, extra, numpy):
    """A fresh ``qlink`` process imports ``config``, ``csvio`` and ``cutoff``
    with ``cli``, and only the modules its command runs besides.  numpy is
    loaded by the simulator and cutoff series longer than the term-at-a-time
    route takes; never by ``reproduce``, a fidelity curve or ``optimize``,
    whose tables at t* >= T stay off that route past ``cutoff._SHORT``."""
    out = tmp_path / "o.csv"
    argv = [doc["mode"], "--config", write_config(tmp_path, doc), "--out", str(out)]
    child = (
        "import json, sys\n"
        "from qlink import cli\n"
        "code = cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(name[6:] for name in sys.modules\n"
        "                               if name.startswith('qlink.')),\n"
        "                  'numpy' in sys.modules]))\n")
    code, loaded, numpy_loaded = json.loads(run_python(child, json.dumps(argv)))
    assert code == 0 and out.exists()
    assert set(loaded) == BASE_MODULES | extra
    assert numpy_loaded == numpy


# makes ``import numpy`` raise ImportError in the process that runs it
WITHOUT_NUMPY = "import sys\nsys.modules['numpy'] = None\nfrom qlink import cli\n"


@pytest.mark.parametrize("figure", FIGURES)
def test_reproduce_writes_every_golden_figure_without_numpy(tmp_path, figure):
    """Each default figure comes out byte for byte as its golden from a
    process in which numpy cannot be imported."""
    out = tmp_path / "o.csv"
    child = WITHOUT_NUMPY + "print(cli.main(sys.argv[1:]))\n"
    config = str(GOLDEN_DIR / f"{figure}.json")
    assert run_python(child, "reproduce", "--config", config, "--out", str(out)) == "0\n"
    assert out.read_bytes() == (GOLDEN_DIR / f"{figure}.csv").read_bytes()


def test_optimize_writes_its_golden_without_numpy(tmp_path):
    """``qlink optimize`` writes the golden CSV and format-2 policy dump byte
    for byte from a process in which numpy cannot be imported."""
    out = tmp_path / "o.csv"
    child = WITHOUT_NUMPY + "print(cli.main(sys.argv[1:]))\n"
    config = str(GOLDEN_DIR / "optimize.json")
    assert run_python(child, "optimize", "--config", config, "--out", str(out)) == "0\n"
    assert out.read_bytes() == (GOLDEN_DIR / "optimize.csv").read_bytes()
    assert (tmp_path / "o.csv.policy.json").read_bytes() == \
        (GOLDEN_DIR / "optimize.v2.policy.json").read_bytes()


@pytest.mark.parametrize("doc", [
    {"schema_version": 1, "mode": "reproduce", "figure": "fig6"},
    {"schema_version": 1, "mode": "reproduce", "figure": "fig8", "overrides": {"t": 0}},
    {"schema_version": 1, "mode": "reproduce", "figure": "fig5",
     "overrides": {"tstars": [1, -1]}},
], ids=["unknown-figure", "time-0", "negative-tstar"])
def test_reproduce_config_errors_exit_2_without_numpy(tmp_path, doc):
    out = tmp_path / "o.csv"
    child = WITHOUT_NUMPY + "print(cli.main(sys.argv[1:]))\n"
    argv = ["reproduce", "--config", write_config(tmp_path, doc), "--out", str(out)]
    assert run_python(child, *argv) == "2\n"
    assert not out.exists()


def test_import_qlink_loads_no_submodule_and_no_numpy():
    child = ("import json, sys, qlink\n"
             "print(json.dumps(sorted(name for name in sys.modules\n"
             "                        if name.startswith('qlink.') or name == 'numpy')))\n")
    assert json.loads(run_python(child)) == []


# every name the package exported from its submodules before it loaded them
# on first use, by submodule
PACKAGE_NAMES = {
    "quantum": ["DensityOperator", "FidelityCurve", "KrausChannel", "PureState",
                "apply_channel", "fidelity", "memory_evolve", "preset_channel",
                "preset_state", "tensor_channel"],
    "engine": ["History", "LinkParams", "LinkStateMixture", "Policy",
               "evolve_exhaustive", "expected_quantities", "history_prob",
               "iter_supported_histories", "materialize_average_state",
               "simulate_trajectories"],
    "cutoff": ["ActiveRow", "Cutoff", "SequenceStats", "active_rows",
               "count_sequences", "cutoff_policy", "expected_fidelity_cutoff",
               "expected_success_rate", "expected_success_rates",
               "history_prob_cutoff", "hyp2f1_series", "joint_prob",
               "memory_time_cutoff", "prob_active", "sequence_stats",
               "steady_fidelity_cutoff", "steady_state", "success_rate_limits",
               "transition_matrix", "waiting_time", "waiting_times"],
    "network": ["EdgeConfig", "NetworkConfig", "ParallelLinkSpec",
                "collective_status", "expected_flow", "expected_rate_limit",
                "expected_total_links", "flow_distribution",
                "joint_state_descriptor", "prob_at_least_one"],
    "optimize": ["DecisionRuns", "OptimizationResult",
                 "backward_recursion_reduced", "forward_greedy"],
}


def test_package_namespace_loads_each_name_from_its_submodule():
    import importlib
    import qlink
    names = [name for names in PACKAGE_NAMES.values() for name in names]
    assert set(qlink.__all__) == {*names, "__version__"}
    assert set(names) <= set(dir(qlink))
    for module, names in PACKAGE_NAMES.items():
        submodule = importlib.import_module(f"qlink.{module}")
        for name in names:
            assert getattr(qlink, name) is getattr(submodule, name), name
    # docs/api.md has one row per public name: the command or criterion
    assert set(re.findall(r"(?m)^\| `(\w+)` \|", API_TABLE.read_text())) == set(qlink._HOME)
    assert qlink.config is importlib.import_module("qlink.config")
    with pytest.raises(AttributeError, match="no_such_name"):
        qlink.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from qlink import no_such_name  # noqa: F401


def test_config_bounds_are_the_simulator_bounds():
    """``trials`` and ``link.fidelity.dim`` are bounded by the one definition
    the simulator and the states use; the parser admits each bound and
    refuses one more."""
    import qlink.engine
    import qlink.quantum
    from qlink import config
    assert config.MAX_TRIALS == 2 ** 32 and qlink.engine.MAX_TRIALS is config.MAX_TRIALS
    assert config.MAX_DIM == 64 and qlink.quantum.MAX_DIM is config.MAX_DIM
    assert parse_config(dict(SIMULATE_DOC, trials=2 ** 32)).trials == 2 ** 32
    with pytest.raises(ConfigError, match="trials"):
        parse_config(dict(SIMULATE_DOC, trials=2 ** 32 + 1))
    fidelity = {"kind": "depolarizing", "dim": 64}
    assert parse_config(_with(OPTIMIZE_DOC, "link.fidelity", fidelity)).link.fidelity.dim == 64
    with pytest.raises(ConfigError, match="dim"):
        parse_config(_with(OPTIMIZE_DOC, "link.fidelity", dict(fidelity, dim=65)))
