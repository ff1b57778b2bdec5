"""Smoke runs of the bundled scripts and the README's library example, as
subprocesses."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_readme_library_example_runs():
    """The README's one ```python block runs as written."""
    blocks = re.findall(r"(?ms)^```python\n(.*?)^```", (ROOT / "README.md").read_text())
    assert len(blocks) == 1
    proc = run_python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr


def test_optimize_demo_prints_one_row_per_p():
    proc = run_script("optimize_demo.py", "--horizon", "5", "--ps", "0.3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("p,optimal,greedy,cutoff(0),cutoff(1),cutoff(2),"
                        "cutoff(5),cutoff(10),cutoff(inf)")
    assert len(lines) == 2 and lines[1].startswith("0.3,")
    assert len(lines[1].split(",")) == 9


def test_run_figures_writes_the_golden_fig5(tmp_path):
    proc = run_script("run_figures.py", "--out-dir", str(tmp_path),
                      "--figures", "fig5")
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "fig5.csv"
    assert sorted(os.listdir(tmp_path)) == ["fig5.csv", "fig5.json"]
    header = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")][0]
    assert header == "tstar,t,e_s"
    # the default fig5 config is the golden one
    assert out.read_bytes() == (GOLDEN_DIR / "fig5.csv").read_bytes()
