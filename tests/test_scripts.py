"""The experiment scripts run end to end (analytic columns only)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_reproduce_tables(tmp_path):
    proc = _run("reproduce_tables.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "# capacity at alpha = 0.20, 0.52, 1" in proc.stdout
    assert "alpha* with SIC    = 0.5096  -> 11948 nodes" in proc.stdout


def test_reproduce_tables_counts_nodes_as_plan_prints_them(tmp_path):
    # `lora-sic plan --sic` prints alpha* as 1.5570028 and counts 36508 nodes
    # from that; the unrounded alpha* would count 36507.
    proc = _run("reproduce_tables.py", "--target", "0.496194", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "alpha* with SIC    = 1.5570  -> 36508 nodes" in proc.stdout


@pytest.mark.parametrize(
    "target, message",
    [
        ("0.95", "target 0.95 exceeds the zero-load coverage 0.904134 at d1=3000.0"),
        ("nan", "target must lie in (0, 1), got nan"),
    ],
)
def test_reproduce_tables_refuses_a_target_as_plan_does(tmp_path, target, message):
    proc = _run("reproduce_tables.py", "--target", target, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "script, args, written",
    [
        ("run_border_sweeps.py", [], ["border_alpha_sweep.csv", "border_gamma_sweep.csv"]),
        ("run_distance_sweep.py", ["--step", "500"], ["distance_sweep_nbar500.csv"]),
    ],
)
def test_sweep_scripts_write_their_csv(tmp_path, script, args, written):
    proc = _run(script, "--out-dir", str(tmp_path / "out"), *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in written:
        lines = (tmp_path / "out" / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,h1,q1,q2,c1,c1_sic"
        assert len(lines) > 1
