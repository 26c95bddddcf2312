"""The experiment script runs end to end and answers exactly as ``lora-sic plan`` does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lora_sic.cli import main as cli_main

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


# h1 at the cell edge, within rounding: plan answers alpha* = 0 for both.
@pytest.mark.parametrize("target", ["0.904134130935211", "0.9041341309352114"])
def test_reproduce_tables_answers_a_target_at_the_zero_load_coverage(tmp_path, target):
    proc = _run("reproduce_tables.py", "--target", target, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith(
        "alpha* without SIC = 0.0000  -> 0 nodes\n"
        "alpha* with SIC    = 0.0000  -> 0 nodes\n"
        "capacity gain      = n/a\n"
    )


@pytest.mark.parametrize("target", ["0.95", "nan", "1.5"])
def test_reproduce_tables_refuses_a_target_as_plan_does(tmp_path, capsys, target):
    status = cli_main(["plan", "--target", target])
    plan = capsys.readouterr()
    assert status != 0 and plan.out == "" and plan.err.count("\n") == 1
    proc = _run("reproduce_tables.py", "--target", target, cwd=tmp_path)
    # Refused once, before any table: plan's status and its one stderr line.
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, "", plan.err)
