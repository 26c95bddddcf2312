"""The analytic path imports neither numpy nor scipy; only Monte Carlo loads numpy.
Nor does it import ``dataclasses``, ``inspect`` or ``typing``, which cost more
to import than the model takes to answer.

Each check runs in a fresh interpreter, because this test session has long
since imported them all.  The ``typing`` check runs it with ``-S``: a site
hook (a ``.pth`` file of an installed package) may import ``typing`` before
any user code runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lora_sic

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs cli.main on its arguments (if any), then prints the exit status and
# which of the comma-separated watched modules ended up in sys.modules.
_PROBE = """
import contextlib, io, sys
import lora_sic
watched, argv = sys.argv[1].split(","), sys.argv[2:]
code = None
if argv:
    from lora_sic import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
print(code, *sorted(name for name in watched if name in sys.modules))
"""

_ANALYTIC_COMMANDS = [
    ["coverage", "--d1", "3000"],
    ["plan", "--target", "0.8", "--sic"],
    ["capacity", "--alphas", "0.2,1"],
    ["sweep", "--var", "alpha", "--start", "0.1", "--stop", "2", "--step", "0.1"],
]


def _fresh(*argv: str, watch: str = "numpy,scipy", flags: tuple[str, ...] = ()) -> list[str]:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE, watch, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout.split()


def test_import_loads_neither_numpy_nor_scipy():
    assert _fresh() == ["None"]


@pytest.mark.parametrize("argv", _ANALYTIC_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_analytic_commands_load_neither_numpy_nor_scipy(argv):
    assert _fresh(*argv) == ["0"]


@pytest.mark.parametrize(
    "argv", [[], *_ANALYTIC_COMMANDS], ids=lambda argv: " ".join(argv[:2]) or "import"
)
def test_import_and_analytic_commands_load_neither_dataclasses_nor_inspect(argv):
    assert _fresh(*argv, watch="dataclasses,inspect") == ["0" if argv else "None"]


@pytest.mark.parametrize(
    "argv", [[], ["table1"], *_ANALYTIC_COMMANDS], ids=lambda argv: " ".join(argv[:2]) or "import"
)
def test_without_site_import_and_analytic_commands_load_no_typing(argv):
    watch = "dataclasses,inspect,typing"
    assert _fresh(*argv, watch=watch, flags=("-S",)) == ["0" if argv else "None"]


def test_monte_carlo_loads_numpy():
    assert _fresh("mc", "--d1", "3000", "--trials", "10") == ["0", "numpy"]


def test_every_public_name_resolves():
    for name in lora_sic.__all__:
        assert getattr(lora_sic, name) is not None, name
    assert set(lora_sic.__all__) <= set(dir(lora_sic))
    assert lora_sic.estimate is lora_sic.mcsim.estimate
    with pytest.raises(AttributeError):
        lora_sic.no_such_name
