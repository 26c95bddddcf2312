"""Random command lines: every run ends in a known status with parseable CSV.

The generator mixes plausible scenario values with the edges the CLI must
refuse cleanly (negative, zero, huge, NaN, infinite, non-numeric), across
the ``coverage``, ``sweep`` and ``mc`` commands.  ``coverage`` must also
answer, or refuse, exactly as the one-point d1 sweep at the same point.
"""

import contextlib
import csv
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lora_sic.cli import main

_EDGES = ["0", "-0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "abc", ""]

_PROBABILITY_COLUMNS = ("h1", "q1", "q2", "c1", "c1_sic")


def _number(lo, hi):
    """Text of a number in [lo, hi], or of an edge value."""
    finite = st.floats(min_value=lo, max_value=hi).map(repr)
    return st.one_of(finite, finite, st.sampled_from(_EDGES))  # plausible values 2:1


@st.composite
def _overrides(draw):
    """``--set`` options for some of the scenario keys the model reads."""
    argv = []
    for key, lo, hi in (("nbar", 0.0, 3000.0), ("duty_cycle", 0.0, 0.05), ("gamma_db", -6.0, 10.0)):
        if draw(st.booleans()):
            argv += ["--set", f"{key}={draw(_number(lo, hi))}"]
    return argv


@st.composite
def _pinning(draw):
    """``--alpha``, or nothing so that the scenario's ``nbar`` decides."""
    return [f"--alpha={draw(_number(0.0, 4.0))}"] if draw(st.booleans()) else []


@st.composite
def _argv(draw):
    argv = draw(_overrides())
    command = draw(st.sampled_from(["coverage", "sweep", "mc"]))
    argv.append(command)
    d1 = draw(_number(1.0, 3200.0))
    if command == "sweep":
        var, lo, hi = draw(st.sampled_from([("d1", 1.0, 3200.0), ("alpha", 0.0, 5.0),
                                            ("gamma_db", -6.0, 10.0)]))
        start = draw(st.floats(min_value=lo, max_value=hi))
        step = draw(st.floats(min_value=(hi - lo) / 20, max_value=hi - lo))
        stop = min(start + draw(st.integers(0, 8)) * step, hi)
        argv += ["--var", var, f"--start={start!r}", f"--stop={stop!r}", f"--step={step!r}",
                 f"--d1={d1}"]
        if draw(st.booleans()):
            argv.append(f"--mc-trials={draw(st.integers(1, 300))}")
    else:
        argv.append(f"--d1={d1}")
    argv += draw(_pinning())
    if command == "mc":
        argv += [f"--trials={draw(st.integers(1, 2000))}", f"--seed={draw(st.integers(0, 99))}"]
    return argv


def _run(argv):
    """``(stdout, stderr, status)`` of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return out.getvalue(), err.getvalue(), status


@settings(max_examples=120, deadline=None)
@given(argv=_argv())
def test_random_command_lines_end_cleanly(argv):
    out, err, status = _run(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    rows = list(csv.reader(io.StringIO(out)))
    if status != 0:
        assert rows == []
        assert err.startswith(("error: ", "usage error: ")) and err.count("\n") == 1
        return
    header, body = rows[0], rows[1:]
    assert body and all(len(row) == len(header) for row in body)
    for name in _PROBABILITY_COLUMNS:
        if name in header:
            column = header.index(name)
            assert all(0.0 <= float(row[column]) <= 1.0 for row in body), name
    if header[:2] == ["outcome", "mean"]:
        # The single-interferer mean is NaN when no trial collided.
        assert all(0.0 <= float(row[1]) <= 1.0 or math.isnan(float(row[1])) for row in body)


@settings(max_examples=120, deadline=None)
@given(overrides=_overrides(), d1=_number(1.0, 3200.0), pinning=_pinning())
@example(overrides=[], d1="-0", pinning=["--alpha=1"])
def test_coverage_is_the_one_point_d1_sweep(overrides, d1, pinning):
    # --d1 comes first in both, so a usage error names the same option.
    coverage = [*overrides, "coverage", f"--d1={d1}", *pinning]
    sweep = [*overrides, "sweep", f"--d1={d1}", "--var", "d1", f"--start={d1}", f"--stop={d1}",
             "--step=1", *pinning]
    assert _run(coverage) == _run(sweep)
