"""Golden bytes of the command line: stdout, stderr and exit status.

``golden_cli.json`` holds one record per argv.  Every record except the
``plan`` ones was taken from the release before ``plan`` became an exact
inversion, so any change to the analytic or Monte Carlo numbers, the CSV
formatting or an error message shows here.  The ``plan`` records hold the
exact roots; at ``gamma_db=-6`` the old bisection could not answer at all
(its coverage calls refused c1_sic > 1, its sampled guard a rising
objective).  The last seven records, one per branch of the intensity rule
(``--alpha``, ``--nbar`` including 0, the config's ``nbar`` and
``duty_cycle``, the default alpha = 1), were taken before that rule moved
into ``experiments.resolve_intensity``.  The eleven after them were taken
before the scenario became one flat ``NetworkConfig``: every config-value
error, the one that fires first when two values are bad, an unknown key
(``capture_threshold_db`` included, the library's old spelling of
``gamma_db``), a negative ``--nbar``, and a d1 sweep in a 1234.5 m cell up to
its edge.  The five after those pin which error a sweep prints when its first
point fails (a gamma_db off the linear scale, a kernel overflow, a d1 outside
the cell on an alpha and on a gamma_db sweep, a negative ``--nbar``), taken
before operating points were memoized.  Then two ``plan`` rows whose node
counts used to be rounded from the unprinted alpha* and were one off from the
printed one, now counted from the printed alpha*, and a gamma_db sweep with
Monte Carlo columns taken before sweep rows were written through one format
template.  Last, a ``capacity`` row at a 15-digit alpha that prints as
0.5451574, whose counts used to be rounded from the unprinted alpha (5951 at
SF7) and now follow the printed one (5952).  The last three, in a 1234.5 m
and a 1500 m cell, were taken when ``plan`` and ``sweep`` started to default
to the configured cell edge and ``validate`` to place its points by ring;
before, each exited 2 on a 3000 m point outside the cell.  Change a record
only for an intended output change, and say which and why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from lora_sic.cli import _build_parser, main

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden_bytes(case, capsys):
    status = main(case["argv"])
    out, err = capsys.readouterr()
    assert (out, err, status) == (case["stdout"], case["stderr"], case["status"])


def test_shared_parser_carries_no_state_between_calls(capsys):
    # main builds its parser once per process; every later call, in any
    # order, must still print what a fresh process prints.
    assert _build_parser() is _build_parser()
    for case in CASES + CASES[::-1]:
        status = main(case["argv"])
        out, err = capsys.readouterr()
        assert (out, err, status) == (case["stdout"], case["stderr"], case["status"]), case["argv"]
