import io
import math
import random

import numpy as np
import pytest

from lora_sic.analytic import coverage, default_config
from lora_sic.cli import _write_csv, main, parse_config
from lora_sic.params import NetworkConfig, default_sf_table


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# --- config parsing ---------------------------------------------------------

def test_empty_config_is_default_scenario():
    cfg = parse_config("")
    assert cfg.radius_m == 3000.0
    assert cfg.boundaries == (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    assert cfg.gamma_db == 1.0
    assert cfg.path_loss_exp == 2.8
    assert cfg.noise_figure_db == 6.0
    assert cfg.duty_cycle == 0.01
    assert cfg.nbar == 0.0


def test_empty_config_equals_default_config():
    assert parse_config("") == default_config() == NetworkConfig()


def test_config_overrides_and_comments():
    cfg = parse_config("# scenario\ngamma_db = 6  # manufacturer threshold\nnbar=500\n")
    assert cfg.gamma_db == 6.0
    assert cfg.nbar == 500.0


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("frequency = 868e6")


def test_config_rejects_non_numeric_value():
    with pytest.raises(ValueError, match="gamma_db"):
        parse_config("gamma_db = high")


def test_config_rejects_shallow_path_loss():
    with pytest.raises(ValueError, match="path_loss_exp"):
        parse_config("path_loss_exp = 1.5")


# --- subcommands ------------------------------------------------------------

def test_table1_lists_six_rows(capsys):
    code, out, _ = _run(capsys, ["table1"])
    assert code == 0
    header, rows = _rows(out)
    assert header[:2] == ["sf", "toa_ms"]
    assert len(rows) == 6
    assert rows[0][0] == "7" and rows[0][1] == "41.22"
    assert rows[5][0] == "12" and rows[5][1] == "991.23"


def test_coverage_border_row(capsys):
    code, out, _ = _run(capsys, ["coverage", "--d1", "3000", "--alpha", "1"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x", "h1", "q1", "q2", "c1", "c1_sic"]
    row = dict(zip(header, map(float, rows[0])))
    assert row["x"] == 3000.0
    assert row["q1"] == pytest.approx(0.5407497421, abs=1e-9)
    assert row["c1"] == pytest.approx(0.4889102981, abs=1e-9)
    assert row["c1_sic"] == pytest.approx(0.6560005554, abs=1e-9)


def test_single_point_sweep_equals_coverage(capsys):
    code_a, out_a, _ = _run(
        capsys, ["sweep", "--var", "d1", "--start", "3000", "--stop", "3000",
                 "--step", "1", "--alpha", "1"]
    )
    code_b, out_b, _ = _run(capsys, ["coverage", "--d1", "3000", "--alpha", "1"])
    assert code_a == code_b == 0
    assert out_a == out_b


def test_capacity_rows(capsys):
    code, out, _ = _run(capsys, ["capacity", "--alphas", "0.20,0.52,1"])
    assert code == 0
    header, rows = _rows(out)
    assert header == ["alpha", "n_sf7", "n_sf8", "n_sf9", "n_sf10", "n_sf11", "n_sf12", "total"]
    assert rows[0] == ["0.2", "2183", "1247", "623", "363", "182", "91", "4689"]
    assert len(rows) == 3


def test_mc_reports_five_outcomes(capsys):
    code, out, _ = _run(
        capsys, ["mc", "--d1", "3000", "--alpha", "1", "--trials", "5000", "--seed", "1"]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["outcome", "mean", "ci95_halfwidth", "trials"]
    assert [r[0] for r in rows] == [
        "connected", "captured", "success_c1", "success_c1_sic",
        "single_interferer_given_collision",
    ]
    assert all(r[3] == "5000" for r in rows[:4])


def test_plan_reports_intensity_and_capacity(capsys):
    code, out, _ = _run(capsys, ["plan", "--target", "0.8", "--sic"])
    assert code == 0
    header, rows = _rows(out)
    assert header[:3] == ["target", "with_sic", "alpha_star"]
    assert rows[0][1] == "1"
    assert float(rows[0][2]) == pytest.approx(0.5096, abs=1e-3)


def test_plan_counts_follow_from_the_printed_alpha(capsys, cfg):
    """Each n_sf of ``plan`` and ``capacity`` is the printed alpha over twice
    the SF's duty cycle, rounded half up, as a reader of the row would
    compute it.

    Most plan targets are built so that alpha* lands within a few ulps of a
    half-way count for one SF, where rounding the unprinted alpha* could give
    the other neighbour; the rest are plain random targets, with and without
    SIC.  Each capacity call asks for 17-digit alphas a few ulps either side
    of such a half-way count, which print with 10 digits.
    """
    duties = [row.duty_cycle for row in default_sf_table()]
    rng = random.Random(17)

    def check(argv, alpha_column):
        code, out, _ = _run(capsys, argv)
        assert code == 0, argv
        _, rows = _rows(out)
        for row in rows:
            alpha = float(row[alpha_column])
            expected = [math.floor(alpha / (2.0 * duty) + 0.5) for duty in duties]
            counts = row[alpha_column + 1:]
            assert [int(n) for n in counts[:6]] == expected, argv
            assert int(counts[6]) == sum(expected), argv

    for i in range(2000):
        ring = rng.randint(1, 6)
        d1 = round(500.0 * (ring - 1) + rng.uniform(100.0, 500.0), 3)
        two_duty = 2.0 * rng.choice(duties)
        half_way = two_duty * (math.floor(rng.uniform(0.05, 5.0) / two_duty) + 0.5)
        half_way = float(f"{half_way:.10g}")
        with_sic = i % 4 == 3
        if with_sic:
            target = round(rng.uniform(0.45, 0.9) * coverage(d1, cfg, 0.0).h1, 6)
        else:
            target = coverage(d1, cfg, half_way).c1
        argv = ["plan", "--target", repr(target), "--d1", repr(d1)] + (["--sic"] * with_sic)
        check(argv, alpha_column=2)
        alphas = [half_way]
        for _ in range(rng.randint(1, 4)):
            alphas = [math.nextafter(alphas[0], 0), *alphas, math.nextafter(alphas[-1], math.inf)]
        check(["capacity", "--alphas", ",".join(map(repr, alphas))], alpha_column=0)


def test_gamma_override_changes_capture(capsys):
    _, base, _ = _run(capsys, ["coverage", "--d1", "3000", "--alpha", "1"])
    code, out, _ = _run(
        capsys, ["--set", "gamma_db=6", "coverage", "--d1", "3000", "--alpha", "1"]
    )
    assert code == 0
    header, rows = _rows(out)
    q2 = float(dict(zip(header, rows[0]))["q2"])
    assert q2 == pytest.approx(0.0894, abs=1e-3)
    assert out != base


def test_validate_exits_clean(capsys):
    code, out, err = _run(capsys, ["validate", "--trials", "20000"])
    assert code == 0
    header, rows = _rows(out)
    assert header[0] == "check"
    assert all(r[-1] == "pass" for r in rows)
    assert "checks passed" in err


def test_config_file_round_trip(tmp_path, capsys):
    path = tmp_path / "scenario.cfg"
    path.write_text("gamma_db = 6\n# comment\nduty_cycle = 0.02\n")
    code, out, _ = _run(
        capsys, ["--config", str(path), "coverage", "--d1", "3000", "--alpha", "1"]
    )
    assert code == 0
    header, rows = _rows(out)
    q2 = float(dict(zip(header, rows[0]))["q2"])
    assert q2 == pytest.approx(0.0894, abs=1e-3)


# --- exit statuses ----------------------------------------------------------

def test_usage_error_exit_status(capsys):
    code, _, err = _run(capsys, ["sweep", "--var", "d1"])
    assert code == 1
    assert "usage error" in err


def test_unknown_variable_usage_error(capsys):
    code, _, _ = _run(capsys, ["sweep", "--var", "power", "--start", "0",
                               "--stop", "1", "--step", "1"])
    assert code == 1


def test_out_of_coverage_exit_status(capsys):
    code, _, err = _run(capsys, ["coverage", "--d1", "4000", "--alpha", "1"])
    assert code == 2
    assert "error" in err


def test_infeasible_plan_exit_status(capsys):
    code, _, err = _run(capsys, ["plan", "--target", "0.95"])
    assert code == 2
    assert "exceeds the zero-load coverage" in err


@pytest.mark.parametrize("radius", ["1234.5", "5000"])
@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--target", "0.5"],
        ["plan", "--target", "0.5", "--sic"],
        ["sweep", "--var", "alpha", "--start", "0.1", "--stop", "1", "--step", "0.1"],
        ["sweep", "--var", "gamma_db", "--start", "0", "--stop", "6", "--step", "1"],
    ],
    ids=["plan", "plan --sic", "sweep alpha", "sweep gamma_db"],
)
def test_plan_and_sweep_default_to_the_configured_cell_edge(capsys, radius, argv):
    # Without --d1 they study the worst-case node of the configured cell, not
    # a node 3000 m out, which a 1234.5 m cell does not reach and which is an
    # interior ring-4 node of a 5000 m cell.
    config = ["--set", f"radius_m={radius}"]
    default = _run(capsys, [*config, *argv])
    assert default[0] == 0
    assert default == _run(capsys, [*config, *argv, "--d1", radius])


def test_bad_override_exit_status(capsys):
    code, _, _ = _run(capsys, ["--set", "path_loss_exp=1.5", "table1"])
    assert code == 2


def _at_border(override):
    return ["--set", override, "coverage", "--d1", "3000"]


@pytest.mark.parametrize(
    "argv, name",
    [
        # A huge exponent underflows the path gain to zero.
        pytest.param(_at_border("path_loss_exp=150"), "path_loss_exp", id="path_loss_exp=150"),
        # Huge or tiny dB values overflow or underflow their linear value.
        pytest.param(_at_border("tx_power_dbm=1e6"), "tx_power_dbm", id="tx_power_dbm=1e6"),
        pytest.param(_at_border("tx_power_dbm=-1e6"), "tx_power_dbm", id="tx_power_dbm=-1e6"),
        pytest.param(_at_border("noise_figure_db=1e6"), "noise_figure_db", id="noise_figure_db=1e6"),
        pytest.param(_at_border("gamma_db=1e300"), "gamma_db", id="gamma_db=1e300"),
        pytest.param(_at_border("gamma_db=-4000"), "gamma_db", id="gamma_db=-4000"),
        pytest.param(
            ["--set", "gamma_db=-4000", "mc", "--d1", "3000", "--alpha", "1", "--trials", "10"],
            "gamma_db",
            id="gamma_db=-4000 mc",
        ),
        # A tiny distance overflows the path gain.
        pytest.param(["coverage", "--d1", "1e-300", "--alpha", "1"], "d1", id="d1=1e-300"),
        # The ring kernel's powers overflow, or its hyp2f1 argument does.
        pytest.param(
            ["--set", "path_loss_exp=150", "coverage", "--d1", "1", "--alpha", "1"],
            "path_loss_exp",
            id="path_loss_exp=150 d1=1",
        ),
        pytest.param(
            ["--set", "radius_m=1e200", "coverage", "--d1", "1", "--alpha", "1"],
            "radius_m",
            id="radius_m=1e200 d1=1",
        ),
        pytest.param(_at_border("gamma_db=3000"), "gamma_db", id="gamma_db=3000"),
        pytest.param(_at_border("gamma_db=-3000"), "gamma_db", id="gamma_db=-3000"),
        # The node count alpha/(2 duty) overflows.
        pytest.param(["capacity", "--alphas", "1e305"], "alpha=1e+305", id="capacity 1e305"),
        # A finite alpha whose 10 printed digits round past the largest float.
        pytest.param(
            ["capacity", "--alphas", "1.7976931348623157e308"],
            "alpha=1.7976931348623157e+308",
            id="capacity max float",
        ),
    ],
)
def test_arithmetic_error_exit_status(capsys, argv, name):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert name in err


def test_below_zero_db_refusal_names_the_caveat(capsys):
    # Below 0 dB the capture and SIC events overlap, so h1(q1+q2) can pass 1.
    argv = ["--set", "gamma_db=-6", "coverage", "--d1", "3000", "--alpha", "0.5"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: c1_sic = h1(q1+q2) = 1.029")
    assert "exceeds 1: below 0 dB capture and SIC are not disjoint" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["coverage", "--d1", "nan"], "--d1"),
        (["coverage", "--d1", "3000", "--alpha", "inf"], "--alpha"),
        (["mc", "--d1", "3000", "--alpha", "nan", "--trials", "10"], "--alpha"),
        (["sweep", "--var", "d1", "--start", "100", "--stop", "3000", "--step", "nan"], "--step"),
        (["capacity", "--alphas", "nan"], "--alphas"),
        (["--set", "gamma_db=nan", "coverage", "--d1", "3000"], "gamma_db"),
        (["--set", "radius_m=inf", "coverage", "--d1", "3000"], "radius_m"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_non_finite_input_names_the_option(capsys, argv, name):
    code, out, err = _run(capsys, argv)
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1 and name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "option, name",
    [("--config", "missing.cfg"), ("--config", ""), ("--output", "missing/x.csv"),
     ("--output", "")],
    ids=["missing config", "config is a directory", "output in a missing directory",
         "output is a directory"],
)
def test_file_error_exits_two_naming_the_path(tmp_path, capsys, option, name):
    path = tmp_path / name
    code, out, err = _run(capsys, [option, str(path), "coverage", "--d1", "3000", "--alpha", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coverage", "--d1", "99999"],
        ["plan", "--target", "0.95"],
        ["sweep", "--var", "gamma_db", "--start", "3000", "--stop", "3002", "--step", "1",
         "--alpha", "1"],
        ["capacity", "--alphas", "1.7976931348623157e308"],
    ],
    ids=["out of the cell", "infeasible plan", "kernel overflow", "capacity max float"],
)
def test_refused_command_leaves_the_output_file_as_it_was(tmp_path, capsys, argv):
    path = tmp_path / "keep.csv"
    path.write_bytes(b"alpha,total\n0.2,4689\n")
    code, out, err = _run(capsys, ["--output", str(path), *argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_bytes() == b"alpha,total\n0.2,4689\n"


def test_failing_validate_still_writes_its_table(tmp_path, capsys):
    # Ten trials per point are too few for the checks, so validate exits 2,
    # but its table is a result, not a refusal.
    argv = ["validate", "--trials", "10"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and "FAIL" in out
    assert len(out.splitlines()) == 1 + 45
    path = tmp_path / "validate.csv"
    assert _run(capsys, ["--output", str(path), *argv]) == (code, "", err)
    assert path.read_text(encoding="utf-8") == out


# --- output stability -------------------------------------------------------

def test_csv_bytes_stable_across_runs(tmp_path):
    argv = ["sweep", "--var", "alpha", "--start", "0.2", "--stop", "1",
            "--step", "0.2", "--mc-trials", "2000", "--seed", "7"]
    paths = []
    for name in ("a.csv", "b.csv"):
        target = tmp_path / name
        assert main(["--output", str(target)] + argv) == 0
        paths.append(target)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.endswith(b"\n")
    assert b"\r" not in first
    header = first.split(b"\n", 1)[0].decode()
    assert header == "x,h1,q1,q2,c1,c1_sic,mc_c1,mc_c1_ci95,mc_c1_sic,mc_c1_sic_ci95"


def test_numbers_printed_with_ten_significant_digits(capsys):
    _, out, _ = _run(capsys, ["coverage", "--d1", "3000", "--alpha", "1"])
    row = out.strip().splitlines()[1].split(",")
    assert row[1] == "0.9041341309"
    assert row[2] == "0.5407497421"


def test_sweep_step_too_small_is_refused_before_the_grid_is_built(capsys):
    code, out, err = _run(
        capsys, ["sweep", "--var", "d1", "--start", "100", "--stop", "3000", "--step", "1e-9"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: a grid from 100.0 to 3000.0 by 1e-09 would exceed 1000000 points\n"


# Each float with its CSV text: ten significant digits, as "%.10g" prints it.
_FLOAT_CELLS = [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"), (0.0, "0"),
    (1e-300, "1e-300"), (5e-324, "4.940656458e-324"), (1e21, "1e+21"), (-1e22, "-1e+22"),
    (1234567890.5, "1234567890"), (0.1, "0.1"), (2.0 / 3.0, "0.6666666667"), (1.0, "1"),
    (3000.0, "3000"), (0.9041341309352110, "0.9041341309"),
]
_INT_CELLS = [(0, "0"), (-7, "-7"), (5000, "5000"), (2**70, "1180591620717411303424")]


def test_one_writer_prints_each_cell_by_its_type():
    """Floats (numpy floats included) print with ten significant digits,
    ints in full, bools as 1 or 0 and strings as they are, from one template
    built from the first row.  Every cell of a row holds a different value,
    so a column formatted by the wrong rule shows."""
    rows, want = [], "a,b,n,flag,name\n"
    for i, (value, text) in enumerate(_FLOAT_CELLS):
        other, other_text = _FLOAT_CELLS[(i + 1) % len(_FLOAT_CELLS)]
        count, count_text = _INT_CELLS[i % len(_INT_CELLS)]
        rows.append((value, np.float64(other), count, i % 2 == 0, f"row{i}"))
        want += f"{text},{other_text},{count_text},{1 - i % 2},row{i}\n"
    got = io.StringIO()
    _write_csv(got, ["a", "b", "n", "flag", "name"], iter(rows))
    assert got.getvalue() == want
