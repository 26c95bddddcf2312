import pytest

from lora_sic.analytic import default_config
from lora_sic.cli import main, parse_config


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
    assert cfg.layout.radius == 3000.0
    assert cfg.layout.boundaries == (0.0, 500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
    assert cfg.radio.capture_threshold_db == 1.0
    assert cfg.radio.path_loss_exp == 2.8
    assert cfg.radio.noise_figure_db == 6.0
    assert cfg.traffic.duty_cycles == (0.01,) * 6
    assert cfg.traffic.n_bar == 0.0


def test_empty_config_equals_default_config():
    assert parse_config("") == default_config()


def test_config_overrides_and_comments():
    cfg = parse_config("# scenario\ngamma_db = 6  # manufacturer threshold\nnbar=500\n")
    assert cfg.radio.capture_threshold_db == 6.0
    assert cfg.traffic.n_bar == 500.0


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


def test_bad_override_exit_status(capsys):
    code, _, _ = _run(capsys, ["--set", "path_loss_exp=1.5", "table1"])
    assert code == 2


@pytest.mark.parametrize("override", ["path_loss_exp=150", "tx_power_dbm=1e6"])
def test_arithmetic_error_exit_status(capsys, override):
    # A huge exponent underflows the path gain to zero (ZeroDivisionError);
    # a huge power overflows the dB conversion (OverflowError).
    code, out, err = _run(capsys, ["--set", override, "coverage", "--d1", "3000"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
