"""The README's configuration table, command table, CSV schema, headline
numbers and experiment commands match the program."""

import argparse
import csv
import io
import re
from pathlib import Path

import pytest

import byte_corpus
from lora_sic.cli import _build_parser, parse_config
from lora_sic.cli import main as cli_main
from lora_sic.params import NetworkConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _config_table() -> list[tuple[str, float]]:
    section = _readme_section("Configuration")
    return [
        (key, float(default))
        for key, default in re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.MULTILINE)
    ]


def test_readme_config_table_lists_the_fields_and_defaults():
    assert _config_table() == list(NetworkConfig._field_defaults.items())


def test_readme_command_table_lists_the_parsers_subcommands():
    (commands,) = [
        action.choices for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    listed = re.findall(r"^\| `([^\s`]+)", _readme_section("Command line"), re.MULTILINE)
    assert listed == list(commands)


def test_readme_csv_schema_is_the_printed_headers(capsys):
    schema, mc_schema = re.findall(r"^```\n(.*)\n```$", _readme_section("CSV schema"), re.MULTILINE)
    headers = []
    for argv in (["coverage", "--d1", "3000"],
                 ["sweep", "--var", "alpha", "--start", "1", "--stop", "1", "--step", "1",
                  "--mc-trials", "1"],
                 ["mc", "--d1", "3000", "--trials", "1"]):
        assert cli_main(argv) == 0
        headers.append(capsys.readouterr().out.split("\n", 1)[0])
    assert headers == [
        re.sub(r"\[.*\]", "", schema), schema.replace("[", "").replace("]", ""), mc_schema
    ]


def test_readme_library_example_holds():
    assert parse_config("gamma_db = 6") == NetworkConfig(gamma_db=6)


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """The directory the README experiment commands ran in, and their files' digests."""
    workdir = tmp_path_factory.mktemp("experiments")
    return workdir, byte_corpus.experiment_digests(workdir)


# The README experiment files, by the experiment that writes them.
EXPERIMENT_FILES = {
    "border_sweeps": ["out/border_alpha_sweep.csv", "out/border_gamma_sweep.csv"],
    "distance_sweep": ["out/distance_sweep_nbar500.csv"],
}


@pytest.mark.parametrize("files", EXPERIMENT_FILES.values(), ids=EXPERIMENT_FILES.keys())
def test_readme_experiments_write_the_recorded_files(experiments, files):
    _, digests = experiments
    recorded = byte_corpus.recorded()
    every_file = sorted(name for names in EXPERIMENT_FILES.values() for name in names)
    assert sorted(digests) == every_file == sorted(name for name in recorded if name.endswith(".csv"))
    assert {name: digests[name] for name in files} == {name: recorded[name] for name in files}


def _cli_row(capsys, *argv):
    assert cli_main(list(argv)) == 0
    return next(csv.DictReader(io.StringIO(capsys.readouterr().out)))


def _readme_numbers(pattern):
    # A line break in the README may fall at any space of the pattern.
    found = re.search(pattern.replace(" ", r"\s+"), README.read_text(encoding="utf-8"))
    assert found, pattern
    return found.groups()


def test_readme_headline_numbers_are_the_programs(capsys, experiments):
    point = _cli_row(capsys, "coverage", "--d1", "3000", "--alpha", "1")
    c1, c1_sic = float(point["c1"]), float(point["c1_sic"])
    plain = _cli_row(capsys, "plan", "--target", "0.8")
    sic = _cli_row(capsys, "plan", "--target", "0.8", "--sic")
    gain = int(sic["total"]) / int(plain["total"])
    assert _readme_numbers(
        r"from ([\d.]+) to ([\d.]+), a (\d+)% reliability gain, and planning for 80% coverage"
        r" supports ~([\d.]+)x more nodes"
    ) == (f"{c1:.3f}", f"{c1_sic:.3f}", f"{100 * (c1_sic / c1 - 1):.0f}", f"{gain:.1f}")
    assert _readme_numbers(
        r"target 0.8\) `plan` gives `alpha_star = ([\d.]+)` \(([\d,]+) nodes\) without SIC"
        r" and `([\d.]+)` \(([\d,]+) nodes\) with it, ([\d.]+)x as many"
    ) == (plain["alpha_star"], f"{int(plain['total']):,}",
          sic["alpha_star"], f"{int(sic['total']):,}", f"{gain:.2f}")

    workdir, _ = experiments
    edge = (workdir / "out" / "distance_sweep_nbar500.csv").read_text(encoding="utf-8")
    edge = list(csv.DictReader(io.StringIO(edge)))[-1]
    assert float(edge["x"]) == 3000.0
    assert _readme_numbers(r"\(`c1 ~ ([\d.]+)`, `c1_sic ~ ([\d.]+)`\)") == (
        f"{float(edge['c1']):.2f}", f"{float(edge['c1_sic']):.2f}")
