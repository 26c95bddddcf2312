"""The README's configuration table matches the scenario record."""

import re
from pathlib import Path

from lora_sic.cli import parse_config
from lora_sic.params import NetworkConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _config_table() -> list[tuple[str, float]]:
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        (key, float(default))
        for key, default in re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section, re.MULTILINE)
    ]


def test_readme_config_table_lists_the_fields_and_defaults():
    assert _config_table() == list(NetworkConfig._field_defaults.items())


def test_readme_library_example_holds():
    assert parse_config("gamma_db = 6") == NetworkConfig(gamma_db=6)
