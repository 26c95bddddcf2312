#!/usr/bin/env python3
"""The byte contract: sha256 digests of what the command line prints.

The corpus is every command-line call the benchmark makes:
``perfbench/workloads.cli_calls`` for analytic_warm, then for cli_cold, each
over seeds 1-10 and ops 0-119, 7,200 calls in all.  Each call runs through
in-process ``cli.main``, and one sha256 takes ``json.dumps([argv, stdout,
stderr, status])`` of every call in that order.  Each seed also has a digest
of its own 720 calls (its analytic_warm ops, then its cli_cold ops), so a test
can check one seed.

Four more outputs are hashed: ``validate``, ``mc --d1 3000 --alpha 8 --trials
300000`` and the default output of ``scripts/reproduce_tables.py``, each as
the same JSON record, and each file that a ``lora-sic`` line of the README's
Experiments block writes, as the sha256 of its bytes.  Those lines are named
by the file they write, relative to the directory they run in, so
``sha256sum -c`` can check the files.

The argv come from ``perfbench/workloads.py``: a change to one of its argv
generators moves the digests, and must rewrite ``byte_corpus.sha256`` with
``--update`` and name the moved argv (diff ``--list`` before and after).

Usage, with ``lora_sic`` importable (installed, or ``PYTHONPATH=src``):

    python tests/byte_corpus.py            # check every digest; exit 1 on a mismatch
    python tests/byte_corpus.py --list     # one digest per argv
    python tests/byte_corpus.py --update   # rewrite byte_corpus.sha256
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_suffix(".sha256")
README = ROOT / "README.md"
SEEDS = range(1, 11)
OPS = range(120)
WORKLOADS = ("analytic_warm", "cli_cold")
CLI_EXTRAS = (["validate"], ["mc", "--d1", "3000", "--alpha", "8", "--trials", "300000"])
SCRIPT = "scripts/reproduce_tables.py"

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

from lora_sic import cli  # noqa: E402


def _record(argv: list[str], run) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return json.dumps([argv, out.getvalue(), err.getvalue(), status]).encode()


def corpus_records(seeds=SEEDS):
    """Yield (seed, label, argv, record) for each corpus call of ``seeds``, in corpus order."""
    for workload in WORKLOADS:
        for seed in seeds:
            for op in OPS:
                for call in workloads.cli_calls(workload, seed, op):
                    yield seed, f"{workload} seed {seed} op {op}", call.argv, _record(call.argv, cli.main)


def corpus_digests(seeds=SEEDS) -> dict[str, str]:
    """The digest of each seed's calls and, over all ten seeds, of the whole corpus."""
    per_seed = {seed: hashlib.sha256() for seed in seeds}
    whole = hashlib.sha256()
    for seed, _, _, record in corpus_records(seeds):
        per_seed[seed].update(record)
        whole.update(record)
    digests = {f"corpus seed {seed}": h.hexdigest() for seed, h in per_seed.items()}
    if list(seeds) == list(SEEDS):
        digests["corpus"] = whole.hexdigest()
    return digests


def _script_main(argv: list[str]) -> int:
    spec = importlib.util.spec_from_file_location("reproduce_tables", ROOT / SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


def extra_records():
    """Yield (name, record) for validate, the mc call and the script's default output."""
    for argv in CLI_EXTRAS:
        yield shlex.join(argv), _record(argv, cli.main)
    yield SCRIPT, _record([], _script_main)


def readme_commands() -> list[list[str]]:
    """The argv after ``lora-sic`` of each such line in the README's first Experiments block."""
    section = README.read_text(encoding="utf-8").split("\n## Experiments\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lora-sic ")]


def experiment_digests(workdir: Path) -> dict[str, str]:
    """Run the README experiment commands in ``workdir``; the digest of each file written.

    Each command must exit 0, print nothing and write its ``--output`` file.
    """
    digests = {}
    for argv in readme_commands():
        at = argv.index("--output") + 1
        name = argv[at]
        target = workdir / name
        target.parent.mkdir(parents=True, exist_ok=True)
        record = _record([*argv[:at], str(target), *argv[at + 1:]], cli.main)
        if json.loads(record)[1:] != ["", "", 0]:
            raise RuntimeError(f"lora-sic {shlex.join(argv)} did not run cleanly: {record!r}")
        digests[name] = hashlib.sha256(target.read_bytes()).hexdigest()
    return digests


def extra_digests() -> dict[str, str]:
    return {name: hashlib.sha256(record).hexdigest() for name, record in extra_records()}


def recorded() -> dict[str, str]:
    """The digests in byte_corpus.sha256, by name."""
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def all_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        files = experiment_digests(Path(tmp))
    return {**corpus_digests(), **extra_digests(), **files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check the sha256 digests of the CLI's output.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="print one digest per argv")
    mode.add_argument("--update", action="store_true", help=f"rewrite {DIGESTS.name}")
    args = parser.parse_args(argv)

    if args.list:
        for _, label, call_argv, record in corpus_records():
            print(f"{hashlib.sha256(record).hexdigest()}  {label}: {shlex.join(call_argv)}")
        for name, record in extra_records():
            print(f"{hashlib.sha256(record).hexdigest()}  {name}")
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in experiment_digests(Path(tmp)).items():
                print(f"{digest}  {name}")
        return 0

    digests = all_digests()
    if args.update:
        DIGESTS.write_text("".join(f"{d}  {name}\n" for name, d in digests.items()), encoding="utf-8")
        return 0
    want = recorded()
    moved = sorted(name for name in want.keys() | digests.keys() if want.get(name) != digests.get(name))
    for name in moved:
        print(f"MOVED {name}: recorded {want.get(name)}, now {digests.get(name)}")
    names = want.keys() | digests.keys()
    print(f"{len(names) - len(moved)} of {len(names)} digests match {DIGESTS.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
