"""The commands the docs and the CI workflow tell people to run exist.

CI cannot run inside the development sandbox, so nothing else notices
a workflow step or a README line that names a sub-command, flag or file
the repository no longer has.  Two checks over the files people copy
commands from: every ``python -m repro.expdb ...`` command line parses
with the real argument parser (and the committed files it names are
there), and nothing that was deleted is still mentioned.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.expdb.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]

COMMAND_SOURCES = (
    ".github/workflows/ci.yml",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
)

#: Modules, flags and files deleted in PR 20 (three report / compare /
#: import systems beside the experiment database), the uvloop switch,
#: and the per-figure sweep functions with their pool, CLI and test hook.
DELETED = (
    "repro.bench.macro",
    "--compare BENCH_",
    "--append-extra",
    "--uvloop",
    "REPRO_NET_UVLOOP",
    "BENCH_seed.json",
    "BENCH_sim_scale.json",
    "BENCH_net_seed.json",
    "repro.bench.cli",
    "repro.bench.experiments",
    "repro-experiments",
    "REPRO_BENCH_PROCS",
    "REPRO_EXPDB_RUN_DELAY",
)

#: A command line: optional environment assignments, then the module.
EXPDB_COMMAND = re.compile(r"^\s*(?:[A-Z_]+=\S+\s+)*python3? -m repro\.expdb\b(.*)$")


def expdb_commands(relative: str) -> list[str]:
    """Argument strings of every expdb command line in one file."""
    text = (REPO_ROOT / relative).read_text(encoding="utf-8")
    logical = re.sub(r"\\\n", " ", text)  # join shell continuations
    return [
        match.group(1)
        for match in map(EXPDB_COMMAND.match, logical.splitlines())
        if match
    ]


def parse(arguments: str):
    tokens = shlex.split(arguments, comments=True)
    if tokens and tokens[-1] == "&":
        tokens.pop()
    for index, token in enumerate(tokens):
        if re.fullmatch(r"\d?>>?|\|", token):  # the shell's part of the line
            del tokens[index:]
            break
    try:
        return build_parser().parse_args(tokens)
    except SystemExit:
        pytest.fail(f"does not parse: python -m repro.expdb {arguments.strip()}")


@pytest.mark.parametrize("relative", COMMAND_SOURCES)
def test_every_expdb_command_parses(relative):
    commands = expdb_commands(relative)
    assert commands, f"{relative} names no expdb command — did the pattern rot?"
    for arguments in commands:
        args = parse(arguments)
        named = list(getattr(args, "files", [])) + [getattr(args, "file", None)]
        for name in named:
            if name and name.startswith("BENCH_"):
                assert (REPO_ROOT / name).is_file(), f"{relative}: {name} is not committed"


def test_the_gate_and_the_import_are_among_them():
    ci = [parse(arguments) for arguments in expdb_commands(".github/workflows/ci.yml")]
    gated = [args.file for args in ci if args.command == "gate"]
    imported = [args.files for args in ci if args.command == "import-json"]
    assert gated == ["BENCH_baseline.json"]
    assert imported == [["BENCH_baseline.json", "BENCH_history.json"]]


@pytest.mark.parametrize("relative", COMMAND_SOURCES + ("DESIGN.md",))
def test_nothing_deleted_is_still_named(relative):
    text = (REPO_ROOT / relative).read_text(encoding="utf-8")
    assert [name for name in DELETED if name in text] == []
