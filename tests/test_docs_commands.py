"""The commands the docs and the CI workflow tell people to run exist.

CI cannot run inside the development sandbox, so nothing else notices
a workflow step or a README line that names a sub-command, flag or file
the repository no longer has.  Two checks over the files people copy
commands from: every ``python -m repro.expdb ...`` and ``python -m
repro.net.cluster ...`` command line parses with the real argument
parser (and the committed files an expdb command names are there), and
nothing that was deleted is still mentioned.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.expdb.cli import build_parser
from repro.net.cluster import build_parser as build_cluster_parser

REPO_ROOT = Path(__file__).resolve().parents[1]

COMMAND_SOURCES = (
    ".github/workflows/ci.yml",
    "README.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
)

#: Modules, flags and files deleted in PR 20 (three report / compare /
#: import systems beside the experiment database), the uvloop switch,
#: the per-figure sweep functions with their pool, CLI and test hook,
#: the second scheduler and recursive-sweep bodies, helpers that only
#: tests called, the load generator beside the live driver, the flat
#: per-member rewritten query with the per-key DAI-T memory, and the
#: chaos soak's own replay loop and reference, the three run report
#: classes the one ``RunReport`` replaced, with their helpers, and the
#: heap scheduler beside the one serial replay loop, with its fault
#: wiring.
DELETED = (
    "EventRing",
    "run_stream",
    "_multisend_recursive_fast",
    "Router._walk",
    "snapshot.walk",
    "traffic_from_row",
    "crash_peer",
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
    "repro.net.loadgen",
    "LoadgenConfig",
    "run_load_sync",
    "check_against_simulator",
    "LiveReport",
    "RewrittenQuery",
    "RewrittenGroup.expand",
    "record.expand(",
    "side_needed_attributes",
    "sent_rewritten_keys",
    "soak_reference",
    "drive_event",
    "RunResult",
    "LoadReport",
    "SCALE_METRIC_FIELDS",
    "_run_sim",
    "_run_shard",
    "_run_live",
    "_merge_counts",
    "with_oracle",
    "hops_per_query",
    "redundant_arrivals",
    "Simulator",
    "EventQueue",
    "install_fault_plan",
    "attach_faults",
    "schedule_stabilization",
    "DeferredDelivery",
)


def module_commands(relative: str, module: str) -> list[str]:
    """Argument strings of every ``python -m <module>`` line in one file
    (optional environment assignments first); a shell loop variable
    stands for the first value its ``for`` loop gives it."""
    pattern = re.compile(
        rf"^\s*(?:[A-Z_]+=\S+\s+)*python3? -m {re.escape(module)}(?![\w.])(.*)$"
    )
    text = (REPO_ROOT / relative).read_text(encoding="utf-8")
    logical = re.sub(r"\\\n", " ", text)  # join shell continuations
    loops = dict(re.findall(r"\bfor (\w+) in (\S+)", logical))
    return [
        re.sub(r'"?\$(\w+)"?', lambda var: loops.get(var.group(1), var.group(0)), match.group(1))
        for match in map(pattern.match, logical.splitlines())
        if match
    ]


def expdb_commands(relative: str) -> list[str]:
    return module_commands(relative, "repro.expdb")


def parse(arguments: str, parser=build_parser, module="repro.expdb"):
    tokens = shlex.split(arguments, comments=True)
    if tokens and tokens[-1] == "&":
        tokens.pop()
    for index, token in enumerate(tokens):
        if re.fullmatch(r"\d?>>?|\||;|\|\||&&", token):  # the shell's part of the line
            del tokens[index:]
            break
    try:
        return parser().parse_args(tokens)
    except SystemExit:
        pytest.fail(f"does not parse: python -m {module} {arguments.strip()}")


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


@pytest.mark.parametrize("relative", COMMAND_SOURCES)
def test_every_cluster_command_parses(relative):
    for arguments in module_commands(relative, "repro.net.cluster"):
        parse(arguments, build_cluster_parser, "repro.net.cluster")


def test_ci_runs_the_cluster_benign_and_under_chaos():
    ci = [
        parse(arguments, build_cluster_parser, "repro.net.cluster")
        for arguments in module_commands(".github/workflows/ci.yml", "repro.net.cluster")
    ]
    assert {args.chaos is None for args in ci} == {True, False}
    assert all(args.compare_sim for args in ci)


@pytest.mark.parametrize("relative", COMMAND_SOURCES + ("DESIGN.md",))
def test_nothing_deleted_is_still_named(relative):
    text = (REPO_ROOT / relative).read_text(encoding="utf-8")
    assert [name for name in DELETED if name in text] == []
