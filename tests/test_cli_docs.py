"""Every documented invocation stays valid.

Each ``task-bench ...``, ``python -m repro.cli ...`` and ``python -m
repro.analysis ...`` command in the docs and the CI workflow — code-block
lines (with their ``\\`` continuations) and inline ```code``` spans — plus
the benchmark's cold cell must *parse*: :func:`repro.cli.parse` builds the
chosen command's parser and hands back the handler and namespace; nothing
runs.
"""

import importlib.util
import pathlib
import re
import shlex

import pytest

from repro.cli import COMMANDS, parse

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = [
    ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".github" / "workflows" / "ci.yml",
]

COMMAND = r"(?:task-bench|python3? -m repro\.(?:cli|analysis))\b"
#: A command at the start of a line of a code block or of a CI script.
LINE = re.compile(rf"^\s*(?:run: |if |[$] )?(?:timeout \d+ )?({COMMAND}.*)$")
INLINE = re.compile(rf"`({COMMAND}[^`]*)`")
#: Where the shell takes over: redirections, pipes, ``&``, ``;``, ``||``.
SHELL = re.compile(r"\d?[|&<>;]")


def _tokens(text):
    """argv of one documented command, or None for a schematic one
    (``task-bench ... -metg [target]``, ``sim:<system>``)."""
    if "..." in text or "[" in text or "<" in text:
        return None
    words = shlex.split(text.replace("\\\n", " "), comments=True)
    words = words[1:] if words[0] == "task-bench" else words[3:]
    for at, word in enumerate(words):
        if SHELL.match(word):
            return words[:at]
    return words


def documented():
    found = []
    for path in SOURCES:
        text = path.read_text()
        lines = text.splitlines()
        commands = [m.group(1) for m in INLINE.finditer(text)]
        for at, line in enumerate(lines):
            m = LINE.match(line)
            if m is None:
                continue
            command = m.group(1)
            while command.endswith("\\"):
                at += 1
                command += "\n" + lines[at].strip()
            commands.append(command)
        for command in commands:
            argv = _tokens(command)
            if argv is not None:
                found.append(pytest.param(
                    argv, id=f"{path.name}: {' '.join(command.split())[:70]}"))
    return found


DOCUMENTED = documented()


def test_the_scan_finds_the_documented_commands():
    ids = " ".join(p.id for p in DOCUMENTED)
    assert len(DOCUMENTED) >= 40
    for needle in ("README.md: task-bench suite sweep.toml --jobs 4",
                   "ci.yml: task-bench submit --socket",
                   "ci.yml: task-bench check --self",
                   "EXPERIMENTS.md: python -m repro.analysis compare",
                   "metg.md: task-bench -steps 100 -width 2048"):
        assert needle in ids, needle


@pytest.mark.parametrize("argv", DOCUMENTED)
def test_documented_invocation_parses(argv, capsys):
    try:
        handler, ns = parse(argv)
    except SystemExit as helped:  # a documented --help
        assert helped.code == 0 and "usage: task-bench" in capsys.readouterr().out
    else:
        assert handler in [h for _, h in COMMANDS.values()]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", ROOT / "benchmarks" / "perf" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload", ["fine_stencil", "dense_random", "big_payload", "coarse_wait"])
def test_the_benchmarks_cold_cell_parses(workload):
    workloads = _workloads()
    assert sorted(workloads.WORKLOADS) == sorted(
        ["fine_stencil", "dense_random", "big_payload", "coarse_wait"])
    argv = [*workloads.cli_args(workload, 31337, steps=40),
            "-runtime", "threads", "-workers", "2"]
    handler, ns = parse(argv)
    assert handler is COMMANDS[""][1]
    assert (ns.runtime, ns.workers, ns.steps, ns.seed) == ("threads", 2, 40, 31337)
