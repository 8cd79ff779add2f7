"""The command table: what each command accepts, and what its help says.

``SPELLINGS`` is the list of every flag spelling the hand-written parsers
accepted before the CLI became one argparse tree (PR 22): none may be lost
and none gained, so each command's parser must declare exactly its row, and
every spelling must still parse on its own.
"""

import re

import pytest

from repro.cli import COMMANDS, main, parse, parser_for
from repro.core import ConfigError, DependenceType, KernelType, parse_args
from repro.core.scenarios import SCENARIOS
from repro.runtimes import available_runtimes
from repro.sim.systems import all_systems

PAPER = {
    "-steps", "-width", "-type", "-radix", "-period", "-fraction", "-kernel",
    "-iter", "-span", "-imbalance", "-persistent-imbalance", "-wait",
    "-output", "-scratch", "-seed", "-and", "-runtime", "-workers", "-nodes",
    "-cores", "-no-validate", "-verbose", "-timeout", "--timeout",
    "-max-retries", "--max-retries", "-inject-fault", "--inject-fault",
}
SOCKET = {"--socket", "-socket"}
QUIET = {"--quiet", "-quiet", "-q"}
SPELLINGS = {
    "": PAPER | {
        "-metg", "-scenario", "--list-runtimes", "-list-runtimes",
        "--report", "-report", "--audit", "-audit", "--sanitize", "-sanitize",
        "--trace", "-trace",
    },
    "check": PAPER | {"--self", "-budget"},
    "trace": {"--gantt", "-gantt"},
    "suite": QUIET | {
        "--jobs", "-jobs", "-j", "--cores", "-cores", "--out", "-out", "-o",
        "--csv", "-csv", "--resume", "-resume", "--report", "-report",
    },
    "serve": SOCKET | QUIET | {
        f"{dashes}{name}" for dashes in ("--", "-")
        for name in ("jobs", "cores", "queue", "deadline", "warm", "ttl", "cache")
    },
    "submit": SOCKET | {
        "--wait", "-wait", "-metg", "-runtime", "-type", "-width", "-steps",
        "-output", "-workers", "-kernel", "-iter", "-timeout", "--timeout",
    },
    "svc-stats": SOCKET,
    "clean": {"--max-age", "-max-age"},
    "figures": {"--fast", "--plot", "--out"},
    "plot": {"--linear"},
    "compare": {"--rel"},
}
#: What a command needs besides the flag under test.
POSITIONALS = {"trace": ["t.json"], "suite": ["s.json"], "plot": ["f.json"],
               "compare": ["a.json", "b.json"]}
#: A value each flag accepts, where "2" would not do.
VALUES = {"-type": "fft", "-kernel": "compute_bound", "-runtime": "threads",
          "-fraction": "0.5", "-metg": "0.9", "-scenario": "fft",
          "-inject-fault": "crash:0:1", "--inject-fault": "delay:1:2:0.5"}


def _declared(command):
    return {spelling for action in parser_for(command)._actions
            for spelling in action.option_strings}


def test_the_table_names_every_command():
    assert set(COMMANDS) == set(SPELLINGS)


@pytest.mark.parametrize("command", sorted(SPELLINGS))
def test_a_command_declares_exactly_its_spellings(command):
    assert _declared(command) == SPELLINGS[command] | {"-h", "--help"}


@pytest.mark.parametrize("command, spelling", [
    (command, spelling)
    for command in sorted(SPELLINGS) for spelling in sorted(SPELLINGS[command])
])
def test_every_spelling_parses(command, spelling):
    action = parser_for(command)._option_string_actions[spelling]
    value = [] if action.nargs == 0 else [VALUES.get(spelling, "2")]
    argv = ([command] if command else []) + POSITIONALS.get(command, [])
    handler, ns = parse(argv + [spelling] + value)
    assert handler is COMMANDS[command][1]
    without = getattr(parse(argv)[1], action.dest, "not sent")
    assert getattr(ns, action.dest) != without


@pytest.mark.parametrize("argv", [
    ["-ste", "4"], ["-step", "4"], ["-stepss", "4"], ["--steps", "4"],
    ["--rep"], ["--audi"], ["-trac", "x.json"], ["run", "-steps", "4"],
    ["suite", "s.json", "-j4"], ["suite", "s.json", "--job", "2"],
    ["serve", "---jobs", "2"], ["serve", "jobs", "2"], ["serve", "-j", "2"],
    ["check", "-metg"], ["check", "--audit"], ["check", "-scenario", "fft"],
    ["submit", "-nodes", "2"], ["submit", "-radix", "3"], ["submit", "-and"],
    ["clean", "-and"], ["trace", "t.json", "--report"], ["plot", "f.json", "-q"],
])
def test_no_spelling_is_gained(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and "flag" in err


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["help"], ["-steps", "4", "--help"],
        ["-metg", "-h"], ["--trace", "x.json", "--help"],
        *([command, flag] for command in sorted(COMMANDS) if command
          for flag in ("--help", "-h")),
        ["suite", "s.json", "--jobs", "2", "--help"],
        ["check", "-steps", "4", "-h"],
    ])
    def test_help_anywhere_exits_0(self, argv, capsys):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        command = argv[0] if argv[0] in COMMANDS else ""
        assert out.startswith(f"usage: task-bench {command}".rstrip() + " [-h]")
        assert err == ""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_lists_exactly_what_is_parsed(self, command, capsys):
        assert main([command, "--help"] if command else ["--help"]) == 0
        listed = set()
        for line in capsys.readouterr().out.splitlines():
            entry = re.match(r"  (-\S+(?: [^ ,]+)?(?:, -\S+(?: [^ ,]+)?)*)", line)
            if entry is not None:
                listed |= {part.split()[0] for part in entry.group(1).split(", ")}
        assert listed == _declared(command)

    def test_top_level_help_names_the_registered_vocabulary(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "-runtime NAME" in out and "sim:<system>" in out
        for name in [*available_runtimes(), *all_systems(), *SCENARIOS,
                     *(d.value for d in DependenceType),
                     *(k.value for k in KernelType),
                     *(command for command in COMMANDS if command)]:
            assert re.search(rf"\b{re.escape(name)}\b", out), name

    def test_analysis_module_reaches_the_same_tree(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert analysis_main(["compare", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: task-bench compare")


class TestWatchFlagsAnywhere:
    """The watching flags used to be stripped out of argv one kind at a time,
    and only their first occurrence."""

    def test_trace_without_a_path_does_not_eat_the_next_flag(self, capsys):
        assert main(["-steps", "4", "-width", "2", "--trace", "--audit",
                     "-runtime", "threads"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--trace" in err
        assert "missing its value" in err

    def test_a_watch_flag_may_be_repeated(self, capsys):
        assert main(["-steps", "4", "-width", "2", "--audit", "-runtime",
                     "threads", "-audit", "--report", "--report"]) == 0
        assert "Audit clean" in capsys.readouterr().out

    def test_value_flags_keep_the_last_value(self):
        _, ns = parse(["-steps", "4", "-steps", "6", "--trace", "a", "-trace", "b"])
        assert (ns.steps, ns.trace) == (6, "b")


class TestMetgNeedsFlops:
    @pytest.mark.parametrize("kernel", [
        [], ["-kernel", "busy_wait", "-wait", "5"],
        ["-kernel", "memory_bound", "-span", "64", "-scratch", "4096"],
        ["-kernel", "io_bound"],
    ])
    def test_flopless_kernel_is_refused_before_the_first_probe(
            self, kernel, monkeypatch, capsys):
        import repro.cli

        monkeypatch.setattr(
            repro.cli, "_runner", lambda app: pytest.fail("built a runner"))
        assert main(["-steps", "4", "-width", "2", *kernel, "-metg"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: -metg") and "-kernel" in err

    @pytest.mark.parametrize("kernel", [
        ["-kernel", "compute_bound2"],
        ["-kernel", "load_imbalance", "-imbalance", "0.5"],
    ])
    def test_kernels_with_flops_are_swept(self, kernel, capsys):
        assert main(["-steps", "10", "-width", "64", "-type", "stencil_1d",
                     *kernel, "-runtime", "sim:mpi_p2p", "-nodes", "2",
                     "-metg"]) in (0, 1)


class TestParsingKeepsItsMeaning:
    def test_and_inherits_and_app_flags_go_anywhere(self):
        app = parse_args([
            "-workers", "3", "-type", "stencil_1d", "-steps", "7",
            "-persistent-imbalance", "-and", "-width", "9", "-runtime",
            "threads", "-and", "-type", "fft", "-no-validate",
        ])
        g0, g1, g2 = app.graphs
        assert (app.runtime, app.workers, app.validate) == ("threads", 3, False)
        assert [g.graph_index for g in app.graphs] == [0, 1, 2]
        assert [g.max_width for g in app.graphs] == [4, 9, 9]
        assert [g.timesteps for g in app.graphs] == [7, 7, 7]
        assert g1.dependence is DependenceType.STENCIL_1D
        assert g2.dependence is DependenceType.FFT
        assert all(g.kernel.persistent for g in app.graphs)

    def test_parses_do_not_share_state(self):
        assert len(parse_args(["-and", "-and"]).graphs) == 3
        assert len(parse_args([]).graphs) == 1

    def test_negative_values(self):
        app = parse_args(["-type", "random_nearest", "-radix", "3",
                          "-period", "-1", "-seed", "-7"])
        assert (app.graphs[0].period, app.graphs[0].seed) == (-1, -7)
        with pytest.raises(ConfigError, match="-workers.*>= 1, got -2"):
            parse_args(["-workers", "-2"])

    def test_metg_followed_by_a_flag_keeps_the_default_target(self):
        assert parse(["-metg", "-runtime", "threads"])[1].target == 0.5
        assert parse(["-metg", "-and", "-metg", "0.25"])[1].target == 0.25
        assert parse(["-metg", "0.9", "-steps", "3"])[1].target == 0.9
        assert parse(["-steps", "3"])[1].target is None
        assert parse(["submit", "-metg", "-steps", "3"])[1].target == 0.5

    def test_submit_sends_only_what_was_given(self):
        _, ns = parse(["submit", "-type", "stencil", "-iter", "7"])
        assert ns.pattern is DependenceType.STENCIL_1D and ns.iterations == 7
        assert not hasattr(ns, "width") and not hasattr(ns, "kernel")

    @pytest.mark.parametrize("argv, fragment", [
        (["-timeout", "0"], "-timeout/--timeout: must be > 0, got 0.0"),
        (["--max-retries", "-1"], "--max-retries: must be >= 0, got -1"),
        (["--inject-fault", "melt:0:1"], "unknown fault kind 'melt'"),
        (["serve", "--warm", "-1"], "--warm/-warm: must be >= 0, got -1"),
        (["serve", "--ttl", "0"], "--ttl/-ttl: must be > 0, got 0.0"),
        (["serve", "--queue"], "--queue/-queue: is missing its value"),
        (["clean", "--max-age", "-5"], "must be >= 0, got -5.0"),
        (["clean", "--max-age", "old"], "expects a number, got 'old'"),
        (["submit", "--wait", "soon"], "--wait/-wait: expects a number"),
        (["submit", "-type", "hexagon"], "unknown dependence type 'hexagon'"),
        (["compare", "a.json"], "required: B.json"),
        (["trace", "a.json", "b.json"], "exactly one trace file"),
    ])
    def test_usage_errors_say_what_and_where(self, argv, fragment, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err
        assert len(err.splitlines()) == 1
