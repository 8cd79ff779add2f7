"""Command-line parameters (paper §2, Table 1), declared once.

The core library "manages parsing input parameters ... ensuring that all
implementations behave uniformly and can be scripted consistently".
:func:`add_arguments` declares the official Task Bench flag vocabulary::

    -steps H -width W -type stencil_1d -radix 5 -kernel compute_bound
    -iter 1024 -output 16 -scratch 0 -and <next graph...>

on an argparse :class:`Parser` — spelling, type, default and help text in
one place — so every command that takes these flags (a run, ``check``,
``submit``) parses and documents them identically, and
:func:`parse_args` is that declaration parsed into an :class:`AppConfig`.

``-and`` separates multiple concurrently-executed task graphs (paper §2:
"multiple (potentially heterogeneous) task graphs can be executed
concurrently").  Graph-level flags apply to the graph currently being
described; app-level flags (``-runtime``, ``-nodes``, ...) may appear
anywhere.
"""

from __future__ import annotations

import argparse
import copy
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Container, List, Sequence

from .kernels import Kernel
from .task_graph import DEFAULT_SEED, TaskGraph
from .types import DependenceType, KernelType


class ConfigError(ValueError):
    """Raised for malformed command lines."""


@dataclass
class AppConfig:
    """A fully parsed Task Bench invocation: graphs plus app options."""

    graphs: List[TaskGraph] = field(default_factory=list)
    runtime: str = "serial"
    workers: int = 1
    nodes: int = 1
    cores_per_node: int = 0  # 0 = use the runtime's default
    validate: bool = True
    verbose: bool = False
    #: Per-round worker deadline in seconds (None = runtime default).
    timeout: float | None = None
    #: Retry budget for transiently-failed probes (None = runtime default).
    max_retries: int | None = None
    #: Armed fault-injection spec ("kind:worker:round[:seconds]").
    inject_fault: str | None = None


class Parser(argparse.ArgumentParser):
    """argparse held to this CLI's contract: a flag is spelled exactly as
    declared, and every complaint is a :class:`ConfigError` (``task-bench``
    prints ``error: ...`` and exits 2 from one place).

    ``command`` is the subcommand this parser belongs to (empty for a bare
    run); ``epilog`` may be a callable, evaluated only when help is shown.
    """

    def __init__(self, command: str = "", **kwargs: Any) -> None:
        self.command = command
        super().__init__(
            prog=f"task-bench {command}".rstrip(), allow_abbrev=False,
            formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs,
        )

    def error(self, message: str) -> Any:
        # argparse's wording for a flag at the end of the line, or one
        # directly followed by another flag.
        raise ConfigError(
            message.replace("expected one argument", "is missing its value")
        )

    def parse_args(self, args: Any = None, namespace: Any = None) -> Any:
        namespace, extra = self.parse_known_args(args, namespace)
        if extra:
            kind = f"{self.command} flag".lstrip()
            self.error(f"unknown {kind} {extra[0]!r}")
        return namespace

    def _get_option_tuples(self, option_string: str) -> list:
        # allow_abbrev=False stops "--rep" standing for "--report", but
        # before Python 3.12 "-ste" still stands for "-steps" and "-j4" for
        # "-j 4": no prefixes, no glued values.
        return []

    def format_help(self) -> str:
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


def number(
    convert: Callable[[str], Any], *, minimum: float | None = None,
    exclusive: bool = False,
) -> Callable[[str], Any]:
    """An argparse ``type``: an int (or float) no lower than ``minimum``
    (above it if ``exclusive``), refused in this CLI's words."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects {noun}, got {text!r}") from None
        if minimum is not None and (
            value <= minimum if exclusive else value < minimum
        ):
            bound = f"> {minimum:g}" if exclusive else f">= {minimum:g}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _named(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse ``type`` that keeps ``parse``'s own error message."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


@_named
def _fault(spec: str) -> str:
    from ..faults import parse_fault

    parse_fault(spec)  # validate eagerly; stored as text
    return spec


class _NextGraph(argparse.Action):
    """``-and``: the flags so far describe one graph, and the next graph
    starts from its settings (matching the official CLI's behaviour)."""

    def __call__(self, parser: Any, namespace: Any, values: Any,
                 option_string: str | None = None) -> None:
        namespace.described = (*namespace.described, copy.copy(namespace))


def add_arguments(
    parser: argparse.ArgumentParser, only: Container[str] | None = None
) -> None:
    """Declare the paper's graph and app flags on ``parser``.

    ``only`` keeps the flags whose destination it names and leaves them
    without a default: ``submit`` sends a daemon the ones that were given,
    under ``suite.spec.Cell``'s field names — which is what the
    destinations are called where a cell has the field.
    """

    def group(title: str) -> Callable[..., None]:
        section = parser.add_argument_group(title)

        def flag(*spellings: str, dest: str, **kw: Any) -> None:
            if only is None:
                if "default" in kw and "action" not in kw:
                    kw["help"] += " (default %(default)s)"
            elif dest in only:
                kw["default"] = argparse.SUPPRESS
            else:
                return
            section.add_argument(*spellings, dest=dest, **kw)

        return flag

    count, real = number(int), number(float)
    flag = group("graph options")
    flag("-steps", dest="steps", type=count, default=10, metavar="N",
         help="timesteps: the graph's height")
    flag("-width", dest="width", type=count, default=4, metavar="N",
         help="tasks per timestep: the available parallelism")
    flag("-type", dest="pattern", type=_named(DependenceType.parse),
         default=DependenceType.TRIVIAL, metavar="NAME",
         help="dependence pattern: "
         + ", ".join(d.value for d in DependenceType))
    flag("-radix", dest="radix", type=count, default=3, metavar="N",
         help="dependencies per task for nearest / spread / random_nearest")
    flag("-period", dest="period", type=count, default=-1, metavar="N",
         help="timesteps after which random_nearest repeats (-1: never)")
    flag("-fraction", dest="fraction", type=real, default=0.25, metavar="F",
         help="share of its window a random_nearest task depends on")
    flag("-kernel", dest="kernel", type=_named(KernelType.parse),
         default=KernelType.EMPTY, metavar="NAME",
         help="task kernel: "
         + ", ".join(k.value for k in KernelType))
    flag("-iter", dest="iterations", type=count, default=0, metavar="N",
         help="kernel iterations per task")
    flag("-span", dest="span", type=count, default=0, metavar="BYTES",
         help="bytes the memory_bound / io_bound kernel moves per iteration")
    flag("-imbalance", dest="imbalance", type=real, default=0.0, metavar="F",
         help="load_imbalance: spread of the per-task duration multiplier")
    flag("-persistent-imbalance", dest="persistent_imbalance",
         action="store_true",
         help="draw the imbalance multiplier per column, not per task")
    flag("-wait", dest="wait_us", type=real, default=0.0, metavar="US",
         help="busy_wait: microseconds each task spins")
    flag("-output", dest="payload_bytes", type=count, default=16,
         metavar="BYTES", help="bytes each task hands every dependent")
    flag("-scratch", dest="scratch", type=count, default=0, metavar="BYTES",
         help="working-set bytes per task (memory_bound)")
    flag("-seed", dest="seed", type=count, default=DEFAULT_SEED, metavar="N",
         help="seed of the random patterns and the imbalance draws")
    flag("-and", dest="described", action=_NextGraph, nargs=0, default=(),
         help="describe another graph, run concurrently with this one; it "
         "starts from this one's settings")

    flag = group("app options")
    flag("-runtime", dest="runtime", default="serial", metavar="NAME",
         help="a real executor, or sim:<system> for a modeled system on "
         "the simulator")
    flag("-workers", dest="workers", type=number(int, minimum=1), default=1,
         metavar="N", help="worker count of a real executor")
    flag("-nodes", dest="nodes", type=number(int, minimum=1), default=1,
         metavar="N", help="simulated node count")
    flag("-cores", dest="cores_per_node", type=count, default=0, metavar="N",
         help="simulated cores per node (0: the system's own)")
    flag("-no-validate", dest="validate", action="store_false",
         help="skip validation of every task's inputs")
    flag("-verbose", dest="verbose", action="store_true",
         help="print each graph before running")

    flag = group("fault tolerance (process and cluster executors)")
    flag("-timeout", "--timeout", dest="timeout", metavar="SECONDS",
         type=number(float, minimum=0, exclusive=True),
         help="per-round worker deadline: a wedged worker surfaces as "
         "WorkerTimeoutError instead of a hang (TASKBENCH_TIMEOUT)")
    flag("-max-retries", "--max-retries", dest="max_retries", metavar="N",
         type=number(int, minimum=0),
         help="retry a run or probe whose worker crashed or timed out, with "
         "backoff; the pool heals between attempts (TASKBENCH_MAX_RETRIES)")
    flag("-inject-fault", "--inject-fault", dest="inject_fault", type=_fault,
         metavar="SPEC",
         help="arm one fault, kind:worker:round[:seconds] with kind one of "
         "crash (SIGKILL), wedge (SIGTERM-ignoring busy loop), delay "
         "(transient stall) (TASKBENCH_INJECT_FAULT)")


def _graph(ns: argparse.Namespace, graph_index: int) -> TaskGraph:
    kernel = Kernel(
        kernel_type=ns.kernel,
        iterations=ns.iterations,
        span_bytes=ns.span,
        imbalance=ns.imbalance,
        persistent=ns.persistent_imbalance,
        wait_us=ns.wait_us,
    )
    return TaskGraph(
        timesteps=ns.steps,
        max_width=ns.width,
        dependence=ns.pattern,
        radix=ns.radix,
        period=ns.period,
        fraction_connected=ns.fraction,
        kernel=kernel,
        output_bytes_per_task=ns.payload_bytes,
        scratch_bytes_per_task=ns.scratch,
        graph_index=graph_index,
        seed=ns.seed,
    )


def build_config(ns: argparse.Namespace) -> AppConfig:
    """The :class:`AppConfig` a namespace parsed from :func:`add_arguments`'
    flags describes (the underlying dataclasses re-validate ranges)."""
    try:
        graphs = [_graph(d, k) for k, d in enumerate((*ns.described, ns))]
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return AppConfig(graphs=graphs, **{
        f.name: getattr(ns, f.name) for f in fields(AppConfig) if f.name != "graphs"
    })


def parse_args(argv: Sequence[str]) -> AppConfig:
    """Parse a Task Bench command line into an :class:`AppConfig`.

    Raises :class:`ConfigError` on unknown flags, missing values, or invalid
    parameter combinations.
    """
    parser = Parser()
    add_arguments(parser)
    return build_config(parser.parse_args(argv))


def default_graph(**overrides: Any) -> TaskGraph:
    """A small stencil/compute graph useful as a starting configuration."""
    base: dict = dict(
        timesteps=10,
        max_width=4,
        dependence=DependenceType.STENCIL_1D,
        kernel=Kernel(kernel_type=KernelType.COMPUTE_BOUND, iterations=16),
        output_bytes_per_task=16,
    )
    base.update(overrides)
    return TaskGraph(**base)
