"""Executor registry: one ``name -> "module:Class"`` table.

Mirrors the role of Table 3: one entry per runtime paradigm, all driving the
same core library.  New executors are self-contained in one module + one
line here — the O(m + n) property of the paper's design.  An executor's
module is imported when the executor is first asked for, so a process pays
for the core plus the one runtime it runs; the names (``available_runtimes``,
the unknown-name error) are read off the table and import nothing.
Everything else the registry reports (isolation, core cost, accepted
options, shim size) is read off the class.
"""

from __future__ import annotations

from importlib import import_module
from typing import Dict, List, Tuple, Type

from ..core.executor_base import Executor

# ``serial`` is the reference every conformance check compares with and
# needs nothing beyond ``core`` and ``_common``: it is loaded with the
# registry, so ``make_executor("serial")`` never imports inside a timed span.
from . import serial as _serial  # noqa: F401

_RUNTIMES: Dict[str, str] = {
    "serial": "serial:SerialExecutor",
    "bulk_sync": "bulk_sync:BulkSyncExecutor",
    "p2p": "p2p:P2PExecutor",
    "threads": "threads:ThreadPoolTaskExecutor",
    "processes": "processes:ProcessPoolExecutor",
    "shm_processes": "processes:ShmProcessPoolExecutor",
    "dataflow": "dataflow:DataflowExecutor",
    "futures": "futures_rt:FuturesExecutor",
    "asyncio": "async_rt:AsyncioExecutor",
    "ptg": "ptg:PTGExecutor",
    "actors": "actors:ActorExecutor",
    "centralized": "centralized:CentralizedExecutor",
    "cluster_tcp": "cluster_rt:ClusterTCPExecutor",
    "cluster_uds": "cluster_rt:ClusterUDSExecutor",
}

#: Options every runtime accepts, so callers (CLI, suite, serve) can pass
#: fault-tolerance settings without knowing the substrate; only the
#: runtimes that supervise workers declare — and receive — them.
_UNIFORM_OPTIONS = ("timeout", "fault")


def _runtime_class(name: str) -> Type[Executor]:
    try:
        module, _, class_name = _RUNTIMES[name].partition(":")
    except KeyError:
        raise ValueError(
            f"unknown runtime {name!r}; available: {', '.join(available_runtimes())}"
        ) from None
    cls = getattr(import_module(f"{__package__}.{module}"), class_name)
    if cls.name != name:
        raise RuntimeError(
            f"registry entry {name!r} points at {class_name}, "
            f"which calls itself {cls.name!r}"
        )
    return cls


def available_runtimes() -> List[str]:
    """Names of all registered executors."""
    return sorted(_RUNTIMES)


def runtime_isolation(name: str) -> str:
    """Isolation level of a registered executor (``serial`` / ``threads``
    / ``processes`` / ``cluster``) without instantiating it."""
    return _runtime_class(name).isolation


def runtime_core_cost(name: str, workers: int) -> int:
    """Host cores a run of this executor effectively occupies.

    The suite scheduler's admission currency: concurrent cells are admitted
    while their summed costs fit the host's core budget, so two process
    pools never oversubscribe the machine and corrupt each other's
    timings.  ``serial`` costs one core regardless of ``workers``; the
    process/thread substrates cost one core per worker; the cluster
    substrates cost one extra core for the supervising launcher that polls
    the rank mesh.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    isolation = runtime_isolation(name)
    if isolation == "serial":
        return 1
    if isolation == "cluster":
        return workers + 1
    return workers


def runtime_core_cost_formula(name: str) -> str:
    """Human-readable core-cost rule of a registered executor.

    The symbolic counterpart of :func:`runtime_core_cost`, shown by
    ``task-bench --list-runtimes`` so suite/serve admission decisions are
    inspectable without picking a worker count: ``"1"`` (serial),
    ``"workers"`` (one core per worker), or ``"workers+1"`` (cluster
    substrates reserve a core for the supervising launcher).
    """
    isolation = runtime_isolation(name)
    if isolation == "serial":
        return "1"
    if isolation == "cluster":
        return "workers+1"
    return "workers"


def shim_lines(name: str) -> int:
    """Code lines of the module that defines a registered executor — no
    blank lines, comments or docstrings — counted from its source now.

    The productivity axis of the Itoyori/HPX/MPI Task Bench study (Lahnor
    et al.): how much a runtime has to write on top of the shared core.
    """
    import ast
    import inspect
    import io
    import tokenize

    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    not_code = {
        tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER,
    }
    source = inspect.getsource(inspect.getmodule(_runtime_class(name)))
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in not_code:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def describe_runtimes() -> List[Tuple[str, str, str, int]]:
    """``(name, isolation, core-cost formula, shim lines)`` for every
    registered executor, sorted by name (the backing data of
    ``task-bench --list-runtimes``)."""
    return [
        (name, runtime_isolation(name), runtime_core_cost_formula(name),
         shim_lines(name))
        for name in available_runtimes()
    ]


def make_executor(name: str, workers: int = 2, **options) -> Executor:
    """Instantiate a registered executor by name.

    ``workers`` is the degree of parallelism.  ``options`` must be ones the
    executor class declares (``nb_fields`` for ``dataflow``,
    ``dispatch_overhead_us`` for ``centralized``) or the uniformly accepted
    ``timeout`` / ``fault``, which reach the supervised runtimes and are
    dropped for the rest; anything else is an error.
    """
    cls = _runtime_class(name)
    accepted = dict.fromkeys(("workers", *cls.options, *_UNIFORM_OPTIONS))
    unknown = sorted(options.keys() - accepted.keys())
    if unknown:
        raise ValueError(
            f"runtime {name!r} does not accept {', '.join(unknown)}; "
            f"accepted options: {', '.join(accepted)}"
        )
    return cls(workers, **{k: v for k, v in options.items() if k in cls.options})
