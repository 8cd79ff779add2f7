"""Executor-contract lint: AST checks over :mod:`repro.runtimes`.

The O(m + n) property of Task Bench (paper §1) holds only while every
runtime shim honors the same small contract.  This pass enforces the repo's
invariants statically, without importing the modules:

* ``api-missing-member``: every ``Executor`` subclass must define ``name``
  and ``execute_graphs`` (``cores`` defaults to ``workers`` in the base
  class).
* ``api-kernel-bypass``: kernels run only through ``run_task`` /
  ``run_point`` / ``execute_point`` / ``execute_row``; calling
  ``kernel.execute`` or an ``execute_kernel_*`` function directly would
  skip input validation and trace hooks.
* ``api-timing``: no wall-clock calls inside executor code — the timing
  contract lives in ``Executor.run``, which times ``execute_graphs`` from
  the outside.  Waivable per line with ``# check: allow[timing]`` for
  executors that deliberately model overhead.
* ``api-unlocked-mutation``: inside worker closures (functions nested in
  ``execute_graphs``, which run on worker threads), mutations of shared
  (enclosing-scope) containers must be lexically inside a ``with`` block —
  the idiom every executor here uses for lock-protected scheduler state.
  Waivable with ``# check: allow[shared-mutation]``.
* ``api-raw-shm``: runtime modules must not construct
  ``multiprocessing.shared_memory.SharedMemory`` segments directly; segment
  lifecycle (creation, generation tagging, unlinking) belongs to
  :mod:`repro.core.bufpool`, whose pools are the only owners the leak
  checks cover.  Waivable with ``# check: allow[raw-shm]``.
* ``api-ref-leak``: a runtime module that acquires pool handles
  (``.acquire()`` / ``.acquire_batch()`` on a pool-named receiver) must
  also release them somewhere (``.decref()`` / ``.decref_batch()`` /
  ``.close()``) — acquire-only modules leak slots by construction.
  Waivable with ``# check: allow[ref-leak]``.

Executor classes are recognized transitively: a class subclassing another
executor class *in the same module* inherits its contract members, and
private (``_``-prefixed) executor bases are abstract — they contribute
members to subclasses but need not be complete themselves.

``task-bench check --self`` runs this lint over the repo's own runtimes and
must pass clean; it is wired into CI so every hot-path change is gated.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

from ..core.diagnostics import Diagnostic, error

#: Wall-clock functions banned inside executor code (``api-timing``).
_TIMING_CALLS = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
                 "time", "time_ns", "process_time", "clock"}

#: Container methods treated as mutations of shared state.
_MUTATING_METHODS = {"append", "appendleft", "pop", "popleft", "add", "remove",
                     "discard", "clear", "extend", "insert", "update",
                     "setdefault", "popitem"}

#: Files in the runtimes package that hold no executors.
_SKIP_FILES = {"__init__.py"}


def _waivers(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of waived rules (``# check: allow[rule]``)."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        marker = "check: allow["
        pos = line.find(marker)
        while pos != -1:
            end = line.find("]", pos)
            if end == -1:
                break
            rule = line[pos + len(marker):end].strip()
            out.setdefault(lineno, set()).add(rule)
            pos = line.find(marker, end)
    return out


def _base_names(node: ast.ClassDef) -> List[str]:
    out: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            out.append(base.id)
        elif isinstance(base, ast.Attribute):
            out.append(base.attr)
    return out


def _executor_classes(module: ast.Module) -> List[ast.ClassDef]:
    """Executor subclasses of the module, found transitively: subclassing
    ``Executor`` directly, or subclassing another executor class defined in
    the same module."""
    classes = [n for n in module.body if isinstance(n, ast.ClassDef)]
    executor_like: Set[str] = {"Executor"}
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in executor_like:
                continue
            if any(b in executor_like for b in _base_names(cls)):
                executor_like.add(cls.name)
                changed = True
    return [c for c in classes if c.name in executor_like]


#: Receivers the ``api-ref-leak`` pairing rule applies to: pool handles are
#: acquired from objects whose names say so (``pool``, ``buffers``,
#: ``slab``...); bare ``lock.acquire()`` is not a pool acquisition.
_POOLISH = ("pool", "buf", "slab")

#: Pool-handle release calls that balance an ``acquire``.
_RELEASE_METHODS = {"decref", "decref_batch", "close"}

#: The sanctioned ways to run a kernel, as the rule's message names them.
_KERNEL_ENTRY_POINTS = "run_task/run_point/execute_point/execute_row"

_KERNEL_BYPASS_HINT = (
    "call _common.run_task (or run_point, which also gathers and "
    "publishes), graph.execute_row for a column block, or "
    "graph.execute_point instead"
)


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attr_chain(node: ast.expr) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    """Names bound inside ``fn`` (hence *not* shared closure state)."""
    names: Set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for t in ast.walk(node.optional_vars):
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            # Explicitly shared again: remove from locals.
            names.difference_update(node.names)
    return names


class _FileLinter:
    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.waivers = _waivers(source)
        self.tree = ast.parse(source, filename=str(path))
        self.out: List[Diagnostic] = []

    def _loc(self, node: ast.AST) -> str:
        return f"{self.rel}:{getattr(node, 'lineno', 0)}"

    def _waived(self, node: ast.AST, rule: str) -> bool:
        return rule in self.waivers.get(getattr(node, "lineno", -1), set())

    # ------------------------------------------------------------------
    def run(self) -> List[Diagnostic]:
        first_acquire: ast.Call | None = None
        releases = False
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_kernel_bypass(node)
                self._check_raw_shm(node)
                func = node.func
                if isinstance(func, ast.Attribute):
                    receiver = _root_name(func.value) or ""
                    poolish = any(p in receiver.lower() for p in _POOLISH)
                    if (
                        func.attr in ("acquire", "acquire_batch")
                        and poolish
                        and first_acquire is None
                        and not self._waived(node, "ref-leak")
                    ):
                        first_acquire = node
                    elif func.attr in _RELEASE_METHODS and poolish:
                        releases = True
        if first_acquire is not None and not releases:
            self.out.append(
                error(
                    "api-ref-leak",
                    "module acquires pool handles but never releases any "
                    "(no decref/decref_batch/close on a pool); slots leak "
                    "by construction",
                    self._loc(first_acquire),
                    "pair every pool.acquire with a decref (or close the "
                    "pool), or waive with '# check: allow[ref-leak]'",
                )
            )
        module_classes = {
            n.name: n for n in self.tree.body if isinstance(n, ast.ClassDef)
        }
        for node in _executor_classes(self.tree):
            if not node.name.startswith("_"):  # private bases are abstract
                self._check_members(node, module_classes)
            self._check_timing(node)
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "execute_graphs"
                ):
                    self._check_shared_mutation(item)
        return self.out

    # ------------------------------------------------------------------
    def _check_members(
        self, cls: ast.ClassDef, module_classes: Dict[str, ast.ClassDef]
    ) -> None:
        def own_members(node: ast.ClassDef) -> Set[str]:
            have: Set[str] = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    have.add(item.name)
                elif isinstance(item, ast.Assign):
                    for t in item.targets:
                        if isinstance(t, ast.Name):
                            have.add(t.id)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    have.add(item.target.id)
            return have

        have: Set[str] = set()
        seen: Set[str] = set()
        stack = [cls.name]
        while stack:  # members inherited from same-module bases count
            name = stack.pop()
            if name in seen or name not in module_classes:
                continue
            seen.add(name)
            node = module_classes[name]
            have |= own_members(node)
            stack.extend(_base_names(node))
        for member in ("name", "execute_graphs"):
            if member not in have:
                self.out.append(
                    error(
                        "api-missing-member",
                        f"executor class {cls.name} does not define "
                        f"{member!r}; the registry and Executor.run require it",
                        self._loc(cls),
                        f"add a {member!r} definition to the class body",
                    )
                )

    def _check_kernel_bypass(self, call: ast.Call) -> None:
        name = _call_name(call.func)
        if name.startswith("execute_kernel_"):
            self.out.append(
                error(
                    "api-kernel-bypass",
                    f"direct call to {name}(); kernels must run via "
                    f"{_KERNEL_ENTRY_POINTS} so inputs are validated and "
                    "events traced",
                    self._loc(call),
                    _KERNEL_BYPASS_HINT,
                )
            )
        elif name == "execute" and isinstance(call.func, ast.Attribute):
            chain = _attr_chain(call.func)
            if "kernel" in chain[:-1]:
                self.out.append(
                    error(
                        "api-kernel-bypass",
                        f"direct call to {'.'.join(chain)}(); kernels must "
                        f"run via {_KERNEL_ENTRY_POINTS}",
                        self._loc(call),
                        _KERNEL_BYPASS_HINT,
                    )
                )

    def _check_raw_shm(self, call: ast.Call) -> None:
        if _call_name(call.func) == "SharedMemory" and not self._waived(
            call, "raw-shm"
        ):
            self.out.append(
                error(
                    "api-raw-shm",
                    "direct SharedMemory() construction in a runtime; "
                    "segment lifecycle (creation, generation tags, "
                    "unlinking) belongs to repro.core.bufpool",
                    self._loc(call),
                    "acquire slots from a SharedMemorySlabPool, or waive "
                    "with '# check: allow[raw-shm]'",
                )
            )

    def _check_timing(self, cls: ast.ClassDef) -> None:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_timing = (
                isinstance(func, ast.Attribute)
                and func.attr in _TIMING_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (isinstance(func, ast.Name) and func.id in _TIMING_CALLS)
            if is_timing and not self._waived(node, "timing"):
                self.out.append(
                    error(
                        "api-timing",
                        "wall-clock call inside an executor; the timing "
                        "contract lives in Executor.run, which times "
                        "execute_graphs from the outside",
                        self._loc(node),
                        "remove the call, or waive a deliberate overhead "
                        "model with '# check: allow[timing]'",
                    )
                )

    def _check_shared_mutation(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Worker closures must mutate shared containers under a ``with``."""
        for nested in ast.walk(fn):
            if nested is fn or not isinstance(
                nested, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            locals_ = _local_names(nested)
            self._walk_mutations(nested, nested, locals_, in_with=False)

    def _walk_mutations(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        locals_: Set[str],
        *,
        in_with: bool,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # handled by its own _check_shared_mutation walk
            child_in_with = in_with or isinstance(
                child, (ast.With, ast.AsyncWith)
            )
            if not child_in_with:
                self._flag_mutation(fn, child, locals_)
            self._walk_mutations(fn, child, locals_, in_with=child_in_with)

    def _flag_mutation(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        locals_: Set[str],
    ) -> None:
        shared: str | None = None
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, (ast.Subscript, ast.Attribute)):
                    root = _root_name(t)
                    if root and root not in locals_ and root != "self":
                        shared = root
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                root = _root_name(func.value)
                if root and root not in locals_ and root != "self":
                    shared = root
        if shared is not None and not self._waived(node, "shared-mutation"):
            self.out.append(
                error(
                    "api-unlocked-mutation",
                    f"worker closure {fn.name!r} mutates shared state "
                    f"{shared!r} outside any 'with' (lock) block",
                    self._loc(node),
                    "guard scheduler state with the executor's lock or "
                    "condition variable, or waive with "
                    "'# check: allow[shared-mutation]'",
                )
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_executor_api(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text against the executor contract."""
    try:
        linter = _FileLinter(Path(filename), filename, source)
    except SyntaxError as exc:
        return [
            error(
                "api-syntax",
                f"cannot parse module: {exc.msg}",
                f"{filename}:{exc.lineno or 0}",
            )
        ]
    return linter.run()


def lint_runtime_sources(package_dir: str | Path | None = None) -> List[Diagnostic]:
    """Lint every module of the runtimes package (default: this repo's).

    Diagnostics carry ``<file>:<line>`` locations relative to the package
    directory's parent, so output is stable across checkouts.
    """
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent / "runtimes"
    package_dir = Path(package_dir)
    out: List[Diagnostic] = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name in _SKIP_FILES:
            continue
        rel = f"{package_dir.name}/{path.name}"
        source = path.read_text(encoding="utf-8")
        try:
            linter = _FileLinter(path, rel, source)
        except SyntaxError as exc:
            out.append(
                error("api-syntax", f"cannot parse module: {exc.msg}",
                      f"{rel}:{exc.lineno or 0}")
            )
            continue
        out.extend(linter.run())
    return out
