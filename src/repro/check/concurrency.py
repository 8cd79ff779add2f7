"""Concurrency analysis: lock-order/blocking-call lint + a lockset sanitizer.

The METG methodology is meaningless if an executor can deadlock or race its
way to a fast number, and the repo's two heavily-threaded subsystems (the
thread-side schedulers and the ``repro.cluster`` socket mesh) earned their
fault-tolerance layers *reactively* — the zero-length-frame spin and the
blocked-recv hang of PRs 3-4 shipped before anything could flag them.  This
pass makes those bug classes detectable before they run, in two halves.

**Static AST analysis** (:func:`lint_concurrency` /
:func:`lint_concurrency_sources`) over every module of ``src/repro``:

* ``conc-lock-cycle``: the per-module lock-order graph — an edge A→B for
  every ``with B`` lexically nested inside ``with A`` — contains a cycle,
  the classic two-thread deadlock shape.  Conditions constructed over a
  named lock (``Condition(self.lock)``) alias that lock, so mixing the two
  spellings cannot hide an inversion; self-edges on a non-reentrant
  ``Lock`` are flagged too.
* ``conc-unpaired-acquire``: a bare ``lock.acquire()`` with no
  ``lock.release()`` in any ``finally`` block of the same function — an
  exception between the two leaks the lock forever.  Use ``with``.
* ``conc-unguarded-wait``: a ``Condition.wait()`` not inside a ``while``
  loop.  A woken waiter must re-check its predicate; ``if``-guarded waits
  lose wakeups (and spurious wakeups are allowed by the API).
* ``conc-blocking-under-lock``: a blocking call — socket I/O, ``recv``,
  ``join``, queue ``get``, ``sleep``, a wait on some *other* primitive —
  made while a lock is lexically held.  This is the exact shape of the
  PR 3/PR 4 hang bugs: the blocked holder stalls every thread that needs
  the lock, including the one that would have unblocked it.  Waiting on
  the *held* condition itself (the release-and-wait idiom) is exempt.

All rules are waivable per line with ``# check: allow[<rule>]`` (rule =
the code without its ``conc-`` prefix), the same escape hatch as
:mod:`repro.check.api_lint`.  The analysis is lexical and per-function:
lock acquisitions hidden behind a method call are invisible to it, which
is the half the runtime sanitizer covers.

**Runtime lockset sanitizer** (:func:`instrument` / :func:`sanitized_run`):
an opt-in layer (``task-bench ... --sanitize``, which composes with
``--audit`` and ``--trace``) that replaces
``threading.Lock``/``RLock`` with recording proxies.  Each thread carries a
live lockset and a vector clock; releasing a lock publishes the releaser's
clock into the lock, acquiring joins it — so the clocks encode exactly the
happens-before edges *real* synchronization creates (lock hand-offs),
unlike :mod:`repro.check.hb_audit`, which trusts the publish/acquire trace
events themselves to synchronize.  The sanitizer is one of the run's sinks
(:func:`repro.runtimes._common.observing`) — beside the audit's recorder,
the conformance capture and the span recorder, none excluding another —
and sees each event in the thread that reached it: every published task
buffer is stamped with its writer's (thread, lockset, clock) and every
cross-thread read is checked Eraser-style: if the reader shares no lock
with the writer (empty candidate lockset) *and* has no happens-before edge
covering the publish, the access is flagged ``conc-lockset-race`` — even
when the bytes happen to be right.  The sanitizer slows the run (measured
~10-20% on the threads executor smoke config, see
``benchmarks/results/sanitizer_overhead.json``); sanitized timings must
never be reported as METG numbers.
"""

from __future__ import annotations

import ast
import contextlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.diagnostics import Diagnostic, error, findings, info
from ..core.executor_base import Executor
from ..core.metrics import RunResult
from ..core.task_graph import TaskGraph
from ..runtimes._common import (
    EV_ACQUIRE,
    EV_PUBLISH,
    TaskKey,
    observing,
)
from .api_lint import _attr_chain, _waivers
from .hb_audit import AuditResult, _VectorClock, audit_run

# ----------------------------------------------------------------------
# Static half: lock declarations
# ----------------------------------------------------------------------
#: Constructors whose result is a mutual-exclusion primitive.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}

#: Calls that block unconditionally, whatever the receiver is called.
_HARD_BLOCKING = {
    "recv", "recv_into", "recv_bytes", "recv_frame", "accept",
    "sendall", "sendmsg", "send_frame", "send_bytes", "select", "sleep",
}

#: Calls that block only on waitable receivers; flagged when the receiver's
#: name says it is one (a thread, socket, queue, pipe, process, future...).
_HINTED_BLOCKING = {"join", "get", "wait", "connect", "flush", "poll", "result"}

#: Receiver-name components (underscores stripped, lowercased) that mark a
#: receiver as waitable for the ``_HINTED_BLOCKING`` rules.
_BLOCKING_HINTS = {
    "th", "thread", "threads", "proc", "process", "procs", "worker",
    "workers", "sock", "socket", "conn", "pipe", "peer", "peers", "queue",
    "q", "mailbox", "mail", "sender", "receiver", "listener", "fsock",
    "endpoint", "ep", "future", "futures", "fut", "event", "ev", "barrier",
    "pool",
}


@dataclass
class _LockDecl:
    """One lock-like object declared in the module."""

    lock_id: str  #: canonical identity used in the order graph
    kind: str  #: "lock" (non-reentrant) | "rlock" | "condition"
    reentrant: bool
    is_condition: bool
    lineno: int


class _LockTable:
    """Lock declarations of one module, with use-site resolution.

    Identity is ``Class.attr`` for ``self.attr = threading.Lock()``
    declarations and the bare name for module- or function-level ones.  A
    ``Condition(existing_lock)`` aliases the named lock: both spellings
    resolve to one canonical id, so an inversion cannot hide behind the
    condition wrapper.
    """

    def __init__(self) -> None:
        self.by_class: Dict[Tuple[str, str], _LockDecl] = {}
        self.by_name: Dict[str, _LockDecl] = {}
        #: attribute name -> class names declaring a lock under it
        self.attr_owners: Dict[str, List[str]] = {}

    # -- collection ----------------------------------------------------
    def collect(self, tree: ast.Module) -> None:
        self._visit(tree, None)

    def _visit(self, node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, child.name)
                continue
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                self._maybe_declare(child.targets[0], child.value, cls)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                self._maybe_declare(child.target, child.value, cls)
            self._visit(child, cls)

    def _factory(self, value: ast.expr) -> Optional[str]:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = ""
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name if name in _LOCK_FACTORIES else None

    def _maybe_declare(
        self, target: ast.expr, value: ast.expr, cls: Optional[str]
    ) -> None:
        factory = self._factory(value)
        if factory is None:
            return
        is_condition = factory == "Condition"
        reentrant = factory == "RLock"
        alias: Optional[_LockDecl] = None
        if is_condition:
            call = value
            assert isinstance(call, ast.Call)
            if call.args:
                alias = self.resolve(call.args[0], cls)
            else:
                # Condition() wraps a fresh RLock: reentrant.
                reentrant = True
        lineno = getattr(target, "lineno", 0)
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and cls is not None
        ):
            attr = target.attr
            decl = alias or _LockDecl(
                f"{cls}.{attr}", factory.lower(), reentrant, is_condition, lineno
            )
            if is_condition and alias is not None:
                decl = _LockDecl(
                    alias.lock_id, alias.kind, alias.reentrant, True, lineno
                )
            self.by_class[(cls, attr)] = decl
            self.attr_owners.setdefault(attr, []).append(cls)
        elif isinstance(target, ast.Name):
            name = target.id
            decl = alias or _LockDecl(
                name, factory.lower(), reentrant, is_condition, lineno
            )
            if is_condition and alias is not None:
                decl = _LockDecl(
                    alias.lock_id, alias.kind, alias.reentrant, True, lineno
                )
            self.by_name[name] = decl

    # -- resolution ----------------------------------------------------
    def resolve(
        self, expr: ast.expr, ctx_class: Optional[str]
    ) -> Optional[_LockDecl]:
        """The declaration a use-site expression refers to, if any."""
        chain = _attr_chain(expr)
        if not chain:
            return None
        if len(chain) == 1:
            return self.by_name.get(chain[0])
        attr = chain[-1]
        if chain[0] == "self" and ctx_class is not None:
            decl = self.by_class.get((ctx_class, attr))
            if decl is not None:
                return decl
        owners = self.attr_owners.get(attr, [])
        if len(owners) == 1:
            return self.by_class.get((owners[0], attr))
        return None


# ----------------------------------------------------------------------
# Static half: per-function scan
# ----------------------------------------------------------------------
_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _functions(tree: ast.Module) -> List[Tuple[_FunctionNode, Optional[str]]]:
    """Every function/method of the module, paired with its class context.

    Nested functions are listed separately (they run on their own thread in
    the worker-closure idiom, so each gets a fresh held-lock context)."""
    out: List[Tuple[_FunctionNode, Optional[str]]] = []

    def visit(node: ast.AST, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, cls))
                visit(child, cls)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


@dataclass
class _AcquireSite:
    decl: _LockDecl
    node: ast.Call


class _ConcurrencyLinter:
    """Lexical concurrency lint of one module."""

    def __init__(self, rel: str, source: str) -> None:
        self.rel = rel
        self.waivers = _waivers(source)
        self.tree = ast.parse(source, filename=rel)
        self.locks = _LockTable()
        self.locks.collect(self.tree)
        self.out: List[Diagnostic] = []
        #: (holder, acquired) -> example location
        self.edges: Dict[Tuple[str, str], str] = {}
        # per-function scan state
        self._ctx_class: Optional[str] = None
        self._held: List[str] = []
        self._while_depth = 0
        self._in_finally = False
        self._acquires: List[_AcquireSite] = []
        self._finally_releases: Set[str] = set()

    def _loc(self, node: ast.AST) -> str:
        return f"{self.rel}:{getattr(node, 'lineno', 0)}"

    def _waived(self, node: ast.AST, rule: str) -> bool:
        return rule in self.waivers.get(getattr(node, "lineno", -1), set())

    # ------------------------------------------------------------------
    def run(self) -> List[Diagnostic]:
        for fn, cls in _functions(self.tree):
            self._scan_function(fn, cls)
        self._check_cycles()
        return self.out

    # ------------------------------------------------------------------
    def _scan_function(self, fn: _FunctionNode, cls: Optional[str]) -> None:
        self._ctx_class = cls
        self._held = []
        self._while_depth = 0
        self._in_finally = False
        self._acquires = []
        self._finally_releases = set()
        self._visit_block(fn.body)
        for site in self._acquires:
            if site.decl.lock_id in self._finally_releases:
                continue
            if self._waived(site.node, "unpaired-acquire"):
                continue
            self.out.append(
                error(
                    "conc-unpaired-acquire",
                    f"{site.decl.lock_id}.acquire() has no matching "
                    "release() in a finally block of this function — an "
                    "exception between the two leaks the lock forever",
                    self._loc(site.node),
                    "use 'with' (or release in a try/finally), or waive "
                    "with '# check: allow[unpaired-acquire]'",
                )
            )

    def _visit_block(self, stmts: Sequence[ast.stmt]) -> None:
        for st in stmts:
            if isinstance(
                st, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # scanned as its own function / class
            if isinstance(st, (ast.With, ast.AsyncWith)):
                pushed = 0
                for item in st.items:
                    self._scan_expr(item.context_expr)
                    decl = self.locks.resolve(item.context_expr, self._ctx_class)
                    if decl is None:
                        continue
                    for holder in self._held:
                        if holder != decl.lock_id or not decl.reentrant:
                            self.edges.setdefault(
                                (holder, decl.lock_id), self._loc(st)
                            )
                    self._held.append(decl.lock_id)
                    pushed += 1
                self._visit_block(st.body)
                for _ in range(pushed):
                    self._held.pop()
            elif isinstance(st, ast.While):
                self._scan_expr(st.test)
                self._while_depth += 1
                self._visit_block(st.body)
                self._visit_block(st.orelse)
                self._while_depth -= 1
            elif isinstance(st, (ast.For, ast.AsyncFor)):
                self._scan_expr(st.iter)
                self._visit_block(st.body)
                self._visit_block(st.orelse)
            elif isinstance(st, ast.If):
                self._scan_expr(st.test)
                self._visit_block(st.body)
                self._visit_block(st.orelse)
            elif isinstance(st, ast.Try):
                self._visit_block(st.body)
                for handler in st.handlers:
                    self._visit_block(handler.body)
                self._visit_block(st.orelse)
                saved = self._in_finally
                self._in_finally = True
                self._visit_block(st.finalbody)
                self._in_finally = saved
            else:
                self._scan_expr(st)

    def _scan_expr(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._classify_call(sub)

    # ------------------------------------------------------------------
    def _classify_call(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        decl = self.locks.resolve(func.value, self._ctx_class)
        if attr == "acquire" and decl is not None:
            self._acquires.append(_AcquireSite(decl, call))
            return
        if attr == "release" and decl is not None:
            if self._in_finally:
                self._finally_releases.add(decl.lock_id)
            return
        if attr == "wait" and decl is not None and decl.is_condition:
            if self._while_depth == 0 and not self._waived(
                call, "unguarded-wait"
            ):
                self.out.append(
                    error(
                        "conc-unguarded-wait",
                        f"{decl.lock_id}.wait() is not inside a while "
                        "loop — a woken waiter must re-check its "
                        "predicate or a lost/spurious wakeup returns it "
                        "with the condition still false",
                        self._loc(call),
                        "wrap the wait in 'while not <predicate>:', or "
                        "waive with '# check: allow[unguarded-wait]'",
                    )
                )
            others = [h for h in self._held if h != decl.lock_id]
            if others and not self._waived(call, "blocking-under-lock"):
                self.out.append(
                    error(
                        "conc-blocking-under-lock",
                        f"{decl.lock_id}.wait() releases only its own "
                        f"lock; {', '.join(sorted(set(others)))} stays "
                        "held while this thread sleeps",
                        self._loc(call),
                        "drop the outer lock before waiting",
                    )
                )
            return
        # -- blocking calls while holding a lock ------------------------
        if not self._held:
            return
        hinted = False
        if attr in _HINTED_BLOCKING:
            parts = {
                p.lstrip("_").lower() for p in _attr_chain(func.value)
            }
            hinted = bool(parts & _BLOCKING_HINTS)
        if (attr in _HARD_BLOCKING or hinted) and not self._waived(
            call, "blocking-under-lock"
        ):
            held = ", ".join(sorted(set(self._held)))
            self.out.append(
                error(
                    "conc-blocking-under-lock",
                    f"blocking call .{attr}() while holding {held} — if "
                    "the call never returns, every thread needing the "
                    "lock hangs with it (the PR 3/PR 4 hang shape)",
                    self._loc(call),
                    "move the blocking call outside the lock, or waive "
                    "a bounded/leaf-lock case with "
                    "'# check: allow[blocking-under-lock]'",
                )
            )

    # ------------------------------------------------------------------
    def _check_cycles(self) -> None:
        graph: Dict[str, Set[str]] = {}
        for a, b in self.edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        # Self-edges: re-acquiring a non-reentrant lock deadlocks alone.
        for (a, b), loc in sorted(self.edges.items()):
            if a == b:
                self.out.append(
                    error(
                        "conc-lock-cycle",
                        f"{a} is acquired while already held and is not "
                        "reentrant — the thread deadlocks on itself",
                        loc,
                        "use an RLock, or restructure to acquire once",
                    )
                )
        # Proper cycles: iterative DFS with an on-stack set.
        color: Dict[str, int] = {}  # 0 unvisited / 1 on stack / 2 done
        reported: Set[FrozenSet[str]] = set()

        def dfs(start: str) -> None:
            stack: List[Tuple[str, Iterator[str]]] = [
                (start, iter(sorted(graph.get(start, ()))))
            ]
            color[start] = 1
            path = [start]
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ == node:
                        continue
                    if color.get(succ, 0) == 1:
                        cycle = path[path.index(succ):] + [succ]
                        key = frozenset(cycle)
                        if key not in reported:
                            reported.add(key)
                            chain = " -> ".join(cycle)
                            locs = "; ".join(
                                self.edges.get((x, y), "")
                                for x, y in zip(cycle, cycle[1:])
                            )
                            self.out.append(
                                error(
                                    "conc-lock-cycle",
                                    f"lock-order cycle {chain}: two "
                                    "threads taking these locks in "
                                    "opposite orders deadlock "
                                    f"(acquisition sites: {locs})",
                                    self.edges.get(
                                        (cycle[0], cycle[1]), self.rel
                                    ),
                                    "impose one global acquisition order "
                                    "for these locks",
                                )
                            )
                    elif color.get(succ, 0) == 0:
                        color[succ] = 1
                        path.append(succ)
                        stack.append((succ, iter(sorted(graph.get(succ, ())))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    path.pop()
                    stack.pop()

        for node in sorted(graph):
            if color.get(node, 0) == 0:
                dfs(node)


# ----------------------------------------------------------------------
# Static half: entry points
# ----------------------------------------------------------------------
def lint_concurrency(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Concurrency-lint one module's source text."""
    try:
        linter = _ConcurrencyLinter(filename, source)
    except SyntaxError as exc:
        return [
            error(
                "conc-syntax",
                f"cannot parse module: {exc.msg}",
                f"{filename}:{exc.lineno or 0}",
            )
        ]
    return linter.run()


def lint_concurrency_sources(
    package_dir: str | Path | None = None,
) -> List[Diagnostic]:
    """Concurrency-lint every module of the package (default: ``repro``).

    Unlike the executor-contract lint — which only covers
    :mod:`repro.runtimes` — this pass walks the whole source tree: the
    cluster transport, the buffer pools, and the check machinery itself
    all hold locks.
    """
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    package_dir = Path(package_dir)
    out: List[Diagnostic] = []
    scanned = 0
    for path in sorted(package_dir.rglob("*.py")):
        rel = f"{package_dir.name}/{path.relative_to(package_dir)}"
        out.extend(lint_concurrency(path.read_text(encoding="utf-8"), rel))
        scanned += 1
    out.append(
        info(
            "conc-scan",
            f"concurrency-linted {scanned} modules under {package_dir.name}/",
            "concurrency",
        )
    )
    return out


# ----------------------------------------------------------------------
# Runtime half: lockset sanitizer
# ----------------------------------------------------------------------
#: The real primitives, captured at import so the sanitizer's own state is
#: never built from (or hidden behind) its own proxies.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


@dataclass
class SanitizerStats:
    """Instrumentation counters of one sanitized run."""

    lock_acquires: int = 0
    lock_releases: int = 0
    locks_created: int = 0
    publishes_seen: int = 0
    reads_checked: int = 0
    injected_stalls: int = 0


@dataclass
class _PublishStamp:
    """Writer-side state captured at one buffer's publish."""

    thread: int
    lockset: FrozenSet[int]
    clock: _VectorClock


class LockSanitizer:
    """Process-wide lockset + happens-before state for a sanitized run.

    Installed by :func:`instrument`; every sanitized primitive and every
    trace event reports into it.  Thread clocks advance on each lock
    operation; a release joins the releaser's clock into the lock, an
    acquire joins the lock's clock into the acquirer — so ``a.clock >=
    b.clock_at(e)`` holds exactly when a chain of real lock hand-offs
    orders event ``e`` before ``a``'s present.  Publishes additionally
    tick the writer's clock, so a reader can only dominate a publish
    through synchronization the writer performed *after* publishing.
    """

    def __init__(self) -> None:
        self._meta = _REAL_LOCK()
        self._next_lock_id = 0
        self._thread_idx: Dict[int, int] = {}
        self._thread_vc: Dict[int, _VectorClock] = {}
        self._lock_vc: Dict[int, _VectorClock] = {}
        self._held: Dict[int, Dict[int, int]] = {}
        #: Every publish of a buffer keeps its stamp: an executor may
        #: legitimately publish one output through several channels (e.g.
        #: a mailbox post plus a local store put), and a reader is
        #: synchronized if it is ordered after ANY of them.
        self._publishes: Dict[TaskKey, List[_PublishStamp]] = {}
        self._reported: Set[Tuple[TaskKey, TaskKey]] = set()
        self.diagnostics: List[Diagnostic] = []
        self.stats = SanitizerStats()

    # -- bookkeeping (meta-lock held) ----------------------------------
    def _ticked_clock(self, ident: int) -> _VectorClock:
        idx = self._thread_idx.setdefault(ident, len(self._thread_idx))
        vc = self._thread_vc.get(ident)
        if vc is None:
            vc = _VectorClock()
            self._thread_vc[ident] = vc
        vc.tick(idx)
        return vc

    def new_lock_id(self) -> int:
        with self._meta:
            self._next_lock_id += 1
            self.stats.locks_created += 1
            return self._next_lock_id

    # -- proxy callbacks -----------------------------------------------
    def on_acquire(self, lock_id: int, count: int = 1) -> None:
        ident = threading.get_ident()
        with self._meta:
            self.stats.lock_acquires += 1
            held = self._held.setdefault(ident, {})
            held[lock_id] = held.get(lock_id, 0) + count
            vc = self._ticked_clock(ident)
            lvc = self._lock_vc.get(lock_id)
            if lvc is not None:
                vc.join(lvc)

    def on_release(self, lock_id: int, count: int = 1) -> None:
        ident = threading.get_ident()
        with self._meta:
            self.stats.lock_releases += 1
            held = self._held.setdefault(ident, {})
            depth = held.get(lock_id, 0) - count
            if depth > 0:
                held[lock_id] = depth
            else:
                held.pop(lock_id, None)
            vc = self._ticked_clock(ident)
            lvc = self._lock_vc.setdefault(lock_id, _VectorClock())
            lvc.join(vc)

    def release_all(self, lock_id: int) -> int:
        """Fully release a reentrant hold (Condition.wait); returns the
        recursion depth released so it can be restored afterwards."""
        ident = threading.get_ident()
        with self._meta:
            held = self._held.setdefault(ident, {})
            depth = held.pop(lock_id, 0)
            if depth:
                self.stats.lock_releases += 1
                vc = self._ticked_clock(ident)
                lvc = self._lock_vc.setdefault(lock_id, _VectorClock())
                lvc.join(vc)
            return max(depth, 1)

    def note_stall(self, seconds: float) -> None:
        """Record an injected transient stall (see :mod:`repro.faults`)."""
        with self._meta:
            self.stats.injected_stalls += 1

    # -- sink protocol (repro.runtimes._common.observing) ---------------
    wants_output = False
    already = "a lock sanitizer is already installed"

    def event(self, kind: str, task: TaskKey, source: TaskKey | None) -> None:
        ident = threading.get_ident()
        if kind == EV_PUBLISH:
            with self._meta:
                self.stats.publishes_seen += 1
                vc = self._ticked_clock(ident)
                self._publishes.setdefault(task, []).append(
                    _PublishStamp(
                        ident,
                        frozenset(self._held.get(ident, ())),
                        vc.snapshot(),
                    )
                )
        elif kind == EV_ACQUIRE and source is not None:
            with self._meta:
                self.stats.reads_checked += 1
                stamps = self._publishes.get(source)
                if not stamps:
                    return  # no publish seen: hb_audit's department
                reader_locks = frozenset(self._held.get(ident, ()))
                rvc = self._thread_vc.get(ident)
                for stamp in stamps:
                    if stamp.thread == ident:
                        return  # program order within one thread
                    if stamp.lockset & reader_locks:
                        return  # a common lock protects the buffer
                    if rvc is not None and rvc.dominates(stamp.clock):
                        return  # a real lock hand-off orders the access
                stamp = stamps[-1]
                if (source, task) in self._reported:
                    return
                self._reported.add((source, task))
                gi, t, i = source
                rgi, rt, ri = task
                self.diagnostics.append(
                    error(
                        "conc-lockset-race",
                        f"the output of graph {gi} (t={t}, i={i}) was "
                        f"published on thread {stamp.thread} and read by "
                        f"graph {rgi} (t={rt}, i={ri}) on thread {ident} "
                        "with an empty candidate lockset and no "
                        "happens-before edge from any lock hand-off — "
                        "the read races the write even if the bytes "
                        "happen to validate",
                        f"graph {rgi} (t={rt}, i={ri})",
                        "protect the shared buffer with one common lock, "
                        "or route it through a synchronizing channel "
                        "(condition, queue) the reader actually waits on",
                    )
                )


class _SanitizedLock:
    """Recording proxy over a real ``Lock``/``RLock``.

    Implements the full lock protocol plus the private
    ``_release_save``/``_acquire_restore``/``_is_owned`` trio
    ``threading.Condition`` probes for, so conditions built over a
    sanitized lock keep exact wait semantics (including reentrant holds)
    while every transition is recorded.
    """

    def __init__(self, san: LockSanitizer, inner: Any, reentrant: bool) -> None:
        self._san = san
        self._inner = inner
        self._reentrant = reentrant
        self._id = san.new_lock_id()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = bool(self._inner.acquire(blocking, timeout))
        if ok:
            self._san.on_acquire(self._id)
        return ok

    def release(self) -> None:
        # Record first: the lock's clock must carry this thread's history
        # before any waiter can possibly acquire.
        self._san.on_release(self._id)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        if probe is not None:
            return bool(probe())
        return self._is_owned()

    # -- Condition integration -----------------------------------------
    def _release_save(self) -> Tuple[Any, int, bool]:
        if self._reentrant:
            depth = self._san.release_all(self._id)
            return (self._inner._release_save(), depth, True)
        self._san.on_release(self._id)
        self._inner.release()
        return (None, 1, False)

    def _acquire_restore(self, state: Tuple[Any, int, bool]) -> None:
        inner_state, depth, reentrant = state
        if reentrant:
            self._inner._acquire_restore(inner_state)
        else:
            self._inner.acquire()
        self._san.on_acquire(self._id, count=depth)

    def _is_owned(self) -> bool:
        if self._reentrant:
            return bool(self._inner._is_owned())
        # Plain-lock probe (the stdlib fallback): unrecorded on purpose.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<sanitized {'RLock' if self._reentrant else 'Lock'} #{self._id}>"


_active: LockSanitizer | None = None


def active_sanitizer() -> LockSanitizer | None:
    """The installed sanitizer, or ``None`` outside :func:`instrument`."""
    return _active


@contextlib.contextmanager
def instrument() -> Iterator[LockSanitizer]:
    """Install the lockset sanitizer for the duration of the block.

    Replaces ``threading.Lock`` and ``threading.RLock`` with recording
    proxies (``threading.Condition`` and everything built on these —
    ``Event``, ``queue.Queue`` — is covered transitively, because the
    stdlib constructs their internals through the patched names) and
    installs the sanitizer as one of the run's sinks
    (:func:`repro.runtimes._common.observing`), beside whatever else is
    watching.  Locks created *inside* the block are sanitized; construct
    the executor inside it, or use :func:`sanitized_run`, which does.
    Process-wide and non-reentrant.
    """
    global _active
    san = LockSanitizer()

    def make_lock() -> _SanitizedLock:
        return _SanitizedLock(san, _REAL_LOCK(), reentrant=False)

    def make_rlock() -> _SanitizedLock:
        return _SanitizedLock(san, _REAL_RLOCK(), reentrant=True)

    with observing(san):
        _active = san
        threading.Lock = make_lock  # type: ignore[assignment]
        threading.RLock = make_rlock  # type: ignore[assignment]
        try:
            yield san
        finally:
            threading.Lock = _REAL_LOCK  # type: ignore[assignment]
            threading.RLock = _REAL_RLOCK  # type: ignore[assignment]
            _active = None


# ----------------------------------------------------------------------
# Runtime half: sanitized execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SanitizeResult:
    """Outcome of a sanitized run: the normal result, the schedule audit,
    the lockset findings, and the instrumentation counters."""

    run: RunResult
    diagnostics: List[Diagnostic]
    num_events: int
    stats: SanitizerStats = field(default_factory=SanitizerStats)

    @property
    def ok(self) -> bool:
        """True when neither the audit nor the sanitizer found anything."""
        return not findings(self.diagnostics)

    @classmethod
    def of(
        cls, audit: AuditResult, san: LockSanitizer, name: str
    ) -> "SanitizeResult":
        """Fold the schedule audit of a run on the executor called ``name``
        and what ``san`` saw of it into one result."""
        note = info(
            "conc-sanitize",
            f"sanitized run of executor {name!r}: "
            f"{san.stats.lock_acquires} lock acquires, "
            f"{san.stats.publishes_seen} publishes, "
            f"{san.stats.reads_checked} reads checked",
            "sanitize",
        )
        return cls(
            run=audit.run,
            diagnostics=[*audit.diagnostics, *san.diagnostics, note],
            num_events=audit.num_events,
            stats=san.stats,
        )

    def summary(self) -> str:
        """The sanitizer summary line and the timing caveat."""
        n = len(findings(self.diagnostics))
        status = "clean" if n == 0 else f"{n} finding(s)"
        return (
            f"Sanitizer {status} ({self.num_events} events, "
            f"{self.stats.lock_acquires} lock acquires on "
            f"{self.stats.locks_created} locks)\n"
            "Note: sanitized timings include instrumentation overhead — "
            "never report them as METG numbers"
        )

    def report(self) -> str:
        """The run report plus the sanitizer summary."""
        return f"{self.run.report()}\n{self.summary()}"


def sanitized_run(
    executor: Executor | Callable[[], Executor],
    graphs: Sequence[TaskGraph],
    *,
    validate: bool = True,
) -> SanitizeResult:
    """Execute ``graphs`` under the lockset sanitizer and the schedule
    audit, and fold both diagnostic streams into one result.

    Pass a zero-arg *factory* rather than a built executor when its locks
    are created at construction time — the factory is invoked inside
    :func:`instrument`, so those locks are sanitized too (a factory-made
    executor is also closed here, since the caller never sees it).
    """
    owned: Executor | None = None
    with instrument() as san:
        if isinstance(executor, Executor):
            ex = executor
        else:
            ex = owned = executor()
        try:
            audit = audit_run(ex, graphs, validate=validate)
        finally:
            if owned is not None:
                owned.close()
    return SanitizeResult.of(audit, san, ex.name)
