"""Static task-graph analysis, schedule auditing, and contract lint.

Four passes, all reporting :class:`~repro.core.diagnostics.Diagnostic`
records:

* :mod:`repro.check.graph_lint` — proves well-formedness of a task-graph
  configuration *before* any kernel runs: dependence-relation duality,
  acyclicity/schedulability, dependency-count bounds (Table 2), payload
  memory vs. :class:`~repro.sim.machine.MachineSpec`, and a critical-path
  lower bound on runtime.
* :mod:`repro.check.hb_audit` — replays an executor's recorded schedule
  (the trace hooks in :mod:`repro.runtimes._common`) through a vector-clock
  checker, flagging inputs acquired without a happens-before edge from
  their producer — ordering races that bytewise validation can miss.
* :mod:`repro.check.api_lint` — AST lint of :mod:`repro.runtimes` against
  the O(m + n) executor contract (required members, kernel routing, timing
  discipline, locked shared-state mutation).
* :mod:`repro.check.concurrency` — lock-order/blocking-call lint over all
  of ``src/repro`` (deadlock cycles, unpaired ``acquire``, unguarded
  ``Condition.wait``, blocking calls under a lock) plus an opt-in runtime
  lockset sanitizer (``--sanitize``) that refines the vector-clock audit
  with Eraser-style candidate locksets.

All four are wired into the ``task-bench check`` CLI subcommand.
"""

from .._exports import export

_EXPORTS = {
    "api_lint": ("lint_executor_api", "lint_runtime_sources"),
    "concurrency": (
        "LockSanitizer", "SanitizeResult", "active_sanitizer",
        "instrument", "lint_concurrency", "lint_concurrency_sources",
        "sanitized_run",
    ),
    "graph_lint": (
        "critical_path_seconds", "lint_graphs", "peak_payload_bytes",
    ),
    "hb_audit": ("AuditResult", "audit_run", "audit_trace"),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
