"""Benchmark-as-a-service: a persistent Task Bench daemon.

The paper's harness — and this repo's CLI — pays the full substrate cost
on every invocation: fork pools are built, calibration runs, the kernel
warms up, and everything is torn down again.  For a sweep that is fine
(the suite scheduler amortizes within a cell); for *interactive* use —
"measure this one cell now" — the setup dominates the measurement.  This
package keeps the substrate alive between requests:

* :mod:`repro.serve.protocol` — length-prefixed JSON request frames over
  a Unix-domain or TCP socket (same framing discipline as
  :mod:`repro.cluster.wire`): ``SUBMIT`` / ``STATUS`` / ``RESULT`` /
  ``STATS`` / ``DRAIN``.
* :mod:`repro.serve.server` — the threaded daemon: bounded job queue with
  explicit ``BUSY`` backpressure, admission control reusing the suite
  scheduler's :func:`~repro.suite.scheduler.admit` rules, per-job
  deadline kills, graceful SIGTERM drain.
* :mod:`repro.serve.warmpool` — an LRU+TTL cache of live executors keyed
  ``(runtime, workers)``, healed on checkout so a crashed cached worker
  never poisons a later request.
* :mod:`repro.serve.results` — a result cache keyed by cell fingerprint
  plus single-flight coalescing: concurrent identical submissions run
  once and share the record.
* :mod:`repro.serve.client` — the blocking client library behind
  ``task-bench submit`` and ``task-bench svc-stats``.

Surfaced on the command line as ``task-bench serve`` (daemon),
``task-bench submit`` (one cell), and ``task-bench svc-stats``.
"""

from .._exports import export

_EXPORTS = {
    "client": ("ServeClient", "ServeError"),
    "protocol": ("PROTOCOL_VERSION", "ProtocolError", "VERBS"),
    "results": ("ResultCache", "cell_fingerprint"),
    "server": ("ServeConfig", "ServeStats", "Server"),
    "warmpool": ("WarmPool",),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
