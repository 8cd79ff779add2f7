"""repro.trace — wall-clock span tracing for the real executors.

Public surface:

* :mod:`repro.trace.recorder` — the span recorder (``capture()``,
  ``enabled``, ``begin``/``complete``/``instant``/``counter``); executors
  import this module directly so the ``enabled`` flag stays a live
  attribute read.
* :mod:`repro.trace.merge` — per-rank clock alignment and dump merging.
* :mod:`repro.trace.export` — Chrome trace-event JSON in/out + schema
  validation.
* :mod:`repro.trace.conformance` — the well-formedness checker backing
  the ``traceconf`` test tier.
"""

from .._exports import export

_EXPORTS = {
    "conformance": ("check_trace",),
    "export": ("load_chrome", "to_chrome", "validate_chrome", "write_chrome"),
    "merge": ("align_offset", "merge_dumps"),
    "recorder": (
        "CAT_DISPATCH", "CAT_KERNEL", "CAT_PUBLISH", "CAT_SCHED",
        "CAT_WIRE", "SpanRecorder", "Trace", "TraceRecord", "capture",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
