"""Suite orchestration: parallel, resumable benchmark-sweep harness.

The paper's evaluation is a cross-product — systems × patterns × node
counts × granularities (Figures 3-9) — and this package is the layer that
runs such cross-products as one job: a declarative :class:`SuiteSpec`
(:mod:`repro.suite.spec`), a resource-aware parallel scheduler
(:mod:`repro.suite.scheduler`), and a checkpointing result store
(:mod:`repro.suite.store`) that makes a killed sweep resumable.

Surfaced on the command line as ``task-bench suite SPEC [--jobs N]
[--resume] [--report]``.
"""

from .._exports import export

_EXPORTS = {
    "scheduler": (
        "Claim", "SuiteSummary", "admit", "claim_for_cell", "run_cell",
        "run_suite",
    ),
    "spec": (
        "Cell", "SpecError", "SuiteSpec", "load_spec",
        "spec_from_mapping", "validate_cell",
    ),
    "store": (
        "StoreError", "SuiteStore", "aggregate_rows", "load_rows",
        "render_csv", "render_table",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
