"""METG: minimum effective task granularity (paper §4).

The efficiency-constrained metric for runtime-limited performance, plus the
sweep/scaling machinery it is computed from.  Works identically against the
simulator substrate (:class:`~repro.metg.runners.SimRunner`) and real
executors (:class:`~repro.metg.runners.RealRunner`).
"""

from .._exports import export

_EXPORTS = {
    "efficiency": (
        "GraphFactory", "Measurement", "compute_workload",
        "efficiency_curve", "measure", "memory_workload",
    ),
    "metg": ("METGResult", "METGUnachievable", "metg"),
    "runners": (
        "RealRunner", "SimRunner", "calibrate_kernel_flops", "make_runner",
        "peak_flops_per_core",
    ),
    "scaling": (
        "ScalingPoint", "strong_scaling", "strong_scaling_limit_nodes",
        "weak_scaling",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
