"""Task Bench — Python reproduction of Slaughter et al., SC 2020.

A parameterized benchmark for evaluating parallel runtime performance.

Subpackages
-----------
``repro.core``
    The Task Bench core library: task graphs, dependence relations, kernels,
    validation, configuration and metrics.
``repro.runtimes``
    Real single-host executors, one per runtime paradigm the paper studies.
``repro.sim``
    Discrete-event simulator substrate standing in for the Cori and
    Piz Daint machines, with calibrated models of the 15+ studied systems.
``repro.metg``
    The METG (minimum effective task granularity) metric machinery.
``repro.analysis``
    Regeneration of every figure/table of the paper's evaluation.
"""

from ._exports import export

__version__ = "1.0.0"

_EXPORTS = {
    "core.executor_base": ("Executor",),
    "core.kernels": ("Kernel",),
    "core.metrics": ("RunResult",),
    "core.task_graph": ("TaskGraph",),
    "core.types": ("DependenceType", "KernelType"),
    "core.validation": ("ValidationError",),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
__all__.append("__version__")
