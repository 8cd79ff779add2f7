"""Task Bench core library (paper §2).

Everything shared between runtime implementations lives here: task-graph
generation, dependence enumeration, kernels, validation, parameter parsing
and result reporting.  Runtime shims (``repro.runtimes``) and the simulator
substrate (``repro.sim``) are both built on this package.
"""

from .._exports import export

_EXPORTS = {
    "config": ("AppConfig", "ConfigError", "default_graph", "parse_args"),
    "dependence": (
        "DependenceSpec", "Interval", "clip_intervals", "count_points",
        "interval_points", "merge_intervals",
    ),
    "executor_base": ("Executor",),
    "kernels": (
        "FLOPS_PER_ITERATION", "KERNEL_VECTOR_WIDTH", "Kernel",
        "KernelTimeModel", "execute_kernel_busy_wait",
        "execute_kernel_compute", "execute_kernel_compute2",
        "execute_kernel_io", "execute_kernel_memory",
    ),
    "metrics": ("RunResult", "summarize_graphs"),
    "scenarios": ("SCENARIOS", "Scenario", "get_scenario"),
    "task_graph": ("DEFAULT_SEED", "TaskGraph"),
    "types": ("DependenceType", "KernelType"),
    "validation": (
        "ValidationError", "expected_inputs", "task_output",
        "validate_inputs",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
