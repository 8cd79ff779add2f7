"""Distributed-machine simulator substrate.

Replaces the paper's physical testbeds (Cori, Piz Daint): a discrete-event
simulator executing real Task Bench task graphs against calibrated machine,
network, and runtime-system cost models.  See DESIGN.md §2 for the
substitution rationale.
"""

from .._exports import export

_EXPORTS = {
    "analytic": (
        "PhasedPrediction", "interior_comm_counts", "predict",
        "predicted_metg_seconds",
    ),
    "gpu": (
        "GPUNodeSpec", "PIZ_DAINT", "cpu_time_per_timestep",
        "crossover_problem_size", "figure13_series",
        "gpu_time_per_timestep_w1", "gpu_time_per_timestep_w4",
    ),
    "machine": ("CORI_HASWELL", "MachineSpec", "TINY", "column_to_core"),
    "network": ("ARIES", "IDEAL", "NetworkModel"),
    "runtime_model": ("RuntimeModel",),
    "simulator": ("SimStats", "simulate", "simulate_with_stats"),
    "systems": (
        "FIGURE11_SYSTEMS", "FIGURE12_SYSTEMS", "FIGURE9_SYSTEMS",
        "all_systems", "get_system", "scaled_for",
    ),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
