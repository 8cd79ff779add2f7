"""Regeneration of every figure of the paper's evaluation (§5).

Each ``figure*`` function returns a :class:`FigureData`: labeled series of
(x, y) points matching the corresponding plot of the paper.  The benchmark
harness (``benchmarks/``) calls these and checks the qualitative claims
(who wins, crossovers, orders of magnitude); ``repro.analysis.report``
renders them as text tables.

Figures are parameterized by a :class:`FigureConfig` so the same code runs
in seconds at a reduced scale (default) or at full paper scale
(``FigureConfig.paper()`` — 32-core nodes, 256-node sweeps, tall graphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from ..core.types import DependenceType, KernelType
from ..metg.efficiency import compute_workload, efficiency_curve, memory_workload
from ..metg.metg import METGUnachievable, metg
from ..metg.runners import SimRunner
from ..metg.scaling import strong_scaling, weak_scaling
from ..sim.gpu import PIZ_DAINT, figure13_series
from ..sim.machine import MachineSpec
from ..sim.network import ARIES, NetworkModel
from ..sim.systems import (
    FIGURE9_SYSTEMS,
    FIGURE11_SYSTEMS,
    FIGURE12_SYSTEMS,
    all_systems,
    get_system,
)


@dataclass(frozen=True)
class Series:
    """One labeled line of a figure."""

    label: str
    x: List[float]
    y: List[float]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")


@dataclass(frozen=True)
class FigureData:
    """All data of one paper figure."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: List[Series]
    notes: str = ""

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure_id}")

    @property
    def labels(self) -> List[str]:
        return [s.label for s in self.series]


@dataclass(frozen=True)
class FigureConfig:
    """Scale knobs shared by all figure generators.

    The default is a reduced scale that preserves every qualitative
    phenomenon while keeping pure-Python simulation times in seconds.
    """

    cores_per_node: int = 8
    steps: int = 30
    node_counts: Sequence[int] = (1, 4, 16, 64, 256)
    problem_sizes: Sequence[int] = tuple(4**e for e in range(0, 10))
    network: NetworkModel = field(default=ARIES)
    systems: Sequence[str] | None = None  # None = per-figure default

    @classmethod
    def paper(cls) -> "FigureConfig":
        """Full paper scale (minutes of simulation)."""
        return cls(
            cores_per_node=32,
            steps=100,
            node_counts=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            problem_sizes=tuple(2**e for e in range(0, 22)),
        )

    def machine(self, nodes: int = 1) -> MachineSpec:
        return MachineSpec(nodes=nodes, cores_per_node=self.cores_per_node)

    def with_(self, **changes) -> "FigureConfig":
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# Figures 2/6: FLOP/s vs problem size; Figures 3/7: efficiency vs granularity
# ---------------------------------------------------------------------------
def _flops_and_efficiency_curves(
    cfg: FigureConfig, systems: Sequence[str]
) -> Dict[str, List]:
    machine = cfg.machine(1)
    out: Dict[str, List] = {}
    for name in systems:
        runner = SimRunner(name, machine, cfg.network)
        wl = compute_workload(runner.worker_width, steps=cfg.steps)
        out[name] = efficiency_curve(runner, wl, list(cfg.problem_sizes))
    return out


def figure2_3(cfg: FigureConfig = FigureConfig()) -> Dict[str, FigureData]:
    """MPI p2p alone: FLOP/s vs problem size and efficiency vs granularity
    (stencil, 1 node) — the METG construction walk-through of §4."""
    return _curves_figures(cfg, ["mpi_p2p"], "2", "3")


def figure6_7(cfg: FigureConfig = FigureConfig()) -> Dict[str, FigureData]:
    """All systems: FLOP/s vs problem size (Fig 6) and efficiency vs task
    granularity (Fig 7), stencil on one node."""
    systems = list(cfg.systems or all_systems().keys())
    return _curves_figures(cfg, systems, "6", "7")


def _curves_figures(
    cfg: FigureConfig, systems: Sequence[str], flops_id: str, eff_id: str
) -> Dict[str, FigureData]:
    curves = _flops_and_efficiency_curves(cfg, systems)
    flops_series, eff_series = [], []
    for name, ms in curves.items():
        ordered = sorted(ms, key=lambda m: m.iterations)
        flops_series.append(
            Series(
                label=name,
                x=[float(m.iterations) for m in ordered],
                y=[m.flops_per_second for m in ordered],
            )
        )
        eff_series.append(
            Series(
                label=name,
                x=[m.granularity_seconds * 1e3 for m in ordered],
                y=[m.efficiency for m in ordered],
            )
        )
    return {
        "flops": FigureData(
            figure_id=f"fig{flops_id}",
            title="FLOP/s vs problem size (stencil, 1 node)",
            xlabel="problem size (iterations/task)",
            ylabel="FLOP/s",
            series=flops_series,
        ),
        "efficiency": FigureData(
            figure_id=f"fig{eff_id}",
            title="Efficiency vs task granularity (stencil, 1 node)",
            xlabel="task granularity (ms)",
            ylabel="efficiency",
            series=eff_series,
        ),
    }


# ---------------------------------------------------------------------------
# Figures 4/5: weak and strong scaling of MPI
# ---------------------------------------------------------------------------
def figure4(cfg: FigureConfig = FigureConfig(),
            sizes: Sequence[int] | None = None) -> FigureData:
    """MPI weak scaling: wall time vs nodes, one line per per-task size."""
    sizes = list(sizes or (16, 256, 4096, 65536))
    model = get_system("mpi_p2p")
    series = []
    for iters in sizes:
        pts = weak_scaling(
            model, list(cfg.node_counts), iters,
            machine=cfg.machine(), network=cfg.network, steps=cfg.steps,
        )
        series.append(
            Series(
                label=f"iters={iters}",
                x=[float(p.nodes) for p in pts],
                y=[p.wall_seconds for p in pts],
            )
        )
    return FigureData(
        figure_id="fig4",
        title="MPI weak scaling (stencil)",
        xlabel="nodes",
        ylabel="wall time (s)",
        series=series,
    )


def figure5(cfg: FigureConfig = FigureConfig(),
            totals: Sequence[int] | None = None) -> FigureData:
    """MPI strong scaling: wall time vs nodes, one line per total size."""
    workers0 = get_system("mpi_p2p").worker_cores_per_node(cfg.cores_per_node)
    base = workers0 * cfg.steps
    totals = list(totals or (base * 64, base * 1024, base * 16384, base * 262144))
    model = get_system("mpi_p2p")
    series = []
    for total in totals:
        pts = strong_scaling(
            model, list(cfg.node_counts), total,
            machine=cfg.machine(), network=cfg.network, steps=cfg.steps,
        )
        series.append(
            Series(
                label=f"total={total}",
                x=[float(p.nodes) for p in pts],
                y=[p.wall_seconds for p in pts],
            )
        )
    return FigureData(
        figure_id="fig5",
        title="MPI strong scaling (stencil)",
        xlabel="nodes",
        ylabel="wall time (s)",
        series=series,
    )


# ---------------------------------------------------------------------------
# Figure 8: memory-bound kernel throughput
# ---------------------------------------------------------------------------
def figure8(cfg: FigureConfig = FigureConfig(),
            systems: Sequence[str] | None = None) -> FigureData:
    """B/s vs problem size (memory kernel, stencil, 1 node)."""
    systems = list(systems or cfg.systems or
                   ("mpi_p2p", "mpi_bulk_sync", "charmpp", "realm", "starpu"))
    machine = cfg.machine(1)
    series = []
    for name in systems:
        runner = SimRunner(name, machine, cfg.network)
        wl = memory_workload(
            runner.worker_width, steps=cfg.steps,
            span_bytes=1 << 16, scratch_bytes=1 << 22,
        )
        ms = efficiency_curve(runner, wl, list(cfg.problem_sizes), metric="bytes")
        ordered = sorted(ms, key=lambda m: m.iterations)
        series.append(
            Series(
                label=name,
                x=[float(m.iterations) for m in ordered],
                y=[m.bytes_per_second for m in ordered],
            )
        )
    return FigureData(
        figure_id="fig8",
        title="B/s vs problem size (memory kernel, stencil, 1 node)",
        xlabel="problem size (iterations/task)",
        ylabel="B/s",
        series=series,
    )


# ---------------------------------------------------------------------------
# Figure 9: METG vs node count for four dependence configurations
# ---------------------------------------------------------------------------
_FIG9_VARIANTS = {
    "a": dict(dependence=DependenceType.STENCIL_1D, radix=3, ngraphs=1),
    "b": dict(dependence=DependenceType.NEAREST, radix=5, ngraphs=1),
    "c": dict(dependence=DependenceType.SPREAD, radix=5, ngraphs=1),
    "d": dict(dependence=DependenceType.NEAREST, radix=5, ngraphs=4),
}


def figure9(
    subfigure: str = "a",
    cfg: FigureConfig = FigureConfig(),
) -> FigureData:
    """METG(50%) vs node count (Fig 9a-d).

    Systems whose overhead cannot reach 50% efficiency at a node count are
    omitted from that point, as the paper omits Spark/Swift-T/TensorFlow
    from the complex-pattern figures (§5.3).
    """
    try:
        variant = _FIG9_VARIANTS[subfigure]
    except KeyError:
        raise ValueError(f"subfigure must be one of a-d, got {subfigure!r}") from None
    systems = list(cfg.systems or FIGURE9_SYSTEMS)
    series = []
    for name in systems:
        xs, ys = [], []
        for nodes in cfg.node_counts:
            runner = SimRunner(name, cfg.machine(nodes), cfg.network)
            wl = compute_workload(
                runner.worker_width, steps=cfg.steps,
                dependence=variant["dependence"], radix=variant["radix"],
                ngraphs=variant["ngraphs"],
            )
            try:
                res = metg(runner, wl, max_iterations=1 << 30)
            except METGUnachievable:
                continue
            xs.append(float(nodes))
            ys.append(res.metg_seconds)
        if xs:
            series.append(Series(label=name, x=xs, y=ys))
    return FigureData(
        figure_id=f"fig9{subfigure}",
        title=f"METG vs node count (variant {subfigure})",
        xlabel="nodes",
        ylabel="METG(50%) (s)",
        series=series,
        notes=str(variant),
    )


# ---------------------------------------------------------------------------
# Figure 10: METG vs dependencies per task
# ---------------------------------------------------------------------------
def figure10(
    cfg: FigureConfig = FigureConfig(),
    radices: Sequence[int] = tuple(range(10)),
) -> FigureData:
    """METG(50%) vs dependencies per task (nearest pattern, 1 node)."""
    systems = list(cfg.systems or
                   ("mpi_p2p", "mpi_bulk_sync", "charmpp", "realm",
                    "parsec_dtd", "starpu", "regent", "x10", "dask"))
    machine = cfg.machine(1)
    series = []
    for name in systems:
        xs, ys = [], []
        for radix in radices:
            runner = SimRunner(name, machine, cfg.network)
            wl = compute_workload(
                runner.worker_width, steps=cfg.steps,
                dependence=DependenceType.NEAREST, radix=radix,
            )
            try:
                res = metg(runner, wl, max_iterations=1 << 30)
            except METGUnachievable:
                continue
            xs.append(float(radix))
            ys.append(res.metg_seconds)
        if xs:
            series.append(Series(label=name, x=xs, y=ys))
    return FigureData(
        figure_id="fig10",
        title="METG vs dependencies per task (nearest, 1 node)",
        xlabel="dependencies per task",
        ylabel="METG(50%) (s)",
        series=series,
    )


# ---------------------------------------------------------------------------
# Figure 11: communication hiding
# ---------------------------------------------------------------------------
def figure11(
    output_bytes: int = 4096,
    cfg: FigureConfig = FigureConfig(),
    nodes: int = 16,
) -> FigureData:
    """Efficiency vs task granularity with communication (spread pattern,
    5 deps/task, 4 graphs) at the given payload size (Fig 11a-d use 16 B to
    64 KiB)."""
    systems = list(cfg.systems or FIGURE11_SYSTEMS)
    machine = cfg.machine(nodes)
    series = []
    for name in systems:
        runner = SimRunner(name, machine, cfg.network)
        wl = compute_workload(
            runner.worker_width, steps=cfg.steps,
            dependence=DependenceType.SPREAD, radix=5, ngraphs=4,
            output_bytes=output_bytes,
        )
        ms = efficiency_curve(runner, wl, list(cfg.problem_sizes))
        ordered = sorted(ms, key=lambda m: m.iterations)
        series.append(
            Series(
                label=name,
                x=[m.granularity_seconds * 1e3 for m in ordered],
                y=[m.efficiency for m in ordered],
            )
        )
    return FigureData(
        figure_id="fig11",
        title=f"Efficiency vs granularity, {output_bytes} B/dependency "
              f"(spread, radix 5, 4 graphs, {nodes} nodes)",
        xlabel="task granularity (ms)",
        ylabel="efficiency",
        series=series,
        notes=f"output_bytes={output_bytes}",
    )


# ---------------------------------------------------------------------------
# Figure 12: load imbalance
# ---------------------------------------------------------------------------
def figure12(cfg: FigureConfig = FigureConfig()) -> FigureData:
    """Efficiency vs task granularity under uniform [0,1) load imbalance
    (nearest, 5 deps/task, 4 graphs, 1 node)."""
    systems = list(cfg.systems or FIGURE12_SYSTEMS)
    machine = cfg.machine(1)
    series = []
    for name in systems:
        runner = SimRunner(name, machine, cfg.network)
        wl = compute_workload(
            runner.worker_width, steps=cfg.steps,
            dependence=DependenceType.NEAREST, radix=5, ngraphs=4,
            kernel_type=KernelType.LOAD_IMBALANCE, imbalance=1.0,
        )
        ms = efficiency_curve(runner, wl, list(cfg.problem_sizes))
        ordered = sorted(ms, key=lambda m: m.iterations)
        series.append(
            Series(
                label=name,
                x=[m.granularity_seconds * 1e3 for m in ordered],
                y=[m.efficiency for m in ordered],
            )
        )
    return FigureData(
        figure_id="fig12",
        title="Efficiency vs granularity under load imbalance "
              "(nearest, radix 5, 4 graphs, 1 node)",
        xlabel="task granularity (ms)",
        ylabel="efficiency",
        series=series,
    )


# ---------------------------------------------------------------------------
# Suite aggregates -> figures
# ---------------------------------------------------------------------------
def suite_series(
    rows: Sequence[Dict],
    *,
    x: str = "width",
    y: str = "metg_seconds",
    series_by: str = "runtime",
    figure_id: str = "suite",
    title: str = "",
) -> FigureData:
    """Plot a suite aggregate (``repro.suite`` rows or a loaded CSV).

    Groups the rows by ``series_by`` (one line per runtime, by default)
    with ``x`` on the abscissa and measurement ``y`` on the ordinate,
    producing the same :class:`FigureData` shape as the paper figures so
    the existing rendering/plot tooling applies unchanged.  Rows without
    the requested measurement (failed or unachievable cells, or cells of
    another metric) are skipped, mirroring how the paper omits systems
    that cannot reach the target efficiency (§5.3).
    """
    groups: Dict[str, List] = {}
    for row in rows:
        label = row.get(series_by)
        xv, yv = row.get(x), row.get(y)
        if label is None or xv is None or yv is None:
            continue
        groups.setdefault(str(label), []).append((float(xv), float(yv)))
    series = [
        Series(
            label=label,
            x=[p[0] for p in sorted(points)],
            y=[p[1] for p in sorted(points)],
        )
        for label, points in sorted(groups.items())
    ]
    return FigureData(
        figure_id=figure_id,
        title=title or f"{y} vs {x} (suite aggregate)",
        xlabel=x,
        ylabel=y,
        series=series,
    )


# ---------------------------------------------------------------------------
# Figure 13: GPU offload
# ---------------------------------------------------------------------------
def figure13() -> FigureData:
    """GPU FLOP/s vs normalized problem size (MPI vs MPI+CUDA w1/w4)."""
    data = figure13_series(PIZ_DAINT)
    series = [
        Series(label=label, x=[p[0] for p in pts], y=[p[1] for p in pts])
        for label, pts in data.items()
    ]
    return FigureData(
        figure_id="fig13",
        title="GPU FLOP/s vs normalized problem size (stencil, 1 node)",
        xlabel="problem size (FLOPs per timestep)",
        ylabel="FLOP/s",
        series=series,
    )


def reduced_scale_figures(fast: bool = False) -> List[FigureData]:
    """Every figure ``task-bench figures`` regenerates, at a scale that
    takes seconds (``fast``: fewer node counts and problem sizes)."""
    cfg = FigureConfig(
        cores_per_node=4,
        steps=10 if fast else 20,
        node_counts=(1, 4, 16) if fast else (1, 4, 16, 64),
        problem_sizes=tuple(8**e for e in range(7 if fast else 8)),
    )
    subset = ("mpi_p2p", "mpi_bulk_sync", "charmpp", "realm", "spark")
    f23 = figure2_3(cfg)
    return [
        f23["flops"],
        f23["efficiency"],
        figure4(cfg),
        figure5(cfg),
        figure8(cfg, systems=subset[:4]),
        figure9("a", cfg.with_(systems=subset)),
        figure10(cfg.with_(systems=subset[:4], cores_per_node=12),
                 radices=(0, 3, 5)),
        figure12(cfg.with_(systems=("mpi_bulk_sync", "charmpp",
                                    "chapel_distrib"),
                           cores_per_node=8)),
        figure13(),
    ]
