"""Figure/table regeneration for the paper's evaluation (§5)."""

from .._exports import export

_EXPORTS = {
    "archive": (
        "compare_figures", "figure_from_dict", "figure_to_dict",
        "load_figure_json", "save_figure_json",
    ),
    "experiments": (
        "ExperimentGrid", "PatternSpec", "ResultTable", "run_grid",
    ),
    "figures": (
        "FigureConfig", "FigureData", "Series", "figure10", "figure11",
        "figure12", "figure13", "figure2_3", "figure4", "figure5",
        "figure6_7", "figure8", "figure9", "suite_series",
    ),
    "plot": ("ascii_plot", "sparkline"),
    "report": (
        "format_quantity", "granularity_at_efficiency", "render_all",
        "render_efficiency_summary", "render_markdown_table",
        "render_series_table", "summarize_extremes",
    ),
    "timeline": ("idle_fraction", "per_graph_spans", "render_gantt"),
}
__getattr__, __dir__, __all__ = export(__name__, _EXPORTS)
