"""Compare two results files row by row: one row per (metric, workload).

A *side* is every set in one results file.  Its value is the median of its
sets' values; its spread is how far its own sets disagree, as a share of
that value.  A side of one set has only the quartile distance of its cell's
samples to go by, which is wider: measure two sets a side
(``run.py --sets 2``) when the verdict matters.

The self-check compares two sets of the same code, where neither is the
parent: they *agree* when they differ by no more than the bound, either way.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

IMPROVED, UNCHANGED, REGRESSED, UNRESOLVED = (
    "improved", "unchanged", "regressed", "unresolved")
AGREE, DISAGREE = "agree", "disagree"


def verdict(a_values: Sequence[float], b_values: Sequence[float],
            a_samples: Sequence[float], b_samples: Sequence[float],
            a_spread: float, b_spread: float, bound: float,
            better: str = "lower") -> str:
    """Verdict on side B (the change) against side A (the parent).

    * spread of either side above the bound: *unresolved*, unless every
      sample of one side beats every sample of the other;
    * B worse than A by more than the bound: *regressed*;
    * B better than A by more than the bound: *improved*;
    * otherwise *unchanged*.
    """
    sign = 1.0 if better == "lower" else -1.0
    a = statistics.median(a_values)
    b = statistics.median(b_values)
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    if a_spread > bound or b_spread > bound:
        if max(sign * x for x in b_samples) < min(sign * x for x in a_samples):
            return IMPROVED
        if min(sign * x for x in b_samples) > max(sign * x for x in a_samples):
            return REGRESSED
        return UNRESOLVED
    if worse_by > bound:
        return REGRESSED
    if -worse_by > bound:
        return IMPROVED
    return UNCHANGED


def side_spread(cells: Sequence[dict]) -> float:
    """Disagreement of one side about one metric, as a share of its value:
    between its sets' values, or for a single set between the quartiles of
    that cell's own samples."""
    if len(cells) == 1:
        low, centre, high = (cells[0][k] for k in ("p25", "median", "p75"))
    else:
        values = [c["value"] for c in cells]
        low, centre, high = min(values), statistics.median(values), max(values)
    return (high - low) / abs(centre) if centre else 0.0


def rows(a_sets: Sequence[dict], b_sets: Sequence[dict], declared: dict,
         same_code: bool = False) -> List[Tuple[str, str, str, float, float]]:
    """(metric, workload, verdict, A value, B value) for every end-to-end
    metric on every workload, plus an ``exact``/``inexact`` row for every
    count that must repeat exactly.  With ``same_code`` A and B are two sets
    of one side and the verdict is whether they agree within the bound."""
    out: List[Tuple[str, str, str, float, float]] = []
    a_cells, b_cells = _index(a_sets), _index(b_sets)
    for metric in declared["end_to_end"]:
        for workload in (w["name"] for w in declared["workloads"]):
            key = (metric["name"], workload)
            a, b = a_cells.get(key), b_cells.get(key)
            if not a or not b:
                out.append((*key, UNRESOLVED, float("nan"), float("nan")))
                continue
            if any(c.get("unresolved") for c in a + b):
                result = UNRESOLVED
            elif same_code:
                result = (DISAGREE if side_spread(a + b) > metric["bound"]
                          else AGREE)
            else:
                result = verdict(
                    [c["value"] for c in a], [c["value"] for c in b],
                    [s for c in a for s in c["samples"]],
                    [s for c in b for s in c["samples"]],
                    side_spread(a), side_spread(b),
                    metric["bound"], metric["better"])
            out.append((*key, result,
                        statistics.median(c["value"] for c in a),
                        statistics.median(c["value"] for c in b)))
    for key, a in sorted(a_cells.items()):
        if a[0].get("exact"):
            b = b_cells.get(key, [])
            same = b and len({c["value"] for c in a + b}) == 1
            out.append((*key, "exact" if same else "inexact", a[0]["value"],
                        b[0]["value"] if b else float("nan")))
    return out


def _index(sets: Sequence[dict]) -> Dict[Tuple[str, str], List[dict]]:
    cells: Dict[Tuple[str, str], List[dict]] = {}
    for one_set in sets:
        for run in one_set["runs"]:
            for name, cell in run["metrics"].items():
                cells.setdefault((name, run["workload"]), []).append(cell)
    return cells


def failing(table: Sequence[Tuple[str, str, str, float, float]]) -> List[str]:
    """The rows that fail a self-check, as printable lines."""
    return [f"{m} on {w}: {v}" for m, w, v, _a, _b in table
            if v in (REGRESSED, UNRESOLVED, DISAGREE, "inexact")]
