"""``python -m repro.analysis figures | plot | compare``: the analysis
commands of ``task-bench`` (:mod:`repro.cli` declares and runs them)."""

from __future__ import annotations

import sys
from typing import Sequence


def main(argv: Sequence[str] | None = None) -> int:
    from ..cli import main as task_bench

    return task_bench(list(sys.argv[1:] if argv is None else argv) or ["--help"])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
