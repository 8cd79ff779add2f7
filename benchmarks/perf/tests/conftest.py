"""Make the benchmark's modules and the program importable.

Run with ``python -m pytest benchmarks/perf/tests`` from the repo root;
tier-1's ``testpaths`` does not collect this directory.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
for path in (PERF, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
