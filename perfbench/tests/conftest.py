"""Put the program (``src``) and the benchmark modules on the import path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"

for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)
