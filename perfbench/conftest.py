"""Make the program under test importable for the benchmark's own tests.

Run them from the root of the repository with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
