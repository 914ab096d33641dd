"""Rewrite ``perfbench/fuzz_statuses.json`` from the current program.

    python3 perfbench/record_fuzz_statuses.py

The file is the reference every ``fuzz_campaign`` run checks its
per-case statuses against, so regenerate it only for a deliberate
change to the fuzz generator or to the oracle's classification.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import record_fuzz_statuses  # noqa: E402

if __name__ == "__main__":
    record_fuzz_statuses()
