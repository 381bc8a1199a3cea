"""Set-up probe: start an interpreter, import spintorus, run one fixed tiny op, exit.

    python3 perfbench/probe.py WORKLOAD WORK_DIR

`run.py` times this process from start to exit for `setup_s`.  The warm-up
input is the same for every seed, so cost moved from import to first use
still lands in set-up time.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, warmup  # noqa: E402

if __name__ == "__main__":
    warmup(WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
