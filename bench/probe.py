"""Set-up probe: import numrange and numrange.cli, build one workload's op pool, exit.

``bench/run.py`` times whole runs of this script in fresh interpreters and
reports their median as ``setup_s``.

    python3 bench/probe.py poncelet 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numrange  # noqa: E402,F401
import numrange.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
