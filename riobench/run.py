#!/usr/bin/env python3
"""Entry point of the odometry benchmark; see riobench/README.md.

    python3 riobench/run.py --workload suburban_street --seed 1 --seconds 30 --trace 0

Prints the metrics and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exits with 2 and
prints no result when the ``radarloc`` sources are not beside it.
"""

import os
import sys
from pathlib import Path

# Fixed before NumPy loads OpenBLAS: at one BLAS thread the outputs repeat
# bit for bit from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "radarloc" / "__init__.py").is_file():
        print(f"riobench: no radarloc package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    from bench import main

    sys.exit(main(sys.argv[1:], ROOT))
