"""Benchmark entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, from the root of a distillfuse checkout.

Runs against the package source under ``src/``; exits with status 2, printing
no result, when that source is absent.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    if not (SRC / "distillfuse" / "__init__.py").is_file():
        print(f"perfbench: no distillfuse package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from harness import main

    sys.exit(main())
