"""SHA-256 of the output of each README command, at its full README size.

    python3 perfbench/cli_hashes.py

Run from the root of a checkout (about two minutes on two cores; the
10^7-sample product check dominates).  The supz command is run without
--out, so the hash is that of the CSV it would write.  The hashes are a
reference figure for "the output did not change", not a benchmark gate.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

README_COMMANDS = [
    "bounds --group heisenberg --n 1 --norm all --p 2 --theta 1",
    "bounds --group nonisotropic --lambdas 1,2 --norm koranyi_b --p 2 --theta 1",
    "bounds --group product --n 1 --N 2 --p 2 --theta 1",
    "supz --norm cc --Q 4 --p 2 --theta 1 --format csv",
    "verify identity --norm koranyi --p 2 --theta 1",
    "verify hardy --norm cc --bumps 5",
    "verify sharpness --eps 1e-2,1e-3,1e-4",
    "verify counterexample",
    "verify product --n 1 --N 2 --samples 10000000",
    "cc --point 1,0,0.5",
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for command in README_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "carnot_hardy.cli", *command.split()],
                              cwd=ROOT, env=env, capture_output=True, timeout=900)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        print(f"{digest}  exit {proc.returncode}  carnot-hardy {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
