"""Degree reach: for each suite, the highest degree finished within a budget.

Usage, from the root of a checkout:

    python3 perfbench/reach.py [--budget SECONDS]

Each degree runs ``hopftrees check --suite S --max-degree D`` in a fresh
interpreter, from degree 1 upwards, until a degree fails, is refused or runs
past the budget (default 60 s).  This report is on demand and not part of the
gated benchmark: reach moves in steps of 4-7x cost per degree, so it cannot
resolve a 20% change, and a sweep costs minutes per suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

SUITES = ("axioms", "duality", "diagrams", "special", "dse")


def reach(suite: str, budget: float, env: dict) -> tuple:
    """(highest degree finished, seconds it took, why the next one stopped)."""
    best, best_s = 0, 0.0
    degree = 1
    while True:
        argv = [sys.executable, "-m", "hopftrees", "check", "--suite", suite]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv + ["--max-degree", str(degree)],
                env=env,
                capture_output=True,
                text=True,
                timeout=budget,
            )
        except subprocess.TimeoutExpired:
            return best, best_s, f"degree {degree} ran past {budget:g} s"
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            why = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:]
            return best, best_s, f"degree {degree} exited {proc.returncode}: {why}"
        best, best_s = degree, seconds
        degree += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=float, default=60.0)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "hopftrees").is_dir():
        print(f"no hopftrees sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HOPFTREES_MAX_DEGREE", None)
    for suite in SUITES:
        degree, seconds, why = reach(suite, args.budget, env)
        print(f"{suite:9s} reach {degree:2d} ({seconds:.2f} s); {why}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
