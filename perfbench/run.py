"""The hopftrees benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs the real ``hopftrees`` command in a fresh interpreter, so the
library's caches (the ``lru_cache``d ops singletons, ``_antipode_cache`` and
the cached enumerations) start cold, as they do for a user of the CLI.  Each
pass is checked against the law case counts, and for ``dse_solve`` the output
digest, pinned in ``perfbench/expected.json``; a pass that differs counts as
failed.  All workloads are exhaustive and deterministic: the seed changes no
input; it only sets the workers' hash seed, so a run can be repeated exactly.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` plus the tracing overhead.  The last line
of standard output is one JSON object; the lines before it are the same
figures for people, with the base of every ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "check_axioms": ("check", "--suite", "axioms", "--max-degree", "6"),
    "check_special": ("check", "--suite", "special", "--max-degree", "7"),
    "dse_solve": ("dse", "--max-degree", "10", "--check-coproduct"),
}

SETUP_PROBES = 15  # set-up-only interpreters per run, besides one per pass
DEADLINE_S = 170  # the whole run must end within 180 s

_LAW = re.compile(r"^  (PASS|FAIL) (.+?)(?: \[(\d+) cases\])?(?: witness: .*)?$")


def parse_laws(text: str) -> list:
    """[report, law, status, cases] for every law line of a report text."""
    out = []
    report = None
    for line in text.splitlines():
        m = _LAW.match(line)
        if m:
            status, law, cases = m.groups()
            out.append([report, law, status, int(cases or 0)])
        elif line and not line.startswith(" "):
            report = line
    return out


def gate(expected: dict, result: dict) -> list:
    """Why a pass is wrong; empty when it is right."""
    problems = []
    if result.get("exit_code") != 0:
        problems.append(f"exit code {result.get('exit_code')}")
    laws = parse_laws(result.get("stdout", ""))
    failing = [law for _, law, status, _ in laws if status != "PASS"]
    if failing:
        problems.append(f"failing laws: {failing}")
    counts = [[report, law, cases] for report, law, _, cases in laws]
    if counts != expected["laws"]:
        problems.append("law case counts differ from the pinned counts")
    if "sha256" in expected and result.get("sha256") != expected["sha256"]:
        problems.append("output digest differs from the pinned digest")
    return problems


class Runner:
    """Starts worker interpreters on the checkout's sources."""

    def __init__(self, root: Path, seed: int, started: float):
        self.started = started
        # The seed fixes the workers' hash seed, so set and dict orders repeat
        # run to run; the gate holds for every seed.
        self.env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=str(seed)
        )
        self.env.pop("HOPFTREES_MAX_DEGREE", None)  # workloads use the default limits
        # Let the warm-up write the bytecode cache that an installed CLI has.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, command=(), trace=False) -> dict:
        """One worker pass; a crash or timeout comes back as exit code None."""
        argv = [sys.executable, str(HERE / "worker.py"), str(time.monotonic())]
        if trace:
            argv.append("--trace")
        if command:
            argv += ["--", *command]
        budget = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                argv, env=self.env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"timed out after {budget:.0f} s"}
        if proc.returncode != 0:
            return {"exit_code": None, "error": proc.stderr.strip()[-2000:]}
        return json.loads(proc.stdout.splitlines()[-1])


def measure(runner: Runner, command, expected: dict, seconds: float, trace: bool):
    """Run passes until ``seconds`` are used, or would be by one more round.

    Without tracing a round is one pass; with tracing it is an untraced pass
    followed by a traced one.  Returns (plain passes, traced passes, failures).
    """
    plain, traced, failures = [], [], []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for is_traced in (False, True) if trace else (False,):
            result = runner.run(command, trace=is_traced)
            result["problems"] = gate(expected, result)
            if result["problems"]:
                failures.append(result)
            (traced if is_traced else plain).append(result)
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            return plain, traced, failures


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "hopftrees" / "cli.py").is_file():
        print(f"no hopftrees sources under {root / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    command = WORKLOADS[args.workload]
    runner = Runner(root, args.seed % 2**32, started)

    runner.run()  # warm the bytecode and file caches, as an installed CLI has them
    plain, traced, failures = measure(
        runner, command, expected, args.seconds, bool(args.trace)
    )
    passes = plain + traced
    print(f"workload {args.workload} (seed {args.seed}): hopftrees {' '.join(command)}")
    print(f"cases per pass: {sum(law[2] for law in expected['laws'])} (pinned)")
    for failure in failures:
        print(f"FAILED PASS: {failure['problems']} {failure.get('error', '')}")
    print(f"failed_pass_ratio {len(failures) / len(passes):.4f} ratio "
          f"({len(failures)} failed / {len(passes)} attempted passes)")

    if args.trace:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        layers = _layer_summary(plain, traced)
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        probes = [runner.run() for _ in range(SETUP_PROBES)]
        setups = [r["setup_s"] for r in plain + probes if "setup_s" in r]
        walls = sorted(r["wall_s"] for r in plain if "wall_s" in r) or [0.0]
        metrics = {
            "wall_s": {"value": _median(plain, "wall_s"), "unit": "s"},
            "setup_s": {"value": _median(plain + probes, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
        }
        print(f"wall_s            {metrics['wall_s']['value']:.4f} s   median of "
              f"{len(plain)} passes, range {walls[0]:.4f}-{walls[-1]:.4f} s")
        print(f"setup_s           {metrics['setup_s']['value']:.4f} s   median of "
              f"{len(setups)} interpreter starts")
        print(f"peak_rss_mb       {metrics['peak_rss_mb']['value']:.2f} MB  median "
              f"of {len(plain)} passes")

    result = {
        "correct": not failures,
        "attempted": len(passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_summary(plain, traced) -> dict:
    """Every per-layer metric as the median over the traced passes, printed
    with the base of each ratio, plus the tracing overhead."""
    from tracer import LAYER_METRICS, unit_of

    good = [r for r in traced if "layers" in r]
    metrics = {}
    for name in LAYER_METRICS:
        value = statistics.median(r["layers"][name] for r in good) if good else 0.0
        metrics[name] = {"value": value, "unit": unit_of(name)}
        base = good[0]["bases"].get(name) if good else None
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        extra = f"   ({base})" if base else ""
        print(f"{name:44s} {shown:>14s} {unit_of(name)}{extra}")
    overhead = _median(traced, "wall_s") - _median(plain, "wall_s")
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    print(
        f"{'bench.trace_overhead_s':44s} {overhead:14.4f} s   (traced wall "
        f"{_median(traced, 'wall_s'):.4f} s over {len(traced)} passes - untraced "
        f"{_median(plain, 'wall_s'):.4f} s over {len(plain)} passes)"
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
