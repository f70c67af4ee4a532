"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py SPAWNED_AT [--trace] [-- HOPFTREES ARGS...]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process; the system-wide monotonic clock makes the difference to the moment
``hopftrees`` finished importing the set-up time.  With no command after
``--`` the pass only measures set-up.  Prints one JSON object.
"""

import time

import hopftrees.cli

IMPORTED_AT = time.monotonic()  # set-up ends here

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def run_command(argv, tracer=None) -> dict:
    """Run ``hopftrees ARGV`` in this process, capturing its standard output."""
    if tracer is not None:
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = hopftrees.cli.run(argv)
    wall = time.perf_counter() - start
    text = out.getvalue()
    return {
        "exit_code": code,
        "wall_s": wall,
        "stdout": text,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def main(args) -> None:
    spawned_at = float(args[0])
    trace = "--trace" in args[1:]
    argv = args[args.index("--") + 1 :] if "--" in args else []
    result = {"setup_s": IMPORTED_AT - spawned_at}
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
        result.update(run_command(argv, tracer))
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["bases"] = tracer.bases()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
