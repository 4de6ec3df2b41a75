"""Run one sguq command in a fresh interpreter and time it.

Usage:
    python3 perfbench/worker.py --result <file> [--trace <file>] [--import-only]
        -- <sguq arguments>

The first lines time the import of ``sguq.cli`` from the checkout's ``src``
(the set-up a user pays on every command).  Then the command runs through
``sguq.cli.main`` with a span around each stage; with ``--trace`` every
layer's public calls get spans too (see ``tracing.py``) and all spans go to
the trace file.  The result file holds the exit code, the set-up time, the
command's wall time, the stage times and the peak resident set size.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sguq.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if not os.path.abspath(sguq.cli.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"worker: sguq imported from {sguq.cli.__file__}, not the checkout",
              file=sys.stderr)
        return 1
    result = {"setup_s": SETUP_S}
    if not args.import_only:
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        recorder = tracing.Recorder()
        tracing.install(recorder, layers=args.trace is not None)
        start = time.perf_counter()
        try:
            rc = sguq.cli.main(command)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        command_s = time.perf_counter() - start
        result.update(rc=rc, command_s=command_s,
                      stages=tracing.stage_times(recorder.spans))
        if args.trace is not None:
            with open(args.trace, "w") as fh:
                json.dump(recorder.spans, fh)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
