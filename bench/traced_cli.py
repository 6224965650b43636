"""Run one deltaring CLI command with the benchmark's span recorder.

    python3 bench/traced_cli.py TRACE_FILE -- <deltaring arguments>

The command's output goes to stdout as usual; the trace goes to TRACE_FILE
as JSON.  The wrappers are installed after `import deltaring.cli` and
before `cli.main` runs.  `start_ns` is taken on the first line, so the
caller can measure interpreter start-up against its own clock.
"""

import time

START_NS = time.time_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main() -> int:
    trace_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: traced_cli.py TRACE_FILE -- <deltaring arguments>", file=sys.stderr)
        return 2
    rec = tracer.Recorder()
    with rec.top_span("cli.import"):
        from deltaring import cli
    with rec.top_span("trace.install"):
        missing = tracer.install(rec)
    with rec.top_span("cli.main"):
        rc = cli.main(argv)
        sys.stdout.flush()
    payload = {
        "start_ns": START_NS,
        "top": [[name, t1 - t0] for name, t0, t1 in rec.top],
        "aggregates": rec.aggregates(),
        "extra": rec.extra,
        "missing": missing,
        "end_ns": time.time_ns(),
    }
    Path(trace_file).write_text(json.dumps(payload))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
