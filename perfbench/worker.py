"""One benchmark pass in a fresh interpreter.

``run.py`` starts ``python3 perfbench/worker.py`` with ``src`` on
``PYTHONPATH`` and a JSON job on stdin::

    {"calls": [[argv...], ...], "trace": false, "spans_path": null, "concat": false}

The worker imports ``sylowlab.cli`` first, so the moment it reports as
``ready`` marks the end of set-up. It then calls ``cli.main(argv)`` once
per entry, capturing stdout and stderr, and prints one JSON object: the
ready time, per-call exit code, stdout sha256, line count and seconds, and
its peak resident memory. With ``trace`` it installs the span tracer and
adds the per-layer metrics; with ``concat`` it adds the sha256 of all
stdout concatenated in call order.
"""

# Set-up is timed up to the end of this import, so it comes before the others.
import time

import sylowlab.cli as cli

READY = time.perf_counter()

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_call(argv: list[str]) -> tuple[dict, str]:
    """Run one CLI call in-process; return its record and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a raising call is a failed operation; the pass goes on
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    text = out.getvalue()
    record = {
        "rc": rc,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "lines": text.count("\n"),
        "seconds": seconds,
        "error": error if error is not None else (err.getvalue()[-2000:] or None),
    }
    return record, text


def run_job(job: dict) -> dict:
    """Run the calls of one job and collect what ``run.py`` scores."""
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    concat = hashlib.sha256()
    records = []
    try:
        for i, argv in enumerate(job["calls"]):
            # A real CLI call starts in a clean process: collect the previous
            # call's garbage outside the timed region so no call pays for it.
            gc.collect()
            if tracer is not None:
                tracer.call = i
            record, text = run_call(argv)
            records.append(record)
            if job.get("concat"):
                concat.update(text.encode())
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "ready": READY,
        "calls": records,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if job.get("concat"):
        result["concat_sha256"] = concat.hexdigest()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    return result


def main() -> int:
    where = Path(cli.__file__).resolve()
    if SRC not in where.parents:
        print(f"error: imported sylowlab from {where}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_job(json.load(sys.stdin))
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
