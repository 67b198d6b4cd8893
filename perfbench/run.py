"""sylowlab benchmark: timed ``verify`` workloads driven through ``sylowlab.cli.main``.

Run from the repository root::

    python3 perfbench/run.py --workload catalog60 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all                   # every workload, one table
    python3 perfbench/run.py --check-golden                   # recompute the golden digests

A run spawns one fresh single-threaded interpreter per pass (``worker.py``),
one after another. Each pass imports ``sylowlab.cli`` and makes every call
of the workload once, in an order shuffled by ``--seed``. Passes repeat
while the next one is expected to end less than half a pass after
``--seconds``, so a run lasts ``--seconds`` on average. Every call's exit code
and stdout sha256 are checked against ``golden.json``. With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and it reports the per-layer metrics
named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CATALOG_EQUIVALENTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SPANS_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 10  # extra empty passes per run, so setup_s is a median of several starts
WORKER_TIMEOUT_S = 150
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def highest_supported_percentile(n: int, beyond: int = TAIL_SAMPLES) -> float | None:
    """Highest percentile with at least ``beyond`` of n samples above it; None if none."""
    if n <= beyond:
        return None
    return 100 * (n - beyond) / n


def load_golden() -> dict[str, dict[tuple[str, ...], tuple[int, str]]]:
    data = json.loads(GOLDEN.read_text())
    return {
        name: {tuple(entry["argv"]): (entry["rc"], entry["sha256"]) for entry in entries}
        for name, entries in data["calls"].items()
    }


def call_failed(argv, record: dict, golden: dict[tuple[str, ...], tuple[int, str]]) -> bool:
    """A call fails if it raised, exited non-zero, or its stdout differs from the golden digest."""
    expected = golden.get(tuple(argv))
    return (
        record["rc"] != 0
        or expected is None
        or (record["rc"], record["sha256"]) != tuple(expected)
    )


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SYLOWLAB_CAPS", None)  # default caps only: the workloads depend on them
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONNOUSERSITE="1",
        PYTHONHASHSEED="0",  # one less source of run-to-run variation
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(job: dict) -> tuple[dict, float]:
    """Run one pass in a fresh interpreter; return its result and its set-up seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True,
        env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - started


class Run:
    """Samples gathered over the passes of one benchmark run."""

    def __init__(self, workload: str, golden: dict):
        self.workload = workload
        self.golden = golden
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.plain: list[dict] = []   # untraced pass results
        self.traced: list[dict] = []  # traced pass results

    def add_pass(self, calls, result: dict, setup: float, traced: bool) -> None:
        self.setups.append(setup)
        for argv, record in zip(calls, result["calls"]):
            self.attempted += 1
            if call_failed(argv, record, self.golden):
                self.failed += 1
                self.errors.append(f"{' '.join(argv)}: rc={record['rc']} {record['error'] or ''}".strip())
        result["verify_s"] = sum(record["seconds"] for record in result["calls"])
        (self.traced if traced else self.plain).append(result)

    def end_to_end(self) -> dict[str, float]:
        latencies = [record["seconds"] for result in self.plain for record in result["calls"]]
        return {
            "setup_s": statistics.median(self.setups),
            "verify_s": statistics.median(result["verify_s"] for result in self.plain),
            "call_p50_s": percentile(latencies, 50),
            "call_p90_s": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(result["maxrss_kb"] / 1024 for result in self.plain),
        }

    def per_layer(self, names: list[str]) -> dict[str, float]:
        rows = []
        for result in self.traced:
            layers = dict(result["layers"])
            emitted = sum(record["lines"] for record in result["calls"])
            computed = layers["cli.reports_computed"]
            layers["cli.reports_emitted"] = emitted
            layers["cli.emit_ratio"] = emitted / computed if computed else 0.0
            rows.append(layers)
        out = {name: statistics.median(row[name] for row in rows)
               for name in names if name != "trace.overhead_frac"}
        traced_s = statistics.median(result["verify_s"] for result in self.traced)
        plain_s = statistics.median(result["verify_s"] for result in self.plain)
        out["trace.overhead_frac"] = traced_s / plain_s - 1
        return out

    def describe(self) -> list[str]:
        """Human-readable lines: sample counts, the supported tail and the failure share."""
        n = sum(len(result["calls"]) for result in self.plain)
        tail = highest_supported_percentile(n)
        latencies = [record["seconds"] for result in self.plain for record in result["calls"]]
        lines = [
            f"{self.workload}: passes={len(self.plain)} traced_passes={len(self.traced)} "
            f"setup_samples={len(self.setups)} call_samples={n}",
            f"{self.workload}: ops_failed_frac = {self.failed / self.attempted!r} "
            f"({self.failed} of {self.attempted} calls)",
        ]
        if tail is None:
            lines.append(f"{self.workload}: no percentile has {TAIL_SAMPLES} samples beyond it")
        else:
            lines.append(
                f"{self.workload}: highest supported percentile p{tail:.1f} = "
                f"{percentile(latencies, tail)!r} s (call_p90_s supported: {'yes' if tail >= 90 else 'no'})"
            )
        return lines + [f"{self.workload}: FAILED {line}" for line in self.errors[:5]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> Run:
    calls = WORKLOADS[name]
    rng = random.Random(seed)
    run = Run(name, golden[name])
    start = time.perf_counter()
    run_worker({"calls": []})  # warm-up: bytecode caches and the page cache
    for _ in range(SETUP_PROBES):
        run.setups.append(run_worker({"calls": []})[1])
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
    modes = (False, True) if trace else (False,)
    last_round = 0.0
    while not run.plain or time.perf_counter() - start + last_round / 2 <= seconds:
        round_start = time.perf_counter()
        for traced in modes:
            order = rng.sample(calls, len(calls))
            job = {"calls": order, "trace": traced,
                   "spans_path": str(SPANS_DIR / f"spans-{name}.jsonl.gz") if traced else None}
            result, setup = run_worker(job)
            run.add_pass(order, result, setup, traced)
        last_round = time.perf_counter() - round_start
    return run


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark(args) -> int:
    spec = load_benchmark()
    golden = load_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), golden)
        values = run.per_layer([m["name"] for m in specs]) if args.trace else run.end_to_end()
        for line in run.describe():
            print(line)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric in specs:
            value = values[metric["name"]]
            print(f"{name}: {metric['name']} = {value!r} {metric['unit']}")
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def compute_golden() -> dict:
    """Run every workload once in list order and each whole-catalog equivalent once."""
    out: dict = {"calls": {}, "catalog_equivalents": {}}
    for name, calls in WORKLOADS.items():
        result, _ = run_worker({"calls": calls, "concat": name in CATALOG_EQUIVALENTS})
        out["calls"][name] = [
            {"argv": argv, "rc": record["rc"], "sha256": record["sha256"]}
            for argv, record in zip(calls, result["calls"])
        ]
        if name in CATALOG_EQUIVALENTS:
            argv = CATALOG_EQUIVALENTS[name]
            whole, _ = run_worker({"calls": [argv]})
            record = whole["calls"][0]
            out["catalog_equivalents"][name] = {
                "argv": argv, "rc": record["rc"], "sha256": record["sha256"],
                "lines": record["lines"], "concat_sha256": result["concat_sha256"],
            }
    return out


def check_golden(computed: dict) -> list[str]:
    """Problems with the computed digests; empty when they match the committed ones."""
    problems = []
    for name, equiv in computed["catalog_equivalents"].items():
        if equiv["concat_sha256"] != equiv["sha256"]:
            problems.append(f"{name}: per-group stdout does not concatenate to {' '.join(equiv['argv'])}")
    for name, entries in computed["calls"].items():
        for entry in entries:
            if entry["rc"] != 0:
                problems.append(f"{name}: {' '.join(entry['argv'])} exited {entry['rc']}")
    if GOLDEN.exists():
        stored = json.loads(GOLDEN.read_text())
        for section in ("calls", "catalog_equivalents"):
            for name in computed[section]:
                if computed[section][name] != stored[section].get(name):
                    problems.append(f"{name}: {section} differ from {GOLDEN.name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check-golden", action="store_true",
                      help="recompute every call's exit code and stdout digest and compare")
    mode.add_argument("--write-golden", action="store_true",
                      help="record the digests of the current code as the reference")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "sylowlab" / "cli.py").is_file():
        print(f"error: no sylowlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden or args.check_golden:
        computed = compute_golden()
        if args.write_golden:
            GOLDEN.write_text(json.dumps(computed, indent=1) + "\n")
        problems = check_golden(computed)
        for line in problems:
            print(line)
        total = sum(len(entries) for entries in computed["calls"].values())
        print(f"golden: {total} calls checked, {len(problems)} problems")
        return 1 if problems else 0
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
