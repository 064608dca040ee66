"""Command line of the end-to-end benchmark.

Usage (from the repository root)::

    python -m benchmarks.e2e                          # all four workloads
    python -m benchmarks.e2e --workload serve_points --seed 3 --seconds 20
    python -m benchmarks.e2e --trace                  # per-layer metrics
    python -m benchmarks.e2e --json result.json       # full record

Prints every metric by name with its unit and sample count, runs the
output checks, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace``). Exits 1 if a check fails and 2 if the tree holds no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from benchmarks.e2e.stats import summarize

ROOT = Path(__file__).resolve().parents[2]


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec: Dict, trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git(root: Path) -> Dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}


def _host() -> Dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _print_result(result, units: Dict[str, str], duration_s: float) -> None:
    print(f"== {result.workload}: {duration_s:.1f} s, "
          f"{result.attempted} attempted, {result.failed} failed ==")
    for name, unit in units.items():
        metric = result.metrics[name]
        print(f"  {name:38s} {metric.value:14.6g} {unit:8s} n={len(metric.samples)}")
    for key, value in result.info.items():
        if key != "span_calls":
            print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    for name, ok, detail in result.checks:
        if not ok:
            print(f"  FAILED check: {name}: {detail}")
    print(f"  checks: {sum(ok for _, ok, _ in result.checks)}/{len(result.checks)} passed")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per workload (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="run the traced per-layer variant instead")
    parser.add_argument("--json", metavar="OUT", help="write the full result record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("CRYOWIRE_")]:
        del os.environ[key]

    from benchmarks.e2e import workloads
    from benchmarks.e2e.sut import Checkout

    names = args.workload or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    spec = _spec()
    units = _units(spec, trace)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    all_cpus = os.sched_getaffinity(0)
    sut_cpus = all_cpus
    if len(all_cpus) >= 2:
        first, second = sorted(all_cpus)[:2]
        sut_cpus = {first}
        os.sched_setaffinity(0, {second})  # the load generator's CPU
    scratch = ROOT / ".bench_tmp"
    workdir = scratch / f"run-{os.getpid()}"
    results = []
    record = {
        "git": _git(ROOT),
        "host": {**_host(), "sut_cpus": sorted(sut_cpus)},
        "seed": args.seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {},
    }
    try:
        for name in names:
            start = time.perf_counter()
            checkout = Checkout(ROOT, workdir / name, sut_cpus, all_cpus)
            result = workloads.run(name, checkout, args.seed, seconds, trace)
            duration = time.perf_counter() - start
            results.append(result)
            _print_result(result, units, duration)
            record["workloads"][name] = {
                "duration_s": duration,
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.checks],
                "info": result.info,
                "metrics": {
                    metric: {"unit": unit, "value": result.metrics[metric].value,
                             **summarize(result.metrics[metric].samples)}
                    for metric, unit in units.items()
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")

    def metrics_of(result) -> Dict:
        return {m: {"value": result.metrics[m].value, "unit": u} for m, u in units.items()}

    correct = all(r.correct for r in results)
    line = {
        "correct": correct,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics_of(results[0]) if len(results) == 1
        else {r.workload: metrics_of(r) for r in results},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
