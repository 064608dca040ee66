"""``cryowire`` command-line interface.

Usage::

    cryowire list                          # enumerate experiments
    cryowire run fig23                     # run one experiment, print its table
    cryowire run fig22 fig23 --format json # several, as JSON
    cryowire run table3 --output out/      # one artifact file per experiment
    cryowire all --jobs 4                  # everything, 4 worker processes
    cryowire all --no-cache                # force recomputation
    cryowire report                        # paper-vs-measured summary
    cryowire stats                         # manifest of the last engine run
    cryowire audit                         # physical-invariant sweep
    cryowire audit --point 4,0.4,0.6       # + describe an off-domain point
    cryowire run fig23 --strict            # guard warnings become errors
    cryowire serve --port 8077             # long-running model-query API

``run`` and ``all`` execute through the caching execution engine
(:mod:`repro.experiments.engine`): results are memoized on disk keyed by
experiment id, kwargs, package version and the experiment module's
source digest, and cache misses fan out over ``--jobs N`` worker
processes. ``--cache-dir DIR`` relocates the cache (default
``$CRYOWIRE_CACHE_DIR`` or ``~/.cache/cryowire``); ``--no-cache``
bypasses it. Every run writes a JSON manifest (wall time, status and
worker attribution per experiment) that ``cryowire stats`` prints.

Failures: ``--timeout SECONDS`` bounds each driver's wall clock (0
disables; the default scales with the spec's cost tag). A driver
exception, a timeout or a dead worker fails that experiment only;
``--keep-going`` emits every completed result even when some
experiments fail, and ``--resume`` re-runs only what the previous run
did not complete (per the last manifest) or the cache no longer
serves. Corrupt cache entries are quarantined under
``<cache>/corrupt/`` and recomputed transparently; ``cryowire stats``
reports timeouts, skipped experiments and quarantined entries.

Physics guardrails: drivers run inside a guard context
(:mod:`repro.util.guards`), so every result carries the structured
model-validity warnings tripped while producing it. ``--strict``
escalates the first warning to a failure. ``cryowire audit`` sweeps the
physical-invariant suite (:mod:`repro.validation.invariants`) over an
operating-point grid; ``--point T[,VDD[,VTH]]`` additionally validates
arbitrary (including model-rejected) operating points.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ExecutionEngine,
    ExperimentExecutionError,
    load_last_manifest,
)
from repro.experiments.registry import EXPERIMENTS

#: --format value -> (renderer, file extension)
_FORMATS = {
    "text": (ExperimentResult.to_text, "txt"),
    "json": (ExperimentResult.to_json, "json"),
    "csv": (ExperimentResult.to_csv, "csv"),
}


def _jobs(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {jobs}")
    return jobs


def _timeout(value: str) -> float:
    timeout = float(value)
    if timeout < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {timeout}")
    return timeout


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        metavar="N",
        help="worker processes for cache misses (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache (always recompute)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory (default $CRYOWIRE_CACHE_DIR "
        "or ~/.cache/cryowire)",
    )
    parser.add_argument(
        "--timeout",
        type=_timeout,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock budget (0 disables; default "
        "scales with the experiment's cost tag)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="escalate model-validity warnings to errors (a driver that "
        "trips a guard fails instead of producing a caveated result)",
    )


def _engine(args: argparse.Namespace) -> ExecutionEngine:
    """The engine ``run``, ``all`` and ``report`` execute through."""
    return ExecutionEngine(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout_s=args.timeout,
        strict=args.strict,
    )


def _add_recovery_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="do not abort on experiment failures: emit every completed "
        "result and report the failures (exit status 1)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments the previous run already completed "
        "(per the last run manifest) whose results are still cached",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=sorted(_FORMATS),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write one artifact file per experiment into DIR "
        "instead of printing",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryowire",
        description="Regenerate the CryoWire paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="experiment",
        choices=sorted(EXPERIMENTS),
        help="experiment ids (see 'cryowire list')",
    )
    _add_output_flags(run)
    _add_engine_flags(run)
    _add_recovery_flags(run)

    all_parser = sub.add_parser("all", help="run every experiment")
    _add_output_flags(all_parser)
    _add_engine_flags(all_parser)
    _add_recovery_flags(all_parser)

    report = sub.add_parser(
        "report", help="paper-vs-measured summary of every anchor"
    )
    _add_engine_flags(report)

    stats = sub.add_parser("stats", help="print the last run's manifest")
    stats.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory holding the manifest",
    )

    audit = sub.add_parser(
        "audit",
        help="sweep the physical-invariant suite over an operating-point grid",
    )
    audit.add_argument(
        "--temperatures",
        default=None,
        metavar="K[,K...]",
        help="comma-separated temperature grid in kelvin "
        "(default 77,135,200,250,300)",
    )
    audit.add_argument(
        "--lengths",
        default=None,
        metavar="UM[,UM...]",
        help="comma-separated wire-length grid in microns "
        "(default 200,1000,2000,6000)",
    )
    audit.add_argument(
        "--point",
        action="append",
        default=[],
        metavar="T[,VDD[,VTH]]",
        help="additionally validate this operating point (repeatable); "
        "validated only, never fed to the models, so out-of-domain "
        "points are described instead of crashed on",
    )
    audit.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first non-info finding instead of reporting",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-running model-query HTTP service",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8077,
        metavar="PORT",
        help="bind port (default 8077; 0 = ephemeral)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="largest coalesced point batch (default 256)",
    )
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="disable micro-batching (each query evaluated alone; "
        "the load-test A/B control)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        metavar="N",
        help="LRU cap on the warm TechContext memo store (default 4096)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission cap on concurrently dispatched requests; excess "
        "load is shed with 503 overloaded + Retry-After (default 64)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=512,
        metavar="N",
        help="cap on the micro-batcher's pending queue depth; 0 removes "
        "the bound (default 512)",
    )
    serve.add_argument(
        "--default-deadline-ms",
        type=float,
        default=10_000.0,
        metavar="MS",
        help="per-request time budget when the client sends no "
        "X-CryoWire-Deadline-Ms header; expired requests answer 408 "
        "(default 10000; 0 disables the default budget)",
    )
    serve.add_argument(
        "--drain-timeout-s",
        type=float,
        default=5.0,
        metavar="S",
        help="graceful-drain window on SIGTERM/SIGINT: in-flight work "
        "gets this long to finish before leftovers are failed with "
        "structured 503 shutting_down (default 5.0)",
    )
    return parser


def _csv_floats(text: str, flag: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"error: {flag} expects comma-separated numbers, got {text!r}")


def _parse_point(text: str) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if not parts or len(parts) > 3 or not parts[0]:
        raise SystemExit(f"error: --point expects T[,VDD[,VTH]], got {text!r}")
    try:
        values = [float(part) if part else None for part in parts]
    except ValueError:
        raise SystemExit(f"error: --point expects numbers, got {text!r}")
    return tuple(values) + (None,) * (3 - len(values))


def _emit(
    experiment_ids: Sequence[str],
    results: Dict[str, ExperimentResult],
    fmt: str,
    output_dir: Optional[str],
    blank_after_each: bool,
) -> None:
    # Failed experiments have no result to render; emit what completed
    # and let main() report the rest.
    experiment_ids = [eid for eid in experiment_ids if eid in results]
    render, extension = _FORMATS[fmt]
    if output_dir is not None:
        directory = Path(output_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for experiment_id in experiment_ids:
            path = directory / f"{experiment_id}.{extension}"
            path.write_text(render(results[experiment_id]) + "\n")
            print(f"wrote {path}")
        return
    if blank_after_each:
        for experiment_id in experiment_ids:
            print(render(results[experiment_id]))
            print()
    else:
        print("\n\n".join(render(results[eid]) for eid in experiment_ids))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    if args.command in ("run", "all"):
        experiment_ids = (
            sorted(EXPERIMENTS) if args.command == "all" else list(args.experiments)
        )
        try:
            outcome = _engine(args).run(
                experiment_ids,
                keep_going=args.keep_going,
                resume=args.resume,
            )
        except ExperimentExecutionError as exc:
            # Salvage the partial outcome: emit what completed, then fail.
            print(f"error: {exc}", file=sys.stderr)
            outcome = exc.outcome
            if outcome is None:
                return 1
        _emit(
            experiment_ids,
            outcome.results,
            args.format,
            args.output,
            blank_after_each=args.command == "all",
        )
        for record in outcome.failures:
            print(
                f"failed: {record.experiment_id} [{record.status}]: "
                f"{record.error}",
                file=sys.stderr,
            )
        return 1 if outcome.failures else 0
    if args.command == "report":
        from repro.experiments.report import main as report_main

        print(report_main(runner=_engine(args).run_one))
        return 0
    if args.command == "audit":
        from repro.util.guards import ModelValidityError
        from repro.validation.invariants import run_audit

        temperatures = (
            _csv_floats(args.temperatures, "--temperatures")
            if args.temperatures
            else None
        )
        lengths = _csv_floats(args.lengths, "--lengths") if args.lengths else None
        points = [_parse_point(text) for text in args.point]
        try:
            report = run_audit(
                temperatures=temperatures,
                lengths_um=lengths,
                extra_points=points,
                strict=args.strict,
            )
        except ModelValidityError as exc:
            print(f"audit failed under --strict: {exc}", file=sys.stderr)
            return 1
        print(report.to_text())
        return 0 if report.ok else 1
    if args.command == "serve":
        from repro.serve import CryoWireServer, ModelService

        if args.max_batch < 1:
            raise SystemExit("error: --max-batch must be >= 1")
        if args.cache_entries < 1:
            raise SystemExit("error: --cache-entries must be >= 1")
        if args.max_inflight < 1:
            raise SystemExit("error: --max-inflight must be >= 1")
        if args.max_queue < 0:
            raise SystemExit("error: --max-queue must be >= 0")
        if args.drain_timeout_s < 0:
            raise SystemExit("error: --drain-timeout-s must be >= 0")
        server = CryoWireServer(
            service=ModelService(max_cache_entries=args.cache_entries),
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batching_enabled=not args.no_batching,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue if args.max_queue > 0 else None,
            default_deadline_ms=args.default_deadline_ms,
            drain_timeout_s=args.drain_timeout_s,
        )
        server.run()
        return 0
    # stats
    manifest = load_last_manifest(args.cache_dir)
    if manifest is None:
        print("no run manifest found (run 'cryowire all' first)")
        return 1
    print(manifest.summary())
    cache = ResultCache(args.cache_dir)
    print(
        f"cache: {cache.entry_count()} entries, "
        f"{cache.quarantined_count()} quarantined"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
