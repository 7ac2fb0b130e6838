"""``repro`` — thermal-safe scheduling from the command line.

The subcommands::

    repro schedule ...   # one SoC, one (TL, STCL) question (paper flow)
    repro solve ...      # one request through any registered solver
    repro batch ...      # a generated fleet of scenarios over a backend
    repro serve ...      # long-lived scheduling service (JSONL over TCP)
    repro route ...      # consistent-hash router over N serve shards
    repro fleet ...      # per-shard health table of a running fleet
    repro submit ...     # send requests to a running service
    repro watch ...      # stream one request's closed-loop run live
    repro report ...     # per-solver summary of JSONL archives
    repro check ...      # repo-specific static analysis (lint rules)

(``repro-schedule`` remains as an alias for ``repro schedule``, and
``python -m repro ...`` works without installed entry points.)

The single-run flow without writing Python:

* pick a SoC: a built-in platform (``--soc alpha15``) or your own
  HotSpot ``.flp`` plus a power CSV (``--flp chip.flp --powers p.csv``);
* pick the limits: ``--tl`` (Celsius) and ``--stcl``, or let the tool
  derive an STCL scale from the SoC's own regime (``--auto-stcl``);
* get the schedule, a Gantt chart, a thermal audit, and (optionally)
  a JSON archive and per-session heatmaps.

The power CSV has a header and one row per core::

    core,test_w,functional_w
    cpu0,12.5,3.1

Examples::

    repro schedule --soc alpha15 --tl 165 --stcl 60 --gantt --save run.json
    repro schedule --flp my.flp --powers my.csv --tl 150 --auto-stcl 2.0
    repro solve --soc alpha15 --tl 165 --solver power_constrained
    repro solve --kind grid --rows 3 --cols 4 --tl-headroom 1.2 --stcl-headroom 2
    repro batch --count 100 --backend process --solver sequential --out fleet.jsonl
    repro serve --backend process --archive served.jsonl
    repro submit --soc alpha15 --tl 165 --stcl 60 --repeat 8 --stats
    repro report fleet.jsonl served.jsonl
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .core.gantt import render_gantt, render_utilisation
from .core.safety import audit_schedule
from .core.scheduler import SchedulerConfig, ThermalAwareScheduler
from .core.serialize import save_result
from .core.session_model import SessionModelConfig, SessionThermalModel
from .errors import ReproError
from .floorplan.hotspot_format import read_flp
from .power.profile import CorePower, PowerProfile
from .soc.library import (
    ALPHA15_STC_SCALE,
    alpha15_soc,
    hypothetical7_soc,
    worked_example6_soc,
)
from .soc.system import SocUnderTest
from .thermal.heatmap import render_heatmap
from .thermal.simulator import ThermalSimulator

#: Built-in SoCs selectable by name, with their calibrated STC scale.
BUILTIN_SOCS = {
    "alpha15": (alpha15_soc, ALPHA15_STC_SCALE),
    "hypothetical7": (hypothetical7_soc, 1.0),
    "worked-example6": (worked_example6_soc, 1.0),
}


def load_power_csv(path: Path) -> PowerProfile:
    """Read a ``core,test_w,functional_w`` CSV into a power profile."""
    try:
        with path.open() as handle:
            reader = csv.DictReader(handle)
            required = {"core", "test_w", "functional_w"}
            if reader.fieldnames is None or not required <= set(reader.fieldnames):
                raise ReproError(
                    f"power CSV must have columns {sorted(required)}, "
                    f"got {reader.fieldnames}"
                )
            cores = [
                CorePower(
                    row["core"],
                    functional_w=float(row["functional_w"]),
                    test_w=float(row["test_w"]),
                )
                for row in reader
            ]
    except OSError as exc:
        raise ReproError(f"cannot read power CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"bad number in power CSV {path}: {exc}") from exc
    if not cores:
        raise ReproError(f"power CSV {path} contains no cores")
    return PowerProfile(cores, name=path.stem)


def build_soc(args: argparse.Namespace) -> tuple[SocUnderTest, float]:
    """Resolve the SoC and its default STC scale from the CLI options."""
    if args.soc is not None:
        factory, stc_scale = BUILTIN_SOCS[args.soc]
        return factory(), stc_scale
    if args.flp is None or args.powers is None:
        raise ReproError(
            "either --soc <builtin> or both --flp and --powers are required"
        )
    floorplan = read_flp(args.flp)
    profile = load_power_csv(Path(args.powers))
    soc = SocUnderTest.from_profile(
        floorplan, profile, test_time_s=args.test_time
    )
    return soc, 1.0


def derive_stcl(
    soc: SocUnderTest, model: SessionThermalModel, headroom: float
) -> float:
    """Auto-STCL: *headroom* times the largest singleton STC.

    Guarantees every core is schedulable (the paper's implicit
    precondition) while leaving room for concurrency.
    """
    worst = max(
        model.session_thermal_characteristic([name]) for name in soc.core_names
    )
    return headroom * worst


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-schedule",
        description="Generate a thermal-safe SoC test schedule (DATE 2005 flow).",
    )
    source = parser.add_argument_group("SoC selection")
    source.add_argument(
        "--soc", choices=sorted(BUILTIN_SOCS), help="built-in platform"
    )
    source.add_argument("--flp", type=Path, help="HotSpot .flp floorplan file")
    source.add_argument(
        "--powers", type=Path, help="CSV with core,test_w,functional_w"
    )
    source.add_argument(
        "--test-time",
        type=float,
        default=1.0,
        help="per-core test time in seconds (default 1.0)",
    )

    limits = parser.add_argument_group("limits")
    limits.add_argument(
        "--tl", type=float, required=True, help="temperature limit TL (Celsius)"
    )
    limits.add_argument("--stcl", type=float, help="session thermal char. limit")
    limits.add_argument(
        "--auto-stcl",
        type=float,
        metavar="HEADROOM",
        help="derive STCL as HEADROOM x the worst singleton STC",
    )
    limits.add_argument(
        "--include-vertical",
        action="store_true",
        help="include the vertical heat path in the session model "
        "(required for floorplans that do not tile the die)",
    )

    output = parser.add_argument_group("output")
    output.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    output.add_argument(
        "--heatmap",
        action="store_true",
        help="print an ASCII heatmap of the hottest session",
    )
    output.add_argument(
        "--save", type=Path, metavar="JSON", help="archive the result as JSON"
    )
    args = parser.parse_args(argv)

    try:
        soc, stc_scale = build_soc(args)
        model = SessionThermalModel(
            soc,
            SessionModelConfig(
                include_vertical=args.include_vertical, stc_scale=stc_scale
            ),
        )
        simulator = ThermalSimulator(soc.floorplan, soc.package, soc.adjacency)

        if args.stcl is not None:
            stcl = args.stcl
        elif args.auto_stcl is not None:
            stcl = derive_stcl(soc, model, args.auto_stcl)
            print(f"auto-derived STCL = {stcl:.2f}")
        else:
            raise ReproError("one of --stcl or --auto-stcl is required")

        scheduler = ThermalAwareScheduler(
            soc,
            simulator=simulator,
            session_model=model,
            config=SchedulerConfig(),
        )
        result = scheduler.schedule(tl_c=args.tl, stcl=stcl)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(result.describe())
    audit = audit_schedule(result.schedule, limit_c=args.tl, simulator=simulator)
    print(audit.describe())
    print(render_utilisation(result.schedule))

    if args.gantt:
        print()
        print(render_gantt(result.schedule, limit_c=args.tl))
    if args.heatmap:
        hottest = max(
            result.schedule.sessions, key=lambda s: s.max_temperature_c
        )
        field = simulator.steady_state(soc.session_power_map(hottest.cores))
        print()
        print(f"heatmap of the hottest session [{', '.join(hottest.cores)}]:")
        print(render_heatmap(soc.floorplan, field))
    if args.save is not None:
        save_result(result, args.save)
        print(f"result archived to {args.save}")
    return 0


def parse_solver_params(pairs: list[str]) -> dict:
    """Parse repeated ``KEY=VALUE`` options into a typed params dict.

    Values are coerced to int, float or bool when they look like one;
    everything else stays a string (solver parameter validation happens
    in the registry, not here).
    """
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ReproError(
                f"--param expects KEY=VALUE, got {pair!r}"
            )
        value: object = raw
        lowered = raw.lower()
        if lowered in ("true", "false"):
            value = lowered == "true"
        else:
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
        params[key] = value
    return params


def add_request_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared system/limits/solver options of a request.

    ``repro solve`` (local solve) and ``repro submit`` (solve over the
    service protocol) describe the *same* question; keeping the flags in
    one place keeps the two front doors from drifting.
    """
    from .api import available_solvers

    source = parser.add_argument_group("system selection")
    source.add_argument(
        "--soc",
        choices=sorted(BUILTIN_SOCS),
        help="built-in platform (alternative: describe a scenario with --kind)",
    )
    source.add_argument(
        "--kind",
        choices=["grid", "slicing"],
        help="generated-floorplan scenario family",
    )
    source.add_argument("--rows", type=int, default=3, help="grid rows (default 3)")
    source.add_argument("--cols", type=int, default=3, help="grid cols (default 3)")
    source.add_argument(
        "--blocks", type=int, default=9, help="slicing block count (default 9)"
    )
    source.add_argument(
        "--floorplan-seed", type=int, default=0, help="slicing-tree seed"
    )
    source.add_argument("--power-seed", type=int, default=0, help="power profile seed")
    source.add_argument(
        "--power-scale", type=float, default=1.0, help="power scaling factor"
    )
    source.add_argument(
        "--test-time", type=float, default=1.0, help="per-core test time (s)"
    )

    limits = parser.add_argument_group("limits")
    limits.add_argument("--tl", type=float, help="absolute temperature limit (degC)")
    limits.add_argument(
        "--tl-headroom",
        type=float,
        help="TL as HEADROOM x the hottest singleton rise above ambient (> 1)",
    )
    limits.add_argument("--stcl", type=float, help="absolute STC limit")
    limits.add_argument(
        "--stcl-headroom",
        type=float,
        help="STCL as HEADROOM x the worst singleton STC",
    )
    limits.add_argument(
        "--include-vertical",
        action="store_true",
        help="include the vertical heat path in the session model",
    )

    solver = parser.add_argument_group("solver")
    solver.add_argument(
        "--solver",
        choices=available_solvers(),
        default="thermal_aware",
        help="registered solver (default thermal_aware)",
    )
    solver.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="per-solver parameter (repeatable), e.g. --param power_limit_w=45",
    )


def request_from_args(args: argparse.Namespace) -> "ScheduleRequest":
    """Build the :class:`~repro.api.ScheduleRequest` the options describe."""
    from .api import ScheduleRequest
    from .engine import ScenarioSpec

    if (args.soc is None) == (args.kind is None):
        raise ReproError("exactly one of --soc or --kind is required")
    if args.soc is not None:
        soc_name: str | None = args.soc.replace("-", "_")
        scenario = None
    else:
        soc_name = None
        scenario = ScenarioSpec(
            kind=args.kind,
            rows=args.rows,
            cols=args.cols,
            n_blocks=args.blocks,
            floorplan_seed=args.floorplan_seed,
            power_seed=args.power_seed,
            power_scale=args.power_scale,
            test_time_s=args.test_time,
        )
    return ScheduleRequest(
        soc=soc_name,
        scenario=scenario,
        tl_c=args.tl,
        tl_headroom=args.tl_headroom,
        stcl=args.stcl,
        stcl_headroom=args.stcl_headroom,
        solver=args.solver,
        params=parse_solver_params(args.param),
        include_vertical=args.include_vertical,
    )


def solve_main(argv: list[str] | None = None) -> int:
    """``repro solve`` — one request through any registered solver."""
    from .api import Workbench

    parser = argparse.ArgumentParser(
        prog="repro solve",
        description=(
            "Answer one scheduling request through the unified solver API."
        ),
    )
    add_request_arguments(parser)
    output = parser.add_argument_group("output")
    output.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    output.add_argument(
        "--save", type=Path, metavar="JSON", help="archive the result as JSON"
    )
    args = parser.parse_args(argv)

    try:
        request = request_from_args(args)
        report = Workbench().solve(request)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(report.describe())
    if args.gantt:
        print()
        print(render_gantt(report.schedule, limit_c=report.tl_c))
    if args.save is not None:
        save_result(report.result, args.save)
        print(f"result archived to {args.save}")
    return 0


def batch_main(argv: list[str] | None = None) -> int:
    """``repro batch`` — schedule a generated scenario fleet."""
    from .api import available_solvers
    from .engine import (
        BatchRunner,
        FleetConfig,
        available_backends,
        generate_fleet,
    )

    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Generate and schedule a fleet of thermal scenarios.",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--count", type=int, default=100, help="fleet size (default 100)"
    )
    fleet.add_argument("--seed", type=int, default=0, help="fleet RNG seed")
    fleet.add_argument(
        "--no-builtins",
        action="store_true",
        help="generated scenarios only (skip alpha15 etc.)",
    )
    solver_group = parser.add_argument_group("solver")
    solver_group.add_argument(
        "--solver",
        choices=available_solvers(),
        default="thermal_aware",
        help="registered solver every job dispatches to (default thermal_aware)",
    )
    solver_group.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="per-solver parameter applied to every job (repeatable)",
    )
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend (default serial)",
    )
    execution.add_argument(
        "--workers", type=int, help="worker count (default: CPU count)"
    )
    execution.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared thermal-model cache",
    )
    output = parser.add_argument_group("output")
    output.add_argument(
        "--out", type=Path, metavar="JSONL", help="archive job records as JSONL"
    )
    output.add_argument(
        "--limit",
        type=int,
        default=10,
        help="per-job summary lines to print (default 10)",
    )
    args = parser.parse_args(argv)

    try:
        if args.count < 1:
            raise ReproError(f"--count must be >= 1, got {args.count}")
        config = FleetConfig(include_builtins=not args.no_builtins)
        jobs = generate_fleet(
            args.count,
            seed=args.seed,
            config=config,
            solver=args.solver,
            solver_params=parse_solver_params(args.param),
        )
        runner = BatchRunner(
            backend=args.backend,
            max_workers=args.workers,
            use_cache=not args.no_cache,
        )
        batch = runner.run(jobs, jsonl_path=args.out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(batch.describe(limit=args.limit))
    if args.out is not None:
        print(f"{batch.n_jobs} job records archived to {args.out}")
    return 0 if not batch.failed else 1


def serve_main(argv: list[str] | None = None) -> int:
    """``repro serve`` — run the long-lived scheduling service."""
    import asyncio
    import signal

    from .obs import open_json_log
    from .service import DEFAULT_PORT, ScheduleServer, ScheduleService

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve scheduling requests over the JSONL-over-TCP protocol "
            "until interrupted (SIGINT/SIGTERM drain gracefully)."
        ),
    )
    network = parser.add_argument_group("network")
    network.add_argument("--host", default="127.0.0.1", help="bind address")
    network.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port (default {DEFAULT_PORT}; 0 picks a free port)",
    )
    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="thread",
        help="worker-pool backend (default thread)",
    )
    execution.add_argument(
        "--workers", type=int, help="worker-pool maximum (default: CPU count)"
    )
    execution.add_argument(
        "--min-workers",
        type=int,
        help="adaptive-pool floor; below --workers the pool scales with "
        "queue depth (default: fixed at --workers)",
    )
    execution.add_argument(
        "--scale-down-idle",
        type=float,
        default=2.0,
        metavar="S",
        help="quiet seconds before the pool gives back one worker "
        "(default 2.0)",
    )
    execution.add_argument(
        "--queue-size",
        type=int,
        default=128,
        help="job-queue bound before backpressure (default 128)",
    )
    execution.add_argument(
        "--shed-watermark",
        type=int,
        metavar="N",
        help="queue depth past which submits are shed with "
        "ServiceBusyError instead of queued (default: never shed)",
    )
    execution.add_argument(
        "--solve-timeout",
        type=float,
        metavar="S",
        help="per-solve timeout in seconds (default: unbounded)",
    )
    execution.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared thermal-model cache",
    )
    execution.add_argument(
        "--coalesce-window-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="how long the dispatcher lingers for a burst to pile up "
        "before draining the queue into a coalesced batch "
        "(default 0: drain only what is already queued)",
    )
    execution.add_argument(
        "--max-batch",
        type=int,
        default=1,
        metavar="N",
        help="most jobs one worker dispatch may solve as a coalesced "
        "group sharing model builds and GEMMs (default 1: coalescing "
        "off, one job per dispatch)",
    )
    caching = parser.add_argument_group("answer cache")
    caching.add_argument(
        "--answer-cache",
        type=int,
        default=256,
        metavar="N",
        help="answer-cache LRU bound (default 256)",
    )
    caching.add_argument(
        "--answer-ttl",
        type=float,
        default=300.0,
        metavar="S",
        help="answer-cache TTL in seconds; 0 = never expires "
        "(default 300)",
    )
    caching.add_argument(
        "--no-answer-cache",
        action="store_true",
        help="disable the answer cache (every submit solves or dedups)",
    )
    caching.add_argument(
        "--warm-from",
        type=Path,
        metavar="JSONL",
        help="pre-populate the answer cache at boot from the ok records "
        "of an archive (repro serve --archive or repro batch --out)",
    )
    output = parser.add_argument_group("output")
    output.add_argument(
        "--archive",
        type=Path,
        metavar="JSONL",
        help="append every served outcome to this JSONL archive",
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured JSON request-lifecycle events to this "
        "file ('-' logs to stderr)",
    )
    observability.add_argument(
        "--slow-request-ms",
        type=float,
        metavar="MS",
        help="additionally log a slow_request event with the full phase "
        "trace for requests slower end-to-end than this threshold "
        "(implies stderr JSON logging when --log-json is not given)",
    )
    reactive = parser.add_argument_group("reactive streaming")
    reactive.add_argument(
        "--reactive-elevated",
        type=float,
        metavar="C",
        help="thermal-guard ELEVATED threshold for streamed submits "
        "(needs --reactive-critical; default: derived per request "
        "from its temperature limit)",
    )
    reactive.add_argument(
        "--reactive-critical",
        type=float,
        metavar="C",
        help="thermal-guard CRITICAL threshold (needs "
        "--reactive-elevated)",
    )
    reactive.add_argument(
        "--reactive-hysteresis",
        type=float,
        default=1.0,
        metavar="C",
        help="guard downgrade hysteresis in Celsius (default 1.0)",
    )
    reactive.add_argument(
        "--reactive-chunk",
        type=float,
        default=0.02,
        metavar="S",
        help="closed-loop control interval in simulated seconds "
        "(default 0.02)",
    )
    reactive.add_argument(
        "--reactive-throttle",
        type=float,
        default=0.5,
        metavar="F",
        help="power factor applied while the guard is ELEVATED "
        "(default 0.5)",
    )
    reactive.add_argument(
        "--reactive-dt",
        type=float,
        default=5e-3,
        metavar="S",
        help="virtual-sensor sampling step in seconds (default 0.005)",
    )
    args = parser.parse_args(argv)

    try:
        logger = (
            open_json_log(args.log_json) if args.log_json is not None else None
        )
    except OSError as exc:
        print(f"error: cannot open --log-json: {exc}", file=sys.stderr)
        return 1

    from .reactive import GuardConfig, ReactiveConfig

    if (args.reactive_elevated is None) != (args.reactive_critical is None):
        print(
            "error: --reactive-elevated and --reactive-critical go "
            "together (one without the other leaves the guard half "
            "configured)",
            file=sys.stderr,
        )
        return 1
    reactive_guard = None
    if args.reactive_elevated is not None:
        try:
            reactive_guard = GuardConfig(
                elevated_c=args.reactive_elevated,
                critical_c=args.reactive_critical,
                hysteresis_c=args.reactive_hysteresis,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    async def _serve() -> None:
        service = ScheduleService(
            backend=args.backend,
            max_workers=args.workers,
            min_workers=args.min_workers,
            scale_down_idle_s=args.scale_down_idle,
            shed_watermark=args.shed_watermark,
            use_cache=not args.no_cache,
            queue_size=args.queue_size,
            default_timeout_s=args.solve_timeout,
            archive=args.archive,
            answer_cache_size=0 if args.no_answer_cache else args.answer_cache,
            # Exactly 0 is the documented no-expiry sentinel; negatives
            # fall through to AnswerCache's validation (a typoed sign
            # must not silently mean "serve stale forever").
            answer_ttl_s=None if args.answer_ttl == 0 else args.answer_ttl,
            warm_from=args.warm_from,
            logger=logger,
            slow_request_ms=args.slow_request_ms,
            reactive_guard=reactive_guard,
            reactive_config=ReactiveConfig(
                chunk_s=args.reactive_chunk,
                throttle_factor=args.reactive_throttle,
            ),
            reactive_dt=args.reactive_dt,
            coalesce_window_ms=args.coalesce_window_ms,
            max_batch=args.max_batch,
        )
        await service.start()
        server = ScheduleServer(service, host=args.host, port=args.port)
        await server.start()
        print(
            f"repro service listening on {args.host}:{server.port} "
            f"({service.describe_config()})",
            flush=True,
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except NotImplementedError:  # non-unix event loops
                pass
        try:
            await stop_event.wait()
        finally:
            print("draining...", flush=True)
            await server.stop()
            await service.stop(drain=True)
            print(service.metrics().describe(), flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # loops without signal handlers (drain already attempted)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # port in use, bad bind address
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if logger is not None:
            logger.close()
    return 0


def route_main(argv: list[str] | None = None) -> int:
    """``repro route`` — run the fleet router in front of N shards."""
    import asyncio
    import signal

    from .service import DEFAULT_ROUTER_PORT
    from .service.fleet import FleetRouter, RetryPolicy

    parser = argparse.ArgumentParser(
        prog="repro route",
        description=(
            "Route scheduling requests over a fleet of `repro serve` "
            "shards: consistent hashing by request content hash, health "
            "probes with per-shard circuit breakers, and failover along "
            "the ring when a shard is down."
        ),
    )
    network = parser.add_argument_group("network")
    network.add_argument("--host", default="127.0.0.1", help="bind address")
    network.add_argument(
        "--port",
        type=int,
        default=DEFAULT_ROUTER_PORT,
        help=f"TCP port (default {DEFAULT_ROUTER_PORT}; 0 picks a free port)",
    )
    fleet = parser.add_argument_group("fleet")
    fleet.add_argument(
        "--shard",
        action="append",
        required=True,
        dest="shards",
        metavar="HOST:PORT",
        help="a `repro serve` shard address (repeat per shard)",
    )
    fleet.add_argument(
        "--replicas",
        type=int,
        default=128,
        help="virtual-node points per shard on the hash ring (default 128)",
    )
    health = parser.add_argument_group("health")
    health.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        metavar="S",
        help="seconds between ping probes of every shard (default 1.0)",
    )
    health.add_argument(
        "--probe-timeout",
        type=float,
        default=2.0,
        metavar="S",
        help="per-probe deadline in seconds (default 2.0)",
    )
    health.add_argument(
        "--failure-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures that open a shard's breaker (default 3)",
    )
    health.add_argument(
        "--cooldown",
        type=float,
        default=5.0,
        metavar="S",
        help="open-breaker cooldown before a trial request (default 5.0)",
    )
    health.add_argument(
        "--recovery-threshold",
        type=int,
        default=2,
        metavar="N",
        help="half-open successes that close the breaker (default 2)",
    )
    health.add_argument(
        "--retry-attempts",
        type=int,
        default=2,
        metavar="N",
        help="tries per shard before failing over (default 2)",
    )
    args = parser.parse_args(argv)

    async def _route() -> None:
        router = FleetRouter(
            args.shards,
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            retry_policy=RetryPolicy(
                max_attempts=args.retry_attempts,
                base_delay_s=0.05,
                max_delay_s=0.5,
            ),
            probe_interval_s=args.probe_interval,
            probe_timeout_s=args.probe_timeout,
            failure_threshold=args.failure_threshold,
            cooldown_s=args.cooldown,
            recovery_threshold=args.recovery_threshold,
        )
        await router.start()
        print(
            f"repro router listening on {args.host}:{router.port} "
            f"({router.describe_config()})",
            flush=True,
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except NotImplementedError:  # non-unix event loops
                pass
        try:
            await stop_event.wait()
        finally:
            print("stopping router...", flush=True)
            counters = router.router_counters()
            await router.stop()
            pairs = ", ".join(
                f"{key}={value:.1f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in counters.items()
            )
            print(f"router counters: {pairs}", flush=True)

    try:
        asyncio.run(_route())
    except KeyboardInterrupt:
        pass  # loops without signal handlers (stop already attempted)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # port in use, bad bind address
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def fleet_main(argv: list[str] | None = None) -> int:
    """``repro fleet`` — per-shard health and stats of a running fleet."""
    import json

    from .errors import ServiceError
    from .service import DEFAULT_ROUTER_PORT, ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description=(
            "Fetch the fleet_stats frame from a running `repro route` "
            "(or a plain `repro serve`, which answers as a fleet of one) "
            "and print a per-shard health table plus the aggregate."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="router host")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_ROUTER_PORT, help="router port"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw fleet payload as JSON (the CI artifact shape)",
    )
    args = parser.parse_args(argv)

    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            fleet = client.fleet_stats()
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(fleet, indent=2, sort_keys=True))
        return 0
    print(
        f"fleet: {fleet['healthy_shards']}/{fleet['shard_count']} "
        f"shards healthy"
    )
    for name in sorted(fleet["shards"]):
        shard = fleet["shards"][name]
        state = "healthy" if shard.get("healthy") else "unhealthy"
        stats = shard.get("stats") or {}
        line = (
            f"  {name}: {state} (breaker {shard.get('breaker')}, "
            f"{shard.get('probes', 0)} probes, "
            f"{shard.get('probe_failures', 0)} failed)"
        )
        if stats:
            line += (
                f" — {stats.get('submitted', 0)} submitted, "
                f"{stats.get('completed', 0)} ok, "
                f"{stats.get('answer_hits', 0)} answer hits, "
                f"{stats.get('errors', 0)} errors"
            )
        if shard.get("last_error"):
            line += f" [last error: {shard['last_error']}]"
        print(line)
    aggregate = fleet.get("aggregate") or {}
    pairs = ", ".join(
        f"{key}={aggregate[key]}"
        for key in (
            "submitted",
            "completed",
            "answer_hits",
            "deduped",
            "errors",
            "solves_started",
        )
        if key in aggregate
    )
    print(f"aggregate: {pairs}")
    router = fleet.get("router")
    if router:
        print(
            f"router: {router.get('submits', 0)} submits, "
            f"{router.get('routed', 0)} routed, "
            f"{router.get('failovers', 0)} failovers, "
            f"{router.get('unrouted', 0)} unrouted"
        )
    return 0


def submit_main(argv: list[str] | None = None) -> int:
    """``repro submit`` — send requests to a running ``repro serve``."""
    from .api import request_from_dict
    from .core.serialize import iter_jsonl
    from .errors import ServiceError
    from .service import DEFAULT_PORT, ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit scheduling requests to a running service over TCP "
            "and print the reports."
        ),
    )
    connection = parser.add_argument_group("connection")
    connection.add_argument("--host", default="127.0.0.1", help="service host")
    connection.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="service port"
    )
    connection.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-solve timeout enforced by the service",
    )
    add_request_arguments(parser)
    batch = parser.add_argument_group("batch submission")
    batch.add_argument(
        "--requests",
        type=Path,
        metavar="JSONL",
        help="submit every request record in this JSONL file instead of "
        "the one described by the flags",
    )
    batch.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="submit each request N times (identical in-flight requests "
        "are deduplicated server-side; default 1)",
    )
    output = parser.add_argument_group("output")
    output.add_argument(
        "--quiet",
        action="store_true",
        help="one summary line per report instead of the full describe()",
    )
    output.add_argument(
        "--stats",
        action="store_true",
        help="print the service metrics snapshot after the burst",
    )
    args = parser.parse_args(argv)

    try:
        if args.repeat < 1:
            raise ReproError(f"--repeat must be >= 1, got {args.repeat}")
        if args.requests is not None:
            if args.soc is not None or args.kind is not None:
                raise ReproError(
                    "--requests replaces the request-describing flags; "
                    "drop --soc/--kind (the file's records are submitted "
                    "as-is)"
                )
            requests = []
            for lineno, record in iter_jsonl(args.requests):
                try:
                    requests.append(request_from_dict(record))
                except (
                    ReproError, KeyError, TypeError, ValueError, AttributeError
                ) as exc:
                    raise ReproError(
                        f"{args.requests}:{lineno}: malformed request "
                        f"record: {type(exc).__name__}: {exc}"
                    ) from exc
            if not requests:
                raise ReproError(f"no request records in {args.requests}")
        else:
            requests = [request_from_args(args)]
        requests = requests * args.repeat
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = 0
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            results = client.submit_many(
                requests, timeout_s=args.timeout, return_errors=True
            )
            for index, result in enumerate(results):
                if isinstance(result, Exception):
                    failures += 1
                    print(f"[{index}] error: {result}", file=sys.stderr)
                elif args.quiet or len(results) > 1:
                    print(
                        f"[{index}] {result.request.describe()}: "
                        f"length {result.length_s:g} s in "
                        f"{result.n_sessions} sessions, peak "
                        f"{result.max_temperature_c:.2f} degC"
                    )
                else:
                    print(result.describe())
            if args.stats:
                stats = client.stats()
                pairs = ", ".join(
                    f"{key}={value}"
                    for key, value in stats.items()
                    if not isinstance(value, dict)
                )
                print(f"service stats: {pairs}")
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{len(requests) - failures}/{len(requests)} requests answered ok",
        flush=True,
    )
    return 0 if failures == 0 else 1


def watch_main(argv: list[str] | None = None) -> int:
    """``repro watch`` — stream one request's closed-loop run live."""
    import json

    from .errors import ServiceError
    from .service import DEFAULT_PORT, ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro watch",
        description=(
            "Submit one request with streaming and render its "
            "progress/event frames live as the service executes the "
            "schedule closed-loop (works against repro serve and "
            "repro route alike)."
        ),
    )
    connection = parser.add_argument_group("connection")
    connection.add_argument("--host", default="127.0.0.1", help="service host")
    connection.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="service port"
    )
    connection.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        help="per-solve timeout enforced by the service",
    )
    add_request_arguments(parser)
    output = parser.add_argument_group("output")
    output.add_argument(
        "--json",
        action="store_true",
        help="print each frame as one raw JSON line instead of the "
        "rendered timeline",
    )
    args = parser.parse_args(argv)

    try:
        request = request_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = False
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            for frame in client.watch(request, timeout_s=args.timeout):
                if args.json:
                    print(json.dumps(frame), flush=True)
                    failed = failed or frame["type"] == "error"
                    continue
                frame_type = frame["type"]
                if frame_type == "progress":
                    print(
                        f"[{frame['seq']:>3}] {frame['stage']} "
                        f"({frame.get('request_hash', '')[:12]})",
                        flush=True,
                    )
                elif frame_type == "event":
                    event = frame["event"]
                    cores = ",".join(event.get("cores") or []) or "-"
                    detail = event.get("detail") or ""
                    print(
                        f"[{frame['seq']:>3}] t={event['time_s']:8.3f} s "
                        f"{event['kind']:<12} session={event.get('session')} "
                        f"cores={cores} guard={event['guard_state']} "
                        f"hottest={event.get('hottest_block')} "
                        f"{event.get('max_temperature_c', 0.0):.2f} degC"
                        + (f"  ({detail})" if detail else ""),
                        flush=True,
                    )
                elif frame_type == "error":
                    failed = True
                    print(
                        f"error: {frame.get('error_type')}: "
                        f"{frame.get('error')}",
                        file=sys.stderr,
                    )
                else:  # terminal report
                    report = frame["report"]
                    result = report.get("result", {})
                    sessions = (result.get("schedule") or {}).get(
                        "sessions", []
                    )
                    print(
                        f"done: length {result.get('length_s'):g} s in "
                        f"{len(sessions)} sessions "
                        f"(cached: {report.get('cached', False)})",
                        flush=True,
                    )
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if failed else 0


def metrics_main(argv: list[str] | None = None) -> int:
    """``repro metrics`` — scrape a running service as Prometheus text."""
    from .errors import ServiceError
    from .service import DEFAULT_PORT, ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description=(
            "Fetch the telemetry of a running `repro serve` and print it "
            "as Prometheus text exposition (counters, gauges, and "
            "latency summaries with p50/p95/p99 quantiles)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="service host")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="service port"
    )
    args = parser.parse_args(argv)

    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            print(client.metrics_text(), end="", flush=True)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def top_main(argv: list[str] | None = None) -> int:
    """``repro top`` — live terminal telemetry of a running service."""
    import time as _time

    from .errors import ServiceError
    from .obs import render_top
    from .service import DEFAULT_PORT, ServiceClient

    parser = argparse.ArgumentParser(
        prog="repro top",
        description=(
            "Poll a running `repro serve` and render a live dashboard: "
            "queue depth, worker band, hit rates, and latency "
            "percentiles.  Ctrl-C exits."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="service host")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="service port"
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default 2.0)",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="render N frames then exit (default 0: run until Ctrl-C)",
    )
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (pipeable)",
    )
    args = parser.parse_args(argv)
    if args.interval <= 0:
        print(
            f"error: --interval must be positive, got {args.interval:g}",
            file=sys.stderr,
        )
        return 1

    rendered = 0
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            while True:
                frame = render_top(client.stats())
                if not args.no_clear:
                    # Clear screen + home cursor; the frame repaints it.
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                rendered += 1
                if args.count and rendered >= args.count:
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def report_main(argv: list[str] | None = None) -> int:
    """``repro report`` — per-solver summary of JSONL archives."""
    from .service import render_summary_table, summarize_archives

    parser = argparse.ArgumentParser(
        prog="repro report",
        description=(
            "Aggregate batch (`repro batch --out`) and service "
            "(`repro serve --archive`) JSONL archives, and batch archives "
            "of the older job-record format, into a per-solver summary "
            "table."
        ),
    )
    parser.add_argument(
        "archives",
        nargs="+",
        type=Path,
        metavar="JSONL",
        help="one or more archive files (formats may be mixed)",
    )
    args = parser.parse_args(argv)

    try:
        # tolerate_torn_tail: `repro report` pointed at the live archive
        # of a running `repro serve` races its appender — a half-written
        # final record is an append in flight, not corruption.
        summaries = summarize_archives(
            args.archives, empty_ok=True, tolerate_torn_tail=True
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not summaries:
        # No records yet is a state, not a mistake: a freshly booted
        # `repro serve --archive` creates the file before its first
        # request resolves.  Say so and exit cleanly instead of
        # erroring (or printing a headers-only table).
        print(
            "no records in "
            + ", ".join(str(p) for p in args.archives)
            + " (nothing has been archived yet)"
        )
        return 0
    print(render_summary_table(summaries))
    total = sum(s.jobs for s in summaries)
    errors = sum(s.errors for s in summaries)
    print(
        f"{total} records over {len(summaries)} solvers, "
        f"{errors} errors ({errors / total * 100:.0f}%)"
    )
    return 0


def check_main(argv: list[str] | None = None) -> int:
    """``repro check`` — the codebase-aware static-analysis pass.

    Exit codes: 0 when clean against the baseline, 1 when new findings
    (or an analysis error) exist, 2 on usage errors — the same shape as
    the other subcommands, so CI can gate on it directly.
    """
    from .analysis import Project, available_rules, run_check
    from .analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
    from .analysis.output import render_json, render_text
    from .errors import AnalysisError

    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Run the repro-specific static-analysis rules (async-blocking, "
            "lock-discipline, codec-drift, solver-contract, units-boundary) "
            "over the package sources, ratcheted against a committed "
            "baseline of known findings."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        type=Path,
        default=None,
        metavar="PACKAGE_DIR",
        help=(
            "the repro package directory to analyse "
            "(default: the installed package being run)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the CI artifact shape)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            f"baseline file (default: ./{DEFAULT_BASELINE_NAME} when it "
            f"exists, else no baseline)"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "rewrite the baseline to exactly the current findings "
            "(retires stale entries; requires --baseline or an existing "
            "default baseline path)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rules (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rules (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print baselined (known-debt) findings in text format",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in available_rules():
            print(f"{rule.name:16s} {rule.description}")
        return 0

    package_root = args.root
    if package_root is None:
        package_root = Path(__file__).resolve().parent
    baseline_path = args.baseline
    if baseline_path is None:
        default = Path(DEFAULT_BASELINE_NAME)
        if default.exists() or args.update_baseline:
            baseline_path = default

    try:
        project = Project.load(package_root)
        baseline = (
            Baseline.load(baseline_path) if baseline_path is not None else None
        )
        result = run_check(
            project,
            select=args.select,
            ignore=args.ignore,
            baseline=baseline,
        )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.update_baseline:
        from .analysis.baseline import Baseline as _Baseline

        _Baseline.from_findings(result.findings).save(baseline_path)
        print(
            f"baseline {baseline_path} updated with "
            f"{len(result.findings)} findings"
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


#: ``repro`` subcommands.
COMMANDS = {
    "schedule": main,
    "solve": solve_main,
    "batch": batch_main,
    "serve": serve_main,
    "route": route_main,
    "fleet": fleet_main,
    "submit": submit_main,
    "watch": watch_main,
    "metrics": metrics_main,
    "top": top_main,
    "report": report_main,
    "check": check_main,
}


def _exit_quietly_on_broken_pipe() -> int:
    """Handle a downstream consumer (e.g. ``| head``) closing stdout.

    Redirects stdout to devnull so the interpreter-shutdown flush does
    not raise a second time, and returns the conventional
    128+SIGPIPE exit code.
    """
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 128 + 13


def repro_main(argv: list[str] | None = None) -> int:
    """Console entry point of the ``repro`` umbrella command."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    usage = (
        f"usage: repro {{{','.join(COMMANDS)}}} ...\n"
        f"  repro schedule --help   one SoC, one (TL, STCL) question\n"
        f"  repro solve --help      one request through any registered solver\n"
        f"  repro batch --help      schedule a generated scenario fleet\n"
        f"  repro serve --help      run the async scheduling service (TCP)\n"
        f"  repro route --help      route a sharded fleet of services\n"
        f"  repro fleet --help      per-shard health table of a fleet\n"
        f"  repro submit --help     send requests to a running service\n"
        f"  repro watch --help      stream one request's closed-loop run live\n"
        f"  repro metrics --help    scrape a running service (Prometheus text)\n"
        f"  repro top --help        live telemetry dashboard of a service\n"
        f"  repro report --help     per-solver summary of JSONL archives\n"
        f"  repro check --help      repo-specific static analysis (lints)"
    )
    if not argv or argv[0] in ("-h", "--help"):
        print(usage)
        return 0 if argv else 2
    command = COMMANDS.get(argv[0])
    if command is None:
        print(f"error: unknown command {argv[0]!r}\n{usage}", file=sys.stderr)
        return 2
    try:
        return command(argv[1:])
    except BrokenPipeError:
        return _exit_quietly_on_broken_pipe()


def schedule_entry(argv: list[str] | None = None) -> int:
    """Console entry point of the ``repro-schedule`` alias."""
    try:
        return main(argv)
    except BrokenPipeError:
        return _exit_quietly_on_broken_pipe()


if __name__ == "__main__":
    sys.exit(repro_main())
