"""Command-line entry point: ``harpocrates <command>``.

Commands:

* ``report`` — regenerate every paper table/figure at a scale preset,
* ``loop`` — run the Harpocrates loop for one target and print the
  convergence curve plus final detection (``--workers`` takes either
  a local process count or a ``host:port,host:port`` fleet of
  ``repro-worker`` agents),
* ``worker`` — serve as a distributed evaluation agent (also
  installed as the ``repro-worker`` console script),
* ``service`` — run the always-on campaign service: a durable job
  queue, an HTTP API, and a scheduler that time-shares one worker
  fleet and one evaluation cache across many tenants' campaigns,
* ``submit`` / ``status`` / ``cancel`` — the service's thin clients
  (``submit --wait`` streams the finished campaign's stdout, which is
  byte-identical to a ``loop`` run of the same target/scale/seed),
* ``baselines`` — grade the baseline suites on the six structures,
* ``generate`` — emit a constrained-random program as assembly,
* ``fuzz`` — run the SiliFuzz-style campaign and print its statistics.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.evalcache import DEFAULT_EVAL_CACHE_SIZE
from repro.experiments.presets import DEFAULT, FULL, SMOKE

_PRESETS = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


def _add_scale_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_PRESETS),
        default="default",
        help="experiment scale preset",
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_all

    if args.output:
        with open(args.output, "w") as stream:
            run_all(_PRESETS[args.scale], stream=stream,
                    workers=args.workers)
        print(f"report written to {args.output}")
    else:
        run_all(_PRESETS[args.scale], workers=args.workers)
    return 0


def _parse_workers(value: str):
    """``--workers`` accepts a local process count *or* a
    ``host:port[,host:port...]`` fleet of ``repro-worker`` agents.

    Returns ``(local_count, endpoints)`` — exactly one is meaningful.
    Raises ``ValueError`` with a one-line message for anything else
    (the CLI turns it into an exit-2 usage error, never a traceback).
    """
    from repro.dist.coordinator import parse_endpoints

    value = value.strip()
    if ":" in value:
        try:
            return 1, parse_endpoints(value)
        except ValueError as exc:
            raise ValueError(
                f"expected host:port[,host:port...], got {value!r} ({exc})"
            ) from exc
    try:
        count = int(value)
    except ValueError:
        raise ValueError(
            f"expected a process count or a host:port fleet, got {value!r}"
        ) from None
    if count < 1:
        raise ValueError(f"process count must be >= 1, got {count}")
    return count, None


def _cmd_loop(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core import CheckpointError, scaled_targets
    from repro.experiments.fig10 import campaign_stdout, run_target

    scale = _PRESETS[args.scale]
    targets = scaled_targets(
        program_scale=scale.program_scale, loop_scale=scale.loop_scale
    )
    if args.target not in targets:
        print(f"unknown target {args.target!r}; "
              f"choose one of {sorted(targets)}", file=sys.stderr)
        return 2
    try:
        workers, endpoints = _parse_workers(args.workers)
    except ValueError as exc:
        print(f"bad --workers value: {exc}", file=sys.stderr)
        return 2
    fleet_listen = None
    if args.fleet_listen is not None:
        from repro.dist.worker import parse_listen

        if endpoints is None:
            print("--fleet-listen requires a distributed fleet "
                  "(--workers host:port,...)", file=sys.stderr)
            return 2
        try:
            fleet_listen = parse_listen(args.fleet_listen)
        except ValueError as exc:
            print(f"bad --fleet-listen value: {exc}", file=sys.stderr)
            return 2
    resume_from = args.resume
    if resume_from is None and args.resume_latest:
        if args.checkpoint_dir is None:
            print("--resume-latest requires --checkpoint-dir",
                  file=sys.stderr)
            return 2
        resume_from = args.checkpoint_dir
    metrics_server = None
    if args.trace_dir is not None or args.metrics_port is not None:
        obs.configure(enabled=True, trace_dir=args.trace_dir)
    if args.metrics_port is not None:
        from repro.obs.server import MetricsServer

        metrics_server = MetricsServer(port=args.metrics_port).start()
        # Operator chatter goes to stderr so stdout stays a stable,
        # diffable convergence report.
        print(
            f"observability endpoint on "
            f"http://127.0.0.1:{metrics_server.port} "
            f"(/metrics, /status)",
            file=sys.stderr,
        )
    try:
        curve = run_target(
            targets[args.target],
            scale,
            workers=workers,
            eval_timeout=args.eval_timeout,
            max_retries=args.max_retries,
            checkpoint_dir=args.checkpoint_dir,
            resume_from=resume_from,
            worker_endpoints=endpoints,
            checkpoint_keep=(
                args.checkpoint_keep if args.checkpoint_keep > 0 else None
            ),
            checkpoint_milestone_every=args.checkpoint_milestones,
            eval_cache_size=(
                None if args.no_eval_cache else args.eval_cache_size
            ),
            fleet_listen=fleet_listen,
            iterations=args.iterations,
            seed=args.seed,
            static_screen=not args.no_static_screen,
            paranoid=args.paranoid,
            explain_top=args.explain_top,
            explain_dir=args.explain_dir,
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if obs.enabled():
            obs.shutdown()
    # The one canonical rendering — the service's job output uses the
    # same function, so CLI and service runs are byte-comparable.
    sys.stdout.write(campaign_stdout(curve))
    if curve.phase_times:
        # To stderr: timings vary run to run, and stdout must stay
        # byte-comparable between local and distributed campaigns.
        print(curve.render_phases(), file=sys.stderr)
    latency = curve.render_latency()
    if latency:
        print(latency, file=sys.stderr)
    for witness in curve.witnesses:
        # Witness digests are operator chatter; the artifacts live in
        # --explain-dir.  stdout stays the canonical campaign report.
        print(witness.summary(), file=sys.stderr)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core import CheckpointError, LoopCheckpoint, scaled_targets
    from repro.core.checkpoint import decode_evaluated
    from repro.core.generator import Generator
    from repro.explain import explain_detections, render_witness_text
    from repro.sim.cosim import golden_run

    scale = _PRESETS[args.scale]
    targets = scaled_targets(
        program_scale=scale.program_scale, loop_scale=scale.loop_scale
    )
    if args.target not in targets:
        print(f"unknown target {args.target!r}; "
              f"choose one of {sorted(targets)}", file=sys.stderr)
        return 2
    try:
        workers, endpoints = _parse_workers(args.workers)
    except ValueError as exc:
        print(f"bad --workers value: {exc}", file=sys.stderr)
        return 2
    if endpoints is not None:
        print("explain minimizes locally; --workers takes a process "
              "count, not a fleet", file=sys.stderr)
        return 2
    spec = targets[args.target]
    if args.resume is not None:
        try:
            checkpoint = LoopCheckpoint.load(args.resume)
            best = [decode_evaluated(record) for record in checkpoint.best]
        except CheckpointError as exc:
            print(f"checkpoint error: {exc}", file=sys.stderr)
            return 2
        if not best:
            print("checkpoint records no best program yet",
                  file=sys.stderr)
            return 1
        program = best[0].program
    else:
        program = Generator(spec.generation).initial_population(
            1, base_seed=args.program_seed
        )[0]
    golden = golden_run(program, spec.machine)
    if golden.crashed:
        print(f"program {program.name!r} crashes fault-free; "
              "nothing to explain", file=sys.stderr)
        return 1
    injections = (
        args.injections if args.injections is not None
        else scale.injections
    )
    seed = args.seed if args.seed is not None else scale.seed
    report = spec.campaign(golden, injections, seed)
    # Campaign chatter goes to stderr: stdout carries only the witness
    # reports, so they can be redirected/diffed on their own.
    print(report.summary(), file=sys.stderr)
    witnesses = explain_detections(
        golden, report, top=args.top, target_key=spec.key,
        workers=workers, out_dir=args.out,
    )
    if not witnesses:
        print("no detections to explain "
              "(try more --injections or another seed)", file=sys.stderr)
        return 1
    for index, witness in enumerate(witnesses):
        if index:
            sys.stdout.write("\n")
        sys.stdout.write(render_witness_text(witness))
        print(witness.summary(), file=sys.stderr)
    if args.out is not None:
        print(f"witness artifacts written to {args.out}",
              file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.dist.worker import main as worker_main

    forwarded = ["--listen", args.listen]
    if args.slots is not None:
        forwarded += ["--slots", str(args.slots)]
    if args.eval_timeout is not None:
        forwarded += ["--eval-timeout", str(args.eval_timeout)]
    if args.max_retries is not None:
        forwarded += ["--max-retries", str(args.max_retries)]
    if args.trace_dir is not None:
        forwarded += ["--trace-dir", args.trace_dir]
    if args.announce is not None:
        forwarded += ["--announce", args.announce]
    if args.advertise_host is not None:
        forwarded += ["--advertise-host", args.advertise_host]
    return worker_main(forwarded)


def _cmd_service(args: argparse.Namespace) -> int:
    import logging
    import signal
    import threading

    from repro import obs
    from repro.dist.worker import parse_listen
    from repro.service import CampaignScheduler, ServiceServer

    try:
        listen = parse_listen(args.listen)
        fleet_listen = (
            parse_listen(args.fleet_listen)
            if args.fleet_listen is not None else None
        )
    except ValueError as exc:
        print(f"bad listen address: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    # The service always runs with observability on: its /metrics and
    # /status views are the operator's window into a headless process.
    obs.configure(enabled=True, trace_dir=args.trace_dir)
    scheduler = CampaignScheduler(
        args.state_dir,
        max_concurrent=args.max_concurrent,
        tenant_quota=args.tenant_quota,
        local_workers=args.local_workers,
        workers_per_campaign=args.workers_per_campaign,
        fleet_listen=fleet_listen,
        eval_timeout=args.eval_timeout,
        max_retries=args.max_retries,
        explain_top=args.explain_top,
    ).start()
    server = ServiceServer(
        scheduler, host=listen[0], port=listen[1]
    ).start()
    print(
        f"campaign service on http://{listen[0]}:{server.port} "
        f"(POST /campaigns, GET /queue, /metrics, /status)",
        file=sys.stderr,
    )
    if scheduler.fleet_listen_port is not None:
        print(
            f"fleet registration on "
            f"{fleet_listen[0]}:{scheduler.fleet_listen_port} "
            f"(repro-worker --announce)",
            file=sys.stderr,
        )
    stop = threading.Event()

    def handle_signal(signum, frame) -> None:
        print(
            f"signal {signum}: draining campaigns to checkpoint...",
            file=sys.stderr,
        )
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    stop.wait()
    server.close()
    scheduler.stop()
    obs.shutdown()
    print("service stopped; queue state persisted", file=sys.stderr)
    return 0


def _service_url(args: argparse.Namespace) -> str:
    return args.service.rstrip("/")


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceError, submit_job

    payload = {"target": args.target, "tenant": args.tenant,
               "scale": args.scale, "priority": args.priority}
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.iterations is not None:
        payload["iterations"] = args.iterations
    try:
        job = submit_job(_service_url(args), payload)
    except ServiceError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"service unreachable: {exc}", file=sys.stderr)
        return 2
    print(f"submitted {job['id']} ({job['target']}, "
          f"scale={job['scale']}, tenant={job['tenant']})",
          file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return 0
    return _wait_and_print(args, str(job["id"]))


def _wait_and_print(args: argparse.Namespace, job_id: str) -> int:
    from repro.service.api import wait_for_job

    try:
        job = wait_for_job(
            _service_url(args), job_id, timeout=args.timeout
        )
    except TimeoutError as exc:
        print(f"timed out: {exc}", file=sys.stderr)
        return 3
    if job["state"] == "done":
        # Raw job output — byte-identical to `harpocrates loop` for
        # the same target/scale/seed, so callers can diff directly.
        sys.stdout.write(str(job["output"]))
        return 0
    print(f"{job_id} {job['state']}: {job.get('error') or ''}",
          file=sys.stderr)
    return 1


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service.api import ServiceError, get_job, get_queue

    try:
        if args.job_id is None:
            print(json.dumps(
                get_queue(_service_url(args)),
                indent=2, sort_keys=True,
            ))
            return 0
        if args.wait:
            return _wait_and_print(args, args.job_id)
        job = get_job(_service_url(args), args.job_id)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"service unreachable: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service.api import ServiceError, cancel_job

    try:
        reply = cancel_job(_service_url(args), args.job_id)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"service unreachable: {exc}", file=sys.stderr)
        return 2
    print(f"{reply['id']} -> {reply['state']}", file=sys.stderr)
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    from repro.experiments.fig456 import run_fig4, run_fig5, run_fig6
    from repro.experiments.harness import baseline_workloads

    scale = _PRESETS[args.scale]
    workloads = baseline_workloads(scale)
    print(run_fig4(scale, workloads).render("Fig 4 — IRF & L1D"))
    print()
    print(run_fig5(scale, workloads).render("Fig 5 — INT units"))
    print()
    print(run_fig6(scale, workloads).render("Fig 6 — SSE FP units"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.microprobe import GenerationConfig, Synthesizer

    synthesizer = Synthesizer(
        config=GenerationConfig(num_instructions=args.instructions)
    )
    program = synthesizer.synthesize_random(args.seed)
    print(f"# {program.summary()}")
    print(program.to_asm())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.baselines.silifuzz import SiliFuzz, SiliFuzzConfig

    fuzzer = SiliFuzz(SiliFuzzConfig(rounds=args.rounds, seed=args.seed))
    result = fuzzer.fuzz()
    stats = result.stats
    print(
        f"inputs={stats.total_inputs} "
        f"decode_failures={stats.decode_failures} "
        f"crashes={stats.crashes} "
        f"nondeterministic={stats.nondeterministic} "
        f"runnable={stats.runnable} kept={stats.kept}"
    )
    print(
        f"discard={stats.discard_fraction:.0%} "
        f"rate={stats.instructions_per_second:,.0f} runnable instr/s"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harpocrates",
        description="Harpocrates (ISCA 2024) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report_parser = subparsers.add_parser(
        "report", help="regenerate every paper table/figure"
    )
    _add_scale_argument(report_parser)
    report_parser.add_argument("--workers", type=int, default=1)
    report_parser.add_argument(
        "--output", default=None,
        help="write the report to a file instead of stdout",
    )
    report_parser.set_defaults(handler=_cmd_report)

    loop_parser = subparsers.add_parser(
        "loop", help="run the loop for one target structure"
    )
    loop_parser.add_argument(
        "target",
        help="irf | l1d | int_adder | int_mul | fp_adder | fp_mul",
    )
    _add_scale_argument(loop_parser)
    loop_parser.add_argument(
        "--workers", default="1", metavar="N|HOST:PORT,...",
        help="local evaluation processes (an integer), or a "
             "comma-separated repro-worker fleet to shard each "
             "generation across (host:port[,host:port...])",
    )
    loop_parser.add_argument(
        "--checkpoint-dir", default=None,
        help="write a resumable JSON checkpoint after each iteration",
    )
    loop_parser.add_argument(
        "--checkpoint-keep", type=int, default=5, metavar="N",
        help="rotate checkpoints, keeping the newest N (default 5; "
             "0 keeps every checkpoint)",
    )
    loop_parser.add_argument(
        "--checkpoint-milestones", type=int, default=0, metavar="K",
        help="additionally keep every K-th iteration's checkpoint as "
             "a milestone (default 0 = none)",
    )
    loop_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a checkpoint file (or the latest checkpoint "
             "in a directory)",
    )
    loop_parser.add_argument(
        "--resume-latest", action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    loop_parser.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="per-candidate wall-clock budget; wedged workers are "
             "killed and the candidate is quarantined",
    )
    loop_parser.add_argument(
        "--max-retries", type=int, default=0,
        help="extra attempts for transiently failing evaluations",
    )
    loop_parser.add_argument(
        "--eval-cache-size", type=int,
        default=DEFAULT_EVAL_CACHE_SIZE, metavar="N",
        help="bound on the content-addressed evaluation cache "
             f"(default {DEFAULT_EVAL_CACHE_SIZE}); survivors carried "
             "by elitism are served from it instead of re-simulating",
    )
    loop_parser.add_argument(
        "--no-eval-cache", action="store_true",
        help="disable the evaluation cache (every candidate "
             "re-simulates; results are identical, just slower)",
    )
    loop_parser.add_argument(
        "--no-static-screen", action="store_true",
        help="disable static zero-bound screening (candidates the "
             "analyzer proves score zero simulate anyway; output is "
             "byte-identical, just slower)",
    )
    loop_parser.add_argument(
        "--paranoid", action="store_true",
        help="differentially check every dynamic score against its "
             "static upper bound and abort loudly on a violation "
             "(sanitizer mode for the analyzer and the simulator)",
    )
    loop_parser.add_argument(
        "--fleet-listen", default=None, metavar="HOST:PORT",
        help="accept late-joining repro-worker agents on this "
             "address: workers started with --announce after the "
             "campaign begins register here and are admitted into "
             "dispatch at the next generation (distributed runs only)",
    )
    loop_parser.add_argument(
        "--seed", type=int, default=None,
        help="override the target's loop seed (service jobs use the "
             "same override, keeping CLI and service runs comparable)",
    )
    loop_parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="override the scale preset's iteration count",
    )
    loop_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable observability: write span-trace JSONL and a "
             "final metrics snapshot into DIR",
    )
    loop_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics (Prometheus text) and /status "
             "(JSON) on this loopback port while the campaign runs "
             "(0 binds an ephemeral port, printed to stderr)",
    )
    loop_parser.add_argument(
        "--explain-top", type=int, default=0, metavar="N",
        help="after the campaign, minimize + localize the first N "
             "distinct detections into witness artifacts (default 0 = "
             "off; summaries go to stderr, stdout is unchanged)",
    )
    loop_parser.add_argument(
        "--explain-dir", default=None, metavar="DIR",
        help="write witness .json/.txt artifacts into DIR "
             "(with --explain-top)",
    )
    loop_parser.set_defaults(handler=_cmd_loop)

    explain_parser = subparsers.add_parser(
        "explain",
        help="minimize + localize campaign detections into witnesses",
    )
    explain_parser.add_argument(
        "target",
        help="irf | l1d | int_adder | int_mul | fp_adder | fp_mul",
    )
    _add_scale_argument(explain_parser)
    explain_parser.add_argument(
        "--top", type=int, default=1, metavar="N",
        help="explain the first N distinct detections (default 1)",
    )
    explain_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write witness .json/.txt artifacts into DIR",
    )
    explain_parser.add_argument(
        "--workers", default="1", metavar="N",
        help="parallel minimization-candidate validation processes",
    )
    explain_parser.add_argument(
        "--injections", type=int, default=None, metavar="N",
        help="fault-campaign injection count (default: the preset's)",
    )
    explain_parser.add_argument(
        "--seed", type=int, default=None,
        help="fault-campaign sampling seed (default: the preset's)",
    )
    explain_parser.add_argument(
        "--program-seed", type=int, default=0, metavar="S",
        help="generation seed of the program to explain (default 0)",
    )
    explain_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="explain a campaign checkpoint's best program instead of "
             "generating one (a file, or the latest in a directory)",
    )
    explain_parser.set_defaults(handler=_cmd_explain)

    worker_parser = subparsers.add_parser(
        "worker",
        help="serve as a distributed evaluation agent (repro-worker)",
    )
    worker_parser.add_argument(
        "--listen", default="127.0.0.1:7070", metavar="HOST:PORT",
        help="address to listen on (default 127.0.0.1:7070)",
    )
    worker_parser.add_argument(
        "--slots", type=int, default=None,
        help="local evaluation parallelism (default: CPU count)",
    )
    worker_parser.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="override the coordinator's per-candidate budget",
    )
    worker_parser.add_argument(
        "--max-retries", type=int, default=None,
        help="override the coordinator's retry budget",
    )
    worker_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="enable observability: write span-trace JSONL and a "
             "final metrics snapshot into DIR",
    )
    worker_parser.add_argument(
        "--announce", default=None, metavar="HOST:PORT",
        help="register with a running campaign's --fleet-listen "
             "address (retries with exponential backoff while "
             "unconnected)",
    )
    worker_parser.add_argument(
        "--advertise-host", default=None, metavar="HOST",
        help="hostname to advertise when announcing",
    )
    worker_parser.set_defaults(handler=_cmd_worker)

    service_parser = subparsers.add_parser(
        "service",
        help="run the always-on multi-tenant campaign service",
    )
    service_parser.add_argument(
        "--listen", default="127.0.0.1:8400", metavar="HOST:PORT",
        help="HTTP API address (default 127.0.0.1:8400; port 0 binds "
             "an ephemeral port, printed to stderr)",
    )
    service_parser.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable state: the job queue, the shared eval-cache "
             "store, and per-job checkpoints; a restarted service "
             "resumes every unfinished campaign from here",
    )
    service_parser.add_argument(
        "--fleet-listen", default=None, metavar="HOST:PORT",
        help="accept repro-worker --announce registrations here; "
             "campaigns lease capacity slices from the joined fleet",
    )
    service_parser.add_argument(
        "--max-concurrent", type=int, default=2, metavar="N",
        help="campaigns running simultaneously (default 2)",
    )
    service_parser.add_argument(
        "--tenant-quota", type=int, default=8, metavar="N",
        help="max live (pending+running) jobs per tenant (default 8)",
    )
    service_parser.add_argument(
        "--local-workers", type=int, default=1, metavar="N",
        help="per-campaign local evaluation processes, the fallback "
             "when no fleet workers are available (default 1)",
    )
    service_parser.add_argument(
        "--workers-per-campaign", type=int, default=None, metavar="N",
        help="cap fleet workers leased per campaign (default: no cap)",
    )
    service_parser.add_argument(
        "--eval-timeout", type=float, default=None, metavar="SECONDS",
        help="per-candidate wall-clock budget for service campaigns",
    )
    service_parser.add_argument(
        "--max-retries", type=int, default=0,
        help="extra attempts for transiently failing evaluations",
    )
    service_parser.add_argument(
        "--explain-top", type=int, default=0, metavar="N",
        help="per finished campaign, write witness artifacts for the "
             "first N distinct detections into the job's checkpoint "
             "directory (default 0 = off; job output is unchanged)",
    )
    service_parser.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="additionally write span-trace JSONL into DIR",
    )
    service_parser.set_defaults(handler=_cmd_service)

    def add_client_arguments(client_parser) -> None:
        client_parser.add_argument(
            "--service", default="http://127.0.0.1:8400",
            metavar="URL", help="service base URL",
        )
        client_parser.add_argument(
            "--timeout", type=float, default=600.0, metavar="SECONDS",
            help="how long --wait polls before giving up "
                 "(default 600)",
        )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a campaign to the service"
    )
    submit_parser.add_argument(
        "target",
        help="irf | l1d | int_adder | int_mul | fp_adder | fp_mul",
    )
    _add_scale_argument(submit_parser)
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument(
        "--seed", type=int, default=None,
        help="loop seed override (same semantics as `loop --seed`)",
    )
    submit_parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="iteration-count override",
    )
    submit_parser.add_argument(
        "--priority", type=int, default=0,
        help="priority class; lower runs first (default 0)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and write its campaign "
             "output to stdout (byte-identical to `loop`)",
    )
    add_client_arguments(submit_parser)
    submit_parser.set_defaults(handler=_cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="queue summary, or one job's record"
    )
    status_parser.add_argument(
        "job_id", nargs="?", default=None,
        help="job id (omit for the queue summary)",
    )
    status_parser.add_argument(
        "--wait", action="store_true",
        help="with a job id: poll until it finishes, then write its "
             "campaign output to stdout (survives service restarts)",
    )
    add_client_arguments(status_parser)
    status_parser.set_defaults(handler=_cmd_status)

    cancel_parser = subparsers.add_parser(
        "cancel",
        help="cancel a job (running jobs drain to checkpoint)",
    )
    cancel_parser.add_argument("job_id")
    add_client_arguments(cancel_parser)
    cancel_parser.set_defaults(handler=_cmd_cancel)

    baselines_parser = subparsers.add_parser(
        "baselines", help="grade the baseline suites (Figs 4/5/6)"
    )
    _add_scale_argument(baselines_parser)
    baselines_parser.set_defaults(handler=_cmd_baselines)

    generate_parser = subparsers.add_parser(
        "generate", help="emit one constrained-random program"
    )
    generate_parser.add_argument("--instructions", type=int, default=100)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.set_defaults(handler=_cmd_generate)

    fuzz_parser = subparsers.add_parser(
        "fuzz", help="run the SiliFuzz-style campaign"
    )
    fuzz_parser.add_argument("--rounds", type=int, default=1000)
    fuzz_parser.add_argument("--seed", type=int, default=0)
    fuzz_parser.set_defaults(handler=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
