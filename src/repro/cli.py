"""Command-line interface: inspect programs, run exchanges, simulate.

Usage::

    python -m repro program MF LF            # print the negotiated program
    python -m repro exchange MF LF --size 25 # run DE vs publish&map
    python -m repro exchange MF MF --batch-rows 64  # bounded-memory batches
    python -m repro exchange MF LF --fault-plan drop=0.1,corrupt=0.05 \
        --retries 6                          # lossy channel, healed
    python -m repro exchange MF MF --trace run.trace \
        --trace-format chrome --metrics --drift  # observability
    python -m repro exchange MF LF --plan-cache --sessions 4 \
        # brokered concurrent sessions sharing one negotiated plan
    python -m repro exchange MF LF --transport tcp \
        # ship every byte over a real loopback socket
    python -m repro wsdl LF                  # the registration document
    python -m repro simulate --ratio 1/5     # a Table 5 configuration
    python -m repro serve --duration 60      # live SOAP/HTTP service tier
    python -m repro loadgen --sessions 100   # concurrent load harness

Workload selectors: ``MF``/``LF`` (the XMark fragmentations of
Section 5) and ``S``/``T``/``DOC`` (the Section 1.1 customer scenario;
``DOC`` is the whole-document default).
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
import time
from typing import Sequence, TextIO

from repro.adapt.stats import StatisticsStore, pair_key
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel, MachineProfile
from repro.core.fragmentation import Fragmentation
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.core.program.render import summary, to_dot, to_text
from repro.net.faults import FaultPlan, RetryPolicy
from repro.net.loadgen import run_load
from repro.net.server import ExchangeServer, FeedSink
from repro.net.transport import (
    SimulatedChannel,
    TcpTransport,
    Transport,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    cost_drift_report,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.relational.publisher import publish_document
from repro.reporting.tables import format_table
from repro.schema.generator import balanced_schema
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.sim.simulator import ExchangeSimulator
from repro.workloads.customer import (
    customer_schema,
    s_fragmentation,
    t_fragmentation,
)
from repro.workloads.sizes import scaled_bytes
from repro.workloads.xmark import (
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)

_XMARK_KEYS = ("MF", "LF")
_CUSTOMER_KEYS = ("S", "T", "DOC")


def _resolve_pair(source_key: str, target_key: str
                  ) -> tuple[Fragmentation, Fragmentation]:
    """Resolve two fragmentation selectors over one shared schema.

    Raises:
        SystemExit: via argparse-style error for unknown/mixed keys.
    """
    source_key = source_key.upper()
    target_key = target_key.upper()
    if {source_key, target_key} <= set(_XMARK_KEYS):
        schema = xmark_schema()
        table = {
            "MF": xmark_mf_fragmentation(schema),
            "LF": xmark_lf_fragmentation(schema),
        }
    elif {source_key, target_key} <= set(_CUSTOMER_KEYS):
        schema = customer_schema()
        table = {
            "S": s_fragmentation(schema),
            "T": t_fragmentation(schema),
            "DOC": Fragmentation.whole_document(schema),
        }
    else:
        raise SystemExit(
            f"cannot pair {source_key!r} with {target_key!r}: use "
            f"{_XMARK_KEYS} together or {_CUSTOMER_KEYS} together"
        )
    return table[source_key], table[target_key]


def cmd_program(args: argparse.Namespace, out: TextIO) -> int:
    source, target = _resolve_pair(args.source, args.target)
    model = CostModel(StatisticsCatalog.synthetic(source.schema))
    agency = DiscoveryAgency(source.schema)
    agency.register("source", source)
    agency.register("target", target)
    plan = agency.negotiate(
        "source", "target", optimizer=args.optimizer, probe=model,
    )
    program = plan.annotate()
    print(f"# {args.source} -> {args.target}: {summary(program)} "
          f"(estimated cost {plan.estimated_cost:,.0f}, "
          f"optimizer={plan.optimizer})", file=out)
    print(to_dot(program) if args.dot else to_text(program), file=out)
    return 0


def cmd_wsdl(args: argparse.Namespace, out: TextIO) -> int:
    source, _ = _resolve_pair(args.fragmentation, args.fragmentation)
    agency = DiscoveryAgency(source.schema)
    registration = agency.register("system", source)
    print(registration.wsdl_text, file=out)
    return 0


def _export_trace(tracer: Tracer, path: str, trace_format: str,
                  out: TextIO) -> None:
    """Write the recorded spans to ``path`` in the chosen format."""
    with open(path, "w", encoding="utf-8") as stream:
        if trace_format == "chrome":
            count = write_chrome_trace(tracer, stream)
        else:
            count = write_jsonl_trace(tracer, stream)
    print(f"trace: {count} spans -> {path} ({trace_format})", file=out)


def _run_delta_exchange(args: argparse.Namespace, out: TextIO,
                        source_frag: Fragmentation,
                        target_frag: Fragmentation,
                        source: RelationalEndpoint,
                        make_channel, retry_policy, fault_plan,
                        tracer, metrics) -> int:
    """The ``--delta`` path: one cold full exchange, an in-place
    mutation of ``--change-rate`` of the source rows, then a delta
    re-exchange through the same journal — verified byte-identical
    against a fresh full re-exchange.  Returns non-zero on
    divergence."""
    from repro.core.delta import endpoint_digest
    from repro.core.program.journal import ExchangeJournal
    from repro.errors import EndpointError
    from repro.workloads.mutate import mutate_endpoint

    program = build_transfer_program(
        derive_mapping(source_frag, target_frag)
    )
    placement = source_heavy_placement(program)
    scenario = f"{args.source}->{args.target}"
    source.enable_versioning()
    journal = ExchangeJournal()
    run_kwargs = dict(
        batch_rows=args.batch_rows,
        retry_policy=retry_policy,
        fault_plan=fault_plan,
        tracer=tracer,
        metrics=metrics,
    )
    de_target = RelationalEndpoint("de-target", target_frag)
    full = run_optimized_exchange(
        program, placement, source, de_target, make_channel(),
        scenario, journal=journal, **run_kwargs,
    )
    report = mutate_endpoint(
        source, args.change_rate, seed=args.seed,
        delete_fraction=args.change_rate / 5.0,
    )
    try:
        delta = run_optimized_exchange(
            program, placement, source, de_target, make_channel(),
            scenario, journal=journal, delta=True, since=args.since,
            **run_kwargs,
        )
    except EndpointError as exc:
        # --since names a version the source has not reached.
        raise SystemExit(f"--since: {exc}") from exc
    # The reference: re-exchange the mutated source from scratch.
    reference = RelationalEndpoint("reference-target", target_frag)
    run_optimized_exchange(
        program, placement, source, reference, make_channel(),
        scenario, **run_kwargs,
    )
    fragments = list(target_frag)
    identical = endpoint_digest(de_target, fragments) \
        == endpoint_digest(reference, fragments)

    print(format_table(
        ["run", "comm bytes", "rows written", "seconds"],
        [
            ["full", full.comm_bytes, full.rows_written,
             full.total_seconds],
            ["delta", delta.comm_bytes, delta.rows_written,
             delta.total_seconds],
        ],
        title=f"delta re-exchange {scenario}, change rate "
              f"{args.change_rate:g}",
    ), file=out)
    ratio = (
        delta.comm_bytes / full.comm_bytes
        if full.comm_bytes else 0.0
    )
    print(
        f"mutated {report.updated} row(s), deleted {report.deleted}; "
        f"window ({delta.delta_since}, {delta.delta_high}] changed "
        f"{delta.delta_changed_rows} of {delta.delta_total_rows} "
        f"row(s), closure shipped {delta.delta_shipped_rows}, "
        f"tombstoned {delta.delta_deleted_rows}",
        file=out,
    )
    print(f"delta/full communication: {ratio:.3f}x", file=out)
    print(
        "byte-identity vs full re-exchange: "
        + ("OK" if identical else "MISMATCH"),
        file=out,
    )
    if args.trace:
        _export_trace(tracer, args.trace, args.trace_format, out)
    if args.metrics:
        print(metrics.render(), file=out)
    return 0 if identical else 1


def cmd_exchange(args: argparse.Namespace, out: TextIO) -> int:
    """Run DE vs publish&map on XMark data; ``--sessions N`` brokers
    N concurrent DE sessions (``--plan-cache`` memoizes
    their negotiations so only the first pays the optimizer).  Every
    DE target must publish publish&map's document byte for byte: a
    mismatch is printed and exits 1."""
    if args.source.upper() not in _XMARK_KEYS \
            or args.target.upper() not in _XMARK_KEYS:
        raise SystemExit(
            "exchange runs on the XMark workload: use MF or LF"
        )
    if args.sessions < 1:
        raise SystemExit(
            f"--sessions must be >= 1, got {args.sessions}"
        )
    if args.batch_rows is not None and args.batch_rows < 1:
        raise SystemExit(
            f"--batch-rows must be >= 1, got {args.batch_rows}"
        )
    # A mode's own flag is rejected without its mode (it would do
    # nothing); left unset, it takes its default.
    for flag, default, mode, on in (
        ("--since", None, "--delta", args.delta),
        ("--change-rate", 0.1, "--delta", args.delta),
        ("--trace-format", "jsonl", "--trace", args.trace),
    ):
        attr = flag[2:].replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, default)
        elif not on:
            raise SystemExit(
                f"{flag} needs {mode}; without it the flag does nothing"
            )
    if args.drift and (args.sessions > 1 or args.plan_cache):
        # Drift prices the CLI's own program; without a cache each
        # brokered session negotiates a program of its own.
        raise SystemExit(
            "--drift prices one direct exchange; it does not combine "
            "with --sessions or --plan-cache"
        )
    if args.delta:
        if args.sessions > 1 or args.drift or args.plan_cache \
                or args.stats_store:
            raise SystemExit(
                "--delta runs its own full+delta pair; it does not "
                "combine with --sessions, --plan-cache, "
                "--stats-store or --drift"
            )
        if not 0.0 < args.change_rate <= 1.0:
            raise SystemExit(
                f"--change-rate must be in (0, 1], got "
                f"{args.change_rate}"
            )
        if args.since is not None and args.since < 0:
            raise SystemExit(
                f"--since must be >= 0, got {args.since}"
            )
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as exc:
            raise SystemExit(f"--fault-plan: {exc}") from exc
    retry_policy = None
    if args.retries is not None or fault_plan is not None:
        attempts = args.retries if args.retries is not None else 4
        if attempts < 1:
            raise SystemExit(
                f"--retries must be >= 1, got {attempts}"
            )
        retry_policy = RetryPolicy(max_attempts=attempts)
    tracer = Tracer() if args.trace else None
    metrics = MetricsRegistry() if args.metrics else None
    sink = FeedSink().start() if args.transport == "tcp" else None
    transports: list[Transport] = []

    def make_channel() -> Transport:
        """One private channel per session over the chosen
        transport (tcp opens its own loopback socket)."""
        if sink is None:
            return SimulatedChannel()
        transport = TcpTransport.connect(sink.host, sink.port)
        transports.append(transport)
        return transport

    try:
        source_frag, target_frag = _resolve_pair(args.source, args.target)
        document = generate_xmark_document(
            scaled_bytes(args.size, scale=args.scale), seed=args.seed
        )
        source = RelationalEndpoint("source", source_frag)
        source.load_document(document)
        stats_store = None
        if args.stats_store:
            if os.path.exists(args.stats_store):
                try:
                    stats_store = StatisticsStore.load(
                        args.stats_store, metrics=metrics
                    )
                except (OSError, ValueError) as exc:
                    raise SystemExit(f"--stats-store: {exc}") from exc
            else:
                stats_store = StatisticsStore(metrics=metrics)
        if args.delta:
            return _run_delta_exchange(
                args, out, source_frag, target_frag, source,
                make_channel, retry_policy, fault_plan, tracer,
                metrics,
            )
        model = CostModel(StatisticsCatalog.synthetic(source_frag.schema))
        if args.sessions > 1 or args.plan_cache:
            agency = DiscoveryAgency(source_frag.schema)
            agency.register("source", source_frag, source)
            agency.register("target", target_frag)
            if args.plan_cache and metrics is None:
                metrics = MetricsRegistry()
            cache = PlanCache(metrics=metrics) if args.plan_cache else None
            plan = agency.negotiate(
                "source", "target", probe=model, plan_cache=cache,
                plan_knobs={"batch_rows": args.batch_rows},
                stats_store=stats_store,
                metrics=metrics,
            )
            program, placement = plan.program, plan.placement
            ids = itertools.count()
            broker = ExchangeBroker(
                agency,
                plan_cache=cache,
                channel_factory=make_channel,
                max_workers=min(args.sessions, 4),
                probe=model,
                batch_rows=args.batch_rows,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                stats_store=stats_store,
                metrics=metrics,
                tracer=tracer,
            )
            with broker:
                sessions = broker.run([
                    ("source", "target", lambda: RelationalEndpoint(
                        f"de-target-{next(ids)}", target_frag
                    ))
                ] * args.sessions)
            de = sessions[0].outcome
            de_targets = [session.target for session in sessions]
            print(format_table(
                ["session", "cached", "negotiate", "exchange", "TOTAL"],
                [
                    [session.session_id,
                     "yes" if session.cached else "no",
                     session.negotiation_seconds,
                     session.outcome.total_seconds,
                     session.total_seconds]
                    for session in sessions
                ],
                title=f"{args.sessions} brokered session(s), plan cache "
                      f"{'on' if cache is not None else 'off'}",
            ), file=out)
            if cache is not None:
                stats = cache.stats()
                print(
                    f"plan cache: {stats['hits']} hits, "
                    f"{stats['misses']} misses, "
                    f"{stats['evictions']} evictions; optimizer ran "
                    f"{int(metrics.counter('optimizer.runs').value)} "
                    f"time(s) across "
                    f"{args.sessions + 1} negotiation(s)",
                    file=out,
                )
        else:
            program = build_transfer_program(
                derive_mapping(source_frag, target_frag)
            )
            placement = source_heavy_placement(program)
            de_target = RelationalEndpoint("de-target", target_frag)
            de_targets = [de_target]
            de = run_optimized_exchange(
                program, placement, source, de_target, make_channel(),
                f"{args.source}->{args.target}",
                batch_rows=args.batch_rows,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
                tracer=tracer,
                metrics=metrics,
            )
            if stats_store is not None:
                stats_store.observe_run(
                    pair_key("source", "target"), program, placement,
                    de.report, model,
                )
        pm_target = RelationalEndpoint("pm-target", target_frag)
        pm = run_publish_and_map(
            source, pm_target, make_channel(),
            f"{args.source}->{args.target}",
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        rows = [
            [outcome.method] + [
                outcome.steps[step] for step in (
                    "source_processing", "communication", "shredding",
                    "loading", "indexing",
                )
            ] + [outcome.total_seconds]
            for outcome in (de, pm)
        ]
        print(format_table(
            ["method", "source", "comm", "shred", "load", "index",
             "TOTAL"],
            rows,
            title=f"{args.source} -> {args.target}, "
                  f"{args.size} MB x scale {args.scale}",
        ), file=out)
        saving = 100 * (1 - de.total_seconds / pm.total_seconds)
        print(f"optimized exchange saving: {saving:.1f}%", file=out)
        reference = publish_document(
            pm_target.db, pm_target.mapper
        ).document
        # Every brokered session wrote its own target: check them all.
        identical = all(
            publish_document(target.db, target.mapper).document
            == reference
            for target in de_targets
        )
        print(
            "byte-identity vs publish&map: "
            + ("OK" if identical else "MISMATCH"),
            file=out,
        )
        if args.batch_rows is not None:
            print(
                f"streaming dataplane (batch_rows={args.batch_rows}): "
                f"peak {de.peak_resident_rows} resident rows",
                file=out,
            )
        if stats_store is not None:
            stats_store.save(args.stats_store)
            print(
                f"statistics store: {len(stats_store)} endpoint "
                f"pair(s) learned -> {args.stats_store}",
                file=out,
            )
        if fault_plan is not None:
            print(
                f"lossy channel ({fault_plan.describe()}): "
                f"DE injected {de.faults_injected} faults, healed with "
                f"{de.retries} retries "
                f"({de.redelivered_batches} duplicates discarded); "
                f"PM {pm.faults_injected} faults, {pm.retries} retries",
                file=out,
            )
        if args.trace:
            _export_trace(tracer, args.trace, args.trace_format, out)
        if args.metrics:
            print(metrics.render(), file=out)
        if args.drift:
            print(cost_drift_report(
                program, placement, de.report, model
            ).render(), file=out)
    finally:
        for transport in transports:
            transport.close()
        if sink is not None:
            sink.stop()
    return 0 if identical else 1


def cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    """Stand up the live service tier: the SOAP-over-HTTP discovery
    agency plus the framed-socket feed sink, ready for ``loadgen`` (or
    any SOAP client) to drive."""
    if args.duration is not None and args.duration <= 0:
        raise SystemExit(
            f"--duration must be positive, got {args.duration}"
        )
    schema = xmark_schema()
    agency = DiscoveryAgency(schema)
    probe = CostModel(StatisticsCatalog.synthetic(schema))
    metrics = MetricsRegistry()
    server = ExchangeServer(
        agency, host=args.host, http_port=args.http_port,
        feed_port=args.feed_port, probe=probe, metrics=metrics,
    )
    with server:
        http_host, http_port = server.http_address
        feed_host, feed_port = server.feed_address
        print(
            f"control plane: http://{http_host}:{http_port} "
            "(POST /soap/agency)",
            file=out,
        )
        print(f"data plane: {feed_host}:{feed_port} "
              "(length-prefixed SOAP frames)", file=out)
        if args.duration is not None:
            print(f"serving for {args.duration:g}s ...", file=out)
        else:
            print("serving until interrupted (Ctrl-C) ...", file=out)
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive mode
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
    print(metrics.render(), file=out)
    return 0


def cmd_loadgen(args: argparse.Namespace, out: TextIO) -> int:
    """Fire a burst of concurrent broker sessions over real sockets;
    without ``--host`` an in-process server is self-served."""
    if args.sessions < 1:
        raise SystemExit(
            f"--sessions must be >= 1, got {args.sessions}"
        )
    if args.workers < 1:
        raise SystemExit(
            f"--workers must be >= 1, got {args.workers}"
        )
    if args.batch_rows is not None and args.batch_rows < 1:
        raise SystemExit(
            f"--batch-rows must be >= 1, got {args.batch_rows}"
        )
    report = run_load(
        sessions=args.sessions,
        workers=args.workers,
        host=args.host,
        http_port=args.http_port,
        feed_port=args.feed_port,
        document_bytes=scaled_bytes(args.size, scale=args.scale),
        seed=args.seed,
        batch_rows=args.batch_rows,
        out=args.out,
    )
    print(report.render(), file=out)
    if args.out:
        print(f"report -> {args.out}", file=out)
    if report.failed:
        for failure in report.failures:
            print(f"FAILED: {failure}", file=out)
        return 1
    return 0


def cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    try:
        source_part, target_part = args.ratio.split("/")
        source = MachineProfile("s", speed=float(source_part))
        target = MachineProfile("t", speed=float(target_part))
    except ValueError as exc:
        raise SystemExit(
            f"--ratio must be two positive speeds like 5/1, got "
            f"{args.ratio!r}"
        ) from exc
    if args.trials < 1:
        raise SystemExit(f"--trials must be >= 1, got {args.trials}")
    schema = balanced_schema(2, 5, seed=3)
    elements = len(schema.element_names())
    if not 1 <= args.fragments <= elements:
        raise SystemExit(
            f"--fragments must be in [1, {elements}], got "
            f"{args.fragments}"
        )
    tracer = Tracer() if args.trace else None
    simulator = ExchangeSimulator(schema, tracer=tracer)
    rng = random.Random(args.seed)
    trials = [
        simulator.greedy_quality_trial(
            n_fragments=args.fragments,
            source=source,
            target=target,
            rng=rng,
        )
        for _ in range(args.trials)
    ]
    print(format_table(
        ["metric", "value"],
        [
            ["Worst/Optimal",
             sum(t.worst_over_optimal for t in trials) / len(trials)],
            ["Greedy/Optimal",
             sum(t.greedy_over_optimal for t in trials) / len(trials)],
            ["optimal secs",
             sum(t.optimal_seconds for t in trials) / len(trials)],
            ["greedy secs",
             sum(t.greedy_seconds for t in trials) / len(trials)],
        ],
        title=f"speed ratio {args.ratio}, {args.trials} trials "
              "(compare Table 5)",
    ), file=out)
    if args.trace:
        _export_trace(tracer, args.trace, args.trace_format, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fragment-based XML data exchange "
            "(Amer-Yahia & Kotidis, ICDE 2004)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    program = commands.add_parser(
        "program", help="print a negotiated transfer program"
    )
    program.add_argument("source", help="MF|LF or S|T|DOC")
    program.add_argument("target", help="MF|LF or S|T|DOC")
    program.add_argument("--optimizer", default="canonical",
                         choices=("canonical", "greedy", "optimal"))
    program.add_argument("--dot", action="store_true",
                         help="emit Graphviz DOT instead of text")
    program.set_defaults(handler=cmd_program)

    wsdl = commands.add_parser(
        "wsdl", help="print a system's registration WSDL"
    )
    wsdl.add_argument("fragmentation", help="MF|LF or S|T|DOC")
    wsdl.set_defaults(handler=cmd_wsdl)

    exchange = commands.add_parser(
        "exchange", help="run DE vs publish&map on XMark data"
    )
    exchange.add_argument("source", help="MF|LF")
    exchange.add_argument("target", help="MF|LF")
    exchange.add_argument("--size", type=float, default=25.0,
                          help="document size in MB (paper ladder)")
    exchange.add_argument("--scale", type=float, default=0.02,
                          help="fraction of the paper size")
    exchange.add_argument("--seed", type=int, default=42)
    exchange.add_argument(
        "--fault-plan", default=None,
        help="inject channel faults: rates like "
             "'drop=0.1,corrupt=0.05,seed=7' or a script like "
             "'drop@3,corrupt@5' (see repro.net.faults.FaultPlan)",
    )
    exchange.add_argument(
        "--retries", type=int, default=None,
        help="max delivery attempts per message (default 4 when "
             "--fault-plan is set; without it sends are not retried)",
    )
    exchange.add_argument(
        "--batch-rows", type=int, default=None,
        help="stream the DE program phase in batches of this many rows "
             "(bounded memory; default: one unbounded batch per feed)",
    )
    exchange.add_argument(
        "--sessions", type=int, default=1,
        help="run this many concurrent DE sessions through the "
             "exchange broker (each gets its own channel and target "
             "store; default 1 = direct single exchange)",
    )
    exchange.add_argument(
        "--plan-cache", action="store_true",
        help="memoize the negotiated plan: the first session pays the "
             "optimizer, later sessions reuse the cached program and "
             "placement (implies the brokered path)",
    )
    exchange.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace of both runs to FILE "
             "(tracing is off — zero overhead — without this flag)",
    )
    exchange.add_argument(
        "--trace-format", default=None,
        choices=("jsonl", "chrome"),
        help="trace file format (needs --trace): one JSON span per "
             "line (default), or Chrome trace-event JSON (load in "
             "chrome://tracing / Perfetto)",
    )
    exchange.add_argument(
        "--metrics", action="store_true",
        help="collect and print the metrics registry "
             "(op/ship counters and latency histograms)",
    )
    exchange.add_argument(
        "--drift", action="store_true",
        help="print the cost-drift report: the optimizer's predicted "
             "comp/comm costs vs the measured seconds, per op and "
             "per cross-edge, read from the run's report",
    )
    exchange.add_argument(
        "--transport", default="sim", choices=("sim", "tcp"),
        help="channel implementation: the costed simulated channel "
             "(default) or real loopback TCP sockets into a live "
             "feed sink (every byte crosses the kernel)",
    )
    exchange.add_argument(
        "--stats-store", default=None, metavar="PATH",
        help="persist learned per-pair cost statistics at PATH: "
             "loaded before the run (when the file exists) so "
             "negotiation prices with learned scales, saved after "
             "with this run's observations folded in",
    )
    exchange.add_argument(
        "--delta", action="store_true",
        help="incremental sync ablation: run one cold full exchange, "
             "mutate --change-rate of the source rows in place, then "
             "delta re-exchange only the changed subset through the "
             "same journal (verified byte-identical against a fresh "
             "full re-exchange)",
    )
    exchange.add_argument(
        "--change-rate", type=float, default=None,
        help="(needs --delta) fraction of each fragment's rows "
             "mutated between the full and delta runs (plus a fifth "
             "as many deletes on cascade-free fragments; default 0.1)",
    )
    exchange.add_argument(
        "--since", type=int, default=None,
        help="(needs --delta) explicit source version the delta run "
             "syncs from (default: the journal's last completed-sync "
             "high-water mark)",
    )
    exchange.set_defaults(handler=cmd_exchange)

    serve = commands.add_parser(
        "serve", help="run the live SOAP-over-HTTP service tier"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--http-port", type=int, default=8080,
                       help="control-plane port (0 = ephemeral)")
    serve.add_argument("--feed-port", type=int, default=8081,
                       help="data-plane port (0 = ephemeral)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds, then exit "
                            "(default: until interrupted)")
    serve.set_defaults(handler=cmd_serve)

    loadgen = commands.add_parser(
        "loadgen",
        help="drive concurrent broker sessions over real sockets",
    )
    loadgen.add_argument("--sessions", type=int, default=100,
                         help="concurrent exchange sessions to fire")
    loadgen.add_argument("--workers", type=int, default=8,
                         help="broker worker threads")
    loadgen.add_argument("--host", default=None,
                         help="target a running `serve` instance "
                              "(default: self-serve in-process)")
    loadgen.add_argument("--http-port", type=int, default=8080)
    loadgen.add_argument("--feed-port", type=int, default=8081)
    loadgen.add_argument("--size", type=float, default=2.0,
                         help="document size in MB (paper ladder)")
    loadgen.add_argument("--scale", type=float, default=0.02,
                         help="fraction of the paper size")
    loadgen.add_argument("--seed", type=int, default=99)
    loadgen.add_argument("--batch-rows", type=int, default=None)
    loadgen.add_argument("--out", default=None, metavar="FILE",
                         help="write the JSON report here "
                              "(e.g. BENCH_load.json)")
    loadgen.set_defaults(handler=cmd_loadgen)

    simulate = commands.add_parser(
        "simulate", help="run a Table 5 configuration"
    )
    simulate.add_argument("--ratio", default="1/1",
                          help="source/target speed, e.g. 5/1")
    simulate.add_argument("--trials", type=int, default=5)
    simulate.add_argument("--fragments", type=int, default=11)
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--trace", default=None, metavar="FILE",
                          help="record the optimizer-phase trace")
    simulate.add_argument("--trace-format", default="jsonl",
                          choices=("jsonl", "chrome"))
    simulate.set_defaults(handler=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None,
         out: TextIO | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out or sys.stdout)
    except BrokenPipeError:
        # Downstream pipe reader (e.g. `| head`) closed early; exit
        # quietly like any well-behaved Unix filter.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
