"""Concurrent load harness for the live service tier.

Drives N concurrent :class:`~repro.services.broker.ExchangeBroker`
sessions against a running :class:`~repro.net.server.ExchangeServer`:
the control plane is exercised over real HTTP (register the source and
target systems from their WSDL documents, negotiate a plan via SOAP),
and every session's bytes move over its own
:class:`~repro.net.transport.TcpTransport` socket into the server's
:class:`~repro.net.server.FeedSink`.  The harness records per-session
latency, summarises p50/p95/p99 percentiles plus throughput into a
:class:`LoadReport`, and verifies that *zero* sessions failed and that
every session wrote the same number of target rows (a lost or corrupted
exchange cannot hide in an average).

``python -m repro loadgen`` is the CLI front end; with no ``--host`` it
self-serves: it stands up an in-process server on loopback, fires the
burst, and tears the server down — which is exactly what the CI
``load-smoke`` job runs.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SoapFault
from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.net.server import ExchangeServer, SoapHttpClient
from repro.net.transport import TcpTransport, Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint
from repro.workloads.xmark import (
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.services.broker import ExchangeSession

__all__ = ["percentile", "LoadReport", "run_load"]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation
    between closest ranks — the standard "exclusive of nothing"
    definition (numpy's default), so ``percentile(v, 50)`` is the
    median.

    Raises:
        ValueError: on an empty sample or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass(slots=True)
class LoadReport:
    """What one load run measured.

    Latencies are per-session end-to-end seconds (negotiation plus the
    exchange run over the live socket); ``throughput`` is completed
    sessions per wall-clock second across the whole burst.
    """

    sessions: int
    workers: int
    failed: int
    wall_seconds: float
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    mean_seconds: float
    max_seconds: float
    throughput_sessions_per_second: float
    comm_bytes: int
    rows_written: int
    cache_hits: int
    transport: str = "tcp"
    workload: str = "xmark MF->LF"
    document_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, object]:
        return {
            "benchmark": "load",
            "transport": self.transport,
            "workload": self.workload,
            "document_bytes": self.document_bytes,
            "sessions": self.sessions,
            "workers": self.workers,
            "failed": self.failed,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
            "latency_seconds": {
                "p50": round(self.p50_seconds, 6),
                "p95": round(self.p95_seconds, 6),
                "p99": round(self.p99_seconds, 6),
                "mean": round(self.mean_seconds, 6),
                "max": round(self.max_seconds, 6),
            },
            "throughput_sessions_per_second": round(
                self.throughput_sessions_per_second, 3
            ),
            "comm_bytes": self.comm_bytes,
            "rows_written_per_session": self.rows_written,
            "plan_cache_hits": self.cache_hits,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable summary block."""
        lines = [
            f"load: {self.sessions} sessions x {self.workers} workers "
            f"over {self.transport} ({self.workload})",
            f"  wall        {self.wall_seconds:.3f} s "
            f"({self.throughput_sessions_per_second:.1f} sessions/s)",
            f"  latency     p50 {self.p50_seconds * 1e3:.1f} ms | "
            f"p95 {self.p95_seconds * 1e3:.1f} ms | "
            f"p99 {self.p99_seconds * 1e3:.1f} ms | "
            f"max {self.max_seconds * 1e3:.1f} ms",
            f"  shipped     {self.comm_bytes} bytes, "
            f"{self.rows_written} rows/session, "
            f"{self.cache_hits} warm negotiations",
            f"  failed      {self.failed}",
        ]
        return "\n".join(lines)


def _already_registered(fault: SoapFault) -> bool:
    return "already registered" in str(fault)


def run_load(sessions: int = 100, workers: int = 8, *,
             host: str | None = None,
             http_port: int = 0, feed_port: int = 0,
             document_bytes: int = 40_000, seed: int = 99,
             batch_rows: int | None = None,
             out: str | None = None,
             metrics: MetricsRegistry | None = None,
             tracer: Tracer | None = None) -> LoadReport:
    """Fire ``sessions`` concurrent exchange sessions at a live server.

    With ``host=None`` the harness self-serves: it starts an in-process
    :class:`~repro.net.server.ExchangeServer` on loopback and tears it
    down afterwards.  With a host, ``http_port``/``feed_port`` must
    name a running server's two planes (``python -m repro serve``).

    Every session registers against the XMark MF source / LF target
    pair: the harness first exercises the HTTP control plane (register
    both systems from their WSDL text, negotiate once over SOAP), then
    lets the broker — ``max_pending=sessions``, so the whole burst is
    admitted concurrently — run each session over its own
    :class:`~repro.net.transport.TcpTransport` connection.

    A session *fails* if it raises or if its target store's row count
    differs from the consensus; ``report.failed`` counts both.  When
    ``out`` is given the report's JSON lands there (the committed
    ``BENCH_load.json`` is one of these).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    tracer = tracer or NULL_TRACER

    # -- workload: XMark MF -> LF ------------------------------------------------
    schema = xmark_schema()
    mf = xmark_mf_fragmentation(schema)
    lf = xmark_lf_fragmentation(schema)
    document = generate_xmark_document(
        document_bytes, seed=seed, schema=schema
    )
    source = RelationalEndpoint("load-src", mf)
    source.load_document(document)
    probe = CostModel(StatisticsCatalog.synthetic(schema))

    # The broker plans against its local agency view (the paper's
    # requester holds its own copy of the agreed schema); the *server*
    # holds the authoritative agency the HTTP plane registers into.
    agency = DiscoveryAgency(schema)
    agency.register("src", mf, source)
    agency.register("tgt", lf)

    server: ExchangeServer | None = None
    if host is None:
        server_agency = DiscoveryAgency(xmark_schema())
        server = ExchangeServer(
            server_agency, probe=probe, metrics=metrics,
            tracer=tracer,
        ).start()
        host, http_port = server.http_address
        feed_port = server.feed_address[1]

    transports: list[Transport] = []
    transports_lock = threading.Lock()

    def open_transport() -> TcpTransport:
        transport = TcpTransport.connect(host, feed_port,
                                         tracer=tracer)
        with transports_lock:
            transports.append(transport)
        return transport

    targets: list[RelationalEndpoint] = []
    targets_lock = threading.Lock()

    def make_target() -> RelationalEndpoint:
        with targets_lock:
            endpoint = RelationalEndpoint(f"T{len(targets)}", lf)
            targets.append(endpoint)
        return endpoint

    failures: list[str] = []
    results: list["ExchangeSession"] = []
    try:
        # -- control plane over real HTTP -------------------------------------
        client = SoapHttpClient(host, http_port)
        for name, registration in (
            ("src", agency.registration("src")),
            ("tgt", agency.registration("tgt")),
        ):
            try:
                client.register(name, registration.wsdl_text)
            except SoapFault as fault:
                # A long-lived server keeps registrations across
                # bursts; anything else is a real failure.
                if not _already_registered(fault):
                    raise
        negotiated = client.negotiate("src", "tgt", schema)
        negotiated[0].validate_placement(negotiated[1])

        # -- the burst ---------------------------------------------------------
        cache = PlanCache(metrics=metrics)
        started = time.perf_counter()
        with ExchangeBroker(
            agency, plan_cache=cache, max_workers=workers,
            max_pending=sessions, probe=probe,
            channel_factory=open_transport,
            batch_rows=batch_rows,
            metrics=metrics, tracer=tracer,
        ) as broker:
            futures = [
                broker.submit("src", "tgt", make_target, wait=True,
                              scenario=f"load-{index}")
                for index in range(sessions)
            ]
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except Exception as exc:  # noqa: BLE001 - tallied
                    failures.append(
                        f"session {index}: "
                        f"{type(exc).__name__}: {exc}"
                    )
        wall = time.perf_counter() - started
    finally:
        with transports_lock:
            for transport in transports:
                transport.close()
        if server is not None:
            server.stop()

    # -- verification: no session may disagree -------------------------------
    row_counts = sorted(
        {session.outcome.rows_written for session in results}
    )
    rows_written = row_counts[0] if len(row_counts) == 1 else -1
    if len(row_counts) > 1:
        failures.append(
            f"sessions disagree on rows written: {row_counts}"
        )

    latencies = [session.total_seconds for session in results]
    if not latencies:
        latencies = [0.0]
    report = LoadReport(
        sessions=sessions,
        workers=workers,
        failed=len(failures),
        wall_seconds=wall,
        p50_seconds=percentile(latencies, 50),
        p95_seconds=percentile(latencies, 95),
        p99_seconds=percentile(latencies, 99),
        mean_seconds=sum(latencies) / len(latencies),
        max_seconds=max(latencies),
        throughput_sessions_per_second=(
            len(results) / wall if wall > 0 else 0.0
        ),
        comm_bytes=sum(
            session.outcome.comm_bytes for session in results
        ),
        rows_written=rows_written,
        cache_hits=cache.hits,
        document_bytes=document_bytes,
        failures=failures[:20],
    )
    if out is not None:
        with open(out, "w", encoding="utf-8") as stream:
            stream.write(report.to_json())
            stream.write("\n")
    return report
