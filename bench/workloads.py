"""The six workloads.

Each is a class the runner drives the same way::

    workload = Kind(seed, scale, tracer)
    workload.setup()                       # timed as setup_s
    workload.prepare(i, traced)            # untimed, before every op
    result = workload.operate(i, traced)   # the timed operation
    workload.verify(i, result)             # cheap check, untimed
    workload.replay(i)                     # traced operations only
    workload.verify_final()                # byte-identity oracle
    workload.teardown()

All inputs derive from ``seed``.  ``scale`` shrinks the inputs (the
smoke test runs at a few percent); the sizes below are the benchmark's.
Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import threading
import time
from itertools import islice
from statistics import median

from bench import adapter
from bench.loop import ROOT, ClosedLoop
from bench.proxies import (
    DELETE,
    INDEX,
    MERGE,
    PULL,
    SCAN,
    SHIP,
    WRITE,
    EndpointProxy,
    TransportProxy,
)
from bench.trace import Tracer

CALL = "services.exchange.call"
COMPUTE = "core.delta.compute"

# Per-layer metrics by the group of workloads that measures them.  A
# workload declares what it owns in ``layer_names``; the runner refuses
# a traced run that yields anything else, so a measurement that silently
# stops working cannot pass for a measured zero.
SCAN_LAYERS = ("relational.scan_s", "relational.scan_rows")
LOAD_LAYERS = (
    "relational.write_rows", "relational.index_s",
    "relational.load_document_s",
    "net.transport.ship_s", "net.transport.messages",
    "net.transport.bytes",
)
PROGRAM_LAYERS = (
    "core.program.self_s", "core.program.ops",
    "core.program.peak_resident_rows",
)
WIRE_LAYERS = (
    "net.soap.encode_s", "net.soap.decode_s", "net.soap.verify_s",
    "net.soap.bytes_per_row", "net.transport.wait_s",
    "net.server.handle_s", "net.server.faults",
    "xmlkit.parse_s", "xmlkit.parse_mb_per_s",
)
UNATTRIBUTED = "services.exchange.unattributed_s"

#: A session that has not resolved after this long has failed.
SESSION_TIMEOUT_SECONDS = 10.0


class Workload:
    """What the runner needs from a workload."""

    name = ""
    #: What the issue that defined the benchmark calls this workload's
    #: operation time (``op_min_s`` in ``BENCHMARK.json``).
    op_name = ""
    #: The per-layer metrics :meth:`layers` returns: exactly these.
    layer_names: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float = 1.0,
                 tracer: Tracer | None = None) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.load_document_s = 0.0
        #: Bytes one operation charges to the transport (the paper's
        #: communication term), fixed by set-up's warm-up operation.
        self.comm_bytes = 0

    def sizes(self) -> dict[str, object]:
        """The workload's input sizes, for the result record."""
        return {}

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int, traced: bool) -> None:
        pass

    def operate(self, index: int, traced: bool):
        raise NotImplementedError

    def verify(self, index: int, result) -> bool:
        raise NotImplementedError

    def replay(self, index: int) -> None:
        """After traced operation ``index`` (untimed): run the layers
        the proxies cannot see through their public functions, on what
        that operation handled."""

    def verify_final(self) -> bool:
        return True

    def teardown(self) -> None:
        pass

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics of the traced operations ``traced``,
        which took ``seconds[index]`` each (the runner adds
        ``bench.trace_overhead_frac``)."""
        return {}


# -- the four bulk exchanges ---------------------------------------------------------


class _XmarkExchange(Workload):
    """One XMark document exchanged between two relational endpoints;
    subclasses pick direction, dataplane and transport."""

    op_name = "exchange_s"
    document_bytes = 0
    source_kind = "MF"
    target_kind = "LF"
    knobs: dict[str, object] = {}
    tcp = False
    versioned = False

    def sizes(self) -> dict[str, object]:
        return {
            "document_bytes": int(self.document_bytes * self.scale),
            "direction": f"{self.source_kind}->{self.target_kind}",
            "knobs": self.knobs,
            "transport": "tcp" if self.tcp else "in-process",
        }

    def _load_source(self) -> None:
        self.inputs = adapter.XmarkInputs(
            max(2_000, int(self.document_bytes * self.scale)),
            self.seed,
        )
        self.target_fragmentation = \
            self.inputs.fragmentations[self.target_kind]
        self.source, self.load_document_s = adapter.load_source(
            self.inputs, self.source_kind, self.versioned
        )

    def setup(self) -> None:
        self._load_source()
        self.agency = adapter.new_agency(
            self.inputs, self.source_kind, self.target_kind,
            self.source, self._new_target("probe"),
        )
        self.server_metrics = adapter.new_metrics()
        self.server = None
        if self.tcp:
            self.server = adapter.start_feed_sink(self.server_metrics)
            self.channel = adapter.tcp_connect(
                adapter.feed_address(self.server)
            )
        else:
            self.channel = adapter.in_process_transport()
        self.plan = adapter.negotiate(self.agency, channel=self.channel)
        self.traced_ops: dict[int, tuple] = {}
        self.replays: dict[int, dict[str, float]] = {}
        self._warm_up()

    def _warm_up(self) -> None:
        """One discarded exchange; what it wrote and shipped is what
        every later one must write and ship."""
        self.prepare(-1, False)
        outcome = self.operate(-1, False)
        self.expected_rows = outcome.rows_written
        self.comm_bytes = outcome.comm_bytes
        self.peak_resident_rows = outcome.peak_resident_rows

    def _new_target(self, label):
        return adapter.new_endpoint(
            f"tgt-{label}", self.target_fragmentation
        )

    def teardown(self) -> None:
        self.channel.close()
        if self.server is not None:
            self.server.stop()

    # -- one operation -------------------------------------------------------------

    def _wrap(self, index: int, source, target, channel):
        """The traced run's proxies around one exchange's objects."""
        proxies = (
            EndpointProxy(source, self.tracer),
            EndpointProxy(target, self.tracer),
            TransportProxy(channel, self.tracer),
        )
        self.traced_ops[index] = proxies
        return proxies

    def prepare(self, index: int, traced: bool) -> None:
        self.target = self._new_target(index)
        self.actors = (self.source, self.target, self.channel)
        if traced:
            self.actors = self._wrap(index, *self.actors)

    def operate(self, index: int, traced: bool):
        return adapter.exchange(self.plan, *self.actors, **self.knobs)

    def verify(self, index: int, outcome) -> bool:
        return (
            outcome.rows_written == self.expected_rows
            and outcome.comm_bytes == self.comm_bytes
        )

    def replay(self, index: int) -> None:
        if self.tcp:
            channel = self.traced_ops[index][2]
            self.replays[index] = adapter.replay_soap(channel.shipped)
            channel.shipped.clear()

    def _median_replay(self, traced: list[int]) -> dict[str, float]:
        """Key-wise median of the traced operations' replays (as for
        the spans: a burst of interference that catches one replay
        does not move it)."""
        replays = [self.replays[index] for index in traced]
        return {key: median(one[key] for one in replays)
                for key in replays[0]}

    def _reference(self):
        """The publish&map reference target for the source's current
        contents."""
        reference = self._new_target("reference")
        outcome = adapter.publish_and_map(
            self.source, reference, adapter.in_process_transport()
        )
        return reference, outcome

    def verify_final(self) -> bool:
        reference, outcome = self._reference()
        return (
            outcome.rows_written == self.expected_rows
            and adapter.published_digest(self.target)
            == adapter.published_digest(reference)
        )

    # -- the traced run ------------------------------------------------------------

    def _median_self(self, traced: list[int]):
        """``name -> seconds``: a layer's self time, as the median over
        the traced operations."""
        selfs = [self.tracer.self_seconds(index) for index in traced]
        return lambda name: median(one.get(name, 0.0) for one in selfs)

    def _span_layers(self, traced: list[int]) -> dict[str, float]:
        """What the spans and the proxies' counters saw; counts are
        the first traced operation's (so that they repeat exactly
        however many operations a run fits in)."""
        seconds = self._median_self(traced)

        def count(position: int, attribute: str) -> float:
            return getattr(self.traced_ops[traced[0]][position],
                           attribute)

        return {
            "relational.scan_s": seconds(SCAN),
            "relational.scan_rows": count(0, "scan_rows"),
            "relational.write_s": seconds(WRITE),
            "relational.write_rows": count(1, "write_rows"),
            "relational.index_s": seconds(INDEX),
            "net.transport.ship_s": seconds(SHIP),
            "net.transport.messages": count(2, "messages"),
            "net.transport.bytes": count(2, "bytes"),
            # What the exchange call spent outside every endpoint and
            # transport call: the executor and its operators.
            "core.program.self_s":
                seconds(ROOT) + seconds(CALL) + seconds(PULL),
        }

    def _wire_layers(self, traced: list[int],
                     ship_s: float) -> dict[str, float]:
        """What replaying the SOAP work of the traced operations'
        messages took."""
        replay = self._median_replay(traced)
        if not replay["messages"]:
            raise RuntimeError(
                f"{self.name}: the transport proxy captured no message"
            )
        return {
            "net.soap.encode_s": replay["encode_s"],
            "net.soap.decode_s": replay["decode_s"],
            "net.soap.verify_s": replay["verify_s"],
            "net.soap.bytes_per_row": replay["bytes"] / replay["rows"],
            "net.transport.wait_s":
                ship_s - replay["encode_s"] - replay["decode_s"],
            "net.server.handle_s": replay["handle_s"],
            "net.server.faults": adapter.server_faults(
                self.server_metrics
            ),
            "xmlkit.parse_s": replay["parse_s"],
            "xmlkit.parse_mb_per_s":
                replay["bytes"] / 1e6 / replay["parse_s"],
        }

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        layers = self._span_layers(traced)
        if self.tcp:
            layers.update(self._wire_layers(
                traced, layers["net.transport.ship_s"]
            ))
        layers["relational.load_document_s"] = self.load_document_s
        layers["core.program.ops"] = adapter.plan_operations(self.plan)
        layers["core.program.peak_resident_rows"] = \
            self.peak_resident_rows
        return layers


def _seconds(function, *args, **kwargs) -> float:
    return adapter.timed(function, *args, **kwargs)[1]


class BulkRow(_XmarkExchange):
    name = "bulk-row"
    layer_names = (*SCAN_LAYERS, "relational.write_s", *LOAD_LAYERS,
                   *PROGRAM_LAYERS)
    document_bytes = 1_250_000
    source_kind, target_kind = "MF", "LF"


class WireTcp(_XmarkExchange):
    name = "wire-tcp"
    layer_names = (*BulkRow.layer_names, *WIRE_LAYERS, UNATTRIBUTED)
    document_bytes = 400_000
    # The same fragmentation on both sides: nothing to split or
    # combine, every fragment is scanned, shipped and written.
    source_kind, target_kind = "MF", "MF"
    knobs = {"batch_rows": 256}
    tcp = True

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        layers = super().layers(traced, seconds)
        # What a shipment takes beyond the replayed codec and sink
        # work: sockets, framing, thread hand-offs.
        layers[UNATTRIBUTED] = (
            layers["net.transport.wait_s"]
            - layers["net.server.handle_s"]
        )
        return layers


class PublishMap(_XmarkExchange):
    name = "publish-map"
    layer_names = (
        "relational.publish_s", "relational.shred_s",
        "relational.write_s", *LOAD_LAYERS,
        "xmlkit.parse_s", "xmlkit.parse_mb_per_s", UNATTRIBUTED,
    )
    document_bytes = BulkRow.document_bytes
    source_kind, target_kind = "MF", "LF"

    def operate(self, index: int, traced: bool):
        return adapter.publish_and_map(*self.actors)

    def replay(self, index: int) -> None:
        self.replays[index] = adapter.replay_publish_and_map(
            self.source, self.target_fragmentation
        )

    def verify_final(self) -> bool:
        # Publish&map is its own reference; the independent check is
        # the round trip: the target must publish the source's bytes.
        return adapter.published_digest(self.target) \
            == adapter.published_digest(self.source)

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        spans = super().layers(traced, seconds)
        # Publish&map reaches the stores directly, so the proxies see
        # only the shipment and the index build; its other layers are
        # replayed on the same inputs and must explain the rest.
        layers = {name: spans[name] for name in LOAD_LAYERS}
        replay = self._median_replay(traced)
        layers["relational.publish_s"] = replay["publish_s"]
        layers["relational.shred_s"] = replay["shred_s"]
        layers["relational.write_s"] = replay["load_s"]
        layers["relational.write_rows"] = replay["load_rows"]
        layers["xmlkit.parse_s"] = replay["parse_s"]
        layers["xmlkit.parse_mb_per_s"] = \
            replay["document_bytes"] / 1e6 / replay["parse_s"]
        layers[UNATTRIBUTED] = (
            spans["core.program.self_s"]
            - replay["publish_s"] - replay["shred_s"]
            - replay["load_s"]
        )
        return layers


class DeltaSync(_XmarkExchange):
    name = "delta-sync"
    layer_names = (
        *SCAN_LAYERS, *LOAD_LAYERS, *PROGRAM_LAYERS,
        "relational.merge_s", "relational.delete_s",
        "core.delta.compute_s", "core.delta.changed_rows",
        "core.delta.shipped_rows", "core.delta.amplification",
        "core.delta.full_s",
    )
    document_bytes = 1_500_000
    source_kind, target_kind = "LF", "MF"
    knobs = {"batch_rows": 256, "columnar": True}
    versioned = True
    change_fraction = 0.05
    delete_fraction = 0.01

    def sizes(self) -> dict[str, object]:
        return {
            **super().sizes(),
            "change_fraction": self.change_fraction,
            "delete_fraction": self.delete_fraction,
        }

    def _warm_up(self) -> None:
        """The full exchange every delta builds on, then one
        discarded delta round."""
        self.journal = adapter.new_journal()
        self.target = self._new_target("synced")
        adapter.exchange(
            self.plan, self.source, self.target, self.channel,
            journal=self.journal, **self.knobs,
        )
        self.compute_self: dict[int, float] = {}
        self.outcomes: dict[int, object] = {}
        self.prepare(-1, False)
        outcome = self.operate(-1, False)
        self.comm_bytes = outcome.comm_bytes
        self.peak_resident_rows = outcome.peak_resident_rows

    def prepare(self, index: int, traced: bool) -> None:
        adapter.mutate(
            self.source, self.seed * 100_003 + index,
            self.change_fraction, self.delete_fraction,
        )
        self.actors = (self.source, self.target, self.channel)
        if traced:
            self.actors = self._wrap(index, *self.actors)
            self._replay_compute(index)

    def _replay_compute(self, index: int) -> None:
        """``compute_delta`` with the coming run's arguments, under
        its own exchange id so its scans can be told from its own
        work."""
        replay_id = -2 - index
        self.tracer.enter_exchange(replay_id)
        with self.tracer.span(COMPUTE, root=True):
            adapter.replay_compute_delta(
                self.plan, EndpointProxy(self.source, self.tracer),
                self.journal,
            )
        self.compute_self[index] = \
            self.tracer.self_seconds(replay_id)[COMPUTE]

    def operate(self, index: int, traced: bool):
        return adapter.exchange(
            self.plan, *self.actors, journal=self.journal, delta=True,
            **self.knobs,
        )

    def verify(self, index: int, outcome) -> bool:
        if index in self.traced_ops:
            self.outcomes[index] = outcome
        return (
            outcome.delta
            and outcome.delta_shipped_rows >= outcome.delta_changed_rows
            and outcome.rows_written > 0
            and outcome.comm_bytes > 0
        )

    def verify_final(self) -> bool:
        reference, _ = self._reference()
        return adapter.published_digest(self.target) \
            == adapter.published_digest(reference)

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        layers = super().layers(traced, seconds)
        # A delta run loads through merge_rows / delete_rows only.
        del layers["relational.write_s"]
        self_seconds = self._median_self(traced)
        layers["relational.merge_s"] = self_seconds(MERGE)
        layers["relational.delete_s"] = self_seconds(DELETE)
        compute = median(self.compute_self[index] for index in traced)
        changed = self.outcomes[traced[0]].delta_changed_rows
        shipped = self.outcomes[traced[0]].delta_shipped_rows
        layers["core.delta.compute_s"] = compute
        layers["core.program.self_s"] -= compute
        layers["core.delta.changed_rows"] = changed
        layers["core.delta.shipped_rows"] = shipped
        layers["core.delta.amplification"] = shipped / changed
        # A full re-exchange of the same source on the same dataplane:
        # what a delta run is an alternative to.
        full_target = self._new_target("full")
        layers["core.delta.full_s"] = _seconds(
            adapter.exchange, self.plan, self.source, full_target,
            self.channel, **self.knobs,
        )
        return layers


# -- many small sessions -------------------------------------------------------------


class SessionsTcp(_XmarkExchange):
    name = "sessions-tcp"
    op_name = "session_p50_s"
    layer_names = (
        "relational.scan_s", "relational.write_s", *LOAD_LAYERS,
        *PROGRAM_LAYERS, *WIRE_LAYERS,
        "services.agency.negotiate_cold_s",
        "services.agency.negotiate_warm_s",
        "services.broker.plan_cache_hit_ratio",
        "services.broker.overhead_s", "services.broker.session_p95_s",
        "services.broker.contended_p50_s",
        "services.broker.contended_per_s",
    )
    document_bytes = 40_000
    source_kind, target_kind = "MF", "LF"
    tcp = True
    broker_workers = 2
    #: The end-to-end run has one closed-loop client: two make the
    #: interpreter lock's hand-offs decide the median (it moved by a
    #: sixth between identical runs).  What two cost is measured in a
    #: short burst of the traced run instead.
    contended_clients = 2
    contended_seconds = 2.0

    def sizes(self) -> dict[str, object]:
        return {
            **super().sizes(),
            "clients": 1,
            "contended_clients": self.contended_clients,
            "broker_workers": self.broker_workers,
        }

    def setup(self) -> None:
        self._load_source()
        self.source_proxy = (
            EndpointProxy(self.source, self.tracer)
            if self.tracer is not None else None
        )
        self.probe = adapter.xmark_probe(self.inputs)
        self.agency = adapter.new_agency(
            self.inputs, self.source_kind, self.target_kind,
            self.source,
        )
        # The traced sessions run against an agency that hands out the
        # source's proxy; the plans are the same.
        self.traced_agency = adapter.new_agency(
            self.inputs, self.source_kind, self.target_kind,
            self.source_proxy,
        ) if self.tracer is not None else None
        self.server_metrics = adapter.new_metrics()
        self.server = adapter.start_exchange_server(
            self.inputs, self.probe, self.server_metrics
        )
        self.address = adapter.feed_address(self.server)
        self.plan = adapter.negotiate(self.agency, probe=self.probe)
        self.plan_cache = adapter.new_plan_cache()
        self.brokers = {
            traced: adapter.new_broker(
                agency, plan_cache=self.plan_cache, probe=self.probe,
                channel_factory=self._open_channel,
                max_workers=self.broker_workers,
            )
            for traced, agency in (
                (False, self.agency), (True, self.traced_agency),
            ) if agency is not None
        }
        self._local = threading.local()
        self._lock = threading.Lock()
        self.targets: dict[int, object] = {}
        self.channels: dict[int, object] = {}
        self.traced_ops = {}
        self.replays = {}
        session = self.operate(-1, False)
        self.expected_rows = session.outcome.rows_written
        self.comm_bytes = session.outcome.comm_bytes
        self.peak_resident_rows = session.outcome.peak_resident_rows
        self.targets.clear()

    def teardown(self) -> None:
        for broker in self.brokers.values():
            broker.close()
        with self._lock:
            for channel in self.channels.values():
                channel.close()
        self.server.stop()

    def prepare(self, index: int, traced: bool) -> None:
        pass

    # Both factories run on the broker's worker thread, the target's
    # first: it tells the channel's which session the thread is on.

    def _target_factory(self, index: int, traced: bool):
        def build():
            target = self._new_target(index)
            with self._lock:
                self.targets[index] = target
            if traced:
                self.tracer.enter_exchange(index)
                target = _SessionTarget(target, self.tracer)
            self._local.session = (index, target)
            return target
        return build

    def _open_channel(self):
        index, target = self._local.session
        channel = adapter.tcp_connect(self.address)
        with self._lock:
            self.channels[index] = channel
        if not isinstance(target, _SessionTarget):
            return channel
        # The exchange call starts as soon as its channel exists and
        # ends when the target's indexes are built.
        target.call = self.tracer.begin(CALL)
        proxy = TransportProxy(channel, self.tracer)
        with self._lock:
            self.traced_ops[index] = (self.source_proxy, target, proxy)
        return proxy

    def operate(self, index: int, traced: bool):
        future = adapter.submit_session(
            self.brokers[traced], self._target_factory(index, traced)
        )
        try:
            return future.result(timeout=SESSION_TIMEOUT_SECONDS)
        finally:
            with self._lock:
                channel = self.channels.pop(index, None)
            if channel is not None:
                channel.close()

    def verify(self, index: int, session) -> bool:
        with self._lock:
            # Keep only the newest target for the final digest.
            self.target = self.targets.pop(index)
        return (
            session.outcome.rows_written == self.expected_rows
            and session.outcome.comm_bytes == self.comm_bytes
        )

    def _span_layers(self, traced: list[int]) -> dict[str, float]:
        seconds = self._median_self(traced)
        # The source proxy is shared by every session, so rows are
        # counted on the first traced session's own target instead.
        _, target, channel = self.traced_ops[traced[0]]
        return {
            "relational.scan_s": seconds(SCAN),
            "relational.write_s": seconds(WRITE),
            "relational.write_rows": target.write_rows,
            "relational.index_s": seconds(INDEX),
            "net.transport.ship_s": seconds(SHIP),
            "net.transport.messages": channel.messages,
            "net.transport.bytes": channel.bytes,
            "core.program.self_s": seconds(CALL) + seconds(PULL),
            "services.broker.overhead_s": seconds(ROOT),
        }

    def _negotiation_layers(self) -> dict[str, float]:
        cold = [
            _seconds(adapter.negotiate, self.agency, probe=self.probe)
            for _ in range(5)
        ]
        warm = [
            _seconds(adapter.negotiate, self.agency, probe=self.probe,
                     plan_cache=self.plan_cache)
            for _ in range(5)
        ]
        return {
            "services.agency.negotiate_cold_s": median(cold),
            "services.agency.negotiate_warm_s": median(warm),
        }

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        hit_ratio = adapter.plan_cache_hit_ratio(self.plan_cache)
        layers = super().layers(traced, seconds)
        layers.update(self._negotiation_layers())
        # A session's root span is everything outside the exchange
        # call: the broker's hand-offs and the warm negotiation.
        layers["services.broker.overhead_s"] -= \
            layers["services.agency.negotiate_warm_s"]
        layers["services.broker.plan_cache_hit_ratio"] = hit_ratio
        # 5 % of the traced sessions lie beyond this; no higher
        # percentile has ten samples behind it in a run this long.
        latencies = sorted(seconds[index] for index in traced)
        layers["services.broker.session_p95_s"] = \
            latencies[int(0.95 * (len(latencies) - 1))]
        burst = ClosedLoop(self, self.contended_clients)
        started = time.perf_counter()
        contended = burst.run(self.contended_seconds)
        wall = time.perf_counter() - started
        if burst.failed:
            raise RuntimeError(
                f"{burst.failed} contended sessions failed"
            )
        layers["services.broker.contended_p50_s"] = median(contended)
        layers["services.broker.contended_per_s"] = \
            len(contended) / wall
        return layers


class _SessionTarget(EndpointProxy):
    """A traced session's target: the end of its index build is the
    end of the session's exchange-call span."""

    call = None

    def build_indexes(self):
        try:
            return super().build_indexes()
        finally:
            self._tracer.finish(self.call)


# -- the planner ---------------------------------------------------------------------


class PlanCold(Workload):
    name = "plan-cold"
    op_name = "negotiate_s"
    layer_names = ("core.optimizer.plan_s",
                   "core.optimizer.programs_considered")
    #: Combine-order search space of one pass, in programs x operations
    #: (about 0.04 ms each on the sizing machine): the seed-derived
    #: instance set is filled up to this, so passes of different seeds
    #: search spaces of one size.
    pass_work = 22_000
    #: No instance may be more than this share of a pass (the search
    #: is factorial in the fragments a target is assembled from, so
    #: this also keeps the monsters out).
    largest_share = 1 / 4

    def sizes(self) -> dict[str, object]:
        return {
            "schema": "balanced_schema(2, 5), 31 nodes",
            "fragments_per_side": [6, 8, 10],
            "pass_work": int(self.pass_work * self.scale),
            "instances": len(getattr(self, "instances", ())),
        }

    def setup(self) -> None:
        budget = self.pass_work * self.scale
        self.instances = []
        filled = 0
        # (The draw cap only ends the loop at sizes where hardly any
        # instance fits.)
        for instance in islice(adapter.planner_instances(self.seed),
                               2_000):
            room = int(min(budget - filled, self.largest_share * budget))
            work = instance.search_space(room)
            if work > room:
                continue
            filled += work
            self.instances.append(instance)
            if filled >= 0.98 * budget:
                break
        self.greedy_costs = [
            instance.greedy_cost() for instance in self.instances
        ]
        self.expected_costs = [
            plan.estimated_cost for plan in self.operate(-1, False)
        ]
        self.plan_seconds: dict[int, float] = {}

    def operate(self, index: int, traced: bool):
        return [instance.negotiate() for instance in self.instances]

    def verify(self, index: int, plans) -> bool:
        return all(
            adapter.check_plan(plan)
            and plan.estimated_cost == expected
            and plan.estimated_cost <= greedy * (1 + 1e-9)
            for plan, expected, greedy in zip(
                plans, self.expected_costs, self.greedy_costs
            )
        )

    def replay(self, index: int) -> None:
        # The optimizer layer alone, on the same instances.
        self.plan_seconds[index] = sum(
            instance.plan() for instance in self.instances
        )

    def layers(self, traced: list[int],
               seconds: dict[int, float]) -> dict[str, float]:
        return {
            "core.optimizer.plan_s": median(
                self.plan_seconds[index] for index in traced
            ),
            "core.optimizer.programs_considered": sum(
                instance.programs for instance in self.instances
            ),
        }


WORKLOADS = {
    kind.name: kind
    for kind in (BulkRow, WireTcp, PublishMap, SessionsTcp, DeltaSync,
                 PlanCold)
}
