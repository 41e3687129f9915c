"""The only file of the benchmark that imports ``repro``.

Everything the workloads need from the system goes through the names
below, bound by keyword to the public entry points
(``run_optimized_exchange``, ``run_publish_and_map``,
``DiscoveryAgency.negotiate``, ``ExchangeBroker.submit``,
``ExchangeServer``, ``TcpTransport.connect``) and to the public
functions of each layer that the traced run replays.  No private name,
no ``order_limit``, no ``ExchangeOutcome.steps``: a refactor of the
exchange API re-points the benchmark here and nowhere else.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import time
from itertools import islice

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if not os.path.isdir(os.path.join(_SRC, "repro")):
    raise ImportError(
        f"the program under test is missing: no package at {_SRC}/repro"
    )
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.cost.estimates import StatisticsCatalog  # noqa: E402
from repro.core.cost.model import CostModel, MachineProfile  # noqa: E402
from repro.core.delta import compute_delta  # noqa: E402
from repro.core.instance import FragmentInstance  # noqa: E402
from repro.core.mapping import derive_mapping  # noqa: E402
from repro.core.optimizer.search import (  # noqa: E402
    greedy_exchange,
    optimal_exchange,
)
from repro.core.program.builder import ProgramBuilder  # noqa: E402
from repro.core.program.journal import ExchangeJournal  # noqa: E402
from repro.core.stream import FragmentStream  # noqa: E402
from repro.net.server import ExchangeServer, FeedSink  # noqa: E402
from repro.net.soap import (  # noqa: E402
    parse_envelope,
    soap_envelope,
    unwrap_fragment_feed,
    verify_fragment_feed,
    wrap_fragment_feed,
)
from repro.net.transport import (  # noqa: E402
    InProcessTransport,
    TcpTransport,
)
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.relational.publisher import publish_document  # noqa: E402
from repro.relational.shredder import shred_document  # noqa: E402
from repro.schema.generator import balanced_schema  # noqa: E402
from repro.services.agency import DiscoveryAgency  # noqa: E402
from repro.services.broker import ExchangeBroker, PlanCache  # noqa: E402
from repro.services.endpoint import RelationalEndpoint  # noqa: E402
from repro.services.exchange import (  # noqa: E402
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.sim.random_fragmentation import (  # noqa: E402
    random_fragmentation,
)
from repro.workloads.mutate import mutate_endpoint  # noqa: E402
from repro.workloads.xmark import (  # noqa: E402
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)
from repro.xmlkit.parser import ContentHandler, push_parse  # noqa: E402
from repro.xmlkit.tree import Element  # noqa: E402


# -- inputs ------------------------------------------------------------------------


class XmarkInputs:
    """One generated XMark document with the paper's two
    fragmentations of its schema."""

    def __init__(self, document_bytes: int, seed: int) -> None:
        self.schema = xmark_schema()
        self.fragmentations = {
            "MF": xmark_mf_fragmentation(self.schema),
            "LF": xmark_lf_fragmentation(self.schema),
        }
        self.document = generate_xmark_document(
            document_bytes, seed=seed, schema=self.schema
        )


def new_stream(fragment, batches):
    """A stream of ``fragment``'s batches, as the endpoints' streaming
    calls take and return them."""
    return FragmentStream(fragment, batches)


def new_endpoint(name: str, fragmentation):
    """An empty relational endpoint storing ``fragmentation``."""
    return RelationalEndpoint(name, fragmentation)


def load_source(inputs: XmarkInputs, kind: str,
                versioned: bool = False):
    """A relational source holding the document under fragmentation
    ``kind``; returns ``(endpoint, load_document seconds)``."""
    source = RelationalEndpoint("src", inputs.fragmentations[kind])
    started = time.perf_counter()
    source.load_document(inputs.document)
    seconds = time.perf_counter() - started
    if versioned:
        source.enable_versioning()
    return source, seconds


def new_agency(inputs: XmarkInputs, source_kind: str, target_kind: str,
               source, target=None):
    """A discovery agency with ``src`` and ``tgt`` registered."""
    agency = DiscoveryAgency(inputs.schema)
    agency.register("src", inputs.fragmentations[source_kind], source)
    agency.register("tgt", inputs.fragmentations[target_kind], target)
    return agency


def xmark_probe(inputs: XmarkInputs):
    """The cost probe a requester without live target endpoints
    negotiates with (what ``loadgen`` uses)."""
    return CostModel(StatisticsCatalog.synthetic(inputs.schema))


def negotiate(agency, *, optimizer: str = "greedy", probe=None,
              channel=None, plan_cache=None):
    return agency.negotiate(
        "src", "tgt", optimizer=optimizer, probe=probe,
        channel=channel, plan_cache=plan_cache,
    )


def new_plan_cache():
    return PlanCache()


def plan_cache_hit_ratio(cache) -> float:
    stats = cache.stats()
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


# -- transports and servers ----------------------------------------------------------


def in_process_transport():
    return InProcessTransport()


def tcp_connect(address: tuple[str, int]):
    return TcpTransport.connect(address[0], address[1])


def start_feed_sink(metrics=None):
    """A live feed sink on loopback; ``.stop()`` shuts it down."""
    return FeedSink(metrics=metrics).start()


def start_exchange_server(inputs: XmarkInputs, probe, metrics=None):
    """Both planes of the service tier on loopback."""
    return ExchangeServer(
        DiscoveryAgency(inputs.schema), probe=probe, metrics=metrics,
    ).start()


def feed_address(server) -> tuple[str, int]:
    if isinstance(server, ExchangeServer):
        return server.feed_address
    return server.host, server.port


def new_metrics():
    return MetricsRegistry()


def server_faults(metrics) -> int:
    return int(metrics.counter("server.faults").value)


# -- the exchanges -------------------------------------------------------------------


def new_journal():
    return ExchangeJournal()


def exchange(plan, source, target, channel, *, batch_rows=None,
             columnar=False, journal=None, delta=False):
    """One optimized data exchange; the target is loaded and indexed
    when this returns."""
    return run_optimized_exchange(
        plan.annotate(), plan.placement, source, target, channel,
        batch_rows=batch_rows, columnar=columnar, journal=journal,
        delta=delta,
    )


def publish_and_map(source, target, channel):
    """One publish&map exchange (the paper's baseline and this
    benchmark's reference for every output check)."""
    return run_publish_and_map(source, target, channel)


def new_broker(agency, *, plan_cache, probe, channel_factory,
               max_workers: int):
    return ExchangeBroker(
        agency, plan_cache=plan_cache, max_workers=max_workers,
        probe=probe, channel_factory=channel_factory,
    )


def submit_session(broker, target_factory):
    """Admit one ``src -> tgt`` session; returns its future."""
    return broker.submit("src", "tgt", target_factory, wait=True)


def mutate(source, seed: int, fraction: float,
           delete_fraction: float):
    return mutate_endpoint(
        source, fraction, seed=seed, delete_fraction=delete_fraction,
    )


def published_digest(endpoint) -> str:
    """Digest of the document the endpoint's tables publish — the
    byte-identity yardstick between an exchanged target and the
    publish&map reference (row ids differ between the two, the
    published bytes must not)."""
    document = publish_document(endpoint.db, endpoint.mapper).document
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def corrupt_one_row(endpoint) -> None:
    """Flip one stored text value (the smoke test's proof that the
    oracle trips)."""
    mutated = endpoint.fragmentation.fragments[-1]
    row = endpoint.scan(mutated).rows[0]
    node = next(n for n in row.data.iter_all() if n.text)
    node.text += "!"
    endpoint.merge_rows(mutated, [row])


# -- layer replays (traced run only) -------------------------------------------------


def timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - started


def replay_soap(shipped) -> dict[str, float]:
    """Replay the SOAP work of every captured message: encode, decode,
    the receiver's verification, the sink's whole handling, and the
    bare XML parse the last three share."""
    totals = dict.fromkeys(
        ("encode_s", "decode_s", "verify_s", "handle_s", "parse_s",
         "bytes", "rows", "messages"), 0.0,
    )
    for fragment, rows, seq in shipped:
        instance = FragmentInstance(fragment, rows)
        message, seconds = timed(wrap_fragment_feed, instance, seq)
        totals["encode_s"] += seconds
        totals["decode_s"] += timed(
            unwrap_fragment_feed, message, fragment
        )[1]
        frame = message.encode("utf-8")
        started = time.perf_counter()
        payload = parse_envelope(frame.decode("utf-8"))
        verify_started = time.perf_counter()
        name, count, digest = verify_fragment_feed(payload)
        totals["verify_s"] += time.perf_counter() - verify_started
        soap_envelope(Element("Ack", {
            "of": "FragmentFeed", "fragment": name,
            "count": str(count), "checksum": digest,
        }))
        totals["handle_s"] += time.perf_counter() - started
        totals["parse_s"] += timed(
            push_parse, message, ContentHandler()
        )[1]
        totals["bytes"] += len(frame)
        totals["rows"] += len(rows)
        totals["messages"] += 1
    return totals


def replay_publish_and_map(source, target_fragmentation
                           ) -> dict[str, float]:
    """Replay publish&map's layers on the workload's inputs: the
    publishing queries + tagging, the bare parse of the published
    document, parse + shred, and the bulk load."""
    report, publish_s = timed(
        publish_document, source.db, source.mapper
    )
    parse_s = timed(push_parse, report.document, ContentHandler())[1]
    scratch = RelationalEndpoint("replay", target_fragmentation)
    shredded, shred_s = timed(
        shred_document, report.document, scratch.mapper
    )
    rows, load_s = timed(shredded.load_into, scratch.db)
    return {
        "publish_s": publish_s, "parse_s": parse_s,
        "shred_s": shred_s, "load_s": load_s, "load_rows": rows,
        "document_bytes": len(report.document),
    }


def replay_compute_delta(plan, source, journal) -> None:
    """``compute_delta`` with the arguments the next delta run over
    ``journal`` will give it."""
    compute_delta(
        source,
        [op.fragment for op in plan.program.scans()],
        [op.fragment for op in plan.program.writes()],
        journal.last_sync_version(),
    )


def plan_operations(plan) -> int:
    return len(plan.program.nodes)


# -- the planner workload ------------------------------------------------------------

#: Table 5's relative source/target speeds.
_SPEED_RATIOS = ((5.0, 1.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0),
                 (1.0, 5.0))


class PlannerInstance:
    """One cold negotiation problem: a random source/target
    fragmentation pair over the Table 5 schema."""

    def __init__(self, schema, source, target, probe) -> None:
        self.schema = schema
        self.source = source
        self.target = target
        self.probe = probe
        #: Programs the last :meth:`plan` considered.
        self.programs = 0

    def search_space(self, cap: int) -> int:
        """Size of the exhaustive search: combine-order programs times
        the operations of each, counted from the builder's merge
        orders without costing a single program (the search itself is
        what the workload times).  Counting stops beyond ``cap``."""
        builder = ProgramBuilder(
            derive_mapping(self.source, self.target)
        )
        skeleton, assemblies = builder.skeleton()
        work = len(skeleton.nodes) + sum(
            len(assembly.ports) - 1 for assembly in assemblies
        )
        for assembly in assemblies:
            orders = builder.all_merge_orders(assembly.fragments)
            work *= sum(1 for _ in islice(orders, cap // work + 1))
            if work > cap:
                break
        return work

    def negotiate(self):
        """A cold ``DiscoveryAgency.negotiate`` (no plan cache, no
        order cap) on a fresh agency."""
        agency = DiscoveryAgency(self.schema)
        agency.register("src", self.source)
        agency.register("tgt", self.target)
        return agency.negotiate(
            "src", "tgt", optimizer="optimal", probe=self.probe,
        )

    def plan(self):
        """The optimizer layer alone: ``optimal_exchange`` on the
        derived mapping.  Returns its seconds."""
        mapping = derive_mapping(self.source, self.target)
        result, seconds = timed(
            optimal_exchange, mapping, self.probe
        )
        self.programs = result.programs_considered
        return seconds

    def greedy_cost(self) -> float:
        return greedy_exchange(
            derive_mapping(self.source, self.target), self.probe
        ).cost


def planner_instances(seed: int):
    """An endless seed-derived stream of Table 5 instances:
    ``balanced_schema(2, 5)`` (31 nodes), random fragmentations with
    6/8/10 fragments a side, statistics and machine speeds from the
    seed."""
    rng = random.Random(seed)
    schema = balanced_schema(2, 5, seed=seed)
    statistics = StatisticsCatalog.synthetic(
        schema, fanout=rng.uniform(2.0, 4.0),
        text_bytes=rng.uniform(8.0, 24.0),
    )
    while True:
        for fragments in (6, 8, 10):
            source_speed, target_speed = rng.choice(_SPEED_RATIOS)
            yield PlannerInstance(
                schema,
                random_fragmentation(
                    schema, n_fragments=fragments, rng=rng, name="S"
                ),
                random_fragmentation(
                    schema, n_fragments=fragments, rng=rng, name="T"
                ),
                CostModel(
                    statistics,
                    source=MachineProfile("s", speed=source_speed),
                    target=MachineProfile("t", speed=target_speed),
                ),
            )


def check_plan(plan) -> bool:
    """A negotiated plan is a valid program with a legal placement."""
    plan.program.validate()
    plan.program.validate_placement(plan.placement)
    return True
