"""Figure 9's communication, paid in real wire bytes.

The paper ships fragments as sorted tuple feeds and charges them less
than the tagged document (Table 3).  Over a live socket each system
pays for the SOAP messages it actually sends — DE its fragment feeds,
publish&map its published document — so on all four scenarios at the
500 KB document DE's feeds must weigh less than publish&map's message.
"""

import pytest

from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.program.builder import build_transfer_program
from repro.net.server import FeedSink
from repro.net.transport import TcpTransport
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.workloads.xmark import generate_xmark_document

#: Figure 9's document: the paper's 25 MB at the benchmarks' 0.02 scale.
DOCUMENT_BYTES = 500_000


@pytest.fixture(scope="module")
def systems(auction_schema, auction_mf, auction_lf):
    """The two fragmentations, and a source loaded under each."""
    document = generate_xmark_document(
        DOCUMENT_BYTES, seed=42, schema=auction_schema
    )
    fragmentations = {"MF": auction_mf, "LF": auction_lf}
    sources = {}
    for kind, fragmentation in fragmentations.items():
        sources[kind] = RelationalEndpoint(f"src-{kind}", fragmentation)
        sources[kind].load_document(document)
    return fragmentations, sources


@pytest.fixture(scope="module")
def wire():
    with FeedSink() as sink:
        transport = TcpTransport.connect(sink.host, sink.port)
        yield transport
        transport.close()


@pytest.mark.parametrize("scenario", ["MF->MF", "LF->MF", "MF->LF",
                                      "LF->LF"])
def test_de_ships_fewer_bytes_than_publish_and_map(scenario, systems,
                                                   wire):
    fragmentations, sources = systems
    source_kind, target_kind = scenario.split("->")
    target = fragmentations[target_kind]
    program = build_transfer_program(
        derive_mapping(fragmentations[source_kind], target)
    )
    de = run_optimized_exchange(
        program, source_heavy_placement(program), sources[source_kind],
        RelationalEndpoint("de", target), wire, scenario,
    )
    pm = run_publish_and_map(
        sources[source_kind], RelationalEndpoint("pm", target), wire,
        scenario,
    )
    assert de.comm_bytes < pm.comm_bytes
