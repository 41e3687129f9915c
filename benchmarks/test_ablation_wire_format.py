"""Ablation — sorted feeds vs tagged SOAP XML on the wire.

The paper observes that shipping fragments "in the form of sorted
feeds" changes communication costs (Section 4.1) and Table 3 depends on
it.  This ablation runs the same MF -> LF exchange twice — once with the
tabular feed accounting, once actually SOAP-encoding every fragment —
and compares bytes on the wire against the published document size.
"""

import pytest

from repro.net.transport import SimulatedChannel
from repro.relational.publisher import publish_document
from repro.services.exchange import run_optimized_exchange

_BYTES: dict[str, int] = {}


@pytest.mark.parametrize("wire", ["feed", "soap-xml"])
def test_wire_format(benchmark, wire, size_labels, sources, programs,
                     fresh_target, results):
    label = size_labels[-1]
    source = sources[("MF", label)]
    program, placement = programs["MF->LF"]
    channel = SimulatedChannel(wire_format=(wire == "soap-xml"))

    def run():
        target = fresh_target("LF")
        return run_optimized_exchange(
            program, placement, source, target, channel, "MF->LF"
        )

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    _BYTES[wire] = outcome.comm_bytes
    results.record(
        "ablation-wire", wire, "bytes", outcome.comm_bytes,
        title="Ablation: wire format (MF->LF, largest document)",
    )
    results.record(
        "ablation-wire", wire, "comm secs",
        outcome.steps["communication"],
    )
    if wire == "feed":
        document_bytes = publish_document(
            source.db, source.mapper
        ).bytes
        results.record(
            "ablation-wire", "published document", "bytes",
            document_bytes,
        )
        _BYTES["document"] = document_bytes


def test_wire_format_shape():
    if "feed" not in _BYTES or "soap-xml" not in _BYTES:
        pytest.skip("run both wire formats first")
    # Feeds beat the tagged document, estimated and encoded alike: a
    # flat fragment's SOAP feed carries tuples, not tags.
    assert _BYTES["feed"] < _BYTES["document"]
    assert _BYTES["soap-xml"] < _BYTES["document"]
