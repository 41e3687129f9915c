"""Network substrate: SOAP framing, pluggable transports, and faults.

The paper deploys its service over SOAP 1.1 / HTTP between two machines
connected through the Internet; here :mod:`repro.net.soap` provides the
envelope codec (fragment feeds and whole documents travel as SOAP
bodies with content checksums and sequence numbers; a flat fragment's
feed is a tuple feed, one line of cells per row, written straight from
its columns),
:mod:`repro.net.transport` the pluggable :class:`Transport` stack — a
:class:`SimulatedChannel` that charges bytes against a configured
bandwidth/latency (the measured quantity behind Table 3), a zero-cost
:class:`InProcessTransport`, and a :class:`TcpTransport` moving
length-prefixed envelopes over real sockets — and
:mod:`repro.net.faults` a deterministic lossy-channel wrapper plus the
retry/de-duplication/re-ordering layer that heals it.

The service tier lives in :mod:`repro.net.server` (SOAP-over-HTTP
discovery agency + framed-socket feed sink) and
:mod:`repro.net.loadgen` (the concurrent load harness); both import
the services layer, so they are deliberately *not* re-exported here.
"""

from repro.net.faults import (
    FaultKind,
    FaultPlan,
    FaultyChannel,
    ReliableBatchLink,
    RetryPolicy,
)
from repro.net.soap import (
    FeedReceipt,
    encode_batch,
    encode_fragment_feed,
    parse_envelope,
    read_fragment_feed,
    soap_envelope,
    soap_fault,
    unwrap_fragment_feed,
    verify_fragment_feed,
    wrap_document,
    wrap_fragment_feed,
)
from repro.net.transport import (
    InProcessTransport,
    NetworkProfile,
    SimulatedChannel,
    TcpTransport,
    Transport,
    recv_frame,
    send_frame,
)

__all__ = [
    "NetworkProfile",
    "Transport",
    "SimulatedChannel",
    "InProcessTransport",
    "TcpTransport",
    "send_frame",
    "recv_frame",
    "FaultKind",
    "FaultPlan",
    "FaultyChannel",
    "RetryPolicy",
    "ReliableBatchLink",
    "soap_envelope",
    "soap_fault",
    "parse_envelope",
    "wrap_fragment_feed",
    "encode_fragment_feed",
    "encode_batch",
    "read_fragment_feed",
    "FeedReceipt",
    "unwrap_fragment_feed",
    "wrap_document",
    "verify_fragment_feed",
]
