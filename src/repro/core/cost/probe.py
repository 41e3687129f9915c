"""Cost probing (Figure 2, step 3).

The middleware does not know how the endpoints execute operations; it
*probes* them through a narrow interface that returns the cost of each
primitive operation (as in [6], where the middleware probes the
underlying systems for query-cost estimates).  :class:`CostProbe` is
that interface; :class:`EndpointProbe` adapts two live endpoints (each
exposing ``estimate_cost``) plus a channel into one probe; a
:class:`~repro.core.cost.model.CostModel` satisfies the protocol
directly and is what the simulator uses.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Protocol

from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation


class CostProbe(Protocol):
    """What the optimizers need to price programs.

    A probe a plan cache keys on also states a ``signature`` string
    (see :func:`~repro.services.broker.plan_fingerprint`)."""

    def comp_cost(self, op: Operation, location: Location) -> float:
        """Cost of executing ``op`` at ``location``."""
        ...

    def comm_cost(self, fragment: Fragment) -> float:
        """Cost of shipping one instance of ``fragment``."""
        ...


class _CostReportingEndpoint(Protocol):
    machine: object

    def estimate_cost(self, op: Operation) -> float:
        ...


class _SizedChannel(Protocol):
    profile: object

    def transfer_cost(self, size_bytes: float) -> float:
        ...


class EndpointProbe:
    """Probe two live endpoints and a channel for costs.

    This is the deployment configuration of Figure 2: each system
    implements an interface providing the cost of each primitive
    operation; the agency combines those with the channel's transfer
    cost.  Fragment sizes come from the supplied estimator (typically a
    :class:`~repro.core.cost.estimates.StatisticsCatalog` built from the
    source's statistics).
    """

    def __init__(self, source: _CostReportingEndpoint,
                 target: _CostReportingEndpoint,
                 channel: _SizedChannel,
                 size_of: "_FragmentSizer") -> None:
        self.source = source
        self.target = target
        self.channel = channel
        self.size_of = size_of

    def comp_cost(self, op: Operation, location: Location) -> float:
        endpoint = (
            self.source if location is Location.SOURCE else self.target
        )
        return endpoint.estimate_cost(op)

    def comm_cost(self, fragment: Fragment) -> float:
        return self.channel.transfer_cost(
            self.size_of.fragment_feed_size(fragment)
        )

    @cached_property
    def signature(self) -> str:
        """Digest of what the answers depend on: each endpoint's
        machine profile, the shared catalog (the agency hands the
        source's to the target) and the channel's type and link
        profile.  Stated once per probe, which the agency builds once
        per negotiation."""
        text = "\n".join([
            repr(self.source.machine), repr(self.target.machine),
            self.size_of.signature,
            type(self.channel).__name__, repr(self.channel.profile),
        ])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _FragmentSizer(Protocol):
    signature: str

    def fragment_feed_size(self, fragment: Fragment) -> float:
        ...
