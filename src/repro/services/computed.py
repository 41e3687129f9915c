"""Computed fragments — fragments backed by service calls (Section 1.1).

    "The lowest granularity of a fragment is a single element in the
    XML Schema.  However, a fragment could correspond to the result of
    a service call.  For instance, S could provide a fragment that
    defines a service, TotalMRCService, standing for the total monthly
    recurring charges for all lines ordered by a customer, without
    revealing how this fragment is computed."

:class:`ComputedFragmentSource` wraps any source endpoint: fragments
registered with a *provider* are produced by calling it (typically an
aggregate over the system's internal tables — see
:func:`value_provider`); everything else scans through to the wrapped
endpoint.  The middleware sees an ordinary fragment either way — how it
is computed stays hidden behind the endpoint, exactly as the paper
requires.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import EndpointError
from repro.core.fragment import Fragment
from repro.core.instance import ElementData, FragmentInstance, FragmentRow
from repro.core.ops.base import Operation
from repro.services.endpoint import SystemEndpoint

#: Produces the instance of one computed fragment on demand.
FragmentProvider = Callable[[Fragment], FragmentInstance]


class ComputedFragmentSource(SystemEndpoint):
    """A source endpoint with service-backed fragments."""

    def __init__(self, inner: SystemEndpoint,
                 providers: dict[str, FragmentProvider]) -> None:
        super().__init__(f"{inner.name}+computed", inner.machine)
        self.inner = inner
        self.providers = dict(providers)

    def scan(self, fragment: Fragment) -> FragmentInstance:
        provider = self.providers.get(fragment.name)
        if provider is not None:
            instance = provider(fragment)
            if instance.fragment.elements != fragment.elements:
                raise EndpointError(
                    f"provider for {fragment.name!r} produced an "
                    f"instance of {instance.fragment.name!r}"
                )
            return instance
        return self.inner.scan(fragment)

    def write(self, fragment: Fragment,
              instance: FragmentInstance) -> None:
        self.inner.write(fragment, instance)

    def estimate_cost(self, op: Operation) -> float:
        """Computed fragments answer probes like stored ones — the
        middleware cannot tell the difference (and should not)."""
        # A service call is priced as a scan of its output.
        return self.inner.estimate_cost(op)


def value_provider(compute: Callable[[], Iterable[tuple[int, object]]],
                   *, eid_start: int = 1_000_000) -> FragmentProvider:
    """Build a provider for a single-leaf fragment from a computation.

    ``compute()`` yields ``(parent_eid, value)`` pairs; each becomes one
    fragment row whose root element carries the value as text.  Fresh
    element ids are allocated from ``eid_start`` upward (service results
    are new data, not stored occurrences).

    The TotalMRC example, summing a billing table's charges per
    customer::

        def total_mrc():
            totals = {}
            for custkey, mrc in zip(*charges.columns):
                totals[custkey] = totals.get(custkey, 0.0) + mrc
            return totals.items()

        provider = value_provider(total_mrc)
    """

    def provide(fragment: Fragment) -> FragmentInstance:
        if len(fragment.elements) != 1:
            raise EndpointError(
                "value_provider only serves single-element fragments; "
                f"{fragment.name!r} has {len(fragment.elements)}"
            )
        rows = []
        next_eid = eid_start
        for pair in compute():
            if len(pair) != 2:
                raise EndpointError(
                    "a fragment provider must yield "
                    "(parent_eid, value) pairs"
                )
            parent_eid, value = pair
            data = ElementData(
                fragment.root_name, next_eid,
                text="" if value is None else str(value),
            )
            rows.append(FragmentRow(data, int(parent_eid)))
            next_eid += 1
        return FragmentInstance(fragment, rows)

    return provide
