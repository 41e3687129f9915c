"""Probe correction by observed drift ratios.

:class:`ScaledProbe` corrects any :class:`~repro.core.cost.probe.
CostProbe` multiplicatively with per-kind measured/predicted ratios —
the output of :meth:`~repro.obs.drift.DriftReport.kind_ratios` or the
smoothed ratios of :class:`~repro.adapt.stats.StatisticsStore`.  Both
are measured against ``probe.comp_cost(op, location)`` /
``probe.comm_cost(fragment)``, the numbers this class scales, so a
ratio corrects exactly what it was measured against.  Re-placing under
the corrected probe is Algorithm 1 with pins
(:func:`~repro.core.optimizer.exhaustive.cost_based_optim`).
"""

from __future__ import annotations

import math

from repro.core.cost.probe import CostProbe
from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation

__all__ = ["ScaledProbe"]


def _geometric_mean(values: list[float]) -> float:
    finite = [value for value in values
              if value > 0 and math.isfinite(value)]
    if not finite:
        return 1.0
    return math.exp(sum(math.log(value) for value in finite)
                    / len(finite))


class ScaledProbe:
    """A probe whose answers are corrected by observed drift ratios.

    ``kind_scales`` maps :func:`~repro.core.cost.calibrate.
    strategy_key` keys (``"combine"``, ``"combine.hash"``, …) to the
    measured/predicted ratio of that kind; ``comm_scale`` corrects
    ``comm_cost``.  Kinds without evidence — and communication, when
    ``comm_scale`` is ``None`` — are scaled by the geometric mean of
    everything observed, so a uniformly slow substrate does not
    distort the computation/communication balance the optimizer
    trades on.
    """

    def __init__(self, base: CostProbe,
                 kind_scales: dict[str, float],
                 comm_scale: float | None = None) -> None:
        self.base = base
        self.kind_scales = {
            key: value for key, value in kind_scales.items()
            if value > 0 and math.isfinite(value)
        }
        observed = list(self.kind_scales.values())
        if comm_scale is not None and comm_scale > 0:
            observed.append(comm_scale)
        self.neutral = _geometric_mean(observed)
        self.comm_scale = (
            comm_scale if comm_scale is not None and comm_scale > 0
            else self.neutral
        )

    def scale_for(self, op: Operation) -> float:
        """The correction factor for ``op``'s kind (any observed
        strategy variant of the kind matches; unobserved kinds get
        the neutral scale)."""
        prefix = f"{op.kind}."
        best = None
        for key, value in self.kind_scales.items():
            if key == op.kind:
                return value
            if key.startswith(prefix) and best is None:
                best = value
        return best if best is not None else self.neutral

    def comp_cost(self, op: Operation, location: Location) -> float:
        return self.base.comp_cost(op, location) * self.scale_for(op)

    def comm_cost(self, fragment: Fragment) -> float:
        return self.base.comm_cost(fragment) * self.comm_scale
