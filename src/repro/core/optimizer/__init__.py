"""Program optimization (Sections 4.2 and 4.3).

* :mod:`repro.core.optimizer.placement` — shared placement machinery
  (closure propagation, legality, cost of a placed program),
* :mod:`repro.core.optimizer.exhaustive` — Algorithm 1
  (``Cost_Based_Optim``) and its pessimal twin (worst-case program,
  needed for Table 5),
* :mod:`repro.core.optimizer.greedy` — the greedy combine ordering and
  greedy distributed-processing heuristic,
* :mod:`repro.core.optimizer.search` — the plan search: the exact
  best/worst program over combine orders × placements (a DP over
  combine subtrees, no enumeration) and the greedy one for a mapping.
"""

from repro.core.optimizer.exhaustive import (
    cost_based_optim,
    cost_based_pessim,
)
from repro.core.optimizer.greedy import greedy_placement, greedy_program
from repro.core.optimizer.placement import (
    placement_cost,
    source_heavy_placement,
)
from repro.core.optimizer.search import (
    OptimizationResult,
    greedy_exchange,
    optimal_exchange,
    worst_exchange,
)

__all__ = [
    "cost_based_optim",
    "cost_based_pessim",
    "greedy_placement",
    "greedy_program",
    "placement_cost",
    "source_heavy_placement",
    "OptimizationResult",
    "optimal_exchange",
    "worst_exchange",
    "greedy_exchange",
]
