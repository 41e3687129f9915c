"""The paper's primary contribution.

* Fragments, fragmentations and validity — Defs. 3.1–3.4
  (:mod:`repro.core.fragment`, :mod:`repro.core.fragmentation`),
* fragment instances as keyed feeds (:mod:`repro.core.instance`),
* mappings between fragmentations — Def. 3.5 (:mod:`repro.core.mapping`),
* the four primitive operations — Defs. 3.6–3.9 (:mod:`repro.core.ops`),
* data-transfer programs and their generation — Def. 3.10 / Sec. 4.2
  (:mod:`repro.core.program`),
* the cost model — Sec. 4.1 (:mod:`repro.core.cost`),
* the exhaustive and greedy optimizers — Secs. 4.2/4.3
  (:mod:`repro.core.optimizer`).
"""

from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation
from repro.core.instance import ElementData, FragmentInstance
from repro.core.mapping import Mapping, derive_mapping

__all__ = [
    "Fragment",
    "Fragmentation",
    "ElementData",
    "FragmentInstance",
    "Mapping",
    "derive_mapping",
]
