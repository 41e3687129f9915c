"""The paper's workloads.

* :mod:`repro.workloads.xmark` — the XMark DTD subset of Figure 7, its
  MF/LF fragmentations and a size-targeted document generator,
* :mod:`repro.workloads.customer` — the Section 1.1 customer/orders
  scenario (schema S, LDAP schema T, the Figure 1 WSDL, sample data),
* :mod:`repro.workloads.sizes` — the 2.5/12.5/25 MB document ladder and
  the ``REPRO_SCALE`` environment knob.
"""

from repro.workloads.customer import (
    customer_info_wsdl,
    customer_schema,
    fragment_customers,
    generate_customer_instances,
    s_fragmentation,
    t_fragmentation,
)
from repro.workloads.sizes import DOCUMENT_SIZES_MB, scaled_bytes
from repro.workloads.xmark import (
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
    generate_xmark_document,
)

__all__ = [
    "customer_schema",
    "customer_info_wsdl",
    "s_fragmentation",
    "t_fragmentation",
    "generate_customer_instances",
    "fragment_customers",
    "DOCUMENT_SIZES_MB",
    "scaled_bytes",
    "xmark_schema",
    "xmark_mf_fragmentation",
    "xmark_lf_fragmentation",
    "generate_xmark_document",
]
