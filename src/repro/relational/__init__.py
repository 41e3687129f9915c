"""An in-memory relational engine — the paper's MySQL stand-in.

The real experiment (Section 5) ran two MySQL 3.23 servers; this package
provides the substrate the exchange actually reads and writes: typed
column tables clustered on (``parent``, ``id``)
(:mod:`repro.relational.table`), hash indexes built in their own timed
step (:mod:`repro.relational.index`), a database façade of named tables
(:mod:`repro.relational.engine`), plus the three XML-specific
components the paper builds on top:

* :mod:`repro.relational.frag_store` — a fragmentation's relational
  schema (table per fragment) and fragment instance load/extract; a
  scan is a slice of the clustered columns,
* :mod:`repro.relational.publisher` — optimized XML publishing from
  sorted feeds (merge & tag, after [6]),
* :mod:`repro.relational.shredder` — stack-based SAX shredding of XML
  into per-fragment tuple feeds (Section 5.1).
"""

from repro.relational.engine import Database
from repro.relational.frag_store import FragmentRelationMapper
from repro.relational.publisher import publish_document
from repro.relational.schema import Column, TableSchema
from repro.relational.shredder import ShredResult, shred_document
from repro.relational.types import ColumnType

__all__ = [
    "Database",
    "Column",
    "TableSchema",
    "ColumnType",
    "FragmentRelationMapper",
    "publish_document",
    "shred_document",
    "ShredResult",
]
