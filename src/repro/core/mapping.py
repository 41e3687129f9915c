"""Mappings between fragmentations (Definition 3.5).

A mapping ``(XMLSchema, S, T, M)`` associates each target fragment with
the source fragments whose elements it draws from.  Because valid
fragmentations partition the schema's elements, the mapping is fully
determined by element coverage; :func:`derive_mapping` computes it, along
with the per-pair element intersections the program builder needs to
place ``Split`` operations (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MappingError
from repro.core.fragment import Fragment
from repro.core.fragmentation import Fragmentation


@dataclass(slots=True)
class MappingEntry:
    """One target fragment and the source fragments that feed it."""

    target: Fragment
    sources: list[Fragment]
    #: For each source fragment name, the elements of `target` that the
    #: source contributes (a connected subtree, see DESIGN.md).
    contributions: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def is_identity(self) -> bool:
        """True if one source fragment equals the target exactly —
        the Scan → Write fast path of Section 5.2."""
        return (
            len(self.sources) == 1
            and self.sources[0].elements == self.target.elements
        )


@dataclass(slots=True)
class Mapping:
    """The full mapping ``M`` from target fragments to source fragments."""

    source: Fragmentation
    target: Fragmentation
    entries: list[MappingEntry]

    def split_requirements(self) -> dict[str, list[frozenset[str]]]:
        """For each source fragment that feeds several target fragments
        (or feeds one partially), the element partition it must be split
        into.  Source fragments used whole map to no requirement."""
        needed: dict[str, list[frozenset[str]]] = {}
        for source_fragment in self.source:
            parts = [
                entry.contributions[source_fragment.name]
                for entry in self.entries
                if source_fragment.name in entry.contributions
            ]
            if len(parts) > 1 or (
                parts and parts[0] != source_fragment.elements
            ):
                needed[source_fragment.name] = parts
        return needed


def derive_mapping(source: Fragmentation, target: Fragmentation) -> Mapping:
    """Compute the mapping between two fragmentations of the same schema.

    Raises:
        MappingError: if the fragmentations are over different schemas.
    """
    if not source.schema.structurally_equal(target.schema):
        # Remote systems re-parse the agreed schema document, so the
        # two fragmentations may arrive over distinct but structurally
        # identical SchemaTree objects (same canonical fingerprint);
        # those are one schema for mapping purposes, exactly as
        # DiscoveryAgency.register accepts them.
        raise MappingError(
            "source and target fragmentations must share one schema "
            f"({source.name!r} vs {target.name!r})"
        )
    entries: list[MappingEntry] = []
    for target_fragment in target:
        sources: list[Fragment] = []
        contributions: dict[str, frozenset[str]] = {}
        for source_fragment in source:
            overlap = target_fragment.elements & source_fragment.elements
            if overlap:
                sources.append(source_fragment)
                contributions[source_fragment.name] = frozenset(overlap)
        entries.append(
            MappingEntry(target_fragment, sources, contributions)
        )
    return Mapping(source, target, entries)
