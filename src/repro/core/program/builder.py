"""Program generation (Section 4.2).

Construction proceeds exactly as the paper describes:

* **G0** — a ``Scan`` per source fragment, a ``Write`` per target
  fragment, and a cross-edge between a Scan and a Write operating on the
  same fragment;
* **G1** — add ``Split`` operations for source fragments that feed
  several target fragments (Figure 6), wiring split outputs straight to
  Writes where a piece *is* a target fragment;
* **completion** — for every Write still dangling, a series of pair-wise
  ``Combine`` operations assembles its input.  Each combine order gives a
  different program instance G; orders are constrained by the schema
  tree (only parent/child-related pieces combine), which keeps the
  search space far smaller than relational join ordering.

:func:`build_transfer_program` produces one program with a deterministic
("canonical") or caller-supplied combine order;
:meth:`ProgramBuilder.enumerate` lazily enumerates all structurally
distinct orders — the paper's search space, kept as the oracle the
tests check :mod:`repro.core.optimizer.search` against (the plan search
itself never enumerates).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.errors import ProgramError
from repro.core.fragment import Fragment
from repro.core.mapping import Mapping
from repro.core.ops.base import Operation
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.program.dag import TransferProgram

#: A producer port: (operation, output index).
Port = tuple[Operation, int]

#: One pair-wise merge in an assembly: indices into the growing item
#: list (items beyond the initial pieces are combine results).
MergeStep = tuple[int, int]

#: Chooses the next merge given the active (index, fragment) items;
#: used by the greedy optimizer to order combines by estimated cost.
OrderPolicy = Callable[[list[tuple[int, Fragment]]], MergeStep]


@dataclass(slots=True)
class Assembly:
    """A dangling Write and the piece ports that must be combined."""

    target: Fragment
    ports: list[Port]

    @property
    def fragments(self) -> list[Fragment]:
        """The piece fragments, in port order."""
        return [port[0].outputs[port[1]] for port in self.ports]


class ProgramBuilder:
    """Builds transfer programs for one mapping."""

    def __init__(self, mapping: Mapping) -> None:
        self.mapping = mapping
        self.schema = mapping.source.schema

    # -- skeleton (G0 + splits = G1) -------------------------------------------

    def skeleton(self) -> tuple[TransferProgram, list[Assembly]]:
        """Build G1 and report the dangling Writes with their pieces."""
        program = TransferProgram()
        scans: dict[str, Scan] = {}
        for source_fragment in self.mapping.source:
            scans[source_fragment.name] = program.add(Scan(source_fragment))

        split_requirements = self.mapping.split_requirements()
        piece_ports: dict[tuple[str, frozenset[str]], Port] = {}
        for source_name, parts in split_requirements.items():
            source_fragment = self.mapping.source.fragment(source_name)
            ordered_parts = sorted(parts, key=self._part_sort_key)
            pieces = source_fragment.split_into(ordered_parts)
            split = program.add(Split(source_fragment, pieces))
            program.connect(scans[source_name], 0, split, 0)
            for index, piece in enumerate(pieces):
                piece_ports[(source_name, piece.elements)] = (split, index)

        assemblies: list[Assembly] = []
        for entry in self.mapping.entries:
            write = program.add(Write(entry.target))
            ports: list[Port] = []
            for source_fragment in entry.sources:
                contribution = entry.contributions[source_fragment.name]
                if source_fragment.name in split_requirements:
                    port = piece_ports[
                        (source_fragment.name, contribution)
                    ]
                else:
                    port = (scans[source_fragment.name], 0)
                ports.append(port)
            if (len(ports) == 1
                    and ports[0][0].outputs[ports[0][1]].elements
                    == entry.target.elements):
                program.connect(ports[0][0], ports[0][1], write, 0)
            else:
                assemblies.append(Assembly(entry.target, ports))
        return program, assemblies

    def _part_sort_key(self, part: frozenset[str]) -> tuple[int, int]:
        top = self.schema.top_of(part)
        return (self.schema.depth(top), self.schema.position(top))

    # -- combine ordering ---------------------------------------------------------

    def canonical_steps(self, fragments: Sequence[Fragment]
                        ) -> list[MergeStep]:
        """A deterministic order: inline the deepest-rooted piece into
        the active item that contains its parent element, repeatedly.

        Deepest-first processing guarantees that when a piece's turn
        comes, the active item rooted at that piece's root (the piece
        itself, possibly grown by earlier merges) is still active.
        """
        covered: set[str] = set()
        for fragment in fragments:
            covered |= fragment.elements
        items: list[Fragment] = list(fragments)
        active = set(range(len(items)))
        pending_roots = sorted(
            (fragment.root_name for fragment in fragments
             if fragment.parent_element() in covered),
            key=lambda root: (
                -self.schema.depth(root), self.schema.position(root)
            ),
        )
        steps: list[MergeStep] = []
        for root in pending_roots:
            child_index = next(
                index for index in sorted(active)
                if items[index].root_name == root
            )
            parent_element = items[child_index].parent_element()
            owner = next(
                index for index in sorted(active)
                if index != child_index
                and parent_element in items[index].elements
            )
            merged = items[owner].combined_with(items[child_index])
            items.append(merged)
            active.discard(owner)
            active.discard(child_index)
            steps.append((owner, child_index))
            active.add(len(items) - 1)
        if len(active) != 1:
            raise ProgramError(
                "combine ordering failed to assemble a single fragment"
            )
        return steps

    def policy_steps(self, fragments: Sequence[Fragment],
                     policy: OrderPolicy) -> list[MergeStep]:
        """Order combines by repeatedly asking ``policy`` for the next
        merge among the currently active items (greedy ordering hook,
        Section 4.3)."""
        items: list[Fragment] = list(fragments)
        active = list(range(len(items)))
        steps: list[MergeStep] = []
        while len(active) > 1:
            snapshot = [(index, items[index]) for index in active]
            parent_index, child_index = policy(snapshot)
            merged = items[parent_index].combined_with(items[child_index])
            items.append(merged)
            active = [
                index for index in active
                if index not in (parent_index, child_index)
            ]
            active.append(len(items) - 1)
            steps.append((parent_index, child_index))
        return steps

    def all_merge_orders(self, fragments: Sequence[Fragment]
                         ) -> Iterator[tuple[MergeStep, ...]]:
        """Enumerate structurally distinct merge sequences.

        Two sequences producing the same *set* of combine nodes (the
        same DAG up to the irrelevant interleaving of independent
        merges) are yielded once.
        """
        seen: set[frozenset[tuple[frozenset[str], frozenset[str]]]] = set()
        items: list[Fragment] = list(fragments)

        def recurse(active: list[int], acc: list[MergeStep]
                    ) -> Iterator[tuple[MergeStep, ...]]:
            if len(active) == 1:
                key = frozenset(
                    (items[i].elements, items[j].elements) for i, j in acc
                )
                if key not in seen:
                    seen.add(key)
                    yield tuple(acc)
                return
            for parent_index in active:
                for child_index in active:
                    if parent_index == child_index:
                        continue
                    parent_item = items[parent_index]
                    child_item = items[child_index]
                    if not parent_item.can_combine(child_item):
                        continue
                    items.append(parent_item.combined_with(child_item))
                    acc.append((parent_index, child_index))
                    next_active = [
                        index for index in active
                        if index not in (parent_index, child_index)
                    ]
                    next_active.append(len(items) - 1)
                    yield from recurse(next_active, acc)
                    acc.pop()
                    items.pop()

        yield from recurse(list(range(len(fragments))), [])

    # -- materialization ------------------------------------------------------------

    def materialize(self, orders: dict[str, Sequence[MergeStep]],
                    skeleton: tuple[TransferProgram, list[Assembly]]
                    | None = None) -> TransferProgram:
        """Build a complete program applying the given merge order per
        dangling target fragment (keyed by target fragment name).
        ``skeleton`` is completed in place when the caller already
        built one (it must come from :meth:`skeleton` of this builder)."""
        program, assemblies = skeleton or self.skeleton()
        for assembly in assemblies:
            steps = orders[assembly.target.name]
            ports: list[Port] = list(assembly.ports)
            fragments: list[Fragment] = assembly.fragments
            for parent_index, child_index in steps:
                combine = program.add(
                    Combine(fragments[parent_index], fragments[child_index])
                )
                parent_port = ports[parent_index]
                child_port = ports[child_index]
                program.connect(parent_port[0], parent_port[1], combine, 0)
                program.connect(child_port[0], child_port[1], combine, 1)
                ports.append((combine, 0))
                fragments.append(combine.result)
            final_port = ports[-1] if steps else ports[0]
            write = self._write_for(program, assembly.target)
            program.connect(final_port[0], final_port[1], write, 0)
        program.validate()
        return program

    def _write_for(self, program: TransferProgram,
                   target: Fragment) -> Write:
        for node in program.writes():
            if node.fragment.elements == target.elements:
                return node
        raise ProgramError(f"no Write node for target {target.name!r}")

    # -- public entry points ------------------------------------------------------------

    def build(self, policy: OrderPolicy | None = None) -> TransferProgram:
        """Build one complete program (canonical order, or ``policy``)."""
        _, assemblies = self.skeleton()
        orders: dict[str, Sequence[MergeStep]] = {}
        for assembly in assemblies:
            if policy is None:
                orders[assembly.target.name] = self.canonical_steps(
                    assembly.fragments
                )
            else:
                orders[assembly.target.name] = self.policy_steps(
                    assembly.fragments, policy
                )
        return self.materialize(orders)

    def enumerate(self, limit: int | None = None
                  ) -> Iterator[TransferProgram]:
        """Lazily enumerate programs over combine orders (cartesian
        across dangling targets), up to ``limit`` programs.

        When a limit is set, each target's order enumeration is also
        capped at ``limit`` — per-target order counts are factorial in
        the number of pieces, so unbounded materialization of one
        target's orders would defeat the cap (the paper's observation
        that exhaustive generation is impractical beyond ~40 nodes).
        """
        _, assemblies = self.skeleton()
        if not assemblies:
            yield self.materialize({})
            return
        per_target = [
            list(itertools.islice(
                self.all_merge_orders(assembly.fragments), limit
            ))
            for assembly in assemblies
        ]
        names = [assembly.target.name for assembly in assemblies]
        count = 0
        for combination in itertools.product(*per_target):
            yield self.materialize(dict(zip(names, combination)))
            count += 1
            if limit is not None and count >= limit:
                return


def build_transfer_program(mapping: Mapping,
                           policy: OrderPolicy | None = None
                           ) -> TransferProgram:
    """Convenience wrapper: one program for ``mapping``."""
    return ProgramBuilder(mapping).build(policy)
