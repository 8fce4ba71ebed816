"""Shared worklist machinery for the fixed-point solvers.

The solvers follow the usual chaotic-iteration scheme: pop an item,
re-evaluate its transfer function, and push its dependents when the abstract
state changed.  Pushing an item that is already pending is wasteful, so
every worklist here tracks membership next to the pops it served.

* :class:`Worklist` — the plain FIFO worklist of the less-than constraint
  solver (keyed by constraint) and the Andersen solver.
* :class:`SweepWorklist` — the range solver's ``(sweep, rank)`` heap: a pop
  at rank *r* schedules lower-ranked dependents into the *next* sweep and
  higher-ranked ones into the *current* one, which is exactly a ranked
  Gauss–Seidel sweep without the no-op visits.

:class:`SolverInfo` is the cross-solver counter struct (transfer-function
evaluations, widenings, SCC counts, worklist pops).  It merges losslessly,
which is how per-shard counters survive the execution engine's coordinator.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Deque,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T", bound=Hashable)


class SolverInfo:
    """Counters describing fixed-point solver work, mergeable across shards.

    ``evaluations`` counts transfer-function applications (the quantity the
    sparse solvers exist to reduce), ``sccs``/``cyclic_sccs`` the dependence
    components the schedule visited, and ``pops`` the worklist pops.
    """

    FIELDS = ("evaluations", "widenings", "narrowings", "sccs",
              "cyclic_sccs", "pops")

    __slots__ = FIELDS

    def __init__(self, evaluations: int = 0, widenings: int = 0,
                 narrowings: int = 0, sccs: int = 0, cyclic_sccs: int = 0,
                 pops: int = 0) -> None:
        self.evaluations = evaluations
        self.widenings = widenings
        self.narrowings = narrowings
        self.sccs = sccs
        self.cyclic_sccs = cyclic_sccs
        self.pops = pops

    def merge(self, other: "SolverInfo") -> "SolverInfo":
        """Lossless sum of two counter sets (commutative)."""
        return SolverInfo(*(getattr(self, field) + getattr(other, field)
                            for field in self.FIELDS))

    def as_dict(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverInfo":
        return cls(*(int(data.get(field, 0)) for field in cls.FIELDS))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverInfo):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return "<SolverInfo evaluations={} widenings={} sccs={} pops={}>".format(
            self.evaluations, self.widenings, self.sccs, self.pops)


class Worklist(Generic[T]):
    """FIFO worklist with duplicate suppression and pop accounting."""

    def __init__(self, items: Optional[Iterable[T]] = None) -> None:
        self._queue: Deque[T] = deque()
        self._pending: Set[T] = set()
        self.pops = 0
        self.pushes = 0
        if items is not None:
            for item in items:
                self.push(item)

    def push(self, item: T) -> bool:
        """Add ``item`` unless it is already pending.  Return True if added."""
        if item in self._pending:
            return False
        self._pending.add(item)
        self._queue.append(item)
        self.pushes += 1
        return True

    def extend(self, items: Iterable[T]) -> int:
        """Push every item; return how many were actually added."""
        return sum(1 for item in items if self.push(item))

    def pop(self) -> T:
        item = self._queue.popleft()
        self._pending.discard(item)
        self.pops += 1
        return item

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, item: T) -> bool:
        return item in self._pending


class SweepWorklist:
    """The sparse range solver's ``(sweep, rank)`` heap with dedup.

    Items are member indices of one dependence component; ``ranks[index]``
    is the policy rank of that member.  The heap is ordered by
    ``(sweep, rank)``: popping replays ranked Gauss–Seidel sweeps, and
    :meth:`schedule` implements the sweep rule — a dependent ranked after
    the changed member is revisited in the *same* sweep (it would have seen
    the update in a dense pass too), one ranked before it in the *next*.
    """

    __slots__ = ("_ranks", "_heap", "_pending", "pops", "pushes", "coalesced")

    def __init__(self, ranks: List[int],
                 seed_sweep: Optional[int] = 0) -> None:
        self._ranks = ranks
        self._heap: List[Tuple[int, int, int]] = []
        self._pending: Set[Tuple[int, int]] = set()
        self.pops = 0
        self.pushes = 0
        self.coalesced = 0
        if seed_sweep is not None:
            self.seed(seed_sweep)

    def seed(self, sweep: int) -> None:
        """Schedule every member for ``sweep`` (the initial full round)."""
        for index in range(len(self._ranks)):
            self.push(sweep, index)

    def push(self, sweep: int, index: int) -> bool:
        entry = (sweep, index)
        if entry in self._pending:
            self.coalesced += 1
            return False
        self._pending.add(entry)
        self.pushes += 1
        heapq.heappush(self._heap, (sweep, self._ranks[index], index))
        return True

    def schedule(self, sweep: int, source_index: int,
                 dependents: Iterable[int]) -> None:
        """Schedule ``dependents`` of a member that changed during ``sweep``."""
        source_rank = self._ranks[source_index]
        for target_index in dependents:
            target_sweep = (sweep if self._ranks[target_index] > source_rank
                            else sweep + 1)
            self.push(target_sweep, target_index)

    def pop(self) -> Tuple[int, int]:
        sweep, _rank, index = heapq.heappop(self._heap)
        self._pending.discard((sweep, index))
        self.pops += 1
        return sweep, index

    def next_sweep(self) -> Optional[int]:
        """The sweep of the next pop, or ``None`` when drained."""
        return self._heap[0][0] if self._heap else None

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)
