"""Integer partitions and the box combinatorics behind Schubert indexing.

`Partition` is the checked public value type.  Below the API, as in
`parts_of_weight` and `horizontal_strips`, a partition is its parts tuple
without trailing zeros.
"""

from __future__ import annotations

import operator
from functools import total_ordering
from typing import Iterable, Iterator

from .errors import PreconditionError


@total_ordering
class Partition:
    """A weakly decreasing sequence of nonnegative integers.

    Trailing zeros are stripped on construction, so the empty partition ()
    is the unique partition of weight 0.  Instances compare and sort
    lexicographically on their parts and are usable as dict keys.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        clean = tuple(operator.index(p) for p in parts)
        while clean and clean[-1] == 0:
            clean = clean[:-1]
        if clean and clean[-1] < 0:
            raise PreconditionError(f"negative part in {clean}")
        if any(clean[i] < clean[i + 1] for i in range(len(clean) - 1)):
            raise PreconditionError(f"parts must be weakly decreasing, got {clean}")
        self.parts = clean

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def fits(self, rows: int, cols: int) -> bool:
        """True if the diagram fits inside a rows x cols box."""
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts < other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions inside a rows x cols box, in lexicographic order: those
    of each weight from `partitions_of_weight`, merged by sorting."""
    return sorted(p for weight in range(rows * cols + 1) for p in partitions_of_weight(weight, rows, cols))


def partitions_of_weight(weight: int, rows: int, cols: int) -> list[Partition]:
    """Partitions of the given weight inside a rows x cols box, in lexicographic order."""
    return [Partition(parts) for parts in parts_of_weight(weight, rows, cols)]


def parts_of_weight(weight: int, rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Parts of each partition of `weight` inside a rows x cols box, in lexicographic order.

    Only parts that leave a completable rest are tried: with k rows left and
    `remaining` boxes to place, the next part is at least ceil(remaining / k).
    """

    def rec(prefix: tuple[int, ...], remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield prefix
            return
        for v in range(-(-remaining // (rows - len(prefix))), min(cap, remaining) + 1):
            if v == remaining:
                yield prefix + (v,)
            else:
                yield from rec(prefix + (v,), remaining - v, v)

    return rec((), weight, cols) if 0 <= weight <= rows * cols else iter(())


def horizontal_strips(base: tuple[int, ...], size: int, rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Parts of each nu in the box with nu/base a horizontal strip of `size` boxes.

    `base` and every nu are parts tuples without trailing zeros.  A
    horizontal strip adds no two boxes in the same column, which is the
    interlacing condition nu_1 >= base_1 >= nu_2 >= base_2 >= ...  So when
    row i may grow up to `cap`, rows i and below hold at most cap minus the
    last row of the box more boxes; once the strip is placed the remaining
    rows are base[i:].
    """
    padded = base + (0,) * (rows - len(base))
    floor = padded[-1] if padded else cols  # a box with no rows takes no boxes

    def rec(i: int, remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield base[i:]
        elif remaining <= cap - floor:
            lo = padded[i]
            for v in range(lo, min(cap, lo + remaining) + 1):
                for rest in rec(i + 1, remaining - (v - lo), lo):
                    yield (v,) + rest

    return rec(0, size, cols)

