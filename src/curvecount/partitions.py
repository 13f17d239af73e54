"""Integer partitions and the box combinatorics behind Schubert indexing.

`Partition` is the checked public value type.  Below the API, as in
`horizontal_strips` and `vertical_strips`, a partition is its parts tuple
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
    """All partitions inside a rows x cols box, in lexicographic order."""
    out: list[Partition] = []

    def rec(prefix: tuple[int, ...], cap: int) -> None:
        out.append(Partition(prefix))
        if len(prefix) == rows:
            return
        for v in range(1, cap + 1):
            rec(prefix + (v,), v)

    rec((), cols)
    return out


def partitions_of_weight(weight: int, rows: int, cols: int) -> list[Partition]:
    """Partitions of the given weight inside a rows x cols box, in lexicographic order.

    Only parts that leave a completable rest are tried: with k rows left and
    `remaining` boxes to place, the next part is at least ceil(remaining / k).
    """
    out: list[Partition] = []

    def rec(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if not remaining:
            out.append(Partition(prefix))
            return
        for v in range(-(-remaining // (rows - len(prefix))), min(cap, remaining) + 1):
            rec(prefix + (v,), remaining - v, v)

    if 0 <= weight <= rows * cols:
        rec((), weight, cols)
    return out


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


def vertical_strips(base: tuple[int, ...], size: int, rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """Parts of each nu in the box with nu/base a vertical strip of `size` boxes.

    A vertical strip adds at most one box to each row, so these nu index the
    terms of sigma_base * sigma_(1^size) (the dual Pieri rule).  Row i may
    grow by one when it is shorter than `cols` and than the row above it as
    that row ends up; the strip must fit into the rows that are left.
    """
    padded = base + (0,) * (rows - len(base))

    def rec(i: int, remaining: int, above: int) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield base[i:]
        elif 0 < remaining <= rows - i:
            p = padded[i]
            if p:
                for rest in rec(i + 1, remaining, p):
                    yield (p,) + rest
            if p < above:
                for rest in rec(i + 1, remaining - 1, p + 1):
                    yield (p + 1,) + rest

    return rec(0, size, cols)
