"""Transposition sets, canonical bipartitions and mode decompositions.

A partial transposition is labelled by the subset of modes it transposes.
A set and its complement always give the same test, so only the
``2^(n-1) - 1`` subsets avoiding the highest mode need to be checked.
Decompositions (set partitions of the modes) are the vocabulary for
reporting which separability classes a certification excludes.  A cut
coarsens a decomposition when every part lies on one side of it
(:func:`coarsens`); a state separable over the decomposition has a
non-negative partial transpose across every such cut.  So a decomposition
is excluded exactly when no inconclusive cut coarsens it, at every mode
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .multiindex import _enumeration, _index


@dataclass(frozen=True)
class TranspositionSet:
    """Subset of modes ``1..n`` to transpose."""

    modes: int
    members: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "modes", _index(self.modes, "modes", 1, "mode count"))
        object.__setattr__(self, "members", frozenset(_index(m, "members") for m in self.members))
        if not self.members <= set(range(1, self.modes + 1)):
            raise ValueError(f"members {sorted(self.members)} not within 1..{self.modes}")

    @classmethod
    def of(cls, modes: int, *members: int) -> "TranspositionSet":
        return cls(modes, frozenset(members))

    @classmethod
    def empty(cls, modes: int) -> "TranspositionSet":
        return cls(modes, frozenset())

    def complement(self) -> "TranspositionSet":
        full = frozenset(range(1, self.modes + 1))
        return TranspositionSet(self.modes, full - self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def _as_transposition(transposed, modes: int) -> TranspositionSet:
    """The one way a cut enters: a :class:`TranspositionSet` over ``modes``
    modes, None for no mode, or 1-based mode numbers.  A set built for another
    mode count is refused."""
    if isinstance(transposed, TranspositionSet):
        if transposed.modes != modes:
            raise ValueError(f"cut over {transposed.modes} modes given for {modes} modes")
        return transposed
    if transposed is None:
        return TranspositionSet.empty(modes)
    return TranspositionSet.of(modes, *transposed)


def canonical_bipartitions(n: int) -> list[TranspositionSet]:
    """All nontrivial transposition tests for ``n`` modes, one per {I, complement} pair.

    Representatives are the nonempty subsets of ``{1..n-1}``; there are
    ``2^(n-1) - 1`` of them, ordered by size then lexicographically.
    """
    n = _index(n, "modes", 2, "mode count")
    _enumeration(2 ** (n - 1) - 1, "cuts")
    out = []
    for size in range(1, n):
        for combo in combinations(range(1, n), size):
            out.append(TranspositionSet(n, frozenset(combo)))
    return out


@dataclass(frozen=True)
class Decomposition:
    """Partition of the modes ``1..n`` into disjoint nonempty parts."""

    modes: int
    parts: tuple[frozenset[int], ...]

    def __post_init__(self):
        parts = [frozenset(p) for p in self.parts]
        if not parts or not all(parts):
            raise ValueError("parts must be nonempty")
        object.__setattr__(self, "parts", tuple(sorted(parts, key=min)))
        seen: set[int] = set()
        for p in parts:
            if seen & p:
                raise ValueError("parts must be disjoint")
            seen |= p
        if seen != set(range(1, self.modes + 1)):
            raise ValueError(f"parts must cover 1..{self.modes}")

    def __str__(self) -> str:
        return "{" + "|".join(",".join(str(i) for i in sorted(p)) for p in self.parts) + "}"


def coarsens(cut: TranspositionSet, pi: Decomposition) -> bool:
    """True when every part of ``pi`` lies inside ``cut.members`` or is disjoint from it."""
    return all(part <= cut.members or part.isdisjoint(cut.members) for part in pi.parts)


def bipartitions_coarsening(pi: Decomposition) -> list[TranspositionSet]:
    """Canonical bipartitions obtained by merging the parts of ``pi`` into two groups.

    A state separable over ``pi`` satisfies every one of these bipartite
    separability conditions, so refuting all of them refutes
    ``pi``-separability.
    """
    if len(pi.parts) < 2:
        raise ValueError("decomposition must have at least two parts")
    return [cut for cut in canonical_bipartitions(pi.modes) if coarsens(cut, pi)]


def all_decompositions(n: int) -> list[Decomposition]:
    """Every decomposition of ``1..n`` with at least two parts, in report order: by
    part count, then by the sorted tuples of the parts taken by least member."""
    n = _index(n, "modes", 2, "mode count")
    _refuse_decompositions_above_cap(n)
    return [Decomposition(n, parts) for count in range(2, n + 1)
            for parts in _splits(tuple(range(1, n + 1)), count)]


def _refuse_decompositions_above_cap(n: int) -> None:
    """Refuse the Bell(n) - 1 decompositions of ``1..n`` with at least two parts above
    ``ENUMERATION_CAP``.  Each cut is one with two parts, so the cut count, cheap at any
    ``n``, goes first; Bell(n) is the last entry of the Bell triangle's row n, each row
    the running sum of the row before, started at that row's last entry."""
    _enumeration(2 ** (n - 1) - 1, "cuts")
    row = [1]
    for _ in range(n - 1):
        row = list(accumulate(row, initial=row[-1]))
    _enumeration(row[-1] - 1, "decompositions")


def _splits(items: tuple[int, ...], count: int, part=None, start: int = 1):
    """The splits of the sorted ``items`` into ``count`` parts, in report order, whose
    first part is ``part`` (``items[:1]`` by default) or grows from it by items from
    ``start`` on, depth first, while each later part keeps an item."""
    if count == 1:
        yield (items,)
        return
    part = part or items[:1]
    for tail in _splits(tuple(x for x in items if x not in part), count - 1):
        yield (part,) + tail
    if len(part) <= len(items) - count:
        for i in range(start, len(items)):
            yield from _splits(items, count, part + (items[i],), i + 1)
