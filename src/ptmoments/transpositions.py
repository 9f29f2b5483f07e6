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
from itertools import combinations

from .multiindex import _index


@dataclass(frozen=True)
class TranspositionSet:
    """Subset of modes ``1..n`` to transpose."""

    modes: int
    members: frozenset[int]

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("mode count must be >= 1")
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
    if n < 2:
        raise ValueError("bipartitions need at least two modes")
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

    def sort_key(self):
        return (len(self.parts), tuple(tuple(sorted(p)) for p in self.parts))

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
    """Every decomposition of ``1..n`` with at least two parts."""

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    out = [
        Decomposition(n, tuple(frozenset(p) for p in parts))
        for parts in partitions(list(range(1, n + 1)))
        if len(parts) >= 2
    ]
    return sorted(out, key=Decomposition.sort_key)
