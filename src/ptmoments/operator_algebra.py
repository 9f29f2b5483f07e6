"""Normal ordering of ladder-operator products and the transposition rearrangement.

A matrix entry of the moment problem is the expectation of a product
``ad^l a^k ad^p a^q`` per mode, with ``(k, l)`` taken from the row monomial
and ``(p, q)`` from the column monomial.  Reducing each factor with the
bosonic identity

    a^k ad^p = sum_j j! C(k,j) C(p,j) ad^(p-j) a^(k-j)

turns every entry into a finite integer-coefficient combination of normally
ordered moments.  Partially transposing a mode rearranges the four exponents
of its factor to ``ad^q a^p ad^k a^l``, which reduces to the same terms with
that mode's creation and annihilation exponents swapped.  An
:class:`EntryPlan` therefore compiles the untransposed terms of the entries
of one selection of monomials once, keeping each distinct moment key once,
and every cut reads those keys with its modes swapped.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import ExponentLimitError
from .multiindex import MonomialIndex, _index, monomial_at, packed_positions
from .transpositions import _as_transposition

# Expansion coefficients are j!*C(k,j)*C(p,j); refuse exponents whose
# factorial growth would dwarf double precision instead of overflowing.
MAX_EXPONENT = 8


def _check_exponents(exps):
    for e in exps:
        if _index(e, "exponents", 0) > MAX_EXPONENT:
            raise ExponentLimitError(
                f"exponent {e} exceeds the configured maximum {MAX_EXPONENT}"
            )


@lru_cache(maxsize=None)
def normal_order_single_mode(l: int, k: int, p: int, q: int) -> dict:
    """Normally ordered expansion of ``ad^l a^k ad^p a^q`` for one mode.

    Returns a mapping ``{(k', l'): coefficient}`` with
    ``k' = l + p - j``, ``l' = k + q - j`` and coefficient
    ``j! C(k,j) C(p,j)`` for ``j = 0..min(k, p)``.
    """
    _check_exponents((l, k, p, q))
    out = {}
    for j in range(min(k, p) + 1):
        out[(l + p - j, k + q - j)] = factorial(j) * comb(k, j) * comb(p, j)
    return out


def entry_expression_pt(row: MonomialIndex, col: MonomialIndex,
                        transposed=()) -> dict[MonomialIndex, int]:
    """Normally ordered terms ``{key: coefficient}`` of one matrix entry.

    The entry is ``<(row)^dagger (col)>`` on the state partially transposed
    in the 1-based modes ``transposed``, whose exponent quadruple is
    rearranged from ``ad^l a^k ad^p a^q`` to ``ad^q a^p ad^k a^l``.  That
    rearrangement keeps every coefficient and swaps the creation and
    annihilation exponent of the mode in each normally ordered term.  This
    per-entry form is the reference that :class:`EntryPlan` reproduces.
    """
    if row.modes != col.modes:
        raise ValueError(f"mode-count mismatch: {row.modes} vs {col.modes}")
    subset = _as_transposition(transposed, row.modes).members
    # Start from the scalar 1 and take the tensor product mode by mode.
    terms: dict[tuple, int] = {(): 1}
    for mode, ((k, l), (p, q)) in enumerate(zip(row.pairs, col.pairs), start=1):
        factor = normal_order_single_mode(l, k, p, q)
        if mode in subset:
            factor = {(l2, k2): c for (k2, l2), c in factor.items()}
        terms = {
            prefix + (pair,): coeff * c
            for prefix, coeff in terms.items()
            for pair, c in factor.items()
        }
    return {MonomialIndex(pairs): c for pairs, c in terms.items()}


#: compiled plans kept: a cut of n modes with pair minors reads 1 + 3*C(n, 4), 991 at
#: 11 modes, so this covers up to 11 modes; 1,486 at 12 modes evict each plan before reuse
PLAN_CACHE_SIZE = 1024


class EntryPlan:
    """Untransposed normally ordered terms of every entry over a list of monomials.

    Entry ``(s, t)`` is ``<(row s)^dagger (row t)>`` and has id ``s * len(monomials) + t``.
    Term ``j`` is ``coefficients[j]`` times the moment with packed key
    ``keys[key_index[j]]`` and belongs to entry ``entry[j]``; terms are
    grouped by entry.  ``keys`` holds each distinct packed key once, in
    position order, as bytes (an exponent is at most ``2 * MAX_EXPONENT``).
    Transposing mode ``i`` swaps key columns ``2i - 2`` and ``2i - 1`` with the
    coefficients unchanged, so one plan serves every cut: :meth:`cut` reranks the
    distinct keys by :func:`packed_positions` up to the heaviest key weight it keeps.
    Arrays are read-only.  Coefficients are float64 products of the exact per-mode
    integers, exact while they stay below 2**53.  An entry's terms come in an order
    that its row and column monomials alone fix, so every selection and cut sums
    that entry alike.
    """

    def __init__(self, modes: int, monomials):
        size = len(monomials)
        exponents = np.array([m.pairs for m in monomials], dtype=np.int64)
        pairs, pair_ids = np.unique(exponents.reshape(-1, 2), axis=0, return_inverse=True)
        pair_ids = pair_ids.reshape(size, modes)
        # Per-mode factor of every (row pair, column pair) combination, flat.
        factors = [
            normal_order_single_mode(l, k, p, q)
            for k, l in pairs.tolist()
            for p, q in pairs.tolist()
        ]
        lengths = np.array([len(f) for f in factors])
        starts = np.cumsum(lengths) - lengths
        # Each factor term's (annihilation, creation) exponents: its packed key columns.
        packed = np.array([kl[::-1] for f in factors for kl in f], dtype=np.uint8)
        weights = np.array([c for f in factors for c in f.values()], dtype=float)

        entry = np.arange(size * size)
        coefficients = np.ones(entry.size)
        keys = np.empty((entry.size, 0), dtype=np.uint8)
        for i in range(modes):
            combo = pair_ids[entry // size, i] * len(pairs) + pair_ids[entry % size, i]
            counts = lengths[combo]
            # A term's factor is its parent's first factor plus its rank among its siblings.
            factor = np.repeat(starts[combo] - (np.cumsum(counts) - counts), counts)
            factor += np.arange(factor.size)
            entry = np.repeat(entry, counts)
            coefficients = np.repeat(coefficients, counts) * weights[factor]
            keys = np.hstack((np.repeat(keys, counts, axis=0), packed[factor]))
        self.entry = entry
        self.coefficients = coefficients
        # The heaviest term of an entry has the weight of its row and column.
        self._max_weight = 2 * int(exponents.sum(axis=(1, 2)).max())
        _, first, self.key_index = np.unique(
            packed_positions(keys, self._max_weight), return_index=True, return_inverse=True
        )
        self.keys = keys[first]
        for array in (self.entry, self.coefficients, self.keys, self.key_index):
            array.setflags(write=False)

    def cut(self, members) -> tuple[np.ndarray, np.ndarray]:
        """Positions and packed keys of ``keys`` transposed in the 1-based modes ``members``."""
        swap = np.arange(self.keys.shape[1])
        for mode in members:
            swap[[2 * mode - 2, 2 * mode - 1]] = [2 * mode - 1, 2 * mode - 2]
        keys = self.keys[:, swap]
        return packed_positions(keys, self._max_weight), keys


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def plan_for(modes: int, positions: tuple[int, ...]) -> EntryPlan:
    """Plan over exactly the monomials at the 1-based ``positions``, cached per selection.

    Compiling ranks every term once; a cut then reranks only the plan's
    distinct keys.
    """
    return EntryPlan(modes, [monomial_at(modes, p) for p in positions])
