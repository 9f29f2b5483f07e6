"""Graded antilexicographical multi-indices and monomial numbering.

A multi-index is a plain tuple of nonnegative integers.  The graded
antilexicographical ("gralex") order compares total weight first and, on a
tie, the last differing coordinate.  Normally ordered monomials over ``n``
modes are identified with multi-indices of dimension ``2n`` through the
packing ``(l_1, k_1, ..., l_n, k_n)`` (``k_i`` creation exponent, ``l_i``
annihilation exponent of mode ``i``), which makes position 1 the identity,
position 2 the single annihilator of mode 1, position 3 its creator, and so
on.  Positions are 1-based throughout.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError

MultiIndex = tuple[int, ...]

#: most cuts, decompositions or moments one call may enumerate
ENUMERATION_CAP = 200_000


def nth_multiindex(d: int, n: int) -> MultiIndex:
    """The ``n``-th multi-index of dimension ``d`` (1-based).

    Exact inverse of :func:`position_of`, by bisection: the weight is the
    least ``w`` whose ``C(w + d, d)`` indices of weight at most ``w`` reach
    ``n``, then coordinates are fixed from the top down.  Of the same-weight indices
    that agree above coordinate ``c``, the ``C(rem - t + c, c)`` with a value
    ``>= t`` there come last (the hockey-stick sum of the blocks of each
    value), so the value is the largest ``t`` whose count reaches the indices
    from ``n`` on.  ``d`` and ``n`` pass the gate :func:`_index` with floor 1
    in argument order, so the bisection counts with ``math.comb`` unchecked.
    """
    d, n = _index(d, "dimension", 1), _index(n, "position", 1)
    hi = 1
    while math.comb(hi + d, d) < n:
        hi *= 2
    w = _first_true(hi + 1, lambda w: math.comb(w + d, d) >= n)
    rank = n - math.comb(w - 1 + d, d) - 1
    out = [0] * d
    rem = w
    for c in range(d - 1, 0, -1):
        tail = math.comb(rem + c, c) - rank
        t = _first_true(rem, lambda t: math.comb(rem - t - 1 + c, c) < tail)
        rank = math.comb(rem - t + c, c) - tail
        out[c] = t
        rem -= t
    out[0] = rem
    return tuple(out)


def _first_true(stop: int, holds) -> int:
    """Least ``x`` in ``range(stop)`` where the monotone predicate ``holds``, else ``stop``."""
    return bisect.bisect_left(range(stop), True, key=holds)


def _index(value, what: str, low: int | None = None, count: str | None = None,
           error: type[Exception] = ValueError) -> int:
    """``value`` as an int, the one integer gate: a non-integer raises TypeError naming
    ``what``; below ``low`` it raises ``error`` "``count`` or ``what`` must be >= ``low``"."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be integers, got {value!r}") from None
    if low is not None and value < low:
        raise error(f"{count or what} must be >= {low}")
    return value


def _enumeration(count: int, what: str) -> int:
    """``count``, refused with ResourceLimitError before any of the ``what`` is made
    when it exceeds ``ENUMERATION_CAP``; a count too long to print is named by its bound."""
    if count > ENUMERATION_CAP:
        shown = count if count < 2 ** 64 else "more than 2^64"
        raise ResourceLimitError(f"would enumerate {shown} {what}, above the cap {ENUMERATION_CAP}")
    return count


def count_up_to_weight(d: int, w: int) -> int:
    """Number of ``d``-dimensional multi-indices with weight <= ``w``.

    Reads its inputs with :func:`_index`, ``d`` with floor 0 and ``w`` with none: a
    weight below 0 counts none, and otherwise ``math.comb(w + d, d)`` counts directly.
    """
    d, w = _index(d, "dimension", 0), _index(w, "weight")
    if w < 0:
        return 0
    return math.comb(w + d, d)


_TOKEN_RE = re.compile(r"(ad|a)(\d+)(?:\^(\d+))?$")


@dataclass(frozen=True)
class MonomialIndex:
    """Normally ordered monomial over ``n`` modes.

    ``pairs[i] = (k, l)`` holds the creation exponent ``k`` and annihilation
    exponent ``l`` of mode ``i+1``; the monomial is the product of
    ``ad_i^k a_i^l`` over all modes.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple([(_index(k, "exponents", 0), _index(l, "exponents", 0))
                       for k, l in self.pairs])
        _index(len(pairs), "modes", 1, "mode count")
        object.__setattr__(self, "pairs", pairs)

    @property
    def modes(self) -> int:
        return len(self.pairs)

    @property
    def weight(self) -> int:
        return sum(k + l for k, l in self.pairs)

    def conjugate(self) -> "MonomialIndex":
        """Swap creation and annihilation exponents (Hermitian partner key)."""
        return MonomialIndex(tuple((l, k) for k, l in self.pairs))

    def pack(self) -> MultiIndex:
        """Interleave to the 2n-dimensional multi-index (l1, k1, ..., ln, kn)."""
        out = []
        for k, l in self.pairs:
            out.append(l)
            out.append(k)
        return tuple(out)

    @classmethod
    def unpack(cls, u: MultiIndex) -> "MonomialIndex":
        if len(u) % 2 != 0:
            raise ValueError("packed multi-index must have even dimension")
        return cls(tuple(zip(u[1::2], u[::2])))

    @classmethod
    def identity(cls, modes: int) -> "MonomialIndex":
        return cls(((0, 0),) * _index(modes, "modes"))

    @classmethod
    def parse(cls, text: str, modes: int | None = None) -> "MonomialIndex":
        """Parse the token form, e.g. ``"ad3^2 a1 a4"`` (``ad`` = creation).

        The mode count defaults to the largest mode mentioned; repeated
        tokens accumulate.
        """
        if modes is not None:
            modes = _index(modes, "modes", 1, "mode count")
        tokens = text.split()
        if tokens == ["1"] or not tokens:
            if modes is None:
                raise ValueError("identity monomial needs an explicit mode count")
            return cls.identity(modes)
        ops = []
        for tok in tokens:
            m = _TOKEN_RE.match(tok)
            if m is None:
                raise ValueError(f"bad monomial token: {tok!r}")
            kind, mode, exp = m.group(1), int(m.group(2)), int(m.group(3) or 1)
            if mode < 1:
                raise ValueError(f"mode numbers start at 1: {tok!r}")
            ops.append((kind, mode, exp))
        n = modes if modes is not None else max(mode for _, mode, _ in ops)
        k = [0] * n
        l = [0] * n
        for kind, mode, exp in ops:
            if mode > n:
                raise ValueError(f"mode {mode} exceeds mode count {n}")
            if kind == "ad":
                k[mode - 1] += exp
            else:
                l[mode - 1] += exp
        return cls(tuple(zip(k, l)))

    def __str__(self) -> str:
        """Canonical token form: creators by mode, then annihilators."""
        parts = []
        for i, (k, _) in enumerate(self.pairs, start=1):
            if k:
                parts.append(f"ad{i}" + (f"^{k}" if k > 1 else ""))
        for i, (_, l) in enumerate(self.pairs, start=1):
            if l:
                parts.append(f"a{i}" + (f"^{l}" if l > 1 else ""))
        return " ".join(parts) if parts else "1"


def monomial_at(modes: int, position: int) -> MonomialIndex:
    """Monomial at a 1-based position of the ordered moment sequence."""
    modes = _index(modes, "modes", 1, "mode count")
    return MonomialIndex.unpack(nth_multiindex(2 * modes, position))


def position_of(m: MonomialIndex) -> int:
    """1-based position of a monomial: weight-block offset plus in-block rank."""
    u = m.pack()
    d = len(u)
    w = sum(u)
    rank = 0
    rem = w
    # Count same-weight indices that precede u: fix coordinates from the top
    # down; the C(rem - t + c - 1, c - 1) indices with value t < u_c at
    # coordinate c sum by the hockey-stick identity.
    for c in range(d - 1, 0, -1):
        rank += math.comb(rem + c, c) - math.comb(rem - u[c] + c, c)
        rem -= u[c]
    return count_up_to_weight(d, w - 1) + rank + 1


def binomial_table(d: int, max_weight: int) -> np.ndarray:
    """``table[a, b] = C(a, b)`` for ``a <= max_weight + d`` and ``b <= d``."""
    return np.array(
        [[math.comb(a, b) for b in range(d + 1)] for a in range(max_weight + d + 1)],
        dtype=np.int64,
    )


def packed_positions(packed: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """:func:`position_of` for every row of an integer array of packed multi-indices.

    With ``S`` the running sum of a row, the same-weight indices preceding
    it number ``sum_c C(S_c + c, c) - C(S_(c-1) + c, c)`` over coordinates
    ``c >= 1`` (the hockey-stick sum of the terms :func:`position_of` adds one
    at a time), accumulated one coordinate at a time so that temporaries stay
    one value per row.  ``binomials`` comes from :func:`binomial_table` with
    at least the largest row weight.
    """
    d = packed.shape[1]
    total = packed[:, 0].astype(np.int64)
    rank = np.zeros(len(packed), dtype=np.int64)
    for c in range(1, d):
        rank -= binomials[total + c, c]
        total += packed[:, c]
        rank += binomials[total + c, c]
    # C(w - 1 + d, d) indices have weight below w (zero when w = 0).
    return binomials[total + d - 1, d] + rank + 1
