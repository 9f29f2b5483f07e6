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

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError

MultiIndex = tuple[int, ...]

#: most cuts, decompositions, moments or CLI ``--modes`` one call may enumerate
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
    """Least ``x`` in ``range(stop)`` where the monotone ``holds``, else ``stop``, for any int."""
    lo, hi = 0, stop
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return lo


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


def _enumeration(count: int, what: str, cap: int | None = None) -> int:
    """``count``, refused with ResourceLimitError before any of the ``what`` is made
    when it exceeds ``cap`` (``ENUMERATION_CAP`` as it reads at the call when None);
    a count too long to print is named by its bound.  The one place a size meets a cap."""
    cap = ENUMERATION_CAP if cap is None else cap
    if count > cap:
        shown = count if count < 2 ** 64 else "more than 2^64"
        raise ResourceLimitError(f"would enumerate {shown} {what}, above the cap {cap}")
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
    """1-based position of a monomial, ranked by :func:`_rank` in exact integers."""
    return _rank(m.pack(), math.comb)


def _rank(u, comb, zero=0):
    """The one gralex rank: the 1-based position of the ``d`` coordinates ``u``, ints or
    integer columns, given ``comb(a, b) = C(a, b)`` for them and the ``zero`` that types
    their running sum ``S``.  The same-weight indices before ``u`` number
    ``sum_c C(S_c + c, c) - C(S_(c-1) + c, c)`` over ``c >= 1``: by the hockey-stick
    identity, those smaller at ``c`` and equal above it."""
    d, total, rank = len(u), zero + u[0], 0
    for c in range(1, d):
        rank -= comb(total + c, c)
        total += u[c]
        rank += comb(total + c, c)
    # C(w - 1 + d, d) indices have weight below w (zero when w = 0).
    return comb(total + d - 1, d) + rank + 1


@lru_cache(maxsize=64)
def _binomials(d: int, max_weight: int) -> np.ndarray:
    """Read-only ``C(a, b)`` at ``[a, b]`` for ``a <= max_weight + d`` and ``b <= d``,
    built once per (dimension, weight) and shared by every caller."""
    table = np.array([[math.comb(a, b) for b in range(d + 1)]
                      for a in range(max_weight + d + 1)], dtype=np.int64)
    table.setflags(write=False)
    return table


def packed_positions(packed: np.ndarray, max_weight: int) -> np.ndarray:
    """:func:`position_of` of every row of an integer array of packed multi-indices of
    weight at most ``max_weight``, ranked by :func:`_rank` one int64 column at a time
    so that temporaries stay one value per row."""
    table = _binomials(packed.shape[1], max_weight)
    return _rank(packed.T, lambda a, b: table[a, b], np.zeros(len(packed), dtype=np.int64))
