"""Ordering, enumeration, and packing of operator multi-indices."""

import itertools
import math
import re
import time

import numpy as np
import pytest

from ptmoments import (
    MonomialIndex,
    count_up_to_weight,
    monomial_at,
    nth_multiindex,
    position_of,
)
from ptmoments.multiindex import binomial_table, packed_positions


def weight(u) -> int:
    """Total degree of a multi-index."""
    return sum(u)


# Ordering oracle: the gralex comparison and successor step, written from the
# definition and independent of the closed-form ranking under test.


def compare_gralex(u, v) -> int:
    """Compare two multi-indices in gralex order; returns -1, 0 or +1.

    ``u`` precedes ``v`` when its weight is smaller, or on equal weight when
    the last nonzero entry of ``v - u`` is positive.
    """
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    wu, wv = sum(u), sum(v)
    if wu != wv:
        return -1 if wu < wv else 1
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return -1 if b > a else 1
    return 0


def next_multiindex(u):
    """Successor of ``u`` in gralex order.

    Locates the first nonzero entry ``u_i``; if only the last entry is
    nonzero (or all are zero) the weight increases and everything moves back
    to the first coordinate, otherwise one unit is carried from ``u_i`` to
    ``u_{i+1}``.
    """
    d = len(u)
    i = next((j for j, x in enumerate(u) if x != 0), d - 1)
    if i == d - 1:
        return (u[-1] + 1,) + (0,) * (d - 1)
    return (u[i] - 1,) + (0,) * i + (u[i + 1] + 1,) + u[i + 2:]


class TestCompare:
    def test_weight_dominates(self):
        assert compare_gralex((0, 0), (1, 0)) < 0
        assert compare_gralex((2, 0), (0, 1)) > 0

    def test_equal_weight_last_component_breaks_tie(self):
        # (1,0) precedes (0,1): the rightmost differing entry is larger in
        # the successor.
        assert compare_gralex((1, 0), (0, 1)) < 0
        assert compare_gralex((0, 2, 0), (1, 0, 1)) < 0
        assert compare_gralex((1, 0, 1), (0, 0, 2)) < 0

    def test_reflexive(self):
        assert compare_gralex((3, 1, 2), (3, 1, 2)) == 0

    def test_antisymmetric(self):
        assert compare_gralex((0, 1), (1, 0)) > 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compare_gralex((1, 0), (1, 0, 0))

    def test_total_order_properties_random(self):
        rng = np.random.default_rng(7)
        tuples = [tuple(int(x) for x in rng.integers(0, 4, size=3)) for _ in range(60)]
        for u, v, w3 in zip(tuples, tuples[1:], tuples[2:]):
            cuv, cvw, cuw = (
                compare_gralex(u, v),
                compare_gralex(v, w3),
                compare_gralex(u, w3),
            )
            assert cuv == -compare_gralex(v, u)
            if cuv <= 0 and cvw <= 0:
                assert cuw <= 0


class TestSuccessor:
    def test_fixtures(self):
        assert next_multiindex((0, 0, 0)) == (1, 0, 0)
        assert next_multiindex((1, 0, 0)) == (0, 1, 0)
        assert next_multiindex((0, 1, 0)) == (0, 0, 1)
        assert next_multiindex((0, 0, 1)) == (2, 0, 0)
        assert next_multiindex((2, 0, 0)) == (1, 1, 0)

    def test_successor_is_strictly_larger(self):
        u = (0, 0)
        for _ in range(40):
            v = next_multiindex(u)
            assert compare_gralex(u, v) < 0
            u = v

    def test_nothing_between_consecutive(self):
        # Exhaustively enumerate everything of weight <= 4 in d=3 and check
        # the successor chain visits each exactly once, in order.
        d, wmax = 3, 4
        everything = [
            t
            for t in itertools.product(range(wmax + 1), repeat=d)
            if weight(t) <= wmax
        ]
        everything.sort(key=lambda t: (weight(t), tuple(reversed(t))))
        chain = [(0,) * d]
        while len(chain) < len(everything):
            chain.append(next_multiindex(chain[-1]))
        assert chain == everything


class TestNth:
    def test_fixtures(self):
        assert nth_multiindex(2, 1) == (0, 0)
        assert nth_multiindex(2, 2) == (1, 0)
        assert nth_multiindex(2, 3) == (0, 1)
        assert nth_multiindex(2, 4) == (2, 0)
        assert nth_multiindex(2, 6) == (0, 2)

    def test_positions_start_at_one(self):
        with pytest.raises(ValueError):
            nth_multiindex(2, 0)

    def test_matches_successor_chain(self):
        for d in (1, 2, 3, 4):
            u = (0,) * d
            for n in range(1, 80):
                assert nth_multiindex(d, n) == u
                u = next_multiindex(u)

    @pytest.mark.parametrize("d", [2, 8])
    def test_huge_exponents_round_trip_at_once(self, d):
        # Unranking bisects the weight and each coordinate, so it takes no
        # walk through the values below an exponent.
        rng = np.random.default_rng(d)
        edges = [(10**9,) + (0,) * (d - 1), (0,) * (d - 1) + (10**9,), (10**9,) * d]
        drawn = [tuple(int(x) for x in rng.integers(0, 10**9, size=d, endpoint=True))
                 for _ in range(20)]
        start = time.perf_counter()
        for u in edges + drawn:
            assert nth_multiindex(d, position_of(MonomialIndex.unpack(u))) == u
        assert time.perf_counter() - start < 0.1

    def test_count_up_to_weight(self):
        assert count_up_to_weight(2, 2) == 6
        assert count_up_to_weight(3, 1) == 4
        assert count_up_to_weight(4, 2) == 15
        for d in (1, 2, 3):
            for wmax in range(4):
                brute = sum(
                    1
                    for t in itertools.product(range(wmax + 1), repeat=d)
                    if weight(t) <= wmax
                )
                assert count_up_to_weight(d, wmax) == brute


class TestMonomialIndex:
    def test_first_positions_single_mode(self):
        labels = [str(monomial_at(1, p)) for p in range(1, 6)]
        assert labels == ["1", "a1", "ad1", "a1^2", "ad1 a1"]

    def test_pack_layout_two_modes(self):
        # Pairs store (creation, annihilation); enumeration slots alternate
        # annihilation/creation per mode, so position 2 is the first-mode
        # annihilator and position 3 its creator.
        assert monomial_at(2, 2) == MonomialIndex(((0, 1), (0, 0)))
        assert monomial_at(2, 3) == MonomialIndex(((1, 0), (0, 0)))
        assert monomial_at(2, 4) == MonomialIndex(((0, 0), (0, 1)))
        assert monomial_at(2, 5) == MonomialIndex(((0, 0), (1, 0)))
        assert monomial_at(2, 2).pack() == (1, 0, 0, 0)
        assert monomial_at(2, 3).pack() == (0, 1, 0, 0)

    def test_four_mode_pair_positions(self):
        fixtures = {13: (1, 2), 20: (1, 3), 22: (2, 3), 31: (1, 4), 33: (2, 4), 35: (3, 4)}
        for pos, ann in fixtures.items():
            m = MonomialIndex(tuple((0, int(mode in ann)) for mode in range(1, 5)))
            assert position_of(m) == pos
            assert monomial_at(4, pos) == m

    def test_position_roundtrip(self):
        for d in (1, 2, 3, 5):
            for p in range(1, 201):
                assert position_of(monomial_at(d, p)) == p

    def test_far_position_roundtrip(self):
        # Unranking is closed form, so a far position needs no walk through
        # its predecessors.
        m = monomial_at(4, 400_000)
        assert position_of(m) == 400_000
        assert position_of(monomial_at(4, 399_999)) == 399_999

    def test_large_exponent_matches_the_per_value_sum(self):
        # The sum the closed form replaces: one binomial per smaller value t.
        m = MonomialIndex.parse("a2^100000", 2)
        u = m.pack()
        rank, rem = 0, weight(u)
        for c in range(len(u) - 1, 0, -1):
            for t in range(u[c]):
                rank += math.comb(rem - t + c - 1, c - 1)
            rem -= u[c]
        assert position_of(m) == count_up_to_weight(4, weight(u) - 1) + rank + 1

    def test_packed_positions_match_position_of(self):
        for modes, max_weight in ((1, 6), (3, 4)):
            d = 2 * modes
            total = count_up_to_weight(d, max_weight)
            packed = np.array([monomial_at(modes, p).pack() for p in range(1, total + 1)])
            rng = np.random.default_rng(modes)
            order = rng.permutation(total)
            got = packed_positions(packed[order], binomial_table(d, max_weight))
            assert got.tolist() == (order + 1).tolist()

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            modes = int(rng.integers(1, 5))
            pairs = tuple(
                (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                for _ in range(modes)
            )
            m = MonomialIndex(pairs)
            assert MonomialIndex.unpack(m.pack()) == m

    def test_weight_and_identity(self):
        m = MonomialIndex(((2, 1), (0, 3)))
        assert m.weight == 6
        assert m != MonomialIndex.identity(2)
        assert MonomialIndex.identity(3) == MonomialIndex(((0, 0),) * 3)

    def test_conjugate_swaps_exponents(self):
        m = MonomialIndex(((2, 1), (0, 3)))
        assert m.conjugate() == MonomialIndex(((1, 2), (3, 0)))
        assert m.conjugate().conjugate() == m

    def test_parse_and_str_roundtrip(self):
        m = MonomialIndex.parse("ad3^2 a1 a4", modes=4)
        assert m == MonomialIndex(((0, 1), (0, 0), (2, 0), (0, 1)))
        assert MonomialIndex.parse(str(m), modes=4) == m
        assert MonomialIndex.parse("1", modes=2) == MonomialIndex.identity(2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            MonomialIndex.parse("b2", modes=3)
        with pytest.raises(ValueError):
            MonomialIndex.parse("a5", modes=3)

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            MonomialIndex(((-1, 0),))


@pytest.mark.parametrize("call, message", [
    (lambda: MonomialIndex.parse("a0", 2), "mode numbers start at 1: 'a0'"),
    (lambda: MonomialIndex.parse("1"), "identity monomial needs an explicit mode count"),
    (lambda: MonomialIndex.unpack((1, 2, 3)), "packed multi-index must have even dimension"),
    (lambda: MonomialIndex(()), "monomial needs at least one mode"),
    (lambda: monomial_at(0, 1), "mode count must be >= 1"),
    (lambda: nth_multiindex(0, 5), "dimension must be >= 1"),
], ids=["mode-zero", "identity-without-modes", "odd-packing", "no-modes", "no-modes-at",
        "dimension-zero"])
def test_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
