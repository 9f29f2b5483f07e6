"""Ordering, enumeration, and packing of operator multi-indices."""

import itertools
import math
import re
import time

import numpy as np
import pytest

from ptmoments import (
    MonomialIndex,
    SearchBudget,
    Selection,
    TableMoments,
    TmsvMoments,
    TranspositionSet,
    WStateMoments,
    WStateParams,
    all_decompositions,
    canonical_bipartitions,
    count_up_to_weight,
    eigen_negativity_scan,
    monomial_at,
    named_minor,
    nth_multiindex,
    position_of,
)
from ptmoments.moments import FockStateMoments, MomentProvider
from ptmoments.multiindex import _binomials, packed_positions
from ptmoments.operator_algebra import normal_order_single_mode


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
            got = packed_positions(packed[order], max_weight)
            assert got.tolist() == (order + 1).tolist()

    def test_binomial_table_is_shared_and_read_only(self):
        # Every ranking of one dimension and weight reads the same table.
        table = _binomials(8, 4)
        assert table is _binomials(8, 4)
        assert not table.flags.writeable
        assert table[12, 8] == math.comb(12, 8) and table[7, 8] == 0

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
    (lambda: MonomialIndex.parse("a1", 0), "mode count must be >= 1"),
    (lambda: MonomialIndex.parse("1", -1), "mode count must be >= 1"),
    (lambda: MonomialIndex.unpack((1, 2, 3)), "packed multi-index must have even dimension"),
    (lambda: MonomialIndex(()), "mode count must be >= 1"),
    (lambda: monomial_at(0, 1), "mode count must be >= 1"),
    (lambda: nth_multiindex(0, 5), "dimension must be >= 1"),
    (lambda: MonomialIndex(((0, -1),)), "exponents must be >= 0"),
    (lambda: normal_order_single_mode(0, -2, 0, 0), "exponents must be >= 0"),
    (lambda: canonical_bipartitions(1), "mode count must be >= 2"),
    (lambda: count_up_to_weight(-1, 0), "dimension must be >= 0"),
    (lambda: all_decompositions(1), "mode count must be >= 2"),
], ids=["mode-zero", "identity-without-modes", "no-modes-parse", "no-modes-identity",
        "odd-packing", "no-modes", "no-modes-at",
        "dimension-zero", "negative-exponent", "negative-expansion-exponent",
        "one-mode-bipartitions", "negative-dimension-count", "one-mode-decompositions"])
def test_refusals_name_their_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _w_state():
    return WStateMoments(WStateParams.symmetric(4, 0.3))


@pytest.mark.parametrize("call, message", [
    (lambda: nth_multiindex(2, 2.5), "position must be integers, got 2.5"),
    (lambda: nth_multiindex(2.0, 3), "dimension must be integers, got 2.0"),
    (lambda: monomial_at(1, 2.5), "position must be integers, got 2.5"),
    (lambda: MonomialIndex(((0.5, 0),)), "exponents must be integers, got 0.5"),
    (lambda: MonomialIndex.unpack((0, 1.0)), "exponents must be integers, got 1.0"),
    (lambda: named_minor(_w_state(), (1,), ((1.0, 2.0), (3.0, 4.0))),
     "pair modes must be integers, got 1.0"),
], ids=["nth-position", "nth-dimension", "position-at", "exponent", "packed-exponent",
        "pair-modes"])
def test_non_integers_name_their_field(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: WStateParams.symmetric(2.0, 0.3), "modes must be integers, got 2.0"),
    (lambda: TranspositionSet(2.0, frozenset({1})), "modes must be integers, got 2.0"),
    (lambda: TableMoments(2.0, {MonomialIndex.identity(2): 1.0}),
     "modes must be integers, got 2.0"),
    (lambda: canonical_bipartitions(4.0), "modes must be integers, got 4.0"),
    (lambda: all_decompositions(3.0), "modes must be integers, got 3.0"),
    (lambda: Selection.leading(2.0), "size must be integers, got 2.0"),
    (lambda: count_up_to_weight(4, 2.5), "weight must be integers, got 2.5"),
    (lambda: monomial_at(2.0, 3), "modes must be integers, got 2.0"),
    (lambda: MonomialIndex.identity(2.0), "modes must be integers, got 2.0"),
    (lambda: MonomialIndex.parse("a1", 2.5), "modes must be integers, got 2.5"),
], ids=["symmetric-w", "transposition-set", "table", "bipartitions", "decompositions",
        "leading-selection", "weight", "modes-at", "identity", "parse"])
def test_float_counts_name_their_field(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_true_reads_as_one():
    key = MonomialIndex(((True, 0),))
    assert key.pack() == (0, 1)
    assert [type(x) for x in key.pack()] == [int, int]
    assert str(key) == "ad1"
    assert nth_multiindex(2, True) == (0, 0)
    provider = _w_state()
    assert named_minor(provider, (1,), ((True, 2), (3, 4))) == \
        named_minor(provider, (1,), ((1, 2), (3, 4)))


def _scan(**sizes):
    return eigen_negativity_scan(TmsvMoments(0.6), (2,), **sizes).as_dict()


# Every integer input whose floor is 1, as a call of that one input: the name
# a float is refused under, and the ">= 1" message.  Inputs with another floor
# are rows of test_refusals_name_their_reason.
ONE_GATE = {
    "parse-modes": (lambda v: MonomialIndex.parse("a1", v), "modes", "mode count"),
    "monomial-at-modes": (lambda v: monomial_at(v, 2), "modes", "mode count"),
    "provider-modes": (lambda v: MomentProvider(v).modes, "modes", "mode count"),
    "transposition-modes": (lambda v: TranspositionSet(v, frozenset()), "modes", "mode count"),
    "nth-dimension": (lambda v: nth_multiindex(v, 2), "dimension", "dimension"),
    "nth-position": (lambda v: nth_multiindex(2, v), "position", "position"),
    "budget-order": (lambda v: SearchBudget(max_order=v), "max_order", "max_order"),
    "budget-minor-size": (lambda v: SearchBudget(max_minor_size=v),
                          "max_minor_size", "max_minor_size"),
    "scan-order": (lambda v: _scan(max_order=v), "max_order", "max_order"),
    "scan-minor-size": (lambda v: _scan(max_minor_size=v), "max_minor_size", "max_minor_size"),
    "selection-positions": (lambda v: Selection((v,)).positions, "positions", "positions"),
    "fock-cutoffs": (lambda v: FockStateMoments(np.ones(1), v).cutoffs, "cutoffs", "cutoffs"),
}


@pytest.mark.parametrize("entry", ONE_GATE)
def test_one_gate_refuses_a_float_by_name(entry):
    call, field, _ = ONE_GATE[entry]
    with pytest.raises(TypeError, match=f"^{field} must be integers, got 1\\.0$"):
        call(1.0)


@pytest.mark.parametrize("entry", ONE_GATE)
def test_one_gate_reads_true_as_one(entry):
    call, _, _ = ONE_GATE[entry]
    assert call(True) == call(1)


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("entry", ONE_GATE)
def test_one_gate_refuses_below_one(entry, value):
    call, _, count = ONE_GATE[entry]
    with pytest.raises(ValueError, match=f"^{count} must be >= 1$"):
        call(value)


@pytest.mark.parametrize("call, message", [
    (lambda: nth_multiindex(0, 2.5), "dimension must be >= 1"),
    (lambda: SearchBudget(max_order=0, max_minor_size=2.5), "max_order must be >= 1"),
    (lambda: _scan(max_order=0, max_minor_size=2.5), "max_order must be >= 1"),
], ids=["nth", "budget", "scan"])
def test_one_gate_names_the_first_bad_argument(call, message):
    """Each input passes the gate whole, in argument order, before the next is read."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
