"""Mode subsets, canonical bipartitions, and decomposition coarsening."""

import itertools

import pytest

from conftest import cuts_by_colouring
from ptmoments import (
    Decomposition,
    TranspositionSet,
    all_decompositions,
    bipartitions_coarsening,
    canonical_bipartitions,
)


def tset(modes, *members):
    return TranspositionSet.of(modes, *members)


def decomposition(modes, *parts):
    return Decomposition(modes, tuple(frozenset(p) for p in parts))


def canonical(t):
    """Of the pair {I, complement}, the one not containing the top mode."""
    return t.complement() if t.modes in t.members else t


class TestTranspositionSet:
    def test_members_and_str(self):
        t = tset(4, 3, 1)
        assert t.members == frozenset({1, 3})
        assert str(t) == "{1,3}"
        assert str(TranspositionSet.empty(3)) == "{}"

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tset(3, 4)
        with pytest.raises(ValueError):
            tset(3, 0)
        with pytest.raises(ValueError):
            TranspositionSet(0, frozenset())

    def test_members_are_integers(self):
        # A float equal to a mode number is refused by name, not compared by value;
        # a bool is the integer it stands for.
        with pytest.raises(TypeError, match=r"^members must be integers, got 1\.0$"):
            tset(4, 1.0)
        with pytest.raises(TypeError, match=r"got 2\.5$"):
            TranspositionSet(4, frozenset({1, 2.5}))
        members = tset(4, True).members
        assert members == {1} and all(type(m) is int for m in members)

    def test_complement(self):
        assert tset(4, 1, 3).complement() == tset(4, 2, 4)
        assert TranspositionSet.empty(2).complement() == tset(2, 1, 2)

    def test_canonical_avoids_top_mode(self):
        # A set and its complement label the same bipartition; the canonical
        # representative is the one not containing the highest mode.
        assert canonical(tset(4, 4)) == tset(4, 1, 2, 3)
        assert canonical(tset(4, 1, 2, 3)) == tset(4, 1, 2, 3)
        assert canonical(tset(4, 2, 3, 4)) == tset(4, 1)
        assert canonical(tset(2, 1, 2)) == TranspositionSet.empty(2)


class TestCanonicalBipartitions:
    def test_two_modes(self):
        assert canonical_bipartitions(2) == [tset(2, 1)]

    def test_three_modes(self):
        assert canonical_bipartitions(3) == [
            tset(3, 1),
            tset(3, 2),
            tset(3, 1, 2),
        ]

    def test_four_modes_order_by_size_then_lex(self):
        got = [str(t) for t in canonical_bipartitions(4)]
        assert got == [
            "{1}",
            "{2}",
            "{3}",
            "{1,2}",
            "{1,3}",
            "{2,3}",
            "{1,2,3}",
        ]

    def test_counts(self):
        # 2^(n-1) - 1 bipartitions of an n-element set.
        for n in range(2, 8):
            assert len(canonical_bipartitions(n)) == 2 ** (n - 1) - 1

    def test_all_canonical_and_distinct(self):
        cuts = canonical_bipartitions(5)
        assert len(set(cuts)) == len(cuts)
        for t in cuts:
            assert canonical(t) == t
            assert t.members

    def test_complement_pairs_cover_everything(self):
        # Every nonempty proper subset of modes appears exactly once as a
        # representative or as its complement.
        cuts = canonical_bipartitions(4)
        seen = set()
        for t in cuts:
            seen.add(t.members)
            seen.add(t.complement().members)
        every = {
            frozenset(c)
            for r in range(1, 4)
            for c in itertools.combinations((1, 2, 3, 4), r)
        }
        assert seen == every

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            canonical_bipartitions(1)


class TestDecomposition:
    def test_str_and_sorting(self):
        d = decomposition(4, (3, 4), (1,), (2,))
        assert str(d) == "{1|2|3,4}"

    def test_parts_partition_modes(self):
        with pytest.raises(ValueError):
            decomposition(3, (1, 2))
        with pytest.raises(ValueError):
            decomposition(3, (1, 2), (2, 3))

    @pytest.mark.parametrize("call, message", [
        (lambda: Decomposition(2, (frozenset({1, 2}), frozenset())), "parts must be nonempty"),
        (lambda: Decomposition(2, ()), "parts must be nonempty"),
        (lambda: bipartitions_coarsening(decomposition(2, (1, 2))),
         "decomposition must have at least two parts"),
    ], ids=["empty-part", "no-parts", "one-part"])
    def test_refusals_name_their_reason(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_all_decompositions_counts(self):
        # Number of partitions into >= 2 blocks: Bell(n) - 1.
        assert len(all_decompositions(3)) == 4
        assert len(all_decompositions(4)) == 14
        assert len(all_decompositions(5)) == 51


class TestCoarsening:
    def test_pair_partition_coarsened_by_matching_cut_only(self):
        pairs = decomposition(4, (1, 2), (3, 4))
        cuts = bipartitions_coarsening(pairs)
        assert cuts == [tset(4, 1, 2)]

    def test_three_block_partition(self):
        d = decomposition(4, (1,), (2,), (3, 4))
        got = {str(t) for t in bipartitions_coarsening(d)}
        assert got == {"{1}", "{2}", "{1,2}"}

    def test_finest_yields_all_bipartitions(self):
        got = bipartitions_coarsening(decomposition(4, (1,), (2,), (3,), (4,)))
        assert got == canonical_bipartitions(4)

    def test_every_cut_separates_whole_blocks(self):
        for d in all_decompositions(4):
            for cut in bipartitions_coarsening(d):
                members = set(cut.members)
                for part in d.parts:
                    inside = members.intersection(part)
                    assert not inside or inside == set(part)

    @pytest.mark.parametrize("modes", [2, 3, 4, 5, 6])
    def test_matches_every_colouring_of_the_parts(self, modes):
        for d in all_decompositions(modes):
            got = bipartitions_coarsening(d)
            assert {cut.members for cut in got} == cuts_by_colouring(modes, d.parts)
            assert got == [cut for cut in canonical_bipartitions(modes) if cut in got]
