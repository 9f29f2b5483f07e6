"""Mode subsets, canonical bipartitions, and decomposition coarsening."""

import itertools
import re

import pytest

from conftest import cuts_by_colouring
from ptmoments import (
    Decomposition,
    ResourceLimitError,
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
        (lambda: all_decompositions(0), "mode count must be >= 2"),
    ], ids=["empty-part", "no-parts", "one-part", "no-modes"])
    def test_refusals_name_their_reason(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_all_decompositions_counts(self):
        # Number of partitions into >= 2 blocks: Bell(n) - 1.
        assert len(all_decompositions(3)) == 4
        assert len(all_decompositions(4)) == 14
        assert len(all_decompositions(5)) == 51

    @pytest.mark.parametrize("modes", range(2, 9))
    def test_generated_in_report_order(self, modes):
        # Report order: part count, then the sorted part tuples taken by least
        # member; the oracle is every restricted growth string, sorted.
        expected = sorted(
            (len(parts), parts) for parts in map(_parts_of_growth, _growth_strings(modes))
            if len(parts) >= 2
        )
        got = all_decompositions(modes)
        assert type(got) is list and len(got) == len(expected)
        for d, (_, parts) in zip(got, expected):
            assert d.parts == tuple(frozenset(p) for p in parts)
            assert str(d) == "{" + "|".join(",".join(map(str, p)) for p in parts) + "}"


class TestEnumerationCap:
    """Cuts and decompositions are counted and refused above the cap before one is made."""

    @staticmethod
    def forbid(monkeypatch, name):
        def made(*args):
            raise AssertionError(f"a {name} was made before the refusal")
        monkeypatch.setattr(f"ptmoments.transpositions.{name}", made)

    @pytest.mark.parametrize("modes", range(3, 9))
    def test_decomposition_count_is_bell_minus_one(self, monkeypatch, modes):
        # From 3 modes there are more decompositions than cuts, so a cap one
        # below the oracle's count passes the cuts and names that count.
        count = sum(1 for s in _growth_strings(modes) if max(s) >= 1)
        monkeypatch.setattr("ptmoments.multiindex.ENUMERATION_CAP", count)
        assert len(all_decompositions(modes)) == count
        monkeypatch.setattr("ptmoments.multiindex.ENUMERATION_CAP", count - 1)
        self.forbid(monkeypatch, "Decomposition")
        with pytest.raises(ResourceLimitError,
                           match=f"^would enumerate {count} decompositions, above the cap {count - 1}$"):
            all_decompositions(modes)

    def test_cut_count_at_the_cap(self, monkeypatch):
        monkeypatch.setattr("ptmoments.multiindex.ENUMERATION_CAP", 7)
        assert len(canonical_bipartitions(4)) == 7
        self.forbid(monkeypatch, "TranspositionSet")
        with pytest.raises(ResourceLimitError, match="^would enumerate 15 cuts, above the cap 7$"):
            canonical_bipartitions(5)

    @pytest.mark.parametrize("call, count", [
        (lambda: canonical_bipartitions(19), "262143 cuts"),
        (lambda: canonical_bipartitions(30), "536870911 cuts"),
        (lambda: canonical_bipartitions(100_000), "more than 2^64 cuts"),
        (lambda: all_decompositions(11), "678569 decompositions"),
        (lambda: all_decompositions(12), "4213596 decompositions"),
        (lambda: all_decompositions(30), "536870911 cuts"),
    ], ids=["19-cuts", "30-cuts", "huge-cuts", "11-decompositions", "12-decompositions",
            "30-decompositions"])
    def test_declared_cap_refuses_before_any_work(self, monkeypatch, call, count):
        self.forbid(monkeypatch, "TranspositionSet")
        self.forbid(monkeypatch, "Decomposition")
        message = f"would enumerate {count}, above the cap 200000"
        with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
            call()


def _growth_strings(modes):
    """Restricted growth strings of length ``modes``: each entry at most one above
    the largest before it, the first 0; one per set partition."""
    strings = [(0,)]
    for _ in range(modes - 1):
        strings = [s + (b,) for s in strings for b in range(max(s) + 2)]
    return strings


def _parts_of_growth(string):
    """The sorted part tuples a growth string labels, ordered by least member."""
    parts = [[] for _ in range(max(string) + 1)]
    for mode, block in enumerate(string, start=1):
        parts[block].append(mode)
    return tuple(tuple(p) for p in parts)


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
