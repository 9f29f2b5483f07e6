"""Normal ordering of ladder products and transposition rearrangement."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import evaluate_terms, idx
from ptmoments import (
    CoherentProductMoments,
    ExponentLimitError,
    MonomialIndex,
    WStateMoments,
    WStateParams,
    canonical_bipartitions,
    count_up_to_weight,
    entry_expression_pt,
    monomial_at,
    normal_order_single_mode,
    position_of,
)
from ptmoments.operator_algebra import plan_for


class TestNormalOrderSingleMode:
    def test_identity(self):
        assert normal_order_single_mode(0, 0, 0, 0) == {(0, 0): 1}

    def test_a_adag(self):
        # a ad = ad a + 1
        assert normal_order_single_mode(0, 1, 1, 0) == {(1, 1): 1, (0, 0): 1}

    def test_a2_adag2(self):
        # a^2 ad^2 = ad^2 a^2 + 4 ad a + 2
        assert normal_order_single_mode(0, 2, 2, 0) == {
            (2, 2): 1,
            (1, 1): 4,
            (0, 0): 2,
        }

    def test_already_ordered_untouched(self):
        assert normal_order_single_mode(2, 3, 0, 0) == {(2, 3): 1}
        assert normal_order_single_mode(0, 0, 2, 3) == {(2, 3): 1}

    def test_general_term_structure(self):
        # ad^l a^k ad^p a^q -> sum_j j! C(k,j) C(p,j) ad^(l+p-j) a^(k+q-j)
        l, k, p, q = 1, 2, 3, 1
        expected = {}
        for j in range(min(k, p) + 1):
            coeff = math.factorial(j) * math.comb(k, j) * math.comb(p, j)
            expected[(l + p - j, k + q - j)] = coeff
        assert normal_order_single_mode(l, k, p, q) == expected

    def test_coefficient_sums(self):
        # For a^k ad^k the coefficients sum to sum_j j! C(k,j)^2.
        for k in range(7):
            total = sum(normal_order_single_mode(0, k, k, 0).values())
            assert total == sum(
                math.factorial(j) * math.comb(k, j) ** 2 for j in range(k + 1)
            )

    def test_vacuum_expectation_is_k_factorial(self):
        # <0| a^k ad^k |0> picks out the fully contracted term j = k.
        for k in range(6):
            assert normal_order_single_mode(0, k, k, 0)[(0, 0)] == math.factorial(k)

    def test_exponent_limit(self):
        with pytest.raises(ExponentLimitError):
            normal_order_single_mode(0, 9, 9, 0)

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError, match="^exponents must be >= 0$"):
            normal_order_single_mode(-1, 0, 0, 0)


class TestEntryExpression:
    def test_identity_entry(self):
        one = MonomialIndex.identity(2)
        assert entry_expression_pt(one, one) == {one: 1}

    def test_annihilator_diagonal(self):
        a1 = monomial_at(1, 2)
        assert entry_expression_pt(a1, a1) == {idx((1, 1)): 1}

    def test_creator_diagonal_picks_up_commutator(self):
        ad1 = monomial_at(1, 3)
        assert entry_expression_pt(ad1, ad1) == {idx((1, 1)): 1, MonomialIndex.identity(1): 1}

    def test_cross_mode_factorizes(self):
        a1 = monomial_at(2, 2)
        a2 = monomial_at(2, 4)
        assert entry_expression_pt(a1, a2) == {idx((1, 0), (0, 1)): 1}

    def test_max_weight(self):
        terms = entry_expression_pt(monomial_at(2, 4), monomial_at(2, 5))
        assert max(key.weight for key in terms) == 2

    def test_evaluate_against_coherent(self):
        gamma = 0.3 - 0.7j
        prov = CoherentProductMoments((gamma,))
        a1 = monomial_at(1, 2)
        ad1 = monomial_at(1, 3)
        assert evaluate_terms(entry_expression_pt(a1, a1), prov) == pytest.approx(
            abs(gamma) ** 2
        )
        assert evaluate_terms(entry_expression_pt(ad1, ad1), prov) == pytest.approx(
            abs(gamma) ** 2 + 1.0
        )


class TestEntryExpressionPt:
    def test_empty_set_matches_untransposed(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            row = monomial_at(3, int(rng.integers(1, 30)))
            col = monomial_at(3, int(rng.integers(1, 30)))
            assert entry_expression_pt(row, col, frozenset()) == entry_expression_pt(row, col)

    def test_single_mode_creator_diagonal(self):
        # Transposing the only mode leaves <a ad> with both the number term
        # and the commutator constant.
        ad1 = monomial_at(1, 3)
        terms = entry_expression_pt(ad1, ad1, frozenset({1}))
        assert terms == {idx((1, 1)): 1, MonomialIndex.identity(1): 1}

    def test_two_mode_cross_entry(self):
        # Rows/cols a1 and a2 with the second mode transposed give the
        # anomalous-correlation moment.
        a1 = monomial_at(2, 2)
        a2 = monomial_at(2, 4)
        assert entry_expression_pt(a1, a2, frozenset({2})) == {idx((1, 0), (1, 0)): 1}

    def test_accepts_transposition_set_and_iterable(self):
        from ptmoments import TranspositionSet

        a1 = monomial_at(2, 2)
        a2 = monomial_at(2, 4)
        by_set = entry_expression_pt(a1, a2, TranspositionSet.of(2, 2))
        by_iter = entry_expression_pt(a1, a2, [2])
        assert by_set == by_iter

    def test_rejects_mode_count_mismatch(self):
        with pytest.raises(ValueError, match="mode-count"):
            entry_expression_pt(monomial_at(1, 2), monomial_at(2, 2))

    def test_rejects_out_of_range_modes(self):
        a1 = monomial_at(2, 2)
        with pytest.raises(ValueError):
            entry_expression_pt(a1, a1, frozenset({3}))

    @pytest.mark.parametrize("member", [2, 5])
    def test_rejects_cut_over_other_mode_count(self, member):
        # The monomials of a 4-mode W state's matrix; the cut is refused by
        # mode count whether or not its members fit 1..4.
        from ptmoments import TranspositionSet

        a1 = monomial_at(4, 2)
        with pytest.raises(ValueError, match="^cut over 6 modes given for 4 modes$"):
            entry_expression_pt(a1, a1, TranspositionSet.of(6, member))

    def test_conjugate_symmetry_of_expressions(self):
        # Swapping row and column conjugates every term while keeping the
        # integer coefficients, which is Hermiticity at the symbol level.
        rng = np.random.default_rng(5)
        for _ in range(40):
            row = monomial_at(2, int(rng.integers(1, 15)))
            col = monomial_at(2, int(rng.integers(1, 15)))
            members = frozenset(
                int(m) for m in rng.choice([1, 2], size=rng.integers(0, 3), replace=False)
            )
            fwd = entry_expression_pt(row, col, members)
            bwd = entry_expression_pt(col, row, members)
            assert {m.conjugate(): c for m, c in fwd.items()} == bwd

    def test_hermitian_pairing_on_provider(self):
        params = WStateParams(alphas=(0.4, 0.3 + 0.2j), nbars=(0.0, 0.0))
        prov = WStateMoments(params)
        rng = np.random.default_rng(9)
        for _ in range(20):
            row = monomial_at(2, int(rng.integers(1, 15)))
            col = monomial_at(2, int(rng.integers(1, 15)))
            fwd = evaluate_terms(entry_expression_pt(row, col, frozenset({1})), prov)
            bwd = evaluate_terms(entry_expression_pt(col, row, frozenset({1})), prov)
            assert fwd == pytest.approx(np.conj(bwd), abs=1e-12)

    def test_transposition_swaps_row_and_column_factors(self):
        # Rearranging ad^l a^k ad^p a^q to ad^q a^p ad^k a^l on mode i is the
        # same as exchanging that mode's factors between the row and column
        # monomials, so the transposed entry must equal the untransposed
        # entry of the swapped pair.  Applying the swap twice restores the
        # original pair, which is the involution property.
        rng = np.random.default_rng(13)
        for _ in range(40):
            row = monomial_at(3, int(rng.integers(1, 40)))
            col = monomial_at(3, int(rng.integers(1, 40)))
            members = frozenset(
                int(m) for m in rng.choice([1, 2, 3], size=2, replace=False)
            )
            swapped_row = MonomialIndex(
                tuple(
                    col.pairs[i] if (i + 1) in members else row.pairs[i]
                    for i in range(3)
                )
            )
            swapped_col = MonomialIndex(
                tuple(
                    row.pairs[i] if (i + 1) in members else col.pairs[i]
                    for i in range(3)
                )
            )
            assert entry_expression_pt(row, col, members) == entry_expression_pt(
                swapped_row, swapped_col
            )


class TestEntryPlan:
    @pytest.mark.parametrize("modes, order", [(2, 4), (3, 2), (4, 3)])
    def test_cut_ranks_each_key_with_its_cut_modes_swapped(self, modes, order):
        # The layout rule, rebuilt from monomials: a key transposed in a mode
        # has that mode's creation and annihilation exponents exchanged.
        plan = plan_for(modes, tuple(range(1, count_up_to_weight(2 * modes, order) + 1)))
        cuts = [t for cut in canonical_bipartitions(modes) for t in (cut, cut.complement())]
        for cut in cuts:
            positions, keys = plan.cut(cut.members)
            rebuilt = [
                MonomialIndex(tuple((l, k) if mode in cut.members else (k, l)
                                    for mode, (k, l) in enumerate(key.pairs, start=1)))
                for key in map(MonomialIndex.unpack, plan.keys.tolist())
            ]
            assert positions.tolist() == [position_of(m) for m in rebuilt]
            assert keys.tolist() == [list(m.pack()) for m in rebuilt]

    def test_compile_peak_stays_near_the_plan_it_keeps(self):
        # 4 modes, order 3: 165 rows and 36,155 terms.  Terms grow by
        # repeating their parents, with exponents kept as bytes, so compiling
        # holds little beyond the arrays the plan keeps.
        positions = tuple(range(1, count_up_to_weight(8, 3) + 1))
        plan_for(4, positions)  # fills normal_order_single_mode's cache
        plan_for.cache_clear()
        tracemalloc.start()
        try:
            plan = plan_for(4, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.entry.size == 36_155
        assert plan.keys.dtype == np.uint8
        kept = sum(a.nbytes for a in (plan.entry, plan.coefficients, plan.keys, plan.key_index))
        assert peak < 5 * kept
