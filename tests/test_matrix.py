"""Moment-matrix assembly, determinants, scans, and named 2x2 minors."""

import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import evaluate_terms, min_principal_minor, padded_random_state, selection_of
from ptmoments import (
    CoherentProductMoments,
    FockStateMoments,
    MomentDataError,
    MomentMatrix,
    MomentProvider,
    MonomialIndex,
    NumericError,
    ResourceLimitError,
    Selection,
    TmsvMoments,
    TranspositionSet,
    UnresolvedMomentsError,
    WStateMoments,
    WStateParams,
    build_matrix,
    canonical_bipartitions,
    count_up_to_weight,
    determinant,
    eigen_negativity_scan,
    entry_expression_pt,
    load_moment_table,
    monomial_at,
    named_minor,
    position_of,
    principal_minor,
    table_from_provider,
    TableMoments,
    TruncationError,
)
from ptmoments.matrix import negativity_threshold
from ptmoments.operator_algebra import plan_for


def idx(*pairs):
    return MonomialIndex(tuple(pairs))


class TestSelection:
    def test_validation(self):
        with pytest.raises(ValueError):
            Selection(())
        with pytest.raises(ValueError):
            Selection((0, 1))
        with pytest.raises(ValueError):
            Selection((3, 1))
        with pytest.raises(ValueError):
            Selection((2, 2))

    def test_positions_are_integers(self):
        # A float position is refused by name rather than truncated.
        with pytest.raises(TypeError, match=r"^positions must be integers, got 1\.5$"):
            Selection((1.5, 2))
        assert Selection((np.int64(1), 2)).positions == (1, 2)

    def test_of_sorts_and_dedupes(self):
        sel = selection_of(5, 1, 3, 1)
        assert sel.positions == (1, 3, 5)
        assert len(sel) == 3
        assert list(sel) == [1, 3, 5]
        assert str(sel) == "{1,3,5}"

    def test_leading_and_weight_cap(self):
        assert Selection.leading(4).positions == (1, 2, 3, 4)
        # All monomials of weight <= 1 over two modes: 1, a1, ad1, a2, ad2.
        assert Selection.up_to_weight(2, 1).positions == (1, 2, 3, 4, 5)
        assert len(Selection.up_to_weight(2, 2)) == 15


class TestBuildMatrix:
    def test_vacuum_diagonal(self):
        prov = CoherentProductMoments((0.0, 0.0))
        matrix = build_matrix(prov, None, Selection.leading(5))
        assert np.allclose(matrix.values, np.diag([1.0, 0.0, 1.0, 0.0, 1.0]))
        assert matrix.hermiticity_residual < 1e-12

    @pytest.mark.parametrize("member", [2, 5])
    def test_cut_over_other_mode_count_refused(self, member):
        # Refused by mode count whether or not the members fit the state's modes.
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        with pytest.raises(ValueError, match="^cut over 6 modes given for 4 modes$"):
            build_matrix(prov, TranspositionSet.of(6, member), Selection.leading(5))

    def test_cut_members_are_integers(self):
        # A float member is refused by name before it reaches the column swap;
        # a bool member is the mode it stands for and prints as that number.
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        with pytest.raises(TypeError, match=r"^members must be integers, got 1\.0$"):
            build_matrix(prov, (1.0,), Selection.leading(5))
        doc = eigen_negativity_scan(prov, (True,)).as_dict()
        assert doc == eigen_negativity_scan(prov, (1,)).as_dict()
        assert json.dumps(doc["I"]) == "[1]"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_moment_refused_by_name(self, value):
        # A table built in code skips the loader's checks; the one entry check still sees them.
        keys = [monomial_at(1, p) for p in range(1, count_up_to_weight(2, 2) + 1)]
        entries = {key: value if key == idx((1, 1)) else float(key.weight == 0) for key in keys}
        with pytest.raises(NumericError, match=r"^matrix entries of blowup overflow$"):
            build_matrix(TableMoments(1, entries, label="blowup"), None, Selection.leading(3))

    def test_coherent_row_proportionality(self):
        # Annihilators act as eigenvalues on a coherent state, so the row of
        # a1 is conj(gamma) times the identity row.
        gamma = 0.7 - 0.4j
        prov = CoherentProductMoments((gamma,))
        matrix = build_matrix(prov, None, Selection.leading(4))
        assert np.allclose(matrix.values[1], np.conj(gamma) * matrix.values[0])

    def test_tmsv_transposed_entries(self):
        r = 0.8
        s, c = math.sinh(r), math.cosh(r)
        matrix = build_matrix(TmsvMoments(r), (2,), Selection.leading(5))
        # rows/cols: 1, a1, ad1, a2, ad2
        assert matrix.values[0, 0] == pytest.approx(1.0)
        assert matrix.values[1, 1] == pytest.approx(s * s)
        assert matrix.values[2, 2] == pytest.approx(s * s + 1.0)
        # Transposing the second mode maps <a1 a2> onto the anomalous
        # correlation <ad1 ad2> = sinh cosh.
        assert matrix.values[1, 3] == pytest.approx(s * c)
        assert matrix.values[3, 1] == pytest.approx(s * c)
        assert matrix.values[0, 1] == pytest.approx(0.0)

    def test_accepts_transposition_set(self):
        r = 0.5
        by_tuple = build_matrix(TmsvMoments(r), (1,), Selection.leading(5))
        by_set = build_matrix(
            TmsvMoments(r), TranspositionSet.of(2, 1), Selection.leading(5)
        )
        assert np.allclose(by_tuple.values, by_set.values)
        assert by_tuple.transposition == TranspositionSet.of(2, 1)

    def test_non_hermitian_provider_rejected(self):
        class Broken(MomentProvider):
            def _compute(self, key):
                # <a> and <ad> both mapped to +1j violates conjugacy.
                return 1j if key.weight == 1 else 1.0

        with pytest.raises(MomentDataError, match="Hermiticity"):
            build_matrix(Broken(1), None, Selection.leading(3))

    @pytest.mark.parametrize("defect", [1e-4, 1e-2])
    def test_table_defect_judged_by_its_tolerance(self, defect):
        # Entry (ad, ad) is <a ad> = <ad a> + 1, so the plan's spread is 2 and
        # partners a 1e-3 tolerance lets differ may break Hermiticity by 2e-3.
        entries = {MonomialIndex(((k, l),)): 0.5 ** (k + l)
                   for k in range(3) for l in range(3 - k)}
        entries[MonomialIndex(((1, 0),))] += defect
        table = TableMoments(1, entries, tolerance=1e-3)
        if defect < 2e-3:
            assert build_matrix(table, None, Selection.leading(3)).hermiticity_residual > 0
        else:
            with pytest.raises(MomentDataError, match=r"by 1\.000e-02 \(> 0\.002\)$"):
                build_matrix(table, None, Selection.leading(3))

    def test_missing_moments_aggregated(self):
        prov = load_moment_table(
            '{"modes": 1, "entries": [{"k": [0], "l": [0], "re": 1.0}]}'
        )
        with pytest.raises(UnresolvedMomentsError) as info:
            build_matrix(prov, None, Selection.leading(3))
        labels = {str(k) for k in info.value.missing}
        assert labels == {"a1", "ad1", "a1^2", "ad1 a1", "ad1^2"}

    def test_missing_key_reported_for_the_cut_that_needs_it(self):
        # A table built without one key fails exactly the cuts whose entries
        # need it, with one error naming it once.  Over rows {a1, a2 a3} the
        # off-diagonal entries give each cut its own weight-3 keys: ad3 a1 a2
        # is needed under {2} and {1,3} alone.  Over rows {1, a1, a2 a3},
        # ad3 a2 comes from <ad2 ad3> with mode 2 alone of 2, 3 transposed
        # and from <a2 a3> with mode 3 alone.
        prov = WStateMoments(WStateParams((0.4, 0.3, 0.35), (0.0, 0.01, 0.0)))
        keys = [monomial_at(3, p) for p in range(1, count_up_to_weight(6, 4) + 1)]
        cases = [
            ("ad3 a1 a2", ("a1", "a2 a3"), ({2}, {1, 3})),
            ("ad3 a2", ("1", "a1", "a2 a3"), ({2}, {1, 3}, {1, 2}, {3})),
        ]
        for lacking, rows, needing in cases:
            lacking = MonomialIndex.parse(lacking, 3)
            table = TableMoments(3, {key: prov.moment(key) for key in keys if key != lacking})
            selection = selection_of(*(position_of(MonomialIndex.parse(r, 3)) for r in rows))
            for cut in canonical_bipartitions(3):
                for transposed in (cut, cut.complement()):
                    if transposed.members in needing:
                        with pytest.raises(UnresolvedMomentsError) as info:
                            build_matrix(table, transposed, selection)
                        assert info.value.missing == [lacking]
                    else:
                        got = build_matrix(table, transposed, selection).values
                        want = build_matrix(prov, transposed, selection).values
                        assert np.array_equal(got, want)


class TestAssemblyMemory:
    def test_scan_matrix_peak_allocation(self):
        # 4 modes, order 3: 165 rows and 36,155 plan terms.  A cut ranks and
        # fetches only the plan's distinct keys, not a copy of every term's key.
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        selection = Selection.up_to_weight(4, 3)
        plan_for.cache_clear()
        tracemalloc.start()
        try:
            build_matrix(prov, (1,), selection)
            cold = tracemalloc.get_traced_memory()[1]
            warm = []
            for cut in canonical_bipartitions(4):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                build_matrix(prov, cut, selection)
                warm.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        mib = 2 ** 20
        assert cold < 9 * mib
        assert max(warm) < 5 * mib


class TestSharedProvider:
    def test_matrices_across_threads(self):
        # Threads filling one provider's cache at once must read exactly the
        # matrices a lone caller gets.
        params = WStateParams((0.3, 0.25 + 0.1j, 0.35), (0.01, 0.0, 0.02))
        selection = Selection.up_to_weight(3, 2)
        cuts = [t for cut in canonical_bipartitions(3) for t in (cut, cut.complement())]
        alone = WStateMoments(params)
        want = {t: build_matrix(alone, t, selection).values for t in cuts}
        shared = WStateMoments(params)
        got = {}

        def work(worker):
            order = cuts[worker:] + cuts[:worker]
            got[worker] = {t: build_matrix(shared, t, selection).values for t in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(got) == [0, 1, 2, 3]
        for matrices in got.values():
            for t, values in matrices.items():
                assert np.array_equal(values, want[t])


class TestPlanEquivalence:
    """build_matrix against entries evaluated one by one from entry_expression_pt,
    and every sub-selection bitwise against the scan matrix's sub-block."""

    @staticmethod
    def reference(provider, transposed, selection):
        monomials = [monomial_at(provider.modes, p) for p in selection]
        values = np.array(
            [
                [evaluate_terms(entry_expression_pt(row, col, transposed), provider)
                 for col in monomials]
                for row in monomials
            ],
            dtype=complex,
        )
        return (values + values.conj().T) / 2.0

    def test_random_selections_under_every_cut(self):
        rng = np.random.default_rng(2718)
        vec, cutoffs = padded_random_state(rng, (3, 2, 2))
        noisy = WStateMoments(WStateParams((0.35, 0.2 + 0.15j, 0.4), (0.0, 0.05, 0.02)))
        providers = [
            FockStateMoments(vec, cutoffs),
            noisy,
            TmsvMoments(0.6),
            table_from_provider(noisy, order=4),
        ]
        for prov in providers:
            n = prov.modes
            top = len(Selection.up_to_weight(n, 2))
            selections = [Selection.leading(top)] + [
                selection_of(*(1 + rng.choice(top, size=int(rng.integers(1, 9)), replace=False)))
                for _ in range(4)
            ]
            for cut in canonical_bipartitions(n):
                for transposed in (cut, cut.complement()):
                    scan = build_matrix(prov, transposed, selections[0]).values
                    for selection in selections:
                        got = build_matrix(prov, transposed, selection).values
                        want = self.reference(prov, transposed, selection)
                        scale = np.max(np.abs(want))
                        assert np.max(np.abs(got - want)) <= 1e-12 * scale
                        # Each selection compiles its own plan; entries must not depend on it.
                        rows = np.array(selection.positions) - 1
                        assert np.array_equal(got, scan[np.ix_(rows, rows)])

    def test_selection_beyond_the_shared_plan(self):
        # Far positions are compiled for the selected monomials only.
        prov = CoherentProductMoments((0.3 + 0.1j, -0.2j))
        selection = selection_of(1, 3, 700, 714)
        transposed = TranspositionSet.of(2, 2)
        got = build_matrix(prov, transposed, selection).values
        want = self.reference(prov, transposed, selection)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDeterminant:
    @staticmethod
    def manual_matrix(values, uncertainty=0.0):
        values = np.asarray(values, dtype=complex)
        return MomentMatrix(
            selection=Selection.leading(values.shape[0]),
            transposition=TranspositionSet.empty(1),
            values=values,
            provenance="manual",
            hermiticity_residual=0.0,
            uncertainty=uncertainty,
        )

    def test_scalar(self):
        res = determinant(self.manual_matrix([[1.0]]))
        assert res.determinant == pytest.approx(1.0)
        assert res.verdict == "nonnegative"
        assert not res.negative

    def test_two_by_two_hermitian(self):
        res = determinant(self.manual_matrix([[2.0, 1j], [-1j, 2.0]]))
        assert res.determinant == pytest.approx(3.0)
        assert res.imag_residual < 1e-12

    def test_negative_verdict(self):
        res = determinant(self.manual_matrix([[1.0, 2.0], [2.0, 1.0]]))
        assert res.determinant == pytest.approx(-3.0)
        assert res.negative

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            determinant(self.manual_matrix([[math.inf]]))

    @pytest.mark.parametrize("values, det", [
        # det is -1e200, but the product of |diag| overflows: the threshold
        # would be inf and call every minor nonnegative.
        (np.diag([1e200, 1e200, -1e-200]), "-1"),
        ([[1.0, 1e200], [1e200, 1e200]], "-inf"),
    ], ids=["threshold", "determinant"])
    def test_overflow_refused(self, values, det):
        with pytest.raises(NumericError, match=rf"^a minor of manual overflows: det \({det}"):
            determinant(self.manual_matrix(values))

    def test_complex_determinant_rejected(self):
        with pytest.raises(NumericError, match="imaginary"):
            determinant(self.manual_matrix([[1j, 0.0], [0.0, 1.0]]))

    def test_threshold_scales_with_diagonal(self):
        assert negativity_threshold(np.diag([10.0, 10.0])) == pytest.approx(1e-8)
        assert negativity_threshold(np.diag([0.1])) == pytest.approx(1e-10)
        tiny = determinant(self.manual_matrix([[1.0, 0.0], [0.0, -1e-12]]))
        assert tiny.verdict == "nonnegative"
        res = determinant(self.manual_matrix([[1.0, 0.0], [0.0, -1e-9]]))
        assert res.verdict == "negative"

    def test_threshold_weighs_the_uncertainty(self):
        # Rows of norm 1 with entries each off by at most u move a 2x2
        # determinant by at most (1 + u sqrt 2)^2 - 1.
        u = 1e-4
        bound = (1 + u * np.sqrt(2)) ** 2 - 1
        assert negativity_threshold(np.eye(2), u) == pytest.approx(1e-10 + bound)
        values = [[1.0, 0.0], [0.0, -1e-4]]
        assert determinant(self.manual_matrix(values)).negative
        assert not determinant(self.manual_matrix(values, u)).negative
        assert determinant(self.manual_matrix([[1.0, 0.0], [0.0, -1e-3]], u)).negative

    def test_uncertain_psd_matrix_never_negative(self):
        # A rank-one PSD block, each entry moved by at most u, is never called negative.
        rng = np.random.default_rng(7)
        u = 1e-3
        for size in (2, 3, 4):
            for _ in range(200):
                v = rng.normal(size=size) + 1j * rng.normal(size=size)
                noise = rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
                noise = (noise + noise.conj().T) / 2 * u / np.sqrt(2)
                values = np.outer(v.conj(), v) + noise
                assert not determinant(self.manual_matrix(values, u)).negative

    def test_as_dict_format(self):
        minor = principal_minor(TmsvMoments(0.8), (2,), selection_of(2, 4))
        doc = minor.as_dict()
        assert set(doc) == {"I", "R", "det", "imag_residual", "verdict"}
        assert doc["I"] == [2]
        assert doc["R"] == [2, 4]
        assert doc["verdict"] == "negative"
        # [[s^2, sc], [sc, s^2]] has determinant -s^2 by the unit relation.
        assert doc["det"] == pytest.approx(-math.sinh(0.8) ** 2, rel=1e-10)


class TestKnownMinors:
    def test_tmsv_fifth_order_minor(self):
        for r in (0.1, 0.5, 1.0):
            minor = principal_minor(TmsvMoments(r), (2,), Selection.leading(5))
            want = -(math.sinh(r) ** 2) * math.cosh(r) ** 2
            assert minor.determinant == pytest.approx(want, rel=1e-10)
            assert minor.negative

    def test_tmsv_untransposed_nonnegative(self):
        minor = principal_minor(TmsvMoments(0.8), None, Selection.leading(5))
        assert minor.determinant >= -1e-9
        assert minor.verdict == "nonnegative"

    def test_transposing_either_mode_equivalent(self):
        a = principal_minor(TmsvMoments(0.7), (1,), Selection.leading(5))
        b = principal_minor(TmsvMoments(0.7), (2,), Selection.leading(5))
        assert a.determinant == pytest.approx(b.determinant, rel=1e-10)

    def test_complement_symmetry_randomized(self):
        # A principal minor of the partially transposed moment matrix has the
        # same determinant for a mode subset and its complement.
        rng = np.random.default_rng(41)
        providers = [
            TmsvMoments(0.6),
            CoherentProductMoments((0.3 + 0.2j, -0.4j)),
            WStateMoments(
                WStateParams((0.35, 0.2 + 0.15j, 0.4), (0.0, 0.05, 0.02))
            ),
        ]
        for prov in providers:
            n = prov.modes
            top = len(Selection.up_to_weight(n, 2))
            for _ in range(8):
                size = int(rng.integers(1, 7))
                positions = rng.choice(range(1, top + 1), size=size, replace=False)
                sel = Selection(tuple(sorted(int(p) for p in positions)))
                members = [m for m in range(1, n + 1) if rng.random() < 0.5]
                i_set = TranspositionSet.of(n, *members)
                a = principal_minor(prov, i_set, sel)
                b = principal_minor(prov, i_set.complement(), sel)
                assert a.determinant == pytest.approx(
                    b.determinant, rel=1e-9, abs=1e-12
                )


class TestEigenScan:
    def test_separable_state_clean(self):
        result = eigen_negativity_scan(
            CoherentProductMoments((0.4, 0.2 - 0.1j)), (1,), max_order=2
        )
        assert result.min_eigenvalue >= -1e-9
        assert result.witness is None
        assert result.minor is None
        assert not result.npt

    def test_tmsv_witness(self):
        r = 0.6
        result = eigen_negativity_scan(TmsvMoments(r), (2,), max_order=1)
        assert result.npt
        assert result.min_eigenvalue < -1e-3
        assert result.witness == selection_of(2, 4)
        # The {a1, a2} block is [[s^2, sc], [sc, s^2]] with determinant -s^2.
        assert result.minor.determinant == pytest.approx(
            -math.sinh(r) ** 2, rel=1e-9
        )

    def test_witness_is_independently_checkable(self):
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        result = eigen_negativity_scan(prov, (1,), max_order=2)
        assert result.npt
        assert len(result.witness) <= 6
        rebuilt = principal_minor(prov, (1,), result.witness)
        assert rebuilt.determinant == pytest.approx(result.minor.determinant)
        assert rebuilt.negative

    def test_deterministic(self):
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        a = eigen_negativity_scan(prov, (1,), max_order=2)
        b = eigen_negativity_scan(prov, (1,), max_order=2)
        assert a.witness == b.witness
        assert a.min_eigenvalue == b.min_eigenvalue

    def test_negative_diagonal_gives_size_one_witness(self):
        class NegativeNumber(MomentProvider):
            # Unphysical data: <ad1 a1> = -0.5, every other moment of vacuum.
            def _compute(self, key):
                if key == MonomialIndex.identity(2):
                    return 1.0
                return -0.5 if key == idx((1, 1), (0, 0)) else 0.0

        result = eigen_negativity_scan(NegativeNumber(2), (2,), max_order=1, max_minor_size=1)
        assert result.witness == selection_of(2)
        assert result.minor.determinant == pytest.approx(-0.5)
        assert result.npt

    @pytest.mark.parametrize("modes, alpha, nbar", [
        (4, 0.05, 0.0), (4, 0.3, 0.0), (4, 0.5, 0.01), (5, 0.3, 0.01),
    ])
    def test_witnesses_survive_rounding_of_the_moments(self, modes, alpha, nbar):
        # The mode symmetry makes eigenvector weights and Schur values tie;
        # ties go by position, so moments a few ulps off keep every witness.
        class Perturbed(WStateMoments):
            def _compute(self, key):
                rng = np.random.default_rng(position_of(key))
                return super()._compute(key) * (1 + 4 * sys.float_info.epsilon
                                                * rng.uniform(-1, 1))

        params = WStateParams.symmetric(modes, alpha, nbar)
        exact, perturbed = WStateMoments(params), Perturbed(params)
        for cut in canonical_bipartitions(modes):
            want = eigen_negativity_scan(exact, cut)
            got = eigen_negativity_scan(perturbed, cut)
            assert (got.npt, got.witness) == (want.npt, want.witness), cut

    def test_reports_the_minor_its_search_judged(self, monkeypatch):
        # Each block is judged once: the reported minor is the very result of
        # the last negative call, and no other call judged the witness rows.
        calls = []

        def spy(matrix, indices=None):
            calls.append(determinant(matrix, indices))
            return calls[-1]

        monkeypatch.setattr("ptmoments.matrix.determinant", spy)
        result = eigen_negativity_scan(WStateMoments(WStateParams.symmetric(4, 0.3)), (1,))
        assert result.npt
        assert result.minor is [minor for minor in calls if minor.negative][-1]
        assert [minor.selection for minor in calls].count(result.witness) == 1

    def test_sizes_are_integers(self):
        prov = TmsvMoments(0.6)
        result = eigen_negativity_scan(prov, (2,), max_order=True, max_minor_size=True)
        assert result.min_eigenvalue < -1e-3
        for name in ("max_order", "max_minor_size"):
            with pytest.raises(TypeError, match=rf"^{name} must be integers, got 2\.0$"):
                eigen_negativity_scan(prov, (2,), **{name: 2.0})

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("ptmoments.matrix.SIZE_CAP", 10)
        with pytest.raises(ResourceLimitError):
            eigen_negativity_scan(TmsvMoments(0.5), (1,), max_order=2)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            eigen_negativity_scan(TmsvMoments(0.5), (1,), max_order=0)
        with pytest.raises(ValueError, match="^max_minor_size must be >= 1$"):
            eigen_negativity_scan(TmsvMoments(0.5), (1,), max_minor_size=0)


class TestNamedMinor:
    def test_matches_direct_positions(self):
        # The pair minor ((1,2),(3,4)) lives on the positions of a1 a2 and
        # a3 a4 in the monomial sequence.
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        named = named_minor(prov, (1,), (((1, 2)), ((3, 4))))
        direct = principal_minor(prov, (1,), selection_of(13, 35))
        assert named.determinant == pytest.approx(direct.determinant)
        assert named.selection == selection_of(13, 35)
        assert named.negative

    def test_distinct_modes_required(self):
        prov = WStateMoments(WStateParams.symmetric(4, 0.3))
        with pytest.raises(ValueError, match="distinct"):
            named_minor(prov, (1,), ((1, 2), (2, 3)))
        with pytest.raises(ValueError, match="1..4"):
            named_minor(prov, (1,), ((1, 2), (3, 5)))

    def test_separable_state_nonnegative(self):
        prov = CoherentProductMoments((0.2, 0.3, 0.1, 0.4))
        minor = named_minor(prov, (1,), ((1, 2), (3, 4)))
        assert minor.verdict == "nonnegative"

    def test_needs_only_its_own_keys(self):
        # With one photon level per mode the pair minor's keys exist and the
        # order-2 scan's do not: a failed scan must not stop the minor.
        ket = np.zeros(16, dtype=complex)
        ket[[1, 2, 4, 8]] = 0.5
        prov = FockStateMoments(ket, (2, 2, 2, 2))
        before = named_minor(prov, (1,), ((1, 2), (3, 4)))
        with pytest.raises(TruncationError):
            eigen_negativity_scan(prov, (1,), max_order=2)
        after = named_minor(prov, (1,), ((1, 2), (3, 4)))
        assert after.determinant == before.determinant


class TestMinPrincipalMinor:
    def test_diagonal(self):
        best, indices = min_principal_minor(np.diag([1.0, -1.0]).astype(complex), 2)
        assert best == pytest.approx(-1.0)
        assert indices == (1,)

    def test_positive_definite(self):
        rng = np.random.default_rng(43)
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        gram = b @ b.conj().T
        best, _ = min_principal_minor(gram, 4)
        assert best > 0.0

    def test_matches_brute_force_with_batching(self):
        rng = np.random.default_rng(47)
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2.0
        best, indices = min_principal_minor(h, 3, chunk=7)
        brute = min(
            (
                float(np.linalg.det(h[np.ix_(combo, combo)]).real)
                for k in range(1, 4)
                for combo in itertools.combinations(range(8), k)
            )
        )
        assert best == pytest.approx(brute, rel=1e-12)
        sub = h[np.ix_(indices, indices)]
        assert float(np.linalg.det(sub).real) == pytest.approx(best, rel=1e-12)
