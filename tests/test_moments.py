"""Moment providers, the truncated-Fock oracle, and the table format."""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import (
    coherent_vector,
    direct_moment,
    noisy_wstate_density,
    padded_random_state,
    tmsv_vector,
    wstate_vector,
)

from ptmoments import (
    CoherentProductMoments,
    FockStateMoments,
    MomentDataError,
    MomentTable,
    MonomialIndex,
    Selection,
    TableMoments,
    TmsvMoments,
    TruncationError,
    UnresolvedMomentsError,
    WStateMoments,
    WStateParams,
    build_matrix,
    canonical_bipartitions,
    count_up_to_weight,
    load_moment_table,
    moment_table_to_json,
    monomial_at,
    position_of,
    table_from_provider,
)
from ptmoments.moments import _gaussian_moment


def idx(*pairs):
    return MonomialIndex(tuple(pairs))


def keys_up_to_weight(modes, wmax):
    singles = [(k, l) for k in range(wmax + 1) for l in range(wmax + 1)]
    for pairs in itertools.product(singles, repeat=modes):
        key = MonomialIndex(tuple(pairs))
        if key.weight <= wmax:
            yield key


class TestCoherent:
    def test_vacuum(self):
        prov = CoherentProductMoments((0.0,))
        assert prov.moment(MonomialIndex.identity(1)) == 1.0
        assert prov.moment(idx((1, 1))) == 0.0

    def test_number_moment(self):
        prov = CoherentProductMoments((2.0,))
        assert prov.moment(idx((1, 1))) == pytest.approx(4.0)

    def test_phase(self):
        prov = CoherentProductMoments((1j,))
        assert prov.moment(idx((2, 1))) == pytest.approx(-1j)

    def test_product_factorizes(self):
        prov = CoherentProductMoments((0.5, 1.0 - 1.0j))
        key = idx((1, 0), (0, 2))
        assert prov.moment(key) == pytest.approx(0.5 * (1.0 - 1.0j) ** 2)

    def test_mode_count_checked(self):
        prov = CoherentProductMoments((0.5,))
        with pytest.raises(ValueError):
            prov.moment(MonomialIndex.identity(2))

    def test_matches_fock_oracle(self):
        gamma = 0.5
        oracle = FockStateMoments(coherent_vector(gamma, 12), (12,))
        prov = CoherentProductMoments((gamma,))
        for key in keys_up_to_weight(1, 4):
            assert oracle.moment(key) == pytest.approx(prov.moment(key), abs=1e-10)


class TestTmsv:
    def test_photon_number(self):
        r = 0.8
        prov = TmsvMoments(r)
        assert prov.moment(idx((1, 1), (0, 0))) == pytest.approx(math.sinh(r) ** 2)
        assert prov.moment(idx((0, 0), (1, 1))) == pytest.approx(math.sinh(r) ** 2)

    def test_anomalous_correlation(self):
        r = 0.8
        prov = TmsvMoments(r)
        expected = math.sinh(r) * math.cosh(r)
        assert prov.moment(idx((0, 1), (0, 1))) == pytest.approx(expected)
        assert prov.moment(idx((1, 0), (1, 0))) == pytest.approx(expected)

    def test_zero_squeezing_is_vacuum(self):
        prov = TmsvMoments(0.0)
        assert prov.moment(MonomialIndex.identity(2)) == 1.0
        for key in keys_up_to_weight(2, 3):
            if not key.is_identity():
                assert prov.moment(key) == 0.0

    def test_unbalanced_exponents_vanish(self):
        prov = TmsvMoments(0.9)
        assert prov.moment(idx((1, 0), (0, 0))) == 0.0
        assert prov.moment(idx((2, 1), (0, 1))) == 0.0
        assert prov.moment(idx((1, 1), (1, 0))) == 0.0

    def test_mode_exchange_symmetry(self):
        prov = TmsvMoments(0.6)
        for key in keys_up_to_weight(2, 4):
            swapped = MonomialIndex((key.pairs[1], key.pairs[0]))
            assert prov.moment(key) == pytest.approx(prov.moment(swapped), abs=1e-12)

    def test_matches_fock_oracle(self):
        r = 0.6
        oracle = FockStateMoments(tmsv_vector(r, 30), (30, 30))
        prov = TmsvMoments(r)
        for key in keys_up_to_weight(2, 4):
            assert oracle.moment(key) == pytest.approx(
                prov.moment(key), abs=1e-8
            ), str(key)


class TestWStateNoiseless:
    def test_matches_fock_oracle_four_modes(self):
        alphas = (0.35, 0.35, 0.35, 0.35)
        prov = WStateMoments(WStateParams(alphas, (0.0,) * 4))
        cutoffs = (11,) * 4
        oracle = FockStateMoments(wstate_vector(alphas, cutoffs), cutoffs)
        rng = np.random.default_rng(17)
        keys = list(keys_up_to_weight(4, 2))
        extra = []
        while len(extra) < 30:
            pairs = tuple(
                (int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(4)
            )
            key = MonomialIndex(pairs)
            if key.weight <= 4:
                extra.append(key)
        for key in keys + extra:
            assert prov.moment(key) == pytest.approx(
                oracle.moment(key), abs=1e-9
            ), str(key)

    def test_asymmetric_amplitudes_match_oracle(self):
        alphas = (0.4 + 0.1j, 0.25 - 0.3j)
        prov = WStateMoments(WStateParams(alphas, (0.0, 0.0)))
        oracle = FockStateMoments(wstate_vector(alphas, (11, 11)), (11, 11))
        for key in keys_up_to_weight(2, 4):
            assert prov.moment(key) == pytest.approx(
                oracle.moment(key), abs=1e-9
            ), str(key)

    def test_permutation_symmetry(self):
        prov = WStateMoments(WStateParams.symmetric(3, 0.3 + 0.2j))
        for perm in itertools.permutations(range(3)):
            for key in (idx((1, 0), (0, 1), (0, 0)), idx((1, 1), (2, 0), (0, 1))):
                permuted = MonomialIndex(tuple(key.pairs[p] for p in perm))
                assert prov.moment(key) == pytest.approx(
                    prov.moment(permuted), abs=1e-12
                )

    def test_identity_is_one(self):
        prov = WStateMoments(WStateParams.symmetric(4, 0.3, 0.02))
        assert prov.moment(MonomialIndex.identity(4)) == pytest.approx(1.0)

    def test_normalization_computed_once(self, monkeypatch):
        prov = WStateMoments(WStateParams.symmetric(3, 0.3 + 0.1j, 0.02))
        unnormalized = prov._unnormalized
        calls = []

        def counting(key):
            calls.append(key)
            return unnormalized(key)

        monkeypatch.setattr(prov, "_unnormalized", counting)
        keys = [monomial_at(3, p) for p in range(1, 40)]
        for key in keys + keys:
            prov.moment(key)
        assert len(calls) == len(keys) + 1
        # Matrices and single keys read one cache: each key is computed once.
        scan = Selection.up_to_weight(3, 2)
        for cut in canonical_bipartitions(3):
            for transposed in (cut, cut.complement()):
                build_matrix(prov, transposed, scan)
                for key in keys[::3] + [monomial_at(3, p) for p in range(200, 211)]:
                    prov.moment(key)
        distinct = {position_of(key) for key in calls}
        assert distinct == set(range(1, count_up_to_weight(6, 4) + 1))
        assert len(calls) == len(distinct) + 1
        norm = unnormalized(MonomialIndex.identity(3))
        for key in keys:
            assert prov.moment(key) == complex(unnormalized(key) / norm)


class TestWStateNoisy:
    def test_matches_grid_integrated_density(self):
        alphas = (0.4 + 0.1j, 0.35 - 0.2j)
        nbars = (0.08, 0.12)
        prov = WStateMoments(WStateParams(alphas, nbars))
        rho = noisy_wstate_density(alphas, nbars, cutoff=16, quad=16)
        for key in keys_up_to_weight(2, 4):
            want = direct_moment(rho, (16, 16), key)
            assert prov.moment(key) == pytest.approx(want, abs=1e-8), str(key)

    def test_quadrature_refinement_stable(self):
        for key in (idx((1, 1), (0, 0), (0, 0)), idx((0, 1), (0, 1), (2, 0))):
            for (k, l), overlap in itertools.product(key.pairs, (False, True)):
                coarse = _gaussian_moment(0.5 + 0j, 0.07, k, l, overlap)
                fine = _gaussian_moment(0.5 + 0j, 0.07, k, l, overlap, 24)
                assert coarse == pytest.approx(fine, abs=1e-10)

    def test_small_noise_limit(self):
        params0 = WStateParams.symmetric(2, 0.4)
        params_eps = WStateParams.symmetric(2, 0.4, 1e-9)
        p0 = WStateMoments(params0)
        pe = WStateMoments(params_eps)
        for key in (idx((1, 1), (0, 0)), idx((0, 1), (0, 1))):
            assert p0.moment(key) == pytest.approx(pe.moment(key), abs=1e-7)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            WStateParams((0.1, 0.2), (0.0,))
        with pytest.raises(MomentDataError):
            WStateParams((0.1,), (-0.5,))
        sym = WStateParams.symmetric(3, 0.2, 0.01)
        assert sym.alphas == (0.2 + 0j,) * 3
        assert sym.nbars == (0.01,) * 3
        assert sym.modes == 3


class TestGaussianMoment:
    @staticmethod
    def brute_force(alpha, nbar, k, l, overlap):
        span = 6.0
        xs = np.linspace(alpha.real - span, alpha.real + span, 1201)
        ys = np.linspace(alpha.imag - span, alpha.imag + span, 1201)
        beta = xs[:, None] + 1j * ys[None, :]
        kernel = np.exp(-np.abs(beta - alpha) ** 2 / nbar) / (math.pi * nbar)
        integrand = np.conj(beta) ** k * beta ** l * kernel
        if overlap:
            integrand = integrand * np.exp(-2.0 * np.abs(beta) ** 2)
        inner = np.trapezoid(integrand, ys, axis=1)
        return complex(np.trapezoid(inner, xs))

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("k,l", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    def test_against_numerical_integral(self, k, l, overlap):
        alpha = 0.4 + 0.25j
        nbar = 0.3
        got = _gaussian_moment(alpha, nbar, k, l, overlap, None)
        want = self.brute_force(alpha, nbar, k, l, overlap)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_zero_noise_closed_form(self):
        alpha = 0.3 - 0.2j
        assert _gaussian_moment(alpha, 0.0, 2, 1, False, None) == pytest.approx(
            np.conj(alpha) ** 2 * alpha
        )
        assert _gaussian_moment(alpha, 0.0, 0, 0, True, None) == pytest.approx(
            math.exp(-2.0 * abs(alpha) ** 2)
        )

    def test_zero_noise_is_limit_of_small_noise(self):
        alpha = 0.5 + 0.1j
        exact = _gaussian_moment(alpha, 0.0, 1, 2, True, None)
        tiny = _gaussian_moment(alpha, 1e-10, 1, 2, True, 20)
        assert tiny == pytest.approx(exact, rel=1e-6)


class TestFockOracle:
    def test_vector_norm_validated(self):
        vec = coherent_vector(0.3, 10)
        with pytest.raises(MomentDataError):
            FockStateMoments(vec * 1.01, (10,))

    def test_density_validation(self):
        rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
        FockStateMoments(rho, (3,))  # valid
        bad = rho.copy()
        bad[0, 1] = 0.2  # not Hermitian
        with pytest.raises(MomentDataError):
            FockStateMoments(bad, (3,))
        with pytest.raises(MomentDataError):
            FockStateMoments(rho * 0.5, (3,))  # trace != 1

    def test_shape_mismatch(self):
        with pytest.raises(MomentDataError):
            FockStateMoments(np.zeros(5), (2, 2))
        with pytest.raises(MomentDataError):
            FockStateMoments(np.ones(4) / 2.0, (2, 3))

    def test_truncation_error_for_large_exponents(self):
        vec = coherent_vector(0.2, 3)
        oracle = FockStateMoments(vec / np.linalg.norm(vec), (3,))
        with pytest.raises(TruncationError):
            oracle.moment(idx((3, 3)))

    def test_coherent_first_moment(self):
        gamma = 0.5
        oracle = FockStateMoments(coherent_vector(gamma, 12), (12,))
        assert oracle.moment(idx((0, 1))) == pytest.approx(gamma, abs=1e-10)
        assert oracle.moment(idx((1, 0))) == pytest.approx(gamma, abs=1e-10)

    def test_vector_and_density_paths_agree(self):
        rng = np.random.default_rng(23)
        vec, cutoffs = padded_random_state(rng, (3, 3), headroom=5)
        as_vec = FockStateMoments(vec, cutoffs)
        as_rho = FockStateMoments(np.outer(vec, vec.conj()), cutoffs)
        for key in keys_up_to_weight(2, 3):
            assert as_vec.moment(key) == pytest.approx(
                as_rho.moment(key), abs=1e-12
            )


class TestMomentTable:
    @staticmethod
    def doc(entries, modes=1, tolerance=1e-9):
        return json.dumps({"modes": modes, "tolerance": tolerance, "entries": entries})

    @staticmethod
    def entry(k, l, re=0.0, im=0.0):
        return {"k": k, "l": l, "re": re, "im": im}

    def test_roundtrip(self):
        prov = CoherentProductMoments((0.5 + 0.25j,))
        table = table_from_provider(prov, order=4)
        text = moment_table_to_json(table)
        again = load_moment_table(text)
        assert again.modes == 1
        assert again.max_order == 4
        for key, value in table.entries.items():
            assert again.entries[key] == pytest.approx(value, abs=1e-10)
        # Serialization is deterministic.
        assert moment_table_to_json(again) == text

    def test_missing_identity_rejected(self):
        text = self.doc([self.entry([1], [1], re=0.5)])
        with pytest.raises(MomentDataError, match="identity"):
            load_moment_table(text)

    def test_identity_must_be_one(self):
        text = self.doc([self.entry([0], [0], re=1.5)])
        with pytest.raises(MomentDataError, match="identity moment"):
            load_moment_table(text)
        # ... within the declared tolerance.
        ok = self.doc([self.entry([0], [0], re=1.0005)], tolerance=1e-2)
        assert load_moment_table(ok).entries[MonomialIndex.identity(1)] == 1.0005

    def test_non_finite_values_rejected(self):
        # abs(nan - 1) > tol is False, so a NaN identity needs its own check.
        nan_identity = self.doc([self.entry([0], [0], re=math.nan)])
        with pytest.raises(MomentDataError, match=r"k=\[0\], l=\[0\] is not finite"):
            load_moment_table(nan_identity)
        inf_entry = self.doc(
            [self.entry([0], [0], re=1.0), self.entry([1], [0], im=math.inf)]
        )
        with pytest.raises(MomentDataError, match=r"k=\[1\], l=\[0\] is not finite"):
            load_moment_table(inf_entry)

    def test_hermitian_partner_checked(self):
        text = self.doc(
            [
                self.entry([0], [0], re=1.0),
                self.entry([1], [0], re=1.0),
                self.entry([0], [1], re=2.0),
            ]
        )
        with pytest.raises(MomentDataError, match="Hermitian"):
            load_moment_table(text)

    def test_hermitian_partner_autofilled(self):
        text = self.doc(
            [
                self.entry([0], [0], re=1.0),
                self.entry([1], [0], re=0.3, im=0.1),
            ]
        )
        table = load_moment_table(text)
        assert table.entries[idx((0, 1))] == pytest.approx(0.3 - 0.1j)

    def test_duplicates_rejected(self):
        text = self.doc(
            [
                self.entry([0], [0], re=1.0),
                self.entry([1], [1], re=0.2),
                self.entry([1], [1], re=0.2),
            ]
        )
        with pytest.raises(MomentDataError, match="duplicate"):
            load_moment_table(text)

    def test_structure_validation(self):
        with pytest.raises(MomentDataError, match="JSON"):
            load_moment_table("{nope")
        with pytest.raises(MomentDataError, match="object"):
            load_moment_table("[1,2]")
        with pytest.raises(MomentDataError, match="unknown moment-table keys"):
            load_moment_table('{"modes": 1, "entries": [], "extra": 1}')
        with pytest.raises(MomentDataError, match="modes"):
            load_moment_table('{"modes": 0, "entries": []}')
        with pytest.raises(MomentDataError, match="tolerance"):
            load_moment_table('{"modes": 1, "tolerance": -1, "entries": []}')
        with pytest.raises(MomentDataError, match="list"):
            load_moment_table('{"modes": 1, "entries": 5}')
        with pytest.raises(MomentDataError, match="unknown entry keys"):
            load_moment_table(self.doc([{"k": [0], "l": [0], "re": 1.0, "x": 2}]))
        with pytest.raises(MomentDataError, match="nonnegative integers"):
            load_moment_table(self.doc([self.entry([0, 1], [0], re=1.0)]))
        with pytest.raises(MomentDataError, match="nonnegative integers"):
            load_moment_table(self.doc([self.entry([-1], [0], re=1.0)]))

    def test_reads_file_objects(self, tmp_path):
        prov = TmsvMoments(0.4)
        path = tmp_path / "table.json"
        path.write_text(moment_table_to_json(table_from_provider(prov, order=2)))
        with open(path) as fh:
            table = load_moment_table(fh)
        assert table.modes == 2
        assert table.entries[idx((1, 1), (0, 0))] == pytest.approx(
            math.sinh(0.4) ** 2, abs=1e-10
        )

    def test_table_provider_raises_on_missing(self):
        table = load_moment_table(self.doc([self.entry([0], [0], re=1.0)]))
        prov = TableMoments(table)
        assert prov.moment(MonomialIndex.identity(1)) == 1.0
        with pytest.raises(UnresolvedMomentsError) as info:
            prov.moment(idx((2, 2)))
        assert info.value.missing == [idx((2, 2))]

    def test_table_from_provider_counts(self):
        prov = CoherentProductMoments((0.3,))
        table = table_from_provider(prov, order=2)
        # All monomials of weight <= 2 in one mode: 1, a, ad, a^2, ad a, ad^2.
        assert len(table.entries) == 6
        assert table.max_order == 2
