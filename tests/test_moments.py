"""Moment providers, the truncated-Fock oracle, and the table format."""

import itertools
import json
import math
import re

import numpy as np
import pytest

from conftest import (
    coherent_vector,
    direct_moment,
    gauss_hermite_factor,
    noisy_wstate_density,
    padded_random_state,
    tmsv_schmidt_series,
    tmsv_vector,
    wstate_vector,
)

from ptmoments import (
    CoherentProductMoments,
    FockStateMoments,
    MomentDataError,
    MomentProvider,
    MonomialIndex,
    NumericError,
    ResourceLimitError,
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

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, complex(0.1, math.nan)])
    def test_non_finite_amplitude_refused(self, gamma):
        with pytest.raises(MomentDataError, match="coherent amplitudes gamma must be finite"):
            CoherentProductMoments((0.5, gamma))

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
            if key != MonomialIndex.identity(2):
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

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    def test_matches_schmidt_series(self, r):
        prov = TmsvMoments(r)
        for key in keys_up_to_weight(2, 8):
            if max(max(pair) for pair in key.pairs) <= 4:
                want = tmsv_schmidt_series(r, key)
                assert prov.moment(key) == pytest.approx(want, rel=1e-10), str(key)

    @pytest.mark.parametrize("r", [5.0, 10.0, 20.0])
    def test_strong_squeezing(self, r):
        # The Schmidt series needs ever more terms as tanh(r) nears 1; the
        # pairing sum has one term per pairing whatever r is.
        prov = TmsvMoments(r)
        assert prov.moment(MonomialIndex.identity(2)) == 1.0
        assert prov.moment(idx((1, 1), (0, 0))) == pytest.approx(math.sinh(r) ** 2, rel=1e-14)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_squeezing_refused(self, r):
        with pytest.raises(MomentDataError, match="squeezing parameter r must be finite"):
            TmsvMoments(r)

    def test_overflow_names_the_state(self):
        prov = TmsvMoments(400.0)
        assert prov.moment(MonomialIndex.identity(2)) == 1.0
        with pytest.raises(NumericError, match=r"moment ad1 a1 of tmsv\(r=400\) overflows"):
            prov.moment(idx((1, 1), (0, 0)))

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

    def test_overflow_names_the_state(self):
        prov = WStateMoments(WStateParams.symmetric(2, 1e100))
        with pytest.raises(NumericError, match=r"of wstate\(n=2, alpha=1e\+100, nbar=0\) overflows"):
            for key in keys_up_to_weight(2, 4):
                prov.moment(key)

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

    @pytest.mark.parametrize(
        "alphas,nbars,name",
        [
            ((0.1, math.nan), (0.0, 0.0), "alpha"),
            ((0.1, complex(math.inf, 0.2)), (0.0, 0.0), "alpha"),
            ((0.1, 0.2), (0.0, math.nan), "nbar"),
            ((0.1, 0.2), (math.inf, 0.0), "nbar"),
        ],
        ids=["alpha-nan", "alpha-inf", "nbar-nan", "nbar-inf"],
    )
    def test_non_finite_params_refused(self, alphas, nbars, name):
        # NaN passes a plain ``nbar < 0`` test, so finiteness is checked on its own.
        with pytest.raises(MomentDataError, match=f" {name} must be finite"):
            WStateParams(alphas, nbars)


class TestWStateFiftyDigits:
    """The n^2 cross-term sum against the same sum at 50 digits."""

    @staticmethod
    def reference(alphas, nbars, keys):
        """Moments from 50-digit mode factors, one per (mode, k, l, overlap).

        Bra branch i flips mode i and ket branch j flips mode j: mode m carries
        (-1)^k if m = i and (-1)^l if m = j, and an overlap when i != j and m is one of them.
        """
        mpmath = pytest.importorskip("mpmath")
        modes = len(alphas)
        factors = {}

        def factor(m, k, l, overlap):
            if (m, k, l, overlap) not in factors:
                factors[m, k, l, overlap] = TestGaussianMoment.real_axis_reference(
                    alphas[m], nbars[m], k, l, overlap)
            return factors[m, k, l, overlap]

        def unnormalized(pairs):
            total = mpmath.mpc(0)
            for i, j in itertools.product(range(modes), repeat=2):
                term = mpmath.mpc((-1) ** (pairs[i][0] + pairs[j][1]))
                for m, (k, l) in enumerate(pairs):
                    term *= factor(m, k, l, i != j and m in (i, j))
                total += term
            return total

        with mpmath.workdps(50):
            norm = unnormalized(((0, 0),) * modes)
            return [complex(unnormalized(key.pairs) / norm) for key in keys]

    @pytest.mark.parametrize("modes,weight", [(2, 4), (3, 4), (4, 3), (5, 3)])
    def test_matches_fifty_digit_sum(self, modes, weight):
        rng = np.random.default_rng(10 * modes + weight)
        alphas = rng.uniform(0.05, 0.9, modes) * np.exp(2j * np.pi * rng.uniform(size=modes))
        nbars = rng.uniform(0.0, 0.1, modes)
        keys = [monomial_at(modes, p) for p in range(1, count_up_to_weight(2 * modes, weight) + 1)]
        prov = WStateMoments(WStateParams(tuple(alphas.tolist()), tuple(nbars.tolist())))
        want = self.reference(alphas.tolist(), nbars.tolist(), keys)
        scale = max(map(abs, want))
        for key, value in zip(keys, want):
            assert abs(prov.moment(key) - value) <= 1e-14 * scale, str(key)


class TestRealMoments:
    """Real parameters give exactly real moments and scan matrices."""

    STATES = {
        "wstate-pure": lambda: WStateMoments(WStateParams.symmetric(4, 0.3)),
        "wstate-noisy": lambda: WStateMoments(WStateParams.symmetric(4, 0.3, 0.01)),
        "tmsv": lambda: TmsvMoments(0.6),
        "coherent": lambda: CoherentProductMoments((0.4, -0.2, 0.7)),
    }

    @staticmethod
    def scan_moments(prov, order=2):
        """Every moment up to the weight the order-``order`` scan matrix reads."""
        count = count_up_to_weight(2 * prov.modes, 2 * order)
        return [prov.moment(monomial_at(prov.modes, p)) for p in range(1, count + 1)]

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_real_parameters_give_real_moments(self, name):
        prov = self.STATES[name]()
        assert all(value.imag == 0.0 for value in self.scan_moments(prov))
        scan = Selection.up_to_weight(prov.modes, 2)
        for cut in canonical_bipartitions(prov.modes):
            assert not build_matrix(prov, cut, scan).values.imag.any(), cut

    def test_complex_amplitude_keeps_imaginary_parts(self):
        prov = WStateMoments(WStateParams.symmetric(4, 0.3 + 0.1j, 0.01))
        assert sum(value.imag != 0.0 for value in self.scan_moments(prov)) > 100


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
        got = _gaussian_moment(alpha, nbar, k, l, overlap)
        want = self.brute_force(alpha, nbar, k, l, overlap)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_zero_noise_closed_form(self):
        alpha = 0.3 - 0.2j
        assert _gaussian_moment(alpha, 0.0, 2, 1, False) == pytest.approx(
            np.conj(alpha) ** 2 * alpha
        )
        assert _gaussian_moment(alpha, 0.0, 0, 0, True) == pytest.approx(
            math.exp(-2.0 * abs(alpha) ** 2)
        )

    def test_zero_noise_is_limit_of_small_noise(self):
        alpha = 0.5 + 0.1j
        exact = _gaussian_moment(alpha, 0.0, 1, 2, True)
        tiny = _gaussian_moment(alpha, 1e-10, 1, 2, True)
        assert tiny == pytest.approx(exact, rel=1e-6)

    @staticmethod
    def seeded_factors(count):
        """(alpha, nbar, k, l, overlap) with |alpha| <= 1.5, nbar <= 1 and k, l <= 6."""
        rng = np.random.default_rng(13)
        for _ in range(count):
            alpha = 1.5 * math.sqrt(rng.uniform()) * complex(np.exp(2j * np.pi * rng.uniform()))
            nbar = float(rng.choice([0.0, 0.01, rng.uniform(0.0, 1.0)]))
            k, l = (int(x) for x in rng.integers(0, 7, size=2))
            yield alpha, nbar, k, l, bool(rng.integers(2))

    @staticmethod
    def real_axis_reference(alpha, nbar, k, l, overlap):
        """The factor as a 50-digit mpmath number, expanded over the real and imaginary axes.

        Completing the square per axis leaves exp(-sigma a^2 / d) / sqrt(d)
        times a normal law of mean a / d and variance nbar / (2 d), whose
        moments E[X^p] = sum_i C(p, 2i) m^(p-2i) s2^i (2i-1)!! enter
        (x - iy)^k (x + iy)^l term by term.
        """
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            sigma = 2 if overlap else 0
            nbar = mpmath.mpf(nbar)
            d = 1 + sigma * nbar
            axes = []
            for a in (mpmath.mpf(alpha.real), mpmath.mpf(alpha.imag)):
                m, s2 = a / d, nbar / (2 * d)
                moments = [
                    sum(math.comb(p, 2 * i) * m ** (p - 2 * i) * s2 ** i
                        * mpmath.fac2(2 * i - 1) for i in range(p // 2 + 1))
                    for p in range(k + l + 1)
                ]
                axes.append((mpmath.exp(-sigma * a * a / d) / mpmath.sqrt(d), moments))
            (gx, ex), (gy, ey) = axes
            total = mpmath.mpc(0)
            for a, b in itertools.product(range(k + 1), range(l + 1)):
                phase = (-1j) ** (k - a) * 1j ** (l - b)
                total += (math.comb(k, a) * math.comb(l, b) * mpmath.mpc(phase)
                          * ex[a + b] * ey[k - a + l - b])
            return gx * gy * total

    def test_matches_fifty_digit_reference(self):
        for alpha, nbar, k, l, overlap in self.seeded_factors(200):
            want = complex(self.real_axis_reference(alpha, nbar, k, l, overlap))
            got = _gaussian_moment(alpha, nbar, k, l, overlap)
            assert abs(got - want) <= 1e-14 * abs(want), (alpha, nbar, k, l, overlap)

    def test_matches_gauss_hermite_reference(self):
        for alpha, nbar, k, l, overlap in self.seeded_factors(200):
            if nbar > 0.0:
                want = gauss_hermite_factor(alpha, nbar, k, l, overlap)
                got = _gaussian_moment(alpha, nbar, k, l, overlap)
                assert got == pytest.approx(want, rel=1e-10), (alpha, nbar, k, l, overlap)


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

    def test_cutoffs_are_integers(self):
        # A float cutoff is refused by name, not truncated to a smaller space.
        ket = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(TypeError, match=r"^cutoffs must be integers, got 2\.7$"):
            FockStateMoments(ket, (2.7, 2))
        assert FockStateMoments(ket, (np.int64(2), 2)).cutoffs == (2, 2)
        assert FockStateMoments(ket, np.int64(4)).cutoffs == (4,)

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
        for position in range(1, count_up_to_weight(2, 4) + 1):
            key = monomial_at(1, position)
            assert again.moment(key) == pytest.approx(table.moment(key), abs=1e-10)
        # Serialization is deterministic.
        assert moment_table_to_json(again) == text
        # So is the round trip of the order-4 tables of the bundled states.
        for source in (
            WStateMoments(WStateParams.symmetric(4, 0.3, 0.01)),
            CoherentProductMoments((0.5 + 0.25j, -0.3j, 0.2, 0.4 - 0.1j)),
            TmsvMoments(0.6),
        ):
            text = moment_table_to_json(table_from_provider(source, order=4))
            assert moment_table_to_json(load_moment_table(text)) == text

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
        assert load_moment_table(ok).moment(MonomialIndex.identity(1)) == 1.0005

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
        assert table.moment(idx((0, 1))) == pytest.approx(0.3 - 0.1j)

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
        assert table.moment(idx((1, 1), (0, 0))) == pytest.approx(
            math.sinh(0.4) ** 2, abs=1e-10
        )

    def test_reads_bytes(self):
        text = moment_table_to_json(table_from_provider(TmsvMoments(0.4), order=2))
        assert moment_table_to_json(load_moment_table(text.encode())) == text

    @pytest.mark.parametrize("tolerance, message", [
        (-1e-3, "a finite nonnegative number"),
        (math.nan, "a finite nonnegative number"),
        (math.inf, "a finite nonnegative number"),
        (np.float32(1e-3), f'a number, got "{np.float32(1e-3)!r}"'),
    ], ids=["negative", "nan", "inf", "float32"])
    def test_every_table_checks_its_tolerance(self, tolerance, message):
        message = f"^'tolerance' must be {re.escape(message)}$"
        with pytest.raises(MomentDataError, match=message):
            TableMoments(1, {MonomialIndex.identity(1): 1.0}, tolerance=tolerance)
        with pytest.raises(MomentDataError, match=message):
            table_from_provider(CoherentProductMoments((0.3,)), 1, tolerance)

    def test_table_provider_raises_on_missing(self):
        prov = load_moment_table(self.doc([self.entry([0], [0], re=1.0)]))
        assert prov.moment(MonomialIndex.identity(1)) == 1.0
        with pytest.raises(UnresolvedMomentsError) as info:
            prov.moment(idx((2, 2)))
        assert info.value.missing == [idx((2, 2))]

    def test_table_from_provider_counts(self):
        prov = CoherentProductMoments((0.3,))
        table = table_from_provider(prov, order=2)
        # All monomials of weight <= 2 in one mode: 1, a, ad, a^2, ad a, ad^2.
        assert len(json.loads(moment_table_to_json(table))["entries"]) == 6
        assert table.max_order == 2

    def test_table_from_provider_refuses_a_negative_order(self):
        # Below order 0 not even the identity would be tabulated.
        with pytest.raises(ValueError, match="^order must be >= 0$"):
            table_from_provider(CoherentProductMoments((0.3,)), order=-2)

    def test_table_from_provider_refuses_moments_above_the_cap(self, monkeypatch):
        # 4 modes to order 4 hold C(12, 4) = 495 moments, and to order 13 C(21, 13) = 203,490.
        prov = WStateMoments(WStateParams.symmetric(4, 0.3, 0.0))
        monkeypatch.setattr("ptmoments.multiindex.ENUMERATION_CAP", 495)
        assert table_from_provider(prov, 4).max_order == 4
        monkeypatch.setattr("ptmoments.multiindex.ENUMERATION_CAP", 494)
        with pytest.raises(ResourceLimitError, match="^would enumerate 495 moments, above the cap 494$"):
            table_from_provider(prov, 4)
        monkeypatch.undo()

        def made(*args):
            raise AssertionError("a key was made before the refusal")
        monkeypatch.setattr("ptmoments.moments.monomial_at", made)
        with pytest.raises(ResourceLimitError, match="^would enumerate 203490 moments, above the cap 200000$"):
            table_from_provider(prov, 13)

    def test_table_from_provider_order_is_an_integer(self):
        prov = CoherentProductMoments((0.3,))
        assert table_from_provider(prov, True).max_order == 1
        with pytest.raises(TypeError, match=r"^order must be integers, got 2\.0$"):
            table_from_provider(prov, 2.0)

    @pytest.mark.parametrize("bad", [math.inf, complex(0.0, math.nan), OverflowError])
    def test_table_from_provider_refuses_a_non_finite_moment(self, bad):
        class Blowup(MomentProvider):
            label = "blowup"

            def _compute(self, key):
                if key.weight < 2:
                    return 1.0
                if bad is OverflowError:
                    raise OverflowError("math range error")
                return bad

        with pytest.raises(NumericError, match=r"^moment a1\^2 of blowup overflows$"):
            table_from_provider(Blowup(1), order=2)

    def test_huge_exponent_loads(self):
        # Ranking is closed form, so an exponent of 10**9 costs no walk.
        huge = idx((10**9, 0))
        table = load_moment_table(
            self.doc([self.entry([0], [0], re=1.0), self.entry([10**9], [0], re=0.5)])
        )
        assert table.max_order == 10**9
        assert table.moment(huge.conjugate()) == 0.5
        with pytest.raises(UnresolvedMomentsError):
            table.moment(idx((1, 0)))

    def test_keys_must_match_the_mode_count(self):
        with pytest.raises(MomentDataError, match="key ad1 a2 has 2 modes, table has 3"):
            TableMoments(3, {MonomialIndex.identity(3): 1.0, idx((1, 0), (0, 1)): 0.5})


@pytest.mark.parametrize("build, error, message", [
    (lambda: MomentProvider(0), ValueError, "mode count must be >= 1"),
    (lambda: WStateParams((), ()), ValueError, "mode count must be >= 1"),
    (lambda: FockStateMoments(np.ones(1), (0,)), MomentDataError, "cutoffs must be >= 1"),
    (lambda: FockStateMoments(np.ones(1), np.int64(0)), MomentDataError, "cutoffs must be >= 1"),
    (lambda: table_from_provider(CoherentProductMoments((0.3,)), -1), ValueError,
     "order must be >= 0"),
    (lambda: load_moment_table('{"modes": 1, "entries": [3]}'), MomentDataError,
     "each entry must be an object"),
    (lambda: load_moment_table('{"modes": 1, "entries": [{"k": [0], "l": [0], "re": 1'
                               + "0" * 400 + '}]}'),
     MomentDataError, "'re' of k=[0], l=[0] is out of range"),
], ids=["no-modes", "no-w-modes", "zero-cutoff", "numpy-scalar-cutoff", "negative-order",
        "entry-not-object", "re-out-of-range"])
def test_refusals_name_their_reason(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
