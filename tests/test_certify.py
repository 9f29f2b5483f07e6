"""Bipartition testing, full certification, exclusions, and parameter sweeps."""

import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    Displaced,
    cuts_by_colouring,
    random_coherent_mixture,
    random_product_mixture,
    tmsv_vector,
)
from ptmoments import (
    BipartitionOutcome,
    CertificationReport,
    CoherentProductMoments,
    Decomposition,
    FockStateMoments,
    MinorResult,
    SearchBudget,
    Selection,
    TmsvMoments,
    TranspositionSet,
    WStateMoments,
    WStateParams,
    all_decompositions,
    build_matrix,
    canonical_bipartitions,
    certify_full,
    eigen_negativity_scan,
    four_mode_pair_groups,
    named_minor,
    sweep,
    sweep_to_csv,
)
from ptmoments import test_bipartition as probe_bipartition


def wstate(alpha, nbar=0.0, modes=4):
    return WStateMoments(WStateParams.symmetric(modes, alpha, nbar))


class TestSearchBudget:
    def test_defaults(self):
        budget = SearchBudget()
        assert budget.max_order == 2
        assert budget.max_minor_size == 6
        assert budget.strategy == "both"
        assert budget.as_dict() == {
            "max_order": 2,
            "max_minor_size": 6,
            "strategy": "both",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_order=0)
        with pytest.raises(ValueError):
            SearchBudget(max_minor_size=0)
        with pytest.raises(ValueError):
            SearchBudget(strategy="exhaustive")

    def test_sizes_are_integers(self):
        report = certify_full(TmsvMoments(0.6), SearchBudget(max_order=True, max_minor_size=True))
        assert json.dumps(report.as_dict()["budget"]) == (
            '{"max_order": 1, "max_minor_size": 1, "strategy": "both"}')
        for name in ("max_order", "max_minor_size"):
            with pytest.raises(TypeError, match=rf"^{name} must be integers, got 2\.0$"):
                SearchBudget(**{name: 2.0})


class TestBipartition:
    @pytest.mark.parametrize("provider", [
        TmsvMoments(0.6), wstate(0.3), CoherentProductMoments((0.4, 0.2 - 0.1j)),
    ], ids=["tmsv", "wstate", "coherent"])
    def test_scan_returns_the_cut_outcome(self, provider):
        # The eigen-scan strategy reports the scan's own outcome, field for field.
        budget = SearchBudget(strategy="eigen-scan")
        for cut in canonical_bipartitions(provider.modes):
            scan = eigen_negativity_scan(provider, cut)
            assert isinstance(scan, BipartitionOutcome)
            assert scan.as_dict() == probe_bipartition(provider, cut, budget).as_dict()

    def test_squeezed_state_is_npt(self):
        outcome = probe_bipartition(TmsvMoments(0.5), (1,))
        assert outcome.npt
        assert outcome.verdict == "NPT"
        assert outcome.minor.negative
        assert outcome.min_eigenvalue < -1e-3
        assert set(outcome.minor.selection.positions) <= set(range(1, 16))

    def test_separable_state_inconclusive(self):
        outcome = probe_bipartition(CoherentProductMoments((0.4, -0.2j)), (1,))
        assert not outcome.npt
        assert outcome.verdict == "inconclusive"
        assert outcome.minor is None
        assert outcome.min_eigenvalue >= -1e-9

    def test_named_minors_only_strategy(self):
        # The pair-minor catalogue needs four distinct modes, so on two
        # modes the named-minor strategy has nothing to test.
        outcome = probe_bipartition(
            TmsvMoments(0.5), (1,), SearchBudget(strategy="named-minors")
        )
        assert outcome.verdict == "inconclusive"
        assert outcome.min_eigenvalue is None

    def test_named_minors_catch_four_mode_negativity(self):
        outcome = probe_bipartition(
            wstate(0.3), (1,), SearchBudget(strategy="named-minors")
        )
        assert outcome.npt
        assert len(outcome.minor.selection) == 2

    def test_noisy_pair_minors_fade_before_scan_does(self):
        # At this noise level every 2x2 pair minor is already nonnegative,
        # while the order-2 eigenvalue scan still finds a witness.
        prov = wstate(0.9, nbar=0.05)
        named_only = probe_bipartition(
            prov, (1,), SearchBudget(strategy="named-minors")
        )
        assert named_only.verdict == "inconclusive"
        scanned = probe_bipartition(prov, (1,), SearchBudget(strategy="eigen-scan"))
        assert scanned.npt
        assert scanned.min_eigenvalue < -1e-3

    def test_scan_gate(self, monkeypatch):
        # The witness search runs only below -SCAN_TOL; the minimum
        # eigenvalue is reported either way.
        monkeypatch.setattr("ptmoments.matrix.SCAN_TOL", 1.0)
        outcome = probe_bipartition(TmsvMoments(0.5), (1,))
        assert outcome.verdict == "inconclusive"
        assert outcome.minor is None
        assert outcome.min_eigenvalue < -1e-3

    def test_accepts_transposition_set(self):
        outcome = probe_bipartition(
            TmsvMoments(0.5), TranspositionSet.of(2, 1), None
        )
        assert outcome.npt
        assert outcome.transposition == TranspositionSet.of(2, 1)

    @pytest.mark.parametrize("member", [2, 5])
    def test_cut_over_other_mode_count_refused(self, member):
        # Refused by mode count whether or not the members fit the state's modes.
        with pytest.raises(ValueError, match="^cut over 6 modes given for 4 modes$"):
            probe_bipartition(wstate(0.3), TranspositionSet.of(6, member))

    def test_as_dict(self):
        doc = probe_bipartition(TmsvMoments(0.5), (1,)).as_dict()
        assert set(doc) == {"I", "verdict", "minor", "min_eigenvalue"}
        assert doc["I"] == [1]
        assert doc["verdict"] == "NPT"
        assert doc["minor"]["verdict"] == "negative"


class TestCertifyFull:
    def test_entangled_state_certified(self):
        report = certify_full(wstate(0.3))
        assert report.certificate
        assert report.modes == 4
        assert len(report.outcomes) == 7
        assert [str(o.transposition) for o in report.outcomes] == [
            "{1}",
            "{2}",
            "{3}",
            "{1,2}",
            "{1,3}",
            "{2,3}",
            "{1,2,3}",
        ]
        assert all(o.npt for o in report.outcomes)
        # With all bipartitions NPT, every separability class with at least
        # two parts is excluded.
        assert len(report.excluded) == 14
        assert {str(d) for d in report.excluded} == {
            str(d) for d in all_decompositions(4)
        }

    def test_vacuum_refused(self):
        report = certify_full(CoherentProductMoments((0.0,) * 4))
        assert not report.certificate
        assert all(o.verdict == "inconclusive" for o in report.outcomes)
        assert report.excluded == ()
        assert "separability" in report.note

    def test_negative_eigenvalues_without_witness_refused(self):
        # At |alpha| = 0.1, nbar = 0.035 every cut's scan matrix has a clearly
        # negative eigenvalue, but no Schur extension of an eigenvector prefix
        # of at most six rows has a negative determinant.
        prov = wstate(0.1, nbar=0.035)
        for cut in canonical_bipartitions(4):
            scan = eigen_negativity_scan(prov, cut, max_order=2)
            assert scan.min_eigenvalue < -1e-4
            assert scan.witness is None
        report = certify_full(prov)
        assert not report.certificate
        assert report.excluded == ()
        for outcome in report.outcomes:
            assert outcome.verdict == "inconclusive"
            assert outcome.min_eigenvalue < -1e-4

    def test_two_mode_squeezing_certified(self):
        report = certify_full(TmsvMoments(0.2))
        assert report.certificate
        assert len(report.outcomes) == 1
        assert [str(d) for d in report.excluded] == ["{1|2}"]

    def test_partially_separable_state(self):
        # Squeezed modes 1-2 with a vacuum third mode: cuts isolating mode 1
        # or mode 2 are NPT, the 12|3 cut is not, and exactly the
        # decompositions refuted by the NPT cuts are excluded.
        vac = np.zeros(6, dtype=complex)
        vac[0] = 1.0
        oracle = FockStateMoments(np.kron(tmsv_vector(0.5, 18), vac), (18, 18, 6))
        report = certify_full(oracle)
        verdicts = {str(o.transposition): o.verdict for o in report.outcomes}
        assert verdicts == {
            "{1}": "NPT",
            "{2}": "NPT",
            "{1,2}": "inconclusive",
        }
        assert not report.certificate
        assert {str(d) for d in report.excluded} == {"{1|2,3}", "{1,3|2}"}

    @pytest.mark.parametrize(
        "modes,order,count",
        [(2, 2, 40), (3, 2, 30), (4, 2, 20), (2, 3, 30), (3, 3, 10), (2, 4, 40), (3, 4, 8)],
    )
    def test_separable_mixtures_never_npt(self, modes, order, count):
        # Mixtures of coherent product states are separable across every cut,
        # so no amplitude up to |gamma| = 30 (40 at order 4, where Hermitian
        # partners differ by more than 1e-6 in rounding alone) may give an NPT verdict.
        rng = np.random.default_rng(100 * modes + order)
        budget = SearchBudget(max_order=order)
        amplitude = 40.0 if order == 4 else 30.0
        for _ in range(count):
            report = certify_full(random_coherent_mixture(rng, modes, amplitude), budget)
            assert not any(outcome.npt for outcome in report.outcomes)

    @pytest.mark.parametrize("modes,order,count", [(2, 2, 20), (3, 2, 8), (2, 3, 10)])
    def test_separable_density_mixtures_never_npt(self, modes, order, count):
        # Mixed, not just coherent, separable states, through the Fock density path;
        # an order-k scan reads moments of weight 2k, exact at cutoff 2k + 1.
        rng = np.random.default_rng(1000 + 100 * modes + order)
        cutoffs = (2 * order + 1,) * modes
        budget = SearchBudget(max_order=order)
        for _ in range(count):
            rho = random_product_mixture(rng, modes, cutoffs[0])
            report = certify_full(FockStateMoments(rho, cutoffs), budget)
            assert not any(outcome.npt for outcome in report.outcomes)

    # Today's verdicts on strong squeezing, pinned so that a change of the negativity
    # rule shows here: see CHANGES.md, FOUND "strong squeezing is never certified".
    @pytest.mark.parametrize("r", [5.0, 10.0])
    def test_strong_squeezing_certified(self, r):
        assert certify_full(TmsvMoments(r)).certificate

    @pytest.mark.parametrize("r,min_eigenvalue", [(15.0, -5.36e12), (20.0, -9.45e18)],
                             ids=["15.0", "20.0"])
    def test_strongest_squeezing_refused(self, r, min_eigenvalue):
        report = certify_full(TmsvMoments(r))
        assert not report.certificate
        (outcome,) = report.outcomes
        assert outcome.verdict == "inconclusive"
        assert outcome.min_eigenvalue == pytest.approx(min_eigenvalue, rel=1e-3)

    def test_as_dict(self):
        doc = certify_full(TmsvMoments(0.4)).as_dict()
        assert set(doc) == {
            "modes",
            "budget",
            "bipartitions",
            "certificate",
            "excluded_decompositions",
            "note",
        }
        assert doc["certificate"] is True
        assert doc["bipartitions"][0]["I"] == [1]
        assert doc["excluded_decompositions"] == ["{1|2}"]


def metamorphic_draw(kind, seed):
    """(builder, per-mode parameters) of one seeded state; the builder takes the list in mode order."""
    rng = np.random.default_rng(seed)
    if kind == "wstate":
        modes = 3 + seed % 2
        alphas = rng.uniform(0.02, 0.9, modes) * np.exp(2j * np.pi * rng.uniform(size=modes))
        nbars = rng.uniform(0.0, 0.05, modes)
        return (lambda params: WStateMoments(WStateParams(*zip(*params))),
                list(zip(alphas.tolist(), nbars.tolist())))
    if kind == "tmsv":
        r = rng.uniform(0.2, 1.0)
        return lambda params: TmsvMoments(r), [None, None]
    modes = 3 + seed % 2
    gammas = rng.uniform(-1.0, 1.0, modes) + 1j * rng.uniform(-1.0, 1.0, modes)
    return CoherentProductMoments, gammas.tolist()


def cut_verdicts(provider):
    """``test_bipartition``'s verdict on every nonempty proper subset of the modes."""
    modes = range(1, provider.modes + 1)
    return {
        frozenset(cut): probe_bipartition(provider, cut).npt
        for size in range(1, provider.modes)
        for cut in itertools.combinations(modes, size)
    }


class TestMetamorphicVerdicts:
    """A verdict belongs to the cut, not to which side is transposed, how modes are
    numbered or which phase each mode carries."""

    @pytest.mark.parametrize(
        "kind,seed",
        [("wstate", seed) for seed in range(1, 9)] + [("tmsv", 9), ("coherent", 10),
                                                      ("coherent", 11)],
    )
    def test_complement_and_relabelling(self, kind, seed):
        build, params = metamorphic_draw(kind, seed)
        verdicts = cut_verdicts(build(params))
        everyone = frozenset(range(1, len(params) + 1))
        # Relabelled mode j + 1 is original mode perm[j] + 1.
        perm = np.random.default_rng(seed).permutation(len(params))
        relabelled = cut_verdicts(build([params[p] for p in perm]))
        for cut, npt in verdicts.items():
            assert verdicts[everyone - cut] == npt, sorted(cut)
            image = frozenset(j + 1 for j, p in enumerate(perm) if p + 1 in cut)
            assert relabelled[image] == npt, (sorted(cut), perm)

    @staticmethod
    def assert_same_outcomes(provider, rotated):
        """Same verdict and witness on every cut, and the same least eigenvalue
        within 1e-12 of max(1, |value|); the identity entry 1 bounds the norm below."""
        for one, two in zip(certify_full(provider).outcomes, certify_full(rotated).outcomes):
            assert (one.verdict, one.witness) == (two.verdict, two.witness), one.transposition
            assert abs(one.min_eigenvalue - two.min_eigenvalue) <= 1e-12 * max(
                1.0, abs(one.min_eigenvalue)), one.transposition

    @pytest.mark.parametrize(
        "kind,seed",
        [("wstate", seed) for seed in range(1, 9)] + [("coherent", 10), ("coherent", 11)],
    )
    def test_local_phases(self, kind, seed):
        # A phase on each mode's amplitude is a local unitary: it takes every cut's
        # matrix M to D* M D with D diagonal unitary, which keeps every eigenvalue
        # and principal minor.
        build, params = metamorphic_draw(kind, seed)
        phases = np.exp(2j * np.pi * np.random.default_rng(100 + seed).uniform(size=len(params)))
        if kind == "wstate":
            rotated = [(alpha * phase, nbar) for (alpha, nbar), phase in zip(params, phases)]
        else:
            rotated = [gamma * phase for gamma, phase in zip(params, phases)]
        self.assert_same_outcomes(build(params), build(rotated))

    # Every cut is inconclusive at the first two points, after the pair minors ran;
    # (0.2, 0.06) mixes NPT and inconclusive cuts.
    @pytest.mark.parametrize("alpha,nbar", [(0.1, 0.035), (0.45, 0.17), (0.2, 0.06)])
    def test_local_phases_at_symmetric_points(self, alpha, nbar):
        phases = np.exp(2j * np.pi * np.random.default_rng(7).uniform(size=4))
        rotated = WStateMoments(WStateParams(tuple(alpha * phases), (nbar,) * 4))
        self.assert_same_outcomes(wstate(alpha, nbar), rotated)

    @staticmethod
    def negative_counts(provider):
        """Per cut, the order-2 matrix's eigenvalues below -1e-7 of the largest |eigenvalue|."""
        selection = Selection.up_to_weight(provider.modes, 2)
        counts = []
        for cut in canonical_bipartitions(provider.modes):
            eigenvalues = np.linalg.eigvalsh(build_matrix(provider, cut, selection).values)
            counts.append(int(np.sum(eigenvalues < -1e-7 * np.abs(eigenvalues).max())))
        return counts

    @pytest.mark.parametrize("seed,provider", [
        (1, WStateMoments(WStateParams.symmetric(3, 0.4, 0.02))),
        (2, WStateMoments(WStateParams((0.5 + 0.2j, 0.3 - 0.4j, 0.7), (0.01, 0.0, 0.03)))),
        (3, TmsvMoments(0.6)),
        (4, CoherentProductMoments((0.4, 0.2 - 0.1j, -0.3j))),
    ], ids=["wstate-symmetric-noisy", "wstate-unequal", "tmsv", "coherent"])
    def test_displacement_keeps_negative_eigenvalue_count(self, seed, provider):
        # A displacement takes each monomial to itself plus lower-weight ones, on every
        # partial transpose, so each cut's matrix M becomes T^dagger M T with T unit
        # triangular: a congruence, which keeps the count of negative eigenvalues
        # (Sylvester's law of inertia).
        rng = np.random.default_rng(seed)
        counts = self.negative_counts(provider)
        for _ in range(4):
            betas = rng.uniform(-1.0, 1.0, provider.modes) * np.exp(
                2j * np.pi * rng.uniform(size=provider.modes))
            assert self.negative_counts(Displaced(provider, betas)) == counts, betas


class TestExclusion:
    """Excluded decompositions follow from the cut verdicts alone, at any mode count."""

    @staticmethod
    def certify_with_verdicts(monkeypatch, modes, open_cuts):
        def fixed(provider, cut, budget):
            minor = None if cut.members in open_cuts else MinorResult(
                Selection.leading(1), cut, -1.0, 0.0, "negative")
            return BipartitionOutcome(cut, minor, None)

        monkeypatch.setattr("ptmoments.certify.test_bipartition", fixed)
        return certify_full(SimpleNamespace(modes=modes))

    @staticmethod
    def patterns(modes):
        cuts = [cut.members for cut in canonical_bipartitions(modes)]
        if modes <= 4:
            for flags in itertools.product((False, True), repeat=len(cuts)):
                yield {c for c, is_open in zip(cuts, flags) if is_open}
            return
        rng = np.random.default_rng(modes)
        for _ in range(200):
            count = int(rng.integers(0, len(cuts) + 1))
            yield {cuts[i] for i in rng.choice(len(cuts), size=count, replace=False)}

    @pytest.mark.parametrize("modes", [3, 4, 5, 6])
    def test_matches_two_colouring_oracle(self, monkeypatch, modes):
        coarsening = {d: cuts_by_colouring(modes, d.parts) for d in all_decompositions(modes)}
        for open_cuts in self.patterns(modes):
            report = self.certify_with_verdicts(monkeypatch, modes, open_cuts)
            expected = [d for d, cuts in coarsening.items() if cuts.isdisjoint(open_cuts)]
            assert list(report.excluded) == expected
            assert report.certificate == (not open_cuts)

    def test_seven_mode_certificate_excludes_every_splitting(self, monkeypatch):
        report = self.certify_with_verdicts(monkeypatch, 7, set())
        assert report.certificate
        assert len(report.excluded) == 876  # Bell(7) - 1

    def test_report_stores_only_its_outcomes(self, monkeypatch):
        # The certificate and the exclusions are read off the outcomes, so a
        # report cannot state either against them.
        assert [f.name for f in dataclasses.fields(CertificationReport)] == [
            "modes", "budget", "outcomes"]
        report = self.certify_with_verdicts(monkeypatch, 3, {frozenset({1})})
        assert not report.certificate
        assert [str(d) for d in report.excluded] == ["{1,2|3}", "{1,3|2}"]


class TestPairGroups:
    def test_catalogue_shape(self):
        group1, group2 = four_mode_pair_groups()
        assert [str(t) for _, t, _ in group1] == ["{1}", "{2}", "{3}", "{1,2,3}"]
        assert [str(t) for _, t, _ in group2] == ["{1,2}", "{1,3}", "{2,3}"]
        assert all(name == "d1" for name, _, _ in group1)
        assert all(name == "d2" for name, _, _ in group2)
        assert [pairs for _, _, pairs in group1] == [((1, 2), (3, 4))] * 4
        assert [pairs for _, _, pairs in group2] == [
            ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((2, 3), (1, 4))]

    def test_groups_coincide_on_symmetric_state(self):
        prov = wstate(0.45, nbar=0.01)
        group1, group2 = four_mode_pair_groups()
        for group in (group1, group2):
            dets = [
                named_minor(prov, t, pairs).determinant for _, t, pairs in group
            ]
            assert max(dets) - min(dets) < 1e-9

    def test_groups_split_on_asymmetric_state(self):
        params = WStateParams(
            alphas=(0.6, 0.3, 0.3, 0.3), nbars=(0.0,) * 4
        )
        prov = WStateMoments(params)
        group1, _ = four_mode_pair_groups()
        dets = [named_minor(prov, t, pairs).determinant for _, t, pairs in group1]
        assert max(dets) - min(dets) > 1e-6

    def test_both_groups_negative_for_small_amplitudes(self):
        prov = wstate(0.3)
        group1, group2 = four_mode_pair_groups()
        for _, t, pairs in group1 + group2:
            assert named_minor(prov, t, pairs).determinant < 0


class TestSweep:
    @staticmethod
    def factory(alpha, nbar):
        return wstate(alpha, nbar)

    def test_grid_order_and_count(self):
        group1, group2 = four_mode_pair_groups()
        minors = [group1[0], group2[0]]
        rows = sweep(self.factory, [0.0, 0.3], [0.0, 0.01], minors)
        assert len(rows) == 8
        assert [(r.param, r.nbar, r.minor) for r in rows[:4]] == [
            (0.0, 0.0, "d1"),
            (0.0, 0.0, "d2"),
            (0.3, 0.0, "d1"),
            (0.3, 0.0, "d2"),
        ]
        assert rows[4].nbar == 0.01

    def test_vacuum_point_is_zero(self):
        group1, _ = four_mode_pair_groups()
        rows = sweep(self.factory, [0.0], [0.0], [group1[0]])
        assert rows[0].value == pytest.approx(0.0, abs=1e-12)

    def test_noise_weakens_negativity(self):
        group1, _ = four_mode_pair_groups()
        alphas = [0.1 * k for k in range(1, 9)]
        by_nbar = {}
        for nbar in (0.0, 0.01, 0.05):
            rows = sweep(self.factory, alphas, [nbar], [group1[0]])
            by_nbar[nbar] = min(r.value for r in rows)
        assert by_nbar[0.0] < by_nbar[0.01] < by_nbar[0.05]
        assert by_nbar[0.0] < -1e-4

    def test_csv_format(self):
        group1, group2 = four_mode_pair_groups()
        rows = sweep(self.factory, [0.0, 0.25], [0.0], [group1[3], group2[0]])
        text = sweep_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "param,nbar,minor,I,value"
        assert len(lines) == 5
        assert text.endswith("\n")
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "0"
        assert first[2] == "d1"
        assert first[3] == "1+2+3"
        float(first[4])  # parses as a number
        assert lines[2].split(",")[3] == "1+2"

    def test_csv_roundtrip_values(self):
        group1, _ = four_mode_pair_groups()
        rows = sweep(self.factory, [0.4], [0.01], [group1[0]])
        text = sweep_to_csv(rows)
        value = float(text.splitlines()[1].split(",")[4])
        direct = named_minor(wstate(0.4, 0.01), (1,), ((1, 2), (3, 4)))
        assert value == pytest.approx(direct.determinant, rel=1e-11)
