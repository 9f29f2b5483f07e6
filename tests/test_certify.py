"""Bipartition testing, full certification, exclusions, and parameter sweeps."""

import math

import numpy as np
import pytest

from ptmoments import (
    CoherentProductMoments,
    Decomposition,
    FockStateMoments,
    SearchBudget,
    TmsvMoments,
    TranspositionSet,
    WStateMoments,
    WStateParams,
    all_decompositions,
    canonical_bipartitions,
    certify_full,
    eigen_negativity_scan,
    fock_tmsv_state,
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


class TestBipartition:
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

    def test_accepts_transposition_set(self):
        outcome = probe_bipartition(
            TmsvMoments(0.5), TranspositionSet.of(2, 1), None
        )
        assert outcome.npt
        assert outcome.transposition == TranspositionSet.of(2, 1)

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
        vec, (c, _) = fock_tmsv_state(0.5, cutoff=18)
        vac = np.zeros(6, dtype=complex)
        vac[0] = 1.0
        oracle = FockStateMoments(np.kron(vec, vac), (c, c, 6))
        report = certify_full(oracle)
        verdicts = {str(o.transposition): o.verdict for o in report.outcomes}
        assert verdicts == {
            "{1}": "NPT",
            "{2}": "NPT",
            "{1,2}": "inconclusive",
        }
        assert not report.certificate
        assert {str(d) for d in report.excluded} == {"{1|2,3}", "{1,3|2}"}

    def test_outcome_for_canonicalizes(self):
        report = certify_full(wstate(0.3))
        outcome = report.outcome_for(TranspositionSet.of(4, 4))
        assert outcome.transposition == TranspositionSet.of(4, 1, 2, 3)
        with pytest.raises(KeyError):
            report.outcome_for(TranspositionSet.empty(4))

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


class TestPairGroups:
    def test_catalogue_shape(self):
        group1, group2 = four_mode_pair_groups()
        assert [str(t) for _, t, _ in group1] == ["{1}", "{2}", "{3}", "{1,2,3}"]
        assert [str(t) for _, t, _ in group2] == ["{1,2}", "{1,3}", "{2,3}"]
        assert all(name == "d1" for name, _, _ in group1)
        assert all(name == "d2" for name, _, _ in group2)

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
