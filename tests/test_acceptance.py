"""Acceptance gates for the package's core guarantees.

Each test function is one pass/fail gate over an end-to-end behaviour, run at
a fixed tolerance and within a fixed wall-clock budget:

1. monomial indexing — the canonical positions of the pairwise products and
   the two-variable closed form of the graded enumeration;
2. two-mode squeezing — the fifth-order minor under one-mode transposition
   equals the known Gaussian negativity and is confirmed by an independent
   dense-matrix oracle with explicit partial transposition;
3. entry evaluation — symbolically transposed matrix entries agree with
   direct operator traces on random truncated-Fock states;
4. complement symmetry — transposing a mode subset or its complement gives
   the same minor determinants;
5. four-mode bright-state certification and its noise trends;
6. physicality — untransposed minors are exhaustively nonnegative for every
   built-in moment provider;
7. witness soundness — every reported witness survives being rebuilt from a
   serialized moment table alone.

The oracles live in ``conftest.py`` and recompute everything from dense
matrix algebra, independent of the package's normal-ordering machinery.
"""

from __future__ import annotations

import io
import math
import time

import numpy as np
import pytest

from conftest import (
    density_of,
    direct_pt_entry,
    evaluate_terms,
    explicit_pt,
    min_principal_minor,
    padded_random_state,
    pt_trace,
    random_monomial,
    selection_of,
    tmsv_vector,
)
from ptmoments import (
    CoherentProductMoments,
    FockStateMoments,
    MonomialIndex,
    SearchBudget,
    Selection,
    TmsvMoments,
    TranspositionSet,
    WStateMoments,
    WStateParams,
    build_matrix,
    canonical_bipartitions,
    certify_full,
    entry_expression_pt,
    four_mode_pair_groups,
    load_moment_table,
    moment_table_to_json,
    monomial_at,
    named_minor,
    nth_multiindex,
    position_of,
    principal_minor,
    table_from_provider,
)
from ptmoments import test_bipartition as probe_bipartition


def test_pair_positions_and_two_variable_closed_form():
    """Gate 1: canonical pair positions and the exact graded enumeration."""
    start = time.perf_counter()

    pair_labels = {
        13: "a1 a2",
        20: "a1 a3",
        22: "a2 a3",
        31: "a1 a4",
        33: "a2 a4",
        35: "a3 a4",
    }
    for position, label in pair_labels.items():
        assert str(monomial_at(4, position)) == label
        assert position_of(MonomialIndex.parse(label, 4)) == position

    # Two variables admit a closed form: weight block w starts at position
    # w(w+1)/2 + 1 and walks (w,0), (w-1,1), ..., (0,w).
    for n in range(1, 501):
        w = 0
        while (w + 1) * (w + 2) // 2 + 1 <= n:
            w += 1
        j = n - (w * (w + 1) // 2 + 1)
        assert nth_multiindex(2, n) == (w - j, j)

    assert time.perf_counter() - start < 1.0


def test_two_mode_squeezing_minor_matches_fock_oracle():
    """Gate 2: fifth-order transposed minor reproduces -sinh^2 r cosh^2 r."""
    start = time.perf_counter()
    leading5 = Selection.leading(5)

    for r, cutoff, oracle_tol in ((0.1, 12, 1e-10), (0.5, 25, 1e-10), (1.0, 48, 1e-8)):
        target = -math.sinh(r) ** 2 * math.cosh(r) ** 2
        provider = TmsvMoments(r)

        transposed = principal_minor(provider, (2,), leading5)
        assert transposed.determinant == pytest.approx(target, rel=1e-8)
        assert transposed.negative

        untouched = principal_minor(provider, (), leading5)
        assert untouched.determinant >= -1e-9

        # Independent confirmation: dense density matrix, partial transpose
        # as an explicit index swap, operator products multiplied out.
        rho = density_of(tmsv_vector(r, cutoff))
        cutoffs = (cutoff, cutoff)
        rho_pt = explicit_pt(rho, cutoffs, {2})
        rows = [monomial_at(2, p) for p in range(1, 6)]
        oracle = np.empty((5, 5), dtype=complex)
        for i in range(5):
            for j in range(i, 5):
                oracle[i, j] = pt_trace(rho_pt, cutoffs, rows[i], rows[j])
                oracle[j, i] = oracle[i, j].conjugate()
        assert np.linalg.det(oracle).real == pytest.approx(target, rel=oracle_tol)

    assert time.perf_counter() - start < 5.0


def test_transposed_entries_match_direct_traces_on_random_states():
    """Gate 3: 200 random symbolic entries vs dense-trace evaluation."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260815)
    checked = 0

    while checked < 200:
        modes = int(rng.integers(2, 4))
        support = tuple(int(rng.integers(2, 4)) for _ in range(modes))
        vec, cutoffs = padded_random_state(rng, support)
        provider = FockStateMoments(vec, cutoffs)
        rho = density_of(vec)
        for _ in range(20):
            row = random_monomial(rng, modes, max_weight=3)
            col = random_monomial(rng, modes, max_weight=3)
            members = {m for m in range(1, modes + 1) if rng.random() < 0.5}
            transposed = TranspositionSet(modes, members)
            entry = evaluate_terms(entry_expression_pt(row, col, transposed), provider)
            direct = direct_pt_entry(rho, cutoffs, row, col, members)
            assert entry == pytest.approx(direct, abs=1e-8 * max(1.0, abs(direct)))
            checked += 1

    assert checked >= 200
    assert time.perf_counter() - start < 30.0


def test_minor_determinants_equal_under_complement_transposition():
    """Gate 4: transposing a subset or its complement gives the same minors."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    oracle_vec, oracle_cutoffs = padded_random_state(rng, (3, 2, 2))
    providers = [
        CoherentProductMoments((0.2 + 0.1j, -0.3 + 0.05j)),
        TmsvMoments(0.7),
        WStateMoments(WStateParams((0.5, 0.35, 0.3), (0.0, 0.0, 0.0))),
        WStateMoments(WStateParams.symmetric(4, 0.3, 0.0)),
        WStateMoments(WStateParams((0.4, 0.25), (0.01, 0.02))),
        FockStateMoments(oracle_vec, oracle_cutoffs),
    ]

    for provider in providers:
        modes = provider.modes
        dimension = len(Selection.up_to_weight(modes, 2))
        for _ in range(6):
            size = int(rng.integers(1, 7))
            positions = 1 + rng.choice(dimension, size=min(size, dimension), replace=False)
            selection = selection_of(*(int(p) for p in positions))
            members = set()
            while not members or len(members) == modes:
                members = {m for m in range(1, modes + 1) if rng.random() < 0.5}
            complement = set(range(1, modes + 1)) - members

            one = principal_minor(provider, members, selection).determinant
            other = principal_minor(provider, complement, selection).determinant
            assert one == pytest.approx(other, abs=1e-9 * max(1.0, abs(one)))

    assert time.perf_counter() - start < 30.0


def test_four_mode_bright_state_certification_and_noise_trends():
    """Gate 5: full certification at |alpha|=0.3 plus the noise behaviour."""
    start = time.perf_counter()

    bright = certify_full(WStateMoments(WStateParams.symmetric(4, 0.3, 0.0)))
    assert bright.certificate is True
    assert len(bright.outcomes) == 7
    for outcome in bright.outcomes:
        assert outcome.verdict == "NPT"
        assert outcome.minor is not None and outcome.minor.determinant < 0

    dark = certify_full(WStateMoments(WStateParams.symmetric(4, 0.0, 0.0)))
    assert dark.certificate is False
    assert dark.excluded == ()

    group1, group2 = four_mode_pair_groups()
    alphas = np.linspace(0.05, 1.0, 20)

    def curve(entry, nbar):
        name, transposed, pairs = entry
        return [
            named_minor(
                WStateMoments(WStateParams.symmetric(4, alpha, nbar)), transposed, pairs
            ).determinant
            for alpha in alphas
        ]

    # (a) both minor families are negative on a nonempty amplitude interval
    # in the noiseless case.
    for entry in (group1[0], group2[0]):
        values = curve(entry, 0.0)
        negative = [v < -1e-8 for v in values]
        assert any(a and b for a, b in zip(negative, negative[1:]))

    # (b) thermal noise only weakens the first family's best negativity.
    minima = [min(curve(group1[0], nbar)) for nbar in (0.0, 0.01, 0.05)]
    assert minima[0] < -1e-4
    assert minima[0] <= minima[1] <= minima[2]

    # (c) within each family the minors coincide on the symmetric state.
    for group in four_mode_pair_groups():
        for alpha, nbar in ((0.3, 0.0), (0.45, 0.01)):
            provider = WStateMoments(WStateParams.symmetric(4, alpha, nbar))
            values = [
                named_minor(provider, transposed, pairs).determinant
                for _, transposed, pairs in group
            ]
            assert max(values) - min(values) <= 1e-9

    assert time.perf_counter() - start < 120.0


def test_untransposed_minors_stay_nonnegative_exhaustively():
    """Gate 6: every built-in provider passes the exhaustive physicality sweep."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    oracle_vec, oracle_cutoffs = padded_random_state(rng, (3, 3))

    providers = [
        CoherentProductMoments((0.2 + 0.1j, 0.3 - 0.2j)),
        TmsvMoments(0.6),
        WStateMoments(WStateParams((0.5, 0.35, 0.3), (0.0, 0.0, 0.0))),
        WStateMoments(WStateParams.symmetric(4, 0.3, 0.0)),
        WStateMoments(WStateParams((0.4, 0.25), (0.01, 0.02))),
        FockStateMoments(oracle_vec, oracle_cutoffs),
    ]

    for provider in providers:
        matrix = build_matrix(provider, (), Selection.up_to_weight(provider.modes, 2))
        worst, where = min_principal_minor(matrix.values, 5)
        assert worst >= -1e-9, (provider.label, worst, where)

    assert time.perf_counter() - start < 60.0


def test_witnesses_rebuild_from_serialized_moment_tables():
    """Gate 7: NPT witnesses survive the JSON round trip and stay small."""
    start = time.perf_counter()
    budget = SearchBudget()

    cases = [
        TmsvMoments(0.6),
        WStateMoments(WStateParams.symmetric(3, 0.35, 0.0)),
        WStateMoments(WStateParams.symmetric(4, 0.3, 0.0)),
    ]

    for provider in cases:
        table = table_from_provider(provider, 2 * budget.max_order)
        rebuilt = load_moment_table(io.StringIO(moment_table_to_json(table)))

        npt_count = 0
        for cut in canonical_bipartitions(provider.modes):
            outcome = probe_bipartition(rebuilt, cut, budget)
            if outcome.verdict != "NPT":
                continue
            npt_count += 1
            minor = outcome.minor
            assert len(minor.selection) <= budget.max_minor_size

            again = principal_minor(rebuilt, cut, minor.selection)
            assert again.negative
            assert again.determinant == pytest.approx(minor.determinant, rel=1e-9)

        assert npt_count == len(canonical_bipartitions(provider.modes))

    assert time.perf_counter() - start < 30.0
