"""Entanglement test orchestration.

A bipartition is probed for negativity of the partially transposed moment
matrix within a search budget; full multipartite entanglement is certified
when every canonical bipartition tests NPT.  Because the moment hierarchy is
only complete in the infinite-order limit, the opposite outcome is always
reported as "inconclusive", never as separability.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace

from . import matrix
from .matrix import BipartitionOutcome, eigen_negativity_scan, named_minor
from .multiindex import _index
from .transpositions import (
    Decomposition,
    TranspositionSet,
    _as_transposition,
    all_decompositions,
    canonical_bipartitions,
    coarsens,
)

#: witness searches a budget may run; "both" tries the eigen-scan, then the pair minors
STRATEGIES = ("eigen-scan", "named-minors", "both")


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on the negativity search: weight cap, witness size, strategy."""

    max_order: int = 2
    max_minor_size: int = 6
    strategy: str = "both"

    def __post_init__(self):
        for name in ("max_order", "max_minor_size"):
            object.__setattr__(self, name, _index(getattr(self, name), name, 1))
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CertificationReport:
    """Full-entanglement certification summary across all bipartitions.

    The certificate and the excluded decompositions are read off the
    outcomes.  A state separable over a mode decomposition has a
    non-negative partial transpose across every cut that coarsens it, so the
    excluded separability classes are the decompositions (with at least two
    parts) that no inconclusive cut coarsens.  With the certificate in hand
    that is every decomposition.  The rule holds at every mode count.
    """

    modes: int
    budget: SearchBudget
    outcomes: tuple[BipartitionOutcome, ...]
    note = ("inconclusive bipartitions mean no negativity was found within the "
            "finite search budget; this never implies separability")

    @property
    def certificate(self) -> bool:
        return all(outcome.npt for outcome in self.outcomes)

    @property
    def excluded(self) -> tuple[Decomposition, ...]:
        open_cuts = [o.transposition for o in self.outcomes if not o.npt]
        return tuple(
            decomposition for decomposition in all_decompositions(self.modes)
            if not any(coarsens(cut, decomposition) for cut in open_cuts)
        )

    def as_dict(self) -> dict:
        return {
            "modes": self.modes,
            "budget": self.budget.as_dict(),
            "bipartitions": [outcome.as_dict() for outcome in self.outcomes],
            "certificate": self.certificate,
            "excluded_decompositions": [str(d) for d in self.excluded],
            "note": self.note,
        }


def test_bipartition(provider, transposed,
                     budget: SearchBudget | None = None) -> BipartitionOutcome:
    """Search one transposition set for a negative principal minor."""
    budget = budget or SearchBudget()
    transposed = _as_transposition(transposed, provider.modes)
    outcome = BipartitionOutcome(transposed, None, None)
    if budget.strategy in ("eigen-scan", "both"):
        outcome = eigen_negativity_scan(
            provider,
            transposed,
            budget.max_order,
            # Read per call, so the gate is the module's SCAN_TOL at run time.
            tol=matrix.SCAN_TOL,
            max_minor_size=budget.max_minor_size,
        )
        if outcome.npt:
            return outcome
    # Pair rows are weight-2 monomials, which a budget below order 2 does not reach.
    if (budget.strategy in ("named-minors", "both") and budget.max_minor_size >= 2
            and budget.max_order >= 2):
        for pairs in _pair_combinations(provider.modes):
            result = named_minor(provider, transposed, pairs)
            if result.negative:
                return replace(outcome, minor=result)
    return outcome


def _pair_combinations(modes: int):
    """All ((i,j),(k,l)) with four distinct modes, deterministic order."""
    for quad in itertools.combinations(range(1, modes + 1), 4):
        a, b, c, d = quad
        yield (a, b), (c, d)
        yield (a, c), (b, d)
        yield (a, d), (b, c)


def certify_full(provider, budget: SearchBudget | None = None) -> CertificationReport:
    """Test every canonical bipartition and report the outcomes."""
    budget = budget or SearchBudget()
    outcomes = tuple(
        test_bipartition(provider, cut, budget)
        for cut in canonical_bipartitions(provider.modes)
    )
    return CertificationReport(provider.modes, budget, outcomes)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated minor at one grid point of a parameter sweep."""

    param: float
    nbar: float
    minor: str
    transposition: TranspositionSet
    value: float


def sweep(provider_factory, params, nbars, minors) -> list[SweepPoint]:
    """Evaluate named minors over a (parameter, noise) grid, in grid order.

    ``provider_factory(param, nbar)`` must return a moment provider;
    ``minors`` is a sequence of (name, transposition, pairs) entries as
    produced by :func:`four_mode_pair_groups`.
    """
    rows = []
    for nbar in nbars:
        for param in params:
            provider = provider_factory(param, nbar)
            for name, transposed, pairs in minors:
                result = named_minor(provider, transposed, pairs)
                rows.append(
                    SweepPoint(float(param), float(nbar), name,
                               result.transposition, result.determinant)
                )
    return rows


def sweep_to_csv(rows) -> str:
    """Render sweep rows as CSV with a fixed header and 12-digit floats."""
    lines = ["param,nbar,minor,I,value"]
    for row in rows:
        members = "+".join(str(m) for m in sorted(row.transposition.members))
        lines.append(
            f"{row.param:.12g},{row.nbar:.12g},{row.minor},{members},{row.value:.12g}"
        )
    return "\n".join(lines) + "\n"


def four_mode_pair_groups():
    """The two symmetry groups of pair minors for four modes.

    The first group (one transposed mode, or three, each on the pairs
    ((1,2),(3,4))) and the second group (two transposed modes, paired with
    the other two) each consist of minors that coincide on the
    permutation-symmetric state.
    """
    cuts = canonical_bipartitions(4)
    group1 = [("d1", cut, ((1, 2), (3, 4))) for cut in cuts if len(cut.members) % 2]
    group2 = [("d2", cut, tuple(tuple(sorted(side.members)) for side in (cut, cut.complement())))
              for cut in cuts if len(cut.members) == 2]
    return group1, group2
