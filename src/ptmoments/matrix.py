"""Moment matrices, principal minors and negativity scans.

A matrix is specified by a selection of 1-based positions into the monomial
sequence and a set of transposed modes.  Entries are normally ordered
expectation values of (row monomial)† (column monomial) taken on the
partially transposed state; negativity of any principal minor of any such
matrix rules out separability across the corresponding bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MomentDataError,
    NumericError,
    ResourceLimitError,
)
from .moments import _sig12
from .multiindex import MonomialIndex, _index, count_up_to_weight, packed_positions, position_of
from .operator_algebra import plan_for
from .transpositions import TranspositionSet, _as_transposition

#: relative scale for calling a determinant negative
DET_TOL_SCALE = 1e-10

#: largest entry-wise Hermiticity defect accepted from moment data, plus
#: HERMITICITY_ULPS rounding units of the largest entry's summed |terms|
HERMITICITY_TOL = 1e-6
HERMITICITY_ULPS = 64

#: ceiling on the full scan matrix dimension
SIZE_CAP = 2000

#: the scan seeks a witness only when its minimum eigenvalue is below -SCAN_TOL
SCAN_TOL = 1e-9


@dataclass(frozen=True)
class Selection:
    """Strictly increasing 1-based positions into the monomial sequence."""

    positions: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(_index(p, "positions") for p in self.positions)
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise ValueError("selection must contain at least one position")
        if positions[0] < 1:
            raise ValueError("positions are 1-based")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("positions must be strictly increasing")

    @classmethod
    def leading(cls, size: int) -> "Selection":
        return cls(tuple(range(1, size + 1)))

    @classmethod
    def up_to_weight(cls, modes: int, max_order: int) -> "Selection":
        return cls.leading(count_up_to_weight(2 * modes, max_order))

    def __len__(self):
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.positions) + "}"


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Hermitized matrix of partially transposed moments over a selection."""

    selection: Selection
    transposition: TranspositionSet
    values: np.ndarray
    provenance: str
    hermiticity_residual: float
    #: how far an entry may lie from the state's own value, given the data's tolerance
    uncertainty: float = 0.0


@dataclass(frozen=True)
class MinorResult:
    """Determinant of one principal minor together with its verdict."""

    selection: Selection
    transposition: TranspositionSet
    determinant: float
    imag_residual: float
    verdict: str  # "negative" | "nonnegative"

    @property
    def negative(self) -> bool:
        return self.verdict == "negative"

    def as_dict(self) -> dict:
        return {
            "I": sorted(self.transposition.members),
            "R": list(self.selection.positions),
            "det": _sig12(self.determinant),
            "imag_residual": _sig12(self.imag_residual),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class BipartitionOutcome:
    """Verdict for one transposition set with its best witness, if any."""

    transposition: TranspositionSet
    minor: MinorResult | None  # a negative minor, the cut's witness
    min_eigenvalue: float | None

    @property
    def npt(self) -> bool:
        return self.minor is not None

    @property
    def verdict(self) -> str:
        return "NPT" if self.npt else "inconclusive"

    @property
    def witness(self) -> Selection | None:
        return None if self.minor is None else self.minor.selection

    def as_dict(self) -> dict:
        return {
            "I": sorted(self.transposition.members),
            "verdict": self.verdict,
            "minor": self.minor.as_dict() if self.minor else None,
            "min_eigenvalue": None if self.min_eigenvalue is None else _sig12(self.min_eigenvalue),
        }


# Overflow is refused by name where it matters, so numpy's warnings about it stay silent.
@np.errstate(over="ignore", invalid="ignore")
def build_matrix(provider, transposed, selection: Selection) -> MomentMatrix:
    """Evaluate the moment matrix for ``selection`` under partial transposition.

    Entries are gathered from the selection's compiled entry plan (see
    :func:`~ptmoments.operator_algebra.plan_for`): the plan's distinct keys
    are ranked with the transposed modes' exponents swapped and their moments
    fetched from the provider in one call.  Both triangles are computed
    independently; an overflowing entry, or a non-finite moment (every plan
    coefficient is a positive integer), raises :class:`NumericError` naming
    the provider.  The Hermiticity defect is recorded, the matrix symmetrized
    as (m + m†)/2, and unresolved moments are reported all at once.  Each
    moment is taken to lie within the provider's ``tolerance`` of the state's
    own (zero for analytic providers), so an entry lies within that times the
    plan's ``spread``: the matrix's ``uncertainty``, which the Hermiticity
    gate allows, with ``HERMITICITY_ULPS`` of rounding, and
    :func:`determinant` weighs.
    """
    modes = provider.modes
    transposed = _as_transposition(transposed, modes)
    plan = plan_for(modes, selection.positions)
    swap = np.arange(2 * modes)
    for mode in transposed.members:
        swap[[2 * mode - 2, 2 * mode - 1]] = [2 * mode - 1, 2 * mode - 2]
    keys = plan.keys[:, swap]
    positions = packed_positions(keys, plan.binomials)
    moments = provider.moments_at(positions, keys)
    # An entry's terms are in an order fixed by its row and column monomials
    # alone, so summing in plan order adds them alike under every selection and cut.
    terms = plan.coefficients * moments[plan.key_index]
    n = len(selection)
    values = np.empty(n * n, dtype=complex)
    values.real = np.bincount(plan.entry, weights=terms.real, minlength=n * n)
    values.imag = np.bincount(plan.entry, weights=terms.imag, minlength=n * n)
    values = values.reshape(n, n)
    if not np.all(np.isfinite(values)):
        raise NumericError(f"matrix entries of {provider.label} overflow")
    residual = float(np.max(np.abs(values - values.conj().T)))
    uncertainty = provider.tolerance * plan.spread
    # Partners summed from large terms may also differ by their rounding.
    magnitude = np.bincount(plan.entry, weights=np.abs(terms), minlength=n * n)
    allowed = (HERMITICITY_TOL + uncertainty
               + HERMITICITY_ULPS * np.finfo(float).eps * float(magnitude.max()))
    if residual > allowed:
        raise MomentDataError(
            f"moment data breaks Hermiticity by {residual:.3e} (> {allowed:.3g})"
        )
    values = (values + values.conj().T) / 2.0
    return MomentMatrix(
        selection=selection,
        transposition=transposed,
        values=values,
        provenance=provider.label,
        hermiticity_residual=residual,
        uncertainty=uncertainty,
    )


@np.errstate(over="ignore", invalid="ignore")
def determinant(matrix: MomentMatrix, indices=None) -> MinorResult:
    """The one rule for every minor: the principal block on the sorted
    ``indices`` (all rows by default) is negative when its determinant is
    below -:func:`negativity_threshold`, which includes the most the
    matrix's ``uncertainty`` can move it.  An overflowing determinant or
    threshold raises :class:`NumericError` naming the matrix's source; so
    does an imaginary part (rounding, for a Hermitian matrix) above both 1e-6
    relative to the real part and the threshold, below which it cannot move
    a verdict.
    """
    selection, block = matrix.selection, matrix.values
    if indices is not None:
        indices = sorted(indices)
        selection = Selection(tuple(selection.positions[i] for i in indices))
        block = block[np.ix_(indices, indices)]
    det = complex(np.linalg.det(block))
    threshold = negativity_threshold(block, matrix.uncertainty)
    if not (np.isfinite(det) and np.isfinite(threshold)):
        raise NumericError(f"a minor of {matrix.provenance} overflows: det {det}, "
                           f"threshold {threshold}")
    imag_residual = abs(det.imag)
    if imag_residual > max(1e-6 * max(1.0, abs(det.real)), threshold):
        raise NumericError(
            f"determinant imaginary part {det.imag:.3e} too large for a Hermitian matrix"
        )
    return MinorResult(
        selection=selection,
        transposition=matrix.transposition,
        determinant=det.real,
        imag_residual=imag_residual,
        verdict="negative" if det.real < -threshold else "nonnegative",
    )


def negativity_threshold(values: np.ndarray, uncertainty: float = 0.0) -> float:
    """Scale-aware determinant tolerance from the diagonal magnitudes, plus
    the most that entries each off by ``uncertainty`` can move the determinant.
    """
    scale = float(np.prod(np.abs(np.diagonal(values))))
    threshold = DET_TOL_SCALE * max(1.0, scale)
    if uncertainty:
        # The determinant is linear in each row, and Hadamard's inequality
        # bounds every term of that expansion by a product of row norms.
        norms = np.linalg.norm(values, axis=1)
        error = uncertainty * np.sqrt(len(norms))
        threshold += float(np.prod(norms + error) - np.prod(norms))
    return threshold


def principal_minor(provider, transposed, selection: Selection) -> MinorResult:
    """Build the selected matrix and take its determinant in one step."""
    return determinant(build_matrix(provider, transposed, selection))


def eigen_negativity_scan(provider, transposed, max_order: int = 2, *,
                          tol: float = SCAN_TOL, max_minor_size: int = 6) -> BipartitionOutcome:
    """Search the full weight-capped matrix for negativity, with witness.

    The matrix over all monomials of weight at most ``max_order`` is
    diagonalized; if the minimum eigenvalue is below ``-tol``, a compact
    negative principal minor is sought along the eigenvector's weight order,
    with weights that agree to ``DET_TOL_SCALE`` taken in position order:
    each prefix is extended by its most negative Schur-complement column,
    and the first negative extension, of at most ``max_minor_size`` rows, is
    greedily shrunk.  The cut is NPT exactly when such an extension exists;
    its minor is the last block of the scanned matrix the search judged negative.
    """
    max_order = _index(max_order, "max_order")
    max_minor_size = _index(max_minor_size, "max_minor_size")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if max_minor_size < 1:
        raise ValueError("max_minor_size must be >= 1")
    size = count_up_to_weight(2 * provider.modes, max_order)
    if size > SIZE_CAP:
        raise ResourceLimitError(
            f"scan matrix would be {size}x{size}, above the cap {SIZE_CAP}"
        )
    matrix = build_matrix(provider, transposed, Selection.leading(size))
    eigenvalues, vectors = np.linalg.eigh(matrix.values)
    min_eigenvalue = float(eigenvalues[0])
    minor = None
    if min_eigenvalue < -tol:
        minor = _extract_witness(matrix, vectors[:, 0], max_minor_size)
    return BipartitionOutcome(matrix.transposition, minor, min_eigenvalue)


@np.errstate(over="ignore", invalid="ignore")
def _extract_witness(matrix: MomentMatrix, vector: np.ndarray,
                     max_minor_size: int) -> MinorResult | None:
    """The negative minor the search along ``vector``'s weight order ends on, or None.

    Rows are taken by weight in ``vector``, weights within ``DET_TOL_SCALE`` in
    position order, and each prefix, the empty one first, is extended by the
    column whose Schur complement against the prefix block is most negative:
    with a positive prefix determinant that flips the sign, and it picks up
    anchor rows carrying little eigenvector weight (typically the identity
    row).  Schur values within ``DET_TOL_SCALE * |min|`` of the minimum tie,
    and the lowest index wins.  The first extension :func:`determinant` calls
    negative is shrunk.
    """
    weight = np.abs(vector)
    heaviest = np.argsort(-weight, kind="stable")
    # A tie group ends wherever the sorted weights drop by more than the tolerance.
    group = np.cumsum(np.diff(weight[heaviest], prepend=weight[heaviest[0]]) < -DET_TOL_SCALE)
    order = heaviest[np.lexsort((heaviest, group))].tolist()
    diagonal = np.real(np.diagonal(matrix.values))
    for k in range(min(len(order), max_minor_size)):
        prefix = np.array(order[:k], dtype=int)
        rows = matrix.values[prefix, :]
        try:
            solved = np.linalg.solve(matrix.values[np.ix_(prefix, prefix)], rows)
        except np.linalg.LinAlgError:
            continue
        schur = diagonal - np.real(np.sum(rows.conj() * solved, axis=0))
        schur[prefix] = np.inf
        low = schur.min()
        if not np.isfinite(low):
            raise NumericError(f"a minor of {matrix.provenance} overflows: Schur {low}")
        best = int(np.argmax(schur <= low + DET_TOL_SCALE * abs(low)))
        candidate = order[:k] + [best]
        if low < 0.0 and (minor := determinant(matrix, candidate)).negative:
            return _greedy_shrink(matrix, candidate, minor)
    return None


def _greedy_shrink(matrix: MomentMatrix, indices: list[int], minor: MinorResult) -> MinorResult:
    """Drop members of ``indices``, judged ``minor``, while the minor stays negative."""
    while len(indices) > 1:
        for drop in reversed(range(len(indices))):
            trial = indices[:drop] + indices[drop + 1:]
            if (result := determinant(matrix, trial)).negative:
                indices, minor = trial, result
                break
        else:
            break
    return minor


def named_minor(provider, transposed, pairs) -> MinorResult:
    """2x2 minor for the two-annihilator pair combination ((i,j),(k,l)).

    Rows are the positions of the monomials a_i a_j and a_k a_l; the
    determinant tests whether c1 a_i a_j + c2 a_k a_l can expose negativity
    of the partially transposed state.
    """
    (i, j), (k, l) = pairs
    modes = provider.modes
    if len({i, j, k, l}) != 4:
        raise ValueError(f"pair modes must be distinct, got {(i, j, k, l)}")
    if not {i, j, k, l} <= set(range(1, modes + 1)):
        raise ValueError(f"pair modes must lie in 1..{modes}")
    # Each row annihilates once in each of its pair's modes and creates nothing.
    rows = (MonomialIndex(tuple((0, int(m in pair)) for m in range(1, modes + 1)))
            for pair in pairs)
    selection = Selection(tuple(sorted(position_of(row) for row in rows)))
    return principal_minor(provider, transposed, selection)

