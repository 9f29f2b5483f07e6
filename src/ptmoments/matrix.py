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
from .multiindex import (
    MonomialIndex,
    count_up_to_weight,
    monomial_at,
    packed_positions,
    position_of,
)
from .operator_algebra import plan_for
from .transpositions import TranspositionSet

#: relative scale for calling a determinant negative
DET_TOL_SCALE = 1e-10

#: largest entry-wise Hermiticity defect accepted from moment data
HERMITICITY_TOL = 1e-6

#: ceiling on the full scan matrix dimension
SIZE_CAP = 2000

#: the scan seeks a witness only when its minimum eigenvalue is below -SCAN_TOL
SCAN_TOL = 1e-9


@dataclass(frozen=True)
class Selection:
    """Strictly increasing 1-based positions into the monomial sequence."""

    positions: tuple[int, ...]

    def __post_init__(self):
        positions = tuple(int(p) for p in self.positions)
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

    def monomials(self, modes: int) -> tuple[MonomialIndex, ...]:
        return tuple(monomial_at(modes, p) for p in self.positions)

    def labels(self, modes: int) -> tuple[str, ...]:
        return tuple(str(m) for m in self.monomials(modes))

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

    @property
    def size(self) -> int:
        return len(self.selection)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.values)


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
    as (m + m†)/2, and unresolved moments are reported all at once.
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
    # Sum every entry's terms in position order, which keeps matrices bitwise stable.
    order = np.argsort(plan.entry * (int(positions.max()) + 1) + positions[plan.key_index])
    entry = plan.entry[order]
    terms = plan.coefficients[order] * moments[plan.key_index[order]]
    n = len(selection)
    values = np.empty(n * n, dtype=complex)
    values.real = np.bincount(entry, weights=terms.real, minlength=n * n)
    values.imag = np.bincount(entry, weights=terms.imag, minlength=n * n)
    values = values.reshape(n, n)
    label = getattr(provider, "label", "provider")
    if not np.all(np.isfinite(values)):
        raise NumericError(f"matrix entries of {label} overflow")
    residual = float(np.max(np.abs(values - values.conj().T)))
    if residual > HERMITICITY_TOL:
        raise MomentDataError(
            f"moment data breaks Hermiticity by {residual:.3e} (> {HERMITICITY_TOL:.0e})"
        )
    values = (values + values.conj().T) / 2.0
    return MomentMatrix(
        selection=selection,
        transposition=transposed,
        values=values,
        provenance=label,
        hermiticity_residual=residual,
    )


def determinant(matrix: MomentMatrix) -> MinorResult:
    """Real determinant of the matrix with its verdict from :func:`_verdict`.

    The determinant of a Hermitian matrix is real; an imaginary part is
    rounding and is refused only when it is above both 1e-6 relative to the
    real part and the negativity threshold, below which it cannot move a
    verdict.
    """
    det, threshold, negative = _verdict(matrix)
    imag_residual = abs(det.imag)
    if imag_residual > max(1e-6 * max(1.0, abs(det.real)), threshold):
        raise NumericError(
            f"determinant imaginary part {det.imag:.3e} too large for a Hermitian matrix"
        )
    return MinorResult(
        selection=matrix.selection,
        transposition=matrix.transposition,
        determinant=det.real,
        imag_residual=imag_residual,
        verdict="negative" if negative else "nonnegative",
    )


@np.errstate(over="ignore", invalid="ignore")
def _verdict(matrix: MomentMatrix, indices=None) -> tuple[complex, float, bool]:
    """The one rule for every minor: (det, threshold, det.real < -threshold)
    of the principal block on ``indices`` (all rows by default); a value that
    overflows raises :class:`NumericError` naming the matrix's source."""
    block = matrix.values if indices is None else matrix.values[np.ix_(indices, indices)]
    det = complex(np.linalg.det(block))
    threshold = negativity_threshold(block)
    if not (np.isfinite(det) and np.isfinite(threshold)):
        raise NumericError(f"a minor of {matrix.provenance} overflows: det {det}, "
                           f"threshold {threshold}")
    return det, threshold, det.real < -threshold


def negativity_threshold(values: np.ndarray) -> float:
    """Scale-aware determinant tolerance from the diagonal magnitudes."""
    scale = float(np.prod(np.abs(np.diagonal(values))))
    return DET_TOL_SCALE * max(1.0, scale)


def principal_minor(provider, transposed, selection: Selection) -> MinorResult:
    """Build the selected matrix and take its determinant in one step."""
    return determinant(build_matrix(provider, transposed, selection))


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an eigenvalue negativity scan with optional minor witness."""

    min_eigenvalue: float
    witness: Selection | None
    minor: MinorResult | None

    @property
    def negative(self) -> bool:
        return self.minor is not None and self.minor.negative


def eigen_negativity_scan(provider, transposed, max_order: int = 2, *,
                          tol: float = SCAN_TOL, max_minor_size: int = 6) -> ScanResult:
    """Search the full weight-capped matrix for negativity, with witness.

    The matrix over all monomials of weight at most ``max_order`` is
    diagonalized; if the minimum eigenvalue is below ``-tol``, a compact
    negative principal minor is sought along the eigenvector's weight order:
    each prefix is extended by its most negative Schur-complement column,
    and the first negative extension, of at most ``max_minor_size`` rows, is
    greedily shrunk.  With no such extension the witness is None.  The minor
    returned is rebuilt from scratch, so it is independently checkable.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    modes = provider.modes
    transposed = _as_transposition(transposed, modes)
    size = count_up_to_weight(2 * modes, max_order)
    if size > SIZE_CAP:
        raise ResourceLimitError(
            f"scan matrix would be {size}x{size}, above the cap {SIZE_CAP}"
        )
    selection = Selection.leading(size)
    matrix = build_matrix(provider, transposed, selection)
    eigenvalues, vectors = np.linalg.eigh(matrix.values)
    min_eigenvalue = float(eigenvalues[0])
    if min_eigenvalue >= -tol:
        return ScanResult(min_eigenvalue, None, None)
    dominant = np.abs(vectors[:, 0])
    order = sorted(range(size), key=lambda i: (-dominant[i], i))
    indices = _extract_witness(matrix, order, max_minor_size)
    if indices is None:
        return ScanResult(min_eigenvalue, None, None)
    witness = Selection(tuple(sorted(selection.positions[i] for i in indices)))
    minor = principal_minor(provider, transposed, witness)
    return ScanResult(min_eigenvalue, witness, minor)


@np.errstate(over="ignore", invalid="ignore")
def _extract_witness(matrix: MomentMatrix, order: list[int],
                     max_minor_size: int) -> tuple[int, ...] | None:
    """Indices of a small negative principal minor, or None if none found.

    Each prefix of ``order``, the empty one first, is extended by the column
    whose Schur complement against the prefix block is most negative: with a
    positive prefix determinant that flips the sign, and it picks up anchor
    rows carrying little eigenvector weight (typically the identity row).
    The first extension whose determinant is below the threshold is shrunk.
    """
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
        best = int(np.argmin(schur))
        candidate = tuple(order[:k]) + (best,)
        if schur[best] < 0.0 and _verdict(matrix, candidate)[2]:
            return _greedy_shrink(matrix, candidate)
    return None


def _greedy_shrink(matrix: MomentMatrix, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Drop members one at a time while the determinant stays negative."""
    current = list(indices)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for drop in reversed(range(len(current))):
            trial = tuple(current[:drop] + current[drop + 1:])
            if _verdict(matrix, trial)[2]:
                current = list(trial)
                changed = True
                break
    return tuple(current)


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
    rows = [position_of(_pair_monomial(modes, i, j)), position_of(_pair_monomial(modes, k, l))]
    selection = Selection(tuple(sorted(rows)))
    return principal_minor(provider, transposed, selection)


def _pair_monomial(modes: int, i: int, j: int) -> MonomialIndex:
    return MonomialIndex.from_ops(modes, annihilation=(i, j))


def _as_transposition(transposed, modes: int) -> TranspositionSet:
    if isinstance(transposed, TranspositionSet):
        return transposed
    if transposed is None:
        return TranspositionSet.empty(modes)
    return TranspositionSet.of(modes, *transposed)
