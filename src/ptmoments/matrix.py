"""Moment matrices, principal minors and negativity scans.

A matrix is specified by a selection of 1-based positions into the monomial
sequence and a set of transposed modes.  Entries are normally ordered
expectation values of (row monomial)† (column monomial) taken on the
partially transposed state; negativity of any principal minor of any such
matrix rules out separability across the corresponding bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import MomentDataError, NumericError
from .moments import _sig12
from .multiindex import MonomialIndex, _enumeration, _index, count_up_to_weight, position_of
from .operator_algebra import plan_for
from .transpositions import TranspositionSet, _as_transposition

#: relative scale for calling a determinant negative
DET_TOL_SCALE = 1e-10

#: rounding units of the largest entry's summed |terms| that the Hermiticity
#: gate allows on top of the largest entry's uncertainty, and nothing absolute
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
        positions = tuple(_index(p, "positions", 1) for p in self.positions)
        object.__setattr__(self, "positions", positions)
        if not positions:
            raise ValueError("selection must contain at least one position")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("positions must be strictly increasing")

    @classmethod
    def leading(cls, size: int) -> "Selection":
        return cls(tuple(range(1, _index(size, "size") + 1)))

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
    #: how far each entry may lie from the state's own value
    uncertainty: np.ndarray

    def block(self, indices) -> "MomentMatrix":
        """The principal block on the sorted row ``indices``, a moment matrix of its own."""
        indices = sorted(indices)
        rows, positions = np.ix_(indices, indices), self.selection.positions
        return replace(self, selection=Selection(tuple(positions[i] for i in indices)),
                       values=self.values[rows], uncertainty=self.uncertainty[rows])


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
    :func:`~ptmoments.operator_algebra.plan_for`): the plan ranks its
    distinct keys under the cut and their moments are fetched from the
    provider in one call.  Both triangles are computed
    independently; an overflowing entry, or a non-finite moment (every plan
    coefficient is a positive integer), raises :class:`NumericError` naming
    the provider.  The Hermiticity defect is recorded, the matrix symmetrized
    as (m + m†)/2, and unresolved moments are reported all at once.  Each
    moment is taken to lie within the provider's ``tolerance`` of the state's
    own (zero for analytic providers), so an entry lies within that times its
    coefficient sum: the matrix's ``uncertainty``, which :func:`determinant`
    weighs block by block.  The Hermiticity gate allows its largest entry plus
    ``HERMITICITY_ULPS`` rounding units of the largest summed |terms|, nothing more.
    """
    modes = provider.modes
    transposed = _as_transposition(transposed, modes)
    plan = plan_for(modes, selection.positions)
    positions, keys = plan.cut(transposed.members)
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
    uncertainty = provider.tolerance * np.bincount(
        plan.entry, weights=plan.coefficients, minlength=n * n).reshape(n, n)
    # Partners summed from large terms may also differ by their rounding.
    magnitude = float(np.bincount(plan.entry, weights=np.abs(terms), minlength=n * n).max())
    allowed = float(uncertainty.max()) + HERMITICITY_ULPS * np.finfo(float).eps * magnitude
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
def determinant(matrix: MomentMatrix) -> MinorResult:
    """The one rule for every minor: ``matrix``, whole or a :meth:`~MomentMatrix.block`,
    is negative when its determinant is below -:func:`negativity_threshold` of its
    values and ``uncertainty``.  An overflowing determinant or threshold raises
    :class:`NumericError` naming the matrix's source; so does an imaginary part
    (rounding, for a Hermitian matrix) above both 1e-6 relative to the real part
    and the threshold, below which it cannot move a verdict.
    """
    det = complex(np.linalg.det(matrix.values))
    threshold = negativity_threshold(matrix.values, matrix.uncertainty)
    if not (np.isfinite(det) and np.isfinite(threshold)):
        raise NumericError(f"a minor of {matrix.provenance} overflows: det {det}, "
                           f"threshold {threshold}")
    imag_residual = abs(det.imag)
    if imag_residual > max(1e-6 * abs(det.real), threshold):
        raise NumericError(
            f"determinant imaginary part {det.imag:.3e} too large for a Hermitian matrix"
        )
    return MinorResult(
        selection=matrix.selection,
        transposition=matrix.transposition,
        determinant=det.real,
        imag_residual=imag_residual,
        verdict="negative" if det.real < -threshold else "nonnegative",
    )


def negativity_threshold(values: np.ndarray, uncertainty: np.ndarray) -> float:
    """Scale-aware determinant tolerance plus the most the entries' ``uncertainty`` can move it."""
    scale = float(np.prod(np.abs(np.diagonal(values))))
    threshold = DET_TOL_SCALE * max(1.0, scale)
    if uncertainty.any():  # so exact data adds 0, not inf - inf, where row norms overflow
        # The determinant is linear in each row, and Hadamard's inequality
        # bounds every term of that expansion by a product of row norms.
        norms = np.linalg.norm(values, axis=1)
        threshold += float(np.prod(norms + np.linalg.norm(uncertainty, axis=1)) - np.prod(norms))
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
    greedily shrunk.  Where it finds none, the same search runs on the leading
    blocks of orders ``max_order - 1`` down to 1, sliced from the matrix, until
    one yields a witness or has no eigenvalue below ``-tol`` (by interlacing, no
    smaller block has one then), so a larger budget never loses a cut.  The cut
    is NPT exactly when some search succeeds; its minor is the last block that
    search judged negative.  ``min_eigenvalue`` is the full matrix's.
    """
    max_order = _index(max_order, "max_order", 1)
    max_minor_size = _index(max_minor_size, "max_minor_size", 1)
    size = count_up_to_weight(2 * provider.modes, max_order)
    _enumeration(size, "scan matrix rows", SIZE_CAP)
    matrix = build_matrix(provider, transposed, Selection.leading(size))
    block, minor = matrix, None
    for order in range(max_order, 0, -1):
        if order < max_order:
            block = matrix.block(range(count_up_to_weight(2 * provider.modes, order)))
        eigenvalues, vectors = np.linalg.eigh(block.values)
        if order == max_order:
            min_eigenvalue = float(eigenvalues[0])
        if eigenvalues[0] >= -tol or (minor := _extract_witness(block, vectors[:, 0], max_minor_size)):
            break
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
        if low < 0.0 and (minor := determinant(matrix.block(candidate))).negative:
            return _greedy_shrink(matrix, candidate, minor)
    return None


def _greedy_shrink(matrix: MomentMatrix, indices: list[int], minor: MinorResult) -> MinorResult:
    """Drop members of ``indices``, judged ``minor``, while the minor stays negative."""
    while len(indices) > 1:
        for drop in reversed(range(len(indices))):
            trial = indices[:drop] + indices[drop + 1:]
            if (result := determinant(matrix.block(trial))).negative:
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
    (i, j), (k, l) = pairs = [[_index(m, "pair modes") for m in pair] for pair in pairs]
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

