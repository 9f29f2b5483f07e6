"""Moment matrices, principal minors and negativity scans.

A matrix is specified by a selection of 1-based positions into the monomial
sequence and a set of transposed modes.  Entries are normally ordered
expectation values of (row monomial)† (column monomial) taken on the
partially transposed state; negativity of any principal minor of any such
matrix rules out separability across the corresponding bipartition.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MomentDataError,
    NumericError,
    ResourceLimitError,
    UnresolvedMomentsError,
)
from .multiindex import (
    MonomialIndex,
    count_up_to_weight,
    monomial_at,
    packed_positions,
    position_of,
)
from .operator_algebra import plan_for
from .transpositions import TranspositionSet

#: default relative scale for calling a determinant negative
DET_TOL_SCALE = 1e-10

#: default ceiling on the full scan matrix dimension
SIZE_CAP = 2000


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
    def of(cls, *positions) -> "Selection":
        return cls(tuple(sorted(set(int(p) for p in positions))))

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


def build_matrix(provider, transposed, selection: Selection, *,
                 hermiticity_tol: float = 1e-6) -> MomentMatrix:
    """Evaluate the moment matrix for ``selection`` under partial transposition.

    Entries are gathered from a compiled entry plan (see
    :func:`~ptmoments.operator_algebra.plan_for`) with the transposed modes'
    exponents swapped, and each distinct moment is fetched once.
    Both triangles are computed independently, the Hermiticity defect is
    recorded, and the matrix is symmetrized as (m + m†)/2.  Any moments the
    provider cannot resolve are aggregated into a single error listing every
    missing key.
    """
    modes = provider.modes
    transposed = _as_transposition(transposed, modes)
    plan, rows = plan_for(modes, selection.positions)
    entry, coefficients, keys = plan.select(rows)
    swap = np.arange(2 * modes)
    for mode in transposed.members:
        swap[[2 * mode - 2, 2 * mode - 1]] = [2 * mode - 1, 2 * mode - 2]
    keys = keys[:, swap]
    positions = packed_positions(keys, plan.binomials)
    unique, first, inverse = np.unique(positions, return_index=True, return_inverse=True)
    moments = np.empty(unique.size, dtype=complex)
    missing: list[MonomialIndex] = []
    for i, (position, at) in enumerate(zip(unique.tolist(), first.tolist())):
        key = plan.monomial(position, keys[at])
        try:
            moments[i] = provider.moment(key)
        except UnresolvedMomentsError:
            missing.append(key)
    if missing:
        raise UnresolvedMomentsError(missing)
    # Sum every entry's terms in position order, as MomentExpression.evaluate does.
    order = np.argsort(entry * (int(unique[-1]) + 1) + positions)
    terms = coefficients[order] * moments[inverse[order]]
    n = len(selection)
    values = np.empty(n * n, dtype=complex)
    values.real = np.bincount(entry[order], weights=terms.real, minlength=n * n)
    values.imag = np.bincount(entry[order], weights=terms.imag, minlength=n * n)
    values = values.reshape(n, n)
    residual = float(np.max(np.abs(values - values.conj().T)))
    if residual > hermiticity_tol:
        raise MomentDataError(
            f"moment data breaks Hermiticity by {residual:.3e} (> {hermiticity_tol:.0e})"
        )
    values = (values + values.conj().T) / 2.0
    return MomentMatrix(
        selection=selection,
        transposition=transposed,
        values=values,
        provenance=getattr(provider, "label", "provider"),
        hermiticity_residual=residual,
    )


def determinant(matrix: MomentMatrix, *, tol_det: float | None = None) -> MinorResult:
    """Real determinant of the matrix with verdict at a scale-aware tolerance."""
    values = matrix.values
    if not np.all(np.isfinite(values)):
        raise NumericError("matrix contains non-finite entries")
    det = complex(np.linalg.det(values))
    threshold = negativity_threshold(values) if tol_det is None else tol_det
    imag_residual = abs(det.imag)
    if imag_residual > 1e-6 * max(1.0, abs(det.real)):
        raise NumericError(
            f"determinant imaginary part {det.imag:.3e} too large for a Hermitian matrix"
        )
    verdict = "negative" if det.real < -threshold else "nonnegative"
    return MinorResult(
        selection=matrix.selection,
        transposition=matrix.transposition,
        determinant=det.real,
        imag_residual=imag_residual,
        verdict=verdict,
    )


def negativity_threshold(values: np.ndarray) -> float:
    """Scale-aware determinant tolerance from the diagonal magnitudes."""
    scale = float(np.prod(np.abs(np.diagonal(values))))
    return DET_TOL_SCALE * max(1.0, scale)


def principal_minor(provider, transposed, selection: Selection, *,
                    tol_det: float | None = None) -> MinorResult:
    """Build the selected matrix and take its determinant in one step."""
    return determinant(build_matrix(provider, transposed, selection), tol_det=tol_det)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an eigenvalue negativity scan with optional minor witness."""

    min_eigenvalue: float
    witness: Selection | None
    minor: MinorResult | None
    matrix: MomentMatrix = field(repr=False)

    @property
    def negative(self) -> bool:
        return self.minor is not None and self.minor.negative


def eigen_negativity_scan(provider, transposed, max_order: int = 2, *,
                          tol: float = 1e-9, max_minor_size: int = 6,
                          size_cap: int = SIZE_CAP) -> ScanResult:
    """Search the full weight-capped matrix for negativity, with witness.

    The matrix over all monomials of weight at most ``max_order`` is
    diagonalized; if the minimum eigenvalue is below ``-tol``, a compact
    negative principal minor is extracted from the dominant eigenvector by a
    prefix-then-greedy-shrink search capped at ``max_minor_size``.  The minor
    returned is rebuilt from scratch, so it is independently checkable.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    modes = provider.modes
    transposed = _as_transposition(transposed, modes)
    size = count_up_to_weight(2 * modes, max_order)
    if size > size_cap:
        raise ResourceLimitError(
            f"scan matrix would be {size}x{size}, above the cap {size_cap}"
        )
    selection = Selection.leading(size)
    matrix = build_matrix(provider, transposed, selection)
    eigenvalues, vectors = np.linalg.eigh(matrix.values)
    min_eigenvalue = float(eigenvalues[0])
    if min_eigenvalue >= -tol:
        return ScanResult(min_eigenvalue, None, None, matrix)
    dominant = np.abs(vectors[:, 0])
    order = sorted(range(size), key=lambda i: (-dominant[i], i))
    indices = _extract_witness(matrix.values, order, max_minor_size)
    if indices is None:
        return ScanResult(min_eigenvalue, None, None, matrix)
    witness = Selection(tuple(sorted(selection.positions[i] for i in indices)))
    minor = principal_minor(provider, transposed, witness)
    return ScanResult(min_eigenvalue, witness, minor, matrix)


def _extract_witness(values: np.ndarray, order: list[int],
                     max_minor_size: int) -> tuple[int, ...] | None:
    """Indices of a small negative principal minor, or None if none found."""
    limit = min(len(order), max_minor_size)
    for k in range(1, limit + 1):
        prefix = tuple(order[:k])
        if _subdet(values, prefix) < -_subthreshold(values, prefix):
            return _greedy_shrink(values, prefix)
        if k < limit:
            extra = _best_schur_augmentation(values, prefix)
            if extra is not None:
                candidate = prefix + (extra,)
                if _subdet(values, candidate) < -_subthreshold(values, candidate):
                    return _greedy_shrink(values, candidate)
    # fall back to small subsets of the best-supported positions
    pool = order[: min(len(order), max(12, max_minor_size))]
    for k in range(1, limit + 1):
        for combo in itertools.combinations(pool, k):
            if _subdet(values, combo) < -_subthreshold(values, combo):
                return _greedy_shrink(values, combo)
    return None


def _best_schur_augmentation(values: np.ndarray, prefix) -> int | None:
    """Column whose Schur complement against the prefix block is most negative.

    With det(prefix) positive, appending a column of negative Schur scalar
    flips the determinant sign; this catches witnesses that need one anchor
    row carrying little eigenvector weight (typically the identity row).
    """
    idx = np.asarray(prefix)
    block = values[np.ix_(idx, idx)]
    rows = values[idx, :]
    try:
        solved = np.linalg.solve(block, rows)
    except np.linalg.LinAlgError:
        return None
    schur = np.real(np.diagonal(values)) - np.real(np.sum(rows.conj() * solved, axis=0))
    schur[idx] = np.inf
    best = int(np.argmin(schur))
    return best if schur[best] < 0.0 else None


def _greedy_shrink(values: np.ndarray, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Drop members one at a time while the determinant stays negative."""
    current = list(indices)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for drop in reversed(range(len(current))):
            trial = tuple(current[:drop] + current[drop + 1:])
            if _subdet(values, trial) < -_subthreshold(values, trial):
                current = list(trial)
                changed = True
                break
    return tuple(current)


def _subdet(values: np.ndarray, indices) -> float:
    idx = np.asarray(indices)
    return float(np.linalg.det(values[np.ix_(idx, idx)]).real)


def _subthreshold(values: np.ndarray, indices) -> float:
    idx = np.asarray(indices)
    return negativity_threshold(values[np.ix_(idx, idx)])


def named_minor(provider, transposed, pairs, *,
                tol_det: float | None = None) -> MinorResult:
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
    return principal_minor(provider, transposed, selection, tol_det=tol_det)


def _pair_monomial(modes: int, i: int, j: int) -> MonomialIndex:
    return MonomialIndex.from_ops(modes, annihilation=(i, j))


def min_principal_minor(values: np.ndarray, max_size: int, *,
                        chunk: int = 100_000) -> tuple[float, tuple[int, ...]]:
    """Minimum determinant over every principal minor of size <= max_size.

    Enumerates subsets in batches and evaluates their determinants with
    vectorized LU factorizations; intended for exhaustive nonnegativity
    sweeps over moderate matrices (dimension a few dozen).
    """
    n = values.shape[0]
    best = math.inf
    best_indices: tuple[int, ...] = ()
    for k in range(1, min(max_size, n) + 1):
        for batch in _batched(itertools.combinations(range(n), k), chunk):
            idx = np.array(batch)
            sub = values[idx[:, :, None], idx[:, None, :]]
            dets = np.linalg.det(sub).real
            at = int(np.argmin(dets))
            if dets[at] < best:
                best = float(dets[at])
                best_indices = tuple(int(x) for x in batch[at])
    return best, best_indices


def _batched(iterable, size):
    iterator = iter(iterable)
    while True:
        batch = list(itertools.islice(iterator, size))
        if not batch:
            return
        yield batch


def _as_transposition(transposed, modes: int) -> TranspositionSet:
    if isinstance(transposed, TranspositionSet):
        return transposed
    if transposed is None:
        return TranspositionSet.empty(modes)
    return TranspositionSet.of(modes, *transposed)


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")
