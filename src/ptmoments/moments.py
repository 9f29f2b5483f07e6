"""Sources of normally ordered moments ``<ad^k a^l>`` of concrete states.

Every provider keeps its moments in one store keyed by the position of the
moment's monomial in the graded sequence.  A position enters the store only
together with its value, so providers can be shared across concurrent
evaluations.  The analytic states (coherent products, two-mode squeezed
vacuum, the noisy W-type superposition of sign-flipped coherent states),
whose moments are exact finite sums, and explicit truncated-Fock kets or
density matrices, computed by direct matrix algebra, fill it with just the
keys asked for, all through :meth:`MomentProvider.moments_at`, which
:meth:`MomentProvider.moment` reads through; a computed moment that
overflows or is not finite raises :class:`NumericError` naming the state.  A
:class:`TableMoments` of measured or externally calculated moments fills it
once, at construction, and reads and writes a JSON table format.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MomentDataError, NumericError, TruncationError, UnresolvedMomentsError
from .multiindex import MonomialIndex, _index, count_up_to_weight, monomial_at, position_of

#: default consistency tolerance a moment table records (identity moment, Hermitian partners)
TABLE_TOLERANCE = 1e-9


class MomentProvider:
    """Base class: subclasses implement ``_compute(key)``."""

    label = "moments"
    #: how far each moment may lie from the state's own; a table records its own
    tolerance = 0.0

    def __init__(self, modes: int):
        if modes < 1:
            raise ValueError("mode count must be >= 1")
        self.modes = modes
        # Moments by 1-based position; a position enters with its value.
        self._values: dict[int, complex] = {}

    def moment(self, key: MonomialIndex) -> complex:
        """Normally ordered moment for ``key``, read through :meth:`moments_at`.

        The identity's moment is the state's normalisation: 1 for the
        analytic states and for explicit Fock states (a ket is divided by its
        norm, a density matrix by its trace), and the table's own identity
        entry (1 within the table's tolerance) for a :class:`TableMoments`,
        which raises :class:`UnresolvedMomentsError` for a key it does not hold.
        """
        if key.modes != self.modes:
            raise ValueError(f"key has {key.modes} modes, provider has {self.modes}")
        return self.moments_at(np.array([position_of(key)]), np.array([key.pack()])).item()

    def moments_at(self, positions: np.ndarray, packed: np.ndarray) -> np.ndarray:
        """Moments at distinct 1-based ``positions``, whose packed keys are the rows of ``packed``.

        This is the one routine that fills the store: each position not yet
        cached is computed once, in position order; keys the provider cannot
        resolve are aggregated into one :class:`UnresolvedMomentsError`, and
        the first moment that overflows or is not finite raises
        :class:`NumericError` naming the state.
        """
        at = positions.tolist()
        values = self._values
        new = sorted(set(at).difference(values))
        if new:
            row = dict(zip(at, range(len(at))))
            missing = []
            for position in new:
                key = MonomialIndex.unpack(tuple(packed[row[position]].tolist()))
                try:
                    value = complex(self._compute(key))
                except UnresolvedMomentsError:
                    missing.append(key)
                    continue
                except OverflowError:
                    value = math.nan
                if not cmath.isfinite(value):
                    raise NumericError(f"moment {key} of {self.label} overflows")
                values[position] = value
            if missing:
                raise UnresolvedMomentsError(missing)
        return np.fromiter(map(values.__getitem__, at), dtype=complex, count=len(at))

    def _compute(self, key: MonomialIndex) -> complex:
        raise NotImplementedError


class CoherentProductMoments(MomentProvider):
    """Separable product of coherent states |gamma_1> ... |gamma_n>."""

    def __init__(self, gammas):
        gammas = tuple(complex(g) for g in gammas)
        if not all(map(cmath.isfinite, gammas)):
            raise MomentDataError(f"coherent amplitudes gamma must be finite, got {gammas}")
        super().__init__(len(gammas))
        self.gammas = gammas
        self.label = "coherent(" + ",".join(_fmt_complex(g) for g in gammas) + ")"

    def _compute(self, key):
        value = 1.0 + 0.0j
        for g, (k, l) in zip(self.gammas, key.pairs):
            value *= g.conjugate() ** k * g ** l
        return value


class TmsvMoments(MomentProvider):
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    The state is Gaussian with zero mean, so a moment is Wick's finite sum
    over pairings of its operators by the nonzero contractions
    <ad_i a_i> = sinh(r)^2 and <a_1 a_2> = <ad_1 ad_2> = cosh(r) sinh(r).
    Pairing j creators of mode 1 with its annihilators fixes every other
    pairing, and a moment vanishes unless k1 - l1 = k2 - l2.
    """

    def __init__(self, r: float):
        super().__init__(2)
        self.r = float(r)
        if not math.isfinite(self.r):
            raise MomentDataError(f"squeezing parameter r must be finite, got {self.r}")
        self.label = f"tmsv(r={self.r:g})"

    def _compute(self, key):
        (k1, l1), (k2, l2) = key.pairs
        if k1 - l1 != k2 - l2:
            return 0.0
        s = math.sinh(self.r)
        cs = math.cosh(self.r) * s
        total = 0.0
        for j in range(max(k1 - k2, 0), min(k1, l1) + 1):
            i = j + k2 - k1
            pairings = (math.comb(k1, j) * math.comb(l1, j) * math.factorial(j)
                        * math.perm(k2, k1 - j) * math.perm(l2, l1 - j) * math.factorial(i))
            total += pairings * s ** (2 * (j + i)) * cs ** (k1 + l1 - 2 * j)
        return total


@dataclass(frozen=True)
class WStateParams:
    """Amplitudes and per-mode thermal noise of the sign-flip superposition state."""

    alphas: tuple[complex, ...]
    nbars: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(complex(a) for a in self.alphas))
        object.__setattr__(self, "nbars", tuple(float(x) for x in self.nbars))
        if len(self.alphas) != len(self.nbars):
            raise ValueError("alphas and nbars must have the same length")
        if len(self.alphas) < 1:
            raise ValueError("at least one mode required")
        if not all(map(cmath.isfinite, self.alphas)):
            raise MomentDataError(f"amplitudes alpha must be finite, got {self.alphas}")
        if not all(0 <= x < math.inf for x in self.nbars):
            raise MomentDataError(
                f"mean thermal photon numbers nbar must be finite and >= 0, got {self.nbars}"
            )

    @property
    def modes(self) -> int:
        return len(self.alphas)

    @classmethod
    def symmetric(cls, modes: int, alpha, nbar: float = 0.0) -> "WStateParams":
        return cls((complex(alpha),) * modes, (float(nbar),) * modes)


class WStateMoments(MomentProvider):
    """Noisy superposition sum_i |a_1, ..., -a_i, ..., a_n> under Gaussian noise.

    Each of the n^2 bra/ket cross terms factorizes over modes into a
    one-mode Gaussian integral of a polynomial, which is a finite sum (see
    :func:`_gaussian_moment`) at every noise level; real amplitudes give
    exactly real moments.  Normalization is fixed by dividing out the
    identity moment.
    """

    def __init__(self, params: WStateParams):
        super().__init__(params.modes)
        self.params = params
        self._factor_cache: dict[tuple, complex] = {}
        a0 = params.alphas[0]
        sym = all(a == a0 for a in params.alphas) and all(
            x == params.nbars[0] for x in params.nbars
        )
        if sym:
            self.label = (
                f"wstate(n={params.modes}, alpha={_fmt_complex(a0)}, "
                f"nbar={params.nbars[0]:g})"
            )
        else:
            self.label = (
                "wstate(alphas="
                + ",".join(_fmt_complex(a) for a in params.alphas)
                + ", nbars="
                + ",".join(f"{x:g}" for x in params.nbars)
                + ")"
            )

    @cached_property
    def _norm(self) -> complex:
        return self._unnormalized(MonomialIndex.identity(self.modes))

    def _compute(self, key):
        return self._unnormalized(key) / self._norm

    def _unnormalized(self, key):
        n = self.modes
        pairs = key.pairs
        total = 0.0 + 0.0j
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                sign = (-1) ** (pairs[j - 1][0] + pairs[i - 1][1])
                term = complex(sign)
                for m in range(1, n + 1):
                    k, l = pairs[m - 1]
                    overlap = i != j and m in (i, j)
                    factor = self._factor_cache.get((m, k, l, overlap))
                    if factor is None:
                        factor = self._factor_cache[m, k, l, overlap] = _gaussian_moment(
                            self.params.alphas[m - 1], self.params.nbars[m - 1], k, l, overlap)
                    term *= factor
                total += term
        return total


def _gaussian_moment(alpha: complex, nbar: float, k: int, l: int, overlap: bool) -> complex:
    """Integral of conj(b)^k b^l (times exp(-2|b|^2) if ``overlap``) under the
    Gaussian kernel exp(-|b - alpha|^2 / nbar) / (pi nbar).

    With the overlap weight folded in (sigma = 2, else 0) the kernel is
    exp(-sigma|alpha|^2 / d) / d, d = 1 + sigma nbar, times a Gaussian of
    mean mu = alpha / d and variance v = nbar / d, whose moment is the finite
    sum over j of C(k, j) C(l, j) j! v^j conj(mu)^(k-j) mu^(l-j).  At zero
    noise only the j = 0 term conj(alpha)^k alpha^l is left.
    """
    sigma = 2.0 if overlap else 0.0
    d = 1.0 + sigma * nbar
    mu, v = alpha / d, nbar / d
    mu_bar = mu.conjugate()
    value = sum(
        math.comb(k, j) * math.comb(l, j) * math.factorial(j) * v ** j
        * mu_bar ** (k - j) * mu ** (l - j)
        for j in range(min(k, l) + 1)
    )
    return value * (math.exp(-sigma * abs(alpha) ** 2 / d) / d)


def _destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on a Fock space truncated to ``cutoff`` levels."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


class FockStateMoments(MomentProvider):
    """Brute-force moments of an explicit truncated-Fock state.

    ``state`` is either a ket vector or a density matrix over the product
    space with ``cutoffs[i]`` levels per mode.  Moments are computed by
    direct matrix algebra; accuracy is limited only by the truncation tail.
    A ket and a density matrix differ only in the operands of one ``einsum``.
    """

    def __init__(self, state, cutoffs, label: str = "fock-oracle"):
        cutoffs = (cutoffs,) if isinstance(cutoffs, int) else cutoffs
        cutoffs = tuple(_index(c, "cutoffs") for c in cutoffs)
        if any(c < 1 for c in cutoffs):
            raise MomentDataError("cutoffs must be >= 1")
        super().__init__(len(cutoffs))
        self.cutoffs = cutoffs
        self.label = label
        dim = math.prod(cutoffs)
        state = np.asarray(state, dtype=complex)
        if not np.isfinite(state).all():
            raise MomentDataError(f"state entries of {label} must be finite")
        # Mode m's row index is m and its column index n + m, as einsum sublists.
        rows, cols = list(range(self.modes)), list(range(self.modes, 2 * self.modes))
        if state.shape == (dim,):
            norm = np.linalg.norm(state)
            if abs(norm - 1.0) > 1e-10:
                raise MomentDataError(f"state vector norm {float(norm)} is not 1 within 1e-10")
            ket = (state / norm).reshape(cutoffs)
            # <psi| O |psi> = sum conj(psi[rows]) O[rows, cols] psi[cols]
            self._operands = [ket.conj(), rows, ket, cols]
        elif state.shape == (dim, dim):
            if np.max(np.abs(state - state.conj().T)) > 1e-10:
                raise MomentDataError("density matrix is not Hermitian within 1e-10")
            trace = complex(np.trace(state))
            if abs(trace - 1.0) > 1e-10:
                raise MomentDataError(f"density matrix trace {trace!r} is not 1 within 1e-10")
            # tr(rho O) = sum rho[cols, rows] O[rows, cols]
            self._operands = [(state / trace.real).reshape(cutoffs * 2), cols + rows]
        else:
            raise MomentDataError(
                f"state shape {state.shape} does not match cutoffs {cutoffs}"
            )
        self._ladders = [_destroy(c) for c in cutoffs]

    def _compute(self, key):
        operands = list(self._operands)
        for m, (a, (k, l), c) in enumerate(zip(self._ladders, key.pairs, self.cutoffs)):
            if k >= c or l >= c:
                raise TruncationError(
                    f"exponent pair ({k},{l}) needs cutoff > {max(k, l)}, have {c}"
                )
            op = np.linalg.matrix_power(a, k).conj().T @ np.linalg.matrix_power(a, l)
            operands += [op, [m, self.modes + m]]
        return np.einsum(*operands, [], optimize=True)


class TableMoments(MomentProvider):
    """Moments given as data: every entry is stored at construction, missing keys raise.

    ``entries`` maps :class:`MonomialIndex` keys over ``modes`` modes to
    values; ``tolerance`` is the consistency tolerance the table records and
    ``max_order`` its largest key weight.
    """

    def __init__(self, modes: int, entries, tolerance: float = TABLE_TOLERANCE,
                 label: str = "table"):
        super().__init__(modes)
        self.tolerance = _tolerance(tolerance)
        self.label = label
        self.max_order = 0
        for key, value in entries.items():
            if key.modes != modes:
                raise MomentDataError(f"key {key} has {key.modes} modes, table has {modes}")
            self._values[position_of(key)] = complex(value)
            self.max_order = max(self.max_order, key.weight)

    def _compute(self, key):
        raise UnresolvedMomentsError([key])


def load_moment_table(source) -> TableMoments:
    """Parse and validate the JSON moment-table format.

    The document is ``{"modes": n, "tolerance": t, "entries": [...]}`` with
    each entry ``{"k": [...], "l": [...], "re": x, "im": y}``.  ``modes``,
    ``k`` and ``l`` must be JSON integers; ``tolerance``, ``re`` and ``im``
    finite JSON numbers (bools are neither).  The identity entry must be
    present with value 1 within tolerance; Hermitian partners
    are checked against each other and filled in by conjugation when absent.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise MomentDataError(f"moment table is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MomentDataError("moment table must be a JSON object")
    unknown = set(doc) - {"modes", "tolerance", "entries"}
    if unknown:
        raise MomentDataError(f"unknown moment-table keys: {sorted(unknown)}")
    modes = doc.get("modes")
    if not _is_int(modes) or modes < 1:
        raise MomentDataError("'modes' must be a positive integer")
    tolerance = _tolerance(doc.get("tolerance", TABLE_TOLERANCE))
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise MomentDataError("'entries' must be a list")
    entries: dict[MonomialIndex, complex] = {}
    for item in raw:
        if not isinstance(item, dict):
            raise MomentDataError("each entry must be an object")
        bad = set(item) - {"k", "l", "re", "im"}
        if bad:
            raise MomentDataError(f"unknown entry keys: {sorted(bad)}")
        k, l = item.get("k"), item.get("l")
        if not _exponent_list(k, modes) or not _exponent_list(l, modes):
            raise MomentDataError(
                f"'k' and 'l' must be lists of {modes} nonnegative integers: {item}"
            )
        value = complex(*(_number(item.get(part, 0.0), f"'{part}' of k={k}, l={l}")
                          for part in ("re", "im")))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise MomentDataError(f"moment value for k={k}, l={l} is not finite: {value}")
        key = MonomialIndex(tuple(zip(k, l)))
        if key in entries:
            raise MomentDataError(f"duplicate entry for key {key}")
        entries[key] = value
    identity = MonomialIndex.identity(modes)
    if identity not in entries:
        raise MomentDataError("normalization entry (identity moment) is missing")
    if abs(entries[identity] - 1.0) > tolerance:
        raise MomentDataError(
            f"identity moment must be 1 within tolerance, got {entries[identity]}"
        )
    for key in list(entries):
        partner = key.conjugate()
        if partner in entries:
            if abs(entries[partner] - entries[key].conjugate()) > tolerance:
                raise MomentDataError(
                    f"Hermitian consistency violated for {key} / {partner}"
                )
        else:
            entries[partner] = entries[key].conjugate()
    return TableMoments(modes, entries, tolerance)


def _exponent_list(value, modes: int) -> bool:
    return (
        isinstance(value, list)
        and len(value) == modes
        and all(_is_int(x) and x >= 0 for x in value)
    )


def _is_int(value) -> bool:
    """A JSON integer: bools are ints to Python but not to the table format."""
    return isinstance(value, int) and not isinstance(value, bool)


def _tolerance(value) -> float:
    """A table tolerance: a finite nonnegative JSON number."""
    tolerance = _number(value, "'tolerance'")
    if not 0 <= tolerance < math.inf:
        raise MomentDataError("'tolerance' must be a finite nonnegative number")
    return tolerance


def _number(value, name: str) -> float:
    """A JSON number (int or float, not a bool) as a float; otherwise name the field."""
    if not (_is_int(value) or isinstance(value, float)):
        raise MomentDataError(f"{name} must be a number, got {json.dumps(value, default=repr)}")
    try:
        return float(value)
    except OverflowError:
        raise MomentDataError(f"{name} is out of range") from None


def moment_table_to_json(table: TableMoments) -> str:
    """Serialize deterministically: entries in moment-sequence order, 12 significant digits."""
    entries = []
    for position, value in sorted(table._values.items()):
        key = monomial_at(table.modes, position)
        entries.append({
            "k": [k for k, _ in key.pairs],
            "l": [l for _, l in key.pairs],
            "re": _sig12(value.real),
            "im": _sig12(value.imag),
        })
    doc = {"modes": table.modes, "tolerance": table.tolerance, "entries": entries}
    return json.dumps(doc, indent=2)


def table_from_provider(provider: MomentProvider, order: int,
                        tolerance: float = TABLE_TOLERANCE) -> TableMoments:
    """Tabulate every moment of weight up to ``order`` from a provider."""
    order = _index(order, "order")
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    positions = np.arange(1, count_up_to_weight(2 * provider.modes, order) + 1)
    keys = [monomial_at(provider.modes, p) for p in positions.tolist()]
    values = provider.moments_at(positions, np.array([key.pack() for key in keys]))
    return TableMoments(provider.modes, dict(zip(keys, values.tolist())), tolerance)


def _sig12(x: float) -> float:
    """``x`` rounded to the 12 significant digits every JSON output carries."""
    return float(f"{x:.12g}")


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"
