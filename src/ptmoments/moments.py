"""Sources of normally ordered moments ``<ad^k a^l>`` of concrete states.

Providers are immutable after construction apart from one cache of computed
moments, keyed by the position of the moment's monomial in the graded
sequence and shared by :meth:`MomentProvider.moment` and
:meth:`MomentProvider.moments_at`.  A position enters the cache only together
with its value, so providers can be shared across concurrent evaluations.
Only the keys asked for are ever computed.  Besides the
analytic states (coherent products, two-mode squeezed vacuum, the noisy
W-type superposition of sign-flipped coherent states) there is a provider
for explicit truncated-Fock kets or density matrices, computed by direct
matrix algebra, and a JSON table format for measured or externally
calculated moments.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MomentDataError, NumericError, TruncationError, UnresolvedMomentsError
from .multiindex import MonomialIndex, count_up_to_weight, monomial_at, position_of

#: default consistency tolerance a moment table records (identity moment, Hermitian partners)
TABLE_TOLERANCE = 1e-9


class MomentProvider:
    """Base class: subclasses implement ``_compute(key)``."""

    label = "moments"

    def __init__(self, modes: int):
        if modes < 1:
            raise ValueError("mode count must be >= 1")
        self.modes = modes
        # Computed moments by 1-based position; a position enters with its value.
        self._values: dict[int, complex] = {}

    def moment(self, key: MonomialIndex) -> complex:
        """Normally ordered moment for ``key``; identity is always 1."""
        if key.modes != self.modes:
            raise ValueError(f"key has {key.modes} modes, provider has {self.modes}")
        position = position_of(key)
        value = self._values.get(position)
        if value is None:
            value = self._values[position] = complex(self._compute(key))
        return value

    def moments_at(self, positions: np.ndarray, packed: np.ndarray) -> np.ndarray:
        """Moments at distinct 1-based ``positions``, whose packed keys are the rows of ``packed``.

        Each position not yet cached is computed once, in position order;
        keys the provider cannot resolve are aggregated into one
        :class:`UnresolvedMomentsError`.
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
                    values[position] = complex(self._compute(key))
                except UnresolvedMomentsError:
                    missing.append(key)
            if missing:
                raise UnresolvedMomentsError(missing)
        return np.fromiter(map(values.__getitem__, at), dtype=complex, count=len(at))

    def _compute(self, key: MonomialIndex) -> complex:
        raise NotImplementedError


class CoherentProductMoments(MomentProvider):
    """Separable product of coherent states |gamma_1> ... |gamma_n>."""

    def __init__(self, gammas):
        gammas = tuple(complex(g) for g in gammas)
        super().__init__(len(gammas))
        self.gammas = gammas
        self.label = "coherent(" + ",".join(_fmt_complex(g) for g in gammas) + ")"

    def _compute(self, key):
        value = 1.0 + 0.0j
        try:
            for g, (k, l) in zip(self.gammas, key.pairs):
                value *= g.conjugate() ** k * g ** l
        except OverflowError:
            raise NumericError(f"moment {key} of {self.label} overflows") from None
        return value


class TmsvMoments(MomentProvider):
    """Two-mode squeezed vacuum with squeezing parameter ``r``.

    Moments are summed over the Schmidt series sech(r) sum_n tanh(r)^n |nn>;
    photon-number difference conservation makes every odd-weight moment
    vanish and the series converge geometrically.
    """

    def __init__(self, r: float):
        super().__init__(2)
        self.r = float(r)
        self.label = f"tmsv(r={self.r:g})"

    def _compute(self, key):
        (k1, l1), (k2, l2) = key.pairs
        delta = k1 - l1
        if delta != k2 - l2:
            return 0.0
        t = math.tanh(self.r)
        if t == 0.0:
            return 1.0 if key.is_identity() else 0.0
        sech2 = 1.0 - t * t
        total = 0.0
        n = max(l1, l2)
        while True:
            m = n + delta
            term = (
                sech2
                * t ** (n + m)
                * math.sqrt(
                    _falling(m, k1) * _falling(m, k2) * _falling(n, l1) * _falling(n, l2)
                )
            )
            total += term
            n += 1
            if n > max(l1, l2) + 5 and abs(term) < 1e-18 * (abs(total) + 1.0):
                break
            if n > 100000:  # pragma: no cover - geometric series never gets here
                raise ArithmeticError("two-mode squeezing series failed to converge")
        return total


def _falling(m: int, k: int) -> float:
    """Falling factorial m (m-1) ... (m-k+1)."""
    out = 1.0
    for j in range(k):
        out *= m - j
    return out


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
        if any(x < 0 for x in self.nbars):
            raise MomentDataError("mean thermal photon numbers must be >= 0")

    @property
    def modes(self) -> int:
        return len(self.alphas)

    @classmethod
    def symmetric(cls, modes: int, alpha, nbar: float = 0.0) -> "WStateParams":
        return cls((complex(alpha),) * modes, (float(nbar),) * modes)


class WStateMoments(MomentProvider):
    """Noisy superposition sum_i |a_1, ..., -a_i, ..., a_n> under Gaussian noise.

    Each of the n^2 bra/ket cross terms factorizes over modes into a
    one-mode Gaussian integral of a polynomial, evaluated in closed form for
    zero noise and by Gauss-Hermite quadrature otherwise (the quadrature is
    exact for the polynomial degrees that occur).  Normalization is fixed by
    dividing out the identity moment.
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
                    term *= self._mode_factor(m, k, l, overlap)
                total += term
        return total

    def _mode_factor(self, mode: int, k: int, l: int, overlap: bool) -> complex:
        cache_key = (mode, k, l, overlap)
        value = self._factor_cache.get(cache_key)
        if value is None:
            alpha = self.params.alphas[mode - 1]
            nbar = self.params.nbars[mode - 1]
            value = _gaussian_moment(alpha, nbar, k, l, overlap)
            self._factor_cache[cache_key] = value
        return value


def _gaussian_moment(alpha: complex, nbar: float, k: int, l: int,
                     overlap: bool, quad_points: int | None = None) -> complex:
    """Integral of conj(b)^k b^l (times exp(-2|b|^2) if ``overlap``) under the
    Gaussian kernel of mean ``alpha`` and variance ``nbar`` per quadrature axis.

    The default (k + l) // 2 + 3 Gauss-Hermite points are exact for the
    polynomial; ``quad_points`` overrides them."""
    sigma = 2.0 if overlap else 0.0
    if nbar == 0.0:
        value = alpha.conjugate() ** k * alpha ** l
        if overlap:
            value *= math.exp(-2.0 * abs(alpha) ** 2)
        return value
    c = 1.0 / nbar + sigma
    points = quad_points if quad_points is not None else (k + l) // 2 + 3
    nodes, weights = _hermgauss(points)
    scale = 1.0 / math.sqrt(c)
    prefactor = 1.0 / (math.pi * nbar * c)
    for a in (alpha.real, alpha.imag):
        prefactor *= math.exp(-sigma * a * a / (c * nbar))
    mu_x = alpha.real / (nbar * c)
    mu_y = alpha.imag / (nbar * c)
    xs = mu_x + scale * nodes
    ys = mu_y + scale * nodes
    beta = xs[:, None] + 1j * ys[None, :]
    poly = np.conj(beta) ** k * beta ** l
    value = weights @ poly @ weights
    return prefactor * complex(value)


_HERMGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _hermgauss(points: int):
    got = _HERMGAUSS_CACHE.get(points)
    if got is None:
        got = _HERMGAUSS_CACHE[points] = np.polynomial.hermite.hermgauss(points)
    return got


def _destroy(cutoff: int) -> np.ndarray:
    """Annihilation operator on a Fock space truncated to ``cutoff`` levels."""
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


class FockStateMoments(MomentProvider):
    """Brute-force moments of an explicit truncated-Fock state.

    ``state`` is either a ket vector or a density matrix over the product
    space with ``cutoffs[i]`` levels per mode.  Moments are computed by
    direct matrix algebra, so this provider is the independent oracle for
    everything else; accuracy is limited only by the truncation tail.
    """

    def __init__(self, state, cutoffs, label: str = "fock-oracle"):
        cutoffs = (cutoffs,) if isinstance(cutoffs, int) else tuple(int(c) for c in cutoffs)
        if any(c < 1 for c in cutoffs):
            raise MomentDataError("cutoffs must be >= 1")
        super().__init__(len(cutoffs))
        self.cutoffs = cutoffs
        self.label = label
        dim = math.prod(cutoffs)
        state = np.asarray(state, dtype=complex)
        if state.shape == (dim,):
            norm = np.linalg.norm(state)
            if abs(norm - 1.0) > 1e-10:
                raise MomentDataError(f"state vector norm {norm!r} is not 1 within 1e-10")
            self._vector = state / norm
            self._rho = None
        elif state.shape == (dim, dim):
            if np.max(np.abs(state - state.conj().T)) > 1e-10:
                raise MomentDataError("density matrix is not Hermitian within 1e-10")
            trace = complex(np.trace(state))
            if abs(trace - 1.0) > 1e-10:
                raise MomentDataError(f"density matrix trace {trace!r} is not 1 within 1e-10")
            self._vector = None
            self._rho = state
        else:
            raise MomentDataError(
                f"state shape {state.shape} does not match cutoffs {cutoffs}"
            )
        self._ladders = [_destroy(c) for c in cutoffs]

    def _compute(self, key):
        for (k, l), c in zip(key.pairs, self.cutoffs):
            if k >= c or l >= c:
                raise TruncationError(
                    f"exponent pair ({k},{l}) needs cutoff > {max(k, l)}, have {c}"
                )
        if self._vector is not None:
            tensor = self._vector.reshape(self.cutoffs)
            ket = tensor
            bra = tensor
            for axis, (a, (k, l)) in enumerate(zip(self._ladders, key.pairs)):
                ket = _apply_mode(ket, np.linalg.matrix_power(a, l), axis)
                bra = _apply_mode(bra, np.linalg.matrix_power(a, k), axis)
            return complex(np.vdot(bra, ket))
        ops = [
            np.linalg.matrix_power(a, k).conj().T @ np.linalg.matrix_power(a, l)
            for a, (k, l) in zip(self._ladders, key.pairs)
        ]
        return _trace_with_product(self._rho, self.cutoffs, ops)


def _apply_mode(tensor: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, tensor, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def _trace_with_product(rho: np.ndarray, cutoffs, ops) -> complex:
    """trace(rho (op_1 x ... x op_n)) without forming the Kronecker product."""
    n = len(cutoffs)
    letters = string.ascii_lowercase
    rows, cols = letters[:n], letters[n:2 * n]
    subscripts = [rows + cols] + [cols[i] + rows[i] for i in range(n)]
    return complex(np.einsum(",".join(subscripts) + "->", rho.reshape(cutoffs * 2), *ops))


@dataclass
class MomentTable:
    """Validated moment data: mode count, tolerance and key/value entries."""

    modes: int
    tolerance: float
    entries: dict[MonomialIndex, complex]

    @property
    def max_order(self) -> int:
        return max((key.weight for key in self.entries), default=0)


class TableMoments(MomentProvider):
    """Provider view of a :class:`MomentTable`; missing keys raise."""

    def __init__(self, table: MomentTable, label: str = "table"):
        super().__init__(table.modes)
        self.table = table
        self.label = label

    def _compute(self, key):
        try:
            return self.table.entries[key]
        except KeyError:
            raise UnresolvedMomentsError([key]) from None


def load_moment_table(source) -> MomentTable:
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
    return MomentTable(modes=modes, tolerance=tolerance, entries=entries)


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
        raise MomentDataError(f"{name} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError:
        raise MomentDataError(f"{name} is out of range") from None


def moment_table_to_json(table: MomentTable) -> str:
    """Serialize deterministically: entries in moment-sequence order, 12 significant digits."""
    items = sorted(table.entries.items(), key=lambda kv: position_of(kv[0]))
    entries = [
        {
            "k": list(key.creation),
            "l": list(key.annihilation),
            "re": _round12(value.real),
            "im": _round12(value.imag),
        }
        for key, value in items
    ]
    doc = {"modes": table.modes, "tolerance": table.tolerance, "entries": entries}
    return json.dumps(doc, indent=2)


def table_from_provider(provider: MomentProvider, order: int,
                        tolerance: float = TABLE_TOLERANCE) -> MomentTable:
    """Tabulate every moment of weight up to ``order`` from a provider."""
    tolerance = _tolerance(tolerance)
    positions = np.arange(1, count_up_to_weight(2 * provider.modes, order) + 1)
    keys = [monomial_at(provider.modes, p) for p in positions.tolist()]
    values = provider.moments_at(positions, np.array([key.pack() for key in keys]))
    entries = dict(zip(keys, values.tolist()))
    return MomentTable(modes=provider.modes, tolerance=tolerance, entries=entries)


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    return f"{z.real:g}{z.imag:+g}i"
