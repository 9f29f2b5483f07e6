"""Reference computations that check ptmoments outputs without using ptmoments.

Nothing here imports the package.  Positions are unranked by sorting
multi-indices, kets are dense truncated-Fock vectors, transposed entries are
traced directly, and the noisy sign-flip state uses a closed-form Gaussian
moment behind a normal-ordering routine of its own.

A monomial key is a tuple of per-mode ``(k, l)`` pairs: creation exponent
``k`` and annihilation exponent ``l``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

#: relative tolerance for a rebuilt determinant against a reported one
DET_RTOL = 1e-6
#: absolute floor, as a multiple of the product of the diagonal magnitudes
DET_ATOL_SCALE = 1e-10


class CheckError(AssertionError):
    """An output disagreed with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- positions ----------------------------------------------------------


@lru_cache(maxsize=None)
def gralex_keys(modes: int, max_weight: int) -> tuple:
    """Keys of weight <= max_weight in position order (position = index + 1).

    Packed multi-indices ``(l1, k1, ..., ln, kn)`` are sorted by weight and
    then by the reversed tuple, which is the graded antilexicographic order.
    """
    d = 2 * modes
    packed = []
    for w in range(max_weight + 1):
        for bars in itertools.combinations(range(w + d - 1), d - 1):
            edges = (-1,) + bars + (w + d - 1,)
            packed.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(d)))
    packed.sort(key=lambda u: (sum(u), u[::-1]))
    return tuple(tuple((u[2 * i + 1], u[2 * i]) for i in range(modes)) for u in packed)


def key_at(modes: int, position: int, max_weight: int) -> tuple:
    return gralex_keys(modes, max_weight)[position - 1]


# --- dense truncated-Fock kets ------------------------------------------


def _ladder(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def _coherent(gamma: complex, cutoff: int) -> np.ndarray:
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = math.exp(-abs(gamma) ** 2 / 2.0)
    for m in range(1, cutoff):
        amps[m] = amps[m - 1] * gamma / math.sqrt(m)
    return amps


def _poisson_cutoff(mean: float, tail: float = 1e-20) -> int:
    """A cutoff past the mean beyond which Poisson populations are below ``tail``."""
    p, n = math.exp(-mean), 0
    while p > tail or n < max(4, mean):
        n += 1
        p *= mean / n
    return n + 1


class KetOracle:
    """A pure state held as a dense truncated-Fock ket.

    The ket is a sum of product branches (one for a coherent product, one per
    sign flip for the W state, one per Fock level for the two-mode squeezed
    vacuum).  An entry tr(rho X^{T_I}) is the ket contracted mode by mode
    with the operator of each mode, transposed as a matrix on modes in I.
    Each mode is padded by ``2 * order`` levels so that raising operators
    never reach the truncation edge of the ket's support.
    """

    def __init__(self, branches, coeffs, order: int):
        self.modes = len(branches[0])
        pad = 2 * order
        self.cutoff = max(len(v) for b in branches for v in b) + pad
        self.vectors = [
            np.stack([np.pad(b[m], (0, self.cutoff - len(b[m]))) for b in branches], axis=1)
            for m in range(self.modes)
        ]
        coeffs = np.asarray(coeffs, dtype=complex)
        gram = np.ones((len(coeffs), len(coeffs)), dtype=complex)
        for v in self.vectors:
            gram *= v.conj().T @ v
        self.coeffs = coeffs / math.sqrt(float((coeffs.conj() @ gram @ coeffs).real))
        self._a = _ladder(self.cutoff)
        self._ops: dict = {}

    def _mode_op(self, l, k, p, q, transposed) -> np.ndarray:
        key = (l, k, p, q, transposed)
        op = self._ops.get(key)
        if op is None:
            a = self._a
            ad = a.conj().T
            mp = np.linalg.matrix_power
            op = mp(ad, l) @ mp(a, k) @ mp(ad, p) @ mp(a, q)
            op = self._ops[key] = op.T if transposed else op
        return op

    def entry(self, row, col, transposed) -> complex:
        """<(row)^dagger (col)> on the state transposed on the modes in ``transposed``."""
        g = np.ones((len(self.coeffs),) * 2, dtype=complex)
        for m, ((k, l), (p, q), v) in enumerate(zip(row, col, self.vectors)):
            g *= v.conj().T @ self._mode_op(l, k, p, q, (m + 1) in transposed) @ v
        return complex(self.coeffs.conj() @ g @ self.coeffs)

    def moment(self, key) -> complex:
        return self.entry(((0, 0),) * self.modes, key, ())


def coherent_ket(gammas, order: int) -> KetOracle:
    cutoff = max(_poisson_cutoff(abs(g) ** 2) for g in gammas)
    return KetOracle([[_coherent(g, cutoff) for g in gammas]], [1.0], order)


def wstate_ket(alphas, order: int) -> KetOracle:
    """sum_i |a_1, ..., -a_i, ..., a_n>, normalized."""
    cutoff = max(_poisson_cutoff(abs(a) ** 2) for a in alphas)
    n = len(alphas)
    branches = [
        [_coherent(-a if m == i else a, cutoff) for m, a in enumerate(alphas)]
        for i in range(n)
    ]
    return KetOracle(branches, [1.0] * n, order)


def tmsv_ket(r: float, order: int) -> KetOracle:
    """sech(r) sum_n tanh(r)^n |n, n>."""
    t = math.tanh(r)
    cutoff = 8
    while t ** (2 * cutoff) > 1e-20:
        cutoff += 1
    basis = np.eye(cutoff, dtype=complex)
    branches = [[basis[n], basis[n]] for n in range(cutoff)]
    return KetOracle(branches, [t ** n for n in range(cutoff)], order)


# --- normal ordering and the noisy sign-flip state ----------------------


def normal_order_mode(row_pair, col_pair, transposed: bool):
    """Normally ordered terms of one mode's factor of (row)^dagger (col).

    The factor is ad^l a^k ad^p a^q, or ad^q a^p ad^k a^l on a transposed
    mode; a^x ad^y = sum_j j! C(x,j) C(y,j) ad^(y-j) a^(x-j).
    Returns ``[((creation, annihilation), coefficient), ...]``.
    """
    (k, l), (p, q) = row_pair, col_pair
    left, x, y, right = (q, p, k, l) if transposed else (l, k, p, q)
    return [
        ((left + y - j, x - j + right), math.factorial(j) * math.comb(x, j) * math.comb(y, j))
        for j in range(min(x, y) + 1)
    ]


class NoisyWOracle:
    """Moments of the sign-flip superposition under Gaussian amplitude noise.

    The state is rho ~ int P(b) |psi(b)><psi(b)| with |psi(b)> =
    sum_i |b_1, ..., -b_i, ..., b_n> and P a product of complex Gaussians of
    mean alpha_m and variance nbar_m.  Each bra/ket cross term factorizes by
    mode into a Gaussian moment of conj(b)^k b^l, with exp(-2|b|^2) where the
    two branches differ; that moment has the closed form used in
    :meth:`_factor`.
    """

    def __init__(self, alphas, nbars):
        self.alphas = [complex(a) for a in alphas]
        self.nbars = [float(x) for x in nbars]
        self.modes = len(self.alphas)
        self._factors: dict = {}
        self._moments: dict = {}
        self._norm = self._unnormalized(((0, 0),) * self.modes)

    def _factor(self, m: int, k: int, l: int, overlap: bool) -> complex:
        key = (m, k, l, overlap)
        value = self._factors.get(key)
        if value is None:
            alpha, nbar = self.alphas[m], self.nbars[m]
            s = 2.0 if overlap else 0.0
            d = 1.0 + s * nbar
            mu, var = alpha / d, nbar / d
            total = sum(
                math.factorial(j) * math.comb(k, j) * math.comb(l, j) * var ** j
                * mu.conjugate() ** (k - j) * mu ** (l - j)
                for j in range(min(k, l) + 1)
            )
            value = self._factors[key] = math.exp(-s * abs(alpha) ** 2 / d) / d * total
        return value

    def _unnormalized(self, key) -> complex:
        n = self.modes
        total = 0.0
        for i in range(n):
            for j in range(n):
                term = complex((-1) ** (key[j][0] + key[i][1]))
                for m, (k, l) in enumerate(key):
                    term *= self._factor(m, k, l, i != j and m in (i, j))
                total += term
        return total

    def moment(self, key) -> complex:
        value = self._moments.get(key)
        if value is None:
            value = self._moments[key] = self._unnormalized(key) / self._norm
        return value

    def entry(self, row, col, transposed) -> complex:
        per_mode = [
            normal_order_mode(row[m], col[m], (m + 1) in transposed)
            for m in range(self.modes)
        ]
        total = 0.0
        for combo in itertools.product(*per_mode):
            coeff = math.prod(c for _, c in combo)
            total += coeff * self.moment(tuple(pair for pair, _ in combo))
        return complex(total)


def wstate_oracle(alphas, nbars, order: int):
    """Ket oracle for the noiseless state, closed-form Gaussian otherwise."""
    if all(x == 0.0 for x in nbars):
        return wstate_ket(alphas, order)
    return NoisyWOracle(alphas, nbars)


# --- checks on reported minors ------------------------------------------


def minor_matrix(oracle, transposed, positions, max_weight: int) -> np.ndarray:
    keys = [key_at(oracle.modes, p, max_weight) for p in positions]
    members = frozenset(transposed)
    return np.array([[oracle.entry(r, c, members) for c in keys] for r in keys])


def check_witness(oracle, minor: dict, max_weight: int, where: str) -> None:
    """A reported NPT witness {I, R, det} must rebuild to the same negative determinant."""
    values = minor_matrix(oracle, minor["I"], minor["R"], max_weight)
    require(np.max(np.abs(values - values.conj().T)) < 1e-9 * (1 + np.max(np.abs(values))),
            f"{where}: rebuilt minor {minor['R']} is not Hermitian")
    det = float(np.linalg.det(values).real)
    scale = max(1.0, float(np.prod(np.abs(np.diagonal(values)))))
    require(det < -DET_ATOL_SCALE * scale,
            f"{where}: witness I={minor['I']} R={minor['R']} rebuilds to det {det:.6e}, not negative")
    require(abs(det - minor["det"]) <= DET_RTOL * abs(det) + DET_ATOL_SCALE * scale,
            f"{where}: witness I={minor['I']} R={minor['R']} reported det {minor['det']!r}, "
            f"rebuilt {det!r}")


def pair_minor(oracle, transposed, pairs) -> float:
    """Determinant of the 2x2 minor on the monomials a_i a_j and a_k a_l."""
    keys = []
    for i, j in pairs:
        key = [[0, 0] for _ in range(oracle.modes)]
        key[i - 1][1] += 1
        key[j - 1][1] += 1
        keys.append(tuple(tuple(p) for p in key))
    members = frozenset(transposed)
    values = np.array([[oracle.entry(r, c, members) for c in keys] for r in keys])
    return float(np.linalg.det(values).real)


def close(a: float, b: float, rtol: float = 1e-6, atol: float = 1e-10) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def bell_number(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]
