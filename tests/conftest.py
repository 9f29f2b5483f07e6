"""Shared brute-force oracles used to cross-validate the analytic paths.

Everything here recomputes physics from first principles with dense matrix
algebra (explicit density matrices, explicit partial transposition, explicit
operator products), deliberately avoiding the package's normal-ordering and
quadrature machinery so the two paths are independent.
"""

import math

import numpy as np

from ptmoments import MonomialIndex


def ladder(cutoff):
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(1, cutoff):
        a[m - 1, m] = math.sqrt(m)
    return a


def coherent_vector(gamma, cutoff):
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for m in range(1, cutoff):
        amps[m] = amps[m - 1] * gamma / math.sqrt(m)
    return amps * math.exp(-abs(gamma) ** 2 / 2.0)


def kron_all(mats):
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def explicit_pt(rho, cutoffs, members):
    """Partial transpose written as an index swap on the dense matrix."""
    n = len(cutoffs)
    t = rho.reshape(tuple(cutoffs) * 2)
    for m in members:
        t = np.swapaxes(t, m - 1, n + m - 1)
    dim = int(np.prod(cutoffs))
    return np.ascontiguousarray(t.reshape(dim, dim))


def direct_pt_entry(rho, cutoffs, row, col, members):
    """Matrix entry tr(rho^{T_I} (row monomial)^dagger (col monomial)).

    No normal ordering: the operator product is multiplied out as dense
    matrices and traced against the explicitly partially transposed density
    matrix.
    """
    rho_pt = explicit_pt(rho, cutoffs, members)
    ops = []
    for i, c in enumerate(cutoffs):
        a = ladder(c)
        ad = a.conj().T
        k_r, l_r = row.pairs[i]
        k_c, l_c = col.pairs[i]
        ops.append(
            np.linalg.matrix_power(ad, l_r)
            @ np.linalg.matrix_power(a, k_r)
            @ np.linalg.matrix_power(ad, k_c)
            @ np.linalg.matrix_power(a, l_c)
        )
    big = kron_all(ops)
    return complex(np.sum(rho_pt * big.T))


def direct_moment(rho, cutoffs, key):
    """Normally ordered moment by dense matrix algebra (no expressions)."""
    return direct_pt_entry(rho, cutoffs, MonomialIndex.identity(len(cutoffs)), key, ())


def evaluate_terms(terms, provider):
    """Value of a ``{moment key: coefficient}`` dict on a moment provider."""
    return sum(c * provider.moment(key) for key, c in terms.items())


def density_of(vector):
    return np.outer(vector, vector.conj())


def padded_random_state(rng, support, headroom=7):
    """Random ket populating only the first ``support`` levels of each mode.

    The extra empty layers keep every operator product of small weight exact
    in the truncated space.
    """
    cutoffs = tuple(s + headroom for s in support)
    small = rng.normal(size=support) + 1j * rng.normal(size=support)
    vec = np.zeros(cutoffs, dtype=complex)
    vec[tuple(slice(0, s) for s in support)] = small
    vec /= np.linalg.norm(vec)
    return vec.reshape(-1), cutoffs


def random_monomial(rng, modes, max_weight=3):
    pairs = []
    budget = max_weight
    for _ in range(modes):
        k = int(rng.integers(0, budget + 1))
        budget -= k
        l = int(rng.integers(0, budget + 1))
        budget -= l
        pairs.append((k, l))
    return MonomialIndex(tuple(pairs))


def _coherent_entire(gamma, cutoff):
    """Coherent amplitudes without the exp(-|gamma|^2 / 2) normalization.

    The dropped Gaussian is reinstated analytically inside the completed
    square of :func:`noisy_wstate_density`, keeping ``quad`` exactness.
    """
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0
    for m in range(1, cutoff):
        amps[m] = amps[m - 1] * gamma / math.sqrt(m)
    return amps


def _branch_entire(betas, flipped, cutoffs):
    vec = np.ones(1, dtype=complex)
    for m, (beta, c) in enumerate(zip(betas, cutoffs)):
        amp = -beta if m == flipped else beta
        vec = np.kron(vec, _coherent_entire(amp, c))
    return vec


def noisy_wstate_density(alphas, nbars, cutoff, quad=12):
    """Density matrix of the Gaussian-smeared superposition state.

    Integrates |psi(beta)><psi(beta)| over the product Gaussian kernel with
    a per-axis Gauss-Hermite rule.  The coherent normalization exp(-|beta|^2)
    (bra and ket together) is merged with the kernel exp(-|beta-alpha|^2/nbar)
    into a single completed square, so the grid samples only the entire part
    of the integrand and the rule is exact for the truncated polynomial
    degrees whenever ``2*quad`` exceeds ``2*(cutoff-1) + 1`` per real axis.
    """
    n = len(alphas)
    cutoffs = (cutoff,) * n
    nodes, weights = np.polynomial.hermite.hermgauss(quad)
    axes = []
    for alpha, nbar in zip(alphas, nbars):
        c = 1.0 / nbar + 1.0
        scale = 1.0 / math.sqrt(c)
        xs = alpha.real / (nbar * c) + scale * nodes
        ys = alpha.imag / (nbar * c) + scale * nodes
        axes.append((xs, ys))
    grids = np.meshgrid(*[g for pair in axes for g in pair], indexing="ij")
    flat = [g.reshape(-1) for g in grids]
    wgrids = np.meshgrid(*([weights] * (2 * n)), indexing="ij")
    wflat = np.ones_like(flat[0], dtype=float)
    for w in wgrids:
        wflat = wflat * w.reshape(-1)
    dim = cutoff ** n
    rho = np.zeros((dim, dim), dtype=complex)
    for start in range(0, len(wflat), 4096):
        stop = min(start + 4096, len(wflat))
        block = np.zeros((stop - start, dim), dtype=complex)
        for g in range(start, stop):
            betas = [complex(flat[2 * m][g], flat[2 * m + 1][g]) for m in range(n)]
            psi = np.zeros(dim, dtype=complex)
            for i in range(n):
                psi += _branch_entire(betas, i, cutoffs)
            block[g - start] = psi
        rho += (block.T * wflat[start:stop]) @ block.conj()
    return rho / np.trace(rho).real


def tmsv_vector(r, cutoff):
    t = math.tanh(r)
    vec = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(cutoff):
        vec[m, m] = t ** m
    vec = vec.reshape(-1)
    return vec / np.linalg.norm(vec)
