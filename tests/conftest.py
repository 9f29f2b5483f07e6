"""Shared brute-force oracles used to cross-validate the analytic paths.

Everything here recomputes physics from first principles with dense matrix
algebra (explicit density matrices, explicit partial transposition, explicit
operator products), deliberately avoiding the package's normal-ordering
algebra and its finite Gaussian and Wick sums so the two paths are
independent.  The approximations those sums replaced, a Gauss-Hermite rule
for one noisy mode factor and the Schmidt series of the two-mode squeezed
vacuum, are kept here as references.  The exact re-judge of a witness
(:func:`exact_witness_margin`) ranks monomials, normally orders entries and
takes determinants on its own, in rational arithmetic.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from ptmoments import MomentProvider, MonomialIndex, Selection


def selection_of(*positions):
    """The selection of the given 1-based positions, sorted and without repeats."""
    return Selection(tuple(sorted(set(int(p) for p in positions))))


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


def explicit_pt(rho, cutoffs, members):
    """Partial transpose written as an index swap on the dense matrix."""
    n = len(cutoffs)
    t = rho.reshape(tuple(cutoffs) * 2)
    for m in members:
        t = np.swapaxes(t, m - 1, n + m - 1)
    dim = int(np.prod(cutoffs))
    return np.ascontiguousarray(t.reshape(dim, dim))


def pt_trace(rho_pt, cutoffs, row, col):
    """tr(rho_pt (row monomial)^dagger (col monomial)) for a given dense rho_pt.

    No normal ordering: each mode's operator product is multiplied out as a
    dense matrix, and the trace against the product operator is contracted
    mode by mode on the reshaped density tensor.
    """
    n = len(cutoffs)
    operands = [rho_pt.reshape(tuple(cutoffs) * 2), list(range(2 * n))]
    for i, c in enumerate(cutoffs):
        a = ladder(c)
        ad = a.conj().T
        k_r, l_r = row.pairs[i]
        k_c, l_c = col.pairs[i]
        op = (
            np.linalg.matrix_power(ad, l_r)
            @ np.linalg.matrix_power(a, k_r)
            @ np.linalg.matrix_power(ad, k_c)
            @ np.linalg.matrix_power(a, l_c)
        )
        # tr(rho O) = sum over a, b of rho[a, b] * prod_i O_i[b_i, a_i]
        operands += [op, [n + i, i]]
    return complex(np.einsum(*operands, [], optimize=True))


def direct_pt_entry(rho, cutoffs, row, col, members):
    """Matrix entry tr(rho^{T_I} (row monomial)^dagger (col monomial)).

    The partial transpose is the explicit index swap of :func:`explicit_pt`.
    """
    return pt_trace(explicit_pt(rho, cutoffs, members), cutoffs, row, col)


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


def _coherent_entire(gammas, cutoff):
    """Coherent amplitudes without the exp(-|gamma|^2 / 2) normalization.

    One row per amplitude in ``gammas``.  The dropped Gaussian is reinstated
    analytically inside the completed square of :func:`noisy_wstate_density`,
    keeping ``quad`` exactness.
    """
    amps = np.ones((len(gammas), cutoff), dtype=complex)
    for m in range(1, cutoff):
        amps[:, m] = amps[:, m - 1] * gammas / math.sqrt(m)
    return amps


def _branch_entire(betas, flipped, cutoffs):
    """Product kets, one row per grid point, with mode ``flipped`` sign-flipped."""
    vec = np.ones((len(betas[0]), 1), dtype=complex)
    for m, (beta, c) in enumerate(zip(betas, cutoffs)):
        amps = _coherent_entire(-beta if m == flipped else beta, c)
        vec = (vec[:, :, None] * amps[:, None, :]).reshape(len(vec), -1)
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
        betas = [flat[2 * m][start:stop] + 1j * flat[2 * m + 1][start:stop] for m in range(n)]
        block = np.zeros((stop - start, dim), dtype=complex)
        for i in range(n):
            block += _branch_entire(betas, i, cutoffs)
        rho += (block.T * wflat[start:stop]) @ block.conj()
    return rho / np.trace(rho).real


def tmsv_vector(r, cutoff):
    t = math.tanh(r)
    vec = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(cutoff):
        vec[m, m] = t ** m
    vec = vec.reshape(-1)
    return vec / np.linalg.norm(vec)


def gauss_hermite_factor(alpha, nbar, k, l, overlap):
    """Integral of conj(b)^k b^l (times exp(-2|b|^2) if ``overlap``) under the
    kernel exp(-|b - alpha|^2 / nbar) / (pi nbar), for ``nbar > 0``.

    A Gauss-Hermite rule per quadrature axis; its (k + l) // 2 + 3 points
    are exact for the polynomial.
    """
    sigma = 2.0 if overlap else 0.0
    c = 1.0 / nbar + sigma
    nodes, weights = np.polynomial.hermite.hermgauss((k + l) // 2 + 3)
    prefactor = math.exp(-sigma * abs(alpha) ** 2 / (c * nbar)) / (math.pi * nbar * c)
    xs = alpha.real / (nbar * c) + nodes / math.sqrt(c)
    ys = alpha.imag / (nbar * c) + nodes / math.sqrt(c)
    beta = xs[:, None] + 1j * ys[None, :]
    return prefactor * complex(weights @ (np.conj(beta) ** k * beta ** l) @ weights)


def tmsv_schmidt_series(r, key):
    """Two-mode squeezed vacuum moment summed over sech(r) sum_n tanh(r)^n |nn>.

    Terms are added until one falls below 1e-18 of the running total, which
    takes ever more terms as tanh(r) approaches 1.
    """
    (k1, l1), (k2, l2) = key.pairs
    delta = k1 - l1
    if delta != k2 - l2:
        return 0.0
    t = math.tanh(r)
    total, n = 0.0, max(l1, l2)
    while True:
        m = n + delta
        falling = math.perm(m, k1) * math.perm(m, k2) * math.perm(n, l1) * math.perm(n, l2)
        term = (1.0 - t * t) * t ** (n + m) * math.sqrt(falling)
        total += term
        n += 1
        if n > max(l1, l2) + 5 and abs(term) < 1e-18 * (abs(total) + 1.0):
            return total


def wstate_vector(alphas, cutoffs):
    """Noiseless sign-flip superposition sum_i |a_1, ..., -a_i, ..., a_n>."""
    vec = np.zeros(int(np.prod(cutoffs)), dtype=complex)
    for i in range(len(alphas)):
        branch = np.ones(1, dtype=complex)
        for m, (a, c) in enumerate(zip(alphas, cutoffs)):
            branch = np.kron(branch, coherent_vector(-a if m == i else a, c))
        vec += branch
    return vec / np.linalg.norm(vec)


class CoherentMixture(MomentProvider):
    """Separable mixture sum_c w_c |gamma_c><gamma_c| of coherent product states.

    A moment is sum_c w_c prod_i conj(gamma_ci)^k_i gamma_ci^l_i.
    """

    def __init__(self, weights, gammas):
        self.weights = np.asarray(weights, dtype=float)
        self.gammas = np.asarray(gammas, dtype=complex)
        super().__init__(self.gammas.shape[1])

    def _compute(self, key):
        k, l = np.array(key.pairs).T
        return complex(self.weights @ np.prod(self.gammas.conj() ** k * self.gammas ** l, axis=1))


class Displaced(MomentProvider):
    """The state ``provider`` describes, displaced by ``betas[m]`` in mode ``m + 1``.

    Displacement takes a to a + beta, so a moment is <(ad + conj(beta))^k (a + beta)^l>
    of the base state, mode by mode; both binomials are already normally ordered.
    """

    def __init__(self, provider, betas):
        super().__init__(provider.modes)
        self.base = provider
        self.betas = [complex(b) for b in betas]
        self.label = f"displaced({provider.label})"

    def _compute(self, key):
        total = 0j
        per_mode = [itertools.product(range(k + 1), range(l + 1)) for k, l in key.pairs]
        for lowered in itertools.product(*per_mode):
            weight = 1.0 + 0j
            for (k, l), (p, q), b in zip(key.pairs, lowered, self.betas):
                weight *= math.comb(k, p) * b.conjugate() ** (k - p)
                weight *= math.comb(l, q) * b ** (l - q)
            total += weight * self.base.moment(MonomialIndex(lowered))
        return total


def random_coherent_mixture(rng, modes, max_amplitude=30.0):
    """1-4 coherent product states with random weights and |gamma| <= max_amplitude."""
    count = int(rng.integers(1, 5))
    radii = max_amplitude * np.sqrt(rng.uniform(size=(count, modes)))
    phases = np.exp(2j * np.pi * rng.uniform(size=(count, modes)))
    return CoherentMixture(rng.dirichlet(np.ones(count)), radii * phases)


def random_product_mixture(rng, modes, cutoff):
    """Density matrix of 1-3 weighted products of random one-mode density matrices.

    Each factor is G G^dagger / tr for a complex Gaussian ``cutoff`` x ``cutoff``
    matrix G, so the mixture is separable across every cut and, living in the
    first ``cutoff`` levels, exact in the truncated space.
    """
    count = int(rng.integers(1, 4))
    rho = 0.0
    for weight in rng.dirichlet(np.ones(count)):
        product = np.ones((1, 1), dtype=complex)
        for _ in range(modes):
            g = rng.normal(size=(cutoff, cutoff)) + 1j * rng.normal(size=(cutoff, cutoff))
            factor = g @ g.conj().T
            product = np.kron(product, factor / np.trace(factor).real)
        rho = rho + weight * product
    return rho


def cuts_by_colouring(modes, parts):
    """Members of the canonical cuts that merge ``parts`` into two groups.

    Tries every 2-colouring of the parts and keeps the side without the top
    mode; independent of the package's coarsening predicate.
    """
    everything = frozenset(range(1, modes + 1))
    cuts = set()
    for colours in itertools.product((False, True), repeat=len(parts)):
        group = frozenset().union(*(p for p, c in zip(parts, colours) if c))
        if group and group != everything:
            cuts.add(everything - group if modes in group else group)
    return cuts


def min_principal_minor(values, max_size, *, chunk=100_000):
    """Minimum determinant over every principal minor of size <= max_size.

    Enumerates subsets in batches and evaluates their determinants with
    vectorized LU factorizations; intended for exhaustive nonnegativity
    sweeps over moderate matrices (dimension a few dozen).
    """
    n = values.shape[0]
    best = math.inf
    best_indices = ()
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


@functools.lru_cache(maxsize=None)
def gralex_monomials(modes, max_weight):
    """Monomials of weight <= ``max_weight`` as per-mode (k, l) pairs, position p at
    index p - 1: by weight, then by the reversed packed tuple (l1, k1, ..., ln, kn)."""
    packed = []
    for weight in range(max_weight + 1):
        for combo in itertools.combinations_with_replacement(range(2 * modes), weight):
            packed.append(tuple(combo.count(c) for c in range(2 * modes)))
    packed.sort(key=lambda u: (sum(u), u[::-1]))
    return tuple(tuple((u[2 * m + 1], u[2 * m]) for m in range(modes)) for u in packed)


def pt_entry_terms(row, col, members):
    """{moment key: coefficient} of <(row)^dagger (col)> on the state transposed on ``members``.

    Mode m's factor ad^l_r a^k_r ad^k_c a^l_c is normally ordered by
    a^x ad^y = sum_j j! C(x, j) C(y, j) ad^(y-j) a^(x-j); transposing mode m
    swaps the creation and annihilation exponents of each of its terms.
    """
    per_mode = []
    for m, ((kr, lr), (kc, lc)) in enumerate(zip(row, col), start=1):
        terms = []
        for j in range(min(kr, kc) + 1):
            pair = (lr + kc - j, kr - j + lc)
            terms.append((pair[::-1] if m in members else pair,
                          math.factorial(j) * math.comb(kr, j) * math.comb(kc, j)))
        per_mode.append(terms)
    out = {}
    for combo in itertools.product(*per_mode):
        key = tuple(pair for pair, _ in combo)
        out[key] = out.get(key, 0) + math.prod(c for _, c in combo)
    return out


def _sqrt_up(x):
    """An upper bound on sqrt(x) for a Fraction x >= 0, exact to about 127 bits."""
    bits = 128 + x.denominator.bit_length() // 2
    n = -(-(x.numerator << (2 * bits)) // x.denominator)
    r = math.isqrt(n)
    return Fraction(r + (r * r < n), 1 << bits)


def _exact_det(m):
    """Leibniz determinant of a square matrix of (re, im) Fraction pairs."""
    total_re = total_im = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        re, im = Fraction(-1 if inversions % 2 else 1), Fraction(0)
        for i, j in enumerate(perm):
            a, b = m[i][j]
            re, im = re * a - im * b, re * b + im * a
        total_re += re
        total_im += im
    return total_re, total_im


def exact_witness_margin(doc, members, positions):
    """Exact (det, bound) of a witness minor rebuilt from a moment table's JSON ``doc``.

    Each table value is read as the binary fraction it is, a key missing from the
    table as its partner's conjugate.  Every entry of rows and columns
    ``positions`` under transposition of ``members`` is summed from its terms and
    the block Hermitized, all in exact rational arithmetic, and its determinant
    taken by Leibniz's formula.  The table lets each moment lie within its
    ``tolerance`` of the state's own, so an entry lies within tolerance times its
    coefficient sum; by Hadamard's inequality, row by row, the state's own
    determinant then lies within ``bound`` = prod(|m_i| + |u_i|) - prod |m_i| of
    ``det``, square roots rounded up.  The witness holds for every state the
    table admits exactly when det + bound < 0.
    """
    table = {tuple(zip(e["k"], e["l"])): (e["re"], e.get("im", 0.0)) for e in doc["entries"]}

    def moment(key):
        if key in table:
            re, im = table[key]
        else:
            re, im = table[tuple((l, k) for k, l in key)]
            im = -im
        return Fraction(re), Fraction(im)

    tolerance = Fraction(doc["tolerance"])
    keys = gralex_monomials(doc["modes"], max(sum(map(sum, key)) for key in table))
    rows = [keys[p - 1] for p in positions]
    members = set(members)
    raw, spread = [], []
    for row in rows:
        raw.append([])
        spread.append([])
        for col in rows:
            terms = [(c, moment(key)) for key, c in pt_entry_terms(row, col, members).items()]
            raw[-1].append((sum(c * re for c, (re, _) in terms), sum(c * im for c, (_, im) in terms)))
            spread[-1].append(tolerance * sum(c for c, _ in terms))
    n = len(rows)
    half = Fraction(1, 2)
    hermitized = [[((raw[i][j][0] + raw[j][i][0]) * half, (raw[i][j][1] - raw[j][i][1]) * half)
                   for j in range(n)] for i in range(n)]
    det, imag = _exact_det(hermitized)
    assert imag == 0, "a Hermitian block has a real determinant"
    norms = [_sqrt_up(sum(re * re + im * im for re, im in row)) for row in hermitized]
    widths = [_sqrt_up(sum(((spread[i][j] + spread[j][i]) * half) ** 2 for j in range(n)))
              for i in range(n)]
    bound = math.prod(a + b for a, b in zip(norms, widths)) - math.prod(norms)
    return det, bound
