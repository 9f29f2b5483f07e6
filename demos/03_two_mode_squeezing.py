"""Detect the entanglement of a two-mode squeezed vacuum from moments.

The two-mode squeezed vacuum is the standard Gaussian entangled state.  Its
moment matrix, after transposing one of the modes, develops a negative
principal minor: the 5x5 block over the identity and the four first-order
monomials has determinant -sinh(r)^2 cosh(r)^2, negative for every nonzero
squeezing r.  Without the transposition the same block stays nonnegative.
The automated eigenvector-guided scan finds an even smaller witness — a 2x2
minor worth -sinh(r)^2 — without being told where to look.

Run:  python demos/03_two_mode_squeezing.py
"""

import math

import numpy as np

from ptmoments import (
    Selection,
    TmsvMoments,
    build_matrix,
    eigen_negativity_scan,
    monomial_at,
    principal_minor,
)


def main():
    leading5 = Selection.leading(5)
    print("Fifth-order minor of the two-mode squeezed vacuum, with and")
    print("without transposing mode 2:")
    print(f"  {'r':>5} {'transposed':>16} {'closed form':>16} {'untransposed':>16}")
    for r in (0.1, 0.3, 0.5, 0.8, 1.2):
        provider = TmsvMoments(r)
        with_pt = principal_minor(provider, (2,), leading5).determinant
        without = principal_minor(provider, (), leading5).determinant
        closed = -math.sinh(r) ** 2 * math.cosh(r) ** 2
        print(f"  {r:5.2f} {with_pt:16.9f} {closed:16.9f} {without:16.9f}")

    print()
    r = 0.8
    provider = TmsvMoments(r)
    matrix = build_matrix(provider, (2,), Selection.up_to_weight(2, 1))
    print(f"Transposed first-order matrix at r = {r} (real parts):")
    for row, position in zip(matrix.values.real, matrix.selection):
        cells = " ".join(f"{x:8.4f}" for x in row)
        print(f"  {str(monomial_at(2, position)):>4} [ {cells} ]")
    spectrum = " ".join(f"{x:.6f}" for x in np.linalg.eigvalsh(matrix.values))
    print(f"  eigenvalues: {spectrum}")

    print()
    result = eigen_negativity_scan(provider, (2,), max_order=1)
    minor = result.minor
    print("Scanning just that first-order matrix pins the negativity to a")
    print("minimal witness:")
    print(f"  positions {result.witness.positions}"
          f"  (monomials {', '.join(str(monomial_at(2, p)) for p in result.witness)})")
    print(f"  determinant {minor.determinant:.9f}   expected -sinh^2 r ="
          f" {-math.sinh(r) ** 2:.9f}")
    print(f"  verdict: {minor.verdict}")


if __name__ == "__main__":
    main()
