"""Normal ordering and the symbolic form of moment-matrix entries.

A matrix entry is the expectation of (row monomial)^dagger (col monomial).
Writing that product with every creator to the left of every annihilator
makes the commutators explicit, so one entry becomes a small sum of normally
ordered moments with combinatorial coefficients.  This demo prints those
sums, then shows what partial transposition does to them: it swaps the row
and column exponents of the transposed modes, nothing more — so a transposed
matrix needs no new measured quantities, only the ones already in the table.

Run:  python demos/02_normal_ordering.py
"""

from ptmoments import (
    CoherentProductMoments,
    MonomialIndex,
    entry_expression_pt,
    normal_order_single_mode,
)


def show(terms):
    parts = []
    for key in sorted(terms, key=str):
        coeff = terms[key]
        text = f"{coeff.real:g}" if coeff.imag == 0 else f"({coeff:g})"
        label = str(key)
        parts.append(text if label == "1" else f"{text} <{label}>")
    return "  +  ".join(parts)


def evaluate(terms, provider):
    return sum(coeff * provider.moment(key) for key, coeff in terms.items())


def main():
    print("Normally ordered expansion of ad^l a^k ad^p a^q for one mode:")
    for l, k, p, q in ((0, 1, 1, 0), (0, 2, 2, 0), (1, 2, 3, 1)):
        terms = normal_order_single_mode(l, k, p, q)
        pretty = " + ".join(
            f"{coeff:g} ad^{kk} a^{ll}" for (kk, ll), coeff in sorted(terms.items())
        )
        print(f"  ad^{l} a^{k} ad^{p} a^{q}  =  {pretty}")

    print()
    row = MonomialIndex.parse("ad1 a2", 2)
    expr = entry_expression_pt(row, row)
    print(f"Diagonal entry at {str(row)!r} — the a1 ad1 product in the middle")
    print("commutes into two terms:")
    print(f"  {show(expr)}")

    print()
    a1 = MonomialIndex.parse("a1", 2)
    a2 = MonomialIndex.parse("a2", 2)
    plain = entry_expression_pt(a1, a2)
    swapped = entry_expression_pt(a1, a2, (2,))
    print("Off-diagonal entry at row a1, column a2:")
    print(f"  without transposition:      {show(plain)}")
    print(f"  with mode 2 transposed:     {show(swapped)}")
    print("The transposed entry asks for <ad1 ad2> — a moment that never")
    print("appears in the untransposed matrix at this position.")

    print()
    both = entry_expression_pt(a1, a2, (1, 2))
    mirrored = entry_expression_pt(a2, a1)
    print("Transposing every mode is a full transpose, so the entry moves")
    print(f"to the mirrored position:  identity holds -> {both == mirrored}")

    print()
    print("Expressions evaluate against any moment provider.  On a coherent")
    print("product state each moment factorizes into the amplitudes:")
    provider = CoherentProductMoments((0.5 + 0.2j, -0.3j))
    print(f"  diagonal entry on |0.5+0.2i> x |-0.3i>:  {evaluate(expr, provider):.6f}")
    print(f"  transposed off-diagonal on the same:     {evaluate(swapped, provider):.6f}")


if __name__ == "__main__":
    main()
