"""Independent reference computations used to cross-check the package.

Everything here is deliberately naive: plain Python integers, dict-based
columns, textbook elimination.  None of it shares code with the package
internals beyond the public Monomial convention (exponent tuples).
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product


def rank_mod_p(columns, p):
    """Rank of a list of {row: coeff} columns over F_p, by slow elimination."""
    pivots = {}
    rank = 0
    for col in columns:
        col = {r: c % p for r, c in col.items() if c % p}
        while col:
            piv = max(col)
            if piv in pivots:
                other = pivots[piv]
                f = col[piv] * pow(other[piv], -1, p) % p
                merged = dict(col)
                for r, c in other.items():
                    merged[r] = (merged.get(r, 0) - f * c) % p
                col = {r: c for r, c in merged.items() if c}
            else:
                pivots[piv] = col
                rank += 1
                break
    return rank


def degree_monomials(nvars, m):
    """All exponent tuples of total degree m (order irrelevant here)."""
    if m < 0:
        return []
    out = []
    for combo in product(range(m + 1), repeat=nvars - 1):
        if sum(combo) <= m:
            out.append(combo + (m - sum(combo),))
    return out


def ambient_colength(relation_terms, gen_terms_list, nvars, p, m):
    """dim of (S/(H, g_1..g_k))_m computed in the ambient polynomial ring.

    relation_terms may be None for the free ring.  Each polynomial is a
    {exponent-tuple: coeff} dict; all inputs homogeneous.
    """
    basis = degree_monomials(nvars, m)
    index = {e: i for i, e in enumerate(basis)}
    polys = list(gen_terms_list)
    if relation_terms is not None:
        polys.append(relation_terms)
    columns = []
    for g in polys:
        d = sum(next(iter(g)))
        for mu in degree_monomials(nvars, m - d):
            col = {}
            for e, c in g.items():
                i = index[tuple(a + b for a, b in zip(mu, e))]
                col[i] = (col.get(i, 0) + c) % p
            columns.append(col)
    return len(basis) - rank_mod_p(columns, p)


def partial_terms(terms, p):
    """The nonzero partial derivatives of a {exponent-tuple: coeff} dict over F_p."""
    out = []
    for i in range(len(next(iter(terms)))):
        d = {}
        for e, c in terms.items():
            if e[i] % p:
                d[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i] % p
        if d:
            out.append(d)
    return out


def frobenius_terms(terms, q, p):
    """Raise a term dict to the q-th power using the Frobenius identity.

    In characteristic p with q a power of p, (sum c_e x^e)^q equals
    sum c_e^q x^(qe); this avoids any multiplication code.
    """
    return {tuple(q * a for a in e): pow(c, q, p) for e, c in terms.items()}


def value_at(terms, point, p):
    """Value mod p of a {exponent-tuple: coeff} dict at an integer point."""
    total = 0
    for e, c in terms.items():
        v = c
        for a, k in zip(point, e):
            v *= a**k
        total += v
    return total % p


def substitute(terms, point, p):
    """g(P_1, ..., P_N) mod p for a {exponent-tuple: coeff} dict g and N
    polynomials P_i given as such dicts in one set of variables, by
    multiplying out every power term by term."""
    nvars = len(next(iter(point[0])))
    out = {}
    for e, c in terms.items():
        product_terms = {(0,) * nvars: c}
        for factor, k in zip(point, e):
            for _ in range(k):
                step = {}
                for a, ca in product_terms.items():
                    for b, cb in factor.items():
                        key = tuple(i + j for i, j in zip(a, b))
                        step[key] = (step.get(key, 0) + ca * cb) % p
                product_terms = step
        for a, ca in product_terms.items():
            out[a] = (out.get(a, 0) + ca) % p
    return {a: c for a, c in out.items() if c}


def rational_cone_ehk(P, gens, h, p):
    """e_HK of (g_1..g_k) on the cone over a rational plane curve of degree h.

    P = (P_x, P_y, P_z) are binary forms of degree h in u, v that
    parametrize the curve birationally.  x, y, z -> P maps R into the
    Veronese ring F_p[u,v]^(h) as a finite birational extension, over which
    F_p[u,v] is free of rank h, and on the regular ring F_p[u,v] the
    function is q^2 times the colength (Kunz).  So e_HK is
    length(F_p[u,v]/(g_i(P)))/h, the colength summed degree by degree
    until a degree has none.
    """
    pulled = [t for t in (substitute(g, P, p) for g in gens) if t]
    total, m = 0, 0
    while (colength := ambient_colength(None, pulled, 2, p, m)) > 0:
        total += colength
        m += 1
    return Fraction(total, h)


Piece = namedtuple("Piece", "m colength syzygy_h0 rank dim_target dim_source")


def split_pieces(split, top):
    """Per-degree data for m = 0..top from the degrees of a kernel split.

    ``split`` is (targets, sources, twists), the degrees of bases of free
    modules, and each dimension in degree m is sum_a (m - a + 1)_+ over its
    degrees, summed afresh for every m.  The fields are in the order of the
    package's DegreePiece, so the two compare equal as tuples.
    """
    out = []
    for m in range(top + 1):
        rows, cols, h0 = (sum(max(0, m - a + 1) for a in degrees) for degrees in split)
        out.append(Piece(m, rows - cols + h0, h0, cols - h0, rows, cols))
    return out
