"""Direct computation of the Hilbert-Kunz function, degree by degree.

Degree m is read from the rank of the multiplication map

    (+)_i R_{m - q d_i}  ->  R_m,   (a_i) |-> sum_i a_i g_i,

with g_i the reduced q-th generator powers, in monomial coordinates.
The colength of the degree-m piece of R/(g_1, ..., g_n) is dim R_m - rank,
and the kernel dimension is h^0(Syz(g_1..g_n)(m)).  On K[x,y], and on a
cone K[x,y,z]/(H) made monic in x over F_p (``_linear_change``), the
degree-m map is the degree-(m-1) map plus a few new columns, so one
elimination per q streams every degree's rank (``_streamed_pieces``);
other rings eliminate each degree's map on its own (``_degree_piece``).
``pieces`` is the one place that checks q, takes the Frobenius powers
(after the change of coordinates, in the ring the route runs in) and
picks the route, for ``hk_value``, the splitting layer and the primarity
check (q = 1) alike.  The rank-nullity form of
the alternating sum is asserted for every piece as an indexing
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import chain, product

import numpy as np

from .errors import CapExceededError, InternalError, UserError
from .linalg import RankBuilder
from .poly import Poly
from .ring import GradedRing, IdealSpec


def validate_prime_power(p: int, q: int) -> int:
    """Return e with q = p^e, or raise."""
    if q < 1:
        raise UserError(f"q must be a positive power of {p}, got {q}")
    e = 0
    while q > 1:
        if q % p:
            raise UserError(f"q must be a power of the characteristic {p}")
        q //= p
        e += 1
    return e


def frobenius_power_gens(ring: GradedRing, gens, q: int) -> tuple:
    """Reduced q-th powers of gens in ring.

    Over F_p, g^q = g(x_1^q, ..., x_N^q) since c^q = c, so each power is
    one substitution e -> q*e followed by one reduction; the normal form
    modulo a single relation is unique.
    """
    powers = ({tuple(q * a for a in e): c for e, c in g.terms.items()} for g in gens)
    return tuple(ring.reduce(Poly(ring.field, ring.nvars, terms)) for terms in powers)


def _generic_columns(ring: GradedRing, g, d: int, m: int):
    """Columns of the multiplication-by-g map R_{m-d} -> R_m as {row: coeff} dicts.

    d is g's declared degree, so a generator reduced to zero still yields
    its dim R_{m-d} (empty) columns.
    """
    index = {e: i for i, e in enumerate(ring.basis(m))}
    for mu in ring.basis(m - d):
        yield {index[e]: c for e, c in ring.reduce(Poly.monomial(g.field, mu) * g).terms.items()}


@dataclass(frozen=True)
class DegreePiece:
    """Per-degree data from one elimination."""

    m: int
    colength: int
    syzygy_h0: int
    rank: int
    dim_target: int
    dim_source: int


def _degree_piece(ring: GradedRing, gens, degrees, m: int) -> DegreePiece:
    """The degree-m map (+)_i R_{m - degrees[i]} -> R_m, assembled and eliminated whole."""
    rows = ring.hilbert_dim(m)
    cols = sum(ring.hilbert_dim(m - d) for d in degrees)
    builder = RankBuilder(ring.field)
    fed = 0
    for g, d in zip(gens, degrees):
        for col in _generic_columns(ring, g, d, m):
            builder.add_column(col)
            fed += 1
    rank = builder.rank()
    colength = rows - rank
    h0 = cols - rank
    # rank-nullity form of the alternating sum; guards indexing errors
    if colength != rows - fed + h0:
        raise InternalError("alternating-sum identity violated")
    return DegreePiece(m, colength, h0, rank, rows, cols)


def _streamed_pieces(ring: GradedRing, gens, top: int):
    """Yield the DegreePiece of R/(gens) for m = 0..top from one elimination.

    R is K[x,y], or a cone K[x,y,z]/(H) with LT(H) = x^h.  H is then monic
    in x, so R is free over K[y,z] on 1, x, .., x^(h-1) and multiplication
    by y is injective.  Index the rows of every degree's map by
    (l, t) -> t*h + l for x^l y^a z^t: y keeps the index, so the degree-m
    map is the degree-(m-1) map plus the columns z^b * NF(x^k g), one per
    generator g of degree D and k < h with D + k + b = m.  On K[x,y],
    h = 1, t is the y-exponent and x takes the part of y.  Multiplying by
    z keeps monomials standard, so each column is NF(x^k g) shifted by h*b;
    over GF(2) that is the int bits(NF(x^k g)) << (h*b).
    """
    p = ring.field.p
    free = ring.relation is None
    h = 1 if free else ring.relation.degree()
    degrees = [g.degree() for g in gens]
    sources = []  # (coefficient vector of NF(x^k g), its degree D + k)
    for g, d in zip(gens, degrees):
        for k in range(h):
            terms = g.terms if k == 0 else ring.reduce_terms(
                {(e[0] + k,) + e[1:]: c for e, c in g.terms.items()})
            at = {e[-1] * h + (0 if free else e[0]): c for e, c in terms.items()}
            if p == 2:
                vec = sum(1 << r for r in at)
            else:
                vec = np.zeros(h * (d + k + 1), dtype=np.int64)
                vec[list(at)] = list(at.values())
            sources.append((vec, d + k))
    # dim R_j; R is free over K[y,z] on 1, .., x^(h-1), so from j = h-1 on it grows by h
    dims = [ring.hilbert_dim(j) for j in range(h)]
    dims += range(dims[-1] + h, dims[-1] + h * (top - h + 2), h)
    builder = RankBuilder(ring.field)
    fed = 0
    for m in range(top + 1):
        for vec, d in sources:
            if d <= m:
                shift = h * (m - d)
                builder.add_column(vec << shift if p == 2 else np.pad(vec, (shift, 0)))
                fed += 1
        rank = builder.rank()
        rows = dims[m]
        cols = sum(dims[m - d] for d in degrees if d <= m)
        colength = rows - rank
        h0 = cols - rank
        # rank-nullity form of the alternating sum; guards indexing errors
        if colength != rows - fed + h0:
            raise InternalError("alternating-sum identity violated")
        yield DegreePiece(m, colength, h0, rank, rows, cols)


def degree_piece(ideal: IdealSpec, q: int, m: int) -> DegreePiece:
    """Colength and syzygy dimension of the degree-m piece of R/I^[q]."""
    if m < 0:
        return DegreePiece(m, 0, 0, 0, 0, 0)
    validate_prime_power(ideal.field.p, q)
    gens_q = frobenius_power_gens(ideal.ring, ideal.gens, q)
    return _degree_piece(ideal.ring, gens_q, [q * d for d in ideal.degrees], m)


def _linear_change(H: Poly):
    """(order, images): H(Mx) is monic in x, with x_j -> images[j] = (Mx)_j.

    M is over F_p, with first column a point P, H(P) != 0, and then the
    unit vectors e_j, j != i, in index order, i the first index with
    P_i != 0.  The x^h coefficient of H(Mx) is H(P), and M is invertible.
    P is sought among e_1, e_2, e_3 first (a pure power x_i^h in H makes
    M the permutation moving x_i first), then in S^3, S = {0..min(h,p-1)}.
    A nonzero form of degree h has a non-root in S^3 once |S| >= h + 1
    (Schwartz-Zippel), and S = F_p when h >= p, so None means H vanishes
    on all of F_p^3, which needs h >= p + 1 (x^2*y + x*y^2 over F_2).
    """
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    grid = product(range(min(H.degree(), H.field.p - 1) + 1), repeat=3)
    for P in chain(units, grid):
        if H.evaluate(P):
            i = next(j for j in range(3) if P[j])
            order = (i,) + tuple(j for j in range(3) if j != i)
            columns = (P,) + tuple(units[j] for j in order[1:])
            return order, [Poly(H.field, 3, {units[k]: col[j] for k, col in enumerate(columns)})
                           for j in range(3)]
    return None


def pieces(ring: GradedRing, gens, q: int, top: int):
    """DegreePiece of R/(g^q for g in gens) for m = 0..top.

    gens are the unpowered generators; q is checked here, and zero powers
    are dropped.  The only place a route is chosen: one streamed echelon
    on K[x,y] and on a cone K[x,y,z]/(H) carried to H(Mx) by
    ``_linear_change``, one map per degree on every other ring.  M is
    invertible over F_p, so no colength or h^0 changes, and g^q(Mx) is
    g(Mx)^[q]: the change acts on the degree-d generators, and each power
    is taken in the ring the route runs in.
    """
    validate_prime_power(ring.field.p, q)
    H = ring.relation
    change = _linear_change(H) if H is not None and ring.nvars == 3 else None
    if change is not None:
        order, images = change
        ring = GradedRing(ring.field, [ring.vars[j] for j in order], H.substitute(images))
        gens = [g.substitute(images) for g in gens]
    gens = [g for g in frobenius_power_gens(ring, gens, q) if not g.is_zero()]
    if change is not None or (ring.relation is None and ring.nvars == 2):
        return _streamed_pieces(ring, gens, top)
    degrees = [g.degree() for g in gens]
    return (_degree_piece(ring, gens, degrees, m) for m in range(top + 1))


@dataclass
class HKRow:
    """One row of the Hilbert-Kunz function: q -> colength of I^[q]."""

    q: int
    phi: int
    cutoff: int  # first degree of the terminal run of zero colengths
    per_degree: dict = dc_field(default_factory=dict)


def hk_value(ideal: IdealSpec, q: int) -> HKRow:
    """phi(I, q) = length(R/I^[q]) by summing per-degree colengths.

    One vanishing graded piece forces all higher pieces to vanish, so
    summation stops at the first run of z zero degrees, z the sum of the
    generator degrees (at least 1); ``per_degree`` holds every colength
    summed.  A primary ideal never hits the cap q*m0 + nvars*(q-1) + z,
    m0 the primarity degree: write each exponent as a_i = q b_i + r_i
    with r_i < q; in degree q*m0 + nvars*(q-1) and above, sum b_i >= m0,
    so x^b lies in I and the monomial in I^[q].
    """
    consecutive_zeros = max(1, sum(ideal.degrees))
    hard_cap = q * ideal.primarity_degree + ideal.ring.nvars * (q - 1) + consecutive_zeros
    per_degree = {}
    phi = 0
    zeros_run = 0
    for piece in pieces(ideal.ring, ideal.gens, q, hard_cap):
        c = piece.colength
        per_degree[piece.m] = c
        phi += c
        zeros_run = zeros_run + 1 if c == 0 else 0
        if zeros_run >= consecutive_zeros:
            return HKRow(q=q, phi=phi, cutoff=piece.m - zeros_run + 1, per_degree=per_degree)
    raise CapExceededError(
        f"no vanishing tail up to degree {hard_cap} for q={q}; non-primary input"
    )
