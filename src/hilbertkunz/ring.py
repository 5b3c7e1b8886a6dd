"""Graded rings: the free ring K[X_1..X_N] and hypersurface quotients S/(H).

Normal forms with respect to the single relation H use the classical
one-divisor division algorithm under the fixed grevlex order.
"""

from __future__ import annotations

import heapq
from math import comb

from .errors import NotPrimaryError, UserError
from .field import PrimeField
from .poly import Poly, grevlex_key, monomial_div, monomial_divides, monomial_mul, parse_poly


def _monomials(n: int, m: int) -> list:
    """Every exponent tuple of total degree m in n variables."""
    if m < 0 or (n == 0 and m > 0):
        return []
    if n <= 1:
        return [(m,) * n]
    return [(a,) + rest for a in range(m + 1) for rest in _monomials(n - 1, m - a)]


class GradedRing:
    """Standard-graded ring, either free or a hypersurface quotient.

    For the hypersurface kind the relation is normalized to be monic
    (leading coefficient 1 under grevlex); this changes the relation only
    by a unit and keeps the quotient ring unchanged.
    """

    def __init__(self, field: PrimeField, varnames, relation: Poly | None = None):
        self.field = field
        self.vars = tuple(varnames)
        self.nvars = len(self.vars)
        if self.nvars < 1:
            raise UserError("need at least one variable")
        if relation is not None:
            if relation.is_zero():
                raise UserError("hypersurface relation must be nonzero")
            if not relation.is_homogeneous():
                raise UserError("hypersurface relation must be homogeneous")
            if relation.nvars != self.nvars or relation.field.p != field.p:
                raise UserError("relation lives in a different ring")
            if relation.degree() < 1:
                raise UserError("hypersurface relation must have degree >= 1")
            lead = relation.leading_monomial()
            lc = relation.terms[lead]
            if lc != 1:
                relation = relation.scale(field.inv(lc))
            self._lt = lead
            # H = LT + tail, so LT == -tail in the quotient
            self._tail = {e: -c % field.p for e, c in relation.terms.items() if e != lead}
        self.relation = relation

    # -- graded pieces -------------------------------------------------

    def hilbert_dim(self, m: int) -> int:
        """Dimension of the degree-m graded piece."""
        if m < 0:
            return 0
        n = self.nvars
        dim = comb(m + n - 1, n - 1)
        if self.relation is not None:
            h = self.relation.degree()
            if m - h >= 0:
                dim -= comb(m - h + n - 1, n - 1)
        return dim

    def basis(self, m: int) -> tuple:
        """Monomial basis of the degree-m piece, in no particular order.

        On a hypersurface ring these are the standard monomials: the
        degree-m monomials e not divisible by l = LT(H).  They split
        disjointly by the first index i with e_i < l_i: e_j = l_j + f_j
        for j < i, e_i = a < l_i, and (f_1..f_{i-1}, e_{i+1}..) is any
        monomial of degree m - (l_1 + .. + l_{i-1}) - a in N-1 variables,
        so the listing costs the size of the basis.
        """
        if m < 0:
            return ()
        if self.relation is None:
            mons = tuple(_monomials(self.nvars, m))
        else:
            lt = self._lt
            mons = []
            for i, li in enumerate(lt):
                head = lt[:i]
                rest = m - sum(head)
                for a in range(min(li, rest + 1)):
                    for f in _monomials(self.nvars - 1, rest - a):
                        mons.append(tuple(map(sum, zip(head, f))) + (a,) + f[i:])
            mons = tuple(mons)
        assert len(mons) == self.hilbert_dim(m)
        return mons

    # -- normal forms --------------------------------------------------

    def reduce_terms(self, terms: dict) -> dict:
        """Reduce a term dict modulo the relation (hypersurface kind)."""
        lt = self._lt
        tail = self._tail
        p = self.field.p
        out = {e: c % p for e, c in terms.items() if c % p}
        heap = []
        for e in out:
            if monomial_divides(lt, e):
                k = grevlex_key(e)
                heapq.heappush(heap, ((-k[0], tuple(-x for x in k[1])), e))
        while heap:
            _, e = heapq.heappop(heap)
            c = out.get(e)
            if not c:
                continue
            del out[e]
            quot = monomial_div(e, lt)
            for te, tc in tail.items():
                ne = monomial_mul(quot, te)
                nc = (out.get(ne, 0) + c * tc) % p
                if nc:
                    if ne not in out and monomial_divides(lt, ne):
                        k = grevlex_key(ne)
                        heapq.heappush(
                            heap, ((-k[0], tuple(-x for x in k[1])), ne)
                        )
                    out[ne] = nc
                elif ne in out:
                    del out[ne]
        return out

    def reduce(self, f: Poly) -> Poly:
        """The normal form of f: f itself on a free ring, no term divisible by LT(H) on a cone."""
        if f.nvars != self.nvars or f.field.p != self.field.p:
            raise UserError("polynomial lives in a different ring")
        return f if self.relation is None else Poly(self.field, self.nvars, self.reduce_terms(f.terms))

    def parse(self, text: str) -> Poly:
        return self.reduce(parse_poly(text, self.vars, self.field))

    def poly_str(self, f: Poly) -> str:
        return f.to_string(self.vars)

    def __repr__(self):
        if self.relation is None:
            return f"F_{self.field.p}[{','.join(self.vars)}]"
        return f"F_{self.field.p}[{','.join(self.vars)}]/({self.poly_str(self.relation)})"


def first_vanishing_degree(ring: GradedRing, gens, bound: int) -> int:
    """Smallest m with (R/(gens))_m = 0, or NotPrimaryError if none <= bound.

    In a standard-graded ring one vanishing graded piece forces all
    higher ones to vanish, so the first hit is returned; it is at an end
    of one of ``engine.runs``, on which the colength is linear and >= 0.
    The twists are not checked against count and sum here (``hk_value``
    does): a non-primary ideal breaks both, and must end in NotPrimaryError.
    """
    from .engine import runs, split

    for m, n, c, dc in runs(ring, gens, 1, bound, split(ring, gens, 1)):
        if c == 0 or c + (n - 1) * dc == 0:
            return m if c == 0 else m + n - 1
    raise NotPrimaryError(
        f"no vanishing graded piece up to degree {bound}; ideal is not primary"
    )


class IdealSpec:
    """A homogeneous primary ideal given by explicit generators.

    The ring is F_p[x,y] or a plane-curve cone F_p[x,y,z]/(H), the two
    classes of the paper.  Construction checks that and homogeneity,
    records generator degrees, reduces generators to normal form, and
    finds the primarity degree m0, the first m with (R/I)_m = 0, searching
    m <= N(D-1)+1 with N = nvars and D the largest degree among the
    generators and the relation.  That bound holds for every primary I:
    I+(H) is primary in K[x_1..x_N] and generated in degrees <= D, so over
    an infinite extension of K it contains N general forms of degree D, a
    regular sequence whose quotient vanishes above degree N(D-1);
    colengths do not change under base change.
    """

    def __init__(self, ring: GradedRing, gens: tuple):
        nvars, relation = ring.nvars, ring.relation
        if nvars != (2 if relation is None else 3):
            raise UserError(f"{ring!r}: the ring must be F_p[x,y] or a plane-curve "
                            "cone F_p[x,y,z]/(H)")
        reduced = []
        for g in gens:
            g = ring.reduce(g)
            if g.is_zero():
                raise UserError("zero generator")
            if not g.is_homogeneous():
                raise UserError(f"generator {g!r} is not homogeneous")
            reduced.append(g)
        if len(reduced) < 2:
            raise UserError("need at least two generators")
        self.ring, self.gens = ring, tuple(reduced)
        self.degrees = tuple(g.degree() for g in reduced)
        D = max(*self.degrees, 1 if relation is None else relation.degree())
        bound = nvars * (D - 1) + 1
        self.primarity_degree = first_vanishing_degree(self.ring, self.gens, bound)

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def field(self) -> PrimeField:
        return self.ring.field

    def max_pair_degree(self) -> int:
        ds = sorted(self.degrees, reverse=True)
        return ds[0] + ds[1]

    def __repr__(self):
        gens = ", ".join(self.ring.poly_str(g) for g in self.gens)
        return f"({gens}) in {self.ring!r}"

