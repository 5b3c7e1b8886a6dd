import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hilbertkunz.errors import NotPrimaryError, UserError
from hilbertkunz.field import PrimeField
from hilbertkunz.poly import Poly, parse_poly
from hilbertkunz.ring import GradedRing, IdealSpec, first_vanishing_degree

from oracles import degree_monomials

F5 = PrimeField(5)
XYZ = ("x", "y", "z")


def fermat_ring(p=5):
    F = PrimeField(p)
    return GradedRing(F, XYZ, relation=parse_poly("x^3+y^3+z^3", XYZ, F))


def test_free_ring_basics():
    R = GradedRing(F5, ("x", "y"))
    assert R.relation is None
    assert [R.hilbert_dim(m) for m in range(5)] == [1, 2, 3, 4, 5]
    f = R.parse("x^2+y^2")
    assert R.reduce(f) == f  # identity on the free ring
    with pytest.raises(UserError, match="polynomial lives in a different ring"):
        R.reduce(parse_poly("x^2+z^2", XYZ, F5))


def test_hypersurface_hilbert_function():
    R = fermat_ring()
    # 1, 3, 6, then constant difference: dim R_m = 3m for m >= 1
    assert [R.hilbert_dim(m) for m in range(6)] == [1, 3, 6, 9, 12, 15]
    for m in range(30):
        assert len(R.basis(m)) == R.hilbert_dim(m)


def test_normal_form_example():
    """x^4 reduces against x^3 = -(y^3 + z^3)."""
    R = fermat_ring()
    f = R.parse("x^4")
    assert R.poly_str(f) == "4*x*y^3 + 4*x*z^3"
    # and the reduction is a ring map: nf(x)^4 reduced again agrees
    assert R.reduce(R.parse("x") ** 4) == f


def test_normal_form_idempotent_linear_multiplicative():
    R = fermat_ring()
    rng = random.Random(11)
    mons = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    for _ in range(40):
        def rand_poly():
            from hilbertkunz.poly import Poly

            terms = {}
            for _ in range(rng.randint(1, 5)):
                terms[rng.choice(mons)] = rng.randint(1, 4)
            return Poly(F5, 3, terms)

        f, g = rand_poly(), rand_poly()
        nf = R.reduce
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(f * g) == nf(nf(f) * nf(g))


def test_normal_form_kills_relation_multiples():
    R = fermat_ring()
    h = R.relation
    f = R.parse("x*y + z^2")
    assert R.reduce(h * f).is_zero()


def test_basis_excludes_leading_monomial_multiples():
    R = fermat_ring()
    lt = R.relation.leading_monomial()
    for m in range(3, 10):
        for e in R.basis(m):
            assert not all(a <= b for a, b in zip(lt, e))


def test_free_ring_basis_counts():
    for n in (1, 2, 3, 4):
        R = GradedRing(F5, ("x", "y", "z", "w")[:n])
        for m in range(8):
            basis = R.basis(m)
            assert len(basis) == len(set(basis)) == comb(m + n - 1, n - 1)
            assert all(len(e) == n and sum(e) == m for e in basis)


@st.composite
def monomial_relations(draw):
    """A monomial x^l in 1..4 variables, l in {0..3}^n not all zero."""
    n = draw(st.integers(1, 4))
    lead = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return tuple(lead)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(lead=monomial_relations(), m=st.integers(0, 12))
def test_basis_is_the_standard_monomials(lead, m):
    n = len(lead)
    R = GradedRing(F5, [f"x{i}" for i in range(n)], relation=Poly.monomial(F5, lead))
    basis = R.basis(m)
    expected = {e for e in degree_monomials(n, m) if not all(a <= b for a, b in zip(lead, e))}
    assert len(basis) == len(set(basis)) == R.hilbert_dim(m)
    assert set(basis) == expected


def test_ideal_spec_validation():
    R = GradedRing(F5, ("x", "y"))
    with pytest.raises(UserError):
        IdealSpec(R, (R.parse("x"),))  # too few generators
    with pytest.raises(UserError):
        IdealSpec(R, (R.parse("x + x^2"), R.parse("y")))  # inhomogeneous
    with pytest.raises(UserError):
        IdealSpec(R, (R.parse("0"), R.parse("y")))  # zero generator


@pytest.mark.parametrize("other_names", [("x", "y"), XYZ], ids=["cone", "free"])
def test_ideal_spec_rejects_generators_from_another_ring(other_names):
    """reduce, on both ring kinds, refuses a polynomial in another number of
    variables or over another prime field."""
    R = GradedRing(F5, ("x", "y")) if other_names == XYZ else fermat_ring()
    foreign = [tuple(parse_poly(v, other_names, F5) for v in ("x", other_names[-1])),
               (R.parse("x"), parse_poly("x^2 - y^2", R.vars, PrimeField(7)))]
    for gens in foreign:
        with pytest.raises(UserError, match="polynomial lives in a different ring"):
            IdealSpec(R, gens)


@pytest.mark.parametrize("names", [("x",), ("x", "y", "z")])
def test_free_rings_outside_two_variables_rejected(names):
    """Only F_p[x,y] and plane-curve cones are the paper's rings."""
    R = GradedRing(F5, names)
    with pytest.raises(UserError):  # each variable twice: two generators even on F_5[x]
        IdealSpec(R, tuple(R.parse(v) for v in names) * 2)


def test_hypersurface_outside_three_variables_rejected():
    names = ("x", "y")
    R = GradedRing(F5, names, relation=parse_poly("x^2+y^2", names, F5))
    with pytest.raises(UserError):
        IdealSpec(R, (R.parse("x"), R.parse("y")))


def test_not_primary_detected():
    R = GradedRing(F5, ("x", "y"))
    with pytest.raises(NotPrimaryError):
        IdealSpec(R, (R.parse("x"), R.parse("x^2")))  # misses y entirely
    ideal = IdealSpec(R, (R.parse("x"), R.parse("y")))
    assert ideal.primarity_degree == 1  # (R/(x,y))_m = 0 first at m = 1
    assert first_vanishing_degree(R, ideal.gens, 10) == 1
    with pytest.raises(NotPrimaryError):
        first_vanishing_degree(R, (R.parse("x"), R.parse("x^2")), 10)


def test_first_vanishing_degree_values():
    R = GradedRing(F5, ("x", "y"))
    gens = (R.parse("x^3"), R.parse("x*y^2"), R.parse("y^3"))
    # per-degree colengths 1,2,3,1,0 -> first vanishing at 4
    assert first_vanishing_degree(R, gens, 20) == 4
    # a zero generator contributes nothing
    assert first_vanishing_degree(R, gens + (R.parse("0"),), 20) == 4


def test_ideal_degrees_and_pair_degree():
    R = GradedRing(F5, ("x", "y"))
    ideal = IdealSpec(R, (R.parse("x^3"), R.parse("x*y^2"), R.parse("y^3")))
    assert ideal.degrees == (3, 3, 3)
    assert ideal.n == 3
    assert ideal.max_pair_degree() == 6


def test_relation_normalized_monic():
    F = PrimeField(5)
    R1 = GradedRing(F, XYZ, relation=parse_poly("2x^3+2y^3+2z^3", XYZ, F))
    R2 = fermat_ring()
    f = parse_poly("x^5 + y^4*z", XYZ, F)
    assert R1.reduce(f) == R2.reduce(f)


def test_bad_relations_rejected():
    F = PrimeField(5)
    for text in ("0", "x^2 + y", "3"):
        with pytest.raises(UserError):
            GradedRing(F, XYZ, relation=parse_poly(text, XYZ, F))
