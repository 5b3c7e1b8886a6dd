"""Cross-route property tests on random primary ideals.

Each drawn ideal of F_p[x,y] is run through the kernel route (its split
in closed form, ``oracles.split_pieces``, and ``hk_value``), the
per-degree route (``_degree_piece``), the ambient-ring elimination in
``oracles.py`` and the splitting type, and the four must agree.
p = 131 and p = 32749 run the kernel on 32-bit slots: at 131 a pivot
that took one transformation has bound p + (p - 1)^2 = 17031 < 2^16 and
is carried unreduced, at 32749 it is past 2^16 and is reduced.
p = 65521 and p = 2^31 - 1 run the kernel on 64-bit slots, and at
2^31 - 1 a slot takes only 4 transformations from reduced pivots before
its bound would reach 2^64.  For p > 5 only q = 1 is drawn: at q = p
the degrees run into the tens of thousands.

Each drawn ideal of a cone F_p[x,y,z]/(H), deg H in 2..6, is checked
degree by degree against the same ambient elimination of (H, g_i^q),
and the split's closed form against ``_degree_piece`` on the powers g_i^q
multiplied out and reduced in the original coordinates, so the kernel
route is checked against powers it did not take itself; the cone draws
run at the same p as the binary ones.  A random H may have an x^h, a
y^h or a z^h term or none, so the draws reach the kernel route through
a permutation of the variables and through a change of coordinates that
moves an F_p-point off the curve to (1, 0, 0); ``test_cone_routes_agree``
pins cases of each, and curves through every point of F_p^3, which keep
the per-degree route.  ``test_linear_change`` checks that change itself
on random forms, some of them vanishing on all of F_p^3.

``test_packed_rows_match_reduced_powers`` checks the kernel's rows, built
in K[t][x]/(H) by products of packed ints, slot for slot against the
reduced powers NF(x^k g^q) of ``frobenius_power_gens`` and ``reduce_terms``;
p = 32749 and 2^31 - 1 make the products' slots wider than the kernel's.

``test_phi_from_the_split_degrees`` checks the closed form
phi(q) = (sum_(l<h) l^2 - sum s^2 + sum e_j^2) / 2 over the degrees that
``split`` gives, against the runs that ``hk_value`` sums, for p <= 7 and
q <= p^2 on F_p[x,y] and on cones of degree 1..6.

``test_both_walks_stop_at_the_first_vanishing_degree`` checks on the same
draws that ``hk_value`` and the primarity search end at the first degree
whose colength is 0, and how ``per_degree`` pads that with zeros.
"""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from hilbertkunz import engine
from hilbertkunz.errors import NotPrimaryError, UserError
from hilbertkunz.field import PrimeField
from hilbertkunz.p1 import splitting_type
from hilbertkunz.poly import Poly, parse_poly
from hilbertkunz.ring import GradedRing, IdealSpec

from oracles import ambient_colength, frobenius_terms, split_pieces, value_at

CASES = ((2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 5), (131, 1), (32749, 1), (65521, 1),
         (2**31 - 1, 1))


@st.composite
def binary_ideals(draw, p):
    """Two to three binary forms of degree 1..3 over F_p, made primary."""
    field = PrimeField(p)
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        d = draw(st.integers(1, 3))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
        terms = {(d - b, b): c for b, c in enumerate(coeffs) if c}
        gens.append(Poly(field, 2, terms or {(d, 0): 1}))
    ring = GradedRing(field, ("x", "y"))
    try:
        return IdealSpec(ring, tuple(gens))
    except NotPrimaryError:
        # a common factor: add x^D, y^D, which makes any ideal primary
        D = max(g.degree() for g in gens)
        powers = (Poly.monomial(field, (D, 0)), Poly.monomial(field, (0, D)))
        return IdealSpec(ring, tuple(gens) + powers)


def _per_degree_pieces(ideal, q, top):
    """The per-degree route on the nonzero powers g^q, multiplied out and
    reduced in the original coordinates, so not by the code under test."""
    ring = ideal.ring
    gens = [g for g in (ring.reduce(g**q) for g in ideal.gens) if not g.is_zero()]
    return [engine._degree_piece(ring, gens, m) for m in range(top + 1)]


def _routed_pieces(ideal, q, top):
    """The pieces of the route ``hk_value`` takes: the split's closed form, or
    where ``split`` is None, the per-degree route on ``frobenius_power_gens``."""
    ring = ideal.ring
    s = engine.split(ring, ideal.gens, q)
    if s is not None:
        return split_pieces(s, top)
    powers = [g for g in engine.frobenius_power_gens(ring, ideal.gens, q) if not g.is_zero()]
    return [engine._degree_piece(ring, powers, m) for m in range(top + 1)]


def _oracle_colengths(ideal, q, top):
    p = ideal.field.p
    gens = [frobenius_terms(g.terms, q, p) for g in ideal.gens]
    return [ambient_colength(None, gens, 2, p, m) for m in range(top + 1)]


@pytest.mark.parametrize("p,q", CASES)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_routes_agree_on_binary_forms(p, q, data):
    ideal = data.draw(binary_ideals(p))
    row = engine.hk_value(ideal, q)
    last = max(row.per_degree)
    top = max(last, q * ideal.max_pair_degree() + 2)
    oracle = _oracle_colengths(ideal, q, top)

    # the split's closed form equals the per-degree pieces of the plainly multiplied powers
    gens_q = [g**q for g in ideal.gens]
    streamed = split_pieces(engine.split(ideal.ring, ideal.gens, q), last)
    assert streamed == [engine._degree_piece(ideal.ring, gens_q, m) for m in range(last + 1)]

    # hk_value's per-degree colengths equal the ambient elimination
    assert row.per_degree == {m: oracle[m] for m in range(last + 1)}
    assert row.phi == sum(oracle)

    # the twists give the colengths through the P^1 identity
    twists = splitting_type(ideal, q).twists
    for m in range(top + 1):
        predicted = (
            (m + 1)
            - sum(max(0, m - q * d + 1) for d in ideal.degrees)
            + sum(max(0, m - e + 1) for e in twists)
        )
        assert predicted == oracle[m], (m, twists)


HYPERSURFACE_CASES = ((2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 5), (131, 1), (32749, 1),
                      (65521, 1), (2**31 - 1, 1))


def _ternary_form(draw, field, d, k):
    """A random form of degree d in x, y, z; the d-th power of variable k if zero."""
    p = field.p
    mons = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons)))
    terms = {e: c for e, c in zip(mons, coeffs) if c}
    return Poly(field, 3, terms or {tuple(d if i == k else 0 for i in range(3)): 1})


@st.composite
def cone_ideals(draw, p, lowest=2):
    """Two or three forms of degree 1..2 on a random cone of degree lowest..6;
    if not primary, the variables that are not multiples of H (x, y, z unless
    H is one of them)."""
    field = PrimeField(p)
    names = ("x", "y", "z")
    relation = _ternary_form(draw, field, draw(st.integers(lowest, 6)), 2)
    ring = GradedRing(field, names, relation=relation)
    count = draw(st.integers(2, 3))
    gens = [_ternary_form(draw, field, draw(st.integers(1, 2)), k) for k in range(count)]
    try:
        return IdealSpec(ring, tuple(gens))
    except UserError:  # not primary, or a generator that is a multiple of H
        return IdealSpec(ring, tuple(g for g in map(ring.parse, names) if not ring.reduce(g).is_zero()))


@pytest.mark.parametrize("p,q", HYPERSURFACE_CASES)
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cone_colengths_match_ambient_oracle(p, q, data):
    ideal = data.draw(cone_ideals(p))
    row = engine.hk_value(ideal, q)
    relation = ideal.ring.relation.terms
    gens = [frobenius_terms(g.terms, q, p) for g in ideal.gens]
    assert row.per_degree == {
        m: ambient_colength(relation, gens, 3, p, m) for m in row.per_degree
    }
    last = max(row.per_degree)
    assert _routed_pieces(ideal, q, last) == _per_degree_pieces(ideal, q, last)


@pytest.mark.parametrize("p,q", [(p, q) for p in (2, 3, 5, 7) for q in (1, p, p * p)])
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_phi_from_the_split_degrees(p, q, data):
    """phi(q) = (sum_(l<h) l^2 - sum_s s^2 + sum_j e_j^2) / 2 over the target,
    source and twist degrees of ``split``, wherever it has (n-1) h twists:
    summed over all m, the terms in m of the three dimension formulas cancel."""
    ideal = data.draw(st.one_of(binary_ideals(p), cone_ideals(p, lowest=1)))
    s = engine.split(ideal.ring, ideal.gens, q)
    assume(s is not None and len(s.twists) == (ideal.n - 1) * len(s.targets))
    squares = [sum(a * a for a in degrees) for degrees in s]
    assert squares[0] - squares[1] + squares[2] == 2 * engine.hk_value(ideal, q).phi


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_both_walks_stop_at_the_first_vanishing_degree(p, data):
    """The primarity search and hk_value at q = 1 stop at the same degree,
    and at q = 1 and q = p per_degree is the positive colengths below the
    cutoff, then z = sum(d_i) zeros, summing to phi."""
    ideal = data.draw(st.one_of(binary_ideals(p), cone_ideals(p, lowest=1)))
    z = max(1, sum(ideal.degrees))
    assert engine.hk_value(ideal, 1).cutoff == ideal.primarity_degree
    for q in (1, p):
        row = engine.hk_value(ideal, q)
        assert sorted(row.per_degree) == list(range(row.cutoff + z))
        assert all(row.per_degree[m] > 0 for m in range(row.cutoff))
        assert all(row.per_degree[m] == 0 for m in range(row.cutoff, row.cutoff + z))
        assert sum(row.per_degree.values()) == row.phi


CONES = (
    (5, "x^3+y^3+z^3"),  # LT(H) = x^3 already
    (7, "x^3-y^2*z"),  # the cusp, LT(H) = x^3
    (5, "x^2*y+y^3+z^3"),  # y is moved first
    (3, "x*y^2+x^2*z+z^3"),  # z is moved first
    (2, "x^2"),  # h = 2, not a domain; x^[2] reduces to zero
    (2, "x^2*y+y^2*z+z^2*x"),  # the Klein cubic: no pure power, P = (0, 1, 1)
    (3, "x^2*y+y^2*z+z^2*x"),
    (5, "x^2*y+y^2*z+z^2*x"),
    (2, "x^2*y+x*y^2"),  # zero on all of F_2^3: the per-degree route
    (3, "x^3*y-x*y^3"),  # zero on all of F_3^3: the per-degree route
)


# (x, y, z) is fixed by every change of coordinates; x + 2y makes a change
# left off the generators show on the reordered cone and the Klein cubic over F_5
@pytest.mark.parametrize("gen_texts", (("x", "y", "z"), ("x+y", "y^2", "z^2"), ("x+2*y", "y^2", "z^2")))
@pytest.mark.parametrize("p,relation", CONES)
def test_cone_routes_agree(p, relation, gen_texts):
    """The routed pieces equal _degree_piece piece for piece, and the ambient
    elimination, at q = 1 and p."""
    field = PrimeField(p)
    names = ("x", "y", "z")
    ring = GradedRing(field, names, relation=parse_poly(relation, names, field))
    ideal = IdealSpec(ring, tuple(ring.parse(t) for t in gen_texts))
    for q in (1, p):
        last = max(engine.hk_value(ideal, q).per_degree)
        streamed = _routed_pieces(ideal, q, last)
        assert streamed == _per_degree_pieces(ideal, q, last)
        gens = [frobenius_terms(g.terms, q, p) for g in ideal.gens]
        assert [piece.colength for piece in streamed] == [
            ambient_colength(ring.relation.terms, gens, 3, p, m) for m in range(last + 1)
        ]


def _vanishing_form(draw, field):
    """A nonzero combination of x^p y - x y^p, x^p z - x z^p, y^p z - y z^p."""
    p = field.p
    forms = ({(p, 1, 0): 1, (1, p, 0): -1}, {(p, 0, 1): 1, (1, 0, p): -1},
             {(0, p, 1): 1, (0, 1, p): -1})
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3).filter(any))
    terms = {}
    for c, form in zip(coeffs, forms):
        for e, a in form.items():
            terms[e] = terms.get(e, 0) + c * a
    return Poly(field, 3, terms)


def _reordered(f, order):
    """f with x_order[0], x_order[1], x_order[2] renamed x, y, z."""
    return Poly(f.field, 3, {tuple(e[j] for j in order): c for e, c in f.terms.items()})


@pytest.mark.parametrize("p", (2, 3, 5))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_linear_change(p, data):
    """``_linear_change`` is None exactly on forms zero on all of F_p^3; else
    H(Mx) has an x^h term, and with a pure power x_i^h in H, M moves the
    first such x_i first and keeps the order of the other two."""
    field = PrimeField(p)
    kind = data.draw(st.sampled_from(("any", "no pure power", "zero on F_p^3")))
    if kind == "zero on F_p^3":
        h = data.draw(st.integers(p + 1, 6))
        H = _vanishing_form(data.draw, field) * _ternary_form(data.draw, field, h - p - 1, 0)
    else:
        h = data.draw(st.integers(1, 6))
        H = _ternary_form(data.draw, field, h, 0)
    if kind == "no pure power" and h >= 2:
        H = Poly(field, 3, {e: c for e, c in H.terms.items() if h not in e} or {(h - 1, 1, 0): 1})
    gens = [_ternary_form(data.draw, field, data.draw(st.integers(1, 3)), k) for k in range(2)]
    change = engine._linear_change(H)
    vanishes = all(value_at(H.terms, P, p) == 0 for P in product(range(p), repeat=3))
    assert (change is None) == vanishes
    if change is None:
        return
    order, images = change
    assert H.substitute(images).terms.get((h, 0, 0), 0) != 0
    pure = [i for i in range(3) if tuple(h * (j == i) for j in range(3)) in H.terms]
    if pure:
        assert order == (pure[0],) + tuple(j for j in range(3) if j != pure[0])
        for f in [H] + gens:
            assert f.substitute(images) == _reordered(f, order)


def _reference_rows(ring, gens, q):
    """The kernel rows built the way the kernel route once built them:
    ``frobenius_power_gens``, then ``reduce_terms`` of x^k g^q, packed term by term."""
    w = engine._slot_width(ring.field.p)
    free = ring.relation is None
    h = 1 if free else ring.relation.degree()
    rows = []
    for g in engine.frobenius_power_gens(ring, gens, q):
        if g.is_zero():
            continue
        for k in range(h):
            terms = g.terms if k == 0 else ring.reduce_terms(
                {(e[0] + k,) + e[1:]: c for e, c in g.terms.items()})
            row = [0] * h
            for e, c in terms.items():
                row[0 if free else e[0]] += c << e[-1] * w
            rows.append((g.degree() + k, row))
    return rows


ROW_CASES = tuple((p, q) for p in (2, 3, 5) for q in (1, p, p * p)) + (
    (7, 1), (32749, 1), (65521, 1), (2**31 - 1, 1))


@pytest.mark.parametrize("p,q", ROW_CASES)
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_packed_rows_match_reduced_powers(p, q, data):
    """``_kernel_rows`` equals the rows of the reduced powers slot for slot, on
    cones with deg H in 1..6 carried to H(Mx) and on F_p[x,y]; the generators
    are left unreduced, as ``split`` passes them after the change."""
    field = PrimeField(p)
    degrees = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        ring = GradedRing(field, ("x", "y"))
        coeffs = [data.draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1))
                  for d in degrees]
        gens = [Poly(field, 2, {(d - b, b): c for b, c in enumerate(cs)})
                for d, cs in zip(degrees, coeffs)]
        gens = [g for g in gens if not g.is_zero()]
    else:
        H = _ternary_form(data.draw, field, data.draw(st.integers(1, 6)), 0)
        change = engine._linear_change(H)
        if change is None:
            return
        order, images = change
        ring = GradedRing(field, [("x", "y", "z")[j] for j in order], H.substitute(images))
        gens = [_ternary_form(data.draw, field, d, k).substitute(images)
                for k, d in enumerate(degrees)]
    assert engine._kernel_rows(ring, gens, q) == _reference_rows(ring, gens, q)


@pytest.mark.parametrize("p,relation,gen_texts,q", (
    (2, "x^2", ("x", "y", "z"), 2),  # x^2 = 0: the power of x gives no rows
    (3, "x^2", ("x+y", "x*z", "z^2"), 3),  # (xz)^3 = 0, (x+y)^3 = y^3
    (2, "x^2", ("x*z", "y"), 1),  # x (xz) = 0: a zero row of a nonzero power stays
    (5, "x^2*y+y^2*z+z^2*x", ("x", "y", "z"), 25),  # the Klein cubic, after the change
))
def test_packed_rows_drop_zero_powers(p, relation, gen_texts, q):
    field = PrimeField(p)
    names = ("x", "y", "z")
    H = parse_poly(relation, names, field)
    order, images = engine._linear_change(H)
    ring = GradedRing(field, [names[j] for j in order], H.substitute(images))
    gens = [parse_poly(t, names, field).substitute(images) for t in gen_texts]
    rows = engine._kernel_rows(ring, gens, q)
    assert rows == _reference_rows(ring, gens, q)
    zero = sum(g.is_zero() for g in engine.frobenius_power_gens(ring, gens, q))
    assert len(rows) == H.degree() * (len(gens) - zero)


@pytest.mark.parametrize("relation", ("x+y+z", "x^2+y^2+z^2+x*y+y*z+z*x"))
def test_packed_rows_take_slots_wider_than_the_kernels(relation, monkeypatch):
    """At p = 2^31 - 1 the kernel's slots have 64 bits.  A degree-6 form with
    every coefficient p - 1 sums products near p^2 from several terms into
    one slot, past 2^64: the rows are built in wider slots, narrowed, and
    equal the reduced powers."""
    p = 2**31 - 1
    field = PrimeField(p)
    names = ("x", "y", "z")
    ring = GradedRing(field, names, relation=parse_poly(relation, names, field))
    g = Poly(field, 3, {(a, b, 6 - a - b): p - 1 for a in range(7) for b in range(7 - a)})
    largest = []
    reduce_slots = engine._reduce_slots

    def recording(x, p, w):
        largest.append(max(x >> k & ((1 << w) - 1) for k in range(0, x.bit_length() or 1, w)))
        return reduce_slots(x, p, w)

    monkeypatch.setattr(engine, "_reduce_slots", recording)
    rows = engine._kernel_rows(ring, [g], 1)
    assert max(largest) >= 1 << engine._slot_width(p)
    monkeypatch.undo()
    assert rows == _reference_rows(ring, [g], 1)
