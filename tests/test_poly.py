import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from hilbertkunz.errors import ParseError, UserError
from hilbertkunz.field import PrimeField
from hilbertkunz.poly import Poly, grevlex_key, parse_poly

from oracles import value_at

F5 = PrimeField(5)
XY = ("x", "y")
XYZ = ("x", "y", "z")


def test_parse_basic():
    f = parse_poly("x^3 + 2*x*y^2 - y^3", XY, F5)
    assert f.terms == {(3, 0): 1, (1, 2): 2, (0, 3): 4}
    assert f.degree() == 3
    assert f.is_homogeneous()


def test_parse_implicit_multiplication():
    assert parse_poly("2xy", XY, F5) == parse_poly("2*x*y", XY, F5)
    assert parse_poly("3x^2y", XY, F5) == parse_poly("3*(x^2)*y", XY, F5)


def test_parse_longest_variable_match():
    # a declared two-letter name must win over the one-letter prefixes
    f = parse_poly("xy + x*y", ("x", "y", "xy"), F5)
    assert f.terms == {(0, 0, 1): 1, (1, 1, 0): 1}


def test_parse_unary_minus_and_parens():
    f = parse_poly("-(x - y)^2", XY, F5)
    g = parse_poly("4x^2 + 2xy + 4y^2", XY, F5)
    assert f == g


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x + @", XY, F5)
    assert info.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("x +", XY, F5)
    with pytest.raises(ParseError):
        parse_poly("(x + y", XY, F5)
    with pytest.raises(UserError):
        parse_poly("x", ("x", "x"), F5)


@pytest.mark.parametrize("text, message, position", [
    ("x + @", "unexpected character '@'", 4),
    ("(x + y", "expected ), got None", 6),
    ("x^2^3", "trailing input '^'", 3),
    ("x^99999999", "exponent 99999999 exceeds cap 16777216", 2),
    ("x*-y", "unexpected token '-'", 2),
    pytest.param("9" * 5000 + "*x", "integer of 5000 digits is too long", 0, id="long-coefficient"),
    pytest.param("x^" + "9" * 5000, "integer of 5000 digits is too long", 2, id="long-exponent"),
    ("x\u00b2", "unexpected character '\u00b2'", 1),  # a digit to str, but not to int()
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_poly(text, XY, F5)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"



def test_empty_variable_name_is_a_user_error():
    """An empty name matches at every position, so the tokenizer would never
    advance; ``parse_poly`` refuses it.  The parse runs in a child process
    with its address space and time capped, so a tokenizer that loops fails
    this test instead of holding the suite."""
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from hilbertkunz.errors import UserError
        from hilbertkunz.field import PrimeField
        from hilbertkunz.ring import GradedRing
        try:
            GradedRing(PrimeField(5), ("x", "")).parse("x + @")
        except UserError as e:
            print("UserError:", e)
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=20)
    assert proc.stdout.strip() == "UserError: empty variable name", proc.stderr


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="^parentheses nested too deeply$"):
        parse_poly("(" * 3000 + "x" + ")" * 3000, XY, F5)
    assert parse_poly("(" * 100 + "x" + ")" * 100, XY, F5) == parse_poly("x", XY, F5)


@st.composite
def _grammar_strings(draw, depth=2):
    """A string drawn from the grammar over (x, y), and the Poly that the
    same sums, products and powers build directly."""

    def atom(d):
        kind = draw(st.sampled_from(("int", "var", "paren") if d else ("int", "var")))
        if kind == "int":
            n = draw(st.integers(0, 12))
            return str(n), Poly.constant(F5, 2, n)
        if kind == "var":
            i = draw(st.integers(0, 1))
            return XY[i], Poly.variable(F5, 2, i)
        text, poly = expr(d - 1)
        return f"({text})", poly

    def factor(d):
        text, poly = atom(d)
        if draw(st.booleans()):
            k = draw(st.integers(0, 3))
            return f"{text}^{k}", poly**k
        return text, poly

    def term(d):
        text, poly = factor(d)
        for _ in range(draw(st.integers(0, 2))):
            rhs, f = factor(d)
            sep = draw(st.sampled_from(("*", " * ", " ", "")))
            if not sep and text[-1].isdigit() and rhs[0].isdigit():
                sep = " "  # "2" "3" run together would read as the integer 23
            text, poly = text + sep + rhs, poly * f
        return text, poly

    def expr(d):
        sign = draw(st.sampled_from(("", "-", "+", "- ")))
        text, poly = term(d)
        text, poly = sign + text, (-poly if "-" in sign else poly)
        for _ in range(draw(st.integers(0, 2))):
            op = draw(st.sampled_from(("+", "-", " + ", " - ")))
            rhs, t = term(d)
            text, poly = text + op + rhs, (poly - t if "-" in op else poly + t)
        return text, poly

    return expr(depth)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_grammar_strings())
def test_parse_matches_the_arithmetic_it_spells(case):
    text, poly = case
    assert parse_poly(text, XY, F5) == poly


def test_round_trip_canonical_string():
    rng = random.Random(4)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4))
            terms[e] = rng.randint(1, 4)
        f = Poly(F5, 3, terms)
        g = parse_poly(f.to_string(XYZ), XYZ, F5)
        assert f == g
        # printing is canonical: re-parse then re-print is a fixed point
        assert g.to_string(XYZ) == f.to_string(XYZ)


def test_zero_prints_as_zero():
    assert Poly(F5, 2, {}).to_string(XY) == "0"
    assert parse_poly("5*x", XY, F5).is_zero()


def test_arithmetic_mod_p():
    x = Poly.variable(F5, 2, 0)
    y = Poly.variable(F5, 2, 1)
    assert ((x + y) - (x + y)).is_zero()
    assert (x * y).terms == {(1, 1): 1}
    f = x + y
    assert (f.scale(5)).is_zero()


def test_frobenius_identity():
    """(x + y)^p = x^p + y^p in characteristic p."""
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        f = parse_poly("x + 3y", XY, F)
        power = f**p
        expected = Poly(F, 2, {(p, 0): 1, (0, p): pow(3, p, p)})
        assert power == expected


def test_pow_matches_repeated_multiplication():
    f = parse_poly("x^2 + x*y + 2y^2", XY, F5)
    g = Poly.constant(F5, 2, 1)
    for k in range(8):
        assert f**k == g
        g = g * f


def test_grevlex_known_order():
    # degree 2 in three variables, descending: x^2, xy, y^2, xz, yz, z^2
    mons = [(0, 1, 1), (2, 0, 0), (0, 0, 2), (1, 0, 1), (0, 2, 0), (1, 1, 0)]
    assert sorted(mons, key=grevlex_key, reverse=True) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]


def test_leading_monomial():
    f = parse_poly("x*z + y^2", XYZ, F5)
    assert f.leading_monomial() == (0, 2, 0)  # y^2 beats xz in grevlex
    with pytest.raises(UserError):
        Poly(F5, 2, {}).leading_monomial()


def test_mixed_ring_operations_rejected():
    f = parse_poly("x", XY, F5)
    g = parse_poly("x", XY, PrimeField(7))
    with pytest.raises(UserError):
        f + g


def _random_poly(rng, field, nvars, degree, count):
    terms = {}
    for _ in range(count):
        cut = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        e = tuple(b - a for a, b in zip([0] + cut, cut + [degree]))
        terms[e] = rng.randrange(field.p)
    return Poly(field, nvars, terms)


def test_evaluate_matches_a_plain_sum():
    rng = random.Random(7)
    for p in (2, 3, 5, 65521):
        F = PrimeField(p)
        for _ in range(20):
            f = _random_poly(rng, F, 3, rng.randint(0, 6), 5)
            point = tuple(rng.randrange(p) for _ in range(3))
            assert f.evaluate(point) == value_at(f.terms, point, p)


def test_substitute_identity_and_shear():
    rng = random.Random(8)
    x, y, z = (Poly.variable(F5, 3, i) for i in range(3))
    for _ in range(20):
        f = _random_poly(rng, F5, 3, rng.randint(0, 6), 6)
        assert f.substitute([x, y, z]) == f
        a = rng.randrange(1, 5)
        sheared = f.substitute([x + y.scale(a), y, z])
        assert sheared.substitute([x - y.scale(a), y, z]) == f


def test_substitute_commutes_with_frobenius():
    """Over F_p a linear change M commutes with q-th powers: g^q(Mx) = g(Mx)^q."""
    rng = random.Random(9)
    for p, q in ((2, 2), (2, 4), (3, 3), (3, 9), (5, 5)):
        F = PrimeField(p)
        for _ in range(5):
            g = _random_poly(rng, F, 3, rng.randint(1, 2), 4)
            images = [_random_poly(rng, F, 3, 1, 3) for _ in range(3)]
            assert (g**q).substitute(images) == g.substitute(images) ** q
