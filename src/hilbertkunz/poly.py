"""Sparse homogeneous multivariate polynomials over a prime field.

Monomials are exponent tuples ordered by graded reverse lexicographic
order with the user-declared variable sequence.  The text grammar is::

    expr     ::= ["+" | "-"] term { ("+" | "-") term }
    term     ::= factor { ["*"] factor }          (implicit products allowed)
    factor   ::= atom [ "^" integer ]
    atom     ::= integer | variable | "(" expr ")"

Whitespace is ignored; coefficients are integers reduced mod p.
"""

from __future__ import annotations

from .errors import ParseError, UserError
from .field import PrimeField

Monomial = tuple  # tuple of nonnegative ints, one per variable

MAX_EXPONENT = 1 << 24


def grevlex_key(exp: Monomial):
    """Sort key: larger key means larger monomial in grevlex."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if a | b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b, assuming divisibility."""
    return tuple(x - y for x, y in zip(a, b))


class Poly:
    """Immutable sparse polynomial; terms map Monomial -> nonzero int in [1, p)."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c % field.p for e, c in terms.items() if c % field.p}

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, field, exp: Monomial, coeff: int = 1):
        return cls(field, len(exp), {tuple(exp): coeff})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise UserError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def _check(self, other: Poly):
        if self.field.p != other.field.p or self.nvars != other.nvars:
            raise UserError("polynomials live in different rings")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.field, self.nvars, terms)

    def __sub__(self, other: Poly) -> Poly:
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return Poly(self.field, self.nvars, terms)

    def __neg__(self) -> Poly:
        return Poly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c: int) -> Poly:
        return Poly(self.field, self.nvars, {e: cc * c for e, cc in self.terms.items()})

    def __mul__(self, other: Poly) -> Poly:
        self._check(other)
        p = self.field.p
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = monomial_mul(e1, e2)
                terms[e] = (terms.get(e, 0) + c1 * c2) % p
        return Poly(self.field, self.nvars, terms)

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise UserError("negative polynomial power")
        if k > MAX_EXPONENT:
            raise UserError(f"exponent {k} exceeds cap {MAX_EXPONENT}")
        result = Poly.constant(self.field, self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def evaluate(self, point) -> int:
        """f(point) in [0, p), for a point given as one integer per variable."""
        p = self.field.p
        total = 0
        for exp, c in self.terms.items():
            for a, e in zip(point, exp):
                c = c * pow(a, e, p) % p
            total += c
        return total % p

    def substitute(self, images) -> Poly:
        """f(images[0], ..., images[N-1]); each power of an image is built once."""
        one = Poly.constant(self.field, images[0].nvars, 1)
        powers = [{} for _ in images]
        terms = {}
        for exp, c in self.terms.items():
            prod = one
            for pw, image, a in zip(powers, images, exp):
                if a not in pw:
                    pw[a] = image**a
                prod = prod * pw[a]
            for e, cc in prod.terms.items():
                terms[e] = terms.get(e, 0) + c * cc
        return Poly(self.field, one.nvars, terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field.p == other.field.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    # -- printing -----------------------------------------------------

    def to_string(self, varnames) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(varnames, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(coeff)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"Poly({self.to_string(names)} over F_{self.field.p})"


# -- parser -----------------------------------------------------------


def _tokens(text: str, varnames) -> list:
    """(kind, value, position) triples, closed by ("END", None, len(text))."""
    # longest-match-first so that declared names like "xy" win over "x","y"
    names = sorted(varnames, key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():  # what int() reads: "²" is a digit but no integer
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("INT", int(text[i:j]), i))
            except ValueError:  # longer than the interpreter converts
                raise ParseError(f"integer of {j - i} digits is too long", i) from None
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            for name in names:
                if text.startswith(name, i):
                    tokens.append(("VAR", name, i))
                    i += len(name)
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, len(text)))
    return tokens


def parse_poly(text: str, varnames, field: PrimeField) -> Poly:
    """Parse a polynomial over the given variables and field; malformed text raises ParseError."""
    varnames = list(varnames)
    if len(set(varnames)) != len(varnames):
        raise UserError("duplicate variable names")
    toks = _tokens(text, varnames)
    idx = 0

    def take(kind=None):
        nonlocal idx
        tok = toks[idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, got {tok[1]!r}", tok[2])
        idx += 1
        return tok

    def expr() -> Poly:
        sign = toks[idx][0]
        if sign in ("+", "-"):
            take()
        result = -term() if sign == "-" else term()
        while toks[idx][0] in ("+", "-"):
            op = take()[0]
            rhs = term()
            result = result - rhs if op == "-" else result + rhs
        return result

    def term() -> Poly:
        result = factor()
        while toks[idx][0] in ("*", "INT", "VAR", "("):  # implicit products too
            if toks[idx][0] == "*":
                take()
            result = result * factor()
        return result

    def factor() -> Poly:
        base = atom()
        if toks[idx][0] == "^":
            take()
            _, k, pos = take("INT")
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds cap {MAX_EXPONENT}", pos)
            base = base**k
        return base

    def atom() -> Poly:
        kind, value, pos = take()
        if kind == "INT":
            return Poly.constant(field, len(varnames), value)
        if kind == "VAR":
            return Poly.variable(field, len(varnames), varnames.index(value))
        if kind == "(":
            inner = expr()
            take(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)

    try:
        result = expr()
    except RecursionError:  # each "(" costs four frames of the interpreter's stack
        raise ParseError("parentheses nested too deeply") from None
    kind, value, pos = toks[idx]
    if kind != "END":
        raise ParseError(f"trailing input {value!r}", pos)
    return result
