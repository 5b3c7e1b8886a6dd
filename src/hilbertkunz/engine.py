"""The Hilbert-Kunz function of R/I^[q], degree by degree, from one split per q.

Degree m is read from the multiplication map

    (+)_i R_{m - q d_i}  ->  R_m,   (a_i) |-> sum_i a_i g_i,

with g_i the reduced q-th generator powers.  The colength of the
degree-m piece of R/(g_1, ..., g_n) is dim R_m - rank, and the kernel
dimension is h^0(Syz(g_1..g_n)(m)).  R is K[x,y] or a plane-curve cone
K[x,y,z]/(H) (``IdealSpec`` rejects every other ring).  ``split`` checks
q and carries H to H(Mx), monic in x (``_linear_change``).  Then R is free
over A = K[y,z] and so is the syzygy module; its twists e_j come from one
kernel basis of a polynomial matrix over K[t] (``_kernel_twists``), whose
rows, the normal forms of x^k g^q, are computed in K[t][x]/(H) by products
of packed ints (``_kernel_rows``: each polynomial is one Python int, a
coefficient per fixed-width slot), and every degree follows in closed form,
h^0(m) = sum_j (m - e_j + 1)_+, linear, like the other dimensions, between
the twist and generator degrees: the degrees come in runs (``runs``).  The
splitting layer reads the same twists.  A curve through every F_p-point
has no such change, and each degree's map is eliminated on its own
(``_degree_piece``), which is also the tests' reference.  Every degree is
checked: a per-degree map against the rank-nullity count of the columns
it fed, a run at both ends for colength >= 0 and h^0 <= dim of the source.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, product, repeat

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


DegreePiece = namedtuple("DegreePiece", "m colength syzygy_h0 rank dim_target dim_source")
DegreePiece.__doc__ = "Per-degree data of R/(gens): the map (+)_i R_{m - d_i} -> R_m."


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


def _reduce_slots(x: int, p: int, w: int) -> int:
    """x with each w-bit slot (the coefficient of t^k in slot k) reduced mod p.

    The slots go in three strands of every third slot, so each sits alone
    in 3w bits, and a strand is reduced by a few big-int operations:
    floor(v / p) = (v m) >> s for every v < 2^w, with s = w + bitlen(p)
    and m = ceil(2^s / p) (Granlund-Montgomery: m p - 2^s < p <= 2^(s - w)).
    v m < 2^(2w + 2) <= 2^(3w) and s <= 2w, so no product or quotient
    reaches another slot, and v - p floor(v / p) borrows from none.
    """
    if not x:
        return 0
    s = w + p.bit_length()
    m = -(-(1 << s) // p)
    strand = ((1 << w) - 1).to_bytes(3 * w // 8, "little")  # one w-bit slot in 3w bits
    low = int.from_bytes(strand * -(-x.bit_length() // (3 * w)), "little")
    out = 0
    for j in range(3):
        v = x >> j * w & low
        out |= v - p * (v * m >> s & low) << j * w
    return out


def _strip(x: int, p: int, w: int) -> int:
    """x without its top w-bit slots that are 0 mod p, whether 0 as integers or not."""
    while x and (x >> (top := (x.bit_length() - 1) // w * w)) % p == 0:
        x &= (1 << top) - 1
    return x


def _slot_width(p: int) -> int:
    """The kernel's slot width: the least of 16, 32, 64 with 4 p (p - 1) < 2^w."""
    return next(w for w in (16, 32, 64) if 4 * p * (p - 1) < 1 << w)


_WORD = {16: "H", 32: "I", 64: "Q"}  # memoryview format of a w-bit slot


def _narrow(x: int, wide: int, w: int) -> int:
    """x, its slots wide bits apart and each below 2^w, in w-bit slots.

    wide is a multiple of w, so the low w bits of every slot are every
    (wide / w)-th w-bit word of x: one strided memoryview copies them.
    """
    if wide == w:
        return x
    n = -(-x.bit_length() // wide)
    view = memoryview(x.to_bytes(n * wide // 8, "little")).cast(_WORD[w])
    return int.from_bytes(view[::wide // w].tobytes(), "little")


def _kernel_rows(ring: GradedRing, gens, q: int) -> list:
    """Rows (s, entries) of the kernel matrix M of the q-th powers of gens.

    R is K[x,y], or a cone K[x,y,z]/(H) with LT(H) = x^h, so R is free over
    A = K[y,z] on 1, x, .., x^(h-1); on K[x,y], h = 1 and R is A, with x in
    the role of y.  Row (g, k), k < h, has source degree s = q deg g + k,
    and entries[l] is the coefficient of x^l in NF(x^k g^q), with y (a cone)
    or x (K[x,y]) set to 1: a polynomial in t, the last variable, packed
    into one int with the coefficient of t^i in the w-bit slot i
    (``_slot_width``), every slot below p.  A g with NF(g^q) = 0 gives no
    rows.  On K[x,y], g^q = sum c_e x^(q e_x) y^(q e_y) is its own row, the
    slot spread of g.

    On a cone the rows are computed in B = K[t][x]/(H(x,1,t)), free on
    x^l, l < h, each element h packed ints.  The companion x^h =
    sum_l c_l(t) x^l comes from the tail of H.  Over F_p, g^q =
    sum_e c_e x^(q e_0) t^(q e_2), so NF(g^q) = sum_e c_e X^(e_0) t^(q e_2)
    with X = NF(x^q), taken by square-and-multiply in B; row (g, k + 1) is
    x times row (g, k): a shift in x and one companion step.  A product in
    K[t] is one product of ints (Kronecker substitution), in W-bit slots,
    W the least multiple of w with 2 h L (p - 1)^2 < 2^W,
    L = max(q D + h + 1, T), D the largest degree and T the most terms of
    a generator.  The factors of a product in B are powers NF(x^m),
    m <= q D, whose entries have at most q D + 1 slots.  Such a product
    sums at most h products of entries at each power of x, then adds at
    most h - 1 products r c_l (r reduced, c_l of at most h + 1 slots) at
    each power below h: a slot sums at most h L + (h - 1) L products of two
    residues.  The sum over the terms of g adds at most T of them, and a
    companion step adds h + 1 of them to a residue.  No slot reaches 2^W,
    so none carries, and one ``_reduce_slots`` after each step makes the
    result exact for every p.  Each entry is then narrowed to w-bit slots
    (``_narrow``), with no loop per coefficient.
    """
    p = ring.field.p
    w = _slot_width(p)
    if ring.relation is None:
        rows = ((q * g.degree(), sum(c << q * e[-1] * w for e, c in g.terms.items()))
                for g in gens)
        return [(s, [entry]) for s, entry in rows if entry]
    h = ring.relation.degree()
    L = max(q * max((g.degree() for g in gens), default=0) + h + 1,
            max((len(g.terms) for g in gens), default=0))
    W = w * -(-(2 * h * L * (p - 1) ** 2).bit_length() // w)
    companion = [0] * h
    for e, c in ring._tail.items():
        companion[e[0]] += c << e[-1] * W

    def times_x(v):
        """x v in B, v reduced."""
        out = [0] + v[:-1]
        if v[-1]:
            for l, c in enumerate(companion):
                if c:
                    out[l] = _reduce_slots(out[l] + v[-1] * c, p, W)
        return out

    def times(a, b):
        """a b in B, a and b reduced."""
        prod = [0] * (2 * h - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        for k in range(2 * h - 2, h - 1, -1):
            top = _reduce_slots(prod[k], p, W)
            if top:
                for l, c in enumerate(companion):
                    if c:
                        prod[k - h + l] += top * c
        return [_reduce_slots(x, p, W) for x in prod[:h]]

    one = [1] + [0] * (h - 1)
    X = times_x(one)
    for bit in f"{q:b}"[1:]:
        X = times(X, X)
        if bit == "1":
            X = times_x(X)
    powers = [one]  # X^j
    for _ in range(max((e[0] for g in gens for e in g.terms), default=0)):
        powers.append(times(powers[-1], X))
    rows = []
    for g in gens:
        acc = [0] * h
        for e, c in g.terms.items():
            for l, a in enumerate(powers[e[0]]):
                if a:
                    acc[l] += c * a << q * e[-1] * W
        row = [_reduce_slots(a, p, W) for a in acc]
        if not any(row):
            continue
        s = q * g.degree()
        for k in range(h):
            if k:
                row = times_x(row)
            rows.append((s + k, [_narrow(a, W, w) for a in row]))
    return rows


def _kernel_twists(ring: GradedRing, rows) -> list:
    """Twists of Syz(gens): the shifted degrees of an s-reduced kernel basis.

    ``rows`` holds, for each row (g, k) of the polynomial matrix M, its
    source degree s_(g,k) and its h packed entries (``_kernel_rows``).
    Setting y (a cone) or x (K[x,y]) to 1 is a bijection on forms of a
    fixed degree, so the degree-m syzygies are the u over K[t] with
    u M = 0 and deg u_(g,k) <= m - s_(g,k).

    [M | I] is reduced to weak Popov form by Mulders-Storjohann simple
    transformations: while two rows share a leading position (the
    rightmost of maximal shifted degree), subtract c t^delta times the one
    of lower degree from the other.  Identity column (g, k) has shift
    s_(g,k); target column l has shift l plus a constant larger than any
    row degree, so the M part leads while it is nonzero (positions are only
    ever compared within one part, so the constant is never formed).  The
    transformations are unimodular.  At the end the rows with a nonzero M
    part lead at distinct M positions, so their M parts are independent,
    and the rows whose M part has vanished are an s-reduced basis of the
    kernel, for any rank of M.  By the predictable-degree property,
    h0(m) = sum_j (m - e_j + 1)_+ over their shifted degrees e_j.

    Each entry is one Python int with the coefficient of t^k in the w-bit
    slot k (``_slot_width``: the least of 16, 32, 64 with
    4 p (p - 1) < 2^w), every slot below p on input, so a transformation
    is a - c t^delta b = a + ((p - c) b << delta w) on every column.  Pivot
    rows have every slot below p, so one transformation adds at most
    (p - 1)^2 to a slot of the other row; its slots are reduced mod p
    (``_reduce_slots``) after every room = (2^w - p) // (p - 1)^2 of them,
    and when it is installed as a pivot.  No slot reaches 2^w, so none
    carries into the next, and the result is exact for every p.  After
    each transformation ``_strip`` drops a column's top slots that are
    0 mod p (there are some only where two leading terms met, and there
    the top slot is a nonzero multiple of p), so the top slot of a nonzero
    column is nonzero mod p and its degree is (bit length - 1) // w.

    A transformation must lower the lead of the row it changes (M part
    above identity part, then shifted degree, then position), or
    ``InternalError`` is raised: positions right of the pivot stay below
    the row's degree and the pivot's top term cancels, so the maximum
    drops or is reached further left.  No other row changes, and the order
    is well-founded, so the loop ends or raises.
    """
    p = ring.field.p
    h = 1 if ring.relation is None else ring.relation.degree()
    w = _slot_width(p)
    room = ((1 << w) - p) // (p - 1) ** 2
    # target column l, without the constant, then identity column (g, k)
    shifts = list(range(h)) + [s for s, _ in rows]
    width = len(shifts)
    rows = [entries + [0] * r + [1] + [0] * (width - h - r - 1)
            for r, (_, entries) in enumerate(rows)]  # per row: one packed int per column

    def lead(row):
        """(position, shifted degree): the rightmost maximum, on the M part while it is nonzero."""
        best = pos = -1
        for col in range(h) if any(row[:h]) else range(h, width):
            if row[col]:
                sd = (row[col].bit_length() - 1) // w + shifts[col]
                if sd >= best:
                    best, pos = sd, col
        return pos, best

    def reduced(row):
        return [_reduce_slots(x, p, w) for x in row]

    pivots = {}  # leading position -> (row, shifted degree); pivot rows are reduced
    for i in range(len(rows)):
        pos, sd = lead(rows[i])
        fill = 0  # transformations row i took since its slots were last reduced
        while pos in pivots:
            j, sd_j = pivots[pos]
            if sd < sd_j:
                if fill:
                    rows[i] = reduced(rows[i])
                pivots[pos] = (i, sd)
                i, j, sd, fill = j, i, sd_j, 0
            a, b = rows[i], rows[j]
            top, top_j = (a[pos].bit_length() - 1) // w, (b[pos].bit_length() - 1) // w
            c = (a[pos] >> top * w) * pow(b[pos] >> top_j * w, -1, p) % p
            shift = (top - top_j) * w
            for col, y in enumerate(b):
                if y:
                    a[col] = _strip(a[col] + ((p - c) * y << shift), p, w)
            fill += 1
            if fill == room:
                rows[i] = a = reduced(a)
                fill = 0
            was, before = pos, sd
            pos, sd = lead(a)
            if not (pos >= h > was or (pos < h) == (was < h)
                    and (sd < before or sd == before and pos < was)):
                raise InternalError(f"lead (position, degree) {was}, {before} -> {pos}, {sd}")
        if fill:
            rows[i] = reduced(rows[i])
        pivots[pos] = (i, sd)
    return [sd for pos, (_, sd) in pivots.items() if pos >= h]


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


Split = namedtuple("Split", "targets sources twists")
Split.__doc__ = "R/(g^q) on the kernel route: the degrees of A-bases of target, source and kernel."


def split(ring: GradedRing, gens, q: int) -> Split | None:
    """Check q, change coordinates and read the twists of the q-th powers of gens.

    K[x,y], and a cone carried to H(Mx) by ``_linear_change``, are free
    over A on x^l (l < h), and the source on x^k g^q (k < h); the rows
    NF(x^k g^q) are built as packed vectors over K[t] (``_kernel_rows``),
    with no Poly power taken.  M is invertible over F_p, so no colength or
    h^0 changes, and g^q(Mx) = g(Mx)^[q]: the change acts on the degree-d
    generators.  None when ``_linear_change`` finds no change (a curve
    through every F_p-point).
    """
    validate_prime_power(ring.field.p, q)
    H = ring.relation
    if H is not None:
        change = _linear_change(H)
        if change is None:
            return None
        order, images = change
        ring = GradedRing(ring.field, [ring.vars[j] for j in order], H.substitute(images))
        gens = [g.substitute(images) for g in gens]
    rows = _kernel_rows(ring, gens, q)
    return Split(range(1 if H is None else H.degree()), [s for s, _ in rows],
                 _kernel_twists(ring, rows))


def runs(ring: GradedRing, gens, q: int, top: int):
    """Degrees 0..top of R/(g^q for g in gens) as runs (m, n, rows, cols, h0,
    drows, dcols, dh0): in degree m + k, k < n, target and source dimensions
    and h^0 are rows + k drows, cols + k dcols and h0 + k dh0.

    On the twists of ``split`` each is sum_a (m - a + 1)_+ over its degrees
    a: one run per gap between breakpoints a <= top.  colength and rank are
    linear on a run, so both are checked >= 0 at its ends; wrong twists cut
    the run before its first bad degree, which ``InternalError`` names.
    Where ``split`` gives None, each degree is a run, from ``_degree_piece``.
    """
    s = split(ring, gens, q)
    if s is None:
        powers = [g for g in frobenius_power_gens(ring, gens, q) if not g.is_zero()]
        for m in range(top + 1):
            piece = _degree_piece(ring, powers, [g.degree() for g in powers], m)
            yield m, 1, piece.dim_target, piece.dim_source, piece.syzygy_h0, 0, 0, 0
        return
    starts = {}
    for which, degrees in enumerate(s):
        for a in degrees:
            if a <= top:
                starts.setdefault(a, [0, 0, 0])[which] += 1
    edges = sorted({0, top + 1, *starts})
    rows = cols = h0 = drows = dcols = dh0 = 0  # in the degree before the run, and the steps
    for m, end in zip(edges, edges[1:]):
        n = end - m
        new = starts.get(m, (0, 0, 0))
        drows, dcols, dh0 = drows + new[0], dcols + new[1], dh0 + new[2]
        rows, cols, h0 = rows + drows, cols + dcols, h0 + dh0
        c, dc, r, dr = rows - cols + h0, drows - dcols + dh0, cols - h0, dcols - dh0
        k = n
        if min(c, c + (n - 1) * dc, r, r + (n - 1) * dr) < 0:
            k = next(k for k in range(n) if c + k * dc < 0 or r + k * dr < 0)
        if k:
            yield m, k, rows, cols, h0, drows, dcols, dh0
        if k < n:
            raise InternalError(f"twists {sorted(s.twists)} give colength {c + k * dc} and h0 "
                                f"{h0 + k * dh0} of {cols + k * dcols} columns in degree {m + k}")
        rows, cols, h0 = rows + (n - 1) * drows, cols + (n - 1) * dcols, h0 + (n - 1) * dh0


def pieces(ring: GradedRing, gens, q: int, top: int):
    """DegreePiece of R/(g^q for g in gens) for m = 0..top, expanded from ``runs``."""
    for m, n, rows, cols, h0, drows, dcols, dh0 in runs(ring, gens, q, top):
        for k in range(n):
            r, c, h = rows + k * drows, cols + k * dcols, h0 + k * dh0
            yield DegreePiece(m + k, r - c + h, h, c - h, r, c)


class HKRow:
    """One row of the Hilbert-Kunz function: q -> colength of I^[q]."""

    def __init__(self, q: int, phi: int, cutoff: int, per_degree: dict | None = None):
        self.q, self.phi, self.cutoff = q, phi, cutoff  # cutoff: first degree of the zero tail
        self.per_degree = {} if per_degree is None else per_degree


def hk_value(ideal: IdealSpec, q: int) -> HKRow:
    """phi(I, q) = length(R/I^[q]) by summing the colengths of ``runs``.

    One vanishing graded piece forces all higher pieces to vanish, so
    summation stops at the first run of z zero degrees, z the sum of the
    generator degrees (at least 1); ``per_degree`` holds every colength
    summed.  On a run the colength is >= 0 and linear, so it sums as an
    arithmetic series, and its zeros are the whole run, or its first or
    last degree.  A primary ideal never hits the cap q*m0 + nvars*(q-1) + z,
    m0 the primarity degree: write each exponent as a_i = q b_i + r_i
    with r_i < q; in degree q*m0 + nvars*(q-1) and above, sum b_i >= m0,
    so x^b lies in I and the monomial in I^[q].
    """
    z = max(1, sum(ideal.degrees))
    hard_cap = q * ideal.primarity_degree + ideal.ring.nvars * (q - 1) + z
    per_degree = {}
    phi = zeros = 0  # zeros: the run of zero colengths ending in the last degree summed
    for m, n, rows, cols, h0, drows, dcols, dh0 in runs(ideal.ring, ideal.gens, q, hard_cap):
        c, dc = rows - cols + h0, drows - dcols + dh0
        lead = n if c == dc == 0 else int(c == 0)  # zeros at the run's start
        if lead and zeros + lead >= z:
            per_degree.update(dict.fromkeys(range(m, m + z - zeros), 0))
            return HKRow(q=q, phi=phi, cutoff=m - zeros, per_degree=per_degree)
        zeros = zeros + n if lead == n else int(c + (n - 1) * dc == 0)
        per_degree.update(zip(range(m, m + n), range(c, c + n * dc, dc) if dc else repeat(c, n)))
        phi += n * c + n * (n - 1) // 2 * dc
        if zeros >= z:
            return HKRow(q=q, phi=phi, cutoff=m + n - zeros, per_degree=per_degree)
    raise CapExceededError(
        f"no vanishing tail up to degree {hard_cap} for q={q}; non-primary input"
    )
