import os
import random
import subprocess
import sys
import textwrap

import pytest

from hilbertkunz import engine
from hilbertkunz.errors import InternalError, NotPrimaryError, UserError
from hilbertkunz.field import PrimeField, validate_prime_power
from hilbertkunz.p1 import splitting_type, verify_h0_profile
from hilbertkunz.poly import Poly, parse_poly
from hilbertkunz.ring import GradedRing, IdealSpec
from hilbertkunz.slopes import HNData
from hilbertkunz.staircase import MonomialIdeal2, staircase_colength

from oracles import ambient_colength, frobenius_terms, split_pieces

F2 = PrimeField(2)
F5 = PrimeField(5)


def free_ideal(p, gen_texts, varnames=("x", "y")):
    R = GradedRing(PrimeField(p), varnames)
    return IdealSpec(R, tuple(R.parse(t) for t in gen_texts))


def fermat_ideal(p=5):
    F = PrimeField(p)
    names = ("x", "y", "z")
    R = GradedRing(F, names, relation=parse_poly("x^3+y^3+z^3", names, F))
    return IdealSpec(R, tuple(R.parse(v) for v in names))


def degree_piece(ideal, q, m):
    """The per-degree route in degree m on the nonzero q-th powers of the generators."""
    powers = [g for g in engine.frobenius_power_gens(ideal.ring, ideal.gens, q) if not g.is_zero()]
    return engine._degree_piece(ideal.ring, powers, m)


CONE_GENS = ("x + 2y + 3z", "x*y + 4z^2", "y^2 + x*z + 2*y*z")


def test_frobenius_power_gens_matches_plain_power():
    """The substitution g(x^q) equals g**q by plain multiplication, reduced."""
    cases = (
        ("x^3+y^3+z^3", CONE_GENS),
        ("x^2*y+y^3+z^3", CONE_GENS),  # LT(H) = x^2*y, not a pure power
        (None, ("x^2 + 3x*y", "y^3 + 2x^2*y", "x^3 + x*y^2")),
    )
    for relation, gen_texts in cases:
        names = ("x", "y", "z") if relation else ("x", "y")
        rel = parse_poly(relation, names, F5) if relation else None
        R = GradedRing(F5, names, relation=rel)
        ideal = IdealSpec(R, tuple(R.parse(t) for t in gen_texts))
        for q in (1, 5, 25):
            assert engine.frobenius_power_gens(R, ideal.gens, q) == tuple(R.reduce(g**q) for g in ideal.gens)


def test_degree_piece_counts_the_columns_it_feeds(monkeypatch):
    ideal = fermat_ideal()
    R = ideal.ring
    full = R.basis
    monkeypatch.setattr(R, "basis", lambda k: full(k)[1:] if k == 1 else full(k))
    with pytest.raises(InternalError):
        degree_piece(ideal, 1, 2)


def test_zero_frobenius_power_gives_no_columns():
    """(x,y,z) on F_2[x,y,z]/(x^2) at q = 2: x^2 reduces to zero and, as on
    the kernel route, gives no source columns: dim_source = 2 dim R_(m-2), and
    each piece equals the split's closed form."""
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^2", names, F2))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    assert engine.frobenius_power_gens(R, ideal.gens, 2)[0].is_zero()
    gens = [frobenius_terms(g.terms, 2, 2) for g in ideal.gens]
    closed = split_pieces(engine.split(R, ideal.gens, 2), 6)
    for m in range(7):
        piece = degree_piece(ideal, 2, m)
        assert piece.colength == ambient_colength({(2, 0, 0): 1}, gens, 3, 2, m)
        assert piece.dim_source == 2 * R.hilbert_dim(m - 2)
        assert piece == closed[m]


def test_validate_prime_power():
    assert validate_prime_power(2, 8) == 3
    assert validate_prime_power(5, 1) == 0
    with pytest.raises(UserError):
        validate_prime_power(2, 6)
    with pytest.raises(UserError):
        validate_prime_power(3, 0)


def test_monomial_survivor_counts():
    """(x,y)^[4] over F_2: count degree-m monomials outside (x^4, y^4)."""
    ideal = free_ideal(2, ("x", "y"))
    assert degree_piece(ideal, 4, 3).colength == 4
    assert degree_piece(ideal, 4, 5).colength == 2  # x^3 y^2, x^2 y^3
    assert degree_piece(ideal, 4, 7).colength == 0
    assert degree_piece(ideal, 4, -1).colength == 0


def test_degree_piece_consistency():
    ideal = fermat_ideal()
    for m in range(0, 10):
        piece = degree_piece(ideal, 5, m)
        assert piece.dim_target - piece.rank == piece.colength
        assert piece.dim_source - piece.rank == piece.syzygy_h0
        assert 0 <= piece.rank <= min(piece.dim_target, piece.dim_source)


def test_hypersurface_against_ambient_oracle():
    """Per-degree colengths of the Fermat example match an independent
    computation done entirely in the ambient polynomial ring."""
    ideal = fermat_ideal()
    relation = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    gens_q = [{(5, 0, 0): 1}, {(0, 5, 0): 1}, {(0, 0, 5): 1}]
    # frozen oracle profile (also recomputed live below)
    frozen = {0: 1, 1: 3, 2: 6, 3: 9, 4: 12, 5: 12, 6: 9, 7: 3, 8: 0, 12: 0}
    for m, want in frozen.items():
        live = ambient_colength(relation, gens_q, 3, 5, m)
        assert live == want
        assert degree_piece(ideal, 5, m).colength == want


def test_hk_value_fermat_q5():
    row = engine.hk_value(fermat_ideal(), 5)
    assert row.phi == 55
    assert row.per_degree[4] == 12
    assert row.cutoff == 8


def test_free_ring_dense_against_ambient_oracle():
    rng = random.Random(31)
    R = GradedRing(F5, ("x", "y"))
    for _ in range(5):
        gens = []
        while len(gens) < 3:
            d = rng.randint(1, 3)
            terms = {}
            for a in range(d + 1):
                c = rng.randint(0, 4)
                if c:
                    terms[(a, d - a)] = c
            if terms:
                gens.append(Poly(F5, 2, terms))
        try:
            ideal = IdealSpec(R, tuple(gens))
        except UserError:
            continue
        q = 5
        gen_dicts = [frobenius_terms(g.terms, q, 5) for g in gens]
        for m in range(0, 2 * q * max(ideal.degrees) + 2):
            assert degree_piece(ideal, q, m).colength == ambient_colength(
                None, gen_dicts, 2, 5, m
            )


def test_hk_matches_staircase():
    mono = MonomialIdeal2.from_pairs([(3, 0), (1, 2), (0, 3)])
    ideal = free_ideal(2, ("x^3", "x*y^2", "y^3"))
    for q in (1, 2, 4, 8):
        assert engine.hk_value(ideal, q).phi == staircase_colength(mono, q)


def test_frobenius_functoriality():
    """phi(I, p * q) computed directly equals phi(I^[p], q)."""
    base = free_ideal(2, ("x^2", "x*y", "y^2"))
    R = base.ring
    frob_gens = tuple(R.parse(t) for t in ("x^4", "x^2*y^2", "y^4"))
    frob = IdealSpec(R, frob_gens)
    for q in (1, 2, 4):
        assert (
            engine.hk_value(base, 2 * q).phi
            == engine.hk_value(frob, q).phi
        )


def test_tail_vanishes_at_pair_degree_bound():
    """No nonzero colength at or beyond m = q * max_{i != j}(d_i + d_j)."""
    ideal = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    q = 5
    bound = q * ideal.max_pair_degree()
    row = engine.hk_value(ideal, q)
    assert all(c == 0 for m, c in row.per_degree.items() if m >= bound)
    assert row.cutoff <= bound


def test_hard_cap_raises(monkeypatch):
    """A stream whose colength never vanishes stops at the derived bound
    q*m0 + nvars*(q-1), where a primary ideal vanishes, and raises
    InternalError: only a bug gets there."""
    ideal = free_ideal(2, ("x", "y"))
    seen = []

    def never_vanishing(ring, gens, q, top, s):
        for m in range(top + 1):
            seen.append(m)
            yield m, 1, 1, 0

    monkeypatch.setattr(engine, "runs", never_vanishing)
    with pytest.raises(InternalError, match="no vanishing degree up to 46 for q=16"):
        engine.hk_value(ideal, 16)
    assert seen[-1] == 16 * ideal.primarity_degree + 2 * 15


def _hk_reference(runs, z):
    """(phi, cutoff, per_degree) by the degree-by-degree loop over the expanded
    runs: the sum ends at the first zero colength, and z zeros follow it."""
    per_degree = {}
    phi = 0
    for m, n, c0, dc in runs:
        for k in range(n):
            c = c0 + k * dc
            if c == 0:
                per_degree.update(dict.fromkeys(range(m + k, m + k + z), 0))
                return phi, m + k, per_degree
            per_degree[m + k] = c
            phi += c
    raise AssertionError("no vanishing degree")


def _colength_runs(*spans):
    """Runs (m, n, c, dc) from spans (n, c, dc) laid end to end from degree 0."""
    m = 0
    for n, c, dc in spans:
        yield m, n, c, dc
        m += n


# generators whose degrees sum to z, the number of zeros per_degree ends with
Z_GENS = {1: ("1", "x"), 2: ("x", "y"), 3: ("x", "y^2"), 4: ("x", "y^3"), 5: ("x^2", "y^3")}


@pytest.mark.parametrize("z,spans", [
    # a falling run stops on its last degree, at 0, before a run of zeros
    (4, [(4, 3, -1), (2, 0, 0), (5, 0, 0), (3, 9, 1)]),
    # a zero in degree 0 stops at once: the nonzero colengths after it are never read
    (5, [(2, 0, 0), (3, 0, 2), (4, 4, -1), (1, 0, 7), (2, 5, -2), (10, 0, 0)]),
    # z = 1: a falling run that ends at 0 stops on its last degree
    (1, [(3, 2, -1), (5, 7, 1)]),
    # z = 1: a run rising from 0 stops on its first degree
    (1, [(2, 1, 0), (4, 0, 3), (2, 0, 0)]),
    # a run of length 2 falling to 0 stops on its last degree
    (3, [(2, 6, -6), (1, 0, 0), (3, 0, 2), (2, 4, 0)]),
    # runs of length 1 only: the zero in degree 1 stops, the 3 and 8 after it are never read
    (2, [(1, 5, -9), (1, 0, 4), (1, 3, 0), (1, 0, 0), (1, 0, 6), (1, 8, 0)]),
])
def test_hk_value_sums_runs_as_the_degree_loop(monkeypatch, z, spans):
    """phi, cutoff and per_degree from the runs equal the degree-by-degree loop,
    which stops at the first zero colength and appends z zeros."""
    ideal = free_ideal(2, Z_GENS[z])
    monkeypatch.setattr(engine, "runs", lambda ring, gens, q, top, s: _colength_runs(*spans))
    row = engine.hk_value(ideal, 1)
    assert (row.phi, row.cutoff, row.per_degree) == _hk_reference(_colength_runs(*spans), z)


def test_hard_cap_holds_on_high_degree_curve():
    """(x,y,z) on x^41+y^41+z^41 over F_2 at q = 32 is primary; the derived
    bound q*m0 + nvars*(q-1) must not be reached (a cap from the generator
    degrees alone stopped at degree 83)."""
    F = PrimeField(2)
    names = ("x", "y", "z")
    R = GradedRing(F, names, relation=parse_poly("x^41+y^41+z^41", names, F))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    row = engine.hk_value(ideal, 32)
    assert row.phi == 32768
    assert row.cutoff == 94


def test_syzygy_h0_profile_example():
    """h0 profile of Syz(x^3, xy^2, y^3) at q = 2: twists are (8, 10)."""
    ideal = free_ideal(2, ("x^3", "x*y^2", "y^3"))
    values = {m: degree_piece(ideal, 2, m).syzygy_h0 for m in (7, 8, 9, 10, 11)}
    assert values == {7: 0, 8: 1, 9: 2, 10: 4, 11: 6}


def test_primary_ideal_past_the_degree_sum_bound():
    """(x, y) on x^5+y^5+z^5 first vanishes at degree 5, past 2 * (1 + 1);
    the bound nvars * (D - 1) + 1 = 13 accepts it, and phi = 5 q^2."""
    for p in (2, 3):
        F = PrimeField(p)
        names = ("x", "y", "z")
        R = GradedRing(F, names, relation=parse_poly("x^5+y^5+z^5", names, F))
        ideal = IdealSpec(R, (R.parse("x"), R.parse("y")))
        assert ideal.primarity_degree == 5
        for q in (p, p * p):
            assert engine.hk_value(ideal, q).phi == 5 * q * q


def test_cones_with_a_point_off_the_curve_take_the_streamed_route(monkeypatch):
    """With the per-degree route and the echelon made to fail, IdealSpec and
    hk_value at q = p still succeed on cones with an F_p-point off the curve:
    with a pure-power term in H (reordered or not) and without one (the Klein
    cubic).  So the kernel route eliminates nothing, and with
    ``reduce_terms`` made to fail too, hk_value and split still succeed."""

    def refuse(*args):
        raise AssertionError("per-degree route taken")

    def refuse_reduce(*args):
        raise AssertionError("reduce_terms called")

    monkeypatch.setattr(engine, "_degree_piece", refuse)
    monkeypatch.setattr(engine, "RankBuilder", refuse)
    names = ("x", "y", "z")
    klein = "x^2*y+y^2*z+z^2*x"
    cases = ((5, "x^3+y^3+z^3", 55), (7, "x^3-y^2*z", 113), (5, "x^2*y+y^3+z^3", 55),
             (2, klein, 8), (3, klein, 19), (5, klein, 55))
    for p, relation, phi in cases:
        F = PrimeField(p)
        R = GradedRing(F, names, relation=parse_poly(relation, names, F))
        ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
        with monkeypatch.context() as m:
            # the rows are normal forms in B = K[t][x]/(H), not reductions of term dicts
            m.setattr(GradedRing, "reduce_terms", refuse_reduce)
            assert engine.hk_value(ideal, p).phi == phi
            assert engine.split(R, ideal.gens, p).twists


def test_curves_through_every_fp_point_take_the_per_degree_route(monkeypatch):
    """x^2*y + x*y^2 vanishes on all of F_2^3, so no change of coordinates
    over F_2 makes it monic in x: ``split`` gives None, and with the kernel
    route made to fail, phi is as before."""

    def refuse(*args):
        raise AssertionError("kernel route taken")

    monkeypatch.setattr(engine, "_kernel_twists", refuse)
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^2*y+x*y^2", names, F2))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    assert [engine.hk_value(ideal, q).phi for q in (1, 2, 4)] == [1, 8, 40]
    for q in (1, 2, 4):
        assert engine.split(R, ideal.gens, q) is None


def test_per_degree_route_stops_at_the_cutoff(monkeypatch):
    """On the per-degree route hk_value eliminates the degrees up to the
    first vanishing one and no further: cutoff + 1 maps, and the zeros
    after the cutoff in per_degree are not computed."""
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^2*y+x*y^2", names, F2))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    piece = engine._degree_piece
    calls = []
    monkeypatch.setattr(engine, "_degree_piece", lambda *args: calls.append(args[-1]) or piece(*args))
    for q, phi, cutoff in ((1, 1, 1), (2, 8, 4), (4, 40, 8), (8, 176, 16)):
        calls.clear()
        row = engine.hk_value(ideal, q)
        assert (row.phi, row.cutoff) == (phi, cutoff)
        assert calls == list(range(row.cutoff + 1))
        assert sorted(row.per_degree) == list(range(row.cutoff + 3))


def test_q_must_be_prime_power():
    """Every route that powers the generators rejects q that is not a power of p."""
    ideal = free_ideal(5, ("x", "y"))
    hn = HNData(n=2, degY=1, ranks=(1,), nus=(2,))  # twists 2q
    for q in (10, 0):
        with pytest.raises(UserError):
            engine.hk_value(ideal, q)
        with pytest.raises(UserError):
            splitting_type(ideal, q)
        with pytest.raises(UserError):
            verify_h0_profile(ideal, q, hn)


def test_wrong_twists_raise(monkeypatch):
    """The kernel route checks colength >= 0 and h0 <= cols in every degree:
    twists too low claim more syzygies than columns, and too few twists
    claim a rank above the target dimension."""
    ideal = fermat_ideal()
    twists = engine._kernel_twists
    for wrong in (lambda ring, gens: [0] * len(twists(ring, gens)),
                  lambda ring, gens: twists(ring, gens)[1:]):
        monkeypatch.setattr(engine, "_kernel_twists", wrong)
        with pytest.raises(InternalError):
            engine.hk_value(ideal, 5)


def test_wrong_twists_name_the_first_bad_degree(monkeypatch):
    """A run that fails its check is walked: the error names the first degree
    in which running counts over the split's degrees give colength < 0 or
    rank < 0, with those counts.  ``runs`` is driven directly: ``hk_value``
    stops such twists earlier, at its count and sum check."""
    ideal = fermat_ideal()
    twists = engine._kernel_twists
    for wrong in (lambda ring, gens: [0] * len(twists(ring, gens)),
                  lambda ring, gens: twists(ring, gens)[1:]):
        monkeypatch.setattr(engine, "_kernel_twists", wrong)
        s = engine.split(ideal.ring, ideal.gens, 5)
        dims = [[sum(max(0, m - a + 1) for a in degrees) for degrees in s] for m in range(100)]
        m = next(m for m, (rows, cols, h0) in enumerate(dims) if rows - cols + h0 < 0 or cols < h0)
        rows, cols, h0 = dims[m]
        expected = (f"twists {sorted(s.twists)} give colength {rows - cols + h0} "
                    f"and h0 {h0} of {cols} columns in degree {m}")
        with pytest.raises(InternalError) as raised:
            list(engine.runs(ideal.ring, ideal.gens, 5, 99, s))
        assert str(raised.value) == expected


@pytest.mark.parametrize("ideal", [fermat_ideal(), free_ideal(5, ("x^3", "x*y^2", "y^3"))],
                         ids=["fermat", "plane"])
def test_a_lowered_twist_fails_the_count_and_sum(monkeypatch, ideal):
    """One twist lowered by 1 keeps the count and breaks the sum, on a cone
    and on F_5[x,y]: ``hk_value`` raises InternalError naming the expected
    count and sum, and never runs into the degree cap."""
    s = engine.split(ideal.ring, ideal.gens, 5)
    count, total = len(s.sources) - len(s.targets), sum(s.sources) - sum(s.targets)
    assert (len(s.twists), sum(s.twists)) == (count, total)
    twists = engine._kernel_twists
    monkeypatch.setattr(engine, "_kernel_twists",
                        lambda ring, rows: [e - (j == 0) for j, e in enumerate(twists(ring, rows))])
    with pytest.raises(InternalError) as raised:
        engine.hk_value(ideal, 5)
    assert f"expected {count} summing to {total}" in str(raised.value)


def test_hk_row_keeps_the_twists_it_summed():
    """HKRow.twists is the sorted twists of the one split on the kernel route
    (a cone here; P^1 in test_p1), and None on the per-degree route."""
    ideal = fermat_ideal()
    for q in (1, 5, 25):
        row = engine.hk_value(ideal, q)
        assert row.twists == tuple(sorted(engine.split(ideal.ring, ideal.gens, q).twists))
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^2*y+x*y^2", names, F2))
    assert engine.hk_value(IdealSpec(R, tuple(R.parse(v) for v in names)), 2).twists is None


def test_fermat_cubic_at_q625():
    """phi = (9q^2 - 5)/4 on the Fermat cubic over F_5 (Buchweitz-Chen)."""
    row = engine.hk_value(fermat_ideal(), 625)
    assert (row.phi, row.cutoff) == (878905, 938)


def test_fermat_cubic_at_q15625(monkeypatch):
    """q = 5^6: the rows are wider than the kernel's slots (W = 32, w = 16).
    hk_value sums runs, not degrees: it builds no DegreePiece, and takes at
    most one run per breakpoint of the split, plus the one from degree 0."""
    q = 15625
    ideal = fermat_ideal()
    splits, counts = [], []
    split, runs = engine.split, engine.runs

    def recording_split(*args):
        splits.append(split(*args))
        return splits[-1]

    def counting_runs(*args):
        counts.append(0)
        for run in runs(*args):
            counts[-1] += 1
            yield run

    def refuse(*args):
        raise AssertionError("DegreePiece built")

    monkeypatch.setattr(engine, "split", recording_split)
    monkeypatch.setattr(engine, "runs", counting_runs)
    monkeypatch.setattr(engine, "DegreePiece", refuse)
    row = engine.hk_value(ideal, q)
    assert (row.phi, row.cutoff) == ((9 * q * q - 5) // 4, 23438) == (549316405, 23438)
    (s,), (count,) = splits, counts
    assert count <= len(s.targets) + len(s.sources) + len(s.twists) + 1


def test_klein_cubic_at_q625():
    """(x,y,z) on the Klein cubic over F_5, which takes the kernel route
    through a change of coordinates with a dense H(Mx)."""
    names = ("x", "y", "z")
    R = GradedRing(F5, names, relation=parse_poly("x^2*y+y^2*z+z^2*x", names, F5))
    row = engine.hk_value(IdealSpec(R, tuple(R.parse(v) for v in names)), 625)
    assert (row.phi, row.cutoff) == (878905, 938)


@pytest.mark.parametrize("w,wide", [(16, 16), (16, 32), (16, 64), (32, 64), (32, 96), (64, 128)])
def test_narrow_keeps_the_low_slots(w, wide):
    """Slots below 2^w, wide bits apart, come out w bits apart."""
    rng = random.Random(wide + w)
    for n in (1, 2, 3, 7, 100):
        slots = [rng.randrange(1 << w) for _ in range(n - 1)] + [rng.randrange(1, 1 << w)]
        x = sum(v << k * wide for k, v in enumerate(slots))
        assert engine._narrow(x, wide, w) == sum(v << k * w for k, v in enumerate(slots))
    assert engine._narrow(0, wide, w) == 0


def test_fermat_quartic_h0_profile_splits():
    """Over F_3 at q = 27 the kernel twists are q*4/3 + {0..3} and q*5/3 + {0..3},
    and every h0 of the per-degree route is the split formula over them."""
    F = PrimeField(3)
    names = ("x", "y", "z")
    R = GradedRing(F, names, relation=parse_poly("x^4+y^4+z^4", names, F))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    twists = list(range(36, 40)) + list(range(45, 49))
    top = max(twists) + 4
    s = engine.split(R, ideal.gens, 27)
    assert sorted(s.twists) == twists
    pieces = [degree_piece(ideal, 27, m) for m in range(top + 1)]
    assert pieces == split_pieces(s, top)
    h0 = [piece.syzygy_h0 for piece in pieces]
    assert h0 == [sum(max(0, m - e + 1) for e in twists) for m in range(top + 1)]


def test_non_primary_cone_ideal_raises(monkeypatch):
    """(x, y) on the cusp x^3 - y^2*z over F_7 contains no power of z; the
    kernel route finds no vanishing degree."""

    def refuse(*args):
        raise AssertionError("per-degree route taken")

    monkeypatch.setattr(engine, "_degree_piece", refuse)
    F = PrimeField(7)
    names = ("x", "y", "z")
    R = GradedRing(F, names, relation=parse_poly("x^3-y^2*z", names, F))
    with pytest.raises(NotPrimaryError):
        IdealSpec(R, (R.parse("x"), R.parse("y")))


@pytest.mark.parametrize("p,w", [(2, 16), (5, 16), (257, 32), (65521, 64), (2**31 - 1, 64)])
def test_reduce_slots_matches_per_slot_mod(p, w):
    """The packed reduction equals % p slot by slot, on slots up to 2^w - 1."""
    rng = random.Random(p)
    full = (1 << w) - 1
    for n in [*range(1, 8), 50, 301]:
        for _ in range(20):
            slots = [rng.choice((0, 1, p - 1, p, full - full % p, full, rng.randrange(full)))
                     for _ in range(n - 1)] + [rng.randrange(1, full + 1)]
            x = sum(v << k * w for k, v in enumerate(slots))
            assert engine._reduce_slots(x, p, w) == sum(v % p << k * w for k, v in enumerate(slots))


def test_kernel_reduces_full_slots_at_the_largest_prime(monkeypatch):
    """At p = 2^31 - 1 a slot is 64 bits and takes room = 4 transformations
    between reductions: slots holding sums of several products (>= p^2)
    reach ``_reduce_slots``, and the split's closed form equals the per-degree
    reference.
    Dense forms with coefficients up to p - 1 fill the slots; without the
    reduction after every room transformations, this cone's slots carry."""
    p = 2**31 - 1
    F = PrimeField(p)
    rng = random.Random(5)

    def dense(d):
        return Poly(F, 3, {(a, b, d - a - b): rng.randrange(1, p)
                           for a in range(d + 1) for b in range(d + 1 - a)})

    largest = []
    reduce_slots = engine._reduce_slots

    def recording(x, p, w):
        largest.append(max((x >> k & ((1 << w) - 1) for k in range(0, x.bit_length(), w)), default=0))
        return reduce_slots(x, p, w)

    monkeypatch.setattr(engine, "_reduce_slots", recording)
    R = GradedRing(F, ("x", "y", "z"), relation=dense(3))  # x^3 in H: no change of coordinates
    gens = [dense(1), dense(2), dense(2)]
    top = 10
    got = split_pieces(engine.split(R, gens, 1), top)
    assert largest and max(largest) >= p * p
    assert got == [engine._degree_piece(R, gens, m) for m in range(top + 1)]


def test_kernel_strips_top_slots_that_are_zero_mod_p_but_not_zero(monkeypatch):
    """Over F_2 the leading terms meet as 1 + 1 = 2: the top slot is 0 mod 2
    but not 0, and runs of such slots are stripped until the top is odd.
    The split's closed form equals the per-degree reference."""
    stripped = []
    strip = engine._strip

    def recording(x, p, w):
        out = strip(x, p, w)
        d = (x.bit_length() - 1) // w
        stripped.append((x >> d * w, d - (out.bit_length() - 1) // w))
        return out

    monkeypatch.setattr(engine, "_strip", recording)
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^3+y^2*z+z^3", names, F2))
    gens = [R.parse(t) for t in ("x+y", "y*z+x^2", "z^2+x*y")]
    top = 50
    got = split_pieces(engine.split(R, gens, 16), top)
    assert any(t % 2 == 0 and t and n >= 2 for t, n in stripped)
    powers = engine.frobenius_power_gens(R, gens, 16)
    assert got == [engine._degree_piece(R, powers, m) for m in range(top + 1)]


def test_kernel_loop_raises_instead_of_hanging():
    """With ``_strip`` made the identity, a top slot that is 0 mod 2 but not 0
    stays the lead, and a transformation cannot lower it: the kernel loop
    raises InternalError rather than running on (the case of the test above)."""
    script = textwrap.dedent("""
        from hilbertkunz import engine
        from hilbertkunz.errors import InternalError
        from hilbertkunz.field import PrimeField
        from hilbertkunz.poly import parse_poly
        from hilbertkunz.ring import GradedRing

        F2 = PrimeField(2)
        names = ("x", "y", "z")
        R = GradedRing(F2, names, relation=parse_poly("x^3+y^2*z+z^3", names, F2))
        gens = [R.parse(t) for t in ("x+y", "y*z+x^2", "z^2+x*y")]
        engine._strip = lambda x, p, w: x
        try:
            engine.split(R, gens, 16)
        except InternalError:
            print("InternalError")
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "InternalError", proc.stderr


@pytest.mark.parametrize("relation,gen_texts,lead", [
    ("x^3+y^3+z^3", ("x", "y", "z"), "0, 6 -> 0, 6"),
    (None, ("x^2", "x*y", "y^3"), "0, 4 -> 0, 4"),
], ids=["fermat_cone", "free"])
def test_kernel_loop_checks_that_each_step_lowers_the_lead(monkeypatch, relation, gen_texts, lead):
    """In process, with ``_strip`` the identity: over F_2 at q = 4 a step
    leaves the lead (position, degree) where it was, and the check after
    each simple transformation raises, on a cone and on F_2[x,y]."""
    names = ("x", "y", "z") if relation else ("x", "y")
    R = GradedRing(F2, names, relation=relation and parse_poly(relation, names, F2))
    gens = [R.parse(t) for t in gen_texts]
    monkeypatch.setattr(engine, "_strip", lambda x, p, w: x)
    with pytest.raises(InternalError, match=f"^lead \\(position, degree\\) {lead}$"):
        engine.split(R, gens, 4)


def test_non_primary_ideal_on_the_per_degree_route():
    """(x, y) on x^2*y + x*y^2 over F_2, a curve through every F_p-point:
    R/(x, y) = F_2[z] never vanishes, and the primarity search reaches its
    bound 3*(3-1)+1 = 7 one degree at a time."""
    names = ("x", "y", "z")
    R = GradedRing(F2, names, relation=parse_poly("x^2*y+x*y^2", names, F2))
    gens = (R.parse("x"), R.parse("y"))
    assert engine.split(R, gens, 1) is None
    with pytest.raises(NotPrimaryError, match="^no vanishing graded piece up to degree 7; "):
        IdealSpec(R, gens)
