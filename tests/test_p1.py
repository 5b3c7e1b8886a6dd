import random
from fractions import Fraction

import pytest

from hilbertkunz import engine
from hilbertkunz.errors import NotPrimaryError, UserError
from hilbertkunz.field import PrimeField
from hilbertkunz.p1 import (
    NotStabilized,
    SplittingType,
    analyze_ideal,
    hn_from_splittings,
    splitting_type,
    verify_h0_profile,
)
from hilbertkunz.poly import Poly
from hilbertkunz.ring import GradedRing, IdealSpec
from hilbertkunz.slopes import HNData, validate

from oracles import split_pieces


def free_ideal(p, gen_texts):
    R = GradedRing(PrimeField(p), ("x", "y"))
    return IdealSpec(R, tuple(R.parse(t) for t in gen_texts))


def test_splitting_maximal_ideal():
    ideal = free_ideal(5, ("x", "y"))
    assert splitting_type(ideal, 5).twists == (10,)
    assert splitting_type(ideal, 25).twists == (50,)


def test_splitting_known_examples():
    ideal = free_ideal(5, ("x^2", "x*y", "y^2"))
    assert splitting_type(ideal, 5).twists == (15, 15)
    ideal = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    assert splitting_type(ideal, 5).twists == (20, 25)
    ideal2 = free_ideal(2, ("x^3", "x*y^2", "y^3"))
    assert splitting_type(ideal2, 2).twists == (8, 10)


def test_splitting_type_is_the_twists_hk_value_summed():
    for gens in (("x", "y"), ("x^2", "x*y", "y^2"), ("x^3", "x*y^2", "y^3")):
        ideal = free_ideal(5, gens)
        for q in (5, 25):
            assert engine.hk_value(ideal, q).twists == splitting_type(ideal, q).twists


def test_analyze_ideal_computes_one_kernel_per_q(monkeypatch):
    """q = 5 and 25 for the splitting types, and q = 1 for phi: three kernels."""
    ideal = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    calls, split = [], engine.split

    def counting_split(ring, gens, q):
        calls.append(q)
        return split(ring, gens, q)

    monkeypatch.setattr(engine, "split", counting_split)
    report = analyze_ideal(ideal)
    assert sorted(calls) == [1, 5, 25]
    assert report.phi_rows == [(1, 7), (5, 175), (25, 4375)]
    assert [s.twists for s in report.splittings] == [(20, 25), (100, 125)]


def test_twist_sum_invariant():
    ideal = free_ideal(3, ("x^2", "y^2", "x*y"))
    for q in (3, 9):
        st = splitting_type(ideal, q)
        assert sum(st.twists) == q * sum(ideal.degrees)
        assert len(st.twists) == ideal.n - 1


def test_hn_from_splittings_stabilized():
    s1 = SplittingType(5, (20, 25))
    s2 = SplittingType(25, (100, 125))
    hn = hn_from_splittings(s1, s2)
    assert isinstance(hn, HNData)
    assert hn.nus == (Fraction(4), Fraction(5))
    assert hn.ranks == (1, 1)


def test_hn_from_splittings_merges_equal_thresholds():
    hn = hn_from_splittings(SplittingType(5, (15, 15)), SplittingType(25, (75, 75)))
    assert hn.ranks == (2,)
    assert hn.nus == (Fraction(3),)


def test_hn_from_splittings_not_stabilized():
    result = hn_from_splittings(SplittingType(2, (8, 10)), SplittingType(4, (15, 21)))
    assert isinstance(result, NotStabilized)
    assert not result  # falsy by design
    with pytest.raises(UserError):
        hn_from_splittings(SplittingType(4, (8,)), SplittingType(2, (4,)))
    with pytest.raises(UserError):
        hn_from_splittings(SplittingType(2, (4,)), SplittingType(3, (6,)))


@pytest.mark.parametrize("q1,q2", [(2, 6), (1, 6)])
def test_hn_from_splittings_refuses_a_ratio_off_the_characteristic(q1, q2):
    """Both q values must be powers of the least prime factor p of the larger:
    6 is no power of 2, though 2 | 6 and 1 | 6."""
    with pytest.raises(UserError):
        hn_from_splittings(SplittingType(q1, (4 * q1, 5 * q1)), SplittingType(q2, (4 * q2, 5 * q2)))


@pytest.mark.parametrize("q1,q2", [(2, 8), (1, 4), (25, 125)])
def test_hn_from_splittings_accepts_powers_of_one_prime(q1, q2):
    hn = hn_from_splittings(SplittingType(q1, (4 * q1, 5 * q1)), SplittingType(q2, (4 * q2, 5 * q2)))
    assert isinstance(hn, HNData)
    assert hn.nus == (Fraction(4), Fraction(5))


def test_splitting_requires_p1():
    from hilbertkunz.poly import parse_poly

    F = PrimeField(5)
    names = ("x", "y", "z")
    R = GradedRing(F, names, relation=parse_poly("x^3+y^3+z^3", names, F))
    ideal = IdealSpec(R, tuple(R.parse(v) for v in names))
    with pytest.raises(UserError):
        splitting_type(ideal, 5)


def test_verify_h0_profile_accepts_true_data():
    ideal = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    hn = HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(4), Fraction(5)))
    for q in (5, 25):
        report = verify_h0_profile(ideal, q, hn)
        assert report.ok, report.mismatches


def test_verify_h0_profile_flags_wrong_data():
    # thresholds must give integer twists at the chosen q
    ideal5 = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    halves = HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(7, 2), Fraction(11, 2)))
    with pytest.raises(UserError):
        verify_h0_profile(ideal5, 5, halves)
    # plausible but wrong slope data is reported, not silently accepted
    ideal2 = free_ideal(2, ("x^3", "x*y^2", "y^3"))
    wrong = HNData(n=3, degY=1, ranks=(2,), nus=(Fraction(9, 2),))
    report = verify_h0_profile(ideal2, 2, wrong)
    assert not report.ok
    assert report.mismatches


def test_verify_h0_profile_mismatch_names_both_twist_tuples():
    ideal = free_ideal(2, ("x^3", "x*y^2", "y^3"))
    wrong = HNData(n=3, degY=1, ranks=(2,), nus=(Fraction(9, 2),))
    report = verify_h0_profile(ideal, 2, wrong)
    assert report.twists == (9, 9)
    assert len(report.mismatches) == 1
    assert "(8, 10)" in report.mismatches[0] and "(9, 9)" in report.mismatches[0]


def _profile_ok_per_degree(ideal, q, hn):
    """Reference: h0 degree by degree against the split formula in the predicted
    twists, and the colength against the duality defect h1 from q*max(d_i) on."""
    twists = [int(v * q) for r, v in zip(hn.ranks, hn.nus) for _ in range(r)]
    for piece in split_pieces(engine.split(ideal.ring, ideal.gens, q), max(twists) + 2):
        m = piece.m
        if piece.syzygy_h0 != sum(max(0, m - e + 1) for e in twists):
            return False
        h1 = sum(max(0, e - m - 1) for e in twists)
        if m >= q * max(ideal.degrees) and piece.colength != h1:
            return False
    return True


def _checked_cases(ideal):
    """(q, hn): the slope data ``analyze_ideal`` finds at each q it computed,
    and the strongly semistable data nu = sum(d)/(n - 1) where it is valid
    and gives integer twists."""
    report = analyze_ideal(ideal)
    qs = [s.q for s in report.splittings]
    cases = [(q, report.hn) for q in qs] if report.stabilized else []
    n, total = ideal.n, sum(ideal.degrees)
    semistable = HNData(n=n, degY=1, ranks=(n - 1,), nus=(Fraction(total, n - 1),))
    if not validate(semistable, ideal.degrees):
        cases += [(q, semistable) for q in qs if (q * total) % (n - 1) == 0]
    return cases


def test_verify_h0_profile_agrees_with_the_per_degree_check():
    """The twist comparison gives the verdict of the per-degree h0 and duality
    check on the fixed cases and on seeded random binary-form ideals."""
    fixed = [(free_ideal(5, ("x^3", "x*y^2", "y^3")),
              HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(4), Fraction(5))), (5, 25)),
             (free_ideal(2, ("x^3", "x*y^2", "y^3")),
              HNData(n=3, degY=1, ranks=(2,), nus=(Fraction(9, 2),)), (2,))]
    for ideal, hn, qs in fixed:
        for q in qs:
            assert verify_h0_profile(ideal, q, hn).ok == _profile_ok_per_degree(ideal, q, hn)
    rng = random.Random(20)
    verdicts = []
    while len(verdicts) < 60:
        p = rng.choice((2, 3, 5))
        F = PrimeField(p)
        R = GradedRing(F, ("x", "y"))
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        gens = [Poly(F, 2, {(a, d - a): rng.randrange(p) for a in range(d + 1)}) for d in degrees]
        if any(g.is_zero() for g in gens):
            continue
        try:
            ideal = IdealSpec(R, tuple(gens))
        except NotPrimaryError:
            continue
        for q, hn in _checked_cases(ideal):
            ok = verify_h0_profile(ideal, q, hn).ok
            assert ok == _profile_ok_per_degree(ideal, q, hn), (ideal, q, hn)
            verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_analyze_ideal_exact_case():
    ideal = free_ideal(5, ("x^3", "x*y^2", "y^3"))
    report = analyze_ideal(ideal)
    assert report.stabilized
    assert report.ehk == 7
    assert report.hn.nus == (Fraction(4), Fraction(5))
    assert dict(report.phi_rows) == {1: 7, 5: 175, 25: 4375}
    assert report.max_residual == 0
    assert report.residual_bound == 0


def test_analyze_ideal_maximal():
    report = analyze_ideal(free_ideal(3, ("x", "y")))
    assert report.stabilized
    assert report.ehk == 1
    assert all(phi == q * q for q, phi in report.phi_rows)


def test_frobenius_pullback_scales_twists():
    """e_j(q p) = p * e_j(q): the reason stabilization always happens here."""
    for gens in (("x", "y"), ("x^2", "x*y", "y^2"), ("x^3", "x*y^2", "y^3")):
        ideal = free_ideal(3, gens)
        s1 = splitting_type(ideal, 3)
        s2 = splitting_type(ideal, 9)
        assert tuple(3 * e for e in s1.twists) == s2.twists


def _q1_colengths_and_twists(ideal):
    """phi(1) and the twists at q = 1 from the per-degree route, not the kernel.

    h^0(m) = sum_j (m - e_j + 1)_+, so its second difference at m counts the
    twists e_j = m; every twist is at most sum(d_i), their sum.
    """
    top = sum(ideal.degrees) + 1
    pieces = [engine._degree_piece(ideal.ring, ideal.gens, m) for m in range(top + 1)]
    h0 = [0, 0] + [piece.syzygy_h0 for piece in pieces]
    twists = [m for m in range(top + 1) for _ in range(h0[m + 2] - 2 * h0[m + 1] + h0[m])]
    assert pieces[-1].colength == 0 and len(twists) == ideal.n - 1
    return sum(piece.colength for piece in pieces), tuple(twists)


@pytest.mark.parametrize("p,top_q,seed", [(2, 2**14, 0), (2, 2**14, 1), (2, 2**14, 2),
                                          (3, 3**8, 0), (3, 3**8, 1), (3, 3**8, 2),
                                          (65521, 65521, 0), (65521, 65521, 1),
                                          (2**31 - 1, 1, 0)])
def test_kunz_on_the_plane(p, top_q, seed):
    """Over F_p[x,y], phi(q) = q^2 phi(1) (Kunz) and the twists at q are q times
    those at q = 1 (Frobenius pullback on P^1), on seeded binary-form ideals."""
    rng = random.Random(seed)
    F = PrimeField(p)
    R = GradedRing(F, ("x", "y"))
    while True:
        degrees = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
        gens = [Poly(F, 2, {(a, d - a): rng.randrange(p) for a in range(d + 1)}) for d in degrees]
        if any(g.is_zero() for g in gens):
            continue
        try:
            ideal = IdealSpec(R, tuple(gens))
            break
        except NotPrimaryError:
            continue
    phi1, twists1 = _q1_colengths_and_twists(ideal)
    q = 1
    while q <= top_q:
        assert engine.hk_value(ideal, q).phi == q * q * phi1, (ideal, q)
        assert splitting_type(ideal, q).twists == tuple(q * e for e in twists1), (ideal, q)
        q *= p
