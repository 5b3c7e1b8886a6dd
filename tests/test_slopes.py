import random
from fractions import Fraction

import pytest

from hilbertkunz import slopes
from hilbertkunz.errors import InternalError, UserError
from hilbertkunz.slopes import (
    HNData,
    add_generator,
    ehk_from_hn,
    ehk_n3,
    ehk_plane_curve,
    ehk_strongly_semistable,
    ehk_t2,
    validate,
)


def test_main_formula_pinned_values():
    # cone over a smooth plane cubic: nu = (3/2), r = (2), d = (1,1,1), degY = 3
    smooth = HNData(n=3, degY=3, ranks=(2,), nus=(Fraction(3, 2),))
    assert ehk_from_hn(smooth, (1, 1, 1)) == Fraction(9, 4)
    # cuspidal cubic: nu = (4/3, 5/3)
    cusp = HNData(n=3, degY=3, ranks=(1, 1), nus=(Fraction(4, 3), Fraction(5, 3)))
    assert ehk_from_hn(cusp, (1, 1, 1)) == Fraction(7, 3)
    # monomial example on the line, scaled to a degree-h polarization
    for h in (1, 2, 5):
        mono = HNData(n=3, degY=h, ranks=(1, 1), nus=(4, 5))
        assert ehk_from_hn(mono, (3, 3, 3)) == 7 * h
    # maximal ideal on the projective line
    assert ehk_from_hn(HNData(2, 1, (1,), (2,)), (1, 1)) == 1


def test_validate_catches_violations():
    good = HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(4), Fraction(5)))
    assert validate(good, (3, 3, 3)) == []
    assert validate(good, (3, 3)) != []  # wrong generator count
    bad_rank = HNData(n=3, degY=1, ranks=(2, 1), nus=(4, 5))
    assert any("ranks" in msg for msg in validate(bad_rank, (3, 3, 3)))
    bad_order = HNData(n=3, degY=1, ranks=(1, 1), nus=(5, 4))
    assert validate(bad_order, (3, 3, 3)) != []
    bad_sum = HNData(n=3, degY=1, ranks=(1, 1), nus=(4, 6))
    assert any("weighted" in msg for msg in validate(bad_sum, (3, 3, 3)))
    out_of_range = HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(1, 2), Fraction(17, 2)))
    assert validate(out_of_range, (3, 3, 3)) != []


def test_ehk_rejects_invalid_data():
    bad = HNData(n=3, degY=1, ranks=(1, 1), nus=(4, 6))
    with pytest.raises(UserError):
        ehk_from_hn(bad, (3, 3, 3))


def test_strongly_semistable_pinned():
    # tangent-bundle case: N+1 linear generators give (degY/2)(N+1)/N
    for N in (2, 3, 4):
        for degY in (1, 2, 3, 5):
            assert ehk_strongly_semistable((1,) * (N + 1), degY) == Fraction(
                degY * (N + 1), 2 * N
            )
    # three linear forms on a degree-h plane curve: 3h/4
    for h in (1, 2, 5):
        assert ehk_strongly_semistable((1, 1, 1), h) == Fraction(3 * h, 4)


def test_t2_and_n3_pinned():
    for h in (1, 2, 5):
        assert ehk_t2(1, 5, (3, 3, 3), h) == 7 * h
        assert ehk_n3(5, (3, 3, 3), h) == 7 * h
    with pytest.raises(UserError):
        ehk_t2(2, 5, (3, 3, 3), 1)  # no rank left for the first step
    with pytest.raises(UserError):
        ehk_t2(1, 3, (3, 3, 3), 1)  # reconstructed nu_1 not below nu_2
    with pytest.raises(UserError):
        ehk_n3(5, (3, 3), 1)  # needs exactly three degrees


def test_closed_forms_check_their_data_and_their_value(monkeypatch):
    """The check against ehk_from_hn is a call, not an assert: bad slope data is a
    user error and a disagreeing closed form an internal one."""
    with pytest.raises(UserError, match="degY must be positive"):
        ehk_strongly_semistable((1, 1, 1), 0)
    with pytest.raises(UserError, match="generator degrees must be positive"):
        ehk_n3(5, (0, 3, 3), 1)
    monkeypatch.setattr(slopes, "ehk_from_hn", lambda hn, degrees: Fraction(-1))
    for closed_form in (lambda: ehk_strongly_semistable((1, 1, 1), 3),
                        lambda: ehk_t2(1, 5, (3, 3, 3), 1), lambda: ehk_n3(5, (3, 3, 3), 1)):
        with pytest.raises(InternalError, match="the general formula -1"):
            closed_form()


def test_plane_curve_formula():
    assert ehk_plane_curve(3, Fraction(3, 2)) == Fraction(9, 4)
    assert ehk_plane_curve(3, Fraction(5, 3)) == Fraction(7, 3)
    for h in (1, 2, 5):
        assert ehk_plane_curve(h, Fraction(3, 2)) == Fraction(3 * h, 4)
        assert ehk_plane_curve(h, 2) == h
    with pytest.raises(UserError):
        ehk_plane_curve(3, Fraction(5, 4))
    with pytest.raises(UserError):
        ehk_plane_curve(0, Fraction(3, 2))


def test_add_generator_insert_and_merge():
    hn = HNData(n=3, degY=1, ranks=(1, 1), nus=(Fraction(4), Fraction(5)))
    degrees = (3, 3, 3)
    base = ehk_from_hn(hn, degrees)
    # merge with an existing threshold
    merged, merged_degrees = add_generator(hn, degrees, 4)
    assert merged.ranks == (2, 1)
    assert merged.nus == hn.nus
    assert ehk_from_hn(merged, merged_degrees) == base
    # insert a new threshold between the existing ones
    inserted, inserted_degrees = add_generator(hn, degrees, 3)
    assert inserted.ranks == (1, 1, 1)
    assert inserted.nus == (3, Fraction(4), Fraction(5))
    assert ehk_from_hn(inserted, inserted_degrees) == base
    # append past the top
    appended, appended_degrees = add_generator(hn, degrees, 6)
    assert appended.nus[-1] == 6
    assert ehk_from_hn(appended, appended_degrees) == base
    with pytest.raises(UserError):
        add_generator(hn, degrees, 2)  # below the minimal generator degree


def test_corollaries_agree_with_main_formula_randomized():
    """On their shapes, every closed form equals the main formula."""
    rng = random.Random(42)
    trials = 0
    while trials < 300:
        n = rng.randint(3, 5)
        degY = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 4) for _ in range(n))
        total = sum(degrees)
        r2 = rng.randint(1, n - 2)
        r1 = n - 1 - r2
        nu2 = Fraction(rng.randint(1, 24), rng.randint(1, 4))
        nu1 = Fraction(total - r2 * nu2, r1)
        if not (min(degrees) <= nu1 < nu2 <= sum(sorted(degrees)[-2:])):
            continue
        hn = HNData(n=n, degY=degY, ranks=(r1, r2), nus=(nu1, nu2))
        if validate(hn, degrees):
            continue
        base = ehk_from_hn(hn, degrees)
        assert ehk_t2(r2, nu2, degrees, degY) == base
        if n == 3:
            assert ehk_n3(nu2, degrees, degY) == base
        trials += 1


def test_semistable_agrees_with_main_formula_randomized():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(2, 6)
        degY = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 4) for _ in range(n))
        nu = Fraction(sum(degrees), n - 1)
        hn = HNData(n=n, degY=degY, ranks=(n - 1,), nus=(nu,))
        if validate(hn, degrees):
            continue
        assert ehk_strongly_semistable(degrees, degY) == ehk_from_hn(hn, degrees)


def test_hn_counts_its_pieces():
    hn = HNData(n=3, degY=3, ranks=(1, 1), nus=(Fraction(4, 3), Fraction(5, 3)))
    assert hn.t == 2
