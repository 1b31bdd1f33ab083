import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import band_cell, random_unimodular, shear
from hesslab.exact import ExactError, IntMatrix, IntVector, char_poly, det, parse_matrix
from hesslab.hessenberg import (
    FamilyPoint,
    HessType,
    family_member,
    hessenberg_complexity,
)
from hesslab.mdchar import md_characteristic, md_form3
import hesslab.reducedness as red_mod
import hesslab.sail3 as sail3
from hesslab.reducedness import (
    Bounded,
    ReducedVerdict,
    Sail,
    fingerprint,
    is_reduced,
    minimize_md_bounded,
)
from hesslab.sail3 import SailError

M1 = parse_matrix("0 1 2; 1 0 0; 0 3 5")
M2 = parse_matrix("0 2 3; 1 1 1; 0 3 4")
FRO = parse_matrix("0 0 1; 1 0 1; 0 1 3")


def test_minimize_bounded_example():
    best, wits = minimize_md_bounded(M1, 10)
    assert best == 3
    keys = {tuple(w) for w in wits}
    assert (1, 0, 0) in keys
    assert (0, 1, 0) in keys


# a conjugate of M1 with entries near 1.5e12: from B = 23 its cubic form
# failed the old vectorised scan's int64 guard and took an object-array path
BIG = parse_matrix("108370394 -95149174421 -1533766115515; 1 -873 -14153; "
                   "7657 -6722843 -108369516")


def test_minimize_bounded_matches_brute_force():
    # md is homogeneous, so the box minimum is taken on a primitive vector;
    # witnesses are the primitive minimisers, the larger of v and -v, sorted.
    # M1's and BIG's include z = 0 vectors, FRO's include (0, 0, 1)
    cases = [(M1, 4), (FRO, 4), (BIG, 23), (parse_matrix("2 7; 5 18"), 6),
             (parse_matrix("0 0 0 -1; 1 0 0 0; 0 1 0 1; 0 0 1 2"), 2)]
    for m, bound in cases:
        vals = {}
        for p in itertools.product(range(-bound, bound + 1), repeat=m.n):
            v = IntVector(p)
            if p > tuple(-v) and v.is_primitive():
                vals[p] = md_characteristic(m, v)
        ref = min(val for val in vals.values() if val)
        best, wits = minimize_md_bounded(m, bound)
        assert best == ref, m
        assert [tuple(w) for w in wits] == \
            sorted(p for p, val in vals.items() if val == ref), m


def test_is_reduced_example_pair():
    for m in (M1, M2):
        v = is_reduced(m, Sail())
        assert v.status == "Reduced"
        assert v.certificate == "SailCertified"
        v2 = is_reduced(m, Bounded(25))
        assert v2.status == "Reduced"
        assert v2.certificate == "BoundChecked" and v2.bound == 25


def test_is_reduced_rejects_imperfect():
    with pytest.raises(ExactError):
        is_reduced(parse_matrix("0 4 2; 1 0 0; 0 3 5"), Bounded(5))


def test_nonreduced_has_witness():
    # Frobenius-type member with a large last column is not complexity
    # minimal in its class
    t = HessType.parse("<0,1|1,0,2>")
    m = family_member(FamilyPoint(t, IntVector((1, 0, 1)), (0, 0)))
    v = is_reduced(m, Sail())
    assert v.status == "Nonreduced"
    assert v.witness is not None
    from hesslab.mdchar import md_characteristic
    assert 0 < md_characteristic(m, v.witness) < 2


def test_sail_and_bounded_agree_on_window():
    # the NRS cells have MD content 1 below complexity 2, so the Sail
    # verdict takes the sail on each
    t = HessType.parse("<0,1|1,0,2>")
    for params in [(-2, 0), (1, 1), (3, 0), (-7, 3)]:
        m = family_member(FamilyPoint(t, IntVector((1, 0, 1)), params))
        from hesslab.exact import discriminant, factor_small
        if len(factor_small(char_poly(m))) != 1 or \
                discriminant(char_poly(m)) >= 0:
            continue
        a = is_reduced(m, Sail())
        b = is_reduced(m, Bounded(30))
        assert a.status == b.status


def test_content_gate_skips_the_sail(monkeypatch):
    # FRO (content 1, complexity 1), 0 1 3; 1 0 0; 0 3 8 (3, 3) and the
    # band cell (-4, 7) (2, 2) are Reduced by the content bound alone
    def no_window(*args):
        raise AssertionError("the content gate built a sail")

    monkeypatch.setattr(red_mod, "fundamental_window", no_window)
    for m in (FRO, parse_matrix("0 1 3; 1 0 0; 0 3 8"), band_cell(-4, 7)):
        v = is_reduced(m, Sail())
        assert (v.status, v.certificate) == ("Reduced", "SailCertified"), \
            str(m)


def test_content_gate_runs_after_the_nrs_checks():
    # each matrix has content 1 = complexity 1, so a gate that ran before
    # the checks would call it Reduced
    with pytest.raises(SailError, match="real spectrum"):
        is_reduced(parse_matrix("0 0 1; 1 0 6; 0 1 0"), Sail())
    with pytest.raises(ExactError, match="characteristic polynomial is "
                                         "reducible"):
        is_reduced(parse_matrix("0 0 1; 1 0 -1; 0 1 1"), Sail())
    with pytest.raises(SailError, match="not in SL"):
        is_reduced(parse_matrix("0 0 2; 1 0 0; 0 1 0"), Sail())


def test_one_md_form_per_verdict_and_fingerprint(monkeypatch):
    # the NRS checks and the MD form are made once and passed through:
    # fingerprint(M1), and the verdicts of (-4, 6), which takes the sail,
    # and of (-4, 7), which the content gate decides
    counts = {"md_form3": 0, "discriminant": 0}
    for name in counts:
        made = getattr(sail3, name)

        def counting(*args, name=name, made=made):
            counts[name] += 1
            return made(*args)

        monkeypatch.setattr(sail3, name, counting)
    for run in (lambda: fingerprint(M1),
                lambda: is_reduced(band_cell(-4, 6), Sail()),
                lambda: is_reduced(band_cell(-4, 7), Sail())):
        for name in counts:
            counts[name] = 0
        run()
        assert counts == {"md_form3": 1, "discriminant": 1}


def test_fingerprint_example_5_8():
    fp = fingerprint(M1)
    assert fp.min_value == 3
    mats = {str(m) for m in fp.matrices}
    assert mats == {str(M1), str(M2)}


def test_fingerprint_distinguishes_5_5_pair():
    a = parse_matrix("0 1 3; 1 0 0; 0 3 8")
    b = parse_matrix("0 2 5; 1 1 2; 0 3 7")
    assert char_poly(a) == char_poly(b)
    fa = fingerprint(a)
    fb = fingerprint(b)
    assert {str(m) for m in fa.matrices} == {str(a)}
    assert {str(m) for m in fb.matrices} == {str(b)}
    assert not ({str(m) for m in fa.matrices} & {str(m) for m in fb.matrices})


def test_fingerprint_checks_complexity_of_each_form(monkeypatch):
    # a perfect form whose complexity is not the minimal MD value (FRO has
    # complexity 1, M1's minimum is 3) must raise, also under python -O
    monkeypatch.setattr(red_mod, "reduce_to_perfect",
                        lambda m, v: (FRO, IntMatrix.identity(3)))
    with pytest.raises(ExactError, match="complexity 1, not the minimal MD"):
        fingerprint(M1)


def test_fingerprint_when_the_float_box_misses_slab_points():
    # conjugates of M1 whose float slab box missed slab points: the first
    # two lost the slab's end M e1 and were Inconclusive, and the last
    # kept both ends but printed M1 alone, while M1's class has two
    # perfect forms
    for rows in ("-183860 -33803956239 33301628802; 1 183860 -181120; "
                 "0 3 5",
                 "108370394 -95149174421 -1533766115515; 1 -873 -14153; "
                 "7657 -6722843 -108369516",
                 "771620 -595395962667 2; 1 -771620 0; "
                 "-730866 563954477253 5"):
        assert fingerprint(parse_matrix(rows)) == fingerprint(M1), rows


def test_sheared_conjugate_fingerprints_within_a_cpu_budget():
    # X^-1 M1 X with X = I + 10^1000 E_ij for E31, E12, E13 and E23:
    # carrying the window's minimisers from the slab seed's window into
    # e1's walked thousands of exact G-steps; the seed's own window needs
    # none.  The first slab's Gram matrix is the worst conditioned known:
    # the integral LLL accepts it after about 8 doublings of its bits
    ref = fingerprint(M1)
    for i, j in ((2, 0), (0, 1), (0, 2), (1, 2)):
        x = shear(3, i, j, 10 ** 1000)
        m = x.inverse_unimodular() * M1 * x
        start = time.process_time()
        fp = fingerprint(m)
        assert time.process_time() - start < 2.0, (i, j)
        assert fp == ref, (i, j)


@pytest.mark.parametrize("mn", [(4, 10 ** 12), (0, 10 ** 14), (10 ** 15, 10 ** 30)],
                         ids=["(4,10^12)", "(0,10^14)", "(10^15,10^30)"])
def test_far_out_members_are_certified_within_a_cpu_budget(mn):
    # along the criterion-10 direction (0, 1) the slab is a needle of two
    # points whose bounding box grows with r: 4e7 cells at (4, 10^12),
    # 7e34 at (10^15, 10^30).  The content is not the complexity, so the
    # verdict builds the slab, and the level enumeration visits a handful
    # of nodes
    m = band_cell(*mn)
    start = time.process_time()
    assert math.gcd(*md_form3(m).coeffs) != hessenberg_complexity(m)
    fp = fingerprint(m)
    assert fp.matrices == (m,) and fp.min_value == 2
    assert is_reduced(m, Sail()) == ReducedVerdict("Reduced",
                                                   certificate="SailCertified")
    assert time.process_time() - start < 1.0


def test_verdict_json_shapes():
    v = is_reduced(M1, Sail())
    assert v.to_json() == {"status": "Reduced",
                           "certificate": {"kind": "SailCertified"}}
    t = HessType.parse("<0,1|1,0,2>")
    m = family_member(FamilyPoint(t, IntVector((1, 0, 1)), (0, 0)))
    w = is_reduced(m, Sail())
    assert w.to_json()["status"] == "Nonreduced"
    assert isinstance(w.to_json()["witness"], list)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
# conjugates whose e1 slab has 43M, 942M and 61M cells, over the 40M cap
@example(2519)
@example(8504)
@example(16200)
def test_fingerprint_conjugation_invariant(seed):
    rng = random.Random(seed)
    u = random_unimodular(rng, 3)
    if det(u) != 1:
        u = u * IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = u.inverse_unimodular() * M1 * u
    fp = fingerprint(m)
    ref = fingerprint(M1)
    assert fp.min_value == ref.min_value
    assert [str(x) for x in fp.matrices] == [str(x) for x in ref.matrices]
