import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hesslab.atlas import (
    DEFAULT_PALETTE,
    FAMILY_4D_ANCHOR,
    FAMILY_4D_TYPE,
    GridCell,
    classify_family_4d,
    classify_grid,
    discriminant_at,
    lambda_membership,
    normalize_to_frobenius,
    parabola_params,
    quartic_4d,
    ray_scan,
    render_grid,
)
from hesslab.exact import (
    ExactError,
    IntVector,
    char_poly,
    count_real_roots,
    cubic_discriminant,
    discriminant,
    factor_small,
)
from hesslab.hessenberg import FamilyPoint, HessType, family_member
from hesslab.mdchar import md_form3
from hesslab.reducedness import Sail, is_reduced
from hesslab.sail3 import SailError

T_FRO = HessType.parse("<0,1|0,0,1>")
A_FRO = IntVector((1, 0, 0))
T_212 = HessType.parse("<0,1|1,0,2>")
A_212 = IntVector((1, 0, 1))


def test_discriminant_frobenius_golden():
    # char poly t^3 - n t^2 - m t - 1 gives
    # (m^2 - 4n)(n^2 + 4m) - 2mn - 27
    for m, n in [(0, 0), (1, 2), (-3, 5), (7, -4), (20, 20)]:
        got = discriminant_at(FamilyPoint(T_FRO, A_FRO, (m, n)))
        assert got == (m * m - 4 * n) * (n * n + 4 * m) - 2 * m * n - 27
    assert discriminant_at(FamilyPoint(T_FRO, A_FRO, (0, 0))) == -27


def test_discriminant_212_quartic_golden():
    def quart(m, n):
        return (-44 - 44 * n * n - 56 * m * n - 32 * n ** 3 + 32 * m ** 3
                + 16 * m * m * n * n + 16 * m * n * n + 16 * m * m * n
                - 56 * n - 8 * m + 52 * m * m)

    for m in range(-6, 7):
        for n in range(-6, 7):
            assert discriminant_at(FamilyPoint(T_212, A_212, (m, n))) == \
                quart(m, n), (m, n)


def test_discriminant_matches_direct():
    for m, n in [(0, 0), (2, -3), (-5, 4)]:
        fp = FamilyPoint(T_212, A_212, (m, n))
        assert discriminant_at(fp) == discriminant(char_poly(family_member(fp)))


def test_parabola_frobenius_golden():
    pp = parabola_params(T_FRO, A_FRO)
    for m, n in [(0, 0), (2, 3), (-4, 1), (5, -6)]:
        assert pp.p1(m, n) == Fraction(m) + Fraction(n * n, 4)
        assert pp.p2(m, n) == Fraction(n) - Fraction(m * m, 4)


def test_parabola_212_alpha():
    pp = parabola_params(T_212, A_212)
    assert pp.alpha1 == Fraction(-1, 2)


def test_lambda_membership_cases():
    pp = parabola_params(T_FRO, A_FRO)
    # inside the eps=1 region one parabola value is above, one below
    assert lambda_membership(pp, 1, (5, 0))
    assert not lambda_membership(pp, 1, (0, 5))
    assert not lambda_membership(pp, -1, (0, 5))
    # at a boundary point the product is zero, so membership is strict
    assert not lambda_membership(pp, 1, (0, 0))


def test_normalize_to_frobenius_preserves_discriminant():
    rng = random.Random(7)
    for _ in range(100):
        m, n = rng.randint(-15, 15), rng.randint(-15, 15)
        fp = FamilyPoint(T_212, A_212, (m, n))
        mn = normalize_to_frobenius(fp)
        ref = FamilyPoint(T_FRO, A_FRO, mn)
        assert discriminant_at(ref) == discriminant_at(fp), (m, n)


def test_quartic_4d_matches_family_char_poly():
    # a family member differs from the anchor member only in its last
    # column, and det(tI - M) is linear in one column, so both sides have
    # coefficients affine in (l, m, n): agreement at the origin and the
    # three unit vectors proves the identity at every cell, which is what
    # lets classify_family_4d use quartic_4d directly
    for lmn in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                (1, 2, 3), (-3, 1, -2), (5, -5, 4)]:
        fp = FamilyPoint(FAMILY_4D_TYPE, FAMILY_4D_ANCHOR, lmn)
        assert char_poly(family_member(fp)) == quartic_4d(*lmn)


def test_classify_family_4d_small_cube():
    cells = classify_family_4d(2)
    assert len(cells) == 125
    counts = Counter(c.cls for c in cells)
    assert counts == {"Spectrum4(2+2)": 56, "ReduciblePoly": 39,
                      "Spectrum4(real)": 24, "Spectrum4(complex)": 6}


def test_classify_family_4d_matches_matrix_oracle():
    # oracle from each cell's matrix: its characteristic polynomial,
    # factored by factor_small, with real roots counted by Sturm chains
    # (not the sign invariants the atlas reads)
    kinds = {0: "Spectrum4(complex)", 2: "Spectrum4(2+2)", 4: "Spectrum4(real)"}
    cells = classify_family_4d(6)
    rng = range(-6, 7)
    assert [c.params for c in cells] == [(l, m, n) for l in rng for m in rng
                                         for n in rng]
    for cell in cells:
        fp = FamilyPoint(FAMILY_4D_TYPE, FAMILY_4D_ANCHOR, cell.params)
        p = char_poly(family_member(fp))
        if len(factor_small(p)) > 1:
            want = "ReduciblePoly"
        else:
            want = kinds[count_real_roots(p)]
        assert cell.cls == want, cell.params
        assert cell.verdict is None
    assert Counter(c.cls for c in cells) == {
        "ReduciblePoly": 269, "Spectrum4(2+2)": 1106,
        "Spectrum4(real)": 754, "Spectrum4(complex)": 68}


def test_classify_family_4d_builds_no_polynomial(monkeypatch):
    # every cell is read from (l, m, n): no factorization, no quartic_4d,
    # no IntPoly, and one coefficient-level root count per irreducible cell
    import hesslab.atlas as atlas_mod
    import hesslab.exact as exact_mod

    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for mod, name in [(exact_mod, "factor_small"),
                      (atlas_mod, "discriminant"), (atlas_mod, "quartic_4d"),
                      (atlas_mod, "IntPoly"),
                      (atlas_mod, "quartic_real_root_count")]:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    # a factor_small imported into atlas would not see the patch above
    monkeypatch.setattr(atlas_mod, "factor_small",
                        counting("factor_small", exact_mod.factor_small),
                        raising=False)
    cells = classify_family_4d(2)
    irreducible = sum(c.cls != "ReduciblePoly" for c in cells)
    assert calls == {"quartic_real_root_count": irreducible}


def test_classify_family_4d_rejects_negative_bound():
    with pytest.raises(ExactError):
        classify_family_4d(-1)


def test_ray_scan_frobenius_direction():
    entries, last_nr = ray_scan(T_FRO, A_FRO, (3, 3), (-1, 0), 12)
    assert len(entries) == 13
    assert last_nr is None
    assert all(e[1] in ("NRS_Reduced", "RS", "ReduciblePoly")
               for e in entries)


def test_classify_grid_small_window():
    cells, counts = classify_grid(T_FRO, A_FRO, (-2, 2), (-2, 2))
    assert len(cells) == 25
    assert counts == {"NRS_Reduced": 16, "ReduciblePoly": 7, "RS": 2}
    assert all(isinstance(c, GridCell) for c in cells)
    js = cells[0].to_json()
    assert set(js) >= {"params", "class"}


def test_classify_grid_known_nonreduced_cell():
    cells, counts = classify_grid(T_212, A_212, (0, 0), (0, 0))
    assert counts == {"NRS_Nonreduced": 1}


def test_inconclusive_cell_is_unknown_without_bounded_scan(monkeypatch):
    import hesslab.atlas as atlas_mod
    import hesslab.reducedness as red_mod
    from hesslab.reducedness import ReducedVerdict, Sail

    strategies = []

    def stub(mat, strategy):
        strategies.append(strategy)
        if isinstance(strategy, Sail):
            return ReducedVerdict("Inconclusive", reason="stub")
        return red_mod.is_reduced(mat, strategy)

    def no_scan(*args, **kwargs):
        raise AssertionError("minimize_md_bounded was called")

    monkeypatch.setattr(atlas_mod, "is_reduced", stub)
    monkeypatch.setattr(red_mod, "minimize_md_bounded", no_scan)
    cells, counts = classify_grid(T_212, A_212, (0, 0), (0, 0))
    assert counts == {"NRS_Unknown": 1}
    assert cells[0].verdict.status == "Inconclusive"
    assert cells[0].verdict.reason == "stub"
    assert all(isinstance(s, Sail) for s in strategies)


def test_render_grid_ppm_golden():
    cell = GridCell((0, 0), "ReduciblePoly")
    out = render_grid([cell])
    assert out == b"P3\n1 1\n255\n0 0 0\n"


def test_render_grid_palette_and_svg():
    cell = GridCell((0, 0), "RS")
    out = render_grid([cell], palette={"RS": (1, 2, 3)})
    assert out == b"P3\n1 1\n255\n1 2 3\n"
    svg = render_grid([cell], fmt="SVG")
    assert svg.startswith(b"<svg") and b"rgb(200,200,200)" in svg
    assert b"m=0 n=0" in svg
    assert set(DEFAULT_PALETTE) >= {"RS", "NRS_Reduced", "NRS_Nonreduced",
                                    "ReduciblePoly"}


def test_classify_grid_parallel_equals_serial():
    serial = classify_grid(T_212, A_212, (-3, 3), (5, 9), jobs=1)
    assert classify_grid(T_212, A_212, (-3, 3), (5, 9), jobs=2) == serial


def test_classify_grid_pool_size(monkeypatch):
    # the pool gets at most one worker per cell that needs a matrix, and
    # none for one such cell; jobs below 1 ran serially before
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            return [fn(w) for w in work]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    # (0, 0), (0, 2) and (0, 4) need a matrix; the content bound certifies
    # (0, 1) and (0, 3)
    cells, _ = classify_grid(T_212, A_212, (0, 0), (0, 4), jobs=8)
    assert sizes == [3] and len(cells) == 5
    classify_grid(T_212, A_212, (0, 0), (0, 1), jobs=8)
    # content-certified NRS and reducible cells never reach the pool
    classify_grid(T_FRO, A_FRO, (0, 0), (0, 2), jobs=8)
    assert sizes == [3]
    for jobs in (0, -1):
        with pytest.raises(ExactError, match="jobs must be at least 1"):
            classify_grid(T_FRO, A_FRO, (0, 0), (0, 0), jobs=jobs)


@pytest.mark.parametrize("m_range, n_range, axis", [
    ((5, 1), (0, 0), "m 5:1"), ((0, 0), (3, -3), "n 3:-3"),
    ((2, 1), (1, 0), "m 2:1")])
def test_classify_grid_rejects_an_empty_range(m_range, n_range, axis):
    # a reversed range returned ([], {}), which the CLI printed as nothing
    # and rendered as a 0x0 picture
    with pytest.raises(ExactError, match="the %s range %s is empty"
                       % tuple(axis.split())):
        classify_grid(T_FRO, A_FRO, m_range, n_range)
    cells, _ = classify_grid(T_FRO, A_FRO, (1, 1), (0, 0))
    assert [c.params for c in cells] == [(1, 0)]


def _frobenius_polynomial_class(mn):
    """A Frobenius cell's class from its member's polynomial: the family has
    complexity 1, so the content bound certifies every NRS cell."""
    p = char_poly(family_member(FamilyPoint(T_FRO, A_FRO, mn)))
    if len(factor_small(p)) != 1:
        return "ReduciblePoly"
    return "RS" if discriminant(p) > 0 else "NRS_Reduced"


def test_far_out_frobenius_cells_match_the_polynomial_oracle():
    # the member at (m, n) has p = t^3 - n t^2 - m t - 1, so p(1) = -m - n
    # and p(-1) = m - n - 2: the reducible cells lie on n = -m and
    # n = m - 2.  The NRS cells lie between the parabolas 4m = -n^2 and
    # 4n = m^2, so half the cells are drawn near them.
    rng = random.Random(34)
    big = 10 ** 12
    cells = [(rng.randint(-big, big), rng.randint(-big, big))
             for _ in range(1000)]
    for _ in range(500):
        n = rng.randint(-1999000, 1999000)
        m = -(n * n) // 4 + rng.randint(-10 ** 6, 10 ** 6)
        cells += [(m, n), (n, m)]
    for _ in range(200):
        m = rng.randint(-big + 2, big)
        cells += [(m, -m), (m, m - 2)]
    assert all(abs(m) <= big and abs(n) <= big for m, n in cells)
    got = Counter()
    for mn in cells:
        (cell,), _ = classify_grid(T_FRO, A_FRO, *[(x, x) for x in mn])
        assert cell.cls == _frobenius_polynomial_class(mn), mn
        got[cell.cls] += 1
        d, c, b, a = char_poly(family_member(FamilyPoint(T_FRO, A_FRO,
                                                         mn))).coeffs
        for lead in (a, rng.choice((-3, 2, 7))):
            assert cubic_discriminant(lead, b, c, d) == (
                b * b * c * c - 4 * lead * c ** 3 - 4 * b ** 3 * d
                - 27 * lead * lead * d * d + 18 * lead * b * c * d)
    assert got["ReduciblePoly"] >= 400 and got["RS"] > 1000 \
        and got["NRS_Reduced"] > 200, got


def test_frobenius_window_builds_no_polynomial(monkeypatch):
    # cells that reach no sail are classified from integers alone: no
    # IntPoly, no discriminant of one, and no member or FamilyPoint
    import sys
    import hesslab.exact as exact_mod
    import hesslab.hessenberg as hessenberg_mod
    from hesslab.hessenberg import family_info

    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for cls in (exact_mod.IntPoly, hessenberg_mod.FamilyPoint):
        monkeypatch.setattr(cls, "__init__",
                            counting(cls.__name__, cls.__init__))
    for fn in (exact_mod.discriminant, exact_mod.char_poly,
               hessenberg_mod.family_member):
        wrapped = counting(fn.__name__, fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("hesslab") and \
                    getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapped)
    family_info.cache_clear()  # the first window of a pair counts too
    cells, counts = classify_grid(T_FRO, A_FRO, (-20, 20), (-20, 20))
    assert len(cells) == 41 * 41 and counts["NRS_Reduced"] > 0
    assert calls == {}


@pytest.mark.parametrize("start", [(0,), (0, 0, 0)])
def test_ray_scan_start_needs_two_entries(start):
    # (0,) escaped as an IndexError; (0, 0, 0) dropped its last entry
    with pytest.raises(ExactError, match="ray start must have two entries"):
        ray_scan(T_212, A_212, start, (-1, 0), 2)


def test_ray_scan_rejects_negative_t_max():
    # t_max = -1 returned an empty ray with no Nonreduced cell
    with pytest.raises(ExactError, match="t_max must be at least 0, got -1"):
        ray_scan(T_212, A_212, (0, 6), (-1, 0), -1)
    entries, _ = ray_scan(T_212, A_212, (0, 6), (-1, 0), 0)
    assert [k for k, _, _ in entries] == [0]


# (type, anchor) of perfect SL(3,Z) families of complexity 1, 2, 4 and 12
_ORACLE_FAMILIES = (
    (T_FRO, A_FRO),
    (T_212, A_212),
    (HessType.parse("<1,2|0,0,1>"), IntVector((1, 1, 0))),
    (HessType.parse("<1,2|1,0,3>"), IntVector((0, 1, -2))),
)


def _matrix_route(t, anchor, mn):
    """A cell as the public API classifies it from the member's matrix."""
    mat = family_member(FamilyPoint(t, anchor, mn))
    p = char_poly(mat)
    if len(factor_small(p)) != 1:
        return GridCell(mn, "ReduciblePoly")
    if discriminant(p) > 0:
        return GridCell(mn, "RS")
    v = is_reduced(mat, Sail())
    cls = {"Reduced": "NRS_Reduced",
           "Nonreduced": "NRS_Nonreduced"}.get(v.status, "NRS_Unknown")
    return GridCell(mn, cls, v)


def _content(t, anchor, mn):
    """The gcd of the coefficients of the member's MD form."""
    mat = family_member(FamilyPoint(t, anchor, mn))
    return math.gcd(*md_form3(mat).coeffs)


def _oracle_grid(t, anchor, lo, hi):
    return [_matrix_route(t, anchor, (m, n))
            for m in range(lo, hi + 1) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("t, anchor", _ORACLE_FAMILIES,
                         ids=lambda x: str(x))
def test_invariant_route_matches_the_matrix_route(t, anchor):
    cells, counts = classify_grid(t, anchor, (-6, 6), (-6, 6))
    assert cells == _oracle_grid(t, anchor, -6, 6)
    assert {"ReduciblePoly", "RS", "NRS_Reduced"} <= set(counts)
    assert classify_grid(t, anchor, (-6, 6), (-6, 6), jobs=2) \
        == (cells, counts)
    for start, direction in (((0, 0), (-1, 0)), ((2, -3), t.columns[0])):
        entries, last = ray_scan(t, anchor, start, direction, 12)
        want = [_matrix_route(t, anchor, (start[0] + k * direction[0],
                                          start[1] + k * direction[1]))
                for k in range(13)]
        assert entries == [(k, c.cls, c.verdict) for k, c in enumerate(want)]
        nonreduced = [k for k, c in enumerate(want)
                      if c.cls == "NRS_Nonreduced"]
        assert last == (nonreduced[-1] if nonreduced else None)


def test_invariant_route_keeps_the_matrix_route_errors():
    # det -1: the Sail verdict of an NRS cell raises the SL(3,Z) SailError,
    # even where the MD form's content is the complexity
    anchor = IntVector((-1, 0, -1))

    def is_nrs(mn):
        p = char_poly(family_member(FamilyPoint(T_212, anchor, mn)))
        return len(factor_small(p)) == 1 and discriminant(p) < 0

    nrs = next((m, n) for m in range(-3, 4) for n in range(-3, 4)
               if is_nrs((m, n)) and _content(T_212, anchor, (m, n)) == 2)
    one = [(x, x) for x in nrs]
    for route in (lambda: _matrix_route(T_212, anchor, nrs),
                  lambda: classify_grid(T_212, anchor, *one),
                  lambda: ray_scan(T_212, anchor, nrs, (-1, 0), 0)):
        with pytest.raises(SailError, match=r"not in SL\(3,Z\)"):
            route()
    # a non-perfect type (a11 = a21) raises where its first NRS cell does
    t = HessType.parse("<1,1|0,0,1>")
    for route in (lambda: _oracle_grid(t, A_FRO, -3, 3),
                  lambda: classify_grid(t, A_FRO, (-3, 3), (-3, 3))):
        with pytest.raises(ExactError,
                           match="not a perfect Hessenberg matrix"):
            route()


def test_matrices_only_for_cells_that_reach_the_sail(monkeypatch):
    # on the criterion-9 windows only the cells the content bound leaves to
    # the sail build a matrix and a form, plus one of each per residue
    # class (m mod c, n mod c) of the NRS cells
    import hesslab.atlas as atlas_mod

    calls = {"family_member": 0, "md_form3": 0, "is_reduced": 0}
    for name in calls:
        def counted(*args, _real=getattr(atlas_mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(atlas_mod, name, counted)
    for (t, anchor), want_sail in (((T_212, A_212), 176), ((T_FRO, A_FRO), 0)):
        calls.update(dict.fromkeys(calls, 0))
        cells, _ = classify_grid(t, anchor, (-20, 20), (-20, 20))
        c = t.complexity()
        nrs = [cell.params for cell in cells if cell.cls.startswith("NRS")]
        sail = sum(_content(t, anchor, mn) != c for mn in nrs)
        classes = len({(m % c, n % c) for m, n in nrs}) if c > 1 else 0
        assert sail == want_sail
        assert calls["is_reduced"] == sail
        assert calls["family_member"] <= sail + classes
        assert calls["md_form3"] <= sail + classes


def test_sail_cells_take_r_as_eigen_data_refines_it(monkeypatch):
    # a work canary: eigen_data brackets r around a checked float estimate
    # and refines it once, to sail3._R_BITS; on the 41 x 41 <0,1|1,0,2>
    # window, whose 176 sail cells take every slab floor and box, nothing
    # refines it further: no slow-path floor (NumberField._slow_floor) and
    # no bisection (NumberField.refine)
    from hesslab.numberfield import NumberField

    calls = Counter()
    for name in ("_slow_floor", "refine"):
        def counted(*args, _real=getattr(NumberField, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(NumberField, name, counted)
    cells, counts = classify_grid(T_212, A_212, (-20, 20), (-20, 20))
    assert len(cells) == 41 * 41 and counts["NRS_Nonreduced"] > 0
    assert calls == {}


def test_r_is_refined_only_by_eigen_data(monkeypatch):
    # a work canary: each eigen_data refines r once, by refine_to(_R_BITS),
    # and no sign, floor or box asks r for more bits, on the 41 x 41
    # <0,1|1,0,2> window and in fingerprint of the 40 pin conjugates.  It
    # counts every NumberField.refine_to call, so it also sees a sign that
    # Newton steps decide, which the canaries of slow floors and bisections
    # miss
    from conftest import pin_conjugates
    from hesslab import sail3
    from hesslab.numberfield import NumberField
    from hesslab.reducedness import fingerprint

    calls = Counter()
    for owner, name in ((NumberField, "refine_to"), (sail3, "eigen_data")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    classify_grid(T_212, A_212, (-20, 20), (-20, 20))
    assert calls == {"eigen_data": 176, "refine_to": 176}
    calls.clear()
    for m in pin_conjugates():
        fingerprint(m)
    assert calls == {"eigen_data": 40, "refine_to": 40}
