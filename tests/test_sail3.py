import functools
import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    PolyModField,
    adjugate_coeffs,
    band_cell,
    criterion9_nrs_cells,
    field_bounds,
    isolate_real_roots,
    nonzero_vectors,
    num_sum,
    num_times,
    pin_conjugates,
    random_unimodular,
    root_ends,
    shear,
    small_matrices,
)
from hard_inputs import perfect_nrs_matrices
from hesslab.exact import (
    ExactError,
    IntMatrix,
    IntVector,
    char_poly,
    det,
    discriminant,
    factor_small,
    parse_matrix,
)
from hesslab.hessenberg import (
    FamilyPoint,
    HessType,
    family_member,
    hessenberg_complexity,
    reduce_to_perfect,
)
from hesslab.atlas import classify_grid
from hesslab.mdchar import MDForm3, md_characteristic, md_form3
from hesslab.numberfield import NumberField
import hesslab.hessenberg as hessenberg
import hesslab.reducedness as red_mod
from hesslab.reducedness import (
    ReducedVerdict,
    Sail,
    _canonical_sign,
    _sail_minimum,
    fingerprint,
    is_reduced,
)
import hesslab.sail3 as sail3
from hesslab.sail3 import (
    Inconclusive,
    PiPoint,
    SailError,
    compute_sail,
    eigen_data,
    fundamental_slab,
    fundamental_window,
    project_pi,
    reduced_slab,
    require_nrs,
    slab_points,
    verify_dirichlet_element,
    _f_num,
    _x_num,
)

FRO = parse_matrix("0 0 1; 1 0 1; 0 1 3")
M1 = parse_matrix("0 1 2; 1 0 0; 0 3 5")
# the numerator of r
R = (0, 1, 0)


def test_rs_matrix_rejected():
    with pytest.raises(SailError):
        eigen_data(require_nrs(IntMatrix.identity(3)))
    with pytest.raises(SailError):
        # all-real spectrum cubic
        eigen_data(require_nrs(parse_matrix("0 0 1; 1 0 6; 0 1 0")))


def test_require_nrs_reducibility_matches_factorization():
    # require_nrs reads reducibility off p(1) and p(-1): the monic cubic p
    # has constant term -det = -1, so a rational root of it divides 1.
    # Oracle: factor_small, on every cell of both criterion-9 windows and on
    # seeded conjugates of cells of each class
    cells = [family_member(FamilyPoint(HessType.parse(t), IntVector(a),
                                       (m, n)))
             for t, a in (("<0,1|1,0,2>", (1, 0, 1)), ("<0,1|0,0,1>", (1, 0, 0)))
             for m in range(-20, 21) for n in range(-20, 21)]
    assert len(cells) == 3362
    by_class = {"reducible": [], "RS": [], "NRS": []}
    for m in cells:
        p = char_poly(m)
        if len(factor_small(p)) > 1:
            by_class["reducible"].append(m)
        else:
            by_class["RS" if discriminant(p) > 0 else "NRS"].append(m)
    rng = random.Random(30)
    conjugates = []
    for kind, members in sorted(by_class.items()):
        assert members, kind
        for m in rng.sample(members, 8):
            u = random_unimodular(rng, 3, 8)
            conjugates.append(u.inverse_unimodular() * m * u)
    for m in cells + conjugates:
        assert det(m) == 1
        reducible = len(factor_small(char_poly(m))) > 1
        try:
            require_nrs(m)
            raised = False
        except SailError as ex:
            raised = str(ex) == "characteristic polynomial is reducible"
        assert raised == reducible, m


def _real_eigenvector(m):
    """The numerators of the first nonzero column of adj(M - rI) = omega_0
    + omega_1 r + omega_2 r^2."""
    w = adjugate_coeffs(m)
    cols = ([tuple(c[i, j] for c in w) for i in range(3)] for j in range(3))
    return next(col for col in cols if any(map(any, col)))


def test_eigen_data_consistency():
    # numerators over Z[r] are equal exactly when their values are, as 1,
    # r, r^2 is a basis of Q(r)
    for m in (FRO, M1):
        e = eigen_data(require_nrs(m))
        mul = e.field.mul
        g1 = _real_eigenvector(m)
        x_form = list(zip(*e.x_table))  # over x_den
        for i in range(3):
            # g1 is a right eigenvector: (M - r) g1 = 0 componentwise
            assert num_sum(*(num_times(g1[j], m[i, j]) for j in range(3))) \
                == mul(R, g1[i])
            # x_form is a left eigenvector: sum_j x_form[j] M[j][i] = r x_form[i]
            assert num_sum(*(num_times(x_form[j], m[j, i])
                             for j in range(3))) == mul(R, x_form[i])
        assert any(num_sum(*map(mul, x_form, g1)))
        assert e.field.sign(_f_num(e, IntVector((1, 0, 0)))) > 0


@settings(max_examples=100, deadline=None)
@given(small_matrices(n=3, lo=-9, hi=9))
def test_adjugate_coeffs_cayley_hamilton(m):
    w0, w1, w2 = adjugate_coeffs(m)
    for t in (-1, 0, 1, 2, 3):
        total = w0 + w1.scale(t) + w2.scale(t * t)
        assert total == (m - IntMatrix.identity(3).scale(t)).adjugate(), t


class _Oracle:
    """The operator m in the Fraction oracle's Q(r): r isolated by Sturm
    bisection, x_form, row 0 of adj(M - rI) over its first nonzero entry,
    by the oracle's extended-Euclid inverse and products, and the six
    constants 1, s, s^2 - 2q, q, sq, q^2 of F from the symmetric functions
    s = c + conj(c) = tr M - r and q = c conj(c) = 1 / r of the complex
    pair.  Values are lists of the Fraction coefficients of 1, r, r^2."""

    def __init__(self, m):
        p = char_poly(m)
        self.ref = ref = PolyModField(p.coeffs, *isolate_real_roots(p)[-1])
        self.w = w = adjugate_coeffs(m)

        def entry(i, j):
            return [Fraction(c[i, j]) for c in w]

        cells = list(itertools.product(range(3), range(3)))
        i0, j0 = next((i, j) for i, j in cells if any(entry(i, j)))
        inv = ref.inverse(entry(i0, j0))
        self.x_form = [ref.mul(entry(i0, j), inv) for j in range(3)]
        s = [Fraction(m.trace()), Fraction(-1), Fraction(0)]
        q = ref.inverse([0, 1, 0])
        self.consts = ([1, 0, 0], s,
                       ref.sub(ref.mul(s, s), [2 * c for c in q]),
                       q, ref.mul(s, q), ref.mul(q, q))

    def x(self, v):
        return [sum(f[k] * vi for f, vi in zip(self.x_form, v))
                for k in range(3)]

    def polar(self, row, f, g):
        """2 Phi(f, g) at the omega values of row `row`: the six monomials
        of those values times the six constants."""
        f = [sum(c[row, j] * fj for j, fj in enumerate(f)) for c in self.w]
        g = [sum(c[row, j] * gj for j, gj in enumerate(g)) for c in self.w]
        mono = (2 * f[0] * g[0], f[0] * g[1] + f[1] * g[0],
                f[0] * g[2] + f[2] * g[0], 2 * f[1] * g[1],
                f[1] * g[2] + f[2] * g[1], 2 * f[2] * g[2])
        return [sum(a * c[k] for a, c in zip(mono, self.consts))
                for k in range(3)]

    def y_sq(self, v):
        return [c / 2 for c in self.polar(0, v, v)]

    def cmp(self, a, b):
        return self.ref.sign(self.ref.sub(a, b))


@functools.lru_cache(maxsize=None)
def _oracle(m):
    return _Oracle(m)


@functools.lru_cache(maxsize=None)
def _operator_data(i):
    """eigen_data of M1, FRO, a 12-step conjugate of M1 and a band cell."""
    ops = (M1, FRO, _conjugate_of_m1(random.Random(11), 12), band_cell(-3, 9))
    return ops[i], eigen_data(require_nrs(ops[i]))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       nonzero_vectors(lo=-10 ** 6, hi=10 ** 6))
def test_compiled_x_and_f_match_field_formulas(i, v):
    m, e = _operator_data(i)
    # equal values have equal coefficients, as 1, r, r^2 is a basis
    x, y_sq = _oracle(m).x(v), _oracle(m).y_sq(v)
    assert [Fraction(c, e.x_den) for c in _x_num(e, v)] == x
    assert list(_f_num(e, v)) == y_sq
    p = project_pi(e, v)
    assert (p.x, p.y_sq, p.x_den) == (_x_num(e, v), _f_num(e, v), e.x_den)


def _field_tables(m):
    """eigen_data's tables built in the Fraction oracle's arithmetic
    (_Oracle): x_table over the lcm of the denominators of x_form, and the
    polar-Gram table from the omega values of the first row of adj(M - rI)
    on which F is nonzero: Q_k[i][j] is the coefficient of r^k in 2
    Phi(e_i, e_j).  Returns (x_table, x_den, q_table, expands), expands
    the oracle's sign of r - 1."""
    o = _oracle(m)
    x_den = math.lcm(*(c.denominator for f in o.x_form for c in f))
    x_table = tuple(zip(*(tuple(int(c * x_den) for c in f)
                          for f in o.x_form)))
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    row = next(i for i, j in itertools.product(range(3), range(3))
               if any(o.polar(i, unit[j], unit[j])))
    gram = [[o.polar(row, u, v) for v in unit] for u in unit]
    assert all(c.denominator == 1 for g in gram for x in g for c in x)
    q_table = tuple(tuple(tuple(int(x[k]) for x in g) for g in gram)
                    for k in range(3))
    return x_table, x_den, q_table, o.ref.sign([-1, 1, 0]) > 0


def _shears_of_m1(power):
    return [shear(3, i, j, 10 ** power).inverse_unimodular() * M1
            * shear(3, i, j, 10 ** power)
            for i, j in itertools.permutations(range(3), 2)]


def test_closed_form_tables_match_field_arithmetic():
    # eigen_data builds its tables in integers: r on a float bracket that
    # exact signs confirm, else on (0, 1 + max |c_i|), the polar-Gram
    # tables Q_k = W^T (2 S_k) W from the closed forms of the six
    # constants of F over Z[r], x_form from the adjugate of a
    # multiplication matrix, and expands from the sign of p(1).  Oracle:
    # the same tables from Sturm isolation and the Fraction oracle's
    # products and inverses, and its sign of r - 1, on the 838
    # criterion-9 NRS cells and the six shears of M1 at 10^40
    mats = list(criterion9_nrs_cells()) + _shears_of_m1(40)
    assert len(mats) == 844
    for m in mats:
        e = eigen_data(require_nrs(m))
        x_table, x_den, q_table, expands = _field_tables(m)
        assert (e.x_table, e.x_den) == (x_table, x_den), m
        assert e.q_table == q_table, m
        assert e.expands == expands, m


def _intmatrix_tables(m, p):
    """eigen_data's x_table, x_den and q_table by the IntMatrix route that
    its straight-line integers replaced: the omega matrices of
    adjugate_coeffs, the multiplication by b(r) as an IntMatrix with its
    det and adjugate, x's rows as adj(B) times the matrix of omega rows 0,
    and Q_k = W^T (2 S_k) W by IntMatrix products, W the omega rows 0."""
    _, c1, c2, _ = p.coeffs
    w0, w1, w2 = adjugate_coeffs(m)
    omega = IntMatrix([w0.row(0), w1.row(0), w2.row(0)])

    def times_r(v):
        return v[2], v[0] - c1 * v[2], v[1] - c2 * v[2]
    b = (w0[0, 0], w1[0, 0], 1)
    mult = IntMatrix.from_columns([IntVector(b), IntVector(times_r(b)),
                                   IntVector(times_r(times_r(b)))])
    d = det(mult)
    rows = (mult.adjugate() * omega).rows
    g = math.gcd(d, *itertools.chain(*rows)) * (1 if d > 0 else -1)
    x_table = tuple(tuple(c // g for c in row) for row in rows)
    s2, sq = c2 * c2 - 2 * c1, -c1 * c2 - 1
    two_s = (((2, -c2, s2), (-c2, 2 * c1, sq), (s2, sq, 2 * (c1 * c1 + c2))),
             ((0, -1, 0), (-1, 2 * c2, -c2 * c2), (0, -c2 * c2, -2 * sq)),
             ((0, 0, -1), (0, 2, -c2), (-1, -c2, 2 * c1)))
    q_table = tuple((omega.transpose() * IntMatrix(s) * omega).rows
                    for s in two_s)
    return x_table, d // g, q_table


def test_straight_line_tables_match_the_intmatrix_route():
    # eigen_data takes omega's rows 0 from adj(M) and M - tr(M) e_0 and
    # builds the multiplication matrix, its adjugate and det, x's table
    # and the congruences on tuples of ints; oracle: the same tables by
    # IntMatrix arithmetic, on M1, FRO, the 40 pin conjugates and 20
    # random perfect NRS matrices at each of A = 50 and 400
    mats = [M1, FRO] + pin_conjugates()
    for a in (50, 400):
        mats += perfect_nrs_matrices(random.Random(a), a, 20)
    assert len(mats) == 82
    for m in mats:
        nrs = require_nrs(m)
        e = eigen_data(nrs)
        assert (e.x_table, e.x_den, e.q_table) \
            == _intmatrix_tables(m, nrs.poly), m
        assert e.inverse == m.adjugate()


# the distance of the near-integer values from their integer: 32 bits
# past the precision to which eigen_data refines r
_NEAR = sail3._R_BITS + 32


def _near_integer(field, base, den, shift, k, above):
    """(num, den) of a value v with 2^shift v in (k, k + 2^-_NEAR) when
    `above`, else in (k - 2^-_NEAR, k): base / den moved by a dyadic
    rational, from the floor of 2^(shift + _NEAR) base / den."""
    t = shift + _NEAR
    f = field.floor(base, den, t) + (not above)
    num = (base[0] * (1 << t) - (f - (k << _NEAR)) * den,
           base[1] << t, base[2] << t)
    return num, den << t


def _counting_slow_floors(calls):
    """NumberField._slow_floor, the refining path of NumberField.floor,
    appending its shift to `calls` at every call."""
    slow = NumberField._slow_floor

    def counting(field, num, den, shift):
        calls.append(shift)
        return slow(field, num, den, shift)
    return counting


def test_field_floor_matches_the_oracle(monkeypatch):
    # NumberField.floor takes the Horner enclosure at r's current interval
    # when both its ends have one floor, and its slow path, which refines
    # r, otherwise; a ceiling is -floor(-num).  Oracle: the floors of
    # PolyModField, by its own bisection of r, on seeded numerators,
    # denominators and shifts, and on values within 2^-(_R_BITS + 32) of
    # an integer, where the enclosure at eigen_data's refinement straddles
    # the integer and the slow path must run, once
    rng = random.Random(32)
    mats = [M1, FRO, band_cell(-3, 9), _shears_of_m1(40)[0]]
    for m in mats:
        field, ref = eigen_data(require_nrs(m)).field, _oracle(m).ref
        for _ in range(200):
            num = tuple(rng.randint(-2 ** 200, 2 ** 200) >> rng.randint(0, 200)
                        for _ in range(3))
            den = rng.randint(1, 2 ** rng.randint(1, 80))
            shift = rng.randint(-120, 300)
            want = (ref.floor([Fraction(c, den) for c in num], shift),
                    -ref.floor([Fraction(-c, den) for c in num], shift))
            assert field_bounds(field, num, den, shift) == want, (m, num, den)
    slow = []
    near = 0
    for m in mats:
        ref = _oracle(m).ref
        for shift in (0, 40, 100):
            base = tuple(rng.randint(-2 ** 40, 2 ** 40) for _ in range(3))
            base_den = rng.randint(1, 2 ** 20)
            for above in (True, False):
                k = rng.randint(-2 ** 30, 2 ** 30)
                num, den = _near_integer(eigen_data(require_nrs(m)).field,
                                         base, base_den, shift, k, above)
                want = k if above else k - 1
                assert ref.floor([Fraction(c, den) for c in num], shift) \
                    == want
                # r as eigen_data leaves it, not refined by the oracle
                field = eigen_data(require_nrs(m)).field
                with monkeypatch.context() as patch:
                    patch.setattr(NumberField, "_slow_floor",
                                  _counting_slow_floors(slow))
                    assert field.floor(num, den, shift) == want
                near += 1
                assert len(slow) == near, (m, shift, above)


_REDUCED = {"status": "Reduced", "certificate": {"kind": "SailCertified"}}
# (operator, whether the float bracket isolates its r, its fingerprint's
# matrices (None: the operator alone) and minimum, and its verdict (None:
# not a perfect Hessenberg matrix)), the outputs as r's isolation on the
# Cauchy interval (0, B) gave them: M1, two with r < 1, two far-out band
# members and a Frobenius member whose c2 = -10^400 has no float
_BRACKET_CASES = {
    "M1": (M1, True, (M1, parse_matrix("0 2 3; 1 1 1; 0 3 4")), 3,
           _REDUCED),
    "M1^-1": (M1.inverse_unimodular(), True,
              (parse_matrix("0 1 0; 1 0 -2; 0 3 -1"),
               parse_matrix("0 2 -1; 1 1 -3; 0 3 -2")), 3, None),
    "(-7,3)": (band_cell(-7, 3), True,
               (parse_matrix("0 0 1; 1 0 -13; 0 1 7"),), 1,
               {"status": "Nonreduced", "witness": [1, -2, 1]}),
    "(4,10^12)": (band_cell(4, 10 ** 12), True, None, 2, _REDUCED),
    "(10^15,10^30)": (band_cell(10 ** 15, 10 ** 30), True, None, 2,
                      _REDUCED),
    "c2=-10^400": (IntMatrix([[0, 0, 1], [1, 0, 3], [0, 1, 10 ** 400]]),
                   False, None, 1, _REDUCED),
}


def _check_bracket_case(name, in_float):
    """Assert that r's starting interval for the case `name` is the float
    bracket when `in_float`, else (0, B), and that the fingerprint and the
    verdict are the case's."""
    m, _, matrices, min_value, verdict = _BRACKET_CASES[name]
    p = require_nrs(m).poly
    bound = 1 + max(map(abs, p.coeffs[:-1]))
    lo, hi = root_ends(sail3._isolate_r(p))
    if in_float:
        assert 0 < lo < hi <= bound, name
        assert hi - lo < lo / 2 ** 30, name
    else:
        assert (lo, hi) == (0, bound), name
    fp = fingerprint(m)
    assert fp.matrices == (matrices or (m,)) and fp.min_value == min_value
    if verdict is not None:
        assert is_reduced(m, Sail()).to_json() == verdict, name


@pytest.mark.parametrize("name", list(_BRACKET_CASES))
def test_float_bracket_isolates_r(name):
    # eigen_data isolates r on a bracket about 2^-32 wide relative to a
    # float estimate of it, kept when exact signs of p at its ends differ
    # and it lies in (0, B), else on (0, B); a coefficient with no float
    # takes (0, B).  Every floor is exact at any interval of r, so the
    # outputs are those of the isolation on (0, B)
    _check_bracket_case(name, _BRACKET_CASES[name][1])


@pytest.mark.parametrize("wrong", [lambda t: math.nan, lambda t: math.inf,
                                   lambda t: t * (1 + 2 ** -20),
                                   lambda t: -t, lambda t: 0.0],
                         ids=["nan", "inf", "off-by-2^-20", "negated", "zero"])
def test_wrong_float_estimate_falls_back_to_the_cauchy_interval(monkeypatch,
                                                                 wrong):
    # a float estimate that misses r, or is no number, fails the bracket's
    # exact check or its range check, and r is isolated on (0, B) with the
    # same outputs
    cardano = sail3._cardano
    monkeypatch.setattr(sail3, "_cardano", lambda b, c: wrong(cardano(b, c)))
    for name, case in _BRACKET_CASES.items():
        if case[1]:
            _check_bracket_case(name, False)


def test_fundamental_window_takes_no_field_products(monkeypatch):
    # the sail route compiles its operator in integers: no Sturm isolation
    # of r and no NumberField product, on a band cell with three slab
    # points
    import hesslab.exact as exact_mod
    import hesslab.numberfield as nf_mod
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(NumberField, "mul", counting("mul", NumberField.mul))
    for mod in (nf_mod, exact_mod, sail3):
        for attr in ("isolate_real_roots", "count_real_roots"):
            if hasattr(mod, attr):
                monkeypatch.setattr(mod, attr,
                                    counting(attr, getattr(mod, attr)))
    w = fundamental_window(require_nrs(band_cell(-2, 6)))
    assert len(list(slab_points(w.eigen, w.slab))) == 3
    assert calls == []


def _scaled_y(y_sq_lo, y_sq_hi, k):
    """Integer bounds of 2^k y from those of 2^k y_sq: integer square roots
    of 2^k times them, rounded outward."""
    lo, hi = y_sq_lo << k, y_sq_hi << k
    s = math.isqrt(hi)
    return math.isqrt(lo), s + (s * s < hi)


def _interval_orientation(p1, p2, p3):
    """The sign of (x2 - x1)(y3 - y1) - (y2 - y1)(x3 - x1), from integer
    enclosures of 2^k x and 2^k y at k = 16, 32, 64, ... until the interval
    of 2^(2k) times it excludes 0; an oracle for nonzero cross products
    that shares no algebra with the chord test."""
    def sub(a, b):
        return a[0] - b[1], a[1] - b[0]

    def mul(a, b):
        ends = [u * v for u in a for v in b]
        return min(ends), max(ends)

    for k in (16 << i for i in range(10)):
        (x1, y1), (x2, y2), (x3, y3) = (
            (field_bounds(p.field, p.x, p.x_den, k),
             _scaled_y(*field_bounds(p.field, p.y_sq, 1, k), k))
            for p in (p1, p2, p3))
        lo, hi = sub(mul(sub(x2, x1), sub(y3, y1)),
                     mul(sub(y2, y1), sub(x3, x1)))
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
    raise AssertionError("cross product undecided at 2^-8192")


def _counting_signs():
    """NumberField.sign wrapped, while active, by a mock that counts its
    calls: the chord test decides by field signs, and the box filter takes
    none."""
    return mock.patch.object(NumberField, "sign", autospec=True,
                             side_effect=NumberField.sign)


def _ascending(e, vs):
    """The projections of vs in ascending x, as _lower_hull receives them;
    their boxes are computed up front, so any field sign that _orientation
    takes is the chord test's."""
    pts = sorted((project_pi(e, v) for v in vs),
                 key=functools.cmp_to_key(sail3._x_cmp))
    for p in pts:
        p.y_box
    return pts


def _undecidable(p):
    """A copy of p whose box holds x and y_sq, but so loosely that the
    filter's interval holds 0 for any three such points: the chord test
    decides their orientation."""
    x_lo, x_hi, _, y_sq_hi = p.box
    w = (abs(x_lo) + abs(x_hi) + y_sq_hi + 1) << 40
    q = PiPoint(p.preimage, p.x, p.y_sq, p.x_den, p.field)
    q.__dict__["box"] = (x_lo - w, x_hi + w, 0, y_sq_hi + w)
    return q


def _on_one_ray(vs):
    """Whether the vectors are positive multiples of one vector u (equality
    in Cauchy-Schwarz, with u . v > 0): x is linear and y homogeneous of
    degree one, so their points lie on one ray through the origin."""
    u = vs[0]

    def dot(a, b):
        return sum(map(operator.mul, a, b))

    return all(dot(u, v) > 0 and dot(u, v) ** 2 == dot(u, u) * dot(v, v)
               for v in vs[1:])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2),
       st.lists(nonzero_vectors(lo=-30, hi=30), min_size=3, max_size=3,
                unique=True),
       st.sampled_from(("random", "collinear", "huge")))
def test_orientation_filter_matches_exact(i, vs, shape):
    # three distinct vectors have three distinct x, as x vanishes on no
    # nonzero integer vector
    _, e = _operator_data(i)
    if shape == "collinear":
        vs = [vs[0], vs[0].scale(2), vs[0].scale(3)]
    elif shape == "huge":
        # x and y_sq far beyond the float range
        vs = [v.scale(10 ** 400) for v in vs]
    pts = _ascending(e, vs)
    want = 0 if _on_one_ray(vs) else _interval_orientation(*pts)
    with _counting_signs() as sign:
        assert sail3._orientation(*pts) == want
    if want == 0:
        # an interval that holds 0 falls back
        assert sign.call_count > 0
    elif shape == "huge":
        # the cross product of huge points outgrows the boxes' widths, so
        # the integer filter decides
        assert sign.call_count == 0
    with _counting_signs() as sign:
        assert sail3._orientation(*map(_undecidable, pts)) == want
    assert sign.call_count > 0


def _box_holds(p):
    # box bounds 2^20 x and 2^20 y_sq, y_box 2^20 y, each by its floor
    # and ceiling: exact signs of 2^20 x_den x - x_den n, 2^20 y_sq - n
    # and 2^40 y_sq - n^2
    x_lo, x_hi, ysq_lo, ysq_hi = p.box
    y_lo, y_hi = p.y_box
    sign, x, y_sq = p.field.sign, num_times(p.x, 1 << 20), p.y_sq

    def minus(num, n):
        return (num[0] - n,) + num[1:]

    assert sign(minus(x, x_lo * p.x_den)) >= 0 \
        >= sign(minus(x, x_hi * p.x_den))
    assert sign(minus(num_times(y_sq, 1 << 20), ysq_lo)) >= 0 \
        >= sign(minus(num_times(y_sq, 1 << 20), ysq_hi))
    assert x_hi - x_lo <= 1 and ysq_hi - ysq_lo <= 1
    assert sign(minus(num_times(y_sq, 1 << 40), y_lo ** 2)) >= 0 \
        >= sign(minus(num_times(y_sq, 1 << 40), y_hi ** 2))
    assert (y_lo + 1) ** 2 > ysq_lo << 20
    assert y_hi == 0 or (y_hi - 1) ** 2 < ysq_hi << 20


def test_floor_ceil_takes_one_floor_off_the_rationals():
    # _floor_ceil returns floor + 1 as the ceiling of a value with a
    # nonzero r- or r^2-coefficient, which is irrational, and takes a
    # second floor only for a rational value; oracle: field_bounds, the
    # floor and -floor(-num), on seeded numerators with 0, 1 or 2 of those
    # coefficients zeroed, and on integers, whose ceiling is themselves
    rng = random.Random(49)
    field = eigen_data(require_nrs(M1)).field
    floors = []
    floor = NumberField.floor

    def counting(self, num, den=1, shift=0):
        floors.append(num)
        return floor(self, num, den, shift)

    cases = [((4 * k, 0, 0), 4, 0) for k in range(-3, 4)]
    for _ in range(300):
        num = [rng.randint(-2 ** 80, 2 ** 80) for _ in range(3)]
        for j in rng.sample((1, 2), rng.randint(0, 2)):
            num[j] = 0
        cases.append((tuple(num), rng.randint(1, 2 ** 40),
                      rng.randint(-60, 60)))
    for num, den, shift in cases:
        want = field_bounds(field, num, den, shift)
        with mock.patch.object(NumberField, "floor", counting):
            assert sail3._floor_ceil(field, num, den, shift) == want
        assert len(floors) == (2 if num[1] == num[2] == 0 else 1), num
        floors.clear()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       nonzero_vectors(lo=-10 ** 6, hi=10 ** 6))
def test_box_holds_x_and_y(i, v):
    _, e = _operator_data(i)
    for w in (v, v.scale(10 ** 400)):
        p = project_pi(e, w)
        assert p.box == (field_bounds(e.field, _x_num(e, w), e.x_den, 20)
                         + field_bounds(e.field, _f_num(e, w), 1, 20))
        _box_holds(p)


def test_box_near_the_box_resolution():
    # x values at, just off and far below 2^-20, over x_den = 2^61: r - d
    # lies in (0, 2^-60).  y_sq is over 1, so its values near the box
    # resolution are integers and squares moved by the unit r^-30 of
    # Z[r], in (0, 2^-70): integer bounds of a few units, and of 0
    field = eigen_data(require_nrs(M1)).field
    tiny = (-(field.floor(R, 1, 80) >> 20) * 2, 1 << 61, 0)
    unit = (1 << 41, 0, 0)
    xs = [num_times(unit, c) for c in (0, 1, -1)]
    xs += [(1 << 40, 0, 0), num_times(unit, 3), tiny, num_times(tiny, -1),
           num_sum(tiny, unit), num_sum(unit, num_times(tiny, -1)),
           num_times(tiny, 1 << 30)]
    # 1 / r = r^2 - 5 r - 1, as r^3 = 5 r^2 + r + 1 for M1
    small = (1, 0, 0)
    for _ in range(30):
        small = field.mul(small, (-1, -5, 1))
    assert field_bounds(field, small, 1, 70) == (0, 1)
    ys = [(0, 0, 0), (1, 0, 0), (3, 0, 0), small, num_times(small, 1 << 30)]
    ys += [num_sum((c, 0, 0), num_times(small, s))
           for c in (1, 4, 1 << 40) for s in (1, -1)]
    for x in xs:
        for y_sq in ys:
            _box_holds(PiPoint(IntVector((1, 0, 0)), x, y_sq, 1 << 61,
                               field))


def test_orientation_falls_back_on_a_wide_box():
    e = eigen_data(require_nrs(M1))
    vs = [IntVector(v) for v in ((1, 0, 0), (0, 1, 0), (0, -1, 1))]
    want = _interval_orientation(*_ascending(e, vs))
    assert want != 0
    with _counting_signs() as sign:
        assert sail3._orientation(*_ascending(e, vs)) == want
    assert sign.call_count == 0
    # a box that still holds x and y_sq but is too wide to decide: the
    # filter's interval holds 0, and the chord test decides in Q(r)
    for k in range(3):
        pts = _ascending(e, vs)
        pts[k].__dict__["box"] = (-1 << 60, 1 << 60, 0, 1 << 60)
        del pts[k].__dict__["y_box"]
        with _counting_signs() as sign:
            assert sail3._orientation(*pts) == want
            assert sign.call_count > 0, k


@functools.lru_cache(maxsize=None)
def _convergent_vectors(i):
    """q e2 - p e1 for the convergents p / q < 2^80 of alpha = x(e2) /
    x(e1), whose x = x(e1) (q alpha - p) shrinks like 1 / q."""
    _, e = _operator_data(i)
    # x(e2) / x(e1) to about 2^-300, from both floors at 2^400
    x0, x1, _ = (e.field.floor(c, e.x_den, 400) for c in zip(*e.x_table))
    a = Fraction(x1, x0)
    out = []
    p0, q0, p1, q1 = 1, 0, math.floor(a), 1
    a -= p1
    while q1 < 1 << 80:
        out.append(IntVector((-p1, q1, 0)))
        c = math.floor(1 / a)
        a = 1 / a - c
        p0, q0, p1, q1 = p1, q1, c * p1 + p0, c * q1 + q0
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=200),
       nonzero_vectors(lo=-10 ** 6, hi=10 ** 6),
       st.sampled_from((1, -1, 10 ** 310)))
def test_x_sign_is_exact(i, j, w, scale):
    # signs of x against the Fraction oracle's sign of x(v) from its own
    # bisection of r: small vectors, vectors with entries above 10^308 and
    # the convergent vectors, whose x shrinks like 1 / q for q up to 2^80
    m, e = _operator_data(i)
    o = _oracle(m)
    cs = _convergent_vectors(i)
    c = cs[j % len(cs)]
    for v in (w, c, w.scale(scale), c.scale(scale), c.scale(scale) + w):
        assert sail3._x_sign(e, v) == o.ref.sign(o.x(v)), v


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-(1 << 40), max_value=1 << 40))
@example(0)
@example(-1)
@example(10 ** 9)
@example(-10 ** 9 - 1)
def test_dec_rounds_as_float_formatting(n):
    # _dec prints the integer n as n / 10^9; for |n| <= 2^40 the float
    # n / 10^9 lies within 2^-43 of that value, far inside the 10^-9 / 2
    # that "%.9f" rounds away
    assert sail3._dec(n) == "%.9f" % (n / 10 ** 9)


def test_dec_beyond_the_float_range():
    assert sail3._dec(10 ** 409 + 666666667) \
        == "1" + "0" * 400 + ".666666667"
    assert sail3._dec(-10 ** 409) == "-1" + "0" * 400 + ".000000000"
    assert sail3._dec(-10 ** 409 - 1) == "-1" + "0" * 400 + ".000000001"


def test_pareto_filter_decides_x_order_exactly():
    # x(p2) - x(p1) = r - d is below 2^-25, so the 2^-20 boxes overlap,
    # and p1 has the larger y_sq: both points are Pareto-minimal, but a
    # filter that ordered by box ends alone once sorted p2 first and
    # dropped p1.  x is over x_den = 3 * 2^25, x(p1) = 1/3
    field = eigen_data(require_nrs(M1)).field
    d = field.floor(R, 1, 40) >> 15
    den = 3 << 25

    def point(v, x, y_sq):
        return PiPoint(IntVector(v), x, (y_sq, 0, 0), den, field)

    p1 = point((1, 0, 0), (1 << 25, 0, 0), 2)
    p2 = point((0, 1, 0), ((1 << 25) - 3 * d, den, 0), 1)
    for pts in ([p1, p2], [p2, p1]):
        assert sail3._pareto_filter(pts) == [p1, p2]
    # a repeated or weakly dominated point goes
    p3 = point((0, 0, 1), (4 << 25, 0, 0), 1)
    assert sail3._pareto_filter([p3, p2, p1, p2]) == [p1, p2]


def test_x_equivariance():
    e = eigen_data(require_nrs(FRO))
    v = IntVector((1, 2, 0))
    assert _x_num(e, FRO * v) == e.field.mul(R, _x_num(e, v))


def test_y_sq_scaling_under_operator():
    e = eigen_data(require_nrs(FRO))
    v = IntVector((1, 2, 0))
    assert e.field.mul(_f_num(e, FRO * v), R) == _f_num(e, v)


def test_frobenius_sail_fundamental_domain():
    sail = compute_sail(FRO)
    fund = [sail.vertices[i] for i in sail.fundamental]
    assert len(fund) == 1
    assert tuple(fund[0].preimage) == (1, 0, 0)
    assert tuple(FRO * fund[0].preimage) == (0, 1, 0)
    # the hull is part of the operator orbit of e1
    keys = {tuple(p.preimage) for p in sail.vertices}
    assert (0, 1, 0) in keys and (0, 0, 1) in keys


def test_sail_vertices_sorted_and_consistent():
    for m in (M1, FRO):
        sail = compute_sail(m)
        for p, q in zip(sail.vertices, sail.vertices[1:]):
            assert p.field.sign(num_sum(q.x, num_times(p.x, -1))) > 0
        dump = sail.to_json()
        assert any(e["is_fundamental"] for e in dump)
        for entry in dump:
            assert float(entry["x"][0]) <= float(entry["x"][1])
            # the y enclosure is no wider than the last printed digit
            y_lo, y_hi = (Fraction(t) for t in entry["y"])
            assert 0 <= y_hi - y_lo <= Fraction(1, 10 ** 9), (m, entry)


def test_slab_contains_fundamental_vertices():
    e = eigen_data(require_nrs(M1))
    pts = list(slab_points(e, reduced_slab(e, IntVector((1, 0, 0)))))
    keys = {tuple(p) for p in pts}
    sail = compute_sail(M1)
    for p in [sail.vertices[i] for i in sail.fundamental]:
        v = tuple(p.preimage)
        assert v in keys or tuple(-c for c in v) in keys


def test_slab_hard_cell_regression(monkeypatch):
    # this family cell has a coordinate bounding box with ~2e9 cross
    # section; the reduced-basis enumeration must keep feasible both the
    # slab of (32, -11, 62), a seed that once took a 0.9 GB cube scan to
    # find, and the slab of the seed the enumeration chooses
    t = HessType.parse("<0,1|1,0,2>")
    mat = family_member(FamilyPoint(t, IntVector((1, 0, 1)), (-6, 15)))
    e = eigen_data(require_nrs(mat))
    seed = IntVector((32, -11, 62))
    if e.field.sign(_x_num(e, seed)) < 0:
        seed = -seed
    slabs = (reduced_slab(e, seed), fundamental_slab(e))
    for slab in slabs:
        assert len(list(slab_points(e, slab))) > 0
    # the budget bounds the nodes visited at all levels, which reach the
    # distinct p and M p, so more than one
    monkeypatch.setattr(sail3, "NODE_BUDGET", 1)
    for slab in slabs:
        with pytest.raises(Inconclusive, match="exceeds 1 nodes"):
            list(slab_points(e, slab))


def _positive_seed(e, v):
    v = IntVector(v)
    return -v if e.field.sign(_x_num(e, v)) < 0 else v


def _strictly_inside_slab(m, p, box):
    """Points of the coordinate box [-box, box]^3 inside the slab of p by a
    1e-3 relative margin, from numpy's left eigenvectors of M.  x and F are
    known only up to positive scales here, so the slab is tested through
    the ratios x(v)/x(p) in [min(1, r), max(1, r)] and
    F(v)/F(p) <= max(1, 1/r)."""
    vals, vecs = np.linalg.eig(np.array(m.rows, dtype=float).T)
    i = int(np.argmin(np.abs(vals.imag)))
    j = int(np.argmax(vals.imag))
    r, left_real, left_complex = vals[i].real, vecs[:, i].real, vecs[:, j]
    rng = np.arange(-box, box + 1)
    pts = np.stack([g.ravel() for g in np.meshgrid(rng, rng, rng,
                                                   indexing="ij")], axis=1)
    pf = np.array(tuple(p), dtype=float)
    xr = (pts @ left_real) / (pf @ left_real)
    fr = np.abs(pts @ left_complex) ** 2 / abs(pf @ left_complex) ** 2
    lo, hi = sorted((1.0, r))
    tol = 1e-3
    inside = (xr > lo * (1 + tol)) & (xr < hi * (1 - tol)) \
        & (fr < max(1.0, 1.0 / r) * (1 - tol))
    return pts[inside]


_SLAB_SEEDS = [
    (FRO, (1, 0, 0)),
    (M1, (1, 0, 0)),
    # the hard cell of test_slab_hard_cell_regression, with the seed that
    # improve_seed finds for it
    (band_cell(-6, 15), (32, -11, 62)),
    (band_cell(-3, 9), (1, 0, 0)),
    (band_cell(0, 9), (1, 0, 0)),
]
_SLAB_CASES = pytest.mark.parametrize(
    "m, seed", _SLAB_SEEDS,
    ids=["FRO", "M1", "hard(-6,15)", "band(-3,9)", "band(0,9)"])


@_SLAB_CASES
def test_slab_enumeration_is_sound(m, seed):
    # the natural seed spans a slab of a few points; the wider seed's slab
    # holds hundreds of points of the box
    e = eigen_data(require_nrs(m))
    checked = 0
    for p in (_positive_seed(e, seed), _positive_seed(e, (3, -2, 4))):
        pts = list(slab_points(e, reduced_slab(e, p)))
        keys = {tuple(v) for v in pts}
        for v in (p, m * p):
            assert tuple(v) in keys or tuple(-v) in keys
        inside = _strictly_inside_slab(m, p, 24)
        missing = [v for v in map(tuple, inside.tolist()) if v not in keys]
        assert not missing, missing[:5]
        checked += len(inside)
    assert checked > 0


def _exact_slab_points(e, slab):
    """The vectors u B of the box |u_i| <= 4 in the slab's basis B, u != 0,
    that lie in the slab by exact comparisons in the Fraction oracle: x(v)
    between x(p) and x(M p) and F(v) <= max(F(p), F(M p)), from the field
    formulas; in the lexicographic order of u."""
    m, p = e.matrix, slab.seed
    o = _oracle(m)
    key = functools.cmp_to_key(o.cmp)
    x_lo, x_hi = sorted((o.x(p), o.x(m * p)), key=key)
    f_max = max(o.y_sq(p), o.y_sq(m * p), key=key)
    want = []
    for u in itertools.product(range(-4, 5), repeat=3):
        v = IntVector([sum(map(operator.mul, u, col))
                       for col in zip(*slab.basis)])
        if not any(u):
            continue
        x = o.x(v)
        if (o.cmp(x_lo, x) <= 0 <= o.cmp(x_hi, x)
                and o.cmp(o.y_sq(v), f_max) <= 0):
            want.append(v)
    return want


@_SLAB_CASES
def test_slab_enumeration_is_exact(m, seed):
    # the natural seed's slab points are exactly _exact_slab_points.  Both
    # lists run in the lexicographic order of u, so the box holds every
    # returned point
    e = eigen_data(require_nrs(m))
    slab = reduced_slab(e, _positive_seed(e, seed))
    assert list(slab_points(e, slab)) == _exact_slab_points(e, slab)


def test_leaf_fallback_is_exact(monkeypatch):
    # at 40 bits the leaf filter decides every leaf of the natural seeds'
    # slabs, as none lies within 2^-40 of the boundary.  At 4 bits, the
    # bits of slab_points' floors of x and F, it leaves some to the exact
    # fallback, whose output must still be exactly the slab's points.  The seed (0, 1, 1) of M1 sends the fallback leaves
    # outside its slab's x range, so a fallback that accepted every leaf,
    # skipped the F comparison or skipped the signs of x would list points
    # outside the slab
    monkeypatch.setattr(sail3, "_FILTER_BITS", 4)
    x_sign = sail3._x_sign
    fallbacks = []

    def counting_x_sign(e, v):
        # within slab_points, only the fallback takes signs of x
        fallbacks.append(v)
        return x_sign(e, v)

    for m, seed in _SLAB_SEEDS + [(M1, (0, 1, 1))]:
        e = eigen_data(require_nrs(m))
        slab = reduced_slab(e, _positive_seed(e, seed))
        with monkeypatch.context() as patch:
            patch.setattr(sail3, "_x_sign", counting_x_sign)
            got = list(slab_points(e, slab))
        assert got == _exact_slab_points(e, slab), str(m)
    assert fallbacks


def _log2_floor_by_steps(field, num, den):
    # the former search, one 64-bit step at a time: the reference value
    shift, n = 0, field.floor(num, den)
    while n == 0:
        shift += 64
        n = field.floor(num, den, shift)
    return n.bit_length() - 1 - shift


@pytest.mark.parametrize("k", [5000, 16612])
def test_log2_floor_doubles_its_shift(monkeypatch, k):
    # a rational 3 / 2^(k+1) and the irrational frac(2^k r) / 2^k, both near
    # 2^-k: the doubling search agrees with the 64-bit steps and takes
    # O(log shift) floors, where the steps took about k / 64
    field = eigen_data(require_nrs(M1)).field
    n = field.floor(R, 1, k)
    elems = [((3, 0, 0), 2 ** (k + 1)), ((-n, 2 ** k, 0), 2 ** k)]
    wants = [_log2_floor_by_steps(field, *a) for a in elems]
    calls = []
    monkeypatch.setattr(NumberField, "_slow_floor",
                        _counting_slow_floors(calls))
    for (num, den), want in zip(elems, wants):
        assert -k - 64 < want <= -k
        del calls[:]
        assert sail3._log2_floor(field, num, den) == want
        assert len(calls) <= 2 + (k // 64).bit_length(), calls


def test_md_form_is_one_multiple_of_x_times_f():
    # fundamental_slab compares the slab volumes x(v) F(v) through the
    # integers |MD(v)|: v = a g1 + z g_c + conj(z g_c) gives [v, Mv, M^2 v]
    # = [g1 g_c conj(g_c)] diag(a, z, conj z) V, V the Vandermonde matrix of
    # (r, c, conj c), so x(v) F(v) / MD(v) is one element of Q(r) (NOTES.md)
    rng = random.Random(8)
    for m in [M1, FRO] + [_conjugate_of_m1(rng, rng.randint(4, 16))
                          for _ in range(20)]:
        e = eigen_data(require_nrs(m))
        form = md_form3(m)
        vecs = [IntVector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        vecs += [IntVector(b) for b in fundamental_slab(e).basis]
        vecs += [IntVector([rng.randint(-50, 50) for _ in range(3)])
                 for _ in range(4)]
        # x(v) F(v) / MD(v) over x_den, compared by cross-multiplying the
        # integer MD values
        ratios = [(e.field.mul(_x_num(e, v), _f_num(e, v)), form(v))
                  for v in vecs if any(v)]
        (a, s), others = ratios[0], ratios[1:]
        assert all(num_times(b, s) == num_times(a, t) for b, t in others), \
            str(m)


# every NRS cell of the two criterion-9 windows (m, n in [-20, 20]) whose
# sail window used to sit one period above the slab (real eigenvalue
# r < 1) and fail the period consistency check
_LOW_R_WINDOW_CELLS = (
    ("<0,1|0,0,1>", (1, 0, 0),
     ((-1, -2), (-10, 6), (-12, -7), (-13, 7), (-16, -8), (-2, -3), (-2, 1),
      (-3, 2), (-4, -4), (-4, 3), (-5, 4), (-6, -5), (-7, 5), (-9, -6))),
    ("<0,1|1,0,2>", (1, 0, 1),
     ((-1, -1), (-11, -5), (-11, 4), (-16, -6), (-16, 5), (-2, -1), (-2, -2),
      (-2, 0), (-3, 1), (-4, -3), (-4, 2), (-5, 2), (-7, -4), (-7, 3),
      (-8, 3))),
)


def test_sail_window_when_real_eigenvalue_below_one():
    cells = [(HessType.parse(t), IntVector(a), mn)
             for t, a, mns in _LOW_R_WINDOW_CELLS for mn in mns]
    assert len(cells) == 29
    for t, anchor, mn in cells:
        mat = family_member(FamilyPoint(t, anchor, mn))
        e = eigen_data(require_nrs(mat))
        sign = e.field.sign
        assert sign((-1, 1, 0)) < 0, mn
        sail = compute_sail(mat)
        fund = [sail.vertices[i] for i in sail.fundamental]
        assert fund, mn
        # the window is [x(M p), x(p)) for the seed p = +-e1
        x_p = _x_num(e, IntVector((1, 0, 0)))
        if sign(x_p) < 0:
            x_p = num_times(x_p, -1)
        for v in fund:
            assert sign(num_sum(v.x, num_times(e.field.mul(R, x_p), -1))) >= 0
            assert sign(num_sum(v.x, num_times(x_p, -1))) < 0, mn


def test_content_gate_agrees_with_the_sail(monkeypatch):
    # the verdict skips the sail on the 662 criterion-9 NRS cells where
    # the MD form's content equals the complexity (all 490 Frobenius cells
    # and 172 of the 348 <0,1|1,0,2> ones); there the sail's minimum is
    # the complexity too
    window = red_mod.fundamental_window
    calls = []

    def counting_window(*args):
        calls.append(args)
        return window(*args)

    monkeypatch.setattr(red_mod, "fundamental_window", counting_window)
    gated = []
    for m in criterion9_nrs_cells():
        del calls[:]
        verdict = is_reduced(m, Sail())
        if not calls:
            assert verdict == ReducedVerdict("Reduced",
                                             certificate="SailCertified")
            gated.append(m)
    assert len(gated) == 662
    assert sum(hessenberg_complexity(m) == 1 for m in gated) == 490
    for m in gated:
        best, _ = _sail_minimum(fundamental_window(require_nrs(m)))
        assert best == hessenberg_complexity(m), str(m)


def _conjugate_of_m1(rng, steps):
    u = random_unimodular(rng, 3, steps)
    if det(u) != 1:
        u = u * IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return u.inverse_unimodular() * M1 * u


def test_sail_intervals_enclose_the_values():
    # the printed x and y intervals contain the exact values, whose bounds
    # at 2^-60 they must enclose, and are at most 10^-9 wide; they were
    # both ends rounded to nine decimals, [a, a], which missed every x
    # that is not an integer
    rng = random.Random(12)
    mats = [M1, FRO, parse_matrix("0 2 3; 1 1 1; 0 3 4")] \
        + [_conjugate_of_m1(rng, rng.randint(4, 16)) for _ in range(20)]
    one = 1 << 60
    for m in mats:
        sail = compute_sail(m)
        for p, entry in zip(sail.vertices, sail.to_json()):
            assert entry["preimage"] == list(p.preimage)
            x_lo, x_hi = (Fraction(t) for t in entry["x"])
            y_lo, y_hi = (Fraction(t) for t in entry["y"])
            lo, hi = field_bounds(p.field, p.x, p.x_den, 60)
            assert x_lo * one <= lo <= hi <= x_hi * one, (str(m), entry)
            lo, hi = field_bounds(p.field, p.y_sq, 1, 60)
            assert 0 <= y_lo and y_lo * y_lo * one <= lo, (str(m), entry)
            assert hi <= y_hi * y_hi * one, (str(m), entry)
            for a, b in ((x_lo, x_hi), (y_lo, y_hi)):
                assert 0 <= b - a <= Fraction(1, 10 ** 9), (str(m), entry)


def test_sail_vertices_are_periodic():
    # the output must hold sail vertices only: a vertex of the hull of a
    # truncated point set, such as the left end (1, 0, 2) that
    # <0,1|1,0,2> at (-4, 2) once returned, has no G-image among them
    rng = random.Random(8)
    mats = [M1, FRO] + [_conjugate_of_m1(rng, rng.randint(4, 16))
                        for _ in range(20)]
    nrs = list(criterion9_nrs_cells())
    assert len(nrs) == 838
    for m in mats + nrs:
        sail = compute_sail(m)
        g = sail.generator
        # the output range is [x(G^-1 p), x(G^2 p)] for the slab's seed p,
        # start = p when G = M and G^-1 p when G = M^-1
        w = fundamental_window(require_nrs(m))
        seed = w.start if g == m else g * w.start
        # |x| / |x(e1)|, from numpy's left real eigenvector
        vals, vecs = np.linalg.eig(np.array(m.rows, dtype=float).T)
        left = vecs[:, int(np.argmin(np.abs(vals.imag)))].real
        left = left / left[0]
        x_gp = abs(left @ np.array(tuple(g * seed), dtype=float))
        keys = {tuple(p.preimage) for p in sail.vertices}
        for p in sail.vertices:
            x = abs(left @ np.array(tuple(p.preimage), dtype=float))
            if x < x_gp * (1 - 1e-9):
                assert tuple(g * p.preimage) in keys, (str(m), p.preimage)


def test_window_holds_the_slab_points():
    # FRO, M1, a re-seeded conjugate of M1 and an r < 1 cell (G = M^-1):
    # the window is anchored at the slab's seed, so every slab point lies in
    # its closed window, both ends are slab points, and the sail's
    # fundamental vertices lie in the half-open window
    for m in (FRO, M1, _conjugate_of_m1(random.Random(5), 12),
              band_cell(-2, -1)):
        w = fundamental_window(require_nrs(m))
        e, g = w.eigen, w.generator

        def cmp(a, b):
            return e.field.sign(num_sum(a, num_times(b, -1)))

        x_lo, x_hi = _x_num(e, w.start), _x_num(e, g * w.start)
        pts = list(slab_points(e, w.slab))
        for v in pts:
            x = _x_num(e, v)
            assert cmp(x_lo, x) <= 0 <= cmp(x_hi, x), (str(m), v)
        assert w.start in pts and g * w.start in pts, str(m)
        sail = compute_sail(m)
        for p in [sail.vertices[i] for i in sail.fundamental]:
            assert cmp(x_lo, p.x) <= 0 < cmp(x_hi, p.x), (str(m), p.preimage)


@functools.lru_cache(maxsize=None)
def _window_operators():
    """M1, FRO, 20 seeded conjugates of M1, the 838 criterion-9 NRS cells
    and the 40 pin conjugates: the inputs on which the verdict and the
    fingerprint read the sail (NOTES.md, "MD minima lie at sail
    vertices")."""
    rng = random.Random(9)
    ops = ([M1, FRO] + [_conjugate_of_m1(rng, rng.randint(4, 16))
                        for _ in range(20)]
           + list(criterion9_nrs_cells()) + pin_conjugates())
    assert len(ops) == 22 + 838 + 40
    return tuple(ops)


def test_verdict_minimum_is_the_sails():
    # the verdict's minimum and witnesses over the window's slab points are
    # the MD-minimal sail vertices of the fundamental window, closed
    for m in _window_operators():
        best, wits = _sail_minimum(fundamental_window(require_nrs(m)))
        sail = compute_sail(m)
        fund = [sail.vertices[i] for i in sail.fundamental]
        vals = [md_characteristic(m, p.preimage) for p in fund]
        assert best == min(vals), str(m)
        want = {tuple(_canonical_sign(p.preimage))
                for p, val in zip(fund, vals) if val == best}
        w = fundamental_window(require_nrs(m))
        if fund[0].preimage == w.start and vals[0] == best:
            want.add(tuple(_canonical_sign(w.generator * w.start)))
        assert {tuple(v) for v in wits} == want, str(m)


def test_fingerprint_is_the_sails():
    # the fingerprint reduces the verdict's witnesses; the forms are those
    # of the MD-minimal vertices of the sail that compute_sail builds
    for m in _window_operators():
        sail = compute_sail(m)
        fund = [sail.vertices[i] for i in sail.fundamental]
        vals = [md_characteristic(m, p.preimage) for p in fund]
        best = min(vals)
        forms = {reduce_to_perfect(m, p.preimage)[0].rows
                 for p, val in zip(fund, vals) if val == best}
        fp = fingerprint(m)
        assert fp.min_value == best, str(m)
        assert [h.rows for h in fp.matrices] == sorted(forms), str(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=8, max_value=30))
# conjugators whose float slab metric or box made the fingerprint
# Inconclusive
@example(24, 24)
@example(44, 20)
@example(3, 30)
# a 60-step conjugator (entries near 3e17): a float guess of the G-power
# that once carried its slab points into e1's window divided by zero on them
@example(1013, 60)
def test_sail_under_long_conjugators(seed, steps):
    m = _conjugate_of_m1(random.Random(seed), steps)
    e = eigen_data(require_nrs(m))
    # the e1 slabs of such inputs run to ~27k points on average and past
    # the 40M-cell cap; the chosen seed's slab held at most 53 points over
    # 1628 draws
    assert len(list(slab_points(e, fundamental_slab(e)))) <= 100
    assert fingerprint(m) == fingerprint(M1)


# a conjugate of M1 whose float metric, rounded from approximations at
# the root's current refinement, chose another seed once r was refined
_REFINED_ROOT_CONJUGATE = parse_matrix("-20 10 7; -45 23 13; -6 3 2")


@pytest.mark.parametrize("m", [M1, FRO, _REFINED_ROOT_CONJUGATE,
                               band_cell(-6, 15)],
                         ids=["M1", "FRO", "conjugate", "hard(-6,15)"])
def test_fundamental_slab_ignores_root_refinement(m):
    fresh = eigen_data(require_nrs(m))
    refined = eigen_data(require_nrs(m))
    refined.field.floor(R, 1, 300)
    slabs = [fundamental_slab(e) for e in (fresh, refined)]
    assert slabs[0] == slabs[1]
    assert list(slab_points(fresh, slabs[0])) \
        == list(slab_points(refined, slabs[1]))


def test_verify_dirichlet_element():
    assert verify_dirichlet_element(FRO, FRO)
    assert verify_dirichlet_element(FRO, FRO * FRO)
    assert not verify_dirichlet_element(FRO, -FRO)
    assert verify_dirichlet_element(FRO, IntMatrix.identity(3))
    # non-commuting rejected
    assert not verify_dirichlet_element(FRO, M1)


def test_verify_dirichlet_element_rejects_a_size_mismatch():
    # an element of another size is an ExactError, not a non-member
    for x in (IntMatrix.identity(2), IntMatrix.identity(4)):
        with pytest.raises(ExactError, match="the element is %dx%d, the "
                           "matrix is 3x3" % (x.n, x.n)):
            verify_dirichlet_element(FRO, x)


def test_project_pi_orbit_invariants():
    e = eigen_data(require_nrs(M1))
    p = project_pi(e, IntVector((0, -1, 1)))
    q = project_pi(e, M1 * IntVector((0, -1, 1)))
    assert q.x == e.field.mul(R, p.x)
    assert e.field.mul(q.y_sq, R) == p.y_sq


def _reference_integral_lll(gram):
    """Rows of a unimodular integer matrix, LLL-reduced (delta = 3/4) for
    the integer Gram matrix `gram` (3x3).

    Cohen's all-integer form (A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i rows
    and lam[k][j] = d[j+1] * mu_kj, so every quantity is an integer and
    every division exact.  A Gram determinant d[i] <= 0 means `gram` is
    not positive definite, where the swaps need not terminate; it raises
    Inconclusive.
    """
    b = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lam = [[0] * 3 for _ in range(3)]
    d = [1, 0, 0, 0]

    def dot(u, v):
        return sum(ui * (row[0] * v[0] + row[1] * v[1] + row[2] * v[2])
                   for ui, row in zip(u, gram))

    def gram_schmidt(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u <= 0:
                raise Inconclusive("slab metric is not positive definite")
            else:
                d[k + 1] = u

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        mu = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // d[k + 1]
        d[k] = new

    gram_schmidt(0)
    k, k_max = 1, 0
    while k < 3:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        size_reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b


def _lll_outcome(lll, gram):
    """The basis that `lll` returns on `gram`, as lists, or None when it
    raises Inconclusive."""
    try:
        return [list(row) for row in lll(gram)]
    except Inconclusive:
        return None


def _gram(rows):
    return [[sum(map(operator.mul, u, v)) for v in rows] for u in rows]


def test_integral_lll_matches_the_reference_on_seeded_grams():
    # the locals-only integral LLL takes the steps of the closure-based
    # reference, so it returns the identical basis: on 500 seeded positive
    # definite Grams with entries up to 2^80, of random bases skewed by
    # up to 12 shear steps
    rng = random.Random(43)
    grams = []
    while len(grams) < 500:
        bits = rng.randint(1, 39)
        a = IntMatrix([[rng.randint(-2 ** bits, 2 ** bits) for _ in range(3)]
                       for _ in range(3)])
        rows = (random_unimodular(rng, 3, rng.randint(0, 12)) * a).rows
        g = _gram(rows)
        if det(a) and max(abs(x) for row in g for x in row) <= 2 ** 80:
            grams.append(g)
    swaps = 0
    for g in grams:
        want = _reference_integral_lll(g)
        assert _lll_outcome(sail3._integral_lll, g) == want, g
        swaps += want != [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert swaps > 250


def test_integral_lll_raises_where_the_reference_does():
    # seeded symmetric integer matrices, most of them indefinite, and
    # singular Grams of rank 1 and 2: the same Inconclusive, and on the
    # positive definite ones the same basis
    rng = random.Random(44)
    grams = []
    for _ in range(300):
        bits = rng.randint(1, 40)
        e = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(6)]
        grams.append([[e[0], e[1], e[2]], [e[1], e[3], e[4]],
                      [e[2], e[4], e[5]]])
    for rank in (1, 2):
        for _ in range(100):
            basis = [[rng.randint(-2 ** 20, 2 ** 20) for _ in range(3)]
                     for _ in range(rank)]
            mix = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(3)]
            grams.append(_gram([[sum(c * v[i] for c, v in zip(w, basis))
                                 for i in range(3)] for w in mix]))
    raised = 0
    for g in grams:
        want = _lll_outcome(_reference_integral_lll, g)
        assert _lll_outcome(sail3._integral_lll, g) == want, g
        raised += want is None
    assert raised > 300


def _pin_grams(monkeypatch):
    """The Grams that fingerprint hands the integral LLL on
    pin_conjugates."""
    lll = sail3._integral_lll
    grams = []

    def recording(gram):
        grams.append(gram)
        return lll(gram)

    with monkeypatch.context() as patch:
        patch.setattr(sail3, "_integral_lll", recording)
        for m in pin_conjugates():
            fingerprint(m)
    return grams


def test_integral_lll_matches_the_reference_on_the_pin_grams(monkeypatch):
    grams = _pin_grams(monkeypatch)
    assert len(grams) == 71
    outcomes = [_lll_outcome(_reference_integral_lll, g) for g in grams]
    assert [_lll_outcome(sail3._integral_lll, g) for g in grams] == outcomes


def test_fingerprint_work_is_capped(monkeypatch):
    # a work count: over fingerprint of pin_conjugates, the floors that
    # refine r (NumberField._slow_floor, the slow path of
    # NumberField.floor) and the integral LLL calls: none of the first, as
    # eigen_data refines r once to a precision at which every Horner
    # enclosure decides its floor, where the enclosures at r's staged
    # refinement left 99, and at most the 71 LLL calls of the
    # closure-based LLL that the straight-line kernel replaced.  An
    # enclosure that saves time per floor must not spend it again on
    # refinements of r.  And no reduction of a minimiser takes the Euclid
    # steps: a 3x3 operator's perfect form comes in closed form
    floors, lll, euclid = [], sail3._integral_lll, hessenberg._reduce_by_euclid
    counts = {"lll": 0, "euclid": 0}

    def counting_lll(gram):
        counts["lll"] += 1
        return lll(gram)

    def counting_euclid(m, seed):
        counts["euclid"] += 1
        return euclid(m, seed)

    monkeypatch.setattr(NumberField, "_slow_floor",
                        _counting_slow_floors(floors))
    monkeypatch.setattr(sail3, "_integral_lll", counting_lll)
    monkeypatch.setattr(hessenberg, "_reduce_by_euclid", counting_euclid)
    for m in pin_conjugates():
        fingerprint(m)
    assert floors == [] and counts["lll"] <= 71 and counts["euclid"] == 0, \
        (len(floors), counts)


def _seed_work(monkeypatch, run):
    """(reduced_slab calls, MD evaluations of basis rows) while `run()`
    runs: a basis-row evaluation is an MD evaluation inside
    fundamental_slab of anything but the seed of the slab last reduced."""
    counts = {"reduced_slab": 0, "rows": 0}
    slabs = []
    reduce, scan, call = (sail3.reduced_slab, sail3.fundamental_slab,
                          MDForm3.__call__)

    def counting_reduce(e, p, start=None):
        counts["reduced_slab"] += 1
        slabs.append(reduce(e, p, start))
        return slabs[-1]

    def scanning(e):
        slabs.append(None)
        try:
            return scan(e)
        finally:
            slabs.clear()

    def counting_md(form, v):
        if slabs and (slabs[-1] is None or v is not slabs[-1].seed):
            counts["rows"] += 1
        return call(form, v)

    with monkeypatch.context() as patch:
        patch.setattr(sail3, "reduced_slab", counting_reduce)
        patch.setattr(sail3, "fundamental_slab", scanning)
        patch.setattr(MDForm3, "__call__", counting_md)
        run()
    return counts["reduced_slab"], counts["rows"]


def test_seed_scan_runs_only_when_a_row_could_win(monkeypatch):
    # a work count: fundamental_slab takes |MD| of each seed once and scans
    # the basis rows only while it is >= _SEED_GAIN, as no row, whose |MD|
    # is >= 1, can then be _SEED_GAIN times smaller.  The 176 sail cells
    # of the 41 x 41 <0,1|1,0,2> window, where |MD(e1)| is the complexity
    # 2, make one reduction each and evaluate MD on no basis row, where the
    # unconditional scan evaluated 528.  Over fingerprint of
    # pin_conjugates both counts are capped at this scan's: 71 reductions,
    # as before, and 105 row evaluations, against 213 for the scan that
    # read every row of every basis
    t = HessType.parse("<0,1|1,0,2>")
    cells = []
    work = _seed_work(monkeypatch, lambda: cells.extend(classify_grid(
        t, IntVector((1, 0, 1)), (-20, 20), (-20, 20))[0]))
    assert len(cells) == 41 * 41 and work == (176, 0)
    reductions, rows = _seed_work(
        monkeypatch, lambda: [fingerprint(m) for m in pin_conjugates()])
    assert reductions <= 71 and rows <= 105, (reductions, rows)


# sha256 of the JSON lines, keys sorted, of compute_sail(m).to_json() on
# pin_conjugates, M1, FRO and 0 2 3; 1 1 1; 0 3 4, as printed by the
# Horner-loop floors and the closure-based LLL that the straight-line
# kernels replaced.  Fingerprints cannot show a moved seed; the sail's
# window is anchored at the fundamental slab's seed, so its output can
_SAIL_PIN = \
    "ff42f6a79ef795e44397aa24f09b5bdd9fa36cf2d3d679567dfdcec59f67c114"


def test_sail_windows_are_pinned():
    mats = pin_conjugates() + [M1, FRO, parse_matrix("0 2 3; 1 1 1; 0 3 4")]
    lines = [json.dumps(compute_sail(m).to_json(), sort_keys=True)
             for m in mats]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _SAIL_PIN
