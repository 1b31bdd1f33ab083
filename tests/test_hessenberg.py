import contextlib
import math
import random
import signal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hesslab.reducedness as red_mod
from conftest import (
    criterion9_nrs_cells,
    nonzero_vectors,
    random_unimodular,
    unimodular_matrices,
)
from hard_inputs import perfect_nrs_matrices
from hesslab.atlas import FAMILY_4D_ANCHOR, FAMILY_4D_TYPE
from hesslab.exact import ExactError, IntMatrix, IntVector, char_poly, det, factor_small, parse_matrix
from hesslab.hessenberg import (
    FamilyPoint,
    HessType,
    ReductionError,
    _reduce_by_euclid,
    family_member,
    hessenberg_complexity,
    is_hessenberg,
    is_perfect,
    last_column_from,
    matrix_type,
    reduce_to_perfect,
    validate_type,
)

M1 = parse_matrix("0 1 2; 1 0 0; 0 3 5")
FRO = parse_matrix("0 0 1; 1 0 1; 0 1 3")


def test_type_parse_round_trip():
    t = HessType.parse("<0,1|1,0,2>")
    assert str(t) == "<0,1|1,0,2>"
    assert t.n == 3
    assert t.columns == ((0, 1), (1, 0, 2))


def test_type_complexity():
    assert HessType.parse("<0,1|1,0,2>").complexity() == 2
    assert HessType.parse("<0,1|0,0,1>").complexity() == 1


def test_complexity_examples():
    assert hessenberg_complexity(M1) == 3
    assert hessenberg_complexity(FRO) == 1


@st.composite
def patterned_matrices(draw):
    """n x n integer matrices, n = 2, 3 or 4, with entries in [-3, 6] and
    a random zero pattern; half of them zero below the subdiagonal, so
    that perfect ones are drawn too."""
    n = draw(st.integers(min_value=2, max_value=4))
    hess = draw(st.booleans())
    entries = st.integers(min_value=-3, max_value=6)
    return IntMatrix([[draw(entries) if draw(st.booleans())
                       and not (hess and i > j + 1) else 0
                       for j in range(n)] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(patterned_matrices())
@example(M1)
@example(FRO)
@example(parse_matrix("0 1 0 5; 2 1 0 3; 0 3 0 1; 0 0 1 7"))
@example(parse_matrix("0 1 1 5; 2 1 0 3; 0 3 0 1; 0 0 1 7"))
def test_hessenberg_checks_match_their_entrywise_definitions(m):
    # is_hessenberg, hessenberg_complexity and is_perfect read the rows;
    # oracle: their definitions, entry by entry through m[i, j]
    n = m.n
    hess = all(m[i, j] == 0 for i in range(n) for j in range(n) if i > j + 1)
    assert is_hessenberg(m) == hess
    if hess:
        want = 1
        for j in range(n - 1):
            want *= abs(m[j + 1, j]) ** (n - 1 - j)
        assert hessenberg_complexity(m) == want
    else:
        with pytest.raises(ExactError):
            hessenberg_complexity(m)
    assert is_perfect(m) == (hess and all(
        m[j + 1, j] > 0 and all(0 <= m[i, j] < m[j + 1, j]
                                for i in range(j + 1))
        for j in range(n - 1)))


def test_complexity_requires_hessenberg():
    with pytest.raises(ExactError):
        hessenberg_complexity(parse_matrix("1 0 0; 1 1 0; 1 1 1"))


def test_is_perfect():
    assert is_perfect(M1)
    assert is_perfect(FRO)
    assert not is_perfect(parse_matrix("0 4 2; 1 0 0; 0 3 5"))  # 4 >= 3


def test_matrix_type():
    assert str(matrix_type(M1)) == "<0,1|1,0,3>"


def test_reduce_fixes_perfect_matrix():
    h, u = reduce_to_perfect(M1, IntVector((1, 0, 0)))
    assert h == M1
    assert u == IntMatrix.identity(3)


def test_reduce_seed_preconditions():
    with pytest.raises(ReductionError):
        reduce_to_perfect(M1, IntVector((0, 0, 0)))
    with pytest.raises(ReductionError):
        reduce_to_perfect(M1, IntVector((2, 0, 0)))


def test_reduce_reducible_poly_degenerates():
    # at step 1 under the identity, and at step 2 under a matrix with the
    # invariant plane span(e1, e2), from a seed in that plane; the closed
    # form raises the Euclid steps' messages
    m = IntMatrix.identity(3)
    with pytest.raises(ReductionError, match="degenerated at step 1"):
        reduce_to_perfect(m, IntVector((1, 0, 0)))
    assert _euclid_agrees(m, IntVector((1, 0, 0))) is None
    block = parse_matrix("2 1 5; 1 1 -3; 0 0 1")
    with pytest.raises(ReductionError, match="degenerated at step 2"):
        reduce_to_perfect(block, IntVector((3, -2, 0)))
    assert _euclid_agrees(block, IntVector((3, -2, 0))) is None
    assert _euclid_agrees(block, IntVector((3, -2, 1))) is not None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((M1, FRO)), unimodular_matrices(steps=10),
       nonzero_vectors(lo=-40, hi=40))
def test_reduce_even_in_seed(m, u, v):
    # -U(v) meets every condition that fixes U(-v), so the fingerprint
    # reduces each MD-minimal vertex once, not through both signs
    assume(v.is_primitive())
    m = u.inverse_unimodular() * m * u
    h1, u1 = reduce_to_perfect(m, v)
    h2, u2 = reduce_to_perfect(m, -v)
    assert h1 == h2
    assert u2 == -u1


def test_reduce_constant_on_dirichlet_orbit():
    v = IntVector((0, 1, 2))
    h1, _ = reduce_to_perfect(M1, v)
    h2, _ = reduce_to_perfect(M1, M1 * v)
    assert h1 == h2


def test_family_member_example():
    t = HessType.parse("<0,1|1,0,2>")
    fp = FamilyPoint(t, IntVector((1, 0, 1)), (0, 0))
    m = family_member(fp)
    assert det(m) == 1
    assert matrix_type(m) == t
    fp2 = FamilyPoint(t, IntVector((1, 0, 1)), (2, -1))
    m2 = family_member(fp2)
    assert det(m2) == 1
    # parameters move along the type columns
    assert m2.column(2) == m.column(2) + t.column_vector(0).scale(2) \
        - t.column_vector(1)


def test_validate_type():
    assert validate_type(HessType.parse("<0,1|1,0,2>"), IntVector((1, 0, 1)))
    assert not validate_type(HessType.parse("<0,2|0,0,2>"), IntVector((1, 0, 0)))


def test_last_column_from_round_trip():
    t = HessType.parse("<0,1|1,0,2>")
    for params in [(0, 0), (3, -2), (-5, 7)]:
        m = family_member(FamilyPoint(t, IntVector((1, 0, 1)), params))
        col = last_column_from(t, char_poly(m))
        assert col == m.column(2)


def test_last_column_from_no_integer_solution():
    t = HessType.parse("<0,1|1,0,2>")
    # a characteristic polynomial no member of this type can have
    from hesslab.exact import IntPoly
    assert last_column_from(t, IntPoly([-2, -2, -2, 1])) is None


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reduce_conjugation_invariance(seed):
    rng = random.Random(seed)
    u = random_unimodular(rng, 3)
    if det(u) != 1:
        u = u * IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    m = u.inverse_unimodular() * M1 * u
    # seed u^-1 v reproduces the same perfect form as seed v for M1
    v = IntVector((1, 0, 0))
    h_ref, _ = reduce_to_perfect(M1, v)
    h, w = reduce_to_perfect(m, u.inverse_unimodular() * v)
    assert h == h_ref
    assert w.inverse_unimodular() * m * w == h


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_reduce_output_is_perfect_and_conjugate(seed):
    rng = random.Random(seed)
    u = random_unimodular(rng, 3)
    m = u.inverse_unimodular() * FRO * u if det(u) == 1 else FRO
    v_raw = [rng.randint(-9, 9) for _ in range(3)]
    if not any(v_raw):
        v_raw[0] = 1
    g = 0
    for c in v_raw:
        g = math.gcd(g, abs(c))
    v = IntVector(c // g for c in v_raw)
    h, w = reduce_to_perfect(m, v)
    assert is_perfect(h)
    assert det(w) in (1, -1)
    assert w.inverse_unimodular() * m * w == h
    assert w.column(0) == v


class _CpuBudgetExceeded(Exception):
    pass


@contextlib.contextmanager
def cpu_budget(seconds):
    """Raise _CpuBudgetExceeded once the process has used this much CPU."""
    def over_budget(signum, frame):
        raise _CpuBudgetExceeded()

    old = signal.signal(signal.SIGPROF, over_budget)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, old)


def test_reduce_large_conjugate_within_cpu_budget():
    # the seed-8504 conjugate of M1 and one of its sail vertices: the flag
    # must be built without the coefficient blow-up of an unreduced
    # lattice-index computation
    m = parse_matrix("-21174 -6739 2262; 63588 20238 -6793; -8807 -2803 941")
    v = IntVector((-25086, 75148, -10999))
    with cpu_budget(2.0):
        h, w = reduce_to_perfect(m, v)
    assert h == parse_matrix("0 2 3; 1 1 1; 0 3 4")
    assert w.column(0) == v
    assert w.inverse_unimodular() * m * w == h


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.tuples(*[st.integers(min_value=-3, max_value=3)] * 3))
def test_reduce_4d_family_conjugates(seed, params):
    base = family_member(FamilyPoint(FAMILY_4D_TYPE, FAMILY_4D_ANCHOR, params))
    assume(len(factor_small(char_poly(base))) == 1)
    rng = random.Random(seed)
    u = random_unimodular(rng, 4, rng.randint(4, 16))
    m = u.inverse_unimodular() * base * u
    v_raw = [rng.randint(-9, 9) for _ in range(4)]
    g = math.gcd(*v_raw)
    assume(g != 0)
    v = IntVector(c // g for c in v_raw)
    with cpu_budget(2.0):
        h, w = reduce_to_perfect(m, v)
        # the seed u v for base reproduces the same perfect form
        h_base, _ = reduce_to_perfect(base, u * v)
    assert is_perfect(h)
    assert w.column(0) == v
    assert w.inverse_unimodular() * m * w == h
    assert h_base == h


# The closed form for 3x3 operators against the Euclid steps it replaced
# there: the two give equal (H, U), or raise equal ReductionError messages
# (NOTES.md, "The perfect form of a 3x3 operator in closed form").

def _euclid_agrees(m, v):
    """reduce_to_perfect(m, v), asserted equal to the Euclid steps; None
    when both raise the same ReductionError."""
    try:
        expected = _reduce_by_euclid(m, v)
    except ReductionError as ex:
        with pytest.raises(ReductionError) as got:
            reduce_to_perfect(m, v)
        assert str(got.value) == str(ex), (str(m), v)
        return None
    assert reduce_to_perfect(m, v) == expected, (str(m), v)
    return expected


def _primitive(rng, bound, dims=3):
    """A primitive seed in Z^3 with its first dims coordinates in [-bound,
    bound] and the rest 0."""
    while True:
        v = [rng.randint(-bound, bound) for _ in range(dims)]
        if math.gcd(*v) == 1:
            return IntVector(v + [0] * (3 - dims))


def test_closed_form_matches_euclid_on_random_matrices():
    # any determinant; one in five has the invariant plane span(e1, e2),
    # and half of those a seed in it, which degenerates at step 2
    rng = random.Random(48)
    raised = 0
    for _ in range(3000):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        v = _primitive(rng, 9)
        if rng.random() < 0.2:
            rows[2][0] = rows[2][1] = 0
            if rng.random() < 0.5:
                v = _primitive(rng, 9, dims=2)
        raised += _euclid_agrees(IntMatrix(rows), v) is None
    assert 200 < raised < 1000


def test_closed_form_matches_euclid_on_conjugates():
    # M1 and FRO conjugated by 4 to 16 shears, seeds of coordinates up to
    # 10^6 and up to 9
    rng = random.Random(4816)
    for _ in range(300):
        u = random_unimodular(rng, 3, rng.randint(4, 16))
        m = u.inverse_unimodular() * rng.choice((M1, FRO)) * u
        for bound in (10 ** 6, 9):
            h, w = _euclid_agrees(m, _primitive(rng, bound))
            assert w.inverse_unimodular() * m * w == h


def test_closed_form_matches_euclid_on_fingerprint_minimisers(monkeypatch):
    reduce, seeds = red_mod.reduce_to_perfect, []

    def recording_reduce(m, seed):
        seeds.append((m, seed))
        return reduce(m, seed)

    monkeypatch.setattr(red_mod, "reduce_to_perfect", recording_reduce)
    cells = list(criterion9_nrs_cells())
    assert len(cells) == 838
    for m in cells:
        red_mod.fingerprint(m)
    assert len(seeds) >= 838
    for m, v in seeds:
        assert _euclid_agrees(m, v) is not None


def test_closed_form_matches_euclid_on_hard_inputs():
    # conjugates of random perfect NRS matrices: the seed u^-1 e1 gives
    # back the perfect matrix and u^-1, and random seeds agree
    rng = random.Random(400)
    e1 = IntVector((1, 0, 0))
    for h in perfect_nrs_matrices(rng, 50, 20):
        u = random_unimodular(rng, 3, rng.randint(4, 16))
        u_inv = u.inverse_unimodular()
        m = u_inv * h * u
        assert _euclid_agrees(m, u_inv * e1) == (h, u_inv)
        for bound in (10 ** 6, 9):
            assert _euclid_agrees(m, _primitive(rng, bound)) is not None
