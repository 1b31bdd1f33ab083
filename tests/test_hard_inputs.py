import random

import pytest

from hard_inputs import continued_fraction_conjugates, perfect_nrs_matrices
from hesslab.exact import det
from hesslab.hessenberg import hessenberg_complexity, is_perfect
from hesslab.sail3 import require_nrs


@pytest.mark.parametrize("a", [10, 50, 400])
def test_perfect_nrs_matrices_are_perfect_nrs_and_unimodular(a):
    mats = perfect_nrs_matrices(random.Random(a), a, 20)
    assert len(set(m.rows for m in mats)) == 20
    for m in mats:
        assert is_perfect(m) and det(m) == 1, str(m)
        require_nrs(m)  # SailError unless p is irreducible with disc p < 0
        assert a ** 3 <= hessenberg_complexity(m) <= 8 * a ** 3, str(m)


def test_continued_fraction_conjugates_are_hyperbolic_sl2():
    mats = continued_fraction_conjugates(random.Random(7), 200)
    assert len(set(m.rows for m in mats)) > 190
    for m in mats:
        assert m.n == 2 and det(m) == 1 and abs(m.trace()) >= 3, str(m)
