"""Seeded generators of hard inputs, with no data file.

    perfect_nrs_matrices(random.Random(seed), a, count)

draws random perfect det-1 NRS matrices whose complexity a21^2 a32 lies in
[a^3, 8 a^3]: a = 10 gives about 10^3 to 10^4, a = 400 about 3 10^8 and
a = 3000 about 10^11.

    continued_fraction_conjugates(random.Random(seed), count)

draws hyperbolic SL(2,Z) matrices of known sail period, written in a
sheared basis, as perfbench's periods2d pool does.
"""

import math

from hesslab.exact import IntMatrix, char_poly, discriminant, factor_small


def _xgcd(x, y):
    """(g, s, t) with s x + t y = g = gcd(x, y) >= 0, by Euclid's steps."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while y:
        q, r = divmod(x, y)
        x, y = y, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if x < 0:
        return -x, -s0, -t0
    return x, s0, t0


def perfect_nrs_matrix(rng, a):
    """One random perfect det-1 NRS matrix with a21 and a32 in [a, 2a].

    a11 < a21 and a12, a22 < a32 are drawn at random.  Expanded along the
    last column, det = c . (a13, a23, a33) with c = (c1, c2, c3) = (a21
    a32, -a11 a32, a11 a22 - a21 a12); when gcd(c) = 1 the column solves
    det = 1 by the extended gcd, shifted by k in [-3, 3] times the kernel
    vector (c2, -c1, 0) / gcd(c1, c2).  The matrix is kept when its
    characteristic polynomial p is irreducible with disc p < 0, and drawn
    again otherwise.
    """
    while True:
        a21, a32 = rng.randint(a, 2 * a), rng.randint(a, 2 * a)
        a11 = rng.randrange(a21)
        a12, a22 = rng.randrange(a32), rng.randrange(a32)
        c = (a21 * a32, -a11 * a32, a11 * a22 - a21 * a12)
        g01, s, t = _xgcd(c[0], c[1])
        g, p, q = _xgcd(g01, c[2])
        if g != 1:
            continue
        k = rng.randint(-3, 3)
        col = (p * s + k * c[1] // g01, p * t - k * c[0] // g01, q)
        m = IntMatrix([[a11, a12, col[0]], [a21, a22, col[1]],
                       [0, a32, col[2]]])
        poly = char_poly(m)
        if len(factor_small(poly)) == 1 and discriminant(poly) < 0:
            return m


def perfect_nrs_matrices(rng, a, count):
    return [perfect_nrs_matrix(rng, a) for _ in range(count)]


def continued_fraction_conjugate(rng):
    """One sign * u^-1 g u in SL(2,Z): g is the product of [[a, 1], [1, 0]]
    over a word a1..aL (L <= 6, ai in [1, 12]; an odd word is doubled, so
    that det g = 1 and |tr g| >= 3), u a product of 2 to 8 shears
    [[1, k], [0, 1]] or [[1, 0], [k, 1]] with k in +-{1, 2, 3}, and the
    sign random."""
    word = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
    if len(word) % 2:
        word = word + word
    g = IntMatrix.identity(2)
    for a in word:
        g = g * IntMatrix([[a, 1], [1, 0]])
    u = IntMatrix.identity(2)
    for _ in range(rng.randint(2, 8)):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        u = u * IntMatrix([[1, k], [0, 1]] if rng.random() < 0.5
                          else [[1, 0], [k, 1]])
    return (u.inverse_unimodular() * g * u).scale(rng.choice((1, -1)))


def continued_fraction_conjugates(rng, count):
    return [continued_fraction_conjugate(rng) for _ in range(count)]
