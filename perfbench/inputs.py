"""Seeded inputs as plain data: I-tables, brackets, structure constants and
finite Hopf carriers.

The seed picks coefficient values and basis scalings; the shapes
(which monomials carry rows, which entries are nonzero, which degrees the
brackets have) are fixed, so the work per operation barely depends on the
seed and the verdicts follow the same pattern for every seed.
"""

from __future__ import annotations

from fractions import Fraction

from reference import all_monomials, bump, rescale_carrier, s3_carrier, sweedler_carrier


VALUES = tuple(Fraction(v) for v in
               ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "3/2", "-3/2"))


def value(rng):
    """A nonzero rational.  Denominators are powers of two only, so the
    size of the exact arithmetic, and with it the cost, varies little
    between seeds."""
    return rng.choice(VALUES)


def dense_table(rng, d, bound, degrees):
    """Every monomial of a degree in `degrees` gets a full skew row."""
    return {m: {(i, j): value(rng) for i in range(d) for j in range(i + 1, d)}
            for m in all_monomials(d, bound) if sum(m) in degrees}


def sparse_table(rng, d, bound, rows_per_degree):
    """rows_per_degree[k] rows of degree k, each with every entry nonzero.

    The rows sit on monomials spread evenly through each degree, the same
    for every seed: where the rows sit sets the cost of q, so a seeded
    choice would make the work per pass depend on the seed."""
    table = {}
    for k, count in rows_per_degree.items():
        monos = sorted((m for m in all_monomials(d, bound) if sum(m) == k), reverse=True)
        count = min(count, len(monos))
        for t in range(count):
            m = monos[t * len(monos) // count]
            table[m] = {(i, j): value(rng) for i in range(d) for j in range(i + 1, d)}
    return table


def bianchi_consts(rng):
    """{x1,x2} = a x3, {x2,x3} = b x1, {x3,x1} = c x2: a Lie algebra
    (so(3) when a = b = c = 1) for every a, b, c."""
    a, b, c = value(rng), value(rng), value(rng)
    return {(0, 1, 2): a, (1, 2, 0): b, (0, 2, 1): -c}


def nilpotent_consts(rng, d):
    """Brackets of x1..x_{d-1} land in the central x_d: a Lie algebra."""
    return {(i, j, d - 1): value(rng) for i in range(d - 1) for j in range(i + 1, d - 1)}


def nonlie_consts(rng, d):
    """Constants with {x_i, x_j} = a x_i + b x_j + c x_k.  Jacobi fails for
    almost all values; the oracle decides it, nothing assumes it."""
    lam = {}
    for i in range(d):
        for j in range(i + 1, d):
            lam[(i, j, i)] = value(rng)
            lam[(i, j, j)] = value(rng)
            k = next(k for k in range(d) if k not in (i, j))
            lam[(i, j, k)] = value(rng)
    return lam


def counterexample_bracket(rng):
    """The n = 5 family {x_i, x_{i+1}} = c_i x1 (i = 2..4), {x1, -} = 0."""
    x1 = (1, 0, 0, 0, 0)
    return {(1, 2): {x1: value(rng)}, (2, 3): {x1: value(rng)}, (3, 4): {x1: value(rng)}}


def nambu_bracket(rng, degree):
    """f_ij = eps_ijk dH/dx_k for a dense potential H in three variables of
    degree degree + 1: Jacobi holds identically."""
    H = {m: value(rng) for m in all_monomials(3, degree + 1) if sum(m) >= 2}
    f = {}
    for (i, j), k, sign in (((0, 1), 2, 1), ((1, 2), 0, 1), ((0, 2), 1, -1)):
        p = {}
        for m, c in H.items():
            if m[k]:
                dm = tuple(e - (t == k) for t, e in enumerate(m))
                bump(p, dm, sign * c * m[k])
        f[(i, j)] = p
    return f


def random_bracket(rng, d, degrees):
    """Every f_ij dense in the monomials of the given degrees."""
    return {(i, j): {m: value(rng) for m in all_monomials(d, max(degrees))
                     if sum(m) in degrees}
            for i in range(d) for j in range(i + 1, d)}


def rescaled(rng, H):
    """The carrier in a seeded basis f_i = c_i e_i that keeps the unit.

    Only scales: a permuted basis would change the pivot order of the
    elimination, and with it the cost, from seed to seed."""
    scale = [Fraction(1)] + [rng.choice(VALUES) for _ in H["unit"][1:]]
    return rescale_carrier(H, scale)


def h4_presentation(rng):
    return rescaled(rng, sweedler_carrier())


def s3_presentation(rng):
    return rescaled(rng, s3_carrier())
