import importlib.util
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from copoisson import (
    BracketTable,
    ITable,
    Monomial,
    Poly,
    SkewMatrix,
    StructConsts,
    monomials,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _load_reference():
    """perfbench/reference.py, loaded by path: the benchmark's computations
    made apart from copoisson, which imports nothing from the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


def carrier_data(H):
    """A FinHopf as the dict of nested lists that reference.py's finite
    carrier functions read."""
    lists = lambda t: [lists(v) for v in t] if isinstance(t, tuple) else t
    return {"names": list(H.basis_names),
            **{f: lists(getattr(H, f))
               for f in ("mult", "unit", "comult", "counit", "antipode")}}


@contextmanager
def unlimited_int_str():
    """str() of an int of any length, for a reference; the limit is put
    back, since the parser's number-power bound reads it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def random_fraction(rng, span=4, max_den=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_itable(rng, d, bound, density=0.4):
    """An I-table with random skew rows on random monomials within bound."""
    rows = {}
    for m in monomials(d, bound):
        upper = {}
        for i in range(d):
            for j in range(i + 1, d):
                if rng.random() < density:
                    v = random_fraction(rng)
                    if v:
                        upper[(i, j)] = v
        if upper:
            mat = SkewMatrix.from_upper(d, upper)
            if not mat.is_zero():
                rows[m] = mat
    return ITable(d=d, domain_degree_bound=bound, rows=rows)


def random_poly(rng, d, max_degree, density=0.3):
    terms = {}
    for m in monomials(d, max_degree):
        if rng.random() < density:
            v = random_fraction(rng)
            if v:
                terms[m] = v
    return Poly(terms)


def random_bracket(rng, d, max_degree, truncation=None, density=0.3):
    f = {}
    for i in range(d):
        for j in range(i + 1, d):
            p = random_poly(rng, d, max_degree, density)
            if p:
                f[(i, j)] = p
    return BracketTable(d=d, f=f, truncation_degree=truncation)


def so3_consts():
    """{x1,x2}=x3, {x2,x3}=x1, {x3,x1}=x2."""
    return StructConsts(d=3, lam={
        (0, 1, 2): Fraction(1),
        (1, 2, 0): Fraction(1),
        (0, 2, 1): Fraction(-1),
    })


def nambu_bracket(rng, truncation=None):
    """d=3 bracket f_ij = eps_ijl d(phi)/dx_l for a random cubic phi.

    Satisfies Jacobi identically for any phi.
    """
    phi = Poly({m: random_fraction(rng)
                for m in monomials(3, 3) if m.degree == 3})
    f = {}
    p01 = phi.partial(2)
    p12 = phi.partial(0)
    p02 = -phi.partial(1)
    if p01:
        f[(0, 1)] = p01
    if p12:
        f[(1, 2)] = p12
    if p02:
        f[(0, 2)] = p02
    return BracketTable(d=3, f=f, truncation_degree=truncation)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def so3():
    return so3_consts()
