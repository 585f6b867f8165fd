"""Exact sparse arithmetic for polynomials and tensor powers of k[x1..xd].

Coefficients are exact rationals, `Fraction`s or `int`s; all equality
checks are exact.  Monomials are exponent tuples; the deterministic
iteration order used for serialization and reports is graded
lexicographic.

Kernel invariant: a sparse map's `terms` dict holds only nonzero `int` or
`Fraction` values, so identities are verified by reducing differences to
the empty map.  The public constructors coerce outside input to `Fraction`
and drop zeros; `_Sparse._trusted` wraps, without copying or coercing, a
dict that already holds only nonzero values.  `int`s come only from
splitting weights and from the `scaled()` copies of a table.  Sums are
accumulated in place on plain dicts with `bump` and `axpy`, and products
with Delta(x^c) by the co-side's multiply-by-Delta kernel `hopf.mul_comult`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import comb, factorial as int_factorial, gcd, lcm
from operator import add, sub
from types import MappingProxyType


class DimensionMismatchError(ValueError):
    """Operands live over different numbers of variables."""


class DegreeBoundError(ValueError):
    """A value beyond a table's domain degree bound was requested."""


class Monomial(tuple):
    """A monomial x1^n1 ... xd^nd, stored as the exponent tuple (n1..nd)."""

    __slots__ = ()

    def __new__(cls, exps):
        m = super().__new__(cls, exps)
        if any(e < 0 for e in m):
            raise ValueError("negative exponent in monomial")
        return m

    @classmethod
    def unit(cls, d):
        return cls((0,) * d)

    @classmethod
    def variable(cls, d, i):
        """The monomial x_{i+1} (0-based index i) in d variables."""
        if not 0 <= i < d:
            raise IndexError(f"variable index {i} out of range for d={d}")
        return cls(tuple(1 if j == i else 0 for j in range(d)))

    @property
    def degree(self):
        return sum(self)

    def __mul__(self, other):
        if len(self) != len(other):
            raise DimensionMismatchError(
                f"monomials over {len(self)} and {len(other)} variables")
        return _trusted_monomial(map(add, self, other))

    def divides(self, other):
        return len(self) == len(other) and all(
            a <= b for a, b in zip(self, other))

    def quotient(self, other):
        """self / other, assuming other divides self."""
        if not other.divides(self):
            raise ValueError(f"{other!r} does not divide {self!r}")
        return _trusted_monomial(map(sub, self, other))


# A Monomial from exponents known to be non-negative (a product, a quotient
# by a divisor, or a derivative of a term whose exponent is positive), built
# without the negative-exponent scan.
_trusted_monomial = partial(tuple.__new__, Monomial)


@lru_cache(maxsize=4096)
def grlex_key(m):
    # within a degree, higher power of an earlier variable sorts first
    return (m.degree, tuple(-e for e in m))


def monomials(d, max_degree):
    """All monomials in d variables of degree <= max_degree, grlex order.

    The enumeration is memoized per (d, max_degree); each call returns a
    fresh list, which the caller may mutate."""
    return list(_monomials(d, max_degree))


@lru_cache(maxsize=64)
def generators(d):
    """The monomials x_1..x_d as one memoized tuple, shared: do not mutate."""
    return tuple(Monomial.variable(d, i) for i in range(d))


@lru_cache(maxsize=256)
def _monomials(d, max_degree):
    return tuple(_trusted_monomial(c) for total in range(max_degree + 1)
                 for c in _compositions(total, d))


def _compositions(n, k):
    """Ordered k-tuples of non-negative integers summing to n, lex order."""
    if k == 0:
        if n == 0:
            yield ()
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def binomial(a, b):
    """Product of per-variable binomial coefficients; 0 when b does not divide a."""
    if len(a) != len(b):
        raise DimensionMismatchError("binomial of monomials over different d")
    if not b.divides(a):
        return Fraction(0)
    r = 1
    for n, m in zip(a, b):
        r *= comb(n, m)
    return Fraction(r)


def factorial(a):
    """a! = n1! n2! ... nd! as an exact rational."""
    r = 1
    for n in a:
        r *= int_factorial(n)
    return Fraction(r)


def splittings(m, parts):
    """All ordered factorizations of m into `parts` monomials, with weights.

    Yields (coeff, (m1, ..., mk)) where m1*...*mk = m and coeff is the int
    multinomial coefficient m!/(m1!...mk!), i.e. the multiplicity of the
    term m1 x ... x mk in the iterated comultiplication of m.
    """
    yield from _splittings(m, parts)


@lru_cache(maxsize=4096)
def _splittings(m, parts):
    per_var = []
    for n in m:
        opts = []
        for compo in _compositions(n, parts):
            c = 1
            rem = n
            for e in compo[:-1]:
                c *= comb(rem, e)
                rem -= e
            opts.append((c, compo))
        per_var.append(opts)
    out = []
    for choice in product(*per_var):
        coeff = 1
        for c, _ in choice:
            coeff *= c
        factors = tuple(
            Monomial(compo[j] for _, compo in choice)
            for j in range(parts))
        out.append((coeff, factors))
    return tuple(out)


def frozen_entries(table, name, what):
    """Freeze the mapping field `name` of a frozen table: a read-only copy
    replaces it, once each key is checked against the table's d and
    domain_degree_bound."""
    entries = dict(getattr(table, name))
    for m in entries:
        if len(m) != table.d:
            raise DimensionMismatchError(
                f"{what} {m!r} inconsistent with d={table.d}")
        if m.degree > table.domain_degree_bound:
            raise DegreeBoundError(
                f"{what} {m!r} beyond bound {table.domain_degree_bound}")
    object.__setattr__(table, name, MappingProxyType(entries))


def cached_scaling(table, coeffs, rebuild):
    """table.scaled(): the pair (D table, D), made on the first call and
    kept on the table's `_scaled` field.  D is the lcm of the denominators
    of `coeffs`, the table's values, and rebuild(scale) is the table with
    each value c replaced by the int scale(c) = D c."""
    if table._scaled is None:
        D = lcm(*(c.denominator for c in coeffs))
        object.__setattr__(table, "_scaled", (
            rebuild(lambda c: c.numerator * (D // c.denominator)), D))
    return table._scaled


def bump(acc, key, c):
    """acc[key] += c in place, dropping the key when the sum is zero."""
    if key in acc:
        s = acc[key] + c
        if s:
            acc[key] = s
        else:
            del acc[key]
    elif c:
        acc[key] = c


def axpy(acc, terms, c=1):
    """acc += c * terms in place, on plain key -> coefficient dicts."""
    if c == 1:
        for k, v in terms.items():
            bump(acc, k, v)
    elif c:
        for k, v in terms.items():
            bump(acc, k, c * v)


class _Sparse:
    """Base for sparse rational linear combinations keyed by hashable basis keys."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    clean[k] = v
        self.terms = clean

    @classmethod
    def _trusted(cls, terms):
        """Wrap a dict of nonzero values as is: no copy, no coercion."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _same_kind(self, other):
        """Whether other is of self's kind, Poly, Tensor2 or Tensor3 (the
        class below _Sparse in the MRO): a SkewMatrix is a Tensor2."""
        return (isinstance(other, _Sparse)
                and type(self).__mro__[-3] is type(other).__mro__[-3])

    def __eq__(self, other):
        return self._same_kind(other) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        out = dict(self.terms)
        axpy(out, other.terms)
        return self._trusted(out)

    def __neg__(self):
        return self._trusted({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not self._same_kind(other):
            return NotImplemented
        out = dict(self.terms)
        axpy(out, other.terms, -1)
        return self._trusted(out)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self._trusted({})
        return self._trusted({k: c * v for k, v in self.terms.items()})

    def __truediv__(self, c):
        # Fraction(v, c) reduces once; Fraction(1, c) * v would twice
        if not c:
            raise ZeroDivisionError(f"{type(self).__name__} / 0")
        return self._trusted(
            {k: Fraction(v, c) for k, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def _sort_key(self, key):
        raise NotImplementedError

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items_sorted())!r})"


class Poly(_Sparse):
    """Element of A = k[x1..xd]: finite map Monomial -> Fraction."""

    __slots__ = ()

    @classmethod
    def from_monomial(cls, m, coeff=1):
        return cls({m: Fraction(coeff)})

    @classmethod
    def constant(cls, d, c):
        return cls({Monomial.unit(d): Fraction(c)})

    def _sort_key(self, key):
        return grlex_key(key)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                bump(out, m1 * m2, c1 * c2)
        return Poly._trusted(out)

    def coeff(self, m):
        return self.terms.get(m, Fraction(0))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def partial(self, i):
        """Partial derivative with respect to x_{i+1} (0-based index i)."""
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = _trusted_monomial(m[:i] + (e - 1,) + m[i + 1:])
                out[dm] = c * e
        return Poly._trusted(out)

    def truncate(self, max_degree):
        """Drop all terms of degree > max_degree; values keep their type."""
        return Poly._trusted({m: c for m, c in self.terms.items()
                              if m.degree <= max_degree})


class Tensor2(_Sparse):
    """Element of A (x) A: finite map (Monomial, Monomial) -> Fraction."""

    __slots__ = ()

    @classmethod
    def from_pair(cls, m1, m2, coeff=1):
        return cls({(m1, m2): Fraction(coeff)})

    def _sort_key(self, key):
        return (grlex_key(key[0]), grlex_key(key[1]))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Tensor2):
            return NotImplemented
        return tensor2_mul(self, other)


class Tensor3(_Sparse):
    """Element of A (x) A (x) A: finite map (Monomial,)*3 -> Fraction."""

    __slots__ = ()

    @classmethod
    def from_triple(cls, m1, m2, m3, coeff=1):
        return cls({(m1, m2, m3): Fraction(coeff)})

    def _sort_key(self, key):
        return tuple(grlex_key(m) for m in key)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Tensor3):
            return NotImplemented
        return tensor3_mul(self, other)


def _check_same_ambient(u, v):
    if u.terms and v.terms:
        du = len(next(iter(u.terms))[0])
        dv = len(next(iter(v.terms))[0])
        if du != dv:
            raise DimensionMismatchError(
                f"tensors over {du} and {dv} variables")


def t2_swap(t):
    """The transposition a(x)b -> b(x)a, extended linearly."""
    return Tensor2._trusted({(b, a): c for (a, b), c in t.terms.items()})


def t3_cycle(t):
    """The order-3 cycle a(x)b(x)c -> c(x)a(x)b, extended linearly."""
    return Tensor3._trusted(
        {(c3, c1, c2): v for (c1, c2, c3), v in t.terms.items()})


def cyclic_sum(t):
    """(1 + t3 + t3^2) applied to a Tensor3."""
    t1 = t3_cycle(t)
    return t + t1 + t3_cycle(t1)


def tensor2_mul(u, v):
    """Componentwise product in A(x)A: (a(x)b)(c(x)d) = ac(x)bd."""
    _check_same_ambient(u, v)
    out = {}
    for (a, b), c1 in u.terms.items():
        for (c, d), c2 in v.terms.items():
            bump(out, (a * c, b * d), c1 * c2)
    return Tensor2._trusted(out)


def tensor3_mul(u, v):
    """Componentwise product in A(x)A(x)A."""
    _check_same_ambient(u, v)
    out = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            bump(out, tuple(a * b for a, b in zip(k1, k2)), c1 * c2)
    return Tensor3._trusted(out)


@lru_cache(maxsize=64)
def default_names(d):
    return tuple(f"x{i + 1}" for i in range(d))


def format_monomial(m, names=None):
    if names is None:
        return _format_monomial_default(m)
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


@lru_cache(maxsize=4096)
def _format_monomial_default(m):
    return format_monomial(m, default_names(len(m)))


def _decimal(n):
    """str(n) at any size.  str() refuses an int past
    sys.get_int_max_str_digits() digits (640 at the least), so a longer n
    is split at a power of ten and each part converted on its own."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 2000:  # 603 digits at most
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's log10(2) * bits digits
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_coeff(c, den=1):
    """The rational c / den in lowest terms; den is a positive int.  A
    scaled witness is written from its integer residual this way, with
    one gcd and no Fraction."""
    num, den = c.numerator, c.denominator * den
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
    text = _decimal(num)
    return text if den == 1 else f"{text}/{_decimal(den)}"


def _format_terms(items, render_key, den):
    """The terms (key, c), each c / den, as a signed sum; a coefficient of
    magnitude 1 is left out, except on the unit monomial."""
    if not items:
        return "0"
    out = []
    for key, c in items:
        mono = render_key(key)
        mag = abs(c)
        if mono == "1":
            body = format_coeff(mag, den)
        elif mag == den:
            body = mono
        else:
            body = f"{format_coeff(mag, den)}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def format_poly(p, names=None, den=1):
    """p / den, den a positive int."""
    return _format_terms(p.items_sorted(),
                         lambda m: format_monomial(m, names), den)


def format_tensor(t, names=None, den=1):
    """A Tensor2 or Tensor3 divided by den, a positive int, with factors
    joined by "(x)"."""
    def render(key):
        return "(x)".join(format_monomial(m, names) for m in key)
    return _format_terms(t.items_sorted(), render, den)
