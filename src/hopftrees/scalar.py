"""Exact scalar arithmetic: integers, rationals and univariate polynomials.

Every algebraic module in the package is generic over a scalar ring; the
three rings provided here are ZZ (arbitrary-precision integers, plain int),
QQ (arbitrary-precision rationals, backed by fractions.Fraction) and QP
(polynomials in the formal indeterminate p with rational coefficients).  No
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

Rational = Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} into a rational")


def _as_integer(x) -> int:
    """An int, or a Fraction with denominator 1, as an int; anything else
    raises, so a non-integral value is caught and never rounded."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"cannot coerce {x!r} into an integer")


class Poly:
    """Polynomial in the indeterminate p with rational coefficients.

    The value is sum(num[i] * p**i) / den: integer numerators over one common
    denominator, as FLINT's fmpq_poly stores them.  num has no trailing zero,
    den is positive and shares no factor with all of num, and the zero
    polynomial is num == (), den == 1; so each value has exactly one
    representation, and arithmetic adds and convolves plain ints and reduces
    once per result.  Values are immutable (rebinding num or den raises) and
    hashable, so caches may share them, and they mix freely with int and
    Fraction in arithmetic.  The hash is computed once, on construction, and
    a constant hashes as the int or Fraction it equals.

    A product of two nonzero, non-unit factors is memoised by the factors'
    values and kept once per value (see _PRODUCTS), so equal products of
    that kind are one object, whatever factors gave them.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _fill(self, *_reduce([c.numerator * (den // c.denominator) for c in cs], den))

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slots
        return (Poly, (self.coeffs,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def coeffs(self) -> tuple:
        """coeffs[i] is the coefficient of p**i, as a Fraction; no trailing zero."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if type(other) is int:
            # the free modules test every scale factor against 1: build no Poly
            num = self.num
            return self.den == 1 and (num == (other,) if other else not num)
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return self._hash

    def __add__(self, other) -> "Poly":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        den = da
        if da != db:
            den = lcm(da, db)
            ma, mb = den // da, den // db
            a = [c * ma for c in a]
            b = [c * mb for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw(tuple(-c for c in self.num), self.den)

    def __sub__(self, other) -> "Poly":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        if b == (1,) and other.den == 1:
            return self
        if a == (1,) and self.den == 1:
            return other
        if not a or not b:
            return ZERO_POLY
        out = _PRODUCTS.get((self, other))
        if out is None:
            out = _make(_convolve(a, b), self.den * other.den)
            out = _PRODUCTS[self, other] = _PRODUCT_VALUES.setdefault(out, out)
        return out

    __rmul__ = __mul__

    def eval_at(self, v) -> Fraction:
        """Substitute the rational v for p: integer Horner on the numerators
        scaled by powers of v's denominator, one division at the end."""
        if not self.num:
            return Fraction(0)
        v = _as_fraction(v)
        vn, vd = v.numerator, v.denominator
        acc, scale = 0, 1
        for c in reversed(self.num):
            acc = acc * vn + c * scale
            scale *= vd
        return Fraction(acc, self.den * (scale // vd))

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def _reduce(num: list, den: int) -> tuple:
    """(num, den) in canonical form: trailing zeros cut, common factor divided out."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _convolve(a: tuple, b: tuple) -> list:
    """The coefficients of the product of two nonzero numerator tuples."""
    if len(a) == 1:
        ca = a[0]
        return [ca * x for x in b]
    if len(b) == 1:
        cb = b[0]
        return [x * cb for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return out


# The slot descriptors' setters write past Poly.__setattr__.
_SET_NUM, _SET_DEN, _SET_HASH = (vars(Poly)[name].__set__ for name in Poly.__slots__)


def _fill(q: Poly, num: tuple, den: int) -> None:
    """Set the canonical numerators and denominator of q, and its hash: a
    constant's is that of the int or Fraction it equals, as == requires."""
    _SET_NUM(q, num)
    _SET_DEN(q, den)
    if len(num) > 1:
        h = hash((num, den))
    elif not num:
        h = 0
    else:
        h = hash(num[0]) if den == 1 else hash(Fraction(num[0], den))
    _SET_HASH(q, h)


def _raw(num: tuple, den: int) -> Poly:
    """Wrap numerators and a denominator that are already canonical."""
    q = object.__new__(Poly)
    _fill(q, num, den)
    return q


def _make(num: list, den: int) -> Poly:
    return _raw(*_reduce(num, den))


def _promote(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return _raw((int(x),), 1) if x else ZERO_POLY
    if isinstance(x, Fraction):
        return _raw((x.numerator,), x.denominator) if x else ZERO_POLY
    return NotImplemented


# Poly.__mul__'s memo: (a, b) -> a * b for nonzero, non-unit factors, keyed
# by their values, and each product value once.  Keys and values are
# immutable Poly values, and the tables hold them for the life of the
# process, as binom_poly's cache and the interning tables do; their size is
# the number of distinct factor pairs the process multiplies.  A DSE part's
# coefficients are products of a few binomials binom(p, c), so its many
# terms share a few values.
_PRODUCTS: dict = {}
_PRODUCT_VALUES: dict = {}

ZERO_POLY = _raw((), 1)
ONE_POLY = _raw((1,), 1)
P = _raw((0, 1), 1)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms as Fraction prints it: "n" when d divides n."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def poly_str(q: Poly) -> str:
    """Render "c0 + c1*p + c2*p^2" with zero terms omitted, unit coefficients bare."""
    if not q.num:
        return "0"
    den = q.den
    pieces = []
    for i, c in enumerate(q.num):
        if not c:
            continue
        if i == 0:
            body = _ratio_str(abs(c), den)
        else:
            var = "p" if i == 1 else f"p^{i}"
            body = var if abs(c) == den else f"{_ratio_str(abs(c), den)}*{var}"
        pieces.append((c < 0, body))
    return signed_join(pieces)


def signed_join(pieces) -> str:
    """Join (negated, body) pairs as "a - b + c"; only the first sign leads."""
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


class Ring:
    """Scalar-ring descriptor shared by all free-module containers.

    Elements themselves carry the arithmetic (via operators), and an element
    is false exactly when it is zero; the ring object supplies the constants,
    coercion from plain ints and text rendering, and acts as a tag so that
    combinations over different scalar rings cannot be mixed accidentally.
    """

    __slots__ = ("name", "zero", "one", "_coerce", "_render")

    def __init__(self, name, zero, one, coerce, render):
        self.name = name
        self.zero = zero
        self.one = one
        self._coerce = coerce
        self._render = render

    def coerce(self, x):
        return self._coerce(x)

    def render(self, a) -> str:
        return self._render(a)

    def render_factor(self, a) -> str:
        """The text of a as the factor of a product: in parentheses when it
        is a polynomial of several terms, so that "a*x" reads one way."""
        text = self._render(a)
        if isinstance(a, Poly) and sum(map(bool, a.num)) > 1:
            return f"({text})"
        return text

    def __reduce__(self):
        # copy and pickle hand back the module's own ring object: values are
        # tagged by ring identity, so a second ring would never mix with them
        for name, ring in globals().items():
            if ring is self:
                return name
        raise TypeError(f"{self!r} is not a ring of {__name__}")

    def __repr__(self):
        return f"Ring({self.name})"


def _coerce_poly(x) -> Poly:
    q = _promote(x)
    if q is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} into a rational")
    return q


ZZ = Ring("Z", 0, 1, _as_integer, str)
QQ = Ring("Q", Fraction(0), Fraction(1), _as_fraction, str)
QP = Ring("Q[p]", ZERO_POLY, ONE_POLY, _coerce_poly, poly_str)


def poly_eval(a: Poly, v) -> Fraction:
    return _coerce_poly(a).eval_at(v)


@lru_cache(maxsize=None)
def binom_poly(k: int) -> Poly:
    """The degree-k polynomial p(p-1)...(p-k+1)/k!; the constant 1 for k=0.

    Memoised: every caller shares one immutable value per k."""
    return binom_of(P, k)


def binom_of(x, k: int):
    """Falling-factorial binomial x(x-1)...(x-k+1)/k! for a Poly or Fraction x."""
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    if isinstance(x, Poly):
        acc = ONE_POLY
        for j in range(k):
            acc = acc * (x - j)
        return acc * Fraction(1, factorial(k))
    x = _as_fraction(x)
    acc = Fraction(1)
    for j in range(k):
        acc *= x - j
    return acc / factorial(k)
