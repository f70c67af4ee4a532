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
from math import factorial
from typing import Union

Rational = Fraction

Scalar = Union[int, Fraction, "Poly"]


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

    coeffs[i] is the coefficient of p**i; the tuple carries no trailing
    zeros, so the zero polynomial has an empty tuple.  Values are immutable
    (rebinding coeffs raises) and hashable, so caches may share them, and
    they mix freely with int and Fraction in arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _normalised(cls, coeffs: tuple) -> "Poly":
        """Wrap a tuple of Fractions that already has no trailing zero."""
        q = object.__new__(cls)
        object.__setattr__(q, "coeffs", coeffs)
        return q

    def __setattr__(self, name, value):
        raise AttributeError("Poly values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly values are immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slot
        return (Poly, (self.coeffs,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __add__(self, other) -> "Poly":
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

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
        a, b = self.coeffs, other.coeffs
        if b == (1,):
            return self
        if a == (1,):
            return other
        # Over Q a product of nonzero leading coefficients is nonzero, so no
        # product below has a trailing zero.
        if len(a) == 1:
            return Poly._normalised(tuple(a[0] * x for x in b))
        if len(b) == 1:
            return Poly._normalised(tuple(x * b[0] for x in a))
        if not a or not b:
            return ZERO_POLY
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly._normalised(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE_POLY
        for _ in range(n):
            out = out * self
        return out

    def eval_at(self, v) -> Fraction:
        """Substitute the rational v for p (Horner)."""
        v = _as_fraction(v)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Substitute the polynomial ``inner`` for p."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def _promote(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    return NotImplemented


ZERO_POLY = Poly()
ONE_POLY = Poly((1,))
P = Poly((0, 1))


def poly_str(q: Poly) -> str:
    """Render "c0 + c1*p + c2*p^2" with zero terms omitted, unit coefficients bare."""
    if not q.coeffs:
        return "0"
    pieces = []
    for i, c in enumerate(q.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "p" if i == 1 else f"p^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
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

    Elements themselves carry the arithmetic (via operators); the ring object
    supplies the constants, coercion from plain ints, zero tests and text
    rendering, and acts as a tag so that combinations over different scalar
    rings cannot be mixed accidentally.
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

    def is_zero(self, a) -> bool:
        return a == self.zero

    def render(self, a) -> str:
        return self._render(a)

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
    if isinstance(x, Poly):
        return x
    return Poly((_as_fraction(x),))


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
