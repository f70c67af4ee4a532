import ast
import copy
import operator
import pickle
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hopftrees
from hopftrees.cli import parse_expr
from hopftrees.scalar import (
    ONE_POLY,
    P,
    Poly,
    QP,
    QQ,
    ZERO_POLY,
    ZZ,
    binom_of,
    binom_poly,
    poly_eval,
    poly_str,
    signed_join,
)
from hopftrees.trees import Forest

from oracles import poly_compose

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def test_fraction_operator_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(3, 4) * Fraction(0) == 0
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


@given(rationals, rationals, rationals)
def test_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals)
def test_rational_results_lowest_terms(a, b):
    for r in (a + b, a - b, a * b):
        assert gcd(abs(r.numerator), r.denominator) == 1
        assert r.denominator > 0


def test_binom_poly_examples():
    assert binom_poly(0) == ONE_POLY
    assert binom_poly(1) == P
    # hand expansion of p(p-1)/2
    assert binom_poly(2) == Poly((0, Fraction(-1, 2), Fraction(1, 2)))


@pytest.mark.parametrize("k", range(11))
def test_binom_poly_pascal_identity(k):
    # binom(p,k) * (p-k) = (k+1) * binom(p,k+1) as exact polynomials
    assert binom_poly(k) * (P - k) == binom_poly(k + 1) * (k + 1)


def test_binom_poly_integer_values():
    for n in range(13):
        for k in range(n + 1):
            assert poly_eval(binom_poly(k), n) == comb(n, k)


def test_poly_eval_examples():
    assert poly_eval(binom_poly(2), 2) == 1
    assert poly_eval(binom_poly(2), Fraction(1, 2)) == Fraction(-1, 8)


def test_poly_operators():
    assert P * P == Poly((0, 0, 1))
    assert P + P == Poly((0, 2))
    assert P - ONE_POLY == Poly((-1, 1))
    assert (P + 1) * (P - 1) == P * P - 1


small_rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)
polys = st.one_of(
    st.sampled_from([ZERO_POLY, ONE_POLY, -ONE_POLY]),
    small_rationals.map(Poly.const),
    st.lists(small_rationals, max_size=6).map(Poly),
)
operands = st.one_of(polys, st.integers(-5, 5), small_rationals)


def _schoolbook(op, x, y):
    """Reference coefficients of op(x, y) over Fraction, trailing zeros cut."""
    a, b = ([Fraction(c) for c in getattr(v, "coeffs", (v,))] for v in (x, y))
    if op is operator.mul:
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    else:
        sign = 1 if op is operator.add else -1
        a, b = a + [Fraction(0)] * len(b), b + [Fraction(0)] * len(a)
        out = [ca + sign * cb for ca, cb in zip(a, b)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@given(polys, operands)
def test_poly_arithmetic_matches_schoolbook(q, other):
    for x, y in ((q, other), (other, q)):
        for op in (operator.mul, operator.add, operator.sub):
            r = op(x, y)
            assert isinstance(r, Poly)
            assert r.coeffs == _schoolbook(op, x, y)
            assert all(type(c) is Fraction for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0
    for one in (ONE_POLY, 1, Fraction(1)):
        assert q * one is q
        if q != 1:  # when both factors are 1, either may come back
            assert one * q is q
    # comparing with an int, as the free modules' unit test does, builds no
    # Poly and agrees with comparing coefficients
    for k in (-1, 0, 1, 2):
        assert (q == k) == (q.coeffs == ((Fraction(k),) if k else ()))


def test_poly_copies_and_pickles():
    q = binom_poly(3)
    for r in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert r == q and r.coeffs == q.coeffs


def test_integer_ring_coercion():
    for x in (Fraction(4, 2), 2):
        assert ZZ.coerce(x) == 2 and type(ZZ.coerce(x)) is int
    assert ZZ.coerce(Fraction(-6, 3)) == -2
    # a non-integral constant is an error, never rounded
    for bad in (Fraction(1, 2), Poly((2,)), P, 2.0, "2"):
        with pytest.raises(TypeError):
            ZZ.coerce(bad)
    assert ZZ.zero == 0 and ZZ.one == 1 and ZZ.render(-3) == "-3"


def test_rings_keep_their_identity_through_copy_and_pickle():
    for ring in (ZZ, QQ, QP):
        assert copy.copy(ring) is ring and copy.deepcopy(ring) is ring
        assert pickle.loads(pickle.dumps(ring)) is ring


def test_poly_compose_affine():
    # substituting k(p-1)+1 into the falling factorial agrees with binom_of
    k = 3
    affine = Poly((1 - k, k))
    assert poly_compose(binom_poly(2), affine) == binom_of(affine, 2)


def _assert_canonical(q):
    assert q.den > 0
    assert gcd(q.den, *q.num) == 1
    assert not q.num or q.num[-1] != 0
    assert q.num or q.den == 1
    assert all(type(c) is int for c in q.num) and type(q.den) is int


@given(polys, operands)
def test_poly_results_are_canonical(q, other):
    for r in (q * other, other * q, q + other, other + q, q - other, other - q, -q):
        _assert_canonical(r)
        again = Poly(r.coeffs)
        assert (again.num, again.den, hash(again)) == (r.num, r.den, hash(r))


@given(polys, small_rationals)
def test_poly_eval_and_render_match_fraction_coefficients(q, v):
    # references computed from the Fraction coefficients, term by term
    cs = q.coeffs
    assert q.eval_at(v) == sum((c * v**i for i, c in enumerate(cs)), Fraction(0))
    pieces = []
    for i, c in enumerate(cs):
        if c:
            var = "p" if i == 1 else f"p^{i}"
            mag = abs(c)
            body = str(mag) if i == 0 else var if mag == 1 else f"{mag}*{var}"
            pieces.append((c < 0, body))
    assert poly_str(q) == (signed_join(pieces) if pieces else "0")


def test_equal_polys_built_by_different_routes_are_identical():
    half_p2 = [
        Poly((0, 0, Fraction(1, 2))),
        P * P * Fraction(1, 2),
        P * Fraction(1, 4) * P * 2,
        (P * P + P * P) * Fraction(1, 4),
        P * P - Poly((0, 0, Fraction(1, 2))),
        binom_poly(2) + P * Fraction(1, 2),
        parse_expr("1/2*p^2", "ck", "poly").value.coeff(Forest()),
        parse_expr("(p^2 - 1/2*p^2)*1", "ck", "poly").value.coeff(Forest()),
    ]
    units = [
        ONE_POLY,
        Poly((Fraction(1, 2),)) * 2,
        Poly((Fraction(3, 3),)),
        Poly((1, 0, 0)),
        P - P + 1,
        binom_poly(0),
        -(-ONE_POLY),
        parse_expr("1", "ck", "poly").value.coeff(Forest()),
    ]
    zeros = [ZERO_POLY, Poly(), Poly((0, Fraction(0))), P - P, P * 0, binom_poly(2) * 0]
    for family in (half_p2, units, zeros):
        for q in family:
            _assert_canonical(q)
            assert (q.num, q.den, hash(q)) == (
                family[0].num,
                family[0].den,
                hash(family[0]),
            )
            assert q == family[0]
    assert (units[1].num, units[1].den) == ((1,), 1)
    assert (half_p2[0].num, half_p2[0].den) == ((0, 0, 1), 2)
    assert (ZERO_POLY.num, ZERO_POLY.den) == ((), 1)
    assert (binom_poly(3).num, binom_poly(3).den) == ((0, 2, -3, 1), 6)


def test_poly_numerators_and_denominator_are_read_only():
    q = binom_poly(2)
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(q, name, getattr(q, name))
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert (q.num, q.den) == ((0, -1, 1), 2)


def test_poly_zero_normalization_and_hash():
    assert Poly((0, 0)) == Poly()
    assert not Poly()
    assert hash(Poly((1,))) == hash(ONE_POLY)
    assert Poly((Fraction(1, 2),)) * 2 == ONE_POLY


@given(small_rationals)
def test_constant_polys_hash_as_the_number_they_equal(r):
    # == holds between a constant and its number, so hash must agree too
    for x in (r, r.numerator):
        q = Poly.const(x)
        assert q == x and hash(q) == hash(x)
        assert {x: "x"}.get(q) == "x" and {q: "q"}.get(x) == "q"
        assert len({q, x}) == 1
    assert len({ONE_POLY, 1}) == 1 and len({ZERO_POLY, 0, Fraction(0)}) == 1


def test_equal_factors_give_the_identical_product():
    a, b = Poly((1, Fraction(2, 3))), binom_poly(3) * 2
    first = a * b
    # factors equal in value but built afresh, and in either order
    again = Poly((1, Fraction(2, 3))) * (binom_poly(3) * 2)
    assert again is first and b * a is first
    # so is an equal product of other factors
    assert (P * P) * binom_poly(2) is P * (P * binom_poly(2))


def test_rendering():
    assert str(Fraction(5, 6)) == "5/6"
    assert str(Fraction(-3)) == "-3"
    assert poly_str(Poly()) == "0"
    assert poly_str(P) == "p"
    assert poly_str(Poly((0, 0, Fraction(3, 2)))) == "3/2*p^2"
    assert poly_str(binom_poly(2)) == "-1/2*p + 1/2*p^2"
    assert QP.render(QP.coerce(5)) == "5"
    assert QQ.render(Fraction(2, 4)) == "1/2"


def test_binom_of_rational_argument():
    assert binom_of(Fraction(7, 2), 2) == Fraction(35, 8)


def test_library_checks_survive_python_O():
    """python -O strips assert statements, so an exactness check written as
    one would let a wrong count through: the library raises instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(hopftrees.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
