"""Explicit solutions of the combinatorial Dyson-Schwinger equation
X = 1 + B_+(X^p), with p a formal indeterminate.

The equation is solved in the planar algebra H_F and in H_K, each by the
same fixed-point recursion in its own forest algebra, and independently by
closed forms summing over trees.  The homogeneous parts carry polynomial
coefficients in p; rational specializations are a post-pass through
polynomial evaluation.
"""

from __future__ import annotations

from functools import lru_cache

from .freemodule import (
    LinComb,
    Report,
    TensorElem,
    _add_into,
    accumulate,
    difference_witness,
)
from .hopf_trees import bplus, ck_ops, hf_ops
from .scalar import ONE_POLY, Poly, QQ, QP, binom_of, binom_poly, poly_eval
from .special import multinomial
from .symfun import compositions_of_length, partitions_of
from .trees import (
    EMPTY_FOREST,
    EMPTY_ORDERED,
    Forest,
    OrderedForest,
    embedding_count,
    enumerate_planar,
    enumerate_rooted,
    ladder,
)


class DSESolution:
    """Homogeneous parts of the solution: planar terms of each degree and
    their commutative projections, both with polynomial scalars."""

    def __init__(self, max_degree: int):
        self.max_degree = max_degree
        self.hf_terms: dict = {}  # degree -> LinComb over OrderedForest
        self.hk_terms: dict = {}  # degree -> LinComb over Forest

    def hf(self, n: int) -> LinComb:
        return self.hf_terms[n]

    def hk(self, n: int) -> LinComb:
        return self.hk_terms[n]


def cp_coefficient(tree) -> Poly:
    """Product over internal vertices of binom(p, number of children);
    invariant under forgetting planarity.  It depends only on the multiset
    of child counts, which keys the memo."""
    counts = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.children:
            counts.append(len(node.children))
            stack.extend(node.children)
    return _binom_product(tuple(sorted(counts)))


@lru_cache(maxsize=None)
def _binom_product(counts: tuple) -> Poly:
    """binom(p, c) multiplied over the sorted child counts c."""
    acc = ONE_POLY
    for c in counts:
        acc = acc * binom_poly(c)
    return acc


def _fixed_point(ops, max_degree: int) -> dict:
    """Degree-by-degree fixed-point recursion in the forest algebra of ops.

    The first term is the single vertex; the part of degree n+1 is the sum
    over 1 <= k <= n of binom(p, k) applied to the root-grafting of Y_k[n],
    the sum of all length-k products of lower parts with total degree n.
    Y_k is the k-th convolution power of X = sum X_n: Y_1[n] = X_n and
    Y_k[n] = sum_j Y_{k-1}[n-j] X_j, so each Y_k[n] is one product per last
    part, built from powers kept from lower degrees.  B+ is injective, so
    each term of Y_k[n] goes grafted and scaled straight into the sum.
    """

    def grafted(f):
        return type(f)((bplus(f),))

    x = {}
    if max_degree >= 1:
        x[1] = LinComb.term(QP, grafted(ops.unit))
    powers = {}  # (k, n) -> Y_k[n]
    for n in range(1, max_degree):
        powers[1, n] = x[n]
        for k in range(2, n + 1):
            y = LinComb.zero(QP)
            for j in range(1, n - k + 2):
                accumulate(y, ops.product_lc(powers[k - 1, n - j], x[j]), QP.one)
            powers[k, n] = y
        acc = LinComb.zero(QP)
        for k in range(1, n + 1):
            terms = powers[k, n].terms.items()
            _add_into(acc.terms, ((grafted(f), c) for f, c in terms), binom_poly(k))
        x[n + 1] = acc
    return x


def solve_recursive(max_degree: int) -> DSESolution:
    """The fixed-point recursion run in H_F with ordered products and planar
    grafting, and again in H_K with commutative products and B+.  rho is a
    Hopf map that commutes with B+, so rho of the H_F part solves the same
    equation in H_K and equals the H_K part; computing that part directly
    needs only the rooted trees, not the Catalan-many planar ones."""
    sol = DSESolution(max_degree)
    sol.hf_terms = _fixed_point(hf_ops(QP), max_degree)
    sol.hk_terms = _fixed_point(ck_ops(QP), max_degree)
    return sol


def solve_closed(max_degree: int) -> DSESolution:
    """Closed form: the planar part of degree n sums every planar tree with n
    vertices weighted by its child-count binomial product; the commutative
    part weights each rooted tree additionally by its embedding count."""
    sol = DSESolution(max_degree)
    for n in range(1, max_degree + 1):
        sol.hf_terms[n] = LinComb(
            QP,
            {
                OrderedForest((T,)): cp_coefficient(T)
                for T in enumerate_planar(n - 1)
            },
        )
        sol.hk_terms[n] = LinComb(
            QP,
            {
                Forest((t,)): cp_coefficient(t) * embedding_count(t)
                for t in enumerate_rooted(n - 1)
            },
        )
    return sol


def _affine_argument(k: int) -> Poly:
    # k(p-1)+1 as a polynomial in p
    return Poly((1 - k, k))


def q_poly(n: int, k: int, sol: DSESolution) -> LinComb:
    """Coefficient polynomial of the commutative coproduct formula: for k = n
    the unit; otherwise the multinomial-weighted sum over monomials in the
    lower parts of total degree n-k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    ck = ck_ops(QP)
    if k == n:
        return LinComb.term(QP, EMPTY_FOREST)
    acc = LinComb.zero(QP)
    arg = _affine_argument(k)
    for mu in partitions_of(n - k):
        mults = mu.multiplicities()
        q = mu.length
        scalar = binom_of(arg, q) * multinomial(mults.values())
        prod = LinComb.term(QP, EMPTY_FOREST)
        for part in mu.parts:
            prod = ck.product_lc(prod, sol.hk(part))
        accumulate(acc, prod, scalar)
    return acc


def Q_poly(n: int, k: int, sol: DSESolution) -> LinComb:
    """Planar analogue: ordered products over compositions of n-k, each length
    q weighted by binom(k(p-1)+1, q)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    hf = hf_ops(QP)
    if k == n:
        return LinComb.term(QP, EMPTY_ORDERED)
    acc = LinComb.zero(QP)
    arg = _affine_argument(k)
    for q in range(1, n - k + 1):
        scalar = binom_of(arg, q)
        for comp in compositions_of_length(n - k, q):
            prod = LinComb.term(QP, EMPTY_ORDERED)
            for ni in comp:
                prod = hf.product_lc(prod, sol.hf(ni))
            accumulate(acc, prod, scalar)
    return acc


def coproduct_check_degrees(max_degree: int) -> tuple:
    """The (H_K, H_F) degrees to which the coproduct formulas are checked for
    a solution to max_degree: at most 6 and 5, as the planar side's Catalan
    growth sets the cost."""
    return min(max_degree, 6), min(max_degree, 5)


def coproduct_theorem_check(
    max_degree_hk: int, max_degree_hf: int | None = None, sol: DSESolution | None = None
) -> Report:
    """Exact polynomial-coefficient comparison of the computed coproducts of
    the solution parts against the closed coproduct formulas, in both
    algebras, plus a rational cross-check after evaluating at p = 2."""
    if max_degree_hf is None:
        max_degree_hf = max_degree_hk
    if sol is None:
        sol = solve_closed(max(max_degree_hk, max_degree_hf))
    rep = Report("solution coproduct formulas", max_degree_hk)
    ck = ck_ops(QP)
    hf = hf_ops(QP)

    def formula_sides(ops, part, poly, n) -> tuple:
        """The coproduct of the degree-n part, and its closed formula."""
        lhs = ops.coproduct_lc(part(n))
        rhs = TensorElem.tensor(part(n), ops.one_lc())
        for k in range(1, n + 1):
            accumulate(rhs, TensorElem.tensor(poly(n, k, sol), part(k)), QP.one)
        return lhs, rhs

    @lru_cache(maxsize=None)
    def hk_sides(n):
        return formula_sides(ck, sol.hk, q_poly, n)

    def hk_case(n):
        return difference_witness(f"n={n}", *hk_sides(n))

    rep.law("commutative coproduct formula", range(1, max_degree_hk + 1), hk_case)

    def hf_case(n):
        lhs, rhs = formula_sides(hf, sol.hf, Q_poly, n)
        return difference_witness(f"n={n}", lhs, rhs)

    rep.law("planar coproduct formula", range(1, max_degree_hf + 1), hf_case)

    def eval_case(n):
        lhs, rhs = hk_sides(n)
        return difference_witness(f"n={n}", specialize(lhs, 2), specialize(rhs, 2))

    rep.law("rational specialization at p=2", range(1, min(max_degree_hk, 5) + 1), eval_case)
    return rep


def specialize(x: LinComb, value) -> LinComb:
    """Evaluate every polynomial coefficient at a rational value of p; a
    TensorElem stays one."""
    return x.map_coeffs(lambda q: poly_eval(q, value), QQ)


def ladder_specialization_holds(sol: DSESolution, n: int) -> bool:
    """At p = 1 the only surviving commutative term of degree n is the
    n-vertex ladder with coefficient 1."""
    lhs = specialize(sol.hk(n), 1)
    return lhs == LinComb.term(QQ, Forest((ladder(n),)))
