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
from .trees import (
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


def add_powers(ops, x: dict, powers: dict, degrees) -> dict:
    """Put the convolution powers of X = sum X_m of each degree n in degrees,
    taken in increasing order, into powers and return it, keyed (k, n):
    Y_1[n] = X_n and Y_k[n] = sum_j Y_{k-1}[n-j] X_j, the sum of the ordered
    k-fold products of parts of total degree n.  Degree n needs the parts to
    degree n and the powers of lower degrees."""
    for n in degrees:
        powers[1, n] = x[n]
        for k in range(2, n + 1):
            y = LinComb.zero(QP)
            for j in range(1, n - k + 2):
                accumulate(y, ops.product_lc(powers[k - 1, n - j], x[j]), QP.one)
            powers[k, n] = y
    return powers


def _fixed_point(ops, max_degree: int) -> dict:
    """Degree-by-degree fixed-point recursion in the forest algebra of ops.

    The first term is the single vertex; the part of degree n+1 is the sum
    over 1 <= k <= n of binom(p, k) applied to the root-grafting of Y_k[n]
    (add_powers), built from powers kept from lower degrees.  B+ is
    injective, so each term of Y_k[n] goes grafted and scaled straight into
    the sum.
    """

    def grafted(f):
        return type(f)((bplus(f),))

    x = {}
    if max_degree >= 1:
        x[1] = LinComb.term(QP, grafted(ops.unit))
    powers = {}
    for n in range(1, max_degree):
        add_powers(ops, x, powers, [n])
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


def coproduct_coefficient(ops, powers: dict, n: int, k: int) -> LinComb:
    """Q_{n,k} of the coproduct theorem Delta(X_n) = sum_k Q_{n,k} (x) X_k, in
    the forest algebra of ops: the unit for k = n, otherwise
    sum_q binom(k(p-1)+1, q) Y_q[n-k] over the convolution powers of the parts
    (add_powers).  In H_K this is q_{n,k} = rho(Q_{n,k})."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return ops.one_lc()
    acc = LinComb.zero(QP)
    arg = Poly((1 - k, k))  # k(p-1)+1
    for q in range(1, n - k + 1):
        accumulate(acc, powers[q, n - k], binom_of(arg, q))
    return acc


def coproduct_theorem_check(
    max_degree_hk: int, max_degree_hf: int, sol: DSESolution
) -> Report:
    """Exact polynomial-coefficient comparison of the computed coproducts of
    the solution parts against the coproduct theorem, in both algebras, plus
    a rational cross-check after evaluating at p = 2.  Each algebra's
    convolution powers are built once from the solution's parts."""
    rep = Report("solution coproduct formulas", max_degree_hk)
    ck = ck_ops(QP)
    hf = hf_ops(QP)

    def formula_sides(ops, parts, powers, n) -> tuple:
        """The coproduct of the degree-n part, and its closed formula."""
        lhs = ops.coproduct_lc(parts[n])
        rhs = TensorElem.tensor(parts[n], ops.one_lc())
        for k in range(1, n + 1):
            q = coproduct_coefficient(ops, powers, n, k)
            accumulate(rhs, TensorElem.tensor(q, parts[k]), QP.one)
        return lhs, rhs

    hk_powers = add_powers(ck, sol.hk_terms, {}, range(1, max_degree_hk))
    hf_powers = add_powers(hf, sol.hf_terms, {}, range(1, max_degree_hf))

    @lru_cache(maxsize=None)
    def hk_sides(n):
        return formula_sides(ck, sol.hk_terms, hk_powers, n)

    def hk_case(n):
        return difference_witness(f"n={n}", *hk_sides(n))

    rep.law("commutative coproduct formula", range(1, max_degree_hk + 1), hk_case)

    def hf_case(n):
        lhs, rhs = formula_sides(hf, sol.hf_terms, hf_powers, n)
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
