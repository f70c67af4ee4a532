"""Special families in the grafting algebra: the symmetry-weighted full sums,
their alternating companions, natural growth, and the attachment/cut counts
with their numerical identity.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .freemodule import (
    LinComb,
    Report,
    TensorElem,
    accumulate,
    as_lincomb,
    difference_witness,
    freeze,
)
from .hopf_trees import bplus, cut_counts, gl_ops
from .morphisms import phi_star, rho_star
from .scalar import QQ, ZZ
from .symfun import basis_expand, partitions_of, sym_product
from .trees import (
    DOT,
    Forest,
    RootedTree,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    sym_order,
    t_lambda,
)


@lru_cache(maxsize=None)
def kappa(n: int) -> LinComb:
    """Sum of all rooted trees of degree n, each weighted by 1/|Sym|."""
    if n == 0:
        return freeze(LinComb.term(QQ, DOT))
    return freeze(
        LinComb(QQ, {t: Fraction(1, sym_order(t)) for t in enumerate_rooted(n)})
    )


# |Sym t| divides n! for every tree t of degree n, so n! kappa_n is integral
# and the grafting behind kappa and epsilon runs over ZZ; only kappa's
# weights and the compared values are rational.


def _cleared(x, n: int):
    """n! x over ZZ: a coefficient that n! leaves non-integral raises
    TypeError, so nothing is ever rounded."""
    f = factorial(n)
    return x.map_coeffs(lambda c: c * f, ZZ)


def _divided(x, n: int):
    """x / n! over QQ."""
    f = factorial(n)
    return x.map_coeffs(lambda c: Fraction(c, f), QQ)


@lru_cache(maxsize=None)
def epsilon(n: int) -> LinComb:
    """Alternating companions of kappa, defined by the grafting recursion
    eps_n = kappa_1 o eps_{n-1} - kappa_2 o eps_{n-2} + ... +- kappa_n.

    Grafting runs over ZZ on the cleared recursion
    n! eps_n = sum_i (-1)^(i-1) C(n,i) (i! kappa_i) o ((n-i)! eps_{n-i})."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return freeze(LinComb.term(QQ, DOT))
    gl = gl_ops(ZZ)
    acc = LinComb.zero(ZZ)
    for i in range(1, n + 1):
        term = gl.product_lc(_cleared(kappa(i), i), _cleared(epsilon(n - i), n - i))
        accumulate(acc, term, (-1) ** (i - 1) * comb(n, i))
    return freeze(_divided(acc, n))


def natural_growth(x, k: int = 1) -> LinComb:
    """Apply t -> (2-vertex ladder) o t  k times: each step adds one new leaf
    at every vertex in all possible ways.  A basis element x is taken over QQ;
    a combination keeps its own ring."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    x = as_lincomb(QQ, x)
    gl = gl_ops(x.ring)
    grower = gl.term(ladder(2))
    for _ in range(k):
        x = gl.product_lc(grower, x)
    return x


def n_count(u: Forest, t: RootedTree, target: RootedTree) -> int:
    """Number of times the target appears in bplus(u) o t."""
    return gl_ops(ZZ).product(bplus(u), t).coeff(target)


def _cut_tally(target: RootedTree) -> Counter:
    """The target's admissible cuts counted by (fallen part, root part),
    which name an admissible cut: its weight is its number of fallen trees."""
    cuts = cut_counts(target, admissible_only=True).items()
    return Counter({(cut.fallen, cut.root_part): n for cut, n in cuts})


def m_count(u: Forest, t: RootedTree, target: RootedTree) -> int:
    """Number of distinct admissible cuts of the target with fallen part u
    and root part t."""
    return _cut_tally(target)[u, t]


def lemma_identity_holds(u: Forest, t: RootedTree, target: RootedTree, m: int) -> bool:
    """n(u,t;t') |Sym(t')| = m(u,t;t') |Sym(B_+(u))| |Sym(t)|, given the cut
    count m = m(u,t;t')."""
    lhs = n_count(u, t, target) * sym_order(target)
    rhs = m * sym_order(bplus(u)) * sym_order(t)
    return lhs == rhs


def lemma_check(max_vertices: int) -> Report:
    """Exhaustive sweep of the counting identity over every tree with at most
    max_vertices vertices and every admissible decomposition of it."""
    rep = Report("attachment/cut counting identity", max_vertices)

    def run(target):
        for (u, t), m in _cut_tally(target).items():
            if not lemma_identity_holds(u, t, target, m):
                return f"t'={target!r}, u={u!r}, t={t!r}"
        return None

    targets = [
        t for n in range(max_vertices) for t in enumerate_rooted(n)
    ]
    rep.law("identity over all admissible decompositions", targets, run)
    return rep


def _kappa_antipode(n: int) -> LinComb:
    """S(kappa_n) in kT, as S(n! kappa_n) / n!."""
    return _divided(gl_ops(ZZ).antipode_lc(_cleared(kappa(n), n)), n)


def _divided_powers(n: int) -> tuple:
    """The coproduct of kappa_n and sum_i kappa_i (x) kappa_{n-i}: both
    sides n! times over, computed over ZZ, then divided by n!."""
    lhs = gl_ops(ZZ).coproduct_lc(_cleared(kappa(n), n))
    rhs = TensorElem.zero(ZZ)
    for i in range(n + 1):
        pair = TensorElem.tensor(_cleared(kappa(i), i), _cleared(kappa(n - i), n - i))
        accumulate(rhs, pair, comb(n, i))
    return _divided(lhs, n), _divided(rhs, n)


def proposition_check(max_degree: int) -> Report:
    """The five structural facts tying kappa and epsilon to the elementary and
    complete symmetric functions."""
    rep = Report("kappa/epsilon family", max_degree)

    def antipode_link(n):
        s_kappa = _kappa_antipode(n)
        return difference_witness(f"n={n}", epsilon(n), s_kappa.scale((-1) ** n))

    rep.law("eps_n = (-1)^n S(kappa_n)", range(max_degree + 1), antipode_link)

    def image_e(n):
        return difference_witness(f"n={n}", phi_star(epsilon(n)), basis_expand("e", n))

    rep.law("phi*(eps_n) = e_n", range(max_degree + 1), image_e)

    def image_h(n):
        return difference_witness(f"n={n}", phi_star(kappa(n)), basis_expand("h", n))

    rep.law("phi*(kappa_n) = h_n", range(max_degree + 1), image_h)

    def cleared(n):
        want = LinComb.term(QQ, t_lambda([1] * n))
        return difference_witness(f"n={n}", epsilon(n).scale(factorial(n)), want)

    rep.law("n! eps_n is the one-level bush", range(max_degree + 1), cleared)

    def divided(n):
        return difference_witness(f"n={n}", *_divided_powers(n))

    rep.law("kappa divided powers", range(max_degree + 1), divided)

    def planar_sum(n):
        # n! times the sum against rho*(n! kappa_n), over ZZ; a failing case
        # divides both by n! for its witness.  n! is a nonzero integer, so
        # the sum's dict is the combination as it is.
        want = LinComb._of(ZZ, dict.fromkeys(enumerate_planar(n), factorial(n)))
        got = rho_star(_cleared(kappa(n), n))
        if got == want:
            return None
        return difference_witness(f"n={n}", _divided(got, n), _divided(want, n))

    rep.law("rho*(kappa_n) sums the planar trees", range(max_degree + 1), planar_sum)
    return rep


def multinomial(parts) -> int:
    total = sum(parts)
    out = factorial(total)
    for x in parts:
        out //= factorial(x)
    return out


def growth_formulas_check(max_weight: int) -> Report:
    """Natural-growth consequences: the image identity under phi*, the
    cut-count/monomial-coefficient match, and the multinomial closed form.
    Every value here is integral, so all of it runs over ZZ."""
    rep = Report("natural growth formulas", max_weight)
    e1 = basis_expand("e", 1, ZZ)

    def image_growth(args):
        t, k = args
        x = LinComb.term(ZZ, t)
        lhs = phi_star(natural_growth(x, k))
        rhs = phi_star(x)
        for _ in range(k):
            rhs = sym_product(e1, rhs)
        return difference_witness(f"t={t!r}, k={k}", lhs, rhs)

    cases = []
    for lam in (l for n in range(max_weight) for l in partitions_of(n)):
        t = t_lambda(lam.parts) if lam.parts else DOT
        for k in range(1, max_weight - lam.weight + 1):
            cases.append((t, k))
    rep.law("phi* intertwines growth with e_1 multiplication", cases, image_growth)

    tally = lru_cache(maxsize=None)(_cut_tally)  # each t_mu's cuts once

    def count_vs_coeff(pair):
        lam, mu = pair
        lhs = tally(t_lambda(mu.parts))[Forest((DOT,)), t_lambda(lam.parts)]
        rhs = sym_product(e1, LinComb.term(ZZ, lam)).coeff(mu)
        return difference_witness(f"lambda={lam.parts}, mu={mu.parts}", lhs, rhs)

    pairs = [
        (lam, mu)
        for n in range(max_weight)
        for lam in partitions_of(n)
        for mu in partitions_of(n + 1)
        if n + 1 <= max_weight
    ]
    rep.law("m(., t_lambda; t_mu) matches e_1 m_lambda", pairs, count_vs_coeff)

    def closed_form(lam):
        t = t_lambda(lam.parts)
        coeff = natural_growth(LinComb.term(ZZ, DOT), lam.weight).coeff(t)
        want = Fraction(multinomial(lam.parts), sym_order(t))
        return difference_witness(f"lambda={lam.parts}", coeff, want)

    lams = [l for n in range(1, max_weight + 1) for l in partitions_of(n)]
    rep.law("n(.; t_lambda) multinomial formula", lams, closed_form)
    return rep
