"""Brute-force oracles for the structure maps.

Each oracle computes what a library function computes by a different and
slower route, so the tests can compare the two exhaustively on small
inputs.  None of them is part of the library.
"""

import itertools
from fractions import Fraction
from math import factorial

from hopftrees.coproducts import extend_multiplicatively
from hopftrees.dse import DSESolution
from hopftrees.freemodule import LinComb, TensorElem, accumulate, as_lincomb
from hopftrees.hopf_trees import bminus, bplus, ck_ops, gl_ops, hf_ops
from hopftrees.scalar import ONE_POLY, Poly, QP, QQ, binom_of, binom_poly
from hopftrees.special import kappa, multinomial
from hopftrees.symfun import EMPTY_COMPOSITION, Composition, Partition, partitions_of
from hopftrees.trees import (
    DOT,
    EMPTY_FOREST,
    EMPTY_ORDERED,
    PlanarTree,
    RootedTree,
    bba_decode,
    sym_order,
)

# ---------------------------------------------------------------------------
# grafting products


def _vertex_paths(t):
    """The path (tuple of child indices) from the root to each vertex."""
    paths = [()]
    for i, c in enumerate(t.children):
        paths.extend((i,) + p for p in _vertex_paths(c))
    return paths


def _attach(node: RootedTree, path, extra) -> RootedTree:
    """node with the branches extra[p] added as children of the vertex at p."""
    kids = tuple(
        _attach(c, path + (i,), extra) for i, c in enumerate(node.children)
    )
    return RootedTree(kids + tuple(extra.get(path, ())))


def gl_product_oracle(t: RootedTree, u: RootedTree, ring=QQ) -> LinComb:
    """The grafting product by its definition: each of the |V(u)|^k
    assignments of the k root branches of t to the vertices of u, grafted
    and counted."""
    branches = t.children
    paths = _vertex_paths(u)
    counts: dict = {}
    for assign in itertools.product(range(len(paths)), repeat=len(branches)):
        extra: dict = {}
        for branch, vi in zip(branches, assign):
            extra.setdefault(paths[vi], []).append(branch)
        res = _attach(u, (), extra)
        counts[res] = counts.get(res, 0) + 1
    return LinComb(ring, counts)


def _interleavings(a, b):
    """Every merge of the sequences a and b that keeps the order of each."""
    if not a:
        yield b
        return
    if not b:
        yield a
        return
    for rest in _interleavings(a[1:], b):
        yield (a[0],) + rest
    for rest in _interleavings(a, b[1:]):
        yield (b[0],) + rest


def kp_product_oracle(t: PlanarTree, u: PlanarTree, ring=QQ) -> LinComb:
    """The planar grafting product as the asymmetric shuffle of bracket
    strings: the components of t's string, in order, inserted into the
    symbol sequence of u's string in all ways, each result parsed back."""
    comps = tuple("<" + c.bba + ">" for c in t.children)
    counts: dict = {}
    for merged in _interleavings(comps, tuple(u.bba)):
        tree = bba_decode("".join(merged))
        counts[tree] = counts.get(tree, 0) + 1
    return LinComb(ring, counts)


# ---------------------------------------------------------------------------
# the free-module kernels, one combination per pair
#
# These are the routes bilinear, TensorElem.mul, TensorElem.map_sides and
# apply_linear took before each pair's image went straight into the result:
# every image is a whole combination, added by accumulate with all its
# checks.


def bilinear_per_pair(f, a: LinComb, b: LinComb) -> LinComb:
    """Sum of c1*c2*f(b1, b2), each image accumulated on its own."""
    acc = LinComb.zero(a.ring)
    for b1, c1 in a.terms.items():
        for b2, c2 in b.terms.items():
            accumulate(acc, f(b1, b2), c1 * c2)
    return acc


def tensor_mul_per_pair(s: TensorElem, t: TensorElem, prod_left, prod_right):
    """(a x b)(a' x b') = (aa') x (bb'), each pair's tensor of side products
    built and accumulated on its own."""
    acc = TensorElem.zero(s.ring)
    for (a, b), c in s.terms.items():
        for (a2, b2), c2 in t.terms.items():
            pair = TensorElem.tensor(prod_left(a, a2), prod_right(b, b2))
            accumulate(acc, pair, c * c2)
    return acc


def map_sides_per_term(x: TensorElem, f_left, f_right, out_ring=None) -> TensorElem:
    """Linear maps on the two tensor factors, each term's tensor of side
    images built and accumulated on its own."""
    ring = out_ring or x.ring
    acc = TensorElem.zero(ring)
    for (a, b), c in x.terms.items():
        left, right = as_lincomb(ring, f_left(a)), as_lincomb(ring, f_right(b))
        accumulate(acc, TensorElem.tensor(left, right), c)
    return acc


def apply_linear_per_term(x: LinComb, f, out_ring=None) -> LinComb:
    """The linear extension of f, a basis image made a one-term combination
    before it is accumulated."""
    ring = out_ring or x.ring
    acc = LinComb.zero(ring)
    for b, c in x.terms.items():
        accumulate(acc, as_lincomb(ring, f(b)), c)
    return acc


def pairs_upto_nested(by_deg, total):
    """The basis pairs of total degree at most total, by the nested loops
    that freemodule._tuples_upto replaced."""
    for d1 in range(total + 1):
        for d2 in range(total - d1 + 1):
            for x in by_deg[d1]:
                for y in by_deg[d2]:
                    yield x, y


def triples_upto_nested(by_deg, total):
    """The basis triples of total degree at most total, likewise."""
    for d1 in range(total + 1):
        for d2 in range(total - d1 + 1):
            for d3 in range(total - d1 - d2 + 1):
                for x in by_deg[d1]:
                    for y in by_deg[d2]:
                        for z in by_deg[d3]:
                            yield x, y, z


# ---------------------------------------------------------------------------
# the Connes-Kreimer coproduct by root extraction


def _root_extraction(t: RootedTree, ring) -> TensorElem:
    forest = t.forest
    inner = ck_coproduct_recursive(bminus(t), ring)
    terms: dict = {(forest((t,)), forest()): ring.one}
    for (a, b), c in inner.terms.items():
        key = (a, forest((bplus(b),)))
        terms[key] = terms.get(key, ring.zero) + c
    return TensorElem(ring, terms)


def ck_coproduct_recursive(x, ring=QQ) -> TensorElem:
    """The H_K coproduct by the root-extraction recursion
    D(t) = t x 1 + (id x bplus) D(bminus t), extended over the forest x."""
    return extend_multiplicatively(ring, type(x)(), x.trees, _root_extraction)


# ---------------------------------------------------------------------------
# the loops the three coproduct kernels replaced


def gl_coproduct_masks(t: RootedTree, ring=QQ) -> TensorElem:
    """The kT coproduct over all 2^k subsets of the k labelled root
    branches."""
    branches = t.children
    k = len(branches)
    terms: dict = {}
    for mask in range(1 << k):
        left = RootedTree(branches[i] for i in range(k) if mask >> i & 1)
        right = RootedTree(branches[i] for i in range(k) if not mask >> i & 1)
        key = (left, right)
        terms[key] = terms.get(key, 0) + 1
    return TensorElem(ring, terms)


def _multiset_splits(lam: Partition):
    """All ordered pairs (mu, nu) of partitions with multiset union lam."""
    items = sorted(lam.multiplicities().items())
    choices = [range(m + 1) for _, m in items]
    for take in itertools.product(*choices):
        mu = []
        nu = []
        for (value, mult), k in zip(items, take):
            mu.extend([value] * k)
            nu.extend([value] * (mult - k))
        yield Partition(mu), Partition(nu)


def sym_coproduct_splits(lam: Partition, ring=QQ) -> TensorElem:
    """Sum of m_mu x m_nu over all multiset splittings of lambda."""
    terms: dict = {}
    for mu, nu in _multiset_splits(lam):
        terms[(mu, nu)] = terms.get((mu, nu), 0) + 1
    return TensorElem(ring, terms)


def nsym_coproduct_letters(w: Composition, ring=QQ) -> TensorElem:
    """The divided-power coproduct of each letter, multiplied in letter by
    letter on the word pairs."""
    acc = TensorElem.term(ring, EMPTY_COMPOSITION, EMPTY_COMPOSITION)
    for letter in w.parts:
        step: dict = {}
        for (left, right), c in acc.terms.items():
            for i in range(letter + 1):
                j = letter - i
                new_left = Composition(left.parts + ((i,) if i else ()))
                new_right = Composition(right.parts + ((j,) if j else ()))
                key = (new_left, new_right)
                step[key] = step.get(key, 0) + c
        acc = TensorElem(ring, step)
    return acc


# ---------------------------------------------------------------------------
# quasi-symmetric functions as truncated power series


def series_oracle(x: LinComb, nvars: int, max_degree: int | None = None) -> dict:
    """Expand a combination of M-basis elements as a truncated polynomial.

    Returns {exponent vector of length nvars: coefficient}.  Raises if some
    composition is longer than nvars (its expansion would be cut off) or
    exceeds an explicit degree cap.
    """
    out: dict[tuple, Fraction] = {}
    for comp, coeff in x.terms.items():
        if comp.length > nvars:
            raise ValueError(
                f"{comp!r} needs at least {comp.length} variables, got {nvars}"
            )
        if max_degree is not None and comp.weight > max_degree:
            raise ValueError(f"{comp!r} exceeds the degree cap {max_degree}")
        for positions in itertools.combinations(range(nvars), comp.length):
            exps = [0] * nvars
            for pos, part in zip(positions, comp.parts):
                exps[pos] = part
            key = tuple(exps)
            new = out.get(key, Fraction(0)) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


def series_product(d1: dict, d2: dict) -> dict:
    """The product of two truncated polynomials in series_oracle's form."""
    out: dict[tuple, Fraction] = {}
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            new = out.get(key, Fraction(0)) + c1 * c2
            if new:
                out[key] = new
            else:
                out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# orders of a multiset, by all k! permutations


def planar_realizations_by_permutations(t: RootedTree) -> tuple:
    """The planar realizations of t: the distinct orders of the root's
    children, found among all k! permutations and sorted by their keys,
    each with every combination of the children's realizations."""
    arrangements = sorted(
        set(itertools.permutations(t.children)),
        key=lambda arr: tuple(c.key for c in arr),
    )
    out = []
    for arr in arrangements:
        children = (planar_realizations_by_permutations(c) for c in arr)
        out.extend(PlanarTree(combo) for combo in itertools.product(*children))
    return tuple(out)


def arrangements_by_permutations(lam: Partition) -> list:
    """The distinct compositions with the parts of lam, found among all k!
    permutations of its k parts, in lexicographic order."""
    return [Composition(p) for p in sorted(set(itertools.permutations(lam.parts)))]


# ---------------------------------------------------------------------------
# tree statistics


def child_factorial_product(t) -> int:
    """Product of c(v)! over all vertices; accepts rooted or planar trees."""
    out = factorial(len(t.children))
    for c in t.children:
        out *= child_factorial_product(c)
    return out


# ---------------------------------------------------------------------------
# polynomial coefficients of the Dyson-Schwinger solution


def expanded_coefficient(t: RootedTree) -> Poly:
    """The commutative coefficient in factored form: the product over internal
    vertices of p(p-1)...(p-c(v)+1), divided by |Sym(t)|."""
    acc = ONE_POLY
    stack = [t]
    while stack:
        node = stack.pop()
        c = len(node.children)
        if c:
            acc = acc * binom_poly(c) * factorial(c)
            stack.extend(node.children)
    return acc * Fraction(1, sym_order(t))


def poly_compose(q: Poly, inner: Poly) -> Poly:
    """q with the polynomial inner substituted for p, by Horner's rule."""
    acc = Poly()
    for c in reversed(q.num):
        acc = acc * inner + c
    return acc * Fraction(1, q.den)


# ---------------------------------------------------------------------------
# the kappa/epsilon family over QQ
#
# Every product, coproduct and antipode of kT here runs over QQ on kappa_n's
# 1/|Sym t| weights directly: a second route to the values the special suite
# computes over ZZ on n! kappa_n.


def epsilon_over_qq(n: int) -> LinComb:
    """eps_n by its recursion eps_n = sum_i (-1)^(i-1) kappa_i o eps_{n-i}."""
    if n == 0:
        return LinComb.term(QQ, DOT)
    gl = gl_ops(QQ)
    acc = LinComb.zero(QQ)
    for i in range(1, n + 1):
        term = gl.product_lc(kappa(i), epsilon_over_qq(n - i))
        accumulate(acc, term, (-1) ** (i - 1))
    return acc


def kappa_antipode_over_qq(n: int) -> LinComb:
    return gl_ops(QQ).antipode_lc(kappa(n))


def divided_powers_over_qq(n: int) -> tuple:
    """The coproduct of kappa_n and sum_i kappa_i (x) kappa_{n-i}."""
    rhs = TensorElem.zero(QQ)
    for i in range(n + 1):
        accumulate(rhs, TensorElem.tensor(kappa(i), kappa(n - i)), 1)
    return gl_ops(QQ).coproduct_lc(kappa(n)), rhs


# ---------------------------------------------------------------------------
# the coproduct theorem's coefficients, one product chain per monomial
#
# q_{n,k} summed over the partitions of n-k with multinomial weights, and
# Q_{n,k} over the compositions of n-k: a second route to what
# dse.coproduct_coefficient reads off the convolution powers.


def compositions_of_length(n: int, k: int):
    """Length-k compositions of n (parts >= 1)."""
    if k == 0:
        return [()] if n == 0 else []
    out = []

    def gen(prefix, remaining, slots):
        if slots == 1:
            if remaining >= 1:
                out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            gen(prefix + (first,), remaining - first, slots - 1)

    gen((), n, k)
    return out


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
