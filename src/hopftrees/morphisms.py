"""The eight Hopf-algebra maps connecting the tree algebras with Sym/QSym/NSym,
and exhaustive commutation checks for the two squares they form.

Square one (d1): NSym -> H_F -> H_K agrees with NSym -> Sym -> H_K.
Square two (d2), the dual: kT -> kP -> QSym agrees with kT -> Sym -> QSym.
"""

from __future__ import annotations

from .freemodule import (
    HopfOps,
    LinComb,
    Report,
    _tuples_upto,
    as_lincomb,
    difference_witness,
)
from .scalar import QQ
from .symfun import (
    Composition,
    Partition,
    compositions_of,
    nsym_ops,
    qsym_ops,
    sym_ops,
    tau,
    tau_star,
    to_e_products,
)
from .hopf_trees import ck_ops, gl_ops, hf_ops, kp_ops
from .trees import (
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    canonicalize,
    enumerate_rooted,
    ladder,
    planar_ladder,
    planar_realizations,
    sym_order,
)

# ---------------------------------------------------------------------------
# the four downward/forward maps


def phi(x: LinComb) -> LinComb:
    """Algebra map Sym -> H_K determined by sending the elementary generator
    of degree i to the i-vertex ladder; arbitrary input is first written in
    products of elementary generators."""
    return LinComb(
        x.ring,
        [(Forest(ladder(i) for i in word), c) for c, word in to_e_products(x)],
    )


def Phi(x: LinComb) -> LinComb:
    """NSym -> H_F: the E-word (i_1, ..., i_k) maps to the ordered forest of
    ladders of those lengths."""
    return x.apply_linear(
        lambda word: OrderedForest(planar_ladder(i) for i in word.parts)
    )


def rho(x: LinComb) -> LinComb:
    """H_F -> H_K: forget planarity of each tree and the order of the forest."""
    return x.apply_linear(
        lambda f: Forest(canonicalize(t) for t in f.trees)
    )


# ---------------------------------------------------------------------------
# the four dual maps


def _is_ladder(t) -> bool:
    while t.children:
        if len(t.children) > 1:
            return False
        t = t.children[0]
    return True


def phi_star(x) -> LinComb:
    """kT -> Sym: a root over a forest of ladders with part sizes lambda maps
    to |Sym| times m_lambda, anything else to zero."""
    x = as_lincomb(QQ, x)

    def on_tree(t: RootedTree) -> LinComb:
        if all(_is_ladder(c) for c in t.children):
            lam = Partition(c.size for c in t.children)
            return LinComb.term(x.ring, lam, sym_order(t))
        return LinComb.zero(x.ring)

    return x.apply_linear(on_tree)


def Phi_star(x) -> LinComb:
    """kP -> QSym: a root over ladders of sizes (i_1, ..., i_k) in order maps
    to the monomial quasi-symmetric function of that composition."""
    x = as_lincomb(QQ, x)

    def on_tree(t: PlanarTree) -> LinComb:
        if all(_is_ladder(c) for c in t.children):
            return LinComb.term(x.ring, Composition(c.size for c in t.children))
        return LinComb.zero(x.ring)

    return x.apply_linear(on_tree)


def rho_star(x) -> LinComb:
    """kT -> kP: |Sym(t)| times the sum of all planar realizations of t."""
    x = as_lincomb(QQ, x)

    def on_tree(t: RootedTree) -> LinComb:
        return LinComb(x.ring, {T: sym_order(t) for T in planar_realizations(t)})

    return x.apply_linear(on_tree)


# tau*, the inclusion Sym -> QSym, is symfun.tau_star: the Sym product goes
# through it.


# ---------------------------------------------------------------------------
# diagram checks


def _check_hopf_morphism(
    rep: Report, name: str, dom: HopfOps, cod: HopfOps, f, max_degree: int
):
    """f must preserve unit, degree, products and coproducts on the range."""
    by_deg = {n: list(dom.basis(n)) for n in range(max_degree + 1)}
    elems = [b for n in range(max_degree + 1) for b in by_deg[n]]

    unit = difference_witness(dom.unit, f(dom.one_lc()), cod.one_lc())
    rep.add(f"{name}: unit", unit is None, witness=unit)

    def degree_ok(b):
        img = f(dom.term(b))
        want = dom.degree(b)
        if any(cod.degree(x) != want for x in img.support()):
            return repr(b)
        return None

    rep.law(f"{name}: degree preserved", elems, degree_ok)

    def product_ok(pair):
        x, y = pair
        lhs = f(dom.product(x, y))
        rhs = cod.product_lc(f(dom.term(x)), f(dom.term(y)))
        return difference_witness(pair, lhs, rhs)

    rep.law(f"{name}: products", _tuples_upto(by_deg, max_degree, 2), product_ok)

    def coproduct_ok(b):
        lhs = dom.coproduct(b).map_sides(
            lambda u: f(dom.term(u)), lambda u: f(dom.term(u)), out_ring=cod.ring
        )
        rhs = cod.coproduct_lc(f(dom.term(b)))
        return difference_witness(b, lhs, rhs)

    rep.law(f"{name}: coproducts", elems, coproduct_ok)


def diagram_check(diagram: str, max_degree: int) -> Report:
    """Verify commutation of the requested square and that every involved
    arrow is a morphism of Hopf algebras on the given range."""
    rep = Report(f"diagram {diagram}", max_degree)
    if diagram == "d1":
        nsym, sym, hf, ck = nsym_ops(QQ), sym_ops(QQ), hf_ops(QQ), ck_ops(QQ)
        for word in (w for n in range(max_degree + 1) for w in compositions_of(n)):
            witness = difference_witness(
                word, rho(Phi(nsym.term(word))), phi(tau(nsym.term(word)))
            )
            rep.add(
                f"rho(Phi(E{word.parts})) = phi(tau(E{word.parts}))",
                witness is None,
                degree=word.weight,
                witness=witness,
            )
        _check_hopf_morphism(rep, "Phi", nsym, hf, Phi, max_degree)
        _check_hopf_morphism(rep, "tau", nsym, sym, tau, max_degree)
        _check_hopf_morphism(rep, "rho", hf, ck, rho, max_degree)
        _check_hopf_morphism(rep, "phi", sym, ck, phi, max_degree)
    elif diagram == "d2":
        gl, kp, sym, qsym = gl_ops(QQ), kp_ops(QQ), sym_ops(QQ), qsym_ops(QQ)
        for t in (t for n in range(max_degree + 1) for t in enumerate_rooted(n)):
            witness = difference_witness(
                t, Phi_star(rho_star(t)), tau_star(phi_star(t))
            )
            rep.add(
                f"Phi*(rho*({t!r})) = tau*(phi*({t!r}))",
                witness is None,
                degree=t.size - 1,
                witness=witness,
            )
        _check_hopf_morphism(rep, "rho*", gl, kp, rho_star, max_degree)
        _check_hopf_morphism(rep, "phi*", gl, sym, phi_star, max_degree)
        _check_hopf_morphism(rep, "Phi*", kp, qsym, Phi_star, max_degree)
        _check_hopf_morphism(rep, "tau*", sym, qsym, tau_star, max_degree)
    else:
        raise ValueError(f"unknown diagram {diagram!r}")
    return rep
