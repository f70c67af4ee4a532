from fractions import Fraction

import pytest

from hopftrees import morphisms
from hopftrees.freemodule import LinComb, pairing_extend
from hopftrees.hopf_trees import bplus, gl_ops, hf_ops, kp_ops, pairing_kt_hk
from hopftrees.morphisms import (
    Phi,
    Phi_star,
    diagram_check,
    phi,
    phi_star,
    rho,
    rho_star,
    tau_star,
)
from hopftrees.scalar import QQ
from hopftrees.symfun import (
    Composition,
    Partition,
    basis_expand,
    nsym_ops,
    partitions_of,
    sym_ops,
    sym_product,
    tau,
)
from hopftrees.trees import (
    DOT,
    Forest,
    OrderedForest,
    PDOT,
    RootedTree,
    T_comp,
    bba_decode,
    enumerate_rooted,
    ladder,
    planar_ladder,
)

CHERRY = RootedTree([DOT, DOT])


def test_phi_on_generators():
    assert phi(basis_expand("e", 2)) == LinComb.term(QQ, Forest([ladder(2)]))
    assert phi(basis_expand("e", 1)) == LinComb.term(QQ, Forest([DOT]))
    e1_squared = sym_product(basis_expand("e", 1), basis_expand("e", 1))
    assert phi(e1_squared) == LinComb.term(QQ, Forest([DOT, DOT]))


def test_phi_is_algebra_map_on_h():
    # h_2 = e_1^2 - e_2 maps to the two-dot forest minus the two-chain
    img = phi(basis_expand("h", 2))
    assert img == LinComb(
        QQ, {Forest([DOT, DOT]): 1, Forest([ladder(2)]): -1}
    )


def test_Phi_examples():
    assert Phi(LinComb.term(QQ, Composition([2]))) == LinComb.term(
        QQ, OrderedForest([planar_ladder(2)])
    )
    w21 = Phi(LinComb.term(QQ, Composition([2, 1])))
    w12 = Phi(LinComb.term(QQ, Composition([1, 2])))
    assert w21 == LinComb.term(QQ, OrderedForest([planar_ladder(2), PDOT]))
    assert w21 != w12
    assert Phi(LinComb.term(QQ, Composition())) == LinComb.term(QQ, OrderedForest())


def test_rho_examples():
    f = LinComb.term(QQ, OrderedForest([bba_decode("<><<>>")]))
    assert rho(f) == LinComb.term(QQ, Forest([RootedTree([DOT, ladder(2)])]))
    t1, t2 = bba_decode("<<>>"), bba_decode("<><>")
    a = rho(LinComb.term(QQ, OrderedForest([t1, t2])))
    b = rho(LinComb.term(QQ, OrderedForest([t2, t1])))
    assert a == b


def test_phi_star_examples():
    assert phi_star(CHERRY) == LinComb.term(QQ, Partition([1, 1]), 2)
    assert phi_star(ladder(3)) == LinComb.term(QQ, Partition([2]))
    assert phi_star(RootedTree([CHERRY])).is_zero()
    assert phi_star(DOT) == LinComb.term(QQ, Partition())


def test_Phi_star_examples():
    assert Phi_star(T_comp((2, 1))) == LinComb.term(QQ, Composition([2, 1]))
    assert Phi_star(bba_decode("<<><>>")).is_zero()
    assert Phi_star(PDOT) == LinComb.term(QQ, Composition())


def test_rho_star_examples():
    assert rho_star(DOT) == LinComb.term(QQ, PDOT)
    img = rho_star(RootedTree([DOT, ladder(2)]))
    assert img == LinComb(
        QQ, {bba_decode("<><<>>"): 1, bba_decode("<<>><>"): 1}
    )
    assert rho_star(CHERRY) == LinComb.term(QQ, bba_decode("<><>"), 2)


def test_tau_star_examples():
    assert tau_star(Partition([2])) == LinComb.term(QQ, Composition([2]))
    img = tau_star(Partition([2, 1, 1]))
    assert img == LinComb(
        QQ,
        {
            Composition([2, 1, 1]): 1,
            Composition([1, 2, 1]): 1,
            Composition([1, 1, 2]): 1,
        },
    )
    assert tau_star(LinComb.term(QQ, Partition())) == LinComb.term(QQ, Composition())


def test_d2_on_cherry_by_hand():
    lhs = Phi_star(rho_star(CHERRY))
    rhs = tau_star(phi_star(CHERRY))
    assert lhs == rhs == LinComb.term(QQ, Composition([1, 1]), 2)


def test_d1_on_word_by_hand():
    w = LinComb.term(QQ, Composition([2]))
    assert rho(Phi(w)) == phi(tau(w))


@pytest.mark.parametrize("diagram", ["d1", "d2"])
def test_diagrams_commute(diagram):
    rep = diagram_check(diagram, 4)
    assert rep.passed, [e.line() for e in rep.entries if not e.ok]


# each map: its name in the diagram report, its square, the ops of its domain
MORPHISMS = {
    "phi": ("phi", "d1", sym_ops),
    "Phi": ("Phi", "d1", nsym_ops),
    "rho": ("rho", "d1", hf_ops),
    "tau": ("tau", "d1", nsym_ops),
    "phi_star": ("phi*", "d2", gl_ops),
    "Phi_star": ("Phi*", "d2", kp_ops),
    "rho_star": ("rho*", "d2", gl_ops),
    "tau_star": ("tau*", "d2", sym_ops),
}


def _corrupt(monkeypatch, name):
    """Add 1 to one coefficient of the image under the named map of one
    degree-2 basis element y, extended linearly: x maps to
    f(x) + x.coeff(y)*target.  diagram_check reaches the maps through the
    morphisms module's globals.  Returns (y, target)."""
    f = getattr(morphisms, name)
    dom = MORPHISMS[name][2](QQ)
    y = next(b for b in dom.basis(2) if not f(dom.term(b)).is_zero())
    target = f(dom.term(y)).sorted_terms()[0][0]

    def corrupted(x):
        if not isinstance(x, LinComb):
            x = LinComb.term(QQ, x)
        return f(x) + LinComb.term(x.ring, target, x.coeff(y))

    monkeypatch.setattr(morphisms, name, corrupted)
    return y, target


@pytest.mark.parametrize("name", MORPHISMS)
def test_diagram_check_catches_one_wrong_morphism_coefficient(monkeypatch, name):
    label, diagram, _ = MORPHISMS[name]
    assert diagram_check(diagram, 3).passed
    _corrupt(monkeypatch, name)
    failed = [e.law for e in diagram_check(diagram, 3).entries if not e.ok]
    assert failed
    # only laws of the corrupted map and the square itself fail
    assert all(law.startswith(f"{label}: ") or " = " in law for law in failed)


def test_square_witness_shows_lhs_minus_rhs(monkeypatch):
    """phi, the last arrow of rho(Phi(E)) = phi(tau(E)), corrupted: the right
    side of the square at E moves by c*target, where c is the coefficient of
    y in tau(E), so the witness shows that one term of lhs - rhs and not the
    two whole sides."""
    from hopftrees.symfun import compositions_of

    y, target = _corrupt(monkeypatch, "phi")
    entries = {e.law: e for e in diagram_check("d1", 3).entries}
    nsym = nsym_ops(QQ)
    failed = 0
    for word in (w for n in range(4) for w in compositions_of(n)):
        entry = entries[f"rho(Phi(E{word.parts})) = phi(tau(E{word.parts}))"]
        c = tau(nsym.term(word)).coeff(y)
        if c:
            diff = LinComb.term(QQ, target, -c).render()
            assert entry.witness == f"{word!r}; lhs - rhs = {diff}"
            failed += 1
        else:
            assert entry.ok and entry.witness is None
    assert failed


def test_square_commutation_at_weight_six():
    # the commutation itself extends one degree past the morphism sweep
    from hopftrees.symfun import compositions_of

    for word in compositions_of(6):
        w = LinComb.term(QQ, word)
        assert rho(Phi(w)) == phi(tau(w))
    for t in enumerate_rooted(5):
        assert Phi_star(rho_star(t)) == tau_star(phi_star(t))


def test_adjointness_of_phi_and_phi_star():
    # phi* is dual to phi once Sym is self-paired through the m/e duality:
    # pairing t against the lift of an elementary product e_lambda recovers
    # exactly the m_lambda coefficient of phi*(t)
    from hopftrees.symfun import product_expansion

    for n in range(6):
        for t in enumerate_rooted(n):
            for lam in partitions_of(n):
                image = phi(product_expansion("e", lam.parts, QQ))
                lhs = pairing_extend(
                    pairing_kt_hk,
                    LinComb.term(QQ, t),
                    image.apply_linear(lambda f: bplus(f)),
                )
                rhs = phi_star(t).coeff(lam)
                assert lhs == rhs


def test_adjointness_bilinear_form():
    # the same duality stated for arbitrary elements: pairing the tree side
    # against phi(x) agrees with extracting e-expansion coefficients of x
    # against the monomial coefficients of phi*(t)
    from hopftrees.symfun import Partition as Par
    from hopftrees.symfun import to_e_products

    x = basis_expand("h", 2)  # = e_{1,1} - e_2
    e_coeffs = {Par(word): c for c, word in to_e_products(x)}
    for t in enumerate_rooted(2):
        lhs = pairing_extend(
            pairing_kt_hk,
            LinComb.term(QQ, t),
            phi(x).apply_linear(lambda f: bplus(f)),
        )
        rhs = sum(
            (c * phi_star(t).coeff(lam) for lam, c in e_coeffs.items()),
            start=Fraction(0),
        )
        assert lhs == rhs
