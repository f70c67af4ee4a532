from fractions import Fraction

import pytest

from hopftrees import dse
from hopftrees.dse import (
    add_powers,
    coproduct_coefficient,
    coproduct_theorem_check,
    cp_coefficient,
    ladder_specialization_holds,
    solve_closed,
    solve_recursive,
    specialize,
)
from hopftrees.freemodule import LinComb, TensorElem
from hopftrees.hopf_trees import ck_ops, hf_ops
from hopftrees.scalar import P, Poly, QP, QQ, binom_of, binom_poly
from hopftrees.trees import (
    DOT,
    EMPTY_FOREST,
    Forest,
    OrderedForest,
    RootedTree,
    bba_decode,
    canonicalize,
    embedding_count,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    planar_ladder,
)

from oracles import Q_poly, expanded_coefficient, q_poly


@pytest.fixture(scope="module")
def sol():
    return solve_closed(6)


def hk_tree(t):
    return Forest((t,))


def hf_tree(t):
    return OrderedForest((t,))


def test_first_terms(sol):
    assert sol.hf(1) == LinComb.term(QP, hf_tree(planar_ladder(1)))
    assert sol.hf(2) == LinComb.term(QP, hf_tree(planar_ladder(2)), P)
    assert sol.hk(2) == LinComb.term(QP, hk_tree(ladder(2)), P)
    x3 = sol.hk(3)
    assert x3.coeff(hk_tree(ladder(3))) == P * P
    assert x3.coeff(hk_tree(RootedTree([DOT, DOT]))) == binom_poly(2)


def test_planar_star_coefficient(sol):
    star = hf_tree(bba_decode("<><><>"))
    assert sol.hf(4).coeff(star) == binom_poly(3)


def test_cp_examples():
    assert cp_coefficient(bba_decode("<><<>>")) == binom_poly(2) * P
    assert cp_coefficient(bba_decode("")) == Poly((1,))
    assert cp_coefficient(ladder(3)) == P * P
    # planarity does not matter
    assert cp_coefficient(bba_decode("<<>><>")) == cp_coefficient(
        bba_decode("<><<>>")
    )


def test_cp_coefficient_matches_fresh_vertex_product():
    # the memo keyed on child counts against binom(p, c) computed afresh
    # at every internal vertex, on planar trees and their rooted shapes
    def fresh(tree):
        acc = Poly((1,))
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.children:
                acc = acc * binom_of(P, len(node.children))
                stack.extend(node.children)
        return acc

    for n in range(9):
        for T in enumerate_planar(n):
            want = fresh(T)
            assert cp_coefficient(T) == want
            assert cp_coefficient(canonicalize(T)) == want


def test_shared_coefficients_are_immutable():
    tree = bba_decode("<><<>>")
    for q in (P, binom_poly(3), cp_coefficient(tree)):
        with pytest.raises(AttributeError):
            q.coeffs = (5,)
        with pytest.raises(AttributeError):
            del q.coeffs
    third, half, sixth = Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)
    assert P.coeffs == (0, 1)
    assert binom_poly(3).coeffs == (0, third, -half, sixth)
    assert cp_coefficient(tree).coeffs == (0, 0, -half, half)


def test_recursive_parts_share_their_coefficients():
    # every coefficient of the recursion is a product of binomials, and equal
    # products are one object: a part holds one object per distinct value
    sol = solve_recursive(8)
    for n in range(1, 9):
        for part in (sol.hf(n), sol.hk(n)):
            coeffs = part.terms.values()
            assert len({id(c) for c in coeffs}) == len(set(coeffs))
    assert len(sol.hf(8).terms) == 429 and len(set(sol.hf(8).terms.values())) == 15


def test_recursive_small_degrees_by_hand():
    # X_{n+1} = sum_k binom(p, k) B+(sum of ordered k-fold products of lower
    # parts of total degree n), expanded by hand up to degree 4
    def planar(terms):
        return LinComb(QP, {hf_tree(bba_decode(s)): c for s, c in terms.items()})

    p2 = binom_poly(2)
    want = {
        1: planar({"": 1}),
        2: planar({"<>": P}),
        3: planar({"<<>>": P * P, "<><>": p2}),
        4: planar(
            {
                "<<<>>>": P * P * P,  # B+(X_3): ladder
                "<<><>>": P * p2,  # B+(X_3): grafted cherry
                "<><<>>": p2 * P,  # B+(X_1 X_2)
                "<<>><>": p2 * P,  # B+(X_2 X_1)
                "<><><>": binom_poly(3),  # B+(X_1 X_1 X_1)
            }
        ),
    }
    for n in range(1, 5):
        rec = solve_recursive(n)
        assert sorted(rec.hf_terms) == list(range(1, n + 1))
        for m in range(1, n + 1):
            assert rec.hf(m) == want[m]


def test_recursive_equals_closed_small():
    rec = solve_recursive(9)
    clo = solve_closed(9)
    for n in range(1, 10):
        assert rec.hf(n) == clo.hf(n)
        assert rec.hk(n) == clo.hk(n)


def test_rho_projection_invariant():
    from hopftrees.morphisms import rho

    # the H_K part comes from its own recursion, so this compares two routes
    rec = solve_recursive(9)
    for n in range(1, 10):
        assert rho(rec.hf(n)) == rec.hk(n)


def test_q_poly_examples(sol):
    ck = ck_ops(QP)
    powers = add_powers(ck, sol.hk_terms, {}, range(1, 6))
    assert coproduct_coefficient(ck, powers, 3, 3) == LinComb.term(QP, EMPTY_FOREST)
    assert coproduct_coefficient(ck, powers, 2, 1) == sol.hk(1).scale(P)
    with pytest.raises(ValueError):
        coproduct_coefficient(ck, powers, 2, 3)


def test_Q_poly_expansion(sol):
    hf = hf_ops(QP)
    x1x1 = hf.product_lc(sol.hf(1), sol.hf(1))
    expected = sol.hf(2).scale(binom_poly(1)) + x1x1.scale(binom_poly(2))
    powers = add_powers(hf, sol.hf_terms, {}, range(1, 6))
    assert coproduct_coefficient(hf, powers, 3, 1) == expected


def test_coproduct_coefficient_matches_both_oracles():
    # the one coefficient over the convolution powers against the partition
    # route in H_K and the composition route in H_F
    sol = solve_closed(8)
    for ops, parts, oracle in (
        (ck_ops(QP), sol.hk_terms, q_poly),
        (hf_ops(QP), sol.hf_terms, Q_poly),
    ):
        powers = add_powers(ops, parts, {}, range(1, 8))
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert coproduct_coefficient(ops, powers, n, k) == oracle(n, k, sol)


def test_rho_maps_planar_coefficients_to_commutative_ones():
    # the paper's square on the coproduct theorem: rho(Q_{n,k}) = q_{n,k}
    from hopftrees.morphisms import rho

    sol = solve_closed(7)
    ck, hf = ck_ops(QP), hf_ops(QP)
    hk_powers = add_powers(ck, sol.hk_terms, {}, range(1, 7))
    hf_powers = add_powers(hf, sol.hf_terms, {}, range(1, 7))
    for n in range(1, 8):
        for k in range(1, n + 1):
            planar = coproduct_coefficient(hf, hf_powers, n, k)
            assert rho(planar) == coproduct_coefficient(ck, hk_powers, n, k)


def test_coproduct_display_degree_two(sol):
    ck = ck_ops(QP)
    lhs = ck.coproduct_lc(sol.hk(2))
    one = LinComb.term(QP, EMPTY_FOREST)
    rhs = (
        TensorElem.tensor(sol.hk(2), one)
        + TensorElem.tensor(sol.hk(1).scale(P), sol.hk(1))
        + TensorElem.tensor(one, sol.hk(2))
    )
    assert lhs == rhs


def test_coproduct_theorem_small(sol):
    rep = coproduct_theorem_check(4, 4, sol)
    assert rep.passed, [e.line() for e in rep.entries if not e.ok]


@pytest.mark.parametrize(
    "algebra, laws",
    [
        ("H_K", {"commutative coproduct formula", "rational specialization at p=2"}),
        ("H_F", {"planar coproduct formula"}),
    ],
)
def test_coproduct_formula_laws_show_the_difference(monkeypatch, sol, algebra, laws):
    """One term added to the coefficient Q_{3,1} of one algebra: the formula
    laws built from it fail at n=3, each witness showing lhs - rhs, a
    combination of tensor pairs."""
    exact = dse.coproduct_coefficient

    def corrupted(ops, powers, n, k):
        out = exact(ops, powers, n, k)
        if (n, k) == (3, 1) and ops.name == algebra:
            out = out + LinComb.term(QP, out.sorted_terms()[0][0])
        return out

    monkeypatch.setattr(dse, "coproduct_coefficient", corrupted)
    failed = {e.law: e.witness for e in coproduct_theorem_check(4, 4, sol).entries if not e.ok}
    assert set(failed) == laws
    for witness in failed.values():
        assert witness.startswith("n=3; lhs - rhs = ") and "(x)" in witness


def test_specializations(sol):
    for n in range(1, 7):
        assert ladder_specialization_holds(sol, n)
    # p = 2 evaluation of x_3: 4*l3 + cherry
    x3_at_2 = specialize(sol.hk(3), 2)
    assert x3_at_2 == LinComb(
        QQ,
        {hk_tree(ladder(3)): 4, hk_tree(RootedTree([DOT, DOT])): 1},
    )


def test_expanded_coefficient_identity():
    for n in range(7):
        for t in enumerate_rooted(n):
            assert expanded_coefficient(t) == cp_coefficient(t) * embedding_count(t)


def test_solution_degrees_homogeneous(sol):
    for n in range(1, 7):
        assert all(f.weight == n for f in sol.hf(n).support())
        assert all(f.weight == n for f in sol.hk(n).support())
        assert all(len(f.trees) == 1 for f in sol.hf(n).support())
