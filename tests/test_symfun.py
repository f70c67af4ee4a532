import copy
import pickle

import pytest

from hopftrees import symfun
from hopftrees.freemodule import LinComb, TensorElem, generic_antipode
from hopftrees.scalar import QQ
from hopftrees.symfun import (
    Composition,
    Partition,
    basis_expand,
    coarsenings,
    compositions_of,
    distinct_arrangements,
    eh_identity_check,
    nsym_coproduct,
    nsym_ops,
    nsym_product,
    partitions_of,
    product_expansion,
    qsym_antipode,
    qsym_coproduct,
    qsym_ops,
    qsym_product,
    qsym_product_comp,
    sym_coproduct,
    sym_from_qsym,
    sym_pairing,
    sym_pairing_elems,
    sym_product,
    tau,
    tau_star,
    to_e_products,
    to_h_basis,
)
from hopftrees.trees import degree_ceiling

from oracles import arrangements_by_permutations, series_oracle, series_product

C = Composition
P = Partition


def M(*parts):
    return LinComb.term(QQ, C(parts))


def m(*parts):
    return LinComb.term(QQ, P(parts))


def test_index_types():
    assert P([1, 2, 1]).parts == (2, 1, 1)
    assert P([2, 1, 1]).multiplicities() == {2: 1, 1: 2}
    assert P([2, 1, 1]).sym_order() == 2
    assert P([3, 1]).conjugate() == P([2, 1, 1])
    assert C([2, 1]).reverse() == C([1, 2])
    assert C([2, 1]).partition() == P([2, 1])
    with pytest.raises(ValueError):
        P([0])
    with pytest.raises(ValueError):
        C([1, -1])


def test_equal_indices_are_one_object():
    assert P((1, 2)) is P((2, 1)) is P([2, 1])
    assert P((1, 2)) is next(p for p in partitions_of(3) if p.parts == (2, 1))
    assert C([2, 1]).partition() is P((1, 2))
    assert C((1, 2)) is C([1, 2]) is C((2, 1)).reverse()
    assert C((1, 2)) is not C((2, 1))


@pytest.mark.parametrize("value", [P((2, 1)), C((1, 2)), P(()), C(())])
def test_indices_are_immutable_and_copy_to_themselves(value):
    parts = value.parts
    with pytest.raises(AttributeError):
        value.parts = (3,)
    with pytest.raises(AttributeError):
        del value.parts
    assert value.parts is parts
    copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    assert all(c is value for c in copies)


@pytest.mark.parametrize(
    "cls, parts", [(P, [0]), (P, (2, -1)), (C, [1, 0]), (C, (-3,))]
)
def test_non_positive_parts_are_rejected_every_time(cls, parts):
    # the second call raises too: a rejected value is never stored
    for _ in range(2):
        with pytest.raises(ValueError, match=f"{cls.__name__.lower()} parts must"):
            cls(parts)


def test_partition_composition_enumeration():
    assert [p.parts for p in partitions_of(4)] == [
        (1, 1, 1, 1),
        (2, 1, 1),
        (2, 2),
        (3, 1),
        (4,),
    ]
    assert len(compositions_of(5)) == 16
    assert coarsenings(C([1, 1, 1])) == [
        C([1, 1, 1]),
        C([2, 1]),
        C([1, 2]),
        C([3]),
    ]
    assert sorted(c.parts for c in distinct_arrangements(P([2, 1, 1]))) == [
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]


def test_arrangements_match_permutation_walk():
    # the same compositions in the same order, exhaustively to degree 8
    for n in range(9):
        for lam in partitions_of(n):
            assert distinct_arrangements(lam) == arrangements_by_permutations(lam)


def test_all_ones_have_one_arrangement_under_the_default_ceiling(monkeypatch):
    monkeypatch.delenv("HOPFTREES_MAX_DEGREE", raising=False)
    ones = P([1] * degree_ceiling())
    assert distinct_arrangements(ones) == [C([1] * degree_ceiling())]


def test_quasi_shuffle_examples():
    assert qsym_product_comp(C([1]), C([1])) == M(1, 1).scale(2) + M(2)
    assert qsym_product(M(2, 1), LinComb.term(QQ, C())) == M(2, 1)
    # coefficient of m_{2,1,1} in m_1 * m_{2,1} is 2
    prod = sym_product(m(1), m(2, 1))
    assert prod.coeff(P([2, 1, 1])) == 2


def test_series_oracle_definition():
    assert series_oracle(M(2), 2) == {(2, 0): 1, (0, 2): 1}
    assert series_oracle(M(1, 1), 2) == {(1, 1): 1}
    e2 = tau_star(basis_expand("e", 2))
    assert series_oracle(e2, 3) == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    with pytest.raises(ValueError):
        series_oracle(M(1, 1, 1), 2)


@pytest.mark.parametrize("total", range(1, 7))
def test_quasi_shuffle_against_series_oracle(total):
    for a in range(total + 1):
        b = total - a
        for i in compositions_of(a):
            for j in compositions_of(b):
                nvars = max(1, i.length + j.length)
                lhs = series_oracle(
                    qsym_product(LinComb.term(QQ, i), LinComb.term(QQ, j)), nvars
                )
                rhs = series_product(
                    series_oracle(LinComb.term(QQ, i), nvars),
                    series_oracle(LinComb.term(QQ, j), nvars),
                )
                assert lhs == rhs


def test_qsym_coproduct_examples():
    cop = qsym_coproduct(C([2, 1, 1]))
    assert cop == TensorElem(
        QQ,
        {
            (C(), C([2, 1, 1])): 1,
            (C([2]), C([1, 1])): 1,
            (C([2, 1]), C([1])): 1,
            (C([2, 1, 1]), C()): 1,
        },
    )
    assert qsym_coproduct(C()) == TensorElem.term(QQ, C(), C())
    assert qsym_coproduct(C([3])) == TensorElem(
        QQ, {(C([3]), C()): 1, (C(), C([3])): 1}
    )


def test_qsym_antipode_examples():
    assert qsym_antipode(C([2])) == LinComb.term(QQ, C([2]), -1)
    assert qsym_antipode(C([1, 1])) == M(1, 1) + M(2)
    assert qsym_antipode(C([2, 1])) == M(1, 2) + M(3)


@pytest.mark.parametrize("n", range(7))
def test_qsym_antipode_matches_generic(n):
    ops = qsym_ops(QQ)
    for comp in compositions_of(n):
        assert qsym_antipode(comp) == generic_antipode(ops, comp)


def test_qsym_antipode_wrong_refinement_reading_fails():
    # summing over refinements instead of coarsenings breaks the convolution
    # law already at the one-part composition (2)
    def wrong_antipode(i):
        refinements = [j for j in compositions_of(i.weight) if i in coarsenings(j)]
        sign = -1 if i.length % 2 else 1
        return LinComb(QQ, {j.reverse(): sign for j in refinements})

    ops = qsym_ops(QQ)
    target = C([2])
    acc = LinComb.zero(QQ)
    for (x, y), c in qsym_coproduct(target).terms.items():
        acc = acc + ops.product_lc(wrong_antipode(x), ops.term(y)).scale(c)
    assert not acc.is_zero()  # convolution should have produced zero


def test_sym_coproduct_display():
    cop = sym_coproduct(P([2, 1, 1]))
    expected = TensorElem(
        QQ,
        {
            (P(), P([2, 1, 1])): 1,
            (P([1]), P([2, 1])): 1,
            (P([2]), P([1, 1])): 1,
            (P([1, 1]), P([2])): 1,
            (P([2, 1]), P([1])): 1,
            (P([2, 1, 1]), P()): 1,
        },
    )
    assert cop == expected
    assert sym_coproduct(P()) == TensorElem.term(QQ, P(), P())
    assert sym_coproduct(P([4])) == TensorElem(
        QQ, {(P([4]), P()): 1, (P(), P([4])): 1}
    )


def test_basis_expand():
    assert basis_expand("e", 2) == m(1, 1)
    assert basis_expand("h", 2) == m(2) + m(1, 1)
    assert basis_expand("p", 3) == m(3)
    # e_0 = h_0 = 1; p_0 and negative indices are refused
    assert basis_expand("e", 0) == basis_expand("h", 0) == m()
    for name, k in (("p", 0), ("e", -1), ("h", -1), ("q", 1)):
        with pytest.raises(ValueError):
            basis_expand(name, k)


def test_h_equals_sum_of_M():
    for k in range(1, 7):
        embedded = tau_star(basis_expand("h", k))
        expected = LinComb(QQ, {c: 1 for c in compositions_of(k)})
        assert embedded == expected


def test_embedding_intertwines_coproducts():
    for n in range(7):
        for lam in partitions_of(n):
            lhs = TensorElem.zero(QQ)
            for (a, b), c in sym_coproduct(lam).terms.items():
                lhs = lhs + TensorElem.tensor(
                    tau_star(LinComb.term(QQ, a)), tau_star(LinComb.term(QQ, b))
                ).scale(c)
            rhs = TensorElem.zero(QQ)
            for comp, c in tau_star(LinComb.term(QQ, lam)).terms.items():
                rhs = rhs + qsym_coproduct(comp).scale(c)
            assert lhs == rhs


def test_eh_identity():
    rep = eh_identity_check(6)
    assert rep.passed
    # degree 2 spelled out: e_2 - e_1 h_1 + h_2 = 0
    acc = (
        basis_expand("e", 2)
        - sym_product(basis_expand("e", 1), basis_expand("h", 1))
        + basis_expand("h", 2)
    )
    assert acc.is_zero()


@pytest.mark.parametrize(
    "law, witness",
    [
        ("sum (-1)^j e_i h_j = 0", f"degree 2; lhs - rhs = 1*{P([2])!r}"),
        ("S(e_i) = (-1)^i h_i", f"e_2; lhs - rhs = -1*{P([2])!r}"),
    ],
    ids=["alternating sum", "antipode"],
)
def test_eh_identity_catches_one_wrong_coefficient(monkeypatch, law, witness):
    """1 added to the coefficient of m_2 in h_2: both laws fail at degree 2
    and show the added term."""
    exact = symfun.basis_expand

    def basis_expand(name, k, ring=QQ):
        out = exact(name, k, ring)
        return out + LinComb.term(ring, P([2])) if (name, k) == ("h", 2) else out

    monkeypatch.setattr(symfun, "basis_expand", basis_expand)
    entry = next(e for e in eh_identity_check(4).entries if e.law == law)
    assert not entry.ok and entry.witness == witness


def test_nsym_ops():
    w21 = nsym_product(C([2]), C([1]))
    assert w21 == LinComb.term(QQ, C([2, 1]))
    assert w21 != LinComb.term(QQ, C([1, 2]))
    assert nsym_coproduct(C([2])) == TensorElem(
        QQ, {(C([2]), C()): 1, (C([1]), C([1])): 1, (C(), C([2])): 1}
    )
    ops = nsym_ops(QQ)
    assert generic_antipode(ops, C([1])) == LinComb.term(QQ, C([1]), -1)


def test_tau_examples():
    assert tau(LinComb.term(QQ, C([1]))) == m(1)
    assert tau(LinComb.term(QQ, C([1, 1]))) == m(1, 1).scale(2) + m(2)
    assert tau(LinComb.term(QQ, C([2]))) == m(1, 1)


def test_sym_pairing_examples():
    assert sym_pairing(P([2, 1]), P([2, 1])) == 1
    assert sym_pairing(P([2, 1]), P([1, 1, 1])) == 0


@pytest.mark.parametrize("total", range(1, 6))
def test_pairing_h_products_vs_monomials(total):
    # (h_mu h_nu, m_lambda) = delta_{mu cup nu, lambda}
    for a in range(total + 1):
        for mu in partitions_of(a):
            for nu in partitions_of(total - a):
                prod = sym_product(
                    product_expansion("h", mu.parts, QQ),
                    product_expansion("h", nu.parts, QQ),
                )
                for lam in partitions_of(total):
                    want = 1 if mu.union(nu) == lam else 0
                    assert sym_pairing_elems(prod, m(*lam.parts)) == want


def test_to_e_products_round_trip():
    for n in range(6):
        for lam in partitions_of(n):
            x = LinComb.term(QQ, lam)
            rebuilt = LinComb.zero(QQ)
            for coeff, word in to_e_products(x):
                rebuilt = rebuilt + product_expansion("e", word, QQ).scale(coeff)
            assert rebuilt == x


def test_to_h_basis_round_trip():
    for n in range(6):
        for lam in partitions_of(n):
            x = LinComb.term(QQ, lam)
            back = LinComb.zero(QQ)
            for mu, coeff in to_h_basis(x).terms.items():
                back = back + product_expansion("h", mu.parts, QQ).scale(coeff)
            assert back == x


def test_sym_from_qsym_consistency():
    x = m(2, 1)
    assert sym_from_qsym(tau_star(x)) == x


def test_qsym_not_cocommutative_witness():
    cop = qsym_coproduct(C([2, 1, 1]))
    assert cop.swap() != cop


def test_sym_cocommutative_through_degree_six():
    from hopftrees.freemodule import check_cocommutativity
    from hopftrees.symfun import sym_ops

    assert check_cocommutativity(sym_ops(QQ), 6).passed
