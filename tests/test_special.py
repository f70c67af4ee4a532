from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from hopftrees import special, suites
from hopftrees.freemodule import LinComb, TensorElem, accumulate, as_lincomb
from hopftrees.hopf_trees import gl_ops
from hopftrees.scalar import QQ, ZZ
from hopftrees.special import (
    epsilon,
    growth_formulas_check,
    kappa,
    lemma_check,
    lemma_identity_holds,
    m_count,
    multinomial,
    n_count,
    natural_growth,
    proposition_check,
)
from hopftrees.symfun import Partition, basis_expand, product_expansion
from hopftrees.trees import (
    DOT,
    Forest,
    RootedTree,
    enumerate_planar,
    ladder,
    sym_order,
    t_lambda,
)
from hopftrees.morphisms import phi_star, rho_star
from oracles import divided_powers_over_qq, epsilon_over_qq, kappa_antipode_over_qq

CHERRY = RootedTree([DOT, DOT])
L2, L3 = ladder(2), ladder(3)


def test_kappa_examples():
    assert kappa(0) == LinComb.term(QQ, DOT)
    assert kappa(1) == LinComb.term(QQ, L2)
    assert kappa(2) == LinComb(QQ, {L3: 1, CHERRY: Fraction(1, 2)})


def test_cached_families_are_read_only():
    # an in-place sum on a value of an lru_cache'd family must not change
    # what the next caller gets
    e11 = {Partition([1, 1]): 2, Partition([2]): 1}
    cases = (
        (lambda: product_expansion("e", (1, 1), QQ), e11),
        (lambda: kappa(2), {L3: 1, CHERRY: Fraction(1, 2)}),
        (lambda: epsilon(2), {CHERRY: Fraction(1, 2)}),
    )
    for cached, terms in cases:
        x = cached()
        with pytest.raises(TypeError):
            accumulate(x, x, 1)
        assert cached() == LinComb(QQ, terms)


def test_rho_star_of_kappa_sums_planar_trees():
    for n in range(6):
        want = LinComb(QQ, {T: 1 for T in enumerate_planar(n)})
        assert rho_star(kappa(n)) == want


def test_epsilon_examples():
    assert epsilon(1) == kappa(1)
    assert epsilon(2) == LinComb.term(QQ, CHERRY, Fraction(1, 2))
    for n in range(6):
        assert epsilon(n).scale(factorial(n)) == LinComb.term(
            QQ, t_lambda([1] * n)
        )


def test_negative_degrees_and_steps_are_refused():
    for family in (kappa, epsilon):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            family(-1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        natural_growth(DOT, -2)
    assert natural_growth(DOT, 0) == LinComb.term(QQ, DOT)


def test_zz_routes_match_the_qq_routes():
    # the suite grafts n! kappa_n over ZZ; the oracles graft kappa_n over QQ
    for n in range(8):
        assert epsilon(n) == epsilon_over_qq(n)
        assert special._kappa_antipode(n) == kappa_antipode_over_qq(n)
        assert special._divided_powers(n) == divided_powers_over_qq(n)


def test_clearing_never_rounds():
    # kappa_3 has the weight 1/6 on the 3-leaf bush: 2! kappa_3 is not integral
    with pytest.raises(TypeError, match="integer"):
        special._cleared(kappa(3), 2)
    cleared = special._cleared(kappa(3), 3)
    assert cleared.ring is ZZ and cleared.coeff(t_lambda([1, 1, 1])) == 1
    assert special._divided(cleared, 3) == kappa(3)


def test_natural_growth_examples():
    assert natural_growth(DOT) == LinComb.term(QQ, L2)
    assert natural_growth(DOT, 2) == LinComb(QQ, {L3: 1, CHERRY: 1})
    assert natural_growth(DOT, 3).coeff(t_lambda((1, 1, 1))) == 1
    assert natural_growth(LinComb.term(ZZ, DOT), 2) == LinComb(ZZ, {L3: 1, CHERRY: 1})


def test_count_examples():
    dot_forest = Forest([DOT])
    assert n_count(dot_forest, L2, L3) == 1
    assert m_count(dot_forest, L2, L3) == 1
    assert n_count(dot_forest, L2, CHERRY) == 1
    assert m_count(dot_forest, L2, CHERRY) == 2
    # identity: 1 * |Sym(cherry)| = 2 * 1 * 1
    assert lemma_identity_holds(dot_forest, L2, CHERRY, m_count(dot_forest, L2, CHERRY))
    two_dots = Forest([DOT, DOT])
    assert n_count(two_dots, DOT, CHERRY) == 1
    assert m_count(two_dots, DOT, CHERRY) == 1
    assert lemma_identity_holds(two_dots, DOT, CHERRY, m_count(two_dots, DOT, CHERRY))


def test_lemma_sweep_small():
    assert lemma_check(5).passed


def test_proposition_small():
    rep = proposition_check(4)
    assert rep.passed, [e.line() for e in rep.entries if not e.ok]


def test_kappa_images():
    for n in range(1, 5):
        assert phi_star(kappa(n)) == basis_expand("h", n)
        assert phi_star(epsilon(n)) == basis_expand("e", n)


def test_kappa_divided_powers_small():
    gl = gl_ops(QQ)
    for n in range(4):
        lhs = gl.coproduct_lc(kappa(n))
        rhs = TensorElem.zero(QQ)
        for i in range(n + 1):
            rhs = rhs + TensorElem.tensor(kappa(i), kappa(n - i))
        assert lhs == rhs


def test_growth_formula_examples():
    # n(.; t_lambda) for lambda = (1,1): C(2;1,1)/|Sym| = 2/2 = 1
    lam = Partition([1, 1])
    assert natural_growth(DOT, 2).coeff(t_lambda(lam.parts)) == Fraction(
        multinomial(lam.parts), sym_order(t_lambda(lam.parts))
    )
    # m(., t_(1); t_(2)) = coefficient of m_2 in e_1 m_1 = 1
    from hopftrees.symfun import sym_product

    e1m1 = sym_product(basis_expand("e", 1), LinComb.term(QQ, Partition([1])))
    assert e1m1.coeff(Partition([2])) == 1
    assert m_count(Forest([DOT]), t_lambda((1,)), t_lambda((2,))) == 1
    # phi*(growth(.)) = phi*(l2) = m_1 = e_1 * 1
    assert phi_star(natural_growth(DOT)) == basis_expand("e", 1)


def test_growth_sweep_small():
    rep = growth_formulas_check(4)
    assert rep.passed, [e.line() for e in rep.entries if not e.ok]


def _suite(n):
    return suites.run("special", n)


def _add_one(x: LinComb, basis) -> LinComb:
    return x + LinComb.term(x.ring, basis)


# Each fault changes one coefficient.  kappa and epsilon are lru_cached, and
# epsilon's recursion reads both through the module, so the fixture below
# computes them before a fault is patched in: no value computed under a
# fault may stay in a cache.
def _kappa_fault(monkeypatch):
    exact = special.kappa
    monkeypatch.setattr(
        special, "kappa", lambda n: _add_one(exact(n), CHERRY) if n == 2 else exact(n)
    )


def _epsilon_fault(monkeypatch):
    exact = special.epsilon
    monkeypatch.setattr(
        special, "epsilon", lambda n: _add_one(exact(n), CHERRY) if n == 2 else exact(n)
    )


def _growth_fault(monkeypatch):
    exact = special.natural_growth

    def natural_growth(x, k=1):
        out = exact(x, k)
        grows_dot = k == 2 and as_lincomb(QQ, x).support() == {DOT}
        return _add_one(out, L3) if grows_dot else out

    monkeypatch.setattr(special, "natural_growth", natural_growth)


def _cut_fault(monkeypatch):
    """One more cut of the 2-vertex ladder into a dot and a dot."""
    exact = special._cut_tally

    def cut_tally(target):
        out = Counter(exact(target))
        if target is L2:
            out[Forest([DOT]), DOT] += 1
        return out

    monkeypatch.setattr(special, "_cut_tally", cut_tally)


@pytest.fixture
def faults(monkeypatch):
    """A monkeypatch for the faults, with kappa and epsilon cached first;
    once the faults are undone, the suite passes again."""
    for n in range(6):
        kappa(n), epsilon(n)
    yield monkeypatch
    monkeypatch.undo()
    assert all(rep.passed for rep in _suite(4))


SPECIAL_FAULTS = [
    ("eps_n = (-1)^n S(kappa_n)", _epsilon_fault),
    ("phi*(eps_n) = e_n", _epsilon_fault),
    ("phi*(kappa_n) = h_n", _kappa_fault),
    ("n! eps_n is the one-level bush", _epsilon_fault),
    ("kappa divided powers", _kappa_fault),
    ("rho*(kappa_n) sums the planar trees", _kappa_fault),
    ("phi* intertwines growth with e_1 multiplication", _growth_fault),
    ("m(., t_lambda; t_mu) matches e_1 m_lambda", _cut_fault),
    ("n(.; t_lambda) multinomial formula", _growth_fault),
    ("identity over all admissible decompositions", _cut_fault),
]


@pytest.mark.parametrize("law, fault", SPECIAL_FAULTS, ids=[l for l, _ in SPECIAL_FAULTS])
def test_special_suite_catches_one_wrong_coefficient(faults, law, fault):
    fault(faults)
    entries = {e.law: e for rep in _suite(4) for e in rep.entries}
    assert set(entries) == {name for name, _ in SPECIAL_FAULTS}
    entry = entries[law]
    assert not entry.ok
    pinned = {
        "n! eps_n is the one-level bush": f"n=2; lhs - rhs = 2*{CHERRY!r}",
        "m(., t_lambda; t_mu) matches e_1 m_lambda": "lambda=(), mu=(1,); lhs - rhs = 1",
        # the lemma tests a predicate: its witness names the case only
        "identity over all admissible decompositions": (
            f"t'={L2!r}, u={Forest([DOT])!r}, t={DOT!r}"
        ),
    }
    if law in pinned:
        assert entry.witness == pinned[law]
    else:
        assert "; lhs - rhs = " in entry.witness
