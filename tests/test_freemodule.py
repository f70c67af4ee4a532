import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hopftrees.freemodule import (
    HopfOps,
    LinComb,
    MonomialProduct,
    Report,
    RingMismatchError,
    TensorElem,
    _tuples_upto,
    accumulate,
    check_axioms,
    check_cocommutativity,
    difference_witness,
    duality_check,
    generic_antipode,
    pairing_extend,
    tensor_pairing,
)
from hopftrees.hopf_trees import (
    bplus,
    ck_antipode,
    ck_coproduct,
    ck_ops,
    gl_coproduct,
    gl_ops,
    gl_product,
    hf_antipode,
    hf_coproduct,
    hf_ops,
    kp_coproduct,
    kp_ops,
    kp_product,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from hopftrees.scalar import QP, QQ, ZZ, Poly
from hopftrees.special import kappa
from hopftrees.symfun import (
    Composition,
    Partition,
    nsym_coproduct,
    nsym_ops,
    nsym_product,
    qsym_antipode,
    qsym_coproduct,
    qsym_ops,
    qsym_product_comp,
    sym_coproduct,
    sym_ops,
    sym_product_part,
)
from hopftrees.trees import DOT, Forest, RootedTree, ladder
from oracles import (
    apply_linear_per_term,
    bilinear_per_pair,
    map_sides_per_term,
    pairs_upto_nested,
    tensor_mul_per_pair,
    triples_upto_nested,
)

X, Y, Z = Partition([1]), Partition([2]), Partition([3])


def lc(**kw):
    return LinComb(QQ, {{"x": X, "y": Y, "z": Z}[k]: v for k, v in kw.items()})


def test_lincomb_arith_examples():
    assert lc(x=2) + lc(x=3) == lc(x=5)
    assert (lc(x=1) + lc(x=-1)).is_zero()
    assert lc(x=4, y=1).scale(0).is_zero()
    assert -lc(x=2) == lc(x=-2)
    assert lc(x=1, y=2) - lc(y=2) == lc(x=1)


coeffs = st.integers(min_value=-20, max_value=20)
combos = st.builds(
    lambda a, b, c: LinComb(QQ, {X: a, Y: b, Z: c}), coeffs, coeffs, coeffs
)


@given(combos, combos, combos)
def test_lincomb_module_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a - a == LinComb.zero(QQ)


@given(combos, coeffs, coeffs)
def test_scale_distributes(a, s, t):
    assert a.scale(s) + a.scale(t) == a.scale(s + t)
    assert a.scale(s).scale(t) == a.scale(s * t)


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatchError):
        LinComb.term(QQ, X) + LinComb.term(QP, X)
    with pytest.raises(RingMismatchError):
        TensorElem.term(QQ, X, Y) + TensorElem.term(QP, X, Y)


def test_kinds_never_mix():
    """A LinComb and a TensorElem are refused as operands of one operation
    before anything is stored, and are never equal, zero included."""
    one, pair = LinComb.term(QQ, X), TensorElem.term(QQ, X, X)
    frozen = kp_ops(QQ).coproduct(kp_ops(QQ).unit)
    for a, b in ((one, pair), (pair, one), (one, frozen)):
        with pytest.raises(TypeError, match="cannot mix"):
            a + b
        with pytest.raises(TypeError, match="cannot mix"):
            a - b
        with pytest.raises(TypeError, match="cannot mix"):
            pairing_extend(lambda u, v: 1, a, b)
    for acc, x in ((LinComb.zero(QQ), pair), (TensorElem.zero(QQ), one)):
        with pytest.raises(TypeError, match="cannot mix"):
            accumulate(acc, x, 1)
        assert acc.is_zero()
    with pytest.raises(TypeError, match="cannot mix"):
        one.bilinear(lambda u, v: one, pair)
    with pytest.raises(TypeError, match="cannot mix"):
        pair.mul(one, kp_ops(QQ).product, kp_ops(QQ).product)
    with pytest.raises(TypeError, match="cannot mix"):
        TensorElem.tensor(one, pair)
    assert LinComb.zero(QQ) != TensorElem.zero(QQ)
    assert LinComb.term(QQ, (X, X)) != pair
    assert pair != LinComb.term(QQ, (X, X))


def test_tensor_elem_is_a_combination_over_pairs():
    t = TensorElem.term(QQ, X, Y, 2)
    assert isinstance(t, LinComb) and t.terms == {(X, Y): 2}
    for derived in (t + t, t - t, -t, t.scale(3), t.swap(), TensorElem.zero(QQ)):
        assert type(derived) is TensorElem
    assert t.render() == f"2*{X!r}(x){Y!r}"
    assert repr(t) == f"TensorElem<{QQ.name}>(2*{X!r}(x){Y!r})"
    assert t.map_coeffs(lambda c: c * 2, QQ) == t.scale(2)
    # the benchmark tracer counts tensor sums through this class attribute
    assert TensorElem.__dict__["__add__"] is LinComb.__add__


def test_difference_witness_shows_the_first_terms():
    five = LinComb(QQ, {Partition([k]): k for k in range(1, 6)})
    shown = " + ".join(f"{k}*{Partition([k])!r}" for k in (1, 2, 3))
    assert difference_witness(X, five, LinComb.zero(QQ)) == (
        f"{X!r}; lhs - rhs = {shown} ... (5 terms)"
    )
    assert difference_witness(X, lc(x=1, y=2), lc(x=1)) == (
        f"{X!r}; lhs - rhs = 2*{Y!r}"
    )
    assert difference_witness(X, lc(x=1), lc(x=1)) is None
    pairs = TensorElem.tensor(lc(x=1), lc(y=1))
    assert difference_witness(X, pairs, pairs.swap()) == (
        f"{X!r}; lhs - rhs = 1*{X!r}(x){Y!r} + -1*{Y!r}(x){X!r}"
    )


def test_difference_witness_of_scalars_and_triples():
    assert difference_witness("n=2", Fraction(1, 2), 1) == "n=2; lhs - rhs = -1/2"
    assert difference_witness((X, Y), 3, 1) == f"{(X, Y)!r}; lhs - rhs = 2"
    assert difference_witness("n=2", Fraction(2), 2) is None
    assert difference_witness("p", Poly([1, -1]), Poly([0, 1])) == (
        "p; lhs - rhs = 1 - 2*p"
    )
    # a key of any length sorts and renders factor by factor
    triples = TensorElem(QQ, {(Y, X, X): 1, (X, Y, X): 2, (X, X, Y): -1})
    assert [k for k, _ in triples.sorted_terms()] == [(X, X, Y), (X, Y, X), (Y, X, X)]
    assert difference_witness(X, triples, TensorElem.zero(QQ)) == (
        f"{X!r}; lhs - rhs = -1*{X!r}(x){X!r}(x){Y!r} + 2*{X!r}(x){Y!r}(x){X!r}"
        f" + 1*{Y!r}(x){X!r}(x){X!r}"
    )


def test_render_parenthesises_a_polynomial_of_several_terms():
    x = LinComb(QP, {X: Poly([0, 1, -1]), Y: Poly([0, -2]), Z: Poly([3])})
    assert x.render() == f"(p - p^2)*{X!r} + -2*p*{Y!r} + 3*{Z!r}"
    assert lc(x=Fraction(-1, 2)).render() == f"-1/2*{X!r}"


@pytest.mark.parametrize("arity, nested", [(2, pairs_upto_nested), (3, triples_upto_nested)])
def test_tuples_upto_matches_the_nested_loops(arity, nested):
    for factory in (gl_ops, qsym_ops):
        ops = factory(QQ)
        by_deg = {n: list(ops.basis(n)) for n in range(6)}
        for total in range(6):
            assert list(_tuples_upto(by_deg, total, arity)) == list(nested(by_deg, total))


def test_bilinear_extension():
    f = lambda a, b: LinComb.term(QQ, Partition(a.parts + b.parts))
    left = lc(x=2) + lc(y=1)
    out = left.bilinear(f, lc(x=1))
    assert out == LinComb(QQ, {Partition([1, 1]): 2, Partition([2, 1]): 1})


def test_tensor_elem_ops():
    t = TensorElem.tensor(lc(x=2), lc(y=3))
    assert t.coeff(X, Y) == 6
    assert t.swap().coeff(Y, X) == 6
    mapped = t.map_sides(lambda b: LinComb.term(QQ, b), lambda b: LinComb.term(QQ, b))
    assert mapped == t


def test_generic_antipode_examples():
    gl = gl_ops(QQ)
    assert generic_antipode(gl, DOT) == gl.one_lc()
    # primitive generators of NSym map to their negatives
    ns = nsym_ops(QQ)
    e1 = Composition([1])
    assert generic_antipode(ns, e1) == LinComb.term(QQ, e1, -1)
    # one step of the recursion in H_K
    ck = ck_ops(QQ)
    l2 = Forest([ladder(2)])
    dots = Forest([DOT, DOT])
    assert generic_antipode(ck, l2) == LinComb(QQ, {l2: -1, dots: 1})


def test_check_axioms_passes_small():
    assert check_axioms(ck_ops(QQ), 4).passed
    assert check_axioms(gl_ops(QQ), 4).passed


def test_check_axioms_catches_mutation():
    base = ck_ops(QQ)

    def corrupted_product(a, b):
        out = base.product(a, b)
        if a.weight == 1 and b.weight == 1:
            return out.scale(2)  # wrong coefficient
        return out

    def corrupted_coproduct(x):
        out = base.coproduct(x)
        if x.weight == 2:
            return out + TensorElem.term(QQ, x, base.unit)  # x (x) 1 twice
        return out

    for product, coproduct in (
        (corrupted_product, base.coproduct),
        (base.product, corrupted_coproduct),
    ):
        broken = HopfOps(
            name="broken",
            ring=QQ,
            unit=base.unit,
            degree=base.degree,
            basis=base.basis,
            product=product,
            coproduct=coproduct,
        )
        rep = check_axioms(broken, 3)
        assert not rep.passed
        failed = [e for e in rep.entries if not e.ok]
        assert failed and any(e.witness for e in failed)


def _closed(fn):
    return lambda ops, b: fn(b, ops.ring)


# (ops factory, direct product, direct coproduct, direct antipode); the
# forest algebras concatenate monomials, a product that is not memoised
KERNELS = [
    (gl_ops, gl_product, gl_coproduct, generic_antipode),
    (ck_ops, None, ck_coproduct, _closed(ck_antipode)),
    (kp_ops, kp_product, kp_coproduct, generic_antipode),
    (hf_ops, None, hf_coproduct, _closed(hf_antipode)),
    (sym_ops, sym_product_part, sym_coproduct, generic_antipode),
    (qsym_ops, qsym_product_comp, qsym_coproduct, _closed(qsym_antipode)),
    (nsym_ops, nsym_product, nsym_coproduct, generic_antipode),
]


@pytest.mark.parametrize("factory, product, coproduct, antipode", KERNELS)
def test_memo_kernel_matches_direct_maps(factory, product, coproduct, antipode):
    # QQ and ZZ, the two rings the suites build these ops over
    for ring in (QQ, ZZ):
        ops = factory(ring)
        by_deg = {n: list(ops.basis(n)) for n in range(5)}
        for a, b in _tuples_upto(by_deg, 4, 2):
            if product is None:
                assert ops.product(a, b) == LinComb.term(ring, a.mul(b))
            else:
                assert ops.product(a, b) == product(a, b, ring)
                assert ops.product(a, b) is ops.product(a, b)
        for n in range(5):
            for b in by_deg[n]:
                assert ops.coproduct(b) == coproduct(b, ring)
                assert ops.coproduct(b) is ops.coproduct(b)
                assert ops.antipode_basis(b) == antipode(ops, b)
                assert ops.antipode_basis(b) is ops.antipode_basis(b)
        # equal values may differ in type (2 == Fraction(2)): every stored
        # coefficient has the ring's own type
        scalar = int if ring is ZZ else Fraction
        stored = [c for v in ops._memo.values() for c in v.terms.values()]
        assert stored and all(type(c) is scalar for c in stored)


def test_axiom_and_duality_reports_agree_over_qq_and_zz():
    def reports(ring):
        out = [check_axioms(factory(ring), 4) for factory, *_ in KERNELS]
        for forests, trees, bp, pair_f, pair_t in (
            (ck_ops, gl_ops, bplus, pairing_hk, pairing_kt_hk),
            (hf_ops, kp_ops, bplus, pairing_hf, pairing_kp_hf),
        ):
            out.append(duality_check(forests(ring), trees(ring), bp, pair_f, pair_t, 4))
        assert all(rep.passed for rep in out)
        return [rep.lines() for rep in out]

    assert reports(QQ) == reports(ZZ)


@pytest.mark.parametrize("corrupt", ["product", "coproduct"])
@pytest.mark.parametrize("factory", [k[0] for k in KERNELS], ids=lambda f: f.__name__)
def test_check_axioms_catches_one_wrong_coefficient(factory, corrupt):
    """One coefficient changed on one degree-2 input of a fresh ZZ HopfOps:
    the product of a degree-1 element with itself, or a coproduct term with
    both sides of positive degree."""
    base = factory(ZZ)
    x = base.basis(1)[0]
    y, (left, right) = next(
        (y, pair)
        for y in base.basis(2)
        for pair, _ in base.coproduct(y).sorted_terms()
        if base.degree(pair[0]) and base.degree(pair[1])
    )
    product, coproduct = base.product, base.coproduct
    if corrupt == "product":
        # for the forest algebras base.product is the MonomialProduct itself
        assert isinstance(product, MonomialProduct) == (factory in (ck_ops, hf_ops))

        def product(a, b):
            out = base.product(a, b)
            if a == b == x:
                out = out + LinComb.term(ZZ, out.sorted_terms()[0][0])
            return out

    else:

        def coproduct(b):
            out = base.coproduct(b)
            if b == y:
                out = out + TensorElem.term(ZZ, left, right)
            return out

    broken = HopfOps(
        name=base.name,
        ring=ZZ,
        unit=base.unit,
        degree=base.degree,
        basis=base.basis,
        product=product,
        coproduct=coproduct,
        antipode=base.antipode,
    )
    rep = check_axioms(broken, 3)
    failed = [e for e in rep.entries if not e.ok]
    assert failed and all(e.witness for e in failed)


@pytest.mark.parametrize(
    "factory", [ck_ops, hf_ops, qsym_ops], ids=lambda f: f.__name__
)
def test_check_axioms_catches_one_wrong_antipode_coefficient(factory):
    """1 added to one coefficient of the closed antipode of one degree-2
    basis element y, in a fresh ZZ HopfOps."""
    base = factory(ZZ)
    y = base.basis(2)[0]
    target = base.antipode(y).sorted_terms()[0][0]

    def antipode(b):
        out = base.antipode(b)
        if b == y:
            out = out + base.term(target)
        return out

    broken = HopfOps(
        name=base.name,
        ring=ZZ,
        unit=base.unit,
        degree=base.degree,
        basis=base.basis,
        product=base.product,
        coproduct=base.coproduct,
        antipode=antipode,
    )
    assert broken.antipode_basis(y) != base.antipode_basis(y)
    failed = [e for e in check_axioms(broken, 3).entries if not e.ok]
    # the witness names y and shows the added term as the whole difference
    assert [(e.law, e.witness) for e in failed] == [
        ("antipode convolution laws", f"{y!r}; lhs - rhs = 1*{target!r}")
    ]


FAULT_WITNESSES = Path(__file__).parent / "golden" / "axioms_faults_d3.txt"


def _faulty_ops(base, fault):
    """A fresh ZZ HopfOps with base's structure maps and one injected fault,
    on x, the first basis element of degree 1, or y, the first of degree 2
    whose coproduct has a term with both sides of positive degree:

    product          one term added to x*x
    product degree   the unit added to x*x
    unit             1*y doubled
    coproduct        a term with both sides of positive degree added to Delta(y)
    coproduct end    1 (x) y dropped from Delta(y)
    coproduct degree y (x) y added to Delta(y)
    antipode         one term added to S(y)
    counit           the counit is 1 on y and 0 on the unit
    degree           the unit and y are read one degree too high
    """
    ring = base.ring
    x = base.basis(1)[0]
    y, (left, right) = next(
        (y, pair)
        for y in base.basis(2)
        for pair, _ in base.coproduct(y).sorted_terms()
        if base.degree(pair[0]) and base.degree(pair[1])
    )
    product, coproduct, antipode = base.product, base.coproduct, base.antipode_basis
    degree = base.degree
    extra = {
        "product": lambda a, b: base.term(base.product(a, b).sorted_terms()[0][0]),
        "product degree": lambda a, b: base.term(base.unit),
    }
    if fault in extra:
        add = extra[fault]

        def product(a, b):
            out = base.product(a, b)
            return out + add(a, b) if a == b == x else out

    elif fault == "unit":

        def product(a, b):
            out = base.product(a, b)
            return out.scale(2) if a == base.unit and b == y else out

    elif fault.startswith("coproduct"):

        def coproduct(b):
            out = base.coproduct(b)
            if b != y:
                return out
            if fault == "coproduct end":
                kept = [(k, c) for k, c in out.terms.items() if k != (base.unit, y)]
                return TensorElem(ring, kept)
            pair = (y, y) if fault == "coproduct degree" else (left, right)
            return out + TensorElem.term(ring, *pair)

    elif fault == "antipode":
        target = base.antipode_basis(y).sorted_terms()[0][0]

        def antipode(b):
            out = base.antipode_basis(b)
            return out + base.term(target) if b == y else out

    elif fault == "degree":

        def degree(b):
            return base.degree(b) + (b == y or b == base.unit)

    broken = HopfOps(
        name=base.name,
        ring=ring,
        unit=base.unit,
        degree=degree,
        basis=base.basis,
        product=product,
        coproduct=coproduct,
        antipode=antipode,
    )
    if fault == "counit":
        broken.counit = lambda b: ring.one if b == y else ring.zero
    return broken


AXIOM_FAULTS = (
    "product",
    "product degree",
    "unit",
    "coproduct",
    "coproduct end",
    "coproduct degree",
    "antipode",
    "counit",
    "degree",
)


def test_axiom_witnesses_under_injected_faults_are_pinned():
    """Every law of check_axioms, run on each of the seven algebras with each
    fault of _faulty_ops, reports the cases, counts and witnesses pinned in
    tests/golden/axioms_faults_d3.txt; every law fails under some fault."""
    blocks, failed = [], set()
    for factory, *_ in KERNELS:
        for fault in AXIOM_FAULTS:
            rep = check_axioms(_faulty_ops(factory(ZZ), fault), 3)
            blocks.append(f"## {fault}\n{rep}\n")
            failed.update(e.law for e in rep.entries if not e.ok)
    assert "".join(blocks) == FAULT_WITNESSES.read_text()
    laws = {e.law for e in check_axioms(gl_ops(ZZ), 1).entries}
    assert failed == laws


def test_laws_refuse_a_product_over_another_ring():
    """A product giving a combination over another ring raises
    RingMismatchError inside the laws and the generic recursion: one over QQ
    everywhere (the unit laws meet it), only off the unit (associativity
    does), or a MonomialProduct over QQ on ZZ forests; an antipode over QQ
    raises inside the antipode laws."""
    for factory in (kp_ops, ck_ops):
        base = factory(ZZ)
        y = next(
            y
            for y in base.basis(2)
            if any(base.degree(x) == 1 for x, _ in base.coproduct(y).terms)
        )

        def everywhere(a, b):
            return LinComb(QQ, dict(base.product(a, b).terms))

        def off_unit(a, b):
            out = base.product(a, b)
            return out if base.unit in (a, b) else LinComb(QQ, dict(out.terms))

        def antipode_over_qq(b):
            return LinComb(QQ, dict(base.antipode_basis(b).terms))

        products = [everywhere, off_unit]
        if factory is ck_ops:
            products.append(MonomialProduct(QQ))
        cases = [(product, base.antipode_basis) for product in products]
        cases.append((base.product, antipode_over_qq))
        for i, (product, antipode) in enumerate(cases):
            broken = HopfOps(
                name=base.name,
                ring=ZZ,
                unit=base.unit,
                degree=base.degree,
                basis=base.basis,
                product=product,
                coproduct=base.coproduct,
                antipode=antipode,
            )
            with pytest.raises(RingMismatchError):
                check_axioms(broken, 2)
            if i < len(products):
                with pytest.raises(RingMismatchError):
                    generic_antipode(broken, y)


def test_memo_values_are_read_only():
    ops = kp_ops(QQ)
    t = ops.basis(3)[0]
    for cached in (ops.product(t, t), ops.coproduct(t), ops.antipode_basis(t)):
        key = next(iter(cached.terms))
        with pytest.raises(TypeError):
            cached.terms[key] = QQ.one
        with pytest.raises(TypeError):
            del cached.terms[key]
        with pytest.raises(AttributeError):
            cached.terms = {}
        with pytest.raises(AttributeError):
            cached.ring = QP
        with pytest.raises(TypeError):
            accumulate(cached, cached, QQ.one)
        # a copy of the terms is an ordinary value
        plain = TensorElem if isinstance(cached, TensorElem) else LinComb
        copy = plain(QQ, dict(cached.terms))
        accumulate(copy, cached, -1)
        assert copy.is_zero()
    # derived values are ordinary ones
    doubled = ops.coproduct(t) + ops.coproduct(t)
    accumulate(doubled, ops.coproduct(t), -2)
    assert doubled.is_zero()
    # and the module functions keep returning mutable values
    direct = kp_coproduct(t)
    direct.terms.clear()
    assert ops.coproduct(t) == kp_coproduct(t)


def test_values_keep_their_ring_through_copy_and_pickle():
    for ring in (ZZ, QQ, QP):
        for v in (LinComb.term(ring, DOT, 3), TensorElem.term(ring, DOT, DOT, 3)):
            for c in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
                assert c.ring is ring and c == v
                assert c + v == v.scale(2)


def test_memo_values_copy_to_mutable_values():
    ops = kp_ops(ZZ)
    t = ops.basis(3)[0]
    cached = (ops.product(t, t), ops.coproduct(t), ops.antipode_basis(t), kappa(2))
    before = [dict(v.terms) for v in cached]
    for value in cached:
        plain = TensorElem if isinstance(value, TensorElem) else LinComb
        for c in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(c) is plain and c.ring is value.ring and c == value
            accumulate(c, value, 1)
            assert c == value.scale(2)
    again = (ops.product(t, t), ops.coproduct(t), ops.antipode_basis(t), kappa(2))
    assert all(a is b for a, b in zip(again, cached))
    assert [dict(v.terms) for v in again] == before


def test_memo_per_ring_and_dropped_by_cache_clear():
    f = Forest([ladder(2), DOT])
    over_q, over_p = ck_ops(QQ).coproduct(f), ck_ops(QP).coproduct(f)
    assert over_q.ring is QQ and over_p.ring is QP
    assert ck_ops(QQ).coproduct(f) is over_q
    ck_ops.cache_clear()
    fresh = ck_ops(QQ).coproduct(f)
    assert fresh == over_q and fresh is not over_q


def test_memo_interns_basis_elements_and_coefficients():
    # gl_coproduct builds new trees and coefficients on every call; the
    # memo stores one object per distinct value
    ops = gl_ops(QQ)
    values = (ops.coproduct(RootedTree([DOT, DOT])), ops.coproduct(ladder(3)))
    dots = [x for v in values for pair in v.terms for x in pair if x == DOT]
    ones = [c for v in values for c in v.terms.values() if c == 1]
    assert len(dots) == len(ones) == 4
    assert all(x is dots[0] for x in dots) and all(c is ones[0] for c in ones)


def test_accumulate_in_place():
    acc = lc(x=1, y=2)
    accumulate(acc, lc(x=1, z=1), -1)
    assert acc == lc(y=2, z=-1)
    assert X not in acc.terms  # cancelled terms leave the dict
    with pytest.raises(RingMismatchError):
        accumulate(acc, LinComb.term(QP, X), 1)
    # a value may be added into itself, cancelling every term
    accumulate(acc, acc, -1)
    assert acc.is_zero()


def test_accumulate_coerces_its_scale_factor():
    """c enters the ring as scale's factor does: a value outside it is
    refused before acc changes, and one inside it takes the ring's type."""
    with pytest.raises(TypeError):
        LinComb.term(ZZ, DOT).scale(Fraction(1, 2))
    refused = [
        (LinComb.term(ZZ, DOT), LinComb.term(ZZ, DOT), Fraction(1, 2)),
        (TensorElem.term(ZZ, DOT, DOT), TensorElem.term(ZZ, DOT, DOT), 0.5),
        (LinComb.term(QQ, DOT), LinComb.term(QQ, DOT), 0.25),
        (LinComb.term(QP, DOT), LinComb.term(QP, DOT), 0.25),
    ]
    for acc, x, c in refused:
        before = dict(acc.terms)
        with pytest.raises(TypeError):
            accumulate(acc, x, c)
        with pytest.raises(TypeError):
            accumulate(acc, acc, c)
        assert acc.terms == before
    l2 = ladder(2)
    for ring, c, scalar in ((ZZ, Fraction(2), int), (QQ, 2, Fraction), (QP, 2, Poly)):
        acc = LinComb.term(ring, DOT)
        accumulate(acc, LinComb(ring, {DOT: 1, l2: 3}), c)
        assert acc == LinComb(ring, {DOT: 3, l2: 6})
        assert all(type(v) is scalar for v in acc.terms.values())


# The fused kernels (bilinear, TensorElem.mul, TensorElem.tensor and
# MonomialProduct) against references that add c1*c2*f(b1, b2) term by term
# through the public constructors, which coerce and merge every coefficient.

_small = st.integers(min_value=-2, max_value=2)
# (ring, the type of its elements, small elements that often cancel)
_RINGS = [
    (ZZ, int, _small),
    (QQ, Fraction, st.builds(Fraction, _small, st.integers(min_value=1, max_value=3))),
    (QP, Poly, st.builds(lambda a, b: Poly((a, b)), _small, _small)),
]


@st.composite
def _kernel_inputs(draw):
    """A ring, and draws of combinations over planar trees (kP, memoised
    product) or ordered forests (H_F, MonomialProduct) of degree at most 2,
    and of tensors over their pairs: few enough basis elements that terms
    collide and cancel."""
    ring, scalar, coeffs = draw(st.sampled_from(_RINGS))
    trees = [b for n in range(3) for b in kp_ops(ring).basis(n)]
    forests = [b for n in range(3) for b in hf_ops(ring).basis(n)]

    def terms(keys, most):
        picked = draw(st.lists(keys, max_size=most))
        cs = draw(st.lists(coeffs, min_size=len(picked), max_size=len(picked)))
        return list(zip(picked, cs))

    def combination(pool):
        return LinComb(ring, terms(st.sampled_from(pool), 4))

    def tensor():
        pairs = st.tuples(st.sampled_from(trees), st.sampled_from(forests))
        return TensorElem(ring, terms(pairs, 3))

    return ring, scalar, trees, forests, combination, tensor


def _reference_bilinear(f, a, b):
    return LinComb(
        a.ring,
        [
            (b3, c1 * c2 * c3)
            for b1, c1 in a.terms.items()
            for b2, c2 in b.terms.items()
            for b3, c3 in f(b1, b2).terms.items()
        ],
    )


def _reference_mul(s, t, prod_left, prod_right):
    return TensorElem(
        s.ring,
        [
            ((x, y), c1 * c2 * cx * cy)
            for (a, b), c1 in s.terms.items()
            for (a2, b2), c2 in t.terms.items()
            for x, cx in prod_left(a, a2).terms.items()
            for y, cy in prod_right(b, b2).terms.items()
        ],
    )


def _exact(value, scalar):
    """No stored coefficient is zero, and each has the ring's own type."""
    return all(c and type(c) is scalar for c in value.terms.values())


@given(_kernel_inputs())
def test_fused_kernels_match_term_by_term_references(inputs):
    ring, scalar, trees, forests, combination, tensor = inputs
    kp, monomial = kp_ops(ring), MonomialProduct(ring)
    a, b = combination(trees), combination(trees)
    u, v = combination(forests), combination(forests)
    for f, x, y in (
        (kp.product, a, b),
        (kp.product, a + b, b - a),  # terms that cancel
        (monomial, u, v),
        (monomial, u + v, v - u),
    ):
        out = x.bilinear(f, y)
        assert out == _reference_bilinear(f, x, y)
        assert _exact(out, scalar)
    for x in forests:
        for y in forests:
            out = monomial(x, y)
            assert out == LinComb(ring, [(x.mul(y), 1)]) and _exact(out, scalar)
    out = TensorElem.tensor(a, u)
    assert out == TensorElem(
        ring,
        [((x, y), c1 * c2) for x, c1 in a.terms.items() for y, c2 in u.terms.items()],
    )
    assert _exact(out, scalar)
    s, t = tensor(), tensor()
    for left, right in ((s, t), (s + t, t - s)):
        out = left.mul(right, kp.product, monomial)
        assert out == _reference_mul(left, right, kp.product, monomial)
        assert _exact(out, scalar)


# (ring, scale factors with 1 among them, so both the scaled and the unscaled
# route run)
_FACTORS = [
    (ZZ, (1, -2, 3)),
    (QQ, (Fraction(1, 2), 1, Fraction(-2, 3))),
    (QP, (Poly((0, 1)), 1, Poly((1, -1)))),
]


@pytest.mark.parametrize("ring, factors", _FACTORS, ids=["ZZ", "QQ", "QP"])
def test_fused_kernels_match_per_pair_routes(ring, factors):
    """bilinear, TensorElem.mul, accumulate and apply_linear against the
    routes that build one combination per pair (tests/oracles.py), for the
    MonomialProducts of H_K and H_F and the memoised products of kP and
    NSym: equal values, no zero coefficient stored, each of the ring's own
    type."""
    scalar = {ZZ: int, QQ: Fraction, QP: Poly}[ring]
    algebras = [factory(ring) for factory in (ck_ops, hf_ops, kp_ops, nsym_ops)]

    def combinations(ops, top=3):
        basis = [b for n in range(top + 1) for b in ops.basis(n)]
        a = LinComb(ring, zip(basis, factors * len(basis)))
        b = LinComb(ring, zip(basis[::-1], factors[::-1] * len(basis)))
        return a, b, a + b, b - a  # (a + b)(b - a) cancels ab against ba

    for ops in algebras:
        assert isinstance(ops.product, MonomialProduct) == (ops.name in ("H_K", "H_F"))
        a, b, s, d = combinations(ops)
        for x, y in ((a, b), (b, a), (s, d), (d, s), (a, a)):
            out = x.bilinear(ops.product, y)
            assert out == bilinear_per_pair(ops.product, x, y)
            assert _exact(out, scalar)
    # each product on each side of TensorElem.mul, the forest algebras'
    # MonomialProducts on both (the one-term route)
    for left_ops in algebras:
        for right_ops in algebras:
            left, right = combinations(left_ops, 2), combinations(right_ops, 2)
            s = TensorElem.tensor(left[0], right[1])
            t = TensorElem.tensor(left[2], right[3]) + TensorElem.tensor(left[3], right[2])
            for x, y in ((s, t), (t, s), (s + t, t - s)):
                out = x.mul(y, left_ops.product, right_ops.product)
                assert out == tensor_mul_per_pair(x, y, left_ops.product, right_ops.product)
                assert _exact(out, scalar)
    # the coproducts of the forest algebras, products of tree coproducts
    for ops in algebras[:2]:
        for x in ops.basis(3):
            for y in ops.basis(2):
                cx, cy = ops.coproduct(x), ops.coproduct(y)
                out = cx.mul(cy, ops.product, ops.product)
                assert out == tensor_mul_per_pair(cx, cy, ops.product, ops.product)
                assert out == ops.coproduct(x.mul(y)) and _exact(out, scalar)
    # a value added into itself, scaled by each factor and by -1
    for c in factors + (-1,):
        acc = combinations(algebras[0])[0]
        want = LinComb(ring, [(k, v * (1 + c)) for k, v in acc.terms.items()])
        accumulate(acc, acc, c)
        assert acc == want and _exact(acc, scalar)
    assert acc.is_zero()
    # a map giving a basis element for some inputs and a combination for
    # others, whose terms meet and cancel
    ck = algebras[0]
    unit = ck.unit

    def mixed(f):
        if f.weight % 2:
            return unit
        return LinComb(ring, {f: factors[0], unit: -1})

    for x in combinations(ck):
        out = x.apply_linear(mixed)
        assert out == apply_linear_per_term(x, mixed) and _exact(out, scalar)
    # the unit from a weight-1 input cancels the -1*unit of a weight-2 one
    meets = LinComb(ring, {ck.basis(1)[0]: 1, ck.basis(2)[0]: 1})
    out = meets.apply_linear(mixed)
    assert out == apply_linear_per_term(meets, mixed) and unit not in out.terms
    # the same map on either tensor factor, against the identity on the other
    a, b, s, d = combinations(ck)

    def same(f):
        return f

    for x in (TensorElem.tensor(a, b), TensorElem.tensor(s, d) + TensorElem.tensor(d, s)):
        for f_left, f_right in ((mixed, mixed), (mixed, same), (same, mixed)):
            out = x.map_sides(f_left, f_right)
            assert out == map_sides_per_term(x, f_left, f_right)
            assert _exact(out, scalar)
    meets_pair = TensorElem.tensor(meets, meets)
    out = meets_pair.map_sides(mixed, mixed)
    assert out == map_sides_per_term(meets_pair, mixed, mixed)
    assert all(unit not in k for k in out.terms)
    if ring is ZZ:
        # weight 3 is odd: each image is a basis element, its coefficient
        # coerced into the output ring
        into_qq = LinComb(ZZ, {f: 2 for f in ck.basis(3)})
        out = into_qq.apply_linear(mixed, QQ)
        assert out == apply_linear_per_term(into_qq, mixed, QQ)
        assert out.ring is QQ and _exact(out, Fraction)
        pair_qq = TensorElem.tensor(into_qq, into_qq)
        out = pair_qq.map_sides(mixed, mixed, QQ)
        assert out == map_sides_per_term(pair_qq, mixed, mixed, QQ)
        assert out.ring is QQ and _exact(out, Fraction)


def test_fused_kernels_keep_every_ring_check():
    for ring, other in ((ZZ, QQ), (QQ, QP), (QP, ZZ)):
        kp = kp_ops(ring)
        t = kp.basis(2)[0]
        a = kp.term(t)
        with pytest.raises(RingMismatchError):
            a.bilinear(lambda x, y: LinComb.term(other, x), a)
        pair = TensorElem.term(ring, t, t)
        same = kp.product
        elsewhere = kp_ops(other).product
        for prod_left, prod_right in (
            (elsewhere, same),
            (same, elsewhere),
            (elsewhere, elsewhere),
        ):
            with pytest.raises(RingMismatchError):
                pair.mul(pair, prod_left, prod_right)
        # a MonomialProduct over another ring takes the checked route
        f = hf_ops(ring).basis(2)[0]
        with pytest.raises(RingMismatchError):
            hf_ops(ring).term(f).bilinear(MonomialProduct(other), hf_ops(ring).term(f))
        forests = TensorElem.term(ring, f, f)
        same, elsewhere = MonomialProduct(ring), MonomialProduct(other)
        for prod_left, prod_right in ((elsewhere, same), (same, elsewhere)):
            with pytest.raises(RingMismatchError):
                forests.mul(forests, prod_left, prod_right)
        # map_sides: a side image over another ring, or of another kind
        def elsewhere(x):
            return LinComb.term(other, x)

        def itself(x):
            return x

        for f_left, f_right in (
            (elsewhere, itself),
            (itself, elsewhere),
            (elsewhere, elsewhere),
        ):
            with pytest.raises(RingMismatchError):
                forests.map_sides(f_left, f_right)
        with pytest.raises(TypeError):
            forests.map_sides(lambda x: TensorElem.term(ring, x, x), itself)
    with pytest.raises(TypeError):
        LinComb(ZZ, {DOT: Fraction(1, 2)})
    with pytest.raises(TypeError):
        # a coefficient that is not integral refuses to enter ZZ
        half = TensorElem.term(QQ, DOT, DOT, Fraction(1, 2))
        half.map_sides(lambda x: x, lambda x: x, ZZ)


def test_cocommutativity_check():
    assert check_cocommutativity(gl_ops(QQ), 5).passed
    from hopftrees.symfun import qsym_ops

    rep = check_cocommutativity(qsym_ops(QQ), 4)
    assert not rep.passed
    # the witness names the composition and shows its two differing pairs
    (failed,) = [e for e in rep.entries if not e.ok]
    label, diff = failed.witness.split("; lhs - rhs = ")
    assert label.startswith("Composition(") and diff.count("(x)") == 2


def test_pairing_extension():
    l2, l3 = ladder(2), ladder(3)
    a = LinComb.term(QQ, l2)
    b = LinComb.term(QQ, l3)
    assert pairing_extend(pairing_kt_hk, a, b) == 0  # degree mismatch
    assert pairing_extend(pairing_kt_hk, a, a) == 1
    cherry = RootedTree([DOT, DOT])
    two_x_plus_y = LinComb(QQ, {l3: 2, cherry: 1})
    z = LinComb.term(QQ, l3)
    assert pairing_extend(pairing_kt_hk, two_x_plus_y, z) == 2 * pairing_kt_hk(
        l3, l3
    ) + pairing_kt_hk(cherry, l3)


def test_tensor_pairing_factorizes():
    l2 = ladder(2)
    ta = TensorElem.term(QQ, l2, DOT)
    tb = TensorElem.term(QQ, l2, DOT)
    assert tensor_pairing(pairing_kt_hk, ta, tb) == pairing_kt_hk(
        l2, l2
    ) * pairing_kt_hk(DOT, DOT)


def test_duality_check_small_degree():
    rep = duality_check(ck_ops(QQ), gl_ops(QQ), bplus, pairing_hk, pairing_kt_hk, 3)
    assert rep.passed


# Each fault changes one coefficient of one map of the H_K ~ kT duality.
def _phi_fault(monkeypatch, ck, maps):
    # a second, degree-0 tree in the image of the one-dot forest
    u = Forest([DOT])
    maps["phi"] = lambda f: LinComb(QQ, {bplus(f): 1, DOT: 1}) if f is u else bplus(f)


def _pairing_fault(monkeypatch, ck, maps):
    u = Forest([DOT])
    maps["pairing_a"] = lambda f, g: pairing_hk(f, g) + (f is g is u)


def _product_fault(monkeypatch, ck, maps):
    u, exact = Forest([DOT]), ck.product
    monkeypatch.setattr(
        ck,
        "product",
        lambda f, g: exact(f, g) + ck.term(f.mul(g)) if f is g is u else exact(f, g),
    )


def _coproduct_fault(monkeypatch, ck, maps):
    u, exact = Forest([DOT]), ck.coproduct
    monkeypatch.setattr(
        ck,
        "coproduct",
        lambda f: exact(f) + TensorElem.term(QQ, u, u) if f is u.mul(u) else exact(f),
    )


DUALITY_FAULTS = [
    ("degree preservation of phi", _phi_fault),
    ("(a) pairing preserved", _pairing_fault),
    ("(b) product vs dual coproduct", _product_fault),
    ("(c) coproduct vs dual product", _coproduct_fault),
]


@pytest.mark.parametrize("law, fault", DUALITY_FAULTS, ids=[l for l, _ in DUALITY_FAULTS])
def test_duality_check_catches_one_wrong_coefficient(monkeypatch, law, fault):
    ck, gl = ck_ops(QQ), gl_ops(QQ)
    maps = {"phi": bplus, "pairing_a": pairing_hk}
    fault(monkeypatch, ck, maps)
    # the faulty triple (u, u, uu) has total degree 4
    rep = duality_check(ck, gl, maps["phi"], maps["pairing_a"], pairing_kt_hk, 4)
    entries = {e.law: e for e in rep.entries}
    assert set(entries) == {name for name, _ in DUALITY_FAULTS}
    entry = entries[law]
    assert not entry.ok
    u = Forest([DOT])
    pinned = {
        # a predicate: its witness names the case only
        "degree preservation of phi": repr(u),
        "(a) pairing preserved": f"{(u, u)!r}; lhs - rhs = 1",
    }
    if law in pinned:
        assert entry.witness == pinned[law]
    else:
        assert "; lhs - rhs = " in entry.witness


def test_duality_degenerate_triple():
    # with the third argument the unit, both sides reduce to (a1 a2, 1)
    ck, gl = ck_ops(QQ), gl_ops(QQ)
    u = Forest([DOT])
    lhs = pairing_extend(pairing_hk, ck.product(u, u), ck.one_lc())
    tens = TensorElem.tensor(gl.term(bplus(u)), gl.term(bplus(u)))
    rhs = tensor_pairing(pairing_kt_hk, tens, gl.coproduct(bplus(ck.unit)))
    assert lhs == rhs == 0


def test_law_without_cases_fails():
    rep = Report("demo", 0)
    rep.law("empty law", [], lambda case: None)
    rep.add("single check", True)
    empty, single = rep.entries
    assert not empty.ok and empty.witness == "no cases checked"
    assert empty.line() == "FAIL empty law witness: no cases checked"
    assert single.ok and single.checked == 0
    assert not rep.passed


def test_report_json_shape():
    rep = Report("demo", 2)
    rep.add("law one", True, checked=3)
    rep.add("law two", False, degree=1, witness="w")
    data = rep.to_json()
    assert data["passed"] is False
    assert data["laws"][0] == {"law": "law one", "status": "pass", "checked": 3}
    assert data["laws"][1] == {
        "law": "law two",
        "status": "fail",
        "checked": 0,
        "degree": 1,
        "witness": "w",
    }
    assert any("FAIL" in line for line in rep.lines())
