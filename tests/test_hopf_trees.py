from collections import Counter
from functools import lru_cache
from math import comb

import pytest

from hopftrees.coproducts import extend_multiplicatively
from hopftrees.freemodule import (
    LinComb,
    MonomialProduct,
    TensorElem,
    generic_antipode,
    pairing_extend,
)
from hopftrees.hopf_trees import (
    bminus,
    bplus,
    ck_antipode,
    ck_coproduct,
    ck_ops,
    cut_counts,
    cuts_of,
    gl_coproduct,
    gl_ops,
    gl_product,
    hf_antipode,
    hf_coproduct,
    hf_ops,
    kp_coproduct,
    kp_product,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from hopftrees.scalar import QQ, ZZ
from hopftrees.trees import (
    DOT,
    EMPTY_FOREST,
    EMPTY_ORDERED,
    Forest,
    OrderedForest,
    PDOT,
    PlanarTree,
    ResourceLimitError,
    RootedTree,
    bba_decode,
    degree_ceiling,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    planar_ladder,
    to_planar,
)

from oracles import ck_coproduct_recursive, gl_product_oracle, kp_product_oracle

CHERRY = RootedTree([DOT, DOT])
L2, L3 = ladder(2), ladder(3)
STAR3 = RootedTree([DOT, DOT, DOT])
B_DOT_L2 = RootedTree([DOT, L2])


def one_forest(t):
    return Forest((t,))


def test_bplus_bminus():
    assert bplus(Forest([DOT, L2])) == B_DOT_L2
    assert bplus(EMPTY_FOREST) == DOT
    assert bminus(CHERRY) == Forest([DOT, DOT])
    assert bminus(bplus(Forest([CHERRY, L2]))) == Forest([CHERRY, L2])
    assert bplus(EMPTY_ORDERED) == PDOT
    assert bminus(bba_decode("<><<>>")) == OrderedForest(
        [PDOT, planar_ladder(2)]
    )
    with pytest.raises(TypeError):
        bminus(EMPTY_FOREST)
    with pytest.raises(TypeError):
        bminus(EMPTY_ORDERED)
    # each forest type grafts to its own tree type
    assert bplus(EMPTY_ORDERED) is PDOT
    for n in range(7):
        for f in ck_ops(QQ).basis(n) + hf_ops(QQ).basis(n):
            assert bminus(bplus(f)) is f
            assert type(bplus(f)) is f.tree
        for t in enumerate_rooted(n):
            assert t.bba == to_planar(t).bba


def test_gl_product_paper_displays():
    assert gl_product(CHERRY, L2) == LinComb(
        QQ, {STAR3: 1, B_DOT_L2: 2, RootedTree([CHERRY]): 1}
    )
    assert gl_product(L2, CHERRY) == LinComb(QQ, {STAR3: 1, B_DOT_L2: 2})


def test_gl_unit_laws():
    for n in range(5):
        for t in enumerate_rooted(n):
            assert gl_product(DOT, t) == LinComb.term(QQ, t)
            assert gl_product(t, DOT) == LinComb.term(QQ, t)


def _pairs_upto(enumerate_trees, total):
    """Every pair of trees whose degrees sum to at most total."""
    for a in range(total + 1):
        for b in range(total - a + 1):
            for t in enumerate_trees(a):
                for u in enumerate_trees(b):
                    yield t, u


def test_gl_product_matches_assignment_oracle():
    pairs = list(_pairs_upto(enumerate_rooted, 7))
    assert len(pairs) == 790
    for t, u in pairs:
        assert gl_product(t, u) == gl_product_oracle(t, u), (t, u)


def test_gl_product_counts_every_assignment():
    # each of the k root branches of t goes to one of the |u| vertices
    for t, u in _pairs_upto(enumerate_rooted, 8):
        prod = gl_product(t, u)
        assert sum(prod.terms.values()) == u.size ** len(t.children), (t, u)


def test_gl_product_of_a_large_bush():
    # 7 equal branches on the 8 vertices of a ladder: one tree for each of
    # the C(14, 7) multisets of vertices, out of the 8^7 assignments
    prod = gl_product(RootedTree([DOT] * 7), ladder(8))
    assert len(prod.terms) == comb(14, 7) == 3432
    assert sum(prod.terms.values()) == 8**7


def test_gl_coproduct_examples():
    assert gl_coproduct(DOT) == TensorElem.term(QQ, DOT, DOT)
    assert gl_coproduct(L2) == TensorElem(QQ, {(L2, DOT): 1, (DOT, L2): 1})
    assert gl_coproduct(CHERRY) == TensorElem(
        QQ, {(CHERRY, DOT): 1, (L2, L2): 2, (DOT, CHERRY): 1}
    )


def test_gl_degree_additivity():
    prod = gl_product(CHERRY, L3)
    assert all(t.size == CHERRY.size + L3.size - 1 for t in prod.support())


def test_cuts_examples():
    only = cuts_of(DOT)
    assert len(only) == 1 and only[0].admissible and only[0].weight == 0
    assert len(cuts_of(L3)) == 4
    assert len(cuts_of(L3, admissible_only=True)) == 3
    assert len(cuts_of(CHERRY)) == 4
    assert len(cuts_of(CHERRY, admissible_only=True)) == 4


def test_cut_pieces():
    (full,) = [c for c in cuts_of(L3) if c.weight == 2]
    assert not full.admissible
    assert full.fallen == Forest([DOT, DOT])
    assert full.root_part == DOT


def _oracle_cuts(tree):
    """(fallen, root part, weight, admissible) of every edge subset of tree,
    from a preorder parent array: the brute-force reference for cuts_of.
    Vertex v > 0 stands for the edge above it."""
    parents, kids = [], []

    def walk(node, parent):
        v = len(parents)
        parents.append(parent)
        kids.append([])
        if parent >= 0:
            kids[parent].append(v)
        for c in node.children:
            walk(c, v)

    walk(tree, -1)
    # the non-root proper ancestors of each vertex: the edges above its edge
    above = [set()]
    for v in range(1, len(parents)):
        u = parents[v]
        above.append(above[u] | {u} if u > 0 else set())
    rooted = isinstance(tree, RootedTree)
    make = RootedTree if rooted else PlanarTree
    forest = Forest if rooted else OrderedForest
    out = []
    for mask in range(1 << (len(parents) - 1)):
        cut = {v for v in range(1, len(parents)) if mask >> (v - 1) & 1}

        def piece(v):
            return make(piece(w) for w in kids[v] if w not in cut)

        admissible = not any(above[v] & cut for v in cut)
        fallen = forest(piece(v) for v in sorted(cut))
        out.append((fallen, piece(0), len(cut), admissible))
    return out


def test_cuts_match_edge_subset_oracle():
    trees = [
        t
        for n in range(8)
        for t in enumerate_planar(n) + enumerate_rooted(n)
    ]
    for t in trees:
        want = Counter(_oracle_cuts(t))
        admissible = Counter({cut: k for cut, k in want.items() if cut[3]})
        for got, expected in (
            (cuts_of(t), want),
            (cuts_of(t, admissible_only=True), admissible),
        ):
            pieces = Counter(
                (c.fallen, c.root_part, c.weight, c.admissible) for c in got
            )
            assert pieces == expected, t


@lru_cache(maxsize=None)
def _per_cut_tally(tree) -> Counter:
    return Counter(_oracle_cuts(tree))


def test_cut_counts_match_edge_subset_oracle():
    # each distinct cut once, with the number of edge sets that give it
    trees = [
        t
        for n in range(8)
        for t in enumerate_planar(n) + enumerate_rooted(n)
    ]
    for t in trees:
        want = _per_cut_tally(t)
        for admissible_only in (False, True):
            got = {
                (c.fallen, c.root_part, c.weight, c.admissible): k
                for c, k in cut_counts(t, admissible_only).items()
            }
            assert got == {
                cut: k for cut, k in want.items() if cut[3] or not admissible_only
            }, t


def _per_cut_coproduct(t, ring) -> TensorElem:
    """t x 1 plus one term fallen part x root part per admissible edge set."""
    forest = t.forest
    terms = [((forest((t,)), forest()), 1)]
    for fallen, root, _, admissible in _oracle_cuts(t):
        if admissible:
            terms.append(((fallen, forest((root,))), 1))
    return TensorElem(ring, terms)


def _per_cut_antipode(t, ring) -> LinComb:
    """-(-1)^|c| reverse(fallen) * root part, one term per edge set c."""
    forest = t.forest
    terms = [
        (fallen.reverse().mul(forest((root,))), -((-1) ** weight))
        for fallen, root, weight, _ in _oracle_cuts(t)
    ]
    return LinComb(ring, terms)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
@pytest.mark.parametrize(
    "ops, coproduct, antipode",
    [(ck_ops, ck_coproduct, ck_antipode), (hf_ops, hf_coproduct, hf_antipode)],
    ids=["H_K", "H_F"],
)
def test_cut_maps_match_per_cut_route(ring, ops, coproduct, antipode):
    # every basis forest to weight 7, with and without the ops memo
    hopf = ops(ring)
    mul = MonomialProduct(ring)
    for n in range(8):
        for x in hopf.basis(n):
            unit = type(x)()
            want = extend_multiplicatively(ring, unit, x.trees, _per_cut_coproduct)
            assert coproduct(x, ring) == want == hopf.coproduct(x), x
            want = LinComb.term(ring, unit)
            for t in reversed(x.trees):
                want = want.bilinear(mul, _per_cut_antipode(t, ring))
            assert antipode(x, ring) == want == hopf.antipode_basis(x), x


def test_cut_resource_cap():
    n = degree_ceiling() + 1
    with pytest.raises(ResourceLimitError) as err:
        cuts_of(ladder(n + 1))
    assert str(err.value) == (
        f"cut enumeration at weight {n} exceeds ceiling {degree_ceiling()}"
    )


def test_ck_coproduct_examples():
    l2f, l3f = one_forest(L2), one_forest(L3)
    dot = one_forest(DOT)
    assert ck_coproduct(l2f) == TensorElem(
        QQ, {(l2f, EMPTY_FOREST): 1, (dot, dot): 1, (EMPTY_FOREST, l2f): 1}
    )
    assert ck_coproduct(l3f) == TensorElem(
        QQ,
        {
            (l3f, EMPTY_FOREST): 1,
            (dot, l2f): 1,
            (l2f, dot): 1,
            (EMPTY_FOREST, l3f): 1,
        },
    )
    cherry = one_forest(CHERRY)
    assert ck_coproduct(cherry) == TensorElem(
        QQ,
        {
            (cherry, EMPTY_FOREST): 1,
            (dot, l2f): 2,
            (Forest([DOT, DOT]), dot): 1,
            (EMPTY_FOREST, cherry): 1,
        },
    )


def test_ck_coproduct_recursive_base_case():
    dot = one_forest(DOT)
    assert ck_coproduct_recursive(dot) == TensorElem(
        QQ, {(dot, EMPTY_FOREST): 1, (EMPTY_FOREST, dot): 1}
    )


@pytest.mark.parametrize("n", range(7))
def test_ck_coproduct_two_formulas_agree(n):
    for f in ck_ops(QQ).basis(n):
        assert ck_coproduct(f) == ck_coproduct_recursive(f)


def test_ck_antipode_examples():
    dot = one_forest(DOT)
    assert ck_antipode(DOT) == LinComb.term(QQ, dot, -1)
    assert ck_antipode(L2) == LinComb(
        QQ, {one_forest(L2): -1, Forest([DOT, DOT]): 1}
    )


@pytest.mark.parametrize("n", range(6))
def test_ck_antipode_matches_generic(n):
    ck = ck_ops(QQ)
    for f in ck_ops(QQ).basis(n):
        assert ck_antipode(f) == generic_antipode(ck, f)


def test_kp_product_paper_displays():
    t = bba_decode
    lhs = kp_product(t("<><>"), t("<>"))
    assert lhs == LinComb(
        QQ,
        {
            t("<><><>"): 3,
            t("<><<>>"): 1,
            t("<<>><>"): 1,
            t("<<><>>"): 1,
        },
    )
    rhs = kp_product(t("<>"), t("<><>"))
    assert rhs == LinComb(
        QQ, {t("<><><>"): 3, t("<><<>>"): 1, t("<<>><>"): 1}
    )


def test_kp_product_matches_bracket_shuffle_oracle():
    pairs = list(_pairs_upto(enumerate_planar, 6))
    assert len(pairs) == 625
    for t, u in pairs:
        assert kp_product(t, u) == kp_product_oracle(t, u), (t, u)


def test_kp_product_counts_every_shuffle():
    # the k components of t, in order, among the 2|u| - 2 symbols of u
    for t, u in _pairs_upto(enumerate_planar, 7):
        k = len(t.children)
        prod = kp_product(t, u)
        assert sum(prod.terms.values()) == comb(k + 2 * u.size - 2, k), (t, u)


def test_kp_unit_laws():
    for n in range(5):
        for t in enumerate_planar(n):
            assert kp_product(PDOT, t) == LinComb.term(QQ, t)
            assert kp_product(t, PDOT) == LinComb.term(QQ, t)


def test_kp_coproduct_examples():
    t = bba_decode
    assert kp_coproduct(PDOT) == TensorElem.term(QQ, PDOT, PDOT)
    mixed = t("<><<>>")
    assert kp_coproduct(mixed) == TensorElem(
        QQ,
        {
            (PDOT, mixed): 1,
            (t("<>"), t("<<>>")): 1,
            (mixed, PDOT): 1,
        },
    )
    irr = t("<<><>>")
    assert kp_coproduct(irr) == TensorElem(QQ, {(PDOT, irr): 1, (irr, PDOT): 1})


def one_oforest(t):
    return OrderedForest((t,))


def test_hf_coproduct_examples():
    pl2 = planar_ladder(2)
    l2f = one_oforest(pl2)
    dot = one_oforest(PDOT)
    assert hf_coproduct(l2f) == TensorElem(
        QQ, {(l2f, EMPTY_ORDERED): 1, (dot, dot): 1, (EMPTY_ORDERED, l2f): 1}
    )
    pcherry = one_oforest(bba_decode("<><>"))
    two_dots = OrderedForest([PDOT, PDOT])
    assert hf_coproduct(pcherry) == TensorElem(
        QQ,
        {
            (pcherry, EMPTY_ORDERED): 1,
            (dot, l2f): 2,
            (two_dots, dot): 1,
            (EMPTY_ORDERED, pcherry): 1,
        },
    )
    assert hf_coproduct(two_dots) == TensorElem(
        QQ,
        {
            (two_dots, EMPTY_ORDERED): 1,
            (dot, dot): 2,
            (EMPTY_ORDERED, two_dots): 1,
        },
    )


# --- independent oracle: the rooted-subforest formula for the H_F coproduct


def _rooted_subtrees_with_complement(t: PlanarTree):
    """Yield (kept subtree or None, fallen components in preorder order)."""
    yield None, [t]
    child_options = [list(_rooted_subtrees_with_complement(c)) for c in t.children]

    def combine(i):
        if i == len(child_options):
            yield [], []
            return
        for kept, fallen in child_options[i]:
            for kept_rest, fallen_rest in combine(i + 1):
                yield [kept] + kept_rest, fallen + fallen_rest

    for kept_children, fallen in combine(0):
        kept_tree = PlanarTree([k for k in kept_children if k is not None])
        yield kept_tree, fallen


def hf_coproduct_subforest_oracle(forest: OrderedForest) -> TensorElem:
    acc = TensorElem.term(QQ, EMPTY_ORDERED, EMPTY_ORDERED)
    for t in forest.trees:
        terms = {}
        for kept, fallen in _rooted_subtrees_with_complement(t):
            left = OrderedForest(fallen)
            right = EMPTY_ORDERED if kept is None else OrderedForest([kept])
            key = (left, right)
            terms[key] = terms.get(key, 0) + 1
        step = TensorElem(QQ, terms)
        mul = lambda a, b: LinComb.term(QQ, a.mul(b))
        acc = acc.mul(step, mul, mul)
    return acc


@pytest.mark.parametrize("n", range(6))
def test_hf_coproduct_matches_subforest_formula(n):
    for f in hf_ops(QQ).basis(n):
        assert hf_coproduct(f) == hf_coproduct_subforest_oracle(f)


def test_hf_antipode_examples():
    dot = one_oforest(PDOT)
    pl2 = planar_ladder(2)
    assert hf_antipode(PDOT) == LinComb.term(QQ, dot, -1)
    assert hf_antipode(pl2) == LinComb(
        QQ, {one_oforest(pl2): -1, OrderedForest([PDOT, PDOT]): 1}
    )


@pytest.mark.parametrize("n", range(6))
def test_hf_antipode_matches_generic(n):
    hf = hf_ops(QQ)
    for f in hf_ops(QQ).basis(n):
        assert hf_antipode(f) == generic_antipode(hf, f)


def test_hf_antipode_antiautomorphism():
    hf = hf_ops(QQ)
    pl2 = planar_ladder(2)
    pc = bba_decode("<><>")
    f = OrderedForest([pl2, pc])
    swapped = OrderedForest([pc, pl2])
    lhs = hf_antipode(f)
    rhs = hf.product_lc(hf_antipode(pc), hf_antipode(pl2))
    assert lhs == rhs
    assert hf_antipode(f) != hf_antipode(swapped)


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=lambda r: r.name)
@pytest.mark.parametrize(
    "factory, coproduct, antipode, top",
    [(ck_ops, ck_coproduct, ck_antipode, 7), (hf_ops, hf_coproduct, hf_antipode, 6)],
    ids=["H_K", "H_F"],
)
def test_forest_maps_from_factors_match_the_tree_maps(
    factory, coproduct, antipode, top, ring
):
    """The ops build a forest's coproduct as Delta(rest) * Delta(last tree)
    and its antipode as S(last tree) * S(rest) from their own memo; both
    equal the tree maps extended over the forest: the cut coproduct
    multiplicatively (extend_multiplicatively), the closed antipode of each
    tree in reverse order, and the maps called without the memo."""
    factory.cache_clear()
    ops = factory(ring)
    forest = type(ops.unit)
    mul = MonomialProduct(ring)
    several = 0
    for n in range(top + 1):
        for f in ops.basis(n):
            several += len(f.trees) > 1
            tree_coproducts = extend_multiplicatively(
                ring, ops.unit, f.trees, lambda t, r: coproduct(forest((t,)), r)
            )
            assert ops.coproduct(f) == tree_coproducts == coproduct(f, ring)
            tree_antipodes = LinComb.term(ring, ops.unit)
            for t in reversed(f.trees):
                tree_antipodes = tree_antipodes.bilinear(mul, antipode(t, ring))
            assert ops.antipode_basis(f) == tree_antipodes == antipode(f, ring)
    assert several


def test_pairings():
    assert pairing_kt_hk(L2, L2) == 1
    assert pairing_kt_hk(CHERRY, CHERRY) == 2
    assert pairing_kt_hk(L3, CHERRY) == 0
    u = Forest([DOT, DOT])
    assert pairing_hk(u, u) == 2
    t = bba_decode("<><>")
    assert pairing_kp_hf(t, t) == 1
    assert pairing_kp_hf(t, bba_decode("<<>>")) == 0
    f = OrderedForest([PDOT, planar_ladder(2)])
    g = OrderedForest([planar_ladder(2), PDOT])
    assert pairing_hf(f, f) == 1
    assert pairing_hf(f, g) == 0
    # the values are integers, so the duality suite runs over ZZ
    values = (
        pairing_kt_hk(CHERRY, CHERRY),
        pairing_kt_hk(L3, CHERRY),
        pairing_hk(u, u),
        pairing_kp_hf(t, t),
        pairing_hf(f, g),
    )
    assert all(type(v) is int for v in values)


def test_pairing_bilinear_on_two_terms():
    a = LinComb(QQ, {bba_decode("<>"): 2, bba_decode("<<>>"): 3})
    b = LinComb.term(QQ, bba_decode("<<>>"))
    assert pairing_extend(pairing_kp_hf, a, b) == 3


@pytest.mark.parametrize("total", range(5))
def test_duality_identity_commutative(total):
    # (u x v, D(w)) = (B+(u) o B+(v), B+(w)) over all forest triples
    from hopftrees.freemodule import tensor_pairing

    by_weight = {n: ck_ops(QQ).basis(n) for n in range(total + 1)}
    gl = gl_ops(QQ)
    for a in range(total + 1):
        for b in range(total - a + 1):
            for c in range(total - a - b + 1):
                for u in by_weight[a]:
                    for v in by_weight[b]:
                        for w in by_weight[c]:
                            tens = TensorElem.tensor(
                                LinComb.term(QQ, u), LinComb.term(QQ, v)
                            )
                            lhs = tensor_pairing(pairing_hk, tens, ck_coproduct(w))
                            prod = gl_product(bplus(u), bplus(v))
                            rhs = pairing_extend(
                                pairing_kt_hk, prod, LinComb.term(QQ, bplus(w))
                            )
                            assert lhs == rhs


def test_planar_multiplicity_interpretation():
    # the coefficient of T' in B+(F) o T equals the number of cuts of T'
    # with fallen part F and root part T
    for n in range(5):
        for target in enumerate_planar(n):
            cut_counts = {}
            for cut in cuts_of(target, admissible_only=True):
                key = (cut.fallen, cut.root_part)
                cut_counts[key] = cut_counts.get(key, 0) + 1
            for (f, t), count in cut_counts.items():
                coeff = kp_product(bplus(f), t).coeff(target)
                assert coeff == count


def test_gl_cocommutative_small():
    from hopftrees.freemodule import check_cocommutativity

    assert check_cocommutativity(gl_ops(QQ), 5).passed
