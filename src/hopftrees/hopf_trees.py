"""The four tree Hopf algebras: kT, H_K (Connes-Kreimer), kP, H_F (Foissy).

kT has rooted trees as basis with the grafting product; H_K is the free
commutative algebra on rooted trees with the admissible-cut coproduct.  kP
and H_F are their planar analogues: kP grafts in order into the gaps between
children, H_F is the tensor algebra on planar trees.  One memoised walk over
the slots of u computes both grafting products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, NamedTuple

from .coproducts import extend_multiplicatively, prefixes, split_coproduct, submultisets
from .freemodule import HopfOps, LinComb, MonomialProduct, TensorElem
from .scalar import QQ
from .trees import (
    DOT,
    EMPTY_FOREST,
    EMPTY_ORDERED,
    Forest,
    OrderedForest,
    PlanarTree,
    PDOT,
    RootedTree,
    _Forest,
    check_weight,
    enumerate_planar,
    enumerate_rooted,
    sym_order,
)

# ---------------------------------------------------------------------------
# grafting operators


# A forest's trees are in its tree type's canonical order of children, and
# a tree's children in its forest type's order of trees, so each side is
# looked up as it is.


def bplus(f):
    """Attach a new root over all trees of the forest, giving a tree of the
    forest's tree type; the empty forest maps to the single vertex."""
    return f.tree.of_canonical(f.trees)


def bminus(t):
    """Inverse of bplus: the forest of root branches, of the tree's forest
    type."""
    if not isinstance(t, (RootedTree, PlanarTree)):
        raise TypeError("bminus needs a tree, not the algebra unit")
    return t.forest.of_canonical(t.children)


# ---------------------------------------------------------------------------
# cuts


class Cut(NamedTuple):
    """The pieces a set of cut edges produces: ``fallen``, the components
    separated from the root (a Forest for a rooted tree; for a planar tree an
    OrderedForest in the preorder of their roots), ``root_part``, the
    component containing the root, and ``weight``, the number of cut edges.
    A cut is admissible when no cut edge lies on the path from the root to
    another."""

    fallen: Any
    root_part: Any
    weight: int
    admissible: bool


def _cut_states(tree, admissible_only, memo) -> dict:
    """(kids, fallen pieces in preorder, admissible) -> number of cuts of
    tree that give them, where kids are the root's kept children in order
    and each fallen piece is the part below one cut edge.  The walk goes
    over the children in order and merges equal partial cuts, so each
    distinct state is extended once."""
    states = {((), (), True): 1}
    for child in tree.children:
        options = memo.get(child)
        if options is None:
            options = memo[child] = _child_options(child, admissible_only, memo)
        grown: dict = {}
        for (kids, fallen, adm), n in states.items():
            for (k, f, cadm), m in options:
                key = (kids + k, fallen + f, adm and cadm)
                grown[key] = grown.get(key, 0) + n * m
        states = grown
    return states


def _child_options(child, admissible_only, memo) -> tuple:
    """((kids piece, fallen piece, admissible), ways) for each way the edge
    above child and the edges below it can be cut: either the edge stays
    and the child's root part joins the kids, or it is cut and the root
    part falls ahead of the child's own fallen pieces; in an admissible cut
    a child falls only whole."""
    make = type(child)
    out: dict = {}
    for (kids, fallen, adm), n in _cut_states(child, admissible_only, memo).items():
        root = make(kids)
        key = ((root,), fallen, adm)
        out[key] = out.get(key, 0) + n
        if not (fallen and admissible_only):
            key = ((), (root,) + fallen, not fallen)
            out[key] = out.get(key, 0) + n
    return tuple(out.items())


def cut_counts(tree, admissible_only: bool = False) -> dict:
    """Each distinct cut of a rooted or planar tree, or each distinct
    admissible one, with the number of edge sets that give it.  The walks
    of equal subtrees are shared within the call only."""
    check_weight(tree.size - 1, "cut enumeration")
    make, forest = type(tree), tree.forest
    out: dict = {}
    for (kids, fallen, adm), n in _cut_states(tree, admissible_only, {}).items():
        cut = Cut(forest(fallen), make(kids), len(fallen), adm)
        out[cut] = out.get(cut, 0) + n
    return out


def cuts_of(tree, admissible_only: bool = False) -> list:
    """All 2^(edge count) cuts of a rooted or planar tree, or just the
    admissible ones, each as often as cut_counts counts it; the pieces have
    the tree's own type, and the fallen part its forest type."""
    return [
        cut for cut, n in cut_counts(tree, admissible_only).items() for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# grafting: one slot walk for kT and kP
#
# Grafting the root branches of t onto u attaches each branch to a vertex of
# u.  The walk visits the slots of each vertex of u in order, and each slot
# takes a piece of the branches still pending; the last slot takes all that
# is left.  A rooted vertex has the slots (the vertex, child 1, ..., child
# k), and a piece is a sub-multiset of the canonically sorted branches, whose
# equal branches are adjacent.  A planar vertex has the slots (gap 0, child
# 1, gap 1, ..., child k, gap k), the positions between its children, and a
# piece is a prefix of the ordered branches still pending.


def _rooted_slots(kids: tuple) -> tuple:
    return ((None, kids),) + tuple((c, kids[i + 1 :]) for i, c in enumerate(kids))


def _planar_slots(kids: tuple) -> tuple:
    return ((None, kids),) + tuple(
        slot
        for i, c in enumerate(kids)
        for slot in ((c, kids[i + 1 :]), (None, kids[i + 1 :]))
    )


# tree type -> (its slots, its pieces); a slot is (child, the children after
# it), with None as the child for the vertex itself or a gap
_GRAFTING = {
    RootedTree: (_rooted_slots, submultisets),
    PlanarTree: (_planar_slots, prefixes),
}


def _slot_walk(u, pending: tuple) -> tuple:
    """(tree, count) for each tree that attaching every branch of pending to
    a vertex of u gives; count is the number of ways.  A vertex or gap slot
    appends its piece to the kids, a child slot the child walked with its
    piece; once no branch is left, the children after the slot follow
    unchanged."""
    if not pending:
        return ((u, 1),)
    make = type(u)
    slots, pieces = _GRAFTING[make]
    slots = slots(u.children)
    last = len(slots) - 1
    counts: dict = {}
    states = {((), pending): 1}  # (kids so far, branches left) -> ways
    for i, (child, tail) in enumerate(slots):
        grown: dict = {}
        for (kids, rest), n in states.items():
            for piece, left, w in ((rest, (), 1),) if i == last else pieces(rest):
                if child is None:
                    options = ((kids + piece, w),)
                elif not piece:
                    options = ((kids + (child,), w),)
                else:
                    options = (
                        (kids + (c,), w * m) for c, m in _slot_walk_memo(child, piece)
                    )
                for kids2, ways in options:
                    if left:
                        key = (kids2, left)
                        grown[key] = grown.get(key, 0) + n * ways
                    else:
                        tree = make(kids2 + tail)
                        counts[tree] = counts.get(tree, 0) + n * ways
        states = grown
    return tuple(counts.items())


# the walks below the top level, shared across calls; the top-level walk is
# not stored, since HopfOps memoises the product it gives
_slot_walk_memo = lru_cache(maxsize=None)(_slot_walk)


# ---------------------------------------------------------------------------
# kT: the grafting algebra of rooted trees


def gl_product(t: RootedTree, u: RootedTree, ring=QQ) -> LinComb:
    """Grafting product: sum over all ways of attaching each root branch of t
    to a vertex of u, the branches counted as labelled."""
    return LinComb(ring, _slot_walk(u, t.children))


def gl_coproduct(t: RootedTree, ring=QQ) -> TensorElem:
    """Cocommutative coproduct of kT: split the root branches in all 2^k
    ways, one term per sub-multiset weighted by the subsets that give it."""
    return split_coproduct(ring, RootedTree, submultisets(t.children))


@lru_cache(maxsize=None)
def gl_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="kT",
        ring=ring,
        unit=DOT,
        degree=lambda t: t.size - 1,
        basis=lambda n: enumerate_rooted(n),
        product=lambda a, b: gl_product(a, b, ring),
        coproduct=lambda t: gl_coproduct(t, ring),
    )


# ---------------------------------------------------------------------------
# forest algebras from the cuts of their trees
#
# H_K and H_F share one construction: Forest over rooted trees for H_K,
# OrderedForest over planar trees for H_F.  Each tree names its forest type,
# and cut_counts returns the fallen part in it.


def _cut_coproduct(t, ring) -> TensorElem:
    """t x 1 plus fallen part x root part over the admissible cuts of t; the
    empty cut contributes 1 x t."""
    forest = t.forest
    whole = ((forest((t,)), forest()), 1)
    cuts = cut_counts(t, admissible_only=True).items()
    return TensorElem(
        ring, [whole] + [((c.fallen, forest((c.root_part,))), n) for c, n in cuts]
    )


def _cut_antipode(t, ring) -> LinComb:
    forest = t.forest
    cuts = cut_counts(t, admissible_only=False).items()
    return LinComb(
        ring,
        [
            (c.fallen.reverse().mul(forest((c.root_part,))), -((-1) ** c.weight) * n)
            for c, n in cuts
        ],
    )


def _last_tree(x):
    """(rest, last): the forest x without its last tree, and that tree as a
    forest of one, so that x = rest * last."""
    forest = type(x)
    return forest(x.trees[:-1]), forest(x.trees[-1:])


def _forest_coproduct(x, ring, memo) -> TensorElem:
    """The cut coproduct of the trees of x, extended multiplicatively.
    Given memo, the HopfOps whose memo holds the coproducts, a forest of
    several trees is Delta(rest) * Delta(last tree), both from the memo."""
    if memo is None or len(x.trees) < 2:
        return extend_multiplicatively(ring, type(x)(), x.trees, _cut_coproduct)
    rest, last = _last_tree(x)
    mul = memo.product
    return memo.coproduct(rest).mul(memo.coproduct(last), mul, mul)


def _closed_antipode(x, ring, memo) -> LinComb:
    """-sum over all cuts of (-1)^{|c|} reverse(P^c) R^c on a tree, extended
    to forests as an antiautomorphism (reversal is trivial on Forests).
    Given memo, the HopfOps whose memo holds the antipodes, a forest of
    several trees is S(last tree) * S(rest), both from the memo."""
    if not isinstance(x, _Forest):
        return _cut_antipode(x, ring)
    if memo is not None and len(x.trees) > 1:
        rest, last = _last_tree(x)
        s_last, s_rest = memo.antipode_basis(last), memo.antipode_basis(rest)
        return s_last.bilinear(memo.product, s_rest)
    acc = LinComb.term(ring, type(x)())
    mul = MonomialProduct(ring)
    for t in reversed(x.trees):
        acc = acc.bilinear(mul, _cut_antipode(t, ring))
    return acc


# ---------------------------------------------------------------------------
# H_K: the Connes-Kreimer algebra of forests


def ck_coproduct(x: Forest, ring=QQ, memo=None) -> TensorElem:
    """Admissible-cut coproduct, extended multiplicatively over the forest;
    memo as in _forest_coproduct."""
    return _forest_coproduct(x, ring, memo)


def ck_antipode(x, ring=QQ, memo=None) -> LinComb:
    """Closed antipode formula on a rooted tree or a forest of them; memo as
    in _closed_antipode."""
    return _closed_antipode(x, ring, memo)


@lru_cache(maxsize=None)
def ck_ops(ring=QQ) -> HopfOps:
    ops = HopfOps(
        name="H_K",
        ring=ring,
        unit=EMPTY_FOREST,
        degree=lambda f: f.weight,
        basis=lambda n: tuple(map(bminus, enumerate_rooted(n))),
        product=MonomialProduct(ring),
        coproduct=lambda f: ck_coproduct(f, ring, ops),
        antipode=lambda f: ck_antipode(f, ring, ops),
    )
    return ops


# ---------------------------------------------------------------------------
# kP: planar grafting


def kp_product(t: PlanarTree, u: PlanarTree, ring=QQ) -> LinComb:
    """Planar grafting product: sum over all ways of attaching the root
    branches of t, in order, into the gaps between the children of the
    vertices of u."""
    return LinComb(ring, _slot_walk(u, t.children))


def kp_coproduct(t: PlanarTree, ring=QQ) -> TensorElem:
    """Deconcatenation of the component sequence of the bracket string."""
    return split_coproduct(ring, PlanarTree, prefixes(t.children))


@lru_cache(maxsize=None)
def kp_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="kP",
        ring=ring,
        unit=PDOT,
        degree=lambda t: t.size - 1,
        basis=lambda n: enumerate_planar(n),
        product=lambda a, b: kp_product(a, b, ring),
        coproduct=lambda t: kp_coproduct(t, ring),
    )


# ---------------------------------------------------------------------------
# H_F: the Foissy algebra of ordered forests


def hf_coproduct(x: OrderedForest, ring=QQ, memo=None) -> TensorElem:
    """Ordered admissible-cut coproduct, extended multiplicatively; equal to
    the rooted-subforest sum.  memo as in _forest_coproduct."""
    return _forest_coproduct(x, ring, memo)


def hf_antipode(x, ring=QQ, memo=None) -> LinComb:
    """Closed antipode on a planar tree or an ordered forest, where the
    reversal of the fallen part and of the forest is not trivial.  memo as
    in _closed_antipode."""
    return _closed_antipode(x, ring, memo)


@lru_cache(maxsize=None)
def hf_ops(ring=QQ) -> HopfOps:
    ops = HopfOps(
        name="H_F",
        ring=ring,
        unit=EMPTY_ORDERED,
        degree=lambda f: f.weight,
        basis=lambda n: tuple(map(bminus, enumerate_planar(n))),
        product=MonomialProduct(ring),
        coproduct=lambda f: hf_coproduct(f, ring, ops),
        antipode=lambda f: hf_antipode(f, ring, ops),
    )
    return ops


# ---------------------------------------------------------------------------
# inner products


def pairing_kt_hk(t: RootedTree, u: RootedTree) -> int:
    """|Sym(t)| on the diagonal, 0 off it."""
    return sym_order(t) if t == u else 0


def pairing_hk(u: Forest, v: Forest) -> int:
    """Forest extension of the kT inner product through bplus."""
    return pairing_kt_hk(bplus(u), bplus(v))


def pairing_kp_hf(t: PlanarTree, u: PlanarTree) -> int:
    return 1 if t == u else 0


def pairing_hf(f: OrderedForest, g: OrderedForest) -> int:
    return pairing_kp_hf(bplus(f), bplus(g))
