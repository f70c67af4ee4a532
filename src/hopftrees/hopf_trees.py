"""The four tree Hopf algebras: kT, H_K (Connes-Kreimer), kP, H_F (Foissy).

kT has rooted trees as basis with the grafting product; H_K is the free
commutative algebra on rooted trees with the admissible-cut coproduct.  kP
and H_F are their planar analogues: kP grafts in order into the gaps between
children, H_F is the tensor algebra on planar trees.  One memoised walk over
the slots of u computes both grafting products.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Any, NamedTuple

from .coproducts import extend_multiplicatively, prefixes, split_coproduct, submultisets
from .freemodule import HopfOps, LinComb, MonomialProduct, TensorElem
from .scalar import QQ
from .trees import (
    CUT_VERTEX_CAP,
    DOT,
    EMPTY_FOREST,
    EMPTY_ORDERED,
    Forest,
    OrderedForest,
    PlanarTree,
    PDOT,
    ResourceLimitError,
    RootedTree,
    _Forest,
    enumerate_planar,
    enumerate_rooted,
    env_ceiling,
    sym_order,
)

# ---------------------------------------------------------------------------
# grafting operators


def bplus(f):
    """Attach a new root over all trees of the forest, giving a tree of the
    forest's tree type; the empty forest maps to the single vertex."""
    return f.tree(f.trees)


def bminus(t):
    """Inverse of bplus: the forest of root branches, of the tree's forest
    type."""
    if not isinstance(t, (RootedTree, PlanarTree)):
        raise TypeError("bminus needs a tree, not the algebra unit")
    return t.forest(t.children)


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


def _cuts(tree, admissible_only):
    """(root part, fallen pieces in preorder, weight, admissible) for each
    cut of tree.  For each child, either the edge above it stays and the
    child's own cuts recurse, or the edge is cut and the child's root part
    falls ahead of the child's fallen pieces; in an admissible cut a child
    falls only whole."""
    per_child = []
    for c in tree.children:
        sub = _cuts(c, admissible_only)
        kept = [((root,), fallen, w, adm) for root, fallen, w, adm in sub]
        cut = [
            ((), (root,) + fallen, w + 1, w == 0)
            for root, fallen, w, _ in sub
            if w == 0 or not admissible_only
        ]
        per_child.append(kept + cut)
    out = []
    for choice in itertools.product(*per_child):
        kids, fallen, weight, admissible = (), (), 0, True
        for k, f, w, adm in choice:
            kids += k
            fallen += f
            weight += w
            admissible = admissible and adm
        out.append((type(tree)(kids), fallen, weight, admissible))
    return out


def cuts_of(tree, admissible_only: bool = False) -> list:
    """All 2^(edge count) cuts of a rooted or planar tree, or just the
    admissible ones; the pieces have the tree's own type, and the fallen
    part its forest type."""
    cap = env_ceiling(CUT_VERTEX_CAP)
    if tree.size > cap:
        raise ResourceLimitError(
            f"cut enumeration on {tree.size} vertices exceeds cap {cap}"
        )
    forest = tree.forest
    return [
        Cut(forest(fallen), root, weight, admissible)
        for root, fallen, weight, admissible in _cuts(tree, admissible_only)
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
# and cuts_of returns the fallen part in it.


def _cut_coproduct(t, ring) -> TensorElem:
    """t x 1 plus fallen part x root part over the admissible cuts of t; the
    empty cut contributes 1 x t."""
    forest = t.forest
    whole = ((forest((t,)), forest()), 1)
    cuts = cuts_of(t, admissible_only=True)
    return TensorElem(
        ring, [whole] + [((c.fallen, forest((c.root_part,))), 1) for c in cuts]
    )


def _cut_antipode(t, ring) -> LinComb:
    forest = t.forest
    cuts = cuts_of(t, admissible_only=False)
    return LinComb(
        ring,
        [
            (c.fallen.reverse().mul(forest((c.root_part,))), -((-1) ** c.weight))
            for c in cuts
        ],
    )


def _closed_antipode(x, ring) -> LinComb:
    """-sum over all cuts of (-1)^{|c|} reverse(P^c) R^c on a tree, extended
    to forests as an antiautomorphism (reversal is trivial on Forests)."""
    if not isinstance(x, _Forest):
        return _cut_antipode(x, ring)
    acc = LinComb.term(ring, type(x)())
    mul = MonomialProduct(ring)
    for t in reversed(x.trees):
        acc = acc.bilinear(mul, _cut_antipode(t, ring))
    return acc


# ---------------------------------------------------------------------------
# H_K: the Connes-Kreimer algebra of forests


def ck_coproduct(x: Forest, ring=QQ) -> TensorElem:
    """Admissible-cut coproduct, extended multiplicatively over the forest."""
    return extend_multiplicatively(ring, type(x)(), x.trees, _cut_coproduct)


def ck_antipode(x, ring=QQ) -> LinComb:
    """Closed antipode formula on a rooted tree or a forest of them."""
    return _closed_antipode(x, ring)


@lru_cache(maxsize=None)
def ck_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="H_K",
        ring=ring,
        unit=EMPTY_FOREST,
        degree=lambda f: f.weight,
        basis=lambda n: tuple(map(bminus, enumerate_rooted(n))),
        product=MonomialProduct(ring),
        coproduct=lambda f: ck_coproduct(f, ring),
        antipode=lambda f: ck_antipode(f, ring),
    )


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


def hf_coproduct(x: OrderedForest, ring=QQ) -> TensorElem:
    """Ordered admissible-cut coproduct, extended multiplicatively; equal to
    the rooted-subforest sum."""
    return extend_multiplicatively(ring, type(x)(), x.trees, _cut_coproduct)


def hf_antipode(x, ring=QQ) -> LinComb:
    """Closed antipode on a planar tree or an ordered forest, where the
    reversal of the fallen part and of the forest is not trivial."""
    return _closed_antipode(x, ring)


@lru_cache(maxsize=None)
def hf_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="H_F",
        ring=ring,
        unit=EMPTY_ORDERED,
        degree=lambda f: f.weight,
        basis=lambda n: tuple(map(bminus, enumerate_planar(n))),
        product=MonomialProduct(ring),
        coproduct=lambda f: hf_coproduct(f, ring),
        antipode=lambda f: hf_antipode(f, ring),
    )


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
