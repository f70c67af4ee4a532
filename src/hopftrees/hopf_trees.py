"""The four tree Hopf algebras: kT, H_K (Connes-Kreimer), kP, H_F (Foissy).

kT has rooted trees as basis with the grafting product; H_K is the free
commutative algebra on rooted trees with the admissible-cut coproduct.  kP
and H_F are their planar analogues: kP multiplies by the asymmetric shuffle
of bracket arrangements, H_F is the tensor algebra on planar trees.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Any, NamedTuple

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
    bba_decode,
    enumerate_planar,
    enumerate_rooted,
    env_ceiling,
    sym_order,
)

# ---------------------------------------------------------------------------
# grafting operators


def bplus(f: Forest) -> RootedTree:
    """Attach a new root over all trees of the forest; the empty forest maps to the
    single vertex."""
    return RootedTree(f.trees)


def bminus(t: RootedTree) -> Forest:
    """Inverse of bplus: the forest of root branches."""
    if not isinstance(t, RootedTree):
        raise TypeError("bminus needs a rooted tree, not the algebra unit")
    return Forest(t.children)


def bplus_ordered(f: OrderedForest) -> PlanarTree:
    return PlanarTree(f.trees)


def bminus_ordered(t: PlanarTree) -> OrderedForest:
    if not isinstance(t, PlanarTree):
        raise TypeError("bminus needs a planar tree, not the algebra unit")
    return OrderedForest(t.children)


def forests_of_weight(n: int):
    """All commutative forests with n vertices total (degree-n basis of H_K)."""
    return tuple(bminus(t) for t in enumerate_rooted(n))


def ordered_forests_of_weight(n: int):
    """All ordered forests of planar trees with n vertices total."""
    return tuple(bminus_ordered(t) for t in enumerate_planar(n))


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
    admissible ones; the pieces have the tree's own type."""
    cap = env_ceiling(CUT_VERTEX_CAP)
    if tree.size > cap:
        raise ResourceLimitError(
            f"cut enumeration on {tree.size} vertices exceeds cap {cap}"
        )
    forest = Forest if isinstance(tree, RootedTree) else OrderedForest
    return [
        Cut(forest(fallen), root, weight, admissible)
        for root, fallen, weight, admissible in _cuts(tree, admissible_only)
    ]


# ---------------------------------------------------------------------------
# kT: the grafting algebra of rooted trees


def _vertex_paths(t: RootedTree):
    paths = [()]
    for i, c in enumerate(t.children):
        paths.extend((i,) + p for p in _vertex_paths(c))
    return paths


def _graft(node: RootedTree, path, extra) -> RootedTree:
    kids = tuple(_graft(c, path + (i,), extra) for i, c in enumerate(node.children))
    return RootedTree(kids + tuple(extra.get(path, ())))


def gl_product(t: RootedTree, u: RootedTree, ring=QQ) -> LinComb:
    """Grafting product: sum over all ways of attaching each root branch of t
    to a vertex of u.

    Attachment happens directly on canonical trees (no planar detour):
    every assignment of branches to vertices is grafted and the identical
    resulting trees accumulate integer coefficients.
    """
    branches = t.children
    if not branches:
        return LinComb.term(ring, u)
    paths = _vertex_paths(u)
    counts: dict[RootedTree, int] = {}
    for assign in itertools.product(range(len(paths)), repeat=len(branches)):
        extra: dict[tuple, list] = {}
        for branch, vi in zip(branches, assign):
            extra.setdefault(paths[vi], []).append(branch)
        res = _graft(u, (), extra)
        counts[res] = counts.get(res, 0) + 1
    return LinComb(ring, counts)


def gl_coproduct(t: RootedTree, ring=QQ) -> TensorElem:
    """Cocommutative coproduct of kT: split the root branches in all 2^k ways."""
    branches = t.children
    k = len(branches)
    terms: dict = {}
    for mask in range(1 << k):
        left = RootedTree(branches[i] for i in range(k) if mask >> i & 1)
        right = RootedTree(branches[i] for i in range(k) if not mask >> i & 1)
        key = (left, right)
        terms[key] = terms.get(key, 0) + 1
    return TensorElem(ring, terms)


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
# H_K and H_F share one construction, parametrised by the forest type:
# Forest over rooted trees for H_K, OrderedForest over planar trees for H_F.
# cuts_of returns the fallen part in the forest type that matches the tree.


def _extend_over_forest(x, tree_coproduct, ring) -> TensorElem:
    """Extend tree_coproduct(t, forest type, ring) multiplicatively over the
    trees of the forest x; the empty forest of x's type is the unit."""
    forest = type(x)
    acc = TensorElem.term(ring, forest(), forest())
    mul = MonomialProduct(ring)
    for t in x.trees:
        acc = acc.mul(tree_coproduct(t, forest, ring), mul, mul)
    return acc


def _cut_coproduct(t, forest, ring) -> TensorElem:
    """t x 1 plus fallen part x root part over the admissible cuts of t; the
    empty cut contributes 1 x t."""
    terms: dict = {(forest((t,)), forest()): 1}
    for cut in cuts_of(t, admissible_only=True):
        key = (cut.fallen, forest((cut.root_part,)))
        terms[key] = terms.get(key, 0) + 1
    return TensorElem(ring, terms)


def _cut_antipode(t, forest, ring) -> LinComb:
    terms: dict = {}
    for cut in cuts_of(t, admissible_only=False):
        f = cut.fallen.reverse().mul(forest((cut.root_part,)))
        sign = -1 if cut.weight % 2 == 0 else 1  # contributes -(-1)^{|c|}
        terms[f] = terms.get(f, 0) + sign
    return LinComb(ring, terms)


def _closed_antipode(x, forest, ring) -> LinComb:
    """-sum over all cuts of (-1)^{|c|} reverse(P^c) R^c on a tree, extended
    to forests as an antiautomorphism (reversal is trivial on Forests)."""
    if not isinstance(x, forest):
        return _cut_antipode(x, forest, ring)
    acc = LinComb.term(ring, forest())
    mul = MonomialProduct(ring)
    for t in reversed(x.trees):
        acc = acc.bilinear(mul, _cut_antipode(t, forest, ring))
    return acc


# ---------------------------------------------------------------------------
# H_K: the Connes-Kreimer algebra of forests


def ck_coproduct(x: Forest, ring=QQ) -> TensorElem:
    """Admissible-cut coproduct, extended multiplicatively over the forest."""
    return _extend_over_forest(x, _cut_coproduct, ring)


def _root_extraction(t: RootedTree, forest, ring) -> TensorElem:
    inner = ck_coproduct_recursive(bminus(t), ring)
    terms: dict = {(forest((t,)), forest()): ring.one}
    for (a, b), c in inner.terms.items():
        key = (a, forest((bplus(b),)))
        terms[key] = terms.get(key, ring.zero) + c
    return TensorElem(ring, terms)


def ck_coproduct_recursive(x: Forest, ring=QQ) -> TensorElem:
    """The same coproduct by the root-extraction recursion
    D(t) = t x 1 + (id x bplus) D(bminus t); a cross-validation oracle for
    the cut formula."""
    return _extend_over_forest(x, _root_extraction, ring)


def ck_antipode(x, ring=QQ) -> LinComb:
    """Closed antipode formula on a rooted tree or a forest of them."""
    return _closed_antipode(x, Forest, ring)


@lru_cache(maxsize=None)
def ck_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="H_K",
        ring=ring,
        unit=EMPTY_FOREST,
        degree=lambda f: f.weight,
        basis=forests_of_weight,
        product=MonomialProduct(ring),
        coproduct=lambda f: ck_coproduct(f, ring),
        antipode=lambda f: ck_antipode(f, ring),
    )


# ---------------------------------------------------------------------------
# kP: planar grafting via asymmetric shuffles of bracket arrangements


def _interleavings(a, b):
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


def kp_product(t: PlanarTree, u: PlanarTree, ring=QQ) -> LinComb:
    """Asymmetric shuffle: insert the components of t's bracket string, in
    order, into the symbol sequence of u's bracket string in all ways."""
    comps = tuple("<" + c.bba + ">" for c in t.children)
    symbols = tuple(u.bba)
    counts: dict[PlanarTree, int] = {}
    for merged in _interleavings(comps, symbols):
        tree = bba_decode("".join(merged))
        counts[tree] = counts.get(tree, 0) + 1
    return LinComb(ring, counts)


def kp_coproduct(t: PlanarTree, ring=QQ) -> TensorElem:
    """Deconcatenation of the component sequence of the bracket string."""
    comps = t.children
    terms: dict = {}
    for i in range(len(comps) + 1):
        key = (PlanarTree(comps[:i]), PlanarTree(comps[i:]))
        terms[key] = terms.get(key, 0) + 1
    return TensorElem(ring, terms)


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
    return _extend_over_forest(x, _cut_coproduct, ring)


def hf_antipode(x, ring=QQ) -> LinComb:
    """Closed antipode on a planar tree or an ordered forest, where the
    reversal of the fallen part and of the forest is not trivial."""
    return _closed_antipode(x, OrderedForest, ring)


@lru_cache(maxsize=None)
def hf_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="H_F",
        ring=ring,
        unit=EMPTY_ORDERED,
        degree=lambda f: f.weight,
        basis=ordered_forests_of_weight,
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
    return pairing_kp_hf(bplus_ordered(f), bplus_ordered(g))
