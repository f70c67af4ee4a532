"""Rooted and planar rooted trees: canonical forms, codecs, enumeration, statistics.

Conventions used throughout the package:

* |t| is the number of vertices of a tree; a tree of n+1 vertices has degree n.
* Planar trees with n non-root vertices are encoded by balanced bracket
  arrangements (BBAs) of weight n over ASCII '<' and '>'.
* Rooted trees are stored in a canonical form: the children of every vertex
  are sorted by (vertex count, then recursively by the sorted child keys),
  so structural equality coincides with tree isomorphism.
* Trees and forests are interned (see freemodule.Interned): each is built
  once, keyed on its tuple of children or trees, so equal values are the
  same object and compare and hash by identity.
* Forests are graded by total vertex count.
* Each tree type names its forest type and back: ``RootedTree.forest`` is
  Forest and ``PlanarTree.forest`` is OrderedForest, with ``Forest.tree``
  and ``OrderedForest.tree`` the other way.  Both tree types have a bracket
  string ``bba``; a rooted tree's is that of its canonical planar
  realization.  Code that serves both kinds reads its types from the value.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import comb, factorial, prod
from operator import attrgetter

from .freemodule import Interned

DEFAULT_MAX_DEGREE = 10


def degree_ceiling() -> int:
    """The highest weight any exponential enumeration may reach:
    HOPFTREES_MAX_DEGREE, or DEFAULT_MAX_DEGREE when it is unset or empty.
    A value that is not a nonnegative integer is refused."""
    env = os.environ.get("HOPFTREES_MAX_DEGREE")
    if not env:
        return DEFAULT_MAX_DEGREE
    if not (env.isascii() and env.isdigit()):
        raise ResourceLimitError(
            f"HOPFTREES_MAX_DEGREE must be a nonnegative integer, not {env!r}"
        )
    return int(env)


class BBAParseError(ValueError):
    """Malformed balanced bracket arrangement; ``offset`` is the 0-based position."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset
        self.reason = message


class ResourceLimitError(RuntimeError):
    """Requested work exceeds the degree ceiling, or HOPFTREES_MAX_DEGREE
    does not state one."""


_KEY = attrgetter("key")
_SIZE = attrgetter("size")
_BBA = attrgetter("bba")


def _by_key(items) -> tuple:
    """The trees in canonical (``key``) order."""
    return tuple(sorted(items, key=_KEY))


def _bracket(kids) -> str:
    """The bracket string of a root over kids, from theirs, in their order."""
    return "<" + "><".join(map(_BBA, kids)) + ">" if kids else ""


class PlanarTree(Interned):
    """Planar rooted tree: an ordered sequence of planar subtrees under a root.

    Interned on its child tuple; ``bba`` is its bracket string.
    """

    __slots__ = ("children", "size", "bba")
    _canonical = tuple

    @staticmethod
    def _fields(kids):
        return kids, 1 + sum(map(_SIZE, kids)), _bracket(kids)

    @property
    def sort_key(self):
        return (self.size, self.bba)

    def __repr__(self):
        return f"PlanarTree({self.bba!r})"


class RootedTree(Interned):
    """Rooted tree in canonical form; children are sorted on construction.

    ``bba`` is the bracket string of the canonical planar realization, built
    from the children's in canonical order.
    """

    __slots__ = ("children", "size", "key", "bba")
    _canonical = staticmethod(_by_key)

    @staticmethod
    def _fields(kids):
        size = 1 + sum(map(_SIZE, kids))
        return kids, size, (size, tuple(map(_KEY, kids))), _bracket(kids)

    @property
    def sort_key(self):
        return self.key

    def __repr__(self):
        return f"RootedTree({self.bba!r})"


class _Forest(Interned):
    """A monomial of trees, ``trees``, graded by their total vertex count,
    ``weight``.  Each subclass declares those two slots, names its tree type
    as ``tree``, and gives the canonical order of the trees and the
    reversal."""

    __slots__ = ()

    @staticmethod
    def _fields(ts):
        return ts, sum(map(_SIZE, ts))

    @property
    def sort_key(self):
        return (self.weight, tuple(t.sort_key for t in self.trees))

    def mul(self, other):
        # the intern table holds every product built before, so a hit builds
        # nothing (Interned.of_canonical, written out: mul is the forest
        # algebras' innermost call)
        cls = type(self)
        content = cls._canonical(self.trees + other.trees)
        found = cls._table.get(content)
        return cls(content) if found is None else found

    def __repr__(self):
        return f"{type(self).__name__}({[t.bba for t in self.trees]!r})"


class Forest(_Forest):
    """Commutative monomial of rooted trees, stored as a canonically sorted tuple."""

    __slots__ = ("trees", "weight")
    _canonical = staticmethod(_by_key)
    tree = RootedTree

    def reverse(self) -> "Forest":
        """A commutative monomial is its own reversal."""
        return self


class OrderedForest(_Forest):
    """Ordered sequence of planar rooted trees; the H_F monomial basis."""

    __slots__ = ("trees", "weight")
    _canonical = tuple
    tree = PlanarTree

    def reverse(self) -> "OrderedForest":
        return OrderedForest(self.trees[::-1])


RootedTree.forest = Forest
PlanarTree.forest = OrderedForest

DOT = RootedTree()
PDOT = PlanarTree()
EMPTY_FOREST = Forest()
EMPTY_ORDERED = OrderedForest()


def bba_decode(s: str) -> PlanarTree:
    """Parse a balanced bracket arrangement into the planar tree it encodes.

    The empty string decodes to the single-vertex tree; each top-level
    bracket pair becomes one root branch.
    """
    stack = [[]]
    for i, ch in enumerate(s):
        if ch == "<":
            stack.append([])
        elif ch == ">":
            if len(stack) == 1:
                raise BBAParseError(i, "unmatched '>'")
            kids = stack.pop()
            stack[-1].append(PlanarTree(kids))
        else:
            raise BBAParseError(i, f"invalid character {ch!r}")
    if len(stack) > 1:
        raise BBAParseError(len(s), "unclosed '<'")
    return PlanarTree(stack[0])


def canonicalize(tree: PlanarTree) -> RootedTree:
    """Forget the child order of a planar tree."""
    return RootedTree(canonicalize(c) for c in tree.children)


def to_planar(t: RootedTree) -> PlanarTree:
    """The canonical planar realization: children laid out in canonical order."""
    return PlanarTree(to_planar(c) for c in t.children)


def _equal_child_factorials(t: RootedTree) -> int:
    """m_1! m_2! ..., where the m_j are the multiplicities of isomorphic
    subtrees among the children of the root."""
    out = 1
    run = 0
    prev = None
    for c in t.children:
        if c == prev:
            run += 1
        else:
            run = 1
            prev = c
        out *= run  # accumulates run! across the run of equal children
    return out


@lru_cache(maxsize=None)
def sym_order(t: RootedTree) -> int:
    """|Sym(t)|: the order of the automorphism group of the rooted tree.

    Equals the product over vertices of m_1! m_2! ... where the m_j are the
    multiplicities of isomorphic subtrees among the vertex's children.
    """
    return _equal_child_factorials(t) * prod(map(sym_order, t.children))


@lru_cache(maxsize=None)
def embedding_count(t: RootedTree) -> int:
    """e(t): the number of planar trees whose underlying rooted tree is t.

    The k children of the root have k!/(m_1! m_2! ...) distinct orders,
    where the m_j count isomorphic children, and each child c has e(c)
    planar forms of its own.
    """
    orders = factorial(len(t.children)) // _equal_child_factorials(t)
    return orders * prod(map(embedding_count, t.children))


def multiset_orders(items, key=None):
    """Each distinct order of the multiset items once, as a tuple, in
    lexicographic order of the items' keys; items with equal keys must be
    equal.  This is Knuth's Algorithm L (TAOCP 4A, 7.2.1.2) started from the
    sorted order, so the orders come as sorted(set(permutations(items)))
    gives them, at a cost proportional to their number."""
    # the distinct items in key order, and each item's rank among them
    reps, ranks = [], []
    for rank, (_, run) in enumerate(itertools.groupby(sorted(items, key=key), key)):
        run = tuple(run)
        reps.append(run[0])
        ranks.extend([rank] * len(run))
    n = len(ranks)
    while True:
        yield tuple(map(reps.__getitem__, ranks))
        # the next order: raise the last ascent by the least larger item
        # after it, then reverse the tail
        j = n - 2
        while j >= 0 and ranks[j] >= ranks[j + 1]:
            j -= 1
        if j < 0:
            return
        i = n - 1
        while ranks[j] >= ranks[i]:
            i -= 1
        ranks[j], ranks[i] = ranks[i], ranks[j]
        ranks[j + 1 :] = ranks[:j:-1]


@lru_cache(maxsize=None)
def planar_realizations(t: RootedTree) -> tuple:
    """All planar trees T with canonicalize(T) == t; length equals e(t).
    Each distinct order of the root's children, in canonical key order,
    with every combination of the children's own realizations."""
    check_weight(t.size - 1, "planar realization")
    out = []
    for arr in multiset_orders(t.children, key=_KEY):
        realized = map(planar_realizations, arr)
        out.extend(map(PlanarTree, itertools.product(*realized)))
    return tuple(out)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def check_weight(n: int, what: str) -> None:
    """Refuse ``what`` (an enumeration whose cost grows exponentially with
    the weight) at weight n above the degree ceiling."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ceiling = degree_ceiling()
    if n > ceiling:
        raise ResourceLimitError(f"{what} at weight {n} exceeds ceiling {ceiling}")


@lru_cache(maxsize=None)
def enumerate_planar(n: int) -> tuple:
    """All planar trees with n non-root vertices, in lexicographic BBA order.

    A root over each ordered sequence of smaller planar trees whose sizes
    sum to n.  The generation order is not BBA order (``<<><<>>>`` sorts
    after ``<<<>>>...``), so the result is sorted.
    """
    check_weight(n, "planar enumeration")
    out = []

    def grow(remaining, kids):
        if not remaining:
            out.append(PlanarTree(kids))
            return
        for size in range(1, remaining + 1):
            for t in enumerate_planar(size - 1):
                grow(remaining - size, kids + (t,))

    grow(n, ())
    out.sort(key=lambda t: t.bba)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_rooted(n: int) -> tuple:
    """All canonical rooted trees with n+1 vertices, sorted canonically.

    A root over each multiset of smaller rooted trees whose sizes sum to n:
    the children are chosen in nonincreasing (size, index) order over the
    smaller trees, so each multiset is built exactly once.
    """
    check_weight(n, "rooted enumeration")
    pool = [t for m in range(n) for t in enumerate_rooted(m)]
    # last[r]: index of the last pool tree with at most r vertices
    last = [-1] * (n + 1)
    for i, t in enumerate(pool):
        last[t.size] = i
    out = []

    def grow(remaining, hi, kids):
        if not remaining:
            out.append(RootedTree(kids))
            return
        for i in range(min(hi, last[remaining]), -1, -1):
            t = pool[i]
            grow(remaining - t.size, i, kids + (t,))

    grow(n, len(pool) - 1, ())
    out.sort(key=lambda t: t.key)
    return tuple(out)


@lru_cache(maxsize=None)
def rooted_count_recurrence(vertices: int) -> int:
    """Number of rooted trees with the given vertex count, by the classical
    divisor-sum recurrence; an oracle independent of the enumeration."""
    if vertices < 1:
        return 0
    if vertices == 1:
        return 1
    n = vertices - 1
    total = 0
    for k in range(1, n + 1):
        s = sum(d * rooted_count_recurrence(d) for d in range(1, k + 1) if k % d == 0)
        total += s * rooted_count_recurrence(n - k + 1)
    count, rest = divmod(total, n)
    if rest:
        raise ArithmeticError(f"tree count at {vertices} vertices is not integral")
    return count


def ladder(i: int) -> RootedTree:
    """The unbranched rooted tree with i vertices."""
    if i < 1:
        raise ValueError("ladder needs at least one vertex")
    t = RootedTree()
    for _ in range(i - 1):
        t = RootedTree((t,))
    return t


def planar_ladder(i: int) -> PlanarTree:
    if i < 1:
        raise ValueError("ladder needs at least one vertex")
    t = PlanarTree()
    for _ in range(i - 1):
        t = PlanarTree((t,))
    return t


def t_lambda(parts) -> RootedTree:
    """Root over a forest of ladders with the given (partition) sizes."""
    return RootedTree(ladder(x) for x in parts)


def T_comp(parts) -> PlanarTree:
    """Root over ladders in the given (composition) order."""
    return PlanarTree(planar_ladder(x) for x in parts)
