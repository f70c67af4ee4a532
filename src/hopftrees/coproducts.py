"""The three coproduct shapes of the seven algebras: deconcatenation (kP
over the root branches of a planar tree, QSym over the parts of a
composition), multiset split (kT over the root branches of a rooted tree,
Sym over the parts of a partition) and the multiplicative extension of the
coproducts of letters (H_K and H_F over the trees of a forest, NSym over the
letters of a word).  The grafting walk of kT and kP splits its pending
branches with the same two splitters, ``prefixes`` and ``submultisets``.
"""

from __future__ import annotations

import itertools
from math import comb

from .freemodule import MonomialProduct, TensorElem


def prefixes(seq: tuple) -> tuple:
    """(piece, rest, 1) for each prefix piece of the sequence seq."""
    return tuple((seq[:i], seq[i:], 1) for i in range(len(seq) + 1))


def submultisets(items: tuple) -> tuple:
    """(piece, rest, weight) for each sub-multiset piece of items, sorted so
    that equal items are adjacent.  The weight, a product of binomials over
    the classes of equal items, is the number of subsets of labelled items
    that give the piece."""
    out = (((), (), 1),)
    for b, run in itertools.groupby(items):
        m = len(tuple(run))
        out = tuple(
            (piece + (b,) * a, rest + (b,) * (m - a), w * comb(m, a))
            for piece, rest, w in out
            for a in range(m + 1)
        )
    return out


def split_coproduct(ring, make, splits) -> TensorElem:
    """The sum of weight * make(piece) x make(rest) over the (piece, rest,
    weight) splits."""
    return TensorElem(ring, [((make(p), make(r)), w) for p, r, w in splits])


def extend_multiplicatively(ring, unit, letters, letter_coproduct) -> TensorElem:
    """The product, in order, of letter_coproduct(x, ring) over the letters x
    of a monomial, unit x unit for none; the monomials multiply by their
    ``mul``."""
    acc = TensorElem.term(ring, unit, unit)
    mul = MonomialProduct(ring)
    for x in letters:
        acc = acc.mul(letter_coproduct(x, ring), mul, mul)
    return acc
