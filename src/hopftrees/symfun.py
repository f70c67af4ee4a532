"""Sym, QSym and NSym in their monomial, M-, and E-word bases.

Sym elements are kept in the monomial basis indexed by partitions; QSym in
the monomial quasi-symmetric basis indexed by compositions; NSym words are
compositions read as products of the divided-power generators.  Products in
Sym go through the embedding into QSym and the quasi-shuffle.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coproducts import extend_multiplicatively, prefixes, split_coproduct, submultisets
from .freemodule import (
    HopfOps,
    Interned,
    LinComb,
    Report,
    TensorElem,
    accumulate,
    freeze,
)
from .scalar import QQ


class _Parts(Interned):
    """A finite sequence of positive integers, interned on its parts."""

    __slots__ = ()

    @classmethod
    def _fields(cls, parts):
        if any(x < 1 for x in parts):
            raise ValueError(f"{cls.__name__.lower()} parts must be positive")
        return (parts,)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def sort_key(self):
        return (self.weight, self.parts)

    def __repr__(self):
        return f"{type(self).__name__}{self.parts!r}"


class Partition(_Parts):
    """Weakly decreasing sequence of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    @staticmethod
    def _canonical(parts):
        return tuple(sorted(map(int, parts), reverse=True))

    def multiplicities(self) -> dict:
        out: dict[int, int] = {}
        for x in self.parts:
            out[x] = out.get(x, 0) + 1
        return out

    def sym_order(self) -> int:
        """Product of the factorials of the part multiplicities."""
        out = 1
        for m in self.multiplicities().values():
            out *= factorial(m)
        return out

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [sum(1 for x in self.parts if x > i) for i in range(self.parts[0])]
        return Partition(cols)

    def union(self, other: "Partition") -> "Partition":
        return Partition(self.parts + other.parts)


class Composition(_Parts):
    """Finite sequence of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    @staticmethod
    def _canonical(parts):
        return tuple(map(int, parts))

    def reverse(self) -> "Composition":
        return Composition(self.parts[::-1])

    def mul(self, other: "Composition") -> "Composition":
        """Concatenation, the product of NSym words."""
        return Composition(self.parts + other.parts)

    def partition(self) -> Partition:
        """Forget the order of the parts."""
        return Partition(self.parts)


EMPTY_PARTITION = Partition()
EMPTY_COMPOSITION = Composition()


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple:
    """All partitions of n, in graded-lexicographic order."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted((Partition(p) for p in gen(n, n)), key=lambda q: q.sort_key))


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple:
    def gen(remaining):
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in gen(remaining - first):
                yield (first,) + rest

    return tuple(sorted((Composition(c) for c in gen(n)), key=lambda q: q.sort_key))


def compositions_of_length(n: int, k: int):
    """Length-k compositions of n (parts >= 1)."""
    if k == 0:
        return [()] if n == 0 else []
    out = []

    def gen(prefix, remaining, slots):
        if slots == 1:
            if remaining >= 1:
                out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            gen(prefix + (first,), remaining - first, slots - 1)

    gen((), n, k)
    return out


def coarsenings(comp: Composition):
    """All compositions obtained by merging adjacent parts of comp."""
    parts = comp.parts
    if not parts:
        return [comp]
    gaps = len(parts) - 1
    out = []
    for mask in range(1 << gaps):
        merged = [parts[0]]
        for i in range(gaps):
            if mask >> i & 1:
                merged[-1] += parts[i + 1]
            else:
                merged.append(parts[i + 1])
        out.append(Composition(merged))
    return out


def distinct_arrangements(lam: Partition):
    """All distinct compositions whose underlying partition is lam."""
    seen = sorted(set(itertools.permutations(lam.parts)))
    return [Composition(p) for p in seen]


# ---------------------------------------------------------------------------
# QSym


@lru_cache(maxsize=None)
def _quasi_shuffle(a: tuple, b: tuple) -> tuple:
    """Quasi-shuffle of part tuples; returns ((composition tuple, coeff), ...)."""
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc: dict[tuple, int] = {}
    for head, rest in (
        ((a[0],), _quasi_shuffle(a[1:], b)),
        ((b[0],), _quasi_shuffle(a, b[1:])),
        ((a[0] + b[0],), _quasi_shuffle(a[1:], b[1:])),
    ):
        for tail, c in rest:
            key = head + tail
            acc[key] = acc.get(key, 0) + c
    return tuple(acc.items())


def qsym_product_comp(i: Composition, j: Composition, ring=QQ) -> LinComb:
    """Product of two monomial quasi-symmetric functions by the quasi-shuffle
    recursion on first parts."""
    return LinComb(
        ring, {Composition(parts): c for parts, c in _quasi_shuffle(i.parts, j.parts)}
    )


def qsym_product(a: LinComb, b: LinComb) -> LinComb:
    return qsym_ops(a.ring).product_lc(a, b)


def qsym_coproduct(i: Composition, ring=QQ) -> TensorElem:
    """Deconcatenation coproduct."""
    return split_coproduct(ring, Composition, prefixes(i.parts))


def qsym_antipode(i: Composition, ring=QQ) -> LinComb:
    """(-1)^length times the sum of reversed coarsenings.

    The refinement relation is read so that the sum runs over compositions
    coarser than the input; the other reading fails the convolution law
    already on one-part compositions.
    """
    sign = -1 if i.length % 2 else 1
    return LinComb(ring, [(j.reverse(), sign) for j in coarsenings(i)])


@lru_cache(maxsize=None)
def qsym_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="QSym",
        ring=ring,
        unit=EMPTY_COMPOSITION,
        degree=lambda i: i.weight,
        basis=compositions_of,
        product=lambda a, b: qsym_product_comp(a, b, ring),
        coproduct=lambda i: qsym_coproduct(i, ring),
        antipode=lambda i: qsym_antipode(i, ring),
    )


# ---------------------------------------------------------------------------
# Sym


def sym_embed(x: LinComb) -> LinComb:
    """The inclusion of Sym into QSym: m_lambda to the sum of M over all
    arrangements of lambda."""
    terms = x.terms.items()
    return LinComb(
        x.ring, [(comp, c) for lam, c in terms for comp in distinct_arrangements(lam)]
    )


def sym_from_qsym(x: LinComb) -> LinComb:
    """Read a symmetric element off its QSym expansion: the m_lambda
    coefficient is the coefficient of the weakly decreasing arrangement."""
    terms = {}
    for comp, c in x.terms.items():
        if comp.parts == tuple(sorted(comp.parts, reverse=True)):
            terms[comp.partition()] = c
    return LinComb(x.ring, terms)


def sym_product_part(lam: Partition, mu: Partition, ring=QQ) -> LinComb:
    prod = qsym_product(
        sym_embed(LinComb.term(ring, lam)), sym_embed(LinComb.term(ring, mu))
    )
    return sym_from_qsym(prod)


def sym_product(a: LinComb, b: LinComb) -> LinComb:
    return sym_ops(a.ring).product_lc(a, b)


def sym_coproduct(lam: Partition, ring=QQ) -> TensorElem:
    """Sum of m_mu x m_nu over all multiset splittings of lambda, each
    sub-multiset mu counted once."""
    splits = ((mu, nu, 1) for mu, nu, _ in submultisets(lam.parts))
    return split_coproduct(ring, Partition, splits)


@lru_cache(maxsize=None)
def sym_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="Sym",
        ring=ring,
        unit=EMPTY_PARTITION,
        degree=lambda l: l.weight,
        basis=partitions_of,
        product=lambda a, b: sym_product_part(a, b, ring),
        coproduct=lambda l: sym_coproduct(l, ring),
    )


def basis_expand(name: str, k: int, ring=QQ) -> LinComb:
    """The generators e_k, h_k, p_k expanded in the monomial basis."""
    if k < 1:
        raise ValueError("generator index must be positive")
    if name == "e":
        return LinComb.term(ring, Partition([1] * k))
    if name == "h":
        return LinComb(ring, {lam: 1 for lam in partitions_of(k)})
    if name == "p":
        return LinComb.term(ring, Partition([k]))
    raise ValueError(f"unknown generator family {name!r}")


@lru_cache(maxsize=None)
def product_expansion(name: str, parts: tuple, ring) -> LinComb:
    """m-basis expansion of the generator product name_{parts[0]} name_{parts[1]} ...
    for a family name of basis_expand."""
    acc = LinComb.term(ring, EMPTY_PARTITION)
    for x in parts:
        acc = sym_product(acc, basis_expand(name, x, ring))
    return freeze(acc)


def to_e_products(x: LinComb):
    """Write a symmetric element as a combination of products of elementary
    generators: returns [(coeff, parts tuple)] with e_{parts} monomials.

    Uses the unitriangularity of e over the monomial basis: the expansion of
    e over the conjugate partition leads with that partition, so repeatedly
    stripping the lexicographically largest term terminates.
    """
    rest = x
    out = []
    guard = 0
    while not rest.is_zero():
        guard += 1
        if guard > 100000:
            raise RuntimeError("e-expansion failed to terminate")
        lam, coeff = max(rest.terms.items(), key=lambda kv: kv[0].sort_key)
        word = lam.conjugate().parts
        out.append((coeff, word))
        rest = rest - product_expansion("e", word, x.ring).scale(coeff)
    return out


def _gauss_solve(matrix, rhs):
    """Solve A x = rhs exactly over the rationals (A square, invertible)."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


@lru_cache(maxsize=None)
def _h_matrix(n: int):
    """Rows: m-expansions of h_lambda over partitions of n."""
    lams = partitions_of(n)
    index = {lam: i for i, lam in enumerate(lams)}
    rows = []
    for lam in lams:
        exp = product_expansion("h", lam.parts, QQ)
        row = [Fraction(0)] * len(lams)
        for mu, c in exp.terms.items():
            row[index[mu]] = c
        rows.append(tuple(row))
    return lams, tuple(rows)


def to_h_basis(x: LinComb) -> LinComb:
    """Coefficients of a symmetric element over the products h_lambda."""
    acc = LinComb.zero(x.ring)
    by_degree: dict[int, dict] = {}
    for lam, c in x.terms.items():
        by_degree.setdefault(lam.weight, {})[lam] = c
    for n, terms in by_degree.items():
        lams, rows = _h_matrix(n)
        rhs = [terms.get(lam, Fraction(0)) for lam in lams]
        # solve transpose(H) c = x
        transposed = [[rows[j][i] for j in range(len(lams))] for i in range(len(lams))]
        sol = _gauss_solve(transposed, rhs)
        accumulate(acc, LinComb(x.ring, dict(zip(lams, sol))), x.ring.one)
    return acc


def sym_pairing(lam: Partition, mu: Partition) -> Fraction:
    """(h_lambda, m_mu): the Kronecker delta making h and m dual bases."""
    return Fraction(1) if lam == mu else Fraction(0)


def sym_pairing_elems(x: LinComb, y: LinComb) -> Fraction:
    """Inner product of two monomial-basis elements: expand the first over
    the h basis and pair against the monomial coefficients of the second."""
    acc = Fraction(0)
    h_side = to_h_basis(x)
    for lam, c in h_side.terms.items():
        acc += c * y.coeff(lam)
    return acc


def eh_identity_check(max_degree: int, ring=QQ) -> Report:
    """Degree-by-degree check of the alternating product identity between the
    elementary and complete generating series, plus S(e_i) = (-1)^i h_i."""
    rep = Report("elementary/complete duality", max_degree)
    ops = sym_ops(ring)

    def alternating(d):
        acc = LinComb.zero(ring)
        for i in range(d + 1):
            j = d - i
            e_part = (
                LinComb.term(ring, EMPTY_PARTITION) if i == 0 else basis_expand("e", i)
            )
            h_part = (
                LinComb.term(ring, EMPTY_PARTITION) if j == 0 else basis_expand("h", j)
            )
            accumulate(acc, sym_product(e_part, h_part), (-1) ** j)
        if not acc.is_zero():
            return f"degree {d}"
        return None

    rep.law("sum (-1)^j e_i h_j = 0", range(1, max_degree + 1), alternating)

    def antipode_eh(i):
        lhs = ops.antipode_lc(basis_expand("e", i, ring))
        rhs = basis_expand("h", i, ring).scale((-1) ** i)
        if lhs != rhs:
            return f"e_{i}"
        return None

    rep.law("S(e_i) = (-1)^i h_i", range(1, max_degree + 1), antipode_eh)
    return rep


# ---------------------------------------------------------------------------
# NSym


def nsym_product(w1: Composition, w2: Composition, ring=QQ) -> LinComb:
    """Concatenation of E-words (free product)."""
    return LinComb.term(ring, w1.mul(w2))


def _letter_coproduct(n: int, ring) -> TensorElem:
    """Divided-power coproduct of the generator E_n: the sum of E_i x
    E_(n-i) over 0 <= i <= n, E_0 being the empty word."""
    words = [EMPTY_COMPOSITION] + [Composition((i,)) for i in range(1, n + 1)]
    return TensorElem(ring, [((words[i], words[n - i]), 1) for i in range(n + 1)])


def nsym_coproduct(w: Composition, ring=QQ) -> TensorElem:
    """Divided-power coproduct of each letter, extended multiplicatively."""
    return extend_multiplicatively(ring, EMPTY_COMPOSITION, w.parts, _letter_coproduct)


@lru_cache(maxsize=None)
def nsym_ops(ring=QQ) -> HopfOps:
    return HopfOps(
        name="NSym",
        ring=ring,
        unit=EMPTY_COMPOSITION,
        degree=lambda w: w.weight,
        basis=compositions_of,
        product=lambda a, b: nsym_product(a, b, ring),
        coproduct=lambda w: nsym_coproduct(w, ring),
    )


def tau(x: LinComb) -> LinComb:
    """Abelianization: the E-word (i_1, ..., i_k) maps to the product of
    elementary symmetric functions e_{i_1} ... e_{i_k} in the m basis."""
    acc = LinComb.zero(x.ring)
    for word, c in x.terms.items():
        accumulate(acc, product_expansion("e", word.parts, x.ring), c)
    return acc
