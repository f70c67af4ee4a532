"""Free modules over an arbitrary basis, tensor squares, and generic Hopf checks.

Basis elements must be hashable and expose a ``sort_key`` attribute giving a
total order, so every combination has a canonical rendering.  Scalars live in
a Ring from :mod:`hopftrees.scalar`; mixing rings raises immediately.
"""

from __future__ import annotations

import itertools
import json
from types import MappingProxyType
from typing import Any, Callable, Optional

from .scalar import Ring


class RingMismatchError(TypeError):
    pass


def _check_ring(a, b):
    """Refuse to combine a and b unless they are of one kind (LinComb or
    TensorElem) over one ring."""
    if a._kind is not b._kind:
        raise TypeError(f"cannot mix a {a._kind.__name__} and a {b._kind.__name__}")
    if a.ring is not b.ring:
        raise _ring_mismatch(a.ring, b.ring)


def _ring_mismatch(r: Ring, s: Ring) -> RingMismatchError:
    return RingMismatchError(f"mixed scalar rings {r.name} and {s.name}")


class Interned:
    """Hash-consed basis element: each value is built once per process.

    A subclass lists its attributes in ``__slots__``, the first being the
    canonical content (a tuple of interned values or of ints), and gives
    ``_canonical(items)``, which computes that content from the constructor
    argument, and ``_fields(content)``, which computes every slot value in
    order, validating first.  Construction returns the stored instance for
    the content, building and storing it on first use; a rejected value is
    never stored.  So equal values are the same object, and ``==`` and
    ``hash`` are object identity.  Values are immutable, and copy and
    pickle rebuild them through the constructor.  The tables hold their
    values for the life of the process.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._table = {}
        # the slot descriptors' setters write past __setattr__
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __new__(cls, items=()):
        content = cls._canonical(items)
        obj = cls._table.get(content)
        if obj is None:
            obj = object.__new__(cls)
            for set_slot, value in zip(cls._setters, cls._fields(content)):
                set_slot(obj, value)
            cls._table[content] = obj
        return obj

    @classmethod
    def of_canonical(cls, content):
        """The value of content that is already canonical: a value built
        before is found in the table without recomputing its content."""
        found = cls._table.get(content)
        return cls(content) if found is None else found

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def __reduce__(self):
        return (type(self), (getattr(self, self.__slots__[0]),))


class LinComb:
    """Finite linear combination of basis elements with nonzero coefficients.

    Every result is built in the receiver's kind (``_kind``): LinComb, or
    TensorElem for a combination of basis pairs; a frozen memo value's kind
    is the plain class it freezes.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None):
        self.ring = ring
        self.terms = {}
        if terms:
            pairs = terms.items() if isinstance(terms, dict) else terms
            coerce = ring.coerce
            # each value coerced into the ring, zeros left out
            pairs = [(b, c) for b, v in pairs if (c := coerce(v))]
            _add_into(self.terms, pairs, 1)

    @classmethod
    def _of(cls, ring: Ring, terms: dict) -> "LinComb":
        """Wrap terms as they are: a dict its caller built from nonzero
        elements of ring only, so there is nothing to coerce or merge."""
        out = object.__new__(cls)
        out.ring = ring
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ring: Ring) -> "LinComb":
        return cls._of(ring, {})

    @classmethod
    def term(cls, ring: Ring, basis, coeff=None) -> "LinComb":
        if coeff is None:
            return cls._of(ring, {basis: ring.one})
        return cls._kind(ring, {basis: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, basis):
        return self.terms.get(basis, self.ring.zero)

    def support(self):
        return self.terms.keys()

    @staticmethod
    def _order(term):
        return term[0].sort_key

    @staticmethod
    def _key_str(key, basis_str) -> str:
        return basis_str(key)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=self._order)

    def __add__(self, other: "LinComb") -> "LinComb":
        _check_ring(self, other)
        out = dict(self.terms)
        _add_into(out, other.terms.items(), 1)
        return self._of(self.ring, out)

    def __neg__(self) -> "LinComb":
        return self._of(self.ring, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def scale(self, c) -> "LinComb":
        c = self.ring.coerce(c)
        if not c:
            return self.zero(self.ring)
        return self._of(self.ring, {b: v * c for b, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, LinComb)
            and self._kind is other._kind
            and self.ring is other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.name, frozenset(self.terms.items())))

    def apply_linear(self, f, out_ring: Ring | None = None) -> "LinComb":
        """Extend the basis map f (basis -> basis or LinComb) linearly; a
        basis image enters as one term."""
        ring = out_ring or self.ring
        acc = LinComb.zero(ring)
        for b, c in self.terms.items():
            img = f(b)
            if isinstance(img, LinComb):
                accumulate(acc, img, c)
            else:
                _add_into(acc.terms, ((img, ring.coerce(c)),), 1)
        return acc

    def map_coeffs(self, f, out_ring: Ring) -> "LinComb":
        return self._kind(out_ring, {b: f(c) for b, c in self.terms.items()})

    def bilinear(self, f, other: "LinComb") -> "LinComb":
        """Sum of c1*c2*f(b1, b2) over all pairs of terms; f returns a LinComb.
        Each pair's image goes straight into the result (see
        _product_terms)."""
        _check_ring(self, other)
        out = {}
        pairs = _product_terms(f, self.ring, self.terms.items(), other.terms.items())
        _add_into(out, pairs, 1)
        return LinComb._of(self.ring, out)

    def render(self, basis_str=repr) -> str:
        if not self.terms:
            return "0"
        out = []
        for b, c in self.sorted_terms():
            out.append(f"{self.ring.render_factor(c)}*{self._key_str(b, basis_str)}")
        return " + ".join(out)

    def __repr__(self):
        return f"{self._kind.__name__}<{self.ring.name}>({self.render()})"


LinComb._kind = LinComb


class TensorElem(LinComb):
    """Element of a tensor power: a combination whose keys are tuples of
    basis elements, ordered and rendered factor by factor.  The tensor
    square's keys are pairs (left, right), which every method below but the
    ordering and rendering assumes."""

    __slots__ = ()

    # perfbench/tracer.py probes TensorElem.__dict__["__add__"] to count
    # tensor sums apart from LinComb sums
    __add__ = LinComb.__add__

    @staticmethod
    def _order(term):
        return tuple(b.sort_key for b in term[0])

    @staticmethod
    def _key_str(key, basis_str) -> str:
        return "(x)".join(map(basis_str, key))

    @classmethod
    def term(cls, ring: Ring, left, right, coeff=None) -> "TensorElem":
        return super().term(ring, (left, right), coeff)

    @classmethod
    def tensor(cls, a: LinComb, b: LinComb) -> "TensorElem":
        _check_ring(a, b)
        out = {}
        for b1, c1 in a.terms.items():
            for b2, c2 in b.terms.items():
                out[(b1, b2)] = c1 * c2
        return cls._of(a.ring, out)

    def coeff(self, left, right):
        return self.terms.get((left, right), self.ring.zero)

    def swap(self) -> "TensorElem":
        return self._of(self.ring, {(b, a): c for (a, b), c in self.terms.items()})

    def map_sides(self, f_left, f_right, out_ring: Ring | None = None) -> "TensorElem":
        """Apply linear maps (basis -> basis or LinComb) to the two tensor
        factors: each term adds the tensor of its side images straight into
        the result, a basis image being one term."""
        ring = out_ring or self.ring
        out = {}
        for (a, b), c in self.terms.items():
            left, right = as_lincomb(ring, f_left(a)), as_lincomb(ring, f_right(b))
            _add_tensor(out, ring, left, right, ring.coerce(c))
        return TensorElem._of(ring, out)

    def mul(self, other: "TensorElem", prod_left, prod_right) -> "TensorElem":
        """Componentwise product: (a x b)(a' x b') = (aa') x (bb').

        The pair of terms (a x b, c) and (a2 x b2, c2) adds ((k1, k2),
        v1*v2*c*c2) over the terms of its two side products straight into the
        result, or, when both products are MonomialProducts over this ring,
        the one term ((a.mul(a2), b.mul(b2)), c*c2)."""
        _check_ring(self, other)
        ring = self.ring
        out = {}
        if _monomial(prod_left, ring) and _monomial(prod_right, ring):
            _add_into(
                out,
                (
                    ((a.mul(a2), b.mul(b2)), c * c2)
                    for (a, b), c in self.terms.items()
                    for (a2, b2), c2 in other.terms.items()
                ),
                1,
            )
            return TensorElem._of(ring, out)
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                _add_tensor(out, ring, prod_left(a, a2), prod_right(b, b2), c * c2)
        return TensorElem._of(ring, out)


TensorElem._kind = TensorElem


def as_lincomb(ring: Ring, x) -> LinComb:
    """x if it is a combination, else the basis element x as one over ring."""
    return x if isinstance(x, LinComb) else LinComb.term(ring, x)


def accumulate(acc, x, c) -> None:
    """Add c * x to acc in place, c coerced into their ring first.

    acc and x must be of one kind, both LinComb or both TensorElem, over one
    ring: another kind raises TypeError, another ring RingMismatchError, and
    a c outside the ring TypeError, each before acc changes.  acc must be a
    value its caller built, never a frozen one handed out by a memo, whose
    terms are read-only.
    """
    _check_ring(acc, x)
    c = acc.ring.coerce(c)
    if c:
        pairs = x.terms.items()
        # acc += c * acc must not read the dict it is deleting from
        _add_into(acc.terms, list(pairs) if x is acc else pairs, c)


def _monomial(f, ring) -> bool:
    """Whether the product f is the monomial product over ring, whose image
    of two basis elements is their single product term."""
    return isinstance(f, MonomialProduct) and f.ring is ring


def _product_terms(product, ring, left, right):
    """The (key, coeff) pairs of sum c1*c2*product(b1, b2) over the (b1, c1)
    of left and the (b2, c2) of right, both reiterable (key, coeff) pairs
    over ring, for _add_into to merge.  A MonomialProduct over ring gives
    the one pair (b1.mul(b2), c1*c2) for each pair of terms without being
    called; any other product gives its image's terms, scaled unless c1*c2
    is 1, after a check that the image is over ring."""
    if _monomial(product, ring):
        for b1, c1 in left:
            for b2, c2 in right:
                yield b1.mul(b2), c1 * c2
        return
    for b1, c1 in left:
        for b2, c2 in right:
            img = product(b1, b2)
            if img.ring is not ring:
                raise _ring_mismatch(ring, img.ring)
            c = c1 * c2
            if c == 1:
                yield from img.terms.items()
            else:
                for k, v in img.terms.items():
                    yield k, v * c


def _add_tensor(terms: dict, ring: Ring, left, right, c) -> None:
    """terms += c * (left x right), c as in _add_into: each pair of terms of
    the combinations left and right adds ((k1, k2), v1*v2).  left and right
    must be of one kind over ring."""
    _check_ring(left, right)
    if left.ring is not ring:
        raise _ring_mismatch(ring, left.ring)
    lt, rt = left.terms.items(), right.terms.items()
    _add_into(terms, (((k1, k2), v1 * v2) for k1, v1 in lt for k2, v2 in rt), c)


def _add_into(terms: dict, pairs, c) -> None:
    """terms += c * pairs, in place: the one accumulation step of the module.

    terms maps keys to nonzero elements of one ring, pairs yields (key,
    value) pairs with value a nonzero element of it, a key possibly
    repeating, and c is a nonzero element of it or the int 1.  The rings are
    integral domains, so c * v is nonzero; a sum that cancels leaves the
    dict.  A ring element is false exactly when it is zero.  A c equal to 1
    multiplies nothing, which spares a Fraction or Poly product per term.
    """
    get = terms.get
    scaled = c != 1
    for b, v in pairs:
        if scaled:
            v = v * c
        s = get(b)
        if s is not None:
            v = s + v
            if not v:
                del terms[b]
                continue
        terms[b] = v


class _ReadOnly:
    """A value handed out by a memo (see freeze): its terms are a read-only
    view and its attributes cannot be rebound."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"a cached {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"a cached {type(self).__name__} is read-only")

    @classmethod
    def _of(cls, ring: Ring, terms: dict):
        # what a frozen value computes is an ordinary value of its kind
        return cls._kind._of(ring, terms)

    def __reduce__(self):
        # copy and pickle give an ordinary, mutable value of the same kind
        # with the same terms
        return (self._kind, (self.ring, dict(self.terms)))


class _CachedLinComb(_ReadOnly, LinComb):
    __slots__ = ()
    _kind = LinComb


class _CachedTensorElem(_ReadOnly, TensorElem):
    __slots__ = ()
    _kind = TensorElem


def freeze(x, table=None):
    """A read-only copy of the LinComb or TensorElem x, for a memo to hand
    out.  With a table, its coefficients are the ones interned there; basis
    elements are interned on construction (see Interned)."""
    intern = ({} if table is None else table).setdefault
    cls = _CachedTensorElem if isinstance(x, TensorElem) else _CachedLinComb
    terms = {b: intern(c, c) for b, c in x.terms.items()}
    out = object.__new__(cls)
    object.__setattr__(out, "ring", x.ring)
    object.__setattr__(out, "terms", MappingProxyType(terms))
    return out


class MonomialProduct:
    """The product of a free monoid algebra: two basis monomials multiply to
    the single monomial a.mul(b).  HopfOps does not memoise it, because each
    result is one term with nothing to reuse, and LinComb.bilinear and
    TensorElem.mul, given one over their own ring, add that term for each
    pair without calling it."""

    __slots__ = ("ring",)

    def __init__(self, ring: Ring):
        self.ring = ring

    def __call__(self, a, b) -> LinComb:
        return LinComb._of(self.ring, {a.mul(b): self.ring.one})


class HopfOps:
    """Bundle of the structure maps of one graded connected Hopf algebra.

    ``basis(n)`` must list every basis element of degree n; the counit is the
    canonical one for a connected grading (1 on the unit, 0 elsewhere).
    The optional ``antipode`` is an explicit closed formula; when absent the
    generic recursion is used.

    The product (unless it is a MonomialProduct), the coproduct and the
    antipode on basis elements are memoised on the instance, keyed on the
    basis elements.  Cached values are read-only, and their coefficients are
    interned in one table, so each distinct coefficient is stored once;
    basis elements are unique already (see Interned).  The memo lives as
    long as the instance.
    """

    def __init__(
        self,
        name: str,
        ring: Ring,
        unit: Any,
        degree: Callable[[Any], int],
        basis: Callable[[int], Any],
        product: Callable[[Any, Any], LinComb],
        coproduct: Callable[[Any], TensorElem],
        antipode: Optional[Callable[[Any], LinComb]] = None,
    ):
        self.name, self.ring, self.unit = name, ring, unit
        self.degree, self.basis, self.antipode = degree, basis, antipode
        self._memo: dict = {}
        self._interned: dict = {}
        # a hit is one dict lookup; cached values are objects, never false
        hit = self._memo.get
        if isinstance(product, MonomialProduct):
            self.product = product
        else:
            self.product = lambda a, b: hit(("product", a, b)) or self._cached(
                ("product", a, b), product, a, b
            )
        self.coproduct = lambda b: hit(("coproduct", b)) or self._cached(
            ("coproduct", b), coproduct, b
        )

    def __repr__(self):
        return f"HopfOps({self.name!r}, {self.ring.name})"

    def _cached(self, key, compute, *args):
        """The memoised value of compute(*args) under key."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = freeze(compute(*args), self._interned)
        return value

    def counit(self, b):
        return self.ring.one if self.degree(b) == 0 else self.ring.zero

    def term(self, b, coeff=None) -> LinComb:
        return LinComb.term(self.ring, b, coeff)

    def one_lc(self) -> LinComb:
        return self.term(self.unit)

    def product_lc(self, a: LinComb, b: LinComb) -> LinComb:
        return a.bilinear(self.product, b)

    def coproduct_lc(self, a: LinComb) -> TensorElem:
        acc = TensorElem.zero(self.ring)
        for b, c in a.terms.items():
            accumulate(acc, self.coproduct(b), c)
        return acc

    def antipode_basis(self, b) -> LinComb:
        if self.antipode is not None:
            return self._cached(("antipode", b), self.antipode, b)
        return _generic_cached(self, b)

    def antipode_lc(self, a: LinComb) -> LinComb:
        return a.apply_linear(self.antipode_basis)


def _generic_cached(h: HopfOps, b) -> LinComb:
    return h._cached(("generic antipode", b), generic_antipode, h, b)


def generic_antipode(h: HopfOps, b) -> LinComb:
    """Antipode by the graded-connected recursion.

    S fixes the unit; on positive degree S(u) = -sum S(u')u'' over all
    coproduct terms except u x 1, which terminates because the coproduct
    respects the grading.  The antipodes of the smaller terms u' come from
    h's memo, computed by this recursion even where h has a closed formula,
    so the two routes stay independent.  Each term's products go straight
    into the result.
    """
    if h.degree(b) == 0:
        return h.one_lc()
    ring, out = h.ring, {}
    for (x, y), c in h.coproduct(b).terms.items():
        if y == h.unit:
            continue  # the u x 1 term moves to the left-hand side
        left = _generic_cached(h, x).terms.items()
        _add_into(out, _product_terms(h.product, ring, left, ((y, -c),)), 1)
    return LinComb._of(ring, out)


# ---------------------------------------------------------------------------
# reports


class ReportEntry:
    """One law's outcome: whether it held, on how many cases, and the
    witness of the first case that failed."""

    __slots__ = ("law", "ok", "checked", "degree", "witness")

    def __init__(
        self,
        law: str,
        ok: bool,
        checked: int = 0,
        degree: Optional[int] = None,
        witness: Optional[str] = None,
    ):
        self.law, self.ok, self.checked = law, ok, checked
        self.degree, self.witness = degree, witness

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = f" [{self.checked} cases]" if self.checked else ""
        wit = f" witness: {self.witness}" if self.witness else ""
        deg = f" (degree {self.degree})" if self.degree is not None else ""
        return f"{status} {self.law}{deg}{extra}{wit}"

    def as_json(self) -> dict:
        out = {
            "law": self.law,
            "status": "pass" if self.ok else "fail",
            "checked": self.checked,
        }
        if self.degree is not None:
            out["degree"] = self.degree
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Report:
    """Line-oriented verification report with a JSON variant."""

    def __init__(self, name: str, max_degree: Optional[int] = None):
        self.name = name
        self.max_degree = max_degree
        self.entries: list[ReportEntry] = []

    def add(self, law, ok, checked=0, degree=None, witness=None):
        self.entries.append(ReportEntry(law, ok, checked, degree, witness))

    def law(self, name, cases, test, degree=None):
        """Run ``test`` over ``cases``; the test returns a witness string on
        failure.  A law that ran no case fails: it has shown nothing."""
        count = 0
        witness = None
        for case in cases:
            count += 1
            witness = test(case)
            if witness is not None:
                break
        if not count:
            witness = "no cases checked"
        self.add(name, witness is None, checked=count, degree=degree, witness=witness)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def lines(self) -> list[str]:
        head = self.name
        if self.max_degree is not None:
            head += f" (max degree {self.max_degree})"
        return [head] + ["  " + e.line() for e in self.entries]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "max_degree": self.max_degree,
            "passed": self.passed,
            "laws": [e.as_json() for e in self.entries],
        }

    def __str__(self):
        return "\n".join(self.lines())


_WITNESS_TERMS = 3


def difference_witness(case, lhs, rhs):
    """None when lhs and rhs are equal, else the one-line ASCII witness:
    repr(case), or case itself when it is a string, then lhs - rhs.  Two
    scalars show their difference; two combinations of one kind show the
    first three sorted terms of theirs and, when there are more, their
    number."""
    if lhs == rhs:
        return None
    label = case if isinstance(case, str) else repr(case)
    if not isinstance(lhs, LinComb):
        return f"{label}; lhs - rhs = {lhs - rhs}"
    diff = (lhs - rhs).sorted_terms()
    head = lhs._of(lhs.ring, dict(diff[:_WITNESS_TERMS])).render()
    more = f" ... ({len(diff)} terms)" if len(diff) > _WITNESS_TERMS else ""
    return f"{label}; lhs - rhs = {head}{more}"


def _tuples_upto(by_deg, total, arity):
    """Every arity-tuple of basis elements whose degrees sum to at most
    total: the degree tuples in lexicographic order, each expanded as the
    product of its degrees' bases."""
    for degs in itertools.product(range(total + 1), repeat=arity):
        if sum(degs) <= total:
            yield from itertools.product(*(by_deg[d] for d in degs))


def check_axioms(h: HopfOps, max_degree: int) -> Report:
    """Exhaustively verify the graded Hopf-algebra laws on basis elements.

    Covers: unit laws, associativity, degree additivity of the product,
    the connected coproduct form u x 1 + ... + 1 x u, both counit laws,
    grading and coassociativity of the coproduct, multiplicativity of the
    coproduct on basis pairs, and both antipode convolution laws.
    """
    rep = Report(f"{h.name} axioms", max_degree)
    by_deg = {n: list(h.basis(n)) for n in range(max_degree + 1)}
    elems = [b for n in range(max_degree + 1) for b in by_deg[n]]

    rep.law(
        "basis grading",
        ((n, b) for n in range(max_degree + 1) for b in by_deg[n]),
        lambda nb: None if h.degree(nb[1]) == nb[0] else f"{nb[1]!r} in degree {nb[0]}",
    )
    rep.add("unit in degree 0", h.degree(h.unit) == 0)
    normal = difference_witness(h.unit, h.counit(h.unit), h.ring.one)
    rep.add("counit normalization", normal is None, witness=normal)

    ring, one = h.ring, h.ring.one
    product, coproduct, antipode = h.product, h.coproduct, h.antipode_basis

    def image(a, b):
        """The (key, coeff) pairs of the product a*b."""
        return tuple(_product_terms(product, ring, ((a, one),), ((b, one),)))

    def unit_law(b):
        want = {b: one}
        left, right = dict(image(h.unit, b)), dict(image(b, h.unit))
        return _dict_witness(b, left, want, LinComb, ring) or _dict_witness(
            b, right, want, LinComb, ring
        )

    rep.law("product unit laws", elems, unit_law)

    def assoc(triple):
        x, y, z = triple
        left, right = {}, {}
        _add_into(left, _product_terms(product, ring, image(x, y), ((z, one),)), 1)
        _add_into(right, _product_terms(product, ring, ((x, one),), image(y, z)), 1)
        return _dict_witness(triple, left, right, LinComb, ring)

    rep.law("product associativity", _tuples_upto(by_deg, max_degree, 3), assoc)

    def grading(pair):
        x, y = pair
        want = h.degree(x) + h.degree(y)
        for b in product(x, y).support():
            if h.degree(b) != want:
                return f"{x!r}*{y!r} -> {b!r}"
        return None

    rep.law("product degree additivity", _tuples_upto(by_deg, max_degree, 2), grading)

    def coproduct_form(b):
        # the terms with a side in degree 0 are b x 1 + 1 x b, or 1 x 1 for
        # the unit
        ends = {
            k: ring.coerce(c)
            for k, c in coproduct(b).terms.items()
            if h.degree(k[0]) == 0 or h.degree(k[1]) == 0
        }
        want = {(b, h.unit): one, (h.unit, b): one} if h.degree(b) else {(b, b): one}
        return _dict_witness(b, ends, want, TensorElem, ring)

    rep.law("coproduct connected form", elems, coproduct_form)

    def coproduct_grading(b):
        want = h.degree(b)
        for (x, y), _ in coproduct(b).terms.items():
            if h.degree(x) + h.degree(y) != want:
                return f"{b!r} -> ({x!r}, {y!r})"
        return None

    rep.law("coproduct grading", elems, coproduct_grading)

    def counit_laws(b):
        cop = coproduct(b).terms.items()
        coerce = ring.coerce
        left, right, want = {}, {}, {b: one}
        # each value coerced and zeros left out, as the LinComb constructor does
        _add_into(left, [(y, v) for (x, y), c in cop if (v := coerce(c * h.counit(x)))], 1)
        _add_into(right, [(x, v) for (x, y), c in cop if (v := coerce(c * h.counit(y)))], 1)
        return _dict_witness(b, left, want, LinComb, ring) or _dict_witness(
            b, right, want, LinComb, ring
        )

    rep.law("counit laws", elems, counit_laws)

    def coassoc(b):
        left = {}
        right = {}
        for (x, y), c in coproduct(b).terms.items():
            cx, cy = coproduct(x).terms.items(), coproduct(y).terms.items()
            _add_into(left, (((u, v, y), d) for (u, v), d in cx), c)
            _add_into(right, (((x, u, v), d) for (u, v), d in cy), c)
        return _dict_witness(b, left, right, TensorElem, ring)

    rep.law("coproduct coassociativity", elems, coassoc)

    def multiplicative(pair):
        x, y = pair
        lhs = {}
        for k, v in image(x, y):
            _add_into(lhs, _terms_over(ring, coproduct(k)), v)
        rhs = coproduct(x).mul(coproduct(y), product, product)
        return _dict_witness(pair, lhs, rhs.terms, TensorElem, ring)

    rep.law("coproduct multiplicativity", _tuples_upto(by_deg, max_degree, 2), multiplicative)

    def antipode_law(b):
        left, right = {}, {}
        for (x, y), c in coproduct(b).terms.items():
            sx, sy = _terms_over(ring, antipode(x)), _terms_over(ring, antipode(y))
            _add_into(left, _product_terms(product, ring, sx, ((y, c),)), 1)
            _add_into(right, _product_terms(product, ring, ((x, c),), sy), 1)
        # counit(b) * 1, as one_lc().scale gives it
        c = ring.coerce(h.counit(b))
        want = {h.unit: one * c} if c else {}
        return _dict_witness(b, left, want, LinComb, ring) or _dict_witness(
            b, right, want, LinComb, ring
        )

    rep.law("antipode convolution laws", elems, antipode_law)
    return rep


def _terms_over(ring, x):
    """The terms of the combination x, refused unless x is over ring."""
    if x.ring is not ring:
        raise _ring_mismatch(ring, x.ring)
    return x.terms.items()


def _dict_witness(case, lhs: dict, rhs: dict, kind, ring):
    """difference_witness of the term dicts lhs and rhs, wrapped as
    combinations of kind over ring only when they differ: a passing case
    costs one comparison."""
    if lhs == rhs:
        return None
    return difference_witness(case, kind._of(ring, lhs), kind._of(ring, rhs))


def check_cocommutativity(h: HopfOps, max_degree: int) -> Report:
    rep = Report(f"{h.name} cocommutativity", max_degree)
    elems = [b for n in range(max_degree + 1) for b in h.basis(n)]

    def swap_invariant(b):
        cop = h.coproduct(b)
        return difference_witness(b, cop, cop.swap())

    rep.law("coproduct swap invariance", elems, swap_invariant)
    return rep


# ---------------------------------------------------------------------------
# pairings and duality


def pairing_extend(base, a: LinComb, b: LinComb):
    """Bilinear extension of a basis-pair pairing to combinations."""
    _check_ring(a, b)
    acc = a.ring.zero
    for b1, c1 in a.terms.items():
        for b2, c2 in b.terms.items():
            acc = acc + c1 * c2 * base(b1, b2)
    return acc


def tensor_pairing(base, ta: TensorElem, tb: TensorElem):
    """(a x b, c x d) = (a, c)(b, d), extended bilinearly."""
    return pairing_extend(lambda p, q: base(p[0], q[0]) * base(p[1], q[1]), ta, tb)


def duality_check(
    hA: HopfOps,
    hB: HopfOps,
    phi: Callable[[Any], Any],
    pairing_a: Callable[[Any, Any], Any],
    pairing_b: Callable[[Any, Any], Any],
    max_degree: int,
) -> Report:
    """Verify the three inner-product conditions making phi exhibit hB as dual to hA.

    (a) pairings agree through phi; (b) products in A pair with coproducts in
    B; (c) coproducts in A pair with products in B.  All basis pairs/triples
    of total degree at most max_degree are checked.  Each basis element's
    image under phi, and that image's coproduct, is computed once.
    """
    rep = Report(f"duality {hA.name} ~ {hB.name}", max_degree)
    by_deg = {n: list(hA.basis(n)) for n in range(max_degree + 1)}
    images = {
        b: as_lincomb(hB.ring, phi(b)) for basis in by_deg.values() for b in basis
    }
    image_coproducts = {b: hB.coproduct_lc(x) for b, x in images.items()}

    rep.law(
        "degree preservation of phi",
        images,
        lambda b: None
        if all(hB.degree(x) == hA.degree(b) for x in images[b].support())
        else repr(b),
    )

    def cond_a(pair):
        a1, a2 = pair
        lhs = pairing_a(a1, a2)
        rhs = pairing_extend(pairing_b, images[a1], images[a2])
        return difference_witness(pair, lhs, rhs)

    rep.law("(a) pairing preserved", _tuples_upto(by_deg, max_degree, 2), cond_a)

    def cond_b(triple):
        a1, a2, a3 = triple
        lhs = pairing_extend(pairing_a, hA.product(a1, a2), hA.term(a3))
        tens = TensorElem.tensor(images[a1], images[a2])
        rhs = tensor_pairing(pairing_b, tens, image_coproducts[a3])
        return difference_witness(triple, lhs, rhs)

    rep.law("(b) product vs dual coproduct", _tuples_upto(by_deg, max_degree, 3), cond_b)

    def cond_c(triple):
        a1, a2, a3 = triple
        tens = TensorElem.tensor(hA.term(a1), hA.term(a2))
        lhs = tensor_pairing(pairing_a, tens, hA.coproduct(a3))
        rhs = pairing_extend(
            pairing_b, hB.product_lc(images[a1], images[a2]), images[a3]
        )
        return difference_witness(triple, lhs, rhs)

    rep.law("(c) coproduct vs dual product", _tuples_upto(by_deg, max_degree, 3), cond_c)
    return rep


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2)
