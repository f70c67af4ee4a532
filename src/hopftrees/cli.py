"""Command-line interface: expression parsing, operation dispatch, and the
verification suites with machine-readable output.

Expression grammar (whitespace insensitive)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := [coeff '*'] monomial | coeff
    coeff    := factor ('*' factor)*         factors: number, p[^k], (poly)
    number   := int ['/' posint]
    monomial := treeLit+ | symtoken | '1'
    treeLit  := '(' bba ')'                  bba over '<' and '>'
    symtoken := ('m'|'M'|'e'|'h'|'p'|'E') '[' ints ']'

Trees are canonicalized for the commutative algebras (gl, ck) and kept
ordered for the planar ones (pl, foissy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import dse as dse_mod
from . import morphisms, special, symfun
from .freemodule import (
    LinComb,
    Report,
    TensorElem,
    accumulate,
    check_axioms,
    difference_witness,
    duality_check,
    pairing_extend,
    reports_to_json,
)
from .hopf_trees import (
    bplus,
    ck_ops,
    gl_ops,
    hf_ops,
    kp_ops,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from .scalar import ONE_POLY, Poly, QP, QQ, ZZ, signed_join
from .symfun import nsym_ops, qsym_ops, sym_ops, sym_pairing_elems
from .trees import (
    BBAParseError,
    PlanarTree,
    ResourceLimitError,
    RootedTree,
    _Forest,
    bba_decode,
    canonicalize,
    enumerate_planar,
    enumerate_rooted,
)


class ExprParseError(ValueError):
    def __init__(self, pos: int, message: str):
        super().__init__(f"offset {pos}: {message}")
        self.pos = pos
        self.reason = message


ALGEBRA_TAGS = ("gl", "ck", "pl", "foissy", "sym", "qsym", "nsym")

# the letter of each symmetric-function algebra's basis token
_BASIS_LETTERS = {"sym": "m", "qsym": "M", "nsym": "E"}


class Expr:
    """A parsed linear combination tagged with its algebra and scalar mode."""

    __slots__ = ("algebra", "scalars", "value")

    def __init__(self, algebra: str, scalars: str, value: LinComb):
        self.algebra = algebra
        self.scalars = scalars
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, Expr)
            and self.algebra == other.algebra
            and self.value == other.value
        )

    def __repr__(self):
        return f"Expr({self.algebra}, {render_lincomb(self.value, self.algebra)})"


def _ops_for(algebra: str, ring):
    return {
        "gl": gl_ops,
        "ck": ck_ops,
        "pl": kp_ops,
        "foissy": hf_ops,
        "sym": sym_ops,
        "qsym": qsym_ops,
        "nsym": nsym_ops,
    }[algebra](ring)


class _Parser:
    def __init__(self, text: str, algebra: str, ring):
        self.text = text
        self.pos = 0
        self.algebra = algebra
        self.ring = ring

    # -- low-level helpers

    def error(self, message, pos=None):
        raise ExprParseError(self.pos if pos is None else pos, message)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    # -- tokens

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer", start)
        return int(self.text[start : self.pos])

    def parse_number(self) -> Fraction:
        num = self.parse_int()
        if self.peek() == "/":
            self.pos += 1
            den = self.parse_int()
            if den <= 0:
                self.error("denominator must be positive")
            return Fraction(num, den)
        return Fraction(num)

    def parse_int_list(self) -> list:
        self.take("[")
        items = []
        if self.peek() != "]":
            items.append(self.parse_int())
            while self.peek() == ",":
                self.pos += 1
                items.append(self.parse_int())
        self.take("]")
        return items

    # -- coefficients

    def parse_p_power(self) -> Poly:
        self.take("p")
        if self.peek() == "^":
            self.pos += 1
            k = self.parse_int()
            if k < 0:
                self.error("negative exponent")
        else:
            k = 1
        return Poly([0] * k + [1])

    def parse_poly_expr(self) -> Poly:
        """Signed sum of poly terms, used inside parenthesized coefficients."""
        acc = Poly()
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        while True:
            acc = acc + self.parse_poly_term() * sign
            nxt = self.peek()
            if nxt == "+":
                sign = 1
                self.pos += 1
            elif nxt == "-":
                sign = -1
                self.pos += 1
            else:
                return acc

    def parse_poly_term(self) -> Poly:
        acc = ONE_POLY
        while True:
            ch = self.peek()
            if ch == "p":
                acc = acc * self.parse_p_power()
            elif ch.isdigit():
                acc = acc * self.parse_number()
            else:
                self.error("expected a polynomial factor")
            if self.peek() == "*":
                self.pos += 1
                continue
            return acc

    def parse_scalar_factor(self):
        """One coefficient factor: a number, a power of p, or (poly)."""
        ch = self.peek()
        if ch.isdigit() or ch == "-":
            return self.parse_number()
        if ch == "p":
            return self.parse_p_power()
        if ch == "(":
            self.pos += 1
            value = self.parse_poly_expr()
            self.take(")")
            return value
        self.error("expected a scalar factor")

    # -- monomials

    def parse_tree_literal(self) -> str:
        self.take("(")
        start = self.pos
        while True:
            if self.pos >= len(self.text):
                self.error("unterminated tree literal", self.pos)
            ch = self.text[self.pos]
            if ch == ")":
                break
            if ch not in "<>":
                self.error(f"invalid character {ch!r} in tree literal", self.pos)
            self.pos += 1
        bba = self.text[start : self.pos]
        self.take(")")
        return bba

    def _decode_tree(self, bba: str, offset: int):
        try:
            return bba_decode(bba)
        except BBAParseError as exc:
            self.error(exc.reason, offset + exc.offset)

    def parse_monomial(self) -> LinComb:
        ch = self.peek()
        if ch == "1":
            self.pos += 1
            ops = _ops_for(self.algebra, self.ring)
            return ops.one_lc()
        if ch == "(":
            trees = []
            while self.peek() == "(":
                offset = self.pos + 1
                trees.append(self._decode_tree(self.parse_tree_literal(), offset))
            return self._trees_to_monomial(trees)
        if ch in "mMehpE":
            start = self.pos
            self.pos += 1
            parts = self.parse_int_list()
            return self._symtoken(ch, parts, start)
        self.error("expected a monomial")

    def _trees_to_monomial(self, trees) -> LinComb:
        basis = type(_ops_for(self.algebra, self.ring).unit)
        tree = getattr(basis, "tree", basis)  # a forest basis names its trees
        if tree not in (RootedTree, PlanarTree):
            self.error(f"tree literals do not belong to the {self.algebra} algebra")
        if tree is RootedTree:
            trees = [canonicalize(t) for t in trees]
        if basis is tree:
            if len(trees) != 1:
                name = "grafting" if tree is RootedTree else "planar tree"
                self.error(f"the {name} algebra has single trees as basis")
            return LinComb.term(self.ring, trees[0])
        return LinComb.term(self.ring, basis(trees))

    def _symtoken(self, kind: str, parts, start: int) -> LinComb:
        if any(x < 1 for x in parts):
            self.error("basis indices must be positive", start)
        if kind in "mME":
            if _BASIS_LETTERS.get(self.algebra) != kind:
                self.error(f"token {kind}[..] does not belong to {self.algebra}", start)
            basis = type(_ops_for(self.algebra, self.ring).unit)
            return LinComb.term(self.ring, basis(parts))
        if kind in ("e", "h", "p"):
            if self.algebra != "sym":
                self.error(f"token {kind}[..] does not belong to {self.algebra}", start)
            return symfun.product_expansion(kind, tuple(parts), self.ring)
        self.error("unknown basis token", start)

    # -- terms and expressions

    def _at_monomial(self) -> bool:
        ch = self.peek()
        if ch == "1":
            # the unit monomial, unless the 1 starts a coefficient (10, 1/2, 1*)
            i = self.pos + 1
            while i < len(self.text) and self.text[i].isspace():
                i += 1
            nxt = self.text[i : i + 1]
            return not nxt.isdigit() and nxt not in ("/", "*")
        if ch == "(":
            # tree literal iff the parenthesis directly holds brackets
            nxt = self.text[self.pos + 1 : self.pos + 2]
            return nxt in ("<", ")")
        if ch == "p":
            return self.text[self.pos + 1 : self.pos + 2] == "["
        return ch in "mMehE"

    def parse_term(self) -> LinComb:
        coeff = self.ring.one
        seen_scalar = False
        while not self._at_monomial():
            start = self.pos
            factor = self.parse_scalar_factor()
            try:
                coeff = coeff * self.ring.coerce(factor)
            except TypeError:
                self.error(
                    f"coefficient in p needs --scalars poly (got {self.ring.name})",
                    start,
                )
            seen_scalar = True
            if self.peek() == "*":
                self.pos += 1
                continue
            # bare scalar term: coefficient times the unit
            ops = _ops_for(self.algebra, self.ring)
            return ops.one_lc().scale(coeff)
        mono = self.parse_monomial()
        if seen_scalar:
            return mono.scale(coeff)
        return mono

    def parse_expr(self) -> LinComb:
        acc = LinComb.zero(self.ring)
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        while True:
            accumulate(acc, self.parse_term(), sign)
            nxt = self.peek()
            if nxt == "+":
                sign = 1
                self.pos += 1
            elif nxt == "-":
                sign = -1
                self.pos += 1
            elif nxt == "":
                return acc
            else:
                self.error(f"unexpected {nxt!r}")


def parse_expr(text: str, algebra: str, scalars: str = "rational") -> Expr:
    """Parse an expression into a combination over the tagged algebra's basis."""
    if algebra not in ALGEBRA_TAGS:
        raise ValueError(f"unknown algebra tag {algebra!r}")
    ring = QP if scalars == "poly" else QQ
    parser = _Parser(text, algebra, ring)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return Expr(algebra, scalars, value)


# ---------------------------------------------------------------------------
# rendering


def render_basis(b, algebra: str) -> str:
    """Parseable text of b, a basis element of the tagged algebra."""
    if algebra in _BASIS_LETTERS:
        if not b.parts:
            return "1"
        return "%s[%s]" % (_BASIS_LETTERS[algebra], ",".join(map(str, b.parts)))
    if algebra not in ALGEBRA_TAGS:
        raise ValueError(algebra)
    if isinstance(b, _Forest):
        return "".join(f"({t.bba})" for t in b.trees) or "1"
    return f"({b.bba})"


def _render_coeff(c, ring) -> tuple[bool, str]:
    """(negated, body) where body has no leading sign and parses as a coeff."""
    if not isinstance(c, Poly):
        return c < 0, str(abs(c))
    nonzero = [x for x in c.num if x]
    if len(nonzero) == 1:
        neg = nonzero[0] < 0
        body = ring.render(-c if neg else c)
        return neg, body
    return False, f"({ring.render(c)})"


def render_lincomb(x: LinComb, algebra: str) -> str:
    """Parseable text of x; a TensorElem's pair (a, b) renders as "a @ b"."""
    if x.is_zero():
        return "0"
    pairs = isinstance(x, TensorElem)
    pieces = []
    for b, c in x.sorted_terms():
        neg, coeff = _render_coeff(c, x.ring)
        if pairs:
            mono = f"{render_basis(b[0], algebra)} @ {render_basis(b[1], algebra)}"
        else:
            mono = render_basis(b, algebra)
        if coeff == "1":
            body = mono
        elif mono == "1":
            body = coeff
        else:
            body = f"{coeff}*{mono}"
        pieces.append((neg, body))
    return signed_join(pieces)


def lincomb_json(x: LinComb, algebra: str) -> list:
    return [
        {"monomial": render_basis(b, algebra), "coeff": x.ring.render(c)}
        for b, c in x.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_enumerate(args) -> int:
    enumerate_trees = enumerate_planar if args.kind == "planar" else enumerate_rooted
    for t in enumerate_trees(args.n):
        print(f"({t.bba})")
    return 0


_PAIRINGS = {
    "gl": pairing_kt_hk,
    "ck": pairing_hk,
    "pl": pairing_kp_hf,
    "foissy": pairing_hf,
}


def _cmd_op(args) -> int:
    expr = parse_expr(args.expr, args.algebra, args.scalars)
    ring = expr.value.ring
    ops = _ops_for(args.algebra, ring)
    if args.kind == "product":
        if args.expr2 is None:
            raise ExprParseError(0, "product needs --expr2")
        other = parse_expr(args.expr2, args.algebra, args.scalars)
        result = ops.product_lc(expr.value, other.value)
        _emit_lincomb(result, args.algebra, args.format)
    elif args.kind == "coproduct":
        result = ops.coproduct_lc(expr.value)
        if args.format == "json":
            payload = [
                {
                    "left": render_basis(a, args.algebra),
                    "right": render_basis(b, args.algebra),
                    "coeff": ring.render(c),
                }
                for (a, b), c in result.sorted_terms()
            ]
            print(json.dumps({"algebra": args.algebra, "terms": payload}, indent=2))
        else:
            print(render_lincomb(result, args.algebra))
    elif args.kind == "antipode":
        result = ops.antipode_lc(expr.value)
        _emit_lincomb(result, args.algebra, args.format)
    elif args.kind == "pair":
        if args.expr2 is None:
            raise ExprParseError(0, "pair needs --expr2")
        other = parse_expr(args.expr2, args.algebra, args.scalars)
        if args.algebra == "sym":
            value = sym_pairing_elems(expr.value, other.value)
        elif args.algebra in _PAIRINGS:
            value = pairing_extend(_PAIRINGS[args.algebra], expr.value, other.value)
        else:
            print(f"no pairing available for {args.algebra}", file=sys.stderr)
            return 2
        print(value)
    return 0


def _emit_lincomb(x: LinComb, algebra: str, fmt: str) -> None:
    if fmt == "json":
        payload = {"algebra": algebra, "terms": lincomb_json(x, algebra)}
        print(json.dumps(payload, indent=2))
    else:
        print(render_lincomb(x, algebra))


_MAPS = {
    "phi": ("sym", "ck", morphisms.phi),
    "Phi": ("nsym", "foissy", morphisms.Phi),
    "rho": ("foissy", "ck", morphisms.rho),
    "tau": ("nsym", "sym", symfun.tau),
    "phistar": ("gl", "sym", morphisms.phi_star),
    "Phistar": ("pl", "qsym", morphisms.Phi_star),
    "rhostar": ("gl", "pl", morphisms.rho_star),
    "taustar": ("sym", "qsym", morphisms.tau_star),
}


def _cmd_map(args) -> int:
    domain, codomain, func = _MAPS[args.name]
    expr = parse_expr(args.expr, domain, args.scalars)
    _emit_lincomb(func(expr.value), codomain, args.format)
    return 0


def _cmd_special(args) -> int:
    if args.what == "kappa":
        print(render_lincomb(special.kappa(args.n), "gl"))
        return 0
    if args.what == "epsilon":
        print(render_lincomb(special.epsilon(args.n), "gl"))
        return 0
    if args.what == "growth":
        expr = parse_expr(args.expr, "gl", "rational")
        print(render_lincomb(special.natural_growth(expr.value, args.k), "gl"))
        return 0
    if args.what == "check":
        return _emit_reports(_suite_special(args.max_degree), args.format)
    raise ValueError(args.what)


def _specialization(text: str) -> Fraction:
    """The rational value of --p; a malformed one is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in --p {text}") from None


def _cmd_dse(args) -> int:
    value = None if args.p is None else _specialization(args.p)
    sol = dse_mod.solve_recursive(args.max_degree)
    closed = dse_mod.solve_closed(args.max_degree)
    reports = [_consistency_report(sol, closed)]
    if args.check_coproduct:
        reports.append(
            dse_mod.coproduct_theorem_check(
                min(args.max_degree, 6), min(args.max_degree, 5), closed
            )
        )
    algebra = "ck" if args.algebra == "ck" else "foissy"
    terms = sol.hk_terms if algebra == "ck" else sol.hf_terms
    if value is not None:
        terms = {n: dse_mod.specialize(x, value) for n, x in terms.items()}
    if args.format == "json":
        payload = [
            {"degree": n, "terms": lincomb_json(x, algebra)}
            for n, x in sorted(terms.items())
        ]
        print(json.dumps(payload, indent=2))
    else:
        for n, x in sorted(terms.items()):
            print(f"degree {n}: {render_lincomb(x, algebra)}")
        for rep in reports:
            print(rep)
    return 0 if all(r.passed for r in reports) else 1


# Every structure constant of the seven algebras counts something (graftings,
# cuts, shuffles, quasi-shuffles, deconcatenations), and so does every tree
# pairing, so the axiom and duality suites run over the integers; ZZ rejects
# a non-integral coefficient instead of rounding it.
def _suite_axioms(n: int):
    out = []
    for factory in (gl_ops, ck_ops, kp_ops, sym_ops, qsym_ops, nsym_ops):
        out.append(check_axioms(factory(ZZ), n))
    out.append(check_axioms(hf_ops(ZZ), min(n, 5)))
    return out


def _suite_duality(n: int):
    return [
        duality_check(ck_ops(ZZ), gl_ops(ZZ), bplus, pairing_hk, pairing_kt_hk, n),
        duality_check(hf_ops(ZZ), kp_ops(ZZ), bplus, pairing_hf, pairing_kp_hf, n),
    ]


def _suite_diagrams(n: int):
    return [morphisms.diagram_check("d1", n), morphisms.diagram_check("d2", n)]


def _suite_special(n: int):
    return [
        special.proposition_check(n),
        special.growth_formulas_check(n),
        special.lemma_check(n + 1),
    ]


def _consistency_report(sol, closed) -> Report:
    """The recursive and the closed DSE solution agree in every degree, in
    H_F and then in H_K."""
    n = sol.max_degree
    rep = Report("solution consistency", n)
    rep.law(
        "recursive matches closed form",
        range(1, n + 1),
        lambda d: difference_witness(f"degree {d}", sol.hf(d), closed.hf(d))
        or difference_witness(f"degree {d}", sol.hk(d), closed.hk(d)),
    )
    return rep


def _suite_dse(n: int):
    sol = dse_mod.solve_recursive(n)
    closed = dse_mod.solve_closed(n)
    rep = _consistency_report(sol, closed)
    rep.law(
        "ladders at p=1",
        range(1, n + 1),
        lambda d: None if dse_mod.ladder_specialization_holds(closed, d) else f"degree {d}",
    )
    return [rep, dse_mod.coproduct_theorem_check(min(n, 6), min(n, 5), closed)]


_SUITES = {
    "axioms": (_suite_axioms, 5),
    "duality": (_suite_duality, 5),
    "diagrams": (_suite_diagrams, 5),
    "special": (_suite_special, 5),
    "dse": (_suite_dse, 6),
}


def _cmd_check(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        runner, default_degree = _SUITES[name]
        degree = args.max_degree if args.max_degree is not None else default_degree
        reports.extend(runner(degree))
    return _emit_reports(reports, args.format)


def _emit_reports(reports, fmt: str) -> int:
    ok = all(r.passed for r in reports)
    if fmt == "json":
        print(reports_to_json(reports))
    else:
        for rep in reports:
            print(rep)
        print("ALL PASS" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopftrees",
        description="Exact computer algebra for the tree Hopf algebras, "
        "quasi-symmetric functions, and combinatorial Dyson-Schwinger equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list trees of a given degree")
    p_enum.add_argument("--kind", choices=("planar", "rooted"), required=True)
    p_enum.add_argument("-n", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_op = sub.add_parser("op", help="evaluate an algebra operation")
    p_op.add_argument("--algebra", choices=ALGEBRA_TAGS, required=True)
    p_op.add_argument(
        "--kind", choices=("product", "coproduct", "antipode", "pair"), required=True
    )
    p_op.add_argument("--expr", required=True)
    p_op.add_argument("--expr2")
    p_op.add_argument("--scalars", choices=("rational", "poly"), default="rational")
    p_op.add_argument("--format", choices=("text", "json"), default="text")
    p_op.set_defaults(func=_cmd_op)

    p_map = sub.add_parser("map", help="apply one of the connecting morphisms")
    p_map.add_argument("--name", choices=sorted(_MAPS), required=True)
    p_map.add_argument("--expr", required=True)
    p_map.add_argument("--scalars", choices=("rational", "poly"), default="rational")
    p_map.add_argument("--format", choices=("text", "json"), default="text")
    p_map.set_defaults(func=_cmd_map)

    p_special = sub.add_parser("special", help="special families and their checks")
    special_sub = p_special.add_subparsers(dest="what", required=True)
    p_kappa = special_sub.add_parser("kappa")
    p_kappa.add_argument("n", type=int)
    p_eps = special_sub.add_parser("epsilon")
    p_eps.add_argument("n", type=int)
    p_growth = special_sub.add_parser("growth")
    p_growth.add_argument("--k", type=int, default=1)
    p_growth.add_argument("--expr", required=True)
    p_check = special_sub.add_parser("check")
    p_check.add_argument("--max-degree", type=int, default=5)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_special.set_defaults(func=_cmd_special)

    p_dse = sub.add_parser("dse", help="solve the combinatorial Dyson-Schwinger equation")
    p_dse.add_argument("--max-degree", type=int, default=6)
    p_dse.add_argument("--p", help="rational specialization, e.g. 2 or 1/2")
    p_dse.add_argument("--algebra", choices=("ck", "foissy"), default="ck")
    p_dse.add_argument("--check-coproduct", action="store_true")
    p_dse.add_argument("--format", choices=("text", "json"), default="text")
    p_dse.set_defaults(func=_cmd_dse)

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument(
        "--suite",
        choices=tuple(_SUITES) + ("all",),
        required=True,
    )
    p_chk.add_argument("--max-degree", type=int, default=None)
    p_chk.add_argument("--format", choices=("text", "json"), default="text")
    p_chk.set_defaults(func=_cmd_check)
    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code: 0 success, 1 failed checks, 2 usage."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ExprParseError, BBAParseError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe must fail here, inside the try
    except BrokenPipeError:
        # The reader has gone (e.g. `| head`).  Point stdout at devnull so the
        # flush at interpreter exit cannot fail again, and exit like Python
        # does on EPIPE, without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
