"""Command-line interface: expression parsing, operation dispatch, and the
rendering of results and verification reports, as text or JSON.

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
from . import morphisms, special, suites, symfun
from .freemodule import (
    LinComb,
    TensorElem,
    accumulate,
    pairing_extend,
    reports_to_json,
)
from .hopf_trees import (
    ck_ops,
    gl_ops,
    hf_ops,
    kp_ops,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from .scalar import ONE_POLY, Poly, QP, QQ, signed_join
from .suites import SUITES
from .symfun import nsym_ops, qsym_ops, sym_ops, sym_pairing_elems
from .trees import (
    BBAParseError,
    PlanarTree,
    ResourceLimitError,
    RootedTree,
    _Forest,
    bba_decode,
    canonicalize,
    degree_ceiling,
    enumerate_planar,
    enumerate_rooted,
)


class UsageError(ValueError):
    """A malformed command line: the CLI exits 2 with the message."""


class ExprParseError(UsageError):
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
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's integer string limit
            self.error("integer literal too long", start)

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
    """(negated, body) where body has no leading sign and parses as a coeff:
    c as a factor (Ring.render_factor), its leading minus split off; a
    polynomial of several terms keeps its signs inside parentheses."""
    body = ring.render_factor(c)
    neg = body.startswith("-")
    return neg, body[1:] if neg else body


def render_lincomb(x: LinComb, algebra: str) -> str:
    """Parseable text of x; a TensorElem's pair (a, b) renders as "a @ b".
    Each distinct coefficient is rendered once."""
    if x.is_zero():
        return "0"
    pairs = isinstance(x, TensorElem)
    pieces = []
    rendered: dict = {}
    for b, c in x.sorted_terms():
        shown = rendered.get(c)
        if shown is None:
            shown = rendered[c] = _render_coeff(c, x.ring)
        neg, coeff = shown
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
    """One object per term; a TensorElem's pair (a, b) gives "left" and
    "right" where a single basis element gives "monomial"."""
    if isinstance(x, TensorElem):
        return [
            {
                "left": render_basis(a, algebra),
                "right": render_basis(b, algebra),
                "coeff": x.ring.render(c),
            }
            for (a, b), c in x.sorted_terms()
        ]
    return [
        {"monomial": render_basis(b, algebra), "coeff": x.ring.render(c)}
        for b, c in x.sorted_terms()
    ]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_enumerate(args) -> int:
    enumerate_trees = enumerate_planar if args.kind == "planar" else enumerate_rooted
    for t in enumerate_trees(_nonnegative("-n", args.n)):
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
    ops = _ops_for(args.algebra, expr.value.ring)
    if args.kind == "pair":
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
        if args.format == "json":
            payload = {"algebra": args.algebra, "value": expr.value.ring.render(value)}
            print(json.dumps(payload, indent=2))
        else:
            print(value)
        return 0
    if args.kind == "product":
        if args.expr2 is None:
            raise ExprParseError(0, "product needs --expr2")
        other = parse_expr(args.expr2, args.algebra, args.scalars)
        result = ops.product_lc(expr.value, other.value)
    elif args.kind == "coproduct":
        result = ops.coproduct_lc(expr.value)
    else:
        result = ops.antipode_lc(expr.value)
    _emit_lincomb(result, args.algebra, args.format)
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
    "taustar": ("sym", "qsym", symfun.tau_star),
}


def _cmd_map(args) -> int:
    domain, codomain, func = _MAPS[args.name]
    expr = parse_expr(args.expr, domain, args.scalars)
    _emit_lincomb(func(expr.value), codomain, args.format)
    return 0


def _cmd_special(args) -> int:
    if args.what == "kappa":
        print(render_lincomb(special.kappa(_nonnegative("n", args.n)), "gl"))
        return 0
    if args.what == "epsilon":
        print(render_lincomb(special.epsilon(_nonnegative("n", args.n)), "gl"))
        return 0
    if args.what == "growth":
        k = _nonnegative("--k", args.k)
        expr = parse_expr(args.expr, "gl", "rational")
        print(render_lincomb(special.natural_growth(expr.value, k), "gl"))
        return 0
    raise ValueError(args.what)


def _specialization(text: str) -> Fraction:
    """The rational value of --p; a malformed one is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in --p {text}") from None
    except ValueError:
        raise UsageError(f"--p must be a rational number, not {text!r}") from None


def _nonnegative(flag: str, n: int) -> int:
    """The value of an integer option or argument; a negative one is a
    usage error."""
    if n < 0:
        raise UsageError(f"{flag} must be nonnegative, not {n}")
    return n


def _cmd_dse(args) -> int:
    n = _nonnegative("--max-degree", args.max_degree)
    value = None if args.p is None else _specialization(args.p)
    sol, closed = solutions = suites.prepare("dse", n)
    reports = [suites.consistency_report(sol, closed)]
    if args.check_coproduct:
        reports.append(suites.report("dse", "coproduct", n, solutions))
    algebra = "ck" if args.algebra == "ck" else "foissy"
    terms = sol.hk_terms if algebra == "ck" else sol.hf_terms
    if value is not None:
        terms = {n: dse_mod.specialize(x, value) for n, x in terms.items()}
    if args.format == "json":
        parts = [
            {"degree": n, "terms": lincomb_json(x, algebra)}
            for n, x in sorted(terms.items())
        ]
        payload = {"parts": parts, "reports": [rep.to_json() for rep in reports]}
        print(json.dumps(payload, indent=2))
    else:
        for n, x in sorted(terms.items()):
            print(f"degree {n}: {render_lincomb(x, algebra)}")
        for rep in reports:
            print(rep)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_check(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        degree = SUITES[name].degree if args.max_degree is None else args.max_degree
        reports.extend(suites.run(name, _nonnegative("--max-degree", degree)))
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
    p_check.add_argument("--max-degree", type=int, default=None)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=_cmd_check, suite="special")  # check --suite special
    p_special.set_defaults(func=_cmd_special)

    p_dse = sub.add_parser("dse", help="solve the combinatorial Dyson-Schwinger equation")
    p_dse.add_argument("--max-degree", type=int, default=SUITES["dse"].degree)
    p_dse.add_argument("--p", help="rational specialization, e.g. 2 or 1/2")
    p_dse.add_argument("--algebra", choices=("ck", "foissy"), default="ck")
    p_dse.add_argument("--check-coproduct", action="store_true")
    p_dse.add_argument("--format", choices=("text", "json"), default="text")
    p_dse.set_defaults(func=_cmd_dse)

    p_chk = sub.add_parser("check", help="run a verification suite")
    p_chk.add_argument(
        "--suite",
        choices=tuple(SUITES) + ("all",),
        required=True,
    )
    p_chk.add_argument("--max-degree", type=int, default=None)
    p_chk.add_argument("--format", choices=("text", "json"), default="text")
    p_chk.set_defaults(func=_cmd_check)
    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code: 0 success, 1 failed checks, 2 a
    usage error or a refused resource limit.  Any other exception is a fault
    of the program and propagates."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        degree_ceiling()  # a malformed HOPFTREES_MAX_DEGREE fails every command
        return args.func(args)
    except (UsageError, ResourceLimitError) as exc:
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
