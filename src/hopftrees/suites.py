"""The verification suites as one table, and the runner that builds them.

The rules and builders of the table are lambdas, so each name in them is
looked up when a suite runs: a patch or a tracing wrapper bound here, or in
the builder's own module, is the function that runs."""

from __future__ import annotations

from collections import namedtuple

from . import dse, morphisms, special
from .freemodule import Report, check_axioms, difference_witness, duality_check
from .hopf_trees import bplus, ck_ops, gl_ops, hf_ops, kp_ops
from .hopf_trees import pairing_hf, pairing_hk, pairing_kp_hf, pairing_kt_hk
from .scalar import ZZ
from .symfun import nsym_ops, qsym_ops, sym_ops
from .trees import check_weight


# A suite's default degree; its guard, a weight rule in the suite degree n and
# the label of its refusal; its reports by key, in order, each a degree rule in
# n and a builder taking that degree and what the reports share; and share,
# which builds that from n, or None when they share nothing.
Suite = namedtuple("Suite", "degree weight label reports share", defaults=(None,))


def consistency_report(sol, closed) -> Report:
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


def _with_ladders(n: int, solutions) -> Report:
    """The consistency report, and the ladders at p = 1 to degree n."""
    sol, closed = solutions
    rep = consistency_report(sol, closed)
    rep.law(
        "ladders at p=1",
        range(1, n + 1),
        lambda d: None if dse.ladder_specialization_holds(closed, d) else f"degree {d}",
    )
    return rep


def _n(n: int) -> int:
    return n


# Each suite enumerates trees, cuts or arrangements up to its guard's weight,
# n, or n - 1 for the DSE parts of degree n, trees of n vertices.  Every
# structure constant of the seven algebras counts something, and so does
# every tree pairing, so the axiom and duality suites run over ZZ, which
# rejects a non-integral coefficient instead of rounding it.  H_F and the
# DSE coproduct theorem stop early: their Catalan growth sets the cost.
SUITES = {
    "axioms": Suite(5, _n, "axioms suite", {
        "kT": (_n, lambda d, _: check_axioms(gl_ops(ZZ), d)),
        "H_K": (_n, lambda d, _: check_axioms(ck_ops(ZZ), d)),
        "kP": (_n, lambda d, _: check_axioms(kp_ops(ZZ), d)),
        "Sym": (_n, lambda d, _: check_axioms(sym_ops(ZZ), d)),
        "QSym": (_n, lambda d, _: check_axioms(qsym_ops(ZZ), d)),
        "NSym": (_n, lambda d, _: check_axioms(nsym_ops(ZZ), d)),
        "H_F": (lambda n: min(n, 5), lambda d, _: check_axioms(hf_ops(ZZ), d)),
    }),
    "duality": Suite(5, _n, "duality suite", {
        "H_K": (_n, lambda d, _: duality_check(
            ck_ops(ZZ), gl_ops(ZZ), bplus, pairing_hk, pairing_kt_hk, d)),
        "H_F": (_n, lambda d, _: duality_check(
            hf_ops(ZZ), kp_ops(ZZ), bplus, pairing_hf, pairing_kp_hf, d)),
    }),
    "diagrams": Suite(5, _n, "diagrams suite", {
        "d1": (_n, lambda d, _: morphisms.diagram_check("d1", d)),
        "d2": (_n, lambda d, _: morphisms.diagram_check("d2", d)),
    }),
    "special": Suite(5, _n, "special suite", {
        "proposition": (_n, lambda d, _: special.proposition_check(d)),
        "growth": (_n, lambda d, _: special.growth_formulas_check(d)),
        "lemma": (lambda n: n + 1, lambda d, _: special.lemma_check(d)),
    }),
    "dse": Suite(6, lambda n: max(n - 1, 0), "dse solution", {
        "consistency": (_n, _with_ladders),
        "coproduct": (
            lambda n: (min(n, 6), min(n, 5)),
            lambda d, solutions: dse.coproduct_theorem_check(*d, solutions[1]),
        ),
    }, share=lambda n: (dse.solve_recursive(n), dse.solve_closed(n))),
}


def prepare(name: str, n: int):
    """Refuse degree n of the suite above the ceiling before any work, then
    build what its reports share."""
    suite = SUITES[name]
    check_weight(suite.weight(n), suite.label)
    return suite.share(n) if suite.share else None


def report(name: str, key: str, n: int, shared) -> Report:
    """The suite's report under key, at the degree its rule gives for n."""
    degree, build = SUITES[name].reports[key]
    return build(degree(n), shared)


def run(name: str, n: int) -> list:
    """Every report of the suite at degree n, in order, once the guard has passed."""
    shared = prepare(name, n)
    return [report(name, key, n, shared) for key in SUITES[name].reports]
