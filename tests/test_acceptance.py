"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with pytest -v -s);
a failure raises with a witness.  Degrees and runtime budgets are fixed
here, not configurable.
"""

import time
from pathlib import Path

from hopftrees.dse import (
    coproduct_theorem_check,
    ladder_specialization_holds,
    solve_closed,
    solve_recursive,
    specialize,
)
from hopftrees.freemodule import (
    check_axioms,
    check_cocommutativity,
    duality_check,
    generic_antipode,
)
from hopftrees.hopf_trees import (
    bplus,
    ck_antipode,
    ck_ops,
    gl_ops,
    gl_product,
    hf_antipode,
    hf_ops,
    kp_ops,
    kp_product,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from hopftrees.morphisms import diagram_check, tau_star
from hopftrees.scalar import P, QQ, binom_poly, poly_str
from hopftrees.special import growth_formulas_check, lemma_check, proposition_check
from hopftrees.symfun import (
    Composition,
    Partition,
    compositions_of,
    partitions_of,
    qsym_antipode,
    qsym_coproduct,
    qsym_ops,
    sym_coproduct,
    sym_ops,
)
from hopftrees.trees import (
    DOT,
    RootedTree,
    bba_decode,
    catalan,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    rooted_count_recurrence,
)

GOLDEN = Path(__file__).parent / "golden" / "paper_displays.txt"


def report_line(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_01_paper_displays_golden():
    from hopftrees.cli import render_lincomb

    start = time.time()
    cherry = RootedTree([DOT, DOT])
    lines = [
        "gl cherry*l2: " + render_lincomb(gl_product(cherry, ladder(2)), "gl"),
        "gl l2*cherry: " + render_lincomb(gl_product(ladder(2), cherry), "gl"),
        "kp <><> sh <>: "
        + render_lincomb(kp_product(bba_decode("<><>"), bba_decode("<>")), "pl"),
        "kp <> sh <><>: "
        + render_lincomb(kp_product(bba_decode("<>"), bba_decode("<><>")), "pl"),
        "sym cop m[2,1,1]: " + render_lincomb(sym_coproduct(Partition([2, 1, 1])), "sym"),
        "qsym cop M[2,1,1]: "
        + render_lincomb(qsym_coproduct(Composition([2, 1, 1])), "qsym"),
        "m[2,1,1] in QSym: " + render_lincomb(tau_star(Partition([2, 1, 1])), "qsym"),
        "C_p of B+(. l2): " + poly_str(binom_poly(2) * P),
    ]
    assert "\n".join(lines) + "\n" == GOLDEN.read_text()
    elapsed = time.time() - start
    assert elapsed < 1.0, f"display reproduction took {elapsed:.2f}s"
    report_line(1, f"all eight paper displays bit-exact in {elapsed * 1000:.0f} ms")


def test_criterion_02_hopf_axiom_suites():
    start = time.time()
    plan = [
        (gl_ops(QQ), 6),
        (ck_ops(QQ), 6),
        (kp_ops(QQ), 6),
        (hf_ops(QQ), 5),
        (sym_ops(QQ), 6),
        (qsym_ops(QQ), 6),
        (nsym_ops_qq(), 6),
    ]
    for ops, degree in plan:
        rep = check_axioms(ops, degree)
        assert rep.passed, f"{ops.name}: " + "; ".join(
            e.line() for e in rep.entries if not e.ok
        )
    assert check_cocommutativity(gl_ops(QQ), 6).passed
    elapsed = time.time() - start
    assert elapsed < 120, f"axiom suites took {elapsed:.1f}s"
    report_line(2, f"axioms exhaustively verified for all seven algebras in {elapsed:.1f}s")


def nsym_ops_qq():
    from hopftrees.symfun import nsym_ops

    return nsym_ops(QQ)


def test_criterion_03_duality_identity():
    for rep in (
        duality_check(ck_ops(QQ), gl_ops(QQ), bplus, pairing_hk, pairing_kt_hk, 5),
        duality_check(
            hf_ops(QQ), kp_ops(QQ), bplus, pairing_hf, pairing_kp_hf, 5
        ),
    ):
        assert rep.passed, "; ".join(e.line() for e in rep.entries if not e.ok)
    report_line(3, "inner-product duality conditions hold to total degree 5, both settings")


def test_criterion_04_counting_lemma():
    rep = lemma_check(6)
    assert rep.passed, "; ".join(e.line() for e in rep.entries if not e.ok)
    checked = rep.entries[0].checked
    report_line(4, f"counting identity exact on all {checked} trees to 6 vertices")


def test_criterion_05_diagrams_commute():
    for diagram in ("d1", "d2"):
        rep = diagram_check(diagram, 5)
        assert rep.passed, f"{diagram}: " + "; ".join(
            e.line() for e in rep.entries if not e.ok
        )
    report_line(5, "both squares commute to degree 5 with all eight arrows Hopf morphisms")


def test_criterion_06_special_family_facts():
    rep = proposition_check(6)
    assert rep.passed, "; ".join(e.line() for e in rep.entries if not e.ok)
    report_line(6, "kappa/epsilon facts (antipode link, images, divided powers) hold to n = 6")


def test_criterion_07_growth_formulas():
    rep = growth_formulas_check(6)
    assert rep.passed, "; ".join(e.line() for e in rep.entries if not e.ok)
    report_line(7, "growth cut-counts match monomial coefficients and multinomials to weight 6")


def test_criterion_08_dse_solutions():
    start = time.time()
    rec = solve_recursive(7)
    clo = solve_closed(7)
    for n in range(1, 8):
        assert rec.hf(n) == clo.hf(n), f"planar degree {n}"
        assert rec.hk(n) == clo.hk(n), f"commutative degree {n}"
    rep = coproduct_theorem_check(6, 5, clo)
    assert rep.passed, "; ".join(e.line() for e in rep.entries if not e.ok)
    for n in range(1, 7):
        assert ladder_specialization_holds(clo, n), f"p=1 ladder at degree {n}"
    from hopftrees.trees import Forest

    x3_at_2 = specialize(clo.hk(3), 2)
    assert x3_at_2.coeff(Forest((ladder(3),))) == 4
    elapsed = time.time() - start
    assert elapsed < 120, f"DSE checks took {elapsed:.1f}s"
    report_line(8, f"DSE solutions agree to degree 7 and coproduct formulas hold in {elapsed:.1f}s")


def test_criterion_09_counting():
    for n in range(9):
        assert len(enumerate_planar(n)) == catalan(n)
    expected = [1, 1, 2, 4, 9, 20, 48, 115]
    for n, want in enumerate(expected):
        assert len(enumerate_rooted(n)) == want
        assert rooted_count_recurrence(n + 1) == want
    report_line(9, "Catalan counts to n = 8; rooted counts match the recurrence oracle")


def test_criterion_10_antipode_cross_validation():
    ck, hf, qs = ck_ops(QQ), hf_ops(QQ), qsym_ops(QQ)
    for n in range(7):
        for f in ck_ops(QQ).basis(n):
            assert ck_antipode(f) == generic_antipode(ck, f)
        for f in hf_ops(QQ).basis(n):
            assert hf_antipode(f) == generic_antipode(hf, f)
        for c in compositions_of(n):
            assert qsym_antipode(c) == generic_antipode(qs, c)

    gl, sym = gl_ops(QQ), sym_ops(QQ)
    for n in range(7):
        for t in enumerate_rooted(n):
            assert gl.antipode_lc(gl.antipode_basis(t)) == gl.term(t)
        for f in ck_ops(QQ).basis(n):
            assert ck.antipode_lc(ck.antipode_basis(f)) == ck.term(f)
        for lam in partitions_of(n):
            assert sym.antipode_lc(sym.antipode_basis(lam)) == sym.term(lam)
        for c in compositions_of(n):
            assert qs.antipode_lc(qs.antipode_basis(c)) == qs.term(c)

    witness = None
    for n in range(5):
        for f in hf_ops(QQ).basis(n):
            if hf.antipode_lc(hf.antipode_basis(f)) != hf.term(f):
                witness = f
                break
        if witness is not None:
            break
    assert witness is not None, "no S^2 != id witness found in H_F through degree 4"
    report_line(
        10,
        f"antipode formulas match the recursion to degree 6; S^2 = id on the "
        f"(co)commutative algebras; H_F witness {witness!r}",
    )
