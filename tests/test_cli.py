import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopftrees import cli, special, suites, symfun
from hopftrees.cli import (
    ExprParseError,
    parse_expr,
    render_lincomb,
    run,
)
from hopftrees.freemodule import HopfOps, LinComb, Report, RingMismatchError, check_axioms
from hopftrees.hopf_trees import gl_ops
from hopftrees.scalar import P, QP, QQ, ZZ, binom_poly
from hopftrees.symfun import Composition, Partition, partitions_of, sym_pairing_elems
from hopftrees.trees import (
    DOT,
    Forest,
    OrderedForest,
    RootedTree,
    bba_decode,
    degree_ceiling,
    ladder,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "paper_displays.txt"

CHERRY = RootedTree([DOT, DOT])


def test_parse_forest_expression():
    expr = parse_expr("(<><>) + 2*(<<>>)", "ck")
    want = LinComb(QQ, {Forest([CHERRY]): 1, Forest([ladder(3)]): 2})
    assert expr.value == want


def test_parse_symtoken():
    expr = parse_expr("M[2,1,1]", "qsym")
    assert expr.value == LinComb.term(QQ, Composition([2, 1, 1]))
    expr = parse_expr("e[2] - h[2]", "sym")
    assert expr.value == LinComb.term(QQ, Partition([2]), -1)


def test_parse_juxtaposed_forest():
    expr = parse_expr("(<>)(<<>>)", "ck")
    assert expr.value == LinComb.term(QQ, Forest([ladder(2), ladder(3)]))
    ordered = parse_expr("(<>)(<<>>)", "foissy")
    assert ordered.value == LinComb.term(
        QQ, OrderedForest([bba_decode("<>"), bba_decode("<<>>")])
    )


def test_parse_errors_with_position():
    with pytest.raises(ExprParseError) as err:
        parse_expr("(<>", "ck")
    assert err.value.pos == 3
    with pytest.raises(ExprParseError):
        parse_expr("m[2]", "qsym")  # token/algebra mismatch
    with pytest.raises(ExprParseError):
        parse_expr("(<>) ++ (<>)", "ck")
    with pytest.raises(ExprParseError):
        parse_expr("(<>)(<>)", "gl")  # forest in a tree algebra


def test_parse_poly_coefficients():
    expr = parse_expr("p^2*(<<>>) + (-1/2*p + 1/2*p^2)*(<><>)", "ck", "poly")
    assert expr.value.coeff(Forest([ladder(3)])) == P * P
    assert expr.value.coeff(Forest([CHERRY])) == binom_poly(2)


def test_parse_units_and_scalars():
    assert parse_expr("1", "ck").value == LinComb.term(QQ, Forest())
    assert parse_expr("3/2*1", "ck").value == LinComb.term(
        QQ, Forest(), Fraction(3, 2)
    )
    assert parse_expr("-2", "ck").value == LinComb.term(QQ, Forest(), -2)


def test_coefficients_starting_with_one(capsys):
    dot, unit = Forest([DOT]), Forest()
    cases = {
        "10*(<>)": {Forest([ladder(2)]): 10},
        "1/2*(<>)": {Forest([ladder(2)]): Fraction(1, 2)},
        "1*(<>)": {Forest([ladder(2)]): 1},
        "1 * (<>)": {Forest([ladder(2)]): 1},
        "2*(<>) + 12": {Forest([ladder(2)]): 2, unit: 12},
        "1": {unit: 1},
        "(<>) + 1": {Forest([ladder(2)]): 1, unit: 1},
        "()": {dot: 1},
    }
    for text, terms in cases.items():
        assert parse_expr(text, "ck").value == LinComb(QQ, terms), text
    for text in ("10*(<>)", "1/2*(<>)", "1*(<>)", "2*(<>) + 12"):
        assert run(["op", "--algebra", "ck", "--kind", "antipode", "--expr", text]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "10*()() - 10*(<>)"


@pytest.mark.parametrize(
    "algebra,text",
    [
        ("ck", "(<><>) + 2*(<<>>)"),
        ("ck", "-(<>) + 1"),
        ("gl", "(<><<>>)"),
        ("foissy", "(<>)(<<>>) - 3*(<><>)"),
        ("sym", "2*m[2,1] - m[1,1,1]"),
        ("qsym", "M[1,2] + M[2,1]"),
        ("nsym", "E[2,1] - E[1,2]"),
    ],
)
def test_render_parse_round_trip(algebra, text):
    expr = parse_expr(text, algebra)
    rendered = render_lincomb(expr.value, algebra)
    again = parse_expr(rendered, algebra)
    assert again.value == expr.value
    assert render_lincomb(again.value, algebra) == rendered
    # the same integral values over ZZ render alike
    over_z = expr.value.map_coeffs(ZZ.coerce, ZZ)
    assert render_lincomb(over_z, algebra) == rendered
    assert render_lincomb(cli._ops_for(algebra, ZZ).coproduct_lc(over_z), algebra) == (
        render_lincomb(cli._ops_for(algebra, QQ).coproduct_lc(expr.value), algebra)
    )


def test_render_parse_round_trip_poly():
    expr = parse_expr("p*(<>) + (p^2 - p)*(<<>>)", "ck", "poly")
    rendered = render_lincomb(expr.value, "ck")
    again = parse_expr(rendered, "ck", "poly")
    assert again.value == expr.value


def test_golden_paper_displays():
    from hopftrees.hopf_trees import gl_product, kp_product
    from hopftrees.morphisms import tau_star
    from hopftrees.scalar import poly_str
    from hopftrees.symfun import qsym_coproduct, sym_coproduct

    lines = [
        "gl cherry*l2: " + render_lincomb(gl_product(CHERRY, ladder(2)), "gl"),
        "gl l2*cherry: " + render_lincomb(gl_product(ladder(2), CHERRY), "gl"),
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


def test_golden_mutation_detected():
    # flipping any single coefficient in the golden text must break comparison
    text = GOLDEN.read_text()
    corrupted = text.replace("2*(<><<>>)", "3*(<><<>>)", 1)
    assert corrupted != text


def test_cli_enumerate(capsys):
    assert run(["enumerate", "--kind", "rooted", "-n", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["(<><>)", "(<<>>)"]


def test_cli_op_product_display(capsys):
    code = run(
        [
            "op",
            "--algebra",
            "gl",
            "--kind",
            "product",
            "--expr",
            "(<><>)",
            "--expr2",
            "(<>)",
        ]
    )
    assert code == 0
    assert (
        capsys.readouterr().out.strip()
        == "(<><><>) + 2*(<><<>>) + (<<><>>)"
    )


def test_cli_op_coproduct_json(capsys):
    code = run(
        [
            "op",
            "--algebra",
            "qsym",
            "--kind",
            "coproduct",
            "--expr",
            "M[2,1]",
            "--format",
            "json",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["algebra"] == "qsym"
    assert {
        "left": "1",
        "right": "M[2,1]",
        "coeff": "1",
    } in data["terms"]


def test_cli_op_pair(capsys):
    code = run(
        [
            "op",
            "--algebra",
            "gl",
            "--kind",
            "pair",
            "--expr",
            "(<><>)",
            "--expr2",
            "(<><>)",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


@pytest.mark.parametrize(
    "algebra, scalars, expr, expr2, value",
    [
        ("ck", "rational", "1/3*(<>)", "(<>)", "1/3"),
        ("sym", "poly", "(1 + p)*m[1]", "m[1]", "1 + p"),
    ],
)
def test_cli_op_pair_json(capsys, algebra, scalars, expr, expr2, value):
    # the value is rendered by its ring, as lincomb_json renders coefficients
    argv = ["op", "--algebra", algebra, "--kind", "pair", "--scalars", scalars]
    argv += ["--expr", expr, "--expr2", expr2, "--format", "json"]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"algebra": algebra, "value": value}


def test_cli_sym_pairing_over_polynomials(capsys):
    # the h-to-m solve is over QQ, and the pairing runs in the input's ring
    code = run(
        [
            "op",
            "--algebra",
            "sym",
            "--kind",
            "pair",
            "--scalars",
            "poly",
            "--expr",
            "p*m[1]",
            "--expr2",
            "m[1]",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "p"
    lams = [lam for n in range(6) for lam in partitions_of(n)]
    for lam in lams:
        x = LinComb.term(QQ, lam)
        xp = LinComb.term(QP, lam, P)
        for mu in lams:
            want = sym_pairing_elems(x, LinComb.term(QQ, mu))
            assert sym_pairing_elems(xp, LinComb.term(QP, mu)) == P * want
    with pytest.raises(RingMismatchError):
        sym_pairing_elems(LinComb.term(QQ, lams[1]), LinComb.term(QP, lams[1]))


def test_cli_map(capsys):
    assert run(["map", "--name", "phistar", "--expr", "(<><>)"]) == 0
    assert capsys.readouterr().out.strip() == "2*m[1,1]"
    assert run(["map", "--name", "taustar", "--expr", "m[2,1,1]"]) == 0
    assert capsys.readouterr().out.strip() == "M[1,1,2] + M[1,2,1] + M[2,1,1]"


def test_cli_special(capsys):
    assert run(["special", "kappa", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2*(<><>) + (<<>>)"
    assert run(["special", "epsilon", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1/2*(<><>)"
    assert run(["special", "growth", "--k", "2", "--expr", "(" ")"]) == 0
    assert capsys.readouterr().out.strip() == "(<><>) + (<<>>)"


def test_cli_special_check(capsys):
    assert run(["special", "check", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL PASS" in out
    assert run(["check", "--suite", "special", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == out


GOLDEN_TRANSCRIPTS = [
    (["check", "--suite", "all", "--max-degree", "3"], "check_all_d3.txt"),
    (["dse", "--max-degree", "5", "--check-coproduct"], "dse_d5_coproduct.txt"),
    (["dse", "--max-degree", "5", "--algebra", "foissy"], "dse_d5_foissy.txt"),
    (["enumerate", "--kind", "rooted", "-n", "5"], "enumerate_rooted_n5.txt"),
]


@pytest.mark.parametrize("argv, golden", GOLDEN_TRANSCRIPTS)
def test_golden_transcripts(capsys, argv, golden):
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("argv, golden", GOLDEN_TRANSCRIPTS)
def test_output_independent_of_hash_seed(argv, golden):
    """Basis elements hash by identity, so output that followed hash order
    would move with the hash seed or the memory layout; each run is a fresh
    interpreter."""
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "hopftrees", *argv],
            capture_output=True,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(cli.__file__).parents[1]),
                "PYTHONHASHSEED": seed,
            },
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1] == (GOLDEN_DIR / golden).read_bytes()


def test_json_checked_matches_text_case_counts(capsys):
    argv = ["check", "--suite", "diagrams", "--max-degree", "3"]
    assert run(argv) == 0
    text = capsys.readouterr().out.splitlines()
    assert run(argv + ["--format", "json"]) == 0
    laws = [law for rep in json.loads(capsys.readouterr().out) for law in rep["laws"]]
    entries = [line for line in text if line.startswith("  ")]
    assert len(entries) == len(laws) > 0
    for line, law in zip(entries, laws):
        assert law["law"] in line
        match = re.search(r"\[(\d+) cases\]$", line)
        assert law["checked"] == (int(match.group(1)) if match else 0)
    assert any(law["checked"] > 0 for law in laws)


def test_broken_pipe_exits_without_traceback():
    # more output than a pipe buffers, so the writer meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "hopftrees", "enumerate", "--kind", "planar", "-n", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.stdout.readline() == b"(<<<<<<<<<<>>>>>>>>>>)\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in stderr, stderr


def test_cli_dse_json(capsys):
    code = run(["dse", "--max-degree", "3", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    by_degree = {entry["degree"]: entry["terms"] for entry in data["parts"]}
    assert by_degree[2] == [{"monomial": "(<>)", "coeff": "p"}]
    assert {"monomial": "(<><>)", "coeff": "-1/2*p + 1/2*p^2"} in by_degree[3]
    [consistency] = data["reports"]
    assert consistency["name"] == "solution consistency" and consistency["passed"]


def test_cli_dse_json_names_the_failing_laws(capsys):
    # at degree 0 no law checks a case, so every one fails, and the JSON
    # says which
    code = run(["dse", "--max-degree", "0", "--format", "json", "--check-coproduct"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["parts"] == []
    assert [r["name"] for r in data["reports"]] == [
        "solution consistency",
        "solution coproduct formulas",
    ]
    assert not any(r["passed"] for r in data["reports"])
    assert data["reports"][1]["laws"][0] == {
        "law": "commutative coproduct formula",
        "status": "fail",
        "checked": 0,
        "witness": "no cases checked",
    }


def test_cli_dse_specialized(capsys):
    code = run(["dse", "--max-degree", "3", "--p", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "degree 3: (<><>) + 4*(<<>>)" in out


def test_cli_check_diagrams(capsys):
    assert run(["check", "--suite", "diagrams", "--max-degree", "3"]) == 0
    assert "ALL PASS" in capsys.readouterr().out


def test_cli_check_json(capsys):
    assert run(["check", "--suite", "duality", "--max-degree", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(rep["passed"] for rep in data)
    assert all("laws" in rep for rep in data)


def test_cli_check_failure_exit_code(monkeypatch, capsys):
    failing = Report("forced failure", 1)
    failing.add("broken law", False, witness="w")
    reports = {"forced": (lambda n: n, lambda d, _: failing)}
    forced = suites.Suite(1, lambda n: n, "forced suite", reports)
    monkeypatch.setitem(suites.SUITES, "axioms", forced)
    assert run(["check", "--suite", "axioms"]) == 1
    assert "FAILURES PRESENT" in capsys.readouterr().out


def test_cli_dse_catches_one_wrong_closed_form_coefficient(monkeypatch, capsys):
    """1 added to cp_coefficient of one planar tree with 4 vertices: the
    closed H_F solution moves at degree 4, and the recursion, which never
    calls cp_coefficient, does not.  The patch wraps cp_coefficient outside
    the lru_cache of dse._binom_product, so no cached value is corrupted.
    The witness shows recursive minus closed: -1 on the corrupted tree."""
    from hopftrees import dse

    star = bba_decode("<><><>")
    exact = dse.cp_coefficient
    monkeypatch.setattr(
        dse, "cp_coefficient", lambda t: exact(t) + 1 if t is star else exact(t)
    )
    assert run(["check", "--suite", "dse", "--max-degree", "6"]) == 1
    out = capsys.readouterr().out
    assert (
        "  FAIL recursive matches closed form [4 cases] witness: degree 4; "
        "lhs - rhs = -1*OrderedForest(['<><><>'])" in out.splitlines()
    )
    assert out.endswith("FAILURES PRESENT\n")


def test_cli_dse_consistency_shows_the_commutative_difference(monkeypatch, capsys):
    """1 added to the embedding count of the cherry moves only the closed H_K
    solution, at degree 3; the witness shows recursive minus closed there,
    -cp_coefficient(cherry) = (p - p^2)/2 on the cherry."""
    from hopftrees import dse

    cherry = RootedTree([DOT, DOT])
    exact = dse.embedding_count
    monkeypatch.setattr(
        dse, "embedding_count", lambda t: exact(t) + 1 if t is cherry else exact(t)
    )
    assert run(["check", "--suite", "dse", "--max-degree", "4"]) == 1
    assert (
        "  FAIL recursive matches closed form [3 cases] witness: degree 3; "
        "lhs - rhs = (1/2*p - 1/2*p^2)*Forest(['<><>'])"
        in capsys.readouterr().out.splitlines()
    )


def test_integral_suites_run_over_zz(monkeypatch, capsys):
    seen = []

    def record(*args):
        seen.extend(x.ring for x in args if isinstance(x, HopfOps))
        return Report("stub", 0)

    monkeypatch.setattr(suites, "check_axioms", record)
    monkeypatch.setattr(suites, "duality_check", record)
    assert run(["check", "--suite", "axioms", "--max-degree", "1"]) == 0
    assert run(["check", "--suite", "duality", "--max-degree", "1"]) == 0
    capsys.readouterr()
    assert len(seen) == 7 + 2 * 2 and all(ring is ZZ for ring in seen)


def test_special_suite_grafts_over_zz_only(monkeypatch):
    # one kT ops for the suite: no QQ memo is built beside the ZZ one
    seen = []

    def recording(ring=QQ):
        seen.append(ring)
        return gl_ops(ring)

    monkeypatch.setattr(special, "gl_ops", recording)
    special.epsilon.cache_clear()  # so the recursion asks too
    assert all(rep.passed for rep in suites.run("special", 5))
    assert seen and all(ring is ZZ for ring in seen)


def test_non_integral_constant_over_zz_is_an_error(monkeypatch, capsys):
    base = cli.nsym_ops(ZZ)

    def halved(a, b):
        out = base.product(a, b)
        if base.degree(a) == base.degree(b) == 1:
            return LinComb(ZZ, {w: Fraction(c, 2) for w, c in out.terms.items()})
        return out

    broken = HopfOps(
        name="NSym",
        ring=ZZ,
        unit=base.unit,
        degree=base.degree,
        basis=base.basis,
        product=halved,
        coproduct=base.coproduct,
    )
    with pytest.raises(TypeError, match="integer"):
        check_axioms(broken, 2)
    # neither a pass nor a usage error (exit 2): the CLI lets it propagate
    monkeypatch.setattr(suites, "nsym_ops", lambda ring: broken)
    with pytest.raises(TypeError, match="integer"):
        run(["check", "--suite", "axioms", "--max-degree", "2"])
    assert "ALL PASS" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, laws",
    [
        (
            "special",
            [
                "phi* intertwines growth with e_1 multiplication",
                "m(., t_lambda; t_mu) matches e_1 m_lambda",
                "n(.; t_lambda) multinomial formula",
            ],
        ),
        (
            "dse",
            [
                "recursive matches closed form",
                "ladders at p=1",
                "commutative coproduct formula",
                "planar coproduct formula",
                "rational specialization at p=2",
            ],
        ),
    ],
)
def test_cli_check_degree_zero_is_not_a_pass(capsys, suite, laws):
    # laws that check no case at degree 0 fail instead of passing vacuously
    assert run(["check", "--suite", suite, "--max-degree", "0"]) == 1
    out = capsys.readouterr().out
    failing = [line for line in out.splitlines() if line.startswith("  FAIL")]
    assert failing == [f"  FAIL {law} witness: no cases checked" for law in laws]
    assert out.endswith("FAILURES PRESENT\n")


def test_cli_usage_errors(capsys):
    assert run(["op", "--algebra", "ck", "--kind", "product", "--expr", "(<>"]) == 2
    capsys.readouterr()
    assert run(["op", "--algebra", "ck", "--kind", "product", "--expr", "(<>)"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    assert run(["enumerate", "--kind", "rooted", "-n", "99"]) == 2
    assert run(["dse", "--max-degree", "3", "--p", "1/0"]) == 2
    assert run(["special", "kappa", "--", "-1"]) == 2
    assert run(["special", "epsilon", "--", "-2"]) == 2
    assert run(["special", "growth", "--expr", "(<>)", "--k", "-2"]) == 2
    # a negative degree is refused before any law runs, not reported as
    # laws that checked no case
    assert run(["check", "--suite", "axioms", "--max-degree", "-1"]) == 2
    assert run(["special", "check", "--max-degree", "-1"]) == 2
    assert run(["dse", "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-3:] == [
        "error: --max-degree must be nonnegative, not -1"
    ] * 3


def test_cli_resource_vs_check_exit():
    # degree cap violations are usage errors, not check failures
    assert run(["enumerate", "--kind", "planar", "-n", "50"]) == 2


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    # only usage errors and refused limits exit 2; a ValueError raised inside
    # a structure map is a fault of the program and propagates
    base = cli.nsym_ops(ZZ)

    def broken(a, b):
        raise ValueError("broken product")

    monkeypatch.setattr(
        suites,
        "nsym_ops",
        lambda ring: HopfOps(
            name="NSym",
            ring=ZZ,
            unit=base.unit,
            degree=base.degree,
            basis=base.basis,
            product=broken,
            coproduct=base.coproduct,
        ),
    )
    with pytest.raises(ValueError, match="broken product"):
        run(["check", "--suite", "axioms", "--max-degree", "2"])
    assert "ALL PASS" not in capsys.readouterr().out


def test_cli_more_usage_errors(monkeypatch, capsys):
    too_long = "1" * 5000  # past the interpreter's integer string limit
    cases = [
        (["enumerate", "--kind", "planar", "-n", "-1"], "-n must be nonnegative, not -1"),
        (["dse", "--max-degree", "3", "--p", "abc"], "--p must be a rational number"),
        (
            ["op", "--algebra", "sym", "--kind", "antipode", "--expr", f"{too_long}*m[1]"],
            "offset 0: integer literal too long",
        ),
    ]
    for argv, message in cases:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
    monkeypatch.setenv("HOPFTREES_MAX_DEGREE", "junk")
    assert run(["op", "--algebra", "sym", "--kind", "antipode", "--expr", "m[1]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: HOPFTREES_MAX_DEGREE must be a nonnegative integer, not 'junk'\n"
    )


@pytest.mark.parametrize(
    "argv, what",
    [
        (["check", "--suite", "axioms", "--max-degree", "4"], "axioms suite"),
        (["check", "--suite", "duality", "--max-degree", "4"], "duality suite"),
        (["check", "--suite", "diagrams", "--max-degree", "4"], "diagrams suite"),
        (["check", "--suite", "special", "--max-degree", "4"], "special suite"),
        (["special", "check", "--max-degree", "4"], "special suite"),
        (["check", "--suite", "dse", "--max-degree", "5"], "dse solution"),
        (["dse", "--max-degree", "5"], "dse solution"),
    ],
)
def test_suite_above_the_ceiling_is_refused_before_its_first_law(
    monkeypatch, capsys, argv, what
):
    monkeypatch.setenv("HOPFTREES_MAX_DEGREE", "3")

    def no_work(*args, **kwargs):
        raise AssertionError("work started above the ceiling")

    monkeypatch.setattr(Report, "law", no_work)
    monkeypatch.setattr(cli.dse_mod, "solve_recursive", no_work)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} at weight 4 exceeds ceiling 3\n"


def test_dse_suite_runs_to_one_degree_past_the_ceiling(monkeypatch, capsys):
    # the degree-n parts are trees of n vertices, of weight n - 1
    monkeypatch.setenv("HOPFTREES_MAX_DEGREE", "3")
    assert run(["check", "--suite", "dse", "--max-degree", "4"]) == 0
    assert capsys.readouterr().out.endswith("ALL PASS\n")


def test_user_input_above_the_ceiling_is_refused(monkeypatch, capsys):
    # each input has weight ceiling + 1, and each path's cost is exponential
    # in it: 2^n cuts, n! orders of a bush's leaves, 2^(n-1) coarsenings and
    # n! arrangements of n equal parts
    monkeypatch.delenv("HOPFTREES_MAX_DEGREE", raising=False)
    n = degree_ceiling() + 1
    ladder_bba = "<" * n + ">" * n
    ones = ",".join(["1"] * n)
    cases = [
        (
            ["op", "--algebra", "ck", "--kind", "coproduct", "--expr", f"({ladder_bba})"],
            "cut enumeration",
        ),
        (["map", "--name", "rhostar", "--expr", f"({'<>' * n})"], "planar realization"),
        (
            ["op", "--algebra", "qsym", "--kind", "antipode", "--expr", f"M[{ones}]"],
            "coarsening enumeration",
        ),
        (["map", "--name", "taustar", "--expr", f"m[{ones}]"], "arrangement enumeration"),
    ]
    for argv, what in cases:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {what} at weight {n} exceeds ceiling {degree_ceiling()}\n"
        )


def test_sym_pairing_above_the_ceiling_is_refused_before_its_matrix(
    monkeypatch, capsys
):
    monkeypatch.delenv("HOPFTREES_MAX_DEGREE", raising=False)
    n = degree_ceiling() + 1

    def no_work(degree):
        raise AssertionError("h matrix built above the ceiling")

    monkeypatch.setattr(symfun, "_h_matrix", no_work)
    part = f"m[{n}]"
    argv = ["op", "--algebra", "sym", "--kind", "pair", "--expr", part, "--expr2", part]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: Sym pairing at weight {n} exceeds ceiling {degree_ceiling()}\n"
    )


def test_poly_coefficient_needs_poly_mode():
    with pytest.raises(ExprParseError):
        parse_expr("p*m[1]", "sym")
    assert run(["op", "--algebra", "sym", "--kind", "antipode", "--expr", "p*m[1]"]) == 2
    # the same text is fine in poly mode
    expr = parse_expr("p*m[1]", "sym", "poly")
    assert expr.value == LinComb.term(QP, Partition([1]), P)


def test_cli_pair_unavailable(capsys):
    code = run(
        [
            "op",
            "--algebra",
            "nsym",
            "--kind",
            "pair",
            "--expr",
            "E[1]",
            "--expr2",
            "E[1]",
        ]
    )
    assert code == 2


def test_round_trip_of_computed_outputs():
    # rendered results of real operations must reparse to equal values
    from hopftrees.hopf_trees import ck_ops, gl_ops, hf_ops
    from hopftrees.dse import solve_closed
    from hopftrees.trees import Forest, OrderedForest, bba_decode

    gl, ck, hf = gl_ops(QQ), ck_ops(QQ), hf_ops(QQ)
    samples = [
        ("gl", "rational", gl.antipode_lc(gl.term(CHERRY))),
        ("ck", "rational", ck.antipode_basis(Forest([CHERRY, ladder(2)]))),
        (
            "foissy",
            "rational",
            hf.antipode_basis(OrderedForest([bba_decode("<><>")])),
        ),
        ("ck", "poly", solve_closed(4).hk(4)),
        ("foissy", "poly", solve_closed(4).hf(4)),
    ]
    for algebra, scalars, value in samples:
        rendered = render_lincomb(value, algebra)
        assert parse_expr(rendered, algebra, scalars).value == value
