"""Self-test of the benchmark: the correctness gate and the self-time rule.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hopftrees import hopf_trees  # noqa: E402
from run import WORKLOADS, gate, parse_laws  # noqa: E402
from tracer import self_times  # noqa: E402
from worker import run_command  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.fixture(scope="module")
def dse_result():
    return run_command(list(WORKLOADS["dse_solve"]))


def test_pinned_case_totals():
    totals = {name: sum(law[2] for law in e["laws"]) for name, e in EXPECTED.items()}
    assert totals == {"check_axioms": 13562, "check_special": 668, "dse_solve": 26}


def test_correct_pass_passes_the_gate(dse_result):
    assert gate(EXPECTED["dse_solve"], dse_result) == []


def test_checking_fewer_cases_fails_the_gate(dse_result):
    text = dse_result["stdout"].replace("[10 cases]", "[9 cases]")
    fewer = dict(dse_result, stdout=text)
    assert parse_laws(fewer["stdout"]) != parse_laws(dse_result["stdout"])
    assert "law case counts differ from the pinned counts" in gate(
        EXPECTED["dse_solve"], fewer
    )


def test_changed_dse_output_fails_the_gate(dse_result):
    changed = dict(dse_result, sha256="0" * 64)
    assert gate(EXPECTED["dse_solve"], changed) == [
        "output digest differs from the pinned digest"
    ]


def test_corrupted_structure_map_fails_the_gate(monkeypatch):
    original = hopf_trees.kp_coproduct

    def corrupted(t, ring=hopf_trees.QQ):
        out = original(t, ring)
        if len(t.children) == 2:
            pair = min(out.terms, key=lambda p: (p[0].sort_key, p[1].sort_key))
            out.terms[pair] = out.terms[pair] + 1
        return out

    monkeypatch.setattr(hopf_trees, "kp_coproduct", corrupted)
    try:
        result = run_command(list(WORKLOADS["check_axioms"]))
    finally:
        hopf_trees.kp_ops.cache_clear()  # drop antipodes cached from the bad map
    problems = gate(EXPECTED["check_axioms"], result)
    assert result["exit_code"] == 1
    assert any(p.startswith("failing laws") for p in problems)


def test_self_time_is_duration_minus_child_coverage():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]), two overlapping
    # children d [5, 7] and e [6, 8], and f [9, 12] which overruns it.
    names = ["a", "b", "c", "d", "e", "f"]
    parents = [-1, 0, 1, 0, 0, 0]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 9.0]
    ends = [10.0, 4.0, 3.0, 7.0, 8.0, 12.0]
    got = self_times(names, parents, starts, ends)
    # a's children cover [1, 4], [5, 8] and [9, 10]: 7 of its 10 seconds
    assert got == {"a": 3.0, "b": 2.0, "c": 1.0, "d": 2.0, "e": 2.0, "f": 3.0}
    # repeated names add up
    assert self_times(["x", "x"], [-1, -1], [0.0, 5.0], [1.0, 7.0]) == {"x": 3.0}
