import importlib
import sys

import pytest

from hopftrees.cli import run
from hopftrees.freemodule import HopfOps

# Each builder of a suite report, by the module that defines it; the
# benchmark's tracer (perfbench/tracer.py) probes each one.
BUILDERS = (
    ("freemodule", "check_axioms"),
    ("freemodule", "duality_check"),
    ("morphisms", "diagram_check"),
    ("special", "proposition_check"),
    ("special", "growth_formulas_check"),
    ("special", "lemma_check"),
    ("dse", "solve_recursive"),
    ("dse", "solve_closed"),
    ("dse", "coproduct_theorem_check"),
)


def _recording(fn, seen: list):
    def wrapper(*args, **kwargs):
        seen.append(args[0] if args else None)
        return fn(*args, **kwargs)

    return wrapper


@pytest.fixture
def builder_calls(monkeypatch) -> dict:
    """Rebind every builder in each hopftrees module that holds it, as
    Tracer.install does, and record the first argument of each call."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hopftrees"]
    calls = {}
    for module, attr in BUILDERS:
        original = getattr(importlib.import_module(f"hopftrees.{module}"), attr)
        wrapper = _recording(original, calls.setdefault(attr, []))
        for target in modules:
            for key, value in list(vars(target).items()):
                if value is original:
                    monkeypatch.setattr(target, key, wrapper)
    return calls


def test_a_tracer_reaches_every_suite_builder(builder_calls, capsys):
    # a suite that kept a builder as a function object would run the
    # original, and the tracer's probe of it would read 0
    assert run(["check", "--suite", "axioms", "--max-degree", "2"]) == 0
    algebras = builder_calls["check_axioms"]
    assert all(isinstance(h, HopfOps) for h in algebras)
    names = [h.name for h in algebras]
    assert names == ["kT", "H_K", "kP", "Sym", "QSym", "NSym", "H_F"]
    assert run(["check", "--suite", "duality", "--max-degree", "2"]) == 0
    assert [h.name for h in builder_calls["duality_check"]] == ["H_K", "H_F"]
    assert run(["check", "--suite", "diagrams", "--max-degree", "2"]) == 0
    assert builder_calls["diagram_check"] == ["d1", "d2"]
    assert run(["check", "--suite", "special"]) == 0
    assert builder_calls["proposition_check"] == [5]
    assert builder_calls["growth_formulas_check"] == [5]
    assert builder_calls["lemma_check"] == [6]  # the lemma counts vertices, n + 1
    assert run(["dse", "--max-degree", "3", "--check-coproduct"]) == 0
    assert builder_calls["solve_recursive"] == builder_calls["solve_closed"] == [3]
    assert builder_calls["coproduct_theorem_check"] == [3]
    capsys.readouterr()
