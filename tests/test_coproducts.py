"""The seven coproducts against a golden render and against the hand-written
loops they replaced.

Each coproduct is one of three shapes: deconcatenation (kP, QSym), multiset
split (kT, Sym) or multiplicative extension of a generator coproduct (H_K,
H_F, NSym).  The oracles are the per-algebra loops, kept in
tests/oracles.py as a second route.
"""

from pathlib import Path

import pytest

from hopftrees.freemodule import TensorElem, check_axioms
from hopftrees.hopf_trees import ck_ops, gl_coproduct, gl_ops, hf_ops, kp_ops
from hopftrees.scalar import QP, QQ, ZZ
from hopftrees.symfun import (
    Composition,
    compositions_of,
    nsym_coproduct,
    nsym_ops,
    partitions_of,
    qsym_ops,
    sym_coproduct,
    sym_ops,
)
from hopftrees.trees import enumerate_rooted

from oracles import gl_coproduct_masks, nsym_coproduct_letters, sym_coproduct_splits

GOLDEN = Path(__file__).parent / "golden" / "coproducts_d4.txt"
FACTORIES = (gl_ops, ck_ops, kp_ops, hf_ops, sym_ops, qsym_ops, nsym_ops)


def render_coproducts(max_degree: int) -> str:
    """Every basis coproduct of the seven algebras over ZZ, one line each."""
    lines = []
    for factory in FACTORIES:
        ops = factory(ZZ)
        for n in range(max_degree + 1):
            for b in ops.basis(n):
                lines.append(f"{ops.name} {b!r}: {ops.coproduct(b).render()}")
    return "\n".join(lines) + "\n"


def test_coproducts_golden():
    assert render_coproducts(4) == GOLDEN.read_text()


@pytest.mark.parametrize("ring", [ZZ, QQ, QP], ids=lambda r: r.name)
def test_gl_coproduct_matches_mask_loop(ring):
    for n in range(1, 10):  # degree n - 1
        for t in enumerate_rooted(n):
            assert gl_coproduct(t, ring) == gl_coproduct_masks(t, ring), t


@pytest.mark.parametrize("ring", [ZZ, QQ, QP], ids=lambda r: r.name)
def test_sym_coproduct_matches_multiset_splits(ring):
    for n in range(11):
        for lam in partitions_of(n):
            assert sym_coproduct(lam, ring) == sym_coproduct_splits(lam, ring), lam


@pytest.mark.parametrize("ring", [ZZ, QQ, QP], ids=lambda r: r.name)
def test_nsym_coproduct_matches_letter_loop(ring):
    for n in range(9):
        for w in compositions_of(n):
            assert nsym_coproduct(w, ring) == nsym_coproduct_letters(w, ring), w


def test_dropped_right_unit_term_is_named(monkeypatch):
    """Drop 1 (x) b from the QSym coproduct of M[2, 1]: the connected-form
    law fails there, and its witness names the missing term; the
    coassociativity witness names the triple that 1 (x) Delta(b) no longer
    gives."""
    ops = qsym_ops(ZZ)
    exact = ops.coproduct
    target = Composition((2, 1))

    def faulty(b):
        cop = exact(b)
        if b is not target:
            return cop
        kept = [(k, c) for k, c in cop.terms.items() if k != (ops.unit, b)]
        return TensorElem(ops.ring, kept)

    monkeypatch.setattr(ops, "coproduct", faulty)
    rep = check_axioms(ops, 3)
    entry = next(e for e in rep.entries if e.law == "coproduct connected form")
    assert not entry.ok
    assert entry.witness == (
        "Composition(2, 1); lhs - rhs = -1*Composition()(x)Composition(2, 1)"
    )
    entry = next(e for e in rep.entries if e.law == "coproduct coassociativity")
    assert not entry.ok
    assert entry.witness == (
        "Composition(2, 1); lhs - rhs = "
        "1*Composition()(x)Composition(2,)(x)Composition(1,)"
    )
