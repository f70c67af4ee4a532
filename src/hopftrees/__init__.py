"""Exact computer algebra for tree Hopf algebras and (quasi)symmetric functions.

The package implements the grafting algebra of rooted trees and its dual
Connes-Kreimer algebra, their planar analogues, the Hopf algebras of
symmetric, quasi-symmetric and noncommutative symmetric functions, the
morphisms connecting all of them, and explicit solutions of the
combinatorial Dyson-Schwinger equation X = 1 + B_+(X^p) — all over exact
integer, rational or rational-polynomial scalars, with machine-checkable
verification suites for every structural identity.
"""

from .scalar import QQ, QP, ZZ, Poly, Rational, binom_of, binom_poly, poly_eval
from .trees import (
    BBAParseError,
    Forest,
    OrderedForest,
    PlanarTree,
    ResourceLimitError,
    RootedTree,
    bba_decode,
    canonicalize,
    embedding_count,
    enumerate_planar,
    enumerate_rooted,
    ladder,
    planar_ladder,
    sym_order,
    t_lambda,
    T_comp,
    to_planar,
)
from .freemodule import (
    HopfOps,
    LinComb,
    Report,
    TensorElem,
    accumulate,
    check_axioms,
    check_cocommutativity,
    duality_check,
    generic_antipode,
    pairing_extend,
    tensor_pairing,
)
from .hopf_trees import (
    Cut,
    bminus,
    bplus,
    ck_antipode,
    ck_coproduct,
    ck_ops,
    cut_counts,
    cuts_of,
    gl_coproduct,
    gl_ops,
    gl_product,
    hf_antipode,
    hf_coproduct,
    hf_ops,
    kp_coproduct,
    kp_ops,
    kp_product,
    pairing_hf,
    pairing_hk,
    pairing_kp_hf,
    pairing_kt_hk,
)
from .symfun import (
    Composition,
    Partition,
    basis_expand,
    eh_identity_check,
    nsym_ops,
    qsym_antipode,
    qsym_coproduct,
    qsym_ops,
    qsym_product,
    sym_coproduct,
    sym_ops,
    sym_pairing,
    tau,
    tau_star,
)
from .morphisms import (
    Phi,
    Phi_star,
    diagram_check,
    phi,
    phi_star,
    rho,
    rho_star,
)
from .special import (
    epsilon,
    growth_formulas_check,
    kappa,
    lemma_check,
    m_count,
    n_count,
    natural_growth,
    proposition_check,
)
from .dse import (
    DSESolution,
    coproduct_coefficient,
    coproduct_theorem_check,
    cp_coefficient,
    solve_closed,
    solve_recursive,
)

__version__ = "0.1.0"
