"""Exact Hopf-algebra computations on trees, compositions, and partitions.

Seven graded connected Hopf algebras over the rationals, the family of
homomorphisms connecting them, the bilinear pairings realizing their
dualities, and a verification driver that machine-checks the structural
identities to a configurable degree.
"""

from .foundations import LinComb, compositions_of, partitions_of
from .trees import (
    EMPTY_FOREST,
    EMPTY_ORDERED_FOREST,
    LEAF,
    PLANAR_LEAF,
    Forest,
    OrderedForest,
    PlanarTree,
    RootedTree,
    b_minus,
    b_plus,
    enumerate_planar,
    enumerate_rooted,
    forget_order,
    ladder,
    planar_fiber,
    planar_ladder,
    rooted_from_string,
    planar_from_string,
    sym_order,
)
from .hopf import HopfAlgebra
from .hopf_rooted import HK, KT, corolla, epsilon, kappa
from .hopf_planar import HF, KP
from .symfun import (
    NSYM,
    QSYM,
    SYM,
    alpha_minus,
    alpha_minus_dual,
    alpha_plus,
    alpha_plus_dual,
    collect_sym,
    e,
    expand_truncated,
    h,
    include_sym,
    m_to_e,
    p,
)
from .morphisms import (
    MAP_TABLE,
    Phi,
    Phi_star,
    Z,
    Z_star,
    kbar,
    phi,
    phi_star,
    rho,
    rho_star,
    tau,
)
from .pairings import (
    CriterionReport,
    check_duality_criterion,
    ip_ck,
    ip_hf,
    ip_kp,
    ip_kt,
    ip_ns,
    ip_qs,
    ip_sym,
    pair_kp_hf,
    pair_kt_ck,
    pair_ns_qs,
)
from .verify import SUITE_NAMES, SuiteBoundError, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "LinComb", "compositions_of", "partitions_of",
    "RootedTree", "PlanarTree", "Forest", "OrderedForest",
    "LEAF", "PLANAR_LEAF", "EMPTY_FOREST", "EMPTY_ORDERED_FOREST",
    "b_plus", "b_minus", "forget_order", "planar_fiber", "sym_order",
    "ladder", "planar_ladder", "enumerate_rooted", "enumerate_planar",
    "rooted_from_string", "planar_from_string",
    "HopfAlgebra", "KT", "HK", "KP", "HF", "SYM", "QSYM", "NSYM",
    "kappa", "epsilon", "corolla",
    "e", "h", "p", "m_to_e", "include_sym", "collect_sym",
    "alpha_plus", "alpha_minus", "alpha_plus_dual", "alpha_minus_dual",
    "expand_truncated",
    "tau", "phi", "phi_star", "Phi", "Phi_star", "rho", "rho_star",
    "Z", "Z_star", "kbar", "MAP_TABLE",
    "ip_kt", "ip_ck", "ip_kp", "ip_hf", "ip_sym", "ip_qs", "ip_ns",
    "pair_kt_ck", "pair_ns_qs", "pair_kp_hf",
    "check_duality_criterion", "CriterionReport",
    "run_suite", "run_all", "SUITE_NAMES", "SuiteBoundError",
]
