"""Exact integer calculus for the rank-one energy-momentum field algebra,
its partition-class categorification, and its Weyl-algebra finitizations.

Everything is computed over the integers with no floating point anywhere;
every structural identity the engine relies on is re-checkable through
the verification suites in virmagri.verify and the bundled CLI.
"""

from .brackets import (
    BiLambdaPoly,
    LambdaPoly,
    binom_int,
    bracket_master,
    bracket_recursive,
    gen_bracket,
    hamiltonian,
    hamiltonian_defect,
    hamiltonian_defects,
    hbar_bracket,
    jacobi_defect,
    nth_product,
    skew_defect,
)
from .diffpoly import AlgebraCtx, DiffPoly, conformal_weight, mono, mono_degree, mono_mul
from .errors import DomainError, ParseError
from .k0sigma import (
    K0SigmaElem,
    ind,
    lambda_bracket_k0,
    nabla,
    p_i_ind,
    phi_sigma,
    phi_sigma_inv,
    pj_ind,
    res,
)
from .nilcoxeter import (
    G0NElem,
    IndResExpr,
    K0NElem,
    WeylElem,
    XPoly,
    ind_g0n,
    ind_k0n,
    phi_n,
    phi_n_inv,
    psi1,
    psi2,
    res_g0n,
    res_k0n,
)
from .partitions import Partition, partitions_of, partitions_upto, standard_tableaux_count
from .report import CheckRecord, CheckReport
from .zhu import q_map, zhu_h, zhu_poisson_bracket

__version__ = "0.1.0"
