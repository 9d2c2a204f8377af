"""Exact-arithmetic GKN boundary-condition engine for powers of the Legendre operator."""

__version__ = "0.1.0"

from .brackets import bracket, bracket_decomposed
from .classical import (
    ClassicalFunction,
    Poly,
    QRepresentation,
    inner_pq,
    inner_qq,
    legendre_p,
    legendre_q,
    q_norm_squared,
)
from .exactnum import (
    PiPair,
    eigenvalue,
    harmonic,
    harmonic2,
    laguerre_ld_coefficient,
    legendre_stirling,
    rational_str,
)
from .matrices import (
    BracketMatrix,
    IndexSelection,
    b_block,
    build_matrix,
    c_block,
    canonical_selection,
    det_exact,
    is_li_mod_dmin,
    parity_census,
    rank_exact,
)
from .oracle import (
    DivergentLimit,
    LogRat,
    apply_ell_n,
    bracket_via_oracle,
    classical_to_lograt,
    endpoint_limit,
    fn_condition_check,
    sesquilinear_at,
)
from .sweep import RunConfig, SweepRecord, run_sweep

__all__ = [
    "__version__",
    "PiPair",
    "harmonic",
    "harmonic2",
    "eigenvalue",
    "legendre_stirling",
    "laguerre_ld_coefficient",
    "rational_str",
    "Poly",
    "ClassicalFunction",
    "QRepresentation",
    "legendre_p",
    "legendre_q",
    "inner_pq",
    "inner_qq",
    "q_norm_squared",
    "bracket",
    "bracket_decomposed",
    "IndexSelection",
    "BracketMatrix",
    "canonical_selection",
    "build_matrix",
    "b_block",
    "c_block",
    "rank_exact",
    "det_exact",
    "is_li_mod_dmin",
    "parity_census",
    "LogRat",
    "DivergentLimit",
    "apply_ell_n",
    "sesquilinear_at",
    "endpoint_limit",
    "bracket_via_oracle",
    "fn_condition_check",
    "classical_to_lograt",
    "RunConfig",
    "SweepRecord",
    "run_sweep",
]
