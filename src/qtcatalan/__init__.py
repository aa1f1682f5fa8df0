"""Generalized q,t-Catalan polynomials of k-Dyck paths.

Exact statistics and polynomials for length-3 vectors and for k^4,
statistic-exchanging involutions, and a truncated partition-analysis
engine for verifying the generating-function identities against
brute-force enumeration.
"""

from .polynomial import SparsePoly, VarTable
from .dyck import (KVec3, Path3, Path4, ceil_div, enumerate_paths3,
                   enumerate_paths4)
from .catalan import (F_REGIONS, H_REGIONS, catalan_poly3,
                      catalan_poly_k4, catalan_poly_lambda3, gf_series3,
                      gf_series4, refined_poly3, refined_poly4)
from .involution import (CASE_EXCHANGE, InvolutionReport, classify,
                         involution_map, lemma4_check, parity_x, parity_y,
                         phi, psi, verify_involution)
from .omega import (EliminationSpec, FactoredOmegaExpr, SeriesDiff, WeightVector,
                    build_crude_F, build_crude_H, closed_form,
                    expand_truncated, series_equal, truncate_weighted,
                    CLOSED_FORM_IDS)

__version__ = "0.1.0"
