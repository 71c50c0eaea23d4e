"""Dirichlet divisor error term, Diophantine approximation machinery, and
divisor-correlation experiments."""

__version__ = "0.1.0"

import os

# One BLAS thread: the Gauss kernel's gemvs, one per block of 4096 pieces,
# are too small to gain from more, and OpenBLAS threads spin on the other
# cores.  This must run before numpy is first imported; values the user has
# set still win.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .correlation import (CorrelationResult, ExponentFit, compare_spectral,
                          correlate_exact, correlate_grid, fit_exponent,
                          normalized_ratio)
from .diophantine import (ApproximationEvent, ContinuedFraction, Convergent,
                          approximability_scan, cf_expand, cf_expand_surd,
                          construct_jarnik, construct_tau_beta, convergents,
                          convergent_invariants, irrationality_base_estimate,
                          legendre_hits, legendre_is_convergent,
                          nearest_distance, theta_parse)
from .divisor import DivisorTable, delta, mean_square, sieve_tau, summatory_D
from .errors import (ConstructionInfeasible, PrecisionExhausted, PsiParseError,
                     ResourceLimit, ThetaParseError)
from .exactsum import exact_sum
from .realfield import PsiFunction, gamma_const, psi_parse
from .voronoi import (SpectralParams, SpectralReport, a_mn, lambda_kernel,
                      osc_integral, q_n, spectral_j)
