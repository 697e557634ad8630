"""Anisotropic quasilinear elliptic equations: solver and estimate checker.

The library treats equations of the form

    -div( B'(H(grad u)) grad H(grad u) ) = f(u)

for a Finsler norm H and a scalar profile B, with a P1 finite element
energy minimizer on planar domains, a radial shooting reduction in the
dual-norm distance, and numerical checkers for structural bounds,
comparison and boundary-slope (Hopf) statements, weighted Hessian and
inverse-weight integrals, critical-set size, and Sobolev-exponent
integrability.
"""

from .errors import (AdmissibilityError, ConfigError, FitError, NonconvergenceError,
                     NumericError)
from .fields import (ScalarField, boundary_normal_derivative, nodal_gradient,
                     recover_gradient, recover_hessian)
from .finsler import (FinslerNorm, ellipticity_constant, ellipticity_verdict,
                      verify_duality_identities, wulff_boundary)
from .material import (MaterialProfile, SourceTerm, admissibility_report,
                       check_flux_bound, check_flux_monotonicity, check_osserman,
                       check_structural_bounds, flux, linearized_tensor,
                       sample_vectors)
from .mesh import DomainSpec, Mesh2D, build_domain
from .radial import RadialProblem, evaluate, hopf_margin, integrate, lift, shoot
from .solver import SolveOptions, solve
from .verify import (critical_set_fraction, hopf_check, refinement_study, sobolev_scan,
                     weight_integral, weighted_hessian_integral)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ConfigError", "DomainSpec", "FinslerNorm", "FitError",
    "MaterialProfile", "Mesh2D", "NonconvergenceError", "NumericError", "RadialProblem",
    "ScalarField", "SolveOptions", "SourceTerm", "admissibility_report",
    "boundary_normal_derivative", "build_domain", "check_flux_bound",
    "check_flux_monotonicity", "check_osserman", "check_structural_bounds",
    "critical_set_fraction", "ellipticity_constant", "ellipticity_verdict", "evaluate", "flux",
    "hopf_check", "hopf_margin", "integrate", "lift", "linearized_tensor", "nodal_gradient",
    "recover_gradient", "recover_hessian", "refinement_study",
    "sample_vectors", "shoot", "sobolev_scan", "solve",
    "verify_duality_identities", "weight_integral", "weighted_hessian_integral",
    "wulff_boundary",
]
