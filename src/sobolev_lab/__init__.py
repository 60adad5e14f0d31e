"""Numerical laboratory for sharp Sobolev inequalities on model manifolds."""

import os

# Honor the thread cap before BLAS is initialized by the numpy import.
_threads = os.environ.get("SOBOLEV_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .geometry import ManifoldModel, ModelKind, make_product, make_sphere, unit_sphere_volume
from .discretization import (
    DiscreteFunction,
    Discretization,
    SpectralData,
    build,
    gradient_norm_sq,
    inner,
    laplace_eigenpairs,
    lp_norm,
)
from .functionals import (
    QuotientSpec,
    deficit,
    gradient,
    hessian_form,
    hessian_matrix,
    normalize,
    project_tangent,
    quotient,
    sobolev_conjugate,
)
from .constants import (
    ConstantsReport,
    a_opt_default,
    a_opt_product_critical,
    a_opt_sphere_closed_form,
    a_opt_spectral_gap,
    b_lower_bound,
    beta_constant,
    check_strict_binding,
    constants_report,
    estimate_b_opt,
    euclidean_sobolev_constant,
)
from .optimize import (
    CriticalPoint,
    ReducedFunctionalSample,
    certify,
    hessian_spectrum_at,
    kernel_basis_at,
    minimize,
    multistart_minimize,
    reduced_functional,
)
from .stability import (
    ExperimentReport,
    Ray,
    bubble,
    classify,
    distance_to_extremals,
    lojasiewicz_estimate,
    ray_from_constants,
    ray_scan,
)

__version__ = "0.1.0"
