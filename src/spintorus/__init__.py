"""Spectral Dirac pipeline on flat 2-tori.

Closed-form and numeric Dirac spectra over the four spin structures, the
conformal eigenvalue functional and its maximization, subcritical
continuation to the critical nonlinear Dirac equation, and the spinorial
Weierstrass representation into periodic constant-mean-curvature surfaces.
"""

__version__ = "0.1.0"

from .lattice import (
    Lattice,
    SpinStructure,
    InvalidLatticeError,
    SPHERE_CONSTANT_2D,
    closed_form_spectrum,
    dual_modes,
    first_positive_eigenvalue,
    make_lattice,
    sphere_lambda_min,
)
from .fields import SpinorField, l2_inner, l2_norm, lp_norm
from .dirac import (
    EigenPair,
    apply_dirac,
    dirac_spectrum_numeric,
    project_out_kernel,
)
from .functional import (
    functional_Fq,
    grad_Fq,
    maximize_Fq,
    mu_curve,
    normalize_euler_lagrange,
)
from .solver import (
    ContinuationSchedule,
    Solution,
    constant_solution,
    residual_field,
    solve_at_exponent,
    solve_critical,
)
from .weierstrass import (
    Immersion,
    OneFormField,
    build_alpha,
    count_zeros,
    export_mesh,
    integrate_immersion,
    verify_immersion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
