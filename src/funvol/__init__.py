"""Functional intrinsic volumes of super-coercive convex functions.

Three independent evaluation routes (smooth Hessian integrand, Grassmannian
projection average, dual/conjugate form), a weight-transform calculus, and a
verification harness that cross-checks every identity at desk scale.
"""
from .errors import (
    FunvolError,
    NonConvergedError,
    NotDifferentiable,
    SchemaError,
    UnknownSingularity,
    UnsupportedVariant,
)
from .numerics import (
    QuadratureResult,
    Rng,
    flag_coefficient,
    integrate_interval,
    integrate_polar_separable,
    kappa,
)
from .weights import (
    Bump,
    LogCap,
    PolyCapped,
    Tent,
    in_had_class,
    nonnegativity_check,
    transform_R_inverse,
    transform_R_power,
    weight_from_spec,
    xi_from_zeta,
)
from .convex import (
    Ball,
    Box,
    Cone,
    Indicator,
    PolytopeV,
    Quadratic,
    RadialPower,
    SupportFn,
    body_intrinsic_volume,
    discrete_legendre,
    function_from_spec,
    project_body,
)
from .subspaces import (
    Subspace,
    check_conjugate_projection,
    project_function,
    restrict_function,
    sample_grassmann,
    sample_rotation,
)
from .valuations import (
    EvalResult,
    ValuationSpec,
    classical_ck_check,
    cone_closed_form,
    eval_cauchy_kubota,
    eval_ck_general,
    eval_domain_gradient,
    eval_dual,
    eval_dual_ck,
    eval_smooth,
    retrieval_check,
    reilly_radial_check,
)
from .verify import IdentityCase, default_manifest, run_case, run_suite

__version__ = "0.1.0"
