"""Numerical toolkit for model spaces and truncated Toeplitz operators.

The package builds finite-dimensional model spaces from finite Blaschke
products, assembles compressed-multiplication matrices from rational
symbols, constructs the multipliers and invertible factors that transport
operators between spaces, and verifies every identity numerically:
equivalence and unitary equivalence, complex selfadjointness, kernel
formulas on model-space complements, and triangular Wiener-Hopf inverses.

All values are immutable after construction and every operation is a pure
function, so the library is safe to call concurrently.
"""

from .blaschke import (
    BlaschkeProduct,
    MonomialFactorization,
    blaschke_gcd,
    blaschke_quotient,
    frostman_shift,
    generalized_frostman_shift,
    monomial_factorization,
    to_rational,
)
from .dual import (
    ComplementElement,
    DualKernel,
    FormulaMismatch,
    dual_apply,
    dual_equivalence,
    dual_kernel,
    hankel_rank,
)
from .modelspace import (
    KernelPair,
    ModelSpace,
    NoMultiplierError,
    build_space,
    crofoot_gram_check,
    crofoot_isometry_check,
    crofoot_multiplier,
    multiplier_between,
    reproducing_kernels,
)
from .operators import (
    BrownHalmosCheck,
    ConjugationMatrix,
    EquivalenceTransform,
    MultiplierRangeViolation,
    NotEquivalentError,
    OperatorMatrix,
    brown_halmos_product,
    conjugation_matrix,
    conjugation_pullback,
    equivalence_transform,
    is_complex_selfadjoint,
    is_zero_symbol,
    kernel_and_range,
    multiplication_matrix,
    pullback_compatibility_defect,
    rank_equivalence,
    selfadjoint_residual,
    subspace_angle,
    tto_matrix,
)
from .rational import (
    CirclePoleError,
    ComplexPoly,
    FourierSplit,
    PoleSplitError,
    RationalFn,
    circle_conjugate,
    equality_residual,
    fourier_block,
    fourier_coefficient,
    inner_product,
    norm2,
    riesz_project,
    sup_on_circle,
    unit_circle_samples,
)
from .verify import SUITE_NAMES, run_all, run_suite
from .wienerhopf import (
    DegreeCapExceeded,
    MatrixFactorization,
    NoCanonicalFactorization,
    SingularOperator,
    invert_direct,
    tto_inverse_via_wh,
    wiener_hopf_factorize,
)

__version__ = "0.1.0"
