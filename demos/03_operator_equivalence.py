# Equivalence of compressed multiplication operators.
#
# Two operators are equivalent when invertible factors E, F give A = E B F.
# For compressions to model spaces the factors come from multipliers, and
# the transported symbol is conj(a2) * symbol * a1.  The punchline: any
# operator on a degree-n space reduces to one on the monomial space of the
# same degree, where everything is a Toeplitz matrix.

import numpy as np

from mst import (
    BlaschkeProduct,
    ComplexPoly,
    ModelSpace,
    RationalFn,
    equivalence_transform,
    kernel_and_range,
    multiplication_matrix,
    multiplier_between,
    reproducing_kernels,
    tto_matrix,
)

alpha = BlaschkeProduct((0.5, 1.0 / 3.0))
z2 = BlaschkeProduct((0.0, 0.0))
k_alpha, k_z2 = ModelSpace(alpha), ModelSpace(z2)

# --- reduce an operator with a fancy symbol to a Toeplitz matrix --------------
num = ComplexPoly.from_roots([0.5, 1.0 / 3.0]) * ComplexPoly([1.0, 0.0, 1.0])
phi = RationalFn(num, ComplexPoly.monomial(2))   # alpha-shaped symbol / z^2
res = equivalence_transform(alpha, alpha, z2, z2, phi)
mid = tto_matrix(k_z2, k_z2, res.tilde_symbol)
print("transported matrix:\n", np.round(mid.entries.real, 10))
print("identity residual:", res.residual)
print("factor condition numbers:", res.cond_E, res.cond_F)

# The transported matrix is unit lower triangular, hence invertible; by
# equivalence the original operator is invertible too.
direct = tto_matrix(k_alpha, k_alpha, phi)
print("direct operator condition number:", np.linalg.cond(direct.entries))

# --- a compression that is not itself a compression ---------------------------
# Conjugating by the multiplier (instead of using the adjoint-side factor)
# produces a rank-one operator that no symbol on the monomial space gives.
a = multiplier_between(k_z2, k_alpha)
phi_rank_one = k_alpha.rational * RationalFn.monomial(-1)
up = multiplication_matrix(k_z2, k_alpha, a)
down = multiplication_matrix(k_alpha, k_z2, a.inverse())
sandwiched = down @ tto_matrix(k_alpha, k_alpha, phi_rank_one) @ up
kernel, rank = kernel_and_range(sandwiched)
print("sandwiched operator rank:", rank)

u = a.inverse() * reproducing_kernels(k_alpha, 0.0).k_tilde
v = reproducing_kernels(k_z2, 0.0).k
outer = complex(a(0.0)) * np.outer(k_z2.coordinates(u), np.conj(k_z2.coordinates(v)))
print("matches the predicted outer product:",
      np.max(np.abs(sandwiched.entries - outer)))

# --- kernels transport through the factors ------------------------------------
shift = tto_matrix(k_z2, k_z2, RationalFn.monomial(1))
kernel, rank = kernel_and_range(shift)
print("shift on the monomial space: rank", rank,
      "kernel spans", [np.round(v, 6) for v in kernel])
