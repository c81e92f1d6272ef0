# Finite Blaschke products and their model spaces.
#
# A finite Blaschke product is a multiset of zeros in the disk plus a
# unimodular constant.  Its model space has one orthonormal basis function
# per zero, every element is an explicit rational function, and the
# reproducing kernels come in closed form.

import numpy as np

from mst import (
    BlaschkeProduct,
    ModelSpace,
    RationalFn,
    monomial_factorization,
    multiplier_between,
    reproducing_kernels,
    unimodularity_defect,
    unit_circle_samples,
)

alpha = BlaschkeProduct((0.5, 1.0 / 3.0))
zs = unit_circle_samples(32)
print("degree:", alpha.degree)
print("unimodular on the circle:", unimodularity_defect(alpha))

# --- the product factors through a monomial ---------------------------------
# minus * z^n * plus with minus invertible conjugate-analytic and plus
# invertible analytic; this is the engine behind every equivalence below.
print("factorization reconstructs the product:",
      monomial_factorization(alpha).reconstruction_defect(alpha))

# --- the model space and its basis -------------------------------------------
space = ModelSpace(alpha)
print("space dimension:", space.dim)
gram = space.gram()
print("gram matrix is the identity:", np.linalg.norm(gram - np.eye(space.dim)))

# --- reproducing kernels ------------------------------------------------------
lam = 0.2 - 0.1j
pair = reproducing_kernels(space, lam)
for k, e in enumerate(space.basis):
    print(f"<e_{k}, k_lam> - e_{k}(lam) =", pair.reproducing_defect(e))

# --- projections --------------------------------------------------------------
f = RationalFn.monomial(3) + RationalFn.monomial(-1)
pf = space.project(f)
print("projection is idempotent:",
      np.max(np.abs(space.project(pf)(zs) - pf(zs))))
print("complement projection recovers the rest:",
      np.max(np.abs((space.complement_project(f) + pf)(zs) - f(zs))))

# --- multipliers between equal-degree spaces ----------------------------------
# The canonical multiplier is a ratio of the outer denominators; it is
# invertible analytic both ways and carries one space onto the other.
monomials = ModelSpace(BlaschkeProduct((0.0, 0.0)))
a = multiplier_between(monomials, space)
print("multiplier numerator/denominator:", a.num.coeffs, a.den.coeffs)
for e in monomials.basis:
    print("  image stays in the target space:", space.membership_residual(a * e))
