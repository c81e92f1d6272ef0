# Compressions to the complement of a model space.
#
# The complement is infinite dimensional, so its elements are explicit
# rational functions stored as their analytic and anti-analytic halves; the
# constructor takes the halves as given, so these members are written down
# by hand.  For
# the distinguished symbol alpha(z) * (z - 1) the kernel of the complement
# compression is computable in closed form; DualKernel.membership_defect
# measures how far the returned elements are from meeting the kernel
# conditions.

from mst import (
    BlaschkeProduct,
    ComplementElement,
    ComplexPoly,
    ModelSpace,
    RationalFn,
    dual_apply,
    dual_equivalence,
    dual_kernel,
    hankel_rank,
)

z2 = BlaschkeProduct((0.0, 0.0))
k_z2 = ModelSpace(z2)

# --- complement elements and the compression -----------------------------------
f = ComplementElement(z2, RationalFn.zero(), RationalFn.monomial(-1))
out = dual_apply(k_z2, RationalFn.one(), f)
print("identity symbol acts as the identity:",
      out.antianalytic.num.coeffs, "/", out.antianalytic.den.coeffs)

# The symbol z^2 (z - 1) sends conj(z^2) into the model space, so the
# compression annihilates it.
phi = RationalFn.monomial(2) * RationalFn(ComplexPoly([-1.0, 1.0]))
killed = dual_apply(k_z2, phi, ComplementElement(z2, RationalFn.zero(), RationalFn.monomial(-2)))
print("kernel element maps to zero:", killed.analytic.is_zero and killed.antianalytic.is_zero)

# --- the kernel dimension table -------------------------------------------------
print("\nkernel dimensions for monomial spaces against assorted inner functions:")
alphas = {
    "1": BlaschkeProduct(()),
    "z": BlaschkeProduct((0.0,)),
    "z^2": z2,
    "deg-1": BlaschkeProduct((0.3,)),
    "deg-2": BlaschkeProduct((0.5, 1.0 / 3.0)),
}
worst = 0.0
for n in range(1, 6):
    theta = BlaschkeProduct((0.0,) * n)
    row = []
    for name, alpha in alphas.items():
        res = dual_kernel(theta, alpha)
        worst = max(worst, res.membership_defect())
        row.append(f"{name}:{res.dim}")
    print(f"  degree {n}: " + "  ".join(row))
print("worst kernel membership defect:", worst)

res = dual_kernel(z2, z2)
print("\nthe degree-two kernel is spanned by conj(z^2):",
      res.basis[0].antianalytic.num.coeffs, "/", res.basis[0].antianalytic.den.coeffs)

# --- transport between complements ----------------------------------------------
alpha = BlaschkeProduct((0.5, 1.0 / 3.0))
residual = dual_equivalence(alpha, z2, z2, z2, RationalFn.monomial(1))
print("dual transport residual across spaces:", residual)

# --- finite-rank sections ---------------------------------------------------------
# The negative-frequency Hankel section has rank equal to the number of
# poles inside the disk, once the section is large enough.
symbol = RationalFn(ComplexPoly([1.0]), ComplexPoly.from_roots([0.5, 1.0 / 3.0]))
print("hankel ranks as the section grows:",
      [hankel_rank(symbol, m) for m in range(1, 6)])
