# Closed-form inverses through a triangular matrix factorization.
#
# On the degree-n monomial space, the inverse of a compressed multiplication
# with a Laurent-polynomial symbol comes from factoring the 2x2 triangular
# matrix symbol into analytic and anti-analytic invertible parts: the
# factorization exists exactly when the operator is invertible, and its
# entries feed a projection formula for the inverse.

import numpy as np

from mst import (
    ComplexPoly,
    NoCanonicalFactorization,
    RationalFn,
    invert_direct,
    tto_inverse_via_wh,
    wiener_hopf_factorize,
)

phi = RationalFn.one() + (5.0 / 6.0) * RationalFn.monomial(1)
n = 2

# --- the factorization ------------------------------------------------------------
fact = wiener_hopf_factorize(n, phi)
print("degree bound used:", fact.degree_bound)
print("analytic-factor inverse entries (ascending coefficients):")
for i in range(2):
    for j in range(2):
        print(f"  [{i}][{j}]", np.round(fact.g_plus_inv[i][j].coeffs, 10))
print("determinant (a nonzero constant):", fact.det)

# --- the inverse formula ------------------------------------------------------------
# Apply to both basis monomials and compare with the dense inverse.
direct = invert_direct(n, phi)
print("direct inverse:\n", np.round(direct.entries.real, 10))
for j, defect in enumerate(fact.inverse_column_defects(direct)):
    print(f"formula column {j} matches:", defect)

# --- the dichotomy -------------------------------------------------------------------
# A symbol whose compression is singular admits no canonical factorization.
try:
    wiener_hopf_factorize(2, RationalFn.monomial(1))
except NoCanonicalFactorization as exc:
    print("shift symbol correctly rejected:", exc)

# --- a worked scalar case -------------------------------------------------------------
c = 2.0 - 1.0j
fact1 = wiener_hopf_factorize(1, RationalFn(ComplexPoly([c])))
print("scalar case inverse of the constant symbol:",
      tto_inverse_via_wh(1, RationalFn(ComplexPoly([c])), RationalFn.one(), fact1).num.coeffs,
      "(expected", 1.0 / c, ")")
