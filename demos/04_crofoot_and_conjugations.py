# Shifts, isometric multipliers, and conjugation symmetry.
#
# Moving the inner function by a disk automorphism moves its model space by
# an explicit multiplier.  With the right normalization the multiplier is a
# unitary map between the spaces; the criterion is that a certain symbol
# compresses to the zero operator.  Conjugations transport the same way.

import numpy as np

from mst import (
    BlaschkeProduct,
    ComplexPoly,
    ModelSpace,
    RationalFn,
    circle_conjugate,
    conjugation_matrix,
    conjugation_pullback,
    crofoot_gram_check,
    crofoot_isometry_check,
    crofoot_multiplier,
    frostman_shift,
    is_complex_selfadjoint,
    is_zero_symbol,
    multiplication_matrix,
    multiplier_between,
    tto_matrix,
)

theta = BlaschkeProduct((0.0, 0.0, 0.0))
space = ModelSpace(theta)

# --- the shift and its isometric multiplier -----------------------------------
w = 0.4
shifted = frostman_shift(theta, w)
print("shifted zeros:", np.round(shifted.zeros, 6))

j, target = crofoot_multiplier(space, w)
print("gram of the image basis is the identity:", crofoot_gram_check(space, j)[0])

# The operator criterion: 1 - |J|^2 compresses to zero exactly when the
# multiplier is isometric.  Scaling J breaks both at once.
symbol = RationalFn.one() - j * circle_conjugate(j)
print("vanishing-symbol criterion:", is_zero_symbol(space, space, symbol))
bad = 2.0 * j
print("criterion for the scaled multiplier:",
      is_zero_symbol(space, space, RationalFn.one() - bad * circle_conjugate(bad)))

# The same check drives the general small-symbol version: constant h with
# |k|^2 = 1 - |h|^2 passes, any other k fails.
h = RationalFn(ComplexPoly([0.5]))
print("general check, matched constant:",
      crofoot_isometry_check(theta, h, np.sqrt(0.75)))
print("general check, mismatched constant:",
      crofoot_isometry_check(theta, h, 1.0))

# --- conjugations and complex selfadjointness ----------------------------------
# Every compression is complex selfadjoint for the canonical conjugation of
# its space: conjugate, flip, and compare with the adjoint.
alpha = BlaschkeProduct((0.5, 1.0 / 3.0))
k_alpha = ModelSpace(alpha)
c_alpha = conjugation_matrix(k_alpha)
a = tto_matrix(k_alpha, k_alpha, RationalFn.monomial(1) + 0.3)
print("compression is complex selfadjoint:", is_complex_selfadjoint(a, c_alpha))
print("conjugation is involutive:", c_alpha.involution_defect())

# Pulling the conjugation back along the multiplier reproduces the canonical
# conjugation on the smaller space.
k_z2 = ModelSpace(BlaschkeProduct((0.0, 0.0)))
frame = multiplication_matrix(k_z2, k_alpha, multiplier_between(k_z2, k_alpha))
pulled = conjugation_pullback(c_alpha, frame)
print("pullback equals the canonical conjugation:",
      np.max(np.abs(pulled.J - conjugation_matrix(k_z2).J)))
