"""Seeded random instances for invariant suites and tests.

Poles keep a fixed distance from the unit circle so Fourier tails decay
geometrically and every tolerance in the suites is meaningful.
"""

from __future__ import annotations

import numpy as np

from .blaschke import BlaschkeProduct
from .rational import ComplexPoly, RationalFn

__all__ = ["random_rational", "random_blaschke", "random_laurent", "random_disk_points"]


def random_disk_points(rng, count: int, radius: float = 0.8) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * angle)


def _random_coeffs(rng, count: int) -> np.ndarray:
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


#: shape of every :func:`random_rational` draw: numerator degree, pole
#: counts on either side of the circle, and their distance from it
NUM_DEGREE, INSIDE_POLES, OUTSIDE_POLES, MARGIN = 3, 1, 1, 0.2


def random_rational(rng) -> RationalFn:
    """Random quotient with poles at distance >= ``MARGIN`` from the circle."""
    num = ComplexPoly(_random_coeffs(rng, NUM_DEGREE + 1))
    inside = random_disk_points(rng, INSIDE_POLES, radius=1.0 - MARGIN)
    outside_r = rng.uniform(1.0 + MARGIN * 1.25, 3.0, OUTSIDE_POLES)
    outside = outside_r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, OUTSIDE_POLES))
    den = ComplexPoly.from_roots(np.concatenate([inside, outside]))
    return RationalFn(num, den)


def random_blaschke(rng, degree: int = None, max_degree: int = 4) -> BlaschkeProduct:
    d = int(degree) if degree is not None else int(rng.integers(1, max_degree + 1))
    zeros = tuple(random_disk_points(rng, d, radius=0.8))
    constant = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return BlaschkeProduct(zeros, constant)


def random_laurent(rng, low: int = -2, high: int = 2) -> RationalFn:
    """Random Laurent polynomial with powers in ``[low, high]``."""
    coeffs = _random_coeffs(rng, high - low + 1)
    num = ComplexPoly(coeffs)
    if low >= 0:
        return RationalFn(num * ComplexPoly.monomial(low))
    return RationalFn(num, ComplexPoly.monomial(-low))
