"""Independent oracle for the benchmark: trapezoidal quadrature on the circle.

Everything here uses numpy only.  It shares no code with ``mst``: bases,
inner functions and symbols are evaluated pointwise from the zeros and
coefficients the benchmark generated, and every pairing is the mean of
samples on ``m`` equispaced nodes.  For a function analytic in the annulus
``1/rho < |z| < rho`` that mean converges like ``rho**-m`` (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review 2014),
so ``m`` is chosen from the measured pole margins.
"""

from __future__ import annotations

import numpy as np

# ln of the convergence factor the node count buys: rho**-m <= exp(-60)
# before rounding m up to a power of two, which leaves room for the
# constant in the error bound (high-order poles, large degree).
_DECAY = 60.0
_MIN_NODES = 64
MAX_NODES = 1 << 16


def nodes(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def analyticity_radius(points) -> float:
    """``rho`` of the widest annulus around the circle free of ``points``.

    A zero ``a`` of an inner function contributes poles at ``a`` (through
    conjugated basis elements) and ``1/conj(a)``; both give ``1/|a|``.
    Points at the origin or at infinity constrain nothing, because the
    trapezoidal rule is exact for the finitely many powers they add.
    """
    r = np.abs(np.asarray(list(points), dtype=complex))
    r = r[(r > 0.0) & np.isfinite(r)]
    if r.size == 0:
        return np.inf
    with np.errstate(divide="ignore"):
        return float(np.min(np.maximum(r, 1.0 / r)))


def node_count(points) -> int:
    """Power-of-two node count for integrands with poles at ``points``."""
    rho = analyticity_radius(points)
    if rho <= 1.0:
        raise ValueError("a pole lies on the unit circle")
    m = _MIN_NODES if not np.isfinite(rho) else int(np.ceil(_DECAY / np.log(rho)))
    m = 1 << max(_MIN_NODES.bit_length() - 1, (m - 1).bit_length())
    if m > MAX_NODES:
        raise ValueError(f"pole margin too small for {MAX_NODES} nodes (rho = {rho})")
    return m


def blaschke(zeros, z, constant=1.0) -> np.ndarray:
    out = np.full(z.shape, complex(constant))
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def tm_basis(zeros, z) -> np.ndarray:
    """Takenaka-Malmquist basis sampled at ``z``, one row per zero.

    ``e_k = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} (z - a_j) /
    (1 - conj(a_j) z)``: orthonormal in ``L^2`` of the circle, spanning the
    model space of the Blaschke product with these zeros, in this order.
    """
    out = np.empty((len(zeros), z.size), dtype=complex)
    tail = np.ones(z.shape, dtype=complex)
    for k, a in enumerate(zeros):
        c = 1.0 - np.conj(a) * z
        out[k] = np.sqrt(1.0 - abs(a) ** 2) * tail / c
        tail = tail * (z - a) / c
    return out


def polyval(coeffs, z) -> np.ndarray:
    """Ascending-coefficient polynomial by Horner's rule (empty = zero)."""
    out = np.zeros(z.shape, dtype=complex)
    for c in reversed(list(coeffs)):
        out = out * z + c
    return out


def ratval(num, den, z) -> np.ndarray:
    return polyval(num, z) / polyval(den, z)


def multiplier(source_zeros, target_zeros, z) -> np.ndarray:
    """Canonical multiplier ``prod(1 - conj(s) z) / prod(1 - conj(t) z)``
    from the source model space onto the target one (value 1 at 0)."""
    out = np.ones(z.shape, dtype=complex)
    for s in source_zeros:
        out = out * (1.0 - np.conj(s) * z)
    for t in target_zeros:
        out = out / (1.0 - np.conj(t) * z)
    return out


def compression(dom_zeros, cod_zeros, symbol_samples, z) -> np.ndarray:
    """Matrix of the compression of multiplication by the sampled symbol,
    entry ``(i, j) = <symbol e_j, f_i>`` for domain basis ``e`` and
    codomain basis ``f``."""
    e = tm_basis(dom_zeros, z)
    f = tm_basis(cod_zeros, z)
    return (np.conj(f) * symbol_samples) @ e.T / z.size


def fourier(samples) -> np.ndarray:
    """Fourier coefficients from samples on ``nodes(m)``: entry ``k`` is
    the coefficient of ``z**k`` for ``k < m/2`` and of ``z**(k-m)`` above."""
    return np.fft.fft(samples) / samples.size


def rel_dev(result, reference) -> float:
    """Frobenius deviation relative to ``1 + ||result||``."""
    result = np.asarray(result, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if result.shape != reference.shape:
        return np.inf
    return float(np.linalg.norm(result - reference) / (1.0 + np.linalg.norm(result)))
