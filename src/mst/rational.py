"""Complex rational-function calculus on the unit circle.

Every function handled by this package is a quotient of complex polynomials
kept in reduced form with a monic denominator and with no poles near
``|z| = 1``.  For such functions the boundary trace on the circle determines
the full Fourier expansion exactly, so the analytic / anti-analytic
splitting, the circle involution ``f(z) -> conj(f(1/conj(z)))`` and the
``L^2`` pairing against normalized Lebesgue measure are all computable in
closed form from the coefficients.

Conventions
-----------
* Polynomial coefficients are stored in ascending degree; the zero
  polynomial has an empty coefficient list.
* The anti-analytic part of a split carries the strictly negative Fourier
  frequencies and vanishes at infinity; the analytic part carries the
  polynomial content and every pole outside the closed disk.
* Roots are found through companion-matrix eigenvalues and clustered at
  ``CLUSTER_TOL`` when multiplicities matter (reduction, gcd-style
  cancellation).  Classifying denominator roots as inside/outside never
  needs clustering because constructors enforce a guard band of width
  ``POLE_TOL`` around the circle.
* The polynomial kernels run the floating-point operations of the numpy
  routines they replace, in the same order, without the per-call wrapper
  work, so every result is bit-for-bit numpy's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

__all__ = [
    "CLUSTER_TOL",
    "POLE_TOL",
    "CirclePoleError",
    "PoleSplitError",
    "ComplexPoly",
    "RationalFn",
    "FourierSplit",
    "circle_conjugate",
    "riesz_project",
    "antianalytic_residual",
    "riesz_selfadjoint_defect",
    "involution_defect",
    "inner_product",
    "fourier_coefficient",
    "fourier_block",
    "parseval_defect",
    "norm2",
    "equality_residual",
    "unit_circle_samples",
    "circle_node_count",
    "sup_on_circle",
    "circle_gap",
]

#: roots closer than this are treated as a single point (with multiplicity)
CLUSTER_TOL = 1e-8

#: forbidden band around |z| = 1 for denominator roots
POLE_TOL = 1e-8

# relative floor below which high-degree coefficients are dropped
_TRIM = 1e-12


class CirclePoleError(ValueError):
    """A denominator root sits inside the guard band around ``|z| = 1``."""


class PoleSplitError(ValueError):
    """Inside and outside poles coincide within the clustering tolerance."""


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Strip trailing coefficients that vanish relative to the array scale."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0:
        return c
    mags = np.abs(c)
    scale = float(mags.max())
    if scale == 0.0:
        return c[:0]
    keep = (mags > _TRIM * max(1.0, scale)).nonzero()[0]
    if keep.size == 0:
        return c[:0]
    return c[: keep[-1] + 1]


def _horner(coeffs: list, x):
    """``npp.polyval(x, coeffs)`` for a scalar ``x`` and a list of Python
    numbers, in polyval's exact order (scalar arithmetic only: numpy's
    vectorized complex multiply rounds differently)."""
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * x
    return acc


def _poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """``npp.polyfromroots(roots)``: linear factors of the sorted roots
    multiplied pairwise, in the same order, by ``np.convolve``."""
    p = list(np.stack([-np.sort(roots), np.ones(len(roots), dtype=complex)], axis=1))
    n = len(p)
    while n > 1:
        m, r = divmod(n, 2)
        tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
        if r:
            tmp[0] = np.convolve(tmp[0], p[-1])
        p = tmp
        n = m
    return p[0]


class ComplexPoly:
    """Complex-coefficient polynomial, coefficients in ascending degree.

    The zero polynomial is represented by an empty coefficient list, so a
    nonzero polynomial always has a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, ComplexPoly):
            c = coeffs.coeffs.copy()
        else:
            c = _trim(coeffs)
        c.setflags(write=False)
        self.coeffs = c

    @classmethod
    def from_roots(cls, roots, lead: complex = 1.0) -> "ComplexPoly":
        roots = np.asarray(roots, dtype=complex).ravel()
        if roots.size == 0:
            return cls([lead])
        return cls(lead * _poly_from_roots(roots))

    @classmethod
    def monomial(cls, n: int, coeff: complex = 1.0) -> "ComplexPoly":
        c = np.zeros(n + 1, dtype=complex)
        c[n] = coeff
        return cls(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def lead(self) -> complex:
        if self.is_zero:
            return 0.0
        return complex(self.coeffs[-1])

    def __call__(self, z):
        if self.is_zero:
            return np.zeros_like(np.asarray(z, dtype=complex)) + 0.0
        return npp.polyval(np.asarray(z, dtype=complex), self.coeffs)

    def roots(self) -> np.ndarray:
        """``np.roots``: eigenvalues of the same companion matrix."""
        if self.degree < 1:
            return np.zeros(0, dtype=complex)
        low = int(np.flatnonzero(self.coeffs)[0])  # exact roots at the origin
        p = self.coeffs[low:][::-1]
        if len(p) > 1:
            companion = np.eye(len(p) - 1, k=-1, dtype=complex)
            companion[0, :] = -p[1:] / p[0]
            found = np.linalg.eigvals(companion)
        else:
            found = np.array([])
        if low:
            found = np.concatenate((found, np.zeros(low, found.dtype)))
        return found

    def scaled(self, factor: complex) -> "ComplexPoly":
        if self.is_zero:
            return self
        return ComplexPoly(self.coeffs * factor)

    def _coerce(self, other):
        if isinstance(other, ComplexPoly):
            return other
        if isinstance(other, (int, float, complex, np.number)):
            return ComplexPoly([other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        # polyadd's order: add the shorter into a copy of the longer
        a, b = self.coeffs, o.coeffs
        if len(a) <= len(b):
            a, b = b, a
        total = a.copy()
        total[: len(b)] += b
        return ComplexPoly(total)

    __radd__ = __add__

    def __neg__(self):
        return ComplexPoly(-self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.is_zero or o.is_zero:
            return ComplexPoly()
        return ComplexPoly(np.convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def divmod(self, other: "ComplexPoly"):
        """Euclidean division ``self = quo * other + rem``."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or self.degree < other.degree:
            return ComplexPoly(), self
        quo, rem = npp.polydiv(self.coeffs, other.coeffs)
        return ComplexPoly(quo), ComplexPoly(rem)

    def __repr__(self):
        return f"ComplexPoly({list(self.coeffs)!r})"


def _valuation(p: ComplexPoly) -> int:
    """Order of the zero at the origin, counting relatively-tiny leading
    coefficients as zero (exact for monomial products)."""
    c = p.coeffs
    if c.size == 0:
        return 0
    mags = np.abs(c)
    significant = (mags > _TRIM * max(1.0, float(mags.max()))).nonzero()[0]
    return int(significant[0]) if significant.size else 0


def _shift_down(p: ComplexPoly, v: int) -> ComplexPoly:
    """Divide by ``z**v`` (the discarded low coefficients are negligible)."""
    if v == 0:
        return p
    return ComplexPoly(p.coeffs[v:])


def _taylor_div(num: ComplexPoly, den: ComplexPoly, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of ``num/den`` at the origin.

    Requires ``den(0) != 0``; stable whenever the denominator roots stay
    away from the closed unit disk.
    """
    out = np.zeros(count, dtype=complex)
    nc = num.coeffs
    dc = den.coeffs
    d0 = dc[0]
    for k in range(count):
        s = nc[k] if k < len(nc) else 0.0 + 0.0j
        jmax = min(k, len(dc) - 1)
        if jmax >= 1:
            s = s - np.dot(dc[1 : jmax + 1], out[k - 1 :: -1][:jmax])
        out[k] = s / d0
    return out


def _deflate(coeffs: np.ndarray, r: complex) -> np.ndarray:
    """Divide an ascending coefficient array by ``z - r``.

    The recurrence runs top-down for roots in the closed disk and bottom-up
    otherwise, so the amplification factor never exceeds one.
    """
    d = len(coeffs) - 1
    q = np.zeros(d, dtype=complex)
    if abs(r) <= 1.0:
        q[d - 1] = coeffs[d]
        for k in range(d - 1, 0, -1):
            q[k - 1] = coeffs[k] + r * q[k]
    else:
        q[0] = -coeffs[0] / r
        for k in range(1, d):
            q[k] = (q[k - 1] - coeffs[k]) / r
    return q


def _cancel_common_factors(n_rest: ComplexPoly, d_rest: ComplexPoly):
    """Cancel numerator factors at denominator roots, by value.

    A denominator root ``r`` cancels when the Newton step
    ``|num(r)| / |num'(r)|`` places a numerator root within the clustering
    tolerance of ``r`` (the step length stays the right scale at multiple
    roots too), or when ``num(r)`` is machine-zero against the attainable
    local magnitude.  Testing values instead of matching root clouds keeps
    multiplicities working: a double root perturbs by sqrt(eps) under the
    eigenvalue root finder, but the value at the true point stays at eps.

    Returns the reduced numerator and denominator and the denominator roots
    that survived, so the caller needs no second root solve.
    """
    droots = d_rest.roots()
    nc = n_rest.coeffs.copy()
    cancelled = False
    remaining = []
    coeffs = None  # nc, its derivative and |nc| as lists, for _horner
    for r in droots:
        if len(nc) <= 1:
            remaining.append(r)
            continue
        if coeffs is None:
            coeffs = nc.tolist()
            slopes = (nc[1:] * np.arange(1, len(nc))).tolist()  # npp.polyder's products
            mags = np.abs(nc).tolist()
        x = complex(r)
        val = abs(_horner(coeffs, x))
        dval = abs(_horner(slopes, x))
        local = _horner(mags, abs(x))
        if val <= CLUSTER_TOL * dval or val <= 1e-13 * local:
            nc = _deflate(nc, r)
            cancelled = True
            coeffs = None
        else:
            remaining.append(r)
    if cancelled:
        n_rest = ComplexPoly(nc)
        d_rest = ComplexPoly.from_roots(np.array(remaining), lead=d_rest.lead)
    return n_rest, d_rest, remaining


class RationalFn:
    """Reduced quotient ``num / den`` with a monic denominator.

    Denominator roots within ``POLE_TOL`` of the unit circle are
    rejected so that every value has a bounded boundary trace.  Common
    numerator/denominator roots are cancelled up to ``CLUSTER_TOL``; when
    nothing cancels the original coefficients are kept bit-for-bit (apart
    from the monic normalization).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1.0):
        n = num if isinstance(num, ComplexPoly) else ComplexPoly(num)
        d = den if isinstance(den, ComplexPoly) else ComplexPoly(den)
        if d.is_zero:
            raise ZeroDivisionError("zero denominator")
        if n.is_zero:
            self.num = ComplexPoly()
            self.den = ComplexPoly([1.0])
            return
        # Monomial factors are stripped by valuation, never by root finding:
        # companion eigenvalues of z**v are useless for large v.
        vn, vd = _valuation(n), _valuation(d)
        common = min(vn, vd)
        vn, vd = vn - common, vd - common
        n_rest = _shift_down(n, common + vn)
        d_rest = _shift_down(d, common + vd)
        if n_rest.degree > 0 and d_rest.degree > 0:
            n_rest, d_rest, poles = _cancel_common_factors(n_rest, d_rest)
        else:
            poles = d_rest.roots()
        for r in poles:
            if abs(abs(r) - 1.0) < POLE_TOL:
                raise CirclePoleError(
                    f"denominator root {r} lies within {POLE_TOL} of the unit circle"
                )
        lead = d_rest.lead
        self.num = (n_rest * ComplexPoly.monomial(vn)).scaled(1.0 / lead)
        self.den = (d_rest * ComplexPoly.monomial(vd)).scaled(1.0 / lead)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFn":
        return cls(ComplexPoly())

    @classmethod
    def one(cls) -> "RationalFn":
        return cls(ComplexPoly([1.0]))

    @classmethod
    def monomial(cls, n: int) -> "RationalFn":
        """``z**n`` for any integer ``n`` (negative powers allowed)."""
        if n >= 0:
            return cls(ComplexPoly.monomial(n))
        return cls(ComplexPoly([1.0]), ComplexPoly.monomial(-n))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def poles(self) -> np.ndarray:
        return self.den.roots()

    def _coerce(self, other):
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, (ComplexPoly, int, float, complex, np.number)):
            return RationalFn(other if isinstance(other, ComplexPoly) else ComplexPoly([other]))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RationalFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFn(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def inverse(self) -> "RationalFn":
        return RationalFn.one() / self

    def isclose(self, other, tol: float = 1e-12) -> bool:
        return equality_residual(self, self._coerce(other)) < tol

    def __repr__(self):
        return f"RationalFn(num={list(self.num.coeffs)!r}, den={list(self.den.coeffs)!r})"


def equality_residual(f: RationalFn, g: RationalFn) -> float:
    """Cross-multiplied coefficient residual of ``f - g``.

    Root-free equality test: ``f == g`` exactly when
    ``f.num * g.den - g.num * f.den`` vanishes.
    """
    left = f.num * g.den
    right = g.num * f.den
    diff = left - right
    if diff.is_zero:
        return 0.0
    scale = max(
        1.0,
        float(np.max(np.abs(left.coeffs))) if not left.is_zero else 0.0,
        float(np.max(np.abs(right.coeffs))) if not right.is_zero else 0.0,
    )
    return float(np.max(np.abs(diff.coeffs))) / scale


def circle_conjugate(f: RationalFn) -> RationalFn:
    """The involution ``g(z) = conj(f(1 / conj(z)))``.

    On ``|z| = 1`` this is the pointwise complex conjugate of ``f``; as a
    rational identity it reverses and conjugates the coefficient lists and
    rebalances with a power of ``z``.
    """
    if f.is_zero:
        return RationalFn.zero()
    num_star = ComplexPoly(np.conj(f.num.coeffs)[::-1])
    den_star = ComplexPoly(np.conj(f.den.coeffs)[::-1])
    dn, dd = f.num.degree, f.den.degree
    if dd >= dn:
        return RationalFn(num_star * ComplexPoly.monomial(dd - dn), den_star)
    return RationalFn(num_star, den_star * ComplexPoly.monomial(dn - dd))


def involution_defect(f: RationalFn) -> float:
    """Coefficient residual of ``circle_conjugate`` applied twice against
    ``f``."""
    return equality_residual(circle_conjugate(circle_conjugate(f)), f)


@dataclass(frozen=True)
class FourierSplit:
    """Analytic / anti-analytic decomposition of a rational function.

    ``analytic`` collects the polynomial part and the poles outside the
    closed disk (Fourier frequencies >= 0); ``antianalytic`` the poles in
    the open disk (frequencies < 0, vanishing at infinity).
    """

    analytic: RationalFn
    antianalytic: RationalFn

    def reconstruct(self) -> RationalFn:
        return self.analytic + self.antianalytic

    def reconstruction_defect(self, f: RationalFn) -> float:
        """:func:`circle_gap` of :meth:`reconstruct` and ``f``, the function
        this split came from."""
        return circle_gap(self.reconstruct(), f)

    def idempotence_defect(self) -> float:
        """How far splitting ``analytic`` again moves it: the coefficient
        residual of the new analytic half against it, or the norm of the new
        anti-analytic half, whichever is larger."""
        again = riesz_project(self.analytic)
        return max(equality_residual(again.analytic, self.analytic), norm2(again.antianalytic))


def riesz_project(f: RationalFn) -> FourierSplit:
    """Split ``f`` into nonnegative and strictly negative Fourier content.

    The denominator factors as ``D_in * D_out`` with ``D_in`` carrying the
    origin power and the open-disk roots and ``D_out`` the roots outside the
    closed disk.  The unique representation ``f = W/D_out + A/D_in`` (with
    ``A`` strictly proper) is recovered from one coupled linear solve over
    the coefficient identity ``W*D_in + A*D_out = num``; nothing is ever
    long-divided through an outside-root factor, which keeps the split
    backward stable even for poles far from the circle.
    """
    if f.is_zero:
        return FourierSplit(RationalFn.zero(), RationalFn.zero())
    v = _valuation(f.den)
    den_rest = _shift_down(f.den, v)
    droots = den_rest.roots()
    mods = np.abs(droots)
    inside = droots[mods < 1.0]
    outside = droots[mods >= 1.0]
    if inside.size and outside.size:
        gap = float(np.min(np.abs(inside[:, None] - outside[None, :])))
        if gap < CLUSTER_TOL:
            raise PoleSplitError(
                "inside and outside poles coincide within the clustering tolerance; "
                "adjust the input so the pole groups are separated"
            )
    d_in = ComplexPoly.from_roots(inside) * ComplexPoly.monomial(v)
    d_out = ComplexPoly.from_roots(outside)
    mi, mo = d_in.degree, d_out.degree
    num = f.num
    if mi == 0:
        return FourierSplit(f, RationalFn.zero())
    if mo == 0:
        quo, rem = num.divmod(d_in)  # division by an all-inside monic: stable
        return FourierSplit(RationalFn(quo), RationalFn(rem, d_in))
    dw = max(num.degree - mi, mo - 1)
    rows = max(num.degree + 1, dw + mi + 1)
    cols = (dw + 1) + mi
    m = np.zeros((rows, cols), dtype=complex)
    for k in range(dw + 1):
        m[k : k + mi + 1, k] = d_in.coeffs
    for j in range(mi):
        m[j : j + mo + 1, dw + 1 + j] = d_out.coeffs
    rhs = np.zeros(rows, dtype=complex)
    rhs[: len(num.coeffs)] = num.coeffs
    scale = np.linalg.norm(m, axis=0)
    ms = m / scale
    sol, *_ = np.linalg.lstsq(ms, rhs, rcond=None)
    # mixed-precision iterative refinement: residuals in extended precision
    # recover the digits that clusters of near-circle poles cost the solve
    ms_wide = ms.astype(np.clongdouble)
    rhs_wide = rhs.astype(np.clongdouble)
    for _ in range(2):
        residual = (rhs_wide - ms_wide @ sol.astype(np.clongdouble)).astype(complex)
        correction, *_ = np.linalg.lstsq(ms, residual, rcond=None)
        sol = sol + correction
    sol = sol / scale
    w_part = ComplexPoly(sol[: dw + 1])
    a_part = ComplexPoly(sol[dw + 1 :])
    return FourierSplit(RationalFn(w_part, d_out), RationalFn(a_part, d_in))


def antianalytic_residual(f: RationalFn) -> float:
    """Norm of the analytic half of ``f``: zero exactly when ``f`` is
    anti-analytic (strictly negative frequencies only)."""
    return norm2(riesz_project(f).analytic)


def riesz_selfadjoint_defect(f: RationalFn, g: RationalFn) -> float:
    """``|<P f, g> - <f, P g>|`` for the analytic projection ``P``."""
    lhs = inner_product(riesz_project(f).analytic, g)
    return abs(lhs - inner_product(f, riesz_project(g).analytic))


def _pair_with_conjugate(f: RationalFn, gbar: RationalFn) -> complex:
    """Zeroth Fourier coefficient of ``f * gbar`` (``gbar`` pre-conjugated)."""
    h = f * gbar
    if h.is_zero:
        return 0.0 + 0.0j
    analytic = riesz_project(h).analytic
    if analytic.is_zero:
        return 0.0 + 0.0j
    return complex(analytic(0.0))


def inner_product(f: RationalFn, g: RationalFn) -> complex:
    """``L^2`` pairing against normalized Lebesgue measure on the circle.

    Evaluated through residues: the integral of ``f * conj(g)`` equals the
    zeroth Fourier coefficient of ``f * circle_conjugate(g)``.
    """
    return _pair_with_conjugate(f, circle_conjugate(g))


def _anti_tail(anti: RationalFn, count: int) -> np.ndarray:
    """Coefficients of ``z**-1 .. z**-count`` of an anti-analytic fraction.

    Expansion at infinity through reversed coefficient lists; stable because
    the reversed denominator has all roots outside the closed disk.
    """
    out = np.zeros(count, dtype=complex)
    if anti.is_zero or count == 0:
        return out
    shift = anti.den.degree - anti.num.degree  # >= 1: vanishes at infinity
    num_rev = ComplexPoly(anti.num.coeffs[::-1])
    den_rev = ComplexPoly(anti.den.coeffs[::-1])
    tail = _taylor_div(num_rev, den_rev, max(count + 1 - shift, 0))
    for j, c in enumerate(tail):
        m = shift + j  # coefficient of z**(-m)
        if m <= count:
            out[m - 1] = c
    return out


def fourier_coefficient(f: RationalFn, n: int) -> complex:
    """``n``-th Fourier coefficient (equals the pairing against ``z**n``).

    Read from ``fourier_block(f, abs(n))``.
    """
    return complex(fourier_block(f, abs(n))[n + abs(n)])


def fourier_block(f: RationalFn, nmax: int) -> np.ndarray:
    """All coefficients ``f̂(-nmax) .. f̂(nmax)``; entry ``k`` is ``f̂(k - nmax)``.

    Read off from the split: Taylor coefficients of the analytic part for
    ``k >= nmax``, coefficients of the expansion at infinity of the
    anti-analytic part below.  Both series decay, so arbitrarily high
    frequencies stay accurate.
    """
    out = np.zeros(2 * nmax + 1, dtype=complex)
    split = riesz_project(f)
    if not split.analytic.is_zero:
        out[nmax:] = _taylor_div(split.analytic.num, split.analytic.den, nmax + 1)
    out[:nmax] = _anti_tail(split.antianalytic, nmax)[::-1]
    return out


def parseval_defect(f: RationalFn, g: RationalFn, nmax: int) -> float:
    """Deviation of the coefficient sum over ``|k| <= nmax`` (from
    :func:`fourier_block`) from the residue pairing ``<f, g>``."""
    total = np.sum(fourier_block(f, nmax) * np.conj(fourier_block(g, nmax)))
    return float(abs(total - inner_product(f, g)))


def norm2(f: RationalFn) -> float:
    """``L^2`` norm on the circle."""
    return float(np.sqrt(max(inner_product(f, f).real, 0.0)))


def unit_circle_samples(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


#: largest grid that :func:`circle_node_count` hands out
MAX_CIRCLE_NODES = 2**16


def circle_node_count(points) -> int:
    """Smallest power of two ``>= max(64, 60 / ln(rho))``, with ``rho`` the
    smallest ``max(|p|, 1/|p|)`` over the singular points: the trapezoidal
    rule on ``M`` nodes errs by ``O(rho**-M)`` (Trefethen & Weideman, SIAM
    Review 2014).  Raises :class:`CirclePoleError` above ``MAX_CIRCLE_NODES``.
    """
    mods = np.abs(np.asarray(points, dtype=complex).ravel())
    mods = mods[mods > 0.0]
    need = 64.0
    if mods.size:
        log_rho = float(np.min(np.abs(np.log(mods))))
        need = max(need, 60.0 / log_rho) if log_rho > 0.0 else np.inf
    if need > MAX_CIRCLE_NODES:
        raise CirclePoleError(
            f"a singularity lies too close to the unit circle for {MAX_CIRCLE_NODES} nodes"
        )
    return 1 << int(np.ceil(np.log2(need)))


def sup_on_circle(f: RationalFn, m: int = 256) -> float:
    """Sampled estimate of the sup norm on the circle (a guard, not a proof)."""
    return float(np.max(np.abs(f(unit_circle_samples(m)))))


def circle_gap(f, g) -> float:
    """Largest ``|f - g|`` over 32 circle points, for any two callables: the
    sampled residual of an identity between functions."""
    return sup_on_circle(lambda z: f(z) - g(z), 32)
