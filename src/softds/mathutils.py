"""Special functions, the Dirichlet log density and an order-insensitive sum.

Every public function here is a pure function of its inputs, operating
on float64 scalars or numpy arrays; the private ``_digamma_of`` and
``_sorted_sum_of`` overwrite the array they are given, for callers that
own it.  ``log_gamma`` and ``digamma`` are implemented
locally (Lanczos approximation, shifted asymptotic series) so that their
error bounds are testable against independent references instead of
depending on an external math library.

Accuracy notes
--------------
``log_gamma``: absolute error below 1e-10 for x in [1e-6, ~1e4].  For
larger x the value itself grows like x*ln(x), so a float64 result cannot
carry 1e-10 absolute accuracy; there the relative error stays at a few
ulp (< 5e-14).  ``digamma`` behaves the same way near 0 where the value
diverges like -1/x.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_gamma",
    "digamma",
    "dirichlet_log_density",
    "sorted_sum",
]

# Lanczos coefficients for g = 7, n = 9 (Godfrey's tabulation; the same
# set used by GSL / Boost).  Relative error of the approximation is
# ~1e-15 over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.9189385332046727  # 0.5 * ln(2*pi)
_LOG_PI = 1.1447298858494002


def _positive_array(x, fname):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{fname} is defined for finite x > 0 only")
    return arr


def _match_input(out, x):
    return float(out) if np.ndim(x) == 0 else out


def _lanczos_log_gamma(z):
    """ln Gamma(z) for z >= 0.5, with one new array per operation."""
    zm1 = z - 1.0
    series = np.full_like(zm1, _LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        series += c / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(series)


def log_gamma(x):
    """Natural log of the Gamma function, ln |Gamma(x)|, for x > 0.

    Uses the Lanczos approximation for x >= 0.5 and the reflection
    formula ln Gamma(x) = ln(pi / sin(pi x)) - ln Gamma(1 - x) below,
    chosen per entry by ``np.where``.

    Raises ValueError for x <= 0 or non-finite x.
    """
    arr = _positive_array(x, "log_gamma")
    small = arr < 0.5
    out = _lanczos_log_gamma(np.where(small, 1.0 - arr, arr))
    if np.any(small):
        with np.errstate(invalid="ignore", divide="ignore"):
            reflected = _LOG_PI - np.log(np.sin(np.pi * arr)) - out
        out = np.where(small, reflected, out)
    return _match_input(out, x)


def _digamma_of(z):
    """:func:`digamma` of the float64 array ``z`` of finite entries > 0,
    as a new array; ``z`` is overwritten."""
    shift = np.zeros_like(z)
    work = np.empty_like(z)
    mask = np.empty(z.shape, dtype=bool)
    for _ in range(8):  # z > 0, so eight unit shifts always reach 8
        np.less(z, 8.0, out=mask)
        if not mask.any():
            break
        # 0 / z is +0.0 for z > 0, and subtracting it leaves an entry's
        # bits unchanged
        np.divide(mask, z, out=work)
        shift -= work
        z += mask
    # psi = shift + ln z - 0.5 / z - tail, added in this order; z then
    # holds u = 1 / z^2 for the tail
    np.log(z, out=work)
    shift += work
    np.divide(0.5, z, out=work)
    shift -= work
    # z * z overflows to inf above ~1.3e154, where u = 0 is the right value
    with np.errstate(over="ignore"):
        np.multiply(z, z, out=z)
    u = np.divide(1.0, z, out=z)
    # tail = u * (1/12 - u * (1/120 - ... - u * (691/32760 - u / 12)))
    tail = np.divide(u, 12.0, out=work)
    for c in (691.0 / 32760.0, 1.0 / 132.0, 1.0 / 240.0, 1.0 / 252.0, 1.0 / 120.0,
              1.0 / 12.0):
        np.subtract(c, tail, out=tail)
        tail *= u
    shift -= tail
    return shift


def digamma(x):
    """Digamma function psi(x) = d/dx ln Gamma(x), for x > 0.

    The argument is shifted up with psi(x) = psi(x + 1) - 1/x until it
    reaches 8, then the asymptotic series in 1/x^2 is applied.

    Raises ValueError for x <= 0 or non-finite x.
    """
    arr = _positive_array(x, "digamma")
    out = _digamma_of(np.array(arr, ndmin=1)).reshape(arr.shape)
    return _match_input(out, x)


def dirichlet_log_density(c, pi_row):
    """Log density of a Dirichlet with parameter vector ``pi_row``
    evaluated at the probability vector ``c``:

        sum_l (pi_l - 1) ln c_l  -  sum_l ln Gamma(pi_l)  +  ln Gamma(sum_l pi_l)

    over the last axis; leading axes broadcast, and 1-D inputs return a
    float.  ``c`` and ``pi_row`` entries must be strictly positive (clamp
    ``c`` upstream before calling).
    """
    cv = np.asarray(c, dtype=np.float64)
    pv = np.asarray(pi_row, dtype=np.float64)
    if cv.ndim < 1 or pv.ndim < 1 or cv.shape[-1] != pv.shape[-1]:
        raise ValueError("c and pi_row must be vectors of equal length")
    if not np.all(np.isfinite(pv)) or np.any(pv <= 0.0):
        raise ValueError("Dirichlet parameters must be finite and > 0")
    if not np.all(np.isfinite(cv)) or np.any(cv <= 0.0):
        raise ValueError("c entries must be finite and > 0 (floor them first)")
    out = (((pv - 1.0) * np.log(cv)).sum(axis=-1) - log_gamma(pv).sum(axis=-1)
           + log_gamma(pv.sum(axis=-1)))
    return float(out) if out.ndim == 0 else out


def sorted_sum(a, axis):
    """Sum along ``axis`` after sorting along it.

    The K slabs along ``axis`` are sorted elementwise by an insertion
    network of K(K-1)/2 compare-exchanges (``np.minimum``/``np.maximum``
    on whole slabs), then added one at a time in ascending order.  The
    floating-point result is therefore a function of the multiset of
    summands only, so reductions over ensemble members are bitwise
    invariant to member ordering.  For K < 8 it equals
    ``np.sort(a, axis).sum(axis)`` bit for bit; numpy adds fewer than
    eight terms in order too.  The cost is O(K^2) passes over a slab, so
    it suits the few members of an ensemble."""
    return _sorted_sum_of(np.moveaxis(np.asarray(a), axis, 0).copy())


def _sorted_sum_of(a):
    """:func:`sorted_sum` along axis 0 of the writable array ``a``, whose
    slabs it sorts in place; ``a`` is left holding scrambled values."""
    slabs = list(a)
    spare = np.empty_like(slabs[0])
    for top in range(1, len(slabs)):
        for j in range(top, 0, -1):
            lo, hi = slabs[j - 1], slabs[j]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            slabs[j - 1], spare = spare, lo
    # Starting from +0.0, as numpy's sum does, no partial sum is ever
    # -0.0, so the sum ignores the signs of zeros, which minimum/maximum
    # may change on a tie of 0.0 against -0.0.
    total = np.zeros_like(slabs[0])
    for slab in slabs:
        total += slab
    return total
