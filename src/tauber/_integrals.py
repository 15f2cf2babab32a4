"""Exact integrals of the density term grammar.

Every density term has the shape  c * x^p * exp(-a*x) * trig(b*x)  with
trig in {1, cos, sin}.  Against an extra exponential weight exp(-s*x) the
integral over an interval reduces to

    integral of x^p * exp(-z*x),   z = (a + s) - i*b,

taken as the real (cos) or imaginary (sin) part.  `power_exp_integral` is
the one front door for both power families: it checks the interval, the
power and the tail, and turns an overflow of either into DivergentTransform.

For integer p the family shifts [lo, hi] to [0, delta], delta = hi - lo,
and expands x^p binomially.  The integral of u^j exp(-z*u) over [0, delta]
is a power series when |z|*delta <= 1/2, the positive series of
gamma(j+1, z*delta) (DLMF 8.7.1) when |z|*delta <= j/2, and j!/z^(j+1) less
the antiderivative at delta past that, where the two no longer cancel.  At
z = 0 the difference hi^(p+1) - lo^(p+1) becomes (hi - lo) times a Horner
sum once lo > hi/2.  For non-integer p (only allowed without oscillation)
the family takes differences of incomplete gamma functions (DLMF 8.2) for
a decaying weight and of Kummer functions (DLMF 13.2) for a growing one:
positive series before the transition point s*x = p+1, a continued
fraction past it, prefactors in log space, and a Taylor series about lo on
narrow intervals, so nothing cancels.  Everything runs on the standard
library.
"""

from __future__ import annotations

import cmath
import math

from .errors import DivergentTransform, NonIntegrableTail

__all__ = ["power_exp_integral", "NonIntegrableTail"]

# Switch point between the power series and the antiderivative formula.
_SERIES_CUTOFF = 0.5
# Largest (hi-lo)/lo for which non-integer powers expand about lo instead.
_NARROW = 0.25
# Step cap of the continued fraction for the upper incomplete gamma.
_FRACTION_STEPS = 100_000


def _int_monomial_exp_from_zero(j: int, z: complex, delta: float) -> complex:
    """integral of u^j * exp(-z*u) du over [0, delta], j a small integer,
    delta > 0; delta may be inf when z.real > 0."""
    if abs(z) * delta <= _SERIES_CUTOFF:
        # sum_m (-z)^m / m! * delta^(j+m+1) / (j+m+1)
        acc = 0.0 + 0.0j
        coef = 1.0 + 0.0j  # (-z)^m / m!
        for m in range(200):
            term = coef * delta ** (j + m + 1) / (j + m + 1)
            acc += term
            if abs(term) <= 1e-18 * abs(acc) + 1e-300:
                break
            coef *= -z / (m + 1)
        return acc
    if j > 1 and abs(z) * delta <= 0.5 * j:
        # well before |z|*delta = j+1 the difference below cancels; the
        # positive series of gamma(j+1, z*delta) (DLMF 8.7.1) does not
        return cmath.exp(-z * delta) * delta ** (j + 1) * _lower_gamma_series(j + 1, z * delta)
    # j!/z^(j+1) - exp(-z*delta) * sum_m j!/(j-m)! * delta^(j-m) / z^(m+1)
    head = math.factorial(j) / z ** (j + 1)
    if math.isinf(delta):
        return head
    tail = 0.0 + 0.0j
    falling = 1.0  # j!/(j-m)!
    for m in range(j + 1):
        tail += falling * delta ** (j - m) / z ** (m + 1)
        falling *= j - m
    return head - cmath.exp(-z * delta) * tail


def _integer_power_exp(p: int, z: complex, lo: float, hi: float) -> complex:
    """integral of x^p * exp(-z*x) dx over [lo, hi], p >= 0 integer;
    z.real > 0 if hi is infinite."""
    if z == 0:
        if 2 * lo <= hi:
            return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
        # hi^(p+1) - lo^(p+1) cancels: (hi - lo) * sum_k hi^(p-k) lo^k
        acc = 0.0
        for k in range(p + 1):
            acc = acc * hi + lo ** k
        return (hi - lo) * acc / (p + 1)
    weight = cmath.exp(-z * lo) if lo else 1.0 + 0.0j
    if weight == 0.0:
        return 0.0
    delta = hi - lo
    inner = sum(
        math.comb(p, j) * lo ** (p - j) * _int_monomial_exp_from_zero(j, z, delta)
        for j in range(p + 1)
    )
    return weight * inner


def _narrow_power_exp(p: float, s: float, lo: float, hi: float) -> float:
    """integral of x^p * exp(-s*x) dx over a narrow [lo, hi], lo > 0.

    With x = lo*(1+v) the integral is lo^(p+1) exp(-s*lo) times the
    integral of (1+v)^p exp(-s*lo*v) over [0, d], d = (hi-lo)/lo.  The
    Taylor coefficients a_k of that integrand satisfy
    (k+1) a_(k+1) = (p - s*lo - k) a_k - s*lo a_(k-1), and the series is
    summed in the scaled terms a_k d^k, which decay at least like
    _NARROW^k.  Nothing is differenced, so the result keeps full relative
    precision however narrow the interval is.
    """
    d = (hi - lo) / lo
    w = s * (hi - lo)
    prev, cur = 0.0, 1.0  # a_(k-1) d^(k-1), a_k d^k
    acc = 1.0
    small = 0
    for k in range(1, 200):
        prev, cur = cur, ((d * (p - k + 1) - w) * cur - w * d * prev) / k
        term = cur / (k + 1)
        acc += term
        small = small + 1 if abs(term) <= 1e-18 * abs(acc) else 0
        if small == 2:
            break
    return math.exp((p + 1) * math.log(lo) - s * lo + math.log(d * acc))


def _lower_gamma_series(a: float, z: float) -> float:
    """gamma(a, z) * e^z / z^a, the lower incomplete gamma without its
    prefactor, for 0 <= z <= a or complex |z| <= a/2.

    DLMF 8.7.1 (Kummer's transformation of 8.5.1): the sum of
    z^k / (a (a+1) ... (a+k)).  For 0 <= z <= a every term is positive and
    the ratio of successive terms is below 1, so nothing cancels; for
    |z| <= a/2 each term is at most half the one before.
    """
    acc = term = 1.0 / a
    k = 1
    while abs(term) > 1e-17 * abs(acc):
        term *= z / (a + k)
        acc += term
        k += 1
    return acc


def _upper_gamma_fraction(a: float, z: float) -> float:
    """Gamma(a, z) * e^z / z^a, the upper incomplete gamma without its
    prefactor, for z >= a.

    Legendre's continued fraction (DLMF 8.9.2),
    1/(z+1-a- 1(1-a)/(z+3-a- 2(2-a)/(z+5-a- ...))), evaluated by the
    modified Lentz method; past the transition point it converges fast.
    It stops once a step's factor is within one ulp of 1: for a huge z
    every factor is b * (1/b) rounded, which can be 1 - 2^-53 for ever.
    An infinite z (s * lo overflowed) gives the limit 0, and a fraction
    that has not converged at the step cap raises DivergentTransform.
    """
    if math.isinf(z):
        return 0.0
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    for i in range(1, _FRACTION_STEPS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return frac
    raise DivergentTransform(
        f"continued fraction for Gamma({a}, {z}) did not converge in {_FRACTION_STEPS} steps")


def _kummer_series(a: float, z: float) -> float:
    """sum_k z^k / (k! (a+k)) for z >= 0, so that the integral of
    t^(a-1) e^(c t) over [0, x] is x^a times it at z = c x (DLMF 13.2.2,
    1F1(a; a+1; z) / a).  Every term is positive, so nothing cancels; the
    terms fall once k > z."""
    power, acc, k = 1.0, 1.0 / a, 0  # power = z^k / k!
    while math.isfinite(acc) and (k <= z or power > 1e-17 * (a + k) * acc):
        k += 1
        power *= z / k
        acc += power / (a + k)
    return acc


def _gamma_difference(p: float, s: float, lo: float, hi: float) -> float:
    """integral of x^p * exp(-s*x) dx over [lo, hi] when [lo, hi] lies on
    one side of the transition point s*x = p+1.

    With u(x) = x^(p+1) e^(-s x), increasing before the transition point
    and decreasing past it, the integral is

        u(hi) * (S(hi) - u(lo)/u(hi) * S(lo))   before it, from gamma(a, .),
        u(lo) * (S(lo) - u(hi)/u(lo) * S(hi))   past it, from Gamma(a, .),

    with S the series or fraction above.  The ratio (at most 1) and the
    product are formed in log space, so a large p, a tiny s or a far-out
    interval neither overflows nor underflows an intermediate.
    """
    a = p + 1
    if s * hi <= a:
        near, far, series = hi, lo, _lower_gamma_series
    else:
        near, far, series = lo, hi, _upper_gamma_fraction
    rest = series(a, s * near)
    if far and math.isfinite(far):
        # log(u(far) / u(near)), with log1p where far/near is close to 1
        rel = (far - near) / near
        log_rel = math.log1p(rel) if abs(rel) < 0.5 else math.log(far / near)
        log_ratio = a * log_rel - s * (far - near)
        rest -= math.exp(log_ratio) * series(a, s * far)
    if rest <= 0.0:
        return 0.0
    return math.exp(a * math.log(near) - s * near + math.log(rest))


def _real_power_exp_value(p: float, s: float, lo: float, hi: float) -> float:
    """integral of x^p * exp(-s*x) dx over [lo, hi]; s > 0 if hi is infinite."""
    width = hi - lo
    if width <= _NARROW * lo and abs(s) * width <= _SERIES_CUTOFF:
        return _narrow_power_exp(p, s, lo, hi)
    if s == 0.0:
        return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
    if s < 0.0:
        return hi ** (p + 1) * _kummer_series(p + 1, -s * hi) - (
            lo ** (p + 1) * _kummer_series(p + 1, -s * lo))
    # the transition point, stepped down until s * x_star <= p+1
    x_star = (p + 1) / s
    while s * x_star > p + 1:
        x_star = math.nextafter(x_star, 0.0)
    if lo < x_star and math.isinf(hi):
        # Gamma(p+1)/s^(p+1) less the integral over [0, lo], at most a
        # share P(p+1, p+1) of it
        head = _gamma_difference(p, s, 0.0, lo) if lo else 0.0
        return math.exp(math.lgamma(p + 1) - (p + 1) * math.log(s)) - head
    if lo < x_star < hi:
        return _gamma_difference(p, s, lo, x_star) + _gamma_difference(p, s, x_star, hi)
    return _gamma_difference(p, s, lo, hi)


def power_exp_integral(
    p: float, sigma: float, freq: float, lo: float, hi: float
) -> complex:
    """integral of x^p * exp(-sigma*x) * exp(i*freq*x) dx over [lo, hi].

    The caller takes .real for a cosine factor and .imag for a sine factor.
    Non-integer powers are only supported with freq == 0.  Raises
    NonIntegrableTail when hi is infinite and sigma <= 0, and
    DivergentTransform when a finite integral overflows a float or its
    continued fraction does not converge.
    """
    if hi < lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    integer = float(p).is_integer() and p >= 0
    if not integer and freq != 0.0:
        raise ValueError("oscillatory terms require integer powers")
    if math.isinf(hi) and sigma <= 0.0:
        raise NonIntegrableTail(
            f"integral of x^{p} exp({-sigma} x) over [{lo}, inf) does not converge")
    try:
        if integer:
            value = _integer_power_exp(int(p), complex(sigma, -freq), lo, hi)
        else:
            value = complex(_real_power_exp_value(p, sigma, lo, hi))
    except (OverflowError, ZeroDivisionError):  # z^(j+1) underflows where j!/z^(j+1) overflows
        value = math.inf
    if not cmath.isfinite(value):
        raise DivergentTransform(
            f"integral of x^{p} exp({-sigma} x) exp({freq}i x) over [{lo}, {hi}] "
            "overflows a float")
    return value
