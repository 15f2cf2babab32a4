"""Exact integrals of the density term grammar.

Every density term has the shape  c * x^p * exp(-a*x) * trig(b*x)  with
trig in {1, cos, sin}.  Against an extra exponential weight exp(-s*x) the
integral over an interval reduces to

    integral of x^p * exp(-z*x),   z = (a + s) - i*b,

taken as the real (cos) or imaginary (sin) part.  For integer p this has
the elementary antiderivative

    A(x) = -exp(-z*x) * sum_{j=0..p} p!/(p-j)! * x^(p-j) / z^(j+1),

and for non-integer p (only allowed without oscillation) it is a
difference of incomplete gamma functions (DLMF 8.2) for a decaying weight
and of Kummer functions (DLMF 13.2) for a growing one.  Both paths avoid
subtractive cancellation: the integer path shifts the interval to
[0, hi-lo] and switches to a power series when |z|*(hi-lo) is small; the
non-integer path sums a positive series while s*hi <= p+1 (before the
transition point) and a continued fraction once s*lo >= p+1 (past it),
differences regularised lower gammas only across it, forms the gamma
prefactor in log space, and sums a Taylor series about lo on narrow
intervals.

scipy.special is imported on first use by the non-integer path, and only
there: integer powers, narrow intervals and intervals on one side of the
transition point run on the standard library.
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


def _int_monomial_exp_from_zero(j: int, z: complex, delta: float) -> complex:
    """integral of u^j * exp(-z*u) du over [0, delta], j a small integer."""
    if delta == 0.0:
        return 0.0
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
    # j!/z^(j+1) - exp(-z*delta) * sum_m j!/(j-m)! * delta^(j-m) / z^(m+1)
    fact = math.factorial(j)
    head = fact / z ** (j + 1)
    tail = 0.0 + 0.0j
    falling = 1.0  # j!/(j-m)!
    for m in range(j + 1):
        tail += falling * delta ** (j - m) / z ** (m + 1)
        falling *= j - m
    return head - cmath.exp(-z * delta) * tail


def _integer_power_exp(p: int, z: complex, lo: float, hi: float) -> complex:
    """integral of x^p * exp(-z*x) dx over [lo, hi], p >= 0 integer."""
    if z == 0:
        if math.isinf(hi):
            raise NonIntegrableTail("polynomial tail does not converge")
        return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
    weight = cmath.exp(-z * lo) if lo else 1.0 + 0.0j
    if weight == 0.0:
        return 0.0
    if math.isinf(hi):
        if z.real <= 0:
            raise NonIntegrableTail("non-decaying tail does not converge")
        # integral of u^j * exp(-z*u) du over [0, inf) is j!/z^(j+1)
        inner = sum(
            math.comb(p, j) * lo ** (p - j) * (math.factorial(j) / z ** (j + 1))
            for j in range(p + 1)
        )
    else:
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
    prefactor, for 0 <= z <= a.

    DLMF 8.7.1 (Kummer's transformation of 8.5.1): the sum of
    z^k / (a (a+1) ... (a+k)).  Every term is positive and the ratio of
    successive terms is below 1, so nothing cancels.
    """
    acc = term = 1.0 / a
    k = 1
    while term > 1e-17 * acc:
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
    """
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) <= 1e-16:
            break
    return frac


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
        # Kummer form (DLMF 13.2): integral over [0, x] of t^p e^{c t} dt
        # equals x^{p+1}/(p+1) * 1F1(p+1; p+2; c x) for c = -s > 0.
        from scipy.special import hyp1f1

        def kummer(x: float) -> float:
            return x ** (p + 1) / (p + 1) * float(hyp1f1(p + 1, p + 2, -s * x))

        return kummer(hi) - kummer(lo)
    # On one side of the transition point s*x = p+1 the regularised gammas
    # underflow where Gamma(p+1)/s^(p+1) overflows, so go without them.
    if s * hi <= p + 1 or s * lo >= p + 1:
        return _gamma_difference(p, s, lo, hi)
    from scipy.special import gammainc, gammaincc

    # across it: Gamma(p+1)/s^(p+1) times a difference of regularised gammas
    if math.isinf(hi):
        share = float(gammaincc(p + 1, s * lo))
    else:
        share = float(gammainc(p + 1, s * hi) - gammainc(p + 1, s * lo))
    if share <= 0.0:
        return 0.0
    return math.exp(math.lgamma(p + 1) - (p + 1) * math.log(s) + math.log(share))


def _real_power_exp(p: float, s: float, lo: float, hi: float) -> float:
    """integral of x^p * exp(-s*x) dx over [lo, hi], real p > -1, s real."""
    if math.isinf(hi) and s <= 0.0:
        raise NonIntegrableTail("tail without decay does not converge")
    try:
        value = _real_power_exp_value(p, s, lo, hi)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DivergentTransform(
            f"integral of x^{p} exp({-s} x) over [{lo}, {hi}] overflows a float"
        )
    return value


def power_exp_integral(
    p: float, sigma: float, freq: float, lo: float, hi: float
) -> complex:
    """integral of x^p * exp(-sigma*x) * exp(i*freq*x) dx over [lo, hi].

    The caller takes .real for a cosine factor and .imag for a sine factor.
    Non-integer powers are only supported with freq == 0.  Raises
    NonIntegrableTail when hi is infinite and the integral diverges, and
    DivergentTransform when a finite integral overflows a float.
    """
    if hi < lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    if hi == lo:
        return 0.0
    if float(p).is_integer() and p >= 0:
        z = complex(sigma, -freq)
        return _integer_power_exp(int(p), z, lo, hi)
    if freq != 0.0:
        raise ValueError("oscillatory terms require integer powers")
    return complex(_real_power_exp(p, sigma, lo, hi))
