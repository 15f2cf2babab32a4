"""Laplace transforms: closed forms, the three-tier total-variation
transform, the tilt identity, and exact mpmath references for both.

Frozen oracles
--------------
The two absolute-transform reference values for the density
x*(1/2 + cos x) on [0, inf) are the exact periodic sum
M1/(1-q) + 2 pi M0 q/(1-q)^2, q = e^(-2 pi lam), with the one-period
moments M0, M1 of |1/2 + cos x| * x * e^(-lam x) taken by mpmath quad at
40 digits; `mpmath_abs_transform` gives the same digits:

    lam = 1.0   ->  0.69410999517693698015
    lam = 0.01  ->  7179.29101572973866427

Both match this package's closed-form periodic tier to ~2e-16 relative.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

import tauber
from tauber import (
    DensitySegment,
    DivergentTransform,
    Expression,
    MeasureError,
    SignChangeIsolationFailure,
    SignedMeasure,
    Term,
    TransformValue,
    abs_transform,
    envelope_transform,
    laplace_transform,
    tilt_identity_residual,
    total_variation,
)
from tauber._integrals import NonIntegrableTail, power_exp_integral
from tests.conftest import (
    N_PROPERTY_CASES,
    mpmath_abs_transform,
    mpmath_laplace_transform,
    random_measure,
    worked_oscillatory_measure,
)

ABS_ORACLE = {1.0: 0.69410999517693698015, 0.01: 7179.29101572973866427}


# ---------------------------------------------------------------------------
# the closed-form integral kernel
# ---------------------------------------------------------------------------

def quad_reference(p, sigma, freq, lo, hi, part):
    f = {
        "cos": lambda x: x**p * math.exp(-sigma * x) * math.cos(freq * x),
        "sin": lambda x: x**p * math.exp(-sigma * x) * math.sin(freq * x),
    }[part]
    val, err = scipy.integrate.quad(f, lo, hi, limit=400)
    return val, err


@pytest.mark.parametrize("p,sigma,freq,lo,hi", [
    (0.0, 1.0, 0.0, 0.0, 5.0),
    (2.0, 0.5, 0.0, 0.0, 20.0),
    (1.0, 1.0, 2.0, 0.0, 10.0),
    (3.0, 0.25, 1.0, 2.0, 30.0),
    (0.0, 2.0, 5.0, 0.0, 4.0),
    (2.0, 1e-4, 1.0, 0.0, 3.0),     # series regime: |z| * width << 1
    (1.0, 0.0, 1.0, 1.0, 9.0),      # pure oscillation, no damping
    (0.5, 1.0, 0.0, 0.0, 8.0),     # fractional power, plain
    (1.7, 0.3, 0.0, 0.5, 12.0),
])
def test_power_exp_integral_against_quadrature(p, sigma, freq, lo, hi):
    z = power_exp_integral(p, sigma, freq, lo, hi)
    for part, got in (("cos", z.real), ("sin", z.imag)):
        if freq == 0.0 and part == "sin":
            continue
        want, err = quad_reference(p, sigma, freq, lo, hi, part)
        assert got == pytest.approx(want, rel=1e-9, abs=max(1e-11, 10 * err))


def test_power_exp_integral_unbounded_tail():
    # integral over [lo, inf) of x^p e^{-sigma x} e^{i freq x}
    z = power_exp_integral(2.0, 1.0, 0.0, 0.0, math.inf)
    assert z.real == pytest.approx(2.0, rel=1e-13)  # Gamma(3)
    z = power_exp_integral(0.0, 0.5, 1.0, 0.0, math.inf)
    # 1/(z) with z = 0.5 - i: real part 0.5/1.25, imag 1/1.25
    assert z.real == pytest.approx(0.4, rel=1e-13)
    assert z.imag == pytest.approx(0.8, rel=1e-13)


def test_power_exp_integral_divergent_raises():
    with pytest.raises(NonIntegrableTail):
        power_exp_integral(1.0, 0.0, 0.0, 0.0, math.inf)


def test_divergent_integral_raises_a_package_error():
    with pytest.raises(MeasureError) as info:
        Expression((Term(1.0),)).integral(0.0, math.inf)
    assert type(info.value) is NonIntegrableTail is tauber.NonIntegrableTail
    assert isinstance(info.value, ArithmeticError)


# ---------------------------------------------------------------------------
# signed transform closed forms
# ---------------------------------------------------------------------------

def test_transform_of_atoms():
    m = SignedMeasure.point_mass(1.0, 2.0) - SignedMeasure.point_mass(3.0, 0.5)
    for lam in (0.1, 1.0, 4.0):
        want = 2.0 * math.exp(-lam) - 0.5 * math.exp(-3 * lam)
        assert laplace_transform(m, lam) == pytest.approx(want, rel=1e-15)


def test_transform_of_exponential_density():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),), lo=0.0)
    for lam in (0.25, 1.0, 5.0):
        assert laplace_transform(m, lam) == pytest.approx(1 / (1 + lam), rel=1e-13)


def test_transform_worked_identity_spot():
    m = worked_oscillatory_measure()
    for tau in (0.01, 0.1, 1.0, 3.0, 10.0):
        want = (3 * tau**4 + 1) / (2 * (tau**3 + tau) ** 2)
        assert laplace_transform(m, tau) == pytest.approx(want, rel=1e-12)


def test_transform_divergence_guard():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 0.0),), lo=0.0)
    assert laplace_transform(m, 0.5) == pytest.approx(2.0)
    with pytest.raises(DivergentTransform):
        laplace_transform(m, 0.0)
    tilted = SignedMeasure.from_density((Term(1.0, 0.0, 0.3),), lo=0.0)
    with pytest.raises(DivergentTransform):
        laplace_transform(tilted, -0.3)


def test_transform_at_zero_is_total_mass_when_damped():
    m = SignedMeasure.from_density((Term(2.0, 0.0, 1.0),), lo=0.0)
    assert laplace_transform(m, 0.0) == pytest.approx(2.0, rel=1e-13)


def test_transform_matches_mpmath_reference(rng):
    for _ in range(25):
        m = random_measure(rng)
        for lam in (0.3, 1.0, 2.7):
            got, ref = laplace_transform(m, lam), mpmath_laplace_transform(m, lam)
            assert abs(got - ref) <= 1e-12 * envelope_transform(m, lam), (m, lam)


# ---------------------------------------------------------------------------
# total-variation transform, three tiers
# ---------------------------------------------------------------------------

def test_abs_transform_exact_tier_matches_jordan():
    m = SignedMeasure.point_mass(1.0) - 0.5 * SignedMeasure.point_mass(2.0)
    tv = total_variation(m)
    for lam in (0.2, 1.0, 3.0):
        got = abs_transform(m, lam)
        assert got.error_bound == 0.0
        assert got.value == pytest.approx(laplace_transform(tv, lam), rel=1e-15)


def test_abs_transform_periodic_tier_frozen_oracle():
    m = worked_oscillatory_measure()
    for lam, want in ABS_ORACLE.items():
        got = abs_transform(m, lam)
        assert got.value == pytest.approx(want, rel=1e-15)
        assert got.error_bound <= 1e-12 * want


def test_abs_transform_periodic_tier_near_the_float_range():
    # 1e-10 x |sin(2 pi x)| e^(-lam x): the mean of |sin| is 2/pi, so the
    # transform is (2/pi) 1e-10 / lam^2 to rounding; its series's
    # (1 - q)^2 is subnormal here, yet the value fits and is returned
    m = SignedMeasure.from_density([Term(1e-10, 1.0, 0.0, "sin", 2.0 * math.pi)])
    lam = 8e-155
    assert abs_transform(m, lam).value == pytest.approx(2e-10 / math.pi / lam**2, rel=1e-12)
    # at 1e-300 the series's (1 - q)^3 underflows to 0: the value, about
    # 1e900, overflows, which is DivergentTransform, never +inf
    m = SignedMeasure.from_density([Term(1.0, 2.0, 0.0, "sin", 1e-9)], 1e6)
    with pytest.raises(DivergentTransform, match="overflows"):
        abs_transform(m, 1e-300)


@pytest.mark.parametrize("numpy_paths", [True, False], ids=["numpy", "scalar"])
def test_norm_raises_typed_error_when_the_run_integrals_overflow(numpy_paths, monkeypatch):
    # 1e300 x^5 sin x on [0, 1000]: each sign run holds about 1e315, past
    # the float range, as are the density's values; the sampler and root
    # finder that a process without numpy takes must give the same error
    m = SignedMeasure.from_density([Term(1e300, 5.0, 0.0, "sin", 1.0)], 0, 1000)
    if not numpy_paths:
        monkeypatch.setattr(tauber.decomposition, "_array_brackets",
                            tauber.decomposition._scalar_brackets)
        monkeypatch.setattr(tauber.decomposition, "ARRAY_BISECT_MIN", 10**9)
    with pytest.raises(DivergentTransform, match="overflows"):
        m.norm()


def incommensurable_density(rng):
    """2 or 3 oscillatory terms with one decay, powers 0 or 1 and random
    frequencies: no tail certificate and no period, so `abs_transform`
    takes the truncated sign-run tier."""
    decay = float(rng.uniform(0.3, 1.5))
    return tuple(
        Term(float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0])),
             float(rng.integers(0, 2)), decay, str(rng.choice(["cos", "sin"])),
             float(rng.uniform(0.3, 3.0)))
        for _ in range(int(rng.integers(2, 4)))
    )


def test_abs_transform_truncated_tier_matches_mpmath(rng):
    # the mixed decays of the first measure also defeat both exact tiers
    cases = [((Term(1.0, 0.0, 0.5, "cos", 1.0), Term(0.5, 1.0, 1.0, "sin", 2.0)), 1.0)]
    cases += [(incommensurable_density(rng), float(rng.uniform(0.3, 3.0))) for _ in range(12)]
    for terms, lam in cases:
        m = SignedMeasure.from_density(terms)
        got = abs_transform(m, lam)
        assert 0.0 < got.error_bound <= 0.5 * tauber.transforms.ABS_TOL, (terms, lam)
        ref = float(mpmath_abs_transform(m, lam))
        assert abs(got.value - ref) <= got.error_bound + 1e-14 * got.value, (terms, lam)


def test_abs_transform_raises_when_a_bounded_segment_is_too_long_to_isolate():
    # 2000 units at frequency 1e4 need ~2.5e7 samples, above MAX_SAMPLES
    seg = DensitySegment(0.0, 2000.0, Expression((Term(1.0, 0.0, 0.0, "cos", 1e4),)))
    with pytest.raises(SignChangeIsolationFailure, match="too long"):
        abs_transform(SignedMeasure(segments=(seg,)), 1.0)


def test_abs_transform_raises_when_the_truncation_window_is_too_long_to_isolate():
    # barely damped, incommensurable and fast: no certificate, no period,
    # and the window [0, T] needs more than MAX_SAMPLES samples
    m = SignedMeasure.from_density((
        Term(1.0, 0.0, 0.01, "cos", 1e3), Term(1.0, 0.0, 0.01, "sin", 1e3 * math.sqrt(2.0)),
    ))
    (seg,) = m.segments
    assert tauber.decomposition.periodic_tail_structure(seg) is None
    with pytest.raises(SignChangeIsolationFailure, match="too long"):
        abs_transform(m, 0.01)


def test_abs_transform_at_a_huge_argument_takes_bounded_time():
    # the non-integer term's continued fraction ran its 100,000-step cap on
    # each of ~32,000 sign runs: 90 s for a transform that underflows to 0
    m = SignedMeasure.from_density(
        (Term(-0.2, 2.7), Term(-1.0, 5.0, 0.0, "cos", 50.0)), lo=1.0, hi=1001.0)
    started = time.perf_counter()
    assert abs_transform(m, 1e300) == TransformValue(0.0, 0.0)
    assert time.perf_counter() - started < 1.0


def test_abs_transform_infinite_for_undamped_tail_at_zero():
    m = worked_oscillatory_measure()
    assert abs_transform(m, 0.0).value == math.inf
    assert m.norm() == math.inf


def test_norm_finite_when_tail_decays():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),), lo=0.0)
    assert m.norm() == pytest.approx(1.0, rel=1e-12)
    s = SignedMeasure.point_mass(1.0) - 0.5 * SignedMeasure.point_mass(2.0)
    assert s.norm() == pytest.approx(1.5, rel=1e-15)


def test_abs_transform_dominates_signed_and_is_dominated_by_envelope(rng):
    checked = 0
    for _ in range(N_PROPERTY_CASES):
        m = random_measure(rng)
        for lam in (0.5, 1.5):
            psi = laplace_transform(m, lam)
            tv = abs_transform(m, lam).value
            env = envelope_transform(m, lam)
            assert abs(psi) <= tv * (1 + 1e-9) + 1e-12
            assert tv <= env * (1 + 1e-9) + 1e-12
        checked += 1
    assert checked == N_PROPERTY_CASES


# ---------------------------------------------------------------------------
# tilt identity
# ---------------------------------------------------------------------------

def test_tilt_identity_residual_is_rounding_level(rng):
    # both sides are closed forms evaluated through different routes, so the
    # residual is pure floating-point noise, orders below the 1e-10 contract
    for _ in range(30):
        m = random_measure(rng)
        eps = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(0.2, 3.0))
        scale = max(1.0, abs(laplace_transform(m, lam + eps)))
        assert tilt_identity_residual(m, eps, lam) <= 1e-12 * scale


def test_tilt_shifts_transform_argument(rng):
    for _ in range(40):
        m = random_measure(rng)
        eps = float(rng.uniform(0.1, 2.0))
        lam = float(rng.uniform(0.2, 3.0))
        lhs = laplace_transform(m.tilted(eps), lam)
        rhs = laplace_transform(m, lam + eps)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-14)


def test_tilt_semigroup(rng):
    for _ in range(30):
        m = random_measure(rng)
        a, b = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        assert m.tilted(a).tilted(b).isclose(m.tilted(a + b), rel=1e-12)


