"""The non-integer-power integral kernel against exact mpmath formulas.

For real p > -1 the kernel integrates x^p exp(-s x) over [lo, hi].  The
oracle evaluates the exact antiderivatives at 60 digits:

- s > 0: a difference of non-regularised incomplete gamma functions,
  lower ones before the transition point s*lo = p+1 and upper ones past
  it, so the oracle itself never cancels away its digits.  (The
  three-argument mp.gammainc(a, x1, x2) is not used: at 30 and 50 digits
  it returned 0.0 and 1.9429e-54 for an integral equal to 1.94229e-54.)
- s = 0: the power antiderivative.
- s < 0: the Kummer form x^(p+1)/(p+1) * 1F1(p+1; p+2; -s x).

mp.quad is never the reference; it is unreliable on tiny values.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tauber import DivergentTransform, SignedMeasure, Term, laplace_transform
from tauber._integrals import _NARROW, _SERIES_CUTOFF, power_exp_integral

mp = pytest.importorskip("mpmath")

REL_TOL = 1e-12
FLOAT_MAX = mp.mpf(1.7976931348623157e308)


def exact(p: float, s: float, lo: float, hi: float):
    with mp.workdps(60):
        p, s, lo, hi = map(mp.mpf, (p, s, lo, hi))
        a = p + 1
        if s > 0 and s * lo >= a:
            return (mp.gammainc(a, s * lo) - mp.gammainc(a, s * hi)) / s**a
        if s > 0:
            return (mp.gammainc(a, 0, s * hi) - mp.gammainc(a, 0, s * lo)) / s**a
        if s == 0:
            return (hi**a - lo**a) / a

        def kummer(x):
            return x**a / a * mp.hyp1f1(a, a + 1, -s * x)

        return kummer(hi) - kummer(lo)


def assert_matches_oracle(p, s, lo, hi):
    want = exact(p, s, lo, hi)
    if abs(want) > FLOAT_MAX:
        with pytest.raises(DivergentTransform):
            power_exp_integral(p, s, 0.0, lo, hi)
        return
    got = power_exp_integral(p, s, 0.0, lo, hi)
    assert got.imag == 0.0
    assert abs((got.real - want) / want) <= REL_TOL, (got.real, want)


def test_upper_gamma_difference_past_the_transition_point():
    # both lower incomplete gammas round to 1 here; the old difference of
    # them returned 0.0
    got = power_exp_integral(0.5, 0.5, 0.0, 100.0, 300.0)
    assert got.real == pytest.approx(3.8956999740056e-21, rel=1e-12)
    assert_matches_oracle(0.5, 0.5, 100.0, 300.0)


def test_negative_argument_on_compact_support_uses_kummer_form():
    m = SignedMeasure.from_density((Term(1.0, 0.5, 0.0),), lo=100.0, hi=300.0)
    got = laplace_transform(m, -0.5)
    assert got == pytest.approx(4.81180424788637e66, rel=1e-12)
    assert abs((got - exact(0.5, -0.5, 100.0, 300.0)) / got) <= REL_TOL


def test_float_overflow_is_a_divergent_transform():
    m = SignedMeasure.from_density((Term(1.0, 0.5, 0.0),), lo=100.0, hi=3000.0)
    with pytest.raises(DivergentTransform):
        laplace_transform(m, -0.5)
    assert_matches_oracle(0.5, -0.5, 100.0, 3000.0)


@pytest.mark.parametrize("nudge", [1 - 1e-12, 1.0, 1 + 1e-12])
@pytest.mark.parametrize("knob,p,s,lo,hi", [
    # (hi - lo) / lo at the narrow-interval switch
    ("hi", 1.5, 0.04, 40.0, 40.0 + _NARROW * 40.0),
    ("hi", -0.5, -0.04, 40.0, 40.0 + _NARROW * 40.0),
    ("hi", 3.25, 0.0, 40.0, 40.0 + _NARROW * 40.0),
    # |s| * (hi - lo) at the series cutoff, inside the narrow width
    ("s", 1.5, _SERIES_CUTOFF / 5.0, 40.0, 45.0),
    ("s", 2.75, -_SERIES_CUTOFF / 5.0, 40.0, 45.0),
    # s * lo at the transition point p + 1
    ("lo", 1.5, 0.5, 5.0, 9.0),
    ("lo", 0.25, 2.0, 0.625, 3.0),
])
def test_branch_boundaries(knob, p, s, lo, hi, nudge):
    args = {"p": p, "s": s, "lo": lo, "hi": hi}
    if knob == "hi":
        args["hi"] = lo + (hi - lo) * nudge
    else:
        args[knob] *= nudge
    assert_matches_oracle(**args)


def magnitudes(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@given(
    p=st.floats(-0.95, 8.0).filter(lambda p: not p.is_integer()),
    s=st.one_of(
        st.just(0.0),
        st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes(-4, 1.3)).map(
            lambda t: t[0] * t[1]),
    ),
    lo=st.one_of(st.just(0.0), magnitudes(-4, 3)),
    width=magnitudes(-6, 3),
)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_exact_oracle(p, s, lo, width):
    hi = lo + width
    assume(hi > lo)
    assume(abs(exact(p, s, lo, hi)) >= 1e-290)  # skip subnormal results
    assert_matches_oracle(p, s, lo, hi)
