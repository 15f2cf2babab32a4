"""Core measure algebra: construction, canonicalisation, interval masses,
distribution functions, the operation closure (tilt/scale/add/integrated
tail), the JSON wire format and the segment memos behind the queries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauber import (
    Atom,
    DensitySegment,
    DivergentTransform,
    Expression,
    SignedMeasure,
    Term,
    UnrepresentableDensity,
    abs_transform,
    envelope_transform,
    laplace_transform,
)

INF = math.inf


# ---------------------------------------------------------------------------
# term / expression construction rules
# ---------------------------------------------------------------------------

def test_term_normalises_zero_frequency_cos_to_plain():
    t = Term(2.0, 1.0, 0.5, "cos", 0.0)
    assert t.kind == "" and t.freq == 0.0 and t.coefficient == 2.0


def test_term_normalises_zero_frequency_sin_to_zero():
    t = Term(2.0, 1.0, 0.5, "sin", 0.0)
    assert t.coefficient == 0.0 and t.kind == ""


def test_term_negative_frequency_flips():
    c = Term(2.0, 1.0, 0.0, "cos", -3.0)
    assert c.freq == 3.0 and c.coefficient == 2.0  # cos is even
    s = Term(2.0, 1.0, 0.0, "sin", -3.0)
    assert s.freq == 3.0 and s.coefficient == -2.0  # sin is odd


def test_term_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Term(1.0, -1.0)  # power must stay integrable at 0
    with pytest.raises(ValueError):
        Term(1.0, 0.0, -0.1)  # decay must be >= 0
    with pytest.raises(UnrepresentableDensity):
        Term(1.0, 0.5, 0.0, "cos", 1.0)  # oscillation needs integer power


def test_expression_merges_like_terms_and_drops_zeros():
    e = Expression((Term(1.0, 2.0, 0.5), Term(2.0, 2.0, 0.5), Term(0.0, 1.0)))
    assert len(e.terms) == 1
    assert e.terms[0].coefficient == 3.0
    cancel = Expression((Term(1.5, 1.0), Term(-1.5, 1.0)))
    assert cancel.is_zero


def test_expression_evaluate_matches_direct_formula():
    e = Expression((Term(2.0, 1.0, 0.3), Term(-1.0, 0.0, 0.0, "sin", 2.0)))
    xs = np.linspace(0.0, 10.0, 201)
    want = 2.0 * xs * np.exp(-0.3 * xs) - np.sin(2.0 * xs)
    got = e.evaluate_array(xs)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    assert e.evaluate(3.7) == pytest.approx(2.0 * 3.7 * math.exp(-0.3 * 3.7)
                                            - math.sin(7.4), rel=1e-13)


def test_expression_evaluate_array_at_zero_without_warnings():
    xs = np.array([0.0, 0.5, 2.0])
    with np.errstate(all="raise"):
        assert Expression((Term(2.0, 1.5, 0.3),)).evaluate_array(xs)[0] == 0.0
        assert Expression((Term(2.0, 0.0, 0.3),)).evaluate_array(xs)[0] == 2.0
        assert Expression((Term(-2.0),)).evaluate_array(xs).tolist() == [-2.0] * 3
        assert Expression((Term(2.0, -0.5, 0.3),)).evaluate_array(xs)[0] == math.inf
        assert Expression((Term(-2.0, -0.5),)).evaluate_array(xs)[0] == -math.inf
        assert Expression((Term(1.0, 2.0, 0.0, "sin", 3.0),)).evaluate_array(xs)[0] == 0.0


@pytest.mark.parametrize("terms, want", [
    # 2x^-0.5 - x^-0.3 -> +inf: the most negative power decides
    ((Term(2.0, -0.5), Term(-1.0, -0.3)), math.inf),
    ((Term(-2.0, -0.5), Term(1.0, -0.3), Term(5.0)), -math.inf),
    # x^-0.5 (e^-x - 1) -> 0: a cancelled power defers to the next one
    ((Term(1.0, -0.5, 1.0), Term(-1.0, -0.5), Term(-1.0, -0.3)), -math.inf),
    # every negative power cancels: the other terms give the value
    ((Term(1.0, -0.5, 1.0), Term(-1.0, -0.5), Term(3.0), Term(2.0, 0.0, 0.0, "cos", 1.0)),
     5.0),
], ids=["opposite-signs", "negative-lead", "cancelled-lead", "all-cancelled"])
def test_expression_value_at_zero_with_negative_powers(terms, want):
    e = Expression(terms)
    with np.errstate(all="raise"):
        assert e.evaluate(0.0) == want
        got = e.evaluate_array(np.array([0.0, 0.5, 0.0]))
        assert got[0] == got[2] == want
        assert got[1] == e.evaluate(0.5)
        assert float(e.evaluate_array(0.0)) == want


@given(st.floats(0.1, 3.0), st.integers(0, 3), st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_expression_scale_then_evaluate_consistent(c, k, a):
    e = Expression((Term(c, float(k), a),))
    s = e.scale(2.0)
    for x in (0.1, 1.0, 2.5):
        assert s.evaluate(x) == pytest.approx(2.0 * e.evaluate(x), rel=1e-12)


# ---------------------------------------------------------------------------
# interval masses and the infinite-mass convention
# ---------------------------------------------------------------------------

def test_atom_interval_endpoint_conventions():
    m = SignedMeasure.point_mass(1.0, 2.0)
    # intervals are (a, b] except at the origin where the atom at 0 counts
    assert m.interval(0.0, 1.0) == 2.0
    assert m.interval(1.0, 2.0) == 0.0
    assert m.interval(0.5, 1.0) == 2.0
    zero_atom = SignedMeasure.point_mass(0.0, 3.0)
    assert zero_atom.interval(0.0, 1.0, include_left=True) == 3.0
    assert zero_atom.interval(0.0, 1.0) == 0.0


def test_density_interval_closed_form():
    # x dx on [0, 2]: mass of (a, b] is (b^2 - a^2)/2
    m = SignedMeasure.from_density((Term(1.0, 1.0),), lo=0.0, hi=2.0)
    assert m.interval(0.0, 2.0) == pytest.approx(2.0)
    assert m.interval(0.5, 1.5) == pytest.approx((1.5**2 - 0.5**2) / 2)
    assert m.interval(2.0, 10.0) == 0.0


def test_nondecaying_unbounded_tail_has_infinite_mass():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 0.0),), lo=0.0)
    assert m.interval(0.0, INF) == INF
    assert m.interval(5.0, INF) == INF
    # bounded window of the same measure stays finite
    assert m.interval(0.0, 7.0) == pytest.approx(7.0)


def test_decaying_unbounded_tail_has_finite_mass():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),), lo=0.0)
    assert m.interval(0.0, INF) == pytest.approx(1.0)
    assert m.interval(math.log(2.0), INF) == pytest.approx(0.5)


def test_distribution_function_conventions():
    m = SignedMeasure.point_mass(1.0) + SignedMeasure.from_density(
        (Term(1.0, 0.0),), lo=0.0, hi=1.0)
    assert m.distribution(0.0) == 0.0
    assert m.distribution(0.5) == pytest.approx(0.5)
    assert m.distribution(1.0) == pytest.approx(2.0)   # atom included at x
    assert m.distribution(3.0) == pytest.approx(2.0)


def test_distribution_is_right_continuous_at_atoms():
    m = SignedMeasure.point_mass(2.0, -1.5)
    assert m.distribution(2.0) == pytest.approx(-1.5)
    assert m.distribution(np.nextafter(2.0, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# algebra: addition, negation, scaling, tilting, restriction
# ---------------------------------------------------------------------------

def test_add_merges_atoms_and_splits_overlapping_segments():
    a = SignedMeasure.from_density((Term(1.0, 0.0),), lo=0.0, hi=2.0)
    b = SignedMeasure.from_density((Term(1.0, 1.0),), lo=1.0, hi=3.0)
    s = a + b
    # three disjoint pieces: [0,1], [1,2], [2,3]
    assert len(s.segments) == 3
    assert s.interval(0.0, 3.0) == pytest.approx(2.0 + (9.0 - 1.0) / 2.0)
    assert s.interval(1.0, 2.0) == pytest.approx(1.0 + (4.0 - 1.0) / 2.0)


def test_add_cancels_to_zero():
    m = SignedMeasure.point_mass(1.0, 2.0) + SignedMeasure.from_density(
        (Term(0.5, 1.0, 0.2),), lo=0.0, hi=4.0)
    z = m + (-m)
    assert z.is_zero
    assert (m - m).is_zero


def test_scalar_multiplication():
    m = SignedMeasure.point_mass(1.0, 2.0)
    assert (3.0 * m).interval(0.0, 2.0) == pytest.approx(6.0)
    assert (m * -1.0).interval(0.0, 2.0) == pytest.approx(-2.0)


def test_tilt_moves_mass_continuously(rng):
    for _ in range(20):
        x = float(rng.uniform(0.1, 4.0))
        w = float(rng.uniform(0.2, 2.0))
        m = SignedMeasure.point_mass(x, w)
        t = m.tilted(0.7)
        assert t.interval(0.0, 6.0) == pytest.approx(w * math.exp(-0.7 * x))


def test_tilt_rejects_negative_rate():
    with pytest.raises(ValueError):
        SignedMeasure.point_mass(1.0).tilted(-0.1)


def test_scaled_pushforward_masses():
    # nu(A) = mu(t*A)/c: total mass divides by c, locations divide by t
    m = SignedMeasure.point_mass(2.0, 3.0)
    s = m.scaled(4.0, 1.5)
    assert s.atoms[0].location == pytest.approx(0.5)
    assert s.interval(0.0, 1.0) == pytest.approx(2.0)
    # density case: mass over the matching window must agree
    d = SignedMeasure.from_density((Term(1.0, 1.0, 0.5),), lo=0.0, hi=8.0)
    sd = d.scaled(4.0, 1.5)
    assert sd.interval(0.0, 2.0) == pytest.approx(d.interval(0.0, 8.0) / 1.5)
    assert sd.interval(0.25, 1.0) == pytest.approx(d.interval(1.0, 4.0) / 1.5)


def test_scaled_raises_typed_error_on_coefficient_overflow():
    # the density x^6 on [0, 1] rescaled by 1e300 needs a coefficient 1e2100
    m = SignedMeasure.from_density([Term(1.0, 6.0)], 0, 1)
    with pytest.raises(UnrepresentableDensity, match="overflows"):
        m.scaled(1e300, 1.0)


@pytest.mark.parametrize("m, t, c, field", [
    (SignedMeasure.from_density([Term(1.0, 0.0)], 0, 1), 1e300, 1e-300, "coefficient"),
    (SignedMeasure.from_density([Term(1.0, 0.0), Term(1.0, 0.0, 0.0, "cos", 1e10)], 0, 1),
     1e300, 1.0, "frequency"),
    (SignedMeasure.from_density([Term(1.0, 0.0, 1e10)], 0, 1), 1e300, 1.0, "decay"),
    (SignedMeasure.from_density([Term(1.0)], 0, 1e10), 1e-300, 1.0, "segment end"),
    (SignedMeasure.point_mass(1e10), 1e-300, 1.0, "atom location"),
    (SignedMeasure.point_mass(1.0, 1e10), 1.0, 1e-300, "atom weight"),
], ids=["coefficient", "frequency", "decay", "segment-end", "atom-location", "atom-weight"])
def test_scaled_raises_typed_error_on_every_field_overflow(m, t, c, field):
    # each rescaled field past the float range: a product or quotient that
    # rounds to inf, which `Term` and `Atom` would refuse as a ValueError
    with pytest.raises(UnrepresentableDensity, match=f"overflows an? {field}"):
        m.scaled(t, c)


def test_restricted_drops_everything_above_cutoff():
    density = (Term(1.0, 0.0, 0.5),)
    m = (SignedMeasure.point_mass(1.0) + SignedMeasure.point_mass(3.0)
         + SignedMeasure.from_density(density, lo=0.0))
    # m restricted to [0, 2], built from its parts
    r = (SignedMeasure.point_mass(1.0)
         + SignedMeasure.from_density(density, lo=0.0, hi=2.0))
    assert r.interval(0.0, 2.0) == pytest.approx(m.interval(0.0, 2.0))
    assert r.interval(2.0, INF) == 0.0


def test_integrated_tail_of_exponential():
    # mu = e^{-x} dx on [0,inf) has F(t) = 1 - e^{-t}; the integrated measure
    # carries density F(t) from `start` on, so its interval masses are
    # integral of (1 - e^{-t})
    m = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),), lo=0.0)
    xi = m.integrated_tail(1.0)
    assert xi.interval(0.0, 1.0) == 0.0
    for a, b in ((1.0, 2.0), (1.5, 4.0)):
        want = (b - a) + math.exp(-b) - math.exp(-a)
        assert xi.interval(a, b) == pytest.approx(want, rel=1e-12)


def test_integrated_tail_of_atom_is_step_density():
    # mu = delta_2: F jumps 0 -> 1 at t = 2, so the integrated measure is
    # Lebesgue on [2, inf) and nothing before
    m = SignedMeasure.point_mass(2.0)
    xi = m.integrated_tail(1.0)
    assert xi.interval(1.0, 2.0) == pytest.approx(0.0)
    assert xi.interval(2.0, 5.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        m.integrated_tail(0.0)


def test_integrated_tail_raises_typed_error_past_the_float_range():
    # the antiderivative's x^41 e^(-x/2) term at the start 1e300: x**41
    # overflows before e^(-x/2) underflows
    m = SignedMeasure.from_density([Term(-1.0, 40.0, 0.5), Term(-1.0, 6.0, 0.5)], 1e6)
    with pytest.raises(UnrepresentableDensity, match="float range"):
        m.integrated_tail(1e300)


# ---------------------------------------------------------------------------
# antiderivatives (used by the exact hat integrals downstream)
# ---------------------------------------------------------------------------

def test_antiderivative_matches_numeric_derivative():
    e = Expression((Term(1.0, 2.0, 0.7), Term(0.5, 1.0, 0.0, "cos", 2.0)))
    F = e.antiderivative()
    h = 1e-6
    for x in (0.3, 1.1, 2.9, 4.2):
        num = (F.evaluate(x + h) - F.evaluate(x - h)) / (2 * h)
        assert num == pytest.approx(e.evaluate(x), rel=1e-7, abs=1e-7)


def test_antiderivative_power_rule_plain_polynomial():
    e = Expression((Term(3.0, 2.0),))
    F = e.antiderivative()
    assert F.evaluate(2.0) - F.evaluate(0.0) == pytest.approx(8.0)


def test_antiderivative_rejects_fractional_power_with_decay():
    e = Expression((Term(1.0, 0.5, 1.0),))
    with pytest.raises(UnrepresentableDensity):
        e.antiderivative()


# ---------------------------------------------------------------------------
# equality and the wire format
# ---------------------------------------------------------------------------

def test_isclose_detects_equal_and_different():
    a = SignedMeasure.point_mass(1.0, 1.0)
    b = SignedMeasure.point_mass(1.0, 1.0 + 1e-12)
    c = SignedMeasure.point_mass(1.0, 1.01)
    assert a.isclose(b)
    assert not a.isclose(c)


def test_wire_format_round_trip(rng):
    from tests.conftest import random_measure
    for _ in range(40):
        m = random_measure(rng)
        again = SignedMeasure.from_dict(m.to_dict())
        assert m.isclose(again, rel=0.0, abs_tol=0.0)


def test_wire_format_shape():
    m = SignedMeasure.point_mass(0.5) + SignedMeasure.from_density(
        (Term(1.0, 1.0, 0.0, "cos", 2.0),), lo=0.0)
    d = m.to_dict()
    assert d["atoms"] == [{"x": 0.5, "w": 1.0}]
    (seg,) = d["segments"]
    assert seg["lo"] == 0.0 and seg["hi"] is None
    assert seg["terms"] == [{"c": 1.0, "k": 1.0, "a": 0.0, "osc": {"cos": 2.0}}]


def test_canonical_form_is_order_independent():
    t1 = Term(1.0, 1.0, 0.5)
    t2 = Term(2.0, 0.0, 0.0, "sin", 1.0)
    assert Expression((t1, t2)) == Expression((t2, t1))
    a = SignedMeasure.point_mass(1.0) + SignedMeasure.point_mass(2.0)
    b = SignedMeasure.point_mass(2.0) + SignedMeasure.point_mass(1.0)
    assert a == b


# ---------------------------------------------------------------------------
# segment memos: each segment keeps the integrals it computed
# ---------------------------------------------------------------------------

def memo_measure():
    # an atom, a bounded segment with two sign changes and a decaying tail
    return SignedMeasure(
        atoms=(Atom(0.5, 2.0),),
        segments=(
            DensitySegment(0.0, 10.0, Expression((Term(1.0, 0.0, 0.0, "cos", 1.0),))),
            DensitySegment(10.0, INF, Expression((Term(1.0, 1.0, 0.5),))),
        ),
    )


@pytest.mark.parametrize("query", [
    lambda m: m.distribution(3.0),
    lambda m: m.interval(1.0, INF),
    lambda m: laplace_transform(m, 0.7),
    lambda m: abs_transform(m, 0.7),
    lambda m: m.norm(),
], ids=["distribution", "interval", "laplace", "abs", "norm-value"])
def test_repeat_query_on_the_same_measure_makes_no_kernel_call(kernel_calls, query):
    m = memo_measure()
    first = query(m)
    made = len(kernel_calls)
    assert made > 0
    assert query(m) == first
    assert len(kernel_calls) == made
    assert query(memo_measure()) == first  # the memo belongs to the segment objects
    assert len(kernel_calls) == 2 * made


def test_memo_keys_on_the_values_the_computation_uses(kernel_calls):
    m = memo_measure()
    assert laplace_transform(m, 1) == laplace_transform(m, np.float64(1.0))
    assert m.distribution(np.float64(3.0)) == m.distribution(3)
    made = len(kernel_calls)
    laplace_transform(m, 1.0)
    m.interval(0.0, 3.0, include_left=1)
    assert len(kernel_calls) == made
    laplace_transform(m, 2.0)  # another lam is another integral
    assert len(kernel_calls) > made


def test_a_query_reuses_the_integrals_another_query_computed(kernel_calls):
    m = memo_measure()  # one term per segment: one kernel call per integral
    m.distribution(20.0)  # [0, 10) and [10, 20]
    assert len(kernel_calls) == 2
    assert m.interval(0.0, 20.0) == m.distribution(20.0)  # the atom sits at 0.5
    assert len(kernel_calls) == 2
    m.interval(5.0, 10.0)
    m.interval(5.0, 30.0)  # (5, 10) again, and (10, 30)
    assert len(kernel_calls) == 4
    laplace_transform(m, 0.0)  # [0, 10) again, and [10, inf)
    assert len(kernel_calls) == 5


def test_errors_are_raised_on_every_call_and_never_stored():
    flat = SignedMeasure.from_density((Term(1.0),), lo=0.0)  # undamped tail
    m = memo_measure()
    for _ in range(3):
        with pytest.raises(DivergentTransform):
            laplace_transform(flat, 0.0)
        with pytest.raises(ValueError):
            m.interval(2.0, 1.0)
        with pytest.raises(ValueError):
            m.distribution(-1.0)
    assert all(seg._memo is None for seg in flat.segments + m.segments)
    assert laplace_transform(flat, 1.0) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("transform", [laplace_transform, abs_transform, envelope_transform])
def test_nan_lam_is_refused_on_every_call_before_the_memo(transform):
    # a NaN key is unequal to itself: a stored one would be a new entry per call
    m = memo_measure()
    for _ in range(3):
        with pytest.raises(ValueError, match="NaN"):
            transform(m, math.nan)
    assert all(seg._memo is None for seg in m.segments)


def test_filled_segment_memos_leave_equality_hash_repr_and_wire_format_alone():
    m, fresh = memo_measure(), memo_measure()
    m.distribution(3.0)
    laplace_transform(m, 0.7)
    abs_transform(m, 0.7)
    assert all(seg._memo for seg in m.segments)
    assert all(seg._memo is None for seg in fresh.segments)
    assert not hasattr(m, "_memo")  # a measure keeps nothing of its own
    assert m == fresh
    assert hash(m) == hash(fresh)
    assert repr(m) == repr(fresh)
    assert m.to_dict() == fresh.to_dict()
