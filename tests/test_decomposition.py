"""Sign-run isolation, Jordan decomposition, total variation, and the
periodic-tail structure detector."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauber import (
    DensitySegment,
    Expression,
    SignChangeIsolationFailure,
    SignedMeasure,
    Term,
    certified_nonnegative,
    eventual_sign,
    jordan,
    periodic_tail_structure,
    sign_runs,
    total_variation,
)
from tauber import decomposition
from tauber.decomposition import _bisect_root, _bisect_roots
from tests.conftest import N_PROPERTY_CASES, random_measure

PI = math.pi


# ---------------------------------------------------------------------------
# sign runs on bounded segments
# ---------------------------------------------------------------------------

def test_sign_runs_locates_cosine_roots():
    seg = DensitySegment(0.0, 1.5 * PI, Expression((Term(1.0, 0.0, 0.0, "cos", 1.0),)))
    runs = sign_runs(seg)
    assert [r.sign for r in runs] == [1, -1]
    assert runs[0].hi == pytest.approx(PI / 2, abs=1e-12)
    assert runs[1].lo == pytest.approx(PI / 2, abs=1e-12)


def test_sign_runs_worked_density_roots():
    # 1/2 + cos x vanishes at 2*pi/3 and 4*pi/3; the x factor never flips sign
    expr = Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0)))
    seg = DensitySegment(0.0, 2 * PI, expr)
    runs = sign_runs(seg)
    assert [r.sign for r in runs] == [1, -1, 1]
    assert runs[0].hi == pytest.approx(2 * PI / 3, abs=1e-12)
    assert runs[1].hi == pytest.approx(4 * PI / 3, abs=1e-12)


def test_sign_runs_single_sign_segment():
    seg = DensitySegment(1.0, 4.0, Expression((Term(-2.0, 1.0, 0.3),)))
    runs = sign_runs(seg)
    assert len(runs) == 1
    assert runs[0].sign == -1
    assert (runs[0].lo, runs[0].hi) == (1.0, 4.0)


def test_sign_runs_tangency_does_not_flip():
    # (cos x + 1) touches zero at pi without changing sign
    seg = DensitySegment(0.0, 2 * PI,
                         Expression((Term(1.0, 0.0, 0.0, "cos", 1.0), Term(1.0))))
    runs = sign_runs(seg)
    assert all(r.sign == 1 for r in runs)


# ---------------------------------------------------------------------------
# batched bisection against the scalar reference
# ---------------------------------------------------------------------------

def cosine_density(c_ratio, amp, freq, phase):
    """c + amp*cos(freq*x + phase) with c = c_ratio*amp, as three terms."""
    return Expression((
        Term(c_ratio * amp),
        Term(amp * math.cos(phase), 0.0, 0.0, "cos", freq),
        Term(-amp * math.sin(phase), 0.0, 0.0, "sin", freq),
    ))


def grid_brackets(expr, lo, hi, cells):
    """Sign-change brackets (a, b, f(a)) of expr on a uniform grid."""
    xs = np.linspace(lo, hi, cells + 1)
    vals = expr.evaluate_array(xs)
    i = np.flatnonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))
    return xs[i], xs[i + 1], vals[i]


def assert_batched_equals_scalar(expr, a, b, fa):
    want = [_bisect_root(expr, float(u), float(v), float(f)) for u, v, f in zip(a, b, fa)]
    assert _bisect_roots(expr, a, b, fa).tolist() == want


@given(
    c_ratio=st.floats(-0.9, 0.9),
    amp=st.floats(0.1, 10.0),
    freq=st.floats(0.05, 50.0),
    phase=st.floats(0.0, 2 * PI),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
    count=st.one_of(st.integers(1, 40), st.integers(500, 600)),
)
@settings(max_examples=60, deadline=None)
def test_batched_bisection_is_bitwise_scalar_on_cosines(c_ratio, amp, freq, phase, lo, count):
    # two roots per period, at least 0.14 periods apart: 16 cells per
    # period bracket each one
    expr = cosine_density(c_ratio, amp, freq, phase)
    periods = count // 2 + 2
    a, b, fa = grid_brackets(expr, lo, lo + periods * 2 * PI / freq, 16 * periods)
    assert len(a) >= count
    assert_batched_equals_scalar(expr, a[:count], b[:count], fa[:count])


term_strategy = st.builds(
    Term,
    coefficient=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1),
    power=st.integers(0, 3).map(float),
    decay=st.just(0.0) | st.floats(0.0, 0.05),
    kind=st.sampled_from(["cos", "sin"]),
    freq=st.floats(0.3, 20.0),
)


@given(
    osc=st.lists(term_strategy, min_size=1, max_size=3),
    plain=st.floats(-3.0, 3.0),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    width=st.floats(1.0, 200.0),
)
@settings(max_examples=60, deadline=None)
def test_batched_bisection_is_bitwise_scalar_on_term_mixes(osc, plain, lo, width):
    expr = Expression((Term(plain, 1.0),) + tuple(osc))
    a, b, fa = grid_brackets(expr, lo, lo + width, 8000)
    assert_batched_equals_scalar(expr, a, b, fa)


class ScriptedLine:
    """f(x) = x - root, except at scripted points: `zeros` evaluate to 0.0
    on both paths, and at `flipped` points the array path returns the
    opposite sign, as a last-bit difference between the two sums can."""

    def __init__(self, root, zeros=(), flipped=()):
        self.root, self.zeros, self.flipped = root, set(zeros), set(flipped)

    def evaluate(self, x):
        return 0.0 if x in self.zeros else x - self.root

    def evaluate_array(self, xs):
        return np.array([-self.evaluate(x) if x in self.flipped else self.evaluate(x)
                         for x in xs.tolist()])

    def envelope(self):
        return Expression((Term(1.0),))


NUDGED = 0.75 + 0.25 * (1.0 - 0.5) * 1e-3  # first midpoint of (0.5, 1), nudged


@pytest.mark.parametrize("line", [
    ScriptedLine(0.8, zeros=[0.75]),  # exact zero, nudge resolves it
    ScriptedLine(0.8, zeros=[0.75, NUDGED]),  # double zero: the midpoint is the root
    ScriptedLine(0.625 + 1e-13, flipped=[0.625]),  # signs disagree near the root
], ids=["zero", "double-zero", "flipped-sign"])
def test_batched_bisection_takes_the_scalar_branches(line):
    a = np.array([0.5, 0.6, 0.1, 0.5])
    b = np.array([1.0, 0.9, 0.9, 1.0])
    fa = np.array([line.evaluate(x) for x in a])
    assert_batched_equals_scalar(line, a, b, fa)
    if len(line.zeros) == 2:
        assert _bisect_roots(line, a[:1], b[:1], fa[:1]).tolist() == [0.75]


def test_sign_runs_agree_on_both_sides_of_the_bracket_constant(monkeypatch, rng):
    segments = [
        DensitySegment(lo, lo + periods * 2 * PI / 3.0,
                       cosine_density(0.4, 1.5, 3.0, 0.3))
        for lo, periods in ((0.0, 2), (7.5, 20), (400.0, 300))
    ]
    segments += [s for _ in range(20) for s in random_measure(rng).segments]
    for seg in segments:
        monkeypatch.setattr(decomposition, "ARRAY_BISECT_MIN", 1)
        try:
            batched = sign_runs(seg)
        except SignChangeIsolationFailure:
            continue
        monkeypatch.setattr(decomposition, "ARRAY_BISECT_MIN", 10**9)
        assert sign_runs(seg) == batched


# ---------------------------------------------------------------------------
# eventual-sign certificates for unbounded tails
# ---------------------------------------------------------------------------

def test_eventual_sign_dominant_plain_term():
    expr = Expression((Term(2.0, 0.0, 1.0), Term(0.5, 0.0, 1.0, "cos", 3.0)))
    cert = eventual_sign(expr)
    assert cert is not None
    sign, x0 = cert
    assert sign == 1
    xs = np.linspace(x0, x0 + 50, 5000)
    assert (expr.evaluate_array(xs) > 0).all()


def test_eventual_sign_slower_decay_wins():
    # -e^{-x} eventually dominates +10 e^{-2x}
    expr = Expression((Term(-1.0, 0.0, 1.0), Term(10.0, 0.0, 2.0)))
    cert = eventual_sign(expr)
    assert cert is not None and cert[0] == -1
    assert expr.evaluate(cert[1]) < 0


def test_eventual_sign_higher_power_wins_within_decay():
    expr = Expression((Term(1.0, 2.0, 1.0), Term(-50.0, 1.0, 1.0)))
    cert = eventual_sign(expr)
    assert cert is not None and cert[0] == 1


def test_eventual_sign_refuses_oscillation_dominated_tail():
    assert eventual_sign(Expression((Term(1.0, 0.0, 1.0, "cos", 1.0),))) is None
    # the worked density: amplitude 1 oscillation over plain coefficient 1/2
    assert eventual_sign(
        Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0)))) is None


def test_sign_runs_raises_on_uncertifiable_unbounded_tail():
    seg = DensitySegment(0.0, math.inf,
                         Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0))))
    with pytest.raises(SignChangeIsolationFailure):
        sign_runs(seg)


# ---------------------------------------------------------------------------
# jordan decomposition + total variation
# ---------------------------------------------------------------------------

def test_jordan_pure_atoms():
    m = SignedMeasure.point_mass(1.0) - 0.5 * SignedMeasure.point_mass(2.0)
    pos, neg = jordan(m)
    assert pos.isclose(SignedMeasure.point_mass(1.0))
    assert neg.isclose(0.5 * SignedMeasure.point_mass(2.0))
    tv = total_variation(m)
    assert tv.interval(0.0, 5.0) == pytest.approx(1.5)


def test_total_variation_of_linear_density():
    # (x - 5) dx on [0, 10]: integral of |x - 5| = 25
    m = SignedMeasure.from_density((Term(1.0, 1.0), Term(-5.0)), lo=0.0, hi=10.0)
    tv = total_variation(m)
    assert tv.interval(0.0, 10.0) == pytest.approx(25.0, rel=1e-10)
    # and the signed mass is 0 by symmetry
    assert m.interval(0.0, 10.0) == pytest.approx(0.0, abs=1e-12)


def test_jordan_properties_random(rng):
    checked = 0
    for _ in range(N_PROPERTY_CASES):
        m = random_measure(rng, certifiable=True)
        pos, neg = jordan(m)
        assert certified_nonnegative(pos)
        assert certified_nonnegative(neg)
        assert (pos - neg).isclose(m, rel=1e-8, abs_tol=1e-8)
        tv = total_variation(m)
        assert tv.isclose(pos + neg, rel=1e-8, abs_tol=1e-8)
        # |mu(I)| <= |mu|(I) on a few random windows
        for _ in range(4):
            a = float(rng.uniform(0.0, 6.0))
            b = a + float(rng.uniform(0.1, 6.0))
            assert abs(m.interval(a, b)) <= tv.interval(a, b) + 1e-9
        checked += 1
    assert checked == N_PROPERTY_CASES


def test_certified_nonnegative_rejects_negative_atom():
    m = SignedMeasure.point_mass(1.0) - SignedMeasure.point_mass(2.0, 0.25)
    assert not certified_nonnegative(m)
    assert certified_nonnegative(SignedMeasure.point_mass(1.0))


def test_certified_nonnegative_on_random_positive_measures(rng):
    for _ in range(40):
        m = random_measure(rng, signed=False)
        assert certified_nonnegative(m)


# ---------------------------------------------------------------------------
# periodic tail structure
# ---------------------------------------------------------------------------

def test_periodic_structure_of_worked_density():
    seg = DensitySegment(0.0, math.inf,
                         Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0))))
    pt = periodic_tail_structure(seg)
    assert pt is not None
    assert pt.power == 1
    assert pt.decay == 0.0
    assert pt.period == pytest.approx(2 * PI)
    signs = [r.sign for r in pt.window]
    assert signs == [1, -1, 1]
    assert pt.window[0].hi == pytest.approx(2 * PI / 3, abs=1e-10)
    assert pt.window[1].hi == pytest.approx(4 * PI / 3, abs=1e-10)


def test_periodic_structure_commensurable_frequencies():
    expr = Expression((
        Term(1.0, 0.0, 0.5, "cos", 1.5),
        Term(0.3, 0.0, 0.5, "sin", 0.5),
        Term(2.0, 0.0, 0.5),
    ))
    pt = periodic_tail_structure(DensitySegment(0.0, math.inf, expr))
    assert pt is not None
    assert pt.period == pytest.approx(4 * PI)  # lcm of 4pi/3 and 4pi


def test_periodic_structure_rejects_mixed_decay():
    expr = Expression((Term(1.0, 0.0, 0.5), Term(1.0, 0.0, 1.0, "cos", 1.0)))
    assert periodic_tail_structure(DensitySegment(0.0, math.inf, expr)) is None


def test_periodic_structure_rejects_mixed_power():
    expr = Expression((Term(1.0, 1.0), Term(1.0, 0.0, 0.0, "cos", 1.0)))
    assert periodic_tail_structure(DensitySegment(0.0, math.inf, expr)) is None


def test_periodic_factor_reproduces_density():
    seg = DensitySegment(0.0, math.inf,
                         Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0))))
    pt = periodic_tail_structure(seg)
    xs = np.linspace(0.1, 30.0, 700)
    want = seg.density.evaluate_array(xs)
    got = xs ** pt.power * np.exp(-pt.decay * xs) * pt.factor.evaluate_array(xs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
