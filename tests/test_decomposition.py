"""Sign-run isolation, Jordan decomposition, total variation, the
periodic-tail structure detector, and the per-segment memo behind them."""

import gc
import math
import pathlib
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauber import (
    DensitySegment,
    Expression,
    SignChangeIsolationFailure,
    SignedMeasure,
    SignRun,
    Term,
    abs_transform,
    certified_nonnegative,
    eventual_sign,
    jordan,
    load_scenario,
    periodic_tail_structure,
    rescaled_family,
    run_scenario,
    sign_runs,
    total_variation,
)
from tauber import decomposition, transforms
from tauber.decomposition import ARRAY_BISECT_MIN, _root, _roots
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
# the root finders: adjacent floats, a few ulps from the closed form
# ---------------------------------------------------------------------------

def cosine_density(c_ratio, amp, freq, phase):
    """c + amp*cos(freq*x + phase) with c = c_ratio*amp, as three terms."""
    return Expression((
        Term(c_ratio * amp),
        Term(amp * math.cos(phase), 0.0, 0.0, "cos", freq),
        Term(-amp * math.sin(phase), 0.0, 0.0, "sin", freq),
    ))


def grid_brackets(expr, lo, hi, cells):
    """Sign-change brackets (a, b, f(a)) of expr on a uniform grid, with
    the signs `evaluate` gives, as the samplers take them."""
    xs = np.linspace(lo, hi, cells + 1)
    vals = np.array([expr.evaluate(x) for x in xs.tolist()])
    i = np.flatnonzero((vals[1:] > 0) != (vals[:-1] > 0))
    return xs[i], xs[i + 1], vals[i]


def finder_roots(expr, a, b, fa):
    """The roots `_root` and `_roots` place in each bracket, after checking
    that each finder ends on adjacent floats across which its own
    evaluator changes sign (an exact zero counting as non-positive)."""
    scalar = [_root(expr, float(u), float(v)) for u, v in zip(a, b)]
    batched = _roots(expr, a, b, fa).tolist()
    for roots, evaluate in ((scalar, expr.evaluate),
                            (batched, lambda x: float(expr.evaluate_array(np.array([x]))[0]))):
        for u, v, f, root in zip(a.tolist(), b.tolist(), fa.tolist(), roots):
            below = math.nextafter(root, -math.inf)
            assert u <= below < root <= v
            # an end the finder never moved keeps the sign the bracket gave it
            assert ((f if below == u else evaluate(below)) > 0) == (f > 0)
            assert (evaluate(root) > 0) != (f > 0) or root == v
    return scalar, batched


@given(
    c_ratio=st.floats(-0.9, 0.9),
    amp=st.floats(0.1, 10.0),
    freq=st.floats(0.05, 50.0),
    phase=st.floats(0.0, 2 * PI),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
    count=st.one_of(st.integers(1, 40), st.integers(500, 600)),
)
@settings(max_examples=60, deadline=None)
def test_root_finders_land_next_to_closed_form_cosine_roots(c_ratio, amp, freq, phase, lo, count):
    import mpmath as mp

    # two roots per period, at least 0.14 periods apart: 16 cells per
    # period bracket each one
    expr = cosine_density(c_ratio, amp, freq, phase)
    periods = count // 2 + 2
    a, b, fa = grid_brackets(expr, lo, lo + periods * 2 * PI / freq, 16 * periods)
    assert len(a) >= count
    a, b, fa = a[:count], b[:count], fa[:count]
    scalar, batched = finder_roots(expr, a, b, fa)
    # the closed-form roots of the density as its three float coefficients
    # give it: c + R cos(b x + psi) = 0 at b x + psi = +-t0 + 2 pi k
    c, p, q = c_ratio * amp, amp * math.cos(phase), -amp * math.sin(phase)
    with mp.workdps(40):
        r, psi = mp.hypot(p, q), mp.atan2(-q, p)
        t0 = mp.acos(-c / r)
        exact = sorted(x for k in range(int(lo * freq / (2 * PI)) - 2,
                                        int(lo * freq / (2 * PI)) + periods + 3)
                       for s in (t0, -t0) if lo < (x := float((s - psi + 2 * mp.pi * k) / freq)))
        slope = float(freq * r * mp.sin(t0))
    # The bound: 4 ulps of the root (one for the finder's right end, up to
    # one for the rounding of the argument freq * x, half for rounding the
    # exact root to a float, and a margin), plus an error of 4 eps (|c| + R)
    # in the density's value, over its slope at the root
    eps = 2.0 ** -52
    for got in (scalar, batched):
        for root in got:
            want = min(exact, key=lambda x: abs(x - root))
            assert abs(root - want) <= 4 * math.ulp(want) + 4 * eps * (abs(c) + float(r)) / slope


def period_total_variation(c, amp, freq):
    """The integral of |c + amp cos(freq x + phase)| over one period."""
    t0 = math.acos(-c / amp)
    return (4 * c * t0 + 4 * amp * math.sin(t0) - 2 * PI * c) / freq


@given(
    c_ratio=st.floats(-0.9, 0.9),
    amp=st.floats(0.1, 10.0),
    freq=st.floats(0.05, 1e8),
    phase=st.floats(0.0, 2 * PI),
    periods=st.integers(1, 1000),
)
@settings(max_examples=60, deadline=None)
@example(c_ratio=0.5, amp=2.0, freq=1e8, phase=0.0, periods=1000)
def test_total_variation_over_whole_cosine_periods(c_ratio, amp, freq, phase, periods):
    m = SignedMeasure(segments=(DensitySegment(
        0.0, periods * 2 * PI / freq, cosine_density(c_ratio, amp, freq, phase)),))
    tv = abs_transform(m, 0.0)
    assert tv.error_bound == 0.0
    want = period_total_variation(c_ratio * amp, amp, freq)
    assert tv.value / periods == pytest.approx(want, rel=1e-14, abs=0.0)


def test_total_variation_at_frequency_1e8_to_1e_15():
    # 1 + 2 cos(1e8 x) over 1000 whole periods, against the closed form
    m = SignedMeasure.from_density((Term(1.0), Term(2.0, 0.0, 0.0, "cos", 1e8)),
                                   lo=0.0, hi=1000 * 2 * PI / 1e8)
    tv = abs_transform(m, 0.0)
    assert tv.error_bound == 0.0
    want = 1000 * period_total_variation(1.0, 2.0, 1e8)
    assert tv.value == pytest.approx(want, rel=1e-15, abs=0.0)
    # the rescaled family of x (1/2 + cos x) at n = 1e8, as the index sweep
    # of the oscillatory scenario builds it, against an mpmath periodic
    # sum over one period (40 digits, roots acos(-C1/C2) in closed form)
    worked = SignedMeasure.from_density((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0)))
    tv = abs_transform(rescaled_family(worked, rho=2.0).measure(10**8), 0.25)
    assert tv.error_bound == 0.0
    assert tv.value == pytest.approx(22.975857986830689, rel=1e-15, abs=0.0)


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
def test_root_finders_end_on_adjacent_floats_on_term_mixes(osc, plain, lo, width):
    expr = Expression((Term(plain, 1.0),) + tuple(osc))
    finder_roots(expr, *grid_brackets(expr, lo, lo + width, 8000))


class ScriptedLine:
    """f(x) = x - root, except at scripted points: `zeros` evaluate to 0.0
    on both paths, and at `flipped` points the array path returns the
    opposite sign, as a last-bit difference between the two sums can."""

    max_freq = 0.0  # what `_sample_count` reads

    def __init__(self, root, zeros=(), flipped=()):
        self.root, self.zeros, self.flipped = root, set(zeros), set(flipped)

    def evaluate(self, x):
        return 0.0 if x in self.zeros else x - self.root

    def evaluate_array(self, xs):
        return np.array([-self.evaluate(x) if x in self.flipped else self.evaluate(x)
                         for x in xs.tolist()])

    def envelope(self):
        return Expression((Term(1.0),))


@pytest.mark.parametrize("line, scalar_root, batched_root", [
    # an exact zero at the first midpoint of (0.5, 1), and at a point just
    # right of it, counts as non-positive: each finder goes on to the
    # crossing, where x - 0.8 turns positive one float past 0.8
    (ScriptedLine(0.8, zeros=[0.75]), math.nextafter(0.8, 1.0), math.nextafter(0.8, 1.0)),
    (ScriptedLine(0.8, zeros=[0.75, 0.750125]), math.nextafter(0.8, 1.0),
     math.nextafter(0.8, 1.0)),
    # the array sum says + where `evaluate` says - at 0.625, 1e-13 below
    # the root: bisection takes its own evaluator's sign and stops there
    (ScriptedLine(0.625 + 1e-13, flipped=[0.625]), math.nextafter(0.625 + 1e-13, 1.0), 0.625),
], ids=["zero", "double-zero", "flipped-sign"])
def test_each_root_finder_follows_its_own_evaluator(line, scalar_root, batched_root):
    a = np.array([0.5, 0.5])
    b = np.array([1.0, 1.0])
    fa = np.array([line.evaluate(x) for x in a])
    assert finder_roots(line, a, b, fa) == ([scalar_root] * 2, [batched_root] * 2)


def test_sign_runs_agree_on_both_sides_of_the_bracket_constant(monkeypatch, rng):
    segments = [
        DensitySegment(lo, lo + periods * 2 * PI / 3.0,
                       cosine_density(0.4, 1.5, 3.0, 0.3))
        for lo, periods in ((0.0, 2), (7.5, 20), (400.0, 300))
    ]
    segments += [s for _ in range(20) for s in random_measure(rng).segments]
    for seg in segments:
        # a fresh, equal segment on each side: sign runs are memoised per
        # segment object, and both sides must really isolate
        monkeypatch.setattr(decomposition, "ARRAY_BISECT_MIN", 1)
        try:
            batched = sign_runs(DensitySegment(seg.lo, seg.hi, seg.density))
        except SignChangeIsolationFailure:
            continue
        monkeypatch.setattr(decomposition, "ARRAY_BISECT_MIN", 10**9)
        scalar = sign_runs(DensitySegment(seg.lo, seg.hi, seg.density))
        # the same runs; each finder places a cut on the adjacent floats
        # its own evaluator puts around the crossing, so cuts may differ
        # where `evaluate` and `evaluate_array` round apart
        assert [r.sign for r in scalar] == [r.sign for r in batched]
        for s, t in zip(scalar[1:], batched[1:]):
            assert abs(s.lo - t.lo) <= 4 * math.ulp(t.lo)


# ---------------------------------------------------------------------------
# the scalar and numpy samplers: one grid, the same signs
# ---------------------------------------------------------------------------

SCALAR, ARRAY = decomposition._scalar_brackets, decomposition._array_brackets


def runs_by_sampler(lo, hi, expr):
    """`_isolate_bounded` on [lo, hi] with each sampler: the numpy one is
    the choice whenever numpy is loaded, as it is here, so the scalar one
    is put in its place."""
    runs = []
    for sampler in (SCALAR, ARRAY):
        with patch.object(decomposition, "_array_brackets", sampler):
            runs.append(decomposition._isolate_bounded(lo, hi, expr))
    return runs


def test_the_samplers_give_the_same_grid_and_signs():
    expr = cosine_density(0.3, 1.0, 7.0, 0.4)
    for lo, hi, n in ((0.0, 10.0, 1000), (3.7, 3000.0, 33_400)):
        scalar, array = SCALAR(expr, lo, hi, n), ARRAY(expr, lo, hi, n)
        assert len(scalar[0]) > 10
        assert scalar[:2] == tuple(x.tolist() for x in array[:2])  # the brackets
        assert [f > 0 for f in scalar[2]] == (array[2] > 0).tolist()
        assert scalar[3] == array[3]


def test_the_samplers_give_the_same_sign_runs_on_the_corpus(monkeypatch):
    from tests.test_golden_reports import golden_runs

    passes = []
    isolate = decomposition._isolate_bounded

    def recorded(lo, hi, expr):
        passes.append((lo, hi, expr))
        return isolate(lo, hi, expr)

    monkeypatch.setattr(decomposition, "_isolate_bounded", recorded)
    for _, source, overrides in golden_runs().values():
        run_scenario(load_scenario(source), **overrides)
    monkeypatch.setattr(decomposition, "_isolate_bounded", isolate)
    assert len(passes) > 100
    assert any(len(isolate(*p)) > ARRAY_BISECT_MIN for p in passes)
    for lo, hi, expr in passes:
        scalar, array = runs_by_sampler(lo, hi, expr)
        assert scalar == array, (lo, hi, expr)


@given(
    c_ratio=st.floats(-0.99, 0.99),
    amp=st.floats(0.1, 10.0),
    freq=st.floats(0.05, 50.0),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
    periods=st.one_of(st.floats(1.0, 100.0), st.floats(100.0, 400.0)),
    at=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_the_samplers_give_the_same_sign_runs_with_a_root_on_a_sample(
        c_ratio, amp, freq, lo, periods, at):
    # c + A cos(b x + phi), with phi putting a root on the sample point
    # x_i = i * step + lo, where the two sums round to opposite signs or to 0
    hi = lo + periods * 2 * PI / freq
    n = decomposition._sample_count(lo, hi, cosine_density(0.0, 1.0, freq, 0.0))
    x_i = int(1 + at * (n - 2)) * ((hi - lo) / n) + lo
    phase = math.acos(-c_ratio) - freq * x_i
    expr = cosine_density(c_ratio, amp, freq, phase)
    scalar, array = runs_by_sampler(lo, hi, expr)
    assert scalar == array


def test_the_samplers_agree_where_the_array_sum_flips_a_sign():
    # at the sample point 0.5 the array path says +1e-13 where `evaluate`
    # says -1e-13; without the guard the root's bracket would differ
    x_i = 500 * (1.0 / 1000)
    scalar, array = runs_by_sampler(0.0, 1.0, ScriptedLine(x_i + 1e-13, flipped=[x_i]))
    assert scalar == array and len(scalar) == 2


def test_the_samplers_nudge_an_exact_zero_alike():
    # x - x_i is exactly 0.0 at the sample point x_i on both sides
    lo, hi = 0.3, 7.1
    x_i = 417 * ((hi - lo) / 1000) + lo
    expr = Expression((Term(1.0, 1.0), Term(-x_i)))
    assert expr.evaluate(x_i) == 0.0 and expr.evaluate_array(np.array([x_i]))[0] == 0.0
    scalar, array = runs_by_sampler(lo, hi, expr)
    assert scalar == array and [r.sign for r in scalar] == [-1, 1]


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
# one-signed plain densities: sign without sampling
# ---------------------------------------------------------------------------

@given(
    sign=st.sampled_from([1.0, -1.0]),
    terms=st.lists(
        st.tuples(
            st.floats(1e-3, 1e3),                                  # |coefficient|
            st.floats(-1.0, 6.0, exclude_min=True),                # power
            st.floats(0.0, 5.0),                                   # decay
        ),
        min_size=1, max_size=4,
    ),
    lo=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    width=st.one_of(st.just(math.inf), st.floats(1e-3, 50.0)),
)
@settings(max_examples=N_PROPERTY_CASES, deadline=None)
# x**6 overflowed in the eventual-sign bound while x doubled towards 2**256
@example(sign=1.0, terms=[(1.0, 0.0, 0.00390625), (1.0, 6.0, 1.0),
                          (1.0, 0.00390625, 0.00390625)], lo=0.0, width=math.inf)
# a certificate near x = 1e54 made the sampler evaluate x**6 past the largest double
@example(sign=1.0, terms=[(1.0, 0.0, 0.0), (1.0, 1.0, 1.756379024792906e-51),
                          (1.0, 6.0, 1.0)], lo=0.0, width=math.inf)
def test_one_signed_plain_density_runs_equal_the_sampled_runs(sign, terms, lo, width):
    expr = Expression(tuple(Term(sign * c, p, a) for c, p, a in terms))
    seg = DensitySegment(lo, lo + width, expr)
    runs = sign_runs(seg)
    assert runs == [SignRun(seg.lo, seg.hi, int(sign))]
    try:
        sampled = decomposition._sampled_sign_runs(seg)
    except SignChangeIsolationFailure:
        return  # e.g. every sample underflows to 0.0: the shortcut still knows
    assert runs == sampled


def test_eventual_sign_bound_does_not_overflow():
    # x^(1/256) e^(-x/256) - 0.9 e^(-x/256) + x^6 e^(-x): the x^6 term is tiny
    # long before x^(-1/256) falls below the margin, but x**6 alone overflowed
    m = SignedMeasure.from_density(
        (Term(1.0, 1 / 256, 1 / 256), Term(-0.9, 0.0, 1 / 256), Term(1.0, 6.0, 1.0)),
    )
    (seg,) = m.segments
    assert eventual_sign(seg.density) is None  # none before x**6 would overflow
    with pytest.raises(SignChangeIsolationFailure):
        sign_runs(seg)
    with pytest.raises(SignChangeIsolationFailure):
        jordan(m)
    assert not certified_nonnegative(m)
    value = abs_transform(m, 1.0)  # answered by truncated sign runs
    assert math.isfinite(value.value) and value.error_bound > 0.0


def test_one_signed_density_that_underflows_on_the_sample_grid():
    # exp(-800 x) is below the smallest double from x ~ 0.93 on, so every
    # sample on [1, 2] reads 0.0, which the sampler takes for a root
    m = SignedMeasure.from_density((Term(1.0, 0.0, 800.0),), lo=1.0, hi=2.0)
    (seg,) = m.segments
    with pytest.raises(SignChangeIsolationFailure):
        decomposition._sampled_sign_runs(seg)
    assert sign_runs(seg) == [SignRun(1.0, 2.0, 1)]
    assert certified_nonnegative(m)
    pos, neg = jordan(m)
    assert pos == m and neg.is_zero


def test_mixed_signs_and_oscillation_still_sample(isolations):
    for expr in (Expression((Term(1.0, 1.0), Term(-5.0))),
                 Expression((Term(2.0), Term(1.0, 0.0, 0.0, "cos", 1.0)))):
        sign_runs(DensitySegment(0.0, 10.0, expr))
    assert len(isolations) == 2
    sign_runs(DensitySegment(0.0, 10.0, Expression((Term(2.0), Term(1.0, 2.0, 1.0)))))
    assert len(isolations) == 2


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


# ---------------------------------------------------------------------------
# per-segment memo
# ---------------------------------------------------------------------------

WORKED = Expression((Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0)))


@pytest.fixture
def isolations(monkeypatch):
    """Counts `_isolate_bounded` calls: one per sign-run isolation."""
    calls = []
    isolate = decomposition._isolate_bounded

    def counted(lo, hi, expr):
        calls.append((lo, hi))
        return isolate(lo, hi, expr)

    monkeypatch.setattr(decomposition, "_isolate_bounded", counted)
    return calls


def test_repeat_sign_runs_do_not_isolate_again(isolations):
    seg = DensitySegment(0.5, 60.0, Expression((Term(1.0, 0.0, 0.0, "cos", 1.0),)))
    first = sign_runs(seg)
    assert len(isolations) == 1
    again = sign_runs(seg)
    assert len(isolations) == 1
    assert again == first
    assert again is not first  # every caller gets its own list
    assert sign_runs(DensitySegment(seg.lo, seg.hi, seg.density)) == first
    assert len(isolations) == 2  # the memo belongs to the segment object


def test_repeat_periodic_tail_structure_does_not_isolate_again(isolations):
    seg = DensitySegment(0.0, math.inf, WORKED)
    first = periodic_tail_structure(seg)
    assert len(isolations) == 1
    assert periodic_tail_structure(seg) == first
    assert len(isolations) == 1
    assert [e.terms[0].power for e in first.shifted] == [1.0, 0.0]
    assert first.shifted[-1] == first.factor


def test_repeat_abs_transform_does_not_isolate_again(isolations, monkeypatch):
    quads = []
    monkeypatch.setattr(transforms, "quad", lambda *args, **kwargs: quads.append(args))
    m = SignedMeasure(segments=(
        DensitySegment(0.0, 10.0, Expression((Term(1.0, 0.0, 0.0, "cos", 2.0),))),
        DensitySegment(10.0, math.inf, WORKED),
    ))
    truncated = SignedMeasure.from_density(Expression((
        Term(1.0, 0.0, 1.0, "cos", 1.0), Term(1.0, 0.0, 1.0, "sin", math.sqrt(2.0)),
    )))
    first = [abs_transform(m, 0.5), abs_transform(truncated, 0.5)]
    assert len(isolations) == 3  # [0, 10], one period of WORKED, the window [0, T]
    assert [abs_transform(m, 0.5), abs_transform(truncated, 0.5)] == first
    abs_transform(m, 0.7)  # another lam: new values, but no new isolation
    assert len(isolations) == 3
    assert quads == []  # no path of abs_transform integrates numerically


def test_segment_memo_keeps_its_structure_once_and_one_abs_value_per_lam():
    m = SignedMeasure(segments=(
        DensitySegment(0.0, 10.0, Expression((Term(1.0, 0.0, 0.0, "cos", 2.0),))),
        DensitySegment(10.0, math.inf, WORKED),
    ))
    lams = [float(lam) for lam in np.linspace(0.1, 2.0, 10)]
    for lam in lams + lams:
        abs_transform(m, lam)
    for seg in m.segments:
        structure = {key for key in seg._memo if isinstance(key, str)}
        assert structure and structure <= {"sign_runs", "periodic_tail_structure"}
        assert set(seg._memo) - structure == {("abs", lam) for lam in lams}


def test_uncertifiable_tail_raises_the_same_failure_every_call(isolations):
    seg = DensitySegment(0.0, math.inf, WORKED)
    messages = []
    for _ in range(3):
        with pytest.raises(SignChangeIsolationFailure) as info:
            sign_runs(seg)
        messages.append(str(info.value))
    assert messages[0].startswith("no eventual-sign certificate")
    assert messages == messages[:1] * 3
    assert info.value.__context__ is None


def test_filled_memo_leaves_equality_hash_and_repr_alone():
    seg = DensitySegment(0.0, math.inf, WORKED)
    fresh = DensitySegment(0.0, math.inf, WORKED)
    periodic_tail_structure(seg)
    abs_transform(SignedMeasure(segments=(seg,)), 1.0)
    with pytest.raises(SignChangeIsolationFailure):
        sign_runs(seg)
    assert seg._memo and fresh._memo is None
    assert seg == fresh
    assert hash(seg) == hash(fresh)
    assert repr(seg) == repr(fresh)


def test_scenario_run_leaves_no_cyclic_garbage():
    data = pathlib.Path(__file__).parents[1] / "src" / "tauber" / "data"
    for path in sorted(data.glob("*.json")):
        run_scenario(load_scenario(path))  # first-use imports and caches
        gc.collect()
        gc.disable()
        try:
            # a fresh load: fresh measures and segments, whose memos start empty
            assert run_scenario(load_scenario(path)).exit_code == 0
            assert gc.collect() == 0, path.name
        finally:
            gc.enable()
