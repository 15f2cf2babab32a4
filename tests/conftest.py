"""Shared helpers: random grammar measures with controlled tail behaviour.

The generators keep unbounded-segment decay rates >= 0.3 so every sampled
measure has a finite transform on the whole lambda grid used by the tests,
and (for the sign-decomposition suites) make the plain coefficient of the
dominant tail group strictly larger than the oscillation amplitude so the
tail sign is certifiable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tauber import DensitySegment, Expression, SignedMeasure, Term

# kept modest so the 100-case property loops stay well inside the runtime
# budget; bump locally when hunting for edge cases
N_PROPERTY_CASES = 120

# one line per acceptance criterion, echoed after the test summary so a
# plain pytest run doubles as the sign-off sheet
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_term(rng, *, min_decay=0.0, allow_osc=True, max_power=3):
    coef = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
    power = float(rng.integers(0, max_power + 1))
    if rng.random() < 0.25:
        # non-integer powers are part of the grammar too (plain terms only)
        power = float(rng.uniform(-0.5, 2.5))
        allow_osc = False
    decay = float(rng.uniform(min_decay, 2.0))
    if min_decay == 0.0 and rng.random() < 0.3:
        decay = 0.0
    if allow_osc and rng.random() < 0.4:
        kind = "cos" if rng.random() < 0.5 else "sin"
        freq = float(rng.uniform(0.3, 4.0))
        return Term(coef, power, decay, kind, freq)
    return Term(coef, power, decay)


def random_expression(rng, *, n_terms=None, min_decay=0.0, allow_osc=True):
    if n_terms is None:
        n_terms = int(rng.integers(1, 4))
    terms = [
        random_term(rng, min_decay=min_decay, allow_osc=allow_osc)
        for _ in range(n_terms)
    ]
    return Expression(tuple(terms))


def certifiable_tail_expression(rng):
    """Unbounded-tail density whose sign is certifiable: one dominant plain
    term plus oscillatory terms of strictly smaller amplitude and faster
    decay."""
    decay = float(rng.uniform(0.3, 1.5))
    power = float(rng.integers(0, 3))
    lead = float(rng.uniform(1.0, 3.0)) * (1 if rng.random() < 0.5 else -1)
    terms = [Term(lead, power, decay)]
    if rng.random() < 0.6:
        amp = float(rng.uniform(0.05, 0.4)) * abs(lead)
        kind = "cos" if rng.random() < 0.5 else "sin"
        terms.append(Term(amp, power, decay + float(rng.uniform(0.1, 1.0)),
                          kind, float(rng.uniform(0.5, 3.0))))
    return Expression(tuple(terms))


def random_measure(rng, *, signed=True, with_tail=True, certifiable=False):
    m = SignedMeasure.zero()
    for _ in range(int(rng.integers(0, 3))):
        w = float(rng.uniform(0.2, 2.0))
        if signed and rng.random() < 0.5:
            w = -w
        m = m + SignedMeasure.point_mass(float(rng.uniform(0.0, 5.0)), w)

    # bounded pieces may overlap each other and the tail: addition overlays
    for _ in range(int(rng.integers(0, 3))):
        lo = float(rng.uniform(0.0, 5.0))
        hi = lo + float(rng.uniform(0.1, 3.0))
        expr = random_expression(rng, allow_osc=not certifiable)
        if not signed:
            expr = Expression(tuple(
                Term(abs(t.coefficient), t.power, t.decay) for t in expr.terms
            ))
        m = m + SignedMeasure(segments=(DensitySegment(lo, hi, expr),))

    if with_tail and rng.random() < 0.7:
        lo = float(rng.uniform(0.0, 4.0))
        if certifiable:
            expr = certifiable_tail_expression(rng)
        else:
            expr = random_expression(rng, min_decay=0.3)
        if not signed:
            expr = Expression(tuple(
                Term(abs(t.coefficient), t.power, t.decay, t.kind, t.freq)
                for t in expr.terms if t.kind == ""
            ) or (Term(1.0, 0.0, 0.5),))
        m = m + SignedMeasure(segments=(DensitySegment(lo, np.inf, expr),))

    if m.is_zero:  # rare; retry keeps the case count honest
        return random_measure(rng, signed=signed, with_tail=with_tail,
                              certifiable=certifiable)
    return m


def mpmath_term_integral(t, lam, u, v):
    """The integral of t's density times e^(-lam x) over [u, v] from its
    closed-form primitive, in mpmath at the working precision; integer
    powers only, and v may be inf where t is damped."""
    import mpmath as mp

    k = int(t.power)
    z = mp.mpc(-(t.decay + lam), t.freq if t.kind else 0.0)

    def primitive(x):
        # integral of t.coefficient x^k e^(zx)
        if math.isinf(x):
            return mp.mpc(0)
        x = mp.mpf(x)
        if z == 0:
            return mp.mpc(t.coefficient * x ** (k + 1) / (k + 1))
        series = mp.fsum((-1) ** j * mp.factorial(k) / mp.factorial(k - j)
                         * x ** (k - j) / z ** (j + 1) for j in range(k + 1))
        return t.coefficient * mp.exp(z * x) * series

    w = primitive(v) - primitive(u)
    return w.imag if t.kind == "sin" else w.real


def mpmath_laplace_transform(measure, lam, digits=30):
    """The signed transform at lam from exact mpmath formulas, as an oracle
    for `laplace_transform`.  Integer powers use `mpmath_term_integral`,
    as `mpmath_abs_transform` does; other powers (plain terms only) use the
    side-aware incomplete-gamma form of `test_kernel_oracle.exact`."""
    import mpmath as mp

    from tests.test_kernel_oracle import exact

    with mp.workdps(digits + 5):
        exact_lam = mp.mpf(lam)
        total = mp.fsum(a.weight * mp.exp(-exact_lam * a.location) for a in measure.atoms)
        for seg in measure.segments:
            for t in seg.density.terms:
                if float(t.power).is_integer() and t.power >= 0:
                    total += mpmath_term_integral(t, exact_lam, seg.lo, seg.hi)
                else:
                    total += t.coefficient * exact(t.power, t.decay + lam, seg.lo, seg.hi)
        return total


def mpmath_abs_transform(measure, lam, step=1e-3, digits=30):
    """|mu|'s transform at lam from exact mpmath antiderivatives, as an
    oracle for `abs_transform`; integer powers only.

    The roots of each density are bracketed on a grid of the given step
    (far finer than the package's sampler) and bisected in floats to
    adjacent doubles; a root misplaced by d changes a run integral by
    about |f'| d^2, far below the digits kept.  Each run's signed
    integral is then taken in closed form at `digits` digits and its
    absolute value summed.  An unbounded segment is cut at the first
    X = 2^k past its left end where the envelope tail beyond X is below
    10^-digits.
    """
    import mpmath as mp

    with mp.workdps(digits + 5):
        lam = mp.mpf(lam)

        def run_integral(terms, u, v):
            return mp.fsum(mpmath_term_integral(t, lam, u, v) for t in terms)

        def density(terms, x):
            out = np.zeros_like(x)
            for t in terms:
                part = t.coefficient * x ** t.power * np.exp(-t.decay * x)
                out += part * getattr(np, t.kind)(t.freq * x) if t.kind else part
            return out

        total = mp.fsum(abs(a.weight) * mp.exp(-lam * a.location) for a in measure.atoms)
        for seg in measure.segments:
            terms = seg.density.terms
            assert all(float(t.power).is_integer() and t.power >= 0 for t in terms)
            hi = seg.hi
            if math.isinf(hi):
                hi = max(seg.lo, 1.0)
                while mp.fsum(abs(t.coefficient) * mp.gammainc(t.power + 1, (t.decay + lam) * hi)
                              / (t.decay + lam) ** (t.power + 1) for t in terms) > 10.0 ** -digits:
                    hi *= 2.0
            xs = np.linspace(seg.lo, hi, int(math.ceil((hi - seg.lo) / step)) + 1)
            up = density(terms, xs) > 0
            flips = np.flatnonzero(up[1:] != up[:-1])
            a, b = xs[flips], xs[flips + 1]
            for _ in range(1100):  # until each bracket is two adjacent doubles
                mid = 0.5 * (a + b)
                live = (mid > a) & (mid < b)
                if not live.any():
                    break
                same = (density(terms, mid) > 0) == up[flips]
                a = np.where(live & same, mid, a)
                b = np.where(live & ~same, mid, b)
            edges = [seg.lo, *a.tolist(), hi]
            total += mp.fsum(abs(run_integral(terms, u, v)) for u, v in zip(edges, edges[1:]))
        return total


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def worked_oscillatory_measure():
    """Density x*(1/2 + cos x) on [0, inf): transform (3*t^4+1)/(2*(t^3+t)^2)."""
    return SignedMeasure.from_density(
        (Term(0.5, 1.0), Term(1.0, 1.0, 0.0, "cos", 1.0)),
    )


def dipole_sequence_rule(x=0.5):
    def rule(n):
        return (SignedMeasure.point_mass(x)
                + SignedMeasure.point_mass(x + 1.0 / n, -1.0))
    return rule


def mollified_delta_rule(lo=1.0):
    def rule(n):
        return SignedMeasure.from_density(
            (Term(float(n)),), lo=lo, hi=lo + 1.0 / n,
        )
    return rule
