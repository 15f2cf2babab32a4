"""Sign analysis and Jordan decomposition of grammar densities.

The central primitive is sign-run isolation: split a segment into maximal
subintervals of constant density sign.  On bounded intervals this is a
frequency-aware sampling pass (8 samples per period of the top frequency,
at least 1000) followed by a root search in each sign-change bracket down
to adjacent floats.  Root pairs closer than a sample step fall between two
samples and are missed.  A density whose terms are all plain (no cos or
sin) with coefficients of one sign has that sign on all of (0, inf), so
its one run, the whole segment, needs no sampling (`_plain_sign`).

Two samplers take the same grid, and the rule that picks one costs the
CLI no start-up.  A pass of `BASELINE_SAMPLES` intervals in a process
that has not imported numpy calls the scalar `Expression.evaluate` at
each point (`_scalar_brackets`, about 1 ms per pass): a `tauber run` of
a bundled scenario then never imports numpy, which is half its start-up
time.  Any longer pass, or any pass once numpy is loaded, evaluates the
grid in one numpy call (`_array_brackets`), about 20 times faster per
pass; a process that sweeps many passes has paid for the import once.
The grid's size alone cannot be the rule: a high-index sweep of a
bundled scenario makes dozens of 1000-sample passes, which scalar
sampling would slow by tens of milliseconds.

Both samplers give the same signs, so the sign runs never depend on
which one ran.  The grid points are equal bit for bit (`numpy.linspace`
computes i * step + lo, as the scalar loop does).  The values may differ
in the last bits, since `evaluate` sums the terms with `math.fsum` and
`evaluate_array` in order; so the array sampler takes `evaluate` at every
point within `_SIGN_GUARD` times the envelope of zero
(`_guarded_values`), a margin about 100 times the largest such
difference, and an exact zero is nudged by the same rule on both sides.

Each cut is the right one of the adjacent floats across which the
finder's evaluator changes sign, so no tolerance enters a sign run or a
Jordan part.  Below `ARRAY_BISECT_MIN` brackets `_root` searches each one
with `evaluate`; a segment with more bisects them together in numpy
(`_roots`).  Which one runs depends only on the bracket count, on which
the samplers agree, so no report depends on whether numpy is loaded.

On unbounded intervals a crossing count can be infinite, so the tail
needs a certificate: the dominant term group (slowest decay, then highest
power) must have its non-oscillatory coefficient strictly exceed the
joint amplitude of its oscillatory partners, with every remaining term
bounded below half the margin from some point on.  When no such
certificate exists (for example ``exp(-x) * cos(x)`` or
``x * (1/2 + cos(x))``) the density changes sign on every tail window and
`SignChangeIsolationFailure` is raised.

Densities whose terms share one power and one decay and have commensurable
frequencies still admit an exact treatment downstream: the sign pattern of
the bounded periodic factor repeats, which `periodic_tail_structure`
detects and describes.

Both results depend on the segment alone, and the convergence checks and
Karamata pipelines query the same measures across whole grids of lambda,
so each is computed once per `DensitySegment` object and kept in the
segment's private `_memo` slot (`measures._memo`), beside the segment's
integrals and total-variation transform values.  The memo lives and dies
with its segment: there is no global cache to size or to clear, and an
operation that builds fresh segments (a fresh measure, a Jordan part)
keeps nothing alive after it.  A `SignChangeIsolationFailure` is kept as
its message and raised afresh on every later call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import SignChangeIsolationFailure
from .measures import Atom, DensitySegment, Expression, SignedMeasure, Term, _memo

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SignRun",
    "eventual_sign",
    "sign_runs",
    "jordan",
    "total_variation",
    "certified_nonnegative",
    "PeriodicTail",
    "periodic_tail_structure",
]

BASELINE_SAMPLES = 1000
SAMPLES_PER_PERIOD = 8
MAX_SAMPLES = 2_000_000
# From this many brackets on, a segment's crossings are bisected together
# (`_roots`); below it `_root` is faster, because each array step pays
# numpy's fixed per-call cost (measured break-even: 60 to 90 brackets).
ARRAY_BISECT_MIN = 64
# Secant steps before `_root` only bisects: on 50,000 random roots of
# cosines and term mixes it took 20 evaluations at most, 7.3 on average.
_SECANT_STEPS = 64
# Relative to the envelope, the largest sample value whose array sign is
# re-checked with `evaluate`: about 100 times the two sums' difference.
_SIGN_GUARD = 2.0 ** -40


@dataclass(frozen=True, slots=True)
class SignRun:
    lo: float
    hi: float
    sign: int  # +1 or -1


def eventual_sign(expr: Expression) -> tuple[int, float] | None:
    """Certificate (sign, X) that expr has that constant sign on [X, inf).

    Looks at the dominant group: smallest decay, then largest power.  If the
    plain coefficient there strictly dominates the joint oscillation
    amplitude (`Expression.envelope`), every other term decays relative to
    the dominant monomial and a threshold X is found by doubling until the
    relative remainder, summed in logs, drops below half the margin (and is
    provably decreasing).  Returns None when no certificate exists.
    """
    terms = expr.terms
    if not terms:
        return None
    a_min = min(t.decay for t in terms)
    p_max = max(t.power for t in terms if t.decay == a_min)
    group = [t for t in terms if t.decay == a_min and t.power == p_max]
    s = sum(t.coefficient for t in group if t.kind == "")  # at most one plain term
    oscillating = Expression(tuple(t for t in group if t.kind))
    amp = sum(t.coefficient for t in oscillating.envelope().terms)  # the joint amplitude
    margin = abs(s) - amp
    if margin <= 1e-15 * (abs(s) + amp):
        return None
    # Remaining terms relative to x^{p_max} e^{-a_min x}, as (log|coef|, dp, da).
    rest = [(math.log(abs(t.coefficient)), t.power - p_max, t.decay - a_min)
            for t in terms if t not in group]
    for x in (2.0 ** k for k in range(200)):
        # sign isolation samples [lo, X], so no term's |c| x**p may overflow there
        if any(math.log(abs(t.coefficient)) + t.power * math.log(x) > 700.0 for t in terms):
            return None
        # in logs: x**dp alone overflows where exp(-da*x) makes the term tiny
        logs = [c + dp * math.log(x) - da * x for c, dp, da in rest]
        bound = sum(math.exp(e) if e < 700.0 else math.inf for e in logs)
        decreasing = all(dp <= 0.0 or (da > 0.0 and x >= dp / da) for _, dp, da in rest)
        if decreasing and bound <= margin / 2.0:
            return (1 if s > 0 else -1, x)
    return None


def _sample_count(lo: float, hi: float, expr: Expression) -> int:
    n = BASELINE_SAMPLES
    b_max = expr.max_freq
    if b_max > 0.0:
        periods = (hi - lo) * b_max / (2.0 * math.pi)
        n = max(n, int(math.ceil(SAMPLES_PER_PERIOD * periods)))
    if n > MAX_SAMPLES:
        raise SignChangeIsolationFailure(
            f"sign isolation on [{lo}, {hi}] needs {n} samples "
            f"(limit {MAX_SAMPLES}); interval too long for its top frequency"
        )
    return n


def _root(expr: Expression, a: float, b: float) -> float:
    """The right one of the adjacent floats in (a, b] across which
    `evaluate`, of opposite signs at a and b, changes sign; an exact zero
    counts as non-positive, as in the samplers.

    Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971): secant steps,
    halving the value at an end kept twice in a row; a secant point rounded
    onto an end moves to the float next to it.  After `_SECANT_STEPS` steps
    it bisects, ending at most that many steps past the bound of `_roots`."""
    fa, fb = expr.evaluate(a), expr.evaluate(b)
    up, kept, steps = fa > 0, 0, 0  # kept: the end the last step kept, -1 a, +1 b
    while (mid := a + 0.5 * (b - a)) not in (a, b):
        if steps < _SECANT_STEPS and 0.0 < abs(fa - fb) < math.inf:  # x in [a, b]
            x = a + (b - a) * (fa / (fa - fb))
            if not a < x < b:  # rounded onto an end: try the float next to it
                x = math.nextafter(a, b) if x <= a else math.nextafter(b, a)
        else:
            x = mid
        fx = expr.evaluate(x)
        if (fx > 0) == up:
            a, fa, fb, kept = x, fx, 0.5 * fb if kept > 0 else fb, 1
        else:
            b, fb, fa, kept = x, fx, 0.5 * fa if kept < 0 else fa, -1
        steps += 1
    return b


def _roots(expr: Expression, a, b, fa) -> np.ndarray:
    """`_root` on every bracket (a[i], b[i]) with the signs of
    `evaluate_array` (fa gives those at the left ends), by bisection: one
    call per step evaluates all open midpoints.  A bracket in [0, 2**1024)
    closes within about 2,100 halvings, as its width falls to the float
    spacing at the root (at least 2**-1074); one from a sampler, whose
    left end is at least 1e-9 of its width, within 90."""
    import numpy as np

    a, b, up = np.array(a, dtype=float), np.array(b, dtype=float), np.asarray(fa) > 0
    roots, live = b.copy(), np.arange(b.size)
    while True:
        mid = a + 0.5 * (b - a)
        open_ = (mid != a) & (mid != b)
        if not open_.all():  # record the closed brackets' roots, drop them
            roots[live] = b
            live, a, b, mid, up = (v[open_] for v in (live, a, b, mid, up))
        if not live.size:
            return roots
        same = (expr.evaluate_array(mid) > 0) == up
        a, b = np.where(same, mid, a), np.where(same, b, mid)


def _guarded_values(expr: Expression, env: Expression, xs: np.ndarray) -> np.ndarray:
    """`expr.evaluate_array(xs)`, with `evaluate` at every point where the
    array value is within `_SIGN_GUARD` times the envelope `env` of zero
    (or not a number), so the sign of each value is the sign `evaluate`
    gives."""
    import numpy as np

    vals = expr.evaluate_array(xs)
    for j in np.flatnonzero(~(np.abs(vals) > _SIGN_GUARD * env.evaluate_array(xs))):
        vals[j] = expr.evaluate(float(xs[j]))
    return vals


def _scalar_brackets(expr: Expression, lo: float, hi: float, n: int):
    """The sign-change brackets (a, b, f(a)) of expr on n equal steps of
    [lo, hi], and the sign of the first sample; each point is sampled
    with `evaluate`."""
    step = (hi - lo) / n
    # keep sample points strictly interior: endpoint zeros (sin at 0, a
    # bisected boundary) would otherwise produce spurious zero signs; a
    # sample that is exactly zero moves 0.37 of a step to the right
    xs = [lo + step * 1e-9] + [i * step + lo for i in range(1, n)] + [hi - step * 1e-9]
    vals = []
    for j, x in enumerate(xs):
        v = expr.evaluate(x)
        if v == 0.0:
            xs[j] = x = x + step * 0.37
            v = expr.evaluate(x)
            if v == 0.0:
                raise _zero_on_grid(lo, hi)
        vals.append(v)
    flips = [i for i in range(n) if (vals[i] > 0) != (vals[i + 1] > 0)]
    return ([xs[i] for i in flips], [xs[i + 1] for i in flips], [vals[i] for i in flips],
            1 if vals[0] > 0 else -1)


def _array_brackets(expr: Expression, lo: float, hi: float, n: int):
    """`_scalar_brackets` with the grid in one numpy array: the same
    points (`linspace` computes i * step + lo), and through
    `_guarded_values` the same signs."""
    import numpy as np

    step = (hi - lo) / n
    env = expr.envelope()
    xs = np.linspace(lo, hi, n + 1)
    xs[0] = lo + step * 1e-9
    xs[-1] = hi - step * 1e-9
    vals = _guarded_values(expr, env, xs)
    zero = vals == 0.0
    if zero.any():
        xs[zero] += step * 0.37
        vals[zero] = _guarded_values(expr, env, xs[zero])
        if (vals == 0.0).any():
            raise _zero_on_grid(lo, hi)
    up = vals > 0
    flips = np.flatnonzero(up[1:] != up[:-1])
    return xs[flips], xs[flips + 1], vals[flips], 1 if up[0] else -1


def _zero_on_grid(lo: float, hi: float) -> SignChangeIsolationFailure:
    return SignChangeIsolationFailure(
        f"density evaluates to exactly zero on a sample grid in [{lo}, {hi}]")


def _isolate_bounded(lo: float, hi: float, expr: Expression) -> list[SignRun]:
    n = _sample_count(lo, hi, expr)
    # a small pass keeps a process that has not loaded numpy free of it
    # (see the module docstring); a blocked import (None) counts as not loaded
    if n <= BASELINE_SAMPLES and sys.modules.get("numpy") is None:
        a, b, fa, first = _scalar_brackets(expr, lo, hi, n)
    else:
        a, b, fa, first = _array_brackets(expr, lo, hi, n)
    if len(a) < ARRAY_BISECT_MIN:
        cuts = [_root(expr, float(u), float(v)) for u, v in zip(a, b)]
    else:
        cuts = _roots(expr, a, b, fa).tolist()
    # each cut lies past its bracket's left end: only a last run can be empty
    edges = [lo, *cuts, hi]
    return [SignRun(u, v, -first if i % 2 else first)
            for i, (u, v) in enumerate(zip(edges, edges[1:])) if v > u]


def sign_runs(segment: DensitySegment) -> list[SignRun]:
    """Maximal constant-sign runs covering the segment.

    Computed once per segment object (see `_memo`); every call returns a
    new list.  Raises SignChangeIsolationFailure when the segment is
    unbounded and no eventual-sign certificate exists.
    """
    return list(_memo(segment, "sign_runs", lambda: tuple(_sign_runs(segment))))


def _sign_runs(segment: DensitySegment) -> list[SignRun]:
    expr = segment.density
    if expr.is_zero:
        return []
    sign = _plain_sign(expr)
    if sign is not None:
        return [SignRun(segment.lo, segment.hi, sign)]
    return _sampled_sign_runs(segment)


def _sampled_sign_runs(segment: DensitySegment) -> list[SignRun]:
    """Sign runs by sampling and bisection, with a certified tail."""
    expr = segment.density
    if not segment.unbounded:
        return _isolate_bounded(segment.lo, segment.hi, expr)
    cert = eventual_sign(expr)
    if cert is None:
        raise SignChangeIsolationFailure(
            f"no eventual-sign certificate for density on [{segment.lo}, inf): "
            "sign changes are not finitely isolable"
        )
    tail_sign, x_star = cert
    if x_star <= segment.lo:
        return [SignRun(segment.lo, math.inf, tail_sign)]
    runs = _isolate_bounded(segment.lo, x_star, expr)
    if runs and runs[-1].sign == tail_sign:
        last = runs.pop()
        runs.append(SignRun(last.lo, math.inf, tail_sign))
    else:
        runs.append(SignRun(x_star, math.inf, tail_sign))
    return runs


def _plain_sign(expr: Expression) -> int | None:
    """The sign of a density whose terms are all plain with coefficients of
    one sign, else None.

    Each such term c x^p exp(-a x) has the sign of c at every x > 0, so
    the density has it on all of (0, inf) and needs no sampling.  This
    also holds where the terms underflow to 0.0 on a sample grid, which
    the sampler cannot tell from a root.
    """
    if any(t.kind != "" for t in expr.terms):
        return None
    signs = {t.coefficient > 0 for t in expr.terms}
    if len(signs) != 1:
        return None
    return 1 if signs.pop() else -1


def jordan(measure: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Jordan decomposition (pos, neg) with measure == pos - neg.

    Segment crossings are placed on adjacent floats (`_root`, `_roots`),
    so the two parts are exact in structure and each cut is within a few
    ulps of its crossing.
    Raises SignChangeIsolationFailure when a tail's sign pattern cannot be
    certified.
    """
    pos_atoms = [a for a in measure.atoms if a.weight > 0]
    neg_atoms = [Atom(a.location, -a.weight) for a in measure.atoms if a.weight < 0]
    pos_segs: list[DensitySegment] = []
    neg_segs: list[DensitySegment] = []
    for seg in measure.segments:
        negated = -seg.density
        for run in sign_runs(seg):
            if run.sign > 0:
                pos_segs.append(DensitySegment(run.lo, run.hi, seg.density))
            else:
                neg_segs.append(DensitySegment(run.lo, run.hi, negated))
    return (
        SignedMeasure(tuple(pos_atoms), tuple(pos_segs)),
        SignedMeasure(tuple(neg_atoms), tuple(neg_segs)),
    )


def total_variation(measure: SignedMeasure) -> SignedMeasure:
    """Total-variation measure |mu| = pos + neg of the Jordan decomposition."""
    pos, neg = jordan(measure)
    return SignedMeasure(pos.atoms + neg.atoms, pos.segments + neg.segments)


def certified_nonnegative(measure: SignedMeasure) -> bool:
    """True when the measure has no negative atom and no negative sign
    run: a Jordan part, cut on the adjacent floats around each crossing,
    certifies with no allowance for root placement."""
    if any(a.weight < 0 for a in measure.atoms):
        return False
    try:
        return all(r.sign > 0 for seg in measure.segments for r in sign_runs(seg))
    except SignChangeIsolationFailure:
        return False


@dataclass(frozen=True, slots=True)
class PeriodicTail:
    """Unbounded segment whose density is x^power * exp(-decay*x) * g(x)
    with g periodic; `window` lists the sign runs of g over one period
    starting at the segment's left endpoint, and `shifted[j]` is
    y^(power-j) * g(y) for j = 0..power, the integrands of the one-period
    moments."""

    power: int
    decay: float
    period: float
    factor: Expression  # g, built from the segment's trig structure
    window: tuple[SignRun, ...]
    shifted: tuple[Expression, ...]


def _common_base_freq(freqs: list[float]) -> float | None:
    """Largest base with every freq an integer multiple, if commensurable."""
    f0 = min(freqs)
    denoms: list[int] = []
    for f in freqs:
        frac = Fraction(f / f0).limit_denominator(64)
        if abs(f / f0 - float(frac)) > 1e-9 * (f / f0):
            return None
        denoms.append(frac.denominator)
    lcm = 1
    for d in denoms:
        lcm = lcm * d // math.gcd(lcm, d)
    base = f0 / lcm
    for f in freqs:
        ratio = f / base
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            return None
    return base


def periodic_tail_structure(segment: DensitySegment) -> PeriodicTail | None:
    """Detect  x^K exp(-A x) g(x)  with g periodic on an unbounded segment.

    Requires every term to share one integer power K >= 0 and one decay A,
    with all frequencies commensurable.  Returns None when the segment does
    not have this shape.  Computed once per segment object (see `_memo`).
    """
    return _memo(segment, "periodic_tail_structure", lambda: _periodic_tail(segment))


def _periodic_tail(segment: DensitySegment) -> PeriodicTail | None:
    if not segment.unbounded:
        return None
    terms = segment.density.terms
    if not terms:
        return None
    p = terms[0].power
    a = terms[0].decay
    if not float(p).is_integer() or p < 0:
        return None
    if any(t.power != p or t.decay != a for t in terms):
        return None
    freqs = sorted({t.freq for t in terms if t.kind != ""})
    if not freqs:
        return None
    base = _common_base_freq(freqs)
    if base is None:
        return None
    period = 2.0 * math.pi / base
    factor = Expression(tuple(
        Term(t.coefficient, 0.0, 0.0, t.kind, t.freq) for t in terms
    ))
    window = tuple(_isolate_bounded(segment.lo, segment.lo + period, factor))
    if not window:
        return None
    shifted = tuple(
        Expression(tuple(
            Term(t.coefficient, p - j, 0.0, t.kind, t.freq) for t in factor.terms
        ))
        for j in range(int(p) + 1)
    )
    return PeriodicTail(int(p), a, period, factor, window, shifted)
