"""Sign analysis and Jordan decomposition of grammar densities.

The central primitive is sign-run isolation: split a segment into maximal
subintervals of constant density sign.  On bounded intervals this is a
frequency-aware sampling pass (8 samples per period of the top frequency,
at least 1000) followed by bisection of each sign-change bracket to
1e-12 relative.  Root pairs closer than a sample step fall between two
samples and are missed.

A segment with many brackets bisects them all together: each step
evaluates every live midpoint in one numpy call (`_bisect_roots`), with
the per-bracket rules and results of the scalar loop (`_bisect_root`).
Each numpy step has a fixed cost of tens of microseconds, so below
`ARRAY_BISECT_MIN` brackets, which covers the short windows of periodic
tails and most scenario segments, the scalar loop is faster and is used.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SignChangeIsolationFailure
from .measures import Atom, DensitySegment, Expression, SignedMeasure, Term

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
BISECT_TOL = 1e-12
# From this many brackets on, a segment's crossings are bisected together
# (`_bisect_roots`); below it the scalar loop is faster, because each array
# step pays numpy's fixed per-call cost (measured break-even: ~16 brackets).
ARRAY_BISECT_MIN = 16
# Relative to the envelope, the largest midpoint value whose array sign is
# re-checked with the scalar `evaluate`; about 100 times the rounding
# difference between the two sums.
_SIGN_GUARD = 2.0 ** -40


@dataclass(frozen=True, slots=True)
class SignRun:
    lo: float
    hi: float
    sign: int  # +1 or -1


def eventual_sign(expr: Expression) -> tuple[int, float] | None:
    """Certificate (sign, X) that expr has that constant sign on [X, inf).

    Looks at the dominant group: smallest decay, then largest power.  If the
    plain coefficient there strictly dominates the summed oscillation
    amplitudes, every other term decays relative to the dominant monomial
    and a threshold X is found by doubling until the relative remainder
    drops below half the margin (and is provably decreasing).  Returns None
    when no certificate exists.
    """
    terms = expr.terms
    if not terms:
        return None
    a_min = min(t.decay for t in terms)
    group = [t for t in terms if t.decay == a_min]
    p_max = max(t.power for t in group)
    s = 0.0
    osc_amp: dict[float, list[float]] = {}
    for t in group:
        if t.power != p_max:
            continue
        if t.kind == "":
            s += t.coefficient
        else:
            pair = osc_amp.setdefault(t.freq, [0.0, 0.0])
            pair[0 if t.kind == "cos" else 1] = t.coefficient
    amp = sum(math.hypot(cc, cs) for cc, cs in osc_amp.values())
    margin = abs(s) - amp
    if margin <= 1e-15 * (abs(s) + amp):
        return None
    # Remaining terms, measured relative to x^{p_max} e^{-a_min x}.
    rest: list[tuple[float, float, float]] = []  # (|coef|, dp, da)
    for t in terms:
        dp = t.power - p_max
        da = t.decay - a_min
        if da == 0.0 and dp == 0.0:
            continue  # dominant group, already accounted for
        rest.append((abs(t.coefficient), dp, da))
    x = 1.0
    for _ in range(200):
        bound = 0.0
        decreasing = True
        for c, dp, da in rest:
            bound += c * x ** dp * math.exp(-da * x)
            if not (dp <= 0.0 or (da > 0.0 and x >= dp / da)):
                decreasing = False
        if decreasing and bound <= margin / 2.0:
            return (1 if s > 0 else -1, x)
        x *= 2.0
        if x > 1e280:
            break
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


def _bisect_root(expr: Expression, a: float, b: float, fa: float) -> float:
    """Locate the crossing in (a, b) given sign(f(a)) = sign(fa) != sign(f(b))."""
    for _ in range(200):
        if b - a <= BISECT_TOL * max(1.0, abs(a)):
            break
        mid = 0.5 * (a + b)
        fm = expr.evaluate(mid)
        if fm == 0.0:
            # nudge deterministically off the exact zero
            mid_adj = mid + 0.25 * (b - a) * 1e-3
            fm = expr.evaluate(mid_adj)
            if fm == 0.0:
                return mid
        if (fm > 0) == (fa > 0):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _bisect_roots(
    expr: Expression, a: np.ndarray, b: np.ndarray, fa: np.ndarray
) -> np.ndarray:
    """`_bisect_root` on every bracket (a[i], b[i]) at once.

    Each step evaluates the midpoints of all live brackets in one
    `evaluate_array` call, and every bracket follows the scalar rules:
    the same stop test, step cap and result.  The array sum can differ
    from `evaluate` (math.fsum of the term values) in the last bits, so a
    midpoint whose value is within `_SIGN_GUARD` times the envelope of
    zero is re-evaluated with `evaluate` and takes the scalar branch,
    exact-zero nudge included; the roots equal `_bisect_root`'s bit for
    bit.  A double zero sets a = b = mid, which `0.5 * (a + b)` returns.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    up = np.asarray(fa) > 0
    env = expr.envelope()
    for _ in range(200):
        live = np.flatnonzero(b - a > BISECT_TOL * np.maximum(1.0, np.abs(a)))
        if live.size == 0:
            break
        al, bl = a[live], b[live]
        mid = 0.5 * (al + bl)
        fm = expr.evaluate_array(mid)
        near_zero = ~(np.abs(fm) > _SIGN_GUARD * env.evaluate_array(mid))
        for j in np.flatnonzero(near_zero):
            m = float(mid[j])
            fm[j] = expr.evaluate(m)
            if fm[j] == 0.0:
                fm[j] = expr.evaluate(m + 0.25 * (float(bl[j]) - float(al[j])) * 1e-3)
                if fm[j] == 0.0:
                    al[j] = bl[j] = m
        same = (fm > 0) == up[live]
        a[live] = np.where(same, mid, al)
        b[live] = np.where(same, bl, mid)
    return 0.5 * (a + b)


def _isolate_bounded(lo: float, hi: float, expr: Expression) -> list[SignRun]:
    n = _sample_count(lo, hi, expr)
    xs = np.linspace(lo, hi, n + 1)
    step = (hi - lo) / n
    # keep sample points strictly interior: endpoint zeros (sin at 0, a
    # bisected boundary) would otherwise produce spurious zero signs
    xs[0] = lo + step * 1e-9
    xs[-1] = hi - step * 1e-9
    vals = expr.evaluate_array(xs)
    zero = vals == 0.0
    if np.any(zero):
        xs = xs.copy()
        xs[zero] += step * 0.37
        vals = expr.evaluate_array(xs)
        if np.any(vals == 0.0):
            raise SignChangeIsolationFailure(
                f"density evaluates to exactly zero on a sample grid in [{lo}, {hi}]"
            )
    signs = np.sign(vals).astype(int)
    flips = np.flatnonzero(signs[1:] != signs[:-1])
    if len(flips) < ARRAY_BISECT_MIN:
        cuts = [_bisect_root(expr, float(xs[i]), float(xs[i + 1]), float(vals[i]))
                for i in flips]
    else:
        cuts = _bisect_roots(expr, xs[flips], xs[flips + 1], vals[flips]).tolist()
    edges = [lo] + cuts + [hi]
    runs: list[SignRun] = []
    for i, (u, v) in enumerate(zip(edges, edges[1:])):
        if v <= u:
            continue
        runs.append(SignRun(u, v, int(signs[0] if i == 0 else -runs[-1].sign)))
    return runs


def sign_runs(segment: DensitySegment) -> list[SignRun]:
    """Maximal constant-sign runs covering the segment.

    Raises SignChangeIsolationFailure when the segment is unbounded and no
    eventual-sign certificate exists.
    """
    expr = segment.density
    if expr.is_zero:
        return []
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


def jordan(measure: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Jordan decomposition (pos, neg) with measure == pos - neg.

    Segment crossings are isolated numerically (bisection to ~1e-12), so
    the two parts are exact in structure and accurate to root placement.
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
    """True when the measure is certifiably a (nonnegative) measure.

    Certification is only claimed up to the root-isolation resolution:
    a negative run narrower than the bisection tolerance (as shows up at
    the cut points of Jordan parts) does not count as a violation.
    """
    if any(a.weight < 0 for a in measure.atoms):
        return False
    for seg in measure.segments:
        try:
            runs = sign_runs(seg)
        except SignChangeIsolationFailure:
            return False
        for r in runs:
            if r.sign < 0 and r.hi - r.lo > 4 * BISECT_TOL * max(1.0, abs(r.lo), abs(r.hi)):
                return False
    return True


@dataclass(frozen=True, slots=True)
class PeriodicTail:
    """Unbounded segment whose density is x^power * exp(-decay*x) * g(x)
    with g periodic; `window` lists the sign runs of g over one period
    starting at the segment's left endpoint."""

    lo: float
    power: int
    decay: float
    period: float
    factor: Expression  # g, built from the segment's trig structure
    window: tuple[SignRun, ...]


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
    not have this shape.
    """
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
    return PeriodicTail(segment.lo, int(p), a, period, factor, window)
