"""Laplace transforms of signed measures, signed and total-variation.

The signed transform  psi(lam) = sum_atoms w exp(-lam x) + sum_segs
integral f(x) exp(-lam x) dx  is closed-form for every grammar density.

The total-variation transform |psi|(lam) (the transform of |mu|) is
computed per segment through three tiers:

1. sign-run isolation: |integral| splits into signed closed-form pieces;
2. periodic tail structure  x^K exp(-A x) g(x)  with g periodic: the
   per-period integrals are closed-form and the sum over periods is a
   polynomial-geometric series evaluated exactly (Eulerian-number form of
   sum k^j q^k), so the result is exact even at very small lam;
3. truncated sign runs, for an unbounded segment with neither a tail
   certificate nor a periodic structure: an envelope tail bound picks a
   truncation point T, the window [lo, T] is split along its sign runs
   and integrated in closed form as in tier 1, and the tail beyond T,
   which lies between 0 and its envelope bound, counts as half that
   bound, which is also the reported error bound.

Tier 3 is the only inexact path and reports its error bound.  No tier
uses scipy; the tests check both transforms against exact mpmath
references.

The convergence checks and Karamata pipelines ask for the same measures
at the same lam many times, so both transforms are memoised with
`measures._memo`: `laplace_transform` keeps each value, and
`abs_transform` each `TransformValue`, in the measure's memo, keyed by
the arguments the computation uses.  Below it, a segment's memo keeps
only what does not depend on lam (its sign runs and periodic tail, see
`decomposition`): a repeat at the same lam is answered by the measure
first, so a per-segment value memo would never be read.  A memo lives
as long as its owner does.
`DivergentTransform`, and the ValueError for a NaN lam, are raised
afresh on every call: the lam checks run before the lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .decomposition import PeriodicTail, SignRun, periodic_tail_structure, sign_runs
from .errors import DivergentTransform, SignChangeIsolationFailure
from .measures import DensitySegment, Expression, SignedMeasure, _memo

__all__ = [
    "TransformValue",
    "laplace_transform",
    "abs_transform",
    "envelope_transform",
    "tilt_identity_residual",
]

ABS_TOL = 1e-10
_TRUNCATION_CAP = 1e9


@dataclass(frozen=True, slots=True)
class TransformValue:
    """Transform value with a rigorous error bound (0.0 for exact paths)."""

    value: float
    error_bound: float


def _lam(lam: float) -> float:
    """lam as a float; a NaN is refused before it reaches a memo, where,
    unequal to itself, it would add a new entry on every call."""
    lam = float(lam)
    if math.isnan(lam):
        raise ValueError("lam must not be NaN")
    return lam


def _check_convergent(measure: SignedMeasure, lam: float) -> None:
    for seg in measure.segments:
        if seg.unbounded and seg.density.min_decay + lam <= 0.0:
            raise DivergentTransform(
                f"transform diverges at lam={lam}: unbounded segment at "
                f"[{seg.lo}, inf) has minimal decay {seg.density.min_decay}"
            )


def laplace_transform(measure: SignedMeasure, lam: float) -> float:
    """Signed transform value at lam, in closed form.

    Raises DivergentTransform when an unbounded segment is not damped
    (needs lam + decay > 0 for each of its terms).  Computed once per
    measure object and lam (see `measures._memo`).
    """
    lam = _lam(lam)
    _check_convergent(measure, lam)
    return _memo(measure, ("laplace", lam), lambda: _laplace(measure, lam))


def _laplace(measure: SignedMeasure, lam: float) -> float:
    acc = math.fsum(a.weight * math.exp(-lam * a.location) for a in measure.atoms)
    for seg in measure.segments:
        acc += seg.density.integral(seg.lo, seg.hi, extra_decay=lam)
    return acc


def envelope_transform(measure: SignedMeasure, lam: float) -> float:
    """Transform of the pointwise envelope measure: an upper bound for the
    total-variation transform (atoms at |w|, densities replaced by their
    amplitude envelopes).  Returns +inf when the envelope is not damped."""
    lam = _lam(lam)
    acc = math.fsum(abs(a.weight) * math.exp(-lam * a.location) for a in measure.atoms)
    for seg in measure.segments:
        env = seg.density.envelope()
        if seg.unbounded and env.min_decay + lam <= 0.0:
            return math.inf
        acc += env.integral(seg.lo, seg.hi, extra_decay=lam)
    return acc


# -- exact polynomial-geometric series --------------------------------


@lru_cache(maxsize=64)
def _eulerian_row(j: int) -> tuple[float, ...]:
    """Eulerian numbers A(j, m) for m = 0..j-1 (row of the triangle)."""
    row = [1.0]
    for jj in range(2, j + 1):
        new = [0.0] * jj
        for m in range(jj):
            left = row[m] if m < len(row) else 0.0
            up = row[m - 1] if 0 <= m - 1 < len(row) else 0.0
            new[m] = (m + 1) * left + (jj - m) * up
        row = new
    return tuple(row)


def _power_geom_sum(j: int, q: float, one_minus_q: float) -> float:
    """sum_{k>=0} k^j q^k for 0 <= q < 1, exact closed form."""
    if j == 0:
        return 1.0 / one_minus_q
    num = math.fsum(a * q ** (m + 1) for m, a in enumerate(_eulerian_row(j)))
    return num / one_minus_q ** (j + 1)


def _periodic_abs_integral(pt: PeriodicTail, lam: float) -> float:
    """integral over [lo, inf) of x^K exp(-(A+lam) x) |g(x)| dx, exact."""
    sigma = pt.decay + lam
    if sigma <= 0.0:
        return math.inf
    # One-period moments I_j = integral y^{K-j} e^{-sigma y} |g(y)| dy
    # over [lo, lo+P), split along the sign runs of g.
    moments = []
    for shifted in pt.shifted:
        acc = 0.0
        for run in pt.window:
            acc += run.sign * shifted.integral(run.lo, run.hi, extra_decay=sigma)
        moments.append(acc)
    q = math.exp(-sigma * pt.period)
    one_minus_q = -math.expm1(-sigma * pt.period)
    total = 0.0
    for j in range(pt.power + 1):
        total += (
            math.comb(pt.power, j)
            * pt.period ** j
            * moments[j]
            * _power_geom_sum(j, q, one_minus_q)
        )
    return total


# -- truncation -----------------------------------------------------------


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on call.  Nothing in the package
    calls it: it stays only because `benchmarks/tracing.py` rebinds it to
    count `transforms.quad_calls` (ROADMAP item 4 removes both)."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _truncation_point(seg: DensitySegment, lam: float) -> tuple[float, float]:
    """(T, tail): where a segment's integration window ends and a bound on
    the rest; (hi, 0) when bounded, else the first T whose envelope tail
    integral over [T, inf) is at most ABS_TOL/2."""
    if not seg.unbounded:
        return seg.hi, 0.0
    env = seg.density.envelope()
    t = max(seg.lo, 1.0)
    while t < _TRUNCATION_CAP:
        tail = env.integral(t, math.inf, extra_decay=lam)
        if tail <= 0.5 * ABS_TOL:
            return t, tail
        t *= 2.0
    raise SignChangeIsolationFailure(
        f"cannot certify a truncation point below {_TRUNCATION_CAP} for "
        f"segment at [{seg.lo}, {seg.hi})"
    )


# -- total-variation transform -----------------------------------------


def _abs_segment(seg: DensitySegment, lam: float) -> tuple[float, float]:
    """(value, error_bound) of |density| * exp(-lam x) over the segment."""
    if seg.unbounded and seg.density.min_decay + lam <= 0.0:
        return math.inf, 0.0
    try:
        return _abs_runs(seg.density, sign_runs(seg), lam), 0.0
    except SignChangeIsolationFailure:
        if not seg.unbounded:
            raise
    pt = periodic_tail_structure(seg)
    if pt is not None:
        return _periodic_abs_integral(pt, lam), 0.0
    hi, tail = _truncation_point(seg, lam)
    runs = sign_runs(DensitySegment(seg.lo, hi, seg.density)) if hi > seg.lo else ()
    return _abs_runs(seg.density, runs, lam) + 0.5 * tail, 0.5 * tail


def _abs_runs(density: Expression, runs: Iterable[SignRun], lam: float) -> float:
    """integral of |density| * exp(-lam x) over `runs`, sign runs of density."""
    return math.fsum(r.sign * density.integral(r.lo, r.hi, extra_decay=lam) for r in runs)


def abs_transform(measure: SignedMeasure, lam: float) -> TransformValue:
    """Transform of the total-variation measure |mu| at lam.

    Exact whenever each segment admits sign-run isolation or a periodic
    tail structure; otherwise exact on the sign runs of a window [lo, T]
    with half the envelope bound on the tail beyond T as the error bound.
    Returns +inf (exactly) when |mu|'s transform diverges.  Raises
    SignChangeIsolationFailure when the sign runs of a bounded segment or
    of a window cannot be isolated, or no T below 1e9 bounds the tail.
    Computed once per measure object and lam (see `measures._memo`).
    """
    lam = _lam(lam)
    return _memo(measure, ("abs", lam), lambda: _abs_measure(measure, lam))


def _abs_measure(measure: SignedMeasure, lam: float) -> TransformValue:
    value = math.fsum(abs(a.weight) * math.exp(-lam * a.location) for a in measure.atoms)
    err = 0.0
    for seg in measure.segments:
        v, e = _abs_segment(seg, lam)
        if math.isinf(v):
            return TransformValue(math.inf, 0.0)
        value += v
        err += e
    return TransformValue(value, err)


def tilt_identity_residual(measure: SignedMeasure, eps: float, lam: float) -> float:
    """|psi_mu(lam + eps) - psi_{tilted mu}(lam)|; zero in exact arithmetic."""
    return abs(
        laplace_transform(measure, lam + eps)
        - laplace_transform(measure.tilted(eps), lam)
    )
