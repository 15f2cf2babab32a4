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
3. certified-truncation quadrature: an envelope tail bound picks the
   truncation point, the bounded part is integrated numerically in
   oscillation-sized chunks, and the reported error bound covers both.

Tier 3 is the only inexact path and reports its error bound.  It is also
the only path that needs scipy.integrate, which `quad` imports on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .decomposition import (
    PeriodicTail,
    periodic_tail_structure,
    sign_runs,
)
from .errors import DivergentTransform, SignChangeIsolationFailure
from .measures import DensitySegment, Expression, SignedMeasure, Term

__all__ = [
    "TransformValue",
    "laplace_transform",
    "abs_transform",
    "abs_transform_value",
    "envelope_transform",
    "tilt_identity_residual",
    "quadrature_transform",
    "MembershipVerdict",
    "check_membership",
]

DEFAULT_ABS_TOL = 1e-10
_QUAD_LIMIT = 500
_TRUNCATION_CAP = 1e9


@dataclass(frozen=True, slots=True)
class TransformValue:
    """Transform value with a rigorous error bound (0.0 for exact paths)."""

    value: float
    error_bound: float


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
    (needs lam + decay > 0 for each of its terms).
    """
    lam = float(lam)
    _check_convergent(measure, lam)
    acc = math.fsum(a.weight * math.exp(-lam * a.location) for a in measure.atoms)
    for seg in measure.segments:
        acc += seg.density.integral(seg.lo, seg.hi, extra_decay=lam)
    return acc


def envelope_transform(measure: SignedMeasure, lam: float) -> float:
    """Transform of the pointwise envelope measure: an upper bound for the
    total-variation transform (atoms at |w|, densities replaced by their
    amplitude envelopes).  Returns +inf when the envelope is not damped."""
    lam = float(lam)
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
    for j in range(pt.power + 1):
        shifted = Expression(tuple(
            Term(t.coefficient, pt.power - j, 0.0, t.kind, t.freq)
            for t in pt.factor.terms
        ))
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


# -- certified-truncation quadrature ----------------------------------


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first quadrature-tier call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _truncation_point(seg: DensitySegment, lam: float, budget: float) -> float:
    """T with envelope tail integral over [T, inf) below budget."""
    env = seg.density.envelope()
    t = max(seg.lo, 1.0)
    while t < _TRUNCATION_CAP:
        tail = env.integral(t, math.inf, extra_decay=lam)
        if tail <= budget:
            return t
        t *= 2.0
    raise SignChangeIsolationFailure(
        f"cannot certify a truncation point below {_TRUNCATION_CAP} for "
        f"segment at [{seg.lo}, {seg.hi})"
    )


def _quad_abs_segment(
    seg: DensitySegment, lam: float, abs_tol: float
) -> tuple[float, float]:
    """Quadrature of |density| * exp(-lam x); returns (value, error_bound)."""
    expr = seg.density
    if seg.unbounded:
        hi = _truncation_point(seg, lam, 0.5 * abs_tol)
        tail_err = expr.envelope().integral(hi, math.inf, extra_decay=lam)
    else:
        hi = seg.hi
        tail_err = 0.0
    b_max = expr.max_freq
    chunk = min(hi - seg.lo, max(1.0, math.pi / b_max) if b_max > 0 else hi - seg.lo)
    n_chunks = max(1, int(math.ceil((hi - seg.lo) / chunk)))
    edges = [seg.lo + (hi - seg.lo) * i / n_chunks for i in range(n_chunks + 1)]

    def f(x: float) -> float:
        return abs(expr.evaluate(x)) * math.exp(-lam * x)

    total, err = 0.0, 0.0
    per_chunk = max(abs_tol / (2 * n_chunks), 1e-14)
    for a, b in zip(edges, edges[1:]):
        v, e = quad(f, a, b, epsabs=per_chunk, limit=_QUAD_LIMIT)
        total += v
        err += e
    return total, err + tail_err


def _quad_signed_segment(
    seg: DensitySegment, lam: float, abs_tol: float
) -> tuple[float, float]:
    """Term-wise quadrature of density * exp(-lam x), for `quadrature_transform`."""
    if seg.unbounded:
        hi = _truncation_point(seg, lam, 0.5 * abs_tol)
        tail_err = seg.density.envelope().integral(hi, math.inf, extra_decay=lam)
    else:
        hi = seg.hi
        tail_err = 0.0
    total, err = 0.0, 0.0
    for t in seg.density.terms:
        sigma = t.decay + lam

        def base(x: float, _t: Term = t, _s: float = sigma) -> float:
            return _t.coefficient * x ** _t.power * math.exp(-_s * x)

        if t.kind == "":
            v, e = quad(base, seg.lo, hi, epsabs=abs_tol / 4, limit=_QUAD_LIMIT)
        else:
            v, e = quad(
                base, seg.lo, hi,
                weight=t.kind, wvar=t.freq,
                epsabs=abs_tol / 4, limit=_QUAD_LIMIT,
            )
        total += v
        err += e
    return total, err + tail_err


# -- total-variation transform -----------------------------------------


def _abs_segment(
    seg: DensitySegment, lam: float, allow_quadrature: bool, abs_tol: float
) -> tuple[float, float]:
    if seg.unbounded and seg.density.min_decay + lam <= 0.0:
        return math.inf, 0.0
    try:
        runs = sign_runs(seg)
        value = math.fsum(
            r.sign * seg.density.integral(r.lo, r.hi, extra_decay=lam) for r in runs
        )
        return value, 0.0
    except SignChangeIsolationFailure:
        pass
    pt = periodic_tail_structure(seg)
    if pt is not None:
        return _periodic_abs_integral(pt, lam), 0.0
    if not allow_quadrature:
        raise SignChangeIsolationFailure(
            f"segment at [{seg.lo}, {seg.hi}) has no exact total-variation "
            "path and quadrature was disallowed"
        )
    return _quad_abs_segment(seg, lam, abs_tol)


def abs_transform(
    measure: SignedMeasure,
    lam: float,
    allow_quadrature: bool = True,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> TransformValue:
    """Transform of the total-variation measure |mu| at lam.

    Exact whenever each segment admits sign-run isolation or a periodic
    tail structure; otherwise falls back to certified quadrature (unless
    disallowed).  Returns +inf (exactly) when |mu|'s transform diverges.
    """
    lam = float(lam)
    value = math.fsum(abs(a.weight) * math.exp(-lam * a.location) for a in measure.atoms)
    err = 0.0
    for seg in measure.segments:
        v, e = _abs_segment(seg, lam, allow_quadrature, abs_tol)
        if math.isinf(v):
            return TransformValue(math.inf, 0.0)
        value += v
        err += e
    return TransformValue(value, err)


def abs_transform_value(
    measure: SignedMeasure,
    lam: float,
    allow_quadrature: bool = True,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    return abs_transform(measure, lam, allow_quadrature, abs_tol).value


def tilt_identity_residual(measure: SignedMeasure, eps: float, lam: float) -> float:
    """|psi_mu(lam + eps) - psi_{tilted mu}(lam)|; zero in exact arithmetic."""
    return abs(
        laplace_transform(measure, lam + eps)
        - laplace_transform(measure.tilted(eps), lam)
    )


# -- membership screening ----------------------------------------------


@dataclass(frozen=True, slots=True)
class MembershipVerdict:
    status: str  # "member" | "not_member" | "inconclusive"
    detail: str


def check_membership(measure: SignedMeasure) -> MembershipVerdict:
    """Screen a measure for admissibility: finitely many atoms on [0, inf)
    plus locally integrable grammar densities.  Constructed instances are
    admissible by construction, so this reports the witnessing structure;
    the not_member/inconclusive statuses are reserved for inputs arriving
    through deserialisation layers that bypass validation."""
    n_unbounded = sum(1 for s in measure.segments if s.unbounded)
    decays = sorted({s.density.min_decay for s in measure.segments if s.unbounded})
    detail = (
        f"{len(measure.atoms)} atom(s), {len(measure.segments)} segment(s), "
        f"{n_unbounded} unbounded; tail decay rates {decays or 'n/a'}; "
        "all densities are polynomial-exponential-trigonometric, hence "
        "locally finite with finite variation on compacts"
    )
    return MembershipVerdict("member", detail)


# -- quadrature cross-check ----------------------------------------------


def quadrature_transform(
    measure: SignedMeasure, lam: float, abs_tol: float = DEFAULT_ABS_TOL
) -> TransformValue:
    """Signed transform at lam by term-wise quadrature, with its error bound.

    An independent cross-check of `laplace_transform`'s closed forms;
    unbounded segments are truncated where the envelope tail is below
    abs_tol/2, and that tail is part of the bound.
    """
    lam = float(lam)
    _check_convergent(measure, lam)
    value = math.fsum(a.weight * math.exp(-lam * a.location) for a in measure.atoms)
    err = 0.0
    for seg in measure.segments:
        v, e = _quad_signed_segment(seg, lam, abs_tol)
        value += v
        err += e
    return TransformValue(value, err)
