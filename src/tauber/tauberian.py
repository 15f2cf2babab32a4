"""Regular-variation index estimation and Karamata-style verification.

For a measure whose transform behaves like tau^(-rho) * L(1/tau) with L
slowly varying, the index is estimated from transform ratios at the small
end of a geometric grid (and, independently, from distribution-function
ratios at the large end).  The package then verifies the two conversion
directions numerically:

* transform side -> distribution side: the family of rescaled measures
  nu_n = (rescale by 1/tau_n, normalise by psi(tau_n)), tau_n = 1/n, is
  run through the full convergence battery against the gamma-type limit
  with parameter rho, and the asymptotic ratio psi(1/t) / (F(t) Gamma(rho+1))
  is checked against 1 over the top decade of the t grid;
* distribution side -> transform side: the integrated-tail measure (with
  density F past a start point) is certified nonnegative, its index is
  checked to be rho + 1, and the same asymptotic ratio closes the loop.

Signed measures need a non-cancellation safeguard before any of this is
meaningful: the sign-ratio condition bounds |psi| away from zero relative
to an upper bound for the total-variation transform.  When the Jordan
decomposition is computable the bound is the exact total-variation
transform; otherwise the envelope transform (amplitude bound) stands in,
which keeps the check sound: a ratio floor passed against a larger
denominator is passed a fortiori against the true one.  The measured
ratio |psi| / |psi|_tv is reported alongside whenever an exact
total-variation transform is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from statistics import median
from typing import Iterable, Sequence

from .convergence import (
    DEFAULT_BAND,
    DEFAULT_EPSILON,
    DEFAULT_H_GRID,
    DEFAULT_N_MAX,
    DEFAULT_RATIO,
    MeasureSequence,
    VerdictReport,
    bounded_laplace_test,
    classify,
    distribution_convergence_test,
    grid,
    laplace_convergence_test,
    right_equicontinuity_test,
    tail_start,
    _mean,
    _slope,
    _sweep,
    _worst,
)
from .decomposition import certified_nonnegative, total_variation
from .errors import (
    SignChangeIsolationFailure,
    SignChangeNearInfinity,
    SignChangeNearZero,
    ZeroTransform,
)
from .measures import SignedMeasure, Term
from .transforms import (
    abs_transform,
    envelope_transform,
    laplace_transform,
)

__all__ = [
    "DEFAULT_TAU_GRID",
    "DEFAULT_T_GRID",
    "DEFAULT_RATIO_POINTS",
    "RVEstimate",
    "rv_index_from_transform",
    "rv_index_from_distribution",
    "rv_report",
    "sign_ratio_condition",
    "window_increment_condition",
    "asymptotic_ratio",
    "gamma_limit_measure",
    "rescaled_family",
    "slow_variation_diagnostic",
    "karamata_pipeline",
]

DEFAULT_TAU_GRID = tuple(10.0 ** (-k / 4.0) for k in range(25))   # 1 .. 1e-6
DEFAULT_T_GRID = tuple(10.0 ** (k / 4.0) for k in range(25))       # 1 .. 1e6
DEFAULT_RATIO_POINTS = (0.25, 0.5, 2.0, 4.0)
DEFAULT_EVAL_POINTS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True, slots=True)
class RVEstimate:
    """Regular-variation index estimate with internal consistency data."""

    index: float
    dispersion: float            # max deviation of per-ratio estimates
    per_ratio: dict[float, float]
    regression_index: float      # log-log regression cross-check
    method: str                  # "transform" | "distribution"


def _ratio_points(points: Sequence[float]) -> list[float]:
    """The ratio points that carry information: positive and not 1 (0/0)."""
    out = [float(x) for x in points if float(x) > 0 and float(x) != 1.0]
    if not out:
        raise ValueError("ratio points must contain a positive value != 1")
    return out


def _window(ts: Sequence[float], decades: float) -> list[float]:
    """The points of the ascending grid ts within `decades` decades of its top."""
    return [t for t in ts if t >= ts[-1] / 10.0 ** decades]


def _one_signed(values: Iterable[float], error: type[Exception], message: str) -> None:
    """Raise error(message) unless the values are nonzero and of one sign."""
    values = list(values)
    if 0.0 in values or len({math.copysign(1.0, v) for v in values}) != 1:
        raise error(message)


def _estimate(
    per_ratio: dict[float, float],
    xs: Sequence[float],
    ys: Sequence[float],
    sign: float,
    method: str,
) -> RVEstimate:
    """Median and spread of the per-ratio estimates, with `sign` times the
    log-log regression slope of ys on xs as the cross-check."""
    rho = float(median(per_ratio.values()))
    dispersion = max(abs(v - rho) for v in per_ratio.values())
    slope = _slope([math.log(x) for x in xs], [math.log(y) for y in ys])
    return RVEstimate(rho, dispersion, per_ratio, sign * slope, method)


def rv_index_from_transform(
    measure: SignedMeasure,
    ratio_points: Sequence[float] = DEFAULT_RATIO_POINTS,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
) -> RVEstimate:
    """Index rho from transform ratios at the small-argument end.

    psi(lam * tau) / psi(tau) -> lam^(-rho), so each ratio point gives an
    estimate -log(ratio)/log(lam); the median is returned with the spread
    as a consistency measure.  Raises SignChangeNearZero when the
    transform vanishes or changes sign on the grid (the index is then
    undefined).
    """
    taus = grid(tau_grid, "tau grid", descending=True)
    psis = {t: laplace_transform(measure, t) for t in taus}
    _one_signed(psis.values(), SignChangeNearZero,
                "transform changes sign or vanishes on the small-argument grid")
    anchor = taus[-1]
    base = psis[anchor]
    per_ratio: dict[float, float] = {}
    for lam in _ratio_points(ratio_points):
        r = laplace_transform(measure, lam * anchor) / base
        if r <= 0:
            raise SignChangeNearZero(
                f"transform ratio at {lam} * {anchor} is not positive"
            )
        per_ratio[lam] = -math.log(r) / math.log(lam)
    small = taus[tail_start(len(taus)):]
    return _estimate(per_ratio, small, [abs(psis[t]) for t in small], -1.0, "transform")


def rv_index_from_distribution(
    measure: SignedMeasure,
    ratio_points: Sequence[float] = DEFAULT_RATIO_POINTS,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    window_decades: float = 1.0,
) -> RVEstimate:
    """Index rho from distribution-function ratios at the large end.

    F(x t)/F(t) -> x^rho; each ratio point is averaged over the top
    `window_decades` of the grid to damp oscillatory corrections.  Raises
    SignChangeNearInfinity when F vanishes or changes sign there.
    """
    ts = grid(t_grid, "t grid")
    window = _window(ts, window_decades)
    F = measure.distribution
    Fs = {t: F(t) for t in window}
    _one_signed(Fs.values(), SignChangeNearInfinity,
                "distribution function changes sign or vanishes on the window")
    per_ratio: dict[float, float] = {}
    for x in _ratio_points(ratio_points):
        ests = []
        for t in window:
            r = F(x * t) / Fs[t]
            if r <= 0:
                raise SignChangeNearInfinity(
                    f"distribution ratio at {x} * {t} is not positive"
                )
            ests.append(math.log(r) / math.log(x))
        per_ratio[x] = _mean(ests)
    return _estimate(per_ratio, window, [abs(v) for v in Fs.values()], 1.0, "distribution")


def rv_report(
    est: RVEstimate,
    declared: float | None = None,
    rho_tol: float = 0.05,
    band: float = DEFAULT_BAND,
    check: str | None = None,
) -> VerdictReport:
    """Verdict wrapper: per-ratio spread, regression cross-check, and
    (when an index is declared) agreement with it, all within rho_tol."""
    stats = {
        "index": est.index,
        "dispersion": est.dispersion,
        "regression_index": est.regression_index,
    }
    statuses = [classify(est.dispersion, rho_tol, band)]
    if math.isfinite(est.regression_index):
        statuses.append(classify(abs(est.regression_index - est.index), rho_tol, band))
    if declared is not None:
        stats["declared"] = float(declared)
        statuses.append(classify(abs(est.index - declared), rho_tol, band))
    table = tuple(
        {"ratio_point": k, "estimate": v} for k, v in sorted(est.per_ratio.items())
    )
    return VerdictReport(
        check=check or f"rv_index_{est.method}",
        status=_worst(statuses),
        statistics=stats,
        tolerances={"rho_tol": rho_tol, "band": band},
        table=table,
    )


def sign_ratio_condition(
    measure: SignedMeasure,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    floor: float = 0.01,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Non-cancellation near zero: |psi(tau)| stays above `floor` times an
    upper bound for the total-variation transform as tau -> 0.

    The denominator is the exact total-variation transform when the Jordan
    decomposition is computable, else the envelope transform; either way
    the bound statistic is a lower bound for the true ratio, and a pass
    is sound, as long as sign isolation found every root: a missed pair of
    roots makes the total variation too small (ROADMAP item 1).  The
    measured ratio against `abs_transform`'s value
    (exact, or the truncated sign-run value within its error bound) is
    reported per grid point whenever that transform is computable.
    """
    taus = grid(tau_grid, "tau grid", descending=True)
    try:
        tv = total_variation(measure)
        denom = lambda t: laplace_transform(tv, t)  # noqa: E731
        method = "exact total variation"
    except SignChangeIsolationFailure:
        denom = lambda t: envelope_transform(measure, t)  # noqa: E731
        method = "envelope upper bound"
    notes = (f"denominator: {method}",)
    if certified_nonnegative(measure):
        notes = notes + ("measure certified nonnegative: ratio is identically 1",)
    table = []
    ratios = []
    for t in taus:
        num = abs(laplace_transform(measure, t))
        den = denom(t)
        ratio = num / den if den > 0 else (math.inf if num > 0 else math.nan)
        row = {"tau": t, "bound_ratio": ratio}
        try:
            abs_psi = abs_transform(measure, t).value
            row["measured_ratio"] = num / abs_psi if abs_psi > 0 else math.nan
        except SignChangeIsolationFailure:
            pass
        ratios.append(ratio)
        table.append(row)
    stat = min(ratios[tail_start(len(ratios)):])
    # pass when comfortably above the floor; the band flips orientation
    if math.isnan(stat):
        status = "inconclusive"
    elif stat >= (1.0 + band) * floor:
        status = "pass"
    elif stat <= (1.0 - band) * floor:
        status = "fail"
    else:
        status = "inconclusive"
    k = min(range(len(taus)), key=lambda i: ratios[i])
    return VerdictReport(
        check="sign_ratio_condition",
        status=status,
        statistics={"min_tail_bound_ratio": stat},
        tolerances={"floor": floor, "band": band},
        witnesses=({"tau": taus[k], "bound_ratio": ratios[k]},),
        notes=notes,
        table=tuple(table),
    )


def window_increment_condition(
    measure: SignedMeasure,
    point: float,
    h_grid: Sequence[float] = DEFAULT_H_GRID,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    ceiling: float = 0.05,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Distribution increments over shrinking windows stay small relative
    to the transform: |F((x+h)/tau) - F(x/tau)| / |psi(tau)| below the
    ceiling for small h, uniformly as tau -> 0.

    Inner statistic: tail max over the tau grid; outer: max over the small
    quarter of the h grid.  Raises ZeroTransform if psi vanishes on the
    grid.
    """
    x = float(point)
    if x <= 0:
        raise ValueError(f"point must be > 0, got {x}")
    taus = grid(tau_grid, "tau grid", descending=True)
    hs = grid(h_grid, "window grid", descending=True)
    psis = {}
    for t in taus:
        v = laplace_transform(measure, t)
        if v == 0.0:
            raise ZeroTransform(f"transform vanishes at tau={t}")
        psis[t] = v
    base = {t: measure.distribution(x / t) for t in taus}
    inner = {}
    for h in hs:
        vals = [
            abs(measure.distribution((x + h) / t) - base[t]) / abs(psis[t])
            for t in taus
        ]
        inner[h] = max(vals[tail_start(len(vals)):])
    small_hs = hs[tail_start(len(hs)):]
    worst_h = max(small_hs, key=lambda h: inner[h])
    stat = inner[worst_h]
    return VerdictReport(
        check="window_increment_condition",
        status=classify(stat, ceiling, band),
        statistics={"max_small_window_stat": stat, "point": x},
        tolerances={"ceiling": ceiling, "band": band},
        witnesses=({"h": worst_h, "value": stat},),
        table=tuple({"h": h, "tail_max": inner[h]} for h in hs),
    )


def asymptotic_ratio(
    measure: SignedMeasure,
    rho: float,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    window_decades: float = 1.0,
    tol: float = 0.02,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """psi(1/t) / (F(t) * Gamma(rho+1)) -> 1: windowed mean over the top
    decade(s) of the t grid, compared against 1 within tol."""
    if rho < 0:
        raise ValueError(f"index must be >= 0, got {rho}")
    ts = grid(t_grid, "t grid")
    window = _window(ts, window_decades)
    gamma_factor = math.gamma(rho + 1.0)
    table = []
    window_vals = []
    skipped = []
    for t in ts:
        F = measure.distribution(t)
        psi = laplace_transform(measure, 1.0 / t)
        if F == 0.0:
            skipped.append(t)
            continue
        ratio = psi / (F * gamma_factor)
        table.append({"t": t, "ratio": ratio})
        if t in window:
            window_vals.append(ratio)
    if not window_vals:
        raise ZeroTransform("distribution function vanishes on the whole window")
    mean_ratio = _mean(window_vals)
    stat = abs(mean_ratio - 1.0)
    notes = ()
    if skipped:
        notes = (f"skipped {len(skipped)} grid point(s) with F(t) == 0",)
    return VerdictReport(
        check="asymptotic_ratio",
        status=classify(stat, tol, band),
        statistics={"windowed_mean": mean_ratio, "abs_deviation": stat},
        tolerances={"tol": tol, "band": band},
        witnesses=({"windowed_mean": mean_ratio},),
        notes=notes,
        table=tuple(table),
    )


def gamma_limit_measure(rho: float) -> SignedMeasure:
    """Limit of the rescaled families: unit mass at 0 for rho == 0, else
    density x^(rho-1)/Gamma(rho) on [0, inf); its transform is lam^(-rho)."""
    rho = float(rho)
    if rho < 0 or not math.isfinite(rho):
        raise ValueError(f"index must be finite and >= 0, got {rho}")
    if rho == 0.0:
        return SignedMeasure.point_mass(0.0, 1.0)
    return SignedMeasure.from_density((Term(1.0 / math.gamma(rho), rho - 1.0),))


def rescaled_family(measure: SignedMeasure, rho: float | None = None) -> MeasureSequence:
    """Family nu_n = (rescale measure by 1/tau_n, normalise by psi(tau_n))
    with tau_n = 1/n, declared to converge to the gamma-type limit with
    parameter rho (estimated from the transform when not supplied).

    Raises ZeroTransform when a normaliser psi(tau_n) vanishes.
    """
    if rho is None:
        rho = rv_index_from_transform(measure).index
    limit = gamma_limit_measure(rho)

    def rule(n: int) -> SignedMeasure:
        tau = 1.0 / n
        norm = laplace_transform(measure, tau)
        if norm == 0.0:
            raise ZeroTransform(f"normaliser psi({tau}) vanishes at n={n}")
        return measure.scaled(1.0 / tau, norm)

    exceptional = tuple(a.location for a in limit.atoms)
    return MeasureSequence(rule=rule, limit=limit, exceptional=exceptional,
                           name="rescaled_family")


def slow_variation_diagnostic(
    measure: SignedMeasure,
    rho: float,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    ratio_points: Sequence[float] = DEFAULT_RATIO_POINTS,
    tol: float = 0.01,
    window_decades: float = 1.0,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Check that l(t) = F(t)/t^rho is slowly varying: l(x t)/l(t) -> 1
    over the top decade(s) of the grid for each ratio point."""
    window = _window(grid(t_grid, "t grid"), window_decades)

    def ell(t: float) -> float:
        return measure.distribution(t) / t ** rho

    devs = []
    table = []
    for x in _ratio_points(ratio_points):
        rs = []
        for t in window:
            lt = ell(t)
            if lt == 0.0:
                continue
            rs.append(ell(x * t) / lt)
        if not rs:
            continue
        dev = max(abs(r - 1.0) for r in rs)
        devs.append(dev)
        table.append({"ratio_point": x, "max_abs_deviation": dev})
    if not devs:
        raise ValueError("no usable ratio points for slow-variation check")
    stat = max(devs)
    return VerdictReport(
        check="slow_variation",
        status=classify(stat, tol, band),
        statistics={"max_abs_deviation": stat},
        tolerances={"tol": tol, "band": band},
        table=tuple(table),
    )


# -- end-to-end pipelines -------------------------------------------------


def karamata_pipeline(
    measure: SignedMeasure,
    direction: str = "psi_to_F",
    *,
    rho: float | None = None,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    t_grid: Sequence[float] = DEFAULT_T_GRID,
    ratio_points: Sequence[float] = DEFAULT_RATIO_POINTS,
    eval_points: Sequence[float] = DEFAULT_EVAL_POINTS,
    lambdas: Sequence[float] = DEFAULT_EVAL_POINTS,
    h_grid: Sequence[float] = DEFAULT_H_GRID,
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    rho_tol: float = 0.05,
    floor: float = 0.01,
    ceiling: float = 0.05,
    psi_tol: float = 1e-5,
    F_tol: float = 0.02,
    ratio_tol: float = 0.02,
    sv_tol: float = 0.01,
    epsilon: float = DEFAULT_EPSILON,
    band: float = DEFAULT_BAND,
    integrated_tail_start: float = 10.0,
    window_decades: float = 1.0,
) -> VerdictReport:
    """Run one conversion direction end to end and aggregate verdicts.

    direction "psi_to_F": hypotheses on the transform side (index from
    transform ratios, sign-ratio floor, window-increment ceiling), then
    the rescaled family against the gamma-type limit, the distribution
    index, the asymptotic ratio, and the slow-variation diagnostic.

    direction "F_to_psi": index from the distribution side, nonnegativity
    of the integrated-tail measure, its index shift by one, then the
    asymptotic ratio and transform-side index agreement.

    `rho` is the declared index, if any; the checks run at it, or at the
    first estimate when none is declared.  The family's checks walk the
    index grid up to `n_max` at `ratio`.
    """
    if direction not in ("psi_to_F", "F_to_psi"):
        raise ValueError(f"unknown direction {direction!r}")
    children: list[VerdictReport] = []
    index_report = partial(rv_report, rho_tol=rho_tol, band=band)
    index_from_F = partial(rv_index_from_distribution, ratio_points=ratio_points,
                           t_grid=t_grid, window_decades=window_decades)
    walk = {"n_max": n_max, "ratio": ratio, "band": band}
    if direction == "psi_to_F":
        est = rv_index_from_transform(measure, ratio_points, tau_grid)
        index = rho if rho is not None else est.index
        children.append(index_report(est, rho))
        children.append(sign_ratio_condition(measure, tau_grid, floor, band=band))
        children.append(_sweep(
            "window_increment_condition", eval_points,
            lambda x: window_increment_condition(
                measure, x, h_grid=h_grid, tau_grid=tau_grid, ceiling=ceiling, band=band,
            ),
            "max_small_window_stat",
        ))
        family = rescaled_family(measure, rho=index)
        children.append(laplace_convergence_test(family, lambdas, tol=psi_tol, **walk))
        children.append(bounded_laplace_test(family, lambdas, **walk))
        equicontinuity = _sweep(
            "rescaled_equicontinuity", eval_points,
            lambda x: right_equicontinuity_test(
                family, x, epsilon=epsilon, h_grid=h_grid, **walk,
            ),
            "best_window_stat",
        )
        children.append(replace(equicontinuity, statistics={
            "max_best_window_stat": equicontinuity.statistics["best_window_stat"],
        }))
        children.append(distribution_convergence_test(
            family, eval_points, tol=F_tol, use_exceptional=True, **walk,
        ))
        est_F = index_from_F(measure)
        children.append(index_report(est_F, index))
        children.append(asymptotic_ratio(measure, index, t_grid, window_decades, ratio_tol,
                                         band))
        children.append(slow_variation_diagnostic(
            measure, index, t_grid, ratio_points, sv_tol, window_decades, band,
        ))
        headline = {"rho": index, "rho_transform": est.index, "rho_distribution": est_F.index}
    else:
        est_F = index_from_F(measure)
        index = rho if rho is not None else est_F.index
        children.append(index_report(est_F, rho))
        xi = measure.integrated_tail(integrated_tail_start)
        nonneg = certified_nonnegative(xi)
        children.append(VerdictReport(
            check="integrated_tail_nonnegative",
            status="pass" if nonneg else "fail",
            statistics={"start": integrated_tail_start},
            notes=(
                "integrated-tail density certified nonnegative"
                if nonneg else
                "integrated-tail density could not be certified nonnegative",
            ),
        ))
        est_xi = index_from_F(xi)
        children.append(index_report(est_xi, index + 1.0, check="rv_index_integrated_tail"))
        children.append(asymptotic_ratio(measure, index, t_grid, window_decades, ratio_tol,
                                         band))
        est_psi = rv_index_from_transform(measure, ratio_points, tau_grid)
        children.append(index_report(est_psi, index))
        headline = {"rho": index, "rho_distribution": est_F.index,
                    "rho_integrated_tail": est_xi.index, "rho_transform": est_psi.index}
    return VerdictReport(
        check=f"karamata_{direction}",
        status=_worst(c.status for c in children),
        statistics=headline,
        children=tuple(children),
    )
