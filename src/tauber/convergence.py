"""Convergence tests for sequences of signed measures, with verdicts.

A sequence is a rule n -> measure plus a declared limit.  Limit statements
("... -> 0 as n -> inf") are verified numerically on a geometric index
grid: the raw statistic is evaluated at every grid index, the tail window
(last quarter of the grid) provides sup/slope surrogates, and the pass
statistic is a Richardson extrapolation in 1/n from the last two grid
points, which strips the leading O(1/n) discretisation term.  Every test
reports the raw tail statistics alongside the extrapolated one.

Verdicts are three-valued: a statistic well below tolerance passes, well
above fails, and a band around the tolerance (default +-10%) is reported
as inconclusive rather than silently resolved either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .decomposition import certified_nonnegative, jordan
from .errors import SignChangeIsolationFailure
from .measures import SignedMeasure
from .transforms import abs_transform, laplace_transform

__all__ = [
    "MeasureSequence",
    "index_grid",
    "classify",
    "VerdictReport",
    "hat_integral",
    "vague_test",
    "laplace_convergence_test",
    "bounded_laplace_test",
    "right_equicontinuity_test",
    "distribution_convergence_test",
    "continuity_point_test",
    "part_domination_test",
    "continuity_forward",
    "continuity_backward",
]

DEFAULT_N_MAX = 10_000
DEFAULT_RATIO = 2.0
TAIL_FRACTION = 0.25  # share of a grid, at its end, that forms the tail window
DEFAULT_BAND = 0.10
DEFAULT_H_GRID = tuple(0.5 ** k for k in range(1, 11))
DEFAULT_EPSILON = 0.05


@dataclass
class MeasureSequence:
    """Rule n -> measure with a declared limit and optional exceptional set.

    The exceptional set lists points excluded from distribution-function
    grids ("grid almost everywhere"): typically atom locations of the limit
    where pointwise convergence of F_n is not asserted.
    """

    rule: Callable[[int], SignedMeasure]
    limit: SignedMeasure | None = None
    exceptional: tuple[float, ...] = ()
    name: str = ""
    _cache: dict[int, SignedMeasure] = field(default_factory=dict, repr=False)

    def measure(self, n: int) -> SignedMeasure:
        if n not in self._cache:
            self._cache[n] = self.rule(n)
        return self._cache[n]


def index_grid(n_max: int = DEFAULT_N_MAX, ratio: float = DEFAULT_RATIO) -> tuple[int, ...]:
    """Geometric index grid {1, ceil(r), ceil(r^2), ...} capped at n_max."""
    if not 1 <= n_max < math.inf:
        raise ValueError(f"n_max must be finite and >= 1, got {n_max}")
    if not 1.0 < ratio < math.inf:
        raise ValueError(f"grid ratio must be finite and > 1, got {ratio}")
    out = {1, n_max}
    x = 1.0
    while x < n_max:
        x *= ratio
        out.add(min(int(math.ceil(x)), n_max))
    return tuple(sorted(out))


def grid(values: Iterable[float], what: str, descending: bool = False) -> tuple[float, ...]:
    """The distinct values as floats, sorted (largest first when
    `descending`); a ValueError naming `what` unless there is at least
    one value and every value is positive and finite."""
    out = sorted({float(v) for v in values}, reverse=descending)
    if not out or not all(0.0 < v < math.inf for v in out):
        raise ValueError(f"{what} must be a nonempty list of positive finite numbers")
    return tuple(out)


def tail_start(length: int) -> int:
    """Position where the tail window of a grid of `length` points begins."""
    return min(length - 1, int(math.floor(length * (1.0 - TAIL_FRACTION))))


def _extrapolated(ns: Sequence[int], vals: Sequence[float]) -> float:
    """Limit of vals by 1/n Richardson extrapolation from the last two grid
    points; the last value when they cannot be used."""
    if len(ns) >= 2 and ns[-1] != ns[-2] and all(map(math.isfinite, vals[-2:])):
        n1, n2 = float(ns[-2]), float(ns[-1])
        c = (vals[-2] - vals[-1]) / (1.0 / n1 - 1.0 / n2)
        return vals[-1] - c / n2
    return vals[-1]


def classify(stat: float, tol: float, band: float = DEFAULT_BAND) -> str:
    """Three-valued verdict: pass well below tol, fail well above,
    inconclusive inside the +-band around tol.  tol == 0 compares exactly."""
    if math.isnan(stat):
        return "inconclusive"
    if tol == 0.0:
        return "pass" if stat == 0.0 else "fail"
    if stat <= (1.0 - band) * tol:
        return "pass"
    if stat >= (1.0 + band) * tol:
        return "fail"
    return "inconclusive"


def _worst(statuses: Iterable[str]) -> str:
    return max(statuses, key=("pass", "inconclusive", "fail").index, default="pass")


@dataclass(frozen=True, slots=True)
class VerdictReport:
    """Outcome of one check: verdict plus the numbers that justify it.

    A pass names no witness: a report built as `pass` drops its witnesses.
    """

    check: str
    status: str
    statistics: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)
    witnesses: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()
    table: tuple[dict, ...] = ()
    children: tuple["VerdictReport", ...] = ()
    pattern: str = ""

    def __post_init__(self) -> None:
        if self.status == "pass":
            object.__setattr__(self, "witnesses", ())

    def child(self, name: str) -> "VerdictReport":
        for c in self.children:
            if c.check == name:
                return c
        raise KeyError(f"no child check named {name!r}")

    def to_dict(self) -> dict:
        out: dict = {"check": self.check, "status": self.status}
        if self.pattern:
            out["pattern"] = self.pattern
        if self.statistics:
            out["statistics"] = dict(sorted(self.statistics.items()))
        if self.tolerances:
            out["tolerances"] = dict(sorted(self.tolerances.items()))
        if self.witnesses:
            out["witnesses"] = [dict(sorted(w.items())) for w in self.witnesses]
        if self.notes:
            out["notes"] = list(self.notes)
        if self.table:
            out["table"] = [dict(sorted(r.items())) for r in self.table]
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


def _sweep(
    check: str,
    points: Iterable[float],
    run: Callable[[float], VerdictReport],
    stat: str,
) -> VerdictReport:
    """Run a per-point check at each point and keep the worst.

    The status is the worst status; the statistics, tolerances and
    witnesses are those of the point with the largest `stat`; the table
    gives each point's `stat`, sorted by point.
    """
    reports = {x: run(x) for x in points}
    worst = max(reports.values(), key=lambda r: r.statistics[stat])
    return VerdictReport(
        check=check,
        status=_worst(r.status for r in reports.values()),
        statistics=dict(worst.statistics),
        tolerances=dict(worst.tolerances),
        witnesses=worst.witnesses,
        table=tuple(
            {"point": x, stat: r.statistics[stat]} for x, r in sorted(reports.items())
        ),
    )


# -- integration against hat functions ----------------------------------


def hat_integral(measure: SignedMeasure, center: float, width: float) -> float:
    """Exact integral of the tent function peaking at `center` (height 1,
    support [center-width, center+width] clipped to [0, inf)) against the
    measure."""
    if width <= 0:
        raise ValueError(f"hat width must be > 0, got {width}")
    c, w = float(center), float(width)
    lo, hi = max(0.0, c - w), c + w

    def tent(x: float) -> float:
        if not (lo <= x <= hi):
            return 0.0
        return max(0.0, 1.0 - abs(x - c) / w)

    acc = math.fsum(a.weight * tent(a.location) for a in measure.atoms)
    # pieces (alpha + beta x) on [max(lo,0), c] and [c, hi]
    pieces = []
    if c > lo:
        pieces.append((lo, c, (w - c) / w, 1.0 / w))
    pieces.append((c, hi, (c + w) / w, -1.0 / w))
    for seg in measure.segments:
        for (a, b, alpha, beta) in pieces:
            ab = seg.overlap(a, b)
            if ab is None:
                continue
            u, v = ab
            acc += alpha * seg.density.integral(u, v)
            acc += beta * seg.density.times_x().integral(u, v)
    return acc


# -- individual tests ----------------------------------------------------


def _default_centers(limit: SignedMeasure) -> tuple[float, ...]:
    pts = {a.location for a in limit.atoms}
    for s in limit.segments:
        pts.add(s.lo)
        if not s.unbounded:
            pts.add(s.hi)
    pts.discard(0.0)
    return tuple(sorted(pts)) or (1.0,)


def _deviation_test(
    check: str,
    seq: MeasureSequence,
    probes: Sequence[float],
    functional: Callable[[SignedMeasure, float], float],
    key: str,
    n_max: int,
    ratio: float,
    tol: float,
    band: float,
) -> VerdictReport:
    """Track functional(mu_n, p) - functional(limit, p) over the index grid
    for each probe p.

    The pass statistic is the largest extrapolated absolute deviation
    across probes; a verdict other than pass names the worst probe (under
    `key`) as its witness.  Each table row holds the probe, the limit's
    value, the tail-window maximum absolute deviation and the
    extrapolated deviation.
    """
    limit = seq.limit
    if limit is None:
        raise ValueError(f"{check} needs a declared limit measure")
    ns = index_grid(n_max, ratio)
    table = []
    last = {}  # probe -> (deviation at the last grid index, extrapolated)
    for p in probes:
        target = functional(limit, p)
        devs = [float(functional(seq.measure(n), p) - target) for n in ns]
        tail = devs[tail_start(len(ns)):]
        last[p] = devs[-1], _extrapolated(ns, devs)
        table.append({
            key: p,
            "target": target,
            "tail_max_abs": max(abs(max(tail)), abs(min(tail))),
            "extrapolated": last[p][1],
        })
    worst = max(probes, key=lambda p: abs(last[p][1]))
    deviation, extrapolated = last[worst]
    stat = abs(extrapolated)
    return VerdictReport(
        check=check,
        status=classify(stat, tol, band),
        statistics={"max_extrapolated_abs_deviation": stat},
        tolerances={"tol": tol, "band": band},
        witnesses=({
            key: worst,
            "n": ns[-1],
            "deviation": deviation,
            "extrapolated": extrapolated,
        },),
        table=tuple(table),
    )


def _with_max_tail(report: VerdictReport) -> VerdictReport:
    """Add the largest tail-window absolute deviation across probes."""
    return replace(report, statistics={
        **report.statistics,
        "max_tail_abs_deviation": max(row["tail_max_abs"] for row in report.table),
    })


def vague_test(
    seq: MeasureSequence,
    centers: Sequence[float] | None = None,
    width: float | None = None,
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    tol: float = 1e-6,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Vague convergence against hat test functions.

    For each hat, the deviation integral(mu_n) - integral(limit) is tracked
    over the index grid; the pass statistic is the largest extrapolated
    absolute deviation across hats.
    """
    if seq.limit is None:
        raise ValueError("vague test needs a declared limit measure")
    if centers is None:
        centers = _default_centers(seq.limit)
    centers = tuple(float(c) for c in centers)
    if width is None:
        if len(centers) >= 2:
            gaps = [b - a for a, b in zip(centers, centers[1:])]
            width = max(min(gaps) / 2.0, 1e-6)
        else:
            width = 0.5
    report = _deviation_test(
        "vague_convergence", seq, centers, lambda m, c: hat_integral(m, c, width),
        "center", n_max, ratio, tol, band,
    )
    return _with_max_tail(replace(
        report, table=tuple({**row, "width": width} for row in report.table),
    ))


def laplace_convergence_test(
    seq: MeasureSequence,
    lambdas: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    tol: float = 1e-6,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Pointwise transform convergence psi_n(lam) -> psi_limit(lam)."""
    lambdas = tuple(float(v) for v in lambdas)
    grid(lambdas, "transform grid")  # checked only: rows keep the given order
    return _with_max_tail(_deviation_test(
        "laplace_convergence", seq, lambdas, laplace_transform,
        "lam", n_max, ratio, tol, band,
    ))


def bounded_laplace_test(
    seq: MeasureSequence,
    lambdas: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    cap: float | None = None,
    slope_tol: float = 1e-3,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Uniform boundedness of the total-variation transforms.

    sup_n of a sequence cannot be sampled outright, so the verdict combines
    two surrogates per transform argument: the tail-window maximum (finite,
    optionally below an explicit cap) and the regression slope against
    log n (a growing sequence like log n shows a positive slope).  The
    extrapolated tail value is reported for each argument.  An argument
    whose transforms fail sign isolation is inconclusive, with a note.
    """
    lambdas = tuple(float(v) for v in lambdas)
    grid(lambdas, "transform grid")  # checked only: rows keep the given order
    ns = index_grid(n_max, ratio)
    table = []
    verdicts = []  # one per lam: its status and, unless it passes, its witness
    notes = []
    worst_growth = 0.0
    worst_tail = 0.0
    k0 = tail_start(len(ns))
    log_n = np.log([float(n) for n in ns[k0:]])
    for lam in lambdas:
        try:
            vals = [abs_transform(seq.measure(n), lam).value for n in ns]
        except SignChangeIsolationFailure as exc:
            verdicts.append(VerdictReport("bounded_laplace", "inconclusive"))
            table.append({"lam": lam, "status": "inconclusive"})
            notes.append(f"lam={lam}: {exc}")
            continue
        tail = vals[k0:]
        tail_max = max(tail)
        if not all(map(math.isfinite, tail)):
            growth = math.inf
        else:
            # regression slope against log n, relative to the tail's size
            slope = float(np.polyfit(log_n, tail, 1)[0]) if len(tail) >= 2 else 0.0
            mean = float(np.mean(tail))
            scale = max(1.0, abs(mean)) if math.isfinite(mean) else 1.0
            growth = slope / scale if math.isfinite(slope) else math.inf
        worst_growth = max(worst_growth, growth)
        worst_tail = max(worst_tail, tail_max)
        row_status = classify(max(growth, 0.0), slope_tol, band)
        if not math.isfinite(tail_max):
            row_status = "fail"
        if cap is not None:
            cap_status = classify(tail_max, cap, band)
            row_status = _worst([row_status, cap_status])
        k = max(range(len(ns)), key=lambda i: vals[i])
        verdicts.append(VerdictReport("bounded_laplace", row_status, witnesses=(
            {"lam": lam, "n": ns[k], "value": vals[k], "growth_rate": growth},)))
        table.append({
            "lam": lam,
            "tail_max": tail_max,
            "extrapolated": _extrapolated(ns, vals),
            "growth_rate": growth,
        })
    tolerances = {"slope_tol": slope_tol, "band": band}
    if cap is not None:
        tolerances["cap"] = cap
    return VerdictReport(
        check="bounded_laplace",
        status=_worst(v.status for v in verdicts),
        statistics={"max_growth_rate": worst_growth, "max_tail_value": worst_tail},
        tolerances=tolerances,
        witnesses=tuple(w for v in verdicts for w in v.witnesses),
        notes=tuple(notes),
        table=tuple(table),
    )


def right_equicontinuity_test(
    seq: MeasureSequence,
    point: float,
    epsilon: float = DEFAULT_EPSILON,
    h_grid: Sequence[float] = DEFAULT_H_GRID,
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Uniform right-continuity at a point across the whole sequence.

    Pass requires some window h in the grid with |mu_n((x, x+delta])| <=
    epsilon for every delta <= h, uniformly over the index-grid tail.  The
    reported statistic is min over h of the worst violation inside h.
    """
    x = float(point)
    if x < 0:
        raise ValueError(f"point must be >= 0, got {x}")
    h_grid = grid(h_grid, "window grid", descending=True)
    ns = index_grid(n_max, ratio)
    stat_by_delta = {}
    argmax_by_delta = {}
    for delta in h_grid:
        vals = [abs(seq.measure(n).interval(x, x + delta)) for n in ns]
        k = max(range(tail_start(len(ns)), len(ns)), key=vals.__getitem__)
        stat_by_delta[delta], argmax_by_delta[delta] = vals[k], ns[k]
    # worst violation within each candidate window
    m_by_h = {
        h: max(stat_by_delta[d] for d in h_grid if d <= h) for h in h_grid
    }
    best_h = min(m_by_h, key=lambda h: (m_by_h[h], h))
    stat = m_by_h[best_h]
    worst_delta = max(h_grid, key=lambda d: stat_by_delta[d])
    return VerdictReport(
        check="right_equicontinuity",
        status=classify(stat, epsilon, band),
        statistics={"best_window": best_h, "best_window_stat": stat},
        tolerances={"epsilon": epsilon, "band": band},
        witnesses=({
            "delta": worst_delta,
            "n": argmax_by_delta[worst_delta],
            "value": stat_by_delta[worst_delta],
        },),
        table=tuple({"delta": d, "tail_max": stat_by_delta[d]} for d in h_grid),
    )


def distribution_convergence_test(
    seq: MeasureSequence,
    points: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    tol: float = 0.02,
    band: float = DEFAULT_BAND,
    exclude: Sequence[float] = (),
) -> VerdictReport:
    """Pointwise convergence F_n(x) -> F(x) on a point grid.

    Points in `exclude` (an exceptional set, e.g. limit atom locations) are
    removed first and noted; the verdict is then a "grid almost everywhere"
    statement.
    """
    pts = [float(p) for p in points]
    excluded = sorted({float(e) for e in exclude} & set(pts))
    pts = [p for p in pts if p not in set(excluded)]
    if not pts:
        raise ValueError("no evaluation points remain after exclusions")
    report = _deviation_test(
        "distribution_convergence", seq, pts, SignedMeasure.distribution,
        "point", n_max, ratio, tol, band,
    )
    if not excluded:
        return report
    return replace(report, notes=(
        "grid a.e.: excluded exceptional points " + ", ".join(map(str, excluded)),
    ))


def continuity_point_test(measure: SignedMeasure, point: float, atol: float = 0.0) -> VerdictReport:
    """Pass iff the measure has no atom at the point (within atol)."""
    x = float(point)
    hits = [a for a in measure.atoms if abs(a.location - x) <= atol]
    status = "pass" if not hits else "fail"
    witnesses = tuple({"location": a.location, "weight": a.weight} for a in hits)
    return VerdictReport(
        check="continuity_point",
        status=status,
        statistics={"point": x, "atom_weight": hits[0].weight if hits else 0.0},
        tolerances={"atol": atol},
        witnesses=witnesses,
    )


def part_domination_test(
    seq: MeasureSequence,
    lambdas: Sequence[float],
    delta: float = 0.1,
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """One Jordan part uniformly dominated: part-transform ratio < delta
    over the index-grid tail, in at least one orientation.

    Cross-checked against the uniform-boundedness test (a dominated
    sequence with bounded dominant part must be bounded); disagreement
    downgrades the verdict to inconclusive.
    """
    lambdas = tuple(float(v) for v in lambdas)
    bounded = bounded_laplace_test(seq, lambdas, n_max=n_max, ratio=ratio, band=band)
    ns = index_grid(n_max, ratio)
    tail_ns = ns[tail_start(len(ns)):]
    worst_minus = 0.0   # neg dominated by pos
    worst_plus = 0.0    # pos dominated by neg
    rows = []
    for n in tail_ns:
        pos, neg = jordan(seq.measure(n))
        for lam in lambdas:
            p = laplace_transform(pos, lam)
            q = laplace_transform(neg, lam)
            r_minus = q / p if p > 0 else (0.0 if q == 0 else math.inf)
            r_plus = p / q if q > 0 else (0.0 if p == 0 else math.inf)
            worst_minus = max(worst_minus, r_minus)
            worst_plus = max(worst_plus, r_plus)
            rows.append({"n": n, "lam": lam, "neg_over_pos": r_minus, "pos_over_neg": r_plus})
    stat = min(worst_minus, worst_plus)
    orientation = "negative-part dominated" if worst_minus <= worst_plus else "positive-part dominated"
    status = classify(stat, delta, band)
    notes = (f"orientation: {orientation}",)
    if status == "pass" and bounded.status == "fail":
        status = "inconclusive"
        notes = notes + (
            "domination ratio passed but uniform boundedness failed; verdicts disagree",
        )
    return VerdictReport(
        check="part_domination",
        status=status,
        statistics={"max_dominated_ratio": stat},
        tolerances={"delta": delta, "band": band},
        witnesses=(max(rows, key=lambda r: min(r["neg_over_pos"], r["pos_over_neg"])),),
        notes=notes,
        table=tuple(rows),
        children=(bounded,),
    )


# -- theorem-shaped composites -------------------------------------------


def _implication_report(
    check: str,
    hypotheses: Sequence[VerdictReport],
    conclusion: VerdictReport,
) -> VerdictReport:
    hyp_statuses = [h.status for h in hypotheses]
    if "fail" in hyp_statuses:
        status = "pass"  # implication is vacuous; nothing to contradict
        hyp_word = "fail"
    elif "inconclusive" in hyp_statuses:
        status = "inconclusive"
        hyp_word = "inconclusive"
    else:
        hyp_word = "pass"
        status = conclusion.status  # hypotheses hold: a broken conclusion fails
    pattern = f"hypotheses-{hyp_word}, conclusion-{conclusion.status}"
    return VerdictReport(
        check=check,
        status=status,
        pattern=pattern,
        children=tuple(hypotheses) + (conclusion,),
        notes=(
            "status records consistency with the implication, not the "
            "conclusion itself",
        ),
    )


def continuity_forward(
    seq: MeasureSequence,
    point: float,
    lambdas: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    psi_tol: float = 1e-6,
    F_tol: float = 0.02,
    epsilon: float = DEFAULT_EPSILON,
    h_grid: Sequence[float] = DEFAULT_H_GRID,
    skip_equicontinuity: bool = False,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Forward continuity implication at one point: transform convergence +
    uniform boundedness + limit continuity + right equicontinuity together
    force F_n(x) -> F(x).  The composite status records whether the
    observed verdict pattern is consistent with that implication."""
    limit = seq.limit
    if limit is None:
        raise ValueError("composite checks need a declared limit measure")
    hyps = [
        laplace_convergence_test(seq, lambdas, n_max=n_max, ratio=ratio, tol=psi_tol, band=band),
        bounded_laplace_test(seq, lambdas, n_max=n_max, ratio=ratio, band=band),
        continuity_point_test(limit, point),
    ]
    if skip_equicontinuity:
        ns = index_grid(n_max, ratio)
        spots = {ns[0], ns[len(ns) // 2], ns[-1]}
        certified = all(certified_nonnegative(seq.measure(n)) for n in sorted(spots)) and (
            certified_nonnegative(limit)
        )
        note_status = "pass" if certified else "inconclusive"
        hyps.append(VerdictReport(
            check="right_equicontinuity",
            status=note_status,
            notes=(
                "skipped: redundant for sequences of nonnegative measures"
                + ("" if certified else " -- but nonnegativity could not be certified"),
            ),
        ))
    else:
        hyps.append(right_equicontinuity_test(
            seq, point, epsilon=epsilon, h_grid=h_grid, n_max=n_max, ratio=ratio, band=band,
        ))
    conclusion = distribution_convergence_test(
        seq, [point], n_max=n_max, ratio=ratio, tol=F_tol, band=band,
        exclude=(),
    )
    return _implication_report("continuity_forward", hyps, conclusion)


def continuity_backward(
    seq: MeasureSequence,
    points: Sequence[float],
    lambdas: Sequence[float],
    n_max: int = DEFAULT_N_MAX,
    ratio: float = DEFAULT_RATIO,
    psi_tol: float = 1e-6,
    F_tol: float = 0.02,
    band: float = DEFAULT_BAND,
) -> VerdictReport:
    """Backward implication: distribution convergence on a grid off the
    exceptional set + uniform boundedness force transform convergence."""
    hyps = [
        distribution_convergence_test(
            seq, points, n_max=n_max, ratio=ratio, tol=F_tol, band=band,
            exclude=seq.exceptional,
        ),
        bounded_laplace_test(seq, lambdas, n_max=n_max, ratio=ratio, band=band),
    ]
    conclusion = laplace_convergence_test(
        seq, lambdas, n_max=n_max, ratio=ratio, tol=psi_tol, band=band,
    )
    return _implication_report("continuity_backward", hyps, conclusion)
