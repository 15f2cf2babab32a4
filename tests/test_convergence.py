"""Sequence-convergence verdicts: grids, tail statistics, the individual
tests, and the two theorem-shaped composites (including the designed
counterexample family delta_x - delta_{x+1/n})."""

import math
from dataclasses import replace

import pytest

from tauber import (
    MeasureSequence,
    SignedMeasure,
    Term,
    VerdictReport,
    bounded_laplace_test,
    classify,
    continuity_backward,
    continuity_forward,
    continuity_point_test,
    distribution_convergence_test,
    hat_integral,
    index_grid,
    laplace_convergence_test,
    part_domination_test,
    right_equicontinuity_test,
    vague_test,
)
from tauber import convergence
from tauber.convergence import _extrapolated, tail_start
from tests.conftest import dipole_sequence_rule, mollified_delta_rule

LAMBDAS = (0.5, 1.0, 2.0)


def dipole_seq(x=0.5):
    return MeasureSequence(dipole_sequence_rule(x), limit=SignedMeasure.zero(),
                           name="dipole")


def mollified_seq():
    return MeasureSequence(
        mollified_delta_rule(1.0),
        limit=SignedMeasure.point_mass(1.0),
        exceptional=(1.0,),
        name="mollified-delta",
    )


def constant_seq(m):
    return MeasureSequence(lambda n: m, limit=m, name="constant")


# ---------------------------------------------------------------------------
# plumbing: grids, tail estimates, three-valued classification
# ---------------------------------------------------------------------------

def test_index_grid_is_geometric_and_capped():
    g = index_grid(10000, 2.0)
    assert g[0] == 1 and g[-1] == 10000
    assert all(b > a for a, b in zip(g, g[1:]))
    assert 8192 in g
    small = index_grid(7, 2.0)
    assert small == (1, 2, 4, 7)
    for n_max, ratio in [(10, math.inf), (math.inf, 2.0)]:
        with pytest.raises(ValueError):
            index_grid(n_max, ratio)


def test_tail_estimate_extrapolates_first_order_error():
    grid = index_grid(10000, 2.0)
    vals = [3.0 + 5.0 / n for n in grid]
    assert _extrapolated(grid, vals) == pytest.approx(3.0, abs=1e-12)
    # without two finite end points the last value stands
    assert _extrapolated(grid, vals[:-2] + [math.inf, 4.0]) == 4.0
    assert _extrapolated((1,), (2.5,)) == 2.5


def test_tail_window_is_the_last_quarter_of_every_grid():
    # the two forms tail_start replaced agree with it on every nonempty grid
    for length in range(1, 2000):
        k0 = tail_start(length)
        assert k0 == min(length - 1, math.floor(length * (1.0 - 0.25)))
        assert k0 == max(0, math.floor(length * 0.75))


def test_tail_estimate_flags_growth():
    def weight(n):
        return 0.1 * math.log(n) + 1.0

    grid = index_grid(1000, 2.0)
    tail = [weight(n) for n in grid[tail_start(len(grid)):]]
    seq = MeasureSequence(rule=lambda n: SignedMeasure.point_mass(0.0, weight(n)))
    report = bounded_laplace_test(seq, [1.0], n_max=1000, ratio=2.0)
    # |psi_n|(1) is the weight: slope 0.1 against log n, over the tail's mean
    growth = report.table[0]["growth_rate"]
    assert growth == pytest.approx(0.1 / (sum(tail) / len(tail)), rel=1e-6)
    assert report.witnesses[0]["growth_rate"] == growth
    assert report.status == "fail"


def test_only_bounded_laplace_fits_a_slope(monkeypatch):
    fits = []
    polyfit = convergence.np.polyfit

    def counted(*args, **kwargs):
        fits.append(args)
        return polyfit(*args, **kwargs)

    monkeypatch.setattr(convergence.np, "polyfit", counted)
    seq = MeasureSequence(rule=mollified_delta_rule(),
                          limit=SignedMeasure.point_mass(1.0))
    laplace_convergence_test(seq, LAMBDAS, n_max=1000)
    vague_test(seq, n_max=1000)
    distribution_convergence_test(seq, [0.5, 2.0], n_max=1000)
    assert fits == []
    bounded_laplace_test(seq, LAMBDAS, n_max=1000)
    assert len(fits) == len(LAMBDAS)


def test_a_pass_names_no_witness():
    witness = {"n": 8, "value": 1.0}
    passed = VerdictReport("c", "pass", witnesses=(witness,))
    assert passed.witnesses == () and "witnesses" not in passed.to_dict()
    for status in ("fail", "inconclusive"):
        assert VerdictReport("c", status, witnesses=(witness,)).witnesses == (witness,)
    failed = VerdictReport("c", "fail", witnesses=(witness,))
    assert replace(failed, status="pass").witnesses == ()


def test_classify_three_values():
    assert classify(0.5, 1.0) == "pass"
    assert classify(2.0, 1.0) == "fail"
    assert classify(1.0, 1.0) == "inconclusive"
    assert classify(0.95, 1.0) == "inconclusive"
    assert classify(0.0, 0.0) == "pass"
    assert classify(1e-300, 0.0) == "fail"
    assert classify(math.nan, 1.0) == "inconclusive"


# ---------------------------------------------------------------------------
# exact hat integrals
# ---------------------------------------------------------------------------

def test_hat_integral_against_atoms():
    m = SignedMeasure.point_mass(1.0, 2.0)
    # hat centred at 1 with width 0.5 evaluates to 1 at the atom
    assert hat_integral(m, 1.0, 0.5) == pytest.approx(2.0)
    # atom half-way down the slope
    assert hat_integral(m, 1.25, 0.5) == pytest.approx(1.0)
    # atom outside the support
    assert hat_integral(m, 2.0, 0.5) == 0.0


def test_hat_integral_against_lebesgue():
    m = SignedMeasure.from_density((Term(1.0, 0.0),), lo=0.0, hi=10.0)
    # interior hat integrates to its width
    assert hat_integral(m, 3.0, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert hat_integral(m, 3.0, 2.0) == pytest.approx(2.0, rel=1e-12)


def test_hat_integral_oscillatory_density():
    m = SignedMeasure.from_density((Term(1.0, 0.0, 0.0, "sin", 1.0),), lo=0.0, hi=20.0)
    # reference: integral of hat(x; c, w) sin x dx has closed form; compare
    # against a fine Riemann sum
    c, w = 5.0, 1.5
    xs = [c - w + i * (2 * w) / 400000 for i in range(400001)]
    riemann = 0.0
    for a, b in zip(xs, xs[1:]):
        mid = 0.5 * (a + b)
        riemann += (1 - abs(mid - c) / w) * math.sin(mid) * (b - a)
    assert hat_integral(m, c, w) == pytest.approx(riemann, abs=1e-9)


# ---------------------------------------------------------------------------
# individual tests on designed families
# ---------------------------------------------------------------------------

def test_vague_shifted_atom():
    seq = MeasureSequence(
        lambda n: SignedMeasure.point_mass(1.0 + 1.0 / n),
        limit=SignedMeasure.point_mass(1.0),
    )
    rep = vague_test(seq, centers=(0.5, 1.0, 2.0), tol=1e-3)
    assert rep.status == "pass"


def test_vague_dipole_converges_to_zero():
    rep = vague_test(dipole_seq(), centers=(0.5,), tol=1e-3)
    assert rep.status == "pass"


def test_vague_constant_sequence_exact():
    m = SignedMeasure.point_mass(1.0) + SignedMeasure.from_density(
        (Term(0.3, 1.0, 0.5),), lo=0.0)
    rep = vague_test(constant_seq(m), centers=(0.5, 1.0), tol=0.0)
    assert rep.status == "pass"


def test_laplace_convergence_mollified():
    rep = laplace_convergence_test(mollified_seq(), LAMBDAS, tol=1e-6)
    assert rep.status == "pass"
    assert rep.statistics["max_extrapolated_abs_deviation"] <= 1e-7


def test_laplace_convergence_detects_wrong_limit():
    seq = MeasureSequence(
        mollified_delta_rule(1.0),
        limit=SignedMeasure.point_mass(2.0),  # deliberately wrong
    )
    rep = laplace_convergence_test(seq, LAMBDAS, tol=1e-6)
    assert rep.status == "fail"
    assert rep.witnesses


def test_bounded_laplace_dipole_tail_statistic():
    rep = bounded_laplace_test(dipole_seq(1.0), LAMBDAS)
    assert rep.status == "pass"
    # the absolute transform tends to 2 e^{-lam}; check the extrapolated
    # statistic per row
    for row in rep.table:
        want = 2 * math.exp(-row["lam"])
        assert row["extrapolated"] == pytest.approx(want, abs=1e-6)


def test_bounded_laplace_blows_up_on_growing_mass():
    seq = MeasureSequence(lambda n: float(n) * SignedMeasure.point_mass(1.0),
                          limit=None)
    rep = bounded_laplace_test(seq, (1.0,))
    assert rep.status == "fail"
    assert rep.witnesses[0]["n"] == index_grid()[-1]


def test_bounded_laplace_cap():
    m = SignedMeasure.point_mass(0.0, 3.0)
    rep = bounded_laplace_test(constant_seq(m), (1.0,), cap=1.0)
    assert rep.status == "fail"
    rep2 = bounded_laplace_test(constant_seq(m), (1.0,), cap=10.0)
    assert rep2.status == "pass"


def test_bounded_laplace_isolation_failure_is_inconclusive():
    # e^(-x/100) (cos 1000x + sin 1000 sqrt2 x) has no tail certificate and
    # no period; at lam = 0.01 its window [0, 2048] needs 3.7e6 samples
    m = SignedMeasure.from_density((
        Term(1.0, 0.0, 0.01, "cos", 1000.0),
        Term(1.0, 0.0, 0.01, "sin", 1000.0 * math.sqrt(2.0)),
    ))
    rep = bounded_laplace_test(constant_seq(m), (1.0, 0.01))
    assert rep.status == "inconclusive"
    judged, failed = rep.table
    assert judged["lam"] == 1.0 and math.isfinite(judged["tail_max"])
    assert failed == {"lam": 0.01, "status": "inconclusive"}
    assert rep.witnesses == ()  # lam = 1.0 passed: it names no witness
    (note,) = rep.notes
    assert note.startswith("lam=0.01: sign isolation on [0.0, 2048.0] needs")
    assert bounded_laplace_test(constant_seq(m), (1.0,)).status == "pass"


def test_right_equicontinuity_dipole_fails_with_reciprocal_witness():
    rep = right_equicontinuity_test(dipole_seq(0.5), 0.5)
    assert rep.status == "fail"
    (w,) = rep.witnesses
    assert w["n"] >= 1.0 / w["delta"]
    assert w["value"] == pytest.approx(1.0)


def test_right_equicontinuity_constant_at_continuity_point():
    m = SignedMeasure.point_mass(1.0)
    rep = right_equicontinuity_test(constant_seq(m), 2.0)
    assert rep.status == "pass"


def test_right_equicontinuity_uniform_density_bound():
    # densities bounded by 2 uniformly: mass of (x, x+delta] <= 2 delta
    seq = MeasureSequence(
        lambda n: SignedMeasure.from_density((Term(2.0, 0.0),), lo=0.0, hi=3.0),
        limit=SignedMeasure.from_density((Term(2.0, 0.0),), lo=0.0, hi=3.0),
    )
    rep = right_equicontinuity_test(seq, 1.0, epsilon=0.05)
    assert rep.status == "pass"
    assert rep.statistics["best_window"] <= 0.05 / 2


def test_distribution_convergence_dipole_unit_gap():
    rep = distribution_convergence_test(dipole_seq(0.5), (0.5,), tol=0.02)
    assert rep.status == "fail"
    (w,) = rep.witnesses
    assert w["deviation"] == pytest.approx(1.0)


def test_distribution_convergence_mollified_off_support():
    rep = distribution_convergence_test(mollified_seq(), (0.5, 2.0), tol=0.02)
    assert rep.status == "pass"


def test_distribution_convergence_respects_exclusions():
    rep = distribution_convergence_test(
        mollified_seq(), (0.5, 1.0, 2.0), tol=1e-9, exclude=(1.0,))
    assert rep.status == "pass"
    assert any("grid a.e." in note for note in rep.notes)


def test_continuity_point_test_atoms():
    m = SignedMeasure.point_mass(1.0) - SignedMeasure.point_mass(2.0)
    assert continuity_point_test(m, 1.0).status == "fail"
    assert continuity_point_test(m, 1.5).status == "pass"
    d = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),), lo=0.0)
    assert continuity_point_test(d, 0.7).status == "pass"


# ---------------------------------------------------------------------------
# part domination (sufficient condition) + its boundedness cross-check
# ---------------------------------------------------------------------------

def test_part_domination_quarter_atom():
    m = SignedMeasure.point_mass(1.0) - 0.25 * SignedMeasure.point_mass(2.0)
    rep = part_domination_test(constant_seq(m), LAMBDAS, delta=0.5)
    assert rep.status == "pass"
    assert rep.child("bounded_laplace").status == "pass"


def test_part_domination_positive_sequence_trivial():
    m = SignedMeasure.point_mass(1.0)
    rep = part_domination_test(constant_seq(m), LAMBDAS, delta=0.5)
    assert rep.status == "pass"
    assert rep.statistics["max_dominated_ratio"] == 0.0


def test_part_domination_near_cancellation_fails():
    m = SignedMeasure.point_mass(1.0) - SignedMeasure.point_mass(1.001)
    rep = part_domination_test(constant_seq(m), LAMBDAS, delta=0.5)
    assert rep.status == "fail"
    assert rep.witnesses


def test_part_domination_implies_bounded(rng):
    # implication consistency on random dominated families
    for _ in range(10):
        w = float(rng.uniform(0.0, 0.3))
        m = SignedMeasure.point_mass(1.0) - w * SignedMeasure.point_mass(2.0)
        rep = part_domination_test(constant_seq(m), LAMBDAS, delta=0.5)
        if rep.status == "pass":
            assert rep.child("bounded_laplace").status == "pass"


# ---------------------------------------------------------------------------
# theorem-shaped composites
# ---------------------------------------------------------------------------

def test_forward_composite_mollified_all_pass():
    rep = continuity_forward(mollified_seq(), 2.0, LAMBDAS, psi_tol=1e-3, F_tol=1e-3)
    assert rep.status == "pass"
    assert rep.pattern == "hypotheses-pass, conclusion-pass"
    for name in ("laplace_convergence", "bounded_laplace", "continuity_point",
                 "right_equicontinuity", "distribution_convergence"):
        assert rep.child(name).status == "pass", name


def test_forward_composite_mollified_skip_equicontinuity():
    rep = continuity_forward(mollified_seq(), 2.0, LAMBDAS, psi_tol=1e-3,
                             F_tol=1e-3, skip_equicontinuity=True)
    assert rep.status == "pass"
    skipped = rep.child("right_equicontinuity")
    assert skipped.status == "pass"
    assert any("skipped" in note for note in skipped.notes)


def test_forward_composite_dipole_counterexample_pattern():
    rep = continuity_forward(dipole_seq(0.5), 0.5, LAMBDAS, psi_tol=1e-6, F_tol=0.02)
    # hypotheses broken -> implication is vacuously consistent
    assert rep.status == "pass"
    assert rep.pattern == "hypotheses-fail, conclusion-fail"
    assert rep.child("laplace_convergence").status == "pass"
    assert rep.child("bounded_laplace").status == "pass"
    assert rep.child("continuity_point").status == "pass"
    assert rep.child("right_equicontinuity").status == "fail"
    assert rep.child("distribution_convergence").status == "fail"


def test_forward_composite_flags_broken_implication():
    # same dipole family but with the equicontinuity failure masked by an
    # enormous epsilon: hypotheses then (wrongly) pass while the conclusion
    # still fails, so the composite must report the inconsistency
    rep = continuity_forward(dipole_seq(0.5), 0.5, LAMBDAS, psi_tol=1e-6,
                             F_tol=0.02, epsilon=5.0)
    assert rep.pattern == "hypotheses-pass, conclusion-fail"
    assert rep.status == "fail"


def test_backward_composite_mollified():
    rep = continuity_backward(mollified_seq(), (0.5, 2.0, 3.0), LAMBDAS,
                              psi_tol=1e-3, F_tol=1e-3)
    assert rep.status == "pass"
    assert rep.pattern == "hypotheses-pass, conclusion-pass"


def test_backward_composite_dipole_hypothesis_fails_conclusion_holds():
    rep = continuity_backward(dipole_seq(0.5), (0.5,), LAMBDAS,
                              psi_tol=1e-6, F_tol=0.02)
    assert rep.pattern == "hypotheses-fail, conclusion-pass"
    assert rep.status == "pass"  # implication not contradicted


def test_composite_requires_declared_limit():
    seq = MeasureSequence(lambda n: SignedMeasure.point_mass(1.0), limit=None)
    with pytest.raises(ValueError):
        continuity_forward(seq, 1.0, LAMBDAS)


def test_reports_are_deterministic():
    a = continuity_forward(dipole_seq(0.5), 0.5, LAMBDAS).to_dict()
    b = continuity_forward(dipole_seq(0.5), 0.5, LAMBDAS).to_dict()
    assert a == b
