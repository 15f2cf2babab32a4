"""Regular-variation index estimation, the two non-cancellation
conditions, the rescaled-family limit, the asymptotic transform /
distribution ratio, and the end-to-end conversion pipelines."""

import math

import pytest

from tauber import (
    SignChangeNearInfinity,
    SignChangeNearZero,
    SignedMeasure,
    Term,
    asymptotic_ratio,
    distribution_convergence_test,
    gamma_limit_measure,
    karamata_pipeline,
    laplace_convergence_test,
    laplace_transform,
    rescaled_family,
    rv_index_from_distribution,
    rv_index_from_transform,
    rv_report,
    sign_ratio_condition,
    slow_variation_diagnostic,
    window_increment_condition,
)
from tests.conftest import worked_oscillatory_measure


def power_measure(rho):
    """Density x^(rho-1)/Gamma(rho): transform is exactly lam^(-rho)."""
    return SignedMeasure.from_density((Term(1.0 / math.gamma(rho), rho - 1.0),))


# ---------------------------------------------------------------------------
# index estimation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 1.0, 2.3, 3.7])
def test_rv_index_transform_exact_on_pure_powers(rho):
    est = rv_index_from_transform(power_measure(rho))
    assert est.index == pytest.approx(rho, abs=1e-9)
    assert est.dispersion <= 1e-9
    assert est.regression_index == pytest.approx(rho, abs=1e-6)


def test_rv_index_transform_worked_measure():
    est = rv_index_from_transform(worked_oscillatory_measure())
    assert est.index == pytest.approx(2.0, abs=1e-6)
    assert est.dispersion <= 0.05


@pytest.mark.parametrize("rho", [0.5, 1.0, 2.3])
def test_rv_index_distribution_exact_on_pure_powers(rho):
    est = rv_index_from_distribution(power_measure(rho))
    assert est.index == pytest.approx(rho, abs=1e-9)


def test_rv_index_distribution_worked_measure():
    # F(x) = x^2/4 + x sin x + cos x - 1: the oscillatory part is O(1/x)
    # relative, so the windowed estimate sits near 2 but not exactly
    est = rv_index_from_distribution(worked_oscillatory_measure())
    assert est.index == pytest.approx(2.0, abs=0.01)


def test_rv_index_transform_rejects_sign_change():
    m = SignedMeasure.point_mass(0.0) - 2.0 * SignedMeasure.point_mass(1.0)
    # psi(tau) = 1 - 2 e^{-tau} crosses zero at tau = log 2
    with pytest.raises(SignChangeNearZero):
        rv_index_from_transform(m)


def test_rv_index_distribution_rejects_sign_change():
    # density cos x: F(t) = sin t flips sign on every window
    m = SignedMeasure.from_density((Term(1.0, 0.0, 0.0, "cos", 1.0),))
    with pytest.raises(SignChangeNearInfinity):
        rv_index_from_distribution(m)


def test_rv_index_distribution_constant_negative_window_is_fine():
    # F == -1 far out has one sign: ratios are taken on |F| and the
    # estimated index is 0, no exception
    m = SignedMeasure.point_mass(1.0) - 2.0 * SignedMeasure.point_mass(2.0)
    est = rv_index_from_distribution(m)
    assert est.index == pytest.approx(0.0, abs=1e-12)


def test_rv_report_flags_declared_mismatch():
    est = rv_index_from_transform(power_measure(2.0))
    ok = rv_report(est, declared=2.0)
    assert ok.status == "pass"
    bad = rv_report(est, declared=3.0)
    assert bad.status == "fail"
    assert bad.statistics["declared"] == 3.0


# ---------------------------------------------------------------------------
# the two conditions
# ---------------------------------------------------------------------------

def test_sign_ratio_condition_exact_route_third():
    m = SignedMeasure.point_mass(1.0) - 0.5 * SignedMeasure.point_mass(2.0)
    rep = sign_ratio_condition(m)
    assert rep.status == "pass"
    # psi/psi_abs -> (1 - 1/2)/(1 + 1/2) = 1/3 as tau -> 0
    assert rep.statistics["min_tail_bound_ratio"] == pytest.approx(1 / 3, abs=0.01)
    assert any("exact total variation" in n for n in rep.notes)


def test_sign_ratio_condition_envelope_route_worked_measure():
    rep = sign_ratio_condition(worked_oscillatory_measure())
    assert rep.status == "pass"
    # the envelope denominator gives 1/3 in the limit; the measured ratio
    # against the exact total-variation transform is the larger 0.6964
    assert rep.statistics["min_tail_bound_ratio"] == pytest.approx(1 / 3, abs=0.01)
    assert any("envelope" in n for n in rep.notes)
    tail_rows = [r for r in rep.table if r["tau"] <= 0.01]
    assert tail_rows and all(
        r["measured_ratio"] == pytest.approx(0.696383, abs=1e-3) for r in tail_rows
    )


def test_sign_ratio_condition_fails_on_near_cancellation():
    m = SignedMeasure.point_mass(1.0) - SignedMeasure.point_mass(1.001)
    rep = sign_ratio_condition(m)
    assert rep.status == "fail"
    assert rep.witnesses


def test_sign_ratio_condition_nonnegative_is_one():
    rep = sign_ratio_condition(power_measure(1.0))
    assert rep.status == "pass"
    assert rep.statistics["min_tail_bound_ratio"] == pytest.approx(1.0, rel=1e-9)
    assert any("certified nonnegative" in n for n in rep.notes)


def test_sign_ratio_condition_zero_measure_is_inconclusive():
    rep = sign_ratio_condition(SignedMeasure.zero())  # every ratio is 0/0
    assert math.isnan(rep.statistics["min_tail_bound_ratio"])
    assert rep.status == "inconclusive"


def test_sign_ratio_condition_inside_the_band_is_inconclusive():
    rep = sign_ratio_condition(power_measure(1.0), floor=1.0)  # the ratio is 1
    assert rep.statistics["min_tail_bound_ratio"] == pytest.approx(1.0, rel=1e-9)
    assert rep.status == "inconclusive"


def test_window_increment_condition_power_measure():
    rep = window_increment_condition(power_measure(2.0), 1.0)
    assert rep.status == "pass"
    # F((x+h)/tau) - F(x/tau) ~ h * x * tau^{-2} / Gamma(2) against
    # psi(tau) = tau^{-2}: ratio ~ h (x + h/2), so small windows pass
    assert rep.statistics["max_small_window_stat"] < 0.05


def test_window_increment_condition_finite_measure_trivially_passes():
    # the probe window (x/tau, (x+h)/tau] walks out to infinity as tau -> 0,
    # so a fixed finite measure ends up with zero increments
    rep = window_increment_condition(SignedMeasure.point_mass(1.0), 1.0)
    assert rep.status == "pass"
    assert rep.statistics["max_small_window_stat"] == 0.0


def test_window_increment_condition_detects_mass_at_scale():
    # park an atom inside the smallest rescaling window of the default
    # grids (tau = 1e-6, h = 2^-10, x = 1): the jump is order psi(tau),
    # so the increment/transform ratio cannot shrink and the check fails
    loc = (1.0 + 2.0**-10 / 2) / 1e-6
    m = SignedMeasure.point_mass(0.0, 1.0) + SignedMeasure.point_mass(loc, 1.0)
    rep = window_increment_condition(m, 1.0, ceiling=0.05)
    assert rep.status == "fail"
    (w,) = rep.witnesses
    assert w["value"] > 0.5


def test_window_increment_rejects_zero_point():
    with pytest.raises(ValueError):
        window_increment_condition(power_measure(1.0), 0.0)


# ---------------------------------------------------------------------------
# gamma limit + rescaled family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_gamma_limit_transform_is_power(rho):
    nu = gamma_limit_measure(rho)
    for lam in (0.25, 1.0, 4.0):
        assert laplace_transform(nu, lam) == pytest.approx(lam ** -rho, rel=1e-12)


def test_gamma_limit_rejects_negative_index():
    with pytest.raises(ValueError):
        gamma_limit_measure(-0.5)


def test_rescaled_family_converges_for_power_measure():
    fam = rescaled_family(power_measure(2.0), rho=2.0)
    rep = laplace_convergence_test(fam, (0.5, 1.0, 2.0), tol=1e-6)
    assert rep.status == "pass"
    repF = distribution_convergence_test(fam, (0.5, 1.0, 2.0), tol=0.02)
    assert repF.status == "pass"


def test_rescaled_family_zero_index_limit_is_unit_atom():
    # finite measure: rescaling concentrates everything at 0
    m = SignedMeasure.from_density((Term(1.0, 0.0, 1.0),))
    fam = rescaled_family(m, rho=0.0)
    assert fam.limit.isclose(SignedMeasure.point_mass(0.0, 1.0))
    assert fam.exceptional == (0.0,)
    rep = laplace_convergence_test(fam, (0.5, 1.0, 2.0), tol=1e-3)
    assert rep.status == "pass"


def test_rescaled_family_estimates_index_when_not_given():
    fam = rescaled_family(power_measure(1.5))
    assert laplace_transform(fam.limit, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert fam.limit.segments[0].density.terms[0].power == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# asymptotic ratio + slow variation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0, 3.7])
def test_asymptotic_ratio_exact_for_pure_powers(rho):
    # psi(1/t) = t^rho and F(t) = t^rho/Gamma(rho+1): ratio identically 1
    rep = asymptotic_ratio(power_measure(rho), rho)
    assert rep.status == "pass"
    assert rep.statistics["windowed_mean"] == pytest.approx(1.0, rel=1e-10)


def test_asymptotic_ratio_worked_measure_within_two_percent():
    rep = asymptotic_ratio(worked_oscillatory_measure(), 2.0)
    assert rep.status == "pass"
    assert rep.statistics["abs_deviation"] <= 0.02


def test_asymptotic_ratio_detects_wrong_index():
    rep = asymptotic_ratio(power_measure(2.0), 1.0)
    assert rep.status == "fail"


def test_slow_variation_diagnostic():
    assert slow_variation_diagnostic(power_measure(2.0), 2.0).status == "pass"
    # wrong index leaves a power factor: l(2t)/l(t) = 2 != 1
    assert slow_variation_diagnostic(power_measure(2.0), 1.0).status == "fail"


@pytest.mark.parametrize("bad", [(), (0.0, 1.0, 10.0)], ids=["empty", "zero"])
@pytest.mark.parametrize("check", [
    lambda m, g: window_increment_condition(m, 1.0, tau_grid=g),
    lambda m, g: window_increment_condition(m, 1.0, h_grid=g),
    lambda m, g: asymptotic_ratio(m, 2.0, t_grid=g),
    lambda m, g: slow_variation_diagnostic(m, 2.0, t_grid=g),
], ids=["window_increment-tau", "window_increment-h", "asymptotic_ratio",
        "slow_variation"])
def test_grid_checks_refuse_an_empty_or_nonpositive_grid(check, bad):
    # these gave IndexError, ZeroDivisionError or a vacuous pass before
    # they shared the one `grid` rule
    with pytest.raises(ValueError, match="must be a nonempty list of positive"):
        check(power_measure(2.0), bad)


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.5, 3.7])
def test_pipeline_forward_gamma_measures(rho):
    rep = karamata_pipeline(power_measure(rho), "psi_to_F", rho=rho)
    assert rep.status == "pass"
    assert rep.statistics["rho_transform"] == pytest.approx(rho, abs=1e-6)
    names = [c.check for c in rep.children]
    assert names == [
        "rv_index_transform", "sign_ratio_condition", "window_increment_condition",
        "laplace_convergence", "bounded_laplace", "rescaled_equicontinuity",
        "distribution_convergence", "rv_index_distribution", "asymptotic_ratio",
        "slow_variation",
    ]


def test_pipeline_forward_lebesgue():
    leb = SignedMeasure.from_density((Term(1.0, 0.0),))
    rep = karamata_pipeline(leb, "psi_to_F", rho=1.0)
    assert rep.status == "pass"


def test_pipeline_forward_worked_measure():
    rep = karamata_pipeline(worked_oscillatory_measure(), "psi_to_F", rho=2.0)
    assert rep.status == "pass"
    assert rep.statistics["rho_distribution"] == pytest.approx(2.0, abs=0.01)


def test_pipeline_backward_worked_measure():
    rep = karamata_pipeline(worked_oscillatory_measure(), "F_to_psi", rho=2.0)
    assert rep.status == "pass"
    assert rep.statistics["rho_integrated_tail"] == pytest.approx(3.0, abs=0.05)
    names = [c.check for c in rep.children]
    assert names == [
        "rv_index_distribution", "integrated_tail_nonnegative",
        "rv_index_integrated_tail", "asymptotic_ratio", "rv_index_transform",
    ]


def test_pipeline_backward_lebesgue():
    leb = SignedMeasure.from_density((Term(1.0, 0.0),))
    rep = karamata_pipeline(leb, "F_to_psi", rho=1.0)
    assert rep.status == "pass"


def test_pipeline_rejects_unknown_direction():
    with pytest.raises(ValueError):
        karamata_pipeline(power_measure(1.0), "sideways")


def test_pipeline_catches_declared_index_mismatch():
    rep = karamata_pipeline(power_measure(2.0), "psi_to_F", rho=1.0)
    assert rep.status == "fail"
    assert rep.child("rv_index_transform").status == "fail"
