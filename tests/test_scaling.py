import math

import numpy as np
import pytest

from rabitri import CriticalPointError, DomainError, FitRejected, ModelParams
from rabitri.bogoliubov import point_observables
import rabitri.meanfield as meanfield
from rabitri.model import bare_coupling, critical_flux
from rabitri.cli import main
import rabitri.scaling as scaling
from rabitri.scaling import (SweepSpec, _entry, _log_grid, exponent_report,
                             fit_power_law, format_report, observables_near,
                             sweep)

BASE = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.0)


def entry(report, side, quantity, site=None):
    for e in report.entries:
        if (e.side, e.quantity, e.site) == (side, quantity, site):
            return e
    raise AssertionError(f"no entry ({side}, {quantity}, {site})")


@pytest.mark.parametrize("kwargs", [
    dict(side="at"), dict(quantity="eps3"),
    dict(quantity="photon_n", site=None), dict(quantity="var_x", site=4),
    dict(window=(0.0, 1e-2)), dict(window=(1e-2, 1e-5)),
    dict(window=(1e-4, 0.2)), dict(n_points=5),
])
def test_sweep_spec_validation(kwargs):
    base = dict(theta=0.1, side="below", quantity="eps1")
    base.update(kwargs)
    with pytest.raises(DomainError):
        SweepSpec(**base)


def test_fit_power_law_recovers_slope():
    grid = np.logspace(-5, -2, 20)
    pts = [(d, 3.0 * d ** 0.5) for d in grid]
    fit = fit_power_law(pts)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.direction == "vanishing"

    pts = [(d, 0.2 / d) for d in grid]
    fit = fit_power_law(pts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.direction == "divergent"


def test_fit_power_law_flat_is_finite():
    grid = np.logspace(-5, -2, 20)
    fit = fit_power_law([(d, 2.0 + d) for d in grid])
    assert fit.direction == "finite"
    assert abs(fit.slope) < 0.05


def test_fit_power_law_rejects_curved_data():
    # definite slope plus a large wobble: not flat, not a clean power law
    grid = np.logspace(-5, -2, 20)
    pts = [(d, d ** 0.5 * (1.0 + 0.3 * math.sin(3.0 * math.log(d))))
           for d in grid]
    with pytest.raises(FitRejected):
        fit_power_law(pts)


def test_fit_power_law_input_validation():
    with pytest.raises(DomainError):
        fit_power_law([(1e-3, 1.0)] * 5)
    grid = np.logspace(-5, -2, 12)
    pts = [(d, d - 2e-5) for d in grid]   # one non-positive value
    with pytest.raises(DomainError):
        fit_power_law(pts)


def test_sweep_below_gap_vanishes_toward_transition():
    spec = SweepSpec(theta=1.7, side="below", quantity="eps1",
                     window=(1e-5, 1e-2), n_points=12)
    pairs = sweep(BASE, spec)
    assert len(pairs) == 12
    deltas = [d for d, _ in pairs]
    vals = [v for _, v in pairs]
    assert deltas == sorted(deltas)
    assert all(v > 0 for v in vals)
    assert vals == sorted(vals)   # smaller delta, smaller gap


def test_sweep_above_variance_diverges_toward_transition():
    spec = SweepSpec(theta=0.0, side="above", quantity="var_x", site=2,
                     window=(1e-4, 1e-2), n_points=10)
    pairs = sweep(BASE, spec)
    vals = [v for _, v in pairs]
    assert vals == sorted(vals, reverse=True)


def test_sweep_guards_the_critical_point():
    spec = SweepSpec(theta=1.7, side="below", quantity="eps1",
                     window=(1e-13, 1e-10), n_points=10)
    with pytest.raises(CriticalPointError):
        sweep(BASE, spec)


def test_collect_above_frozen_chiral_ladder():
    # deep superradiant-side values at theta = 0.1, crossing the float64 ->
    # multiprecision split; frozen against a 50-digit replica of the
    # continuation pipeline
    from dataclasses import replace
    base = replace(BASE, theta=0.1)
    out = observables_near(base, [1e-5, 1e-7, 1e-9])
    assert out[1e-5]["eps1"] == pytest.approx(2.3113e-05, rel=2e-4)
    assert out[1e-7]["eps1"] == pytest.approx(2.4455e-08, rel=2e-4)
    assert out[1e-9]["eps1"] == pytest.approx(2.447e-11, rel=5e-4)
    assert out[1e-5]["photon_n"][1] == pytest.approx(561.53, rel=2e-4)
    assert out[1e-7]["photon_n"][1] == pytest.approx(5868.8, rel=2e-4)
    assert out[1e-9]["photon_n"][1] == pytest.approx(58643.0, rel=5e-4)
    assert out[1e-5]["var_x"][0] == pytest.approx(35.863, rel=2e-4)
    assert out[1e-7]["var_x"][0] == pytest.approx(37.561, rel=2e-4)
    assert out[1e-5]["var_p"][0] == pytest.approx(0.37137, rel=2e-4)
    assert out[1e-7]["var_p"][0] == pytest.approx(2.713, rel=5e-4)


def test_float64_and_mp_paths_agree(monkeypatch):
    from dataclasses import replace
    base = replace(BASE, theta=0.1)
    d = 3e-4
    f64 = observables_near(base, [d])[d]
    monkeypatch.setattr(meanfield, "_MP_SPLIT", 1e-2)
    mp_ = observables_near(base, [d])[d]
    # the soft gap is a near-cancellation at this delta, so float64 keeps
    # about 9 digits of it; the bulk quantities agree much closer
    assert mp_["eps1"] == pytest.approx(f64["eps1"], rel=1e-8)
    assert mp_["eps2"] == pytest.approx(f64["eps2"], rel=1e-10)
    assert np.asarray(mp_["photon_n"]) == pytest.approx(
        np.asarray(f64["photon_n"]), rel=1e-8)
    assert np.asarray(mp_["var_x"]) == pytest.approx(
        np.asarray(f64["var_x"]), rel=1e-8)


@pytest.mark.parametrize("theta", [0.1, 0.7])
def test_collect_above_mirror_symmetry(theta):
    # theta -> -theta with sites 2 <-> 3 swapped maps the ring onto itself;
    # the deltas straddle the float64 / multiprecision split
    from dataclasses import replace
    deltas = [1e-3, 1e-5, 1e-7, 1e-9]
    plus = observables_near(replace(BASE, theta=theta), deltas)
    minus = observables_near(replace(BASE, theta=-theta), deltas)
    worst = 0.0
    for d in deltas:
        for q in ("eps1", "eps2", "eps3"):
            worst = max(worst, abs(plus[d][q] / minus[d][q] - 1.0))
        for q in ("photon_n", "var_x", "var_p"):
            mirrored = np.asarray(minus[d][q])[[0, 2, 1]]
            worst = max(worst, float(np.max(np.abs(plus[d][q] / mirrored
                                                   - 1.0))))
    assert worst <= 1e-10


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.7])
def test_observables_near_independent_of_energy_unit(theta):
    # scaling (omega, Delta, J) by s leaves g1 and g1c unchanged, scales the
    # gaps by s and leaves photon numbers and variances as they are; the
    # deltas cover the closed forms, float64 and 50-digit continuation steps
    from dataclasses import replace
    deltas = [-1e-3, 1e-2, 3e-3, 3e-4, 1e-4, 1e-8]
    ref = observables_near(replace(BASE, theta=theta), deltas)
    worst = 0.0
    for s in (1e-3, 1e3):
        scaled = replace(BASE, theta=theta, omega=s * BASE.omega,
                         delta=s * BASE.delta, j_hop=s * BASE.j_hop)
        got = observables_near(scaled, deltas)
        for d in deltas:
            for q in ("eps1", "eps2", "eps3", "photon_n", "var_x", "var_p"):
                unit = s if q.startswith("eps") else 1.0
                a = np.asarray(got[d][q], dtype=float) / unit
                b = np.asarray(ref[d][q], dtype=float)
                worst = max(worst, float(np.max(np.abs(a / b - 1.0))))
    assert worst <= 1e-8


@pytest.mark.parametrize("theta", [0.1, 0.5])
def test_chiral_soft_mode_share_law(theta):
    # above the chiral transition the soft mode eps1 ~ delta^1.5 drives
    # site 2's var_x (its contribution diverges as delta^-1/2), while its
    # contribution to site 1's var_x vanishes as delta^+1/2: site 1's
    # finite limit is carried by the gapped eps2 mode
    from dataclasses import replace
    deltas = list(np.logspace(-9, -6, 12))
    out = observables_near(replace(BASE, theta=theta), deltas)
    log_d = np.log10(deltas)
    for site, want in ((1, 0.5), (2, -0.5)):
        part = [out[d]["var_x_modes"][site - 1, 0] for d in deltas]
        slope = np.polyfit(log_d, np.log10(part), 1)[0]
        assert slope == pytest.approx(want, abs=0.02), (site, slope)


def test_exponent_report_ferromagnetic(tmp_path, monkeypatch):
    rep = exponent_report(1.7, BASE)
    assert rep.transition == "NP-FSP"
    assert rep.g1c == pytest.approx(0.4967684446929091, rel=1e-13)

    for side in ("below", "above"):
        e1 = entry(rep, side, "eps1")
        assert e1.status == "power-law"
        assert e1.exponent == pytest.approx(0.5, abs=0.03)
        assert e1.r_squared >= 0.999
        assert e1.window_stable is True
        e2 = entry(rep, side, "eps2")
        assert e2.status == "finite-limit"
        assert e2.limit == pytest.approx(0.0535868, rel=1e-4)
        n1 = entry(rep, side, "photon_n", 1)
        assert n1.status == "power-law"
        assert n1.exponent == pytest.approx(0.5, abs=0.03)
        v1 = entry(rep, side, "var_x", 1)
        assert v1.status == "power-law"
        assert v1.exponent == pytest.approx(0.25, abs=0.03)
        assert abs(v1.slope) == pytest.approx(2 * v1.exponent, abs=1e-15)

    # uniform phase: all three sites carry the same exponents
    for q in ("photon_n", "var_x"):
        slopes = [entry(rep, "above", q, s).slope for s in (1, 2, 3)]
        assert max(slopes) - min(slopes) <= 1e-3

    assert len(rep.z_pairs) == 2
    for zp in rep.z_pairs:
        assert zp.z == pytest.approx(2.0, abs=0.1)

    # the CSV of `rabitri exponents`, written from this report; BASE holds
    # the subcommand's defaults
    monkeypatch.setattr("rabitri.cli.exponent_report",
                        lambda theta, base: rep)
    out = tmp_path / "rep.csv"
    assert main(["exponents", "--theta", "1.7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# exponents ")
    assert lines[1].startswith("# transition=NP-FSP")
    assert lines[3] == ("transition,quantity,site,side,exponent,r2,"
                        "delta_min,delta_max")
    assert any(",finite," in ln for ln in lines)
    text = format_report(rep)
    assert "transition NP-FSP" in text
    assert "finite limit" in text
    assert "z[below" in text and "z[above" in text
    assert "[window-sensitive]" not in text


@pytest.mark.parametrize("k, stable", [(0.0, True), (0.01, True),
                                      (0.02, False)])
def test_window_stability_rule(k, stable):
    # log10 y = 0.5 log10 delta + k (log10 delta + 7.5)^3 on [1e-9, 1e-6]:
    # the cubic bends the central half's slope away from the full fit's
    # by about 1.2 k while the full fit keeps r^2 >= 0.999
    window = (1e-9, 1e-6)
    series = {}
    for d in _log_grid(window, 12):
        x = math.log10(d)
        series[d] = {"eps1": 10.0 ** (0.5 * x + k * (x + 7.5) ** 3)}
    e = _entry(("above", "eps1", None), window, series, 1.0)
    assert e.status == "power-law"
    assert e.window_stable is stable


@pytest.mark.parametrize("theta, n_deltas", [(1.7, 24), (0.1, 48)])
def test_report_evaluates_one_grid_per_row(monkeypatch, theta, n_deltas):
    # 12 points per side; above the chiral transition the two crossover
    # bands add 12 each
    asked = []

    def recording(base, deltas, seed=0):
        asked.extend(deltas)
        return observables_near(base, deltas, seed)

    monkeypatch.setattr(scaling, "observables_near", recording)
    exponent_report(theta, BASE)
    assert len(asked) == len(set(asked)) == n_deltas


def assert_same_floats(a, b):
    for key in ("eps1", "eps2", "eps3", "photon_n", "var_x", "var_p",
                "var_x_modes"):
        assert np.array_equal(a[key], b[key]), key


@pytest.mark.parametrize("theta, deltas", [
    # the chiral var_x band of the report, and the superradiant points of
    # the `fluctuations` and `spectrum` scans (g1/g1c = 1.01, 1.03, 1.05)
    (0.1, _log_grid(scaling._CROSSOVER_WINDOWS[
        ("csp", "above", "var_x", 1)], scaling._REPORT_POINTS)),
    *((theta, [float(r) - 1.0 for r in np.linspace(0.95, 1.05, 6)[3:]])
      for theta in (0.0, 0.5, 2.0))])
def test_float64_stack_equals_the_point_by_point_calls(theta, deltas):
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05,
                       theta=theta)
    roots = meanfield.continued_roots(base, deltas)
    qs = [roots[d][0] for d in deltas]
    stack = point_observables(qs[0], np.array([roots[d][1] for d in deltas]),
                              np.array([[bare_coupling(q)] for q in qs]))
    near = observables_near(base, deltas)
    for d, row in zip(deltas, stack):
        alone = point_observables(*roots[d])
        assert_same_floats(row, alone)
        assert_same_floats(near[d], alone)


def test_deep_row_does_not_depend_on_the_other_rows():
    # every 50-digit root is polished from the same float64 root at the
    # split, so asking for more deltas leaves each deep row as it is
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.2, theta=0.0)
    assert_same_floats(observables_near(base, [3e-12])[3e-12],
                       observables_near(base, [3e-12, 9e-5])[3e-12])


@pytest.mark.parametrize("delta, j_hop", [(100.0, 0.05), (400.0, 0.02)])
@pytest.mark.parametrize("theta", [0.0, 0.1, 1.7])
def test_report_window_rows_match_single_delta_calls(delta, j_hop, theta):
    base = ModelParams(omega=1.0, delta=delta, g1=0.1, j_hop=j_hop,
                       theta=theta)
    grid = _log_grid(scaling._REPORT_WINDOW, scaling._REPORT_POINTS)
    window = observables_near(base, grid)
    for d in grid:
        assert_same_floats(window[d], observables_near(base, [d])[d])


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.7])
def test_float64_band_rows_match_single_delta_calls(theta):
    # every float64 row is seeded from the anchor root alone and polished in
    # one stack, so the rest of the chiral var_x band changes none of its bits
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05,
                       theta=theta)
    band = _log_grid(scaling._CROSSOVER_WINDOWS[
        ("csp", "above", "var_x", 1)], scaling._REPORT_POINTS)
    rows = observables_near(base, band)
    for d in band:
        assert_same_floats(rows[d], observables_near(base, [d])[d])


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 1.7, 2.0])
def test_float64_rows_match_fifty_digits(monkeypatch, theta):
    # the full Newton step past the stop leaves each float64 row with the
    # rounding of J alone, u/eps1^2 (below 2e-10 here)
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05,
                       theta=theta)
    deltas = [1e-4, 1.5e-4, 2.31e-4, 3e-4, 5e-4, 1e-3, 3e-3]
    f64 = observables_near(base, deltas)
    monkeypatch.setattr(meanfield, "_MP_SPLIT", 1e-2)
    mp_ = observables_near(base, deltas)
    for d in deltas:
        for key in ("eps1", "eps2", "eps3", "photon_n", "var_x", "var_p"):
            assert np.asarray(f64[d][key]) == pytest.approx(
                np.asarray(mp_[d][key]), rel=1e-9, abs=0), (d, key)


@pytest.mark.parametrize("delta, j_hop", [(100.0, 0.05), (100.0, 0.2),
                                          (400.0, 0.02)])
@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 1.7, 3.0])
def test_deep_rows_do_not_depend_on_their_seed(monkeypatch, delta, j_hop,
                                               theta):
    # seeded from the float64 root at 1e-4 or at 2e-4, a deep 50-digit root
    # ends one full Newton step past the stop, where the seed has gone
    base = ModelParams(omega=1.0, delta=delta, g1=0.1, j_hop=j_hop,
                       theta=theta)
    deep = [1e-11, 5e-12, 3e-12]
    rows = observables_near(base, deep)
    monkeypatch.setattr(meanfield, "_MP_SPLIT", 2e-4)
    moved = observables_near(base, deep)
    for d in deep:
        for key in ("eps1", "eps2", "eps3", "photon_n", "var_x", "var_p"):
            a, b = np.asarray(rows[d][key]), np.asarray(moved[d][key])
            assert np.all(np.abs(a - b) <= 4 * np.spacing(np.abs(a))), (d, key)


def test_exponent_report_default_base():
    rep = exponent_report(1.7)
    assert rep.params.delta == 100.0 and rep.params.j_hop == 0.05
    assert rep.transition == "NP-FSP"


@pytest.mark.parametrize("delta, j_hop, theta", [
    (400.0, 0.02, 0.0), (1000.0, 0.01, "theta_c"), (100.0, 0.1, 1.7),
], ids=["d400-j0.02-afsp", "d1000-j0.01-tp", "d100-j0.1-fsp"])
def test_exponent_report_off_reference_has_no_failed_rows(delta, j_hop,
                                                           theta):
    base = ModelParams(omega=1.0, delta=delta, g1=0.1, j_hop=j_hop,
                       theta=0.0)
    if theta == "theta_c":
        theta = critical_flux(base)
    rep = exponent_report(theta, base)
    assert len(rep.entries) == 12
    failed = [(e.side, e.quantity, e.site, e.note) for e in rep.entries
              if e.status == "failed"]
    assert failed == []


def test_gapped_second_mode_reads_as_finite_limit():
    # at theta = 3 and J = 0.1 the second mode stays open through the
    # ferromagnetic transition (eps2 -> 0.547 omega): the slope rule that
    # labels every row reads its rows as finite limits
    base = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.1, theta=3.0)
    rep = exponent_report(3.0, base)
    for side in ("below", "above"):
        e = entry(rep, side, "eps2")
        assert e.status == "finite-limit"
        assert abs(e.slope) < 0.05
        assert e.limit == pytest.approx(0.547, rel=1e-3)
    assert all(e.status == "power-law" for e in rep.entries
               if e.quantity != "eps2")
