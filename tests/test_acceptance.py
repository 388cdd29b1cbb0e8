"""End-to-end acceptance checks.

One test per criterion, each ending in a single PASS line with the worst
measured margin, so `pytest -v -s tests/test_acceptance.py` reads as a
criterion-by-criterion record. The heavy pieces (exponent reports, long
trajectories) are module-scoped fixtures shared across tests.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from rabitri import ModelParams
from rabitri.bogoliubov import diagonalize_paraunitary, point_observables
from rabitri.dynamics import FockBasis, chirality_metric, evolve, \
    exact_ground_energy
from rabitri.meanfield import (fsp_closed_form, ground_energy_mf,
                               residual_jacobian, residuals,
                               solve_displacements)
from rabitri.model import MOMENTA, critical_coupling_min, critical_flux
from rabitri.np_analytics import (excitation_energies, ground_energy_np,
                                  local_photon_np, mode, variance_p_np,
                                  variance_x_np)
from rabitri.scaling import exponent_report


BASE = ModelParams(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.0)
THETA_C = critical_flux(BASE)
THETAS = (0.0, 0.1, THETA_C, 1.7)


def params(theta, g1):
    return replace(BASE, theta=theta, g1=g1)


def matrix_route(p):
    """point_observables at the mean-field root of p."""
    return point_observables(p, solve_displacements(p).x)


def np_grid():
    for th in THETAS:
        g1c = critical_coupling_min(params(th, 0.0))
        for g1 in np.linspace(0.05, 0.95 * g1c, 13):
            yield params(th, float(g1))


def sr_grid():
    for th in THETAS:
        g1c = critical_coupling_min(params(th, 0.0))
        for d in (1e-3, 1e-2, 1e-1):
            yield params(th, g1c * (1.0 + d))


@pytest.fixture(scope="module")
def reports():
    return {th: exponent_report(th, BASE) for th in THETAS}


def entry(report, side, quantity, site=None):
    for e in report.entries:
        if (e.side, e.quantity, e.site) == (side, quantity, site):
            return e
    raise AssertionError(f"missing entry ({side}, {quantity}, {site})")


DYN = ModelParams(omega=1.0, delta=50.0, g1=0.1, j_hop=0.05, theta=0.0)


@pytest.fixture(scope="module")
def traj_zero():
    return evolve(DYN, FockBasis(n_max=6), t_final=125.0)


@pytest.fixture(scope="module")
def traj_plus():
    return evolve(replace(DYN, theta=+math.pi / 2), FockBasis(n_max=6),
                  t_final=125.0)


@pytest.fixture(scope="module")
def traj_minus():
    return evolve(replace(DYN, theta=-math.pi / 2), FockBasis(n_max=6),
                  t_final=125.0)


@pytest.fixture(scope="module")
def traj_plus_n8():
    return evolve(replace(DYN, theta=+math.pi / 2), FockBasis(n_max=8),
                  t_final=125.0)


def test_criterion_1_normal_phase_equivalence():
    worst = 0.0
    count = 0
    for p in np_grid():
        count += 1
        obs = matrix_route(p)
        closed = excitation_energies(p)
        for a, b in zip((obs["eps1"], obs["eps2"], obs["eps3"]), closed):
            worst = max(worst, abs(a - b) / abs(b))
        n_closed = local_photon_np(p)
        vx_closed = variance_x_np(p)
        n_mat = obs["photon_n"]
        vx_mat = obs["var_x"]
        for s in range(3):
            worst = max(worst, abs(n_mat[s] - n_closed) / abs(n_closed))
            worst = max(worst, abs(vx_mat[s] - vx_closed) / abs(vx_closed))
    assert count >= 50
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 1 normal-phase equivalence: PASS "
          f"({count} points, worst rel err {worst:.2e} <= 1e-10)")


def test_criterion_2_paraunitarity_everywhere():
    worst = 0.0
    # in the real form: the symplectic S, whose complex dress is Colpa's
    # paraunitary T, has S^T Om S = Om
    for p in (*np_grid(), *sr_grid()):
        x = solve_displacements(p).x
        ps = diagonalize_paraunitary(residual_jacobian(p, x))
        worst = max(worst, ps.para_residual)
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 2 paraunitarity: PASS "
          f"(worst |S^T Om S - Om| = {worst:.2e} <= 1e-10)")


# (flux, side, quantity, site) -> table exponent; variance rows carry nu,
# gap rows gamma, photon rows beta
TABLE = {
    (0.0, "below", "eps1", None): 0.5,
    (0.0, "below", "eps2", None): 0.5,
    (0.0, "below", "photon_n", 1): 0.5,
    (0.0, "below", "var_x", 1): 0.25,
    (0.0, "above", "eps1", None): 1.0,
    (0.0, "above", "eps2", None): 0.5,
    (0.0, "above", "photon_n", 1): 0.5,
    (0.0, "above", "photon_n", 2): 1.0,
    (0.0, "above", "photon_n", 3): 1.0,
    (0.0, "above", "var_x", 1): 0.25,
    (0.0, "above", "var_x", 2): 0.5,
    (0.0, "above", "var_x", 3): 0.5,
    (0.1, "below", "eps1", None): 1.0,
    (0.1, "above", "eps1", None): 1.5,
    (0.1, "above", "photon_n", 1): 1.0 / 3.0,
    (0.1, "above", "photon_n", 2): 0.5,
    (0.1, "above", "photon_n", 3): 0.5,
    (0.1, "above", "var_x", 1): 1.0 / 6.0,
    (0.1, "above", "var_x", 2): 0.25,
    (0.1, "above", "var_x", 3): 0.25,
    (THETA_C, "below", "eps1", None): 1.0,
    (THETA_C, "below", "eps2", None): 0.5,
    (THETA_C, "below", "photon_n", 1): 0.5,
    (THETA_C, "below", "var_x", 1): 0.25,
    (THETA_C, "above", "eps1", None): 1.0,
    (THETA_C, "above", "eps2", None): 0.5,
    (THETA_C, "above", "photon_n", 1): 0.5,
    (THETA_C, "above", "photon_n", 2): 0.5,
    (THETA_C, "above", "photon_n", 3): 0.5,
    (THETA_C, "above", "var_x", 1): 0.25,
    (THETA_C, "above", "var_x", 2): 0.25,
    (THETA_C, "above", "var_x", 3): 0.25,
    (1.7, "below", "eps1", None): 0.5,
    (1.7, "below", "photon_n", 1): 0.5,
    (1.7, "below", "var_x", 1): 0.25,
    (1.7, "above", "eps1", None): 0.5,
    (1.7, "above", "photon_n", 1): 0.5,
    (1.7, "above", "photon_n", 2): 0.5,
    (1.7, "above", "photon_n", 3): 0.5,
    (1.7, "above", "var_x", 1): 0.25,
    (1.7, "above", "var_x", 2): 0.25,
    (1.7, "above", "var_x", 3): 0.25,
}


def test_criterion_3_exponent_table(reports):
    worst = 0.0
    worst_r2 = 1.0
    for (th, side, quantity, site), target in TABLE.items():
        e = entry(reports[th], side, quantity, site)
        where = f"theta={th:.4f} {side} {quantity} site={site}"
        assert e.status == "power-law", f"{where}: status {e.status}"
        assert abs(e.exponent - target) <= 0.03, \
            f"{where}: {e.exponent:.4f} vs {target:.4f}"
        assert e.r_squared >= 0.999, f"{where}: r2 {e.r_squared:.6f}"
        worst = max(worst, abs(e.exponent - target))
        worst_r2 = min(worst_r2, e.r_squared)
    print(f"\nACCEPTANCE 3 exponent table: PASS ({len(TABLE)} entries, "
          f"worst |fit - target| = {worst:.4f} <= 0.03, "
          f"min r2 = {worst_r2:.6f} >= 0.999)")


def test_criterion_4_chiral_finite_limits(reports):
    rep = reports[0.1]
    for quantity in ("photon_n", "var_x"):
        e = entry(rep, "below", quantity, 1)
        assert e.status == "finite-limit", f"{quantity}: {e.status}"
        assert e.status != "power-law"
    e2 = entry(rep, "below", "eps2")
    assert e2.status == "finite-limit"
    # frozen 50-digit limits as g1 -> g1c from below at theta = 0.1
    base = replace(BASE, theta=0.1)
    obs = point_observables(
        replace(base, g1=critical_coupling_min(base) * (1.0 - 1e-11)))
    assert obs["photon_n"][0] == pytest.approx(18.0764285189958, rel=1e-7)
    assert obs["var_x"][0] == pytest.approx(74.1768045373662, rel=1e-7)
    assert obs["eps2"] == pytest.approx(0.0172916559832775, rel=1e-7)
    print("\nACCEPTANCE 4 chiral finite limits: PASS (photon and var_x "
          "detected as finite, no power law accepted; limits match the "
          "frozen values to 1e-7)")


def test_criterion_5a_zero_flux_balance(traj_zero):
    dev = float(np.max(np.abs(traj_zero.n_photon[:, 1]
                              - traj_zero.n_photon[:, 2])))
    assert dev <= 1e-8
    assert chirality_metric(traj_zero) == 0.0
    print(f"\nACCEPTANCE 5a zero-flux balance: PASS "
          f"(max |N2 - N3| = {dev:.2e} <= 1e-8)")


def test_criterion_5b_chirality_and_mirror(traj_plus, traj_minus):
    assert chirality_metric(traj_plus) == 1.0
    assert chirality_metric(traj_minus) == -1.0
    assert np.array_equal(traj_plus.times, traj_minus.times)
    dev = max(
        float(np.max(np.abs(traj_plus.n_photon[:, 0]
                            - traj_minus.n_photon[:, 0]))),
        float(np.max(np.abs(traj_plus.n_photon[:, 1]
                            - traj_minus.n_photon[:, 2]))),
        float(np.max(np.abs(traj_plus.n_photon[:, 2]
                            - traj_minus.n_photon[:, 1]))))
    assert dev <= 1e-8
    print(f"\nACCEPTANCE 5b chirality +1/-1 and 2<->3 mirror: PASS "
          f"(max swap deviation = {dev:.2e} <= 1e-8)")


def test_criterion_5c_norm_drift(traj_zero, traj_plus, traj_minus):
    drift = max(float(np.max(np.abs(t.norm - 1.0)))
                for t in (traj_zero, traj_plus, traj_minus))
    assert drift <= 1e-8
    print(f"\nACCEPTANCE 5c norm drift: PASS ({drift:.2e} <= 1e-8)")


def test_criterion_5d_cutoff_stability(traj_plus, traj_plus_n8):
    dev = float(np.max(np.abs(traj_plus.n_photon - traj_plus_n8.n_photon)))
    assert dev <= 1e-6
    print(f"\nACCEPTANCE 5d cutoff stability n_max 6->8: PASS "
          f"({dev:.2e} <= 1e-6)")


def test_criterion_6_mean_field_correctness():
    # FSP closed form solves the stationarity equations; the residuals of
    # the scaled root are sqrt(delta/omega) times smaller than in (A, B)
    scale = math.sqrt(BASE.delta / BASE.omega)
    worst_res = 0.0
    for th in (1.7, math.pi):
        p = params(th, 0.6)
        x = fsp_closed_form(p)
        worst_res = max(worst_res, float(np.max(np.abs(residuals(p, x)))))
    assert worst_res <= 1e-12 / scale

    # three cyclically related degenerate roots with one site opposing
    # both neighbors
    g1c = critical_coupling_min(params(0.0, 0.0))
    p = params(0.0, 1.1 * g1c)
    root = solve_displacements(p).x
    energies = []
    for shift in (0, 1, 2):
        x = np.concatenate([np.roll(root[:3], shift),
                            np.roll(root[3:], shift)])
        assert np.max(np.abs(residuals(p, x))) <= 1e-9 / scale
        energies.append(ground_energy_mf(p, x))
        signs = np.sign(x[:3])
        opposing = [s for s in range(3)
                    if signs[s] == -signs[(s + 1) % 3] == -signs[(s - 1) % 3]]
        assert len(opposing) == 1
    # energies over delta/omega, as the tie rule of the multi-start reads
    spread = max(energies) - min(energies)
    assert spread <= 1e-10

    # residuals are exactly half the energy gradient: check against central
    # finite differences at 100 random displacement points
    rng = np.random.default_rng(0)
    pg = params(0.3, 0.6)
    h = 1e-6
    worst_fd = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=6)
        r = residuals(pg, x)
        for k in range(6):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            ep = ground_energy_mf(pg, xp)
            em = ground_energy_mf(pg, xm)
            worst_fd = max(worst_fd, abs(2.0 * r[k] - (ep - em) / (2 * h)))
    assert worst_fd <= 1e-6
    print(f"\nACCEPTANCE 6 mean-field correctness: PASS (FSP residual "
          f"{worst_res:.2e} <= 1e-12, orbit energy spread {spread:.2e} <= "
          f"1e-10, gradient vs FD {worst_fd:.2e} <= 1e-6)")


def test_criterion_7_full_hamiltonian_oracle():
    p = replace(DYN, theta=0.0)
    e_full = exact_ground_energy(p, FockBasis(n_max=8))
    e_np = ground_energy_np(p)
    rel = abs(e_full - e_np) / abs(e_np)
    assert rel <= 5e-3
    print(f"\nACCEPTANCE 7 full-Hamiltonian oracle: PASS "
          f"(rel diff {rel:.2e} <= 5e-3)")


def test_criterion_8_uncertainty_bound():
    worst_site = math.inf
    worst_mode = 0.0
    for p in np_grid():
        vx, vp = variance_x_np(p), variance_p_np(p)
        worst_site = min(worst_site, vx * vp)
        k4 = 4 * p.omega * p.g1 ** 2
        for q in MOMENTA:
            m = mode(p, q)
            vxq = (m.Omega_plus + k4) / (2 * m.epsilon - m.Omega_minus)
            vpq = math.exp(-4 * m.lambda_q)
            worst_mode = max(worst_mode, abs(vxq * vpq - 1.0))
    for p in sr_grid():
        obs = matrix_route(p)
        prod = obs["var_x"] * obs["var_p"]
        worst_site = min(worst_site, float(np.min(prod)))
    assert worst_site >= 1.0 - 1e-12
    assert worst_mode <= 1e-12
    print(f"\nACCEPTANCE 8 uncertainty bound: PASS (min site product "
          f"{worst_site:.12f} >= 1, per-mode |product - 1| "
          f"{worst_mode:.2e} <= 1e-12)")


# the z pairs the report derives from the modes' shares of var_x, as
# (side, gap, site of the var_x row)
Z_PAIRS = {
    0.0: {("below", "eps1", 1), ("above", "eps1", 2), ("above", "eps2", 1)},
    0.1: {("above", "eps1", 2)},
    THETA_C: {("below", "eps2", 1), ("above", "eps2", 1)},
    1.7: {("below", "eps1", 1), ("above", "eps1", 1)},
}


def test_criterion_9_dynamical_exponent(reports):
    for th, want in Z_PAIRS.items():
        got = {(zp.side, zp.gap_quantity, zp.site)
               for zp in reports[th].z_pairs}
        assert got == want, f"theta={th}: z pairs {sorted(got)}"
    gaps = {}
    for th, label in ((0.0, "NP-AFSP"), (THETA_C, "TP"), (1.7, "NP-FSP")):
        zs = [zp.z for zp in reports[th].z_pairs]
        assert len(zs) >= 2
        gap = max(abs(a - b) for a in zs for b in zs)
        assert gap <= 0.05, f"{label}: z values {zs}, spread {gap:.4f}"
        gaps[label] = gap
    # the chiral transition pairs only eps1 with site 2: below it var_x
    # tends to a finite limit, and above it site 1's var_x, fitted on its
    # crossover band, is carried by the gapped eps2 mode (94% at the band's
    # lower end, 97.6% at delta = 1e-9, where eps1's part vanishes as
    # delta^1/2), so site 1 has no vanishing gap to pair with
    csp = [zp.z for zp in reports[0.1].z_pairs]
    assert all(math.isfinite(z) and z > 0 for z in csp)
    worst = max(gaps.values())
    print(f"\nACCEPTANCE 9 z = gamma/nu consistency: PASS (worst in-"
          f"transition spread {worst:.4f} <= 0.05; chiral z reported: "
          + ", ".join(f"{z:.3f}" for z in csp) + ")")
