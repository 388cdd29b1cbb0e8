import math
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from rabitri import (CriticalPointError, DegeneracyWarning, DomainError,
                     InstabilityError, PhaseLabel)
from rabitri.bogoliubov import (_SIGN, build_m_matrix,
                                diagonalize_paraunitary, local_photon_sr,
                                point_observables, variance_p_sr,
                                variance_x_sr)
from rabitri.meanfield import (Displacement, _newton, continued_roots,
                               ground_energy_mf, solve_displacements)
from rabitri.model import critical_coupling_min
from rabitri.np_analytics import (excitation_energies, ground_energy_np,
                                  local_photon_np, variance_p_np,
                                  variance_x_np)
from rabitri.numerics import F64, working

from conftest import params, unit_phase

THETA_C = 1.6205693443218139
LAMBDA = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def np_solution(p):
    """Zero-displacement mean-field bundle (valid below the transition)."""
    sol = solve_displacements(p)
    assert sol.label is PhaseLabel.NP
    return sol


def diag_quiet(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        return diagonalize_paraunitary(m)


def test_m_matrix_is_hermitian():
    p = params(theta=0.7, g1=0.3)
    m = build_m_matrix(p, np_solution(p).disp)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_rejects_wrong_shape_and_non_hermitian():
    with pytest.raises(DomainError):
        diagonalize_paraunitary(np.eye(4, dtype=complex))
    m = np.eye(6, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(DomainError):
        diagonalize_paraunitary(m)


@pytest.mark.parametrize("theta", [0.0, 0.1, THETA_C, 1.7])
def test_matrix_matches_closed_forms_in_normal_phase(theta):
    p = params(theta=theta, g1=0.3)
    mf = np_solution(p)
    ps = diag_quiet(build_m_matrix(p, mf.disp))
    closed = excitation_energies(p)
    assert sorted(ps.eps) == pytest.approx(closed, rel=1e-12)
    assert ps.para_residual <= 1e-12
    assert ps.diag_residual <= 1e-10
    n = local_photon_sr(ps, mf.disp)
    vx = variance_x_sr(ps)
    vp = variance_p_sr(ps)
    # all sites equivalent below the transition
    assert np.ptp(n) <= 1e-12 and np.ptp(vx) <= 1e-12
    assert n[0] == pytest.approx(local_photon_np(p), rel=1e-12)
    assert vx[0] == pytest.approx(variance_x_np(p), rel=1e-12)
    assert vp[0] == pytest.approx(variance_p_np(p), rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True),
       j_hop=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       ratio=st.floats(0.01, 0.999))
def test_closed_forms_match_matrix_route_below_transition(theta, j_hop,
                                                          delta, ratio):
    g1c = critical_coupling_min(params(theta=theta, delta=delta, j_hop=j_hop))
    p = params(theta=theta, g1=ratio * g1c, delta=delta, j_hop=j_hop)
    ps = diag_quiet(build_m_matrix(p, Displacement.zero()))
    assert np.asarray(ps.eps) == pytest.approx(excitation_energies(p),
                                               rel=1e-10)
    # n ~ 5e-10 at g1/g1c = 0.01, hence the absolute floor
    n = local_photon_np(p)
    assert local_photon_sr(ps, Displacement.zero()) == pytest.approx(
        np.full(3, n), rel=1e-10, abs=1e-12)
    assert variance_x_sr(ps) == pytest.approx(np.full(3, variance_x_np(p)),
                                              rel=1e-10)
    assert variance_p_sr(ps) == pytest.approx(np.full(3, variance_p_np(p)),
                                              rel=1e-10)


@pytest.mark.parametrize("theta", [0.1, THETA_C, 1.7])
def test_colpa_columns_match_the_triangular_solve(monkeypatch, theta):
    # T's columns Lam C^dag U+ / sqrt(e) against the back substitution
    # C^-1 U+ sqrt(e), from the same C, U and e, just above the transition
    g1c = critical_coupling_min(params(theta=theta))
    p = params(theta=theta, g1=g1c * 1.001)
    disp = solve_displacements(p).disp
    seen = []
    colpa = F64.colpa
    monkeypatch.setattr(F64, "colpa",
                        lambda c, sign: seen.append(c) or colpa(c, sign))
    ps = diag_quiet(build_m_matrix(p, disp))
    c = seen[0]
    evals, u = np.linalg.eigh((c * _SIGN) @ c.conj().T)
    ref = unit_phase(sla.solve_triangular(
        c, u[:, 3:] * np.sqrt(evals[3:])))
    for k in range(3):
        assert (np.max(np.abs(ps.t[:, k] - ref[:, k]))
                <= 1e-12 * np.max(np.abs(ref[:, k])))


def test_decoupled_ring_energies():
    # J = 0, omega = 1, g1 = 0.3: every mode has
    # eps = sqrt((2 - 8 g1^2)(2)) / 2 = sqrt(1.28 * 2) / 2 = 0.8 exactly
    p = params(j_hop=0.0, g1=0.3, theta=0.4)
    with pytest.warns(DegeneracyWarning):
        ps = diagonalize_paraunitary(build_m_matrix(p, np_solution(p).disp))
    assert ps.eps == pytest.approx([0.8, 0.8, 0.8], rel=1e-12)


def test_degenerate_pair_warns_at_zero_flux():
    for omega in (1.0, 1e-12):
        p = params(theta=0.0, g1=0.3, omega=omega, delta=100.0 * omega,
                   j_hop=0.05 * omega)
        with pytest.warns(DegeneracyWarning):
            diagonalize_paraunitary(build_m_matrix(p, np_solution(p).disp))


def test_split_spectrum_does_not_warn_in_small_units():
    # gaps of 0.066 omega at theta = 1.7 are far from degenerate, whatever
    # the unit of energy
    omega = 1e-12
    base = params(theta=1.7, omega=omega, delta=100.0 * omega,
                  j_hop=0.05 * omega)
    p = params(theta=1.7, g1=1.2 * critical_coupling_min(base), omega=omega,
               delta=100.0 * omega, j_hop=0.05 * omega)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        ps = diagonalize_paraunitary(
            build_m_matrix(p, solve_displacements(p).disp))
    assert min(np.diff(ps.eps)) > 0.05 * omega


def test_afsp_frozen_observables():
    g1c = 0.48733971724044817
    p = params(theta=0.0, g1=1.1 * g1c)
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol.disp))
    assert ps.eps == pytest.approx([0.458994137, 0.523745883, 0.695437611],
                                   rel=1e-6)
    assert local_photon_sr(ps, sol.disp) == pytest.approx(
        [12.2346364, 7.8517018, 7.8517018], rel=1e-6)
    assert variance_x_sr(ps) == pytest.approx(
        [1.5774124, 1.9480116, 1.9480116], rel=1e-6)
    assert ps.para_residual <= 1e-12


def test_csp_frozen_gaps():
    p0 = params(theta=0.1)
    p = params(theta=0.1, g1=1.01 * critical_coupling_min(p0))
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol.disp))
    assert ps.eps[0] == pytest.approx(0.070082449, rel=1e-7)
    assert ps.eps[1] == pytest.approx(0.181570137, rel=1e-7)


def test_uncertainty_products_superradiant():
    for th, ratio in [(0.0, 1.1), (0.1, 1.05), (1.7, 1.2)]:
        p0 = params(theta=th)
        p = params(theta=th, g1=ratio * critical_coupling_min(p0))
        sol = solve_displacements(p)
        ps = diag_quiet(build_m_matrix(p, sol.disp))
        vx, vp = variance_x_sr(ps), variance_p_sr(ps)
        assert np.all(vx * vp >= 1.0 - 1e-12)


@pytest.mark.parametrize("theta, ratio", [(0.0, 1.1), (0.1, 1.05),
                                          (1.7, 1.2)])
def test_m_matrix_is_the_second_order_energy(theta, ratio):
    # the second difference of the mean-field energy along v is
    # 2 psi^dag M psi with psi = (v_A + i v_B, c.c.): M checked against the
    # energy alone, not against the residuals or their Jacobian
    g1c = critical_coupling_min(params(theta=theta))
    p = params(theta=theta, g1=ratio * g1c)
    disp = solve_displacements(p).disp
    x = np.concatenate([disp.a, disp.b])
    m = build_m_matrix(p, disp)

    def energy(y):
        return ground_energy_mf(p, Displacement(a=y[:3], b=y[3:]))

    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(5):
        v = rng.normal(size=6)
        fd = (energy(x + h * v) + energy(x - h * v) - 2 * energy(x)) / h ** 2
        alpha = v[:3] + 1j * v[3:]
        psi = np.concatenate([alpha, alpha.conj()])
        quad = 2 * np.real(psi.conj() @ m @ psi)
        assert abs(fd - quad) <= 1e-4 * np.max(np.abs(m)) * (v @ v)


def test_normal_phase_energy_identity():
    # ground_energy_np carries the 1/delta dispersive shift that the pure
    # photon fluctuation energy (mean-field energy plus the zero-point
    # shift sum_k (eps_k - omega)/2) lacks; the difference is exactly
    # 3 (omega + J) g^2 / delta^2 = 3 (omega + J) omega g1^2 / delta
    p = params(theta=0.1, g1=0.3)
    mf = np_solution(p)
    ps = diag_quiet(build_m_matrix(p, mf.disp))
    fluct = ground_energy_mf(p, mf.disp) + np.sum(ps.eps - p.omega) / 2
    shift = 3 * (p.omega + p.j_hop) * p.omega * p.g1 ** 2 / p.delta
    assert ground_energy_np(p) == pytest.approx(fluct + shift, abs=1e-9)


def test_sine_saddle_is_flagged_unstable():
    g1c = 0.48733971724044817
    p = params(theta=0.0, g1=1.01 * g1c)
    x = _newton(p, np.array([0.0, 2.0, -2.0, 0.0, 0.0, 0.0]), tol=1e-12)
    with pytest.raises(InstabilityError):
        diag_quiet(build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))


def test_normal_expansion_above_transition_is_unstable():
    p = params(theta=0.1, g1=0.52)
    with pytest.raises(InstabilityError):
        diag_quiet(build_m_matrix(p, Displacement.zero()))


def test_exact_zero_mode_raises_critical_point():
    # J = 0 and g1 = 1/2 puts the decoupled ring exactly on its boundary;
    # the quadratic form is positive semidefinite with an exact zero mode
    p = params(j_hop=0.0, g1=0.5, theta=0.0)
    with pytest.raises(CriticalPointError):
        diag_quiet(build_m_matrix(p, Displacement.zero()))


def test_paraunitary_definition_holds():
    p0 = params(theta=0.1)
    p = params(theta=0.1, g1=1.05 * critical_coupling_min(p0))
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol.disp))
    res = ps.t.conj().T @ LAMBDA @ ps.t - LAMBDA
    assert np.max(np.abs(res)) == ps.para_residual
    assert ps.para_residual <= 1e-12


def test_paraunitary_at_fifty_digits():
    # the continuation's deep points run the same Colpa step on 50-digit
    # Decimal numbers: follow the root down to delta = 1e-9
    p, x = continued_roots(params(theta=0.1), [1e-9])[1e-9]
    with working():
        ps = diag_quiet(build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
    # read after leaving the 50-digit context: the residuals are evaluated
    # at the precision the solution was built with
    assert ps.para_residual <= 1e-30
    assert ps.diag_residual <= 1e-30
    assert float(ps.eps[0]) == pytest.approx(2.447e-11, rel=5e-4)


def test_point_observables_without_root_is_normal_phase_only():
    p0 = params(theta=0.1)
    g1c = critical_coupling_min(p0)
    obs = point_observables(params(theta=0.1, g1=0.9 * g1c))
    assert obs["eps1"] == pytest.approx(
        excitation_energies(params(theta=0.1, g1=0.9 * g1c))[0], rel=1e-15)
    with pytest.raises(DomainError):
        point_observables(params(theta=0.1, g1=1.05 * g1c))
