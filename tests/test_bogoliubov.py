import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp

from rabitri import (CriticalPointError, DegeneracyWarning, DomainError,
                     InstabilityError, PhaseLabel)
from rabitri.bogoliubov import (QuadraticForm, build_m_matrix,
                                diagonalize_paraunitary, ground_energy_fluct,
                                local_photon_sr, observables_sr,
                                point_observables, variance_p_sr,
                                variance_x_sr)
from rabitri.meanfield import Displacement, MeanFieldSolution, _newton, \
    ground_energy_mf, residuals, solve_displacements
from rabitri.meanfield import mean_field_at, refine_root
from rabitri.model import bare_coupling, critical_coupling_min
from rabitri.np_analytics import (excitation_energies, ground_energy_np,
                                  local_photon_np, variance_p_np,
                                  variance_x_np)

from conftest import params

THETA_C = 1.6205693443218139
LAMBDA = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def np_solution(p):
    """Zero-displacement mean-field bundle (valid below the transition)."""
    sol = solve_displacements(p)
    assert sol.label is PhaseLabel.NP
    return sol


def diag_quiet(qf):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        return diagonalize_paraunitary(qf)


def test_m_matrix_is_hermitian():
    p = params(theta=0.7, g1=0.3)
    m = build_m_matrix(p, np_solution(p)).m
    assert np.max(np.abs(m - m.conj().T)) <= 1e-15


def test_rejects_wrong_shape_and_non_hermitian():
    with pytest.raises(DomainError):
        diagonalize_paraunitary(QuadraticForm(m=np.eye(4, dtype=complex)))
    m = np.eye(6, dtype=complex)
    m[0, 1] = 0.5
    with pytest.raises(DomainError):
        diagonalize_paraunitary(QuadraticForm(m=m))


@pytest.mark.parametrize("theta", [0.0, 0.1, THETA_C, 1.7])
def test_matrix_matches_closed_forms_in_normal_phase(theta):
    p = params(theta=theta, g1=0.3)
    mf = np_solution(p)
    ps = diag_quiet(build_m_matrix(p, mf))
    closed = excitation_energies(p)
    assert sorted(ps.eps) == pytest.approx(closed, rel=1e-12)
    assert ps.para_residual <= 1e-12
    assert ps.diag_residual <= 1e-10
    n = local_photon_sr(ps, mf)
    vx = variance_x_sr(ps)
    vp = variance_p_sr(ps)
    # all sites equivalent below the transition
    assert np.ptp(n) <= 1e-12 and np.ptp(vx) <= 1e-12
    assert n[0] == pytest.approx(local_photon_np(p), rel=1e-12)
    assert vx[0] == pytest.approx(variance_x_np(p), rel=1e-12)
    assert vp[0] == pytest.approx(variance_p_np(p), rel=1e-12)


def test_decoupled_ring_energies():
    # J = 0, omega = 1, g1 = 0.3: every mode has
    # eps = sqrt((2 - 8 g1^2)(2)) / 2 = sqrt(1.28 * 2) / 2 = 0.8 exactly
    p = params(j_hop=0.0, g1=0.3, theta=0.4)
    with pytest.warns(DegeneracyWarning):
        ps = diagonalize_paraunitary(build_m_matrix(p, np_solution(p)))
    assert ps.eps == pytest.approx([0.8, 0.8, 0.8], rel=1e-12)


def test_degenerate_pair_warns_at_zero_flux():
    p = params(theta=0.0, g1=0.3)
    with pytest.warns(DegeneracyWarning):
        diagonalize_paraunitary(build_m_matrix(p, np_solution(p)))


def test_afsp_frozen_observables():
    g1c = 0.48733971724044817
    p = params(theta=0.0, g1=1.1 * g1c)
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol))
    assert ps.eps == pytest.approx([0.458994137, 0.523745883, 0.695437611],
                                   rel=1e-6)
    obs = observables_sr(p, ps, sol)
    assert obs.photon_number == pytest.approx(
        [12.2346364, 7.8517018, 7.8517018], rel=1e-6)
    assert obs.var_x == pytest.approx([1.5774124, 1.9480116, 1.9480116],
                                      rel=1e-6)
    assert ps.para_residual <= 1e-12


def test_csp_frozen_gaps():
    p0 = params(theta=0.1)
    p = params(theta=0.1, g1=1.01 * critical_coupling_min(p0))
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol))
    assert ps.eps[0] == pytest.approx(0.070082449, rel=1e-7)
    assert ps.eps[1] == pytest.approx(0.181570137, rel=1e-7)


def test_uncertainty_products_superradiant():
    for th, ratio in [(0.0, 1.1), (0.1, 1.05), (1.7, 1.2)]:
        p0 = params(theta=th)
        p = params(theta=th, g1=ratio * critical_coupling_min(p0))
        sol = solve_displacements(p)
        ps = diag_quiet(build_m_matrix(p, sol))
        vx, vp = variance_x_sr(ps), variance_p_sr(ps)
        assert np.all(vx * vp >= 1.0 - 1e-12)


def test_normal_phase_energy_identity():
    # ground_energy_np carries the 1/delta dispersive shift that the pure
    # photon fluctuation energy lacks; the difference is exactly
    # 3 (omega + J) omega^2 g1^2 / delta
    p = params(theta=0.1, g1=0.3)
    mf = np_solution(p)
    ps = diag_quiet(build_m_matrix(p, mf))
    shift = 3 * (p.omega + p.j_hop) * p.omega ** 2 * p.g1 ** 2 / p.delta
    assert ground_energy_np(p) == pytest.approx(
        ground_energy_fluct(p, ps, mf) + shift, abs=1e-9)


def test_sine_saddle_is_flagged_unstable():
    g1c = 0.48733971724044817
    p = params(theta=0.0, g1=1.01 * g1c)
    x = _newton(p, np.array([0.0, 2.0, -2.0, 0.0, 0.0, 0.0]), tol=1e-12)
    d = Displacement(a=x[:3], b=x[3:])
    g = bare_coupling(p)
    dn = np.sqrt(p.delta ** 2 + 16 * g * g * x[:3] ** 2)
    mf = MeanFieldSolution(disp=d, delta_n=dn, lambda_n=g * p.delta / dn,
                           energy=ground_energy_mf(p, d), label=PhaseLabel.AFSP,
                           residual_norm=float(np.max(np.abs(residuals(p, d)))))
    with pytest.raises(InstabilityError):
        diag_quiet(build_m_matrix(p, mf))


def test_normal_expansion_above_transition_is_unstable():
    p = params(theta=0.1, g1=0.52)
    g = bare_coupling(p)
    mf = MeanFieldSolution(disp=Displacement.zero(),
                           delta_n=np.full(3, p.delta),
                           lambda_n=np.full(3, g),
                           energy=-1.5 * p.delta, label=PhaseLabel.NP,
                           residual_norm=0.0)
    with pytest.raises(InstabilityError):
        diag_quiet(build_m_matrix(p, mf))


def test_exact_zero_mode_raises_critical_point():
    # J = 0 and g1 = 1/2 puts the decoupled ring exactly on its boundary;
    # the quadratic form is positive semidefinite with an exact zero mode
    p = params(j_hop=0.0, g1=0.5, theta=0.0)
    g = bare_coupling(p)
    mf = MeanFieldSolution(disp=Displacement.zero(),
                           delta_n=np.full(3, p.delta),
                           lambda_n=np.full(3, g),
                           energy=-1.5 * p.delta, label=PhaseLabel.NP,
                           residual_norm=0.0)
    with pytest.raises(CriticalPointError):
        diag_quiet(build_m_matrix(p, mf))


def test_paraunitary_definition_holds():
    p0 = params(theta=0.1)
    p = params(theta=0.1, g1=1.05 * critical_coupling_min(p0))
    sol = solve_displacements(p)
    ps = diag_quiet(build_m_matrix(p, sol))
    res = ps.t.conj().T @ LAMBDA @ ps.t - LAMBDA
    assert np.max(np.abs(res)) == ps.para_residual
    assert ps.para_residual <= 1e-12


def test_paraunitary_at_fifty_digits():
    # the continuation's deep points run the same Colpa step on 50-digit
    # numbers: follow the root down to delta = 1e-9 with the public calls
    # the continuation makes, three steps per decade
    base = params(theta=0.1)
    g1c = critical_coupling_min(base)
    mf = solve_displacements(replace(base, g1=g1c * 1.01))
    x = np.concatenate([mf.disp.a, mf.disp.b])
    with mp.workdps(50):
        base_mp = replace(base, omega=mp.mpf(base.omega),
                          delta=mp.mpf(base.delta), j_hop=mp.mpf(base.j_hop))
        g1c_mp = critical_coupling_min(base_mp)
        prev = 1e-2
        for d in np.logspace(-2, -9, 22):
            p = replace(base_mp, g1=g1c_mp * (1 + mp.mpf(d)))
            x = refine_root(p, x * mp.sqrt(mp.mpf(d) / prev),
                            mp.mpf(10) ** -38)
            prev = d
        ps = diag_quiet(build_m_matrix(p, mean_field_at(p, x)))
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
