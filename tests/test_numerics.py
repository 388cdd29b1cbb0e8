"""The 50-digit matrix kernels of `numerics.MP` against mpmath's own
matrix routines, which serve as the reference here only."""
import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from rabitri import CriticalPointError, DegeneracyWarning, ModelParams
from rabitri.bogoliubov import build_m_matrix, diagonalize_paraunitary
from rabitri.meanfield import Displacement, continued_roots, residual_jacobian
from rabitri.model import critical_flux
from rabitri.numerics import MP, MP_DPS, of
from rabitri.scaling import exponent_report

from conftest import params


def mp_matrix(a):
    return mp.matrix(np.asarray(a, dtype=object).tolist())


def mp_array(m):
    return np.array(m.tolist(), dtype=object)


def mp_params(**kw):
    """A parameter set held in 50-digit numbers, as the continuation makes."""
    p = params(**kw)
    return ModelParams(omega=mp.mpf(p.omega), delta=mp.mpf(p.delta),
                       g1=mp.mpf(p.g1), j_hop=mp.mpf(p.j_hop), theta=p.theta)


def biggest(a):
    return max(abs(v) for v in np.asarray(a).flat)


def report_w_matrices(monkeypatch, theta):
    """The 50-digit Hermitian W = C Lam C^dag that the Colpa step hands to
    eigh at three deep points of a report's continuation."""
    seen = []
    eigh = MP.eigh

    def record(w):
        seen.append(w)
        return eigh(w)

    roots = continued_roots(params(theta=theta), [1e-5, 1e-7, 1e-9])
    with monkeypatch.context() as patch, mp.workdps(MP_DPS), \
            warnings.catch_warnings():
        patch.setattr(MP, "eigh", record)
        warnings.simplefilter("ignore", DegeneracyWarning)
        for p, x in roots.values():
            diagonalize_paraunitary(
                build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
    return seen


@pytest.mark.parametrize("theta", [0.0, 0.1, critical_flux(params()), 1.7,
                                   math.pi])
def test_eigh_matches_mpmath_on_report_matrices(monkeypatch, theta):
    # at theta = pi the q = +-2pi/3 pair is split only by sin(math.pi)
    ws = report_w_matrices(monkeypatch, theta)
    assert len(ws) == 3
    for w in ws:
        with mp.workdps(MP_DPS):
            lam, u = MP.eigh(w)
            ref_lam, ref_u = mp.eighe(mp_matrix(w))
            ref_lam, ref_u = np.array(list(ref_lam)), mp_array(ref_u)
            tol = mp.mpf("1e-45") * biggest(w)
            assert biggest(lam - ref_lam) <= tol
            assert all(lam[i] <= lam[i + 1] for i in range(5))
            assert biggest(w @ u - u * lam) <= tol
            assert biggest(u.conj().T @ u - np.eye(6)) <= mp.mpf("1e-45")
            # spectral projectors: a perturbation of W moves the projector
            # of an eigenvalue by at most its size over the eigenvalue's
            # gap, which is below 1e-7 max|W| for the deep +-eps1 pairs
            for i in range(6):
                gap = min(abs(lam[i] - lam[k]) for k in range(6) if k != i)
                proj = np.outer(u[:, i], u[:, i].conj())
                ref = np.outer(ref_u[:, i], ref_u[:, i].conj())
                assert biggest(proj - ref) * gap <= tol
                if gap >= mp.mpf("1e-4") * biggest(w):
                    assert biggest(proj - ref) <= tol


def test_eigh_resolves_exact_and_near_degeneracy():
    # eigenvalues (1, 1, 1, 2, 2 + 1e-30, 3) in a random 50-digit unitary
    # basis: a triple cluster and a pair split far below float64
    with mp.workdps(MP_DPS):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = mp.qr(mp_matrix(z.astype(object) * mp.mpf(1)))
        q = mp_array(q)
        lam0 = np.array([mp.mpf(v) for v in (1, 1, 1, 2, 2, 3)])
        lam0[4] += mp.mpf("1e-30")
        w = (q * lam0) @ q.conj().T
        w = (w + w.conj().T) / 2
        lam, u = MP.eigh(w)
        assert biggest(lam - lam0) <= mp.mpf("1e-48")
        assert biggest(w @ u - u * lam) <= mp.mpf("1e-48")
        assert biggest(u.conj().T @ u - np.eye(6)) <= mp.mpf("1e-48")


def test_cholesky_matches_mpmath_and_refuses_indefinite():
    with mp.workdps(MP_DPS):
        h = np.array([[mp.mpf(4), mp.mpc(1, 2)], [mp.mpc(1, -2), mp.mpf(6)]])
        c = MP.cholesky(h)
        ref = mp_array(mp.cholesky(mp_matrix(h))).conj().T
        assert biggest(c - ref) <= mp.mpf("1e-49")
        assert biggest(c.conj().T @ c - h) <= mp.mpf("1e-48")
        with pytest.raises(np.linalg.LinAlgError):
            MP.cholesky(np.array([[mp.mpf(1), mp.mpf(2)],
                                  [mp.mpf(2), mp.mpf(1)]]))


def test_cholesky_refuses_the_exact_zero_mode():
    # J = 0 and g1 = 1/2: the decoupled ring on its boundary (see
    # test_exact_zero_mode_raises_critical_point), here at 50 digits
    with mp.workdps(MP_DPS):
        qf = build_m_matrix(mp_params(j_hop=0.0, g1=0.5),
                            Displacement.zero())
        assert of(qf.m) is MP
        with pytest.raises(np.linalg.LinAlgError):
            MP.cholesky(2 * qf.m)
        with pytest.raises(CriticalPointError):
            diagonalize_paraunitary(qf)


def test_solve_refuses_the_singular_jacobian():
    # at J = 0 and g1 = g1c = 1/2 the curvature of site 1 cancels omega at
    # A_1 = 0 exactly (see test_singular_start_does_not_disturb_its_batch)
    with mp.workdps(MP_DPS):
        p = mp_params(j_hop=0.0, g1=0.5)
        a = np.array([mp.mpf(0), mp.mpf("0.3"), mp.mpf("0.3")])
        jac = residual_jacobian(p, Displacement(a=a, b=np.zeros(3)))
        with pytest.raises(np.linalg.LinAlgError):
            MP.solve(jac, np.ones(6) * mp.mpf(1))
        with pytest.raises(np.linalg.LinAlgError):
            MP.solve(jac[None], np.ones((1, 6, 1)) * mp.mpf(1))


def test_solve_matches_mpmath_on_each_call_shape():
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    with mp.workdps(MP_DPS), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        ps = diagonalize_paraunitary(
            build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
        lam = np.diag([1, 1, 1, -1, -1, -1])

        def close(x, ref):
            return biggest(x - ref) <= mp.mpf("1e-45") * biggest(ref)

        # the general complex system of diag_residual, six right-hand sides
        a, b = ps.t, lam @ ps.hd @ ps.t
        ref = np.array([list(mp.lu_solve(mp_matrix(a), mp_matrix(col)))
                        for col in b.T]).T
        assert close(MP.solve(a, b), ref)
        # the upper triangular back substitution of the Colpa step
        c = MP.cholesky(ps.hd)
        ref = np.array([list(mp.U_solve(mp_matrix(c), mp_matrix(col)))
                        for col in b[:, :3].T]).T
        assert close(MP.solve(c, b[:, :3], upper=True), ref)
        # a stack of real Newton systems
        jac = residual_jacobian(p, Displacement(a=np.array([x[:3], x[:3]]),
                                                b=np.array([x[3:], x[3:]])))
        rhs = np.array([x[:, None], 2 * x[:, None]])
        ref = np.array([mp_array(mp.lu_solve(mp_matrix(j), mp_matrix(r)))
                        for j, r in zip(jac, rhs)])
        assert MP.solve(jac, rhs).shape == (2, 6, 1)
        assert close(MP.solve(jac, rhs), ref)


def test_degenerate_report_has_no_failed_rows():
    # the 50-digit points at theta = pi carry the split pair of eigh
    rep = exponent_report(math.pi)
    assert len(rep.entries) == 12
    assert all(e.status != "failed" for e in rep.entries)

