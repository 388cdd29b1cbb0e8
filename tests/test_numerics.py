"""The 50-digit matrix kernels of `numerics.MP` against mpmath's own
matrix routines, which serve as the reference here only."""
import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from rabitri import CriticalPointError, DegeneracyWarning, ModelParams
from rabitri.bogoliubov import (_SIGN, build_m_matrix,
                                diagonalize_paraunitary)
from rabitri.meanfield import Displacement, continued_roots, residual_jacobian
from rabitri.model import critical_flux
from rabitri.numerics import MP, MP_DPS, of
from rabitri.scaling import exponent_report

from conftest import params, unit_phase


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


def report_cholesky_factors(monkeypatch, theta):
    """The 50-digit Cholesky factors C that the Colpa step hands to colpa
    at three deep points of a report's continuation."""
    seen = []
    colpa = MP.colpa

    def record(c, sign):
        seen.append(c)
        return colpa(c, sign)

    roots = continued_roots(params(theta=theta), [1e-5, 1e-7, 1e-9])
    with monkeypatch.context() as patch, mp.workdps(MP_DPS), \
            warnings.catch_warnings():
        patch.setattr(MP, "colpa", record)
        warnings.simplefilter("ignore", DegeneracyWarning)
        for p, x in roots.values():
            diagonalize_paraunitary(
                build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
    return seen


def reference_eigh(c):
    """W = C Lam C^dag formed here, and mpmath's eigensystem of it, both at
    twice the working digits: the eigenvectors of the deep +-eps1 pair move
    by the rounding of W over their gap, 1e-50 / 1e-7 at 50 digits."""
    with mp.workdps(2 * MP_DPS):
        w = (c * _SIGN) @ c.conj().T
        lam, u = mp.eighe(mp_matrix(w))
        return w, np.array(list(lam)), mp_array(u)


def assert_colpa_pairs(c, lam, cu, tol):
    """The columns v = C^dag u of colpa against what the eigenpairs (lam, u)
    of W = C Lam C^dag imply: v^dag Lam v = U+^dag W U+ = diag(lam+), and
    Hd Lam v = C^dag W u = lam v with Hd = C^dag C."""
    assert all(lam[i] <= lam[i + 1] for i in range(5))
    lam_up, cu_lam = lam[3:], cu * _SIGN[:, None]
    assert biggest(cu.conj().T @ cu_lam - np.diag(lam_up)) <= tol
    assert (biggest((c.conj().T @ c) @ cu_lam - cu * lam_up)
            <= tol * biggest(c))


@pytest.mark.parametrize("theta", [0.0, 0.1, critical_flux(params()), 1.7,
                                   math.pi])
def test_eigh_matches_mpmath_on_report_matrices(monkeypatch, theta):
    # at theta = pi the q = +-2pi/3 pair is split only by sin(math.pi)
    cs = report_cholesky_factors(monkeypatch, theta)
    assert len(cs) == 3
    for c in cs:
        with mp.workdps(MP_DPS):
            lam, cu = MP.colpa(c, _SIGN)
            w, ref_lam, ref_u = reference_eigh(c)
            tol = mp.mpf("1e-45") * biggest(w)
            assert biggest(lam - ref_lam) <= tol
            assert_colpa_pairs(c, lam, cu, tol)
            # spectral projectors: a perturbation of W moves the projector
            # of an eigenvalue by at most its size over the eigenvalue's
            # gap, which is below 1e-7 max|W| for the deep +-eps1 pairs;
            # C^dag maps them to the projectors of the columns v = C^dag u
            ref_cu = c.conj().T @ ref_u[:, 3:]
            scale = biggest(c) ** 2
            for i in range(3):
                gap = min(abs(lam[3 + i] - lam[k]) for k in range(6)
                          if k != 3 + i)
                proj = np.outer(cu[:, i], cu[:, i].conj())
                ref = np.outer(ref_cu[:, i], ref_cu[:, i].conj())
                assert biggest(proj - ref) * gap <= tol * scale
                if gap >= mp.mpf("1e-4") * biggest(w):
                    assert biggest(proj - ref) <= mp.mpf("1e-45") * scale


def test_eigh_resolves_exact_and_near_degeneracy():
    # W = C Lam C^dag with C = Q |L|^(1/2) in a random 50-digit unitary
    # basis Q has the eigenvalues L = Lam |L|: a triple cluster at -1, and
    # a pair at 2 and 2 + 1e-30, split far below float64, in the half whose
    # vectors colpa returns
    with mp.workdps(MP_DPS):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = mp.qr(mp_matrix(z.astype(object) * mp.mpf(1)))
        q = mp_array(q)
        mag = np.array([mp.mpf(v) for v in (2, 2, 3, 1, 1, 1)])
        mag[1] += mp.mpf("1e-30")
        c = q * MP.sqrt(mag)
        lam, cu = MP.colpa(c, _SIGN)
        w, ref_lam, ref_u = reference_eigh(c)
        lam0 = np.sort(mag * _SIGN.astype(int))
        assert biggest(lam - lam0) <= mp.mpf("1e-48")
        assert biggest(lam - ref_lam) <= mp.mpf("1e-48")
        assert_colpa_pairs(c, lam, cu, mp.mpf("1e-48"))


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
        m = build_m_matrix(mp_params(j_hop=0.0, g1=0.5), Displacement.zero())
        assert of(m) is MP
        with pytest.raises(np.linalg.LinAlgError):
            MP.cholesky(2 * m)
        with pytest.raises(CriticalPointError):
            diagonalize_paraunitary(m)


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
    with mp.workdps(MP_DPS):

        def close(x, ref):
            return biggest(x - ref) <= mp.mpf("1e-45") * biggest(ref)

        # one Newton system with a vector right-hand side
        jac = residual_jacobian(p, Displacement(a=x[:3], b=x[3:]))
        ref = np.array(list(mp.lu_solve(mp_matrix(jac), mp_matrix(x))))
        assert MP.solve(jac, x).shape == (6,)
        assert close(MP.solve(jac, x), ref)
        # a stack of Newton systems
        jac = residual_jacobian(p, Displacement(a=np.array([x[:3], x[:3]]),
                                                b=np.array([x[3:], x[3:]])))
        rhs = np.array([x[:, None], 2 * x[:, None]])
        ref = np.array([mp_array(mp.lu_solve(mp_matrix(j), mp_matrix(r)))
                        for j, r in zip(jac, rhs)])
        assert MP.solve(jac, rhs).shape == (2, 6, 1)
        assert close(MP.solve(jac, rhs), ref)


def test_colpa_columns_match_the_triangular_solve(monkeypatch):
    # T's columns Lam C^dag U+ / sqrt(e) against the back substitution
    # C^-1 U+ sqrt(e) of mpmath, from the same C, at a deep point; U and e
    # come from the reference eigensystem of W
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    seen = []
    colpa = MP.colpa
    monkeypatch.setattr(MP, "colpa",
                        lambda c, sign: seen.append(c) or colpa(c, sign))
    with mp.workdps(MP_DPS), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        ps = diagonalize_paraunitary(
            build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
        _, evals, u = reference_eigh(seen[0])
        with mp.workdps(2 * MP_DPS):
            rhs = u[:, 3:] * MP.sqrt(evals[3:])
            ref = unit_phase(np.array([list(mp.U_solve(mp_matrix(seen[0]),
                                                       mp_matrix(col)))
                                       for col in rhs.T]).T)
        for k in range(3):
            assert (biggest(ps.t[:, k] - ref[:, k])
                    <= mp.mpf("1e-45") * biggest(ref[:, k]))


def test_degenerate_report_has_no_failed_rows():
    # the 50-digit points at theta = pi carry the split pair of colpa
    rep = exponent_report(math.pi)
    assert len(rep.entries) == 12
    assert all(e.status != "failed" for e in rep.entries)

