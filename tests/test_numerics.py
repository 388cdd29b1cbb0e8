"""The 50-digit table `numerics.DEC` (Decimal scalars, the DComplex type,
pi, cos and sin, and the matrix kernels) against mpmath, which serves as
the reference here only."""
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest
from mpmath import mp

import rabitri
from rabitri import (CriticalPointError, DegeneracyWarning, DomainError,
                     ModelParams)
from rabitri.bogoliubov import (_SIGN, build_m_matrix,
                                diagonalize_paraunitary)
from rabitri.meanfield import (Displacement, continued_roots,
                               ground_energy_mf, residual_jacobian, residuals)
from rabitri.model import critical_flux
from rabitri.numerics import DEC, F64, MP_DPS, DComplex, _parts, of, working
from rabitri.scaling import exponent_report

from conftest import params, unit_phase


def to_mp(a):
    """mpmath copy of a Decimal or DComplex array (or scalar), to twice the
    working digits, so that a reference sees the numbers the kernels saw."""
    with mp.workdps(2 * MP_DPS):
        return np.frompyfunc(
            lambda z: mp.mpf(str(z)) if isinstance(z, Decimal)
            else mp.mpc(str(z.real), str(z.imag)), 1, 1)(a)


def to_dec(a):
    """DComplex copy of an mpmath array, to twice the working digits."""
    return np.frompyfunc(lambda z: DComplex(
        *(Decimal(mp.nstr(v, 2 * MP_DPS)) for v in (mp.re(z), mp.im(z)))),
        1, 1)(a)


def mp_matrix(a):
    return mp.matrix(np.asarray(a, dtype=object).tolist())


def mp_array(m):
    return np.array(m.tolist(), dtype=object)


def dec_params(**kw):
    """A parameter set held in Decimal numbers, as the continuation makes."""
    p = params(**kw)
    return ModelParams(omega=Decimal(p.omega), delta=Decimal(p.delta),
                       g1=Decimal(p.g1), j_hop=Decimal(p.j_hop),
                       theta=p.theta)


def biggest(a):
    return max(abs(v) for v in np.asarray(a).flat)


def report_cholesky_factors(monkeypatch, theta):
    """The 50-digit Cholesky factors C that the Colpa step hands to colpa
    at three deep points of a report's continuation."""
    seen = []
    colpa = DEC.colpa

    def record(c, sign):
        seen.append(c)
        return colpa(c, sign)

    roots = continued_roots(params(theta=theta), [1e-5, 1e-7, 1e-9])
    with monkeypatch.context() as patch, working(), \
            warnings.catch_warnings():
        patch.setattr(DEC, "colpa", record)
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
        c = to_mp(c)
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
        with working():
            lam, cu = DEC.colpa(c, _SIGN)
        w, ref_lam, ref_u = reference_eigh(c)
        with mp.workdps(MP_DPS):
            c, lam, cu = to_mp(c), to_mp(lam), to_mp(cu)
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
        q = to_dec(mp_array(q))
    with working():
        mag = DEC.num(np.array([2, 2, 3, 1, 1, 1], dtype=float))
        mag[1] += Decimal("1e-30")
        c = q * DEC.sqrt(mag)
        lam, cu = DEC.colpa(c, _SIGN)
    w, ref_lam, ref_u = reference_eigh(c)
    with mp.workdps(MP_DPS):
        c, lam, cu = to_mp(c), to_mp(lam), to_mp(cu)
        lam0 = np.sort(to_mp(mag) * _SIGN)
        assert biggest(lam - lam0) <= mp.mpf("1e-48")
        assert biggest(lam - ref_lam) <= mp.mpf("1e-48")
        assert_colpa_pairs(c, lam, cu, mp.mpf("1e-48"))


def test_cholesky_matches_mpmath_and_refuses_indefinite():
    one, two = Decimal(1), Decimal(2)
    h = np.array([[4 * one, DComplex(one, two)],
                  [DComplex(one, -two), 6 * one]])
    with working():
        c = DEC.cholesky(h)
        with pytest.raises(np.linalg.LinAlgError):
            DEC.cholesky(np.array([[one, two], [two, one]]))
    with mp.workdps(MP_DPS):
        c, h = to_mp(c), to_mp(h)
        ref = mp_array(mp.cholesky(mp_matrix(h))).conj().T
        assert biggest(c - ref) <= mp.mpf("1e-49")
        assert biggest(c.conj().T @ c - h) <= mp.mpf("1e-48")


def test_float64_cholesky_is_upper_and_refuses_indefinite():
    # the factor C of Hd = C^dag C that the Colpa step reads, as DEC's
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a.conj().T @ a + 0.1 * np.eye(6)
        c = F64.cholesky(h)
        assert np.array_equal(c, np.triu(c))
        d = np.diagonal(c)
        assert np.all(d.imag == 0) and np.all(d.real > 0)
        assert np.max(np.abs(c.conj().T @ c - h)) <= 1e-14 * np.max(np.abs(h))
    with pytest.raises(np.linalg.LinAlgError):
        F64.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))


def test_cholesky_refuses_the_exact_zero_mode():
    # J = 0 and g1 = 1/2: the decoupled ring on its boundary (see
    # test_exact_zero_mode_raises_critical_point), here at 50 digits
    with working():
        zero = DEC.num(np.zeros(3))
        m = build_m_matrix(dec_params(j_hop=0.0, g1=0.5),
                           Displacement(a=zero, b=zero))
        assert of(m) is DEC
        with pytest.raises(np.linalg.LinAlgError):
            DEC.cholesky(2 * m)
        with pytest.raises(CriticalPointError):
            diagonalize_paraunitary(m)


@pytest.mark.parametrize("fn", [residuals, residual_jacobian,
                                ground_energy_mf, build_m_matrix])
def test_mixed_precision_input_is_a_domain_error(fn):
    # Decimal refuses float operands, so parameters and displacement must
    # come at one precision; either mix names both
    with working():
        zero = DEC.num(np.zeros(3))
        for p, disp in ((dec_params(), Displacement.zero()),
                        (params(), Displacement(a=zero, b=zero))):
            with pytest.raises(DomainError) as err:
                fn(p, disp)
            assert "float64" in str(err.value)
            assert "Decimal" in str(err.value)


def test_m_matrix_at_fifty_digits_is_hermitian_and_matches_float64():
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    with working():
        m = build_m_matrix(p, Displacement(a=x[:3], b=x[3:]))
        re, im = _parts(m)
        assert np.all(re == re.T) and np.all(im == -im.T)
    # the structurally real entries, anomalous blocks and diagonal, stay
    # Decimal
    real = [*m[:3, 3:].flat, *m[3:, :3].flat, *np.diagonal(m)]
    assert all(isinstance(v, Decimal) for v in real)
    # the same point in float64
    pf = ModelParams(omega=float(p.omega), delta=float(p.delta),
                     g1=float(p.g1), j_hop=float(p.j_hop), theta=p.theta)
    xf = x.astype(float)
    m64 = build_m_matrix(pf, Displacement(a=xf[:3], b=xf[3:]))
    assert np.max(np.abs(m.astype(complex) - m64)) <= 1e-14


def test_solve_refuses_the_singular_jacobian():
    # at J = 0 and g1 = g1c = 1/2 the curvature of site 1 cancels omega at
    # A_1 = 0 exactly (see test_singular_start_does_not_disturb_its_batch)
    with working():
        p = dec_params(j_hop=0.0, g1=0.5)
        a = np.array([Decimal(0), Decimal("0.3"), Decimal("0.3")])
        jac = residual_jacobian(p, Displacement(a=a, b=np.zeros(3)))
        with pytest.raises(np.linalg.LinAlgError):
            DEC.solve(jac, DEC.num(np.ones(6)))
        with pytest.raises(np.linalg.LinAlgError):
            DEC.solve(jac[None], DEC.num(np.ones((1, 6, 1))))


def test_solve_matches_mpmath_on_each_call_shape():
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    with working():
        # one Newton system with a vector right-hand side
        jac = residual_jacobian(p, Displacement(a=x[:3], b=x[3:]))
        one = DEC.solve(jac, x)
        # a stack of Newton systems
        jacs = residual_jacobian(p, Displacement(
            a=np.array([x[:3], x[:3]]), b=np.array([x[3:], x[3:]])))
        rhs = np.array([x[:, None], 2 * x[:, None]])
        stack = DEC.solve(jacs, rhs)
    assert one.shape == (6,)
    assert stack.shape == (2, 6, 1)
    with mp.workdps(MP_DPS):

        def close(x, ref):
            return biggest(to_mp(x) - ref) <= mp.mpf("1e-45") * biggest(ref)

        ref = np.array(list(mp.lu_solve(mp_matrix(to_mp(jac)),
                                        mp_matrix(to_mp(x)))))
        assert close(one, ref)
        ref = np.array([mp_array(mp.lu_solve(mp_matrix(to_mp(j)),
                                             mp_matrix(to_mp(r))))
                        for j, r in zip(jacs, rhs)])
        assert close(stack, ref)


def test_colpa_columns_match_the_triangular_solve(monkeypatch):
    # T's columns Lam C^dag U+ / sqrt(e) against the back substitution
    # C^-1 U+ sqrt(e) of mpmath, from the same C, at a deep point; U and e
    # come from the reference eigensystem of W
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    seen = []
    colpa = DEC.colpa
    monkeypatch.setattr(DEC, "colpa",
                        lambda c, sign: seen.append(c) or colpa(c, sign))
    with working(), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneracyWarning)
        ps = diagonalize_paraunitary(
            build_m_matrix(p, Displacement(a=x[:3], b=x[3:])))
    _, evals, u = reference_eigh(seen[0])
    with mp.workdps(2 * MP_DPS):
        rhs = u[:, 3:] * np.frompyfunc(mp.sqrt, 1, 1)(evals[3:])
        ref = unit_phase(np.array([list(mp.U_solve(mp_matrix(to_mp(seen[0])),
                                                   mp_matrix(col)))
                                   for col in rhs.T]).T)
    with mp.workdps(MP_DPS):
        t = to_mp(ps.t)
        for k in range(3):
            assert (biggest(t[:, k] - ref[:, k])
                    <= mp.mpf("1e-45") * biggest(ref[:, k]))


def test_degenerate_report_has_no_failed_rows():
    # the 50-digit points at theta = pi carry the split pair of colpa
    rep = exponent_report(math.pi)
    assert len(rep.entries) == 12
    assert all(e.status != "failed" for e in rep.entries)


@pytest.mark.parametrize("theta", [0.0, 1e-12, 0.1, critical_flux(params()),
                                   1.7, 3.141592653589793, -math.pi / 2])
def test_pi_cos_sin_match_mpmath(theta):
    # theta = math.pi is the degenerate case, where only sin(math.pi)
    # splits the q = +-2pi/3 pair
    with working():
        got = DEC.pi(), DEC.cos(theta), DEC.sin(theta)
    with mp.workdps(70):
        ref = mp.pi, mp.cos(theta), mp.sin(theta)
        for v, r in zip(got, ref):
            assert isinstance(v, Decimal)
            assert abs(mp.mpf(str(v)) - r) <= mp.mpf("1e-49")


def test_dcomplex_matches_mpc():
    with working():
        z = DComplex(Decimal(5) / 12, -Decimal(7) / 11)
        w = DComplex(Decimal(2).sqrt(), Decimal("0.1"))
        d, k = Decimal(3).sqrt(), -7
        ops = {"z + w": z + w, "z + d": z + d, "d + z": d + z,
               "z + k": z + k, "k + z": k + z,
               "z - w": z - w, "z - d": z - d, "d - z": d - z,
               "z - k": z - k, "k - z": k - z,
               "z * w": z * w, "z * d": z * d, "d * z": d * z,
               "z * k": z * k, "k * z": k * z,
               "z / w": z / w, "z / d": z / d, "z / k": z / k,
               "-z": -z, "abs(z)": abs(z), "z.conjugate()": z.conjugate(),
               "z.real": z.real, "z.imag": z.imag}
    assert complex(z) == complex(5 / 12, -7 / 11)
    with mp.workdps(MP_DPS):
        z, w, d = to_mp(z), to_mp(w), to_mp(d)
        for expr, got in ops.items():
            ref = eval(expr)
            assert isinstance(got, Decimal if isinstance(ref, mp.mpf)
                              else DComplex), expr
            assert abs(to_mp(got) - ref) <= mp.mpf("1e-49") * abs(ref), expr


def test_of_picks_the_table_from_the_inputs():
    z = DComplex(Decimal(1), Decimal(2))
    for v in (Decimal(1), z, np.array([Decimal(1), z]), np.zeros(2, object)):
        assert of(v) is DEC
        assert of(1.0, v) is DEC
    for v in (1.0, 1j, np.zeros(3), np.zeros(3, complex)):
        assert of(v) is F64
    assert of(dec_params().omega) is DEC
    assert of(params().omega) is F64


def test_import_leaves_out_mpmath():
    # the 50-digit path runs on the standard library's decimal alone
    src = os.path.dirname(os.path.dirname(rabitri.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, rabitri; "
         "print('mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
