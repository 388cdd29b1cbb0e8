"""The 50-digit table `numerics.DEC` (Decimal scalars, pi, cos and sin,
and the matrix kernels) against mpmath, which serves as the reference here
only."""
import math
import os
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from mpmath import mp

import rabitri
from rabitri import (CriticalPointError, DomainError, ModelParams, bogoliubov,
                     numerics)
from rabitri.bogoliubov import (build_m_matrix, diagonalize_paraunitary,
                                point_observables)
from rabitri import meanfield
from rabitri.meanfield import (_newton, _seed_list, continued_roots,
                               ground_energy_mf, residual_jacobian,
                               residuals)
from rabitri.model import critical_flux
from rabitri.numerics import (DEC, F64, MP_DPS, _eigh_plus, _k, colpa, of,
                              working)
from rabitri.scaling import (_REPORT_POINTS, _REPORT_WINDOW, _log_grid,
                             exponent_report)

from conftest import params

OMEGA = np.kron([[0, 1], [-1, 0]], np.eye(3, dtype=int))


def to_mp(a):
    """mpmath copy of a Decimal array (or scalar), to twice the working
    digits, so that a reference sees the numbers the kernels saw."""
    with mp.workdps(2 * MP_DPS):
        return np.frompyfunc(lambda z: mp.mpf(str(z)), 1, 1)(a)


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
    """The 50-digit Cholesky factors L of the residual Jacobian that the
    Colpa step hands to colpa at three deep points of a report's
    continuation."""
    seen = []

    def record(l):
        seen.append(l)
        return colpa(l)

    roots = continued_roots(params(theta=theta), [1e-5, 1e-7, 1e-9])
    with monkeypatch.context() as patch, working():
        patch.setattr(numerics, "colpa", record)
        for p, x in roots.values():
            diagonalize_paraunitary(
                residual_jacobian(p, x))
    return seen


def complex_columns(y):
    """u = x1 + i x2 from the real columns [x1 | x2]; L^T u from
    Y = L^T X."""
    return y[:, :3] + mp.mpc(0, 1) * y[:, 3:]


def reference_eigh(l):
    """W = i L Om L^T formed here, and mpmath's eigensystem of it, both at
    twice the working digits."""
    with mp.workdps(2 * MP_DPS):
        l = to_mp(l)
        w = mp.mpc(0, 1) * (l[:, :3] @ l[:, 3:].T - l[:, 3:] @ l[:, :3].T)
        lam, u = mp.eighe(mp_matrix(w))
        return w, np.array(list(lam)), mp_array(u)


def assert_colpa_pairs(l, lam, y, tol):
    """The columns v = L^T u of colpa (Y = L^T X, u = x1 + i x2) against
    what the eigenpairs (lam, u) of W = i L Om L^T imply:
    u^dag W u = i v^dag Om v = diag(lam), and i J Om v = lam v with
    J = L^T L, from L^T W u = lam L^T u."""
    assert all(lam[i] <= lam[i + 1] for i in range(2))
    v, i = complex_columns(y), mp.mpc(0, 1)
    assert biggest(i * (v.conj().T @ OMEGA @ v) - np.diag(lam)) <= tol
    assert (biggest(i * ((l.T @ l) @ (OMEGA @ v)) - v * lam)
            <= tol * biggest(l))


def assert_paired(l, tol):
    """The eigenvectors u of the +e half that the refinement returns are
    orthonormal and have u_j^T u_k = 0, so that conj(u) is the -e half."""
    with working():
        _, x = _eigh_plus(_k(l))
    with mp.workdps(2 * MP_DPS):
        x = to_mp(x)
        u = x[:, :3] + mp.mpc(0, 1) * x[:, 3:]
        assert biggest(u.T @ u) <= tol
        assert biggest(u.conj().T @ u - np.eye(3)) <= tol


@pytest.mark.parametrize("theta", [0.0, 0.1, critical_flux(params()), 1.7,
                                   math.pi])
def test_eigh_matches_mpmath_on_report_matrices(monkeypatch, theta):
    # at theta = pi the q = +-2pi/3 pair is split only by sin(math.pi)
    ls = report_cholesky_factors(monkeypatch, theta)
    assert len(ls) == 3
    for l in ls:
        assert all(isinstance(v, Decimal) for v in l.flat)
        assert np.all(np.tril(l, -1) == 0)
        with working():
            lam, y = colpa(l)
        w, ref_lam, ref_u = reference_eigh(l)
        if theta in (0.0, 0.1):                 # the AFSP and CSP points
            assert_paired(l, mp.mpf("1e-48"))
        with mp.workdps(MP_DPS):
            lam, y = to_mp(lam), to_mp(y)
            tol = mp.mpf("1e-45") * biggest(w)
            assert biggest(lam - ref_lam[3:]) <= tol
            assert_colpa_pairs(to_mp(l), lam, y, tol)
            # spectral projectors: a perturbation of W moves the projector
            # of an eigenvalue by at most its size over the eigenvalue's
            # gap. W = i K stays imaginary under rounding, which cannot mix
            # u with conj(u), so the partner -e does not count: the gaps
            # of the deep +-eps1 pairs are those to eps2. L^T maps the
            # projectors to those of the columns v = L^T u
            v = complex_columns(y)
            ref_v = to_mp(l).T @ ref_u[:, 3:]
            scale = biggest(to_mp(l)) ** 2
            for i in range(3):
                gap = min(abs(ref_lam[3 + i] - ref_lam[k]) for k in range(6)
                          if k not in (3 + i, 2 - i))
                proj = np.outer(v[:, i], v[:, i].conj())
                ref = np.outer(ref_v[:, i], ref_v[:, i].conj())
                assert biggest(proj - ref) * gap <= tol * scale
                if gap >= mp.mpf("1e-4") * biggest(w):
                    assert biggest(proj - ref) <= mp.mpf("1e-45") * scale


def random_symplectic(rng):
    """A 6x6 real S with S^T Om S = Om, as the product of the symplectic
    generators diag(A, A^-T), [[1, B], [0, 1]] and [[1, 0], [C, 1]] with B
    and C symmetric, in mpmath numbers. A, B and C are random within 0.3 of
    1 and 0, so that S is well conditioned and the rounding of
    J = S diag(e, e) S^T to the working digits moves e by far less than
    1e-48."""
    one, zero = mp.eye(3), mp.zeros(3)
    a, b, c = (mp.matrix((0.3 * rng.uniform(-1, 1, size=(3, 3))).tolist())
               for _ in range(3))
    a += one

    def blocks(p, q, r, s):
        return mp.matrix(np.block([[mp_array(p), mp_array(q)],
                                   [mp_array(r), mp_array(s)]]).tolist())

    return (blocks(a, zero, zero, mp.inverse(a).T)
            * blocks(one, b + b.T, zero, one)
            * blocks(one, zero, c + c.T, one))


def test_eigh_resolves_exact_and_near_degeneracy():
    # Williamson's form J = S diag(e, e) S^T in a random symplectic basis S
    # has the symplectic eigenvalues e: W = i L Om L^T for J = L^T L has
    # the spectrum +-e. The +e half that the refinement computes holds an
    # exact triple (the decoupled ring's), or a pair at 2 and 2 + 1e-30,
    # split far below float64, which its Jacobi rotations resolve
    with mp.workdps(2 * MP_DPS):
        s = random_symplectic(np.random.default_rng(5))
        om = mp.matrix(np.block([[np.zeros((3, 3)), np.eye(3)],
                                 [-np.eye(3), np.zeros((3, 3))]]).tolist())
        assert mp.mnorm(s.T * om * s - om, 1) <= mp.mpf("1e-90")
        spectra = ([mp.mpf(1)] * 3,
                   [mp.mpf(1), mp.mpf(2), 2 + mp.mpf("1e-30")])
    for e in spectra:
        with mp.workdps(2 * MP_DPS):
            jac = np.frompyfunc(lambda z: Decimal(mp.nstr(z, 2 * MP_DPS)), 1,
                                1)(mp_array(s * mp.diag(e + e) * s.T))
        with working():
            l = DEC.cholesky(jac)
            lam, y = colpa(l)
        w, ref_lam, ref_u = reference_eigh(l)
        assert_paired(l, mp.mpf("1e-48"))
        with mp.workdps(MP_DPS):
            lam, y = to_mp(lam), to_mp(y)
            assert biggest(lam - np.array(e)) <= mp.mpf("1e-48")
            assert biggest(lam - ref_lam[3:]) <= mp.mpf("1e-48")
            assert_colpa_pairs(to_mp(l), lam, y, mp.mpf("1e-48"))


def test_cholesky_matches_mpmath_and_refuses_indefinite():
    one, two = Decimal(1), Decimal(2)
    h = np.array([[4 * one, one / 3, -two], [one / 3, 6 * one, one / 7],
                  [-two, one / 7, 5 * one]])
    with working():
        l = DEC.cholesky(h)
        with pytest.raises(np.linalg.LinAlgError):
            DEC.cholesky(np.array([[one, two], [two, one]]))
    assert np.all(np.tril(l, -1) == 0)
    with mp.workdps(MP_DPS):
        l, h = to_mp(l), to_mp(h)
        ref = mp_array(mp.cholesky(mp_matrix(h))).T
        assert biggest(l - ref) <= mp.mpf("1e-49")
        assert biggest(l.T @ l - h) <= mp.mpf("1e-48")


def test_float64_cholesky_is_upper_and_refuses_indefinite():
    # the factor L of J = L^T L that the Colpa step reads, as DEC's
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.standard_normal((6, 6))
        h = a.T @ a + 0.1 * np.eye(6)
        l = F64.cholesky(h)
        assert l.dtype == float
        assert np.array_equal(l, np.triu(l))
        assert np.all(np.diagonal(l) > 0)
        assert np.max(np.abs(l.T @ l - h)) <= 1e-14 * np.max(np.abs(h))
    with pytest.raises(np.linalg.LinAlgError):
        F64.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_refuses_the_exact_zero_mode():
    # J = 0 and g1 = 1/2: the decoupled ring on its boundary (see
    # test_exact_zero_mode_raises_critical_point), here at 50 digits; the
    # Colpa step factors the residual Jacobian there
    with working():
        p = dec_params(j_hop=0.0, g1=0.5)
        jac = residual_jacobian(p, DEC.num(np.zeros(6)))
        assert of(jac) is DEC
        with pytest.raises(np.linalg.LinAlgError):
            DEC.cholesky(jac)
        with pytest.raises(CriticalPointError):
            diagonalize_paraunitary(jac)


@pytest.mark.parametrize("fn", [residuals, residual_jacobian,
                                ground_energy_mf, build_m_matrix])
def test_mixed_precision_input_is_a_domain_error(fn):
    # Decimal refuses float operands, so parameters and displacement must
    # come at one precision; either mix names both
    with working():
        for p, x in ((dec_params(), np.zeros(6)),
                     (params(), DEC.num(np.zeros(6)))):
            with pytest.raises(DomainError) as err:
                fn(p, x)
            assert "float64" in str(err.value)
            assert "Decimal" in str(err.value)


def test_jacobian_at_fifty_digits_is_symmetric_and_matches_float64():
    # the form the Colpa step takes at a deep point
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    with working():
        jac = residual_jacobian(p, x)
    assert all(isinstance(v, Decimal) for v in jac.flat)
    assert np.all(jac == jac.T)
    # the same point in float64
    pf = ModelParams(omega=float(p.omega), delta=float(p.delta),
                     g1=float(p.g1), j_hop=float(p.j_hop), theta=p.theta)
    xf = x.astype(float)
    jac64 = residual_jacobian(pf, xf)
    assert np.max(np.abs(jac.astype(float) - jac64)) <= 1e-14


def test_solve_refuses_the_singular_jacobian():
    # at J = 0 and g1 = g1c = 1/2 the curvature of site 1 cancels omega at
    # A_1 = 0 exactly (see test_singular_start_does_not_disturb_its_batch).
    # The 50-digit solve is a Cholesky solve, so it refuses a nonsingular
    # indefinite system too, which float64's LU solves
    indefinite = np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
    with working():
        p = dec_params(j_hop=0.0, g1=0.5)
        a = np.array([Decimal(0), Decimal("0.3"), Decimal("0.3")])
        jac = residual_jacobian(p, np.concatenate([a, DEC.num(np.zeros(3))]))
        for a in (jac, DEC.num(indefinite)):
            with pytest.raises(np.linalg.LinAlgError):
                DEC.solve(a, DEC.num(np.ones(6)))
            with pytest.raises(np.linalg.LinAlgError):
                DEC.solve(a[None], DEC.num(np.ones((1, 6, 1))))
    x = F64.solve(indefinite, np.ones(6))
    assert np.array_equal(x, [1.0, -1.0, 1.0, 1.0, 1.0, 1.0])


def test_stack_with_one_indefinite_system_is_refused():
    # one refused system makes the stacked solve raise for all; Newton
    # then solves each alone and gives that one a zero step, on which it
    # gives its row up
    with working():
        stack = DEC.num(np.array([np.eye(6), np.diag([1.0, -1.0, 1.0, 1.0,
                                                      1.0, 1.0]), np.eye(6)]))
        with pytest.raises(np.linalg.LinAlgError):
            DEC.cholesky(stack)
        with pytest.raises(np.linalg.LinAlgError):
            DEC.solve(stack, DEC.num(np.ones((3, 6, 1))))


def test_singular_start_does_not_disturb_its_fifty_digit_batch(monkeypatch):
    # the 50-digit twin of test_meanfield's
    # test_singular_start_does_not_disturb_its_batch: at J = 0 and
    # g1 = g1c = 1/2 the start x0 has an exactly singular Jacobian, so the
    # stacked Cholesky solve raises and x0 is given up; each row of the
    # batch still follows the iterates it follows alone, Decimal for Decimal
    refused = []
    solve = DEC.solve

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            refused.append(np.ndim(a))
            raise

    monkeypatch.setattr(DEC, "solve", counted)
    x0 = np.array([0.0, 0.3, 0.3, 0.0, 0.0, 0.0])
    seeds = _seed_list(params(theta=0.0, g1=0.5, j_hop=0.0), seed=1)
    with working():
        p, tol = dec_params(j_hop=0.0, g1=0.5), Decimal(10) ** (12 - MP_DPS)
        starts = DEC.num(np.array([seeds[1], x0, seeds[3]]))
        batch = _newton(p, starts, tol)
        assert 3 in refused and 2 in refused
        for x, got in zip(starts, batch):
            alone = _newton(p, x, tol)
            assert (got is None) == (alone is None)
            assert got is None or np.array_equal(got, alone)
    assert batch[0] is not None and batch[1] is None and batch[2] is not None


@pytest.mark.parametrize("j_hop", [0.05, 0.2])
def test_fifty_digit_newton_systems_are_positive_definite(monkeypatch,
                                                          j_hop):
    # the Cholesky solve refuses an indefinite Newton system, on which
    # Newton would give its row up; near a minimum the 50-digit
    # continuation meets none, at each transition and on either side of
    # theta_c
    calls, raises = [], []
    solve = DEC.solve

    def counted(a, b):
        calls.append(len(a))
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            raises.append(len(a))
            raise

    monkeypatch.setattr(DEC, "solve", counted)
    theta_c = critical_flux(params(j_hop=j_hop))
    deltas = [1e-5, *_log_grid(_REPORT_WINDOW, _REPORT_POINTS), 3e-12]
    for theta in (0.0, 0.1, theta_c, 1.7, math.pi):
        continued_roots(params(theta=theta, j_hop=j_hop), deltas)
    assert calls and not raises


def test_stacked_kernels_match_each_matrix_alone():
    # the deep Jacobians of five reports in one stack, the theta = pi ones
    # with a cluster for the Jacobi pass and the others without: the
    # Cholesky, the solve and the Colpa step give, matrix by matrix, the
    # Decimal numbers of a call on that matrix alone
    jacs = []
    for theta in (0.0, 0.1, THETA_C, 1.7, math.pi):
        roots = continued_roots(params(theta=theta), [1e-5, 1e-9, 3e-12])
        with working():
            jacs += [residual_jacobian(p, x)
                     for p, x in roots.values()]
    with working():
        jacs = np.array(jacs)
        rhs = DEC.num(np.arange(1.0, 1.0 + 6 * len(jacs)).reshape(-1, 6, 1))
        ls, xs = DEC.cholesky(jacs), DEC.solve(jacs, rhs)
        lams, ys = colpa(ls)
        for jac, b, l, x, lam, y in zip(jacs, rhs, ls, xs, lams, ys):
            assert np.array_equal(DEC.cholesky(jac), l)
            assert np.array_equal(DEC.solve(jac, b[:, 0]), x[:, 0])
            alone = colpa(l)
            assert np.array_equal(alone[0], lam)
            assert np.array_equal(alone[1], y)


@pytest.mark.parametrize("theta", [0.1, 1.7])
def test_report_runs_one_fifty_digit_newton_and_colpa_step(monkeypatch,
                                                           theta):
    # every 50-digit point of a report is polished by one stacked Newton
    # and evaluated by one stacked Colpa step; the root at the split and the
    # theta = 0.1 crossover band above it stay in float64
    newton, steps = [], []
    real_newton, real_colpa = meanfield._newton, numerics.colpa

    def count_newton(p, x0, *args):
        if of(x0) is DEC:
            newton.append(len(x0))
        return real_newton(p, x0, *args)

    def count_colpa(l):
        if of(l) is DEC:
            steps.append(len(l))
        return real_colpa(l)

    monkeypatch.setattr(meanfield, "_newton", count_newton)
    monkeypatch.setattr(numerics, "colpa", count_colpa)
    exponent_report(theta)
    assert newton == steps and len(newton) == 1
    assert newton[0] >= _REPORT_POINTS


def test_solve_matches_mpmath_on_each_call_shape():
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    with working():
        # one Newton system with a vector right-hand side
        jac = residual_jacobian(p, x)
        one = DEC.solve(jac, x)
        # a stack of Newton systems
        jacs = residual_jacobian(p, np.array([x, x]))
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
    # the columns z = L^-1 u sqrt(e) of S, taken as i Om L^T u / sqrt(e),
    # against mpmath's back substitution through the same real factor L,
    # at a deep point; u and e come from the reference eigensystem of W.
    # Each column is compared as its projector z z^dag, which no phase of
    # u moves
    p, x = continued_roots(params(theta=0.1), [1e-7])[1e-7]
    seen = []
    monkeypatch.setattr(numerics, "colpa",
                        lambda l: seen.append(l) or colpa(l))
    with working():
        ps = diagonalize_paraunitary(
            residual_jacobian(p, x))
    _, evals, u = reference_eigh(seen[0])
    s = to_mp(ps.s)
    with mp.workdps(2 * MP_DPS):
        rhs = u[:, 3:] * np.frompyfunc(mp.sqrt, 1, 1)(evals[3:])
        ref = np.array(
            [list(mp.U_solve(mp_matrix(to_mp(seen[0])), mp_matrix(col)))
             for col in rhs.T]).T
        z = (s[:, 3:] + mp.mpc(0, 1) * s[:, :3]) / mp.sqrt(2)
    with mp.workdps(MP_DPS):
        for k in range(3):
            want = np.outer(ref[:, k], ref[:, k].conj())
            got = np.outer(z[:, k], z[:, k].conj())
            assert biggest(got - want) <= mp.mpf("1e-45") * biggest(want)


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.5, 1.7, 2.0, math.pi])
def test_real_form_invariants_at_fifty_digits(theta):
    # S^T Om S = Om, the real form of T^dag Lam T = Lam, and Colpa's
    # congruence S^T J S = diag(e, e), read at the precision S was built
    # with: 50 digits meet 1e-30, which float64 cannot
    roots = continued_roots(params(theta=theta), [1e-5, 1e-7, 1e-9])
    for d, (p, x) in roots.items():
        with working():
            ps = diagonalize_paraunitary(
                residual_jacobian(p, x))
        assert ps.para_residual <= 1e-30, d
        assert ps.diag_residual <= 1e-30, d


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.7])
def test_float64_observables_match_fifty_digits(monkeypatch, theta):
    # the float64 Colpa step and observables against the same steps at 50
    # digits, on the same float64 root and the same float64 Jacobian there
    # (the rounding of J itself moves eps1 by up to u max|J| / min-eig(J),
    # 2.5e-10 relative at theta = 0.1, delta = 1e-4; both routes share it)
    keys = ("eps1", "eps2", "eps3", "photon_n", "var_x", "var_p")
    roots = continued_roots(params(theta=theta), [1e-4, 1e-3, 1e-2])
    for d, (p, x) in roots.items():
        assert x.dtype == float
        got = point_observables(p, x)
        jac = residual_jacobian(p, x)
        # the parameters at the precision of the root, as the condensate
        # term (delta/omega)(a^2 + b^2) of photon_n needs
        pd = ModelParams(omega=Decimal(p.omega), delta=Decimal(p.delta),
                         g1=Decimal(p.g1), j_hop=Decimal(p.j_hop),
                         theta=p.theta)
        with monkeypatch.context() as patch, working():
            patch.setattr(bogoliubov, "residual_jacobian",
                          lambda q, y, g1=None: DEC.num(jac))
            want = point_observables(pd, DEC.num(x))
        for key in keys:
            assert np.asarray(got[key]) == pytest.approx(want[key],
                                                         rel=1e-10), (d, key)


# point_observables at the deep points of the four reference transitions and
# of theta = pi, as floats: eps1..eps3, then photon_n, var_x and var_p of
# sites 1..3, frozen from the complex Colpa step, which the real normal form
# reproduces to the last bit
THETA_C = critical_flux(params())
_FROZEN = {
    (0.0, 1e-06): [
        7.024019025620364e-06, 0.001899988969550445, 0.40620449292997163,
        83.08863048251895, 16926.866454028237, 16926.866454028237,
        334.2295287227689, 67709.34224956341, 67709.34224956341,
        0.12443180370457238, 0.12342619507963411, 0.12342619507963411],
    (0.0, 1e-09): [
        7.024006466632078e-09, 6.008327519438242e-05, 0.40620192280441025,
        2634.9877833111186, 16906964.184078872, 16906964.184078872,
        10541.827999021374, 67627858.61321332, 67627858.61321332,
        0.12313366169651611, 0.12310203326337386, 0.12310203326337386],
    (0.1, 1e-06): [
        7.691724969561353e-07, 0.017395773592086758, 0.40520328798706345,
        9.098505596598262, 1851.8638254191612, 1851.8638254191612,
        37.45377977607079, 7409.125842389407, 7409.125842389407,
        0.9396813078299501, 0.32931892319322326, 0.32931892319322326],
    (0.1, 1e-09): [
        2.4469779475155206e-11, 0.017291759424102812, 0.40520071221665305,
        15.389303490605085, 58643.11002704315, 58643.11002704315,
        37.544721609546, 234567.8425773018, 234567.8425773018,
        26.01249179157194, 6.597530730403719, 6.597530730403719],
    (THETA_C, 1e-06): [
        2.3061707658452218e-05, 0.00199004701860533, 0.17301364166596628,
        43.11253552955885, 43.11253552955885, 43.11253552955885,
        174.3915376787696, 174.3915376787696, 174.3915376787696,
        0.05820243961727642, 0.05820243961727642, 0.05820243961727642],
    (THETA_C, 1e-09): [
        2.306483661580069e-08, 6.293089088104515e-05, 0.17299060302314445,
        1319.06175891744, 1319.06175891744, 1319.06175891744,
        5278.189493733108, 5278.189493733108, 5278.189493733108,
        0.057541534652604004, 0.057541534652604004, 0.057541534652604004],
    (1.7, 1e-06): [
        0.0019742286333554117, 0.053601044690291255, 0.22536242826847486,
        42.392682253808466, 42.392682253808466, 42.392682253808466,
        171.47726451819136, 171.47726451819136, 171.47726451819136,
        0.09305927619498865, 0.09305927619498865, 0.09305927619498865],
    (1.7, 1e-09): [
        6.24306689934364e-05, 0.05358681301419487, 0.22534819659237848,
        1318.3415146475822, 1318.3415146475822, 1318.3415146475822,
        5275.273653919948, 5275.273653919948, 5275.273653919948,
        0.09240426515982435, 0.09240426515982435, 0.09240426515982435],
    (math.pi, 1e-06): [
        0.0017999977500030937, 0.396867458971569, 0.39686745897156905,
        41.67094462271472, 41.67094462271472, 41.67094462271472,
        168.43068804177375, 168.43068804177375, 168.43068804177375,
        0.2526460048629021, 0.2526460048629021, 0.2526460048629021],
    (math.pi, 1e-09): [
        5.692099781187958e-05, 0.3968627014220409, 0.39686270142204094,
        1317.6196513915615, 1317.6196513915615, 1317.6196513915615,
        5272.226607721587, 5272.226607721587, 5272.226607721587,
        0.251997400214242, 0.251997400214242, 0.251997400214242],
}


@pytest.mark.parametrize("theta", [0.0, 0.1, THETA_C, 1.7, math.pi])
def test_deep_observables_match_the_frozen_values(theta):
    roots = continued_roots(params(theta=theta), [1e-6, 1e-9])
    for d, (p, x) in roots.items():
        with working():
            obs = point_observables(p, x)
        got = [obs["eps1"], obs["eps2"], obs["eps3"], *obs["photon_n"],
               *obs["var_x"], *obs["var_p"]]
        for g, want in zip(got, _FROZEN[theta, d], strict=True):
            assert abs(g - want) <= math.ulp(want), (d, g, want)


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


def test_of_picks_the_table_from_the_inputs():
    for v in (Decimal(1), np.array([Decimal(1), Decimal(2)]),
              np.zeros(2, object)):
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
