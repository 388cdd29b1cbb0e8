import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rabitri import ConvergenceError, DomainError, PhaseLabel
from rabitri.bogoliubov import diagonalize_paraunitary, point_observables
from rabitri.model import critical_coupling_min
from rabitri import meanfield
from rabitri.meanfield import (_newton, _seed_list, continued_roots,
                               fsp_closed_form, ground_energy_mf,
                               residual_jacobian, residuals,
                               solve_displacements)
from rabitri.np_analytics import (excitation_energies, local_photon_np,
                                  variance_p_np, variance_x_np)

from conftest import lose_the_root, params

THETA_C = 1.6205693443218139


def test_residuals_vanish_at_origin():
    p = params(theta=0.3, g1=0.4)
    r = residuals(p, np.zeros(6))
    assert np.max(np.abs(r)) == 0.0


@pytest.mark.parametrize("theta", [1.7, math.pi])
def test_fsp_closed_form_is_a_root(theta):
    p = params(theta=theta, g1=0.6)
    x = fsp_closed_form(p)
    assert np.all(x[:3] == x[0]) and np.all(x[3:] == 0.0)
    assert np.max(np.abs(residuals(p, x))) <= 1e-12


def test_fsp_closed_form_below_threshold():
    with pytest.raises(DomainError):
        fsp_closed_form(params(theta=1.7, g1=0.1))


@pytest.mark.parametrize("j_hop", [0.5, 0.6])
def test_fsp_closed_form_needs_a_positive_uniform_frequency(j_hop):
    # at theta = pi the uniform mode's omega + 2J cos(theta) = 1 - 2J
    # reaches zero at J = 1/2 (cos(pi) is -1.0 exactly)
    with pytest.raises(DomainError, match="must be positive"):
        fsp_closed_form(params(theta=math.pi, g1=0.6, j_hop=j_hop))


def test_jacobian_matches_finite_differences():
    p = params(theta=0.7, g1=0.6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, size=6)
        jac = residual_jacobian(p, x)
        fd = np.zeros((6, 6))
        h = 1e-6
        for k in range(6):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            rp = residuals(p, xp)
            rm = residuals(p, xm)
            fd[:, k] = (rp - rm) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6


@settings(derandomize=True, deadline=None, max_examples=25)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True),
       j_hop=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       g1=st.floats(0.0, 2.0))
@example(theta=0.3, j_hop=0.05, delta=100.0, g1=0.6)
def test_residuals_are_half_energy_gradient(theta, j_hop, delta, g1):
    p = params(theta=theta, g1=g1, delta=delta, j_hop=j_hop)
    rng = np.random.default_rng(11)
    x = rng.uniform(-2.0, 2.0, size=6)
    r = residuals(p, x)
    h = 1e-6
    for k in range(6):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        ep = ground_energy_mf(p, xp)
        em = ground_energy_mf(p, xm)
        assert 2 * r[k] == pytest.approx((ep - em) / (2 * h), abs=1e-6)


def test_normal_phase_returns_zero_displacement():
    p = params(theta=0.7, g1=0.3)
    sol = solve_displacements(p)
    assert sol.label is PhaseLabel.NP
    assert np.all(sol.x == 0.0)
    assert sol.energy == pytest.approx(-1.5 * p.delta, rel=1e-15)


def test_afsp_frozen_root():
    sol = solve_displacements(params(theta=0.0, g1=0.55))
    assert sol.label is PhaseLabel.AFSP
    assert sol.x[:3] == pytest.approx(
        [3.9037049211943899, -3.2033182100437005, -3.2033182100437014],
        rel=1e-10)
    assert np.max(np.abs(sol.x[3:])) <= 1e-10
    assert sol.energy == pytest.approx(-153.95918077817674, rel=1e-12)
    assert sol.residual_norm <= 1e-10


def test_csp_frozen_root():
    p = params(theta=0.1)
    g1c = critical_coupling_min(p)
    sol = solve_displacements(params(theta=0.1, g1=1.01 * g1c))
    assert sol.label is PhaseLabel.CSP
    assert sol.x[:3] == pytest.approx([1.182041, -0.663855, -0.663855],
                                       rel=1e-5)
    assert sol.x[3:][0] == pytest.approx(0.0, abs=1e-8)
    # chirality: the imaginary parts of the two satellite sites are opposite
    assert sol.x[3:][1] == pytest.approx(-0.00969651, rel=1e-4)
    assert sol.x[3:][2] == pytest.approx(+0.00969651, rel=1e-4)


def test_triple_point_uniform_root():
    p = params(theta=THETA_C)
    g1c = critical_coupling_min(p)
    sol = solve_displacements(params(theta=THETA_C, g1=1.01 * g1c))
    assert sol.label is PhaseLabel.TRIPLE_POINT
    a = sol.x[:3]
    assert a[0] == pytest.approx(1.00003719, rel=1e-6)
    assert np.max(np.abs(a - a[0])) <= 1e-7
    assert np.max(np.abs(sol.x[3:])) <= 1e-7


def test_fsp_solver_matches_closed_form():
    p = params(theta=1.7, g1=0.6)
    sol = solve_displacements(p)
    assert sol.label is PhaseLabel.FSP
    x = fsp_closed_form(p)
    assert sol.x[:3] == pytest.approx(x[:3], rel=1e-9)
    assert np.max(np.abs(sol.x[3:])) <= 1e-9


def test_cyclic_orbit_is_degenerate():
    p = params(theta=0.0, g1=0.55)
    sol = solve_displacements(p)
    e0 = sol.energy
    for shift in (1, 2):
        x = np.concatenate([np.roll(sol.x[:3], shift),
                            np.roll(sol.x[3:], shift)])
        assert np.max(np.abs(residuals(p, x))) <= 1e-9
        assert ground_energy_mf(p, x) == pytest.approx(e0, rel=1e-14)
    # global sign flip too
    assert ground_energy_mf(p, -sol.x) == pytest.approx(e0, rel=1e-14)


def test_canonical_labeling_puts_largest_site_first():
    for th, g1 in [(0.0, 0.55), (0.1, 0.51), (0.3, 0.6)]:
        sol = solve_displacements(params(theta=th, g1=g1))
        assert sol.x[:3][0] >= sol.x[:3][1]
        assert sol.x[:3][0] >= sol.x[:3][2]
        assert sol.x[:3][0] > 0.0


def test_seed_only_feeds_random_starts():
    p = params(theta=0.1, g1=0.55)
    s0 = solve_displacements(p, seed=0)
    s1 = solve_displacements(p, seed=12345)
    assert s0.x[:3] == pytest.approx(s1.x[:3], abs=1e-8)
    assert s0.x[3:] == pytest.approx(s1.x[3:], abs=1e-8)


def test_negative_seed_is_a_domain_error():
    # the multi-start is the one consumer of the seed, directly and through
    # the continuation anchor of the scaling sweeps
    from rabitri.scaling import observables_near
    p = params(theta=0.0, g1=0.6)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        solve_displacements(p, seed=-1)
    with pytest.raises(DomainError, match="seed must be >= 0"):
        observables_near(p, [1e-3], seed=-1)


def test_multistart_without_a_converged_start_raises(monkeypatch):
    monkeypatch.setattr(meanfield, "_newton",
                        lambda p, x0, tol: [None] * len(x0))
    with pytest.raises(ConvergenceError, match="no mean-field root"):
        meanfield._multistart(params(theta=0.0, g1=0.6), seed=0)


@pytest.mark.parametrize("deep, delta", [(False, 1e-3), (True, 1e-7)])
def test_continuation_that_loses_its_root_raises(monkeypatch, deep, delta):
    # 1e-3 lies in the float64 stack, and 1e-7 in the 50-digit one
    lose_the_root(monkeypatch, deep)
    with pytest.raises(ConvergenceError, match="lost the root"):
        continued_roots(params(theta=0.1), [delta])


@pytest.mark.parametrize("deep, deltas", [(False, [3e-3, 1e-3, 3e-4]),
                                          (True, [1e-6, 1e-7, 1e-8])])
def test_continuation_that_loses_one_of_several_roots_raises(monkeypatch,
                                                             deep, deltas):
    # the other rows of the stack converge, and the error names the lost one
    p = params(theta=0.1)
    lose_the_root(monkeypatch, deep, row=1)
    with pytest.raises(ConvergenceError, match="lost the root") as err:
        continued_roots(p, deltas)
    g1 = float(str(err.value).rsplit("g1=", 1)[1])
    assert g1 == pytest.approx(critical_coupling_min(p) * (1 + deltas[1]),
                               rel=1e-15)


def test_sine_branch_saddle_exists_but_loses():
    # A = (0, c, -c) solves the stationarity equations at zero flux yet sits
    # above the cosine branch in energy, so the solver must not return it
    g1c = 0.48733971724044817
    p = params(theta=0.0, g1=1.01 * g1c)
    x = _newton(p, np.array([0.0, 2.0, -2.0, 0.0, 0.0, 0.0]), tol=1e-12)
    assert x is not None
    assert x[1] == pytest.approx(1.02346098, rel=1e-7)
    assert x[0] == pytest.approx(0.0, abs=1e-10)
    e_saddle = ground_energy_mf(p, x)
    sol = solve_displacements(p)
    assert sol.energy < e_saddle
    assert sol.x[:3][0] > 1.1   # cosine-branch pattern (c, -c/2ish, -c/2ish)


def test_energy_decreases_through_transition():
    p_np = params(theta=0.1, g1=0.45)
    p_sr = params(theta=0.1, g1=0.55)
    e_np = solve_displacements(p_np).energy
    e_sr = solve_displacements(p_sr).energy
    assert e_np == pytest.approx(-1.5 * 100.0, rel=1e-15)
    assert e_sr < e_np


@settings(derandomize=True, deadline=None, max_examples=50)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True),
       j_hop=st.floats(0.0, 0.49), delta=st.floats(10.0, 1000.0),
       ratio=st.one_of(st.floats(0.0, 0.999, exclude_min=True),
                       st.floats(1.001, 2.0)))
# the soft mode's omega + 2J cos(theta -+ 2pi/3) below 0.1 omega puts the
# root far outside the random starts' box; the origin, a saddle above g1c,
# fails the Colpa step
@example(theta=0.83, j_hop=0.48, delta=735.0, ratio=1.5)
@example(theta=-1.0, j_hop=0.49, delta=500.0, ratio=1.2)
@example(theta=1.0, j_hop=0.49, delta=50.0, ratio=1.05)
def test_mirror_and_paraunitarity_across_parameters(theta, j_hop, delta,
                                                    ratio):
    # theta -> -theta with sites 2 <-> 3 swapped maps the ring onto itself
    swap, sites = [0, 2, 1, 3, 5, 4], [0, 2, 1]
    g1 = ratio * critical_coupling_min(params(theta=theta, delta=delta,
                                              j_hop=j_hop))
    p = params(theta=theta, g1=g1, delta=delta, j_hop=j_hop)
    q = params(theta=-theta, g1=g1, delta=delta, j_hop=j_hop)
    mf = solve_displacements(p)
    x = mf.x
    mirrored = x[swap]
    r_p = residuals(p, x)
    r_q = residuals(q, mirrored)
    assert np.max(np.abs(r_q - r_p[swap])) <= 1e-12 * delta
    assert np.max(np.abs(r_q)) <= 5e-10
    assert abs(ground_energy_mf(q, mirrored)
               - ground_energy_mf(p, x)) <= 1e-12 * delta
    ps = diagonalize_paraunitary(residual_jacobian(p, x))
    qs = diagonalize_paraunitary(residual_jacobian(q, mirrored))
    assert ps.para_residual <= 1e-10 and qs.para_residual <= 1e-10
    # the Colpa energies, and per-site observables with sites 2 <-> 3;
    # rounding of J moves them by up to max|J| / eps1 times its size
    rel = 1e-13 * np.max(np.abs(ps.jac)) / ps.eps[0]
    assert qs.eps == pytest.approx(ps.eps, rel=rel)
    obs_p = point_observables(p, x)
    obs_q = point_observables(q, x[swap])
    assert obs_q["photon_n"] == pytest.approx(obs_p["photon_n"][sites],
                                              rel=rel, abs=1e-12)
    for key in ("var_x", "var_p"):
        assert obs_q[key] == pytest.approx(obs_p[key][sites], rel=rel)
    if ratio < 1.0:
        # the normal-phase closed forms are even in theta
        assert excitation_energies(q) == pytest.approx(
            excitation_energies(p), rel=1e-12)
        for f in (local_photon_np, variance_x_np, variance_p_np):
            assert f(q) == pytest.approx(f(p), rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.7])
@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
def test_near_critical_root_is_converged_and_symmetric(theta, delta):
    # close to g1c the root keeps the symmetry of its phase: sites 2 and 3
    # mirror each other (A_2 = A_3, B_2 = -B_3), and all three sites agree
    # in the uniform phase
    g1c = critical_coupling_min(params(theta=theta))
    p = params(theta=theta, g1=g1c * (1.0 + delta))
    sol = solve_displacements(p)
    a, b = sol.x[:3], sol.x[3:]
    scale = np.max(np.abs(a))
    assert abs(a[1] - a[2]) <= 1e-9 * scale
    assert abs(b[1] + b[2]) <= 1e-9 * scale
    if theta == 1.7:
        assert abs(a[0] - a[1]) <= 1e-9 * scale
    assert sol.residual_norm <= 1e-12 * p.omega


@pytest.mark.parametrize("delta", [1e-4, 5e-7])
def test_root_independent_of_energy_unit(delta):
    # scaling (omega, Delta, J) by s leaves the reduced coupling, g1c and
    # the dimensionless displacement unchanged
    g1 = critical_coupling_min(params(theta=0.1)) * (1.0 + delta)
    ref = solve_displacements(params(theta=0.1, g1=g1)).x
    for s in (1e-3, 1e3):
        got = solve_displacements(params(theta=0.1, g1=g1, omega=s,
                                         delta=100.0 * s,
                                         j_hop=0.05 * s)).x
        assert got[:3] == pytest.approx(ref[:3], rel=1e-9)
        assert got[3:] == pytest.approx(ref[3:], rel=1e-9, abs=1e-9 * ref[0])


def sequential_newton(p, x0, tol):
    # reference: the damped Newton of one start, its backtracking one
    # halving at a time; it gives up when max|r| has not halved over the
    # last _STALL iterations
    def res(x):
        return residuals(p, x)

    x, mu, past = np.array(x0), 0.0, []
    r = res(x)
    for it in range(meanfield._MAX_ITER):
        rn = np.max(np.abs(r))
        if rn <= tol:
            return x
        if (it >= meanfield._STALL
                and not rn <= 0.5 * past[it - meanfield._STALL]):
            return None
        past.append(rn)
        jac = residual_jacobian(p, x)
        try:
            step = np.linalg.solve(jac + np.eye(6) * mu if mu else jac, -r)
        except np.linalg.LinAlgError:
            mu = max(10.0 * mu, 1e-12 * p.omega)
            continue
        for t in 0.5 ** np.arange(30):
            rt = res(x + t * step)
            if np.max(np.abs(rt)) < rn:
                x, r = x + t * step, rt
                mu *= 0.25
                break
        else:
            mu = 100.0 * mu if mu else 1e-10 * p.omega
            if mu > 1e6 * p.omega:
                return None
    return x if np.max(np.abs(r)) <= tol else None


def assert_rows_match_alone(p, starts, tol):
    # a stack of starts reaches, row by row, what each start reaches alone
    # and what the one-start reference reaches
    batch = _newton(p, starts, tol)
    assert len(batch) == len(starts)
    for x0, got in zip(starts, batch):
        alone, ref = _newton(p, x0, tol), sequential_newton(p, x0, tol)
        if ref is None:
            assert got is None and alone is None
        else:
            assert np.array_equal(got, ref) and np.array_equal(alone, ref)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(theta=st.floats(-math.pi, math.pi, exclude_min=True),
       j_hop=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       ratio=st.floats(1.01, 2.0), seed=st.integers(0, 2 ** 16))
def test_batched_newton_matches_each_start_alone(theta, j_hop, delta, ratio,
                                                 seed):
    g1 = ratio * critical_coupling_min(params(theta=theta, delta=delta,
                                              j_hop=j_hop))
    p = params(theta=theta, g1=g1, delta=delta, j_hop=j_hop)
    assert_rows_match_alone(p, np.array(_seed_list(p, seed)),
                            meanfield._NEWTON_TOL * p.omega)


def test_singular_start_does_not_disturb_its_batch():
    # at J=0 and g1=g1c=1/2 the curvature of site 1 cancels omega at A_1=0,
    # so this start has an exactly singular Jacobian and a nonzero residual
    p = params(theta=0.0, g1=0.5, j_hop=0.0)
    x0 = np.array([0.0, 0.3, 0.3, 0.0, 0.0, 0.0])
    assert np.max(np.abs(residuals(p, x0))) > 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(residual_jacobian(p, x0), np.ones(6))
    seeds = _seed_list(p, seed=1)
    starts = np.array([*seeds[:4], x0, *seeds[10:12]])
    assert_rows_match_alone(p, starts, meanfield._NEWTON_TOL * p.omega)


def test_multistart_work_is_bounded(monkeypatch):
    # each Newton iteration evaluates the residuals of all its starts in at
    # most two calls: the full steps, then every backtracking step at once.
    # Starts 2 and 12 sit at a non-root minimum of max|r| (about 0.08),
    # give up once it has not halved in _STALL iterations, and so end the
    # batch after 23 iterations rather than _MAX_ITER
    calls = []
    real = meanfield.residuals

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(meanfield, "residuals", counted)
    g1c = critical_coupling_min(params(theta=0.5))
    p = params(theta=0.5, g1=1.05 * g1c)
    meanfield._multistart(p, seed=4)
    assert len(calls) <= 2 * 23 + 1
    batch = _newton(p, np.array(_seed_list(p, seed=4)),
                    meanfield._NEWTON_TOL * p.omega)
    assert [i for i, x in enumerate(batch) if x is None] == [2, 12]


def test_slow_start_that_keeps_halving_converges(monkeypatch):
    # this random start rests near max|r| = 0.035 for 17 iterations and
    # reaches a root after 27, halving max|r| within every _STALL of them,
    # so the stall rule leaves its iterates as they were without it
    g1c = critical_coupling_min(params(theta=-1.8, delta=1000.0, j_hop=0.04))
    p = params(theta=-1.8, g1=1.013 * g1c, delta=1000.0, j_hop=0.04)
    x0 = _seed_list(p, seed=5)[14]
    tol = meanfield._NEWTON_TOL * p.omega
    iterations = []
    jacobian = meanfield.residual_jacobian
    monkeypatch.setattr(meanfield, "residual_jacobian",
                        lambda *a: iterations.append(1) or jacobian(*a))
    x = _newton(p, x0, tol)
    assert x is not None and len(iterations) > meanfield._STALL
    assert np.max(np.abs(residuals(p, x))) <= tol
    monkeypatch.setattr(meanfield, "_STALL", meanfield._MAX_ITER)
    assert np.array_equal(_newton(p, x0, tol), x)


def _loop_multistart(p, seed):
    """The multi-start's root choice written as loops over the Newton batch
    (dedup against the kept roots, energies sorted one by one, the largest
    member of np.roll orbits), the reference of `meanfield._multistart`."""
    roots = np.empty((0, 6))
    for x in _newton(p, np.array(_seed_list(p, seed)), meanfield._NEWTON_TOL):
        if x is not None and not np.any(np.all(
                np.abs(x - roots) <= 1e-8 + 1e-5 * np.abs(roots), axis=1)):
            roots = np.vstack([roots, x])
    scored = sorted(((ground_energy_mf(p, x), x)
                     for x in roots), key=lambda t: t[0])
    tied = [x for e, x in scored if e - scored[0][0] <= 1e-10 * p.delta]
    orbit = [sgn * np.concatenate([np.roll(x[:3], shift),
                                   np.roll(x[3:], shift)])
             for x in tied for shift in range(3) for sgn in (1.0, -1.0)]
    return max(orbit, key=lambda c: tuple(np.round(c, 8)))


@pytest.mark.parametrize("theta", [0.0, 0.5, 2.0, -1.7])
def test_multistart_equals_its_loop_reference(theta):
    for ratio in (1.05, 1.5):
        for j_hop in (0.02, 0.2):
            g1c = critical_coupling_min(params(theta=theta, j_hop=j_hop))
            p = params(theta=theta, g1=ratio * g1c, j_hop=j_hop)
            for seed in (0, 4):
                assert np.array_equal(meanfield._multistart(p, seed),
                                      _loop_multistart(p, seed))
            # a stack of displacements gets the energy of each alone
            x = np.array(_seed_list(p, 0))
            stacked = ground_energy_mf(p, x)
            assert stacked.tolist() == [ground_energy_mf(p, r) for r in x]
