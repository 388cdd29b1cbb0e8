"""Mean-field displacement equations for the superradiant phases.

Displacing each cavity by alpha_n = A_n + i B_n and projecting the spins
onto the rotated ground state turns the stationarity condition into six
coupled real equations. A displacement, and so a root, is one real array
x = (A_1..A_3, B_1..B_3), or a stack of them of shape (k, 6), everywhere
in the package. Residuals, Jacobian, energy and Newton run at the
precision of their inputs (see `numerics`), the solvers in units of omega.

Gap renormalization per site: Delta_n = sqrt(Delta^2 + 16 g^2 A_n^2) with
the spin rotation fixed by sin(2 gamma_n) = 4 g A_n / Delta_n.

Roots: at a reduced coupling delta = g1/g1c - 1 >= 1e-2 a float64
multi-start damped Newton returns the minimal-energy root, canonicalized
so the distinguished site (when the ring order breaks C3) sits at index 0.
All starts (up to 26) run as one batch (`_newton`): every iteration makes
one stacked Jacobian and solve, one residual call for the full steps and
one for all backtracking steps of the rows that need them. Closer to g1c
the Jacobian goes singular, so `continued_roots` seeds every point from
that root by the sqrt(delta) law and polishes them all in one stacked
Newton, each row at its own coupling (the column g of `residuals`), then
one full Newton step past its stop, so that a row's last digits depend on
its delta alone. Points with delta >= 1e-4 run in float64; every deeper
point is seeded from the float64 root at 1e-4 and polished the same way
on 50-digit Decimal numbers (g1c and g1 included), because the Cholesky
step of the fluctuations needs min-eig(J) ~ eps1^2 to stay clear of
roundoff (see `numerics`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal

import numpy as np

from . import numerics
from .errors import ConvergenceError, CriticalPointError, DomainError
from .model import (ModelParams, PhaseLabel, bare_coupling, classify_phase,
                    critical_coupling_min, in_omega_units, softest_mode)

_NEWTON_TOL = 1e-10     # multi-start residual tolerance
_MAX_ITER = 200
_STALL = 20             # Newton gives up a row whose max|r| has not halved
                        # over this many iterations
_ANCHOR = 1e-2          # the multi-start runs at delta >= this
_MP_SPLIT = 1e-4        # continuation points below this delta run at 50 digits
# ring neighbours: x[_NXT][n] = x_{n+1}, x[_PRV][n] = x_{n-1}
_NXT, _PRV = np.array([1, 2, 0]), np.array([2, 0, 1])
# and as matrices: (_HOP @ x)[n] = x_{n+1} + x_{n-1}, and _TWIST gives
# x_{n+1} - x_{n-1}
_HOP = np.eye(3)[_NXT] + np.eye(3)[_PRV]
_TWIST = np.eye(3)[_NXT] - np.eye(3)[_PRV]
_DIAG = np.arange(3)    # an index array: fancy indexing by range() is slower
_HALVINGS = 0.5 ** np.arange(1, 30)[:, None]    # Newton backtracking steps
# the symmetry orbit of a root x, up to six exact roots of equal energy:
# x[_ROTATIONS[s]] relabels the sites cyclically,
# (A, B) -> (np.roll(A, s), np.roll(B, s)), and _SIGNS keeps or flips the
# sign of the whole root
_ROTATIONS = np.array([[(n - s) % 3 + h for h in (0, 3) for n in range(3)]
                       for s in range(3)])
_SIGNS = np.array([1.0, -1.0])[:, None]


@dataclass(frozen=True, eq=False)
class MeanFieldSolution:
    x: np.ndarray       # the root (A_1..A_3, B_1..B_3)
    energy: float
    label: PhaseLabel
    residual_norm: float


def _table(params: ModelParams, x: np.ndarray):
    """The precision table of params and the displacement x, which must
    share one."""
    nb, nx = numerics.of(params.omega), numerics.of(x)
    if nx is not nb:
        raise DomainError(f"parameters in {nb.name} but displacement in "
                          f"{nx.name}; convert one to the other's precision")
    return nb


def _gaps(nb, params: ModelParams, a: np.ndarray, g) -> np.ndarray:
    """Renormalized gaps Delta_n at the bare coupling g of params, in the
    precision table nb of params and a."""
    return nb.sqrt(a * (16 * g * g) * a + params.delta ** 2)


def residuals(params: ModelParams, x: np.ndarray, g=None) -> np.ndarray:
    """Stationarity residuals (R_1..R_3, S_1..S_3) at the displacement
    x = (A_1..A_3, B_1..B_3); zero at a mean-field root.

    Equal to half the gradient of ground_energy_mf with respect to x, so
    roots are exactly the stationary points. For a stack of displacements,
    shape (k, 6), whose rings differ only in g1, g holds the bare coupling
    of each as a column (default: bare_coupling(params)).
    """
    w, j, th = params.omega, params.j_hop, params.theta
    g = bare_coupling(params) if g is None else g
    x = np.asarray(x)
    nb = _table(params, x)
    a, b = x[..., :3], x[..., 3:]
    dn = _gaps(nb, params, a, g)
    an, ap = a[..., _NXT], a[..., _PRV]    # A_{n+1}, A_{n-1}
    bn, bp = b[..., _NXT], b[..., _PRV]
    ct, st = nb.cos(th), nb.sin(th)
    r = a * w - a * (4 * g * g) / dn + ((an + ap) * ct + (bn - bp) * st) * j
    s = b * w + ((bn + bp) * ct + (ap - an) * st) * j
    return np.concatenate([r, s], axis=-1)


def residual_jacobian(params: ModelParams, x: np.ndarray,
                      g=None) -> np.ndarray:
    """Analytic 6x6 Jacobian of `residuals` in the (A, B) ordering; one
    per displacement when x holds a stack of them, each at its own
    coupling where g gives them as a column (see `residuals`)."""
    w, j, th = params.omega, params.j_hop, params.theta
    g = bare_coupling(params) if g is None else g
    x = np.asarray(x)
    nb = _table(params, x)
    a = x[..., :3]
    dn = _gaps(nb, params, a, g)
    hop = nb.num(_HOP) * (j * nb.cos(th))
    twist = nb.num(_TWIST) * (j * nb.sin(th))
    # d(A_n/Delta_n)/dA_n = Delta^2/Delta_n^3
    curv = 4 * g * g * params.delta ** 2 / dn ** 3
    jac = np.zeros(a.shape[:-1] + (6, 6), dtype=nb.rdtype)
    jac[..., :3, :3] = jac[..., 3:, 3:] = hop
    jac[..., :3, 3:], jac[..., 3:, :3] = twist, -twist
    jac[..., _DIAG, _DIAG] += w - curv
    jac[..., _DIAG + 3, _DIAG + 3] += w
    return jac


def ground_energy_mf(params: ModelParams,
                     x: np.ndarray) -> float | np.ndarray:
    """Mean-field energy of the displacement x = (A_1..A_3, B_1..B_3), or
    an array of them for a stack of displacements, shape (k, 6).

    omega*sum|alpha|^2 + hopping bilinear - sum Delta_n/2. The hopping sum
    is real: each bond contributes 2*Re[e^{i theta} alpha_{n+1}^* alpha_n].
    """
    w, j, th = params.omega, params.j_hop, params.theta
    x = np.asarray(x)
    nb = _table(params, x)
    a, b = x[..., :3], x[..., 3:]
    dn = _gaps(nb, params, a, bare_coupling(params))
    an, bn = a[..., _NXT], b[..., _NXT]
    ct, st = nb.cos(th), nb.sin(th)
    hop = 2 * j * np.sum((a * an + b * bn) * ct + (a * bn - an * b) * st,
                         axis=-1)
    e = w * np.sum(a * a + b * b, axis=-1) + hop - np.sum(dn, axis=-1) / 2
    return float(e) if np.ndim(e) == 0 else e


def fsp_closed_form(params: ModelParams) -> np.ndarray:
    """Uniform real displacement x = (A, A, A, 0, 0, 0) of the ferromagnetic
    phase, positive branch.

    A = sqrt(16 g^4/(omega + 2J cos theta)^2 - Delta^2) / (4g).
    Raises DomainError below the threshold where the radicand turns negative.
    """
    g = bare_coupling(params)
    den = params.omega + 2.0 * params.j_hop * math.cos(params.theta)
    if den <= 0.0:
        raise DomainError("omega + 2J cos(theta) must be positive")
    rad = 16.0 * g ** 4 / den ** 2 - params.delta ** 2
    if rad < 0.0:
        # tolerate tiny negative values exactly at threshold
        if rad > -1e-12 * params.delta ** 2:
            rad = 0.0
        else:
            raise DomainError(
                f"g1={params.g1} below the uniform-displacement threshold")
    x = np.zeros(6)
    x[:3] = math.sqrt(rad) / (4.0 * g)
    return x


def _solve_rows(nb, a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the systems a[i] x = b[i], and whether each a[i] is
    regular: nonsingular in float64, positive definite at 50 digits, where
    nb.solve is a Cholesky solve. One refused a[i] makes the stacked solve
    raise for all, so then each system is solved alone and a refused one
    leaves a zero row."""
    try:
        return nb.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x, regular = np.zeros_like(b), np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = nb.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                regular[i] = False
        return x, regular


def _newton(params: ModelParams, x0: np.ndarray, tol: float, g=None
            ) -> np.ndarray | None | list[np.ndarray | None]:
    """Damped (Levenberg-regularized) Newton on the residual vector, at the
    precision of params and x0, in units of omega.

    x0 is one start, shape (6,), or a stack of starts, shape (k, 6), that
    run together: each row keeps its own regularization and stops on its
    own, and follows the iterates it would follow alone. Rows of rings
    that differ only in g1 take their bare couplings as the column g, shape
    (k, 1) (see `residuals`). A row stops
      - converged, at max|r| <= tol;
      - given up by the Levenberg rule, when the regularization mu of a
        step that lowers no max|r| would exceed 1e6;
      - stalled, when max|r| has not halved over the last _STALL
        iterations (a stall at a non-root minimum of max|r|; the give-up
        rule of MINPACK's hybrj, Moré, Garbow & Hillstrom, ANL-80-74);
      - at the cap of _MAX_ITER iterations.
    Returns the root reached, or None where a row ends above tol; for a
    stack, a list with one entry per row.
    """
    nb = numerics.of(params.omega, x0)
    x = np.array(x0, dtype=nb.rdtype, ndmin=2)
    g = bare_coupling(params) if g is None else g
    shared = np.ndim(g) == 0            # one coupling, or a column of them
    r = residuals(params, x, g)
    rn = np.max(np.abs(r), axis=-1)     # max|r| of each row, kept with r
    mu = nb.num(np.zeros(len(x)))
    live = np.ones(len(x), dtype=bool)   # neither converged nor given up
    past = []                            # max|r| of each row, per iteration
    for it in range(_MAX_ITER):
        live &= ~(rn <= tol)
        if it >= _STALL:
            live &= rn <= past[it - _STALL] / 2
        past.append(rn.copy())
        if not live.any():
            break
        rows = np.flatnonzero(live)
        jac = residual_jacobian(params, x[rows], g if shared else g[rows])
        reg = mu[rows] != 0
        if reg.any():
            jac[reg] += nb.num(np.eye(6)) * mu[rows[reg], None, None]
        step, regular = _solve_rows(nb, jac, -r[rows])
        if not regular.all():
            sing = rows[~regular]
            mu[sing] = np.maximum(10 * mu[sing], nb.num(1e-12))
            rows, step = rows[regular], step[regular]
        # backtracking on the residual norm: the full step, then for the
        # rows it does not improve the halvings 2^-1 .. 2^-29 all at once,
        # of which each row takes the first that lowers max|r|
        xt = x[rows] + step
        rt = residuals(params, xt, g if shared else g[rows])
        rnt = np.max(np.abs(rt), axis=-1)
        ok = rnt < rn[rows]
        back = np.flatnonzero(~ok)
        if len(back):
            xh = x[rows[back], None] + nb.num(_HALVINGS) * step[back, None]
            rh = residuals(params, xh, g if shared else g[rows[back], None])
            rnh = np.max(np.abs(rh), axis=-1)
            lower = rnh < rn[rows[back], None]
            first = range(len(back)), np.argmax(lower, axis=1)
            xt[back], rt[back], rnt[back] = xh[first], rh[first], rnh[first]
            ok[back] = lower.any(axis=1)
        good = rows[ok]
        x[good], r[good], rn[good] = xt[ok], rt[ok], rnt[ok]
        mu[good] /= 4
        if not ok.all():
            bad = rows[~ok]
            mu[bad] = np.where(mu[bad] == 0, nb.num(1e-10), mu[bad] * 100)
            live[bad[mu[bad] > 1e6]] = False
    out = [xi if ci else None for xi, ci in zip(x, rn <= tol)]
    return out if np.ndim(x0) == 2 else out[0]


def _seed_list(params: ModelParams, seed: int = 0) -> list[np.ndarray]:
    g = bare_coupling(params)
    seeds = [np.zeros(6)]
    try:
        fsp = fsp_closed_form(params)
        amp = float(fsp[0])
        seeds.append(fsp)
        seeds.append(np.concatenate([-fsp[:3], fsp[3:]]))
    except DomainError:
        amp = 0.0
    # staggered seed from the single-mode estimate at the soft momentum
    den = params.omega - params.j_hop * math.cos(params.theta)
    est = 0.0
    if den > 0.0:
        rad = 16.0 * g ** 4 / den ** 2 - params.delta ** 2
        if rad > 0.0:
            est = math.sqrt(rad) / (4.0 * g)
    for amp_s in (est, amp):
        if amp_s > 0.0:
            seeds.append(np.array([amp_s, -0.5 * amp_s, -0.5 * amp_s,
                                   0.0, 0.0, 0.0]))
    rng = np.random.default_rng(seed)
    box = 2.0 * g / params.omega
    for _ in range(20):
        seeds.append(rng.uniform(-box, box, size=6))
    # the soft mode's pattern cos(q n) at its single-mode amplitude, where
    # 16 g^4 / omega_eff^2 = Delta^2 (g1/g1c)^4: when hopping nearly
    # cancels omega, the root lies far outside the random box
    g1c, q = softest_mode(params)
    r = params.g1 / g1c
    if r > 1.0 and g > 0.0:
        amp = params.delta * math.sqrt(r * r * r * r - 1.0) / (4.0 * g)
        if math.isfinite(amp):
            seeds.append(np.concatenate([amp * np.cos(q * np.arange(3)),
                                         np.zeros(3)]))
    return seeds


def at_critical_point(delta: float, g1c: float) -> bool:
    """Whether g1 = g1c (1 + delta) lies within 1e-12 of g1c, where the
    soft mode makes the fluctuations singular."""
    return abs(delta) * g1c <= 1e-12


def _multistart(params: ModelParams, seed: int) -> np.ndarray:
    """Minimal-energy root (A_1..A_3, B_1..B_3) by multi-start damped Newton
    in float64, canonically labeled (see `solve_displacements`).

    Raises DomainError for a negative seed and where 16 g^4 or 4 g^2
    Delta^2, formed by the starts and the Jacobian, overflow float64."""
    if seed < 0:
        raise DomainError("seed must be >= 0")
    g = bare_coupling(params)
    if not (math.isfinite(16.0 * g * g * g * g)
            and math.isfinite(4.0 * g * g * params.delta * params.delta)):
        raise DomainError(
            f"g/omega={g} and Delta/omega={params.delta} overflow the "
            "mean-field equations in float64")
    xs = np.array([x for x in _newton(params, np.array(
        _seed_list(params, seed)), _NEWTON_TOL) if x is not None])
    if not len(xs):
        raise ConvergenceError(
            f"no mean-field root converged to {_NEWTON_TOL} at g1={params.g1}, "
            f"theta={params.theta}")
    # close[i][j]: np.allclose(xs[i], xs[j], atol=1e-8); each converged row
    # is kept unless it is close to a root kept before it
    close = np.all(np.abs(xs[:, None] - xs) <= 1e-8 + 1e-5 * np.abs(xs),
                   axis=-1).tolist()
    keep = []
    for i, row in enumerate(close):
        if not any(row[k] for k in keep):
            keep.append(i)
    roots = xs[keep]
    energy = ground_energy_mf(params, roots)
    order = np.argsort(energy, kind="stable")
    e = energy[order]
    tied = roots[order][e - e[0] <= 1e-10 * params.delta]
    # canonical labeling: the lexicographically largest orbit member of any
    # tied root, keyed at the root-identity scale (1e-8, the dedup
    # tolerance) so Newton noise cannot decide a tie; the first on a tie
    orbit = (tied[:, _ROTATIONS][:, :, None] * _SIGNS).reshape(-1, 6)
    key = np.round(orbit, 8).tolist()
    return orbit[max(range(len(key)), key=key.__getitem__)]


def _polish(ps: list[ModelParams], x0: np.ndarray, tol) -> np.ndarray:
    """The roots of the rings ps, which differ only in g1, from the stack of
    starts x0, at the precision of both: one stacked Newton to tol, then
    one full Newton step on every row, so a row's last digits do not
    depend on where its Newton happened to stop. Raises ConvergenceError
    where a row ends above tol or its last step is refused."""
    g = np.array([[bare_coupling(p)] for p in ps])
    xs = _newton(ps[0], x0, tol, g)
    ok = np.array([x is not None for x in xs])
    if ok.all():
        x = np.array(xs)
        step, ok = _solve_rows(numerics.of(x), residual_jacobian(ps[0], x, g),
                               -residuals(ps[0], x, g))
    if not ok.all():
        raise ConvergenceError("continuation lost the root at "
                               f"g1={float(ps[np.argmin(ok)].g1)}")
    return x + step


def continued_roots(base: ModelParams, deltas: list[float], seed: int = 0
                    ) -> dict[float, tuple[ModelParams, np.ndarray]]:
    """(params, root) at each reduced coupling delta = g1/g1c - 1 > 0, by
    continuation from the multi-start root x at anchor = max(delta, 1e-2)
    found with the given seed. The params are in units of omega
    (`in_omega_units`).

    Every delta >= 1e-4, and 1e-4 itself when a delta lies below, is
    seeded by the sqrt(delta) law, x sqrt(delta / anchor), and all of them
    are polished together in float64 (`_polish`). Every delta below is
    seeded the same way from the root at 1e-4 and polished together at
    50 digits; their params and roots are 50-digit Decimal numbers, to be
    used inside `numerics.working()`. Each row follows the iterates it
    would follow alone, so a root does not depend on which other deltas
    below the anchor were asked for."""
    base = in_omega_units(base)
    need = sorted({float(d) for d in deltas}, reverse=True)
    deep = [d for d in need if d < _MP_SPLIT]
    g1c = critical_coupling_min(base)
    anchor = max(need[0], _ANCHOR)
    x = _multistart(replace(base, g1=g1c * (1.0 + anchor)), seed)
    stops = [d for d in need if d > _MP_SPLIT]
    if deep or _MP_SPLIT in need:   # the 50-digit seeds scale the root there
        stops.append(_MP_SPLIT)
    ps = [replace(base, g1=g1c * (1.0 + d)) for d in stops]
    roots = _polish(ps, np.array([x * math.sqrt(d / anchor) for d in stops]),
                    1e-12)
    out = {d: (p, x) for d, p, x in zip(stops, ps, roots) if d in need}
    if not deep:
        return out
    with numerics.working():
        # 50-digit parameters; g, g1c, cos theta, ... derived from them follow
        base_dec = replace(base, omega=Decimal(1), delta=Decimal(base.delta),
                           j_hop=Decimal(base.j_hop))
        g1c_dec = critical_coupling_min(base_dec)
        ps = [replace(base_dec, g1=g1c_dec * (1 + Decimal(d))) for d in deep]
        x = numerics.DEC.num(roots[-1])
        roots = _polish(ps, np.array(
            [x * (Decimal(d) / Decimal(_MP_SPLIT)).sqrt() for d in deep]),
            Decimal(10) ** (12 - numerics.MP_DPS))
    out.update(zip(deep, zip(ps, roots)))
    return out


def solve_displacements(params: ModelParams,
                        seed: int = 0) -> MeanFieldSolution:
    """Minimal-energy stationary point of the displaced-spin energy.

    Below the critical coupling the zero displacement is returned with
    label NP, and within 1e-12 above it CriticalPointError is raised. At
    delta >= 1e-2 a damped Newton runs all starts as one batch and
    collects the distinct roots; ties within 1e-10*Delta in energy are
    broken by the canonical site labeling (lexicographically largest
    (A_1, A_2, A_3)). Closer to g1c the root is continued down from the
    multi-start at delta = 1e-2. The seed feeds only the random extra
    starts; the structured seeds are fixed. The solve runs in units of
    omega; energy and residual norm are in the unit of params.
    """
    p = in_omega_units(params)
    g1c = critical_coupling_min(p)
    d = p.g1 / g1c - 1.0
    if p.g1 < g1c:
        x = np.zeros(6)
    elif at_critical_point(d, g1c):
        raise CriticalPointError(
            f"g1={p.g1} is within 1e-12 of the critical coupling")
    elif d >= _ANCHOR:
        x = _multistart(p, seed)
    else:
        x = np.array(continued_roots(p, [d], seed)[d][1], dtype=float)
    w = params.omega
    return MeanFieldSolution(
        x=x, energy=ground_energy_mf(p, x) * w, label=classify_phase(p),
        residual_norm=float(np.max(np.abs(residuals(p, x)))) * w)
