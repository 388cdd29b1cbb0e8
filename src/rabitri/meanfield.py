"""Mean-field displacement equations for the superradiant phases.

Displacing each cavity by alpha_n = A_n + i B_n and projecting the spins
onto the rotated ground state turns the stationarity condition into six
coupled real equations, written in the scaled displacement
(a, b) = (A, B) / sqrt(Delta/omega), where Delta/omega drops out. A root
is one real array x = (a_1..a_3, b_1..b_3), or a stack of shape (k, 6),
everywhere in the package; only the CLI prints (A, B).
Residuals, Jacobian, energy and Newton run at the precision of their
inputs (see `numerics`), the solvers in units of omega.

Gap renormalization per site: Delta_n = Delta sqrt(1 + 16 g1^2 a_n^2),
with the spin rotation fixed by sin(2 gamma_n) = 4 g1 a_n Delta/Delta_n.

Roots: a float64 multi-start damped Newton finds the minimal-energy root
at the one anchor delta = g1/g1c - 1 = 1e-2, near g1c, where the root is
close to the soft mode's pattern times sqrt(delta), canonicalized so the
distinguished site (when the ring order breaks C3) sits at index 0. All
22 starts run as one batch (`_newton`): every iteration makes one stacked
Jacobian and solve, one residual call for the full steps and one for all
backtracking steps of the rows that need them. `continued_roots` seeds
every point, above the anchor and below it, from that root by the
sqrt(delta) law (closer to g1c the Jacobian goes singular) and polishes
them all in one stacked Newton, each row at its own coupling (the column
g1 of `residuals`), then one full Newton step past its stop, so that a
row's last digits depend on its delta alone. Every root returned comes
from it. Points with delta >= 1e-4 run in float64; every deeper point is
seeded from the float64 root at 1e-4 and polished the same way on
50-digit Decimal numbers (g1c and g1 included), because the Cholesky step
of the fluctuations needs min-eig(J) ~ eps1^2 to stay clear of roundoff
(see `numerics`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, getcontext

import numpy as np

from . import numerics
from .errors import ConvergenceError, CriticalPointError, DomainError
from .model import (ModelParams, PhaseLabel, classify_phase,
                    critical_coupling_min, in_omega_units, softest_mode)

_NEWTON_TOL = 1e-10     # multi-start residual tolerance
_MAX_ITER = 200
_STALL = 20             # Newton gives up a row whose max|r| has not halved
                        # over this many iterations
_ANCHOR = 1e-2          # the multi-start runs at this delta
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
    x: np.ndarray       # the scaled root (a_1..a_3, b_1..b_3)
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


def _gaps(nb, a: np.ndarray, g1) -> np.ndarray:
    """Scaled renormalized gaps d_n = Delta_n / Delta at the coupling g1,
    in the precision table nb of a and g1."""
    return nb.sqrt(a * (16 * g1 * g1) * a + 1)


def residuals(params: ModelParams, x: np.ndarray, g1=None) -> np.ndarray:
    """Scaled stationarity residuals (R_1..R_3, S_1..S_3) / sqrt(Delta/omega)
    at the scaled displacement x = (a_1..a_3, b_1..b_3); zero at a
    mean-field root.

    Equal to half the gradient of ground_energy_mf with respect to x, so
    roots are exactly the stationary points. For a stack of displacements,
    shape (k, 6), whose rings differ only in g1, g1 holds the coupling of
    each as a column (default: params.g1).
    """
    w, j, th = params.omega, params.j_hop, params.theta
    g1 = params.g1 if g1 is None else g1
    x = np.asarray(x)
    nb = _table(params, x)
    a, b = x[..., :3], x[..., 3:]
    dn = _gaps(nb, a, g1)
    an, ap = a[..., _NXT], a[..., _PRV]    # a_{n+1}, a_{n-1}
    bn, bp = b[..., _NXT], b[..., _PRV]
    ct, st = nb.cos(th), nb.sin(th)
    r = (a * w - a * (4 * g1 * g1 * w) / dn
         + ((an + ap) * ct + (bn - bp) * st) * j)
    s = b * w + ((bn + bp) * ct + (ap - an) * st) * j
    return np.concatenate([r, s], axis=-1)


def residual_jacobian(params: ModelParams, x: np.ndarray,
                      g1=None) -> np.ndarray:
    """Analytic 6x6 Jacobian of `residuals` in the (a, b) ordering, equal to
    that of the unscaled residuals in (A, B); one per displacement of a
    stack, each at its own coupling in the column g1 (see `residuals`)."""
    w, j, th = params.omega, params.j_hop, params.theta
    g1 = params.g1 if g1 is None else g1
    x = np.asarray(x)
    nb = _table(params, x)
    a = x[..., :3]
    dn = _gaps(nb, a, g1)
    hop = nb.num(_HOP) * (j * nb.cos(th))
    twist = nb.num(_TWIST) * (j * nb.sin(th))
    # d(a_n/d_n)/da_n = 1/d_n^3; a d_n^3 that overflows float64 (from
    # g1 ~ 1e51) gives the curvature's limit 0
    with np.errstate(over="ignore"):
        curv = 4 * g1 * g1 * w / dn ** 3
    jac = np.zeros(a.shape[:-1] + (6, 6), dtype=nb.rdtype)
    jac[..., :3, :3] = jac[..., 3:, 3:] = hop
    jac[..., :3, 3:], jac[..., 3:, :3] = twist, -twist
    jac[..., _DIAG, _DIAG] += w - curv
    jac[..., _DIAG + 3, _DIAG + 3] += w
    return jac


def ground_energy_mf(params: ModelParams,
                     x: np.ndarray) -> float | np.ndarray:
    """Mean-field energy over Delta/omega at the scaled displacement
    x = (a_1..a_3, b_1..b_3), or an array of them for a stack of
    displacements, shape (k, 6).

    omega*sum|alpha|^2 + hopping bilinear - sum Delta_n/2. The hopping sum
    is real: each bond contributes 2*Re[e^{i theta} alpha_{n+1}^* alpha_n].
    """
    w, j, th = params.omega, params.j_hop, params.theta
    x = np.asarray(x)
    nb = _table(params, x)
    a, b = x[..., :3], x[..., 3:]
    dn = _gaps(nb, a, params.g1)
    an, bn = a[..., _NXT], b[..., _NXT]
    ct, st = nb.cos(th), nb.sin(th)
    hop = 2 * j * np.sum((a * an + b * bn) * ct + (a * bn - an * b) * st,
                         axis=-1)
    e = w * np.sum(a * a + b * b, axis=-1) + hop - np.sum(dn, axis=-1) * w / 2
    return float(e) if np.ndim(e) == 0 else e


def fsp_closed_form(params: ModelParams) -> np.ndarray:
    """Uniform real scaled displacement x = (a, a, a, 0, 0, 0) of the
    ferromagnetic phase, positive branch: a = sqrt(16 g1^4 omega^2/w^2 - 1)
    / (4 g1) at w = omega + 2J cos(theta), a radicand within 1e-12 below 0
    read as 0."""
    w = params.omega + 2.0 * params.j_hop * math.cos(params.theta)
    rad = (16.0 * params.g1 ** 4 / (w / params.omega) ** 2 - 1.0
           if w > 0.0 else math.nan)
    if not rad >= -1e-12:
        raise DomainError(f"no uniform root: omega + 2J cos(theta) must be "
                          f"positive and g1={params.g1} above its threshold")
    return np.repeat([math.sqrt(max(rad, 0.0)) / (4.0 * params.g1), 0.0], 3)


def _solve_rows(nb, a: np.ndarray, b: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Solutions of the systems a[i] x = b[i], and whether each a[i] is
    regular: nonsingular in float64, positive definite at 50 digits, where
    nb.solve is a Cholesky solve. One refused a[i] makes the stacked solve
    raise for all, so then each system is solved alone and a refused one
    leaves a zero row, a Newton step that lowers no residual."""
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


def _newton(params: ModelParams, x0: np.ndarray, tol: float, g1=None
            ) -> np.ndarray | None | list[np.ndarray | None]:
    """Newton with backtracking on the residual vector, at the precision of
    params and x0, in units of omega.

    x0 is one start, shape (6,), or a stack of starts, shape (k, 6), that
    run together: each row stops on its own and follows the iterates it
    would follow alone. Rows of rings that differ only in g1 take their
    couplings as the column g1, shape (k, 1) (see `residuals`). A row stops
      - converged, at max|r| <= tol max(1, max|x|): above the rounding
        of the residual, about u max|x| for a large root;
      - given up, when neither its full step nor any of the halvings
        2^-1 .. 2^-29 lowers max|r|, as for the zero step of a refused
        system (`_solve_rows`);
      - stalled, when max|r| has not halved over the last _STALL
        iterations (a stall at a non-root minimum of max|r|; the give-up
        rule of MINPACK's hybrj, Moré, Garbow & Hillstrom, ANL-80-74);
      - at the cap of _MAX_ITER iterations.
    Returns the root reached, or None where a row ends above its stop; for a
    stack, a list with one entry per row.
    """
    nb = numerics.of(params.omega, x0)
    x = np.array(x0, dtype=nb.rdtype, ndmin=2)
    g1 = params.g1 if g1 is None else g1
    shared = np.ndim(g1) == 0           # one coupling, or a column of them
    r = residuals(params, x, g1)
    rn = np.max(np.abs(r), axis=-1)     # max|r| of each row, kept with r
    live = np.ones(len(x), dtype=bool)   # neither converged nor given up
    past = []                            # max|r| of each row, per iteration
    for it in range(_MAX_ITER):
        live &= ~(rn <= tol * np.maximum(np.abs(x).max(axis=-1), 1))
        if it >= _STALL:
            live &= rn <= past[it - _STALL] / 2
        past.append(rn.copy())
        if not live.any():
            break
        rows = np.flatnonzero(live)
        step = _solve_rows(nb, residual_jacobian(
            params, x[rows], g1 if shared else g1[rows]), -r[rows])[0]
        # backtracking on the residual norm: the full step, then for the
        # rows it does not improve the halvings 2^-1 .. 2^-29 all at once,
        # of which each row takes the first that lowers max|r|
        xt = x[rows] + step
        rt = residuals(params, xt, g1 if shared else g1[rows])
        rnt = np.max(np.abs(rt), axis=-1)
        ok = rnt < rn[rows]
        back = np.flatnonzero(~ok)
        if len(back):
            xh = x[rows[back], None] + nb.num(_HALVINGS) * step[back, None]
            rh = residuals(params, xh,
                           g1 if shared else g1[rows[back], None])
            rnh = np.max(np.abs(rh), axis=-1)
            lower = rnh < rn[rows[back], None]
            first = range(len(back)), np.argmax(lower, axis=1)
            xt[back], rt[back], rnt[back] = xh[first], rh[first], rnh[first]
            ok[back] = lower.any(axis=1)
        good = rows[ok]
        x[good], r[good], rn[good] = xt[ok], rt[ok], rnt[ok]
        live[rows[~ok]] = False
    ok = rn <= tol * np.maximum(np.abs(x).max(axis=-1), 1)
    out = [xi if ci else None for xi, ci in zip(x, ok)]
    return out if np.ndim(x0) == 2 else out[0]


def _seed_list(params: ModelParams, seed: int = 0) -> list[np.ndarray]:
    """The multi-start's starts above g1c: the soft mode's pattern
    +-cos(q n) at its single-mode amplitude, the root a pitchfork at g1c
    bifurcates into (uniform at q = 0, staggered at q = +-2pi/3), then 20
    random ones in the box |x_i| <= 2 g1. Not the origin, which is
    stationary but never the minimum above g1c."""
    g1c, q = softest_mode(params)
    # 16 g1^4 / omega_eff^2 = (g1/g1c)^4 at the soft momentum
    r = params.g1 / g1c
    amp = math.sqrt(r * r * r * r - 1.0) / (4.0 * params.g1)
    seeds = [np.concatenate([s * amp * np.cos(q * np.arange(3)), np.zeros(3)])
             for s in (1.0, -1.0)]
    box = 2.0 * params.g1
    rng = np.random.default_rng(seed)
    return seeds + list(rng.uniform(-box, box, (20, 6)))


def at_critical_point(delta: float, g1c: float) -> bool:
    """Whether g1 = g1c (1 + delta) lies within 1e-12 of g1c, where the
    soft mode makes the fluctuations singular."""
    return abs(delta) * g1c <= 1e-12


def _multistart(params: ModelParams, seed: int) -> np.ndarray:
    """Minimal-energy scaled root (a_1..a_3, b_1..b_3) by multi-start damped
    Newton in float64 from the starts of `_seed_list`, canonically labeled
    (see `solve_displacements`); `continued_roots` runs it at its anchor
    alone. Raises DomainError for a negative seed."""
    if seed < 0:
        raise DomainError("seed must be >= 0")
    xs = np.array([x for x in _newton(params, np.array(
        _seed_list(params, seed)), _NEWTON_TOL) if x is not None])
    if not len(xs):
        raise ConvergenceError(f"no mean-field root converged at "
                               f"g1={params.g1}, theta={params.theta}")
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
    tied = roots[order][e - e[0] <= 1e-10]
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
    g1 = np.array([[p.g1] for p in ps])
    xs = _newton(ps[0], x0, tol, g1)
    ok = np.array([x is not None for x in xs])
    if ok.all():
        x = np.array(xs)
        step, ok = _solve_rows(numerics.of(x),
                               residual_jacobian(ps[0], x, g1),
                               -residuals(ps[0], x, g1))
    if not ok.all():
        raise ConvergenceError("continuation lost the root at "
                               f"g1={float(ps[np.argmin(ok)].g1)}")
    return x + step


def continued_roots(base: ModelParams, deltas: list[float], seed: int = 0
                    ) -> dict[float, tuple[ModelParams, np.ndarray]]:
    """(params, scaled root) at each reduced coupling delta = g1/g1c - 1 > 0,
    by continuation from the multi-start root x at the anchor
    delta = _ANCHOR = 1e-2, found with the given seed, whichever deltas are
    asked for. The params are in units of omega (`in_omega_units`).

    Every delta >= 1e-4, above the anchor and below it, and 1e-4 itself
    when a delta lies below, is seeded by the sqrt(delta) law,
    x sqrt(delta / 1e-2), and all of them are polished together in float64
    (`_polish`). Every delta below is seeded the same way from the root at
    1e-4 and polished together at 50 digits; their params and roots are
    50-digit Decimal numbers, to be used inside `numerics.working()`. Each
    row follows the iterates it would follow alone, so a root does not
    depend on which other deltas were asked for.

    Raises DomainError where 16 g1^4 overflows float64 at the largest
    delta, whose residuals would overflow with it."""
    base = in_omega_units(base)
    need = sorted({float(d) for d in deltas}, reverse=True)
    deep = [d for d in need if d < _MP_SPLIT]
    g1c = critical_coupling_min(base)
    top = g1c * (1.0 + need[0])
    if not math.isfinite(16.0 * top * top * top * top):
        raise DomainError(f"16 g1^4 overflows float64 at g1={top}")
    x = _multistart(replace(base, g1=g1c * (1.0 + _ANCHOR)), seed)
    stops = [d for d in need if d > _MP_SPLIT]
    if deep or _MP_SPLIT in need:   # the 50-digit seeds scale the root there
        stops.append(_MP_SPLIT)
    ps = [replace(base, g1=g1c * (1.0 + d)) for d in stops]
    roots = _polish(ps, np.array([x * math.sqrt(d / _ANCHOR) for d in stops]),
                    1e-12)
    out = {d: (p, x) for d, p, x in zip(stops, ps, roots) if d in need}
    if not deep:
        return out
    with numerics.working():
        # 50-digit parameters; g1c, cos theta, ... derived from them follow
        base_dec = replace(base, omega=Decimal(1), delta=Decimal(base.delta),
                           j_hop=Decimal(base.j_hop))
        g1c_dec = critical_coupling_min(base_dec)
        ps = [replace(base_dec, g1=g1c_dec * (1 + Decimal(d))) for d in deep]
        x = numerics.DEC.num(roots[-1])
        # the stop lies 12 digits above the working epsilon
        roots = _polish(ps, np.array(
            [x * (Decimal(d) / Decimal(_MP_SPLIT)).sqrt() for d in deep]),
            Decimal(10) ** (12 - getcontext().prec))
    out.update(zip(deep, zip(ps, roots)))
    return out


def solve_displacements(params: ModelParams,
                        seed: int = 0) -> MeanFieldSolution:
    """Minimal-energy stationary point of the displaced-spin energy.

    Below the critical coupling the zero displacement is returned with
    label NP, and within 1e-12 above it CriticalPointError is raised.
    Above it the root is `continued_roots`' at delta = g1/g1c - 1, the
    same as in any call that asks for this delta: its multi-start runs all
    starts as one batch at delta = 1e-2 and collects the distinct roots;
    ties within 1e-10 in the energy over Delta/omega are broken by the
    canonical site labeling (lexicographically largest (a_1, a_2, a_3)).
    The seed feeds only the random extra starts; the two soft-mode starts
    are fixed. The solve runs in units of omega. x is
    the scaled root (a, b), which `residuals` and `ground_energy_mf` take;
    energy and residual norm are those of (A, B) = sqrt(Delta/omega) (a, b)
    in the unit of params.
    """
    p = in_omega_units(params)
    g1c = critical_coupling_min(p)
    d = p.g1 / g1c - 1.0
    if p.g1 < g1c:
        x = np.zeros(6)
    elif at_critical_point(d, g1c):
        raise CriticalPointError(
            f"g1={p.g1} is within 1e-12 of the critical coupling")
    else:
        x = np.array(continued_roots(p, [d], seed)[d][1], dtype=float)
    scale, w = math.sqrt(p.delta), params.omega
    energy = ground_energy_mf(p, x) * p.delta
    if not math.isfinite(energy):
        raise DomainError(f"the energy overflows at delta/omega={p.delta!r}")
    return MeanFieldSolution(
        x=x, energy=energy * w, label=classify_phase(p),
        residual_norm=float(np.max(np.abs(residuals(p, x)))) * scale * w)
