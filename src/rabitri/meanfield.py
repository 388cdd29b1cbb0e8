"""Mean-field displacement equations for the superradiant phases.

Displacing each cavity by alpha_n = A_n + i B_n and projecting the spins
onto the rotated ground state turns the stationarity condition into six
coupled real equations. The solver runs a multi-start damped Newton on
those residuals and returns the minimal-energy root, canonicalized so the
distinguished site (when the ring order breaks C3) sits at index 0.

Gap renormalization per site: Delta_n = sqrt(Delta^2 + 16 g^2 A_n^2) with
the spin rotation fixed by sin(2 gamma_n) = 4 g A_n / Delta_n.

Residuals, Jacobian, energy and Newton run at the precision of their inputs
(see `numerics`); `refine_root` and `mean_field_at` follow one root along a
continuation at any precision. The multi-start solver works in float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConvergenceError, DomainError
from .model import (ModelParams, PhaseLabel, bare_coupling, classify_phase,
                    critical_coupling_min)

_NEWTON_TOL = 1e-10
# near the critical coupling the Jacobian goes singular; accept a gradient
# criterion instead (gradient = 2*residuals, so 5e-11 in residual units
# would be 1e-10 on the gradient; we allow 5e-10 <-> gradient 1e-9)
_NEAR_CRITICAL_TOL = 5e-10
_MAX_ITER = 200
# ring neighbours: x[_NXT][n] = x_{n+1}, x[_PRV][n] = x_{n-1}
_NXT, _PRV = np.array([1, 2, 0]), np.array([2, 0, 1])


@dataclass(frozen=True, eq=False)
class Displacement:
    a: np.ndarray   # real parts A_n, shape (3,)
    b: np.ndarray   # imaginary parts B_n, shape (3,)

    @property
    def alpha(self) -> np.ndarray:
        return self.a + 1j * self.b

    @staticmethod
    def zero() -> "Displacement":
        return Displacement(a=np.zeros(3), b=np.zeros(3))


@dataclass(frozen=True, eq=False)
class MeanFieldSolution:
    disp: Displacement
    delta_n: np.ndarray       # renormalized gaps, shape (3,)
    lambda_n: np.ndarray      # effective couplings g*Delta/Delta_n
    energy: float
    label: PhaseLabel
    residual_norm: float


def _gaps(params: ModelParams, a: np.ndarray) -> np.ndarray:
    g = bare_coupling(params)
    nb = numerics.of(params, a)
    return nb.sqrt(a * (16.0 * g * g) * a + params.delta ** 2)


def residuals(params: ModelParams, disp: Displacement) -> np.ndarray:
    """Stationarity residuals (R_1..R_3, S_1..S_3); zero at a mean-field root.

    Equal to half the gradient of ground_energy_mf with respect to
    (A_1..A_3, B_1..B_3), so roots are exactly the stationary points.
    """
    w, j, th = params.omega, params.j_hop, params.theta
    g = bare_coupling(params)
    nb = numerics.of(params, disp.a, disp.b)
    a, b = np.asarray(disp.a), np.asarray(disp.b)
    dn = _gaps(params, a)
    an, ap = a[_NXT], a[_PRV]    # A_{n+1}, A_{n-1}
    bn, bp = b[_NXT], b[_PRV]
    ct, st = nb.cos(th), nb.sin(th)
    r = a * w - a * (4.0 * g * g) / dn + ((an + ap) * ct + (bn - bp) * st) * j
    s = b * w + ((bn + bp) * ct + (ap - an) * st) * j
    return np.concatenate([r, s])


def residual_jacobian(params: ModelParams, disp: Displacement) -> np.ndarray:
    """Analytic 6x6 Jacobian of `residuals` in the (A, B) ordering."""
    w, j, th = params.omega, params.j_hop, params.theta
    g = bare_coupling(params)
    nb = numerics.of(params, disp.a)
    a = np.asarray(disp.a)
    dn = _gaps(params, a)
    ct, st = nb.cos(th), nb.sin(th)
    nxt, prv = np.eye(3)[_NXT], np.eye(3)[_PRV]
    jac = np.zeros((6, 6), dtype=nb.rdtype)
    # d(A_n/Delta_n)/dA_n = Delta^2/Delta_n^3
    curv = np.divide(4.0 * g * g * params.delta ** 2, dn ** 3)
    jac[:3, :3] = np.diag(-curv + w) + (nxt + prv) * (j * ct)
    jac[:3, 3:] = (nxt - prv) * (j * st)
    jac[3:, :3] = (prv - nxt) * (j * st)
    jac[3:, 3:] = np.eye(3) * w + (nxt + prv) * (j * ct)
    return jac


def ground_energy_mf(params: ModelParams, disp: Displacement) -> float:
    """Mean-field energy of a displacement configuration.

    omega*sum|alpha|^2 + hopping bilinear - sum Delta_n/2. The hopping sum
    is real: each bond contributes 2*Re[e^{i theta} alpha_{n+1}^* alpha_n].
    """
    w, j, th = params.omega, params.j_hop, params.theta
    nb = numerics.of(params, disp.a, disp.b)
    a, b = np.asarray(disp.a), np.asarray(disp.b)
    dn = _gaps(params, a)
    an, bn = a[_NXT], b[_NXT]
    ct, st = nb.cos(th), nb.sin(th)
    hop = 2.0 * j * np.sum((a * an + b * bn) * ct + (a * bn - an * b) * st)
    return float(w * np.sum(a * a + b * b) + hop - 0.5 * np.sum(dn))


def fsp_closed_form(params: ModelParams) -> Displacement:
    """Uniform real displacement of the ferromagnetic phase, positive branch.

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
    amp = math.sqrt(rad) / (4.0 * g)
    return Displacement(a=np.full(3, amp), b=np.zeros(3))


def _newton(params: ModelParams, x0: np.ndarray, tol: float) -> np.ndarray | None:
    """Damped (Levenberg-regularized) Newton on the residual vector, at the
    precision of params and x0."""
    nb = numerics.of(params, x0)
    x = np.array(x0)
    r = residuals(params, Displacement(a=x[:3], b=x[3:]))
    mu = 0.0
    for _ in range(_MAX_ITER):
        rn = np.max(np.abs(r))
        if rn <= tol:
            return x
        jac = residual_jacobian(params, Displacement(a=x[:3], b=x[3:]))
        try:
            step = nb.solve(jac + np.eye(6) * mu if mu else jac, -r)
        except np.linalg.LinAlgError:
            mu = max(10.0 * mu, 1e-12 * params.omega)
            continue
        # backtracking on the residual norm
        t = 1.0
        ok = False
        for _ in range(30):
            xt = x + t * step
            rt = residuals(params, Displacement(a=xt[:3], b=xt[3:]))
            if np.max(np.abs(rt)) < rn:
                x, r = xt, rt
                ok = True
                break
            t *= 0.5
        if ok:
            mu *= 0.25
        else:
            if mu == 0.0:
                mu = 1e-10 * params.omega
            else:
                mu *= 100.0
            if mu > 1e6 * params.omega:
                return None
    return x if np.max(np.abs(r)) <= tol else None


def refine_root(params: ModelParams, x0: np.ndarray, tol: float) -> np.ndarray:
    """Mean-field root (A_1..A_3, B_1..B_3) reached by damped Newton from
    x0, a root at a nearby coupling; raises ConvergenceError if lost."""
    x = _newton(params, x0, tol)
    if x is None:
        raise ConvergenceError(
            f"continuation lost the root at g1={float(params.g1)}")
    return x


def mean_field_at(params: ModelParams, x: np.ndarray) -> MeanFieldSolution:
    """The MeanFieldSolution of a root x = (A_1..A_3, B_1..B_3), as given
    (no canonical relabeling), at the precision of params and x."""
    disp = Displacement(a=x[:3], b=x[3:])
    dn = _gaps(params, disp.a)
    g = bare_coupling(params)
    lam = np.divide(g * params.delta, dn) if g > 0 else np.zeros(3)
    return MeanFieldSolution(
        disp=disp, delta_n=dn, lambda_n=lam,
        energy=ground_energy_mf(params, disp), label=classify_phase(params),
        residual_norm=float(np.max(np.abs(residuals(params, disp)))))


def _seed_list(params: ModelParams, seed: int = 0) -> list[np.ndarray]:
    g = bare_coupling(params)
    seeds = [np.zeros(6)]
    try:
        fsp = fsp_closed_form(params)
        amp = float(fsp.a[0])
        seeds.append(np.concatenate([fsp.a, fsp.b]))
        seeds.append(np.concatenate([-fsp.a, fsp.b]))
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
    return seeds


def _orbit(x: np.ndarray) -> list[np.ndarray]:
    """The symmetry orbit of a root under cyclic relabeling and the global
    sign flip (A, B) -> (-A, -B): up to six exact roots of equal energy."""
    a, b = x[:3], x[3:]
    return [sgn * np.concatenate([np.roll(a, shift), np.roll(b, shift)])
            for shift in range(3) for sgn in (1.0, -1.0)]


def solve_displacements(params: ModelParams,
                        seed: int = 0) -> MeanFieldSolution:
    """Minimal-energy stationary point of the displaced-spin energy.

    Below the critical coupling the zero displacement is returned with
    label NP. Above it, a multi-start damped Newton collects distinct
    roots; ties within 1e-10*Delta in energy are broken by the canonical
    site labeling (lexicographically largest (A_1, A_2, A_3)). The seed
    feeds only the random extra starts; the structured seeds are fixed.
    """
    g1c = critical_coupling_min(params)
    if params.g1 < g1c:
        return mean_field_at(params, np.zeros(6))

    near_critical = g1c > 0 and abs(params.g1 / g1c - 1.0) < 1e-6
    tol = _NEAR_CRITICAL_TOL if near_critical else _NEWTON_TOL

    roots: list[np.ndarray] = []
    for x0 in _seed_list(params, seed):
        x = _newton(params, x0, tol)
        if x is None:
            continue
        if not any(np.allclose(x, rx, atol=1e-8) for rx in roots):
            roots.append(x)
    if not roots:
        raise ConvergenceError(
            f"no mean-field root converged to {tol} at g1={params.g1}, "
            f"theta={params.theta}")

    scored = []
    for x in roots:
        e = ground_energy_mf(params, Displacement(a=x[:3], b=x[3:]))
        scored.append((e, x))
    scored.sort(key=lambda t: t[0])
    e_min = scored[0][0]
    tied = [x for e, x in scored if e - e_min <= 1e-10 * params.delta]
    # canonical labeling: the lexicographically largest orbit member of any
    # tied root, keyed at the root-identity scale (1e-8, the dedup
    # tolerance) so Newton noise cannot decide a tie
    best = max((c for x in tied for c in _orbit(x)),
               key=lambda c: tuple(np.round(c, 8)))
    return mean_field_at(params, best)
