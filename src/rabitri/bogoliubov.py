"""Quadratic photon fluctuations around a mean-field displacement.

Eliminating the rotated spins to second order leaves a bilinear photon
Hamiltonian. It is the second-order expansion of the mean-field energy:
for a shift x = (A_1..A_3, B_1..B_3) of the displacement it reads x^T J x,
with J the real symmetric residual Jacobian of `meanfield`. Diagonalizing
it must preserve the bosonic commutators, so the step runs in Williamson's
real normal form (Am. J. Math. 58, 141 (1936); for multimode Gaussian
states Simon, Mukunda & Dutta, Phys. Rev. A 49, 1567 (1994)): a real
symplectic S, S^T Om S = Om with Om = [[0, 1], [-1, 0]] in 3x3 blocks,
brings J to S^T J S = diag(e, e), e the excitation energies. S is the real
form of Colpa's paraunitary T (Physica A 93, 327 (1978)), and
S^T Om S = Om is T^dag Lam T = Lam, Lam = diag(1, 1, 1, -1, -1, -1).

The route J -> L -> X -> Y: the Cholesky J = L^T L (L real upper); the
Hermitian W = i L Om L^T, whose spectrum is (+-e1, +-e2, +-e3); its
orthonormal eigenvectors u of +e, as the real columns X = [Re u | Im u]
(the vectors of -e are conj(u)); and Y = L^T X. From W u = e u follows
L^-1 u = i Om L^T u / e, so no triangular solve is needed, and
S = sqrt 2 Om [Re Y | -Im Y] diag(e, e)^-1/2. The ground-state variances
of x_n = a_n + a_n^dag and p_n = i (a_n^dag - a_n) are the squared norms
of S's rows n and 3 + n:
var_x_n = sum_k 2 (Y_{3+n,k}^2 + Y_{3+n,3+k}^2) / e_k over the B rows of
Y, var_p_n the same sum over the A rows, and the photon number is
(var_x_n + var_p_n - 2) / 4 + A_n^2 + B_n^2. These sums run over whole
degenerate subspaces, so no observable depends on the basis chosen inside
one, and the step needs no phase convention.

J must be positive definite, which fails at both dynamical instability and
the critical point; the two are told apart by the eigenvalues of i J Om,
which are those of Lam Hd (Hd the doubled bosonic form): real +-e at a
stable expansion point, off the real axis at an unstable one.
Definiteness is tested by a Cholesky of J - tau,
tau = 1e-12 * 10^(16 - digits) * max|J| (float64 counts as 16 digits), so
an exact zero mode cannot pass on rounding noise.

Every step runs at the precision of its input (see `numerics`). The
residuals of a solution are computed when first read, at the precision the
solution was built with: para_residual = max|S^T Om S - Om| and
diag_residual = max|S^T J S - diag(e, e)|, the congruence Colpa proves.
`point_observables` evaluates gaps, photon numbers and quadrature variances
below the critical coupling or at a mean-field root above it, or at a stack
of roots in one pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import CriticalPointError, DomainError, InstabilityError
from .meanfield import residual_jacobian
from .model import ModelParams
from .np_analytics import local_moments

_OMEGA = np.kron([[0, 1], [-1, 0]], np.eye(3, dtype=int))   # Om


@dataclass(frozen=True, eq=False)
class ParaunitarySolution:
    """One normal form, or a stack of them: each field then carries the
    stack's leading axis, and the residuals are the largest over it."""
    s: np.ndarray             # 6x6 real symplectic, the real form of T
    eps: np.ndarray           # 3 excitation energies, ascending
    jac: np.ndarray           # the residual Jacobian J that S diagonalizes
    prec: int = 16            # digits of working precision S was built with

    @cached_property
    def para_residual(self) -> float:
        """max |S^T Om S - Om|, the real form of max |T^dag Lam T - Lam|"""
        s = self.s
        with numerics.working(self.prec):
            return float(np.max(np.abs(numerics._t(s) @ _OMEGA @ s - _OMEGA)))

    @cached_property
    def diag_residual(self) -> float:
        """max |S^T J S - diag(eps, eps)|, Colpa's congruence"""
        s = self.s
        with numerics.working(self.prec):
            rec = numerics._t(s) @ self.jac @ s
            diag = np.arange(6)
            rec[..., diag, diag] -= np.concatenate([self.eps, self.eps], -1)
            return float(np.max(np.abs(rec)))


def build_m_matrix(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The float64 complex presentation M of the bilinear form around the
    scaled displacement x = (a_1..a_3, b_1..b_3), in the ordered basis
    {a1, a2, a3, a1^dag, a2^dag, a3^dag}. No code in the package calls it:
    the Colpa step takes the residual Jacobian J itself
    (`diagonalize_paraunitary`).

    To second order in a shift y = (A, B) of x the energy is y^T J y, which
    is psi^dag M psi for psi = (alpha, alpha^*) = U y, U = [[1, i], [1, -i]]
    in 3x3 blocks, since U^dag U = 2: M = U J U^dag / 4. In the blocks
    J = [[aa, ab], [ba, bb]] the normal block of M is
    (aa + bb + i (ba - ab)) / 4 and, since ba = -ab, the anomalous block is
    the real (aa - bb) / 4."""
    jac = np.asarray(residual_jacobian(params, x), dtype=float)
    aa, ab, ba, bb = jac[:3, :3], jac[:3, 3:], jac[3:, :3], jac[3:, 3:]
    normal = (aa + bb) / 4 + 1j * (ba - ab) / 4
    m = np.empty((6, 6), dtype=complex)
    m[:3, :3], m[3:, 3:] = normal, normal.conj()
    m[:3, 3:] = m[3:, :3] = (aa - bb) / 4
    return m


def diagonalize_paraunitary(jac: np.ndarray) -> ParaunitarySolution:
    """Real symplectic S and positive excitation energies of the 6x6 real
    symmetric form jac, the residual Jacobian J of `meanfield`, by
    Williamson's normal form (see the module docstring); of each form of a
    stack, shape (k, 6, 6), in one pass.

    Raises DomainError for a NaN or infinite entry and for a complex or
    asymmetric form, CriticalPointError when a mode energy collapses to
    zero (the normal form is singular there) and InstabilityError when the
    spectrum of i J Om leaves the real axis (expansion around an unstable
    configuration); for a stack, when any of its forms does.
    """
    jac = np.asarray(jac)
    if jac.shape[-2:] != (6, 6) or jac.ndim not in (2, 3):
        raise DomainError(f"expected a 6x6 matrix, got {jac.shape}")
    mag = np.abs(jac)
    # NaN != NaN; unlike <, == does not raise on a Decimal NaN
    if not np.all((mag == mag) & (mag != np.inf)):
        raise DomainError("quadratic form has a NaN or infinite entry")
    if np.iscomplexobj(jac):
        raise DomainError("the residual Jacobian must be real")
    nb = numerics.of(jac)
    scale = np.max(mag, axis=(-2, -1))
    if np.any(scale == 0):
        raise CriticalPointError("zero quadratic form")
    if np.any(np.max(np.abs(jac - numerics._t(jac)), axis=(-2, -1))
              > nb.num(1e-10) * scale):
        raise DomainError("quadratic form must be symmetric")
    # an exact zero mode could pass the Cholesky of J on rounding noise,
    # with sqrt(eps)-scale energies; J - tau must pass first
    tau = nb.num(1e-12 * 10.0 ** (16 - nb.prec())) * scale
    try:
        nb.cholesky(jac - nb.num(np.eye(6)) * np.expand_dims(tau, (-2, -1)))
        l = nb.cholesky(jac)                # jac = l^T l
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvals(1j * np.asarray(jac, dtype=float) @ _OMEGA)
        if np.any(np.max(np.abs(evals.imag), axis=-1)
                  > 1e-8 * np.asarray(scale, dtype=float)):
            raise InstabilityError(
                "i J Om has complex eigenvalues; the expansion point is "
                "dynamically unstable (wrong phase branch)")
        raise CriticalPointError(
            "quadratic form is not positive definite; a mode energy has "
            "reached zero (critical point)")
    # ascending e1, e2, e3 of W = i L Om L^T, and Y = L^T [Re u | Im u]
    eps, y = numerics.colpa(l)
    if np.any(eps[..., 0] <= tau):
        raise CriticalPointError(f"soft mode energy "
                                 f"{float(np.min(eps[..., 0])):.3e} is "
                                 "numerically zero")
    # S = sqrt 2 Om [Re Y | -Im Y] diag(e, e)^-1/2
    w = nb.sqrt(2 / eps)[..., None, :]
    z = np.concatenate([y[..., :3] * w, -y[..., 3:] * w], axis=-1)
    s = np.concatenate([z[..., 3:, :], -z[..., :3, :]], axis=-2)
    return ParaunitarySolution(s=s, eps=eps, jac=jac, prec=nb.prec())


def point_observables(params: ModelParams, root: np.ndarray | None = None,
                      g1=None) -> dict | list[dict]:
    """Gaps eps1..eps3, per-site photon_n, var_x, var_p and var_x_modes
    (mode k's part of var_x_n at [n, k], modes by ascending eps) as floats.

    Without a root they come from the normal-phase closed forms (mode q
    adds exp(4 lambda_q) / 3 at each site), which raise DomainError at or
    above the critical coupling. With a scaled mean-field root
    (a_1..a_3, b_1..b_3) they are the Bogoliubov observables around it, at
    the precision of params and root (mode k adds S_{n,k}^2 + S_{n,3+k}^2;
    photon_n adds A_n^2 + B_n^2 = (Delta/omega)(a_n^2 + b_n^2)). A stack of
    roots, shape (k, 6), of rings that differ only in g1 (the column g1, see
    `meanfield.residuals`) runs as one stacked Colpa step, one dict per root.

    The modes of a degenerate group, energies within numerics._CLUSTER of
    each other relative to the largest, each get the group's mean part, so
    var_x_modes does not depend on the basis chosen inside the group.
    """
    if root is None:
        modes, *moments = local_moments(params)
        n, vx, vp = (np.full(3, v) for v in moments)
        eps, lam = zip(*sorted((m.epsilon, m.lambda_q) for m in modes))
        vx_modes = np.tile(np.exp(4 * np.array(lam)) / 3, (3, 1))
    else:
        root = np.asarray(root)
        ps = diagonalize_paraunitary(residual_jacobian(params, root, g1))
        eps = ps.eps
        sq = ps.s * ps.s
        var = np.sum(sq, axis=-1)
        vx, vp = var[..., :3], var[..., 3:]
        with np.errstate(over="ignore"):    # refused below as not finite
            n = ((vx + vp - 2) / 4 + params.delta / params.omega
                 * (root[..., :3] ** 2 + root[..., 3:] ** 2))
        vx_modes = sq[..., :3, :3] + sq[..., :3, 3:]
    eps, n, vx, vp = (np.asarray(v, dtype=float).reshape(-1, 3)
                      for v in (eps, n, vx, vp))
    if not np.all(np.isfinite(n)):
        raise DomainError("the photon number overflows float64")
    near = (np.abs(eps[:, :, None] - eps[:, None])
            <= numerics._CLUSTER * eps[:, -1:, None])
    vx_modes = (np.asarray(vx_modes, dtype=float).reshape(-1, 3, 3) @ near
                / np.sum(near, axis=1)[:, None])
    out = [{"eps1": float(e[0]), "eps2": float(e[1]), "eps3": float(e[2]),
            "photon_n": n[i], "var_x": vx[i], "var_p": vp[i],
            "var_x_modes": vx_modes[i]} for i, e in enumerate(eps)]
    return out if np.ndim(root) == 2 else out[0]
