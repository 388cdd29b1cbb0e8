"""Quadratic photon fluctuations around a mean-field displacement.

Eliminating the rotated spins to second order leaves a bilinear photon
Hamiltonian, encoded as a 6x6 Hermitian matrix M in the ordered basis
{a1, a2, a3, a1^dag, a2^dag, a3^dag}. It is the second-order expansion of
the mean-field energy, so `build_m_matrix` reads it off the residual
Jacobian of `meanfield` by a change of basis. Diagonalization must
preserve the bosonic commutators, i.e. the transformation T is
paraunitary: T^dag Lam T = Lam with Lam = diag(1, 1, 1, -1, -1, -1).

The solver follows Colpa's recipe on the doubled matrix Hd = 2M:
Cholesky Hd = C^dag C, then the Hermitian W = C Lam C^dag is diagonalized
by a unitary U; its spectrum is (-e3, -e2, -e1, e1, e2, e3). The columns of
T belonging to e = (e1, e2, e3) are C^-1 U+ sqrt(e), U+ the eigenvectors of
the positive half. Since W U+ = U+ e, C^-1 U+ = Lam C^dag U+ e^-1, so they
are Lam C^dag U+ / sqrt(e): one product and a sign per row, with no
triangular solve. Hd must be positive definite, which fails at both dynamical
instability and the critical point; the two are told apart by the
eigenvalues of Lam*Hd. Definiteness is tested by a Cholesky of Hd - tau,
tau = 1e-12 * 10^(16 - digits) * max|M| (float64 counts as 16 digits), so
an exact zero mode cannot pass on rounding noise.

Every step runs at the precision of its input (see `numerics`). The
residuals of a solution are computed when first read, at the precision the
solution was built with: para_residual = max|T^dag Lam T - Lam| and
diag_residual = max|T^dag Hd T - diag(e, e)|, the congruence Colpa proves.
`point_observables` evaluates gaps, photon numbers and quadrature variances
below the critical coupling or at a mean-field root above it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import (CriticalPointError, DegeneracyWarning, DomainError,
                     InstabilityError)
from .meanfield import Displacement, residual_jacobian
from .model import ModelParams
from .np_analytics import (excitation_energies, local_photon_np,
                           variance_p_np, variance_x_np)

_SIGN = np.array([1, 1, 1, -1, -1, -1])
_LAMBDA = np.diag(_SIGN)


@dataclass(frozen=True, eq=False)
class ParaunitarySolution:
    t: np.ndarray             # 6x6 complex paraunitary
    eps: np.ndarray           # 3 excitation energies, ascending
    hd: np.ndarray            # the doubled form 2M that T diagonalizes
    prec: int = 16            # digits of working precision T was built with

    @cached_property
    def para_residual(self) -> float:
        """max |T^dag Lam T - Lam|"""
        t = self.t
        with numerics.working(self.prec):
            return float(np.max(np.abs(t.conj().T @ _LAMBDA @ t - _LAMBDA)))

    @cached_property
    def diag_residual(self) -> float:
        """max |T^dag Hd T - diag(eps, eps)|, Colpa's congruence; for a
        paraunitary T it equals Lam T^-1 (Lam Hd) T up to para_residual."""
        t = self.t
        with numerics.working(self.prec):
            rec = t.conj().T @ self.hd @ t
            rec -= np.diag(np.concatenate([self.eps, self.eps]))
            return float(np.max(np.abs(rec)))


def build_m_matrix(params: ModelParams, disp: Displacement) -> np.ndarray:
    """Bilinear form M around the displacement disp, derived from the
    residual Jacobian J there (half the Hessian of `ground_energy_mf`).

    To second order in the shift x = (A, B) the energy is x^T J x, which
    is psi^dag M psi for psi = (alpha, alpha^*) = U x, U = [[1, i], [1, -i]]
    in 3x3 blocks, since U^dag U = 2: M = U J U^dag / 4. In the blocks
    J = [[aa, ab], [ba, bb]] the normal block of M is
    (aa + bb + i (ba - ab)) / 4 and, since ba = -ab, the anomalous block is
    the real (aa - bb) / 4."""
    jac = residual_jacobian(params, disp)
    aa, ab, ba, bb = jac[:3, :3], jac[:3, 3:], jac[3:, :3], jac[3:, 3:]
    normal = numerics.of(jac).complex((aa + bb) / 4, (ba - ab) / 4)
    m = np.empty((6, 6), dtype=normal.dtype)
    m[:3, :3], m[3:, 3:] = normal, normal.conj()
    m[:3, 3:] = m[3:, :3] = (aa - bb) / 4
    return m


def diagonalize_paraunitary(m: np.ndarray) -> ParaunitarySolution:
    """Paraunitary T and positive excitation energies of the 6x6 Hermitian
    form m.

    Raises CriticalPointError when a mode energy collapses to zero (the
    Bogoliubov normalization is singular there) and InstabilityError when
    the spectrum of Lam*Hd leaves the real axis (expansion around an
    unstable configuration).
    """
    nb = numerics.of(m)
    m = np.asarray(m, dtype=nb.cdtype)
    if m.shape != (6, 6):
        raise DomainError(f"expected a 6x6 matrix, got {m.shape}")
    scale = np.max(np.abs(m))
    if scale == 0.0:
        raise CriticalPointError("zero quadratic form")
    tol = nb.num(1e-10) * scale
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise DomainError("quadratic form must be Hermitian")
    hd = 2 * m
    # an exact zero mode could pass the Cholesky of Hd on rounding noise,
    # with sqrt(eps)-scale energies; Hd - tau must pass first
    tau = nb.num(1e-12 * 10.0 ** (16 - nb.prec())) * scale
    try:
        nb.cholesky(hd - nb.num(np.eye(6)) * tau)
        c = nb.cholesky(hd)                 # hd = c^dag c
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvals(_LAMBDA @ np.asarray(hd, dtype=complex))
        if float(np.max(np.abs(evals.imag))) > 1e-8 * float(scale):
            raise InstabilityError(
                "Lam*Hd has complex eigenvalues; the expansion point is "
                "dynamically unstable (wrong phase branch)")
        raise CriticalPointError(
            "quadratic form is not positive definite; a mode energy has "
            "reached zero (critical point)")
    # ascending -e3, -e2, -e1, e1, e2, e3 of W = C Lam C^dag, and C^dag U+
    evals, cu = nb.colpa(c, _SIGN)
    eps = evals[3:].copy()
    if eps[0] <= tau:
        raise CriticalPointError(
            f"soft mode energy {float(eps[0]):.3e} is numerically zero")
    gaps = [abs(eps[0] - eps[1]), abs(eps[1] - eps[2]), abs(eps[0] - eps[2])]
    if min(gaps) < tol:
        warnings.warn("near-degenerate excitation energies; T columns are "
                      "basis-dependent within the degenerate subspace",
                      DegeneracyWarning, stacklevel=2)
    v = cu / nb.sqrt(eps) * _SIGN[:, None]
    # deterministic phase: each column's largest-modulus entry real positive
    top = v[np.argmax(np.abs(v), axis=0), range(3)]
    v = v / (top / np.abs(top))
    t = np.block([[v[:3], v[3:].conj()], [v[3:], v[:3].conj()]])
    return ParaunitarySolution(t=t, eps=eps, hd=hd, prec=nb.prec())


def local_photon_sr(ps: ParaunitarySolution, disp: Displacement) -> np.ndarray:
    """Per-site photon number: fluctuation part plus |alpha_n|^2."""
    fluct = np.sum(np.abs(ps.t[:3, 3:]) ** 2, axis=1)
    return fluct + disp.a ** 2 + disp.b ** 2


def variance_x_sr(ps: ParaunitarySolution) -> np.ndarray:
    """(Delta x_n)^2 for x = a + a^dag; displacement-independent."""
    return np.sum(np.abs(ps.t[:3, :3] + ps.t[:3, 3:].conj()) ** 2, axis=1)


def variance_p_sr(ps: ParaunitarySolution) -> np.ndarray:
    """(Delta p_n)^2 for p = i(a^dag - a); displacement-independent."""
    return np.sum(np.abs(ps.t[:3, 3:].conj() - ps.t[:3, :3]) ** 2, axis=1)


def point_observables(params: ModelParams,
                      root: np.ndarray | None = None) -> dict:
    """Gaps eps1..eps3 and per-site photon_n, var_x, var_p as floats.

    Without a root they come from the normal-phase closed forms, which
    raise DomainError at or above the critical coupling. With a mean-field
    root (A_1..A_3, B_1..B_3) they are the Bogoliubov observables around
    it, computed at the precision of params and root.
    """
    if root is None:
        eps = excitation_energies(params)
        n, vx, vp = (np.full(3, f(params)) for f in
                     (local_photon_np, variance_x_np, variance_p_np))
    else:
        disp = Displacement(a=root[:3], b=root[3:])
        ps = diagonalize_paraunitary(build_m_matrix(params, disp))
        eps = ps.eps
        n, vx, vp = (np.asarray(v, dtype=float) for v in
                     (local_photon_sr(ps, disp), variance_x_sr(ps),
                      variance_p_sr(ps)))
    return {"eps1": float(eps[0]), "eps2": float(eps[1]),
            "eps3": float(eps[2]), "photon_n": n, "var_x": vx, "var_p": vp}
