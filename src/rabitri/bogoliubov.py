"""Quadratic photon fluctuations around a mean-field displacement.

Eliminating the rotated spins to second order leaves a bilinear photon
Hamiltonian, encoded as a 6x6 Hermitian matrix M in the ordered basis
{a1, a2, a3, a1^dag, a2^dag, a3^dag}. Diagonalization must preserve the
bosonic commutators, i.e. the transformation T is paraunitary:
T^dag Lam T = Lam with Lam = diag(1, 1, 1, -1, -1, -1).

The solver follows Colpa's recipe on the doubled matrix Hd = 2M:
Cholesky Hd = C^dag C, then the Hermitian C Lam C^dag is diagonalized by a
unitary; its spectrum is (-e3, -e2, -e1, e1, e2, e3) and back-substitution
yields T. Hd must be positive definite, which fails at both dynamical
instability and the critical point; the two are told apart by the
eigenvalues of Lam*Hd. Definiteness is tested by a Cholesky of Hd - tau,
with tau = 1e-12 * max|M| in float64 and rescaled to the working epsilon at
higher precision, so an exact zero mode cannot pass on rounding noise.

Every step runs at the precision of its input (see `numerics`). The
residuals of a solution are computed when first read, at the precision the
solution was built with. `point_observables` evaluates gaps, photon numbers
and quadrature variances below the critical coupling or at a mean-field root
above it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from mpmath import mp

from . import numerics
from .errors import (CriticalPointError, DegeneracyWarning, DomainError,
                     InstabilityError)
from .meanfield import Displacement, _gaps, ground_energy_mf
from .model import ModelParams, bare_coupling
from .np_analytics import (excitation_energies, local_photon_np,
                           variance_p_np, variance_x_np)

_LAMBDA = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    m: np.ndarray   # 6x6 complex Hermitian


@dataclass(frozen=True, eq=False)
class ParaunitarySolution:
    t: np.ndarray             # 6x6 complex paraunitary
    eps: np.ndarray           # 3 excitation energies, ascending
    hd: np.ndarray            # the doubled form 2M that T diagonalizes
    prec: int = 53            # bits of working precision T was built with

    @cached_property
    def para_residual(self) -> float:
        """max |T^dag Lam T - Lam|"""
        t = self.t
        with mp.workprec(self.prec):
            return float(np.max(np.abs(t.conj().T @ _LAMBDA @ t - _LAMBDA)))

    @cached_property
    def diag_residual(self) -> float:
        """max |T^-1 (Lam Hd) T - diag(eps, -eps)|"""
        t = self.t
        with mp.workprec(self.prec):
            rec = numerics.of(t).solve(t, _LAMBDA @ self.hd @ t)
            rec -= np.diag(np.concatenate([self.eps, -self.eps]))
            return float(np.max(np.abs(rec)))


def build_m_matrix(params: ModelParams, disp: Displacement) -> QuadraticForm:
    """Bilinear form M around the displacement disp: diagonal
    omega/2 - lambda_n^2/Delta_n, hopping J e^{-i theta}/2 along the ring,
    anomalous -lambda_n^2/Delta_n, with the renormalized gaps Delta_n of
    disp and the effective couplings lambda_n = g Delta/Delta_n."""
    w, j, th = params.omega, params.j_hop, params.theta
    nb = numerics.of(params.omega, disp.a)
    dn = _gaps(params, disp.a)
    lam = np.divide(bare_coupling(params) * params.delta, dn)
    kap = lam ** 2 / dn   # lambda_n^2 / Delta_n per site
    m = np.zeros((6, 6), dtype=nb.cdtype)
    eith = nb.cos(th) + 1j * nb.sin(th)
    for n in range(3):
        p, q = (n + 1) % 3, (n - 1) % 3
        m[n, n] = 0.5 * w - kap[n]
        m[3 + n, 3 + n] = 0.5 * w - kap[n]
        m[n, p] += 0.5 * j / eith
        m[n, q] += 0.5 * j * eith
        m[3 + n, 3 + p] += 0.5 * j * eith
        m[3 + n, 3 + q] += 0.5 * j / eith
        m[n, 3 + n] = -kap[n]
        m[3 + n, n] = -kap[n]
    return QuadraticForm(m=m)


def diagonalize_paraunitary(qf: QuadraticForm) -> ParaunitarySolution:
    """Paraunitary T and positive excitation energies of the form qf.

    Raises CriticalPointError when a mode energy collapses to zero (the
    Bogoliubov normalization is singular there) and InstabilityError when
    the spectrum of Lam*Hd leaves the real axis (expansion around an
    unstable configuration).
    """
    nb = numerics.of(qf.m)
    m = np.asarray(qf.m, dtype=nb.cdtype)
    if m.shape != (6, 6):
        raise DomainError(f"expected a 6x6 matrix, got {m.shape}")
    scale = np.max(np.abs(m))
    if scale == 0.0:
        raise CriticalPointError("zero quadratic form")
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * scale:
        raise DomainError("quadratic form must be Hermitian")
    hd = 2.0 * m
    # an exact zero mode leaves Hd positive semidefinite; Cholesky can then
    # still succeed on rounding noise and return sqrt(eps_machine)-scale
    # energies, so require Hd - tau to be positive definite first; tau is
    # 1e-12 relative in float64, rescaled to the working epsilon
    tau = 1e-12 * 2.0 ** (53 - nb.prec()) * scale
    try:
        nb.cholesky(hd - np.eye(6) * tau)
        c = nb.cholesky(hd)                 # hd = c^dag c
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvals(_LAMBDA @ np.asarray(hd, dtype=complex))
        if float(np.max(np.abs(evals.imag))) > 1e-8 * scale:
            raise InstabilityError(
                "Lam*Hd has complex eigenvalues; the expansion point is "
                "dynamically unstable (wrong phase branch)")
        raise CriticalPointError(
            "quadratic form is not positive definite; a mode energy has "
            "reached zero (critical point)")
    w = (c * np.diag(_LAMBDA)) @ c.conj().T
    evals, u = nb.eigh(w)    # ascending: -e3,-e2,-e1,e1,e2,e3
    eps = evals[3:].copy()
    if eps[0] <= tau:
        raise CriticalPointError(
            f"soft mode energy {float(eps[0]):.3e} is numerically zero")
    gaps = [abs(eps[0] - eps[1]), abs(eps[1] - eps[2]), abs(eps[0] - eps[2])]
    if min(gaps) < 1e-10:
        warnings.warn("near-degenerate excitation energies; T columns are "
                      "basis-dependent within the degenerate subspace",
                      DegeneracyWarning, stacklevel=2)
    v = nb.solve(c, u[:, 3:] * nb.sqrt(eps), upper=True)
    # deterministic phase: each column's largest-modulus entry real positive
    top = v[np.argmax(np.abs(v), axis=0), range(3)]
    v = v / (top / np.abs(top))
    t = np.block([[v[:3], v[3:].conj()], [v[3:], v[:3].conj()]])
    return ParaunitarySolution(t=t, eps=eps, hd=hd, prec=nb.prec())


def local_photon_sr(ps: ParaunitarySolution, disp: Displacement) -> np.ndarray:
    """Per-site photon number: fluctuation part plus |alpha_n|^2."""
    t = ps.t
    fluct = np.sum(np.abs(t[:3, 3:]) ** 2, axis=1)
    return fluct + disp.a ** 2 + disp.b ** 2


def variance_x_sr(ps: ParaunitarySolution) -> np.ndarray:
    """(Delta x_n)^2 for x = a + a^dag; displacement-independent."""
    t = ps.t
    return np.array([
        sum(abs(t[n, i] + np.conj(t[n, i + 3])) ** 2 for i in range(3))
        for n in range(3)])


def variance_p_sr(ps: ParaunitarySolution) -> np.ndarray:
    """(Delta p_n)^2 for p = i(a^dag - a); displacement-independent."""
    t = ps.t
    return np.array([
        sum(abs(np.conj(t[n, i + 3]) - t[n, i]) ** 2 for i in range(3))
        for n in range(3)])


def ground_energy_fluct(params: ModelParams, ps: ParaunitarySolution,
                        disp: Displacement) -> float:
    """Mean-field energy plus the zero-point shift sum_k (eps_k - omega)/2."""
    return (ground_energy_mf(params, disp)
            + float(np.sum(ps.eps - params.omega)) / 2.0)


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
