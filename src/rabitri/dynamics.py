"""Exact dynamics of the three-cavity ring in a truncated Fock basis.

State ordering is site-major: cavity1 (x) cavity2 (x) cavity3 (x) spin1 (x)
spin2 (x) spin3, with spin index 0 = up and 1 = down. The propagator is
scipy's `expm_multiply` (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011),
a scaled truncated Taylor series at double-precision tolerance, called
once per sample interval. It is not unitary to machine precision, so the
norm column of the trajectory is the accuracy witness, never silently
renormalized.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, expm_multiply

from .errors import ConvergenceError, DomainError, ResourceError, TruncationWarning
from .model import ModelParams, bare_coupling

_DIM_CAP = 1_000_000


@dataclass(frozen=True)
class FockBasis:
    n_max: int
    dim: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise DomainError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        dim = (self.n_max + 1) ** 3 * 8
        if dim > _DIM_CAP:
            raise ResourceError(
                f"basis dimension {dim} exceeds the cap {_DIM_CAP}")
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray      # sample times, 1/omega units
    n_photon: np.ndarray   # shape (len(times), 3)
    norm: np.ndarray       # state norm at each sample
    params: ModelParams
    n_max: int


def _cavity_op(op: sp.spmatrix, site: int, d: int) -> sp.csr_matrix:
    ops = [sp.identity(d, format="csr")] * 3
    ops[site] = op
    out = sp.kron(sp.kron(ops[0], ops[1]), ops[2])
    return sp.kron(out, sp.identity(8, format="csr"), format="csr")


def _spin_op(op: sp.spmatrix, site: int, d: int) -> sp.csr_matrix:
    ops = [sp.identity(2, format="csr")] * 3
    ops[site] = op
    out = sp.kron(sp.kron(ops[0], ops[1]), ops[2])
    return sp.kron(sp.identity(d ** 3, format="csr"), out, format="csr")


def build_full_hamiltonian(params: ModelParams, basis: FockBasis) -> sp.csr_matrix:
    """Sparse Hamiltonian: cavity energies, Rabi couplings, (delta/2) sigma_z
    per site, and the phase-dressed ring hopping."""
    w, d_gap, j, th = params.omega, params.delta, params.j_hop, params.theta
    g = bare_coupling(params)
    d = basis.n_max + 1
    a = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    ad = a.T.conj().tocsr()
    nf = sp.diags(np.arange(d, dtype=float), 0, format="csr")
    sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sz = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    h = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    eith = complex(math.cos(th), math.sin(th))
    for n in range(3):
        h = h + w * _cavity_op(nf, n, d)
        h = h + g * (_cavity_op(a + ad, n, d) @ _spin_op(sx, n, d))
        h = h + 0.5 * d_gap * _spin_op(sz, n, d)
        # forward bond: e^{i theta} a_{n+1}^dag a_n + h.c.
        fwd = _cavity_op(ad, (n + 1) % 3, d) @ _cavity_op(a, n, d)
        h = h + j * (eith * fwd + np.conj(eith) * fwd.T.conj())
    return h.tocsr()


def number_operators(basis: FockBasis) -> list[sp.csr_matrix]:
    d = basis.n_max + 1
    nf = sp.diags(np.arange(d, dtype=float), 0, format="csr")
    return [_cavity_op(nf, n, d) for n in range(3)]


def initial_state(basis: FockBasis) -> np.ndarray:
    """|1,0,0> photons, all spins down; unit norm."""
    d = basis.n_max + 1
    psi = np.zeros(basis.dim, dtype=complex)
    # spins all down: each spin bit 1 -> index 7 in the 8-dim spin block
    psi[((1 * d + 0) * d + 0) * 8 + 7] = 1.0
    return psi


def _top_level_mask(basis: FockBasis) -> np.ndarray:
    d = basis.n_max + 1
    f = np.arange(basis.dim) // 8
    n3 = f % d
    n2 = (f // d) % d
    n1 = f // (d * d)
    return (n1 == basis.n_max) | (n2 == basis.n_max) | (n3 == basis.n_max)


def evolve(params: ModelParams, basis: FockBasis, t_final: float,
           sample_dt: float = 0.1) -> Trajectory:
    """Propagate |1,0,0>|down,down,down> and sample photon numbers.

    One `expm_multiply` call carries the state across each sample
    interval, so the samples are the only time grid. The norm is never
    renormalized: drift beyond 1e-8 raises ConvergenceError. Population at
    the Fock cutoff above 1e-6 raises a TruncationWarning (results kept).
    """
    if not (math.isfinite(t_final) and t_final >= 0.0
            and math.isfinite(sample_dt) and sample_dt > 0.0):
        raise DomainError("need finite t_final >= 0 and sample_dt > 0")
    n_samples = int(math.floor(t_final / sample_dt + 1e-9))
    step = (-1j * sample_dt) * build_full_hamiltonian(params, basis)
    n_ops = number_operators(basis)
    top = _top_level_mask(basis)
    psi = initial_state(basis)
    times = [0.0]
    n_photon = [[float(np.real(np.vdot(psi, op @ psi))) for op in n_ops]]
    norms = [float(np.linalg.norm(psi))]
    warned = False
    for s in range(1, n_samples + 1):
        psi = expm_multiply(step, psi)
        nrm = float(np.linalg.norm(psi))
        if abs(nrm - 1.0) > 1e-8:
            raise ConvergenceError(
                f"norm drift {abs(nrm - 1.0):.3e} at t={s * sample_dt:.3f} "
                "exceeds 1e-8")
        if not warned:
            pop = float(np.sum(np.abs(psi[top]) ** 2))
            if pop > 1e-6:
                warnings.warn(
                    f"population {pop:.2e} at the Fock cutoff n_max="
                    f"{basis.n_max}; increase n_max", TruncationWarning,
                    stacklevel=2)
                warned = True
        times.append(s * sample_dt)
        n_photon.append([float(np.real(np.vdot(psi, op @ psi)))
                         for op in n_ops])
        norms.append(nrm)
    return Trajectory(times=np.array(times), n_photon=np.array(n_photon),
                      norm=np.array(norms), params=params, n_max=basis.n_max)


def _first_transfer_peak(times: np.ndarray, y: np.ndarray,
                         floor: float) -> float:
    """Time of the first local maximum reaching the floor; inf if none."""
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] >= y[i + 1] and y[i] >= floor:
            return float(times[i])
    return math.inf


def chirality_metric(traj: Trajectory) -> float:
    """+1 if cavity 2 receives the photon before cavity 3, -1 for the
    reverse, 0 on a tie within the sampling resolution.

    Only transfer-scale peaks count: a local maximum qualifies when it
    reaches 20% of the larger of max N2, max N3, which filters out the
    small fast counter-rotating ripples.
    """
    t, n2, n3 = traj.times, traj.n_photon[:, 1], traj.n_photon[:, 2]
    floor = 0.2 * max(float(n2.max()), float(n3.max()))
    t2 = _first_transfer_peak(t, n2, floor)
    t3 = _first_transfer_peak(t, n3, floor)
    if math.isinf(t2) and math.isinf(t3):
        return 0.0
    res = float(t[1] - t[0]) if len(t) > 1 else 0.0
    if abs(t2 - t3) <= res + 1e-12:
        return 0.0
    return 1.0 if t2 < t3 else -1.0


def exact_ground_energy(params: ModelParams, basis: FockBasis) -> float:
    """Lowest eigenvalue of the truncated Hamiltonian (iterative)."""
    h = build_full_hamiltonian(params, basis)
    v0 = np.ones(basis.dim) / math.sqrt(basis.dim)
    try:
        vals = eigsh(h, k=1, which="SA", v0=v0, tol=0,
                     return_eigenvectors=False)
    except ArpackNoConvergence as ex:
        raise ConvergenceError(f"ground-state eigensolver failed: {ex}") from ex
    return float(vals[0])


def write_trajectory_csv(traj: Trajectory, path: str,
                         comments: tuple[str, ...] = ()) -> None:
    """CSV with header t,N1,N2,N3,norm, full double precision.

    Any comment strings are written first, one per '# ' line.
    """
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("t,N1,N2,N3,norm\n")
        for i in range(len(traj.times)):
            row = [traj.times[i], traj.n_photon[i, 0], traj.n_photon[i, 1],
                   traj.n_photon[i, 2], traj.norm[i]]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
