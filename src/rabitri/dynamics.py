"""Exact dynamics of the three-cavity ring in a truncated Fock basis.

State ordering is site-major: cavity1 (x) cavity2 (x) cavity3 (x) spin1 (x)
spin2 (x) spin3, with spin index 0 = up and 1 = down. H conserves the
excitation parity exp(i pi (N_photon + N_up)), so `evolve` propagates the
initial state's parity sector only, by a Chebyshev expansion of
exp(-i H tau) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) over
blocks of samples, and reads photon numbers as |psi|^2 weighted by the
occupations. The spectrum is enclosed by Gershgorin discs, so no
eigensolver runs. The series is truncated, not unitary, so the norm column
(the sector norm, equal to the full norm) is the accuracy witness, never
renormalized.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConvergenceError, DomainError, ResourceError, TruncationWarning
from .model import ModelParams, bare_coupling

_DIM_CAP = 1_000_000
_SPAN = 40.0      # largest r tau of one Chebyshev block
_TAIL = 1e-15     # bound on the dropped Chebyshev coefficients


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


def _spectral_bounds(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin enclosure [lo, hi] of the spectrum of a Hermitian h: every
    eigenvalue lies within sum_j!=i |h_ij| of some diagonal entry h_ii."""
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    return float((diag - radius).min()), float((diag + radius).max())


def _chebyshev_coefficients(tau: np.ndarray, c: float,
                            r: float) -> np.ndarray:
    """Rows a[b, k] = (2 - delta_k0) (-i)^k J_k(r tau_b) e^{-i c tau_b}, so
    that exp(-i H tau_b) = sum_k a[b, k] T_k((H - c)/r).

    The Bessel functions are the Fourier coefficients of exp(-i z cos phi)
    (Jacobi-Anger), read off one FFT of 2K samples. K is the first index
    where the bound 2 (z/2)^k/k! on 2|J_k(z)| (DLMF 10.14.4), summed over
    the dropped k >= K as a geometric series, falls below _TAIL at the
    largest z of the block. Since ||T_k|| <= 1, that sum bounds the
    truncation error, and it also bounds the aliasing of the FFT.
    """
    z = r * float(tau[-1])
    k = max(2, int(z / 2) + 1)
    while (math.log(2.0) + k * math.log(z / 2) - math.lgamma(k + 1)
           - math.log1p(-z / (2 * k + 2))) >= math.log(_TAIL):
        k += 1
    phi = np.pi * np.arange(2 * k) / k
    a = np.fft.fft(np.exp(-1j * np.outer(r * tau, np.cos(phi))),
                   axis=1)[:, :k] / (2 * k)
    a[:, 1:] *= 2.0
    return a * np.exp(-1j * c * tau)[:, None]


def _chebyshev_block(h2: sp.csr_matrix, psi: np.ndarray, a: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
    """States a @ [T_k(H~) psi]_k, one row per row of a, with h2 = 2 H~.
    The recurrence T_k = 2 H~ T_{k-1} - T_{k-2} fills the K rows of v."""
    v[0] = psi
    np.multiply(h2 @ psi, 0.5, out=v[1])
    for k in range(2, len(v)):
        np.subtract(h2 @ v[k - 1], v[k - 2], out=v[k])
    return a @ v


def evolve(params: ModelParams, basis: FockBasis, t_final: float,
           sample_dt: float = 0.1) -> Trajectory:
    """Propagate |1,0,0>|down,down,down> and sample photon numbers.

    Propagation runs in the excitation-parity sector of the initial state;
    photon numbers are |psi|^2 weighted by the occupations. The norm column
    is the sector norm, equal to the full norm, and is never renormalized:
    drift beyond 1e-8 raises ConvergenceError. Population at the Fock
    cutoff above 1e-6 raises a TruncationWarning (results kept).

    Propagator: exp(-i H tau) = sum_k a_k(tau) T_k(H~), with H~ = (H - c)/r
    and [c - r, c + r] the Gershgorin enclosure of the sector spectrum, so
    ||T_k(H~)|| <= 1 and the dropped coefficients bound the error (below
    _TAIL per block). Samples come in blocks of
    B = floor(_SPAN / (r sample_dt)), clipped to [1, n_samples]: one
    recurrence T_k(H~) psi, k < K, from the state at the start of a block
    gives all B samples as one product with the coefficient rows, which
    are computed once per call; a shorter last block takes the first rows.
    A sample interval with r sample_dt > _SPAN is split into equal
    substeps, so every block spans r tau <= _SPAN = 40 and K <= 82.

    Memory: the K x n workspace (n the sector dimension) is the one array
    that grows with the expansion, K n 16 bytes: 1.6 MB at n_max=6 (K=75)
    and at most 82 * 5e5 * 16 B = 0.66 GB at n_max=49, the largest cutoff
    that _DIM_CAP admits.
    """
    if not (math.isfinite(t_final) and t_final >= 0.0
            and math.isfinite(sample_dt) and sample_dt > 0.0):
        raise DomainError("need finite t_final >= 0 and sample_dt > 0")
    n_samples = int(math.floor(t_final / sample_dt + 1e-9))
    occ = np.stack([op.diagonal() for op in number_operators(basis)], axis=1)
    # N_up per spin block: 3 minus the number of set (down) spin bits
    n_up = np.tile([3, 2, 2, 1, 2, 1, 1, 0], basis.dim // 8)
    parity = (occ.sum(axis=1) + n_up) % 2
    psi = initial_state(basis)
    sector = np.flatnonzero(parity == parity[np.flatnonzero(psi)[0]])
    h = build_full_hamiltonian(params, basis)[sector][:, sector]
    lo, hi = _spectral_bounds(h)
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    h = (2.0 / r) * (h - c * sp.identity(len(sector), format="csr"))
    occ, psi = occ[sector], psi[sector]
    top = occ.max(axis=1) == basis.n_max
    prob = np.abs(psi) ** 2
    n_photon, norms = [prob @ occ], [np.sqrt(prob.sum(keepdims=True))]
    substeps = math.ceil(r * sample_dt / _SPAN)
    tau = sample_dt / substeps
    block = min(max(int(_SPAN / (r * tau)), 1), max(n_samples, 1))
    a = _chebyshev_coefficients(tau * np.arange(1, block + 1), c, r)
    v = np.empty((a.shape[1], len(sector)), dtype=complex)
    warned = False
    for first in range(1, n_samples + 1, block):
        for _ in range(substeps - 1):
            psi = _chebyshev_block(h, psi, a, v)[0]
        states = _chebyshev_block(h, psi, a[:n_samples + 1 - first], v)
        psi = states[-1]
        prob = np.abs(states) ** 2
        nrm = np.sqrt(prob.sum(axis=1))
        drift = np.abs(nrm - 1.0)
        if not drift.max() <= 1e-8:          # also catches a NaN state
            s = first + int(np.argmax(~(drift <= 1e-8)))
            raise ConvergenceError(
                f"norm drift {drift[s - first]:.3e} at t={s * sample_dt:.3f} "
                "exceeds 1e-8")
        if not warned:
            pop = prob[:, top].sum(axis=1)
            if pop.max() > 1e-6:
                warnings.warn(
                    f"population {pop[np.argmax(pop > 1e-6)]:.2e} at the "
                    f"Fock cutoff n_max={basis.n_max}; increase n_max",
                    TruncationWarning, stacklevel=2)
                warned = True
        n_photon.append(prob @ occ)
        norms.append(nrm)
    return Trajectory(times=np.arange(n_samples + 1) * sample_dt,
                      n_photon=np.vstack(n_photon),
                      norm=np.concatenate(norms), params=params,
                      n_max=basis.n_max)


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
