"""Exact dynamics of the three-cavity ring in a truncated Fock basis.

State ordering is site-major: cavity1 (x) cavity2 (x) cavity3 (x) spin1 (x)
spin2 (x) spin3, with spin index 0 = up and 1 = down. H is written entry
by entry from one table of the photon numbers and spin bits of every
index, and `evolve` reads the occupations and the conserved excitation
parity exp(i pi (N_photon + N_up)) from it. It propagates the initial
state's parity sector only, by a Chebyshev series for exp(-i H tau)
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) over blocks of
samples, with the spectrum enclosed by Gershgorin discs and the series cut
where Kapteyn's bound on the Bessel coefficients (DLMF 10.14.7) puts the
dropped tail below 1e-15. The series is truncated, not unitary, so the
norm column (the sector norm, equal to the full norm) is the accuracy
witness.

The entries of H are written once: `_links` gives the links of a set of
basis indices (Rabi and hop, with their sqrt factors) and `_link_values`
their values at given params; `build_full_hamiltonian` (complex CSR) and
the ground solve both read these two.

`exact_ground_energy` uses the one antiunitary symmetry the flux leaves,
the theta -> -theta mirror with the 2<->3 swap P23: the real symmetric
Re H - P23 Im H = W^dag H W, with W = ((1 + i) + (1 - i) P23)/2 unitary,
has the spectrum of H, and an unrestarted Lanczos recurrence finds its
lowest level over every parity and ring-momentum sector: it stops when the
residual bound of the lowest Ritz pair is a small multiple of eps ||H||, and
since lost orthogonality only repeats converged Ritz values (Paige, Linear
Algebra Appl. 34, 235 (1980)), it needs no stored basis. The real form is
scattered from a template that each `FockBasis` caches on first use and
keeps as long as it lives (its CSR pattern, the link that gives each
entry's Re and Im part, the occupation table, the links' sqrt factors and
the start vector: about 240 bytes per basis dimension at n_max = 8 and at
most 300 at any n_max), so a call builds no complex H and sorts nothing.
Its Ritz pairs come from LAPACK's dstebz and dstein, called directly.

scipy is imported by the functions that build or solve a sparse H, on
their first call, so the rest of the package runs without it: `evolve`
loads scipy.sparse, and `exact_ground_energy` scipy.linalg as well.
"""
from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ResourceError, TruncationWarning
from .model import ModelParams, bare_coupling, in_omega_units

if TYPE_CHECKING:
    import scipy.sparse as sp

_DIM_CAP = 1_000_000
_WORK_CAP = 1e7   # largest r t_final, about 1.3 sparse products per unit
# largest t_final / sample_dt: the trajectory takes 40 B a sample (4 MB)
_SAMPLE_CAP = 10 ** 5
# largest r tau of one Chebyshev block: its K ~ 1.3 r tau sparse products
# are shared by its samples, at a cost of K n per sample for the sum
_SPAN = 240.0
_BLOCK_CAP = 64   # most samples in one block: its B x n states are held
_CHUNK = 32       # T_k psi rows held at once by a Chebyshev block
_TAIL = 1e-15     # bound on the dropped Chebyshev coefficients
# ground-state Lanczos: the residual bound that stops it, in units of
# eps ||H|| (at n_max 1-2 a bound of 1-4 eps ||H|| can take hundreds of steps
# more after the Ritz value has converged), the steps between looks at the
# tridiagonal, and the step cap per basis dimension
_LANCZOS_TOL = 16.0
_LANCZOS_CHECK = 10
_LANCZOS_CAP = 10


@dataclass(frozen=True)
class FockBasis:
    """The truncated product basis: photon numbers 0..n_max per cavity, two
    spin states per atom, dimension 8 (n_max + 1)^3.

    n_max is any integer >= 1 (`operator.index`, so numpy integers too, and
    stored as an int); a bool is refused. The basis caches, on first use by
    `exact_ground_energy` and for as long as it lives, the template of its
    real-form Hamiltonian (`_real_form_template`): 111 bytes per basis
    dimension at n_max = 1, 241 (1.4 MB) at n_max = 8 and at most 300 at any
    n_max. Equal bases do not share it.
    """
    n_max: int
    dim: int = field(init=False)

    def __post_init__(self):
        try:
            n_max = operator.index(self.n_max)
        except TypeError:
            n_max = 0
        if isinstance(self.n_max, bool) or n_max < 1:
            raise DomainError(
                f"n_max must be an integer >= 1, got {self.n_max!r}")
        dim = (n_max + 1) ** 3 * 8
        if dim > _DIM_CAP:
            raise ResourceError(
                f"basis dimension {dim} exceeds the cap {_DIM_CAP}")
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "dim", dim)

    @functools.cached_property
    def _real_form(self) -> _RealForm:
        return _real_form_template(self)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray      # sample times, in the inverse unit of the energies
    n_photon: np.ndarray   # shape (len(times), 3)
    norm: np.ndarray       # state norm at each sample
    params: ModelParams
    n_max: int


def _fock_table(basis: FockBasis, index: np.ndarray | None = None
                ) -> np.ndarray:
    """Rows n_1, n_2, n_3, s_1, s_2, s_3 (photon numbers, then spin bits
    with 0 = up) of every basis index ((n1 d + n2) d + n3) 8 + s, or of
    each of the indices given."""
    d = basis.n_max + 1
    return np.array(np.unravel_index(
        np.arange(basis.dim) if index is None else index, (d,) * 3 + (2,) * 3))


class _Links(NamedTuple):
    """The links of H among a set of basis indices, whatever the params:
    `table` (`_fock_table` of the indices), the (row, column) pairs of the
    Rabi links, site by site, with their factors sqrt(n), and those of the
    forward hops a_{n+1}^dag a_n, bond by bond, with their factors
    sqrt(n_{n+1} + 1) sqrt(n_n). Rows and columns are positions in the set."""
    table: np.ndarray
    rabi: np.ndarray        # (2, links)
    rabi_amp: np.ndarray
    hop: np.ndarray         # (2, links)
    hop_amp: np.ndarray


def _links(basis: FockBasis, index: np.ndarray | None = None) -> _Links:
    """The links of H on every basis index, or on the ascending indices given
    (a set that H maps into its own span): from each index, a Rabi link to
    the one with a photon fewer at a site and that site's spin flipped, and
    a forward hop to the one with a photon moved from site n to n + 1."""
    index = np.arange(basis.dim) if index is None else np.asarray(index)
    table = _fock_table(basis, index)
    at = np.arange(len(index))
    pos = np.zeros(basis.dim, dtype=at.dtype)   # the row of each index
    pos[index] = at
    stride = (8 * (basis.n_max + 1) ** 2, 8 * (basis.n_max + 1), 8, 4, 2, 1)
    rabi, rabi_amp, hop, hop_amp = [], [], [], []
    for n in range(3):
        i = at[table[n] > 0]
        rabi.append((i, pos[index[i] - stride[n]
                            + stride[3 + n] * (1 - 2 * table[3 + n][i])]))
        rabi_amp.append(np.sqrt(table[n][i]))
        m = (n + 1) % 3
        k = i[table[m][i] < basis.n_max]
        hop.append((pos[index[k] - stride[n] + stride[m]], k))
        hop_amp.append(np.sqrt(table[m][k] + 1) * np.sqrt(table[n][k]))
    return _Links(table, np.hstack(rabi), np.concatenate(rabi_amp),
                  np.hstack(hop), np.concatenate(hop_amp))


def _link_values(params: ModelParams, links) -> tuple[np.ndarray, ...]:
    """The entries of H at params on the links (any object with the fields
    `table`, `rabi_amp` and `hop_amp` of `_Links`): the diagonal
    omega N + (delta/2) sum sigma_z, the Rabi entries g sqrt(n), and the
    forward hops J e^{i theta} sqrt(n_{n+1} + 1) sqrt(n_n), whose conjugates
    are the reverse hops."""
    w, half, j, th = params.omega, 0.5 * params.delta, params.j_hop, params.theta
    table = links.table
    diag = np.zeros(table.shape[1])
    for n in range(3):
        # omega n then sigma_z, site by site: this order fixes the rounding
        diag = diag + w * table[n] + np.where(table[3 + n] == 0, half, -half)
    eith = complex(math.cos(th), math.sin(th))
    return (diag, bare_coupling(params) * links.rabi_amp,
            j * (eith * links.hop_amp))


def build_full_hamiltonian(params: ModelParams, basis: FockBasis,
                           states: np.ndarray | None = None
                           ) -> sp.csr_matrix:
    """Sparse Hamiltonian: cavity energies, Rabi couplings, (delta/2) sigma_z
    per site, and the phase-dressed ring hopping, as CSR.

    The COO triplets are the entries `_link_values` gives on the links of
    `_links`: the diagonal, each Rabi link and its transpose, and each
    forward hop J e^{i theta} a_{n+1}^dag a_n with its conjugate on the
    reverse link. Zero entries are not stored.

    With `states`, ascending basis indices that H maps into their own span
    (a union of excitation-parity sectors), H is built on that span alone:
    only its rows are generated, and row and column i stand for the basis
    index states[i]. It equals the full H restricted to those rows and
    columns, entry for entry.
    """
    import scipy.sparse as sp

    links = _links(basis, states)
    diag, rabi, hop = _link_values(params, links)
    at = np.arange(len(diag))
    (ri, rf), (ho, hk) = links.rabi, links.hop
    h = sp.csr_matrix((np.concatenate([diag, rabi, rabi, hop, hop.conj()]),
                       (np.concatenate([at, ri, rf, ho, hk]),
                        np.concatenate([at, rf, ri, hk, ho]))),
                      shape=(len(at), len(at)))
    h.eliminate_zeros()
    return h


class _RealForm(NamedTuple):
    """A basis's template of the real form Re H - P23 Im H that
    `exact_ground_energy` solves, whatever the params: its CSR pattern
    (`indptr`, `indices`), and for each entry the slots `re` and `im` of
    the value vector [0, diag, Rabi, Re hop, Im hop, -Im hop] (`_link_values`
    on the basis's links, in their order) that give its Re H part and the
    Im H part of its P23 mate row (slot 0: none), so that `data` is
    values[re] - values[im]; the `table` (as int8), `rabi_amp` and `hop_amp`
    that `_link_values` reads; and the fixed-seed start vector `v0`."""
    indptr: np.ndarray
    indices: np.ndarray
    re: np.ndarray
    im: np.ndarray
    table: np.ndarray
    rabi_amp: np.ndarray
    hop_amp: np.ndarray
    v0: np.ndarray

    def data(self, params: ModelParams) -> np.ndarray:
        """The entries of the real form at params, in the template's order."""
        diag, rabi, hop = _link_values(params, self)
        values = np.concatenate(([0.0], diag, rabi, hop.real, hop.imag,
                                 -hop.imag))
        return values[self.re] - values[self.im]


def _real_form_template(basis: FockBasis) -> _RealForm:
    """The `_RealForm` of the basis. An entry of Re H - P23 Im H is
    Re H[i, c] - Im H[P23 i, c]; Im H is nonzero on the hops alone, so the
    pattern is that of H together with each hop entry (r, c) moved to row
    P23 r, ordered by row, then column, as a CSR matrix is."""
    links = _links(basis)
    n, d = basis.dim, basis.n_max + 1
    # mate[s] is the index of P23 s
    mate = np.ravel_multi_index(links.table[[0, 2, 1, 3, 5, 4]],
                                (d,) * 3 + (2,) * 3)
    at = np.arange(n)
    (ri, rf), (ho, hk) = links.rabi, links.hop
    # slots of the value vector of `_RealForm.data`
    rabi = 1 + n + np.arange(len(ri))
    hop_re = 1 + n + len(ri) + np.arange(len(ho))
    hop_im = hop_re + len(ho)
    rows = np.concatenate([at, ri, rf, ho, hk, mate[ho], mate[hk]])
    cols = np.concatenate([at, rf, ri, hk, ho, hk, ho])
    slot = np.concatenate([1 + at, rabi, rabi, hop_re, hop_re,
                           hop_im, hop_im + len(ho)])
    key, entry = np.unique(rows * n + cols, return_inverse=True)
    real = n + 2 * (len(ri) + len(ho))      # the Re H entries come first
    re, im = np.zeros((2, len(key)), dtype=np.int32)
    re[entry[:real]] = slot[:real]
    im[entry[real:]] = slot[real:]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    form = _RealForm(indptr, (key % n).astype(np.int32), re, im,
                     links.table.astype(np.int8), links.rabi_amp,
                     links.hop_amp, np.random.default_rng(0).standard_normal(n))
    for a in form:
        a.flags.writeable = False
    return form


def initial_state(basis: FockBasis) -> np.ndarray:
    """|1,0,0> photons, all spins down; unit norm."""
    psi = np.zeros(basis.dim, dtype=complex)
    psi[(basis.n_max + 1) ** 2 * 8 + 7] = 1.0     # spin bits 111 = down
    return psi


def _spectral_bounds(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin enclosure [lo, hi] of the spectrum of a Hermitian h: every
    eigenvalue lies within sum_j!=i |h_ij| of some diagonal entry h_ii."""
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    return float((diag - radius).min()), float((diag + radius).max())


def _log_tail(z: float, k: int) -> float:
    """Log of a bound on sum_{j >= k} 2|J_j(z)|, for k > z > 0: twice the
    geometric sum of Kapteyn's bound |J_j(z)| <= b_j = (q e^s/(1 + s))^j,
    q = z/j, s = sqrt(1 - q^2) (DLMF 10.14.7). d log b_j/dj = log(q/(1 + s))
    falls with j, so the ratio of successive terms never increases. It cuts
    at K = 311 for z = 240 and 3166 for z = 3000, where the bound
    2 (z/2)^j/j! (DLMF 10.14.4) took 357 and 4108 terms."""
    def log_b(j):
        q = z / j
        s = math.sqrt((1.0 - q) * (1.0 + q))
        return j * (math.log(q) + s - math.log1p(s))

    b = log_b(k)
    return math.log(2.0) + b - math.log1p(-math.exp(log_b(k + 1) - b))


def _chebyshev_coefficients(tau: np.ndarray, c: float, r: float) -> np.ndarray:
    """Rows a[b, k] = (2 - delta_k0) (-i)^k J_k(r tau_b) e^{-i c tau_b}, so
    that exp(-i H tau_b) = sum_k a[b, k] T_k((H - c)/r).

    The Bessel functions are the Fourier coefficients of exp(-i z cos phi)
    (Jacobi-Anger), read off one FFT of 2K samples. K is the first index
    above the largest z of the block where the bound `_log_tail` on the
    dropped sum_{k >= K} 2|J_k(z)| falls below _TAIL; below z = 1e-8 it is
    2, as the tail beyond it, about z^2/4, is already below _TAIL (and z/k
    may underflow there). Since ||T_k|| <= 1, that sum bounds the
    truncation error, and it also bounds the aliasing of the FFT.
    """
    z = r * float(tau[-1])
    k = max(2, math.floor(z) + 1)
    while z > 1e-8 and _log_tail(z, k) >= math.log(_TAIL):
        k += 1
    phi = np.pi * np.arange(2 * k) / k
    a = np.fft.fft(np.exp(-1j * np.outer(r * tau, np.cos(phi))),
                   axis=1)[:, :k] / (2 * k)
    a[:, 1:] *= 2.0
    return a * np.exp(-1j * c * tau)[:, None]


def _chebyshev_block(h2: sp.csr_matrix, psi: np.ndarray, a: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
    """States a @ [T_k(H~) psi]_k, one row per row of a, with h2 = 2 H~.

    The recurrence T_k = 2 H~ T_{k-1} - T_{k-2} writes T_k psi to row
    k mod m of the m-row buffer v; each time the buffer fills, and at
    k = K - 1, the columns of a for its rows are added into the states.
    Rows k - 1 and k - 2, which step k reads, are still in the buffer for
    m >= 3; K = 2 (m = 2) takes no step.
    """
    m, n_terms = len(v), a.shape[1]
    states = np.zeros((len(a), len(psi)), dtype=complex)
    v[0] = psi
    np.multiply(h2 @ psi, 0.5, out=v[1])
    for k in range(n_terms):
        if k >= 2:
            np.subtract(h2 @ v[(k - 1) % m], v[(k - 2) % m], out=v[k % m])
        if k % m == m - 1 or k == n_terms - 1:
            first = k - k % m
            states += a[:, first:k + 1] @ v[:k + 1 - first]
    return states


def evolve(params: ModelParams, basis: FockBasis, t_final: float,
           sample_dt: float = 0.1) -> Trajectory:
    """Propagate |1,0,0>|down,down,down> and sample photon numbers.

    Propagation runs in the excitation-parity sector of the initial state;
    photon numbers are |psi|^2 weighted by the occupations. The norm column
    is the sector norm, equal to the full norm, and is never renormalized:
    drift beyond 1e-8 raises ConvergenceError. Population at the Fock
    cutoff above 1e-6 raises a TruncationWarning (results kept).

    Propagator: exp(-i H tau) = sum_k a_k(tau) T_k(H~), with H~ = (H - c)/r
    and [c - r, c + r] the Gershgorin enclosure of the sector spectrum (or
    wider, so that 2/r is finite), so ||T_k(H~)|| <= 1 and the dropped
    coefficients bound the error (below _TAIL per block). Samples come in
    blocks of B = floor(_SPAN / (r sample_dt)), clipped to [1, n_samples]
    and to at most _BLOCK_CAP: one recurrence T_k(H~) psi, k < K, from the
    state at the start of a block gives all B samples, summed with the
    coefficient rows computed once per call. A sample interval with
    r sample_dt > _SPAN is split into equal substeps, so every block spans
    r tau <= _SPAN = 240 and K <= 311 (`_chebyshev_coefficients`). More
    than _SAMPLE_CAP samples, an enclosure that overflows, or work
    r t_final above _WORK_CAP is refused.

    Memory (n the sector dimension): the recurrence holds _CHUNK = 32 of
    its K rows at a time, and a block its B states and one B-row product,
    so (_CHUNK + 2 B) n 16 bytes whatever K is: 1.8 MB for the 26-sample
    blocks of the transfer protocol at n_max=6, and at most 1.3 GB at
    n_max=49 (_DIM_CAP) with B = _BLOCK_CAP.
    """
    import scipy.sparse as sp

    if not (math.isfinite(t_final) and t_final >= 0.0
            and math.isfinite(sample_dt) and sample_dt > 0.0):
        raise DomainError("need finite t_final >= 0 and sample_dt > 0")
    if not t_final / sample_dt <= _SAMPLE_CAP:
        raise ResourceError(f"{t_final / sample_dt:.3g} samples exceed the "
                            f"cap {_SAMPLE_CAP}")
    n_samples = int(math.floor(t_final / sample_dt + 1e-9))
    table = _fock_table(basis)
    # photons plus down spins: the excitation parity flipped, N_up = 3 - N_down
    parity = table.sum(axis=0) % 2
    psi = initial_state(basis)
    sector = np.flatnonzero(parity == parity[np.flatnonzero(psi)[0]])
    h = build_full_hamiltonian(params, basis, sector)
    lo, hi = _spectral_bounds(h)
    c, r = 0.5 * (hi + lo), max(0.5 * (hi - lo), np.finfo(float).tiny)
    if not (math.isfinite(c) and math.isfinite(r)):
        raise DomainError(f"H overflows float64: enclosure [{lo:.3g}, {hi:.3g}]")
    if r * t_final > _WORK_CAP:
        raise ResourceError(f"Chebyshev work r t_final = {r * t_final:.3g} "
                            f"exceeds the cap {_WORK_CAP:g}")
    h = (2.0 / r) * (h - c * sp.identity(len(sector), format="csr"))
    occ, psi = table[:3].T[sector].astype(float), psi[sector]
    top = occ.max(axis=1) == basis.n_max
    prob = np.abs(psi) ** 2
    n_photon, norms = [prob @ occ], [np.sqrt(prob.sum(keepdims=True))]
    substeps = max(math.ceil(r * sample_dt / _SPAN), 1)
    tau = sample_dt / substeps
    block = max(min(n_samples if r * tau * n_samples <= _SPAN
                    else int(_SPAN / (r * tau)), _BLOCK_CAP), 1)
    a = _chebyshev_coefficients(tau * np.arange(1, block + 1), c, r)
    v = np.empty((min(_CHUNK, a.shape[1]), len(sector)), dtype=complex)
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
                      n_photon=np.vstack(n_photon), norm=np.concatenate(norms),
                      params=params, n_max=basis.n_max)


def _first_transfer_peak(times: np.ndarray, y: np.ndarray, floor: float) -> float:
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


def _lowest_ritz(alpha: list[float], beta: list[float]) -> tuple[float, float]:
    """The lowest eigenvalue theta of the symmetric tridiagonal T with
    diagonal alpha and off-diagonal beta, and the last component of its unit
    eigenvector: LAPACK's bisection dstebz and inverse iteration dstein, the
    routines of scipy's eigh_tridiagonal(select="i"), called directly. A
    1 x 1 T is its own answer. A T that is not finite raises DomainError,
    and a nonzero LAPACK info ConvergenceError."""
    from scipy.linalg.lapack import dstebz, dstein

    if len(alpha) == 1:
        return alpha[0], 1.0
    d, e = np.array(alpha), np.array(beta)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise DomainError("H overflows float64 in the Lanczos recurrence")
    m, w, block, split, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        z, info = dstein(d, e, w[:m], block, split)
    if info != 0:
        raise ConvergenceError(f"LAPACK tridiagonal eigensolver info {info}"
                               f" at Lanczos step {len(alpha)}")
    return float(w[0]), float(z[-1, 0])


def _lanczos_lowest(h, v0: np.ndarray, tol: float, cap: int) -> float:
    """Lowest eigenvalue of the real symmetric h by the three-term Lanczos
    recurrence from v0, with no stored basis and no reorthogonalization.

    Every _LANCZOS_CHECK steps, and at the cap, the lowest Ritz pair
    (theta, s) of the tridiagonal T_k is taken (`_lowest_ritz`); the
    recurrence returns theta when the residual bound |beta_k s_k| is at most
    tol, and at once when beta_k = 0 (the Krylov space is invariant). More
    than cap steps raise ConvergenceError. Only h @ x is used; the iterates
    are updated in place, three vectors and one work vector held.
    """
    alpha, beta = [], []
    q_prev, q, b = np.zeros_like(v0), v0 / np.linalg.norm(v0), 0.0
    tmp = np.empty_like(q)
    for k in range(1, cap + 1):
        w = h @ q
        w -= np.multiply(q_prev, b, out=tmp)
        a = float(q @ w)
        w -= np.multiply(q, a, out=tmp)
        b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        if b == 0.0 or k % _LANCZOS_CHECK == 0 or k == cap:
            theta, s = _lowest_ritz(alpha, beta[:-1])
            if b * abs(s) <= tol:
                return theta
        q_prev, q = q, np.divide(w, b, out=q_prev)
    raise ConvergenceError(
        f"ground-state Lanczos did not converge in the cap of {cap} steps")


def exact_ground_energy(params: ModelParams, basis: FockBasis) -> float:
    """Lowest eigenvalue of the truncated Hamiltonian, solved at omega = 1.

    H is solved as the real symmetric Re H - P23 Im H in the Fock basis, with
    P23 the 2<->3 swap of cavities and spins: since A = P23 K (K complex
    conjugation) commutes with H at every flux, it equals W^dag H W for the
    unitary W = ((1 + i) + (1 - i) P23)/2 (Dyson, J. Math. Phys. 3, 1199
    (1962)). It is assembled from the basis's cached template
    (`FockBasis._real_form`, built on the first call and kept as long as the
    basis, about 240 bytes per basis dimension at n_max = 8): the
    `_link_values` at these params are scattered into the template's CSR
    pattern, with no complex H, and its exact zeros are dropped, so the
    matrix is entry for entry that of the complex route. The unrestarted
    Lanczos recurrence (`_lanczos_lowest`) runs on it from the template's
    fixed-seed normal start vector. That vector has weight in
    every excitation-parity and ring-momentum sector, so the result is the
    lowest level over all of them: with flux the ground state need not carry
    momentum 0. The recurrence stops when the residual bound of the lowest
    Ritz pair is below _LANCZOS_TOL eps ||H||, with ||H|| from the Gershgorin
    enclosure; in floating point, lost orthogonality only adds copies of
    converged Ritz values (Paige, Linear Algebra Appl. 34, 235 (1980)), so
    the lowest one approaches the ground energy from above. An enclosure
    that overflows raises DomainError, and more than _LANCZOS_CAP steps per
    basis dimension ConvergenceError.
    """
    import scipy.sparse as sp

    form = basis._real_form
    # dropping the zeros that g1 = 0, J = 0 or a real hop leave keeps the
    # matvec and Gershgorin sums of the complex route, bit for bit; it
    # compacts the arrays in place, so the pattern is copied
    hr = sp.csr_matrix((form.data(in_omega_units(params)),
                        form.indices.copy(), form.indptr.copy()),
                       shape=(basis.dim, basis.dim))
    hr.eliminate_zeros()
    lo, hi = _spectral_bounds(hr)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"H overflows float64: enclosure [{lo:.3g}, {hi:.3g}]")
    tol = _LANCZOS_TOL * np.finfo(float).eps * max(-lo, hi)
    return (_lanczos_lowest(hr, form.v0, tol, _LANCZOS_CAP * basis.dim)
            * params.omega)
