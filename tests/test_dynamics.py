import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import rabitri
from rabitri import (ConvergenceError, DomainError, ModelParams, ResourceError,
                     TruncationWarning)
from rabitri import dynamics
from rabitri.cli import main
from rabitri.dynamics import (FockBasis, Trajectory, build_full_hamiltonian,
                              chirality_metric, evolve, exact_ground_energy,
                              initial_state)
from rabitri.model import bare_coupling, critical_coupling_min

from conftest import params


def dyn_params(theta=0.0, g1=0.1):
    return ModelParams(omega=1.0, delta=50.0, g1=g1, j_hop=0.05, theta=theta)


def reference_hamiltonian(params, basis):
    """H as a sum of Kronecker products of single-site operators, a
    construction independent of the occupation table."""
    d = basis.n_max + 1

    def cavity_op(op, site):
        ops = [sp.identity(d, format="csr")] * 3
        ops[site] = op
        out = sp.kron(sp.kron(ops[0], ops[1]), ops[2])
        return sp.kron(out, sp.identity(8, format="csr"), format="csr")

    def spin_op(op, site):
        ops = [sp.identity(2, format="csr")] * 3
        ops[site] = op
        out = sp.kron(sp.kron(ops[0], ops[1]), ops[2])
        return sp.kron(sp.identity(d ** 3, format="csr"), out, format="csr")

    w, j, th = params.omega, params.j_hop, params.theta
    g = bare_coupling(params)
    a = sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr")
    ad = a.T.conj().tocsr()
    nf = sp.diags(np.arange(d, dtype=float), 0, format="csr")
    sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    sz = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    h = sp.csr_matrix((basis.dim, basis.dim), dtype=complex)
    eith = complex(math.cos(th), math.sin(th))
    for n in range(3):
        h = h + w * cavity_op(nf, n)
        h = h + g * (cavity_op(a + ad, n) @ spin_op(sx, n))
        h = h + 0.5 * params.delta * spin_op(sz, n)
        # forward bond: e^{i theta} a_{n+1}^dag a_n + h.c.
        fwd = cavity_op(ad, (n + 1) % 3) @ cavity_op(a, n)
        h = h + j * (eith * fwd + np.conj(eith) * fwd.T.conj())
    return h.tocsr()


def fock_labels(basis):
    """Photon numbers (dim, 3) and spin bits (dim, 3), 0 = up, of every
    index ((n1 d + n2) d + n3) 8 + (s1 2 + s2) 2 + s3."""
    d = basis.n_max + 1
    idx = np.arange(basis.dim)
    f, spins = idx // 8, idx % 8
    photons = np.stack([f // (d * d), (f // d) % d, f % d], axis=1)
    return photons, np.stack([spins >> 2, (spins >> 1) & 1, spins & 1], axis=1)


def test_basis_dimensions():
    assert FockBasis(n_max=1).dim == 64
    assert FockBasis(n_max=6).dim == 7 ** 3 * 8


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_basis_rejects_bad_nmax(bad):
    with pytest.raises(DomainError):
        FockBasis(n_max=bad)


@pytest.mark.parametrize("bad", [True, False])
def test_basis_rejects_a_bool(bad):
    # bool is an int subclass; True is no n_max
    with pytest.raises(DomainError, match="must be an integer"):
        FockBasis(n_max=bad)


@pytest.mark.parametrize("n_max", [np.int64(3), np.int32(3), np.uint8(3)])
def test_basis_takes_any_integer_and_stores_an_int(n_max):
    basis = FockBasis(n_max=n_max)
    assert type(basis.n_max) is int and basis.n_max == 3
    assert basis == FockBasis(n_max=3) and basis.dim == 512


def test_basis_dimension_cap():
    with pytest.raises(ResourceError):
        FockBasis(n_max=50)


def test_initial_state_single_photon_site1():
    basis = FockBasis(n_max=2)
    psi = initial_state(basis)
    d = 3
    idx = ((1 * d + 0) * d + 0) * 8 + 7
    assert psi[idx] == 1.0
    assert np.linalg.norm(psi) == 1.0
    occ = dynamics._fock_table(basis)[:3] @ np.abs(psi) ** 2
    assert list(occ) == pytest.approx([1.0, 0.0, 0.0], abs=0)


def test_hamiltonian_hermitian():
    p = dyn_params(theta=0.9)
    h = build_full_hamiltonian(p, FockBasis(n_max=2))
    assert abs(h - h.conj().T).max() <= 1e-14


@pytest.mark.parametrize("n_max", [2, 4])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2])
def test_sector_hamiltonian_is_the_full_one_restricted(n_max, theta):
    # `evolve` builds its parity sector's rows alone; the CSR arrays must
    # be those of the full H sliced to the sector, so the trajectory keeps
    # its bits
    basis = FockBasis(n_max=n_max)
    parity = dynamics._fock_table(basis).sum(axis=0) % 2
    full = build_full_hamiltonian(dyn_params(theta), basis)
    for side in (0, 1):
        sector = np.flatnonzero(parity == side)
        want = full[sector][:, sector]
        got = build_full_hamiltonian(dyn_params(theta), basis, sector)
        assert got.shape == want.shape and got.dtype == want.dtype
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


# sha256 of indptr, indices and data (first 16 hex digits, then the dtype)
# of build_full_hamiltonian(dyn_params(theta), FockBasis(n_max), states) on
# the full basis (None) and on each parity sector, captured before the
# Hamiltonian entries moved into _link_values
_FROZEN_BUILDS = {
    (2, 0.0, None): ['ec58c3d4a62cae46int32', '4a7e5d30b759ae55int32', '18995ea389b3721fcomplex128'],
    (2, 0.0, 0): ['90491d38f9161a4aint32', 'c9eb2b9ec23d8731int32', '2fa19c9d1262e29dcomplex128'],
    (2, 0.0, 1): ['90491d38f9161a4aint32', 'c9eb2b9ec23d8731int32', '6e557afdb54a5350complex128'],
    (2, math.pi / 2, None): ['ec58c3d4a62cae46int32', '4a7e5d30b759ae55int32', 'b85d2bd13d4f32a3complex128'],
    (2, math.pi / 2, 0): ['90491d38f9161a4aint32', 'c9eb2b9ec23d8731int32', 'c9dc316aa8b13af9complex128'],
    (2, math.pi / 2, 1): ['90491d38f9161a4aint32', 'c9eb2b9ec23d8731int32', '3893023b5c6771b8complex128'],
    (4, 0.0, None): ['e365bb2aac027057int32', 'dbdf2e8f0d6b2edfint32', 'fb54056a48b6ebbacomplex128'],
    (4, 0.0, 0): ['a2d1dc54de8310f4int32', '955aeb9c8ad49fb4int32', '24afb5e7314d1f0ecomplex128'],
    (4, 0.0, 1): ['a2d1dc54de8310f4int32', '955aeb9c8ad49fb4int32', 'a6946aa86b71409bcomplex128'],
    (4, math.pi / 2, None): ['e365bb2aac027057int32', 'dbdf2e8f0d6b2edfint32', 'f10883e3a2a6b288complex128'],
    (4, math.pi / 2, 0): ['a2d1dc54de8310f4int32', '955aeb9c8ad49fb4int32', '9b67f182d5e2bb96complex128'],
    (4, math.pi / 2, 1): ['a2d1dc54de8310f4int32', '955aeb9c8ad49fb4int32', 'a32dc4440ee03dcecomplex128'],
}


@pytest.mark.parametrize("key", sorted(_FROZEN_BUILDS, key=str))
def test_hamiltonian_csr_arrays_are_frozen(key):
    n_max, theta, side = key
    basis = FockBasis(n_max=n_max)
    parity = dynamics._fock_table(basis).sum(axis=0) % 2
    states = None if side is None else np.flatnonzero(parity == side)
    h = build_full_hamiltonian(dyn_params(theta), basis, states)
    got = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
           + str(a.dtype) for a in (h.indptr, h.indices, h.data)]
    assert got == _FROZEN_BUILDS[key]


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_hamiltonian_conserves_excitation_number_at_extreme_detuning():
    # counter-rotating terms couple different total-excitation sectors; a
    # short evolution must still keep the photon total near 1 when delta is
    # large (adiabatic elimination regime), a cheap sanity check
    p = dyn_params(theta=0.0)
    traj = evolve(p, FockBasis(n_max=2), t_final=2.0)
    totals = traj.n_photon.sum(axis=1)
    assert np.all(totals <= 1.05) and np.all(totals >= 0.9)


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
@pytest.mark.parametrize("n_max", [1, 2])
def test_evolve_matches_dense_propagator(n_max):
    # at n_max = 1 every occupation is 0 or 1, so only n_max >= 2 catches a
    # per-cavity error in the occupation decoding
    p = dyn_params(theta=0.5)
    basis = FockBasis(n_max=n_max)
    h = build_full_hamiltonian(p, basis).toarray()
    psi0 = initial_state(basis)
    t = 3.0
    traj = evolve(p, basis, t_final=t)
    occ = dynamics._fock_table(basis)[:3]
    assert len(traj.times) == 31
    for ts, n_photon in zip(traj.times, traj.n_photon):
        psi_exact = sla.expm(-1j * h * ts) @ psi0
        n_exact = occ @ np.abs(psi_exact) ** 2
        assert n_photon == pytest.approx(n_exact, abs=1e-10)
    assert traj.norm == pytest.approx(np.ones(31), abs=1e-10)
    assert traj.times[-1] == pytest.approx(t, abs=0)


def samples_per_block(h, basis, sample_dt):
    """B of `evolve`: floor(_SPAN / (r tau)) clipped to [1, _BLOCK_CAP],
    with r the Gershgorin half-width of the initial state's parity sector
    and tau the sample interval or, when r sample_dt > _SPAN, its
    substep."""
    photons, spins = fock_labels(basis)
    parity = (photons.sum(axis=1) + 3 - spins.sum(axis=1)) % 2
    sector = np.flatnonzero(parity == parity[np.argmax(initial_state(basis))])
    lo, hi = dynamics._spectral_bounds(h[sector][:, sector])
    r = 0.5 * (hi - lo)
    tau = sample_dt / math.ceil(r * sample_dt / dynamics._SPAN)
    return min(max(int(dynamics._SPAN / (r * tau)), 1), dynamics._BLOCK_CAP)


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
@settings(derandomize=True, deadline=None, max_examples=15)
@given(theta=st.floats(-np.pi, np.pi, exclude_min=True),
       j_hop=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       g1=st.floats(0.0, 2.0), sample_dt=st.sampled_from([0.1, 0.37, 2.0]),
       blocks=st.integers(1, 2), tail=st.floats(0.0, 1.0, exclude_max=True))
# one sample per block, each split into 13 substeps
@example(theta=0.5, j_hop=0.05, delta=1000.0, g1=0.1, sample_dt=2.0,
         blocks=2, tail=0.0)
# many samples per block and a partial last block
@example(theta=-1.0, j_hop=0.3, delta=10.0, g1=1.0, sample_dt=0.1,
         blocks=1, tail=0.5)
# K = 90 terms: two full buffers of _CHUNK = 32 rows and a partial one of
# 26, whose terms near k = 64 > z = 48 still weigh about 1e-5
@example(theta=0.3, j_hop=0.05, delta=10.0, g1=0.1, sample_dt=0.045,
         blocks=2, tail=0.3)
# r = 2.4: K = 21 terms, shorter than one buffer
@example(theta=0.3, j_hop=0.05, delta=1.0, g1=0.1, sample_dt=0.02,
         blocks=1, tail=0.7)
def test_evolve_matches_dense_expm_across_parameters(
        theta, j_hop, delta, g1, sample_dt, blocks, tail):
    # n_samples = blocks * B + extra with 0 < extra < B whenever B > 1, so
    # the last block is a partial one; t_final sits between two samples
    p = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop, theta=theta)
    basis = FockBasis(n_max=1)
    h = build_full_hamiltonian(p, basis)
    per_block = samples_per_block(h, basis, sample_dt)
    extra = 1 + int(tail * (per_block - 1)) if per_block > 1 else 0
    n_samples = blocks * per_block + extra
    traj = evolve(p, basis, t_final=(n_samples + 0.5) * sample_dt,
                  sample_dt=sample_dt)
    assert len(traj.times) == n_samples + 1
    # the dense propagator over one sample interval, applied per sample
    step = sla.expm(-1j * sample_dt * h.toarray())
    psi_exact = initial_state(basis)
    occ = dynamics._fock_table(basis)[:3]
    for n_photon in traj.n_photon:
        n_exact = occ @ np.abs(psi_exact) ** 2
        assert n_photon == pytest.approx(n_exact, abs=1e-10)
        psi_exact = step @ psi_exact
    assert traj.norm == pytest.approx(np.ones(n_samples + 1), abs=1e-10)


def test_evolve_memory_stays_flat_when_every_sample_fits_one_span():
    # at tiny energies r tau is tiny, so 1e4 samples fit one Chebyshev span;
    # a block holds at most _BLOCK_CAP of their states
    p = ModelParams(omega=1e-150, delta=1e-150, g1=0.0, j_hop=0.0, theta=0.0)
    tracemalloc.start()
    try:
        traj = evolve(p, FockBasis(n_max=4), t_final=1000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert len(traj.times) == 10001
    assert traj.n_photon == pytest.approx(
        np.tile([1.0, 0.0, 0.0], (10001, 1)), abs=1e-12)
    assert traj.norm == pytest.approx(np.ones(10001), abs=1e-12)


def old_term_count(z):
    """K by the bound 2 (z/2)^k/k! on 2|J_k(z)| (DLMF 10.14.4), summed over
    k >= K as a geometric series of ratio z/(2K + 2)."""
    k = max(2, int(z / 2) + 1)
    while (math.log(2.0) + k * math.log(z / 2) - math.lgamma(k + 1)
           - math.log1p(-z / (2 * k + 2))) >= math.log(dynamics._TAIL):
        k += 1
    return k


def test_chebyshev_terms_bound_the_dropped_bessel_tail():
    from scipy.special import jv

    for z in np.geomspace(0.05, 3000.0, 41):
        # tau = 1, c = 0, r = z: the row is (2 - delta_k0) (-i)^k J_k(z)
        a = dynamics._chebyshev_coefficients(np.array([1.0]), 0.0, z)
        n_terms = a.shape[1]
        k = np.arange(int(1.5 * z) + 60)
        two_j = 2.0 * np.abs(jv(k, z))
        # tail[K] = sum_{k >= K} 2|J_k(z)|; beyond 1.5 z + 60 it is < 1e-30
        tail = np.cumsum(two_j[::-1])[::-1]
        fewest = int(np.argmax(tail <= dynamics._TAIL))
        assert tail[n_terms] <= dynamics._TAIL
        # Kapteyn's bound costs at most a few terms over the fewest (14 at
        # z = 3000), the old bound 30% more; below z = 27 the old bound is
        # the tighter, by up to 2 terms (at z = 6-10)
        assert n_terms <= 1.02 * fewest + 3
        assert n_terms <= old_term_count(z) + 2
        assert a[0] == pytest.approx(
            np.where(k[:n_terms] == 0, 1.0, 2.0) * (-1j) ** k[:n_terms]
            * jv(k[:n_terms], z), rel=0, abs=1e-15 * max(z, 10.0))


@pytest.mark.parametrize("z", [0.0, 5e-324, 1e-9])
def test_chebyshev_terms_stop_at_two_where_z_is_tiny(z):
    # the tail beyond K = 2 is about z^2/4; at the smallest subnormal z, z/2
    # rounds to 0, and a bound that takes log(z/k) there raises ValueError
    a = dynamics._chebyshev_coefficients(np.array([1.0]), 0.0, z)
    assert a == pytest.approx(np.array([[1.0, -1j * z]]), rel=0, abs=1e-15)


def test_evolve_memory_stays_within_the_chunk_buffer_on_long_blocks():
    # blocks of 25 samples span r tau = 233 with K = 303 terms; the
    # recurrence holds _CHUNK of its K rows at a time (all K would take
    # K n 16 B = 14 MB here, against 96 n 16 B = 4.5 MB for the bound)
    p = dyn_params(theta=0.5)
    basis = FockBasis(n_max=8)
    n = basis.dim // 2
    evolve(p, basis, t_final=0.2)
    tracemalloc.start()
    try:
        build_full_hamiltonian(p, basis)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        traj = evolve(p, basis, t_final=5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 51
    assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12
    # the allowance is the peak of the full-basis Hamiltonian build, which
    # evolve does first (about 114 n x 16 B here)
    assert peak <= (dynamics._CHUNK + dynamics._BLOCK_CAP) * n * 16 + build


def test_evolve_keeps_the_initial_state_where_r_tau_underflows():
    # r sample_dt ~ 1e-150 x 1e-300 is 0 in float64, where J_k(0) = 0 for
    # every k > 0; the bound on the dropped terms takes log z
    p = ModelParams(omega=1e-150, delta=1e-150, g1=0.0, j_hop=0.0, theta=0.0)
    traj = evolve(p, FockBasis(n_max=2), t_final=1e-299, sample_dt=1e-300)
    assert len(traj.times) == 11
    assert traj.n_photon.tolist() == [[1.0, 0.0, 0.0]] * 11
    assert traj.norm.tolist() == [1.0] * 11


@pytest.mark.parametrize("t_final", [0.0, 0.05])
def test_evolve_shorter_than_one_sample_returns_initial_state(t_final):
    traj = evolve(dyn_params(theta=0.5), FockBasis(n_max=1), t_final=t_final)
    assert traj.times.tolist() == [0.0]
    assert traj.norm.tolist() == [1.0]
    assert traj.n_photon.tolist() == [[1.0, 0.0, 0.0]]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(theta=st.floats(-np.pi, np.pi), j_hop=st.floats(0.0, 0.3),
       delta=st.floats(10.0, 1000.0), g1=st.floats(0.0, 2.0))
@example(theta=0.7, j_hop=0.05, delta=50.0, g1=0.0)
@example(theta=np.pi, j_hop=0.0, delta=50.0, g1=0.4)
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_hamiltonian_equals_kronecker_reference(n_max, theta, j_hop, delta,
                                                g1):
    # the same entries in the same rounding, and no stored zeros where a
    # coupling vanishes
    p = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop, theta=theta)
    basis = FockBasis(n_max=n_max)
    h = build_full_hamiltonian(p, basis)
    ref = reference_hamiltonian(p, basis)
    assert isinstance(h, sp.csr_matrix)
    for m in (h, ref):
        m.sort_indices()
    assert np.array_equal(h.indptr, ref.indptr)
    assert np.array_equal(h.indices, ref.indices)
    assert np.array_equal(h.data, ref.data)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(theta=st.floats(-np.pi, np.pi), j_hop=st.floats(0.0, 0.3),
       delta=st.floats(10.0, 1000.0), g1=st.floats(0.0, 2.0))
@pytest.mark.parametrize("n_max", [2, 3])
def test_hamiltonian_commutes_with_ring_rotation(n_max, theta, j_hop, delta,
                                                 g1):
    # relabeling cavity and spin n as n + 1 maps H onto itself: the hopping
    # is the same on every bond of the ring
    p = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop, theta=theta)
    basis = FockBasis(n_max=n_max)
    d = n_max + 1
    photons, spins = fock_labels(basis)
    n, s = photons[:, [2, 0, 1]], spins[:, [2, 0, 1]]
    perm = (((n[:, 0] * d + n[:, 1]) * d + n[:, 2]) * 8
            + (s[:, 0] * 2 + s[:, 1]) * 2 + s[:, 2])
    assert np.array_equal(np.sort(perm), np.arange(basis.dim))
    h = build_full_hamiltonian(p, basis)
    rotated = h[perm][:, perm]
    assert abs(rotated - h).max() <= 1e-14 * abs(h).max()


@settings(derandomize=True, deadline=None, max_examples=10)
@given(j_hop=st.floats(0.0, 0.3), delta=st.floats(10.0, 1000.0),
       g1=st.floats(0.0, 2.0))
@example(j_hop=0.05, delta=50.0, g1=0.1)
@pytest.mark.parametrize("theta", [0.0, 0.3, -2.1, np.pi])
def test_hamiltonian_conserves_excitation_parity(theta, j_hop, delta, g1):
    # exp(i pi (N_photon + N_up)) commutes with H: every coupling changes
    # the total excitation number by an even amount
    p = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop, theta=theta)
    basis = FockBasis(n_max=2)
    photons, spins = fock_labels(basis)
    parity = (photons.sum(axis=1) + 3 - spins.sum(axis=1)) % 2   # 0 = up
    h = build_full_hamiltonian(p, basis).tocoo()
    nonzero = h.data != 0
    assert np.count_nonzero(nonzero) > 0
    assert np.array_equal(parity[h.row[nonzero]], parity[h.col[nonzero]])


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_zero_flux_mirror_symmetry_short():
    traj = evolve(dyn_params(theta=0.0), FockBasis(n_max=2), t_final=2.0)
    assert np.max(np.abs(traj.n_photon[:, 1] - traj.n_photon[:, 2])) <= 1e-12
    assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
@pytest.mark.parametrize("theta", [0.7, 1.9])
def test_flux_mirror_swaps_cavities_2_and_3(theta):
    # theta -> -theta is the 2<->3 mirror of the ring
    basis = FockBasis(n_max=2)
    plus = evolve(dyn_params(theta=theta), basis, t_final=2.0)
    minus = evolve(dyn_params(theta=-theta), basis, t_final=2.0)
    mirrored = minus.n_photon[:, [0, 2, 1]]
    assert np.max(np.abs(plus.n_photon - mirrored)) <= 1e-10


def test_evolve_validates_arguments():
    p = dyn_params()
    basis = FockBasis(n_max=1)
    with pytest.raises(DomainError):
        evolve(p, basis, t_final=-1.0)
    for t_final in (np.inf, np.nan):
        with pytest.raises(DomainError):
            evolve(p, basis, t_final=t_final)
    with pytest.raises(DomainError):
        evolve(p, basis, t_final=1.0, sample_dt=0.0)


def test_truncation_warning_fires_when_cutoff_populates():
    # n_max = 1 cannot hold the transfer dynamics for long; the cutoff
    # population check must notice
    with pytest.warns(TruncationWarning):
        evolve(dyn_params(theta=0.0, g1=0.4), FockBasis(n_max=1), t_final=5.0)


def synth_traj(n2, n3):
    n = len(n2)
    arr = np.zeros((n, 3))
    arr[:, 1] = n2
    arr[:, 2] = n3
    return Trajectory(times=np.linspace(0.0, n - 1.0, n), n_photon=arr,
                      norm=np.ones(n), params=dyn_params(), n_max=6)


def test_chirality_metric_synthetic():
    peak = [0, 0.2, 0.9, 0.2, 0, 0, 0, 0, 0, 0]
    late = [0, 0, 0, 0, 0, 0.2, 0.9, 0.2, 0, 0]
    assert chirality_metric(synth_traj(peak, late)) == 1.0
    assert chirality_metric(synth_traj(late, peak)) == -1.0
    assert chirality_metric(synth_traj(peak, peak)) == 0.0
    # no transfer at all
    flat = [0.0] * 10
    assert chirality_metric(synth_traj(flat, flat)) == 0.0
    # sub-floor ripples on one side must not count as a first peak
    ripple = [0, 0.05, 0.01, 0.05, 0.01, 0.2, 0.9, 0.2, 0, 0]
    assert chirality_metric(synth_traj(peak, ripple)) == 1.0


def superradiant_params(delta, j_hop, ratio, theta):
    """The ring at g1 = ratio * g1c, omega = 1."""
    p = params(theta=theta, delta=delta, j_hop=j_hop)
    return params(theta=theta, delta=delta, j_hop=j_hop,
                  g1=ratio * critical_coupling_min(p))


def test_exact_ground_energy_matches_dense():
    cases = [
        (1, dyn_params(theta=0.2)),
        # superradiant cases whose ground state carries ring momentum
        # +-2pi/3: a solve confined to momentum 0 misses them by up to 0.11
        (2, superradiant_params(20.0, 0.4, 1.5, 1.0)),
        (2, superradiant_params(20.0, 0.4, 1.5, 1.7)),
        (2, superradiant_params(10.0, 0.4, 1.2, 1.0)),
        # levels of different momentum nearly cross here
        (3, superradiant_params(10.0, 0.4, 1.1, 1.0)),
    ]
    for n_max, p in cases:
        basis = FockBasis(n_max=n_max)
        h = reference_hamiltonian(p, basis).toarray()
        dense = float(np.min(np.linalg.eigvalsh(h)))
        assert exact_ground_energy(p, basis) == pytest.approx(dense, rel=1e-9)


# float.hex of exact_ground_energy, captured before the real-form template
# replaced the complex build: per n_max, one row per theta of _FROZEN_THETAS,
# at the points (base, g1 = 0, J = 0, superradiant) of frozen_ground_points
_FROZEN_THETAS = (0.0, 0.3, math.pi / 2, 2.5, math.pi, -1.0)
_FROZEN_GROUND = {
    1: [
        ('-0x1.2c1e1ca6a819bp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.ef363d1883626p+4'),
        ('-0x1.2c1e1ca6a7ac7p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.edf628e8d5537p+4'),
        ('-0x1.2c1e1ca69fd1dp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.ed352505ea68fp+4'),
        ('-0x1.2c1e1ca6a5fa1p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.e9287787d61c1p+4'),
        ('-0x1.2c1e1ca6aafe6p+6', '-0x1.2c00000000000p+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.e51f0b6c77570p+4'),
        ('-0x1.2c1e1ca6a3864p+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e1ca2d5991p+6', '-0x1.e8ef69479e9bdp+4'),
    ],
    2: [
        ('-0x1.2c1e68f3a3bb7p+6', '-0x1.2c00000000000p+6', '-0x1.2c1e688ccccfdp+6', '-0x1.f6dea18aec7c9p+4'),
        ('-0x1.2c1e68eb27fd1p+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e688ccccfdp+6', '-0x1.f440a864db8eep+4'),
        ('-0x1.2c1e6890ab171p+6', '-0x1.2c00000000000p+6', '-0x1.2c1e688ccccfdp+6', '-0x1.f2f509f12d3ccp+4'),
        ('-0x1.2c1e68d62e4afp+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e688ccccfdp+6', '-0x1.ed33620e75313p+4'),
        ('-0x1.2c1e68fe5ae0bp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e688ccccfdp+6', '-0x1.e74ee64ebaeb5p+4'),
        ('-0x1.2c1e68ae20323p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e688ccccfdp+6', '-0x1.ecb9df3c27027p+4'),
    ],
    3: [
        ('-0x1.2c1e6a0ee12bbp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a511781p+6', '-0x1.0007c2f8ece91p+5'),
        ('-0x1.2c1e6a06242d9p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a511781p+6', '-0x1.fd3e61e8f6837p+4'),
        ('-0x1.2c1e69a8f1001p+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e69a511781p+6', '-0x1.faab2980b8abcp+4'),
        ('-0x1.2c1e69f089f4bp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a511781p+6', '-0x1.f4450050cc2bap+4'),
        ('-0x1.2c1e6a19ec101p+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e69a511781p+6', '-0x1.eb11bff88016dp+4'),
        ('-0x1.2c1e69c747c8fp+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e69a511781p+6', '-0x1.f1d5e0f1a8048p+4'),
    ],
    6: [
        ('-0x1.2c1e6a11aa9d4p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.0e9d856e2b561p+5'),
        ('-0x1.2c1e6a08ec545p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.0be103d0ba3e3p+5'),
        ('-0x1.2c1e69abab831p+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.0a01c6f972e39p+5'),
        ('-0x1.2c1e69f34eefbp+6', '-0x1.2c00000000001p+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.07cc660b832ddp+5'),
        ('-0x1.2c1e6a1cb71ffp+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.fb45e8ad3d5f6p+4'),
        ('-0x1.2c1e69ca06b3bp+6', '-0x1.2bfffffffffffp+6', '-0x1.2c1e69a7ccf53p+6', '-0x1.0150c9abfcd7bp+5'),
    ],
}


def frozen_ground_points(theta):
    return (dyn_params(theta), dyn_params(theta, g1=0.0),
            ModelParams(omega=1.0, delta=50.0, g1=0.1, j_hop=0.0, theta=theta),
            superradiant_params(20.0, 0.4, 1.5, theta))


@pytest.mark.parametrize("n_max", sorted(_FROZEN_GROUND))
def test_exact_ground_energy_bits_are_frozen(n_max):
    basis = FockBasis(n_max=n_max)
    got = [tuple(exact_ground_energy(p, basis).hex()
                 for p in frozen_ground_points(theta))
           for theta in _FROZEN_THETAS]
    assert got == _FROZEN_GROUND[n_max]


def test_exact_ground_energy_bits_are_frozen_off_the_energy_unit():
    p = ModelParams(omega=2.0, delta=60.0, g1=0.3, j_hop=0.1, theta=1.1)
    assert (exact_ground_energy(p, FockBasis(n_max=8)).hex()
            == '-0x1.6a4d9626c6838p+6')


def ground_real_form(p, basis):
    """The real matrix exact_ground_energy hands to the Lanczos recurrence,
    dense, and the energy it returns."""
    handed, lanczos_lowest = [], dynamics._lanczos_lowest

    def lanczos(h, *args):
        handed.append(h)
        return lanczos_lowest(h, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_lanczos_lowest", lanczos)
        energy = exact_ground_energy(p, basis)
    return handed[0].toarray(), energy


@settings(derandomize=True, deadline=None, max_examples=10)
@given(theta=st.floats(-np.pi, np.pi), j_hop=st.floats(0.0, 0.4),
       delta=st.floats(5.0, 1000.0), g1=st.floats(0.0, 2.0))
@example(theta=1.0, j_hop=0.4, delta=20.0, g1=0.75)
@pytest.mark.parametrize("n_max", [1, 2])
def test_ground_real_form_has_the_spectrum_of_h(n_max, theta, j_hop, delta,
                                                g1):
    # A = P23 K (the 2<->3 swap times complex conjugation) commutes with H
    # at every flux, so Re H - P23 Im H = W^dag H W with W unitary
    p = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop, theta=theta)
    mirrored = ModelParams(omega=1.0, delta=delta, g1=g1, j_hop=j_hop,
                           theta=-theta)
    basis = FockBasis(n_max=n_max)
    m, energy = ground_real_form(p, basis)
    assert np.array_equal(m, m.T)
    h = build_full_hamiltonian(p, basis).toarray()
    ev = np.linalg.eigvalsh(h)
    assert np.abs(np.linalg.eigvalsh(m) - ev).max() <= (
        1e-12 * np.abs(ev).max())
    # the theta -> -theta mirror: P23 M(theta) P23 = M(-theta)
    d = n_max + 1
    p23 = np.arange(basis.dim).reshape((d,) * 3 + (2,) * 3).transpose(
        0, 2, 1, 3, 5, 4).ravel()
    m_mirrored, energy_mirrored = ground_real_form(mirrored, basis)
    assert np.abs(m[p23][:, p23] - m_mirrored).max() <= (
        1e-15 * np.abs(h).max())
    assert abs(energy - ev.min()) <= 1e-12 * np.abs(ev).max()
    assert energy_mirrored == pytest.approx(energy, rel=1e-12)


def parent_real_form(p, basis):
    """Re H - P23 Im H by the route exact_ground_energy took before its
    template: the complex H, a row gather and a sparse subtraction."""
    d = basis.n_max + 1
    mate = np.ravel_multi_index(dynamics._fock_table(basis)[[0, 2, 1, 3, 5, 4]],
                                (d,) * 3 + (2,) * 3)
    h = build_full_hamiltonian(p, basis)
    return h.real - h.imag[mate]


@pytest.mark.parametrize("n_max", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, -1.0])
def test_ground_real_form_template_equals_the_complex_route(n_max, theta,
                                                             monkeypatch):
    builds, template = [], dynamics._real_form_template

    def counted(basis):
        builds.append(basis)
        return template(basis)

    handed, lanczos_lowest = [], dynamics._lanczos_lowest

    def lanczos(h, *args):
        handed.append(h)
        return lanczos_lowest(h, *args)

    monkeypatch.setattr(dynamics, "_real_form_template", counted)
    monkeypatch.setattr(dynamics, "_lanczos_lowest", lanczos)
    basis = FockBasis(n_max=n_max)
    for p in (dyn_params(theta), dyn_params(theta, g1=0.0),
              ModelParams(omega=1.0, delta=50.0, g1=0.1, j_hop=0.0,
                          theta=theta),
              superradiant_params(20.0, 0.4, 1.5, theta)):
        exact_ground_energy(p, basis)
        got, want = handed[-1], parent_real_form(p, basis)
        assert np.array_equal(got.toarray(), want.toarray())
        assert np.array_equal(got.toarray(), got.toarray().T)
        # the template keeps the zeros of g1 = 0, J = 0 or theta = 0; the
        # handed matrix drops them, so its CSR arrays are the parent's
        assert np.all(got.data != 0)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    # four parameter sets on one basis: one template, kept by the basis
    assert builds == [basis]
    assert basis._real_form is basis._real_form
    exact_ground_energy(dyn_params(theta), FockBasis(n_max=n_max))
    assert len(builds) == 2


def test_ground_template_is_read_only():
    form = FockBasis(n_max=1)._real_form
    for a in form:
        assert not a.flags.writeable


@pytest.mark.parametrize("k", [1, 2, 10, 170])
def test_lowest_ritz_pair_is_eigh_tridiagonals(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        alpha = rng.standard_normal(k) * 10.0
        beta = np.abs(rng.standard_normal(k - 1))
        theta, s = sla.eigh_tridiagonal(alpha, beta, select="i",
                                        select_range=(0, 0))
        assert dynamics._lowest_ritz(list(alpha), list(beta)) == (
            theta[0], s[-1, 0])


def test_lowest_ritz_pair_raises_typed_errors(monkeypatch):
    with pytest.raises(DomainError, match="overflows float64"):
        dynamics._lowest_ritz([1.0, math.inf], [1.0])
    with pytest.raises(DomainError, match="overflows float64"):
        dynamics._lowest_ritz([1.0, 2.0], [math.nan])
    import scipy.linalg.lapack as lapack
    dstebz = lapack.dstebz
    monkeypatch.setattr(lapack, "dstebz",
                        lambda *args: dstebz(*args)[:4] + (2,))
    with pytest.raises(ConvergenceError, match="info 2"):
        dynamics._lowest_ritz([1.0, 2.0], [1.0])


class CountedProducts:
    """h, counting the products h @ x."""

    def __init__(self, h):
        self.h, self.products = h, 0

    def __matmul__(self, x):
        self.products += 1
        return self.h @ x


def test_ground_lanczos_separates_nearly_crossing_levels(monkeypatch):
    # levels of different ring momentum nearly cross here; a restarted
    # Lanczos took 1421 products
    counted, lanczos_lowest = [], dynamics._lanczos_lowest

    def lanczos(h, *args):
        counted.append(CountedProducts(h))
        return lanczos_lowest(counted[-1], *args)

    monkeypatch.setattr(dynamics, "_lanczos_lowest", lanczos)
    exact_ground_energy(superradiant_params(10.0, 0.4, 1.1, 1.0),
                        FockBasis(n_max=8))
    assert counted[0].products <= 500


def test_ground_lanczos_raises_at_the_step_cap():
    h = sp.diags(np.arange(100.0), format="csr")
    v0 = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ConvergenceError, match="cap of 5 steps"):
        dynamics._lanczos_lowest(h, v0, 1e-12, 5)
    assert dynamics._lanczos_lowest(h, v0, 1e-12, 1000) == pytest.approx(
        0.0, abs=1e-12)


def test_import_leaves_out_scipy_sparse_linalg():
    # the ground-state solve needs only h @ x; scipy.sparse.linalg costs
    # about 2 MB of resident memory at import
    src = os.path.dirname(os.path.dirname(rabitri.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, rabitri; "
         "print('scipy.sparse.linalg' in sys.modules); "
         "p = rabitri.ModelParams(1.0, 50.0, 0.1, 0.05, 0.3); "
         "rabitri.exact_ground_energy(p, rabitri.FockBasis(n_max=1)); "
         "print('scipy.sparse.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.split() == ["False", "False"]


_SCIPY_FREE_PROBE = """
import contextlib, io, sys
import rabitri, rabitri.cli

def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(scipy())
with contextlib.redirect_stdout(io.StringIO()):
    assert rabitri.cli.main(["meanfield"]) == 0
    assert rabitri.cli.main(["spectrum", "--points", "3"]) == 0
print(scipy())
p = rabitri.ModelParams(omega=1.0, delta=50.0, g1=0.1, j_hop=0.05, theta=0.0)
traj = rabitri.evolve(p, rabitri.FockBasis(n_max=1), 0.5)
print(len(traj.times), "scipy.sparse" in sys.modules)
"""


def test_runs_that_build_no_sparse_hamiltonian_leave_out_scipy(tmp_path):
    # scipy is imported where a sparse H is built or solved, and takes
    # more than half of the package's import time
    src = os.path.dirname(os.path.dirname(rabitri.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", _SCIPY_FREE_PROBE],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, check=True)
    assert probe.stdout.splitlines() == ["[]", "[]", "6 True"]
    assert (tmp_path / "spectrum.csv").exists()


def test_exact_ground_energy_refuses_an_overflowing_hamiltonian():
    p = params(g1=1e306, delta=1e10)
    with pytest.raises(DomainError, match="overflows float64"):
        exact_ground_energy(p, FockBasis(n_max=1))


@pytest.mark.parametrize("s", [1e-300, 1e-100, 1e100, 1e300])
def test_exact_ground_energy_scales_with_the_energy_unit(s):
    # solved in units of omega: in raw units the Hamiltonian's entries
    # underflow or overflow float64 at these scales
    basis = FockBasis(n_max=3)
    scaled = params(theta=0.3, g1=0.1, omega=s, delta=50.0 * s,
                    j_hop=0.05 * s)
    ref = exact_ground_energy(params(theta=0.3, g1=0.1,
                                     delta=scaled.delta / s,
                                     j_hop=scaled.j_hop / s), basis)
    assert exact_ground_energy(scaled, basis) == pytest.approx(
        s * ref, rel=1e-13, abs=0)


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_trajectory_csv_roundtrip(tmp_path):
    # `rabitri dynamics` defaults to the parameters of dyn_params()
    traj = evolve(dyn_params(), FockBasis(n_max=1), t_final=0.5)
    out = tmp_path / "traj.csv"
    assert main(["dynamics", "--nmax", "1", "--tfinal", "0.5",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# dynamics ")
    assert lines[1] == f"# chirality = {chirality_metric(traj):+g}"
    assert lines[2] == "t,N1,N2,N3,norm"
    data = np.loadtxt(str(out), delimiter=",", skiprows=3)
    assert data.shape == (6, 5)
    assert data[:, 0] == pytest.approx(traj.times, abs=0)
    assert data[:, 1:4] == pytest.approx(traj.n_photon, rel=1e-15)
