import numpy as np
import pytest
import scipy.linalg as sla

from rabitri import DomainError, ModelParams, ResourceError, TruncationWarning
from rabitri.dynamics import (FockBasis, Trajectory, build_full_hamiltonian,
                              chirality_metric, evolve, exact_ground_energy,
                              initial_state, number_operators,
                              write_trajectory_csv)

from conftest import params


def dyn_params(theta=0.0, g1=0.1):
    return ModelParams(omega=1.0, delta=50.0, g1=g1, j_hop=0.05, theta=theta)


def test_basis_dimensions():
    assert FockBasis(n_max=1).dim == 64
    assert FockBasis(n_max=6).dim == 7 ** 3 * 8


@pytest.mark.parametrize("bad", [0, -1, 2.5, "3"])
def test_basis_rejects_bad_nmax(bad):
    with pytest.raises(DomainError):
        FockBasis(n_max=bad)


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
    n_ops = number_operators(basis)
    occ = [float(np.real(np.vdot(psi, op @ psi))) for op in n_ops]
    assert occ == pytest.approx([1.0, 0.0, 0.0], abs=0)


def test_hamiltonian_hermitian():
    p = dyn_params(theta=0.9)
    h = build_full_hamiltonian(p, FockBasis(n_max=2))
    assert abs(h - h.conj().T).max() <= 1e-14


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
def test_evolve_matches_dense_propagator():
    p = dyn_params(theta=0.5)
    basis = FockBasis(n_max=1)
    h = build_full_hamiltonian(p, basis).toarray()
    psi0 = initial_state(basis)
    t = 3.0
    traj = evolve(p, basis, t_final=t)
    n_ops = number_operators(basis)
    assert len(traj.times) == 31
    for ts, n_photon in zip(traj.times, traj.n_photon):
        psi_exact = sla.expm(-1j * h * ts) @ psi0
        n_exact = [float(np.real(np.vdot(psi_exact, op @ psi_exact)))
                   for op in n_ops]
        assert n_photon == pytest.approx(n_exact, abs=1e-10)
    assert traj.norm == pytest.approx(np.ones(31), abs=1e-10)
    assert traj.times[-1] == pytest.approx(t, abs=0)


@pytest.mark.parametrize("theta", [0.0, 0.3, -2.1, np.pi])
def test_hamiltonian_conserves_excitation_parity(theta):
    # exp(i pi (N_photon + N_up)) commutes with H: every coupling changes
    # the total excitation number by an even amount
    basis = FockBasis(n_max=2)
    d = basis.n_max + 1
    idx = np.arange(basis.dim)
    f, spins = idx // 8, idx % 8
    n_photon = f // (d * d) + (f // d) % d + f % d
    n_up = 3 - sum((spins >> b) & 1 for b in range(3))   # 0 bit = up
    parity = (n_photon + n_up) % 2
    h = build_full_hamiltonian(dyn_params(theta=theta), basis).tocoo()
    nonzero = h.data != 0
    assert np.count_nonzero(nonzero) > 0
    assert np.array_equal(parity[h.row[nonzero]], parity[h.col[nonzero]])


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_zero_flux_mirror_symmetry_short():
    traj = evolve(dyn_params(theta=0.0), FockBasis(n_max=2), t_final=2.0)
    assert np.max(np.abs(traj.n_photon[:, 1] - traj.n_photon[:, 2])) <= 1e-12
    assert np.max(np.abs(traj.norm - 1.0)) <= 1e-12


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


def test_exact_ground_energy_matches_dense():
    p = dyn_params(theta=0.2)
    basis = FockBasis(n_max=1)
    h = build_full_hamiltonian(p, basis).toarray()
    dense = float(np.min(np.linalg.eigvalsh(h)))
    assert exact_ground_energy(p, basis) == pytest.approx(dense, rel=1e-9)


@pytest.mark.filterwarnings("ignore::rabitri.TruncationWarning")
def test_trajectory_csv_roundtrip(tmp_path):
    traj = evolve(dyn_params(), FockBasis(n_max=1), t_final=0.5)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, str(out), comments=("alpha", "beta"))
    lines = out.read_text().splitlines()
    assert lines[0] == "# alpha" and lines[1] == "# beta"
    assert lines[2] == "t,N1,N2,N3,norm"
    data = np.loadtxt(str(out), delimiter=",", skiprows=3)
    assert data.shape == (6, 5)
    assert data[:, 0] == pytest.approx(traj.times, abs=0)
    assert data[:, 1:4] == pytest.approx(traj.n_photon, rel=1e-15)
