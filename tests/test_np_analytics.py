import math

import pytest

from rabitri import DomainError
from rabitri.model import MOMENTA, TWO_THIRDS_PI, critical_coupling_min
from rabitri.np_analytics import (excitation_energies, ground_energy_np,
                                  local_photon_np, mode, observables_np,
                                  variance_p_np, variance_x_np)

from conftest import params


def test_mode_fields_recompute():
    p = params(theta=0.4, g1=0.25)
    q = TWO_THIRDS_PI
    m = mode(p, q)
    w, g1, j = p.omega, p.g1, p.j_hop
    wq = w - 2 * w * g1 ** 2 + 2 * j * math.cos(p.theta - q)
    wmq = w - 2 * w * g1 ** 2 + 2 * j * math.cos(p.theta + q)
    assert m.omega_q == pytest.approx(wq, rel=1e-15)
    assert m.Omega_plus == pytest.approx(wq + wmq, rel=1e-14)
    assert m.Omega_minus == pytest.approx(4 * j * math.sin(p.theta) * math.sin(q),
                                          rel=1e-13)
    k4 = 4 * w * g1 ** 2
    eps = 0.5 * (math.sqrt((wq + wmq) ** 2 - k4 ** 2) + (wq - wmq))
    assert m.epsilon == pytest.approx(eps, rel=1e-12)


def test_mode_rejects_bad_momentum():
    with pytest.raises(DomainError):
        mode(params(), 1.0)


def test_excitation_energies_frozen():
    p = params(g1=0.3)
    eps = excitation_energies(p)
    assert eps == pytest.approx([0.7486654793697919, 0.7486654793697919,
                                 0.9022194854911969], rel=1e-14)


def test_zero_flux_momentum_pair_degenerate():
    p = params(theta=0.0, g1=0.35)
    assert mode(p, TWO_THIRDS_PI).epsilon == mode(p, -TWO_THIRDS_PI).epsilon


def test_flux_splits_momentum_pair():
    p = params(theta=0.5, g1=0.35)
    mp_, mm_ = mode(p, TWO_THIRDS_PI), mode(p, -TWO_THIRDS_PI)
    assert mp_.epsilon != pytest.approx(mm_.epsilon, rel=1e-6)
    # the pair shares Omega_plus, the splitting is all in Omega_minus
    assert mp_.Omega_plus == pytest.approx(mm_.Omega_plus, rel=1e-15)
    assert mp_.Omega_minus == pytest.approx(-mm_.Omega_minus, rel=1e-13)


def test_closed_forms_refuse_superradiant_regime():
    p = params(theta=0.1)
    g1c = critical_coupling_min(p)
    for g1 in (g1c, 1.2 * g1c):
        with pytest.raises(DomainError):
            excitation_energies(params(theta=0.1, g1=g1))
        with pytest.raises(DomainError):
            local_photon_np(params(theta=0.1, g1=g1))


def test_variance_forms_agree():
    # the squeezing form exp(+-4 lambda_q) against the equivalent ratio
    # (Omega_plus +- 4 omega g1^2)/(2 eps - Omega_minus), averaged over q
    for th, g1 in [(0.0, 0.2), (0.1, 0.45), (1.7, 0.48), (2.5, 0.3)]:
        p = params(theta=th, g1=g1)
        k4 = 4.0 * p.omega * p.g1 ** 2
        ratio_x = ratio_p = 0.0
        for q in MOMENTA:
            m = mode(p, q)
            ratio_x += (m.Omega_plus + k4) / (2.0 * m.epsilon - m.Omega_minus)
            ratio_p += (m.Omega_plus - k4) / (2.0 * m.epsilon - m.Omega_minus)
        assert variance_x_np(p) == pytest.approx(ratio_x / 3.0, rel=1e-12)
        assert variance_p_np(p) == pytest.approx(ratio_p / 3.0, rel=1e-12)


def test_per_mode_uncertainty_product():
    # cross the two algebraic forms so the product is not trivially 1
    for th, g1 in [(0.1, 0.4), (1.7, 0.45)]:
        p = params(theta=th, g1=g1)
        k4 = 4 * p.omega * g1 ** 2
        for q in MOMENTA:
            m = mode(p, q)
            vx = (m.Omega_plus + k4) / (2 * m.epsilon - m.Omega_minus)
            vp = math.exp(-4 * m.lambda_q)
            assert vx * vp == pytest.approx(1.0, abs=1e-12)


def test_vacuum_limit():
    p = params(g1=0.0, theta=0.9)
    assert local_photon_np(p) == pytest.approx(0.0, abs=1e-15)
    assert variance_x_np(p) == pytest.approx(1.0, rel=1e-15)
    assert variance_p_np(p) == pytest.approx(1.0, rel=1e-15)


def test_ground_energy_recompute():
    p = params(theta=0.1, g1=0.3, delta=50.0)
    w, d, g1, j = p.omega, p.delta, p.g1, p.j_hop
    e0 = 3 * (-0.5 * d - w * g1 ** 2 + (w + j) * w * g1 ** 2 / d)
    corr = sum(0.5 * (mode(p, q).epsilon - mode(p, q).omega_q) for q in MOMENTA)
    assert ground_energy_np(p) == pytest.approx(e0 + corr, rel=1e-15)


@pytest.mark.parametrize("s", [1e-100, 1e-3, 1e3, 1e100])
def test_ground_energy_scales_with_the_energy_unit(s):
    # (omega, Delta, J) -> s (omega, Delta, J) scales the energy by s
    ref = ground_energy_np(params(theta=0.3, g1=0.3, delta=50.0))
    got = ground_energy_np(params(theta=0.3, g1=0.3, omega=s,
                                  delta=50.0 * s, j_hop=0.05 * s))
    assert got == pytest.approx(s * ref, rel=1e-14, abs=0)


def test_observables_bundle_matches_parts():
    p = params(theta=1.7, g1=0.4)
    obs = observables_np(p)
    assert obs.photon_number == local_photon_np(p)
    assert obs.var_x == variance_x_np(p)
    assert obs.var_p == variance_p_np(p)
    assert obs.ground_energy == ground_energy_np(p)
