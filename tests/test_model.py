import math

import pytest

from rabitri import DomainError, ModelParams, PhaseLabel
from rabitri.model import (MOMENTA, TWO_THIRDS_PI, bare_coupling,
                           classify_phase, critical_coupling,
                           critical_coupling_min, critical_flux, softest_mode)

from conftest import params

THETA_C = 1.6205693443218139   # frozen: arccos[-2J/(sqrt(8J^2+w^2)+w)], J=0.05


def test_theta_wrapped_into_half_open_interval():
    assert params(theta=0.3).theta == pytest.approx(0.3, abs=0)
    assert params(theta=0.3 + 2 * math.pi).theta == pytest.approx(0.3, rel=1e-15)
    assert params(theta=math.pi).theta == math.pi
    # -pi is gauge equivalent to +pi and maps to the included endpoint
    assert params(theta=-math.pi).theta == math.pi
    assert params(theta=3 * math.pi).theta == pytest.approx(math.pi, rel=1e-15)
    assert params(theta=-0.4).theta == pytest.approx(-0.4, abs=0)


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0), dict(omega=-1.0), dict(delta=0.0), dict(delta=-2.0),
    dict(g1=-0.1), dict(j_hop=-0.05), dict(theta=float("nan")),
    dict(omega=float("inf")),
])
def test_invalid_params_raise(kwargs):
    base = dict(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05, theta=0.0)
    base.update(kwargs)
    with pytest.raises(DomainError):
        ModelParams(**base)


def test_bare_coupling():
    p = params(g1=0.3, delta=50.0)
    assert bare_coupling(p) == pytest.approx(0.3 * math.sqrt(50.0), rel=1e-15)


def test_bare_coupling_survives_an_underflowing_product():
    # omega*delta = 1.1e-442 underflows to zero, but g = g1 sqrt(omega)
    # sqrt(delta) = 5.5e63 does not
    p = ModelParams(omega=7.7e-197, delta=1.4e-246, g1=5.3e284, j_hop=0.0,
                    theta=0.0)
    want = 5.3e284 * math.sqrt(7.7e-197) * math.sqrt(1.4e-246)
    assert bare_coupling(p) == pytest.approx(want, rel=1e-15)
    assert bare_coupling(p) == pytest.approx(5.5e63, rel=1e-2)
    # where g underflows to zero whichever way it is computed, it is zero
    p = ModelParams(omega=1e-310, delta=1e-310, g1=1e-320, j_hop=0.0,
                    theta=0.0)
    assert bare_coupling(p) == 0.0


def test_critical_coupling_decoupled_ring():
    # J = 0 removes the ring: every mode reduces to the single-cavity value 1/2
    p = params(j_hop=0.0, theta=0.7)
    for q in MOMENTA:
        assert critical_coupling(p, q) == pytest.approx(0.5, abs=1e-15)


def test_critical_coupling_rejects_bad_momentum():
    with pytest.raises(DomainError):
        critical_coupling(params(), 0.5)


@pytest.mark.parametrize("theta, g1c, q_soft", [
    (0.0, 0.48733971724044817, -TWO_THIRDS_PI),
    (0.1, 0.48738360863356933, -TWO_THIRDS_PI),
    (-0.1, 0.48738360863356933, -TWO_THIRDS_PI),
    (THETA_C, 0.4987546373423249, 0.0),
    (1.7, 0.4967684446929091, 0.0),
])
def test_softest_mode_frozen(theta, g1c, q_soft):
    got_g1c, got_q = softest_mode(params(theta=theta))
    assert got_g1c == pytest.approx(g1c, rel=1e-14)
    assert got_q == q_soft
    assert critical_coupling_min(params(theta=theta)) == got_g1c


def test_boundary_even_in_momentum():
    # g1c(q) = g1c(-q) for any flux: chirality shows in the spectrum, not
    # in the boundary location
    for th in (0.0, 0.3, -1.2, 2.9):
        p = params(theta=th)
        assert critical_coupling(p, TWO_THIRDS_PI) == pytest.approx(
            critical_coupling(p, -TWO_THIRDS_PI), rel=1e-15)


def test_critical_flux_frozen():
    assert critical_flux(params()) == pytest.approx(THETA_C, rel=1e-15)
    # closed form check at a second hopping strength
    p = params(j_hop=0.2)
    expect = math.acos(-0.4 / (math.sqrt(8 * 0.04 + 1.0) + 1.0))
    assert critical_flux(p) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("omega", [1e-200, 1e-3, 1e3, 1e200])
def test_critical_flux_and_phase_independent_of_energy_unit(omega):
    # theta_c and the phase depend on J/omega alone; J^2 and omega^2
    # underflow at omega = 1e-200 and overflow at 1e200
    def scaled(theta, g1):
        return params(theta=theta, g1=g1, omega=omega, delta=100.0 * omega,
                      j_hop=0.05 * omega)

    assert critical_flux(scaled(0.0, 0.1)) == pytest.approx(THETA_C,
                                                            rel=1e-15)
    for theta in (0.0, 0.1, 1.6, 1.65, THETA_C, 1.7, math.pi):
        for g1 in (0.3, 0.55):
            assert (classify_phase(scaled(theta, g1))
                    is classify_phase(params(theta=theta, g1=g1)))


@pytest.mark.parametrize("theta, g1, label", [
    (0.0, 0.3, PhaseLabel.NP),
    (1.7, 0.49, PhaseLabel.NP),
    (0.0, 0.55, PhaseLabel.AFSP),
    (1e-10, 0.55, PhaseLabel.AFSP),
    (0.1, 0.55, PhaseLabel.CSP),
    (-0.1, 0.55, PhaseLabel.CSP),
    (THETA_C, 0.55, PhaseLabel.TRIPLE_POINT),
    (-THETA_C, 0.55, PhaseLabel.TRIPLE_POINT),
    (1.7, 0.55, PhaseLabel.FSP),
    (math.pi, 0.55, PhaseLabel.FSP),
])
def test_classify_phase(theta, g1, label):
    assert classify_phase(params(theta=theta, g1=g1)) is label


def test_classify_phase_exactly_at_boundary_is_superradiant():
    p = params(theta=0.1)
    g1c = critical_coupling_min(p)
    assert classify_phase(params(theta=0.1, g1=g1c)) is PhaseLabel.CSP
    assert classify_phase(params(theta=0.1, g1=math.nextafter(g1c, 0.0))) \
        is PhaseLabel.NP


def test_phase_label_values():
    assert PhaseLabel.NP.value == "normal"
    assert PhaseLabel.AFSP.value == "antiferromagnetic"
    assert PhaseLabel.CSP.value == "chiral"
    assert PhaseLabel.FSP.value == "ferromagnetic"
    assert PhaseLabel.TRIPLE_POINT.value == "triple-point"
