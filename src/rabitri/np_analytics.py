"""Closed-form normal-phase quantities.

With all displacements zero the quadratic photon Hamiltonian decouples in
the ring momentum basis q in {0, +-2pi/3}. Each momentum pair (q, -q) is a
two-mode squeezing problem with dispersion

    omega_q = omega - 2*omega*g1^2 + 2J cos(theta - q)
    Omega_plus  = omega_q + omega_{-q}
    Omega_minus = omega_q - omega_{-q} = 4J sin(theta) sin(q)

excitation energy eps_q = (sqrt(Omega_plus^2 - 16 omega^2 g1^4) + Omega_minus)/2
and squeezing parameter lambda_q fixing the local quadrature variances.

Numerical note: the radicand is evaluated in the factored form
(Omega_plus - 4*omega*g1^2)(Omega_plus + 4*omega*g1^2) with the first factor
expanded to 2*omega - 8*omega*g1^2 + 4J cos(theta)cos(q). Near the boundary
that factor is a benign linear cancellation, while squaring Omega_plus first
would lose half the digits.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .model import MOMENTA, ModelParams, _check_momentum, critical_coupling_min


@dataclass(frozen=True)
class MomentumMode:
    q: float
    omega_q: float
    Omega_plus: float
    Omega_minus: float
    epsilon: float
    lambda_q: float


@dataclass(frozen=True)
class NpObservables:
    photon_number: float
    var_x: float
    var_p: float
    ground_energy: float


def _dispersion(params: ModelParams, q: float) -> float:
    w, g1, j, th = params.omega, params.g1, params.j_hop, params.theta
    return w - 2.0 * w * g1 * g1 + 2.0 * j * math.cos(th - q)


def _soft_factor(params: ModelParams, q: float) -> float:
    # Omega_plus - 4*omega*g1^2, expanded so the near-critical cancellation
    # happens in a single linear expression
    w, g1, j, th = params.omega, params.g1, params.j_hop, params.theta
    return 2.0 * w - 8.0 * w * g1 * g1 + 4.0 * j * math.cos(th) * math.cos(q)


def mode(params: ModelParams, q: float) -> MomentumMode:
    """All per-mode normal-phase quantities at momentum q.

    Raises DomainError past the physical NP regime for this mode
    (Omega_plus^2 < 16 omega^2 g1^4), where the excitation energy would
    turn complex and the superradiant branch must be used instead, and
    where the radicand (Omega_plus - 4 omega g1^2)(Omega_plus + 4 omega g1^2)
    falls below the normal float64 range, which costs eps_q its digits.
    """
    _check_momentum(q)
    w, g1 = params.omega, params.g1
    wq = _dispersion(params, q)
    wmq = _dispersion(params, -q)
    op = wq + wmq
    om = wq - wmq
    k4 = 4.0 * w * g1 * g1
    lo = _soft_factor(params, q)   # op - k4, computed stably
    hi = op + k4
    if lo < 0.0 or hi < 0.0:
        raise DomainError(
            f"mode q={q:.6f} outside the normal-phase domain (g1={g1})")
    rad = lo * hi
    if rad < sys.float_info.min:
        raise DomainError(f"mode q={q:.6f}: the radicand {rad:.3g} "
                          "underflows float64")
    root = math.sqrt(rad)
    eps = 0.5 * (root + om)
    lam = 0.125 * math.log(hi / lo) if g1 > 0.0 else 0.0
    return MomentumMode(q=q, omega_q=wq, Omega_plus=op, Omega_minus=om,
                        epsilon=eps, lambda_q=lam)


def _require_np(params: ModelParams) -> None:
    if params.g1 >= critical_coupling_min(params):
        raise DomainError(
            f"g1={params.g1} is at or beyond the critical coupling "
            f"{critical_coupling_min(params):.12f}; normal-phase closed "
            "forms do not apply")


def _modes(params: ModelParams) -> list[MomentumMode]:
    """The modes at the three momenta, once params are checked to lie
    below the critical coupling."""
    _require_np(params)
    return [mode(params, q) for q in MOMENTA]


def excitation_energies(params: ModelParams) -> list[float]:
    """The three excitation energies, sorted ascending."""
    return sorted(m.epsilon for m in _modes(params))


def local_photon_np(params: ModelParams) -> float:
    """Site-local mean photon number (site independent in the NP).

    (1/2N) sum_q [Omega_plus,q / (2 eps_q - Omega_minus,q) - 1].
    """
    return sum(m.Omega_plus / (2.0 * m.epsilon - m.Omega_minus) - 1.0
               for m in _modes(params)) / 6.0


def variance_x_np(params: ModelParams) -> float:
    """Local (delta x)^2 with x = a + a^dagger: (1/N) sum_q exp(4 lambda_q)."""
    return sum(math.exp(4.0 * m.lambda_q) for m in _modes(params)) / 3.0


def variance_p_np(params: ModelParams) -> float:
    """Local (delta p)^2 with p = i(a^dagger - a)."""
    return sum(math.exp(-4.0 * m.lambda_q) for m in _modes(params)) / 3.0


def ground_energy_np(params: ModelParams) -> float:
    """Normal-phase ground energy E0 + (1/2) sum_q (eps_q - omega_q).

    E0 = 3[-delta/2 - omega g1^2 + (omega + J) omega g1^2 / delta] carries
    the leading correction (omega + J) g^2/delta^2 of the photon model.
    """
    modes = _modes(params)
    w, d, g1, j = params.omega, params.delta, params.g1, params.j_hop
    e0 = 3.0 * (-0.5 * d - w * g1 * g1 + (w + j) * w * g1 * g1 / d)
    return e0 + sum(0.5 * (m.epsilon - m.omega_q) for m in modes)


def observables_np(params: ModelParams) -> NpObservables:
    """Convenience bundle of the four NP observables."""
    return NpObservables(
        photon_number=local_photon_np(params),
        var_x=variance_x_np(params),
        var_p=variance_p_np(params),
        ground_energy=ground_energy_np(params),
    )
