"""Parameters, phase boundaries, and phase classification.

Three single-mode cavities on a ring, each coupled to a two-level atom
(Rabi coupling g), with complex photon hopping J e^{i theta} around the
triangle. The gauge phase theta threads a total flux of 3*theta; theta not
a multiple of pi breaks time-reversal symmetry.

All energies share one unit; the solvers divide it out (`in_omega_units`).
The dimensionless coupling is g1 = g / sqrt(omega * delta).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import numerics
from .errors import DomainError

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
MOMENTA = (0.0, TWO_THIRDS_PI, -TWO_THIRDS_PI)

# tolerance for "exactly at" comparisons in phase classification
_CLASSIFY_TOL = 1e-9


class PhaseLabel(Enum):
    NP = "normal"
    AFSP = "antiferromagnetic"
    CSP = "chiral"
    FSP = "ferromagnetic"
    TRIPLE_POINT = "triple-point"


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set for the three-cavity ring.

    theta is wrapped into (-pi, pi] on construction so that gauge-equivalent
    inputs (theta + 2*pi*k) produce identical objects.
    """

    omega: float
    delta: float
    g1: float
    j_hop: float
    theta: float

    def __post_init__(self):
        for name in ("omega", "delta", "g1", "j_hop", "theta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.omega <= 0 or self.delta <= 0:
            raise DomainError("omega and delta must be positive")
        if self.g1 < 0 or self.j_hop < 0:
            raise DomainError("g1 and j_hop must be non-negative")
        wrapped = math.remainder(self.theta, 2.0 * math.pi)
        if wrapped <= -math.pi:
            wrapped = math.pi
        object.__setattr__(self, "theta", wrapped)


def in_omega_units(params: ModelParams) -> ModelParams:
    """The same ring in units of omega: 1, delta/omega, J/omega, g1, theta.

    A ratio that leaves float64 raises DomainError naming it: delta/omega or
    J/omega overflowing to inf, or delta/omega underflowing to 0.
    """
    if params.omega == 1.0:     # already in units of omega
        return params
    delta, j_hop = params.delta / params.omega, params.j_hop / params.omega
    for name, ratio, value in (("delta/omega", delta, params.delta),
                               ("J/omega", j_hop, params.j_hop)):
        if ratio == math.inf:
            raise DomainError(f"{name} = {value!r}/{params.omega!r} "
                              "overflows float64")
    if delta == 0:
        raise DomainError(f"delta/omega = {params.delta!r}/{params.omega!r} "
                          "underflows float64 to 0")
    return replace(params, omega=1.0, delta=delta, j_hop=j_hop)


def bare_coupling(params: ModelParams) -> float:
    """Dimensionful coupling g = g1 * sqrt(omega) * sqrt(delta)."""
    nb = numerics.of(params.omega)
    return params.g1 * nb.sqrt(params.omega) * nb.sqrt(params.delta)


def critical_coupling(params: ModelParams, q: float) -> float:
    """Critical dimensionless coupling g1c(q) for momentum mode q.

    g1c(q) = (1/2) * sqrt[(1 + 4jc*cq + 4jc^2*cos(theta+q)cos(theta-q))
                          / (1 + 2jc*cq)],   jc = J/omega, cq = cos(theta)cos(q).
    """
    _check_momentum(q)
    nb = numerics.of(params.omega)
    q = round(q / TWO_THIRDS_PI) * 2 * nb.pi() / 3   # at working precision
    th, jr = nb.num(params.theta), params.j_hop / params.omega
    cq = nb.cos(th) * nb.cos(q)
    den = 1 + 2 * jr * cq
    if den <= 0.0:
        raise DomainError("hopping too strong: boundary formula denominator <= 0")
    num = 1 + 4 * jr * cq + 4 * jr * jr * nb.cos(th + q) * nb.cos(th - q)
    if num < 0.0:
        raise DomainError("hopping too strong: boundary formula radicand < 0")
    return nb.sqrt(num / den) / 2


def softest_mode(params: ModelParams) -> tuple[float, float]:
    """(g1c_min, q_soft): the smallest critical coupling and its momentum.

    Ties (theta = 0 or theta = theta_c) resolve to the non-positive q member
    so downstream consumers get a deterministic label.
    """
    best = None
    for q in (0.0, -TWO_THIRDS_PI, TWO_THIRDS_PI):
        g1c = critical_coupling(params, q)
        if best is None or best[0] - g1c > 1e-15:
            best = (g1c, q)
    return best


def critical_coupling_min(params: ModelParams) -> float:
    return softest_mode(params)[0]


def critical_flux(params: ModelParams) -> float:
    """Flux theta_c where the q=0 and q=-2pi/3 boundaries cross.

    theta_c = arccos[-2jr / (sqrt(8jr^2 + 1) + 1)],   jr = J/omega.
    """
    jr = params.j_hop / params.omega
    return math.acos(-2.0 * jr / (math.sqrt(8.0 * jr * jr + 1.0) + 1.0))


def classify_phase(params: ModelParams) -> PhaseLabel:
    """Phase of the ground state at (g1, theta).

    Normal phase strictly below the softest critical coupling; above it the
    displacement pattern is set by the flux: antiferromagnetic at theta = 0,
    chiral for 0 < |theta| < theta_c, ferromagnetic for theta_c < |theta| <= pi,
    with the triple point at |theta| = theta_c.
    """
    if params.g1 < critical_coupling_min(params):
        return PhaseLabel.NP
    ath = abs(params.theta)
    thc = critical_flux(params)
    if ath <= _CLASSIFY_TOL:
        return PhaseLabel.AFSP
    if abs(ath - thc) < _CLASSIFY_TOL:
        return PhaseLabel.TRIPLE_POINT
    if ath < thc:
        return PhaseLabel.CSP
    return PhaseLabel.FSP


def _check_momentum(q: float) -> None:
    if not any(abs(q - qq) <= 1e-12 for qq in MOMENTA):
        raise DomainError(f"momentum must be one of 0, +-2pi/3; got {q!r}")
