"""Near-critical sweeps and power-law fits of the transition exponents.

For a reduced coupling delta = |g1/g1c - 1| the module evaluates gap
energies, per-site photon numbers and quadrature variances on log grids on
both sides of the transition, fits log-log slopes, and assembles a report
per transition (ring-symmetric, chiral, uniform, and the triple point).

Every point is evaluated by `bogoliubov.point_observables`: below the
transition from the normal-phase closed forms (float64 suffices down to
delta ~ 1e-11 with the factored gap expression), above around the roots of
`meanfield.continued_roots` in one stack per precision: the float64 ones
(delta >= 1e-4) in one Colpa step, and all 50-digit ones in another.

Fit windows: every report row is fitted on one asymptotic window,
delta in [1e-9, 1e-6]. There the local slope d log y / d log delta has
settled on its universal value (or on zero, for rows with a finite limit)
at all four transitions, whereas at larger delta crossovers, condensate
dips and slow corrections bend it. The two exceptions are the chiral
transition's distinguished-site photon number and variance above the
transition: their slope passes through the unusual exponent in a narrow
crossover band, and _CROSSOVER_WINDOWS fits them there.

The z = gamma/nu pairs are derived: a power-law var_x row is paired with
the gap whose mode carries its largest share (var_x_modes) at the smallest
delta of its window, if that gap vanishes as a power law.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics
from .bogoliubov import point_observables
from .errors import CriticalPointError, DomainError, FitRejected
from .meanfield import at_critical_point, continued_roots
from .model import (ModelParams, PhaseLabel, classify_phase,
                    critical_coupling_min, in_omega_units)

_QUANTITIES = ("eps1", "eps2", "photon_n", "var_x", "var_p")
_DEFAULT_WINDOW = (1e-5, 1e-2)     # SweepSpec defaults
_DEFAULT_POINTS = 25
_REPORT_WINDOW = (1e-9, 1e-6)      # asymptotic window of every report row
_REPORT_POINTS = 12
_FLAT_SLOPE = 0.05      # |slope| below this reads as a finite limit
_R2_MIN = 0.999
_SIGN = {"below": -1.0, "above": 1.0}   # side -> sign of g1/g1c - 1

# the chiral transition's distinguished site above the transition carries
# the unusual exponents (beta 1/3, nu 1/6): its local log-log slope passes
# through that value in a narrow crossover band instead of settling on it,
# so these two rows are fitted inside the band. Keys:
# (transition, side, quantity, site).
_CROSSOVER_WINDOWS: dict[tuple, tuple[float, float]] = {
    ("csp", "above", "var_x", 1): (1.687e-04, 3e-04),
    ("csp", "above", "photon_n", 1): (5.335e-11, 1.149e-10),
}

_TRANSITION_NAMES = {
    PhaseLabel.AFSP: ("afsp", "NP-AFSP"),
    PhaseLabel.CSP: ("csp", "NP-CSP"),
    PhaseLabel.TRIPLE_POINT: ("tp", "TP"),
    PhaseLabel.FSP: ("fsp", "NP-FSP"),
}


@dataclass(frozen=True)
class SweepSpec:
    theta: float
    side: str                      # "below" | "above"
    quantity: str                  # eps1|eps2|photon_n|var_x|var_p
    site: int | None = None        # 1..3 for per-site quantities
    window: tuple[float, float] = _DEFAULT_WINDOW
    n_points: int = _DEFAULT_POINTS

    def __post_init__(self):
        if self.side not in ("below", "above"):
            raise DomainError(f"side must be below or above, got {self.side!r}")
        if self.quantity not in _QUANTITIES:
            raise DomainError(f"unknown quantity {self.quantity!r}")
        if self.quantity in ("photon_n", "var_x", "var_p"):
            if self.site not in (1, 2, 3):
                raise DomainError("per-site quantities need site in {1,2,3}")
        lo, hi = self.window
        if not (0.0 < lo < hi <= 0.05):
            raise DomainError(f"window must satisfy 0 < min < max <= 0.05, "
                              f"got {self.window}")
        if self.n_points < 10:
            raise DomainError("n_points must be >= 10")


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float       # |slope| of log(value) vs log(delta)
    amplitude: float      # prefactor, value ~ amplitude * delta^slope
    r_squared: float
    slope: float          # signed slope
    direction: str        # "divergent" | "vanishing" | "finite"


@dataclass(frozen=True)
class ReportEntry:
    quantity: str
    site: int | None
    side: str
    status: str                          # power-law|finite-limit|failed
    symbol: str                          # gamma | beta | nu
    slope: float | None = None
    exponent: float | None = None        # table convention (nu = |slope|/2)
    r_squared: float | None = None
    window: tuple[float, float] | None = None
    window_stable: bool | None = None
    limit: float | None = None           # finite-limit value at smallest delta
    note: str = ""


@dataclass(frozen=True)
class ZPair:
    side: str
    gap_quantity: str
    site: int
    gamma_hat: float
    nu_hat: float
    z: float


@dataclass(frozen=True, eq=False)
class ExponentReport:
    transition: str
    theta: float
    g1c: float
    params: ModelParams
    entries: list[ReportEntry] = field(default_factory=list)
    z_pairs: list[ZPair] = field(default_factory=list)


def _log_grid(window: tuple[float, float], n: int) -> list[float]:
    lo, hi = math.log10(window[0]), math.log10(window[1])
    return [10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n)]


def _symbol_for(quantity: str) -> str:
    if quantity.startswith("eps"):
        return "gamma"
    if quantity == "photon_n":
        return "beta"
    return "nu"


def _table_exponent(quantity: str, slope: float) -> float:
    # variances enter the table as the deviation exponent: value ~ d^(-2 nu)
    return abs(slope) / 2.0 if quantity in ("var_x", "var_p") else abs(slope)


def observables_near(base: ModelParams, deltas: list[float],
                     seed: int = 0) -> dict[float, dict]:
    """point_observables at signed reduced couplings delta = g1/g1c - 1.

    Points below the transition come from the closed forms, all points
    above from one root continuation (`meanfield.continued_roots`) whose
    anchor the mean-field multi-start finds with the given seed, evaluated
    as one stacked `point_observables` call per precision (the float64
    roots, then the 50-digit ones; each row equals the call on its root
    alone). Keys are the deltas as given. The points are computed in units
    of omega, and the gaps returned in the unit of base.
    """
    p = in_omega_units(base)
    g1c = critical_coupling_min(p)
    for d in deltas:
        if at_critical_point(d, g1c):
            raise CriticalPointError(
                f"grid point delta={abs(d)} is within 1e-12 of the critical "
                "coupling")
    out = {d: point_observables(replace(p, g1=g1c * (1.0 + d)))
           for d in deltas if d < 0.0}
    above = [d for d in deltas if d > 0.0]
    if above:
        roots = continued_roots(p, above, seed)
        # rings that differ only in g1: one stack per precision (the
        # decimal context sets the 50-digit one's and leaves float64 alone)
        for prec in (numerics.F64, numerics.DEC):
            ds = [d for d, (q, x) in roots.items() if numerics.of(x) is prec]
            if ds:
                qs = [roots[d][0] for d in ds]
                with numerics.working():
                    out.update(zip(ds, point_observables(
                        qs[0], np.array([roots[d][1] for d in ds]),
                        np.array([[q.g1] for q in qs]))))
    for obs in out.values():
        obs.update({k: obs[k] * base.omega for k in ("eps1", "eps2", "eps3")})
    return out


def _extract(obs: dict, quantity: str, site: int | None) -> float:
    v = obs[quantity]
    if quantity in ("eps1", "eps2"):
        return float(v)
    return float(v[(site or 1) - 1])


# ---------------------------------------------------------------------------
# public operations

def sweep(params_base: ModelParams, spec: SweepSpec) -> list[tuple[float, float]]:
    """(delta, value) pairs on the spec's log grid, ascending in delta."""
    base = replace(params_base, theta=spec.theta)
    grid = _log_grid(spec.window, spec.n_points)
    sign = _SIGN[spec.side]
    cache = observables_near(base, [sign * d for d in grid])
    pairs = [(d, _extract(cache[sign * d], spec.quantity, spec.site))
             for d in grid]
    for d, v in pairs:
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(
                f"sweep produced a non-positive value {v} at delta={d}")
    return pairs


def fit_power_law(points: list[tuple[float, float]]) -> PowerLawFit:
    """Least-squares line on (log delta, log value).

    A near-zero slope (|slope| < 0.05) is returned flagged as a finite
    limit rather than rejected; a sloped but poor fit (r^2 < 0.999)
    raises FitRejected, and a delta or value that is not finite and
    positive, DomainError.
    """
    if len(points) < 10:
        raise DomainError(f"need at least 10 points, got {len(points)}")
    if not all(0.0 < d < math.inf and 0.0 < v < math.inf for d, v in points):
        raise DomainError("every delta and value must be finite and positive "
                          "for a log-log fit")
    slope, icept, r2 = _line(points)
    if abs(slope) < _FLAT_SLOPE:
        direction = "finite"
    else:
        if r2 < _R2_MIN:
            raise FitRejected(
                f"r^2 = {r2:.6f} < {_R2_MIN} for slope {slope:.4f} on "
                f"[{points[0][0]:.3e}, {points[-1][0]:.3e}]")
        direction = "divergent" if slope < 0.0 else "vanishing"
    return PowerLawFit(exponent=abs(float(slope)), amplitude=10.0 ** float(icept),
                       r_squared=float(r2), slope=float(slope),
                       direction=direction)


def _line(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line in log-log."""
    x = np.log10([d for d, _ in points])
    y = np.log10([v for _, v in points])
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, icept), *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - (slope * x + icept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    return slope, icept, r2


def _transition_key(theta: float, base: ModelParams) -> tuple[str, str]:
    probe = replace(base, theta=theta,
                    g1=2.0 * critical_coupling_min(replace(base, theta=theta)))
    return _TRANSITION_NAMES[classify_phase(probe)]


def _rows(side: str) -> list[tuple[str, str, int | None]]:
    """The (side, quantity, site) rows of one side of a report: the two
    gaps, then photon number and variance per site (site 1 alone below the
    transition, where the ring is uniform)."""
    sites = [1] if side == "below" else [1, 2, 3]
    return [(side, "eps1", None), (side, "eps2", None),
            *((side, "photon_n", s) for s in sites),
            *((side, "var_x", s) for s in sites)]


def _entry(row: tuple[str, str, int | None], window: tuple[float, float],
           series: dict[float, dict], base: ModelParams) -> ReportEntry:
    """The report entry of one row, fitted on 12 log-spaced points of its
    window from `series` (observables in units of omega by signed delta):
    "failed" for r^2 < 0.999 at |slope| >= 0.05, "finite-limit" (a gap's
    limit times omega) below 0.05, else "power-law", window-stable if its
    central six points refit with r^2 >= 0.999 and |slope| within 0.02.
    Raises DomainError, naming the row and delta/omega, where the fitted
    amplitude overflows float64 (photon_n carries delta/omega)."""
    side, quantity, site = row
    unit = base.omega if quantity.startswith("eps") else 1.0
    pts = [(d, _extract(series[_SIGN[side] * d], quantity, site))
           for d in _log_grid(window, _REPORT_POINTS)]
    head = dict(quantity=quantity, site=site, side=side, window=window,
                symbol=_symbol_for(quantity))
    try:
        fit = fit_power_law(pts)
    except FitRejected as ex:
        return ReportEntry(**head, status="failed", note=str(ex))
    except OverflowError:
        raise DomainError(
            f"the fitted amplitude of row ({side}, {quantity}, {site}) "
            f"overflows float64 at delta/omega="
            f"{in_omega_units(base).delta!r}") from None
    if fit.direction == "finite":
        return ReportEntry(
            **head, status="finite-limit", slope=fit.slope,
            r_squared=fit.r_squared, limit=pts[0][1] * unit,
            note="no power law; value tends to a finite limit")
    q = _REPORT_POINTS // 4
    slope, _, r2 = _line(pts[q:_REPORT_POINTS - q])
    stable = bool(r2 >= _R2_MIN and abs(abs(slope) - fit.exponent) <= 0.02)
    return ReportEntry(**head, status="power-law", slope=fit.slope,
                       exponent=_table_exponent(quantity, fit.slope),
                       r_squared=fit.r_squared, window_stable=stable)


def exponent_report(theta: float,
                    params_base: ModelParams | None = None) -> ExponentReport:
    """Full exponent table for the transition at the given flux.

    Fits every (side, quantity, site) row on 12 log-spaced points of the
    asymptotic window [1e-9, 1e-6] (the two chiral crossover rows on their
    band, see _CROSSOVER_WINDOWS), judges window stability on the central
    half of the same points, and derives the z = gamma/nu pairs: each
    power-law var_x row names the gap whose mode carries its largest share
    at the window's smallest delta (the lower gap on a tie), a pair if that
    gap's row is a power law with slope > 0; each (side, gap) keeps its
    lowest site. Each row's status comes from its own fit: "power-law",
    "finite-limit" (|slope| < 0.05, as for a mode that stays gapped) or
    "failed" (a sloped fit with r^2 < 0.999).
    """
    if params_base is None:
        params_base = ModelParams(omega=1.0, delta=100.0, g1=0.1,
                                  j_hop=0.05, theta=theta)
    base = replace(params_base, theta=theta)
    key, transition = _transition_key(theta, base)
    windows = {row: _CROSSOVER_WINDOWS.get((key, *row), _REPORT_WINDOW)
               for row in _rows("below") + _rows("above")}
    # every grid point of both sides in one pass (one continuation above),
    # in units of omega, so that no fit depends on the unit
    series = observables_near(in_omega_units(base), sorted(
        {_SIGN[row[0]] * d for row, win in windows.items()
         for d in _log_grid(win, _REPORT_POINTS)}))
    entries = [_entry(row, win, series, base)
               for row, win in windows.items()]

    # z pairs keyed (side sign, gap), which sorts below before above
    fitted = {(e.side, e.quantity, e.site): e for e in entries
              if e.status == "power-law"}
    pairs: dict[tuple[float, str], ZPair] = {}
    for nu in (e for e in fitted.values() if e.quantity == "var_x"):
        d = _SIGN[nu.side] * _log_grid(nu.window, _REPORT_POINTS)[0]
        k = int(np.argmax(series[d]["var_x_modes"][nu.site - 1]))
        gap = fitted.get((nu.side, f"eps{k + 1}", None))
        if gap is not None and gap.slope > 0.0:
            gamma_hat, nu_hat = abs(gap.slope), abs(nu.slope) / 2.0
            pairs.setdefault((_SIGN[nu.side], gap.quantity), ZPair(
                side=nu.side, gap_quantity=gap.quantity, site=nu.site,
                gamma_hat=gamma_hat, nu_hat=nu_hat, z=gamma_hat / nu_hat))
    return ExponentReport(transition=transition, theta=theta,
                          g1c=critical_coupling_min(base),
                          params=base, entries=entries,
                          z_pairs=[pairs[k] for k in sorted(pairs)])


# ---------------------------------------------------------------------------
# output: the printed table (`rabitri exponents` writes the CSV)

def format_report(report: ExponentReport) -> str:
    """Human-readable exponent table, one line per entry plus z pairs."""
    lines = [f"transition {report.transition}  theta={report.theta:.6f}  "
             f"g1c={report.g1c:.12f}"]
    for e in report.entries:
        site = f" site {e.site}" if e.site is not None else ""
        head = f"  {e.side:5s} {e.quantity:9s}{site:8s} {e.symbol:5s}"
        if e.status == "power-law":
            flag = "" if e.window_stable else "  [window-sensitive]"
            lines.append(f"{head} = {e.exponent:.4f}  (slope {e.slope:+.4f},"
                         f" r2={e.r_squared:.5f},"
                         f" window [{e.window[0]:.3g}, {e.window[1]:.3g}])"
                         f"{flag}")
        elif e.status == "finite-limit":
            lines.append(f"{head} : finite limit {e.limit:.6g} "
                         f"(slope {e.slope:+.4f})")
        else:
            lines.append(f"{head} : {e.status} ({e.note})")
    for zp in report.z_pairs:
        lines.append(f"  z[{zp.side}, {zp.gap_quantity} vs site {zp.site}] = "
                     f"{zp.z:.4f} (gamma {zp.gamma_hat:.4f} / nu "
                     f"{zp.nu_hat:.4f})")
    return "\n".join(lines)
