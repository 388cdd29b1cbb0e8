"""Near-critical sweeps and power-law fits of the transition exponents.

For a reduced coupling delta = |g1/g1c - 1| the module evaluates gap
energies, per-site photon numbers and quadrature variances on log grids on
both sides of the transition, fits log-log slopes, and assembles a report
per transition (ring-symmetric, chiral, uniform, and the triple point).

Numerical strategy: every point is evaluated by
`bogoliubov.point_observables`. Below the transition that means the
normal-phase closed forms (float64 suffices down to delta ~ 1e-11 with the
factored gap expression). Above, `_collect_above` continues the
displacement root down a descending delta ladder, each step seeded by
scaling the previous root with sqrt(delta'/delta) and polished by Newton.
Points with delta >= 1e-4 run in float64; deeper points run the same
functions on 50-digit mpmath numbers (g1c and g1 included), because the
Cholesky step needs min-eig(Hd) ~ eps1^2/omega to stay clear of roundoff.

Fit windows: the universal slope of each quantity is only clean inside a
quantity-dependent delta range (crossovers, condensate dips and slow
corrections sit elsewhere). The _FIT_WINDOWS table pins the vetted window
per (transition, side, quantity, site); everything else uses the default
window [1e-5, 1e-2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from mpmath import mp

from .bogoliubov import point_observables
from .errors import CriticalPointError, DomainError, FitRejected
from .meanfield import refine_root, solve_displacements
from .model import (ModelParams, PhaseLabel, classify_phase,
                    critical_coupling_min)

_QUANTITIES = ("eps1", "eps2", "photon_n", "var_x", "var_p")
_DEFAULT_WINDOW = (1e-5, 1e-2)
_DEFAULT_POINTS = 25
_PINNED_POINTS = 12
_MP_SPLIT = 1e-4        # above-side: use mpmath below this delta
_MP_DPS = 50
_LADDER_DECADES = 3     # continuation fill density: points per decade
_FLAT_SLOPE = 0.05      # |slope| below this reads as a finite limit
_R2_MIN = 0.999
_EPS2_GATE = 0.5        # fit eps2 only if eps2(delta=1e-2) < gate * omega
_SIGN = {"below": -1.0, "above": 1.0}   # side -> sign of g1/g1c - 1

# vetted fit windows (dmin, dmax): the delta range where the quantity's
# log-log slope is locally constant at the universal value for the
# reference parameter set delta/omega = 100, J/omega = 0.05. Keys:
# (transition, side, quantity, site); site None for gap energies.
_FIT_WINDOWS: dict[tuple, tuple[float, float]] = {
    ("afsp", "below", "eps1", None): (1e-05, 1e-02),
    ("afsp", "below", "eps2", None): (1e-05, 1e-02),
    ("afsp", "below", "var_x", 1): (1e-05, 1e-02),
    ("afsp", "below", "photon_n", 1): (2.476e-05, 2.476e-03),
    ("csp", "below", "eps1", None): (2.044e-07, 2.044e-05),
    # plateau windows: these rows tend to finite limits; the window sits
    # below the crossover so the near-zero slope is detected cleanly
    ("csp", "below", "eps2", None): (1e-09, 1e-06),
    ("csp", "below", "photon_n", 1): (1e-09, 1e-06),
    ("csp", "below", "var_x", 1): (1e-09, 1e-06),
    ("csp", "above", "eps2", None): (1e-09, 1e-06),
    ("fsp", "below", "eps2", None): (1e-09, 1e-06),
    ("fsp", "above", "eps2", None): (1e-09, 1e-06),
    ("tp", "below", "eps1", None): (1.687e-05, 2.044e-03),
    ("tp", "below", "eps2", None): (1e-05, 1e-02),
    ("tp", "below", "var_x", 1): (1.149e-07, 1.149e-05),
    ("tp", "below", "photon_n", 1): (2.044e-07, 2.044e-05),
    ("fsp", "below", "eps1", None): (3e-05, 3.635e-03),
    ("fsp", "below", "var_x", 1): (3e-07, 3e-05),
    ("fsp", "below", "photon_n", 1): (7.83e-07, 9.487e-05),
    ("afsp", "above", "eps1", None): (1e-05, 1e-02),
    ("afsp", "above", "eps2", None): (1e-05, 1e-02),
    ("afsp", "above", "var_x", 2): (3e-05, 3e-03),
    ("afsp", "above", "var_x", 1): (1e-05, 1e-02),
    ("afsp", "above", "photon_n", 2): (6.463e-05, 6.463e-03),
    ("afsp", "above", "photon_n", 1): (2.044e-05, 2.044e-03),
    ("csp", "above", "eps1", None): (1.687e-07, 1.778e-05),
    ("csp", "above", "var_x", 2): (2.044e-07, 2.154e-05),
    ("csp", "above", "photon_n", 2): (2.044e-07, 2.154e-05),
    ("csp", "above", "var_x", 1): (1.687e-04, 3e-04),
    ("csp", "above", "photon_n", 1): (5.335e-11, 1.149e-10),
    ("tp", "above", "eps1", None): (9.487e-06, 9.487e-04),
    ("tp", "above", "eps2", None): (1e-05, 1e-02),
    ("tp", "above", "var_x", 1): (5.335e-08, 6.463e-06),
    ("tp", "above", "photon_n", 1): (9.487e-08, 1.149e-05),
    ("fsp", "above", "eps1", None): (1.687e-05, 1.687e-03),
    ("fsp", "above", "var_x", 1): (1.392e-07, 1.687e-05),
    ("fsp", "above", "photon_n", 1): (4.403e-07, 4.403e-05),
}

# z = gamma/nu consistency pairs: which vanishing gap drives which site's
# divergence. (gap quantity, site whose var_x supplies nu).
_Z_PAIRS: dict[tuple[str, str], list[tuple[str, int]]] = {
    ("afsp", "below"): [("eps1", 1)],
    ("afsp", "above"): [("eps1", 2), ("eps2", 1)],
    ("csp", "below"): [],
    ("csp", "above"): [("eps1", 2), ("eps1", 1)],
    ("tp", "below"): [("eps2", 1)],
    ("tp", "above"): [("eps2", 1)],
    ("fsp", "below"): [("eps1", 1)],
    ("fsp", "above"): [("eps1", 1)],
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
    spacing: str = "log"

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
        if self.spacing != "log":
            raise DomainError("only log spacing is supported")


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float       # |slope| of log(value) vs log(delta)
    amplitude: float      # prefactor, value ~ amplitude * delta^slope
    r_squared: float
    points_used: int
    slope: float          # signed slope
    direction: str        # "divergent" | "vanishing" | "finite"


@dataclass(frozen=True)
class ReportEntry:
    quantity: str
    site: int | None
    side: str
    status: str                          # power-law|finite-limit|failed|not-fitted
    symbol: str                          # gamma | beta | nu
    slope: float | None = None
    exponent: float | None = None        # table convention (nu = |slope|/2)
    direction: str | None = None
    r_squared: float | None = None
    window: tuple[float, float] | None = None
    n_points: int | None = None
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


# ---------------------------------------------------------------------------
# continuation engine

def _ladder(anchor: float, need: list[float]) -> list[float]:
    """Descending delta ladder through all needed points, with geometric
    fillers so no continuation step exceeds 10^(1/3) in ratio."""
    pts = sorted(set(need) | {anchor}, reverse=True)
    out = []
    for i, p in enumerate(pts):
        out.append(p)
        if i + 1 < len(pts):
            ratio = math.log10(p / pts[i + 1])
            k = int(math.ceil(ratio * _LADDER_DECADES - 1e-9))
            for m in range(1, k):
                out.append(10.0 ** (math.log10(p) - ratio * m / k))
    return out


def _collect_above(base: ModelParams, deltas: list[float],
                   seed: int = 0) -> dict[float, dict]:
    """point_observables at each requested delta above the transition, by
    root continuation from an anchor at delta = max(request, 1e-2) that
    solve_displacements finds with the given multi-start seed."""
    need = sorted({float(d) for d in deltas}, reverse=True)
    g1c = critical_coupling_min(base)
    anchor = max(need[0], 1e-2)
    mf0 = solve_displacements(replace(base, g1=g1c * (1.0 + anchor)), seed)
    x = np.concatenate([mf0.disp.a, mf0.disp.b])
    out: dict[float, dict] = {}
    with mp.workdps(_MP_DPS):
        # 50-digit parameters; g, g1c, cos theta, ... derived from them follow
        base_mp = replace(base, omega=mp.mpf(base.omega),
                          delta=mp.mpf(base.delta), j_hop=mp.mpf(base.j_hop))
        g1c_mp = critical_coupling_min(base_mp)
        prev = anchor
        for d in _ladder(anchor, need):
            if d >= _MP_SPLIT:
                p, tol = replace(base, g1=g1c * (1.0 + d)), 1e-12
                x = refine_root(p, x * math.sqrt(d / prev), tol)
            else:
                p = replace(base_mp, g1=g1c_mp * (1 + mp.mpf(d)))
                tol = mp.mpf(10) ** (12 - _MP_DPS)
                x = refine_root(p, x * mp.sqrt(mp.mpf(d) / prev), tol)
            if d in need:
                out[d] = point_observables(p, x)
            prev = d
    return out


def observables_near(base: ModelParams, deltas: list[float],
                     seed: int = 0) -> dict[float, dict]:
    """point_observables at signed reduced couplings delta = g1/g1c - 1.

    Points below the transition come from the closed forms, all points
    above from one root continuation whose anchor solve_displacements finds
    with the given multi-start seed. Keys are the deltas as given.
    """
    g1c = critical_coupling_min(base)
    for d in deltas:
        if abs(d) * g1c <= 1e-12:
            raise CriticalPointError(
                f"grid point delta={abs(d)} is within 1e-12 of the critical "
                "coupling")
    out = {d: point_observables(replace(base, g1=g1c * (1.0 + d)))
           for d in deltas if d < 0.0}
    above = [d for d in deltas if d > 0.0]
    if above:
        out.update(_collect_above(base, above, seed))
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
    raises FitRejected.
    """
    if len(points) < 10:
        raise DomainError(f"need at least 10 points, got {len(points)}")
    if any(v <= 0.0 for _, v in points):
        raise DomainError("all values must be positive for a log-log fit")
    x = np.log10([d for d, _ in points])
    y = np.log10([v for _, v in points])
    a = np.vstack([x, np.ones_like(x)]).T
    (slope, icept), *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - (slope * x + icept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0.0 else 1.0
    if abs(slope) < _FLAT_SLOPE:
        direction = "finite"
    else:
        if r2 < _R2_MIN:
            raise FitRejected(
                f"r^2 = {r2:.6f} < {_R2_MIN} for slope {slope:.4f} on "
                f"[{points[0][0]:.3e}, {points[-1][0]:.3e}]")
        direction = "divergent" if slope < 0.0 else "vanishing"
    return PowerLawFit(exponent=abs(float(slope)), amplitude=10.0 ** float(icept),
                       r_squared=float(r2), points_used=len(points),
                       slope=float(slope), direction=direction)


def _shrunk(window: tuple[float, float]) -> tuple[float, float]:
    lo, hi = math.log10(window[0]), math.log10(window[1])
    c, q = 0.5 * (lo + hi), 0.25 * (hi - lo)
    return (10.0 ** (c - q), 10.0 ** (c + q))


def _transition_key(theta: float, base: ModelParams) -> tuple[str, str]:
    probe = replace(base, theta=theta,
                    g1=2.0 * critical_coupling_min(replace(base, theta=theta)))
    label = classify_phase(probe)
    if label not in _TRANSITION_NAMES:
        raise DomainError(f"theta={theta} does not map to a transition")
    return _TRANSITION_NAMES[label]


def exponent_report(theta: float,
                    params_base: ModelParams | None = None) -> ExponentReport:
    """Full exponent table for the transition at the given flux.

    Fits every (side, quantity, site) row on its vetted window, marks
    finite limits (near-zero slopes) and failed fits, checks window
    stability by refitting on a 2x-shrunk window, and assembles the
    z = gamma/nu consistency pairs.
    """
    if params_base is None:
        params_base = ModelParams(omega=1.0, delta=100.0, g1=0.1,
                                  j_hop=0.05, theta=theta)
    base = replace(params_base, theta=theta)
    key, transition = _transition_key(theta, base)
    w0 = base.omega

    def rows_for(side: str) -> list[tuple[str, int | None]]:
        sites = [1] if side == "below" else [1, 2, 3]
        rows: list[tuple[str, int | None]] = [("eps1", None), ("eps2", None)]
        rows += [("photon_n", s) for s in sites]
        rows += [("var_x", s) for s in sites]
        return rows

    def window_for(side: str, quantity: str, site: int | None):
        for s in (site, 2 if site == 3 else None, 1 if site else None):
            if site is not None and s is None:
                continue
            win = _FIT_WINDOWS.get((key, side, quantity, s))
            if win is not None:
                return win, _PINNED_POINTS
        return _DEFAULT_WINDOW, _DEFAULT_POINTS

    # every grid point of both sides in one pass (one continuation above)
    grids: dict[tuple, list[float]] = {}
    for side in ("below", "above"):
        for quantity, site in rows_for(side):
            win, npts = window_for(side, quantity, site)
            grids[(side, quantity, site)] = _log_grid(win, npts)
            grids[(side, quantity, site, "shrunk")] = _log_grid(
                _shrunk(win), npts)
    cache = observables_near(base, sorted(
        {_SIGN[k[0]] * d for k, g in grids.items() for d in g}
        | {-1e-2, 1e-2}))

    def series(side, quantity, site, shrunk=False):
        gkey = (side, quantity, site, "shrunk") if shrunk else (side, quantity, site)
        return [(d, _extract(cache[_SIGN[side] * d], quantity, site))
                for d in grids[gkey]]

    entries: list[ReportEntry] = []
    fitted: dict[tuple, ReportEntry] = {}
    for side in ("below", "above"):
        for quantity, site in rows_for(side):
            win, npts = window_for(side, quantity, site)
            symbol = _symbol_for(quantity)
            gate = cache[_SIGN[side] * 1e-2]["eps2"]
            if quantity == "eps2" and gate >= _EPS2_GATE * w0:
                entry = ReportEntry(
                    quantity=quantity, site=site, side=side,
                    status="not-fitted", symbol=symbol, window=win,
                    n_points=npts,
                    note="second mode is gapped (eps2 >= 0.5 omega at "
                         "delta=1e-2)")
                entries.append(entry)
                continue
            pts = series(side, quantity, site)
            try:
                fit = fit_power_law(pts)
            except FitRejected as ex:
                entry = ReportEntry(
                    quantity=quantity, site=site, side=side, status="failed",
                    symbol=symbol, window=win, n_points=npts, note=str(ex))
                entries.append(entry)
                continue
            if fit.direction == "finite":
                entry = ReportEntry(
                    quantity=quantity, site=site, side=side,
                    status="finite-limit", symbol=symbol, slope=fit.slope,
                    r_squared=fit.r_squared, window=win, n_points=npts,
                    limit=pts[0][1],
                    note="no power law; value tends to a finite limit")
                entries.append(entry)
                continue
            try:
                refit = fit_power_law(series(side, quantity, site, shrunk=True))
                stable = abs(refit.exponent - fit.exponent) <= 0.02
            except (FitRejected, DomainError):
                stable = False
            entry = ReportEntry(
                quantity=quantity, site=site, side=side, status="power-law",
                symbol=symbol, slope=fit.slope,
                exponent=_table_exponent(quantity, fit.slope),
                direction=fit.direction, r_squared=fit.r_squared,
                window=win, n_points=npts, window_stable=stable)
            entries.append(entry)
            fitted[(side, quantity, site)] = entry

    z_pairs: list[ZPair] = []
    for side in ("below", "above"):
        for gap_q, site in _Z_PAIRS[(key, side)]:
            gap = fitted.get((side, gap_q, None))
            nu = fitted.get((side, "var_x", site))
            if gap is None or nu is None:
                continue
            gamma_hat = abs(gap.slope)
            nu_hat = abs(nu.slope) / 2.0
            z_pairs.append(ZPair(side=side, gap_quantity=gap_q, site=site,
                                 gamma_hat=gamma_hat, nu_hat=nu_hat,
                                 z=gamma_hat / nu_hat))
    return ExponentReport(transition=transition, theta=theta,
                          g1c=critical_coupling_min(base),
                          params=base, entries=entries, z_pairs=z_pairs)


# ---------------------------------------------------------------------------
# output

def write_report_csv(report: ExponentReport, path: str) -> None:
    """CSV rows per entry; exponents in the table convention (gamma, beta
    as the slope magnitude, nu as half the variance slope)."""
    with open(path, "w") as fh:
        fh.write(f"# transition={report.transition} theta={report.theta!r} "
                 f"g1c={report.g1c!r}\n")
        p = report.params
        fh.write(f"# omega={p.omega!r} delta={p.delta!r} j={p.j_hop!r}\n")
        fh.write("transition,quantity,site,side,exponent,r2,delta_min,"
                 "delta_max\n")
        for e in report.entries:
            site = "" if e.site is None else str(e.site)
            if e.status == "power-law":
                expo, r2 = f"{e.exponent:.17g}", f"{e.r_squared:.17g}"
            elif e.status == "finite-limit":
                expo, r2 = "finite", f"{e.r_squared:.17g}"
            else:
                expo, r2 = e.status, ""
            fh.write(f"{report.transition},{e.quantity},{site},{e.side},"
                     f"{expo},{r2},{e.window[0]:.17g},{e.window[1]:.17g}\n")


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
