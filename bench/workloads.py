"""The four benchmark workloads.

Each workload is built from the workload seed, warms up, then runs cycles.
A cycle is a fixed batch of operations (`cycle`, timed) whose outputs are
checked afterwards (`check`, untimed). Every cycle has the same mix of
work, so per-cycle throughput is comparable across cycles and seeds.

Only public `rabitri` names are called, always through the module
attribute, so timing wrappers installed by the tracer see every call.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random

import numpy as np

import rabitri.cli
import rabitri.dynamics
import rabitri.model
import rabitri.np_analytics
import rabitri.scaling
from rabitri import errors

TYPED_ERRORS = (errors.DomainError, errors.ConvergenceError,
                errors.InstabilityError, errors.CriticalPointError,
                errors.FitRejected, errors.ResourceError,
                np.linalg.LinAlgError)


class Failed:
    """Marks an operation that raised a typed error."""

    def __init__(self, ex: Exception) -> None:
        self.message = f"{type(ex).__name__}: {ex}"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TYPED_ERRORS as ex:
        return Failed(ex)


# ---------------------------------------------------------------------------
# transfer: one chirality-protocol trajectory per cycle

TRANSFER_PARAMS = dict(omega=1.0, delta=50.0, g1=0.1, j_hop=0.05)
TRANSFER_NMAX = 6
TRANSFER_T_FINAL = 30.0     # chirality_metric reads +-1 from t ~ 25 on


class Transfer:
    """`evolve` of |1,0,0>|down,down,down> at theta = +-pi/2 (seed picks)."""

    work_unit = "simulated time unit"
    yardstick = "numeric"

    def __init__(self, seed: int, ref: dict, workdir: str) -> None:
        self.sign = random.Random(seed).choice((1, -1))
        self.params = rabitri.model.ModelParams(
            **TRANSFER_PARAMS, theta=self.sign * math.pi / 2)
        self.basis = rabitri.dynamics.FockBasis(TRANSFER_NMAX)
        self.ref = ref.get("transfer")

    def warm_up(self) -> None:
        rabitri.dynamics.evolve(self.params, self.basis, t_final=0.2)

    def cycle(self) -> list:
        return [attempt(rabitri.dynamics.evolve, self.params, self.basis,
                        t_final=TRANSFER_T_FINAL)]

    def check(self, outputs: list) -> tuple[float, list[tuple]]:
        (traj,) = outputs
        if isinstance(traj, Failed):
            return 0.0, [("evolve", traj.message)]
        bad = []
        drift = float(np.max(np.abs(traj.norm - 1.0)))
        if drift > 1e-8:
            bad.append(("evolve", f"norm drift {drift:.2e} > 1e-8"))
        chi = rabitri.dynamics.chirality_metric(traj)
        if chi != self.sign:
            bad.append(("evolve", f"chirality {chi:+g} != {self.sign:+d}"))
        n = traj.n_photon
        if self.sign < 0:           # the 2<->3 mirror of the +pi/2 run
            n = n[:, [0, 2, 1]]
        ref = np.asarray(self.ref["n_photon"])
        if n.shape != ref.shape:
            bad.append(("evolve", f"trajectory shape {n.shape} != "
                                  f"{ref.shape}"))
        else:
            dev = float(np.max(np.abs(n - ref)))
            if dev > 1e-8:
                bad.append(("evolve", f"trajectory deviates {dev:.2e} > "
                                      "1e-8 from the frozen reference"))
        return float(traj.times[-1]), bad


# ---------------------------------------------------------------------------
# ground: exact ground energies at seed-drawn fluxes

GROUND_PARAMS = dict(omega=1.0, delta=50.0, g1=0.1, j_hop=0.05)
GROUND_SMALL = 6            # dim 2744
GROUND_LARGE = 8            # dim 5832
GROUND_FLUXES = 4           # n_max=6 states per cycle, plus one at n_max=8


class Ground:
    """`exact_ground_energy` at fresh random fluxes every cycle."""

    work_unit = "ground state"
    yardstick = "numeric"

    def __init__(self, seed: int, ref: dict, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.small = rabitri.dynamics.FockBasis(GROUND_SMALL)
        self.large = rabitri.dynamics.FockBasis(GROUND_LARGE)

    def _params(self):
        th = self.rng.uniform(-math.pi, math.pi)
        return rabitri.model.ModelParams(**GROUND_PARAMS, theta=th)

    def warm_up(self) -> None:
        # the first eigsh call at each size pays a one-off cost
        for basis in (self.small, self.large):
            rabitri.dynamics.exact_ground_energy(self._params(), basis)

    def cycle(self) -> list:
        jobs = [(self._params(), self.small) for _ in range(GROUND_FLUXES)]
        jobs.append((self._params(), self.large))
        return [(p, attempt(rabitri.dynamics.exact_ground_energy, p, b))
                for p, b in jobs]

    def check(self, outputs: list) -> tuple[float, list[tuple]]:
        bad = []
        for i, (p, e) in enumerate(outputs):
            if isinstance(e, Failed):
                bad.append((i, e.message))
                continue
            e_np = rabitri.np_analytics.ground_energy_np(p)
            rel = abs(e - e_np) / abs(e_np)
            if not rel <= 5e-3:     # acceptance criterion 7
                bad.append((i, f"theta={p.theta:.6f}: ground energy rel "
                               f"diff {rel:.2e} > 5e-3"))
        return float(sum(not isinstance(e, Failed) for _, e in outputs)), bad


# ---------------------------------------------------------------------------
# exponents: the four paper transitions plus one off-reference report

REFERENCE_BASE = dict(omega=1.0, delta=100.0, g1=0.1, j_hop=0.05)
OFF_REFERENCE_BASE = dict(omega=1.0, delta=400.0, g1=0.1, j_hop=0.02)

# analytic table exponents (acceptance criterion 3): (side, quantity, site)
# -> exponent, per transition; gap rows carry gamma, photon rows beta and
# variance rows nu.
_AF = {("below", "eps1", None): 0.5, ("below", "eps2", None): 0.5,
       ("below", "photon_n", 1): 0.5, ("below", "var_x", 1): 0.25,
       ("above", "eps1", None): 1.0, ("above", "eps2", None): 0.5,
       ("above", "photon_n", 1): 0.5, ("above", "photon_n", 2): 1.0,
       ("above", "photon_n", 3): 1.0, ("above", "var_x", 1): 0.25,
       ("above", "var_x", 2): 0.5, ("above", "var_x", 3): 0.5}
_CHIRAL = {("below", "eps1", None): 1.0, ("above", "eps1", None): 1.5,
           ("above", "photon_n", 1): 1.0 / 3.0,
           ("above", "photon_n", 2): 0.5, ("above", "photon_n", 3): 0.5,
           ("above", "var_x", 1): 1.0 / 6.0, ("above", "var_x", 2): 0.25,
           ("above", "var_x", 3): 0.25}
_TRIPLE = {("below", "eps1", None): 1.0, ("below", "eps2", None): 0.5,
           ("below", "photon_n", 1): 0.5, ("below", "var_x", 1): 0.25,
           ("above", "eps1", None): 1.0, ("above", "eps2", None): 0.5,
           ("above", "photon_n", 1): 0.5, ("above", "photon_n", 2): 0.5,
           ("above", "photon_n", 3): 0.5, ("above", "var_x", 1): 0.25,
           ("above", "var_x", 2): 0.25, ("above", "var_x", 3): 0.25}
_FERRO = {("below", "eps1", None): 0.5, ("below", "photon_n", 1): 0.5,
          ("below", "var_x", 1): 0.25, ("above", "eps1", None): 0.5,
          ("above", "photon_n", 1): 0.5, ("above", "photon_n", 2): 0.5,
          ("above", "photon_n", 3): 0.5, ("above", "var_x", 1): 0.25,
          ("above", "var_x", 2): 0.25, ("above", "var_x", 3): 0.25}
_TABLES = {"afsp": _AF, "csp": _CHIRAL, "tp": _TRIPLE, "fsp": _FERRO}
# acceptance criterion 4: rows that must read as finite limits at theta=0.1
_CHIRAL_FINITE = (("below", "photon_n", 1), ("below", "var_x", 1),
                  ("below", "eps2", None))


def exponent_jobs() -> list[tuple[str, float, dict]]:
    """(name, theta, base parameters) of every report in one cycle."""
    base = rabitri.model.ModelParams(**REFERENCE_BASE, theta=0.0)
    thc = rabitri.model.critical_flux(base)
    return [("afsp", 0.0, REFERENCE_BASE), ("csp", 0.1, REFERENCE_BASE),
            ("tp", thc, REFERENCE_BASE), ("fsp", 1.7, REFERENCE_BASE),
            ("off_reference", 0.0, OFF_REFERENCE_BASE)]


def finite_limits(report) -> dict[str, float]:
    return {f"{e.side}/{e.quantity}/{e.site}": e.limit
            for e in report.entries if e.status == "finite-limit"}


class Exponents:
    """`exponent_report` at the paper's four transitions and one
    off-reference point; the seed fixes the order within a cycle."""

    work_unit = "exponent report"
    yardstick = "interpreter"

    def __init__(self, seed: int, ref: dict, workdir: str) -> None:
        self.jobs = exponent_jobs()
        random.Random(seed).shuffle(self.jobs)
        self.ref = ref.get("exponents")

    def warm_up(self) -> None:
        base = rabitri.model.ModelParams(**REFERENCE_BASE, theta=0.0)
        spec = rabitri.scaling.SweepSpec(theta=0.0, side="above",
                                         quantity="eps1",
                                         window=(1e-6, 1e-5), n_points=10)
        rabitri.scaling.fit_power_law(rabitri.scaling.sweep(base, spec))

    def cycle(self) -> list:
        out = []
        for name, theta, base in self.jobs:
            params = rabitri.model.ModelParams(**base, theta=theta)
            out.append((name, attempt(rabitri.scaling.exponent_report,
                                      theta, params)))
        return out

    def check(self, outputs: list) -> tuple[float, list[tuple]]:
        bad = []
        for name, rep in outputs:
            if isinstance(rep, Failed):
                bad.append((name, rep.message))
            elif name == "off_reference":
                bad += [(name, msg) for msg in _consistent(rep)]
            else:
                bad += [(name, msg) for msg in self._expected(name, rep)]
        return float(sum(not isinstance(r, Failed) for _, r in outputs)), bad

    def _expected(self, name: str, rep) -> list[str]:
        """Acceptance criteria 3 and 4 at the reference parameters."""
        bad = []
        rows = {(e.side, e.quantity, e.site): e for e in rep.entries}
        for key, target in _TABLES[name].items():
            e = rows.get(key)
            if e is None or e.status != "power-law":
                bad.append(f"{key}: status {None if e is None else e.status}")
            elif not (abs(e.exponent - target) <= 0.03
                      and e.r_squared >= 0.999):
                bad.append(f"{key}: exponent {e.exponent:.4f} vs "
                           f"{target:.4f}, r2 {e.r_squared:.6f}")
        if name == "csp":
            for key in _CHIRAL_FINITE:
                e = rows.get(key)
                if e is None or e.status != "finite-limit":
                    bad.append(f"{key}: not a finite limit")
        limits = finite_limits(rep)
        frozen = self.ref[name]
        if set(limits) != set(frozen):
            bad.append(f"finite-limit rows {sorted(limits)} != frozen "
                       f"{sorted(frozen)}")
        for key in set(limits) & set(frozen):
            if not math.isclose(limits[key], frozen[key], rel_tol=1e-7):
                bad.append(f"{key}: limit {limits[key]!r} != frozen "
                           f"{frozen[key]!r}")
        return bad


def _consistent(rep) -> list[str]:
    """Checks that hold for any parameters: every row has a known status
    and every accepted power law meets the fit-quality rule."""
    bad = []
    if len(rep.entries) != 12:
        bad.append(f"{len(rep.entries)} rows, expected 12")
    for e in rep.entries:
        if e.status not in ("power-law", "finite-limit", "failed",
                            "not-fitted"):
            bad.append(f"unknown status {e.status!r}")
        elif e.status == "power-law" and not (e.r_squared >= 0.999
                                              and math.isfinite(e.exponent)):
            bad.append(f"{e.side} {e.quantity} {e.site}: accepted fit with "
                       f"r2 {e.r_squared}")
    return bad


# ---------------------------------------------------------------------------
# scan: the CLI subcommands through the transition

SCAN_FLUXES = {"afm": "0", "chiral": "0.5", "ferro": "2.0"}
SCAN_POINTS = "6"           # no grid point lands on g1/g1c = 1
# CSV agreement with the frozen output; changing --seed moves values by
# about 1e-9 relative (different Newton starts reach the same root)
SCAN_RTOL = 1e-6
SCAN_ATOL = 1e-12


def scan_calls() -> list[tuple[str, list[str]]]:
    """(key, argv without --out) for every CLI call in one cycle.

    Each call has its own fixed multi-start seed, its index. The seed sets
    the mean-field solver's random starts and with them a call's cost, by
    up to 7x, so seeds drawn afresh would spread throughput more than one
    run can average out.
    """
    calls = [("phase-boundary", ["phase-boundary"])]
    for phase, th in SCAN_FLUXES.items():
        calls.append((f"fluctuations/{phase}",
                      ["fluctuations", "--theta", th, "--points",
                       SCAN_POINTS]))
        calls.append((f"spectrum/{phase}",
                      ["spectrum", "--theta", th, "--points", SCAN_POINTS]))
        calls.append((f"meanfield/{phase}", ["meanfield", "--theta", th]))
    return [(key, argv if i == 0 else [*argv, "--seed", str(i)])
            for i, (key, argv) in enumerate(calls)]


def read_csv_rows(path: str) -> list[list[float]]:
    """Numeric data rows of a rabitri CSV: comments and the header skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [[float(x) for x in ln.split(",")] for ln in lines[1:]]


def run_scan_call(argv: list[str], out: str) -> int:
    """`rabitri.cli.main` writing its CSV to `out`; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rabitri.cli.main([*argv, "--out", out])


class Scan:
    """`rabitri fluctuations` and `spectrum` through g1/g1c in
    [0.95, 1.05] at one flux per superradiant phase, plus `phase-boundary`
    and `meanfield`, all through `rabitri.cli.main`."""

    work_unit = "coupling row"
    yardstick = "interpreter"

    def __init__(self, seed: int, ref: dict, workdir: str) -> None:
        self.rng = random.Random(seed)
        self.calls = scan_calls()
        self.workdir = workdir
        self.ref = ref.get("scan")

    def _out(self, key: str) -> str:
        return os.path.join(self.workdir, key.replace("/", "-") + ".csv")

    def warm_up(self) -> None:
        run_scan_call(["fluctuations", "--theta", "0.5", "--points", "2",
                       "--window-min", "1.01", "--window-max", "1.02"],
                      self._out("warm-up"))

    def cycle(self) -> list:
        self.rng.shuffle(self.calls)
        # exit code 3 is the CLI's typed numerical failure
        return [(key, run_scan_call(argv, self._out(key)))
                for key, argv in self.calls]

    def check(self, outputs: list) -> tuple[float, list[tuple]]:
        bad = []
        points = 0
        for key, code in outputs:
            if code != 0:
                bad.append((key, f"exit code {code}"))
                continue
            ref = np.asarray(self.ref[key])
            got = np.asarray(read_csv_rows(self._out(key)))
            if got.shape != ref.shape:
                bad.append((key, f"shape {got.shape} != frozen {ref.shape}"))
                continue
            if not np.allclose(got, ref, rtol=SCAN_RTOL, atol=SCAN_ATOL):
                dev = float(np.max(np.abs(got - ref)
                                   / (SCAN_ATOL + np.abs(ref))))
                bad.append((key, "deviates from the frozen output "
                                 f"(worst scaled error {dev:.2e})"))
            if key.startswith("fluctuations"):
                # columns g1, n1..n3, vx1..vx3, vp1..vp3, eps1, eps2
                prod = got[:, 4:7] * got[:, 7:10]
                if float(prod.min()) < 1.0 - 1e-12:   # criterion 8
                    bad.append((key, "uncertainty product "
                                     f"{float(prod.min())!r} < 1"))
            if key.startswith("meanfield"):
                points += 1
            elif not key.startswith("phase-boundary"):
                points += len(got)
        return float(points), bad


WORKLOADS = {"transfer": Transfer, "ground": Ground, "exponents": Exponents,
             "scan": Scan}
