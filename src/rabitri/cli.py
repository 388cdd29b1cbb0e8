"""Command-line front end.

Subcommands cover the standard runs: photon-transfer dynamics, the phase
boundary in the flux, fluctuation observables through the transition,
critical-exponent reports, and dumps of the mean-field displacements and
excitation spectrum. Configuration precedence is defaults < config file
(key=value lines) < command-line flags; every CSV starts with a comment
recording the resolved configuration so runs are reproducible.

Exit codes: 0 success, 2 bad flags or config or an unwritable output,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .dynamics import (FockBasis, chirality_metric, evolve,
                       write_trajectory_csv)
from .errors import (ConvergenceError, CriticalPointError, DomainError,
                     FitRejected, InstabilityError, ResourceError)
from .meanfield import solve_displacements
from .model import (ModelParams, critical_coupling_min, critical_flux,
                    softest_mode)
from .scaling import (exponent_report, format_report, observables_near,
                      write_report_csv)

_TYPES = {
    "omega": float, "delta": float, "g1": float, "j": float, "theta": float,
    "nmax": int, "tfinal": float, "window_min": float,
    "window_max": float, "points": int, "seed": int, "out": str,
}

_COMMON = {"omega": 1.0, "delta": 100.0, "g1": 0.1, "j": 0.05, "theta": 0.0,
           "seed": 0}

_DEFAULTS: dict[str, dict] = {
    "dynamics": {**_COMMON, "delta": 50.0, "nmax": 6, "tfinal": 125.0,
                 "out": "trajectory.csv"},
    "phase-boundary": {**_COMMON, "points": 181, "out": "phase_boundary.csv"},
    "fluctuations": {**_COMMON, "theta": 1.7, "window_min": 0.95,
                     "window_max": 1.05, "points": 41,
                     "out": "fluctuations.csv"},
    "exponents": {**_COMMON, "out": "exponents.csv"},
    "meanfield": {**_COMMON, "g1": 0.6, "out": ""},
    "spectrum": {**_COMMON, "window_min": 0.95, "window_max": 1.05,
                 "points": 41, "out": "spectrum.csv"},
}

_FAILURES = (DomainError, ConvergenceError, InstabilityError,
             CriticalPointError, FitRejected, ResourceError,
             np.linalg.LinAlgError)


def _parse_config(path: str) -> list[tuple[str, str]]:
    pairs = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{ln}: expected key=value, "
                                  f"got {line!r}")
            key, val = line.split("=", 1)
            pairs.append((key.strip(), val.strip()))
    return pairs


def _resolve(args: argparse.Namespace) -> dict:
    cmd = args.command
    cfg = dict(_DEFAULTS[cmd])
    if getattr(args, "config", None):
        for key, raw in _parse_config(args.config):
            k = key.replace("-", "_")
            if k not in cfg:
                raise DomainError(
                    f"unknown config key {key!r} for subcommand {cmd}")
            try:
                cfg[k] = _TYPES[k](raw)
            except ValueError as ex:
                raise DomainError(f"bad value for {key!r}: {raw!r}") from ex
    for k in cfg:
        v = getattr(args, k, None)
        if v is not None:
            cfg[k] = v
    cfg["gnuplot"] = bool(getattr(args, "gnuplot", False))
    cfg["command"] = cmd
    return cfg


def _params(cfg: dict, **over) -> ModelParams:
    kw = dict(omega=cfg["omega"], delta=cfg["delta"], g1=cfg["g1"],
              j_hop=cfg["j"], theta=cfg["theta"])
    kw.update(over)
    return ModelParams(**kw)


def _resolved_line(cfg: dict) -> str:
    keys = sorted(k for k in cfg if k not in ("command", "gnuplot"))
    return (f"{cfg['command']} " +
            " ".join(f"{k}={cfg[k]!r}" for k in keys))


def _write_gnuplot(out: str, columns: list[tuple[int, str]], xlabel: str,
                   logy: bool = False) -> None:
    path = out + ".gp"
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\n")
        fh.write(f"set xlabel '{xlabel}'\n")
        if logy:
            fh.write("set logscale y\n")
        plots = ", ".join(f"'{out}' using 1:{c} with lines title '{t}'"
                          for c, t in columns)
        fh.write(f"plot {plots}\n")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_dynamics(cfg: dict) -> int:
    p = _params(cfg)
    basis = FockBasis(cfg["nmax"])
    traj = evolve(p, basis, t_final=cfg["tfinal"])
    chi = chirality_metric(traj)
    write_trajectory_csv(traj, cfg["out"],
                         comments=(_resolved_line(cfg),
                                   f"chirality = {chi:+g}"))
    print(f"chirality = {chi:+g}")
    print(f"wrote {cfg['out']}")
    if cfg["gnuplot"]:
        _write_gnuplot(cfg["out"], [(2, "N1"), (3, "N2"), (4, "N3")], "t")
    return 0


def cmd_phase_boundary(cfg: dict) -> int:
    base = _params(cfg)
    thc = critical_flux(base)
    thetas = np.linspace(0.0, math.pi, cfg["points"])
    with open(cfg["out"], "w") as fh:
        fh.write(f"# {_resolved_line(cfg)}\n")
        fh.write(f"# theta_c = {thc:.17g}\n")
        fh.write("theta,g1c,q_soft\n")
        for th in thetas:
            p = replace(base, theta=float(th))
            g1c, q_soft = softest_mode(p)
            fh.write(f"{th:.17g},{g1c:.17g},{q_soft:.17g}\n")
    print(f"theta_c = {thc:.17g}")
    print(f"wrote {cfg['out']}")
    if cfg["gnuplot"]:
        _write_gnuplot(cfg["out"], [(2, "g1c")], "theta")
    return 0


# scan subcommands: CSV header, row values from point_observables, and
# the gnuplot columns
_SCANS = {
    "fluctuations": (
        "g1,n1,n2,n3,vx1,vx2,vx3,vp1,vp2,vp3,eps1,eps2",
        lambda o: [*o["photon_n"], *o["var_x"], *o["var_p"], o["eps1"],
                   o["eps2"]],
        [(2, "n1"), (3, "n2"), (4, "n3")], True),
    "spectrum": (
        "g1,eps1,eps2,eps3", lambda o: [o["eps1"], o["eps2"], o["eps3"]],
        [(2, "eps1"), (3, "eps2"), (4, "eps3")], False),
}


def cmd_scan(cfg: dict) -> int:
    """`fluctuations` and `spectrum`: one row per g1/g1c on the window grid.
    The superradiant rows all come from one root continuation, anchored by
    the mean-field multi-start with the configured seed."""
    header, values, columns, logy = _SCANS[cfg["command"]]
    base = _params(cfg)
    g1c = critical_coupling_min(base)
    deltas = [float(r) - 1.0 for r in np.linspace(
        cfg["window_min"], cfg["window_max"], cfg["points"])]
    # skip |g1 - g1c| <= 1e-12, which observables_near rejects as critical
    obs = observables_near(
        base, [d for d in deltas if abs(d) * g1c > 1e-12], cfg["seed"])
    with open(cfg["out"], "w") as fh:
        fh.write(f"# {_resolved_line(cfg)}\n")
        fh.write(f"# g1c = {g1c:.17g}\n")
        fh.write(header + "\n")
        for d in deltas:
            if d not in obs:
                fh.write("# g1 = g1c skipped (critical point)\n")
                continue
            row = [g1c * (1.0 + d), *values(obs[d])]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    print(f"wrote {cfg['out']}")
    if cfg["gnuplot"]:
        _write_gnuplot(cfg["out"], columns, "g1", logy=logy)
    return 0


def cmd_exponents(cfg: dict) -> int:
    base = _params(cfg)
    rep = exponent_report(cfg["theta"], base)
    write_report_csv(rep, cfg["out"])
    with open(cfg["out"]) as fh:
        body = fh.read()
    with open(cfg["out"], "w") as fh:
        fh.write(f"# {_resolved_line(cfg)}\n")
        fh.write(body)
    print(format_report(rep))
    print(f"wrote {cfg['out']}")
    return 0


def cmd_meanfield(cfg: dict) -> int:
    p = _params(cfg)
    mf = solve_displacements(p, seed=cfg["seed"])
    lines = [f"# {_resolved_line(cfg)}",
             f"# phase = {mf.label.value}",
             f"# energy = {mf.energy:.17g}",
             f"# residual_norm = {mf.residual_norm:.17g}",
             "site,A,B"]
    for i in range(3):
        lines.append(f"{i + 1},{mf.disp.a[i]:.17g},{mf.disp.b[i]:.17g}")
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
        print(f"wrote {cfg['out']}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "dynamics": cmd_dynamics,
    "phase-boundary": cmd_phase_boundary,
    "fluctuations": cmd_scan,
    "exponents": cmd_exponents,
    "meanfield": cmd_meanfield,
    "spectrum": cmd_scan,
}


def _add_flags(sub: argparse.ArgumentParser, names: list[str]) -> None:
    helps = {
        "omega": "cavity frequency",
        "delta": "spin level splitting",
        "g1": "reduced coupling",
        "j": "photon hopping amplitude",
        "theta": "artificial gauge phase on the hopping",
        "nmax": "Fock cutoff per cavity",
        "tfinal": "evolution end time",
        "window-min": "scan lower bound (g1/g1c for scans)",
        "window-max": "scan upper bound (g1/g1c for scans)",
        "points": "number of grid points",
        "seed": "random seed for the mean-field multistart",
        "out": "output file path",
    }
    for name in names:
        dest = name.replace("-", "_")
        sub.add_argument(f"--{name}", dest=dest, type=_TYPES[dest],
                         default=None, help=helps[name])
    sub.add_argument("--config", default=None,
                     help="key=value config file (defaults < file < flags)")
    sub.add_argument("--gnuplot", action="store_true",
                     help="also emit a gnuplot script next to the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabitri",
        description="Three coupled Rabi cavities on a flux-threaded ring: "
                    "dynamics, phase boundary, fluctuations, exponents.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_flags(subs.add_parser("dynamics",
                               help="single-photon transfer trajectory"),
               ["omega", "delta", "g1", "j", "theta", "nmax", "tfinal",
                "out"])
    _add_flags(subs.add_parser("phase-boundary",
                               help="critical coupling vs flux"),
               ["omega", "delta", "g1", "j", "points", "out"])
    _add_flags(subs.add_parser("fluctuations",
                               help="photon number and quadratures through "
                                    "the transition"),
               ["omega", "delta", "j", "theta", "window-min", "window-max",
                "points", "seed", "out"])
    _add_flags(subs.add_parser("exponents",
                               help="critical-exponent report at one flux"),
               ["omega", "delta", "j", "theta", "out"])
    _add_flags(subs.add_parser("meanfield",
                               help="dump the ground displacement pattern"),
               ["omega", "delta", "g1", "j", "theta", "seed", "out"])
    _add_flags(subs.add_parser("spectrum",
                               help="excitation energies vs coupling"),
               ["omega", "delta", "j", "theta", "window-min", "window-max",
                "points", "seed", "out"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _params(cfg)                 # validate physical flags up front
        if "nmax" in cfg and cfg["nmax"] < 1:
            raise DomainError("nmax must be >= 1")
        if "points" in cfg and cfg["points"] < 2:
            raise DomainError("points must be >= 2")
        if "tfinal" in cfg and not 0 <= cfg["tfinal"] < math.inf:
            raise DomainError("tfinal must be finite and nonnegative")
        if "window_min" in cfg and not (0.0 < cfg["window_min"]
                                        < cfg["window_max"]):
            raise DomainError("scan window must satisfy 0 < min < max")
        if cfg["out"] and not os.path.isdir(os.path.dirname(cfg["out"])
                                            or "."):
            raise DomainError(f"no directory for --out {cfg['out']!r}")
    except (DomainError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except _FAILURES as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
