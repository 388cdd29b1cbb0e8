"""Command-line front end.

Subcommands cover the standard runs: photon-transfer dynamics, the phase
boundary in the flux, fluctuation observables through the transition,
critical-exponent reports, and dumps of the mean-field displacements and
excitation spectrum. Configuration precedence is defaults < config file
(key=value lines) < command-line flags.

Every subcommand computes its table first and then hands it to one
writer, `_write_csv`: a comment recording the resolved configuration (so
runs are reproducible), the subcommand's own '# ' comments, a header and
the rows, numbers at full double precision (a subnormal at the digits it
holds). The table goes to the `--out` file, or to stdout where `out` is
empty (the `meanfield` default); the other subcommands need a file, and a
failing run leaves none behind.

Exit codes: 0 success, 2 bad flags or config or an unwritable output,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .dynamics import FockBasis, chirality_metric, evolve
from .errors import (ConvergenceError, CriticalPointError, DomainError,
                     FitRejected, InstabilityError, ResourceError)
from .meanfield import at_critical_point, solve_displacements
from .model import (ModelParams, critical_coupling_min, critical_flux,
                    in_omega_units, softest_mode)
from .scaling import exponent_report, format_report, observables_near

# every setting a subcommand reads, with its default: the keys are its
# flags and config keys, the type of each default is the value type
_MODEL = {"omega": 1.0, "delta": 100.0, "j": 0.05, "theta": 0.0}
_SCAN = {**_MODEL, "window_min": 0.95, "window_max": 1.05, "points": 41,
         "seed": 0}
_DEFAULTS: dict[str, dict] = {
    "dynamics": {**_MODEL, "delta": 50.0, "g1": 0.1, "nmax": 6,
                 "tfinal": 125.0, "out": "trajectory.csv"},
    # g1c depends only on J/omega and theta
    "phase-boundary": {"omega": 1.0, "j": 0.05, "points": 181,
                       "out": "phase_boundary.csv"},
    "fluctuations": {**_SCAN, "theta": 1.7, "out": "fluctuations.csv"},
    "exponents": {**_MODEL, "out": "exponents.csv"},
    "meanfield": {**_MODEL, "g1": 0.6, "seed": 0, "out": ""},
    "spectrum": {**_SCAN, "out": "spectrum.csv"},
}
# the subcommands that can write a gnuplot script next to their CSV
_GNUPLOT = ("dynamics", "phase-boundary", "fluctuations", "spectrum")

# help text of each subcommand and setting
_HELP = {
    "dynamics": "single-photon transfer trajectory",
    "phase-boundary": "critical coupling vs flux",
    "fluctuations": "photon number and quadratures through the transition",
    "exponents": "critical-exponent report at one flux",
    "meanfield": "dump the ground displacement pattern",
    "spectrum": "excitation energies vs coupling",
    "omega": "cavity frequency",
    "delta": "spin level splitting",
    "g1": "reduced coupling",
    "j": "photon hopping amplitude",
    "theta": "artificial gauge phase on the hopping",
    "nmax": "Fock cutoff per cavity",
    "tfinal": "evolution end time",
    "window_min": "scan lower bound (g1/g1c)",
    "window_max": "scan upper bound (g1/g1c)",
    "points": "number of grid points",
    "seed": "random seed for the mean-field multistart",
    "out": "output file path",
}

_FAILURES = (DomainError, ConvergenceError, InstabilityError,
             CriticalPointError, FitRejected, ResourceError,
             np.linalg.LinAlgError, OverflowError)


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
    if args.config:
        for key, raw in _parse_config(args.config):
            k = key.replace("-", "_")
            if k not in cfg:
                raise DomainError(
                    f"unknown config key {key!r} for subcommand {cmd}")
            try:
                cfg[k] = type(cfg[k])(raw)
            except ValueError as ex:
                raise DomainError(f"bad value for {key!r}: {raw!r}") from ex
    for k in cfg:
        v = getattr(args, k)
        if v is not None:
            cfg[k] = v
    if cmd in _GNUPLOT:
        cfg["gnuplot"] = args.gnuplot
    cfg["command"] = cmd
    return cfg


def _params(cfg: dict) -> ModelParams:
    # a setting the subcommand does not read takes a value its outputs do
    # not depend on
    return ModelParams(omega=cfg["omega"], delta=cfg.get("delta", 100.0),
                       g1=cfg.get("g1", 0.1), j_hop=cfg["j"],
                       theta=cfg.get("theta", 0.0))


def _resolved_line(cfg: dict) -> str:
    keys = sorted(k for k in cfg if k not in ("command", "gnuplot"))
    return (f"{cfg['command']} " +
            " ".join(f"{k}={cfg[k]!r}" for k in keys))


def _num(x) -> str:
    """x at %.17g, which round-trips every normal float; a nonzero
    subnormal, which holds fewer digits, at its shortest round-trip repr."""
    if 0 < abs(x) < sys.float_info.min:
        return repr(float(x))
    return f"{x:.17g}"


def _write_csv(cfg: dict, comments: list[str], header: str,
               rows) -> None:
    """The table to cfg["out"], or to stdout where that is empty: the
    resolved-config line and the comments as '# ' lines, the header, then
    one line per row. Numbers are written by `_num` and str cells as they
    are; a str row becomes a '# ' comment line."""
    lines = [f"# {c}" for c in (_resolved_line(cfg), *comments)]
    lines.append(header)
    for row in rows:
        if isinstance(row, str):
            lines.append(f"# {row}")
        else:
            lines.append(",".join(c if isinstance(c, str) else _num(c)
                                  for c in row))
    text = "\n".join(lines) + "\n"
    if cfg["out"]:
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    _write_csv(cfg, [f"chirality = {chi:+g}"], "t,N1,N2,N3,norm",
               np.column_stack([traj.times, traj.n_photon, traj.norm]))
    print(f"chirality = {chi:+g}")
    print(f"wrote {cfg['out']}")
    if cfg["gnuplot"]:
        _write_gnuplot(cfg["out"], [(2, "N1"), (3, "N2"), (4, "N3")], "t")
    return 0


def cmd_phase_boundary(cfg: dict) -> int:
    base = _params(cfg)
    thc = critical_flux(base)
    rows = [(th, *softest_mode(replace(base, theta=float(th))))
            for th in np.linspace(0.0, math.pi, cfg["points"])]
    _write_csv(cfg, [f"theta_c = {_num(thc)}"], "theta,g1c,q_soft", rows)
    print(f"theta_c = {_num(thc)}")
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
    obs = observables_near(
        base, [d for d in deltas if not at_critical_point(d, g1c)],
        cfg["seed"])
    rows = [[g1c * (1.0 + d), *values(obs[d])] if d in obs
            else "g1 = g1c skipped (critical point)" for d in deltas]
    _write_csv(cfg, [f"g1c = {_num(g1c)}"], header, rows)
    print(f"wrote {cfg['out']}")
    if cfg["gnuplot"]:
        _write_gnuplot(cfg["out"], columns, "g1", logy=logy)
    return 0


def cmd_exponents(cfg: dict) -> int:
    base = _params(cfg)
    rep = exponent_report(cfg["theta"], base)
    p = rep.params
    rows = []
    for e in rep.entries:
        # the exponent in the table convention (nu is half the variance
        # slope), "finite" for a finite limit, or the status of a failed fit
        fit = {"power-law": (e.exponent, e.r_squared),
               "finite-limit": ("finite", e.r_squared)}.get(
                   e.status, (e.status, ""))
        rows.append((rep.transition, e.quantity,
                     "" if e.site is None else e.site, e.side, *fit,
                     *e.window))
    _write_csv(cfg, [f"transition={rep.transition} theta={rep.theta!r} "
                     f"g1c={rep.g1c!r}",
                     f"omega={p.omega!r} delta={p.delta!r} j={p.j_hop!r}"],
               "transition,quantity,site,side,exponent,r2,delta_min,"
               "delta_max", rows)
    print(format_report(rep))
    print(f"wrote {cfg['out']}")
    return 0


def cmd_meanfield(cfg: dict) -> int:
    p = _params(cfg)
    mf = solve_displacements(p, seed=cfg["seed"])
    x = mf.x * math.sqrt(in_omega_units(p).delta)   # (A, B)
    _write_csv(cfg, [f"phase = {mf.label.value}",
                     f"energy = {_num(mf.energy)}",
                     f"residual_norm = {_num(mf.residual_norm)}"],
               "site,A,B", [(i + 1, x[i], x[3 + i]) for i in range(3)])
    if cfg["out"]:
        print(f"wrote {cfg['out']}")
    return 0


_COMMANDS = {
    "dynamics": cmd_dynamics,
    "phase-boundary": cmd_phase_boundary,
    "fluctuations": cmd_scan,
    "exponents": cmd_exponents,
    "meanfield": cmd_meanfield,
    "spectrum": cmd_scan,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises DomainError on a command line it
    rejects, where argparse would exit, so `main` reports it as it reports
    its own checks."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" for an option, so that `--theta -1e-3`
        # misses its value, unless negative numbers in exponent notation
        # count as numbers
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing does not change it."""
    parser = _Parser(
        prog="rabitri",
        description="Three coupled Rabi cavities on a flux-threaded ring: "
                    "dynamics, phase boundary, fluctuations, exponents.")
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, defaults in _DEFAULTS.items():
        sub = subs.add_parser(cmd, help=_HELP[cmd])
        for key, default in defaults.items():
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             type=type(default), help=_HELP[key])
        sub.add_argument("--config",
                         help="key=value config file (defaults < file < "
                              "flags)")
        if cmd in _GNUPLOT:
            sub.add_argument("--gnuplot", action="store_true",
                             help="also emit a gnuplot script next to the "
                                  "CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _resolve(args)
        _params(cfg)                 # validate physical flags up front
        for key, least in (("nmax", 1), ("points", 2), ("seed", 0)):
            if key in cfg and cfg[key] < least:
                raise DomainError(f"{key} must be >= {least}")
        if "tfinal" in cfg and not 0 <= cfg["tfinal"] < math.inf:
            raise DomainError("tfinal must be finite and nonnegative")
        if "window_min" in cfg and not (0.0 < cfg["window_min"]
                                        < cfg["window_max"]):
            raise DomainError("scan window must satisfy 0 < min < max")
        if not cfg["out"] and _DEFAULTS[args.command]["out"]:
            # only a subcommand whose default is stdout takes an empty out
            raise DomainError("--out must name a file")
        if cfg["out"] and not os.path.isdir(os.path.dirname(cfg["out"])
                                            or "."):
            raise DomainError(f"no directory for --out {cfg['out']!r}")
        if cfg["out"] and os.path.isdir(cfg["out"]):
            raise DomainError(f"--out {cfg['out']!r} is a directory")
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
