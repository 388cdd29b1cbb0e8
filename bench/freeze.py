"""Regenerate the frozen reference outputs the benchmark checks against.

    python3 bench/freeze.py

Run from the root of a git checkout whose `src/` is the commit to freeze;
writes `bench/reference.json` stamped with that commit's SHA. Regenerate
only when a change is meant to alter these outputs.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import tempfile

from run import REFERENCE, ROOT, import_program


def main() -> None:
    import_program()
    import rabitri.dynamics
    import rabitri.model
    import rabitri.scaling
    import workloads as w

    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    params = rabitri.model.ModelParams(**w.TRANSFER_PARAMS,
                                       theta=math.pi / 2)
    traj = rabitri.dynamics.evolve(params,
                                   rabitri.dynamics.FockBasis(w.TRANSFER_NMAX),
                                   t_final=w.TRANSFER_T_FINAL)
    exponents = {}
    for name, theta, base in w.exponent_jobs():
        if name != "off_reference":
            rep = rabitri.scaling.exponent_report(
                theta, rabitri.model.ModelParams(**base, theta=theta))
            exponents[name] = w.finite_limits(rep)
    scan = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(REFERENCE)) as tmp:
        out = os.path.join(tmp, "out.csv")
        for key, argv in w.scan_calls():
            if w.run_scan_call(argv, out) != 0:
                raise SystemExit(f"freeze: rabitri {' '.join(argv)} failed")
            scan[key] = w.read_csv_rows(out)
    ref = {
        "sha": sha,
        "regenerate": "python3 bench/freeze.py",
        "transfer": {"theta": params.theta, "t_final": w.TRANSFER_T_FINAL,
                     "n_photon": traj.n_photon.tolist()},
        "exponents": exponents,
        "scan": scan,
    }
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=0)
        fh.write("\n")
    print(f"wrote {REFERENCE} at {sha}")


if __name__ == "__main__":
    main()
