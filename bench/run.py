"""Benchmark entry point for rabitri.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from the
checkout's `src/`. Workloads are defined in `workloads.py` and described in
`README.md`. One process generates all load, with BLAS pinned to one
thread (see `BLAS_THREADS`); the environment as found is recorded.

With `--trace 0` the run reports the end-to-end metrics, measured with no
tracing installed. With `--trace 1` it makes an untraced pass and a traced
pass of `seconds / 2` each and reports the per-layer metrics of the traced
pass plus the tracing overhead. The last line of standard output is the
result object; a copy with the environment record (and, traced, every
span) is written to `bench/results/`.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads (set-up probes inherit it). With the default of
# one OpenBLAS thread per core, any other load on the machine stalls the
# spinning BLAS threads: ground states took up to 40x longer, and a short
# evolve ran at half the single-thread speed.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FOUND_ENV = {k: os.environ.get(k) for k in BLAS_THREADS}
os.environ.update({k: "1" for k in BLAS_THREADS})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 3           # this process plus two fresh interpreters
CAL_EVERY_S = 1.0           # yardstick interval; it costs about 2% of a run
PROBE_TIMEOUT_S = 120


def import_program() -> None:
    """Import rabitri from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import rabitri
    where = os.path.dirname(os.path.abspath(rabitri.__file__))
    if where != os.path.join(SRC, "rabitri"):
        raise ImportError(f"rabitri imported from {where}, not from {SRC}")


def set_up(workload: str, seed: int, workdir: str):
    """Import, input generation and warm-up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, ref, workdir)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def probe_setup(args) -> float:
    """Set-up time of the same workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--trace", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def run_cycles(wl, seconds: float, yardstick, tracer=None) -> dict:
    """Whole cycles until `seconds` have passed (at least one).

    A cycle's time excludes the yardstick samples taken during it; its
    yardstick is the mean of those samples (see calibrate.py).
    """
    timed, attempted, problems = [], 0, []
    start = time.perf_counter()
    with yardstick.every(CAL_EVERY_S):
        while True:
            t0 = time.perf_counter()
            outputs = wl.cycle()
            t1 = time.perf_counter()
            with tracer.pause() if tracer else contextlib.nullcontext():
                work, bad = wl.check(outputs)
            timed.append((work, t0, t1))
            attempted += len(outputs)
            problems.append(bad)
            if time.perf_counter() - start >= seconds:
                break
    cycles = [(w, t1 - t0 - sum(yardstick.inside(t0, t1)),
               yardstick.around(t0, t1)) for w, t0, t1 in timed]
    # an operation fails once however many of its checks it fails
    failed = sum(len({op for op, _ in bad}) for bad in problems)
    return {"cycles": cycles, "attempted": attempted, "failed": failed,
            "messages": [f"{op}: {msg}" for bad in problems
                         for op, msg in bad]}


def throughput(cycles: list[tuple[float, float, float]]) -> float:
    """Work per second over all cycles of a pass.

    A ratio of sums, not a median of per-cycle rates: cycle cost varies
    with the inputs drawn (the fluxes on `ground`, the order of calls),
    and the sum averages over every draw in the run.
    """
    return sum(w for w, _, _ in cycles) / sum(t for _, t, _ in cycles)


def work_per_cal(cycles: list[tuple[float, float, float]]) -> float:
    """Work per yardstick duration: `throughput` with each cycle's seconds
    counted in units of the yardstick time measured around it."""
    return sum(w for w, _, _ in cycles) / sum(t / c for _, t, c in cycles)


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    with open(REFERENCE) as fh:
        ref_sha = json.load(fh).get("sha")
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "reference_sha": ref_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "blas_threads_env_found": FOUND_ENV,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transfer", "ground", "exponents", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(HERE, "work", str(os.getpid()))
    try:
        try:
            wl, setup_s = set_up(args.workload, args.seed, workdir)
        except (ImportError, OSError) as ex:
            print(f"bench: cannot set up: {ex}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup_s: float) -> int:
    import calibrate
    import spans

    env = environment(args.seed)
    record: dict = {"workload": args.workload, "work_unit": wl.work_unit,
                    "env": env}
    yardstick = calibrate.Yardstick(wl.yardstick)
    if args.trace == 0:
        setups = [setup_s] + [probe_setup(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        run = run_cycles(wl, args.seconds, yardstick)
        attempted, failed = run["attempted"], run["failed"]
        metrics = {
            "work_per_cal": (work_per_cal(run["cycles"]), "1/cal"),
            "setup_s": (statistics.median(setups), "s"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["setup_samples_s"] = setups
        passes = {"untraced": run}
        messages = run["messages"]
    else:
        plain = run_cycles(wl, args.seconds / 2, yardstick)
        tracer = spans.Tracer()
        yardstick.tracer = tracer
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span(spans.ROOT):
                traced = run_cycles(wl, args.seconds / 2, yardstick, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        layer = tracer.metrics(wall)
        layer["trace.overhead_frac"] = (work_per_cal(plain["cycles"])
                                        / work_per_cal(traced["cycles"])
                                        - 1.0)
        metrics = {k: (v, spans.unit(k)) for k, v in layer.items()}
        passes = {"untraced": plain, "traced": traced}
        record["spans"] = tracer.dump()
        messages = plain["messages"] + traced["messages"]
        if tracer.misnested or abs(layer["trace.self_sum_frac"] - 1.0) > 1e-4:
            messages.append(f"trace: {tracer.misnested} spans outside their "
                            "parent, or self times that do not add up to the "
                            "traced pass's wall time")
    for msg in messages:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    for name, run in passes.items():
        cycles = run["cycles"]
        q1, med, q3 = quartiles([w / t for w, t, _ in cycles])
        print(f"bench: {args.workload} seed={args.seed} {name}: "
              f"{len(cycles)} cycles; {wl.work_unit}s per second "
              f"{throughput(cycles):.6g} overall, per cycle median {med:.6g} "
              f"(quartiles {q1:.6g}, {q3:.6g}); per yardstick "
              f"{work_per_cal(cycles):.6g}")
        record[name] = cycles
    record["yardstick_samples"] = yardstick.samples
    print("bench: env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
