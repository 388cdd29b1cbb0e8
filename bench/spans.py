"""Span tracing around rabitri's coarse public entry points.

`Tracer.install` swaps each entry point for a timing wrapper in the globals
of every loaded `rabitri` module, so calls between modules are seen as well
as calls from the benchmark; `Tracer.restore` puts the originals back. A
span is `[id, parent_id, name, start, end, raised]`, kept in memory and
written out once the run ends. Hot inner functions (`meanfield.residuals`,
the private continuation helpers) are deliberately not wrapped: their time
is the self time of the nearest wrapped caller.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# layer (module) -> wrapped public functions; `errors` does no work.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "scaling": ("exponent_report", "sweep", "fit_power_law"),
    "dynamics": ("build_full_hamiltonian", "evolve", "exact_ground_energy"),
    "meanfield": ("solve_displacements",),
    "bogoliubov": ("build_m_matrix", "diagonalize_paraunitary"),
    "np_analytics": ("excitation_energies", "local_photon_np",
                     "variance_x_np", "variance_p_np", "ground_energy_np",
                     "observables_np"),
    "model": ("critical_coupling_min", "softest_mode"),
}
LAYERS = tuple(ENTRY_POINTS)

# function-level metrics: span name -> reported fields
FUNCTIONS: dict[str, tuple[str, ...]] = {
    "dynamics.evolve": ("self_s",),
    "dynamics.build_full_hamiltonian": ("self_s",),
    "dynamics.exact_ground_energy": ("self_s",),
    "meanfield.solve_displacements": ("calls", "self_s"),
    "bogoliubov.diagonalize_paraunitary": ("calls", "self_s"),
    "scaling.exponent_report": ("self_s",),
    "scaling.fit_power_law": ("calls", "self_s"),
}

ROOT = "bench.pass"
_COUNTED = ("power-law", "finite-limit")


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_ratio")):
        return "ratio"
    if metric.endswith("flops_computed"):
        return "flop"
    if metric.endswith("bytes_computed"):
        return "B"
    return "count"


class Tracer:
    """In-memory span recorder plus the counters taken at the same
    boundaries: Hamiltonians built and exponent-report rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []
        self.misnested = 0      # spans not inside their parent, set by metrics
        self.busy = False
        self.hamiltonians: list[tuple[int, int, int]] = []  # dim, nnz, bytes
        self.rows_attempted = 0
        self.rows_ok = 0
        self.paused = False     # set while the harness checks outputs

    @contextmanager
    def pause(self):
        """Calls made inside the block record no spans; their time stays
        with the enclosing span, normally the pass itself."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # `busy` marks the two-step updates of spans and stack, where a span
    # opened from a signal handler would get the wrong parent; the
    # yardstick (calibrate.py) defers its sample while it is set.
    def _open(self, name: str) -> list:
        self.busy = True
        rec = [len(self.spans), self._stack[-1] if self._stack else -1,
               name, time.perf_counter(), 0.0, False]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self.busy = False
        return rec

    def _close(self, rec: list) -> None:
        self.busy = True
        self._stack.pop()
        rec[4] = time.perf_counter()
        self.busy = False

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            self._close(rec)

    def _observe(self, name: str, result) -> None:
        if name == "dynamics.build_full_hamiltonian":
            nbytes = (result.data.nbytes + result.indices.nbytes
                      + result.indptr.nbytes
                      + 2 * result.shape[0] * result.dtype.itemsize)
            self.hamiltonians.append((result.shape[0], result.nnz, nbytes))
        elif name == "scaling.exponent_report":
            for e in result.entries:
                if e.status != "not-fitted":
                    self.rows_attempted += 1
                    self.rows_ok += e.status in _COUNTED

    def _wrap(self, name: str, fn):
        observed = name in ("dynamics.build_full_hamiltonian",
                            "scaling.exponent_report")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if observed:
                self._observe(name, result)
            return result
        return wrapper

    def install(self) -> None:
        originals = {}
        for layer, names in ENTRY_POINTS.items():
            mod = sys.modules[f"rabitri.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                originals[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "rabitri" and not modname.startswith("rabitri."):
                continue
            ns = vars(mod)
            for attr, value in list(ns.items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._saved.append((ns, attr, value))
                    ns[attr] = wrapper

    def restore(self) -> None:
        for ns, attr, value in reversed(self._saved):
            ns[attr] = value
        self._saved.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer and per-function counts and times from the spans.

        Self time is a span's duration minus its children's; busy time sums
        the spans with no ancestor in their own layer, so nested calls
        inside one layer are not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        layer_of = [s[2].split(".", 1)[0] for s in spans]
        out: dict[str, float] = {}
        for layer in (*LAYERS, "bench"):
            out[f"{layer}.calls"] = 0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for name, fields in FUNCTIONS.items():
            for f in fields:
                out[f"{name}.{f}"] = 0 if f == "calls" else 0.0
        self_total = 0.0
        self.misnested = 0
        for i, s in enumerate(spans):
            layer = layer_of[i]
            dur = s[4] - s[3]
            own = dur - child[i]
            self_total += own
            parent = spans[s[1]] if s[1] >= 0 else None
            if own < 0.0 or parent is not None and not (
                    parent[3] <= s[3] <= s[4] <= parent[4]):
                self.misnested += 1
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            out[f"{layer}.errors"] += s[5]
            p = s[1]
            while p >= 0 and layer_of[p] != layer:
                p = spans[p][1]
            if p < 0:
                out[f"{layer}.busy_s"] += dur
            fields = FUNCTIONS.get(s[2], ())
            if "calls" in fields:
                out[f"{s[2]}.calls"] += 1
            if "self_s" in fields:
                out[f"{s[2]}.self_s"] += own
        # the root span is the pass itself; its layer counters are noise
        for key in ("bench.calls", "bench.busy_s", "bench.errors"):
            del out[key]
        out["trace.self_sum_frac"] = self_total / wall_s
        out["trace.spans"] = len(spans)
        dim, nnz, nbytes = max(self.hamiltonians, default=(0, 0, 0))
        out["dynamics.h_dim"] = dim
        out["dynamics.h_nnz"] = nnz
        # one complex sparse matvec: a complex multiply-add per stored entry
        out["dynamics.matvec_flops_computed"] = 8 * nnz
        out["dynamics.matvec_bytes_computed"] = nbytes
        out["scaling.rows_attempted"] = self.rows_attempted
        out["scaling.rows_failed"] = self.rows_attempted - self.rows_ok
        out["scaling.rows_ok_ratio"] = (self.rows_ok / self.rows_attempted
                                        if self.rows_attempted else 0.0)
        return out

    def dump(self) -> list[dict]:
        t0 = self.spans[0][3] if self.spans else 0.0
        return [{"id": s[0], "parent": s[1], "name": s[2],
                 "start_s": s[3] - t0, "end_s": s[4] - t0, "raised": s[5]}
                for s in self.spans]
