"""Machine-speed yardstick timed throughout each measured pass.

On a shared machine the same computation runs up to 2.7x slower when
other tenants are busy, in phases of a few to 40 seconds, and a whole
20 s run can sit in one phase: raw throughput spread 30-40% between runs.
A fixed computation that uses no rabitri code is therefore timed once a
second, from a timer signal, so that it also samples the machine in the
middle of long operations such as a 15 s `evolve`. Its time is taken out
of the operation's time, and throughput is reported per yardstick
duration. Per 1 s evolve sample, this cut the quartile spread of transfer
throughput from 43% to 15%. A yardstick timed only between operations,
or run in a second thread, did not help.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import scipy.sparse as sp

# Two kinds of fixed work, each about 0.03 s per sample; a workload uses
# the kind that resembles its own time. Interleaved with 1 s evolves, the
# times of the numeric parts correlated 0.85-0.88 with the evolve's time
# and the interpreter loop 0.65; over 20 s scan runs the loop alone left
# a 9% spread where loop plus numeric parts left 13%.
KINDS = ("interpreter", "numeric")
_LOOP = 350_000
_PRODUCTS = 150             # dense products of a 16-vector Krylov basis
_MATVECS = 100              # sparse matvecs at the n_max=6 Hamiltonian's nnz
_DIM, _BASIS, _NNZ = 2744, 16, 28952


class Yardstick:
    def __init__(self, kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown yardstick kind {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self.basis = (rng.standard_normal((_BASIS, _DIM))
                      + 1j * rng.standard_normal((_BASIS, _DIM)))
        self.vec = rng.standard_normal(_DIM) + 1j * rng.standard_normal(_DIM)
        self.sparse = sp.random(_DIM, _DIM, density=_NNZ / _DIM ** 2,
                                random_state=rng, format="csr",
                                dtype=complex)
        self.samples: list[tuple[float, float]] = []    # (start, seconds)
        self.tracer = None
        self.sample()           # the first run pays one-off costs
        self.samples.clear()

    def _work(self) -> None:
        if self.kind == "interpreter":
            acc = 0
            for i in range(_LOOP):
                acc += i * i
            return
        for _ in range(_PRODUCTS):
            coef = self.basis.conj() @ self.vec
            self.vec - self.basis.T @ coef
        v = self.vec
        for _ in range(_MATVECS):
            w = self.sparse @ v
            v = w / np.linalg.norm(w)

    def sample(self) -> None:
        """Time one run of the fixed computation."""
        span = (self.tracer.span("bench.yardstick") if self.tracer
                else nullcontext())
        with span:
            t0 = time.perf_counter()
            self._work()
            self.samples.append((t0, time.perf_counter() - t0))

    @contextmanager
    def every(self, seconds: float):
        """Sample before, every `seconds` during, and after the block."""
        def on_alarm(signum, frame):
            if self.tracer is not None and self.tracer.busy:
                signal.setitimer(signal.ITIMER_REAL, 1e-3, seconds)
            else:
                self.sample()

        self.sample()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def inside(self, t0: float, t1: float) -> list[float]:
        return [d for s, d in self.samples if t0 <= s < t1]

    def around(self, t0: float, t1: float) -> float:
        """Mean yardstick duration over [t0, t1]: the samples taken inside
        it, else the nearest one on either side."""
        inner = self.inside(t0, t1)
        if inner:
            return sum(inner) / len(inner)
        before = [d for s, d in self.samples if s < t0][-1]
        after = [d for s, d in self.samples if s >= t1][0]
        return 0.5 * (before + after)
