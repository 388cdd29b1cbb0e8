"""Working precision: float64 or mpmath, inferred from the inputs.

The equations of the package (boundary, mean-field residuals, Jacobian and
Newton, M matrix, Colpa step, observables) are written once on numpy
arrays. Float and complex arrays run them in float64; object arrays of
mpmath numbers, or parameters holding mpmath numbers, run the same code at
mpmath's working precision. Only the primitives in the tables F64 and MP
differ, and `of` picks the table that matches its inputs.

Shared code keeps a numpy array on the left of a scalar (`a * w`, and
`np.divide(w, a)` for scalar over array): with an mpmath scalar on the
left, mpmath prints the whole array before it hands the operation to numpy,
which costs more than the arithmetic.
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from mpmath import mp, mpc, mpf

MP_DPS = 50     # decimal digits of the near-critical mpmath points


def _solve_f64(a, b, upper=False):
    if upper:
        return sla.solve_triangular(a, b, lower=False)
    return np.linalg.solve(a, b)


F64 = SimpleNamespace(
    rdtype=float, cdtype=complex, pi=math.pi, cos=math.cos, sin=math.sin,
    sqrt=lambda x: np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x),
    prec=lambda: 53,                                    # bits
    cholesky=lambda h: sla.cholesky(h, lower=False),   # h = c^dag c
    eigh=np.linalg.eigh,                                # ascending
    solve=_solve_f64)


def _matrix(a):
    return mp.matrix(np.asarray(a, dtype=object).tolist())


def _array(m):
    return np.array(m.tolist(), dtype=object)


def _cholesky_mp(h):
    try:
        return _array(mp.cholesky(_matrix(h))).conj().T
    except ValueError as ex:                 # not positive definite
        raise np.linalg.LinAlgError(str(ex)) from ex


def _eigh_mp(w):
    evals, u = mp.eighe(_matrix(w))
    return np.array(list(evals), dtype=object), _array(u)


def _solve_mp(a, b, upper=False):
    if np.ndim(a) > 2:                      # a stack of systems
        return np.array([_solve_mp(ai, bi, upper) for ai, bi in zip(a, b)])
    a, b = _matrix(a), np.asarray(b, dtype=object)
    cols = [mp.matrix(list(col)) for col in b.reshape(len(b), -1).T]
    try:
        x = [list(mp.U_solve(a, col) if upper else mp.lu_solve(a, col))
             for col in cols]
    except ZeroDivisionError as ex:          # singular
        raise np.linalg.LinAlgError(str(ex)) from ex
    return np.array(x, dtype=object).T.reshape(b.shape)


MP = SimpleNamespace(
    rdtype=object, cdtype=object, pi=mp.pi, cos=mp.cos, sin=mp.sin,
    sqrt=np.frompyfunc(mp.sqrt, 1, 1), prec=lambda: mp.prec,
    cholesky=_cholesky_mp, eigh=_eigh_mp, solve=_solve_mp)


def of(*inputs):
    """MP if any input (an array or a parameter set) holds mpmath
    numbers, else F64."""
    for v in inputs:
        if isinstance(v, np.ndarray):
            if v.dtype == object:
                return MP
        elif hasattr(v, "__dict__"):
            if any(isinstance(u, (mpf, mpc)) for u in vars(v).values()):
                return MP
    return F64
