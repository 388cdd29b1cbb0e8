"""Working precision: float64, or 50 digits on the standard `decimal`.

The equations of the package (boundary, mean-field residuals, Jacobian and
Newton, M matrix, Colpa step, observables) are written once on numpy
arrays. Float and complex arrays run them in float64; object arrays of
Decimal and DComplex numbers, or parameter sets whose omega is a Decimal,
run them in the current decimal context, which must be `working()` (the
default holds 28 digits). Only the primitives in the tables F64 and DEC
differ, and `of` picks the table. Decimal refuses float operands, so
shared code writes an integral constant as an int and passes other floats
through `num`, the identity in F64 and the exact conversion in DEC, and
builds a complex array from its real and imaginary parts by `complex`
(in DEC an entry whose imaginary part is zero stays a Decimal).

The matrix kernels of DEC (Cholesky, linear solve of the real Newton
systems, and `colpa`, the Colpa eigensolve with the products around it) run
on Decimal arrays of real and imaginary parts, with the rules of mpmath's
cholesky and lu_solve for which pivots count as zero: they decide when
Newton regularizes and when the Colpa step raises.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal, getcontext, localcontext
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla

MP_DPS = 50     # decimal digits of the near-critical points


def working(digits: int = MP_DPS + 2):      # two guard digits
    """The decimal context of the 50-digit points, or of `digits` digits."""
    return localcontext(Context(prec=digits))


def _colpa_f64(c, sign):
    """Ascending eigenvalues of the Hermitian W = C Lam C^dag, Lam =
    diag(sign) with as many +1 as -1, and C^dag U+, U+ the orthonormal
    eigenvectors of the upper half of the spectrum."""
    lam, u = np.linalg.eigh((c * sign) @ c.conj().T)
    return lam, c.conj().T @ u[:, len(lam) // 2:]


F64 = SimpleNamespace(
    name="float64", rdtype=float, cdtype=complex, num=lambda x: x,
    complex=lambda re, im: re + 1j * im,
    pi=lambda: math.pi, cos=math.cos, sin=math.sin,
    sqrt=lambda x: np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x),
    prec=lambda: 16,                                    # digits
    cholesky=lambda h: sla.cholesky(h, lower=False),   # h = c^dag c
    colpa=_colpa_f64, solve=np.linalg.solve)


# ---------------------------------------------------------------------------
# the 50-digit scalars

class DComplex:
    """real + i imag on two Decimals, with the operations the equations use
    (+ - * on DComplex, Decimal and int, / by them, -z, abs, conjugate,
    complex)."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    def __add__(self, z):
        if isinstance(z, DComplex):
            return DComplex(self.real + z.real, self.imag + z.imag)
        return DComplex(self.real + z, self.imag)

    def __sub__(self, z):
        return self + -z

    def __rsub__(self, z):
        return -self + z

    def __mul__(self, z):
        if isinstance(z, DComplex):
            return DComplex(self.real * z.real - self.imag * z.imag,
                            self.real * z.imag + self.imag * z.real)
        return DComplex(self.real * z, self.imag * z)

    def __truediv__(self, z):
        if isinstance(z, DComplex):
            return self * z.conjugate() / (z.real * z.real + z.imag * z.imag)
        return DComplex(self.real / z, self.imag / z)

    def __neg__(self):
        return DComplex(-self.real, -self.imag)

    def __abs__(self):
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def conjugate(self):
        return DComplex(self.real, -self.imag)

    def __complex__(self):
        return complex(float(self.real), float(self.imag))

    __radd__, __rmul__ = __add__, __mul__


def _pi() -> Decimal:
    """pi at the current precision (the recipe of the decimal docs)."""
    getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts, n, na, d, da = s, n + na, na + 8, d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


@lru_cache(maxsize=64)
def _cos_sin(x: Decimal, prec: int) -> tuple[Decimal, Decimal]:
    """cos x and sin x at prec digits by the Taylor series of the recipes
    of the decimal docs, cached: a continuation asks for one flux."""
    out = []
    with working(prec + 2):
        for i, s in ((0, Decimal(1)), (1, x)):
            lasts, fact, num, sign = 0, 1, s, 1
            while s != lasts:
                lasts, i, sign = s, i + 2, -sign
                fact, num = fact * i * (i - 1), num * x * x
                s += num / fact * sign
            out.append(Context(prec=prec).plus(s))
    return tuple(out)


# ---------------------------------------------------------------------------
# Decimal kernels of the 50-digit table

# real and imaginary parts of DComplex, Decimal or int entries
_parts = np.frompyfunc(lambda z: (z.real, z.imag), 1, 2)
_complex = np.frompyfunc(DComplex, 2, 1)
_decimal = np.frompyfunc(Decimal, 1, 1)     # exact, from floats


def _cholesky_dec(h):
    """Upper c (DComplex) with h = c^dag c. A pivot below the working
    epsilon raises LinAlgError, as mpmath's cholesky does."""
    hr, hi = _parts(h)
    eps = Decimal(10) ** (1 - getcontext().prec)
    cr, ci = np.full((2, *hr.shape), Decimal(0), dtype=object)
    for j in range(len(hr)):
        ar, ai, br, bi = cr[:j, j], ci[:j, j], cr[:j, j:], ci[:j, j:]
        # h[j, j:] - c[:j, j]^dag c[:j, j:]
        sr = hr[j, j:] - (ar @ br + ai @ bi)
        si = hi[j, j:] - (ar @ bi - ai @ br)
        if not sr[0] >= eps:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        d = sr[0].sqrt()
        cr[j, j:], ci[j, j:] = sr / d, si / d
        ci[j, j] = Decimal(0)
    return _complex(cr, ci)


def _lu_solve(a: np.ndarray, b: np.ndarray, eps: Decimal) -> np.ndarray:
    """x with a x = b for real Decimal arrays a (n, n) and b (n, m), by
    the elimination of mpmath's lu_solve: the pivot of each column maximizes
    |a_kj| / sum_l |a_kl| over the remaining rows k, and a row sum or pivot
    <= ||a||_1 eps raises LinAlgError."""
    a, b, n = a.copy(), b.copy(), len(a)
    tol = max(np.sum(np.abs(a), axis=0)) * eps
    for j in range(n):
        if j < n - 1:
            rows = np.sum(np.abs(a[j:, j:]), axis=1)
            if min(rows) <= tol:
                raise np.linalg.LinAlgError("matrix is numerically singular")
            p = j + int(np.argmax(np.abs(a[j:, j]) / rows))
            a[[j, p]], b[[j, p]] = a[[p, j]], b[[p, j]]
        if abs(a[j, j]) <= tol:
            raise np.linalg.LinAlgError("matrix is numerically singular")
        f = a[j + 1:, j, None] / a[j, j]
        a[j + 1:, j + 1:] -= f * a[j, j + 1:]
        b[j + 1:] -= f * b[j]
    for i in reversed(range(n)):
        b[i] = (b[i] - a[i, i + 1:] @ b[i + 1:]) / a[i, i]
    return b


def _solve_dec(a, b):
    """x with a x = b for the real Newton systems, one or a stack, with 4
    more digits (10 guard bits) than the context, by `_lu_solve`."""
    if np.ndim(a) > 2:                      # a stack of systems
        return np.array([_solve_dec(ai, bi) for ai, bi in zip(a, b)])
    with working(getcontext().prec + 4):
        x = _lu_solve(a, np.reshape(b, (len(a), -1)),
                      Decimal(10) ** (1 - getcontext().prec))
    return x.reshape(np.shape(b))


_CLUSTER = 1e-4     # relative float64 gap below which eigenvalues cluster


def _cmul(ar, ai, br, bi):
    """(ar + i ai) @ (br + i bi) for real Decimal arrays, by three real
    products."""
    t, u = ar @ br, ai @ bi
    return t - u, (ar + ai) @ (br + bi) - t - u


def _eigh_dec(wr, wi):
    """Ascending eigenvalues and orthonormal eigenvector columns of the
    Hermitian W = wr + i wi, all real Decimal arrays in the current context.

    Starts from float64 `eigh` and refines by Ogita & Aishima
    (Japan J. Indust. Appl. Math. 35, 1007 (2018)): with S = X^dag W X and
    R = 1 - X^dag X, each step sets lam_i = S_ii / (1 - R_ii) and
    X <- X (1 + E), E_ij = (S_ij + lam_j R_ij) / (lam_j - lam_i). Eigenvalues
    within _CLUSTER max|lam| of each other form clusters, whose float64
    vectors are too mixed for that formula: there E_ij = R_ij / 2, and
    Jacobi rotations diagonalize the cluster blocks of the updated
    X^dag W X, predicted to first order as T = S + (lam_i + lam_j) R_ij / 2.
    The error after a step is then about max|E|^2 times the conditioning,
    so the refinement stops once max|E|^2 reaches the working epsilon.
    """
    lam, x = np.linalg.eigh(wr.astype(float) + 1j * wi.astype(float))
    scale = float(np.max(np.abs(lam)))
    near = np.abs(lam[:, None] - lam) <= _CLUSTER * scale
    pairs = list(zip(*np.nonzero(np.triu(near, 1))))
    eps = Decimal(10) ** (1 - getcontext().prec)
    tiny = Decimal(scale) * eps
    xr, xi = _decimal(x.real), _decimal(x.imag)
    for _ in range(8):
        sr, si = _cmul(*(xr.T, -xi.T), *_cmul(wr, wi, xr, xi))
        rr, ri = _cmul(*(xr.T, -xi.T), xr, xi)
        rr, ri = np.eye(len(wr), dtype=int) - rr, -ri
        lam = np.diagonal(sr) / (1 - np.diagonal(rr))
        den = np.where(near, 1, lam - lam[:, None])
        er = np.where(near, rr / 2, (sr + rr * lam) / den)
        ei = np.where(near, ri / 2, (si + ri * lam) / den)
        dr, di = _cmul(xr, xi, er, ei)
        xr, xi = xr + dr, xi + di
        mean = (lam + lam[:, None]) / 2
        tr, ti = sr + rr * mean, si + ri * mean
        np.fill_diagonal(tr, lam)
        for _ in range(8):              # cyclic Jacobi sweeps
            big = [(p, q) for p, q in pairs
                   if abs(tr[p, q]) + abs(ti[p, q]) > tiny]
            if not big:
                break
            for p, q in big:
                _rotate(tr, ti, xr, xi, p, q)
        else:
            raise np.linalg.LinAlgError("Jacobi sweeps did not converge")
        if max(np.abs(er).max(), np.abs(ei).max()) ** 2 <= eps:
            break
    else:
        raise np.linalg.LinAlgError("eigenvector refinement diverged")
    lam = np.diagonal(tr)
    order = np.argsort(lam, kind="stable")
    return lam[order], xr[:, order], xi[:, order]


def _colpa_dec(c, sign):
    """`colpa` in the current context: W, its eigensystem and C^dag U+ in
    one pass, with Decimal eigenvalues and DComplex columns."""
    cr, ci = _parts(c)
    # W = (C Lam) C^dag; Lam flips the sign of columns of C
    lr, li = np.where(sign > 0, cr, -cr), np.where(sign > 0, ci, -ci)
    wr, wi = _cmul(lr, li, cr.T, -ci.T)
    lam, ur, ui = _eigh_dec(wr, wi)
    half = len(lam) // 2
    return lam, _complex(*_cmul(cr.T, -ci.T, ur[:, half:], ui[:, half:]))


def _rotate(tr, ti, xr, xi, p, q):
    """Zero T_pq of the Hermitian T = tr + i ti by the unitary rotation of
    columns p, q that diagonalizes [[T_pp, T_pq], [T_qp, T_qq]], applied in
    place to T (both sides) and to the columns of X = xr + i xi."""
    b = (tr[p, q] ** 2 + ti[p, q] ** 2).sqrt()
    # T_pq = b e^{i phi}; the rotation is diag(1, e^{-i phi}) [[c, s], [-s, c]]
    fr, fi = tr[p, q] / b, -ti[p, q] / b
    tau = (tr[q, q] - tr[p, p]) / (2 * b)
    t = (1 if tau >= 0 else -1) / (abs(tau) + (1 + tau * tau).sqrt())
    c = 1 / (1 + t * t).sqrt()
    s = t * c
    # X U and T U act on columns, U^dag T on rows, with conjugate phases
    for mr, mi, gi in ((xr, xi, fi), (tr, ti, fi), (tr.T, ti.T, -fi)):
        qr, qi = mr[:, q] * fr - mi[:, q] * gi, mr[:, q] * gi + mi[:, q] * fr
        pr, pi = mr[:, p].copy(), mi[:, p].copy()
        mr[:, p], mi[:, p] = pr * c - qr * s, pi * c - qi * s
        mr[:, q], mi[:, q] = pr * s + qr * c, pi * s + qi * c
    tr[p, q] = tr[q, p] = ti[p, q] = ti[q, p] = Decimal(0)


DEC = SimpleNamespace(
    name="Decimal", rdtype=object, cdtype=object, num=_decimal,
    # entries with a zero imaginary part stay Decimal: abs() of a DComplex
    # costs a square root
    complex=lambda re, im: np.where(im == 0, re, _complex(re, im)), pi=_pi,
    cos=lambda x: _cos_sin(Decimal(x), getcontext().prec)[0],
    sin=lambda x: _cos_sin(Decimal(x), getcontext().prec)[1],
    sqrt=np.sqrt, prec=lambda: getcontext().prec,
    cholesky=_cholesky_dec, colpa=_colpa_dec, solve=_solve_dec)


def of(*inputs):
    """DEC if any input is a Decimal, a DComplex or an object array, else
    F64. A parameter set runs at the precision of its omega."""
    for v in inputs:
        if (v.dtype == object if isinstance(v, np.ndarray)
                else isinstance(v, (Decimal, DComplex))):
            return DEC
    return F64
