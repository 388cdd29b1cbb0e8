"""Working precision: float64, or 50 digits on mpmath and `decimal`.

The equations of the package (boundary, mean-field residuals, Jacobian and
Newton, M matrix, Colpa step, observables) are written once on numpy
arrays. Float and complex arrays run them in float64; object arrays of
mpmath numbers, or parameter sets whose omega is an mpmath number, run the
same code at mpmath's working precision. Only the primitives in the tables
F64 and MP differ, and `of` picks the table that matches its inputs.

At mpmath precision the scalars stay mpmath numbers, but the matrix kernels
of MP (Cholesky, linear solve, and `colpa`, the Hermitian eigensolve of the
Colpa step with the products around it) run on `decimal.Decimal`, the
standard library's C decimal type: each converts its inputs to Decimal with
one rounding, works at a precision derived from mp.prec at call time, and
returns mpmath numbers, again rounded once. Every
Decimal operation runs inside `decimal.localcontext`, because even unary
minus and abs round to the current context, whose default is 28 digits.
The kernels keep mpmath's acceptance rules (which pivots count as zero),
since those decide when Newton regularizes and when the Colpa step raises.
The linear solve takes only the real systems of the mean-field Newton
steps: the Colpa step needs no solve (see `bogoliubov`), and its residuals
are products.

Shared code keeps a numpy array on the left of a scalar (`a * w`, and
`np.divide(w, a)` for scalar over array): with an mpmath scalar on the
left, mpmath prints the whole array before it hands the operation to numpy,
which costs more than the arithmetic.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal, getcontext, localcontext
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, normalize, round_nearest

MP_DPS = 50     # decimal digits of the near-critical mpmath points


def _colpa_f64(c, sign):
    """Ascending eigenvalues of the Hermitian W = C Lam C^dag, Lam =
    diag(sign) with as many +1 as -1, and C^dag U+, U+ the orthonormal
    eigenvectors of the upper half of the spectrum."""
    lam, u = np.linalg.eigh((c * sign) @ c.conj().T)
    return lam, c.conj().T @ u[:, len(lam) // 2:]


F64 = SimpleNamespace(
    rdtype=float, cdtype=complex, pi=math.pi, cos=math.cos, sin=math.sin,
    sqrt=lambda x: np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x),
    prec=lambda: 53,                                    # bits
    cholesky=lambda h: sla.cholesky(h, lower=False),   # h = c^dag c
    colpa=_colpa_f64, solve=np.linalg.solve)


# ---------------------------------------------------------------------------
# Decimal kernels of the mpmath table

def _context(bits: int) -> Context:
    """A decimal context with at least the given number of bits."""
    return Context(prec=math.ceil(bits * math.log10(2.0)) + 1)


def _dec(v: tuple) -> Decimal:
    """A raw mpf value (sign, man, exp, bc) as a Decimal, rounded once to
    the current context."""
    sign, man, exp, _ = v
    if not man and exp:
        raise np.linalg.LinAlgError("non-finite matrix entry")
    d = Decimal(-man if sign else man)
    return d * (1 << exp) if exp >= 0 else d / (1 << -exp)


def _part_pair(x) -> tuple[Decimal, Decimal]:
    if isinstance(x, mpc):
        re, im = x._mpc_
        return _dec(re), _dec(im)
    if isinstance(x, mpf):
        return _dec(x._mpf_), Decimal(0)
    return +Decimal(x.real), +Decimal(x.imag)     # a Python number


# real and imaginary parts of mpmath or Python numbers, as Decimals
_parts = np.frompyfunc(_part_pair, 1, 2)


def _mpf_value(d: Decimal, prec: int) -> tuple:
    """The raw mpf nearest to d at prec bits: the quotient p/q of d's exact
    ratio, with a sticky bit for the remainder, rounded once."""
    if not d:
        return fzero
    p, q = d.as_integer_ratio()
    shift = max(prec + 2 + q.bit_length() - abs(p).bit_length(), 0)
    man, rem = divmod(abs(p) << shift, q)
    man = man << 1 | (rem != 0)
    return normalize(int(p < 0), man, -shift - 1, man.bit_length(), prec,
                     round_nearest)


def _to_mp(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """mpf array of Decimal parts re, or mpc array of re + i im."""
    prec = mp.prec
    if im is None:
        return np.frompyfunc(
            lambda r: mp.make_mpf(_mpf_value(r, prec)), 1, 1)(re)
    return np.frompyfunc(lambda r, i: mp.make_mpc(
        (_mpf_value(r, prec), _mpf_value(i, prec))), 2, 1)(re, im)


def _cholesky_mp(h):
    """Upper c (mpc) with h = c^dag c. A pivot below mp.eps raises
    LinAlgError, as mpmath's cholesky does."""
    h = np.asarray(h, dtype=object)
    with localcontext(_context(mp.prec)):
        hr, hi = _parts(h)
        eps = Decimal(2) ** (1 - mp.prec)       # mp.eps
        cr, ci = np.zeros_like(hr), np.zeros_like(hi)
        for j in range(len(h)):
            ar, ai, br, bi = cr[:j, j], ci[:j, j], cr[:j, j:], ci[:j, j:]
            # h[j, j:] - c[:j, j]^dag c[:j, j:]
            sr = hr[j, j:] - (ar @ br + ai @ bi)
            si = hi[j, j:] - (ar @ bi - ai @ br)
            if not sr[0] >= eps:
                raise np.linalg.LinAlgError("matrix is not positive definite")
            d = sr[0].sqrt()
            cr[j, j:], ci[j, j:] = sr / d, si / d
            ci[j, j] = Decimal(0)
        return _to_mp(cr, ci)


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


def _solve_mp(a, b):
    """x (mpf) with a x = b for the real Newton systems, one or a stack, at
    mp.prec + 10 bits by `_lu_solve`, as mpmath's lu_solve."""
    if np.ndim(a) > 2:                      # a stack of systems
        return np.array([_solve_mp(ai, bi) for ai, bi in zip(a, b)])
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    bits = mp.prec + 10
    with localcontext(_context(bits)):
        ar, _ = _parts(a)
        br, _ = _parts(b.reshape(len(a), -1))
        xr = _lu_solve(ar, br, Decimal(2) ** (1 - bits))
        return _to_mp(xr).reshape(b.shape)


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
    xr, xi = _parts(x)
    n = len(wr)
    for _ in range(8):
        sr, si = _cmul(*(xr.T, -xi.T), *_cmul(wr, wi, xr, xi))
        rr, ri = _cmul(*(xr.T, -xi.T), xr, xi)
        rr, ri = np.eye(n, dtype=int) - rr, -ri
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


def _colpa_mp(c, sign):
    """`colpa` at mp.prec: W, its eigensystem and C^dag U+ in one Decimal
    pass, with mpf eigenvalues and mpc columns."""
    with localcontext(_context(mp.prec)):
        cr, ci = _parts(np.asarray(c, dtype=object))
        # W = (C Lam) C^dag; Lam flips the sign of columns of C
        lr, li = np.where(sign > 0, cr, -cr), np.where(sign > 0, ci, -ci)
        wr, wi = _cmul(lr, li, cr.T, -ci.T)
        lam, ur, ui = _eigh_dec(wr, wi)
        half = len(lam) // 2
        vr, vi = _cmul(cr.T, -ci.T, ur[:, half:], ui[:, half:])
        return _to_mp(lam), _to_mp(vr, vi)


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


MP = SimpleNamespace(
    rdtype=object, cdtype=object, pi=mp.pi, cos=mp.cos, sin=mp.sin,
    sqrt=np.frompyfunc(mp.sqrt, 1, 1), prec=lambda: mp.prec,
    cholesky=_cholesky_mp, colpa=_colpa_mp, solve=_solve_mp)


def of(*inputs):
    """MP if any input is an mpmath number or an object array, else F64.
    A parameter set runs at the precision of its omega."""
    for v in inputs:
        if isinstance(v, np.ndarray):
            if v.dtype == object:
                return MP
        elif isinstance(v, (mpf, mpc)):
            return MP
    return F64
