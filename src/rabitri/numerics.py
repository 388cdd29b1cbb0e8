"""Working precision: float64, or 50 digits on the standard `decimal`.

The equations of the package (boundary, mean-field residuals, Jacobian and
Newton, Colpa step, observables) are written once on real numpy arrays.
Float arrays run them in float64; object arrays of Decimal numbers, or
parameter sets whose omega is a Decimal, run them in the current decimal
context, which must be `working()` (the default holds 28 digits). Only the
primitives in the tables F64 and DEC differ, and `of` picks the table.
Decimal refuses float operands, so shared code writes an integral constant
as an int and passes other floats through `num`, the identity in F64 and
the exact conversion in DEC.

F64 runs on numpy alone (its Cholesky is the upper factor of
`np.linalg.cholesky`, new in numpy 2.0), so the mean field, the Colpa step
and the exponent reports load no scipy module.

The Cholesky and the linear solve take real arrays: the residual Jacobian
of the Colpa step and the Newton systems. At 50 digits both run on one
factorization, `_cholesky_dec`: a Newton system is solved by its Cholesky
and two triangular substitutions, so a singular or indefinite one raises
LinAlgError, on which Newton gives that row up. Float64 solves by LU
(`np.linalg.solve`), since its multi-start steps past saddles.

Every kernel takes one matrix or a stack of them along a leading axis, and
a stack runs each step on all its matrices at once: on 6x6 object arrays
numpy's cost per call outweighs the Decimal arithmetic. Each matrix of a
stack gets the Decimal numbers a call on it alone gives: the factor, the
solve and the eigensolve's steps are the same elementwise operations and
the same ordered sums, the eigenvector refinement stops each matrix on its
own, and the Jacobi pass runs on each matrix that has a cluster. A stack
with one indefinite matrix is refused as a whole (`meanfield._solve_rows`
then solves its systems one by one).

`colpa(l)` takes the real upper factor L of the Jacobian J = L^T L (see
`bogoliubov`). The Hermitian W = i L Om L^T, Om = [[0, 1], [-1, 0]] in 3x3
blocks, is i times a real antisymmetric matrix, so its eigenvalues come in
pairs +-e and the eigenvectors of -e are the conjugates of those of +e.
`colpa` returns the ascending e and Y = L^T X, where X = [Re u | Im u]
holds the orthonormal eigenvectors u of +e as real 6x6 columns. The tables
differ only in `eigh_plus`, which computes them: F64 takes the upper half
of `eigh`, and DEC refines that float64 start (`_eigh_plus`), in real
arithmetic on the two halves of X.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal, getcontext, localcontext
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

MP_DPS = 50     # decimal digits of the near-critical points


def working(digits: int = MP_DPS + 2):      # two guard digits
    """The decimal context of the 50-digit points, or of `digits` digits."""
    return localcontext(Context(prec=digits))


def _t(a):
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _k(l):
    """K = L Om L^T with Om = [[0, 1], [-1, 0]] in 3x3 blocks: the real
    antisymmetric matrix with W = i K."""
    p = l[..., :, :3] @ _t(l[..., :, 3:])
    return p - _t(p)


def _eigh_plus_f64(k):
    """Ascending eigenvalues e of the upper half of the spectrum of the
    Hermitian W = i k, k real antisymmetric, and their orthonormal
    eigenvectors u as x = [Re u | Im u]."""
    lam, u = np.linalg.eigh(1j * k)
    u = u[..., 3:]
    return lam[..., 3:], np.concatenate([u.real, u.imag], axis=-1)


def colpa(l):
    """The ascending e and Y = L^T X of the +e half of W = i L Om L^T, for
    the real upper factor l of J = L^T L, at the precision of l; for a
    stack of factors, one e and Y per factor."""
    lam, x = of(l).eigh_plus(_k(l))
    return lam, _t(l) @ x


F64 = SimpleNamespace(
    name="float64", rdtype=float, num=lambda x: x,
    pi=lambda: math.pi, cos=math.cos, sin=math.sin,
    sqrt=lambda x: np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x),
    prec=lambda: 16,                                    # digits
    cholesky=lambda a: np.linalg.cholesky(a, upper=True),   # a = l^T l
    eigh_plus=_eigh_plus_f64, solve=np.linalg.solve)


# ---------------------------------------------------------------------------
# the 50-digit scalars

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

_decimal = np.frompyfunc(Decimal, 1, 1)     # exact, from floats


def _cholesky_dec(a):
    """Upper l (Decimal) with a = l^T l for the real symmetric a, or for
    each matrix of a stack: the one factorization of the 50-digit table,
    the Colpa step's and the Newton systems'. A pivot below the working
    epsilon, in any matrix of a stack, raises LinAlgError, so a singular or
    indefinite a is refused."""
    eps = Decimal(10) ** (1 - getcontext().prec)
    l = np.full(a.shape, Decimal(0), dtype=object)
    for j in range(a.shape[-1]):
        s = a[..., j, j:] - (l[..., None, :j, j] @ l[..., :j, j:])[..., 0, :]
        if not np.all(s[..., 0] >= eps):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        l[..., j, j:] = s / np.sqrt(s[..., :1])
    return l


def _solve_dec(a, b):
    """x with a x = b for the real symmetric Newton systems, one (b of
    shape (n,)) or a stack (a of shape (k, n, n), b (k, n, 1)), with 4 more
    digits (10 guard bits) than the context: the Cholesky a = l^T l, then
    l^T y = b and l x = y by substitution, on all systems at once."""
    with working(getcontext().prec + 4):
        l = _cholesky_dec(a)
        x = np.reshape(b, a.shape[:-1] + (-1,)).copy()
        for i in range(a.shape[-1]):
            x[..., i, :] = ((x[..., i, :] - (l[..., None, :i, i]
                                             @ x[..., :i, :])[..., 0, :])
                            / l[..., i, i, None])
        for i in reversed(range(a.shape[-1])):
            x[..., i, :] = ((x[..., i, :] - (l[..., None, i, i + 1:]
                                             @ x[..., i + 1:, :])[..., 0, :])
                            / l[..., i, i, None])
    return x.reshape(np.shape(b))


_CLUSTER = 1e-4     # relative float64 gap below which eigenvalues cluster


def _quarters(a):
    """The 3x3 blocks of a 6x6 array, or of each of a stack, row by row."""
    return a[..., :3, :3], a[..., :3, 3:], a[..., 3:, :3], a[..., 3:, 3:]


def _eigh_plus(k):
    """Ascending eigenvalues e > 0 of the upper half of the spectrum of the
    Hermitian W = i k, k a real antisymmetric 6x6 Decimal array, and their
    orthonormal eigenvectors u as x = [Re u | Im u], in the current context;
    for a stack of k, those of each, each refined until it stops on its own.
    The lower half is -e with the vectors conj(u), since W is imaginary.

    Starts from the float64 `_eigh_plus_f64`. Each column's two halves span
    the real plane of its +-e pair, even where float64 mixes u with conj(u)
    (eps1 of the frustrated roots); they are orthonormalized to
    u = (q1 + i q2) / sqrt 2, which makes u^T u = 0. Then it refines by
    Ogita & Aishima (Japan J. Indust. Appl. Math. 35, 1007 (2018)) on the
    full basis X = [conj(u), u]: with S = X^dag W X and
    R = 1 - X^dag X, each step sets lam_i = S_ii / (1 - R_ii) and
    X <- X (1 + E), E_ij = (S_ij + lam_j R_ij) / (lam_j - lam_i). Only the
    u half is kept, u <- u (1 + E++) + conj(u) E-+, which needs the blocks
    u^dag W u, u^T W u, u^dag u and u^T u: S-+ = u^T W u and R-+ = -u^T u,
    and lam is -e on the lower half. On the diagonal of E-+ the formula
    reads R / 2, since u^T W u = 0, so the nearly coincident +-e pair of a
    soft mode needs no gap. Eigenvalues e within _CLUSTER max(e) of each
    other form clusters, whose float64 vectors are too mixed for that
    formula: there E_ij = R_ij / 2, and Jacobi rotations diagonalize the
    cluster blocks of the updated u^dag W u, predicted to first order as
    T = S + (lam_i + lam_j) R_ij / 2. The error after a step is then about
    max|E|^2 times the conditioning, so the refinement stops once max|E|^2
    reaches the working epsilon.
    """
    if k.ndim == 2:
        lam, x = _eigh_plus(k[None])
        return lam[0], x[0]
    lam, x = _eigh_plus_f64(k.astype(float))
    q1 = x[..., :3] / np.linalg.norm(x[..., :3], axis=-2, keepdims=True)
    q2 = x[..., 3:] - q1 * np.sum(q1 * x[..., 3:], axis=-2, keepdims=True)
    q2 = q2 / np.linalg.norm(q2, axis=-2, keepdims=True)
    x = _decimal(np.concatenate([q1, q2], axis=-1) / math.sqrt(2))
    scale = np.max(lam, axis=-1)
    near = (np.abs(lam[:, :, None] - lam[:, None]) <= _CLUSTER
            * scale[:, None, None])
    one = np.eye(3, dtype=int)
    eps = Decimal(10) ** (1 - getcontext().prec)
    e = np.empty(lam.shape, dtype=object)
    live = np.arange(len(k))        # the matrices still refining
    for _ in range(8):
        kl, xl, nl = k[live], x[live], near[live]
        yrr, yri, yir, yii = _quarters(_t(xl) @ (kl @ xl))
        grr, gri, gir, gii = _quarters(_t(xl) @ xl)
        sr, si = yir - yri, yrr + yii                   # u^dag W u
        br, bi = -(yri + yir), yrr - yii                # u^T W u
        rr, ri = one - (grr + gii), gir - gri           # 1 - u^dag u
        hr, hi = grr - gii, gri + gir                   # u^T u
        lam = (np.diagonal(sr, axis1=1, axis2=2)
               / (1 - np.diagonal(rr, axis1=1, axis2=2)))
        lj, li = lam[:, None], lam[:, :, None]          # lam_j, lam_i at ij
        den = np.where(nl, 1, lj - li)
        er = np.where(nl, rr / 2, (sr + rr * lj) / den)
        ei = np.where(nl, ri / 2, (si + ri * lj) / den)
        fr = np.where(one, -hr / 2, (br - hr * lj) / (lj + li))
        fi = np.where(one, -hi / 2, (bi - hi * lj) / (lj + li))
        xr, xi = xl[..., :3], xl[..., 3:]
        xl = np.concatenate([xr + xr @ (er + fr) + xi @ (fi - ei),
                             xi + xr @ (ei + fi) + xi @ (er - fr)], axis=-1)
        for i in np.flatnonzero(np.any(np.triu(nl, 1), axis=(1, 2))):
            lam[i] = _jacobi(sr[i], si[i], rr[i], ri[i], lam[i], xl[i],
                             np.triu(nl[i], 1), Decimal(scale[live[i]]) * eps)
        x[live], e[live] = xl, lam
        big = np.max(np.abs(np.concatenate([er, ei, fr, fi], axis=-1)),
                     axis=(1, 2))
        live = live[~np.array(big ** 2 <= eps, dtype=bool)]
        if not len(live):
            break
    else:
        raise np.linalg.LinAlgError("eigenvector refinement diverged")
    order = np.argsort(e, axis=-1, kind="stable")
    cols = np.concatenate([order, 3 + order], axis=-1)
    return (np.take_along_axis(e, order, -1),
            np.take_along_axis(x, cols[:, None], -1))


def _jacobi(sr, si, rr, ri, lam, x, pairs, tiny):
    """The eigenvalues of the cluster blocks of the updated u^dag W u of
    one matrix, predicted to first order as T = S + (lam_i + lam_j) R_ij / 2
    with the diagonal lam, by cyclic Jacobi sweeps over the cluster pairs
    (the upper-triangle mask pairs) until every |T_pq| <= tiny; the
    rotations are applied in place to the columns of x = [Re u | Im u]."""
    mean = (lam + lam[:, None]) / 2
    tr, ti = sr + rr * mean, si + ri * mean
    np.fill_diagonal(tr, lam)
    pairs = list(zip(*np.nonzero(pairs)))
    for _ in range(8):
        big = [(p, q) for p, q in pairs
               if abs(tr[p, q]) + abs(ti[p, q]) > tiny]
        if not big:
            return np.diagonal(tr)
        for p, q in big:
            _rotate(tr, ti, x[:, :3], x[:, 3:], p, q)
    raise np.linalg.LinAlgError("Jacobi sweeps did not converge")


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
    name="Decimal", rdtype=object, num=_decimal, pi=_pi,
    cos=lambda x: _cos_sin(Decimal(x), getcontext().prec)[0],
    sin=lambda x: _cos_sin(Decimal(x), getcontext().prec)[1],
    sqrt=np.sqrt, prec=lambda: getcontext().prec,
    cholesky=_cholesky_dec, eigh_plus=_eigh_plus, solve=_solve_dec)


def of(*inputs):
    """DEC if any input is a Decimal or an object array, else F64. A
    parameter set runs at the precision of its omega."""
    for v in inputs:
        if (v.dtype == object if isinstance(v, np.ndarray)
                else isinstance(v, Decimal)):
            return DEC
    return F64
