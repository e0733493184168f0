"""Truncated power-series (jet) kernels for the map families and the
Lindstedt engines.

A jet is an ndarray whose leading axis indexes the power order; entries are
grid samples or plain values of a common shape, and every operation is
coefficient-exact truncated power-series algebra.  A kernel's result is
float64 when its operands are real, complex128 when one is complex.
Matrix-valued jets and grid stacks are (..., p, q, points), the matrix axes
(-3, -2) and the grid points on one trailing axis.
"""

from __future__ import annotations

import numpy as np
# the LAPACK ufunc behind np.linalg.inv: a singular matrix of a stack is
# inverted to nan, where np.linalg.inv raises for the whole stack
from numpy.linalg import _umath_linalg

TWO_PI = 2.0 * np.pi
MAX_ORDER_DOUBLE = 32      # order cap of the complex128 jets


def zero_like(a):
    """Zeros of a jet's shape, complex128 for a complex jet and float64 for a real one."""
    return np.zeros(a.shape, dtype=np.result_type(a.dtype, np.float64))


def pad(a, order):
    """Extend (or cut) a jet to the given order with zero coefficients."""
    a = np.asarray(a)
    n = order + 1
    if a.shape[0] == n:
        return a
    out = np.zeros((n,) + a.shape[1:], dtype=a.dtype)
    out[: min(n, a.shape[0])] = a[: min(n, a.shape[0])]
    return out


def _order_sum(terms):
    """terms[0] + terms[1] + ..., bit for bit the running sum from zero, in
    that order (np.add.reduce sums single values pairwise, so those are
    added one by one)."""
    if terms[0].size == 1:
        acc = 0
        for t in terms:
            acc = acc + t
        return acc
    return 0 + np.add.reduce(terms, axis=0)


def mm(a, b):
    """The matrix product of two stacks (..., p, m, points) and (..., m, q,
    points), broadcast as np.matmul is; a constant matrix has one point.
    Each entry is summed in order of the inner index, so it is rounded the
    same wherever it lies in the stack."""
    m = a.shape[-2]
    if m == 1:
        return a * b
    out = a[..., :1, :] * b[..., :1, :, :]
    for j in range(1, m):
        out += a[..., j:j + 1, :] * b[..., j:j + 1, :, :]
    return out


def cauchy(a, b, order=None, prod=np.multiply, start=0):
    """Orders start..order of the truncated Cauchy product c_n = sum_m
    prod(a_m, b_{n-m}), each bit for bit the running sum over m.  A
    polynomial factor passed through its degree gives the same bits as
    zero-padded, for finite factors."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = (min(a.shape[0], b.shape[0]) - 1) if order is None else order
    first = prod(a[0], b[0])
    if n == 0:
        return first[None]
    out = np.zeros((n + 1 - start,) + first.shape, dtype=np.result_type(first.dtype, np.float64))
    if start == 0:
        out[0] = first
    for i in range(max(start, 1), n + 1):
        lo, hi = max(0, i - b.shape[0] + 1), min(i, a.shape[0] - 1)
        if lo <= hi:
            out[i - start] = _order_sum(prod(a[lo:hi + 1], b[i - hi:i - lo + 1][::-1]))
    return out


def matmul(a, b, order=None):
    """The Cauchy product of two matrix-valued jets, with `mm`."""
    return cauchy(a, b, order=order, prod=mm)


def sincos(x, sc=None):
    """Jets of sin(2 pi x) and cos(2 pi x) along a jet x.  `sc`, the (s, c)
    of an earlier call through order m on the same x below order m, is
    continued from order m, bit for bit the whole recurrence."""
    x = np.asarray(x)
    n = x.shape[0] - 1
    m = 0 if sc is None else sc[0].shape[0] - 1
    s, c = (zero_like(x), zero_like(x)) if sc is None else (pad(sc[0], n), pad(sc[1], n))
    if m == 0:
        s[0] = np.sin(TWO_PI * x[0])
        c[0] = np.cos(TWO_PI * x[0])
    dx = derivative(x)
    for i in range(max(m, 1), n + 1):
        s[i] = (TWO_PI / i) * _order_sum(dx[:i] * c[i - 1::-1])
        c[i] = -(TWO_PI / i) * _order_sum(dx[:i] * s[i - 1::-1])
    return s, c


def inv_stack(a):
    """The inverse of every matrix of a stack (..., m, m, points); that of a
    singular or non-finite matrix is not finite.  1 x 1 and 2 x 2 matrices
    are inverted in closed form, larger ones by the LAPACK ufunc behind
    np.linalg.inv, with its bytes, a singular one to nan."""
    a = np.asarray(a)
    m = a.shape[-2]
    if m > 2:
        t = "D" if a.dtype.kind == "c" else "d"
        with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
            return np.moveaxis(_umath_linalg.inv(np.moveaxis(a, -1, -3),
                                                 signature=f"{t}->{t}"), -3, -1)
    if m == 1:
        # the reciprocal of a subnormal entry overflows to inf, as that of a zero does
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return 1.0 / a
    with np.errstate(divide="ignore", invalid="ignore"):
        a00, a01, a10, a11 = a[..., 0, 0, :], a[..., 0, 1, :], a[..., 1, 0, :], a[..., 1, 1, :]
        det = a00 * a11 - a01 * a10
        out = np.empty(a.shape, dtype=det.dtype)
        for (i, j), entry in (((0, 0), a11), ((0, 1), -a01), ((1, 0), -a10),
                              ((1, 1), a00)):
            np.divide(entry, det, out=out[..., i, j, :])
        return out


def inv_matrix(a):
    """Jet of the pointwise matrix inverse of a matrix-valued jet."""
    a = np.asarray(a)
    n = a.shape[0] - 1
    if n == 0:
        return inv_stack(a[0])[None]
    out = zero_like(a)
    out[0] = inv_stack(a[0])
    for i in range(1, n + 1):
        out[i] = -mm(out[0], _order_sum(mm(a[1:i + 1], out[i - 1::-1])))
    return out


def poly_eval(a, x):
    """Evaluate the jet as a polynomial at x (Horner)."""
    a = np.asarray(a)
    out = np.asarray(a[-1], dtype=np.result_type(a.dtype, type(x))).copy()
    for i in range(a.shape[0] - 2, -1, -1):
        out = out * x + a[i]
    return out


def derivative(a):
    """d/dt of the jet: coefficients (n+1) * a_{n+1}, one order shorter."""
    a = np.asarray(a)
    n = a.shape[0] - 1
    if n == 0:
        return np.zeros((1,) + a.shape[1:], dtype=a.dtype)
    factors = np.arange(1, n + 1).reshape((n,) + (1,) * (a.ndim - 1))
    return a[1:] * factors


def variable(eps0, order):
    """The jet of t itself around eps0: [eps0, 1, 0, ...]."""
    out = np.zeros(order + 1, dtype=np.complex128)
    out[0] = eps0
    if order >= 1:
        out[1] = 1.0
    return out
