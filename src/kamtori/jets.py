"""Truncated power-series (jet) kernels used by the map families and the
Lindstedt engines.

A jet is an ndarray whose leading axis indexes the power order; entries are
grid samples or plain values of a common shape.  All operations are
coefficient-exact truncated power-series algebra.

Matrix-valued jets and grid stacks multiply through `mm`, for any inner
dimension; the frames of the Newton method and the Lindstedt engines are
stacks of 1 x 1 to 2 x 2 matrices at d = 1.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
MAX_ORDER_DOUBLE = 16      # order cap of the complex128 jets


def zero_like(a):
    return np.zeros(a.shape, dtype=np.result_type(a.dtype, np.complex128))


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
    """terms[0] + terms[1] + ..., added in that order as a running sum from
    zero is.  np.add.reduce over the leading axis runs in that order whenever
    a term holds more than one value (the leading 0 + keeps the running sum's
    +0 where every term is -0, whatever value the reduction starts from); a
    single value per term would be summed pairwise, so those few terms are
    added one by one."""
    if terms[0].size == 1:
        acc = 0
        for t in terms:
            acc = acc + t
        return acc
    return 0 + np.add.reduce(terms, axis=0)


def mm(a, b):
    """The matrix product of two stacks (..., p, m) and (..., m, q), broadcast
    over the leading axes as np.matmul is.

    It is the broadcast sum of the m outer products a[..., :, j] b[..., j, :],
    added in order of j: m passes over the stack, where np.matmul runs one
    BLAS call per matrix; each entry is rounded the same wherever it lies in
    the stack.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def cauchy(a, b, order=None, prod=np.multiply):
    """Truncated Cauchy product c_n = sum_m prod(a_m, b_{n-m}); each order is
    one batched product over its terms."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = (min(a.shape[0], b.shape[0]) - 1) if order is None else order
    first = prod(a[0], b[0])
    if n == 0 and first.dtype == np.complex128:
        return first[None]
    out = np.zeros((n + 1,) + first.shape, dtype=np.result_type(first.dtype, np.complex128))
    out[0] = first
    for i in range(1, n + 1):
        lo, hi = max(0, i - b.shape[0] + 1), min(i, a.shape[0] - 1)
        if lo <= hi:
            out[i] = _order_sum(prod(a[lo:hi + 1], b[i - hi:i - lo + 1][::-1]))
    return out


def matmul(a, b, order=None):
    return cauchy(a, b, order=order, prod=mm)


def sincos(x):
    """Jets of sin(2 pi x) and cos(2 pi x) along a jet x, via the standard
    first-order recurrence (exact truncated coefficients)."""
    x = np.asarray(x)
    n = x.shape[0] - 1
    s = zero_like(x)
    c = zero_like(x)
    s[0] = np.sin(TWO_PI * x[0])
    c[0] = np.cos(TWO_PI * x[0])
    dx = derivative(x)
    for i in range(1, n + 1):
        s[i] = (TWO_PI / i) * _order_sum(dx[:i] * c[i - 1::-1])
        c[i] = -(TWO_PI / i) * _order_sum(dx[:i] * s[i - 1::-1])
    return s, c


def inv_stack(a):
    """The inverse of every matrix of a stack (..., m, m).

    A 1 x 1 matrix is inverted by its reciprocal and a 2 x 2 one by its
    adjugate over its determinant, a few passes over the stack where
    np.linalg.inv runs LAPACK once per matrix; where a determinant is zero or
    not finite these inverses hold inf or nan.  Larger matrices keep
    np.linalg.inv; where it finds one exactly singular, the whole inverse is
    nan.
    """
    a = np.asarray(a)
    m = a.shape[-1]
    if m > 2:
        try:
            return np.linalg.inv(a)
        except np.linalg.LinAlgError:
            return np.full(a.shape, np.nan, dtype=np.result_type(a.dtype, np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            return 1.0 / a
        a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
        det = a00 * a11 - a01 * a10
        out = np.empty(a.shape, dtype=det.dtype)
        for (i, j), entry in (((0, 0), a11), ((0, 1), -a01), ((1, 0), -a10),
                              ((1, 1), a00)):
            np.divide(entry, det, out=out[..., i, j])
        return out


def inv_matrix(a):
    """Jet of the pointwise matrix inverse of a matrix-valued jet."""
    a = np.asarray(a)
    n = a.shape[0] - 1
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
