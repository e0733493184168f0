"""Truncated power-series (jet) kernels used by the map families and the
Lindstedt engines.

A jet is an ndarray whose leading axis indexes the power order; entries are
grid samples or plain values of a common shape.  All operations are
coefficient-exact truncated power-series algebra.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
MAX_ORDER_DOUBLE = 16      # order cap of the complex128 jets


def zero_like(a, order=None):
    n = a.shape[0] if order is None else order + 1
    return np.zeros((n,) + a.shape[1:], dtype=np.result_type(a.dtype, np.complex128))


def pad(a, order):
    """Extend (or cut) a jet to the given order with zero coefficients."""
    a = np.asarray(a)
    n = order + 1
    if a.shape[0] == n:
        return a
    out = np.zeros((n,) + a.shape[1:], dtype=a.dtype)
    out[: min(n, a.shape[0])] = a[: min(n, a.shape[0])]
    return out


def cauchy(a, b, order=None, prod=np.multiply):
    """Truncated Cauchy product c_n = sum_m prod(a_m, b_{n-m})."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = (min(a.shape[0], b.shape[0]) - 1) if order is None else order
    first = prod(a[0], b[0])
    if n == 0 and first.dtype == np.complex128:
        return first[None]
    out = np.zeros((n + 1,) + first.shape, dtype=np.result_type(first.dtype, np.complex128))
    out[0] = first
    for i in range(1, n + 1):
        acc = out[i]
        for m in range(max(0, i - b.shape[0] + 1), min(i, a.shape[0] - 1) + 1):
            acc = acc + prod(a[m], b[i - m])
        out[i] = acc
    return out


def matmul(a, b, order=None):
    return cauchy(a, b, order=order, prod=np.matmul)


def sincos(x, freq=TWO_PI):
    """Jets of sin(freq*x) and cos(freq*x) along a jet x, via the standard
    first-order recurrence (exact truncated coefficients)."""
    x = np.asarray(x)
    n = x.shape[0] - 1
    s = zero_like(x)
    c = zero_like(x)
    s[0] = np.sin(freq * x[0])
    c[0] = np.cos(freq * x[0])
    for i in range(1, n + 1):
        sacc = np.zeros_like(s[0])
        cacc = np.zeros_like(c[0])
        for m in range(1, i + 1):
            sacc = sacc + m * x[m] * c[i - m]
            cacc = cacc + m * x[m] * s[i - m]
        s[i] = (freq / i) * sacc
        c[i] = -(freq / i) * cacc
    return s, c


def inv_matrix(a):
    """Jet of the pointwise matrix inverse of a matrix-valued jet."""
    a = np.asarray(a)
    n = a.shape[0] - 1
    out = zero_like(a)
    out[0] = np.linalg.inv(a[0])
    for i in range(1, n + 1):
        acc = np.zeros_like(out[0])
        for m in range(1, i + 1):
            acc = acc + np.matmul(a[m], out[i - m])
        out[i] = -np.matmul(out[0], acc)
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


def variable(eps0, order, dtype=np.complex128):
    """The jet of t itself around eps0: [eps0, 1, 0, ...]."""
    out = np.zeros(order + 1, dtype=dtype)
    out[0] = eps0
    if order >= 1:
        out[1] = 1.0
    return out
