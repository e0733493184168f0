"""The jet kernels sum each order with one batched product; the running-sum
loops they replaced are kept here as the byte-for-byte reference, with
`jets.mm` as their pointwise matrix product."""

import numpy as np
import pytest

from kamtori import jets


def _loop_cauchy(a, b, order=None, prod=np.multiply):
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


def _loop_sincos(x, freq=jets.TWO_PI):
    x = np.asarray(x)
    n = x.shape[0] - 1
    s = jets.zero_like(x)
    c = jets.zero_like(x)
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


def _loop_inv_matrix(a):
    a = np.asarray(a)
    n = a.shape[0] - 1
    out = jets.zero_like(a)
    out[0] = jets.inv_stack(a[0])
    for i in range(1, n + 1):
        acc = np.zeros_like(out[0])
        for m in range(1, i + 1):
            acc = acc + jets.mm(a[m], out[i - m])
        out[i] = -jets.mm(out[0], acc)
    return out


def _same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _jet(rng, order, shape):
    # magnitudes spread over decades, so any change of summation order shows
    size = (order + 1,) + shape
    scale = 10.0 ** rng.integers(-6, 7, size)
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale


# values: bare scalars, and scalar, (1,1), (2,1) and (2,2) values on a grid of 5
SHAPES = [(), (5,), (5, 1, 1), (5, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("shape", SHAPES)
def test_cauchy_is_byte_equal_to_the_running_sum(rng, shape):
    for order in range(34):
        a, b = _jet(rng, order, shape), _jet(rng, order, shape)
        assert _same_bytes(jets.cauchy(a, b), _loop_cauchy(a, b))
        # shorter factors and an order beyond them leave empty term ranges
        short = b[: order // 2 + 1]
        assert _same_bytes(jets.cauchy(a, short, order=order),
                           _loop_cauchy(a, short, order=order))
        assert _same_bytes(jets.cauchy(short, a, order=order + 3),
                           _loop_cauchy(short, a, order=order + 3))
        if len(shape) == 3:
            bt = np.swapaxes(b, -1, -2)
            assert _same_bytes(jets.matmul(bt, b), _loop_cauchy(bt, b, prod=jets.mm))


def test_cauchy_keeps_the_signed_zero_of_the_running_sum():
    # every product is -0 + 0j: a running sum from +0 stays +0, while a sum
    # that starts at its first term would give -0
    a = np.ones(3, dtype=complex)
    b = np.full(3, complex(-0.0, 0.0))
    for shape in [(), (3,)]:
        aa = np.broadcast_to(a.reshape((3,) + (1,) * len(shape)), (3,) + shape)
        bb = np.broadcast_to(b.reshape((3,) + (1,) * len(shape)), (3,) + shape)
        out = jets.cauchy(aa, bb)
        assert _same_bytes(out, _loop_cauchy(aa, bb))
        assert not np.any(np.signbit(out[1:].real))


# a single grid point, a grid, and a grid of vectors (the old loop on a bare
# 0-d jet ran numpy's scalar arithmetic, which rounds unlike the array loops)
@pytest.mark.parametrize("shape", [(1,), (5,), (7, 3)])
def test_sincos_is_byte_equal_to_the_running_sum(rng, shape):
    for order in range(34):
        x = _jet(rng, order, shape) * 1e-3
        x[0] = rng.random(shape)
        got, want = jets.sincos(x), _loop_sincos(x)
        assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])


@pytest.mark.parametrize("shape", [(1, 1), (5, 1, 1), (5, 2, 2), (4, 3, 3)])
def test_inv_matrix_is_byte_equal_to_the_running_sum(rng, shape):
    for order in range(34):
        a = _jet(rng, order, shape) * 1e-2
        a[0] = rng.standard_normal(shape) + 3 * np.eye(shape[-1])
        assert _same_bytes(jets.inv_matrix(a), _loop_inv_matrix(a))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_inverse_matches_lapack(rng, m):
    # complex stacks with condition numbers spread over decades
    a = _jet(rng, 0, (200, m, m))[0]
    want = np.linalg.inv(a)
    err = np.linalg.norm(jets.inv_stack(a) - want, axis=(-2, -1)) \
        / np.linalg.norm(want, axis=(-2, -1))
    assert np.all(err <= 1e-14 * np.linalg.cond(a))


def test_larger_inverse_is_lapacks(rng):
    a = _jet(rng, 0, (50, 3, 3))[0]
    assert _same_bytes(jets.inv_stack(a), np.linalg.inv(a))
    a[7] = 0.0
    assert np.all(np.isnan(jets.inv_stack(a)))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_inverse_of_a_singular_or_nan_matrix_is_not_finite(m):
    a = np.stack([np.eye(m), np.zeros((m, m)), np.full((m, m), np.nan)]).astype(complex)
    inv = jets.inv_stack(a)
    assert np.array_equal(inv[0], np.eye(m))
    assert not np.any(np.isfinite(inv[1])) and np.all(np.isnan(inv[2]))


def test_order_zero_fast_path_returns_the_product_itself(rng):
    a, b = _jet(rng, 0, (5, 2, 2)), _jet(rng, 0, (5, 2, 2))
    out = jets.matmul(a, b)
    assert out.shape == (1, 5, 2, 2)
    assert out.base is not None and _same_bytes(out[0], jets.mm(a[0], b[0]))


# (a, b) shapes by inner dimension: stacks, a single matrix against a stack
# (the Minv0 of the doubling), and the matrix-vector products of the frame
MM_SHAPES = {
    1: [((300, 1, 1), (300, 1, 1)), ((300, 2, 1), (300, 1, 2)), ((7, 300, 2, 1), (300, 1, 1))],
    2: [((300, 2, 2), (300, 2, 2)), ((300, 1, 2), (300, 2, 1)), ((2, 2), (300, 2, 1)),
        ((300, 2, 2), (2, 1)), ((5, 300, 2, 2), (5, 300, 2, 1))],
    3: [((300, 3, 3), (300, 3, 2))],
    4: [((300, 4, 4), (300, 4, 1)), ((4, 4), (300, 4, 4))],
}


@pytest.mark.parametrize("inner", [1, 2, 3, 4])
def test_mm_agrees_with_matmul_for_small_inner_dimensions(rng, inner):
    for sa, sb in MM_SHAPES[inner]:
        a, b = _jet(rng, 0, sa)[0], _jet(rng, 0, sb)[0]
        got, want = jets.mm(a, b), np.matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        # relative to the sum of the magnitudes of the products
        assert np.all(np.abs(got - want) <= 1e-15 * np.matmul(np.abs(a), np.abs(b)))


def test_mm_broadcasts_a_single_matrix_against_a_stack(rng):
    m, stack = _jet(rng, 0, (2, 2))[0], _jet(rng, 0, (300, 2, 1))[0]
    got = jets.mm(m, stack)
    assert got.shape == (300, 2, 1)
    # each matrix of the stack as the product of the single matrix with it
    assert _same_bytes(got, np.stack([jets.mm(m, v) for v in stack]))


@pytest.mark.parametrize("inner", [1, 2, 3, 4])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_mm_keeps_inf_and_nan_entries_not_finite(inner):
    a = np.ones((3, 2, inner), dtype=complex)
    b = np.ones((3, inner, 2), dtype=complex)
    a[0, 1, 0] = np.inf
    a[1, 0, -1] = complex(0.0, np.nan)
    b[2, 0, 1] = -np.inf
    got = jets.mm(a, b)
    assert np.array_equal(np.isfinite(got), np.isfinite(np.matmul(a, b)))
    assert not np.all(np.isfinite(got[0, 1])) and not np.all(np.isfinite(got[1, 0]))
    assert not np.isfinite(got[2, 0, 1]) and np.all(np.isfinite(got[2, :, 0]))
