"""The jet kernels sum each order with one batched product; the running-sum
loops they replaced are kept here as the byte-for-byte reference, with
`jets.mm` as their pointwise matrix product.  Matrix stacks are laid out
(..., p, q, points); `np.linalg` and `np.matmul` references run on the
point-major view (..., points, p, q)."""

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


def _point_major(x):
    return np.moveaxis(x, -1, -3)


def _stacked(x):
    """A point-major stack (..., points, p, q) in the layout (..., p, q, points)."""
    return np.moveaxis(x, -3, -1)


def _matmul(a, b):
    """np.matmul of two stacks (..., p, m, points) and (..., m, q, points)."""
    return _stacked(np.matmul(_point_major(a), _point_major(b)))


def _same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _jet(rng, order, shape):
    # magnitudes spread over decades, so any change of summation order shows
    size = (order + 1,) + shape
    scale = 10.0 ** rng.integers(-6, 7, size)
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale


# values: bare scalars, and scalar, (1,1), (2,1) and (2,2) values on a grid of 5
SHAPES = [(), (5,), (1, 1, 5), (2, 1, 5), (2, 2, 5)]


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
            bt = np.swapaxes(b, -3, -2)
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


# the polynomial jets of the map family: eps about eps0 (degree 1) and lam(eps)
# = 1 + alpha eps^a about eps0 (degree a), with the zero orders of eps0 = 0
POLYS = [[0.3 - 0.1j, 1.0], [0.0, 1.0], [1.0, 0.0, 0.0, 2.0 + 1.0j],
         [1.25, 0.75, 0.15, 0.01]]


@pytest.mark.parametrize("poly", POLYS)
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_polynomial_product_is_the_zero_padded_product(rng, poly, shape):
    p = np.asarray(poly, dtype=complex).reshape((len(poly),) + (1,) * len(shape))
    for order in range(20):
        b = _jet(rng, order, shape)
        b[rng.random(b.shape) < 0.2] = complex(-0.0, -0.0)
        want = jets.cauchy(jets.pad(p, order), b, order=order)
        assert _same_bytes(jets.cauchy(p, b, order=order), want)
        # the orders from `start` on are those orders of the product
        for start in range(order + 1):
            assert _same_bytes(jets.cauchy(p, b, order=order, start=start), want[start:])


@pytest.mark.parametrize("poly", POLYS)
def test_polynomial_product_keeps_the_signed_zero_of_the_running_sum(poly):
    # every product is -0 - 0j or +0 + 0j: the sums are +0 beyond order 0,
    # with the polynomial's zero orders or without them
    p = np.asarray(poly, dtype=complex)
    for b0 in (complex(-0.0, -0.0), complex(0.0, -0.0)):
        b = np.full(6, b0)
        got = jets.cauchy(p, b, order=5)
        assert _same_bytes(got, jets.cauchy(jets.pad(p, 5), b, order=5))
        assert not np.any(np.signbit(got[1:].real)) and not np.any(np.signbit(got[1:].imag))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.inf, 1.0),
                                 complex(1.0, np.nan)])
@pytest.mark.parametrize("poly", POLYS)
def test_polynomial_product_of_inf_or_nan_is_not_finite(rng, poly, bad):
    p = np.asarray(poly, dtype=complex)[:, None]
    deg, order = len(poly) - 1, 10
    for k in (0, 3, 9):
        b = _jet(rng, order, (4,))
        b[k, 2] = bad
        with np.errstate(invalid="ignore"):   # inf * 0
            got = jets.cauchy(p, b, order=order)
            full = jets.cauchy(jets.pad(p, order), b, order=order)
        # below order k and at the other points nothing changes; from order k
        # each order that a term of the polynomial carries b_k to is not finite,
        # so the first order that is not finite is that of the padded product
        assert _same_bytes(got[:k], full[:k])
        assert _same_bytes(np.delete(got, 2, axis=1), np.delete(full, 2, axis=1))
        assert not np.any(np.isfinite(got[k:k + deg + 1, 2]))
        assert not np.any(np.isfinite(full[k:, 2]))
    # a coefficient that is not finite spoils every order from its own on
    q = np.array(poly, dtype=complex)
    q[-1] = bad
    with np.errstate(invalid="ignore"):
        got = jets.cauchy(q[:, None], rng.standard_normal((order + 1, 4)), order=order)
    assert np.all(np.isfinite(got[:deg])) and not np.any(np.isfinite(got[deg:]))


def test_polynomial_product_of_real_jets_stays_real(rng):
    p = np.array([1.0, 0.0, -0.5])
    b = rng.standard_normal((9, 5))
    got = jets.cauchy(p[:, None], b, order=8)
    assert got.dtype == np.float64
    assert _same_bytes(got, jets.cauchy(jets.pad(p, 8)[:, None], b, order=8))
    assert _same_bytes(jets.cauchy(p[:, None], b, order=8, start=8), got[8:])


# a single grid point, a grid, and a grid of vectors (the old loop on a bare
# 0-d jet ran numpy's scalar arithmetic, which rounds unlike the array loops)
@pytest.mark.parametrize("shape", [(1,), (5,), (7, 3)])
def test_sincos_is_byte_equal_to_the_running_sum(rng, shape):
    for order in range(34):
        x = _jet(rng, order, shape) * 1e-3
        x[0] = rng.random(shape)
        got, want = jets.sincos(x), _loop_sincos(x)
        assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])


@pytest.mark.parametrize("shape", [(1,), (5,), (7, 3)])
def test_continued_sincos_is_the_whole_recurrence(rng, shape):
    # order by order, as the Lindstedt expansion grows its jet: each call sees
    # its last order as zero, and the next one continues it once that order
    # is known
    x = _jet(rng, 16, shape) * 1e-3
    x[0] = rng.random(shape)
    grown = np.zeros_like(x)
    grown[0] = x[0]
    sc = None
    for j in range(17):
        sc = jets.sincos(grown[:j + 1], sc)
        want = jets.sincos(grown[:j + 1])
        assert _same_bytes(sc[0], want[0]) and _same_bytes(sc[1], want[1])
        if j < 16:
            grown[j] = x[j]
    # an order-0 jet is recomputed whole
    sc = jets.sincos(x[:3], jets.sincos(np.zeros_like(x[:1])))
    assert _same_bytes(sc[0], jets.sincos(x[:3])[0])


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 5), (2, 2, 5), (3, 3, 4)])
def test_inv_matrix_is_byte_equal_to_the_running_sum(rng, shape):
    for order in range(34):
        a = _jet(rng, order, shape) * 1e-2
        a[0] = rng.standard_normal(shape) + 3 * np.eye(shape[0])[..., None]
        assert _same_bytes(jets.inv_matrix(a), _loop_inv_matrix(a))


@pytest.mark.parametrize("order", [0, 3])
def test_real_jets_stay_real(rng, order):
    # no kernel forces complex128 on real operands; products are the real parts
    # of the complex computation bit for bit, the inverse (numpy's complex
    # division multiplies by a reciprocal) to roundoff
    a = rng.standard_normal((order + 1, 2, 2, 5)) * 1e-2
    a[0] += 3 * np.eye(2)[..., None]
    b = rng.standard_normal((order + 1, 2, 2, 5))
    for kernel, args in ((jets.cauchy, (a, b)), (jets.matmul, (a, b)),
                         (jets.inv_matrix, (a,))):
        got = kernel(*args)
        assert got.dtype == np.float64
        ref = kernel(*(x.astype(complex) for x in args))
        if kernel is jets.inv_matrix:
            np.testing.assert_allclose(got, ref.real, rtol=1e-14, atol=0)
        else:
            assert got.tobytes() == np.ascontiguousarray(ref.real).tobytes()
    assert jets.zero_like(a).dtype == np.float64
    assert jets.sincos(a[:, 0, 0])[0].dtype == np.float64


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_inverse_matches_lapack(rng, m):
    # complex stacks with condition numbers spread over decades
    a = _jet(rng, 0, (200, m, m))[0]
    want = np.linalg.inv(a)
    inv = _point_major(jets.inv_stack(_stacked(a)))
    err = np.linalg.norm(inv - want, axis=(-2, -1)) \
        / np.linalg.norm(want, axis=(-2, -1))
    assert np.all(err <= 1e-14 * np.linalg.cond(a))


def test_larger_inverse_is_lapacks(rng):
    a = _jet(rng, 0, (50, 3, 3))[0]
    assert _same_bytes(_point_major(jets.inv_stack(_stacked(a))), np.linalg.inv(a))
    # one singular matrix is nan, and every other one keeps LAPACK's inverse
    a[7] = 0.0
    inv = _point_major(jets.inv_stack(_stacked(a)))
    assert np.all(np.isnan(inv[7]))
    others = np.arange(50) != 7
    assert _same_bytes(inv[others], np.linalg.inv(a[others]))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_four_by_four_stack_with_singular_and_nan_members_is_one_lapack_inverse(rng, real):
    # a singular member (a zero column) is nan and a member with a nan entry
    # is LAPACK's inverse of it, not finite; every other member keeps
    # np.linalg.inv's bytes, and no warning is raised
    a = _jet(rng, 0, (20, 4, 4))[0]
    a = a.real.copy() if real else a
    a[3, :, 1] = 0.0
    a[11, 2, 2] = np.nan
    inv = _point_major(jets.inv_stack(_stacked(a)))
    assert inv.dtype == a.dtype and np.all(np.isnan(inv[3]))
    assert not np.all(np.isfinite(inv[11])) and _same_bytes(inv[11], np.linalg.inv(a[11]))
    others = ~np.isin(np.arange(20), [3, 11])
    assert _same_bytes(inv[others], np.linalg.inv(a[others]))


@pytest.mark.parametrize("m", [1, 2])
def test_closed_form_inverse_of_a_singular_or_nan_matrix_is_not_finite(m):
    a = np.stack([np.eye(m), np.zeros((m, m)), np.full((m, m), np.nan)]).astype(complex)
    inv = _point_major(jets.inv_stack(_stacked(a)))
    assert np.array_equal(inv[0], np.eye(m))
    assert not np.any(np.isfinite(inv[1])) and np.all(np.isnan(inv[2]))


def test_order_zero_fast_path_returns_the_product_itself(rng):
    a, b = _jet(rng, 0, (2, 2, 5)), _jet(rng, 0, (2, 2, 5))
    out = jets.matmul(a, b)
    assert out.shape == (1, 2, 2, 5)
    assert out.base is not None and _same_bytes(out[0], jets.mm(a[0], b[0]))


# (a, b) shapes by inner dimension: stacks, a single matrix against a stack
# (the Minv0 of the doubling), and the matrix-vector products of the frame
MM_SHAPES = {
    1: [((1, 1, 300), (1, 1, 300)), ((2, 1, 300), (1, 2, 300)), ((7, 2, 1, 300), (1, 1, 300))],
    2: [((2, 2, 300), (2, 2, 300)), ((1, 2, 300), (2, 1, 300)), ((2, 2, 1), (2, 1, 300)),
        ((2, 2, 300), (2, 1, 1)), ((5, 2, 2, 300), (5, 2, 1, 300))],
    3: [((3, 3, 300), (3, 2, 300))],
    4: [((4, 4, 300), (4, 1, 300)), ((4, 4, 1), (4, 4, 300))],
}


@pytest.mark.parametrize("inner", [1, 2, 3, 4])
def test_mm_agrees_with_matmul_for_small_inner_dimensions(rng, inner):
    for sa, sb in MM_SHAPES[inner]:
        a, b = _jet(rng, 0, sa)[0], _jet(rng, 0, sb)[0]
        got, want = jets.mm(a, b), _matmul(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        # relative to the sum of the magnitudes of the products
        assert np.all(np.abs(got - want) <= 1e-15 * _matmul(np.abs(a), np.abs(b)))


def test_mm_broadcasts_a_single_matrix_against_a_stack(rng):
    m, stack = _jet(rng, 0, (2, 2, 1))[0], _jet(rng, 0, (2, 1, 300))[0]
    got = jets.mm(m, stack)
    assert got.shape == (2, 1, 300)
    # each matrix of the stack as the product of the single matrix with it
    points = [stack[..., i:i + 1] for i in range(300)]
    assert _same_bytes(got, np.concatenate([jets.mm(m, v) for v in points], axis=-1))


@pytest.mark.parametrize("inner", [1, 2, 3, 4])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_mm_keeps_inf_and_nan_entries_not_finite(inner):
    # three points; the comments name each entry as (point, row, column)
    a = np.ones((2, inner, 3), dtype=complex)
    b = np.ones((inner, 2, 3), dtype=complex)
    a[1, 0, 0] = np.inf                      # (0, 1, 0)
    a[0, -1, 1] = complex(0.0, np.nan)       # (1, 0, -1)
    b[0, 1, 2] = -np.inf                     # (2, 0, 1)
    got = jets.mm(a, b)
    assert np.array_equal(np.isfinite(got), np.isfinite(_matmul(a, b)))
    assert not np.all(np.isfinite(got[1, :, 0])) and not np.all(np.isfinite(got[0, :, 1]))
    assert not np.isfinite(got[0, 1, 2]) and np.all(np.isfinite(got[:, 0, 2]))
