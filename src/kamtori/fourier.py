"""Truncated Fourier series on complex strips of the d-torus.

Coefficients are stored densely over the centered mode box |k_i| <= kmax,
with scalar, vector or matrix values.  The analytic norm is the weighted-l1
majorant sum_k |c_k| e^{2 pi rho |k|_1}, an upper bound for the supremum on
the strip |Im theta_j| <= rho; every norm-based bound of the package is
stated for it.  Whether a series is real or has zero average is read off
its coefficients (`reality_defect`, `average`), never declared.

Grid samples put the values first: a series of value shape V sampled on the
n^d grid theta = j/n is V + (n^d,), the points in row-major order of
(j_1, .., j_d) (the flattened `theta_grid`).  `to_grid` and `from_grid` give
the samples of `np.fft.ifftn` and the modes of `np.fft.fftn` bit for bit,
and rows transformed together equal the same rows transformed one at a
time.  Samples are complex128; a Hermitian series may be sampled as float64
(`to_grid(..., real=True)`, as `np.fft.irfftn` does), and `from_grid` of
float64 samples gives a box that is Hermitian bit for bit.  Cached tables
are read-only.

Text form.  Series, solution and jet files open with ``# <key> <tokens>``
header lines, read by key in any order (unknown keys are skipped), then hold
series tables: ``# fourier dim=<d> kmax=<K> shape=<spec>`` (spec ``-``, ``m``
or ``mxn``) and one line per mode, k_1 .. k_d and the ``re im`` pairs of its
value in row-major order.  Floats are written at %.17g; a pair is read as the
complex128 view of its two floats, so signed zeros, inf and nan load exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np
# the pocketfft ufuncs behind np.fft (`_fft` calls them)
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=256)
def fast_grid_size(m: int) -> int:
    """Smallest 5-smooth integer >= m; ValueError for m < 1."""
    n = int(m)
    if n < 1:
        raise ValueError(f"grid size needs m >= 1, got {m}")
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite (what np.isfinite(a).all() says, at less cost)."""
    ok = np.isfinite(a)
    return np.count_nonzero(ok) == ok.size


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _k_axis(kmax: int) -> np.ndarray:
    return np.arange(-kmax, kmax + 1)


@lru_cache(maxsize=64)
def _phase_table(kmax: int, key: bytes) -> np.ndarray:
    # keyed by the bytes of omega_j, so -0.0 and nan get tables of their own
    w = complex(np.frombuffer(key, dtype=np.complex128)[0])
    return _read_only(np.exp(2j * np.pi * _k_axis(kmax) * w))


def shift_phases(kmax: int, w) -> np.ndarray:
    """e^{2 pi i k w} over |k| <= kmax for one shift component w (cached, read-only)."""
    return _phase_table(kmax, np.complex128(w).tobytes())


@lru_cache(maxsize=32)
def derivative_factors(kmax: int) -> np.ndarray:
    """2 pi i k over |k| <= kmax (cached, read-only)."""
    return _read_only(2j * np.pi * _k_axis(kmax))


@lru_cache(maxsize=32)
def angle_axis(n: int) -> np.ndarray:
    """The angles j/n, j < n, of one grid axis (cached, read-only)."""
    return _read_only(np.arange(n) / n)


@lru_cache(maxsize=16)
def _tail_band(dim: int, kmax: int) -> np.ndarray:
    """The mask kmax/2 < |k|_inf over the mode box (cached, read-only)."""
    outer = np.abs(_k_axis(kmax)) > kmax / 2
    band = np.zeros((2 * kmax + 1,) * dim, dtype=bool)
    for j in range(dim):
        band = band | outer.reshape((-1,) + (1,) * (dim - 1 - j))
    return _read_only(band)


@dataclass(frozen=True)
class FourierSeries:
    """Truncated Fourier series  f(theta) = sum_k c_k e^{2 pi i k.theta}.

    Attributes:
        dim: number of torus angles d.
        kmax: per-axis mode cutoff; stored modes satisfy |k_i| <= kmax.
        coeffs: complex array of shape (2*kmax+1,)*dim + value_shape, with
            axis index i corresponding to mode k_i = i - kmax.
    """

    dim: int
    kmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = 2 * self.kmax + 1
        if self.coeffs.shape[: self.dim] != (n,) * self.dim:
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"dim={self.dim}, kmax={self.kmax}"
            )
        self.coeffs.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim, kmax, value_shape=(), dtype=np.complex128):
        n = 2 * kmax + 1
        shape = (n,) * dim + tuple(value_shape)
        return cls(dim, kmax, np.zeros(shape, dtype=dtype))

    @classmethod
    def constant(cls, value, dim, kmax):
        value = np.asarray(value, dtype=complex)
        out = cls.zeros(dim, kmax, value.shape, dtype=value.dtype)
        out.coeffs.setflags(write=True)
        out.coeffs[(kmax,) * dim] = value
        out.coeffs.setflags(write=False)
        return out

    @classmethod
    def from_modes(cls, dim, kmax, modes):
        """Build a series from a {k: value} mapping (k a d-tuple or int);
        the value shape is that of the entries."""
        n = 2 * kmax + 1
        value_shape = np.asarray(next(iter(modes.values()))).shape if modes else ()
        coeffs = np.zeros((n,) * dim + value_shape, dtype=np.complex128)
        for k, val in modes.items():
            k = (k,) if isinstance(k, int) else tuple(k)
            idx = tuple(int(ki) + kmax for ki in k)
            coeffs[idx] = val
        return cls(dim, kmax, coeffs)

    # -- basic structure ---------------------------------------------------

    @property
    def value_shape(self) -> tuple:
        return self.coeffs.shape[self.dim :]

    def k_axis(self) -> np.ndarray:
        return _k_axis(self.kmax)

    def k_norm_grid(self) -> np.ndarray:
        """|k|_1 over the mode box, shaped like one value entry."""
        axes = np.ix_(*([np.abs(self.k_axis())] * self.dim))
        out = np.zeros((2 * self.kmax + 1,) * self.dim)
        for a in axes:
            out = out + a
        return out

    def mode(self, k) -> np.ndarray:
        k = (k,) if isinstance(k, int) else tuple(k)
        return self.coeffs[tuple(int(ki) + self.kmax for ki in k)]

    def average(self) -> np.ndarray:
        return self.mode((0,) * self.dim)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        a, b = _aligned(self, other)
        return FourierSeries(a.dim, a.kmax, a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b = _aligned(self, other)
        return FourierSeries(a.dim, a.kmax, a.coeffs - b.coeffs)

    def remove_average(self) -> "FourierSeries":
        out = self.coeffs.copy()
        out[(self.kmax,) * self.dim] = 0
        return FourierSeries(self.dim, self.kmax, out)

    # -- operations --------------------------------------------------------

    def eval(self, theta) -> np.ndarray:
        """Evaluate by direct summation at one point theta of shape (dim,),
        complex allowed; ValueError for any other shape."""
        theta = np.atleast_1d(np.asarray(theta))
        if theta.shape != (self.dim,):
            raise ValueError(f"theta must have shape ({self.dim},), got {theta.shape}")
        out = self.coeffs
        for j in range(self.dim):
            phase = np.exp(2j * np.pi * self.k_axis() * theta[j])
            out = np.tensordot(phase, out, axes=(0, 0))
        return out

    def shift(self, omega) -> "FourierSeries":
        """Compose with the rotation T_omega: c_k -> c_k e^{2 pi i k.omega}."""
        omega = np.atleast_1d(np.asarray(omega))
        out = self.coeffs
        for j in range(self.dim):
            phase = shift_phases(self.kmax, omega[j])
            shape = [1] * out.ndim
            shape[j] = phase.size
            out = out * phase.reshape(shape)
        return FourierSeries(self.dim, self.kmax, out)

    def differentiate(self, axis: int) -> "FourierSeries":
        """d/d theta_axis: c_k -> 2 pi i k_axis c_k."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        factor = derivative_factors(self.kmax)
        shape = [1] * self.coeffs.ndim
        shape[axis] = factor.size
        return FourierSeries(self.dim, self.kmax, self.coeffs * factor.reshape(shape))

    def analytic_norm(self, rho: float = 0.0) -> float:
        """Weighted-l1 majorant  sum_k |c_k|_F e^{2 pi rho |k|_1}  (>= strip sup)."""
        if rho < 0:
            raise ValueError("rho must be >= 0")
        mags = self.coeff_magnitudes()
        if rho == 0.0:
            return float(np.add.reduce(mags, axis=None))
        return float(np.sum(mags * np.exp(TWO_PI * rho * self.k_norm_grid())))

    def coeff_magnitudes(self) -> np.ndarray:
        """Frobenius magnitude sqrt(sum |c|^2) of each coefficient over the mode
        box, bit for bit np.sum's; where the squares overflow on finite
        values it is scaled by the mode's largest |c|, so it is finite
        whenever it is representable."""
        mags = np.abs(self.coeffs)
        extra = tuple(range(self.dim, self.coeffs.ndim))
        if not extra:
            return mags
        if not np.maximum.reduce(mags, axis=None, initial=0.0) <= _SQUARE_SAFE:
            return _scaled_magnitudes(mags, extra)
        squares, values = mags ** 2, prod(self.value_shape)
        if values >= 8:
            return np.sqrt(np.sum(squares, axis=extra))
        cols = squares.reshape(squares.shape[:self.dim] + (values,))
        return np.sqrt(sum((cols[..., i] for i in range(1, values)), cols[..., 0]))

    def tail_mass(self) -> float:
        """Relative coefficient mass in the band kmax/2 < |k|_inf <= kmax."""
        mags = self.coeff_magnitudes()
        total = float(np.add.reduce(mags, axis=None))
        if total == 0.0:
            return 0.0
        return float(np.add.reduce(mags[_tail_band(self.dim, self.kmax)])) / total

    def reality_defect(self) -> float:
        """max_k |c_{-k} - conj(c_k)| relative to the largest coefficient."""
        flipped = self.coeffs[(slice(None, None, -1),) * self.dim]
        defect = np.max(np.abs(flipped - np.conj(self.coeffs)))
        scale = np.max(np.abs(self.coeffs))
        return float(defect / scale) if scale > 0 else 0.0

    def pad_to(self, kmax: int) -> "FourierSeries":
        if kmax < self.kmax:
            raise ValueError("pad_to cannot shrink the mode box; use truncate")
        if kmax == self.kmax:
            return self
        out = FourierSeries.zeros(self.dim, kmax, self.value_shape, dtype=self.coeffs.dtype)
        out.coeffs.setflags(write=True)
        lo, hi = kmax - self.kmax, kmax + self.kmax + 1
        out.coeffs[(slice(lo, hi),) * self.dim] = self.coeffs
        out.coeffs.setflags(write=False)
        return out

    def truncate(self, kmax: int) -> "FourierSeries":
        if kmax > self.kmax:
            return self.pad_to(kmax)
        lo, hi = self.kmax - kmax, self.kmax + kmax + 1
        return FourierSeries(self.dim, kmax,
                             np.ascontiguousarray(self.coeffs[(slice(lo, hi),) * self.dim]))


# the squares of up to 1e8 magnitudes below this sum to a finite float
_SQUARE_SAFE = 1e150


def _scaled_magnitudes(mags: np.ndarray, extra: tuple) -> np.ndarray:
    """sqrt(sum mags^2) over the `extra` axes, or top * sqrt(sum (mags/top)^2),
    top the mode's largest magnitude, where that sum overflows."""
    with np.errstate(over="ignore"):
        out = np.sqrt(np.sum(mags ** 2, axis=extra))
        over = np.isinf(out) & np.isfinite(mags).all(axis=extra)
        if over.any():
            big = mags[over]
            axes = tuple(range(1, big.ndim))
            top = big.max(axis=axes, keepdims=True)
            out[over] = top.reshape(-1) * np.sqrt(np.sum((big / top) ** 2, axis=axes))
    return out


def _aligned(a: FourierSeries, b: FourierSeries):
    if a.dim != b.dim or a.value_shape != b.value_shape:
        raise ValueError("series shapes are incompatible")
    kmax = max(a.kmax, b.kmax)
    return a.pad_to(kmax), b.pad_to(kmax)


# -- grid transforms --------------------------------------------------------

def theta_grid(dim: int, n: int) -> list[np.ndarray]:
    """Meshgrid of angles j/n per axis, each of shape (n,)*dim."""
    return list(np.meshgrid(*([angle_axis(n)] * dim), indexing="ij"))


@lru_cache(maxsize=64)
def _box_blocks(dim: int, kmax: int, n: int, half: bool = False) -> tuple:
    """(box, fft) index pairs of the last dim axes: the 2^dim blocks of the
    centered mode box |k_i| <= kmax in an n^dim FFT-order array, or with
    `half` the 2^(dim-1) blocks of modes k_d >= 0 in a real transform's bins."""
    halves = ((slice(kmax, None), slice(None, kmax + 1)),
              (slice(None, kmax), slice(n - kmax, None)))
    axes = (halves,) * (dim - 1) + (halves[:1] if half else halves,)
    return tuple(tuple((...,) + s for s in zip(*b)) for b in product(*axes))


def zero_spectrum(lead: tuple, dim: int, kmax: int, n: int, real: bool = False) -> tuple:
    """A zero-filled FFT-order spectrum lead + (n,)*dim (the last axis n//2 + 1
    bins with `real`) and the `_box_blocks` that take a centered box into it;
    n >= 2*kmax+1 (else ValueError) puts every mode in a bin of its own."""
    if n < 2 * kmax + 1:
        raise ValueError(
            f"grid size {n} below Nyquist bound {2 * kmax + 1} for kmax={kmax}"
        )
    shape = lead + (n,) * (dim - 1) + ((n // 2 + 1) if real else n,)
    return np.zeros(shape, dtype=complex), _box_blocks(dim, kmax, n, real)


def to_grid(series: FourierSeries, n: int, *, real: bool = False) -> np.ndarray:
    """Samples value_shape + (n^d,) on the grid theta_j = j/n, complex128.
    With `real` they are float64, as `np.fft.irfftn` gives them: those of the
    Hermitian series with the same modes k_d > 0.  ValueError when
    n < 2 kmax + 1."""
    d = series.dim
    spec, blocks = zero_spectrum(series.value_shape, d, series.kmax, n, real)
    box_last = series.coeffs.transpose(_values_first(d, series.coeffs.ndim))
    for box, fft in blocks:
        spec[fft] = box_last[box]
    return _sample(spec, d, n, real)


def _sample(spec: np.ndarray, dim: int, n: int, real: bool) -> np.ndarray:
    """The samples values + (n^dim,) of an FFT-order spectrum values + (n,)*dim
    (n//2 + 1 bins on the last axis with `real`), which it overwrites:
    float64 in a new array with `real`, else a complex128 view of `spec`."""
    lead = spec.shape[:-dim]
    if real:
        for axis in range(-dim, -1):
            _fft(_pocketfft.ifft, spec, spec, axis=axis)
        buf = np.empty(lead + (n ** dim,))
        _fft(_pocketfft.irfft, spec, _cells(buf, dim, n))
        return buf
    for axis in range(-1, -dim - 1, -1):
        _fft(_pocketfft.ifft, spec, spec, 1 / n, axis)
    spec *= n ** dim
    return spec.reshape(lead + (n ** dim,))


@lru_cache(maxsize=64)
def _values_first(dim: int, ndim: int) -> tuple:
    """The transpose that views a coefficient box with its values before its dim modes."""
    return tuple(range(dim, ndim)) + tuple(range(dim))


def _cells(grid: np.ndarray, dim: int, n: int) -> np.ndarray:
    """The point axis of a grid stack viewed as the (n,)*dim grid (itself at dim 1)."""
    return grid if dim == 1 else grid.reshape(grid.shape[:-1] + (n,) * dim)


def from_grid(values: np.ndarray, dim: int, kmax: int) -> FourierSeries:
    """The centered coefficient box at kmax of grid samples value_shape +
    (n^dim,), exact for series with no mode beyond |k_i| <= kmax (others
    alias).  Complex samples give the modes of `np.fft.fftn`; real ones
    those of `np.fft.rfftn`, completed to a box that is Hermitian bit for
    bit.  ValueError when n < 2 kmax + 1."""
    chat, n, real = _spectrum(values, dim, kmax)
    coeffs = np.empty((2 * kmax + 1,) * dim + chat.shape[:-dim], dtype=chat.dtype)
    box_last = coeffs.transpose(_values_first(dim, coeffs.ndim))
    if real:
        for box, fft in _box_blocks(dim, kmax, n, True):
            np.divide(chat[fft], n ** dim, out=box_last[box])
        if dim > 1:   # at dim 1 the plane is c_0 alone, rfft's mean, real already
            for target, source in _plane_mirror(dim, kmax, kmax):
                box_last[target] = np.conj(box_last[source])
            coeffs[(kmax,) * dim + (...,)].imag = 0
        # the modes k_d < 0, copied one value row at a time (order="C" on the
        # values-first view), so each copy runs along the modes
        neg = (...,) + (slice(None),) * (dim - 1) + (slice(None, kmax),)
        np.conjugate(box_last[(...,) + (slice(None, None, -1),) * dim][neg],
                     out=box_last[neg], order="C")
    else:
        for box, fft in _box_blocks(dim, kmax, n):
            box_last[box] = chat[fft]
        coeffs /= n ** dim
    return FourierSeries(dim, kmax, coeffs)


def _spectrum(values, dim: int, kmax: int) -> tuple:
    """(spectrum, n, real): the unscaled forward transform of samples
    value_shape + (n^dim,) in FFT order, value_shape + (n,)*dim (n//2 + 1
    bins on the last axis for real samples).  ValueError when n < 2 kmax + 1."""
    values = np.asarray(values)
    real = values.dtype.kind != "c"
    values = values.astype(np.float64 if real else np.complex128, copy=False)
    n = round(values.shape[-1] ** (1 / dim))
    if n < 2 * kmax + 1:
        raise ValueError(f"grid size {n} below Nyquist bound {2 * kmax + 1} for kmax={kmax}")
    cells = _cells(values, dim, n)
    if real:
        chat = _fft(_pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even, cells,
                    np.empty(cells.shape[:-1] + (n // 2 + 1,), dtype=complex))
    else:
        chat = _fft(_pocketfft.fft, cells, np.empty(cells.shape, dtype=complex))
    for axis in range(-2, -dim - 1, -1):
        _fft(_pocketfft.fft, chat, chat, axis=axis)
    return chat, n, real


def _fft(kernel, a, out, fct=1.0, axis=-1):
    """One of the pocketfft ufuncs behind np.fft along `axis` of `a` into
    `out`, times fct: bit for bit the np.fft function that calls it, without
    its per-call argument handling (which costs more than a 200-point FFT)."""
    return kernel(a, fct, axes=[(axis,), (), (axis,)], out=out)


def multiply_modes(values: np.ndarray, dim: int, band: int, factors: np.ndarray) -> np.ndarray:
    """The samples, on the grid of `values` and with its dtype, of the box
    `from_grid(values, dim, band)` with its mean set to 0 and each mode k
    times factors[k], `factors` an array over the centred box of `band`: bit
    for bit `to_grid` of that series (real=True for real samples)."""
    chat, n, real = _spectrum(values, dim, band)
    spec = np.zeros(chat.shape, dtype=chat.dtype)
    blocks = _box_blocks(dim, band, n, real)
    for _, fft in blocks:
        np.divide(chat[fft], n ** dim, out=spec[fft])
    if real and dim > 1:
        for target, source in _plane_mirror(dim, band, 0):
            spec[target] = np.conj(spec[source])
    spec[(...,) + (0,) * dim] = 0
    for box, fft in blocks:
        np.multiply(spec[fft], factors[box], out=spec[fft])
    return _sample(spec, dim, n, real)


@lru_cache(maxsize=64)
def _plane_mirror(dim: int, band: int, center: int) -> tuple:
    """(target, source) index pairs of a real transform's plane k_d = 0: the
    modes whose last nonzero k_i is negative, and their negations, whose
    conjugates the targets take.  Mode k sits at index k + center on each
    axis: center 0 for an FFT-order spectrum, center = band for a box."""
    ks = np.arange(-band, band + 1)
    pairs = []
    for axis in range(dim - 1):
        target = [ks] * axis + [ks[:band]] + [ks[band:band + 1]] * (dim - axis - 1)
        pairs.append(tuple((...,) + tuple(_read_only(a + center) for a in np.ix_(*idx))
                           for idx in (target, [-t for t in target])))
    return tuple(pairs)


# -- text form ------------------------------------------------------------------

def _format_pairs(values) -> str:
    """``re im`` at %.17g for every value of a complex array, in row-major order."""
    floats = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1).view(np.float64)
    return " ".join(f"{x:.17g}" for x in floats.tolist())


def _parse_pairs(tokens) -> np.ndarray:
    """The ``re im`` tokens as a flat complex128 array, their floats viewed as pairs."""
    return np.array([float(t) for t in tokens], dtype=np.float64).view(np.complex128)


def _read_header(fp) -> dict:
    """key -> tokens of the header lines, leaving the stream at the first table."""
    head = {}
    while True:
        pos, line = fp.tell(), fp.readline()
        key, *toks = line[1:].split() or [""]
        if not line.startswith("#") or key == "fourier":
            fp.seek(pos)
            return head
        head[key] = toks


def dump_series(series: FourierSeries, fp) -> None:
    """Write one series table of the text form."""
    spec = "x".join(str(s) for s in series.value_shape) or "-"
    fp.write(f"# fourier dim={series.dim} kmax={series.kmax} shape={spec}\n")
    for idx in np.ndindex(*series.coeffs.shape[: series.dim]):
        k = " ".join(f"{i - series.kmax:d}" for i in idx)
        fp.write(f"{k} {_format_pairs(series.coeffs[idx])}\n")


def load_series(fp) -> FourierSeries:
    """Read one series table; other header tokens, such as the
    ``real=``/``zeroavg=`` flags of older files, are ignored."""
    header = fp.readline().split()
    if header[:2] != ["#", "fourier"]:
        raise ValueError("not a fourier series table")
    fields = dict(tok.split("=") for tok in header[2:])
    dim, kmax, spec = int(fields["dim"]), int(fields["kmax"]), fields["shape"]
    vshape = () if spec == "-" else tuple(int(s) for s in spec.split("x"))
    coeffs = np.zeros((2 * kmax + 1,) * dim + vshape, dtype=np.complex128)
    ncols = dim + 2 * int(np.prod(vshape))
    remaining = (2 * kmax + 1) ** dim
    while remaining > 0:
        line = fp.readline()
        if not line:
            raise ValueError("truncated fourier series table")
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        if len(toks) != ncols:
            raise ValueError(f"mode {' '.join(toks[:dim])}: expected {ncols - dim} value columns")
        coeffs[tuple(int(t) + kmax for t in toks[:dim])] = _parse_pairs(toks[dim:]).reshape(vshape)
        remaining -= 1
    return FourierSeries(dim, kmax, coeffs)
