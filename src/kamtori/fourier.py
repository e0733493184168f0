"""Truncated Fourier series on complex strips of the d-torus.

Coefficients are stored densely over the centered mode box |k_i| <= kmax and
may be scalar, vector or matrix valued.  The analytic norm is the weighted-l1
majorant  sum_k |c_k| e^{2 pi rho |k|_1},  an upper bound for the supremum of
the function on the strip |Im theta_j| <= rho; all norm-based bounds in the
package are stated for this majorant.

Grid transforms call the one-dimensional `np.fft.ifft` / `np.fft.fft` once
per angle axis, last axis first, which is the order and the pocketfft call
`np.fft.ifftn` / `np.fft.fftn` make themselves, so the samples are those of
the n-dimensional transform bit for bit.  Each call transforms every line
along its axis on its own, so series sampled side by side on the value axes
transform exactly as they would one at a time.  The centered mode box moves
to and from FFT order (mode k at index k mod n on each axis) by 2^d slice
copies, one per sign pattern of k, with no index arrays.  `to_grid` makes one
allocation per call: the boxes of all the series it samples are copied
straight into one zero-filled buffer, which is transformed along each axis
and scaled by n^d in place.

The tables that depend only on a cutoff, a grid size or a shift are computed
once and kept read-only in bounded LRU caches: the 5-smooth grid size of a
minimum (`fast_grid_size`, 256 entries), the box blocks per (d, kmax, n) (64),
the shift phases e^{2 pi i k omega_j} per (kmax, omega_j) (64), the
derivative factors 2 pi i k per kmax (32), the angle axis j/n per n (32) and
the tail-band mask of `tail_mass` per (d, kmax) (16).  No grid of angles is
cached (at d = 2 and large n one is tens of MB): samplers broadcast the 1-D
axis, and `theta_grid` builds its meshgrid anew.

A series is its coefficients: whether it is real valued or has zero average
is read off them (`reality_defect`, `average`), never declared.

Text form.  Series, solution and jet files open with ``# <key> <tokens>``
header lines, read by key in any order (unknown keys are skipped), then hold
series tables: ``# fourier dim=<d> kmax=<K> shape=<spec>`` (spec ``-``, ``m``
or ``mxn``) and one line per mode, k_1 .. k_d and the ``re im`` pairs of its
value in row-major order.  Floats are written at %.17g; a pair is read as the
complex128 view of its two floats, so signed zeros, inf and nan load exactly.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import prod

import numpy as np

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=256)
def fast_grid_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (keeps fftn fast at odd-ish sizes).

    Raises ValueError for m < 1, where no such size exists.
    """
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

    `zero_average=True` asserts c_0 = 0 exactly at construction; it is not stored.
    """

    dim: int
    kmax: int
    coeffs: np.ndarray
    zero_average: InitVar[bool] = False

    def __post_init__(self, zero_average):
        n = 2 * self.kmax + 1
        if self.coeffs.shape[: self.dim] != (n,) * self.dim:
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"dim={self.dim}, kmax={self.kmax}"
            )
        self.coeffs.setflags(write=False)
        if zero_average and np.any(self.average() != 0):
            raise ValueError("series declared zero-average has a nonzero c_0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim, kmax, value_shape=(), dtype=np.complex128, zero_average=False):
        n = 2 * kmax + 1
        shape = (n,) * dim + tuple(value_shape)
        return cls(dim, kmax, np.zeros(shape, dtype=dtype), zero_average)

    @classmethod
    def constant(cls, value, dim, kmax):
        value = np.asarray(value, dtype=complex)
        out = cls.zeros(dim, kmax, value.shape, dtype=value.dtype)
        out.coeffs.setflags(write=True)
        out.coeffs[(kmax,) * dim] = value
        out.coeffs.setflags(write=False)
        return out

    @classmethod
    def from_modes(cls, dim, kmax, modes, zero_average=False):
        """Build a series from a {k: value} mapping (k a d-tuple or int);
        the value shape is that of the entries."""
        n = 2 * kmax + 1
        value_shape = np.asarray(next(iter(modes.values()))).shape if modes else ()
        coeffs = np.zeros((n,) * dim + value_shape, dtype=np.complex128)
        for k, val in modes.items():
            k = (k,) if isinstance(k, int) else tuple(k)
            idx = tuple(int(ki) + kmax for ki in k)
            coeffs[idx] = val
        return cls(dim, kmax, coeffs, zero_average)

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

    def __neg__(self):
        return FourierSeries(self.dim, self.kmax, -self.coeffs)

    def remove_average(self) -> "FourierSeries":
        out = self.coeffs.copy()
        out[(self.kmax,) * self.dim] = 0
        return FourierSeries(self.dim, self.kmax, out)

    # -- operations --------------------------------------------------------

    def eval(self, theta) -> np.ndarray:
        """Evaluate by direct summation at one point theta (complex allowed).

        Exact for stored modes; intended for |Im theta_j| within the strip the
        series is used on.
        """
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
            return float(np.sum(mags))
        return float(np.sum(mags * np.exp(TWO_PI * rho * self.k_norm_grid())))

    def coeff_magnitudes(self) -> np.ndarray:
        """Frobenius magnitude of each coefficient, over the mode box."""
        extra = tuple(range(self.dim, self.coeffs.ndim))
        return np.sqrt(np.sum(np.abs(self.coeffs) ** 2, axis=extra)) if extra \
            else np.abs(self.coeffs)

    def tail_mass(self) -> float:
        """Relative coefficient mass in the band kmax/2 < |k|_inf <= kmax."""
        mags = self.coeff_magnitudes()
        total = float(np.sum(mags))
        if total == 0.0:
            return 0.0
        return float(np.sum(mags[_tail_band(self.dim, self.kmax)])) / total

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
def _box_blocks(dim: int, kmax: int, n: int) -> tuple:
    """The 2^dim blocks of the centered mode box |k_i| <= kmax in an n^dim FFT
    array, as (box, fft) pairs of slice tuples: on each axis the modes k >= 0
    sit at [:kmax+1] and k < 0 at [n-kmax:], so each block is one slice copy."""
    halves = ((slice(kmax, None), slice(None, kmax + 1)),
              (slice(None, kmax), slice(n - kmax, None)))
    return tuple(tuple(zip(*block)) for block in product(halves, repeat=dim))


def to_grid(series, n: int) -> np.ndarray:
    """Sample on the regular n^d grid theta_j = j/n.

    `series` is one FourierSeries, sampled with shape (n,)*d + value_shape,
    or a tuple of series on one mode box, sampled side by side: the result
    has shape (n,)*d + (columns,), each series' values flattened in row-major
    order into its own columns, in the order given (`grid_columns` gives
    the views of each), and each equal bit for bit to its own sample.  The
    samples are complex128.  Requires n >= 2*kmax+1 so every stored mode
    lands in its own bin: each centered box is copied straight into FFT order
    (mode k at index k mod n on each axis, `_box_blocks`) of one zero-filled
    buffer, which is inverse-transformed and scaled by n^d in place.
    """
    single = isinstance(series, FourierSeries)
    parts = (series,) if single else tuple(series)
    d, kmax = parts[0].dim, parts[0].kmax
    if any(p.dim != d or p.kmax != kmax for p in parts[1:]):
        raise ValueError("series sampled together must share one mode box")
    if n < 2 * kmax + 1:
        raise ValueError(
            f"grid size {n} below Nyquist bound {2 * kmax + 1} for kmax={kmax}"
        )
    if single:
        # one series keeps its own value shape, which spares the column views
        buf = np.zeros((n,) * d + series.value_shape, dtype=complex)
        views = (buf,)
    else:
        buf = np.zeros((n,) * d + (sum(prod(p.value_shape) for p in parts),), dtype=complex)
        views = grid_columns(buf, parts)
    for p, view in zip(parts, views):
        for box, fft in _box_blocks(d, kmax, n):
            view[fft] = p.coeffs[box]
    for axis in reversed(range(d)):
        np.fft.ifft(buf, axis=axis, out=buf)
    buf *= n ** d
    return buf


def grid_columns(grid: np.ndarray, series) -> list:
    """The views of a side-by-side sample `to_grid(series, n)` of a tuple of
    series that hold each series' values, in its own value shape."""
    lead = grid.shape[:series[0].dim]
    widths = [prod(s.value_shape) for s in series]
    return [grid[..., end - w:end].reshape(lead + s.value_shape)
            for s, w, end in zip(series, widths, accumulate(widths))]


def from_grid(values: np.ndarray, dim: int, kmax: int) -> FourierSeries:
    """Recover the centered coefficient box from regular grid samples.

    Exact for series whose modes all satisfy |k_i| <= kmax; otherwise the
    out-of-band content aliases (callers oversample accordingly).  The
    2*kmax+1 kept modes per axis are copied from FFT order (index k mod n,
    `_box_blocks`) and only they are scaled by n^-d.  The first transform
    writes one new buffer and the others run in it in place; complex128
    samples enter that first transform without a copy.
    """
    n = values.shape[0]
    if n < 2 * kmax + 1:
        raise ValueError(f"grid size {n} below Nyquist bound {2 * kmax + 1} for kmax={kmax}")
    chat = np.fft.fft(np.asarray(values, dtype=np.complex128), axis=dim - 1)
    for axis in reversed(range(dim - 1)):
        np.fft.fft(chat, axis=axis, out=chat)
    coeffs = np.empty((2 * kmax + 1,) * dim + chat.shape[dim:], dtype=chat.dtype)
    for box, fft in _box_blocks(dim, kmax, n):
        coeffs[box] = chat[fft]
    coeffs /= n ** dim
    return FourierSeries(dim, kmax, coeffs)


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
    """Read one series table.  Other header tokens, such as the
    ``real=``/``zeroavg=`` flags older files carry, are ignored."""
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
