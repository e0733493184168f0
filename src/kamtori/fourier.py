"""Truncated Fourier series on complex strips of the d-torus.

Coefficients are stored densely over the centered mode box |k_i| <= kmax and
may be scalar, vector or matrix valued.  The analytic norm is the weighted-l1
majorant  sum_k |c_k| e^{2 pi rho |k|_1},  an upper bound for the supremum of
the function on the strip |Im theta_j| <= rho; all norm-based bounds in the
package are stated for this majorant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

_REALITY_TOL = 1e-14


def fast_grid_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (keeps fftn fast at odd-ish sizes)."""
    n = int(m)
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _as_value_shape(shape) -> tuple:
    if shape is None:
        return ()
    if isinstance(shape, int):
        return (shape,)
    return tuple(int(s) for s in shape)


@dataclass(frozen=True)
class FourierSeries:
    """Truncated Fourier series  f(theta) = sum_k c_k e^{2 pi i k.theta}.

    Attributes:
        dim: number of torus angles d.
        kmax: per-axis mode cutoff; stored modes satisfy |k_i| <= kmax.
        coeffs: complex array of shape (2*kmax+1,)*dim + value_shape, with
            axis index i corresponding to mode k_i = i - kmax.
        real_valued: declares c_{-k} = conj(c_k); checked by reality_defect().
        zero_average: declares c_0 = 0 exactly.
    """

    dim: int
    kmax: int
    coeffs: np.ndarray
    real_valued: bool = False
    zero_average: bool = False

    def __post_init__(self):
        n = 2 * self.kmax + 1
        if self.coeffs.shape[: self.dim] != (n,) * self.dim:
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"dim={self.dim}, kmax={self.kmax}"
            )
        self.coeffs.setflags(write=False)
        if self.zero_average:
            # c_0 = 0 is an exact structural invariant, not a tolerance.
            if np.any(self.mode((0,) * self.dim) != 0):
                raise ValueError("series flagged zero-average has a nonzero c_0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, dim, kmax, value_shape=(), dtype=np.complex128, **flags):
        n = 2 * kmax + 1
        shape = (n,) * dim + _as_value_shape(value_shape)
        return cls(dim, kmax, np.zeros(shape, dtype=dtype), **flags)

    @classmethod
    def constant(cls, value, dim, kmax, **flags):
        value = np.asarray(value, dtype=complex)
        out = cls.zeros(dim, kmax, value.shape, dtype=value.dtype, **flags)
        out.coeffs.setflags(write=True)
        out.coeffs[(kmax,) * dim] = value
        out.coeffs.setflags(write=False)
        return out

    @classmethod
    def from_modes(cls, dim, kmax, modes, value_shape=None, **flags):
        """Build a series from a {k: value} mapping (k a d-tuple or int);
        the value shape is inferred from the entries unless given."""
        n = 2 * kmax + 1
        if value_shape is None:
            value_shape = np.asarray(next(iter(modes.values()))).shape if modes else ()
        coeffs = np.zeros((n,) * dim + _as_value_shape(value_shape),
                          dtype=np.complex128)
        for k, val in modes.items():
            k = (k,) if isinstance(k, int) else tuple(k)
            idx = tuple(int(ki) + kmax for ki in k)
            coeffs[idx] = val
        return cls(dim, kmax, coeffs, **flags)

    # -- basic structure ---------------------------------------------------

    @property
    def value_shape(self) -> tuple:
        return self.coeffs.shape[self.dim :]

    @property
    def mode_axes(self) -> tuple:
        return tuple(range(self.dim))

    def k_axis(self) -> np.ndarray:
        return np.arange(-self.kmax, self.kmax + 1)

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

    def map_coeffs(self, fn, **flags) -> "FourierSeries":
        merged = dict(real_valued=self.real_valued, zero_average=self.zero_average)
        merged.update(flags)
        return FourierSeries(self.dim, self.kmax, np.ascontiguousarray(fn(self.coeffs)), **merged)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        a, b = _aligned(self, other)
        return FourierSeries(
            a.dim, a.kmax, a.coeffs + b.coeffs,
            real_valued=a.real_valued and b.real_valued,
            zero_average=a.zero_average and b.zero_average,
        )

    def __sub__(self, other):
        a, b = _aligned(self, other)
        return FourierSeries(
            a.dim, a.kmax, a.coeffs - b.coeffs,
            real_valued=a.real_valued and b.real_valued,
            zero_average=a.zero_average and b.zero_average,
        )

    def __mul__(self, scalar):
        return self.map_coeffs(lambda c: c * scalar,
                               real_valued=self.real_valued and np.isrealobj(np.asarray(scalar)))

    __rmul__ = __mul__

    def __neg__(self):
        return self.map_coeffs(np.negative)

    def remove_average(self) -> "FourierSeries":
        out = self.coeffs.copy()
        out[(self.kmax,) * self.dim] = 0
        return FourierSeries(self.dim, self.kmax, out,
                             real_valued=self.real_valued, zero_average=True)

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
        real_shift = bool(np.isrealobj(omega)) or np.all(np.imag(omega) == 0)
        for j in range(self.dim):
            phase = np.exp(2j * np.pi * self.k_axis() * complex(omega[j]))
            shape = [1] * out.ndim
            shape[j] = phase.size
            out = out * phase.reshape(shape)
        return FourierSeries(self.dim, self.kmax, out,
                             real_valued=self.real_valued and real_shift,
                             zero_average=self.zero_average)

    def differentiate(self, axis: int) -> "FourierSeries":
        """d/d theta_axis: c_k -> 2 pi i k_axis c_k.  Output has zero average."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        factor = 2j * np.pi * self.k_axis()
        shape = [1] * self.coeffs.ndim
        shape[axis] = factor.size
        return FourierSeries(self.dim, self.kmax, self.coeffs * factor.reshape(shape),
                             real_valued=self.real_valued, zero_average=True)

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
        kinf = np.abs(self.k_axis())
        grid = np.zeros((2 * self.kmax + 1,) * self.dim)
        for j in range(self.dim):
            shape = [1] * self.dim
            shape[j] = kinf.size
            grid = np.maximum(grid, kinf.reshape(shape))
        return float(np.sum(mags[grid > self.kmax / 2])) / total

    def reality_defect(self) -> float:
        """max_k |c_{-k} - conj(c_k)| relative to the largest coefficient."""
        flipped = self.coeffs[(slice(None, None, -1),) * self.dim]
        defect = np.max(np.abs(flipped - np.conj(self.coeffs)))
        scale = np.max(np.abs(self.coeffs))
        return float(defect / scale) if scale > 0 else 0.0

    def is_real_valued(self, tol: float = _REALITY_TOL) -> bool:
        return self.reality_defect() <= tol

    def pad_to(self, kmax: int) -> "FourierSeries":
        if kmax < self.kmax:
            raise ValueError("pad_to cannot shrink the mode box; use truncate")
        if kmax == self.kmax:
            return self
        out = FourierSeries.zeros(self.dim, kmax, self.value_shape,
                                  dtype=self.coeffs.dtype,
                                  real_valued=self.real_valued,
                                  zero_average=self.zero_average)
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
                             np.ascontiguousarray(self.coeffs[(slice(lo, hi),) * self.dim]),
                             real_valued=self.real_valued,
                             zero_average=self.zero_average)


def _aligned(a: FourierSeries, b: FourierSeries):
    if a.dim != b.dim or a.value_shape != b.value_shape:
        raise ValueError("series shapes are incompatible")
    kmax = max(a.kmax, b.kmax)
    return a.pad_to(kmax), b.pad_to(kmax)


# -- grid transforms --------------------------------------------------------

def theta_grid(dim: int, n: int) -> list[np.ndarray]:
    """Meshgrid of angles j/n per axis, each of shape (n,)*dim."""
    axis = np.arange(n) / n
    return list(np.meshgrid(*([axis] * dim), indexing="ij"))


@lru_cache(maxsize=64)
def _fft_index(dim: int, kmax: int, n: int) -> tuple:
    """Index of the centered mode box |k_i| <= kmax in an n^d FFT array:
    mode k sits at k mod n on each axis (read-only, shared by every call)."""
    order = np.arange(-kmax, kmax + 1) % n
    order.setflags(write=False)
    return np.ix_(*[order] * dim)


def to_grid(series: FourierSeries, n: int) -> np.ndarray:
    """Sample on the regular n^d grid theta_j = j/n.

    Requires n >= 2*kmax+1 so every stored mode lands in its own bin: the
    centered box is scattered straight into FFT order (mode k at index
    k mod n on each axis) and inverse-transformed.
    """
    if n < 2 * series.kmax + 1:
        raise ValueError(
            f"grid size {n} below Nyquist bound {2 * series.kmax + 1} for kmax={series.kmax}"
        )
    d = series.dim
    buf = np.zeros((n,) * d + series.value_shape, dtype=series.coeffs.dtype)
    buf[_fft_index(d, series.kmax, n)] = series.coeffs
    return np.fft.ifftn(buf, axes=tuple(range(d))) * (n ** d)


def from_grid(values: np.ndarray, dim: int, kmax: int, **flags) -> FourierSeries:
    """Recover the centered coefficient box from regular grid samples.

    Exact for series whose modes all satisfy |k_i| <= kmax; otherwise the
    out-of-band content aliases (callers oversample accordingly).  The
    2*kmax+1 kept modes per axis are gathered from FFT order (index k mod n)
    and only they are scaled by n^-d; complex128 samples are transformed
    without a copy.
    """
    n = values.shape[0]
    if n < 2 * kmax + 1:
        raise ValueError(f"grid size {n} below Nyquist bound {2 * kmax + 1} for kmax={kmax}")
    chat = np.fft.fftn(np.asarray(values, dtype=np.complex128), axes=tuple(range(dim)))
    coeffs = chat[_fft_index(dim, kmax, n)]
    coeffs /= n ** dim
    return FourierSeries(dim, kmax, coeffs, **flags)


def product(a: FourierSeries, b: FourierSeries, kmax: int | None = None) -> FourierSeries:
    """Pointwise product (np.matmul semantics on values) via an anti-aliased grid.

    The default output cutoff a.kmax + b.kmax makes the convolution exact; a
    smaller kmax truncates after the exact product.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    full = a.kmax + b.kmax
    out_kmax = full if kmax is None else min(kmax, full)
    n = fast_grid_size(full + out_kmax + 2)
    ga, gb = to_grid(a, n), to_grid(b, n)
    if a.value_shape == () or b.value_shape == ():
        gc = ga * gb
    else:
        gc = np.matmul(ga, gb)
    return from_grid(gc, a.dim, out_kmax,
                     real_valued=a.real_valued and b.real_valued)


# -- tabular text format -----------------------------------------------------

def dump_series(series: FourierSeries, fp) -> None:
    """Write the documented tabular text form.

    Header line:  ``# fourier dim=<d> kmax=<K> shape=<spec> real=<0|1>
    zeroavg=<0|1>`` with shape spec ``-`` (scalar), ``m`` (vector) or ``mxn``
    (matrix); then one line per mode:  k_1 .. k_d  followed by ``re im`` for
    every value entry in row-major order.  All numbers use %.17g (locale
    independent).
    """
    vs = series.value_shape
    spec = "-" if vs == () else ("x".join(str(s) for s in vs))
    fp.write(
        f"# fourier dim={series.dim} kmax={series.kmax} shape={spec} "
        f"real={int(series.real_valued)} zeroavg={int(series.zero_average)}\n"
    )
    flat = series.coeffs.reshape((2 * series.kmax + 1,) * series.dim + (-1,))
    for idx in np.ndindex(*flat.shape[: series.dim]):
        k = [i - series.kmax for i in idx]
        entries = flat[idx]
        cells = [f"{ki:d}" for ki in k]
        for z in entries:
            cells.append(f"{z.real:.17g}")
            cells.append(f"{z.imag:.17g}")
        fp.write(" ".join(cells) + "\n")


def load_series(fp) -> FourierSeries:
    header = fp.readline().strip()
    if not header.startswith("# fourier"):
        raise ValueError("not a fourier series table")
    fields = dict(tok.split("=") for tok in header.split()[2:])
    dim = int(fields["dim"])
    kmax = int(fields["kmax"])
    spec = fields["shape"]
    vshape = () if spec == "-" else tuple(int(s) for s in spec.split("x"))
    rows = vshape[0] if len(vshape) >= 1 else 1
    cols = vshape[1] if len(vshape) >= 2 else 1
    coeffs = np.zeros((2 * kmax + 1,) * dim + vshape, dtype=np.complex128)
    nval = rows * cols
    remaining = (2 * kmax + 1) ** dim
    while remaining > 0:
        line = fp.readline()
        if not line:
            raise ValueError("truncated fourier series table")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        k = tuple(int(t) for t in toks[:dim])
        vals = np.array([float(t) for t in toks[dim:]], dtype=float)
        if vals.size != 2 * nval:
            raise ValueError(f"mode {k}: expected {2 * nval} value columns")
        z = (vals[0::2] + 1j * vals[1::2]).reshape(vshape) if vshape else \
            complex(vals[0], vals[1])
        coeffs[tuple(ki + kmax for ki in k)] = z
        remaining -= 1
    return FourierSeries(dim, kmax, coeffs,
                         real_valued=bool(int(fields.get("real", "0"))),
                         zero_average=bool(int(fields.get("zeroavg", "0"))))
