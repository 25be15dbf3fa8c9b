"""Discrete Fourier calculus on the periodic torus [0, 2pi]^d.

Fields are sampled on the regular odd grid with 2N+1 points per axis,
x_j = 2*pi*j/(2N+1), j in {0, ..., 2N}^d, and represented spectrally by
coefficients indexed over the centered mode set K_N = {|k|_inf <= N}.
The transform pair

    c_k = (2N+1)^-d * sum_j f_j exp(-i<x_j, k>)
    f_j = sum_k c_k exp(+i<x_j, k>)

is exact (an FFT reordering), so projections, derivatives, inverse
Laplacians, Leray projection and Sobolev norms are all evaluated without
discretization error on band-limited data; products of two degree-N
polynomials are exact on the grid of _product_radius (>= 3N+1 points per
axis, the 3/2 rule) followed by truncation.  Every transform runs on one
real pair, _rfft_half/_irfft_values, in the half-spectrum layout; dft/idft
extend it by conjugate symmetry to the centered SpectralCoeffs that project,
evaluate and the random draws ask for.

All operations are pure functions of immutable inputs; 64-bit floats
throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParameters,
    BadTruncation,
    DimensionMismatch,
    HermitianViolation,
)

HERMITIAN_RTOL = 1e-12
IMAG_RESIDUE_RTOL = 1e-10


def _positive_int(value, what: str) -> int:
    """value as an int, which can size an array; BadParameters unless it is an integer >= 1."""
    if value < 1 or value % 1:  # nan and inf leave a nonzero (nan) remainder
        raise BadParameters(f"{what} must be a positive integer, got {value}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Regular periodic grid with an odd number of points per axis.

    d : spatial dimension (>= 1)
    N : mode radius; 2N+1 points per axis, so every |k|_inf <= N mode is
        uniquely representable and |J_N| = |K_N| = (2N+1)^d.
    """

    d: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "d", _positive_int(self.d, "spatial dimension"))
        object.__setattr__(self, "N", _positive_int(self.N, "mode radius"))

    @property
    def npoints(self) -> int:
        return 2 * self.N + 1

    @property
    def shape(self) -> tuple:
        return (self.npoints,) * self.d

    @property
    def size(self) -> int:
        return self.npoints**self.d

    def axis_coordinates(self) -> np.ndarray:
        """Grid coordinates 2*pi*j/(2N+1) along one axis."""
        return 2.0 * np.pi * np.arange(self.npoints) / self.npoints

    def coordinates(self) -> list:
        """d broadcastable coordinate arrays (sparse meshgrid)."""
        x = self.axis_coordinates()
        return list(np.meshgrid(*([x] * self.d), indexing="ij", sparse=True))

    def modes(self) -> list:
        """d broadcastable integer mode arrays in centered order -N..N."""
        k = np.arange(-self.N, self.N + 1)
        return list(np.meshgrid(*([k] * self.d), indexing="ij", sparse=True))


class _Lattice(NamedTuple):
    """Mode arrays on a lattice layout; ik and k carry a trailing axis of length d."""

    ik: np.ndarray      # i*k, the derivative multipliers
    k2: np.ndarray      # |k|^2
    inv_k2: np.ndarray  # 1/|k|^2, with 0 at k = 0

    @property
    def k(self) -> np.ndarray:
        return self.ik.imag


def _build_lattice(axes) -> _Lattice:
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    k = np.stack(np.broadcast_arrays(*(kk.astype(float) for kk in mesh)), axis=-1)
    k2 = np.sum(k**2, axis=-1)
    lat = _Lattice(1j * k, k2, np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0))
    for arr in lat:
        arr.setflags(write=False)
    return lat


@lru_cache(maxsize=None)
def _lattice(d: int, N: int) -> _Lattice:
    """Cached lattice arrays in centered order, shared by every caller and therefore read-only."""
    return _build_lattice([np.arange(-N, N + 1)] * d)


@lru_cache(maxsize=None)
def _half_lattice(d: int, N: int) -> _Lattice:
    """Cached read-only lattice arrays in the half layout of _rfft_half on the (2N+1)^d grid."""
    unshifted = np.fft.ifftshift(np.arange(-N, N + 1))
    return _build_lattice([unshifted] * (d - 1) + [np.arange(N + 1)])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] * b[..., i]; a loop, as numpy reduces a short last axis slowly."""
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def mode_index_list(grid: Grid) -> np.ndarray:
    """All wavenumbers k in K_N as an (|K_N|, d) array, lexicographic -N..N."""
    axes = [np.arange(-grid.N, grid.N + 1)] * grid.d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class GridField:
    """Real samples of a c-channel field on a Grid; values shape = grid.shape + (c,)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[:-1] != self.grid.shape or v.ndim != self.grid.d + 1:
            raise DimensionMismatch(
                f"values shape {v.shape} does not match grid {self.grid.shape} + (channels,)"
            )
        if not np.all(np.isfinite(v)):
            raise BadParameters("field values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def channels(self) -> int:
        return self.values.shape[-1]

    def channel(self, c: int) -> "GridField":
        return GridField(self.grid, self.values[..., c : c + 1])


@dataclass(frozen=True)
class SpectralCoeffs:
    """Complex coefficients over K_N in centered (lexicographic -N..N) order.

    real_field flags that the represented field is real; conjugate symmetry
    coeffs(-k) = conj(coeffs(k)) is then enforced to HERMITIAN_RTOL relative.
    """

    grid: Grid
    coeffs: np.ndarray
    real_field: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape[:-1] != self.grid.shape or c.ndim != self.grid.d + 1:
            raise DimensionMismatch(
                f"coeffs shape {c.shape} does not match grid {self.grid.shape} + (channels,)"
            )
        object.__setattr__(self, "coeffs", c)
        if self.real_field:
            defect = hermitian_defect(c, self.grid.d)
            scale = np.max(np.abs(c)) or 1.0
            if defect > HERMITIAN_RTOL * scale:
                raise HermitianViolation(
                    f"conjugate-symmetry defect {defect:.3e} exceeds "
                    f"{HERMITIAN_RTOL:.0e} * {scale:.3e}"
                )

    @property
    def channels(self) -> int:
        return self.coeffs.shape[-1]


def hermitian_defect(coeffs: np.ndarray, d: int) -> float:
    """max_k |c(-k) - conj(c(k))| over a centered coefficient array."""
    flipped = np.flip(coeffs, axis=tuple(range(d)))
    return float(np.max(np.abs(flipped - np.conj(coeffs))))


@dataclass(frozen=True)
class SobolevIndex:
    """Smoothness order s >= 0; homogeneous selects the zero-mean seminorm."""

    s: float
    homogeneous: bool = False

    def __post_init__(self):
        if not np.isfinite(self.s) or self.s < 0:
            raise BadParameters(f"Sobolev order must be finite and >= 0, got {self.s}")


def dft(f: GridField) -> SpectralCoeffs:
    """Forward transform; normalization (2N+1)^-d on this side, none on idft.

    The coefficients extend the real half spectrum by conjugate symmetry, which is
    then exact except on the k_{d-1} = 0 plane; there the antisymmetric round-off
    is projected out, so the symmetry invariant holds exactly.
    """
    axes = tuple(range(f.grid.d))
    c = _fft_coeffs(f.values, f.grid.d)
    c = 0.5 * (c + np.conj(np.flip(c, axis=axes)))
    return SpectralCoeffs(f.grid, c, real_field=True)


def idft(c: SpectralCoeffs) -> GridField:
    """Inverse transform f_j = sum_k c_k exp(i<x_j,k>) of conjugate-symmetric coefficients.

    The field is read from the k_{d-1} >= 0 half, so it is real by construction.
    One per-mode guard: HermitianViolation when max_k |c(-k) - conj(c(k))| exceeds
    2 * IMAG_RESIDUE_RTOL * max_k |c_k|; below it the half is read as given, so the
    field can move by up to the sum of the per-mode defects.
    """
    g = c.grid
    defect = hermitian_defect(c.coeffs, g.d)
    scale = np.max(np.abs(c.coeffs)) or 1.0
    if defect > 2 * IMAG_RESIDUE_RTOL * scale:
        raise HermitianViolation(
            f"cannot produce a real field: symmetry defect {defect:.3e} (scale {scale:.3e})"
        )
    return GridField(g, _ifft_values(c.coeffs, g.d))


def _fft_coeffs(values: np.ndarray, d: int) -> np.ndarray:
    """Forward kernel in the centered layout: the normalized _rfft_half of real grid
    values, extended to k_{d-1} < 0 by c(-k) = conj(c(k)), unchecked.

    Transforms the first d axes; trailing axes are batched.  dft() adds the
    symmetrization.
    """
    n, rows = values.shape[0], (slice(None),) * (d - 1)
    half = np.fft.fftshift(_rfft_half(values, d), axes=tuple(range(d - 1))) / n**d
    neg = np.conj(np.flip(half[rows + (slice(1, None),)], axis=tuple(range(d))))
    return np.concatenate((neg, half), axis=d - 1)


def _ifft_values(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Inverse kernel in the centered layout: real grid values of the k_{d-1} >= 0
    half of centered coefficients, unchecked; the other half is taken to be its
    conjugate mirror."""
    n = coeffs.shape[0]
    v = _irfft_values(_half_layout(coeffs, d, n // 2), d)
    v *= n**d
    return v


def _rfft_half(values: np.ndarray, d: int) -> np.ndarray:
    """Real forward kernel: unnormalized half spectrum of real grid values, unchecked.

    Transforms the first d axes (trailing axes are batched) into the
    unshifted layout of rfftn: axis d-1 keeps modes 0..N only, the others
    run 0..N, -N..-1.  The (2N+1)^-d normalization sits in _irfft_values,
    so a centered multiplier moved into this layout with _half_layout acts
    between the pair exactly as on dft coefficients.  scipy.fft runs these
    small batched real transforms about a fifth faster than np.fft; it is
    imported on first use.
    """
    import scipy.fft

    return scipy.fft.rfftn(values, axes=tuple(range(d)))


def _irfft_values(half: np.ndarray, d: int) -> np.ndarray:
    """Real inverse kernel: grid values of a half spectrum on the odd grid, unchecked.

    The half spectrum stands for its conjugate-symmetric extension, so the
    result is real by construction; any antisymmetric round-off is dropped.
    The grid is odd, so its length follows from the half axis.
    """
    import scipy.fft

    n = 2 * half.shape[d - 1] - 1
    return scipy.fft.irfftn(half, s=(n,) * d, axes=tuple(range(d)))


def _half_layout(modes: np.ndarray, d: int, N: int) -> np.ndarray:
    """Centered mode array over |k|_inf <= W (W <= N) in the layout of _rfft_half at N;
    trailing axes are carried along."""
    W, rows = modes.shape[0] // 2, (slice(None),) * (d - 1)
    half = np.fft.ifftshift(modes[rows + (slice(W, None),)], axes=tuple(range(d - 1)))
    return _half_resize(half.astype(complex, copy=False), d, N)


def _half_resize(half: np.ndarray, d: int, M: int) -> np.ndarray:
    """A half spectrum zero-padded, or truncated to |k|_inf <= M, to radius M, unchecked.

    Trailing axes and the normalization are kept; an unchanged radius returns the input.
    """
    N = half.shape[d - 1] - 1
    if M == N:
        return half
    out = np.zeros((2 * M + 1,) * (d - 1) + (M + 1,) + half.shape[d:], dtype=half.dtype)
    m = min(M, N)
    blocks = (slice(0, m + 1), slice(-m, None)) if m else (slice(0, 1),)
    for sl in itertools.product(blocks, repeat=d - 1):
        out[sl + (slice(0, m + 1),)] = half[sl + (slice(0, m + 1),)]
    return out


def _on_grid(half: np.ndarray, d: int, M: int, n: int) -> np.ndarray:
    """Values on the (2M+1)^d grid of the field (truncated to radius M) whose
    _rfft_half on the n^d grid is half."""
    return _irfft_values(_half_resize(half, d, M), d) * ((2 * M + 1) / n) ** d


@lru_cache(maxsize=None)
def _product_radius(N: int) -> int:
    """Radius of the solvers' product grid: the smallest odd length >= 3N+1 with
    no prime factor above 7.  There the modes of a degree-2N product above N
    alias only onto modes above N (the 3/2 rule), so truncating it to N is exact."""
    n = 3 * N + 1 + N % 2  # the smallest odd length >= 3N+1
    while 105 ** n.bit_length() % n:  # n divides a power of 3*5*7 iff 7-smooth
        n += 2
    return n // 2


def _leray_half(half: np.ndarray, d: int) -> np.ndarray:
    """Per mode k != 0 apply 1 - k k^T/|k|^2 to a half spectrum; kill k=0."""
    lat = _half_lattice(d, half.shape[d - 1] - 1)
    kdot = _dot(lat.k, half) * lat.inv_k2
    out = half - lat.k * kdot[..., None]
    out[(0,) * d] = 0.0
    return out


def _flux_half(a: np.ndarray, u_half: np.ndarray, d: int) -> np.ndarray:
    """Half spectrum of P_N(a grad u) at the radius N of u_half, shape + (d,), unchecked.

    a and u have one channel; a holds values on a grid that resolves the
    product.  The raw transform pair on a's grid leaves u_half's normalization.
    """
    N = u_half.shape[d - 1] - 1
    grads = _irfft_values(_half_resize(u_half * _half_lattice(d, N).ik, d, a.shape[0] // 2), d)
    return _half_resize(_rfft_half(grads * a, d), d, N)


def _advection_half(v: np.ndarray, w_half: np.ndarray, d: int) -> np.ndarray:
    """Half spectrum of PL_N(v . grad w) at the radius N of w_half, unchecked.

    v holds d channels on a grid that resolves the product, as in _flux_half.
    """
    N = w_half.shape[d - 1] - 1
    ik = _half_lattice(d, N).ik[..., None, :]
    grads = _irfft_values(_half_resize(w_half[..., None] * ik, d, v.shape[0] // 2), d)
    adv = v[..., None, 0] * grads[..., 0]  # grads[..., m, i] = d_i w_m
    for i in range(1, d):
        adv += v[..., None, i] * grads[..., i]
    return _leray_half(_half_resize(_rfft_half(adv, d), d, N), d)


def _half_power(half: np.ndarray, d: int) -> np.ndarray:
    """Per-mode |c_k|^2, summed over the last axis, of a whole-grid _rfft_half;
    modes 1..N of the half axis also stand for their conjugates and count twice."""
    weight = np.full(half.shape[d - 1], 2.0)
    weight[0] = 1.0
    power = np.sum(half.real**2 + half.imag**2, axis=-1)
    return power * (weight / float(2 * half.shape[d - 1] - 1) ** (2 * d))


def _half_norm(half: np.ndarray, d: int, weight) -> float:
    """((2pi)^d sum_k weight_k |c_k|^2)^(1/2) for the _rfft_half of a field on its own grid."""
    return float(np.sqrt((2 * np.pi) ** d * np.sum(weight * _half_power(half, d))))


def truncation_mask(grid: Grid, M: int, zero_mean: bool = False) -> np.ndarray:
    """Indicator of |k|_inf <= M (optionally excluding k=0) on the centered lattice."""
    mask = np.ones(grid.shape, dtype=bool)
    for kk in grid.modes():
        mask &= np.abs(kk) <= M
    if zero_mean:
        center = (grid.N,) * grid.d
        mask[center] = False
    return mask


def project(c: SpectralCoeffs, M: int, zero_mean: bool = False) -> SpectralCoeffs:
    """L^2-orthogonal truncation to modes |k|_inf <= M at unchanged resolution.

    zero_mean additionally removes the k=0 mode (projection onto zero-mean
    polynomials).
    """
    if M > c.grid.N:
        raise BadTruncation(f"truncation radius {M} exceeds resolution {c.grid.N}")
    if M < 0:
        raise BadParameters("truncation radius must be >= 0")
    mask = truncation_mask(c.grid, M, zero_mean)
    return SpectralCoeffs(c.grid, c.coeffs * mask[..., None], real_field=c.real_field)


def resample(f: GridField, M: int) -> GridField:
    """Evaluate the degree-N interpolant of f on the (2M+1)^d grid.

    Exact for band-limited fields whenever M >= N; for M < N this is the
    pseudo-spectral projection onto the coarser grid (modes alias).
    """
    g, M = f.grid, _positive_int(M, "target mode radius")
    if M == g.N:
        return GridField(g, f.values.copy())
    if M > g.N:
        return GridField(Grid(g.d, M), _on_grid(_rfft_half(f.values, g.d), g.d, M, g.npoints))
    m, N = 2 * M + 1, g.N
    v = f.values
    for _ in range(g.d):  # fold axis 0 modulo 2M+1, then move it last among the grid axes
        half = _rfft_half(v, 1)
        folded = np.zeros((M + 1,) + half.shape[1:], dtype=complex)
        for w in range(0, N + 1, m):  # the modes w + r, r = 0..M, land on r
            folded[: min(M, N - w) + 1] += half[w : w + M + 1]
        for w in range(m, N + M + 1, m):  # the modes -(w - r) land on r, as conj(half[w - r])
            folded[max(w - N, 0) :] += np.conj(half[min(w, N) : w - M - 1 : -1])
        v = np.moveaxis(_irfft_values(folded, 1) * (m / g.npoints), 0, g.d - 1)
    return GridField(Grid(g.d, M), v)


def _multiply(f: GridField, mult: np.ndarray) -> GridField:
    """The field whose half spectrum is that of f times mult (a half-layout mode array)."""
    g = f.grid
    return GridField(g, _irfft_values(_rfft_half(f.values, g.d) * mult, g.d))


def derivative(f: GridField, axis: int) -> GridField:
    """Exact spectral partial derivative (multiplier i*k_axis)."""
    g = f.grid
    if not 0 <= axis < g.d:
        raise DimensionMismatch(f"axis {axis} out of range for dimension {g.d}")
    return _multiply(f, _half_lattice(g.d, g.N).ik[..., axis, None])


def gradient(f: GridField) -> list:
    """All d partial derivatives of a field (channel-wise)."""
    return [derivative(f, axis) for axis in range(f.grid.d)]


def divergence(u: GridField) -> GridField:
    """Spectral divergence of a d-channel vector field."""
    g = u.grid
    if u.channels != g.d:
        raise DimensionMismatch(f"divergence needs {g.d} channels, got {u.channels}")
    div = _dot(_half_lattice(g.d, g.N).ik, _rfft_half(u.values, g.d))
    return GridField(g, _irfft_values(div[..., None], g.d))


def dealiased_product(u: GridField, v: GridField) -> GridField:
    """Exact truncated product P_N(u*v) via evaluation on the product grid.

    Both factors are evaluated exactly on the grid of _product_radius(N) and
    multiplied pointwise; truncating the product's transform to |k|_inf <= N
    is exact there.  Channel counts must match or one factor must be scalar.
    """
    if u.grid != v.grid:
        raise DimensionMismatch("dealiased_product requires a shared grid")
    if u.channels != v.channels and 1 not in (u.channels, v.channels):
        raise DimensionMismatch(
            f"channel mismatch {u.channels} vs {v.channels} (no broadcast)"
        )
    g = u.grid
    M = _product_radius(g.N)
    uu, vv = (_on_grid(_rfft_half(w.values, g.d), g.d, M, g.npoints) for w in (u, v))
    return GridField(g, _on_grid(_rfft_half(uu * vv, g.d), g.d, g.N, 2 * M + 1))


def leray_project(u: GridField) -> GridField:
    """Leray-Fourier projection: per mode k != 0 apply 1 - k k^T/|k|^2, kill k=0.

    Output is divergence-free and zero-mean; the projection is idempotent
    and fixes divergence-free fields.
    """
    g = u.grid
    if u.channels != g.d:
        raise DimensionMismatch(f"Leray projection needs {g.d} channels, got {u.channels}")
    return GridField(g, _irfft_values(_leray_half(_rfft_half(u.values, g.d), g.d), g.d))


def sobolev_norm(f: GridField, idx: "SobolevIndex | float", homogeneous: bool = False) -> float:
    """Sobolev norm from the coefficients.

    ||f||_{H^s}^2  = (2pi)^d/2 * sum_k (1+|k|^{2s}) |c_k|^2   (so H^0 = L^2)
    ||f||_{Hdot^s}^2 = (2pi)^d * sum_{k!=0} |k|^{2s} |c_k|^2

    Multi-channel fields sum the squares over channels.  The seminorm, taken when the
    index or the flag asks for it, ignores the mean; both read the real half spectrum.
    """
    if not isinstance(idx, SobolevIndex):
        idx = SobolevIndex(float(idx))
    g = f.grid
    k2 = _half_lattice(g.d, g.N).k2
    homogeneous = homogeneous or idx.homogeneous
    w = np.where(k2 > 0, k2**idx.s, 0.0) if homogeneous else 0.5 * (1.0 + k2**idx.s)
    return _half_norm(_rfft_half(f.values, g.d), g.d, w)


def l2_norm(f: GridField) -> float:
    return sobolev_norm(f, SobolevIndex(0.0))


def mean(f: GridField) -> np.ndarray:
    """Per-channel mean (the k=0 coefficient)."""
    return f.values.mean(axis=tuple(range(f.grid.d)))


def inverse_laplacian(f: GridField) -> GridField:
    """Zero-mean solution of -Lap(u) = f - mean(f): multiplier 1/|k|^2, k != 0."""
    return _multiply(f, _half_lattice(f.grid.d, f.grid.N).inv_k2[..., None])


def helmholtz_inverse(f: GridField, alpha: float) -> GridField:
    """(1 - alpha*Lap)^-1: multiplier 1/(1 + alpha|k|^2); contraction for alpha >= 0."""
    if alpha < 0:
        raise BadParameters(f"helmholtz_inverse requires alpha >= 0, got {alpha}")
    k2 = _half_lattice(f.grid.d, f.grid.N).k2
    return _multiply(f, 1.0 / (1.0 + alpha * k2)[..., None])


def evaluate(f: GridField, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points in [0,2pi)^d.

    points: array (m, d).  Returns (m, channels).
    """
    g = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.d:
        raise DimensionMismatch(f"points must have {g.d} columns, got {pts.shape[1]}")
    c = dft(f)
    flat = c.coeffs.reshape(-1, c.channels)
    phases = np.exp(1j * pts @ mode_index_list(g).T.astype(float))
    return np.real(phases @ flat)


def constant_field(grid: Grid, values) -> GridField:
    """Field with constant per-channel values (scalar or length-c vector)."""
    vec = np.atleast_1d(np.asarray(values, dtype=float))
    return GridField(grid, np.broadcast_to(vec, grid.shape + vec.shape).copy())


def field_from_function(grid: Grid, fn) -> GridField:
    """Sample fn(x1, ..., xd) -> scalar or channel tuple on the grid."""
    coords = grid.coordinates()
    out = fn(*coords)
    if isinstance(out, (tuple, list)):
        vals = np.stack([np.broadcast_to(o, grid.shape) for o in out], axis=-1)
    else:
        vals = np.broadcast_to(out, grid.shape)[..., None]
    return GridField(grid, np.ascontiguousarray(vals, dtype=float))


def random_hermitian_coeffs(
    grid: Grid,
    rng: np.random.Generator,
    channels: int = 1,
    decay=None,
    zero_mean: bool = False,
) -> SpectralCoeffs:
    """Random coefficients with enforced conjugate symmetry.

    decay: optional callable |k|_2 -> magnitude envelope applied after
    symmetrization.
    """
    shape = grid.shape + (_positive_int(channels, "channel count"),)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(grid.d))
    sym = 0.5 * (raw + np.conj(np.flip(raw, axis=axes)))
    if decay is not None:
        kabs = np.sqrt(_lattice(grid.d, grid.N).k2)
        sym = sym * decay(kabs)[..., None]
    if zero_mean:
        sym[(grid.N,) * grid.d + (slice(None),)] = 0.0
    return SpectralCoeffs(grid, sym, real_field=True)


def random_field(
    grid: Grid,
    rng: np.random.Generator,
    channels: int = 1,
    zero_mean: bool = False,
) -> GridField:
    """Random real band-limited field with a flat spectrum."""
    return idft(random_hermitian_coeffs(grid, rng, channels, zero_mean=zero_mean))
