"""Shared slow-but-independent oracles used across the test suite.

Most of what is here is written against the definitions directly
(explicit sums, direct convolution), so it cannot share bugs with the
FFT-based implementation paths it checks.  The reference network
evaluator is the full-spectrum path the compiled forward replaced: it
shares only the checked public transforms with the package.  The layer
prober builds a layer's dense matrix one unit vector at a time, without
assuming shift equivariance.  The two solver loops at the end are the
solvers' first forms, which the shortcuts they took since must reproduce,
and resample_add_at is the resample fold that slice adds replaced.
"""

import numpy as np
from scipy.signal import convolve

from psifno.darcy import PicardOperator
from psifno.fno import FnoLayer, FourierMultiplier, PsiFno, activation, layer_forward
from psifno.navier_stokes import _STALL_RTOL
from psifno.spectral import (Grid, GridField, SpectralCoeffs, _irfft_values, _rfft_half, dft,
                            idft, random_field, random_hermitian_coeffs, resample, sobolev_norm)


def mode_list(grid: Grid) -> np.ndarray:
    """All k in K_N as an (|K_N|, d) integer array (lexicographic -N..N)."""
    axes = [np.arange(-grid.N, grid.N + 1)] * grid.d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def grid_points(grid: Grid) -> np.ndarray:
    """All grid points x_j as an (|J_N|, d) array."""
    x = grid.axis_coordinates()
    mesh = np.meshgrid(*([x] * grid.d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def naive_dft(f: GridField) -> np.ndarray:
    """O(|J|^2) transform by explicit summation; centered order + channels."""
    g = f.grid
    ks = mode_list(g)
    xs = grid_points(g)
    phases = np.exp(-1j * ks @ xs.T)  # (|K|, |J|)
    flat = f.values.reshape(-1, f.channels)
    out = phases @ flat / g.size
    return out.reshape(g.shape + (f.channels,))


def naive_idft(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    ks = mode_list(grid)
    xs = grid_points(grid)
    phases = np.exp(1j * xs @ ks.T)  # (|J|, |K|)
    flat = coeffs.reshape(-1, coeffs.shape[-1])
    out = phases @ flat
    return out.reshape(grid.shape + (coeffs.shape[-1],))


def centered_multiply(f: GridField, factors) -> np.ndarray:
    """Grid values of the field whose naive_dft coefficients are factors times f's.

    factors broadcasts against (|K_N|, channels) in mode_list order; the
    imaginary part of naive_idft is dropped, which is round-off only when
    factors(-k) = conj(factors(k)).
    """
    c = naive_dft(f).reshape(-1, f.channels) * factors
    return naive_idft(c.reshape(f.grid.shape + (f.channels,)), f.grid).real


def _k2(grid: Grid) -> np.ndarray:
    return np.sum(mode_list(grid) ** 2, axis=-1)[:, None].astype(float)


def derivative_oracle(f: GridField, axis: int) -> np.ndarray:
    """d f / d x_axis on the centered spectrum: multiplier i k_axis."""
    return centered_multiply(f, 1j * mode_list(f.grid)[:, axis, None])


def divergence_oracle(u: GridField) -> np.ndarray:
    """sum_i d u_i / d x_i on the centered spectrum, one channel."""
    return centered_multiply(u, 1j * mode_list(u.grid)).sum(axis=-1, keepdims=True)


def inverse_laplacian_oracle(f: GridField) -> np.ndarray:
    """Multiplier 1/|k|^2 for k != 0 and 0 at k = 0."""
    k2 = _k2(f.grid)
    return centered_multiply(f, np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0))


def helmholtz_inverse_oracle(f: GridField, alpha: float) -> np.ndarray:
    """Multiplier 1/(1 + alpha |k|^2)."""
    return centered_multiply(f, 1.0 / (1.0 + alpha * _k2(f.grid)))


def convolution_truncated(cu: np.ndarray, cv: np.ndarray, N: int) -> np.ndarray:
    """Exact coefficient convolution of two K_N arrays, truncated to K_N.

    Inputs/outputs are centered single-channel arrays of shape (2N+1,)*d.
    Uses direct (non-FFT) convolution so it is an independent oracle.
    """
    full = convolve(cu, cv, mode="full", method="direct")
    d = cu.ndim
    center = tuple(slice(N, 3 * N + 1) for _ in range(d))
    return full[center]


def resample_add_at(f: GridField, M: int) -> np.ndarray:
    """Values of resample(f, M) for M < N through the fold it first used: np.add.at of
    every positive mode onto its residue modulo 2M + 1, then of every conjugated
    negative mode, each in ascending |k|, one grid axis at a time."""
    g = f.grid
    m = 2 * M + 1
    k = np.arange(g.N + 1)
    up, down = k % m, (-k[1:]) % m  # residues of the modes k >= 0 and -k < 0
    v = f.values
    for _ in range(g.d):
        half = _rfft_half(v, 1)
        folded = np.zeros((M + 1,) + half.shape[1:], dtype=complex)
        np.add.at(folded, up[up <= M], half[up <= M])
        np.add.at(folded, down[down <= M], np.conj(half[1:][down <= M]))
        v = np.moveaxis(_irfft_values(folded, 1) * (m / g.npoints), 0, g.d - 1)
    return v


def rel_err(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    denom = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b)) / denom)


def reference_layer_forward(layer, v: GridField, act) -> GridField:
    """One layer on the full centered spectrum: dft, FourierMultiplier.apply, idft.

    Every channel is transformed and every term applied on the full
    (d_v, d_v) matrices, with the conjugate-symmetry checks of dft/idft.
    """
    pre = np.zeros_like(v.values)
    if layer.weight is not None:
        pre += v.values @ layer.weight.T
    if layer.multiplier is not None:
        conv_hat = layer.multiplier.apply(dft(v).coeffs, v.grid.N)
        pre += idft(SpectralCoeffs(v.grid, conv_hat, real_field=True)).values
    if isinstance(layer.bias, GridField):
        pre += layer.bias.values
    elif layer.bias is not None:
        pre += layer.bias
    return GridField(v.grid, act(pre) if layer.apply_activation else pre)


def reference_forward(net, a: GridField) -> GridField:
    """fno_forward through reference_layer_forward."""
    if a.grid.N != net.grid.N:
        a = resample(a, net.grid.N)
    act = activation(net.activation)
    v = GridField(net.grid, a.values @ net.lifting.T)
    for layer in net.layers:
        v = reference_layer_forward(layer, v, act)
    return GridField(net.grid, v.values @ net.projection.T)


def probe_layer_dense(layer, grid: Grid, act) -> tuple:
    """Dense (matrix, bias) of a layer's pre-activation map on flat values,
    one layer_forward per unit vector: |J| d_v + 1 evaluations."""
    d_v = layer.d_v
    n = grid.size * d_v
    bare = FnoLayer(d_v, layer.weight, layer.bias, layer.multiplier, False)
    c = layer_forward(bare, GridField(grid, np.zeros(grid.shape + (d_v,))), act).values.reshape(-1)
    M = np.empty((n, n))
    for j in range(n):
        probe = np.zeros(n)
        probe[j] = 1.0
        M[:, j] = layer_forward(bare, GridField(grid, probe.reshape(grid.shape + (d_v,))),
                                act).values.reshape(-1) - c
    return M, c


def small_random_net(grid, rng, d_a=1, d_v=3, d_u=1, depth=2):
    """A network of `depth` activated layers with random weights, biases and
    one-term Hermitian multipliers."""
    layers = []
    for _ in range(depth):
        w = rng.standard_normal((d_v, d_v)) / d_v
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        s = 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(grid.d)))))
        mult = FourierMultiplier(grid.d, grid.N, [(s, rng.standard_normal((d_v, d_v)) / d_v)], d_v)
        layers.append(FnoLayer(d_v, w, random_field(grid, rng, channels=d_v), mult, True))
    R = rng.standard_normal((d_v, d_a))
    Q = rng.standard_normal((d_u, d_v)) / d_v
    return PsiFno(grid, R, tuple(layers), Q)


def lipschitz_two_apply(atilde_N, f_N, rng, pairs: int = 100) -> float:
    """max over random pairs of ||F(u)-F(u')||_{Hdot1} / ||u-u'||_{Hdot1} with F
    applied to both grid fields; the draws are those of darcy.empirical_lipschitz."""
    op = PicardOperator(atilde_N, f_N)
    g = atilde_N.grid
    worst = 0.0
    for _ in range(pairs):
        u = idft(random_hermitian_coeffs(g, rng, zero_mean=True))
        v = idft(random_hermitian_coeffs(g, rng, zero_mean=True))
        denom = sobolev_norm(GridField(g, u.values - v.values), 1.0, homogeneous=True)
        if denom == 0.0:
            continue
        dF = GridField(g, op.apply(u).values - op.apply(v).values)
        worst = max(worst, sobolev_norm(dF, 1.0, homogeneous=True) / denom)
    return worst


def sweeps_from_zero(op, k_iter: int) -> np.ndarray:
    """k_iter sweeps of an NS inner map from w = 0, with the round-off stall exit."""
    w_hat = np.zeros_like(op.base)
    for _ in range(k_iter):
        w_next = op.apply_hat(w_hat)
        delta = np.max(np.abs(w_next - w_hat))
        w_hat = w_next
        if delta <= _STALL_RTOL * max(np.max(np.abs(w_hat)), 1e-300):
            break
    return w_hat
