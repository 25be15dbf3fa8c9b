"""Fourier neural operator data model and exact forward evaluator.

A network maps a d_a-channel field to a d_u-channel field as

    Q o I_N o L_L o I_N o ... o L_1 o I_N o R,

with a pointwise lifting matrix R, pointwise projection matrix Q, and
layers

    L(v)_j = sigma( W v_j + b_j + F_N^{-1}( P(k) . F_N(v)(k) )_j ),

where the activation is optional per layer (a layer without it is a pure
affine/F-layer).  The interleaved pseudo-spectral projections are no-ops
while all data live at the network resolution, which is how every
construction in this package operates; inputs at other resolutions are
resampled on entry.

Multipliers P(k) are stored in factored form sum_t s_t(k) * A_t with
scalar mode arrays s_t over |k|_inf <= W and constant matrices A_t.  Real
outputs for real inputs are guaranteed by the conjugacy condition
P(-k) = conj(P(k)), checked entrywise at construction, at load, and once
per layer when the forward compiles it.

fno_forward runs a plan compiled once per network and cached on it.  Each
activated layer is one step, and each maximal run of activation-free
layers is fused into one step, since affine maps with multipliers compose
mode by mode (the I_N between them is a no-op on grid data).  Working back
from Q, every step computes only the channels the next step reads, and
the lifting only those the first step reads.  Within a step the input is
contracted pointwise onto the few vectors the multiplier reads
(F(v) A^T = F(v A^T)), those are sent through the real half-spectrum
transforms, multiplied by mode arrays summed once per (vector, output
row) pair, and only the live rows come back to grid space.  The half
spectrum stands for its conjugate-symmetric extension, which is why every
layer's conjugacy is checked when the plan compiles.  A multiplier that
is zero away from k = 0 is P(0) applied to the grid mean, with no
transform, and a spatially constant channel is computed at one point and
spread over the grid only where a field bias, a wider multiplier or the
output needs it.  layer_forward is the one-layer step with every channel,
cached on the layer.
FourierMultiplier.apply still acts on the full centered spectrum of
spectral.dft; only the tests' reference forward calls it.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from .errors import BadParameters, DimensionMismatch, UnknownActivation
from .spectral import Grid, GridField, _half_layout, _irfft_values, _rfft_half, resample

MAGIC = b"PSIFNO2\n"
MULTIPLIER_SYM_RTOL = 1e-12


@dataclass(frozen=True)
class Activation:
    """Scalar activation with exact first and second derivatives."""

    name: str
    fn: callable
    d1: callable
    d2: callable

    def __call__(self, x):
        return self.fn(x)


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_d1(x):
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi


def _gelu_d2(x):
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return (2.0 - x * x) * phi


_ACTIVATIONS = {
    "tanh": Activation(
        "tanh",
        np.tanh,
        lambda x: 1.0 - np.tanh(x) ** 2,
        lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2),
    ),
    "gelu": Activation("gelu", _gelu, _gelu_d1, _gelu_d2),
}


def activation(tag: str) -> Activation:
    """Look up a supported activation (tanh, gelu) with derivatives."""
    try:
        return _ACTIVATIONS[tag]
    except KeyError:
        raise UnknownActivation(f"unknown activation {tag!r}; supported: tanh, gelu") from None


class FourierMultiplier:
    """Mode-wise matrix multiplier P(k) = sum_t s_t(k) A_t, |k|_inf <= W.

    s_t are complex arrays of shape (2W+1,)*d in centered mode order, A_t
    are (d_v, d_v) complex matrices; P is implicitly zero outside K_W.
    """

    def __init__(self, d: int, mode_radius: int, terms, d_v: int, check: bool = True):
        self.d = int(d)
        self.mode_radius = int(mode_radius)
        self.d_v = int(d_v)
        shape = (2 * self.mode_radius + 1,) * self.d
        prepared = []
        for s, A in terms:
            s = np.asarray(s, dtype=complex)
            A = np.asarray(A, dtype=complex)
            if s.shape != shape:
                raise DimensionMismatch(f"mode array shape {s.shape}, expected {shape}")
            if A.shape != (self.d_v, self.d_v):
                raise DimensionMismatch(f"matrix shape {A.shape}, expected {(d_v, d_v)}")
            prepared.append((s, A))
        self.terms = tuple(prepared)
        if check:
            self._check_conjugacy()

    def _check_conjugacy(self):
        """P(-k) must equal conj(P(k)) entrywise, so real fields map to real fields.

        With every A_t real the defect at entry (r, c) is at most
        sum_t |A_t[r, c]| max_k |s_t(-k) - conj(s_t(k))|; when that bound
        meets the tolerance the dense per-mode check is skipped.
        """
        axes = tuple(range(self.d))
        scale = max((np.max(np.abs(s)) * np.max(np.abs(A)) for s, A in self.terms), default=0.0)
        if scale == 0.0:
            return
        tol = MULTIPLIER_SYM_RTOL * scale
        if all(not np.any(A.imag) for _, A in self.terms):
            bound = sum(np.max(np.abs(np.flip(s, axis=axes) - np.conj(s))) * np.abs(A.real)
                        for s, A in self.terms)
            if np.max(bound) <= tol:  # False for NaN, which the dense check rejects
                return
        chunk = max(1, min(self.d_v, 2_000_000 // (self.size_modes * self.d_v + 1)))
        for lo in range(0, self.d_v, chunk):
            hi = min(self.d_v, lo + chunk)
            block = 0.0
            for s, A in self.terms:
                block = block + s[..., None, None] * A[lo:hi, :]
            defect = np.max(np.abs(np.flip(block, axis=axes) - np.conj(block)))
            if not defect <= tol:
                raise BadParameters(
                    f"multiplier breaks conjugacy: defect {defect:.3e} vs scale {scale:.3e}"
                )

    @property
    def size_modes(self) -> int:
        return (2 * self.mode_radius + 1) ** self.d

    def apply(self, coeffs: np.ndarray, N: int) -> np.ndarray:
        """Apply to a centered coefficient array of shape (2N+1,)*d + (d_v,)."""
        W = self.mode_radius
        if W > N:
            raise DimensionMismatch(f"multiplier radius {W} exceeds resolution {N}")
        out = np.zeros_like(coeffs)
        sl = tuple(slice(N - W, N + W + 1) for _ in range(self.d))
        sub = coeffs[sl]
        acc = np.zeros_like(sub)
        for s, A in self.terms:
            acc += s[..., None] * (sub @ A.T)
        out[sl] = acc
        return out

    def dense(self, N: int) -> np.ndarray:
        """Materialize P(k) for every k in K_N; shape (2N+1,)*d + (d_v, d_v)."""
        shape = (2 * N + 1,) * self.d + (self.d_v, self.d_v)
        full = np.zeros(shape, dtype=complex)
        sl = tuple(slice(N - self.mode_radius, N + self.mode_radius + 1) for _ in range(self.d))
        for s, A in self.terms:
            full[sl] += s[..., None, None] * A
        return full


@dataclass(frozen=True)
class FnoLayer:
    """One network layer: v -> [sigma]( W v + b + F^-1(P F v) ).

    weight      : (d_v, d_v) real matrix or None
    bias        : None, a constant (d_v,) vector, or a GridField with d_v channels
    multiplier  : FourierMultiplier or None
    apply_activation : skip for a pure F-/affine layer

    layer_forward caches the layer's compiled step per grid in _steps.
    """

    d_v: int
    weight: np.ndarray | None = None
    bias: object = None
    multiplier: FourierMultiplier | None = None
    apply_activation: bool = True
    _steps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.weight is not None:
            w = np.asarray(self.weight, dtype=float)
            if w.shape != (self.d_v, self.d_v):
                raise DimensionMismatch(f"weight shape {w.shape}, expected {(self.d_v,) * 2}")
            object.__setattr__(self, "weight", w)
        if isinstance(self.bias, GridField):
            if self.bias.channels != self.d_v:
                raise DimensionMismatch("bias field channel count must equal d_v")
        elif self.bias is not None:
            b = np.asarray(self.bias, dtype=float).reshape(-1)
            if b.shape != (self.d_v,):
                raise DimensionMismatch(f"constant bias length {b.shape[0]}, expected {self.d_v}")
            object.__setattr__(self, "bias", b)
        if self.multiplier is not None and self.multiplier.d_v != self.d_v:
            raise DimensionMismatch("multiplier d_v must equal layer d_v")

    def padded(self, d_v: int, bridge: np.ndarray | None = None) -> "FnoLayer":
        """This layer on d_v channels, the new ones zero; with a (d_v, d_v) bridge
        M the weight W and every multiplier matrix A_t become W @ M and A_t @ M."""
        if d_v == self.d_v and bridge is None:
            return self

        def embed(A):
            if d_v > self.d_v:
                A, narrow = np.zeros((d_v, d_v), dtype=A.dtype), A
                A[: self.d_v, : self.d_v] = narrow
            return A if bridge is None else A @ bridge

        w = embed(self.weight) if self.weight is not None else None
        b = self.bias
        if d_v > self.d_v and isinstance(b, GridField):
            vals = np.zeros(b.grid.shape + (d_v,))
            vals[..., : self.d_v] = b.values
            b = GridField(b.grid, vals)
        elif d_v > self.d_v and b is not None:
            b = np.concatenate([b, np.zeros(d_v - self.d_v)])
        m = self.multiplier
        if m is not None:
            m = FourierMultiplier(m.d, m.mode_radius, [(s, embed(A)) for s, A in m.terms],
                                  d_v, check=False)
        return FnoLayer(d_v, w, b, m, self.apply_activation)


def _layer_affine(layer: FnoLayer, grid: Grid) -> tuple:
    """(W, bias, terms) of a layer's pre-activation map on grid, checked.

    W is None when zero, bias None, a (d_v,) vector or grid values, and
    terms pairs each multiplier term's mode array, moved into the half
    layout of grid, with its nonzero matrix.  Dimensions and conjugacy
    are checked here, since the real transforms are exact only when P
    is conjugate-symmetric.
    """
    bias = layer.bias
    if isinstance(bias, GridField):
        if bias.grid != grid:
            raise DimensionMismatch("bias field lives on a different grid")
        bias = bias.values
    weight = layer.weight if layer.weight is not None and np.any(layer.weight) else None
    mult = layer.multiplier
    if mult is None:
        return weight, bias, []
    if mult.d != grid.d:
        raise DimensionMismatch(f"multiplier dimension {mult.d}, grid {grid.d}")
    if mult.mode_radius > grid.N:
        raise DimensionMismatch(f"multiplier radius {mult.mode_radius} exceeds resolution {grid.N}")
    mult._check_conjugacy()
    return weight, bias, [(_half_layout(s, grid.d, grid.N), A) for s, A in mult.terms if np.any(A)]


def _then(a: tuple, b: tuple) -> tuple:
    """The affine map b(a(v)) of two (W, bias, terms) maps on one grid.

    Multipliers compose mode by mode: W = W_b W_a,
    P = W_b P_a + P_b W_a + P_b P_a, bias = W_b b_a + b_b + F^-1(P_b F b_a).
    """
    Wa, ba, Ta = a
    Wb, bb, Tb = b
    W = Wb @ Wa if Wa is not None and Wb is not None else None
    terms = [(s, Wb @ A) for s, A in Ta] if Wb is not None else []
    terms += [(r, B @ Wa) for r, B in Tb] if Wa is not None else []
    terms += [(r * s, B @ A) for r, B in Tb for s, A in Ta]
    bias = bb
    if ba is not None:
        parts = [ba @ Wb.T] if Wb is not None else []
        if Tb and ba.ndim == 1:  # a constant sees only the k = 0 mode
            parts.append(sum(r[(0,) * r.ndim] * (B @ ba) for r, B in Tb).real)
        elif Tb:
            conv, out = _Convolution(Tb, ba.shape[-1]), np.zeros_like(ba)
            conv(ba, out)
            parts.append(out)
        for part in parts:
            bias = part if bias is None else bias + part
    return W, bias, [(s, A) for s, A in terms if np.any(A)]


def _reads(affine: tuple, rows: np.ndarray, d_v: int) -> np.ndarray:
    """Input channels that output rows of an affine map read."""
    W, _, terms = affine
    used = np.zeros(d_v, dtype=bool)
    for A in ([W] if W is not None else []) + [A for _, A in terms]:
        used |= np.any(A[rows] != 0, axis=0)
    return np.flatnonzero(used)


class _Convolution:
    """x -> F^-1(P F x) on the live output rows, through real half-spectrum transforms.

    P is given as terms (s_t, A_t): half-layout mode arrays and (rows,
    n_in) matrices.  The input is first contracted pointwise,
    z = x M^T (F(x) A^T = F(x A^T)).  For real A_t the rows of M are the
    distinct nonzero rows of the A_t and the mode array of pair (r, j)
    sums the s_t of every term whose row r is M[j]; otherwise, or when
    that gives more vectors than there are live input channels, M selects
    the live channels and the pair's mode array is the per-mode matrix
    entry P(k)[r, c].  Pair p adds modes[..., p] * F(z)[..., pick[p]] to
    its row; pairs are sorted by row and starts marks each row's first pair.
    A zero-mode multiplier (every mode array zero away from k = 0) makes
    F^-1(P F x) the grid mean of x times P(0), and so does any multiplier
    on a constant x, which arrives as one point: either is computed at one
    point, with no transform.
    """

    def __init__(self, terms, n_in: int):
        used = np.zeros(terms[0][1].shape if terms else (0, n_in), dtype=bool)
        for _, A in terms:
            used |= A != 0
        cols = np.flatnonzero(used.any(axis=0))
        pairs, vectors = {}, {}
        real = all(not np.any(A.imag) for _, A in terms)
        if real:
            for s, A in terms:
                for r in np.flatnonzero(np.any(A.real != 0, axis=1)):
                    j = vectors.setdefault((A.real[r] + 0.0).tobytes(), len(vectors))
                    pairs[r, j] = pairs[r, j] + s if (r, j) in pairs else s
            M = np.array([np.frombuffer(v) for v in vectors]).reshape(len(vectors), n_in)
        if not real or len(vectors) > cols.size:
            pairs = {}
            for s, A in terms:
                for r, j in zip(*np.nonzero(A[:, cols])):
                    term = s * A[r, cols[j]]
                    pairs[r, j] = pairs[r, j] + term if (r, j) in pairs else term
            M = np.eye(n_in)[cols]
        keys = sorted(pairs)
        self.size = len(keys)
        if not keys:
            return
        row_of = np.array([r for r, _ in keys])
        self.rows = np.unique(row_of)
        self.starts = np.searchsorted(row_of, self.rows)
        self.pick = np.array([j for _, j in keys])
        self.M = M
        self.modes = np.stack([pairs[k] for k in keys], axis=-1)
        self.zero_mode = not np.any(self.modes.reshape(-1, self.size)[1:])  # flat index 0 is k = 0
        self.at_zero = self.modes[(0,) * (self.modes.ndim - 1)].real

    def __call__(self, x: np.ndarray, out: np.ndarray) -> None:
        """out[..., rows] += F^-1(P F x) for grid values x, or for the one point
        of a constant x; out may be one point when the result is constant."""
        d = self.modes.ndim - 1
        if self.zero_mode or x.shape[0] == 1:  # F^-1(P F x) = P(0) mean(x)
            z = np.mean(x, axis=tuple(range(d)), keepdims=True) @ self.M.T
            out[..., self.rows] += self._row_sums(z[..., self.pick] * self.at_zero)
        else:
            prod = _rfft_half(x @ self.M.T, d)[..., self.pick] * self.modes
            out[..., self.rows] += _irfft_values(self._row_sums(prod), d)

    def _row_sums(self, prod: np.ndarray) -> np.ndarray:
        return np.add.reduceat(prod, self.starts, axis=-1) if self.rows.size < self.size else prod


class _Step:
    """An affine map compiled for the output rows a later stage reads:
    [sigma](W v + b + F^-1(P F v)) from channels cols to channels rows.

    Input and output hold only those channels, in that order; the weight,
    the bias and the multiplier matrices keep only the rows and columns
    between them, and the convolution only its live rows (see _Convolution).
    A spatially constant input or output is held as one point, shape
    (1,)*d + (channels,): a step with no weight, no field bias and no
    convolution beyond the zero mode (a grid mean) returns its constant
    output so, and a constant input is carried at one point until a field
    bias or a convolution beyond the zero mode spreads it over the grid.
    """

    def __init__(self, affine: tuple, rows: np.ndarray, cols: np.ndarray, activated: bool):
        W, bias, terms = affine
        self.cols, self.width, self.activated = cols, rows.size, activated
        block = np.ix_(rows, cols)
        self.weight = W[block].T if W is not None and np.any(W[block]) else None
        self.bias = None
        if bias is not None and np.any(bias[..., rows]):
            self.bias = np.ascontiguousarray(bias[..., rows])
        conv = _Convolution([(s, A[block]) for s, A in terms if np.any(A[block])], cols.size)
        self.conv = conv if conv.size else None
        self.spreads = self.conv is not None and not self.conv.zero_mode

    def __call__(self, v: np.ndarray, act: Activation) -> np.ndarray:
        if self.weight is None:
            pre = np.zeros((v.shape[:-1] if self.spreads else (1,) * (v.ndim - 1)) + (self.width,))
        else:
            pre = v @ self.weight
        if self.conv is not None:
            self.conv(v, pre)
        if self.bias is not None and pre.size < self.bias.size:
            pre = pre + self.bias  # a field bias spreads a one-point pre over the grid
        elif self.bias is not None:
            pre += self.bias
        return act(pre) if self.activated else pre


def layer_forward(layer: FnoLayer, v: GridField, act: Activation) -> GridField:
    """Evaluate one layer on grid values (exact; FFT-based convolution).

    This is the one-layer step of the forward plan with every channel in
    and out, compiled for v's grid on first use and cached on the layer.
    """
    if v.channels != layer.d_v:
        raise DimensionMismatch(f"layer expects {layer.d_v} channels, got {v.channels}")
    step = layer._steps.get(v.grid)
    if step is None:
        every = np.arange(layer.d_v)
        step = layer._steps[v.grid] = _Step(_layer_affine(layer, v.grid), every, every,
                                            layer.apply_activation)
    return _as_field(v.grid, step(v.values, act))


def _finite(values: np.ndarray) -> np.ndarray:
    """values, checked as GridField checks the values of a field."""
    if not np.all(np.isfinite(values)):
        raise BadParameters("field values must be finite")
    return values


def _as_field(grid: Grid, values: np.ndarray) -> GridField:
    """A step's values as a GridField, a one-point (constant) array spread over the grid."""
    if values.shape[:-1] != grid.shape:
        values = np.broadcast_to(values, grid.shape + values.shape[-1:]).copy()
    return GridField(grid, values)


@dataclass(frozen=True)
class PsiFno:
    """Full network: lifting R, layers, projection Q, at one grid resolution."""

    grid: Grid
    lifting: np.ndarray      # (d_v, d_a)
    layers: tuple
    projection: np.ndarray   # (d_u, d_v)
    activation: str = "tanh"
    meta: dict = field(default_factory=dict)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        R = np.asarray(self.lifting, dtype=float)
        Q = np.asarray(self.projection, dtype=float)
        object.__setattr__(self, "lifting", R)
        object.__setattr__(self, "projection", Q)
        object.__setattr__(self, "layers", tuple(self.layers))
        d_v = R.shape[0]
        if Q.shape[1] != d_v:
            raise DimensionMismatch(
                f"projection expects lift {Q.shape[1]}, lifting produces {d_v}"
            )
        for layer in self.layers:
            if layer.d_v != d_v:
                raise DimensionMismatch("all layers must share the lifting dimension")
        activation(self.activation)

    @property
    def d_a(self) -> int:
        return self.lifting.shape[1]

    @property
    def d_v(self) -> int:
        return self.lifting.shape[0]

    @property
    def d_u(self) -> int:
        return self.projection.shape[0]

    @property
    def depth(self) -> int:
        return len(self.layers)


class _Plan:
    """A PsiFno compiled for its grid: one _Step per activated layer and one per
    maximal run of activation-free layers, fused with _then.

    Working back from the projection, each step keeps only the rows the
    next step (or Q) reads, and the lifting only the channels the first
    step reads.  Steps are shared between repeated runs of the same layer
    objects, and each distinct layer is checked once.
    """

    def __init__(self, net: "PsiFno"):
        runs = []
        for layer in net.layers:
            if runs and not layer.apply_activation and not runs[-1][-1].apply_activation:
                runs[-1].append(layer)
            else:
                runs.append([layer])
        affines, steps = {}, {}
        rows = np.flatnonzero(np.any(net.projection != 0, axis=0))
        self.projection = net.projection[:, rows]
        self.steps = []  # last step first until the loop ends
        for run in reversed(runs):
            ids = tuple(map(id, run))
            step = steps.get((ids, rows.tobytes()))
            if step is None:
                for layer in run:
                    if id(layer) not in affines:
                        affines[id(layer)] = _layer_affine(layer, net.grid)
                affine = affines[ids[0]]
                for i in ids[1:]:
                    affine = _then(affine, affines[i])
                step = _Step(affine, rows, _reads(affine, rows, net.d_v), run[0].apply_activation)
                steps[ids, rows.tobytes()] = step
            self.steps.append(step)
            rows = step.cols
        self.steps.reverse()
        self.lifting = net.lifting[rows]

    def __call__(self, a: GridField, act: Activation) -> GridField:
        v = _finite(a.values @ self.lifting.T)
        for step in self.steps:
            v = _finite(step(v, act))
        return _as_field(a.grid, v @ self.projection.T)


def fno_forward(net: PsiFno, a: GridField) -> GridField:
    """Apply the network; inputs at other resolutions are resampled first.

    The network is compiled into a _Plan on first use and the plan is
    cached on it.
    """
    if a.grid.d != net.grid.d:
        raise DimensionMismatch(f"input dimension {a.grid.d}, network {net.grid.d}")
    if a.channels != net.d_a:
        raise DimensionMismatch(f"input has {a.channels} channels, network expects {net.d_a}")
    if a.grid.N != net.grid.N:
        a = resample(a, net.grid.N)
    plan = net._plans.get(net.grid)
    if plan is None:
        plan = net._plans[net.grid] = _Plan(net)
    return plan(a, activation(net.activation))


def compose(outer: PsiFno, inner: PsiFno) -> PsiFno:
    """Network computing outer(inner(.)), exactly, with depth summing.

    The pointwise bridge R_outer @ Q_inner is absorbed into the first layer
    of the outer network (or into the lifting/projection matrices when a
    factor has no layers), and channels are zero-padded to the larger lift,
    each distinct layer once, so layers shared within a factor stay shared.
    """
    if inner.grid != outer.grid:
        raise DimensionMismatch("composition requires matching grids")
    if inner.d_u != outer.d_a:
        raise DimensionMismatch(
            f"inner output channels {inner.d_u} != outer input channels {outer.d_a}"
        )
    if inner.activation != outer.activation:
        raise DimensionMismatch("composition requires a shared activation")
    if not inner.layers:
        R = outer.lifting @ inner.projection @ inner.lifting
        return PsiFno(inner.grid, R, outer.layers, outer.projection, outer.activation)
    if not outer.layers:
        Q = outer.projection @ outer.lifting @ inner.projection
        return PsiFno(inner.grid, inner.lifting, inner.layers, Q, outer.activation)

    d_v = max(inner.d_v, outer.d_v)
    M = np.zeros((d_v, d_v))
    M[: outer.d_v, : inner.d_v] = outer.lifting @ inner.projection
    distinct = {id(layer): layer for layer in inner.layers + outer.layers[1:]}
    wide = {key: layer.padded(d_v) for key, layer in distinct.items()}  # once per shared layer
    layers = [wide[id(layer)] for layer in inner.layers]
    layers.append(outer.layers[0].padded(d_v, M))
    layers.extend(wide[id(layer)] for layer in outer.layers[1:])

    R = np.zeros((d_v, inner.d_a))
    R[: inner.d_v, :] = inner.lifting
    Q = np.zeros((outer.d_u, d_v))
    Q[:, : outer.d_v] = outer.projection
    return PsiFno(inner.grid, R, tuple(layers), Q, outer.activation)


def validate_network(net: PsiFno) -> None:
    """Run on every layer the checks a plan compile runs, raising on any violation:
    the bias field's grid, the multiplier's dimension, radius and conjugacy.

    Builders assemble multipliers from terms whose symmetry holds by
    construction and skip the per-term check for speed; this enforces it
    without compiling a plan.
    """
    for layer in net.layers:
        _layer_affine(layer, net.grid)


@dataclass(frozen=True)
class SizeReport:
    """Degrees-of-freedom accounting for a network."""

    depth: int
    width: int
    lift: int
    size: int


def size_report(net: PsiFno) -> SizeReport:
    """depth L, width d_v (2N+1)^d, lift d_v, and

    size = d_u d_v + L (d_v^2 + d_v |J_N| + d_v^2 |J_N|) + d_a d_v.
    """
    J = net.grid.size
    d_v = net.d_v
    L = net.depth
    size = net.d_u * d_v + L * (d_v**2 + d_v * J + d_v**2 * J) + net.d_a * d_v
    return SizeReport(depth=L, width=d_v * J, lift=d_v, size=size)


# ---------------------------------------------------------------------------
# Model file: MAGIC + u64 header length + JSON header + raw payload + u32 CRC-32
# of every byte before it.  Payload order: lifting, projection, then per layer:
# weight?, bias?, then per multiplier term: modes (c16), matrix (c16).
# Little-endian, C order.  A layer that is an earlier one is written as
# {"same_as": i} with no payload.
# ---------------------------------------------------------------------------


def save_model(net: PsiFno, path) -> None:
    parts = []

    def put(arr, dtype):
        a = np.ascontiguousarray(arr, dtype=dtype)
        parts.append(a.tobytes())
        return a.size

    put(net.lifting, "<f8")
    put(net.projection, "<f8")
    layer_desc, first = [], {}
    for i, layer in enumerate(net.layers):
        if id(layer) in first:
            layer_desc.append({"same_as": first[id(layer)]})
            continue
        first[id(layer)] = i
        desc = {
            "apply_activation": layer.apply_activation,
            "has_weight": layer.weight is not None,
            "bias": "none",
            "multiplier": None,
        }
        if layer.weight is not None:
            put(layer.weight, "<f8")
        if isinstance(layer.bias, GridField):
            desc["bias"] = "field"
            put(layer.bias.values, "<f8")
        elif layer.bias is not None:
            desc["bias"] = "const"
            put(layer.bias, "<f8")
        if layer.multiplier is not None:
            m = layer.multiplier
            desc["multiplier"] = {"mode_radius": m.mode_radius, "n_terms": len(m.terms)}
            for s, A in m.terms:
                put(s, "<c16")
                put(A, "<c16")
        layer_desc.append(desc)
    header = {
        "d": net.grid.d,
        "N": net.grid.N,
        "d_a": net.d_a,
        "d_v": net.d_v,
        "d_u": net.d_u,
        "L": net.depth,
        "activation": net.activation,
        "layers": layer_desc,
        "meta": net.meta,
    }
    blob = json.dumps(header).encode()
    parts[:0] = [MAGIC, struct.pack("<Q", len(blob)), blob]
    crc = 0
    for p in parts:
        crc = zlib.crc32(p, crc)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh:
        fh.writelines(parts)
        fh.write(struct.pack("<I", crc))


def _header_int(obj: dict, key: str, minimum: int) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise BadParameters(f"header field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def load_model(path) -> PsiFno:
    """Read a PSIFNO2 file written by save_model; repeated layers come back shared.

    Raises BadParameters on a file that cannot be read, a foreign file, a
    checksum that does not match (any single flipped bit or cut), a
    header that is cut short, not JSON or missing fields, a payload whose
    length differs from what the header describes, non-finite values, a
    multiplier that breaks conjugacy or whose radius exceeds N, or a
    same_as that names no earlier layer, so a bad file fails here rather
    than mid-forward.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise BadParameters(f"cannot read model {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise BadParameters(f"{path}: not a PSIFNO2 model file")
    body = memoryview(raw)[:-4]  # a view: no copy of a multi-megabyte payload
    if raw[-4:] != struct.pack("<I", zlib.crc32(body)):
        raise BadParameters(f"{path}: checksum mismatch; the file is damaged or cut short")
    off = len(MAGIC) + 8
    if len(body) < off:
        raise BadParameters(f"{path}: file ends inside the header length field")
    (hlen,) = struct.unpack_from("<Q", body, len(MAGIC))
    if hlen > len(body) - off:
        raise BadParameters(f"{path}: header of {hlen} bytes runs past the end of the file")
    try:
        header = json.loads(bytes(body[off : off + hlen]).decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise BadParameters(f"{path}: header is not JSON ({exc})") from None
    try:
        return _model_from_header(header, body, off + hlen)
    except (KeyError, TypeError) as exc:
        raise BadParameters(f"{path}: malformed header ({exc!r})") from None
    except BadParameters as exc:
        raise BadParameters(f"{path}: {exc}") from None


def _model_from_header(header: dict, buf: memoryview, off: int) -> PsiFno:
    def take(shape, dtype):
        nonlocal off
        count = math.prod(shape)
        end = off + count * np.dtype(dtype).itemsize
        if end > len(buf):
            raise BadParameters(f"payload ends at byte {len(buf)}, the header needs {end}")
        arr = np.frombuffer(buf, dtype=dtype, count=count, offset=off).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise BadParameters(f"non-finite payload values at byte {off}")
        off = end
        return arr.copy()

    d, N = _header_int(header, "d", 1), _header_int(header, "N", 1)
    d_a, d_v, d_u = (_header_int(header, key, 1) for key in ("d_a", "d_v", "d_u"))
    descs = header["layers"]
    if not isinstance(descs, list) or len(descs) != _header_int(header, "L", 0):
        raise BadParameters("header field 'layers' must list L layer descriptors")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise BadParameters("header field 'meta' must be an object")
    grid = Grid(d, N)
    R = take((d_v, d_a), "<f8")
    Q = take((d_u, d_v), "<f8")
    layers = []
    for i, desc in enumerate(descs):
        if "same_as" in desc:
            j = desc["same_as"]
            if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < i:
                raise BadParameters(f"layer {i}: same_as must name an earlier layer, got {j!r}")
            layers.append(layers[j])
            continue
        w = take((d_v, d_v), "<f8") if desc["has_weight"] else None
        kind = desc["bias"]
        if kind not in ("none", "field", "const"):
            raise BadParameters(f"layer {i}: unknown bias kind {kind!r}")
        bias = None
        if kind == "field":
            bias = GridField(grid, take(grid.shape + (d_v,), "<f8"))
        elif kind == "const":
            bias = take((d_v,), "<f8")
        mult = None
        if desc["multiplier"] is not None:
            W = _header_int(desc["multiplier"], "mode_radius", 0)
            if W > N:
                raise BadParameters(f"layer {i}: multiplier radius {W} exceeds N = {N}")
            terms = [(take((2 * W + 1,) * d, "<c16"), take((d_v, d_v), "<c16"))
                     for _ in range(_header_int(desc["multiplier"], "n_terms", 0))]
            mult = FourierMultiplier(d, W, terms, d_v)  # checks conjugacy
        layers.append(FnoLayer(d_v, w, bias, mult, desc["apply_activation"]))
    if off != len(buf):
        raise BadParameters(f"{len(buf) - off} bytes follow the payload the header describes")
    return PsiFno(grid, R, tuple(layers), Q, header["activation"], meta=meta)
