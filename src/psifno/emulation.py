"""Constructive network builders that emulate the spectral solvers.

Everything here is built from two finite-difference gadgets applied to a
smooth activation sigma:

    sq_h(y)  = (sigma(x0+hy) - 2 sigma(x0) + sigma(x0-hy)) / (h^2 sigma''(x0))
             = y^2 + O(h^2),                      products via
               a*b = ((a+b)^2 - a^2 - b^2)/2,
    psi_h(y) = (sigma(x0'+hy) - sigma(x0'-hy)) / (2h sigma'(x0'))
             = y + O(h^2),                        identities/affine maps,

with sigma = tanh, x0 = X0 = 1 (sigma''(x0) != 0) and x0' = X0_ID = 0
(sigma'(x0') != 0).  Only the step h depends on the accuracy target.  It
is not derived from a formula: each builder halves it from H0 until the
worst probe error (`_probe_error`) meets the target and records the chosen
value in the model metadata (CalibrationFailed when float64 cancellation
wins first).  The solver emulators also carry a psi_h step h_carry;
`_calibrate_steps` starts both steps from the per-block error budget and
halves them together.

Exact linear algebra (derivatives, truncations, inverse Laplacians,
Helmholtz and Leray projections) is carried by unactivated multiplier
layers; `strictify` rewrites those through psi_h so every layer of the
result applies the activation.

Solver emulators replay the fixed-point algorithms block by block: the
Darcy network stacks K copies of [gradient F-layer; product sigma-layer;
combine/update F-layer with the lifted source as bias], and the
Navier-Stokes network stacks n_T * kappa0 advection blocks of the same
shape.  Widths grow like N^d through the grid, depths like the iteration
counts; lifts stay constant.  Three assemblers build every block:
`_feed_layer` (channel copies and gradients under a mode mask),
`_sigma_layer` (six sq_h rows per product, two psi_h rows per carried
channel) and `_product_sums` (the combine rows).  The nonlinearity
networks P_N(a grad u) and PL_N(u . grad w) are one such block without
the carry or the update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParameters, CalibrationFailed, DimensionMismatch
from .fno import (
    FnoLayer, FourierMultiplier, PsiFno, activation, compose, fno_forward, layer_forward,
)
from .spectral import (
    Grid,
    GridField,
    _advection_half,
    _flux_half,
    _half_resize,
    _lattice,
    _on_grid,
    _rfft_half,
    dft,
    derivative,
    idft,
    inverse_laplacian,
    l2_norm,
    mode_index_list,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
    truncation_mask,
)

H_MIN = 2.0**-40
H0 = 0.25           # first step every calibration tries
X0 = 1.0            # sq_h expansion point
X0_ID = 0.0         # psi_h expansion point
RANGE_SAFETY = 3.0  # margin on the pre-activation ranges measured on solver runs
_SIGMA = activation("tanh")
_SQ_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])  # sq_h(a+b) - sq_h(a) - sq_h(b) terms


def _calibrate(build, error, target: float, h0: float):
    """Halve the step from h0 until error(build(h)) <= target; returns (net, error).

    A PsiFno records the error in meta["measured_error"].  Raises
    CalibrationFailed once h falls below H_MIN, where float64 cancellation
    in the difference quotients outgrows the gadget error.
    """
    h, best = h0, np.inf
    while h >= H_MIN:
        net = build(h)
        err = error(net)
        if err <= target:
            if isinstance(net, PsiFno):
                net.meta["measured_error"] = err
            return net, err
        best = min(best, err)
        h *= 0.5
    raise CalibrationFailed(
        f"no step h in [{H_MIN:.1e}, {h0:.3g}] meets the target {target:.1e} "
        f"(smallest error {best:.2e}); float64 cancellation wins first"
    )


def _probe_error(inputs, wants, norm=l2_norm):
    """net -> the worst norm(net(x) - want) over the probe pairs (x, want)."""
    return lambda net: max(norm(GridField(want.grid, fno_forward(net, x).values - want.values))
                           for x, want in zip(inputs, wants))


def _calibrate_steps(build, budget: float, sup_carry: float, sup_prod: float, error,
                     target: float) -> PsiFno:
    """Calibrate build(h, h_carry) from the per-block remainder budget.

    The sq_h error grows like h^2 range^4 and the psi_h error like
    h_carry^2 range^3, which fixes the starting steps; both are then halved
    together, so their ratio is kept and CalibrationFailed comes once the
    smaller one falls below H_MIN.
    """
    h = min(H0, float(np.sqrt(budget / (0.9 * max(sup_prod, 1.0) ** 4))))
    h_c = min(H0, float(np.sqrt(3.0 * budget / max(sup_carry, 1.0) ** 3)))
    m = min(h, h_c)
    return _calibrate(lambda s: build(h * (s / m), h_c * (s / m)), error, target, m)[0]


def _ball_field(grid: Grid, rng, B: float, channels: int = 1) -> GridField:
    """Random band-limited probe scaled to L^2 norm B (a zero draw stays zero)."""
    v = idft(random_hermitian_coeffs(grid, rng, channels=channels))
    return GridField(grid, v.values * (B / (l2_norm(v) or 1.0)))


# ---------------------------------------------------------------------------
# Ordinary (pointwise) networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseNet:
    """Plain layered network; layers are (matrix, bias, activated) triples."""

    layers: tuple
    activation: str = "tanh"

    def __call__(self, x):
        act = activation(self.activation)
        y = np.asarray(x, dtype=float)
        for A, b, activated in self.layers:
            y = y @ A.T + b
            if activated:
                y = act(y)
        return y

    @property
    def depth(self) -> int:
        return sum(1 for _, _, activated in self.layers if activated)

    @property
    def width(self) -> int:
        return max(A.shape[0] for A, _, _ in self.layers)


@dataclass(frozen=True)
class ProductNetSpec:
    """Accuracy contract for the two-input multiplication network."""

    B: float
    eps: float
    h: float = 0.5
    x0: float = 1.0
    activation: str = "tanh"

    def __post_init__(self):
        if self.B <= 0 or self.eps <= 0:
            raise BadParameters("bound and accuracy must be positive")
        if not 0 < self.h <= 1:
            raise BadParameters(f"step parameter must lie in (0, 1], got {self.h}")
        if abs(activation(self.activation).d2(self.x0)) < 1e-3:
            raise BadParameters(
                f"sigma''({self.x0}) is too close to zero for the quadratic gadget"
            )


def _product_net(h: float, spec: ProductNetSpec) -> DenseNet:
    act = activation(spec.activation)
    x0 = spec.x0
    A1 = np.zeros((6, 2))
    _product_rows(A1, 0, 0, 1, h)
    denom = 2.0 * h * h * act.d2(x0)
    A2 = _product_sums([[0]], denom, 6)
    b2 = np.array([2.0 * act(x0) / denom])
    return DenseNet(((A1, np.full(6, x0), True), (A2, b2, False)), spec.activation)


def build_product_net(spec: ProductNetSpec) -> DenseNet:
    """Network with |net(a,b) - a*b| <= eps on [-B,B]^2.

    Width and depth are constant; only the difference-quotient step h is
    calibrated (halved until a dense probe passes).
    """
    grid_1d = np.linspace(-spec.B, spec.B, 81)
    A, Bm = np.meshgrid(grid_1d, grid_1d, indexing="ij")
    probes = np.stack([A.ravel(), Bm.ravel()], axis=-1)
    target = probes[:, 0] * probes[:, 1]
    net, _ = _calibrate(
        lambda h: _product_net(h, spec),
        lambda net: float(np.max(np.abs(net(probes)[:, 0] - target))),
        spec.eps, spec.h,
    )
    return net


@dataclass(frozen=True)
class AffineApproxSpec:
    """Accuracy contract for replacing an affine/F-layer by an activated layer."""

    layer: FnoLayer
    grid: Grid
    B: float
    eps: float
    activation: str = "tanh"

    def __post_init__(self):
        if self.B <= 0 or self.eps <= 0:
            raise BadParameters("bound and accuracy must be positive")
        if abs(activation(self.activation).d1(X0_ID)) < 1e-3:
            raise BadParameters(f"sigma'({X0_ID}) is too close to zero for the identity gadget")


def _affine_approx_net(h: float, spec: AffineApproxSpec) -> PsiFno:
    """Depth-1 network psi_h(target): activated layer + recombining projection."""
    target = spec.layer
    act = activation(spec.activation)
    d_v = target.d_v
    D = 2 * d_v
    grid = spec.grid

    W = np.zeros((D, D))
    if target.weight is not None:
        W[:d_v, :d_v] = h * target.weight
        W[d_v:, :d_v] = -h * target.weight
    bias_top = np.full(d_v, X0_ID)
    bias_bot = np.full(d_v, X0_ID)
    bias = None
    if isinstance(target.bias, GridField):
        vals = np.empty(grid.shape + (D,))
        vals[..., :d_v] = X0_ID + h * target.bias.values
        vals[..., d_v:] = X0_ID - h * target.bias.values
        bias = GridField(grid, vals)
    else:
        if target.bias is not None:
            bias_top = X0_ID + h * np.asarray(target.bias)
            bias_bot = X0_ID - h * np.asarray(target.bias)
        bias = np.concatenate([bias_top, bias_bot])
    mult = None
    if target.multiplier is not None:
        terms = []
        for s, A in target.multiplier.terms:
            A2 = np.zeros((D, D), dtype=complex)
            A2[:d_v, :d_v] = h * A
            A2[d_v:, :d_v] = -h * A
            terms.append((s, A2))
        mult = FourierMultiplier(grid.d, target.multiplier.mode_radius, terms, D, check=False)
    layer = FnoLayer(D, W, bias, mult, apply_activation=True)

    R = np.zeros((D, d_v))
    R[:d_v, :] = np.eye(d_v)
    Q = np.zeros((d_v, D))
    scale = 1.0 / (2.0 * h * act.d1(X0_ID))
    Q[:, :d_v] = scale * np.eye(d_v)
    Q[:, d_v:] = -scale * np.eye(d_v)
    return PsiFno(grid, R, (layer,), Q, spec.activation, meta={"h": h, "kind": "affine-approx"})


def build_affine_approx(spec: AffineApproxSpec, rng=None) -> PsiFno:
    """Activated depth-1 network matching an affine layer to eps on ||v|| <= B.

    The defect is measured in the sup norm on 24 random band-limited probes.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    fields = [_ball_field(spec.grid, rng, spec.B, spec.layer.d_v) for _ in range(24)]
    layer = spec.layer
    bare = FnoLayer(layer.d_v, layer.weight, layer.bias, layer.multiplier, False)
    targets = [layer_forward(bare, v, activation(spec.activation)) for v in fields]
    return _calibrate(lambda h: _affine_approx_net(h, spec),
                      _probe_error(fields, targets, lambda e: float(np.max(np.abs(e.values)))),
                      spec.eps, H0)[0]


# ---------------------------------------------------------------------------
# Block assemblers shared by the constructive networks
# ---------------------------------------------------------------------------


def _mask(grid: Grid, radius: int, zero_mean: bool) -> np.ndarray:
    return truncation_mask(grid, radius, zero_mean).astype(complex)


def _product_rows(W: np.ndarray, row0: int, col_a: int, col_b: int, h: float):
    """Six sq_h feeder rows for one product, written into W starting at row0."""
    W[row0 + 0, col_a] += h
    W[row0 + 0, col_b] += h
    W[row0 + 1, col_a] -= h
    W[row0 + 1, col_b] -= h
    W[row0 + 2, col_a] += h
    W[row0 + 3, col_a] -= h
    W[row0 + 4, col_b] += h
    W[row0 + 5, col_b] -= h


def _feed_layer(grid: Grid, D: int, mask: np.ndarray, copies, grads) -> FnoLayer:
    """Unactivated F-layer: row <- mask * col for each (row, col) in copies,
    row <- mask * d(col)/dx_axis for each (row, col, axis) in grads."""
    A = np.zeros((D, D))
    for row, col in copies:
        A[row, col] = 1.0
    terms = [(mask, A)]
    ik = _lattice(grid.d, grid.N).ik
    for row, col, axis in grads:
        E = np.zeros((D, D))
        E[row, col] = 1.0
        terms.append((ik[..., axis] * mask, E))
    return FnoLayer(D, None, None, FourierMultiplier(grid.d, grid.N, terms, D, check=False), False)


def _sigma_layer(D: int, products, carries, h: float, h_c: float = 0.0) -> FnoLayer:
    """Activated layer: six sq_h rows at 6p (bias X0) for the p-th product
    (col_a, col_b), then two psi_h rows (step h_c, bias X0_ID) per carried channel."""
    W = np.zeros((D, D))
    b = np.zeros(D)
    for p, (col_a, col_b) in enumerate(products):
        _product_rows(W, 6 * p, col_a, col_b, h)
        b[6 * p : 6 * p + 6] = X0
    r0 = 6 * len(products)
    for q, col in enumerate(carries):
        W[r0 + 2 * q, col] = h_c
        W[r0 + 2 * q + 1, col] = -h_c
        b[r0 + 2 * q : r0 + 2 * q + 2] = X0_ID
    return FnoLayer(D, W, b, None, True)


def _product_sums(groups, denom: float, D: int) -> np.ndarray:
    """One combine row per group: the sum of its products p, each rebuilt from the
    six sq_h units at 6p.  The constant 2 sigma(x0) / denom per product is left
    to the caller's bias (or to a multiplier that vanishes at k = 0)."""
    rows = np.zeros((len(groups), D))
    for g, group in enumerate(groups):
        for p in group:
            rows[g, 6 * p : 6 * p + 6] = _SQ_SIGNS / denom
    return rows


def _sq_feed(W: np.ndarray, bias: np.ndarray, row: int, col, h: float, shift=0.0):
    """Rows row, row + 1 as sigma(X0 +- h (v_col + shift)); col None reads no channel."""
    if col is not None:
        W[row, col] = h
        W[row + 1, col] = -h
    bias[..., row] = X0 + h * shift
    bias[..., row + 1] = X0 - h * shift


def _leray_terms(grid: Grid, scale: np.ndarray, row0: int, rows: np.ndarray) -> list:
    """Terms adding scale * k k^T/|k|^2 applied to the combine rows into rows row0 + m.

    Next to a term -scale * rows on the same rows they give -scale times the
    Leray projection of the combined field."""
    lat = _lattice(grid.d, grid.N)
    terms = []
    for m in range(grid.d):
        for mp in range(grid.d):
            A = np.zeros((rows.shape[1],) * 2)
            A[row0 + m] = rows[mp]
            terms.append((scale * (lat.k[..., m] * lat.k[..., mp] * lat.inv_k2), A))
    return terms


def _psi_combine(row0: int, h: float, D: int) -> np.ndarray:
    d1 = _SIGMA.d1(X0_ID)
    row = np.zeros(D)
    row[row0] = 1.0 / (2.0 * h * d1)
    row[row0 + 1] = -1.0 / (2.0 * h * d1)
    return row


# ---------------------------------------------------------------------------
# Nonlinearity networks: (a, u) -> P_N(a grad u)  and  (u, w) -> PL_N(u . grad w)
# ---------------------------------------------------------------------------


def _darcy_nonlin_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, 2 * N)
    D = 6 * d
    mask = _mask(grid, N, zero_mean=False)
    # (a, u) -> (a, du/dx_i) -> sq_h units of a * du/dx_i -> P_N(a grad u)_i in channel i
    L1 = _feed_layer(grid, D, mask, [(0, 0)], [(1 + i, 1, i) for i in range(d)])
    L2 = _sigma_layer(D, [(0, 1 + i) for i in range(d)], (), h)
    denom = 2.0 * h * h * _SIGMA.d2(X0)
    C = np.zeros((D, D))
    C[:d] = _product_sums([[i] for i in range(d)], denom, D)
    bias3 = np.zeros(D)
    bias3[:d] = 2.0 * _SIGMA(X0) / denom
    L3 = FnoLayer(D, None, bias3, FourierMultiplier(d, grid.N, [(mask, C)], D, check=False), False)
    return PsiFno(grid, np.eye(D, 2), (L1, L2, L3), np.eye(d, D), _SIGMA.name,
                  meta={"h": h, "kind": "darcy-nonlinearity"})


def _truncated(half: np.ndarray, grid: Grid) -> GridField:
    """Values on the doubled grid of a half spectrum taken there, truncated to N = grid.N/2."""
    if grid.N % 2 != 0:
        raise BadParameters("oracle expects fields on the doubled grid")
    return GridField(grid, _on_grid(_half_resize(half, grid.d, grid.N // 2), grid.d, grid.N,
                                    grid.npoints))


def darcy_nonlinearity_oracle(a: GridField, u: GridField) -> GridField:
    """Exact P_N(a grad u) for band-limited inputs at resolution 2N (N = grid.N/2)."""
    d = a.grid.d
    return _truncated(_flux_half(a.values, _rfft_half(u.values, d), d), a.grid)


def build_nonlinearity_net_darcy(N: int, B: float, eps: float, d: int = 2, rng=None) -> PsiFno:
    """Network at resolution 2N mapping (a, u) to P_N(a grad u) within eps (L^2)."""
    rng = rng if rng is not None else np.random.default_rng(1)
    return _pair_net(N, d, B, eps, _darcy_nonlin_net, darcy_nonlinearity_oracle,
                     lambda small: (_ball_field(small, rng, B), _ball_field(small, rng, B)))


def _pair_net(N: int, d: int, B: float, eps: float, net, oracle, draw) -> PsiFno:
    """net(N, d, h) calibrated to 0.5*eps in L^2 against oracle on 12 probe pairs.

    draw(Grid(d, N)) returns one input pair of L^2 norm B; the net and the
    oracle see it resampled to the doubled grid."""
    if B <= 0 or eps <= 0:
        raise BadParameters("bound and accuracy must be positive")
    pairs = [[resample(v, 2 * N) for v in draw(Grid(d, N))] for _ in range(12)]
    inputs = [GridField(x.grid, np.concatenate([x.values, y.values], -1)) for x, y in pairs]
    return _calibrate(lambda h: net(N, d, h),
                      _probe_error(inputs, [oracle(x, y) for x, y in pairs]), 0.5 * eps, H0)[0]


def _ns_nonlin_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, 2 * N)
    D = 6 * d * d
    mask = _mask(grid, N, zero_mean=False)
    mask_dot = _mask(grid, N, zero_mean=True)
    # (u, w) -> (u, dw_m/dx_i at d + i*d + m) -> sq_h units of u_i * dw_m/dx_i
    pairs = [(i, m) for i in range(d) for m in range(d)]
    L1 = _feed_layer(grid, D, mask, [(c, c) for c in range(d)],
                     [(d + i * d + m, d + m, i) for i, m in pairs])
    L2 = _sigma_layer(D, [(i, d + i * d + m) for i, m in pairs], (), h)

    # F-layer: Leray-truncated combine of adv_m = sum_i u_i dw_m/dx_i
    denom = 2.0 * h * h * _SIGMA.d2(X0)
    C = np.zeros((D, D))
    C[:d] = _product_sums([[i * d + m for i in range(d)] for m in range(d)], denom, D)
    terms3 = [(mask_dot, C)] + _leray_terms(grid, -mask_dot, 0, C[:d])
    L3 = FnoLayer(D, None, None, FourierMultiplier(d, grid.N, terms3, D, check=False), False)
    return PsiFno(grid, np.eye(D, 2 * d), (L1, L2, L3), np.eye(d, D), _SIGMA.name,
                  meta={"h": h, "kind": "ns-nonlinearity"})


def ns_nonlinearity_oracle(u2: GridField, w2: GridField) -> GridField:
    """Exact PL_N(u . grad w) for band-limited inputs on the doubled grid."""
    d = u2.grid.d
    return _truncated(_advection_half(u2.values, _rfft_half(w2.values, d), d), u2.grid)


def build_ns_nonlinearity_net(N: int, B: float, eps: float, d: int = 2, rng=None) -> PsiFno:
    """Network at resolution 2N mapping (u, w) to PL_N(u . grad w) within eps."""
    from .navier_stokes import random_divergence_free

    rng = rng if rng is not None else np.random.default_rng(2)
    return _pair_net(N, d, B, eps, _ns_nonlin_net, ns_nonlinearity_oracle,
                     lambda small: (random_divergence_free(small, rng, norm=B),
                                    random_divergence_free(small, rng, norm=B)))


# ---------------------------------------------------------------------------
# Darcy solver emulator
# ---------------------------------------------------------------------------


def build_darcy_emulator(f: GridField, lam: float, N: int, k: int, B: float, eps: float,
                         rng=None, calibration_probes: int = 4) -> PsiFno:
    """Network replaying the Darcy fixed-point algorithm for a fixed source.

    Input: the coefficient a sampled at resolution >= 2N (one channel), in
    the dimension of the source f.
    Output: the approximate solution u_N (one channel, band-limited to N,
    represented at resolution 2N).  The end-to-end H^1 discrepancy against
    the solver is verified on coercive calibration probes and h is reduced
    until it falls below eps.
    """
    from . import darcy as darcy_mod

    rng = rng if rng is not None else np.random.default_rng(3)
    d = f.grid.d
    K = darcy_mod.iteration_count(lam, N, k)
    grid = Grid(d, 2 * N)
    D = 6 * d + 2

    # calibration probes: coercive coefficients from the documented generator
    probes = [
        darcy_mod.random_decay_coefficient(d, 2 * N, lam, rng) for _ in range(calibration_probes)
    ]
    f_in = f if f.grid.N >= 2 * N else resample(f, 2 * N)
    solutions = [darcy_mod.solve(darcy_mod.DarcyProblem(a, f_in, lam, k, N)) for a in probes]
    sup_a, sup_g = 0.0, 0.0
    for sol in solutions:
        sup_a = max(sup_a, float(np.max(np.abs(resample(sol.atilde_N, 2 * N).values))))
        op = darcy_mod.PicardOperator(sol.atilde_N, sol.f_N)
        u = GridField(sol.atilde_N.grid, np.zeros(sol.atilde_N.grid.shape + (1,)))
        for _ in range(sol.iterations):
            u = op.apply(u)
            for ax in range(d):
                sup_g = max(sup_g, float(np.max(np.abs(resample(derivative(u, ax), 2 * N).values))))
    sup_a = RANGE_SAFETY * max(sup_a, 0.1)
    sup_g = RANGE_SAFETY * max(sup_g, 0.1)
    bias_field_vals = resample(inverse_laplacian(solutions[0].f_N), 2 * N).values

    mask_dot = _mask(grid, N, zero_mean=True)
    lat = _lattice(d, grid.N)
    bias_vals = np.zeros(grid.shape + (D,))
    bias_vals[..., 1] = bias_field_vals[..., 0]
    # block layer 1, independent of the steps: (atilde, u) -> (Pdot_N atilde, grad u)
    L1 = _feed_layer(grid, D, mask_dot, [(0, 0)], [(1 + i, 1, i) for i in range(d)])

    def build(h: float, h_c: float) -> PsiFno:
        # block layer 2: products atilde * g_i plus the psi carry of atilde
        L2 = _sigma_layer(D, [(0, 1 + i) for i in range(d)], [0], h, h_c)

        # block layer 3: atilde carry + u update with the lifted source bias
        denom = 2.0 * h * h * _SIGMA.d2(X0)
        A_carry = np.zeros((D, D))
        A_carry[0] = _psi_combine(6 * d, h_c, D)
        terms3 = [(mask_dot, A_carry)]
        for i, row in enumerate(_product_sums([[p] for p in range(d)], denom, D)):
            A_i = np.zeros((D, D))
            A_i[1] = row
            terms3.append(((lat.ik[..., i] * lat.inv_k2) * mask_dot, A_i))
        L3 = FnoLayer(
            D, None, GridField(grid, bias_vals),
            FourierMultiplier(d, grid.N, terms3, D, check=False), False,
        )
        return PsiFno(
            grid, np.eye(D, 1), (L1, L2, L3) * K, np.eye(1, D, 1), _SIGMA.name,
            meta={"h": h, "h_carry": h_c, "K": K, "kind": "darcy-emulator",
                  "ranges": [sup_a, sup_g], "lam": lam, "k": k, "N": N, "B": B},
        )

    refs = [resample(sol.u, 2 * N) for sol in solutions]
    return _calibrate_steps(build, eps / (2.0 * K), sup_a, sup_a + sup_g,
                            _probe_error(probes, refs, lambda e: sobolev_norm(e, 1.0)), 0.7 * eps)


# ---------------------------------------------------------------------------
# Navier-Stokes solver emulator
# ---------------------------------------------------------------------------


def build_ns_emulator(config, eps_total: float, rng=None) -> PsiFno:
    """Network replaying the first-order scheme: n_T * kappa0 advection blocks.

    The per-block accuracy target is eps_total / (n_T * kappa0 * Lambda)
    with Lambda a measured trajectory Lipschitz bound; h is halved until
    the end-to-end trajectory discrepancy on three calibration probes meets
    eps_total.
    """
    from . import navier_stokes as ns

    rng = rng if rng is not None else np.random.default_rng(4)
    d, N = config.d, config.N
    nu, tau = config.nu, config.tau
    n_T = config.n_steps
    kap = ns.kappa0(config.T, config.tau, order=1)
    grid = Grid(d, 2 * N)
    D = 6 * d * d + 2 * d

    # calibration probes and measured ranges / Lipschitz bound
    small = Grid(d, N)
    probes = [config.u0] + [
        ns.random_divergence_free(small, rng, norm=0.9 * l2_norm(config.u0) or 0.9 * config.U)
        for _ in range(2)
    ]
    finals, sup_u, sup_g = [], 0.0, 0.0
    for u0 in probes:
        run = ns.simulate(replace(config, u0=u0), "first", record_states=True)
        finals.append(run.final.u)
        for st in run.states:
            sup_u = max(sup_u, float(np.max(np.abs(st.u.values))))
            for i in range(d):
                for m in range(d):
                    sup_g = max(
                        sup_g,
                        float(np.max(np.abs(derivative(st.u.channel(m), i).values))),
                    )
    delta = ns.random_divergence_free(small, rng, norm=max(1e-3 * l2_norm(probes[0]), 1e-6))
    pert = GridField(small, probes[0].values + delta.values)
    run_p = ns.simulate(replace(config, U=config.U * (1 + 1e-2), u0=pert), "first")
    lam_traj = l2_norm(GridField(small, run_p.final.u.values - finals[0].values)) / l2_norm(delta)
    Lambda = max(1.0, lam_traj)
    sup_u = RANGE_SAFETY * max(sup_u, 0.1)
    sup_g = RANGE_SAFETY * max(2.0 * sup_g, 0.1)  # inner iterates reach ~2||u||

    mask_dot = _mask(grid, N, zero_mean=True)
    inv_helm = (mask_dot / (1.0 + nu * tau * _lattice(grid.d, grid.N).k2)).astype(complex)

    # feed layers, independent of the steps: the first sweep of a time step
    # reads u (at n > 0 the u carried into w) and later sweeps add grad w
    from_u = [(c, c) for c in range(d)]
    grads = [(2 * d + i * d + m, d + m, i) for i in range(d) for m in range(d)]
    first = _feed_layer(grid, D, mask_dot, from_u, ())
    from_w = _feed_layer(grid, D, mask_dot, [(c, d + c) for c in range(d)], ())
    sweep = _feed_layer(grid, D, mask_dot, from_u, grads)
    feeds = [sweep if kk > 1 else from_w if n > 0 else first
             for n in range(n_T) for kk in range(1, kap + 1)]

    def build(h: float, h_c: float) -> PsiFno:
        # sigma-layer: products u_i * g_{i,m} plus psi carry of u
        L2 = _sigma_layer(D, [(i, row) for row, _, i in grads], range(d), h, h_c)
        denom = 2.0 * h * h * _SIGMA.d2(X0)
        carry = np.array([_psi_combine(6 * d * d + 2 * c, h_c, D) for c in range(d)])
        adv = _product_sums([[i * d + m for i in range(d)] for m in range(d)], denom, D)

        # F-layer: u rows get the carried u, w rows get F(w)
        A_u = np.zeros((D, D))
        A_u[:d] = carry
        A_w_lin = np.zeros((D, D))
        A_w_lin[d : 2 * d] = carry
        A_w_adv = np.zeros((D, D))
        A_w_adv[d : 2 * d] = adv
        terms3 = [(mask_dot, A_u), (inv_helm, A_w_lin), (-tau * inv_helm, A_w_adv)]
        terms3 += _leray_terms(grid, tau * inv_helm, d, adv)
        L3 = FnoLayer(D, None, None, FourierMultiplier(d, grid.N, terms3, D, check=False), False)
        return PsiFno(
            grid, np.eye(D, d), tuple(L for feed in feeds for L in (feed, L2, L3)),
            np.eye(d, D, d), _SIGMA.name,
            meta={"h": h, "h_carry": h_c, "n_T": n_T, "kappa0": kap,
                  "Lambda": Lambda, "kind": "ns-emulator", "ranges": [sup_u, sup_g]},
        )

    refs = [resample(u_ref, 2 * N) for u_ref in finals]
    return _calibrate_steps(build, eps_total / (n_T * kap * Lambda), sup_u, sup_u + sup_g,
                            _probe_error(probes, refs), 0.7 * eps_total)


# ---------------------------------------------------------------------------
# Fourier-coefficient networks: field -> constant (Re, Im) channels and back
# ---------------------------------------------------------------------------


def _phase_fields(grid: Grid) -> tuple:
    """cos<k,x> and sin<k,x> sampled on the grid, for every k; shape (|K|,) + grid.shape."""
    ks = mode_index_list(grid)
    pts = grid.coordinates()
    phases = np.zeros((len(ks),) + grid.shape)
    for axis in range(grid.d):
        phases += ks[:, axis].reshape((-1,) + (1,) * grid.d) * pts[axis][None, ...]
    return np.cos(phases), np.sin(phases), ks


def _delta0(grid: Grid) -> np.ndarray:
    s = np.zeros(grid.shape, dtype=complex)
    s[(grid.N,) * grid.d] = 1.0
    return s


def _ft_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, N)
    cosf, sinf, ks = _phase_fields(grid)
    K = len(ks)
    D = 8 * K + 2

    # sigma-layer: sq_h units for v+cos_k, cos_k, v+sin_k, sin_k, and shared v
    W1 = np.zeros((D, D))
    bias_vals = np.zeros(grid.shape + (D,))
    for t in range(K):
        for r, trig in ((8 * t, cosf[t]), (8 * t + 4, sinf[t])):
            _sq_feed(W1, bias_vals, r, 0, h, trig)          # sq_h(v + trig)
            _sq_feed(W1, bias_vals, r + 2, None, h, trig)   # sq_h(trig)
    _sq_feed(W1, bias_vals, 8 * K, 0, h)                    # shared sq_h(v)
    L1 = FnoLayer(D, W1, GridField(grid, bias_vals), None, True)

    # zero-mode multiplier: averaging the products gives Re / -Im
    denom = 2.0 * h * h * _SIGMA.d2(X0)
    C = np.zeros((D, D))
    bias2 = np.zeros(D)
    const = 2.0 * _SIGMA(X0) / denom
    for t in range(K):
        r = 8 * t
        # Re(v_k) = mean( v cos<k,x> ),  Im(v_k) = -mean( v sin<k,x> )
        C[2 * t, [r, r + 1, r + 2, r + 3, 8 * K, 8 * K + 1]] = _SQ_SIGNS / denom
        C[2 * t + 1, [r + 4, r + 5, r + 6, r + 7, 8 * K, 8 * K + 1]] = -_SQ_SIGNS / denom
        bias2[2 * t] = const
        bias2[2 * t + 1] = -const
    L2 = FnoLayer(
        D, None, bias2,
        FourierMultiplier(d, N, [(_delta0(grid), C.astype(complex))], D, check=False),
        False,
    )

    R = np.zeros((D, 1))
    R[0, 0] = 1.0
    Q = np.zeros((2 * K, D))
    Q[:, : 2 * K] = np.eye(2 * K)
    return PsiFno(grid, R, (L1, L2), Q, _SIGMA.name,
                  meta={"h": h, "kind": "ft-emulator", "modes": ks.tolist()})


def build_ft_emulator(N: int, B: float, eps: float, d: int = 1, rng=None) -> PsiFno:
    """Network emitting 2|K_N| constant channels: (Re v_k, Im v_k) to eps each.

    Channel 2t holds the real part of coefficient k_t, channel 2t+1 the
    imaginary part, with k_t running lexicographically over -N..N per axis
    (the mode order is recorded in the model metadata).
    """
    rng = rng if rng is not None else np.random.default_rng(5)
    grid = Grid(d, N)
    fields = []
    # extreme in-bound probes: the largest constant and a single mode at the bound
    c_max = B * (2.0 * np.pi) ** (-d / 2.0)
    fields.append(GridField(grid, np.full(grid.shape + (1,), c_max)))
    fields.append(GridField(grid, np.full(grid.shape + (1,), -c_max)))
    x0_coord = np.broadcast_to(grid.coordinates()[0], grid.shape)
    fields.append(GridField(grid, (np.sqrt(2.0) * c_max * np.cos(x0_coord))[..., None]))
    fields += [_ball_field(grid, rng, B) for _ in range(16)]
    targets = []
    for v in fields:
        c = dft(v).coeffs[..., 0].ravel()
        targets.append(np.stack([c.real, c.imag], axis=-1).ravel())

    def error(net: PsiFno) -> float:
        worst = 0.0
        for v, want in zip(fields, targets):
            out = fno_forward(net, v).values
            flat = out.reshape(-1, out.shape[-1])
            worst = max(worst, float(np.max(np.abs(flat.mean(axis=0) - want))))  # constant channels
            worst = max(worst, float(np.max(np.std(flat, axis=0))))
        return worst

    return _calibrate(lambda h: _ft_net(N, d, h), error, 0.5 * eps, H0)[0]


def _ift_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, N)
    cosf, sinf, ks = _phase_fields(grid)
    K = len(ks)
    D = 12 * K

    W1 = np.zeros((D, D))
    bias_vals = np.zeros(grid.shape + (D,))
    for t in range(K):
        for ell, trig in ((0, cosf[t]), (1, sinf[t])):
            r, col = 12 * t + 6 * ell, 2 * t + ell
            _sq_feed(W1, bias_vals, r, col, h, trig)         # sq_h(w + trig)
            _sq_feed(W1, bias_vals, r + 2, col, h)           # sq_h(w)
            _sq_feed(W1, bias_vals, r + 4, None, h, trig)    # sq_h(trig)
    L1 = FnoLayer(D, W1, GridField(grid, bias_vals), None, True)

    denom = 2.0 * h * h * _SIGMA.d2(X0)
    combine = np.zeros((D, D))
    const = 0.0
    for t in range(K):
        for ell, sign in ((0, 1.0), (1, -1.0)):  # v = sum_k Re_k cos - Im_k sin
            r = 12 * t + 6 * ell
            combine[0, r : r + 6] += sign * _SQ_SIGNS / denom
            const += sign * 2.0 * _SIGMA(X0) / denom
    L2 = FnoLayer(D, combine, np.concatenate([[const], np.zeros(D - 1)]), None, False)

    R = np.zeros((D, 2 * K))
    R[: 2 * K, :] = np.eye(2 * K)
    Q = np.zeros((1, D))
    Q[0, 0] = 1.0
    return PsiFno(grid, R, (L1, L2), Q, _SIGMA.name,
                  meta={"h": h, "kind": "ift-emulator", "modes": ks.tolist()})


def build_ift_emulator(N: int, B: float, eps: float, d: int = 1, rng=None) -> PsiFno:
    """Network reconstructing a field from 2|K_N| constant coefficient channels.

    For inputs w = (Re v_k, Im v_k) with |entries| <= B it returns v to eps
    in L^2; the channel order matches build_ft_emulator.
    """
    rng = rng if rng is not None else np.random.default_rng(6)
    grid = Grid(d, N)
    inputs, wants = [], []
    for _ in range(16):
        v = idft(random_hermitian_coeffs(grid, rng))
        scale = B / max(float(np.max(np.abs(dft(v).coeffs))), 1e-30) * 0.9
        v = GridField(grid, v.values * scale)
        c = dft(v).coeffs[..., 0].ravel()
        w = np.stack([c.real, c.imag], axis=-1).ravel()
        inputs.append(GridField(grid, np.broadcast_to(w, grid.shape + w.shape).copy()))
        wants.append(v)
    return _calibrate(lambda h: _ift_net(N, d, h), _probe_error(inputs, wants), 0.5 * eps, H0)[0]


def fourier_conjugate_pipeline(inner: PsiFno, ft: PsiFno, ift: PsiFno) -> PsiFno:
    """ift o inner o ft: a user-supplied coefficient-space network between the
    coefficient extraction and synthesis networks.  The inner network must map
    2|K_N| channels to 2|K_N| channels at the shared resolution."""
    if inner.d_a != ft.d_u or inner.d_u != ift.d_a:
        raise DimensionMismatch(
            f"inner network must map {ft.d_u} -> {ift.d_a} channels, "
            f"got {inner.d_a} -> {inner.d_u}"
        )
    return compose(ift, compose(inner, ft))


# ---------------------------------------------------------------------------
# Strict mode: rewrite every exact linear layer through the psi_h gadget
# ---------------------------------------------------------------------------


def strictify(net: PsiFno, B: float, eps: float, rng=None) -> PsiFno:
    """Equivalent network in which every layer applies the activation.

    Each unactivated layer is replaced by its psi_h approximation (an
    activated layer whose recombination folds into the neighbouring
    layer), so the result matches the strict layer form sigma(Wv+b+conv).
    Per-layer input bounds are measured by forwarding eight probe fields.
    """
    rng = rng if rng is not None else np.random.default_rng(7)
    act = activation(net.activation)
    grid = net.grid

    # measure per-layer input L2 bounds on ||a|| <= B probes
    bounds = [0.0] * net.depth
    for _ in range(8):
        v = GridField(grid, _ball_field(grid, rng, B, net.d_a).values @ net.lifting.T)
        for i, layer in enumerate(net.layers):
            bounds[i] = max(bounds[i], l2_norm(v))
            v = layer_forward(layer, v, act)
    eps_layer = eps / max(net.depth, 1)

    pieces = []
    for i, layer in enumerate(net.layers):
        wrapper_R = np.eye(layer.d_v)
        if layer.apply_activation:
            pieces.append(PsiFno(grid, wrapper_R, (layer,), wrapper_R, net.activation))
        else:
            spec = AffineApproxSpec(layer, grid, max(2.0 * bounds[i], 1e-6), eps_layer,
                                    activation=net.activation)
            pieces.append(build_affine_approx(spec, rng))
    lift_net = PsiFno(grid, net.lifting, (), np.eye(net.d_v), net.activation)
    proj_net = PsiFno(grid, np.eye(net.d_v), (), net.projection, net.activation)
    chain = [lift_net] + pieces + [proj_net]
    out = chain[0]
    for piece in chain[1:]:
        out = compose(piece, out)
    out.meta.update({"kind": "strict", "eps": eps, "B": B})
    return out
