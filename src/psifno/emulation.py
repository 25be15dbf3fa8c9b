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

Both gadgets read the unit pair sigma(x0 +- h y): every network writes it
through one encoder, `_sigma_layer`, once however many products share it,
and reads it back through one decoder per gadget, `_sq_decode` (combine
weights and constant) or `_psi_decode` (the scale).

Solver emulators replay the fixed-point algorithms block by block: the
Darcy network stacks K copies of [gradient F-layer; product sigma-layer;
combine/update F-layer with the lifted source as bias], and the
Navier-Stokes network stacks n_T * kappa0 advection blocks of the same
shape.  Widths grow like N^d through the grid, depths like the iteration
counts; lifts stay constant (4d + 4 and 4d^2 + 4d).  Four assemblers
build every block: `_feed_layer` (channel copies and gradients under a
mode mask), `_sigma_layer` (the products' pairs, then one psi_h pair per
carried channel), `_product_sums` (combine rows from the sq_h decoder)
and `_f_layer`, which writes every unactivated multiplier layer, feeds
and combine layers alike, from blocks of rows under mode arrays.  The
nonlinearity networks P_N(a grad u) and PL_N(u . grad w) are one such
block without the carry or the update (lifts 4d + 2, 4d^2 + 2d).
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
    _half_lattice,
    _half_resize,
    _lattice,
    _on_grid,
    _positive_int,
    _product_radius,
    _rfft_half,
    dft,
    inverse_laplacian,
    l2_norm,
    mode_index_list,
    random_field,
    resample,
    sobolev_norm,
    truncation_mask,
)

H_MIN = 2.0**-40
H0 = 0.25           # first step every calibration tries
X0 = 1.0            # sq_h expansion point
X0_ID = 0.0         # psi_h expansion point
RANGE_SAFETY = 3.0  # margin on the pre-activation ranges measured on solver runs
CALIBRATION_PROBES = 4  # coercive coefficients the Darcy emulator is checked on
_SIGMA = activation("tanh")
_SQ_SIGNS = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])  # sq_h(a+b) - sq_h(a) - sq_h(b) terms


def _check_targets(**targets: float) -> None:
    """BadParameters unless every bound and accuracy target is finite and > 0 (NaN is not)."""
    if not all(0.0 < v < np.inf for v in targets.values()):
        raise BadParameters(f"bound and accuracy must be finite and positive, got {targets}")


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


def _sup_norm(e: GridField) -> float:
    return float(np.max(np.abs(e.values)))


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


def _sup_gradient(u_half: np.ndarray, d: int, M: int) -> float:
    """max over i, m of sup|d_i u_m| on the (2M+1)^d grid, from the _rfft_half of u on
    its own grid, of radius <= M: one inverse transform."""
    N = u_half.shape[d - 1] - 1
    grads = u_half[..., None] * _half_lattice(d, N).ik[..., None, :]
    return float(np.max(np.abs(_on_grid(grads, d, M, 2 * N + 1))))


def _ball_field(grid: Grid, rng, B: float, channels: int = 1) -> GridField:
    """Random band-limited probe scaled to L^2 norm B (a zero draw stays zero)."""
    v = random_field(grid, rng, channels)
    return GridField(grid, v.values * (B / (l2_norm(v) or 1.0)))


# ---------------------------------------------------------------------------
# The gadget: one encoder for the unit pairs, one decoder per gadget
# ---------------------------------------------------------------------------


def _sq_units(W: np.ndarray, bias: np.ndarray, row: int, cols, h: float, shift=0.0, x0=X0):
    """Rows row, row + 1 as sigma(x0 +- h (sum of v_col over cols + shift)), the unit
    pair both gadgets read; shift may vary over the leading axes of bias."""
    for col in cols:
        W[row, col] += h
        W[row + 1, col] -= h
    bias[..., row] = x0 + h * shift
    bias[..., row + 1] = x0 - h * shift


def _sq_decode(h: float, act=_SIGMA, x0=X0) -> tuple:
    """(weights, const): weights . (six product units) + const = v_a * v_b + O(h^2).

    The constant 2 sigma(x0) / denom per product goes to a bias, or is dropped
    under a multiplier that vanishes at k = 0."""
    denom = 2.0 * h * h * act.d2(x0)
    return _SQ_SIGNS / denom, 2.0 * act(x0) / denom


def _psi_decode(h: float, act=_SIGMA) -> float:
    """s with s * (sigma(X0_ID + h y) - sigma(X0_ID - h y)) = y + O(h^2)."""
    return 1.0 / (2.0 * h * act.d1(X0_ID))


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
    x0: float = 1.0
    activation: str = "tanh"

    def __post_init__(self):
        _check_targets(B=self.B, eps=self.eps)
        if abs(activation(self.activation).d2(self.x0)) < 1e-3:
            raise BadParameters(
                f"sigma''({self.x0}) is too close to zero for the quadratic gadget"
            )


def _product_net(h: float, spec: ProductNetSpec) -> DenseNet:
    layer = _sigma_layer(6, [(0, 1)], h, x0=spec.x0)[0]
    weights, const = _sq_decode(h, activation(spec.activation), spec.x0)
    return DenseNet(((layer.weight[:, :2], layer.bias, True),
                     (weights[None], np.array([const]), False)), spec.activation)


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
        spec.eps, H0,
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
        _check_targets(B=self.B, eps=self.eps)
        if abs(activation(self.activation).d1(X0_ID)) < 1e-3:
            raise BadParameters(f"sigma'({X0_ID}) is too close to zero for the identity gadget")


def _affine_approx_net(h: float, spec: AffineApproxSpec) -> PsiFno:
    """Depth-1 network psi_h(target): activated layer + recombining projection."""
    target = spec.layer
    d_v = target.d_v
    D = 2 * d_v
    grid = spec.grid

    def pm(block, dtype=float) -> np.ndarray:
        """(D, D): h * block over -h * block in the first d_v columns, the rest zero."""
        out = np.zeros((D, D), dtype)
        out[:d_v, :d_v] = h * block
        out[d_v:, :d_v] = -h * block
        return out

    W = np.zeros((D, D)) if target.weight is None else pm(target.weight)
    field = isinstance(target.bias, GridField)
    b = target.bias.values if field else target.bias
    b = np.zeros(d_v) if b is None else np.asarray(b)
    bias = np.concatenate([X0_ID + h * b, X0_ID - h * b], axis=-1)
    mult = None
    if target.multiplier is not None:
        terms = [(s, pm(A, complex)) for s, A in target.multiplier.terms]
        mult = FourierMultiplier(grid.d, target.multiplier.mode_radius, terms, D, check=False)
    layer = FnoLayer(D, W, GridField(grid, bias) if field else bias, mult, apply_activation=True)

    scale = _psi_decode(h, activation(spec.activation))
    Q = np.concatenate([scale * np.eye(d_v), -scale * np.eye(d_v)], axis=1)
    return PsiFno(grid, np.eye(D, d_v), (layer,), Q, spec.activation,
                  meta={"h": h, "kind": "affine-approx"})


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
                      _probe_error(fields, targets, _sup_norm),
                      spec.eps, H0)[0]


# ---------------------------------------------------------------------------
# Block assemblers shared by the constructive networks
# ---------------------------------------------------------------------------


def _mask(grid: Grid, radius: int, zero_mean: bool) -> np.ndarray:
    return truncation_mask(grid, radius, zero_mean).astype(complex)


def _f_layer(grid: Grid, D: int, blocks, bias=None) -> FnoLayer:
    """Unactivated F-layer sum_t s_t(k) A_t, one term per block (s, row0, rows): A_t
    holds rows from row row0 on and is zero elsewhere."""
    terms = []
    for s, row0, rows in blocks:
        A = np.zeros((D, D))
        A[row0 : row0 + len(rows)] = rows
        terms.append((s, A))
    return FnoLayer(D, None, bias, FourierMultiplier(grid.d, grid.N, terms, D, check=False), False)


def _feed_layer(grid: Grid, D: int, mask: np.ndarray, cols, grads) -> FnoLayer:
    """Unactivated F-layer: row r <- mask * v_{cols[r]},
    row <- mask * d(col)/dx_axis for each (row, col, axis) in grads."""
    I, ik = np.eye(D), _lattice(grid.d, grid.N).ik
    return _f_layer(grid, D, [(mask, 0, I[list(cols)])]
                    + [(ik[..., axis] * mask, row, I[[col]]) for row, col, axis in grads])


def _sigma_layer(D: int, products, h: float, carries=(), h_c: float = 0.0, grid=None,
                 x0=X0) -> tuple:
    """Activated layer writing each unit pair once, for the products v_a * b with b a
    channel or a field sampled on grid: per product the pair of a + b, followed by the
    pair of b when b is a field; then one pair per distinct channel, in first-seen
    order; then one psi_h pair (step h_c, at X0_ID) per carried channel.  Returns the
    layer, a (len(products), 6) array of each product's units in _SQ_SIGNS order and
    the first carry row."""
    W = np.zeros((D, D))
    bias = np.zeros((() if grid is None else grid.shape) + (D,))
    fields = [np.ndim(b) > 0 for _, b in products]
    pairs = {}  # channel -> the row of its pair
    for (a, b), field in zip(products, fields):
        for col in (a,) if field else (a, b):
            pairs.setdefault(col, 2 * (len(products) + sum(fields) + len(pairs)))
    units, row = [], 0
    for (a, b), field in zip(products, fields):
        _sq_units(W, bias, row, (a,) if field else (a, b), h, b if field else 0.0, x0)
        if field:
            _sq_units(W, bias, row + 2, (), h, b, x0)
        row_b = row + 2 if field else pairs[b]
        units.append([row, row + 1, pairs[a], pairs[a] + 1, row_b, row_b + 1])
        row += 4 if field else 2
    for col, r in pairs.items():
        _sq_units(W, bias, r, (col,), h, x0=x0)
    row_c = row + 2 * len(pairs)
    for q, col in enumerate(carries):
        _sq_units(W, bias, row_c + 2 * q, (col,), h_c, x0=X0_ID)
    layer = FnoLayer(D, W, bias if grid is None else GridField(grid, bias), None, True)
    return layer, np.array(units), row_c


def _product_sums(groups, units: np.ndarray, weights: np.ndarray, D: int) -> np.ndarray:
    """One combine row per group: the sum of its products p, each decoded from its
    units[p] by the _sq_decode weights.  The constant per product is left to the
    caller's bias (or to a multiplier that vanishes at k = 0)."""
    rows = np.zeros((len(groups), D))
    for g, group in enumerate(groups):
        for p in group:
            rows[g, units[p]] += weights
    return rows


def _leray_terms(grid: Grid, scale: np.ndarray, row0: int, rows: np.ndarray) -> list:
    """_f_layer blocks adding scale * k k^T/|k|^2 applied to the combine rows into rows
    row0 + m.

    Next to a block -scale * rows on the same rows they give -scale times the
    Leray projection of the combined field."""
    lat = _lattice(grid.d, grid.N)
    return [(scale * (lat.k[..., m] * lat.k[..., mp] * lat.inv_k2), row0 + m, rows[[mp]])
            for m in range(grid.d) for mp in range(grid.d)]


def _psi_combine(row0: int, h: float, D: int) -> np.ndarray:
    """Combine row decoding the psi_h pair at row0."""
    row = np.zeros(D)
    row[row0] = _psi_decode(h)
    row[row0 + 1] = -row[row0]
    return row


# ---------------------------------------------------------------------------
# Nonlinearity networks: (a, u) -> P_N(a grad u)  and  (u, w) -> PL_N(u . grad w)
# ---------------------------------------------------------------------------


def _darcy_nonlin_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, 2 * N)
    D = 4 * d + 2
    mask = _mask(grid, N, zero_mean=False)
    # (a, u) -> (a, du/dx_i) -> sq_h units of a * du/dx_i -> P_N(a grad u)_i in channel i
    L1 = _feed_layer(grid, D, mask, [0], [(1 + i, 1, i) for i in range(d)])
    L2, units, _ = _sigma_layer(D, [(0, 1 + i) for i in range(d)], h)
    weights, const = _sq_decode(h)
    L3 = _f_layer(grid, D, [(mask, 0, _product_sums([[i] for i in range(d)], units, weights, D))],
                  np.concatenate([np.full(d, const), np.zeros(D - d)]))
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
    _check_targets(B=B, eps=eps)
    pairs = [[resample(v, 2 * N) for v in draw(Grid(d, N))] for _ in range(12)]
    inputs = [GridField(x.grid, np.concatenate([x.values, y.values], -1)) for x, y in pairs]
    return _calibrate(lambda h: net(N, d, h),
                      _probe_error(inputs, [oracle(x, y) for x, y in pairs]), 0.5 * eps, H0)[0]


def _ns_nonlin_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, 2 * N)
    D = 4 * d * d + 2 * d
    mask = _mask(grid, N, zero_mean=False)
    mask_dot = _mask(grid, N, zero_mean=True)
    # (u, w) -> (u, dw_m/dx_i at d + i*d + m) -> sq_h units of u_i * dw_m/dx_i
    pairs = [(i, m) for i in range(d) for m in range(d)]
    L1 = _feed_layer(grid, D, mask, range(d), [(d + i * d + m, d + m, i) for i, m in pairs])
    L2, units, _ = _sigma_layer(D, [(i, d + i * d + m) for i, m in pairs], h)

    # F-layer: Leray-truncated combine of adv_m = sum_i u_i dw_m/dx_i
    adv = _product_sums([[i * d + m for i in range(d)] for m in range(d)], units,
                        _sq_decode(h)[0], D)
    L3 = _f_layer(grid, D, [(mask_dot, 0, adv)] + _leray_terms(grid, -mask_dot, 0, adv))
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
                         rng=None) -> PsiFno:
    """Network replaying the Darcy fixed-point algorithm for a fixed source.

    Input: the coefficient a sampled on the 2N grid (one channel), in the
    dimension of the source f.  fno_forward folds it onto the network grid,
    which aliases only above N, so the network replays the solver's
    coefficient exactly.  A finer coefficient is folded straight onto the
    network grid, not through the 2N grid as the solver folds it, so its
    modes above 2N alias differently: the network then replays a slightly
    different coefficient from the solver's.
    Output: the approximate solution u_N (one channel, band-limited to N)
    on the solvers' product grid Grid(d, _product_radius(N)), where the
    state's degree-2N products are exact (the 3/2 rule) and a folded input
    aliases only above N; compare it with a reference through resample, as
    h1_error_against does.  The end-to-end H^1 discrepancy against the
    solver is verified on coercive calibration probes and h is reduced
    until it falls below eps.
    """
    from . import darcy as darcy_mod

    _check_targets(B=B, eps=eps)
    N, k = _positive_int(N, "resolution"), _positive_int(k, "target rate")
    rng = rng if rng is not None else np.random.default_rng(3)
    d = f.grid.d
    K = darcy_mod.iteration_count(lam, N, k)
    M = _product_radius(N)
    grid = Grid(d, M)
    D = 4 * d + 4

    # calibration probes: coercive coefficients from the documented generator
    probes = [darcy_mod.random_decay_coefficient(d, 2 * N, lam, rng)
              for _ in range(CALIBRATION_PROBES)]
    f_in = f if f.grid.N >= 2 * N else resample(f, 2 * N)
    # the ranges are sampled on the finer 2N grid, so the steps calibration starts
    # from do not depend on the network grid
    sup_g = 0.0

    def observe(u_half):
        nonlocal sup_g
        sup_g = max(sup_g, _sup_gradient(u_half, d, 2 * N))

    solutions = [darcy_mod.solve(darcy_mod.DarcyProblem(a, f_in, lam, k, N), observe)
                 for a in probes]
    sup_a = max(float(np.max(np.abs(resample(sol.atilde_N, 2 * N).values))) for sol in solutions)
    sup_a = RANGE_SAFETY * max(sup_a, 0.1)
    sup_g = RANGE_SAFETY * max(sup_g, 0.1)
    bias_field_vals = resample(inverse_laplacian(solutions[0].f_N), M).values

    mask_dot = _mask(grid, N, zero_mean=True)
    lat = _lattice(d, grid.N)
    bias_vals = np.zeros(grid.shape + (D,))
    bias_vals[..., 1] = bias_field_vals[..., 0]
    # block layer 1, independent of the steps: (atilde, u) -> (Pdot_N atilde, grad u)
    L1 = _feed_layer(grid, D, mask_dot, [0], [(1 + i, 1, i) for i in range(d)])

    def build(h: float, h_c: float) -> PsiFno:
        # block layer 2: products atilde * g_i plus the psi carry of atilde
        L2, units, row_c = _sigma_layer(D, [(0, 1 + i) for i in range(d)], h, [0], h_c)

        # block layer 3: atilde carry + u update with the lifted source bias
        rows = _product_sums([[p] for p in range(d)], units, _sq_decode(h)[0], D)
        L3 = _f_layer(grid, D, [(mask_dot, 0, [_psi_combine(row_c, h_c, D)])]
                      + [((lat.ik[..., i] * lat.inv_k2) * mask_dot, 1, rows[[i]])
                         for i in range(d)], GridField(grid, bias_vals))
        return PsiFno(
            grid, np.eye(D, 1), (L1, L2, L3) * K, np.eye(1, D, 1), _SIGMA.name,
            meta={"h": h, "h_carry": h_c, "K": K, "kind": "darcy-emulator",
                  "ranges": [sup_a, sup_g], "lam": lam, "k": k, "N": N, "B": B},
        )

    inputs = [resample(a, M) for a in probes]  # folded once, as fno_forward would fold them
    refs = [resample(sol.u, M) for sol in solutions]
    return _calibrate_steps(build, eps / (2.0 * K), sup_a, sup_a + sup_g,
                            _probe_error(inputs, refs, lambda e: sobolev_norm(e, 1.0)), 0.7 * eps)


# ---------------------------------------------------------------------------
# Navier-Stokes solver emulator
# ---------------------------------------------------------------------------


def build_ns_emulator(config, eps_total: float, rng=None) -> PsiFno:
    """Network replaying the first-order scheme: per time step a linear feed and base
    layer for the first sweep F(0), then kappa0 - 1 advection blocks, so depth
    n_T * (3 kappa0 - 1).

    The per-block accuracy target stays eps_total / (n_T * kappa0 * Lambda),
    counting the exact first sweeps as blocks, so h is that of a network
    replaying F(0) as a gadget block and dropping that block is the only
    change to the outputs; Lambda is a measured trajectory Lipschitz bound.
    h is halved until the end-to-end trajectory discrepancy on three
    calibration probes meets eps_total.
    """
    from . import navier_stokes as ns

    _check_targets(eps_total=eps_total)
    rng = rng if rng is not None else np.random.default_rng(4)
    d, N = config.d, config.N
    nu, tau = config.nu, config.tau
    n_T = config.n_steps
    kap = ns.kappa0(config.T, config.tau, order=1)
    grid = Grid(d, 2 * N)
    D = 4 * d * d + 4 * d

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
            sup_g = max(sup_g, _sup_gradient(_rfft_half(st.u.values, d), d, N))
    delta = ns.random_divergence_free(small, rng, norm=max(1e-3 * l2_norm(probes[0]), 1e-6))
    pert = GridField(small, probes[0].values + delta.values)
    run_p = ns.simulate(replace(config, U=config.U * (1 + 1e-2), u0=pert), "first")
    lam_traj = l2_norm(GridField(small, run_p.final.u.values - finals[0].values)) / l2_norm(delta)
    Lambda = max(1.0, lam_traj)
    sup_u = RANGE_SAFETY * max(sup_u, 0.1)
    sup_g = RANGE_SAFETY * max(2.0 * sup_g, 0.1)  # inner iterates reach ~2||u||

    mask_dot = _mask(grid, N, zero_mean=True)
    inv_helm = (mask_dot / (1.0 + nu * tau * _lattice(grid.d, grid.N).k2)).astype(complex)

    # layers independent of the steps: a time step reads u (at n > 0 the u
    # carried into w), base writes the first sweep F(0) = H^-1 u into w with
    # no product, and each later sweep feeds u and grad w to a gadget block
    from_u = range(d)
    grads = [(2 * d + i * d + m, d + m, i) for i in range(d) for m in range(d)]
    first = _feed_layer(grid, D, mask_dot, from_u, ())
    from_w = _feed_layer(grid, D, mask_dot, range(d, 2 * d), ())
    base = _f_layer(grid, D, [(mask_dot, 0, np.eye(d, D)), (inv_helm, d, np.eye(d, D))])
    sweep = _feed_layer(grid, D, mask_dot, from_u, grads)

    def build(h: float, h_c: float) -> PsiFno:
        # sigma-layer: products u_i * g_{i,m} plus psi carry of u
        L2, units, row_c = _sigma_layer(D, [(i, row) for row, _, i in grads], h, range(d), h_c)
        carry = np.array([_psi_combine(row_c + 2 * c, h_c, D) for c in range(d)])
        adv = _product_sums([[i * d + m for i in range(d)] for m in range(d)], units,
                            _sq_decode(h)[0], D)

        # F-layer: u rows get the carried u, w rows get F(w)
        L3 = _f_layer(grid, D, [(mask_dot, 0, carry), (inv_helm, d, carry),
                                (-tau * inv_helm, d, adv)]
                      + _leray_terms(grid, tau * inv_helm, d, adv))
        return PsiFno(
            grid, np.eye(D, d),
            tuple(L for n in range(n_T)
                  for L in (from_w if n else first, base) + (sweep, L2, L3) * (kap - 1)),
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
    """(fields, ks): fields[2t] = cos<k_t,x> and fields[2t+1] = sin<k_t,x> sampled on the
    grid, for every mode k_t; shape (2|K|,) + grid.shape."""
    ks = mode_index_list(grid)
    pts = grid.coordinates()
    phases = np.zeros((len(ks),) + grid.shape)
    for axis in range(grid.d):
        phases += ks[:, axis].reshape((-1,) + (1,) * grid.d) * pts[axis][None, ...]
    return np.stack([np.cos(phases), np.sin(phases)], 1).reshape((-1,) + grid.shape), ks


def _coefficient_channels(v: GridField) -> GridField:
    """(Re v_k, Im v_k) of a one-channel field, in mode order, as 2|K| constant channels."""
    c = dft(v).coeffs[..., 0].ravel()
    w = np.stack([c.real, c.imag], axis=-1).ravel()
    return GridField(v.grid, np.broadcast_to(w, v.grid.shape + w.shape).copy())


def _ft_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, N)
    fields, ks = _phase_fields(grid)
    K = len(ks)
    D = 8 * K + 2
    # sigma-layer: sq_h units of v cos<k,x> and v sin<k,x>
    L1, units, _ = _sigma_layer(D, [(0, f) for f in fields], h, grid=grid)

    # zero-mode multiplier: averaging the products gives Re / -Im,
    # Re(v_k) = mean( v cos<k,x> ),  Im(v_k) = -mean( v sin<k,x> )
    weights, const = _sq_decode(h)
    signs = np.tile([1.0, -1.0], K)
    C = np.zeros((2 * K, D))
    C[np.arange(2 * K)[:, None], units] = signs[:, None] * weights
    L2 = _f_layer(grid, D, [(_mask(grid, 0, False), 0, C)],
                  np.concatenate([signs * const, np.zeros(D - 2 * K)]))

    return PsiFno(grid, np.eye(D, 1), (L1, L2), np.eye(2 * K, D), _SIGMA.name,
                  meta={"h": h, "kind": "ft-emulator", "modes": ks.tolist()})


def build_ft_emulator(N: int, B: float, eps: float, d: int = 1, rng=None) -> PsiFno:
    """Network emitting 2|K_N| constant channels: (Re v_k, Im v_k) to eps each.

    Channel 2t holds the real part of coefficient k_t, channel 2t+1 the
    imaginary part, with k_t running lexicographically over -N..N per axis
    (the mode order is recorded in the model metadata).
    """
    _check_targets(B=B, eps=eps)
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
    # the outputs are constant over the grid, so the sup error is each channel's error
    return _calibrate(lambda h: _ft_net(N, d, h),
                      _probe_error(fields, [_coefficient_channels(v) for v in fields], _sup_norm),
                      0.5 * eps, H0)[0]


def _ift_net(N: int, d: int, h: float) -> PsiFno:
    grid = Grid(d, N)
    fields, ks = _phase_fields(grid)
    K = len(ks)
    D = 12 * K
    # sigma-layer: sq_h units of w_{2t} cos<k_t,x> and w_{2t+1} sin<k_t,x>
    L1, units, _ = _sigma_layer(D, list(enumerate(fields)), h, grid=grid)

    # v = sum_k Re_k cos - Im_k sin; the constants of each cos/sin pair cancel: no bias
    combine = np.zeros((D, D))
    combine[0, units] = np.tile([1.0, -1.0], K)[:, None] * _sq_decode(h)[0]
    L2 = FnoLayer(D, combine, None, None, False)

    return PsiFno(grid, np.eye(D, 2 * K), (L1, L2), np.eye(1, D), _SIGMA.name,
                  meta={"h": h, "kind": "ift-emulator", "modes": ks.tolist()})


def build_ift_emulator(N: int, B: float, eps: float, d: int = 1, rng=None) -> PsiFno:
    """Network reconstructing a field from 2|K_N| constant coefficient channels.

    For inputs w = (Re v_k, Im v_k) with |entries| <= B it returns v to eps
    in L^2; the channel order matches build_ft_emulator.
    """
    _check_targets(B=B, eps=eps)
    rng = rng if rng is not None else np.random.default_rng(6)
    grid = Grid(d, N)
    wants = []
    for _ in range(16):
        v = random_field(grid, rng)
        scale = B / max(float(np.max(np.abs(dft(v).coeffs))), 1e-30) * 0.9
        wants.append(GridField(grid, v.values * scale))
    return _calibrate(lambda h: _ift_net(N, d, h),
                      _probe_error([_coefficient_channels(v) for v in wants], wants),
                      0.5 * eps, H0)[0]


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
    _check_targets(B=B, eps=eps)
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
