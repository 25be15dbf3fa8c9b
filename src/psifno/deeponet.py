"""Branch/trunk factorization of a grid network.

A network evaluated on the (2N+1)^d sensor grid is an ordinary layered
map on R^{d_v |J_N|}; modifying its linear output layer by the change of
basis from grid values to coefficients in a real orthonormal trigonometric
basis {e_j} turns it into a branch net beta with

    net(a)(y) = sum_j beta_j(a) e_j(y)   for every y,

exactly, with width(beta) = width(net) and depth(beta) = depth(net).  The
trunk is stored analytically by default (the e_j are known in closed
form); an approximate-trunk path builds tanh step-sum networks tau_j with
a verified sup bound ||e_j - tau_j|| <= eps / B_bar.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .emulation import DenseNet
from .errors import BadParameters, DimensionMismatch
from .fno import FnoLayer, PsiFno, activation, layer_forward, load_model, save_model
from .spectral import (
    Grid,
    GridField,
    mode_index_list,
    random_field,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TrunkFunction:
    """One analytic basis function: scale, flavor, and wavevector."""

    kind: str      # "const" | "cos" | "sin"
    k: tuple
    scale: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        if self.kind == "const":
            return np.full(pts.shape[0], self.scale)
        phase = pts @ np.asarray(self.k, dtype=float)
        return self.scale * (np.cos(phase) if self.kind == "cos" else np.sin(phase))


def trigonometric_basis(grid: Grid) -> tuple:
    """Real orthonormal basis of span{exp(i<k,x>)}_{K_N} under the L^2 inner product.

    Ordering: the constant, then (cos_k, sin_k) for k in the lexicographic
    half-space (first nonzero component positive).
    """
    d = grid.d
    c0 = (TWO_PI) ** (-d / 2.0)
    c1 = np.sqrt(2.0) * c0
    fns = [TrunkFunction("const", (0,) * d, c0)]
    for k in mode_index_list(grid):
        nz = k[k != 0]
        if len(nz) == 0 or nz[0] < 0:
            continue
        fns.append(TrunkFunction("cos", tuple(int(v) for v in k), c1))
        fns.append(TrunkFunction("sin", tuple(int(v) for v in k), c1))
    return tuple(fns)


@dataclass
class DeepOnetExport:
    """Branch net on sensor values plus an analytic trigonometric trunk."""

    grid: Grid
    d_u: int
    sensor_points: np.ndarray
    branch: DenseNet
    trunk: tuple
    B_bar: float
    meta: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.d_u * len(self.trunk)

    @property
    def width(self) -> int:
        return self.branch.width

    @property
    def depth(self) -> int:
        return self.branch.depth

    def branch_coefficients(self, a: GridField) -> np.ndarray:
        """Coefficients beta(a), shape (len(trunk), d_u)."""
        if a.grid != self.grid:
            raise DimensionMismatch("input must be sampled at the sensor points")
        flat = a.values.reshape(-1)
        out = self.branch(flat)
        return out.reshape(self.d_u, len(self.trunk)).T

    def trunk_matrix(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.stack([fn(pts) for fn in self.trunk], axis=-1)

    def evaluate(self, a: GridField, points: np.ndarray) -> np.ndarray:
        """sum_j beta_j(a) e_j(y) at each query point; shape (m, d_u)."""
        beta = self.branch_coefficients(a)
        return self.trunk_matrix(points) @ beta


def _layer_dense(layer, grid: Grid, act) -> tuple:
    """Dense (matrix, bias) of one layer's pre-activation map on flat values.

    The linear part W v + F^-1(P F v) commutes with grid shifts, so the
    response to an impulse at grid point j is the response to the impulse
    at the origin shifted by j, index (i - j) mod (2N+1) per axis: d_v + 1
    layer evaluations give every column.
    """
    d_v, d = layer.d_v, grid.d
    bare = FnoLayer(d_v, layer.weight, layer.bias, layer.multiplier, False)
    c = layer_forward(bare, GridField(grid, np.zeros(grid.shape + (d_v,))), act).values
    idx = np.indices(grid.shape).reshape(d, -1)
    shift = np.ravel_multi_index(tuple((x[:, None] - x[None, :]) % grid.shape[0] for x in idx),
                                 grid.shape)
    M = np.empty((grid.size, d_v, grid.size, d_v))  # M[i, r, j, col]
    for col in range(d_v):
        impulse = np.zeros(grid.shape + (d_v,))
        impulse[(0,) * d + (col,)] = 1.0
        g = (layer_forward(bare, GridField(grid, impulse), act).values - c).reshape(-1, d_v)
        M[..., col] = g[shift].transpose(0, 2, 1)
    return M.reshape(grid.size * d_v, grid.size * d_v), c.reshape(-1)


def _export(net: PsiFno, B, B_bar: float) -> DeepOnetExport:
    """Exact branch/trunk factorization of a grid network, with B and B_bar as given.

    The branch is the network's grid computation with the output layer
    composed with the change of basis to the real trigonometric basis, so
    the pairing with the analytic trunk reproduces the network at every
    point of the torus.  Deterministic: no probes, no randomness.
    """
    grid = net.grid
    act = activation(net.activation)
    d_u = net.d_u
    size = grid.size

    # pointwise channel maps act on the flat (j, channel) layout as kron(I, mat)
    lift_M, out_M = (np.kron(np.eye(size), mat) for mat in (net.lifting, net.projection))
    layers = []
    if net.layers:
        first_M, first_c = _layer_dense(net.layers[0], grid, act)
        layers.append((first_M @ lift_M, first_c, net.layers[0].apply_activation))
        for layer in net.layers[1:]:
            M, c = _layer_dense(layer, grid, act)
            layers.append((M, c, layer.apply_activation))
    else:
        out_M = out_M @ lift_M

    x = grid.axis_coordinates()
    mesh = np.meshgrid(*([x] * grid.d), indexing="ij")
    sensors = np.stack([m.ravel() for m in mesh], axis=-1)
    basis = trigonometric_basis(grid)
    # grid values -> basis coefficients (discrete transform, exact for band-limited
    # fields), laid out channel-major: d_u blocks of len(basis) coefficients
    T = (TWO_PI ** grid.d / size) * np.stack([fn(sensors) for fn in basis])
    to_basis = np.einsum("ji,cd->cjid", T, np.eye(d_u)).reshape(d_u * len(basis), size * d_u)
    basis_M = to_basis @ out_M
    layers.append((basis_M, np.zeros(basis_M.shape[0]), False))
    return DeepOnetExport(
        grid=grid,
        d_u=d_u,
        sensor_points=sensors,
        branch=DenseNet(tuple(layers), net.activation),
        trunk=basis,
        B_bar=B_bar,
        meta={"B": B, "source_depth": net.depth, "source_width": net.d_v * size},
    )


def to_deeponet(net: PsiFno, B: float, rng=None, norm_probes: int = 20) -> DeepOnetExport:
    """Exact branch/trunk factorization of a grid network (see _export).

    B enters only through the reported bound
    B_bar = (2N+1)^d * sup ||net(a)||_{L^2} over ||a||_inf <= B probes.  The
    trunk is orthonormal, so ||net(a)||_{L^2} is the Euclidean norm of the
    branch coefficients and the probes run through the branch.
    """
    rng = rng if rng is not None else np.random.default_rng(11)
    grid = net.grid
    export = _export(net, B, 0.0)
    sup_out = 0.0
    for _ in range(norm_probes):
        a = random_field(grid, rng, channels=net.d_a)
        sup_a = float(np.max(np.abs(a.values))) or 1.0
        beta = export.branch(a.values.reshape(-1) * (B / sup_a))
        sup_out = max(sup_out, float(np.linalg.norm(beta)))
    export.B_bar = grid.size * sup_out
    return export


def gram_defect(export: DeepOnetExport) -> float:
    """Max deviation of the trunk Gram matrix from the identity (quadrature on a 4x finer grid)."""
    g = export.grid
    fine = Grid(g.d, 4 * g.N)
    x = fine.axis_coordinates()
    mesh = np.meshgrid(*([x] * g.d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    Tm = export.trunk_matrix(pts)
    w = (TWO_PI) ** g.d / fine.size
    gram = w * (Tm.T @ Tm)
    return float(np.max(np.abs(gram - np.eye(len(export.trunk)))))


# ---------------------------------------------------------------------------
# Approximate-trunk path: tanh step-sum networks with a verified sup bound
# ---------------------------------------------------------------------------


def _step_sum_network(fn: TrunkFunction, eps: float, d: int) -> DenseNet:
    """tanh staircase approximation of a 1-d profile composed with <k, x>."""
    k = np.asarray(fn.k, dtype=float)
    if fn.kind == "const":
        A = np.zeros((1, d))
        return DenseNet(((A, np.zeros(1), True), (np.zeros((1, 1)), np.array([fn.scale]), False)))
    span = TWO_PI * np.sum(np.abs(k))
    lo = TWO_PI * np.sum(np.minimum(k, 0.0))
    profile = np.cos if fn.kind == "cos" else np.sin
    deriv_bound = abs(fn.scale)
    M = int(np.ceil(span * deriv_bound / (1.6 * eps))) + 2
    if M > 2_000_000:
        raise BadParameters(
            f"trunk bound {eps:.3e} needs ~{M} staircase units for {fn.kind}{fn.k}; "
            "raise eps or use the analytic trunk"
        )
    ts = lo + span * np.arange(M + 1) / M
    mids = 0.5 * (ts[:-1] + ts[1:])
    vals = fn.scale * profile(mids)
    jumps = np.diff(vals)
    delta = (span / M) / 40.0
    A1 = np.tile(k / delta, (M - 1, 1))
    b1 = -ts[1:-1] / delta
    A2 = 0.5 * jumps.reshape(1, -1)
    b2 = np.array([vals[0] + 0.5 * np.sum(jumps)])
    return DenseNet(((A1, b1, True), (A2, b2, False)))


def build_trunk_networks(export: DeepOnetExport, eps: float):
    """Networks tau_j with verified sup_x |e_j(x) - tau_j(x)| <= eps / B_bar.

    Returns (networks, verified_bound).  Raises BadParameters when one of
    4000 seeded check points finds a violation (eps too small for the step count).
    """
    target = eps / max(export.B_bar, 1e-300)
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.0, TWO_PI, size=(4000, export.grid.d))
    nets = []
    worst = 0.0
    for fn in export.trunk:
        net = _step_sum_network(fn, target, export.grid.d)
        got = net(pts)[:, 0]
        want = fn(pts)
        defect = float(np.max(np.abs(got - want)))
        worst = max(worst, defect)
        if defect > target:
            raise BadParameters(
                f"trunk network for {fn.kind}{fn.k} misses the bound: "
                f"{defect:.3e} > {target:.3e}"
            )
        nets.append(net)
    return tuple(nets), worst


# ---------------------------------------------------------------------------
# Export container: JSON descriptor next to a PSIFNO1 payload
# ---------------------------------------------------------------------------


def save_deeponet(export: DeepOnetExport, net: PsiFno, base_path) -> None:
    """Write <base>.deeponet.json plus the source network as <base>.psifno.

    The branch layer stack is rebuilt deterministically from the network
    payload on load and B_bar is read back from the descriptor, so only the
    descriptor and the source model are stored.
    """
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    model_path = base.with_suffix(".psifno")
    save_model(net, model_path)
    doc = {
        "p": export.p,
        "d_u": export.d_u,
        "B": export.meta.get("B"),
        "B_bar": export.B_bar,
        "sensor_points": export.sensor_points.tolist(),
        "trunk": [
            {"kind": fn.kind, "k": list(fn.k), "scale": fn.scale} for fn in export.trunk
        ],
        "branch": {"psifno": model_path.name},
    }
    base.with_suffix(".deeponet.json").write_text(json.dumps(doc) + "\n")


def load_deeponet(base_path) -> DeepOnetExport:
    """Read what save_deeponet wrote: the branch is rebuilt, B_bar and B are read back.

    No network is evaluated on probes; the descriptor's p, d_u and trunk are
    checked against the rebuilt export, and BadParameters is raised when
    the descriptor or the model it names is unreadable, or they disagree.
    """
    base = Path(base_path)
    try:
        doc = json.loads(base.with_suffix(".deeponet.json").read_text())
        model, B, B_bar = base.parent / doc["branch"]["psifno"], doc.get("B"), float(doc["B_bar"])
        trunk = tuple(TrunkFunction(fn["kind"], tuple(fn["k"]), fn["scale"]) for fn in doc["trunk"])
        shape = (doc["p"], doc["d_u"], trunk)
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise BadParameters(f"{base}: unreadable DeepONet descriptor ({exc!r})") from None
    export = _export(load_model(model), B, B_bar)
    if shape != (export.p, export.d_u, export.trunk):
        raise BadParameters(f"{base}: descriptor does not match the rebuilt branch/trunk")
    return export
