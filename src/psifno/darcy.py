"""Fourier-Galerkin solver for -div(a grad u) = f on the torus.

The coefficient is written a = 1 + atilde and the discrete system

    -Pdot_N div( a_N grad u_N ) = f_N,     a_N = 1 + Pdot_N I_2N atilde,

is solved as a fixed point of the contraction

    F(u) = Pdot_N (-Lap)^-1 div( atilde_N grad u ) + (-Lap)^-1 f_N,

whose Lipschitz constant in the zero-mean H^1 seminorm is bounded by
sup|atilde_N| <= 1 - lambda/2 for lambda-coercive coefficients.  The
iteration count is fixed a priori from (lambda, N, k); no adaptive
stopping, so convergence studies probe the a-priori bound itself.
The iteration runs on the real half spectrum, with atilde_N * grad(u)
evaluated exactly on the smallest odd 7-smooth grid of >= 3N+1 points (the
3/2 rule); min a and sup|atilde_N| are checked on the doubled grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters,
    CoercivityViolation,
    InsufficientResolution,
    NonFiniteIterate,
)
from .spectral import (
    Grid,
    GridField,
    _dot,
    _flux_half,
    _half_lattice,
    _half_layout,
    _half_norm,
    _half_resize,
    _irfft_values,
    _on_grid,
    _positive_int,
    _product_radius,
    _rfft_half,
    field_from_function,
    idft,
    l2_norm,
    mean,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
)

MEAN_RTOL = 1e-10


@dataclass(frozen=True)
class DarcyProblem:
    """Solver input: coefficient and source sampled at resolution >= 2N.

    lam is the coercivity constant in (0,1); k >= 1 the targeted
    convergence rate entering the iteration count; N the solve resolution.
    """

    a: GridField
    f: GridField
    lam: float
    k: int
    N: int

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise BadParameters(f"coercivity constant must lie in (0,1), got {self.lam}")
        object.__setattr__(self, "k", _positive_int(self.k, "target rate"))
        object.__setattr__(self, "N", _positive_int(self.N, "resolution"))
        if self.a.channels != 1 or self.f.channels != 1:
            raise BadParameters("coefficient and source must be single-channel")
        fbar = float(mean(self.f)[0])
        scale = max(float(np.max(np.abs(self.f.values))), 1e-300)
        if abs(fbar) > MEAN_RTOL * scale:
            raise BadParameters(f"source must have zero mean; got mean {fbar:.3e}")


@dataclass(frozen=True)
class DarcySolution:
    u: GridField
    iterations: int
    residual_history: tuple  # Hdot^1 norms of successive increments
    atilde_N: GridField      # the prepared coefficients the iteration ran on
    f_N: GridField


def _restrict(f: GridField, N: int) -> GridField:
    """f sampled on the 2N grid, truncated to zero-mean modes |k|_inf <= N at resolution N."""
    d, on_2N = f.grid.d, (f if f.grid.N == 2 * N else resample(f, 2 * N))
    half = _half_resize(_rfft_half(on_2N.values, d), d, N)
    half[(0,) * d] = 0.0
    return GridField(Grid(d, N), _on_grid(half, d, N, on_2N.grid.npoints))


def prepare_coefficients(a: GridField, f: GridField, N: int):
    """Pseudo-spectral projections (atilde_N, f_N) on the de-aliased grid.

    Both fields must be sampled at resolution >= 2N; they are evaluated on
    the 2N grid and truncated to zero-mean polynomials of degree N.  The
    constant shift a - 1 is absorbed by the zero-mean truncation.
    """
    if a.grid.d != f.grid.d:
        raise BadParameters("coefficient and source dimensions differ")
    if a.grid.N < 2 * N or f.grid.N < 2 * N:
        raise InsufficientResolution(
            f"need samples at resolution >= {2 * N}, got a at {a.grid.N}, f at {f.grid.N}"
        )
    return _restrict(a, N), _restrict(f, N)


class PicardOperator:
    """F(u) = Pdot_N (-Lap)^-1 div(atilde_N grad u) + (-Lap)^-1 f_N.

    Caches the coefficient on the product grid (_product_radius) and the
    source lift; F is affine, and its linear part acts on half spectra
    (linear_half, two real FFTs).  F(0) is the lift exactly.
    """

    def __init__(self, atilde_N: GridField, f_N: GridField):
        if atilde_N.grid != f_N.grid:
            raise BadParameters("atilde_N and f_N must share a grid")
        self.grid = atilde_N.grid
        g = self.grid
        a_half = _rfft_half(atilde_N.values, g.d)
        self._atilde = _on_grid(a_half, g.d, _product_radius(g.N), g.npoints)
        self._lattice = _half_lattice(g.d, g.N)
        self.lift_half = _rfft_half(f_N.values, g.d) * self._lattice.inv_k2[..., None]
        self._lift = _irfft_values(self.lift_half, g.d)
        self.sup_atilde = float(np.max(np.abs(_on_grid(a_half, g.d, 2 * g.N, g.npoints))))

    def linear_half(self, u_half: np.ndarray) -> np.ndarray:
        """Half spectrum of Pdot_N (-Lap)^-1 div(atilde_N grad u) from that of u, in its scale."""
        flux = _flux_half(self._atilde, u_half, self.grid.d)
        return (_dot(self._lattice.ik, flux) * self._lattice.inv_k2)[..., None]

    def apply(self, u: GridField) -> GridField:
        g = self.grid
        if u.grid != g:
            raise BadParameters(f"iterate must live at resolution {g.N}")
        return GridField(g, _irfft_values(self.linear_half(_rfft_half(u.values, g.d)), g.d)
                         + self._lift)


def picard_step(u: GridField, atilde_N: GridField, f_N: GridField) -> GridField:
    """One application of the fixed-point map (zero-mean output)."""
    return PicardOperator(atilde_N, f_N).apply(u)


def iteration_count(lam: float, N: int, k: int) -> int:
    """K = ceil( log(lam^-1 N^-k) / log(1 - lam/2) ), at least 1."""
    if not 0.0 < lam < 1.0:
        raise BadParameters(f"lambda must lie in (0,1), got {lam}")
    N, k = _positive_int(N, "resolution"), _positive_int(k, "target rate")
    K = math.ceil(math.log(N**-k / lam) / math.log(1.0 - lam / 2.0))
    return max(K, 1)


def solve(problem: DarcyProblem, observe=None) -> DarcySolution:
    """Run the fixed-count Picard iteration from u^0 = 0 on the half spectrum.

    The first iterate is the source lift, F(0), and each later one applies
    the linear part once; the grid values are formed once, at the end.
    residual_history holds the Hdot^1 norms of the K increments.  observe,
    when given, is called with the _rfft_half of each iterate u^1..u^K on
    the resolution-N grid; the iterates are not kept.

    Raises CoercivityViolation when min a < lambda/2 on the doubled grid or
    when sup|atilde_N| >= 1 - lambda/2 (the operative contraction bound),
    and NonFiniteIterate when an increment's Hdot^1 norm is not finite: a
    NaN/Inf iterate, or one whose squared coefficients overflow.
    """
    p = problem
    # a coarser than 2N goes through as is, for prepare_coefficients to reject
    a_on_2N = p.a if p.a.grid.N <= 2 * p.N else resample(p.a, 2 * p.N)
    atilde_N, f_N = prepare_coefficients(a_on_2N, p.f, p.N)
    a_min = float(np.min(a_on_2N.values))
    if a_min < p.lam / 2.0:
        raise CoercivityViolation(
            f"min a = {a_min:.6f} on the doubled grid is below lambda/2 = {p.lam / 2:.6f}"
        )
    op = PicardOperator(atilde_N, f_N)
    if op.sup_atilde >= 1.0 - p.lam / 2.0:
        raise CoercivityViolation(
            f"sup|atilde_N| = {op.sup_atilde:.6f} >= 1 - lambda/2 = {1 - p.lam / 2:.6f}; "
            "the fixed-point map is not provably contractive at this resolution"
        )
    K = iteration_count(p.lam, p.N, p.k)
    g = atilde_N.grid
    k2 = _half_lattice(g.d, g.N).k2
    u_half = np.zeros_like(op.lift_half)
    history = []
    for i in range(K):
        u_next = op.linear_half(u_half) + op.lift_half if i else op.lift_half
        history.append(_half_norm(u_next - u_half, g.d, k2))
        if not math.isfinite(history[-1]):
            raise NonFiniteIterate(f"Picard increment {i + 1} has a non-finite Hdot^1 norm")
        if observe is not None:
            observe(u_next)
        u_half = u_next
    return DarcySolution(u=GridField(g, _irfft_values(u_half, g.d)), iterations=K,
                         residual_history=tuple(history), atilde_N=atilde_N, f_N=f_N)


def hminus1_norm(f: GridField) -> float:
    """Zero-mean dual norm ((2pi)^d sum_{k!=0} |c_k|^2 / |k|^2)^(1/2)."""
    g = f.grid
    return _half_norm(_rfft_half(f.values, g.d), g.d, _half_lattice(g.d, g.N).inv_k2)


def galerkin_residual_norm(u: GridField, atilde_N: GridField, f_N: GridField) -> float:
    """|| Pdot_N div(a_N grad u) + f_N ||_{Hdot^-1} for the converged iterate.

    Equals the fixed-point residual ||u - F(u)||_{Hdot^1} identically.
    """
    op = PicardOperator(atilde_N, f_N)
    residual = GridField(u.grid, u.values - op.apply(u).values)
    return sobolev_norm(residual, 1.0, homogeneous=True)


def empirical_lipschitz(
    atilde_N: GridField, f_N: GridField, rng: np.random.Generator, pairs: int = 100
) -> float:
    """max over random pairs of ||F(u)-F(u')||_{Hdot1} / ||u-u'||_{Hdot1}.

    F is affine, so F(u) - F(u') is its linear part applied to u - u': one
    application per pair, on the half spectrum of the drawn coefficients
    (the ratio does not depend on their scale).  Each pair draws u, then u',
    with random_hermitian_coeffs, and nothing else draws from rng.
    """
    op = PicardOperator(atilde_N, f_N)
    g = atilde_N.grid
    k2 = _half_lattice(g.d, g.N).k2
    worst = 0.0
    for _ in range(pairs):
        cu = random_hermitian_coeffs(g, rng, zero_mean=True).coeffs
        cv = random_hermitian_coeffs(g, rng, zero_mean=True).coeffs
        du = _half_layout(cu - cv, g.d, g.N)
        denom = _half_norm(du, g.d, k2)
        if denom == 0.0:
            continue
        worst = max(worst, _half_norm(op.linear_half(du), g.d, k2) / denom)
    return worst


def coercivity_advisory(atilde: GridField, lam: float, s: float) -> dict:
    """Advisory check of the Sobolev-side coercivity bound C ||atilde||_{H^s} <= 1-lam.

    C is a conservative estimate of the H^s -> sup-norm embedding constant,
    C^2 = 2 (2pi)^-d sum_k (1+|k|^{2s})^-1, evaluated by partial summation
    over |k|_inf <= 512 plus an integral tail bound (requires s > d/2).
    """
    d = atilde.grid.d
    if s <= d / 2:
        raise BadParameters("embedding estimate requires s > d/2")
    K = {1: 4096, 2: 256, 3: 64}.get(d, 32)
    k = np.arange(-K, K + 1, dtype=float)
    mesh = np.meshgrid(*([k] * d), indexing="ij", sparse=True)
    k2 = sum(m**2 for m in mesh)
    partial = float(np.sum(1.0 / (1.0 + k2 ** s)))
    # tail: integral of |k|^(-2s) over |k| > K, times the unit sphere area
    area = {1: 2.0, 2: 2 * np.pi, 3: 4 * np.pi}[d]
    tail = area * K ** (d - 2 * s) / (2 * s - d)
    C = math.sqrt(2.0 * (2 * np.pi) ** (-d) * (partial + tail))
    hs = sobolev_norm(atilde, s)
    return {
        "embedding_constant": C,
        "hs_norm": hs,
        "bound": C * hs,
        "satisfied": bool(C * hs <= 1.0 - lam),
    }


# ---------------------------------------------------------------------------
# Problem generators (used by the CLI and the convergence studies).
# ---------------------------------------------------------------------------


def trig_coefficient(d: int, resolution: int, amplitude: float = 0.3) -> GridField:
    """a = 1 + amplitude * sin(x_1 + ... + x_d), sampled at the given resolution."""
    g = Grid(d, resolution)
    return field_from_function(g, lambda *xs: 1.0 + amplitude * np.sin(sum(xs)))


def random_decay_coefficient(
    d: int,
    resolution: int,
    lam: float,
    rng: np.random.Generator,
    length_scale: float = 0.7,
    rho: float = 0.9,
) -> GridField:
    """lambda-coercive a = 1 + atilde with |atilde_k| ~ exp(-ell |k|).

    The fluctuation is rescaled so that sup|atilde| = rho * (1 - lam),
    measured on a refined grid, which guarantees the coercivity bound.
    """
    g = Grid(d, resolution)
    c = random_hermitian_coeffs(
        g, rng, decay=lambda kk: np.exp(-length_scale * kk), zero_mean=True
    )
    atilde = idft(c)
    sup = float(np.max(np.abs(resample(atilde, 2 * resolution).values)))
    if sup == 0.0:
        raise BadParameters("degenerate random coefficient draw")
    scale = rho * (1.0 - lam) / sup
    return GridField(g, 1.0 + scale * atilde.values)


def manufactured_problem(
    d: int,
    lam: float,
    rate_k: int,
    N_max: int,
    rng: np.random.Generator,
):
    """Rough manufactured solution with a genuinely observable N^-k rate.

    u* has random phases and spectrum |c_k| = (1+|k|)^-(k+1+d/2+0.05)
    truncated at mode radius 2*N_max (so u* has exactly the Sobolev
    regularity H^{k+1} that the convergence theory assumes), and
    f = -div(a grad u*) is computed exactly at resolution 2*N_max + 1.
    The coefficient is the default trig_coefficient.  Returns
    (a, f, u_star), all fields at that fine resolution.
    """
    beta = rate_k + 1.0 + d / 2.0 + 0.05
    M_u = 2 * N_max
    fine = Grid(d, M_u)
    c = random_hermitian_coeffs(
        fine, rng, decay=lambda kk: (1.0 + kk) ** (-beta), zero_mean=True
    )
    u_star = idft(c)

    M_f = M_u + 1  # a has degree 1, so a * grad(u*) has degree <= M_u + 1
    a = trig_coefficient(d, M_f)
    u_fine = GridField(a.grid, _on_grid(_rfft_half(u_star.values, d), d, M_f, fine.npoints))
    flux = _flux_half(a.values, _rfft_half(u_fine.values, d), d)
    div = _irfft_values(_dot(_half_lattice(d, M_f).ik, flux)[..., None], d)
    return a, GridField(a.grid, -div), u_fine


def h1_error_against(u_N: GridField, reference: GridField) -> float:
    """H^1 norm of (u_N - reference), evaluated at the reference resolution."""
    up = resample(u_N, reference.grid.N)
    return sobolev_norm(GridField(reference.grid, up.values - reference.values), 1.0)


def l2_error_against(u_N: GridField, reference: GridField) -> float:
    up = resample(u_N, reference.grid.N)
    return l2_norm(GridField(reference.grid, up.values - reference.values))
