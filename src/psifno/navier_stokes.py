"""Semi-implicit pseudo-spectral solvers for incompressible Navier-Stokes.

Velocity fields live in the divergence-free, zero-mean trigonometric
space at mode radius N.  The first-order scheme treats diffusion and
advection semi-implicitly,

    (1 - nu*tau*Lap) u^{n+1} + tau * PL_N( u^n . grad u^{n+1} ) = u^n,

and the update is computed by a fixed number kappa0 of Picard sweeps of

    F(w) = (1 - nu*tau*Lap)^-1 u^n - tau (1 - nu*tau*Lap)^-1 PL_N(u^n . grad w),

which contracts with ratio <= 1/2 under the CFL restriction
tau * U * N^(d/2+1) <= 1/(2e).  PL_N is the Leray-Fourier projection
(zero-mean, divergence-free, modes |k|_inf <= N).  The sweeps run on the
real half spectrum, with the advection product evaluated exactly on the
smallest odd 7-smooth grid of >= 3N+1 points (the 3/2 rule).

The second-order scheme combines Crank-Nicolson diffusion with an
Adams-Bashforth extrapolated advection velocity ubar = 3/2 u^n - 1/2 u^{n-1};
solving its implicit relation for u^{n+1} and iterating only the implicit
advection term gives the inner map

    F2(w) = (1 - (nu*tau/2) Lap)^-1 [ (1 + (nu*tau/2) Lap) u^n
            - (tau/2) PL_N(ubar . grad u^n) - (tau/2) PL_N(ubar . grad w) ].

Startup for the second-order scheme produces u^1 by running the
first-order scheme over [0, tau] with n_T sub-steps, so its error is
O(tau^2) and does not pollute the temporal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadParameters, CflViolation, NonFiniteState
from .spectral import (
    Grid,
    GridField,
    _advection_half,
    _half_lattice,
    _half_norm,
    _irfft_values,
    _on_grid,
    _product_radius,
    _rfft_half,
    divergence,
    field_from_function,
    idft,
    l2_norm,
    leray_project,
    mean,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
)

CFL_BOUND = 1.0 / (2.0 * math.e)


def max_cfl_timestep(U: float, N: int, d: int) -> float:
    """Largest tau with tau * U * N^(d/2+1) <= 1/(2e)."""
    if not 0.0 < U < math.inf or N <= 0:  # NaN fails the comparison
        raise BadParameters(f"U must be finite and positive and N positive, got U={U}, N={N}")
    return CFL_BOUND / (U * float(N) ** (d / 2.0 + 1.0))


def kappa0(T: float, tau: float, order: int = 1) -> int:
    """Inner iteration count: ceil(log((T/tau)^2)/log 2), cubed ratio for order 2."""
    if not 0.0 < tau <= T:
        raise BadParameters(f"need 0 < tau <= T, got tau={tau}, T={T}")
    if order not in (1, 2):
        raise BadParameters(f"order must be 1 or 2, got {order}")
    power = 2 if order == 1 else 3
    value = math.ceil(power * math.log(T / tau) / math.log(2.0))
    return max(value, 1)


@dataclass(frozen=True)
class NsConfig:
    """Scheme parameters plus divergence-free, zero-mean initial data.

    The CFL condition tau*U*N^(d/2+1) <= 1/(2e) is enforced at
    construction; enforce_cfl=False bypasses it for flows whose advection
    is known to be degenerate (Taylor-Green studies) while keeping the
    non-finite-state guard during stepping.
    """

    d: int
    N: int
    nu: float
    T: float
    tau: float
    U: float
    u0: GridField
    enforce_cfl: bool = True

    def __post_init__(self):
        if self.d not in (2, 3):
            raise BadParameters(f"dimension must be 2 or 3, got {self.d}")
        scalars = {"nu": self.nu, "T": self.T, "tau": self.tau, "U": self.U}
        if not all(map(math.isfinite, scalars.values())):
            raise BadParameters(f"nu, T, tau and U must be finite, got {scalars}")
        if self.nu < 0:
            raise BadParameters(f"viscosity must be >= 0, got {self.nu}")
        if self.T <= 0 or self.tau <= 0 or self.U <= 0:
            raise BadParameters("T, tau and U must be positive")
        steps = self.T / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise BadParameters(f"T/tau = {steps} is not an integer")
        if self.enforce_cfl and self.tau > max_cfl_timestep(self.U, self.N, self.d) * (1 + 1e-12):
            raise CflViolation(
                f"tau = {self.tau:.3e} exceeds the CFL bound "
                f"{max_cfl_timestep(self.U, self.N, self.d):.3e} for U={self.U}, N={self.N}"
            )
        u0 = self.u0
        if u0.channels != self.d:
            raise BadParameters(f"initial data needs {self.d} channels, got {u0.channels}")
        if u0.grid.N != self.N:
            u0 = leray_project(resample(u0, self.N))
            object.__setattr__(self, "u0", u0)
        nrm = l2_norm(u0)
        if nrm > self.U * (1 + 1e-12):
            raise BadParameters(f"||u0|| = {nrm:.6f} exceeds the energy bound U = {self.U}")
        scale = max(sobolev_norm(u0, 1.0, homogeneous=True), 1e-30)
        if l2_norm(divergence(u0)) > 1e-10 * scale:
            raise BadParameters("initial data is not divergence-free to tolerance")
        m = mean(u0)
        if np.max(np.abs(m)) > 1e-10 * max(np.max(np.abs(u0.values)), 1e-30):
            raise BadParameters("initial data must have zero mean")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.tau)


@dataclass(frozen=True)
class NsState:
    step: int
    u: GridField
    energy: float


def initial_state(config: NsConfig) -> NsState:
    return NsState(0, config.u0, l2_norm(config.u0))


class _Advection:
    """w_half -> half spectrum of PL_N(v . grad w), with v cached on the product grid."""

    def __init__(self, v: GridField):
        g = v.grid
        self.d = g.d
        self._v = _on_grid(_rfft_half(v.values, g.d), g.d, _product_radius(g.N), g.npoints)

    def apply_hat(self, w_half: np.ndarray) -> np.ndarray:
        return _advection_half(self._v, w_half, self.d)


class _InnerMap:
    """w -> base - scale * PL_N(v . grad w) for one outer step, on the half spectrum.

    order 1 (F):  v = u^n,  H = 1 - nu*tau*Lap,     scale = tau H^-1,
                  base = H^-1 u^n;
    order 2 (F2): v = ubar, H = 1 - (nu*tau/2) Lap, scale = (tau/2) H^-1,
                  base = H^-1 (1 + (nu*tau/2) Lap) u^n - scale PL_N(ubar . grad u^n).
    """

    def __init__(self, u: GridField, v: GridField, nu: float, tau: float, order: int):
        g = u.grid
        alpha = nu * tau / order
        k2 = _half_lattice(g.d, g.N).k2[..., None]
        inv_helm = 1.0 / (1.0 + alpha * k2)
        self._adv = _Advection(v)
        self._scale = (tau / order) * inv_helm
        u_hat = _rfft_half(u.values, g.d)
        self.base = inv_helm * (1.0 - (order - 1) * alpha * k2) * u_hat
        if order == 2:
            self.base = self.apply_hat(u_hat)

    def apply_hat(self, w_hat: np.ndarray) -> np.ndarray:
        return self.base - self._scale * self._adv.apply_hat(w_hat)


def picard_map_first(w: GridField, u_n: GridField, nu: float, tau: float) -> GridField:
    """Single application of the first-order inner map F to w."""
    if w.grid != u_n.grid:
        raise BadParameters("w and u_n must share a grid")
    op = _InnerMap(u_n, u_n, nu, tau, 1)
    return GridField(w.grid, _irfft_values(op.apply_hat(_rfft_half(w.values, w.grid.d)), w.grid.d))


def _check_step_cfl(config: NsConfig, u: GridField):
    if not config.enforce_cfl:
        return
    bound = config.tau * l2_norm(u) * float(config.N) ** (config.d / 2.0 + 1.0)
    if bound > 0.5 * (1 + 1e-12):
        raise CflViolation(
            f"per-step CFL violated: tau*||u||*N^(d/2+1) = {bound:.3e} > 1/2"
        )


def _finish_step(state: NsState, w_hat) -> NsState:
    if not np.all(np.isfinite(w_hat)):
        raise NonFiniteState(f"state became non-finite after step {state.step}")
    g = state.u.grid
    return NsState(state.step + 1, GridField(g, _irfft_values(w_hat, g.d)),
                   _half_norm(w_hat, g.d, 1.0))


_STALL_RTOL = 1e-15  # successive iterates equal to round-off: further sweeps are no-ops


def _iterate(op, k_iter: int) -> np.ndarray:
    """k_iter sweeps of op from w = 0, stopping once a sweep is a no-op to round-off.

    The first sweep from w = 0 returns op.base exactly (the advection of
    zero is zero), so the sweeps start there; k_iter <= 0 leaves w = 0.
    """
    if k_iter <= 0:
        return np.zeros_like(op.base)
    w_hat = op.base
    for _ in range(k_iter - 1):
        w_next = op.apply_hat(w_hat)
        delta = np.max(np.abs(w_next - w_hat))
        w_hat = w_next
        if delta <= _STALL_RTOL * max(np.max(np.abs(w_hat)), 1e-300):
            break
    return w_hat


def step_first_order(state: NsState, config: NsConfig, kappa: int | None = None) -> NsState:
    """One outer step: kappa0 Picard sweeps of F from w = 0 (see _iterate).

    The first sweep is F(0), the Helmholtz-filtered u^n, taken without an
    advection product.  Sweeps stop early only when an iterate reproduces
    its predecessor to round-off, in which case the remaining applications
    could not alter the result.
    """
    _check_step_cfl(config, state.u)
    k_iter = kappa if kappa is not None else kappa0(config.T, config.tau, order=1)
    op = _InnerMap(state.u, state.u, config.nu, config.tau, 1)
    return _finish_step(state, _iterate(op, k_iter))


def step_second_order(
    prev: NsState, cur: NsState, config: NsConfig, kappa: int | None = None
) -> NsState:
    """One outer step of the second-order scheme from (u^{n-1}, u^n)."""
    _check_step_cfl(config, cur.u)
    k_iter = kappa if kappa is not None else kappa0(config.T, config.tau, order=2)
    ubar = GridField(cur.u.grid, 1.5 * cur.u.values - 0.5 * prev.u.values)
    op = _InnerMap(cur.u, ubar, config.nu, config.tau, 2)
    return _finish_step(cur, _iterate(op, k_iter))


def _startup_second_order(config: NsConfig) -> NsState:
    """u^1 via the first-order scheme on [0, tau] with n_T sub-steps."""
    n_sub = config.n_steps
    sub = replace(config, T=config.tau, tau=config.tau / n_sub)
    state = initial_state(sub)
    for _ in range(n_sub):
        state = step_first_order(state, sub)
    return NsState(1, state.u, state.energy)


@dataclass
class NsRun:
    final: NsState
    energies: list = field(default_factory=list)
    kappa: int = 0
    states: list | None = None


def simulate(
    config: NsConfig,
    scheme: str = "first",
    kappa: int | None = None,
    record_states: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir=None,
) -> NsRun:
    """March the chosen scheme to T; energy history is always recorded."""
    if scheme not in ("first", "second"):
        raise BadParameters(f"scheme must be 'first' or 'second', got {scheme!r}")
    state = initial_state(config)
    k_used = kappa if kappa is not None else kappa0(config.T, config.tau, order=1 if scheme == "first" else 2)
    run = NsRun(final=state, energies=[state.energy], kappa=k_used,
                states=[state] if record_states else None)

    def record(s: NsState):
        run.energies.append(s.energy)
        if run.states is not None:
            run.states.append(s)
        if checkpoint_every and checkpoint_dir and s.step % checkpoint_every == 0:
            from .fieldio import save_field

            save_field(s.u, f"{checkpoint_dir}/state_{s.step:06d}")

    if scheme == "first":
        for _ in range(config.n_steps):
            state = step_first_order(state, config, kappa)
            record(state)
    else:
        prev, state = state, _startup_second_order(config)
        record(state)
        for _ in range(config.n_steps - 1):
            prev, state = state, step_second_order(prev, state, config, kappa)
            record(state)
    run.final = state
    return run


def energy(state: NsState) -> float:
    """L^2 norm of the velocity (Parseval)."""
    return l2_norm(state.u)


def taylor_green(nu: float, t: float, N: int, d: int = 2, amplitude: float = 1.0) -> GridField:
    """Exact decaying vortex u = A (cos x1 sin x2, -sin x1 cos x2) e^{-2 nu t}.

    Divergence-free, zero-mean, and an exact Navier-Stokes solution (the
    advection term is a pure gradient, annihilated by the Leray projection).
    """
    if d != 2:
        raise BadParameters("the analytic vortex oracle is two-dimensional")
    g = Grid(2, N)
    decay = amplitude * math.exp(-2.0 * nu * t)
    return field_from_function(
        g,
        lambda x, y: (decay * np.cos(x) * np.sin(y), -decay * np.sin(x) * np.cos(y)),
    )


def random_divergence_free(grid: Grid, rng: np.random.Generator, norm: float) -> GridField:
    """Leray-projected random band-limited field, envelope exp(-|k|/2), of L2 norm `norm`."""
    u = idft(random_hermitian_coeffs(grid, rng, channels=grid.d,
                                     decay=lambda kk: np.exp(-0.5 * kk), zero_mean=True))
    u = leray_project(u)
    nrm = l2_norm(u)
    if nrm == 0.0:
        raise BadParameters("degenerate random field draw")
    return GridField(grid, u.values * (norm / nrm))


def inner_iterate_errors(state: NsState, config: NsConfig, kappa_ref: int = 60):
    """Distances ||w* - w^k||_{L2} of the inner iterates to a converged
    reference w* (kappa_ref sweeps), for k = 0..kappa0.  Returns the list
    and ||u^n||_{L2}."""
    op = _InnerMap(state.u, state.u, config.nu, config.tau, 1)
    k_iter = kappa0(config.T, config.tau, order=1)
    iterates = [np.zeros_like(op.base)]
    for _ in range(max(kappa_ref, k_iter)):
        iterates.append(op.apply_hat(iterates[-1]))
    errs = [_half_norm(iterates[-1] - w, config.d, 1.0) for w in iterates[: k_iter + 1]]
    return errs, l2_norm(state.u)
