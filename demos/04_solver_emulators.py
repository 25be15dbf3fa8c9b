"""Networks that replay the solvers, block by block.

The Darcy emulator stacks K copies of [gradient F-layer, product
sigma-layer, combine/update F-layer with the lifted source as bias]; the
Navier-Stokes emulator stacks n_T * kappa0 advection blocks.  Both are
calibrated against the actual solvers until the end-to-end discrepancy
meets the target.  Run:  python3 demos/04_solver_emulators.py
"""

import numpy as np

from psifno import darcy as dm
from psifno import navier_stokes as ns
from psifno.emulation import build_darcy_emulator, build_ns_emulator
from psifno.fno import fno_forward, size_report
from psifno.spectral import Grid, GridField, field_from_function, l2_norm, resample

print("== Darcy emulator ==")
lam, k, N, eps = 0.5, 1, 8, 1e-3
f = field_from_function(Grid(2, 2 * N), lambda x, y: np.cos(x) + np.sin(2 * y))
net = build_darcy_emulator(f, lam, N, k, B=2.0, eps=eps, rng=np.random.default_rng(0))
rep = size_report(net)
print(f"  K = {net.meta['K']} fixed-point blocks -> depth {rep.depth}, "
      f"lift {rep.lift}, width {rep.width}")
print(f"  calibrated h = {net.meta['h']:.2e}, verified error {net.meta['measured_error']:.2e}")

rng = np.random.default_rng(1)
print("  probe   ||emulator(a) - solver(a)||_H1")
for p in range(5):
    a = dm.random_decay_coefficient(2, 2 * N, lam, rng)
    sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
    err = dm.h1_error_against(fno_forward(net, a), resample(sol.u, 2 * N))
    print(f"  {p}       {err:.3e}   (target {eps})")

print("\n== Navier-Stokes emulator ==")
N, nu, n_T = 8, 0.05, 4
u0 = ns.taylor_green(nu, 0.0, N, amplitude=0.1)
U = 2.0 * l2_norm(u0)
tau = 0.9 * ns.max_cfl_timestep(U, N, 2)
cfg = ns.NsConfig(d=2, N=N, nu=nu, T=n_T * tau, tau=tau, U=U, u0=u0)
net = build_ns_emulator(cfg, eps_total=1e-3, rng=np.random.default_rng(2))
rep = size_report(net)
print(f"  n_T = {n_T}, kappa0 = {net.meta['kappa0']} -> depth {rep.depth} "
      f"(2 layers for the first sweep of a step, 3 per later sweep), lift {rep.lift}")

for name, v0 in [("taylor-green", u0),
                 ("random", ns.random_divergence_free(Grid(2, N),
                                                      np.random.default_rng(3),
                                                      norm=0.8 * U))]:
    c2 = ns.NsConfig(d=2, N=N, nu=nu, T=cfg.T, tau=tau, U=U, u0=v0)
    run = ns.simulate(c2, "first")
    got = fno_forward(net, v0)
    err = l2_norm(GridField(got.grid, got.values - resample(run.final.u, 2 * N).values))
    print(f"  {name:12s} trajectory-end discrepancy {err:.3e}")
