"""The four workloads: set-up, one oracle-checked operation, and why.

Each workload is driven by one client in a closed loop through psifno's
public API.  Every operation input comes from the workload seed; the
networks themselves are built from fixed calibration seeds (the ones the
acceptance suite uses where it has one), so set-up does the same work on
every seed.  Calls go through module attributes (`fno.fno_forward`, not a
local alias) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from psifno import cli, darcy, deeponet, emulation, fno, navier_stokes as ns, spectral
from psifno.spectral import Grid, GridField

TWO_PI = 2.0 * np.pi


@dataclass
class OpResult:
    ok: bool
    parts: dict = field(default_factory=dict)  # "forward" / "solve" seconds
    detail: dict = field(default_factory=dict)


class DarcyEmulator:
    name = "darcy-emu-n32"
    why = ("ROADMAP headline case: 30-layer Darcy emulator on a 129^2 grid, "
           "transform-bound forward pass against a Fourier-Galerkin solve")
    cycle = 1
    N, LAM, K, EPS, B = 32, 0.5, 1, 1e-3, 2.0
    BUILD_SEED = 732  # acceptance C7 calibration seed at N = 32

    def source(self):
        return spectral.field_from_function(
            Grid(2, 2 * self.N), lambda x, y: np.cos(x) + np.sin(2 * y))

    def setup(self, ctx):
        f = self.source()
        t0 = perf_counter()
        built = emulation.build_darcy_emulator(
            f, self.LAM, self.N, self.K, B=self.B, eps=self.EPS,
            rng=np.random.default_rng(self.BUILD_SEED))
        build_s = perf_counter() - t0
        path = ctx.tmp / "darcy.psifno"
        fno.save_model(built, path)
        net = fno.load_model(path)
        a = darcy.random_decay_coefficient(2, 2 * self.N, self.LAM, ctx.setup_rng)
        same = np.array_equal(fno.fno_forward(net, a).values, fno.fno_forward(built, a).values)
        return SimpleNamespace(net=net, f=f, build_s=build_s,
                               checks={"loaded_output_equals_built": bool(same)}, info={})

    def op(self, st, rng, index):
        a = darcy.random_decay_coefficient(2, 2 * self.N, self.LAM, rng)
        t0 = perf_counter()
        sol = darcy.solve(darcy.DarcyProblem(a, st.f, self.LAM, self.K, self.N))
        t1 = perf_counter()
        got = fno.fno_forward(st.net, a)
        t2 = perf_counter()
        err = darcy.h1_error_against(got, spectral.resample(sol.u, 2 * self.N))
        return OpResult(err <= self.EPS, {"solve": t1 - t0, "forward": t2 - t1},
                        {"err_H1": err})


class NsEmulator:
    name = "ns-emu-n8"
    why = ("48-layer NS emulator on a 33^2 grid that fits in cache: "
           "multiplier-bound forward pass against a tiny semi-implicit simulate")
    cycle = 1
    N, NU, N_T, EPS = 8, 0.05, 4, 1e-3
    BUILD_SEED = 800  # acceptance C8

    def config(self, u0, U):
        tau = 0.9 * ns.max_cfl_timestep(U, self.N, 2)
        return ns.NsConfig(d=2, N=self.N, nu=self.NU, T=self.N_T * tau, tau=tau, U=U, u0=u0)

    def setup(self, ctx):
        u0 = ns.taylor_green(self.NU, 0.0, self.N, amplitude=0.1)
        U = 2.0 * spectral.l2_norm(u0)
        t0 = perf_counter()
        net = emulation.build_ns_emulator(self.config(u0, U), eps_total=self.EPS,
                                          rng=np.random.default_rng(self.BUILD_SEED))
        build_s = perf_counter() - t0
        return SimpleNamespace(net=net, U=U, build_s=build_s, checks={}, info={})

    def op(self, st, rng, index):
        v0 = ns.random_divergence_free(Grid(2, self.N), rng, norm=0.8 * st.U)
        t0 = perf_counter()
        run = ns.simulate(self.config(v0, st.U), "first")
        t1 = perf_counter()
        got = fno.fno_forward(st.net, v0)
        t2 = perf_counter()
        ref = spectral.resample(run.final.u, 2 * self.N)
        err = spectral.l2_norm(GridField(got.grid, got.values - ref.values))
        return OpResult(err <= self.EPS, {"solve": t1 - t0, "forward": t2 - t1},
                        {"err_L2": err})


class SolverStudies:
    name = "solver-studies"
    why = ("no network: darcy-converge and ns-converge CLI runs with --jobs 2, "
           "so fno/emulation changes should leave it unchanged")
    cycle = 2  # one darcy-converge run, then one ns-converge run
    JOBS = 2

    def setup(self, ctx):
        configs = {
            "darcy-converge": {"lambda": 0.5, "k": 2, "N_list": [8, 16, 32, 64],
                               "source": {"kind": "manufactured"}},
            "ns-converge": {"d": 2, "N": 16, "nu": 0.05, "T": 4.0, "U": 4.5,
                            "scheme": "second", "tau_list": [0.04, 0.02],
                            "checkpoint_every": 10,
                            "checkpoint_dir": str(ctx.tmp / "checkpoints")},
        }
        paths = {}
        for kind, params in configs.items():
            paths[kind] = ctx.tmp / f"{kind}.json"
            paths[kind].write_text(json.dumps(
                {"schema": "psifno-experiment/1", "kind": kind, "seed": 0, "params": params}))
        return SimpleNamespace(paths=paths, out=ctx.tmp / "out", build_s=0.0, checks={},
                               info={})

    def op(self, st, rng, index):
        kind = "darcy-converge" if index % 2 == 0 else "ns-converge"
        seed = int(rng.integers(2**31))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main([kind, "--config", str(st.paths[kind]), "--out", str(st.out),
                           "--seed", str(seed), "--jobs", str(self.JOBS)])
        return OpResult(rc == 0, {}, {"kind": kind, "exit_code": rc,
                                      "output": sink.getvalue()[-400:]})


class CoefficientNets:
    name = "coeff-nets"
    why = ("wide FT/IFT coefficient nets on a 9^2 grid plus DeepONet export, "
           "save/load and off-grid evaluation")
    cycle = 1
    N_FT, EPS_FT, B_FT = 4, 1e-3, 1.0
    N_DON, D_V, DEPTH = 8, 3, 2
    BUILD_SEED = 924   # acceptance C9 seed for d = 2, N = 4
    EXPORT_SEED = 10

    def _export_network(self, rng):
        # the deeponet-export experiment's network at d = 2, N = 8, d_v = 3, depth 2
        g, d_v = Grid(2, self.N_DON), self.D_V
        layers = []
        for _ in range(self.DEPTH):
            w = rng.standard_normal((d_v, d_v)) / d_v
            raw = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            s = 0.5 * (raw + np.conj(np.flip(raw, axis=(0, 1))))
            mult = fno.FourierMultiplier(2, self.N_DON,
                                         [(s, rng.standard_normal((d_v, d_v)) / d_v)], d_v)
            layers.append(fno.FnoLayer(d_v, w, spectral.random_field(g, rng, channels=d_v),
                                       mult, True))
        return fno.PsiFno(g, rng.standard_normal((d_v, 1)), tuple(layers),
                          rng.standard_normal((1, d_v)) / d_v)

    def setup(self, ctx):
        rng = np.random.default_rng(self.BUILD_SEED)
        t0 = perf_counter()
        ft = emulation.build_ft_emulator(self.N_FT, B=self.B_FT, eps=self.EPS_FT / 2, d=2,
                                         rng=rng)
        ift = emulation.build_ift_emulator(self.N_FT, B=self.B_FT, eps=self.EPS_FT / 2, d=2,
                                           rng=rng)
        build_s = perf_counter() - t0
        pipe = fno.compose(ift, ft)
        rng = np.random.default_rng(self.EXPORT_SEED)
        dnet = self._export_network(rng)
        export = deeponet.to_deeponet(dnet, B=1.0, rng=rng)
        base = ctx.tmp / "export"
        deeponet.save_deeponet(export, dnet, base)
        loaded = deeponet.load_deeponet(base)
        return SimpleNamespace(
            ft=ft, pipe=pipe, dnet=dnet, export=loaded, build_s=build_s, checks={},
            info={"B_bar_saved": export.B_bar, "B_bar_loaded": loaded.B_bar,
                  "roundtrip_mismatch": int(loaded.B_bar != export.B_bar)})

    def op(self, st, rng, index):
        g = Grid(2, self.N_FT)
        v = spectral.idft(spectral.random_hermitian_coeffs(g, rng))
        v = GridField(g, v.values * (0.9 * self.B_FT / (spectral.l2_norm(v) or 1.0)))
        t0 = perf_counter()
        want = spectral.dft(v).coeffs[..., 0].ravel()
        t1 = perf_counter()
        out = fno.fno_forward(st.ft, v).values.reshape(-1, 2 * g.size).mean(axis=0)
        back = fno.fno_forward(st.pipe, v)
        t2 = perf_counter()
        coeff_err = float(np.max(np.abs(out[0::2] + 1j * out[1::2] - want)))
        comp_err = float(np.max(np.abs(
            spectral.dft(GridField(g, back.values - v.values)).coeffs)))

        a = spectral.idft(spectral.random_hermitian_coeffs(Grid(2, self.N_DON), rng))
        t3 = perf_counter()
        grid_out = fno.fno_forward(st.dnet, a)
        t4 = perf_counter()
        pts = rng.uniform(0, TWO_PI, size=(3, 2))
        exact = spectral.evaluate(grid_out, pts)
        t5 = perf_counter()
        got = st.export.evaluate(a, pts)
        scale = max(float(np.max(np.abs(grid_out.values))), 1e-30)
        rel = float(np.max(np.abs(got - exact))) / scale
        ok = coeff_err <= self.EPS_FT and comp_err <= self.EPS_FT and rel <= 1e-9
        return OpResult(ok, {"forward": (t2 - t1) + (t4 - t3), "solve": (t1 - t0) + (t5 - t4)},
                        {"coeff_err": coeff_err, "compose_err": comp_err, "off_grid_rel": rel})


WORKLOADS = {w.name: w for w in (DarcyEmulator, NsEmulator, SolverStudies, CoefficientNets)}
