import numpy as np
import pytest

from psifno import darcy as dm
from psifno import navier_stokes as ns
from psifno.emulation import (
    H0,
    H_MIN,
    AffineApproxSpec,
    _calibrate,
    _calibrate_steps,
    _probe_error,
    ProductNetSpec,
    build_affine_approx,
    build_darcy_emulator,
    build_ft_emulator,
    build_ift_emulator,
    build_nonlinearity_net_darcy,
    build_ns_emulator,
    build_ns_nonlinearity_net,
    build_product_net,
    darcy_nonlinearity_oracle,
    fourier_conjugate_pipeline,
    ns_nonlinearity_oracle,
    strictify,
)
from psifno.errors import BadParameters, CalibrationFailed
from psifno.fno import FnoLayer, FourierMultiplier, PsiFno, compose, fno_forward, size_report
from psifno.spectral import (
    Grid,
    GridField,
    dft,
    derivative,
    field_from_function,
    idft,
    l2_norm,
    random_hermitian_coeffs,
    resample,
    sobolev_norm,
)

from helpers import reference_forward, rel_err


def unit_ball_field(grid, rng, norm=1.0, channels=1):
    v = idft(random_hermitian_coeffs(grid, rng, channels=channels))
    return GridField(grid, v.values * (norm / (l2_norm(v) or 1.0)))


class TestCalibrate:
    def test_returns_first_step_meeting_target(self):
        tried = []

        def build(h):
            tried.append(h)
            return ("net", h)

        net, err = _calibrate(build, lambda net: net[1], 0.1, 0.5)
        assert tried == [0.5, 0.25, 0.125, 0.0625]
        assert net == ("net", 0.0625) and err == 0.0625

    def test_raises_once_h_falls_below_h_min(self):
        tried = []
        with pytest.raises(CalibrationFailed):
            _calibrate(lambda h: tried.append(h) or h, lambda net: 1.0, 0.5, 1.0)
        assert tried == [2.0**-j for j in range(41)]
        assert tried[-1] == H_MIN


class TestCalibrateSteps:
    @staticmethod
    def run(budget, sup_carry, sup_prod, accept_at=None):
        """(net, steps tried); build numbers its attempts and attempt accept_at passes."""
        tried = []

        def build(h, h_c):
            tried.append((h, h_c))
            return len(tried)

        net = _calibrate_steps(build, budget, sup_carry, sup_prod,
                               lambda n: 0.0 if n == accept_at else 1.0, 0.5)
        return net, tried

    @pytest.mark.parametrize("sup_carry, sup_prod", [(2.0, 5.0), (40.0, 1.5), (0.1, 0.1)])
    def test_steps_start_from_budget_and_halve_together(self, sup_carry, sup_prod):
        budget = 1e-6
        net, tried = self.run(budget, sup_carry, sup_prod, accept_at=5)
        assert net == 5 and len(tried) == 5
        h, h_c = tried[0]
        assert h == min(H0, float(np.sqrt(budget / (0.9 * max(sup_prod, 1.0) ** 4))))
        assert h_c == min(H0, float(np.sqrt(3.0 * budget / max(sup_carry, 1.0) ** 3)))
        for j, (hj, hcj) in enumerate(tried):
            assert hj == h * 2.0**-j and hcj == h_c * 2.0**-j
            assert hj / hcj == h / h_c

    def test_large_budget_starts_both_steps_at_h0(self):
        _, tried = self.run(1e6, 1.0, 1.0, accept_at=1)
        assert tried == [(H0, H0)]

    @pytest.mark.parametrize("sup_carry, sup_prod", [(2.0, 5.0), (40.0, 1.5)])
    def test_fails_once_smaller_step_drops_below_h_min(self, sup_carry, sup_prod):
        tried = []

        def build(h, h_c):
            tried.append((h, h_c))

        with pytest.raises(CalibrationFailed):
            _calibrate_steps(build, 1e-6, sup_carry, sup_prod, lambda net: 1.0, 0.5)
        assert all(min(t) >= H_MIN for t in tried)
        assert 0.5 * min(tried[-1]) < H_MIN


class TestProbeError:
    def test_worst_probe_under_each_norm(self):
        g = Grid(2, 3)
        rng = np.random.default_rng(60)
        identity = PsiFno(g, np.eye(1), (), np.eye(1))
        inputs = [unit_ball_field(g, rng, norm=s) for s in (0.5, 2.0, 1.0)]
        wants = [unit_ball_field(g, rng, norm=0.1) for _ in inputs]
        diffs = [GridField(g, x.values - w.values) for x, w in zip(inputs, wants)]
        for norm in (lambda e: float(np.max(np.abs(e.values))), l2_norm,
                     lambda e: sobolev_norm(e, 1.0)):
            per_probe = [norm(e) for e in diffs]
            assert _probe_error(inputs, wants, norm)(identity) == max(per_probe)
        assert _probe_error(inputs, wants)(identity) == max(l2_norm(e) for e in diffs)

    def test_exact_net_has_zero_error(self):
        g = Grid(1, 4)
        rng = np.random.default_rng(61)
        identity = PsiFno(g, np.eye(2), (), np.eye(2))
        inputs = [unit_ball_field(g, rng, channels=2) for _ in range(3)]
        assert _probe_error(inputs, inputs)(identity) == 0.0


class TestProductNet:
    def test_accuracy_on_dense_probe(self):
        net = build_product_net(ProductNetSpec(B=4.0, eps=1e-4))
        xs = np.linspace(-4, 4, 57)
        A, B = np.meshgrid(xs, xs, indexing="ij")
        probes = np.stack([A.ravel(), B.ravel()], axis=-1)
        err = np.max(np.abs(net(probes)[:, 0] - probes[:, 0] * probes[:, 1]))
        assert err <= 1e-4
        assert abs(net(np.array([2.0, 3.0]))[0] - 6.0) <= 1e-4

    def test_zero_factor_within_accuracy(self):
        net = build_product_net(ProductNetSpec(B=2.0, eps=1e-5))
        bs = np.linspace(-2, 2, 41)
        probes = np.stack([np.zeros_like(bs), bs], axis=-1)
        assert np.max(np.abs(net(probes))) <= 1e-5

    def test_symmetry(self):
        net = build_product_net(ProductNetSpec(B=3.0, eps=1e-4))
        rng = np.random.default_rng(0)
        ab = rng.uniform(-3, 3, size=(100, 2))
        fwd = net(ab)[:, 0]
        rev = net(ab[:, ::-1])[:, 0]
        assert np.max(np.abs(fwd - rev)) <= 2e-4

    def test_constant_size_across_accuracy(self):
        n1 = build_product_net(ProductNetSpec(B=2.0, eps=1e-3))
        n2 = build_product_net(ProductNetSpec(B=2.0, eps=1e-6))
        assert n1.width == n2.width and n1.depth == n2.depth

    def test_calibration_failure_reported(self):
        with pytest.raises(CalibrationFailed):
            build_product_net(ProductNetSpec(B=1e8, eps=1e-12))

    def test_rejects_flat_expansion_point(self):
        with pytest.raises(BadParameters):
            ProductNetSpec(B=1.0, eps=1e-3, x0=0.0)  # tanh''(0) = 0

    def test_gelu_variant(self):
        net = build_product_net(ProductNetSpec(B=2.0, eps=1e-4, activation="gelu"))
        assert abs(net(np.array([1.5, -0.5]))[0] + 0.75) <= 1e-4


class TestAffineApprox:
    def test_identity_target(self):
        g = Grid(1, 3)
        layer = FnoLayer(1, np.eye(1), None, None, False)
        net = build_affine_approx(AffineApproxSpec(layer, g, B=1.0, eps=1e-6))
        rng = np.random.default_rng(1)
        v = unit_ball_field(g, rng)
        out = fno_forward(net, v)
        assert np.max(np.abs(out.values - v.values)) <= 1e-6

    def test_psi_gadget_vanishes_at_zero(self):
        g = Grid(1, 2)
        layer = FnoLayer(1, np.eye(1), None, None, False)
        net = build_affine_approx(AffineApproxSpec(layer, g, B=1.0, eps=1e-5))
        zero = GridField(g, np.zeros(g.shape + (1,)))
        assert np.max(np.abs(fno_forward(net, zero).values)) == 0.0

    def test_derivative_target(self):
        g = Grid(1, 4)
        s = np.broadcast_to(1j * np.arange(-4, 5).astype(float), g.shape).copy()
        mult = FourierMultiplier(1, 4, [(s, np.eye(1))], 1)
        layer = FnoLayer(1, None, None, mult, False)
        net = build_affine_approx(AffineApproxSpec(layer, g, B=1.0, eps=1e-5))
        v = field_from_function(g, lambda x: np.sin(x) / np.sqrt(2 * np.pi))
        out = fno_forward(net, v)
        want = derivative(v, 0)
        assert np.max(np.abs(out.values - want.values)) <= 1e-5

    def test_all_layers_activated(self):
        g = Grid(1, 2)
        layer = FnoLayer(2, np.eye(2), np.array([0.1, -0.2]), None, False)
        net = build_affine_approx(AffineApproxSpec(layer, g, B=1.0, eps=1e-5))
        assert all(lay.apply_activation for lay in net.layers)

    def test_records_measured_error(self):
        g = Grid(1, 2)
        layer = FnoLayer(1, 2.0 * np.eye(1), None, None, False)
        net = build_affine_approx(AffineApproxSpec(layer, g, B=1.0, eps=1e-5))
        assert 0.0 < net.meta["measured_error"] <= 1e-5


class TestDarcyNonlinearity:
    def test_zero_coefficient(self):
        N, eps = 4, 1e-3
        net = build_nonlinearity_net_darcy(N, B=1.0, eps=eps, d=2,
                                           rng=np.random.default_rng(2))
        g2 = Grid(2, 2 * N)
        rng = np.random.default_rng(3)
        u = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
        zero_a = GridField(g2, np.zeros(g2.shape + (1,)))
        inp = GridField(g2, np.concatenate([zero_a.values, u.values], axis=-1))
        out = fno_forward(net, inp)
        assert l2_norm(out) <= eps

    def test_matches_oracle_on_fresh_probes(self):
        N, eps = 4, 1e-3
        net = build_nonlinearity_net_darcy(N, B=1.0, eps=eps, d=2,
                                           rng=np.random.default_rng(4))
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(20):
            a = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
            u = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
            inp = GridField(a.grid, np.concatenate([a.values, u.values], axis=-1))
            got = fno_forward(net, inp)
            want = darcy_nonlinearity_oracle(a, u)
            worst = max(worst, l2_norm(GridField(got.grid, got.values - want.values)))
        assert worst <= eps

    def test_unit_coefficient_single_mode(self):
        N, eps = 4, 1e-3
        net = build_nonlinearity_net_darcy(N, B=3.0, eps=eps, d=2,
                                           rng=np.random.default_rng(6))
        g2 = Grid(2, 2 * N)
        a = GridField(g2, np.ones(g2.shape + (1,)))
        u = field_from_function(g2, lambda x, y: np.sin(x))
        inp = GridField(g2, np.concatenate([a.values, u.values], axis=-1))
        got = fno_forward(net, inp)
        want = darcy_nonlinearity_oracle(a, u)  # = (cos x, 0)
        assert l2_norm(GridField(g2, got.values - want.values)) <= eps

    def test_width_scales_with_grid_but_depth_lift_constant(self):
        reports = []
        for N in (4, 8, 16):
            net = build_nonlinearity_net_darcy(N, B=1.0, eps=5e-3, d=2,
                                               rng=np.random.default_rng(7))
            reports.append(size_report(net))
        widths = [r.width / (4 * N + 1) ** 2 for r, N in zip(reports, (4, 8, 16))]
        assert max(widths) / min(widths) < 1.0001
        assert len({r.depth for r in reports}) == 1
        assert len({r.lift for r in reports}) == 1


class TestNsNonlinearity:
    def test_zero_velocity(self):
        N, eps = 4, 1e-3
        net = build_ns_nonlinearity_net(N, B=1.0, eps=eps, d=2,
                                        rng=np.random.default_rng(8))
        g2 = Grid(2, 2 * N)
        rng = np.random.default_rng(9)
        w = resample(ns.random_divergence_free(Grid(2, N), rng, norm=1.0), 2 * N)
        zero = np.zeros(g2.shape + (2,))
        inp = GridField(g2, np.concatenate([zero, w.values], axis=-1))
        assert l2_norm(fno_forward(net, inp)) <= eps

    def test_shear_mode_self_advection_vanishes(self):
        N, eps = 4, 1e-3
        net = build_ns_nonlinearity_net(N, B=4.0, eps=eps, d=2,
                                        rng=np.random.default_rng(10))
        g2 = Grid(2, 2 * N)
        u = field_from_function(g2, lambda x, y: (np.sin(y), np.zeros_like(x + y)))
        inp = GridField(g2, np.concatenate([u.values, u.values], axis=-1))
        out = fno_forward(net, inp)
        # oracle gives exactly zero for this mode
        assert l2_norm(ns_nonlinearity_oracle(u, u)) < 1e-13
        assert l2_norm(out) <= eps

    def test_matches_oracle_on_fresh_probes(self):
        N, eps = 4, 1e-3
        net = build_ns_nonlinearity_net(N, B=1.0, eps=eps, d=2,
                                        rng=np.random.default_rng(11))
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(20):
            u = resample(ns.random_divergence_free(Grid(2, N), rng, norm=1.0), 2 * N)
            w = resample(ns.random_divergence_free(Grid(2, N), rng, norm=1.0), 2 * N)
            inp = GridField(u.grid, np.concatenate([u.values, w.values], axis=-1))
            got = fno_forward(net, inp)
            want = ns_nonlinearity_oracle(u, w)
            worst = max(worst, l2_norm(GridField(got.grid, got.values - want.values)))
        assert worst <= eps


@pytest.fixture(scope="module")
def darcy_emulator_small():
    N, lam, k = 8, 0.5, 1
    f = field_from_function(Grid(2, 2 * N), lambda x, y: np.cos(x) + np.sin(2 * y))
    net = build_darcy_emulator(f, lam, N, k, B=2.0, eps=1e-3,
                               rng=np.random.default_rng(13))
    return net, f, N, lam, k


class TestDarcyEmulator:
    def test_tracks_solver_on_fresh_probes(self, darcy_emulator_small):
        net, f, N, lam, k = darcy_emulator_small
        worst = 0.0
        for seed in range(5):
            a = dm.random_decay_coefficient(2, 2 * N, lam, np.random.default_rng(200 + seed))
            sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
            got = fno_forward(net, a)
            worst = max(worst, dm.h1_error_against(got, resample(sol.u, 2 * N)))
        assert worst <= 1e-3

    def test_unit_coefficient_gives_lifted_source(self, darcy_emulator_small):
        net, f, N, lam, k = darcy_emulator_small
        g2 = Grid(2, 2 * N)
        a = GridField(g2, np.ones(g2.shape + (1,)))
        sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
        got = fno_forward(net, a)
        err = dm.h1_error_against(got, resample(sol.u, 2 * N))
        assert err <= 1e-3

    def test_depth_logarithmic_in_N(self):
        lam, k = 0.5, 1
        f16 = field_from_function(Grid(2, 32), lambda x, y: np.cos(x))
        ratios = []
        for N in (4, 8, 16):
            net = build_darcy_emulator(f16, lam, N, k, B=2.0, eps=5e-3,
                                       rng=np.random.default_rng(14),
                                       calibration_probes=2)
            ratios.append(size_report(net).depth / np.log(N))
        # depth = 3K with K <= k log(N)/|log(1-lam/2)| + 1
        bound = 3.0 * k / abs(np.log(1 - lam / 2)) + 3.0 / np.log(4)
        assert max(ratios) <= bound
        assert max(ratios) / min(ratios) < 2.0

    def test_metadata_records_calibration(self, darcy_emulator_small):
        net, *_ = darcy_emulator_small
        assert "h" in net.meta and "measured_error" in net.meta and "K" in net.meta

    def test_combined_error_against_true_solution(self):
        # ||emulator(a) - u*||_H1 <= ||solver - u*||_H1 + eps on a
        # manufactured problem (triangle inequality, both sides measured)
        N, lam, k, eps = 8, 0.5, 1, 1e-3
        rng = np.random.default_rng(45)
        a, f, u_star = dm.manufactured_problem(2, lam, k, N_max=N, rng=rng)
        net = build_darcy_emulator(f, lam, N, k, B=2.0, eps=eps,
                                   rng=np.random.default_rng(46),
                                   calibration_probes=3)
        sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
        solver_err = dm.h1_error_against(sol.u, u_star)
        emulator_err = dm.h1_error_against(fno_forward(net, a), u_star)
        assert emulator_err <= solver_err + eps

    def test_error_within_summed_block_allocations(self, darcy_emulator_small):
        # budget discipline: the end-to-end error stays below the sum of the
        # per-block allocations the calibration started from (K * eps/(2K))
        net, f, N, lam, k = darcy_emulator_small
        eps = 1e-3
        per_block = eps / (2.0 * net.meta["K"])
        assert net.meta["measured_error"] <= net.meta["K"] * per_block

    def test_serialization_round_trip(self, darcy_emulator_small, tmp_path):
        from psifno.fno import load_model, save_model

        net, f, N, lam, k = darcy_emulator_small
        save_model(net, tmp_path / "emulator.psifno")
        again = load_model(tmp_path / "emulator.psifno")
        a = dm.random_decay_coefficient(2, 2 * N, lam, np.random.default_rng(40))
        ref = fno_forward(net, a)
        got = fno_forward(again, a)
        assert np.array_equal(got.values, ref.values)
        assert again.meta["K"] == net.meta["K"]


class TestForwardPlanOnEmulators:
    """Each block's activation-free layers (L3 of one block, L1 of the next) run as one step."""

    @staticmethod
    def transforms_per_forward(net, a, monkeypatch) -> int:
        import psifno.fno

        calls = []
        real = psifno.fno._rfft_half
        monkeypatch.setattr(psifno.fno, "_rfft_half", lambda *x: calls.append(1) or real(*x))
        fno_forward(net, a)
        return len(calls)

    def test_darcy_one_transform_per_fused_run(self, darcy_emulator_small, tmp_path, monkeypatch):
        from psifno.fno import load_model, save_model

        net, f, N, lam, k = darcy_emulator_small
        K = net.meta["K"]
        a = dm.random_decay_coefficient(2, 2 * N, lam, np.random.default_rng(41))
        assert self.transforms_per_forward(net, a, monkeypatch) == K + 1  # 2K layer by layer
        steps = net._plans[net.grid].steps
        # L1, L2, (L3, L1), and the last L2 and L3, which drop the atilde carry Q never reads
        assert len(steps) == 2 * K + 1 and len({id(s) for s in steps}) == 5
        assert max(s.width for s in steps if not s.activated) == 3  # of 6d + 2 = 14 channels
        save_model(net, tmp_path / "emulator.psifno")
        again = load_model(tmp_path / "emulator.psifno")
        assert len({id(L) for L in again.layers}) == 3
        assert np.array_equal(fno_forward(again, a).values, fno_forward(net, a).values)
        assert len({id(s) for s in again._plans[again.grid].steps}) == 5


@pytest.fixture(scope="module")
def small():
    N, d, nu, U = 8, 2, 0.05, 0.5
    tau = 0.9 * ns.max_cfl_timestep(U, N, d)
    n_T = 4
    u0 = ns.random_divergence_free(Grid(d, N), np.random.default_rng(15), norm=0.9 * U)
    cfg = ns.NsConfig(d=d, N=N, nu=nu, T=n_T * tau, tau=tau, U=U, u0=u0)
    net = build_ns_emulator(cfg, eps_total=1e-3, rng=np.random.default_rng(16))
    return net, cfg


class TestNsEmulator:
    def test_blocks_share_three_feed_layers(self, small):
        net, _ = small
        n_blocks = net.meta["n_T"] * net.meta["kappa0"]
        assert net.depth == 3 * n_blocks
        assert len({id(layer) for layer in net.layers[0::3]}) == 3
        assert len({id(layer) for layer in net.layers}) == 5

    def test_zero_initial_data(self, small):
        net, cfg = small
        g = Grid(cfg.d, cfg.N)
        zero = GridField(g, np.zeros(g.shape + (cfg.d,)))
        assert l2_norm(fno_forward(net, zero)) <= 1e-3

    def test_tracks_trajectory_on_fresh_probes(self, small):
        net, cfg = small
        worst = 0.0
        for seed in range(3):
            v0 = ns.random_divergence_free(Grid(cfg.d, cfg.N),
                                           np.random.default_rng(300 + seed),
                                           norm=0.8 * cfg.U)
            c2 = ns.NsConfig(d=cfg.d, N=cfg.N, nu=cfg.nu, T=cfg.T, tau=cfg.tau,
                             U=cfg.U, u0=v0)
            run = ns.simulate(c2, "first")
            got = fno_forward(net, v0)
            diff = GridField(got.grid, got.values - resample(run.final.u, 2 * cfg.N).values)
            worst = max(worst, l2_norm(diff))
        assert worst <= 1e-3

    def test_depth_matches_block_count(self, small):
        net, cfg = small
        kap = ns.kappa0(cfg.T, cfg.tau, order=1)
        assert net.depth == 3 * cfg.n_steps * kap


class TestFtIftEmulators:
    def test_constant_field_coefficients(self):
        net = build_ft_emulator(2, B=2.0, eps=1e-3, d=1)
        g = Grid(1, 2)
        c = 0.7  # ||const c||_{L2} = c sqrt(2 pi) <= B
        v = GridField(g, np.full(g.shape + (1,), c))
        out = fno_forward(net, v).values.reshape(-1, 10).mean(axis=0)
        # modes ordered -2..2; k=0 is slot 2 -> channels 4 (Re), 5 (Im)
        assert abs(out[4] - c) <= 1e-3
        others = np.delete(out, 4)
        assert np.max(np.abs(others)) <= 1e-3

    def test_cosine_coefficients(self):
        net = build_ft_emulator(2, B=2.0, eps=1e-3, d=1)
        g = Grid(1, 2)
        v = field_from_function(g, np.cos)
        out = fno_forward(net, v).values.reshape(-1, 10).mean(axis=0)
        assert abs(out[2] - 0.5) <= 1e-3   # k=-1 real part
        assert abs(out[6] - 0.5) <= 1e-3   # k=+1 real part
        assert np.max(np.abs(out[[1, 3, 5, 7]])) <= 1e-3  # imaginary parts

    def test_outputs_are_constant_fields(self):
        net = build_ft_emulator(1, B=1.0, eps=1e-3, d=1)
        rng = np.random.default_rng(17)
        v = unit_ball_field(Grid(1, 1), rng)
        out = fno_forward(net, v).values
        assert np.max(np.std(out, axis=0)) <= 1e-3

    def test_round_trip_composition(self):
        N, eps = 2, 5e-4
        ft = build_ft_emulator(N, B=1.0, eps=eps, d=1)
        ift = build_ift_emulator(N, B=1.0, eps=eps, d=1)
        pipe = compose(ift, ft)
        rng = np.random.default_rng(18)
        worst = 0.0
        for _ in range(10):
            v = unit_ball_field(Grid(1, N), rng, norm=0.9)
            got = fno_forward(pipe, v)
            worst = max(worst, l2_norm(GridField(v.grid, got.values - v.values)))
        # C * eps with a modest constant
        assert worst <= 40 * eps

    def test_fourier_conjugate_slot(self):
        # identity in coefficient space: the pipeline reproduces ift(ft(v))
        N = 1
        ft = build_ft_emulator(N, B=1.0, eps=1e-3, d=1)
        ift = build_ift_emulator(N, B=1.0, eps=1e-3, d=1)
        g = Grid(1, N)
        n_coef = 2 * g.size
        ident = PsiFno(g, np.eye(n_coef), (), np.eye(n_coef))
        pipe = fourier_conjugate_pipeline(ident, ft, ift)
        rng = np.random.default_rng(19)
        v = unit_ball_field(g, rng, norm=0.8)
        got = fno_forward(pipe, v)
        ref = fno_forward(compose(ift, ft), v)
        assert rel_err(got.values, ref.values) < 1e-12


class TestBuilderOutputsValidate:
    def test_networks_pass_full_validation(self, darcy_emulator_small, small):
        from psifno.fno import validate_network

        darcy_net, *_ = darcy_emulator_small
        ns_net, _ = small
        for net in (
            darcy_net,
            ns_net,
            build_nonlinearity_net_darcy(2, B=1.0, eps=5e-3, d=2,
                                         rng=np.random.default_rng(30)),
            build_ft_emulator(1, B=1.0, eps=1e-3, d=1),
            build_ift_emulator(1, B=1.0, eps=1e-3, d=1),
        ):
            validate_network(net)  # raises on any conjugacy/dimension defect

    def test_extracted_f_layers_match_spectral_ops(self, darcy_emulator_small):
        # the first block layer of the solver emulator is the exact
        # zero-mean-truncation + gradient operator
        from psifno.fno import activation, layer_forward
        from psifno.spectral import dft, project

        net, f, N, lam, k = darcy_emulator_small
        g2 = net.grid
        L1 = net.layers[0]
        rng = np.random.default_rng(31)
        probe = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
        state = np.zeros(g2.shape + (net.d_v,))
        state[..., 1] = probe.values[..., 0]  # u channel
        out = layer_forward(L1, GridField(g2, state), activation(net.activation))
        for ax in range(2):
            want = derivative(probe, ax)
            got = out.values[..., 1 + ax]
            assert np.max(np.abs(got - want.values[..., 0])) <= 1e-12 * np.max(
                np.abs(want.values)
            )
        # atilde channel applies the zero-mean truncation exactly
        state2 = np.zeros(g2.shape + (net.d_v,))
        rough = unit_ball_field(g2, rng)
        state2[..., 0] = rough.values[..., 0]
        out2 = layer_forward(L1, GridField(g2, state2), activation(net.activation))
        want2 = idft(project(dft(rough), N, zero_mean=True))
        assert np.max(np.abs(out2.values[..., 0] - want2.values[..., 0])) <= 1e-12


class TestCompiledForwardOnEmulators:
    """Compiled forward against the full-spectrum reference on both solver emulators.

    The two evaluators differ only in round-off, which the sq_h gadget
    amplifies: an ulp eps of a sigma-layer input x0 + h*y (x0 = 1) moves
    each of a product's 6 sigma terms by sigma'(x0) eps ~ 0.42 eps, and the
    product divides by 2 h^2 |sigma''(x0)| ~ 1.28 h^2, so about 2 eps/h^2 per
    product; d = 2 products per block and K = depth/3 blocks (each a
    contraction) give the bound 4 K eps / h^2.
    """

    @staticmethod
    def bound(net) -> float:
        return 4 * (net.depth // 3) * np.finfo(float).eps / net.meta["h"] ** 2

    def test_darcy(self, darcy_emulator_small):
        net, f, N, lam, k = darcy_emulator_small
        rng = np.random.default_rng(40)
        for _ in range(3):
            a = dm.random_decay_coefficient(2, 2 * N, lam, rng)
            got = fno_forward(net, a).values
            assert np.max(np.abs(got - reference_forward(net, a).values)) <= self.bound(net)

    def test_navier_stokes(self, small):
        net, cfg = small
        for i in range(3):
            v0 = ns.random_divergence_free(Grid(2, cfg.N), np.random.default_rng(50 + i),
                                           norm=0.8 * cfg.U)
            got = fno_forward(net, v0).values
            assert np.max(np.abs(got - reference_forward(net, v0).values)) <= self.bound(net)


class TestStrictMode:
    def test_every_layer_activated_and_accurate(self):
        N, eps = 2, 1e-3
        net = build_nonlinearity_net_darcy(N, B=1.0, eps=eps, d=2,
                                           rng=np.random.default_rng(20))
        strict = strictify(net, B=1.5, eps=eps, rng=np.random.default_rng(21))
        assert all(layer.apply_activation for layer in strict.layers)
        assert strict.depth == net.depth
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(5):
            a = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
            u = resample(unit_ball_field(Grid(2, N), rng), 2 * N)
            inp = GridField(a.grid, np.concatenate([a.values, u.values], axis=-1))
            ref = fno_forward(net, inp)
            got = fno_forward(strict, inp)
            worst = max(worst, l2_norm(GridField(ref.grid, got.values - ref.values)))
        assert worst <= eps
