import pickle

import numpy as np
import pytest

from psifno import darcy as dm
from psifno import emulation
from psifno import navier_stokes as ns
from psifno.emulation import (
    H0,
    H_MIN,
    X0,
    X0_ID,
    AffineApproxSpec,
    _calibrate,
    _calibrate_steps,
    _probe_error,
    _psi_decode,
    _sigma_layer,
    _sq_decode,
    _sq_units,
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
from psifno.fno import (
    FnoLayer, FourierMultiplier, PsiFno, activation, compose, fno_forward, save_model,
    size_report,
)
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


STEPS = (0.1, 0.05, 0.025, 0.0125)


class TestGadget:
    """The unit-pair encoder and the sq_h / psi_h decoders on their own."""

    XS = np.linspace(-1.5, 1.5, 31)

    @staticmethod
    def decoded_product(ab, h, act, x0):
        """v_a * v_b decoded from the six units of one product, for each row (a, b) of ab."""
        layer = _sigma_layer(6, [(0, 1)], h, x0=x0)[0]
        weights, const = _sq_decode(h, act, x0)
        return act(ab @ layer.weight[:, :2].T + layer.bias) @ weights + const

    @staticmethod
    def assert_second_order(errs):
        """Errors over STEPS fall about 4x per halving of h: O(h^2)."""
        ratios = [errs[j] / errs[j + 1] for j in range(len(errs) - 1)]
        assert all(3.5 < r < 4.5 for r in ratios), ratios

    @pytest.mark.parametrize("name", ["tanh", "gelu"])
    @pytest.mark.parametrize("x0", [X0, 0.7])
    def test_product_error_is_second_order(self, name, x0):
        A, B = np.meshgrid(self.XS, self.XS, indexing="ij")
        ab = np.stack([A.ravel(), B.ravel()], axis=-1)
        act = activation(name)
        self.assert_second_order([
            float(np.max(np.abs(self.decoded_product(ab, h, act, x0) - ab[:, 0] * ab[:, 1])))
            for h in STEPS
        ])

    def test_product_units_layout(self):
        layer, units, row_c = _sigma_layer(6, [(0, 2)], 0.5)
        want = np.zeros((6, 6))
        want[:, 0] = [0.5, -0.5, 0.5, -0.5, 0.0, 0.0]
        want[:, 2] = [0.5, -0.5, 0.0, 0.0, 0.5, -0.5]
        assert np.array_equal(layer.weight, want)
        assert np.array_equal(layer.bias, [X0] * 6)
        assert units.tolist() == [[0, 1, 2, 3, 4, 5]] and row_c == 6

    @pytest.mark.parametrize("name", ["tanh", "gelu"])
    def test_shift_without_columns_decodes_its_square(self, name):
        # the pair of (shift) in the a + b slot and bare sigma(X0) pairs for a and b
        # decode to (sq_h(shift) - 0 - 0) / 2
        act = activation(name)
        errs = []
        for h in STEPS:
            W, bias = np.zeros((6, 1)), np.zeros(self.XS.shape + (6,))
            _sq_units(W, bias, 0, (), h, shift=self.XS)
            _sq_units(W, bias, 2, (), h)
            _sq_units(W, bias, 4, (), h)
            assert not W.any()
            weights, const = _sq_decode(h, act)
            errs.append(float(np.max(np.abs(2.0 * (act(bias) @ weights + const) - self.XS**2))))
        self.assert_second_order(errs)

    def test_shift_adds_to_the_columns(self):
        # sigma(X0 +- h (v + t)) and sigma(X0 +- h v) with sigma(X0 +- h t) decode v * t,
        # the layout of the coefficient networks
        act = activation("tanh")
        t = np.cos(self.XS)
        errs = []
        for h in STEPS:
            W, bias = np.zeros((6, 1)), np.zeros(self.XS.shape + (6,))
            _sq_units(W, bias, 0, (0,), h, shift=t)
            _sq_units(W, bias, 2, (0,), h)
            _sq_units(W, bias, 4, (), h, shift=t)
            weights, const = _sq_decode(h, act)
            got = act(self.XS[:, None] @ W.T + bias) @ weights + const
            errs.append(float(np.max(np.abs(got - self.XS * t))))
        self.assert_second_order(errs)

    @staticmethod
    def decoded_identity(y, h, act):
        W, bias = np.zeros((2, 1)), np.zeros(2)
        _sq_units(W, bias, 0, (0,), h, x0=X0_ID)
        units = act(y[:, None] @ W.T + bias)
        return _psi_decode(h, act) * (units[:, 0] - units[:, 1])

    def test_identity_error_is_second_order_for_tanh(self):
        act = activation("tanh")
        self.assert_second_order([
            float(np.max(np.abs(self.decoded_identity(self.XS, h, act) - self.XS)))
            for h in STEPS
        ])

    def test_identity_is_exact_to_round_off_for_gelu(self):
        # gelu(x) - gelu(-x) = x, so the psi_h gadget has no truncation error
        act = activation("gelu")
        for h in STEPS:
            assert np.max(np.abs(self.decoded_identity(self.XS, h, act) - self.XS)) <= 1e-14

    def test_decoders_match_the_gadget_formulas(self):
        act = activation("gelu")
        weights, const = _sq_decode(0.25, act, 0.7)
        denom = 2.0 * 0.25**2 * act.d2(0.7)
        assert np.array_equal(weights, np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]) / denom)
        assert const == 2.0 * act(0.7) / denom
        assert _psi_decode(0.25, act) == 1.0 / (2.0 * 0.25 * act.d1(X0_ID))


class TestFieldProducts:
    """_sigma_layer on channel x field products, the coefficient networks' layout."""

    GRID = Grid(1, 4)
    X = GRID.coordinates()[0]
    PRODUCTS = [(0, np.cos(X)), (0, np.sin(2 * X)), (1, 0.5 - np.cos(3 * X))]

    def test_layout(self):
        layer, units, _ = _sigma_layer(16, self.PRODUCTS, 0.5, grid=self.GRID)
        assert layer.d_v == 16 == 4 * 3 + 2 * 2
        assert isinstance(layer.bias, GridField) and layer.apply_activation
        # column 0's pair is written once, after every product's pairs
        assert units.tolist() == [[0, 1, 12, 13, 2, 3], [4, 5, 12, 13, 6, 7],
                                  [8, 9, 14, 15, 10, 11]]
        assert np.flatnonzero(layer.weight[:, 0]).tolist() == [0, 1, 4, 5, 12, 13]
        assert np.flatnonzero(layer.weight[:, 1]).tolist() == [8, 9, 14, 15]
        assert np.array_equal(layer.bias.values[..., 12:], np.full(self.X.shape + (4,), X0))

    def test_units_decode_each_product_to_second_order(self):
        act = activation("tanh")
        v = np.stack([np.linspace(-1.5, 1.5, self.X.size),
                      np.linspace(1.2, -0.8, self.X.size)], axis=-1)
        errs = []
        for h in STEPS:
            layer, units, _ = _sigma_layer(16, self.PRODUCTS, h, grid=self.GRID)
            out = act(v @ layer.weight[:, :2].T + layer.bias.values)
            weights, const = _sq_decode(h, act)
            errs.append(max(float(np.max(np.abs(out[:, u] @ weights + const - v[:, col] * f)))
                            for u, (col, f) in zip(units, self.PRODUCTS)))
        TestGadget.assert_second_order(errs)


def _small_ns_config(d: int, N: int = 2, U: float = 0.5):
    tau = 0.9 * ns.max_cfl_timestep(U, N, d)
    u0 = ns.random_divergence_free(Grid(d, N), np.random.default_rng(0), norm=0.9 * U)
    return ns.NsConfig(d=d, N=N, nu=0.05, T=2 * tau, tau=tau, U=U, u0=u0)


# name -> (builder of a small network in dimension d, its lift); the Navier-Stokes
# builders draw divergence-free probes, which one dimension lacks, so they run at d = 2, 3
PAIR_BUILDERS = {
    "darcy-emulator": (lambda d: build_darcy_emulator(
        field_from_function(Grid(d, 4), lambda *x: np.cos(x[0]) + np.sin(2 * x[-1])),
        0.5, 2, 1, B=2.0, eps=1e-2), lambda d: 4 * d + 4),
    "ns-emulator": (lambda d: build_ns_emulator(_small_ns_config(d), eps_total=1e-2),
                    lambda d: 4 * d * d + 4 * d),
    "darcy-nonlinearity": (lambda d: build_nonlinearity_net_darcy(2, 1.0, 1e-2, d=d),
                           lambda d: 4 * d + 2),
    "ns-nonlinearity": (lambda d: build_ns_nonlinearity_net(2, 1.0, 1e-2, d=d),
                        lambda d: 4 * d * d + 2 * d),
}


class TestEachPairWrittenOnce:
    """Each unit pair sigma(x0 +- h y) of a sigma-layer is written once: an operand
    shared by several products (a in the Darcy products a * g_i, each u_i in d NS
    products) has one pair, so the lift is the count of distinct pairs."""

    @pytest.mark.parametrize("name,d", [(name, d) for name in PAIR_BUILDERS
                                        for d in ((2, 3) if name.startswith("ns") else (1, 2))])
    def test_lift_counts_distinct_pairs(self, name, d):
        build, lift = PAIR_BUILDERS[name]
        net = build(d)
        assert net.d_v == lift(d)
        activated = {id(L): L for L in net.layers if L.apply_activation}.values()
        assert activated
        for layer in activated:
            bias = layer.bias.values if isinstance(layer.bias, GridField) else layer.bias
            rows = {(layer.weight[r].tobytes(), bias[..., r].tobytes()) for r in range(net.d_v)}
            assert len(rows) == net.d_v


def _no_work(*_, **__):
    raise AssertionError("a solve or forward ran before the target check")


# name -> entry point taking (B, eps); the Navier-Stokes emulator takes only eps_total
TARGET_ENTRIES = {
    "product-spec": lambda B, eps: ProductNetSpec(B, eps),
    "affine-spec": lambda B, eps: AffineApproxSpec(FnoLayer(1, np.eye(1)), Grid(1, 2), B, eps),
    "darcy-nonlinearity": lambda B, eps: build_nonlinearity_net_darcy(2, B, eps),
    "ns-nonlinearity": lambda B, eps: build_ns_nonlinearity_net(2, B, eps),
    "darcy-emulator": lambda B, eps: build_darcy_emulator(
        field_from_function(Grid(2, 4), lambda x, y: np.cos(x)), 0.5, 2, 1, B, eps),
    "ns-emulator": lambda B, eps: build_ns_emulator(_small_ns_config(2), eps),
    "ft-emulator": lambda B, eps: build_ft_emulator(2, B, eps),
    "ift-emulator": lambda B, eps: build_ift_emulator(2, B, eps),
    "strictify": lambda B, eps: strictify(
        PsiFno(Grid(1, 2), np.eye(1), (FnoLayer(1, np.eye(1), None, None, False),), np.eye(1)),
        B, eps),
}


class TestTargetsChecked:
    """Every builder refuses a bound or accuracy target that is not finite and > 0
    before it solves or forwards anything."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for module, name in ((dm, "solve"), (ns, "simulate"), (emulation, "fno_forward"),
                             (emulation, "layer_forward")):
            monkeypatch.setattr(module, name, _no_work)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", TARGET_ENTRIES)
    def test_rejected_before_any_work(self, entry, value):
        with pytest.raises(BadParameters, match="finite and positive"):
            TARGET_ENTRIES[entry](1.0, value)
        if entry != "ns-emulator":
            with pytest.raises(BadParameters, match="finite and positive"):
                TARGET_ENTRIES[entry](value, 1e-3)


class TestDarcyEmulatorIntegers:
    """The Darcy emulator takes N and k as integers >= 1: an integral float builds the
    same network, anything else is refused before any work."""

    @staticmethod
    def _build(N, k=1):
        f = field_from_function(Grid(2, 4), lambda x, y: np.cos(x) + np.sin(2 * y))
        return build_darcy_emulator(f, 0.5, N, k, 2.0, 1e-2, rng=np.random.default_rng(9))

    def test_integral_float_saves_the_same_bytes(self, tmp_path):
        for name, N, k in (("int", 2, 1), ("float", 2.0, 1.0)):
            save_model(self._build(N, k), tmp_path / name)
        assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()

    @pytest.mark.parametrize("N,k", [(2.5, 1), (float("nan"), 1), (0, 1), (2, 1.5)])
    def test_rejected_before_any_work(self, monkeypatch, N, k):
        for name in ("solve", "random_decay_coefficient"):
            monkeypatch.setattr(dm, name, _no_work)
        with pytest.raises(BadParameters, match="positive integer"):
            self._build(N, k)


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

    def test_runs_on_the_product_grid(self, darcy_emulator_small):
        # 2M+1 >= 3N+1 points carry the degree-2N products exactly (25^2 at N = 8, not 33^2)
        from psifno.spectral import _half_lattice, _half_resize, _product_radius, _rfft_half

        net, f, N, lam, k = darcy_emulator_small
        assert net.grid == Grid(2, _product_radius(N)) and net.grid.N == 12
        a = dm.random_decay_coefficient(2, 2 * N, lam, np.random.default_rng(42))
        got = fno_forward(net, a)
        assert got.grid == net.grid
        half = _rfft_half(got.values, 2)
        above_N = np.max(np.abs(_half_lattice(2, net.grid.N).k), axis=-1) > N
        assert np.max(np.abs(half[above_N])) <= 1e-12 * np.max(np.abs(half))
        # folding a 2N-grid input onto the network grid aliases only above N: modes
        # |k|_inf <= N keep their coefficients
        folded = resample(a, net.grid.N)
        kept = [_half_resize(_rfft_half(g.values, 2) / g.grid.size, 2, N) for g in (a, folded)]
        assert np.max(np.abs(kept[1] - kept[0])) <= 1e-15 * np.max(np.abs(kept[0]))
        # fno_forward folds a 2N-grid input the same way
        assert np.array_equal(fno_forward(net, folded).values, got.values)

    def test_finer_coefficient_stays_within_eps(self, darcy_emulator_small):
        # a 4N-grid coefficient folds straight onto the network grid, not through the
        # 2N grid as the solver folds it; the replayed coefficients differ above 2N only
        net, f, N, lam, k = darcy_emulator_small
        a = dm.random_decay_coefficient(2, 4 * N, lam, np.random.default_rng(1))
        sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
        assert dm.h1_error_against(fno_forward(net, a), resample(sol.u, 2 * N)) <= 1e-3

    def test_depth_logarithmic_in_N(self, monkeypatch):
        monkeypatch.setattr(emulation, "CALIBRATION_PROBES", 2)
        lam, k = 0.5, 1
        f16 = field_from_function(Grid(2, 32), lambda x, y: np.cos(x))
        ratios = []
        for N in (4, 8, 16):
            net = build_darcy_emulator(f16, lam, N, k, B=2.0, eps=5e-3,
                                       rng=np.random.default_rng(14))
            ratios.append(size_report(net).depth / np.log(N))
        # depth = 3K with K <= k log(N)/|log(1-lam/2)| + 1
        bound = 3.0 * k / abs(np.log(1 - lam / 2)) + 3.0 / np.log(4)
        assert max(ratios) <= bound
        assert max(ratios) / min(ratios) < 2.0

    def test_metadata_records_calibration(self, darcy_emulator_small):
        net, *_ = darcy_emulator_small
        assert "h" in net.meta and "measured_error" in net.meta and "K" in net.meta

    def test_combined_error_against_true_solution(self, monkeypatch):
        # ||emulator(a) - u*||_H1 <= ||solver - u*||_H1 + eps on a
        # manufactured problem (triangle inequality, both sides measured)
        monkeypatch.setattr(emulation, "CALIBRATION_PROBES", 3)
        N, lam, k, eps = 8, 0.5, 1, 1e-3
        rng = np.random.default_rng(45)
        a, f, u_star = dm.manufactured_problem(2, lam, k, N_max=N, rng=rng)
        net = build_darcy_emulator(f, lam, N, k, B=2.0, eps=eps,
                                   rng=np.random.default_rng(46))
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
        assert max(s.width for s in steps if not s.activated) == 3  # of 4d + 4 = 12 channels
        save_model(net, tmp_path / "emulator.psifno")
        again = load_model(tmp_path / "emulator.psifno")
        assert len({id(L) for L in again.layers}) == 3
        assert np.array_equal(fno_forward(again, a).values, fno_forward(net, a).values)
        assert len({id(s) for s in again._plans[again.grid].steps}) == 5

    def test_ns_first_sweep_makes_no_transform_of_its_own(self, monkeypatch):
        # the ns-emu-n8 benchmark settings: n_T = 4 steps of kappa0 = 4 sweeps, the
        # first sweep of each a linear base layer fused into its neighbours
        import psifno.fno

        u0 = ns.taylor_green(0.05, 0.0, 8, amplitude=0.1)
        U = 2.0 * l2_norm(u0)
        tau = 0.9 * ns.max_cfl_timestep(U, 8, 2)
        cfg = ns.NsConfig(d=2, N=8, nu=0.05, T=4 * tau, tau=tau, U=U, u0=u0)
        net = build_ns_emulator(cfg, eps_total=1e-3, rng=np.random.default_rng(800))
        calls = {"forward": 0, "inverse": 0}
        for name, kind in (("_rfft_half", "forward"), ("_irfft_values", "inverse")):
            real = getattr(psifno.fno, name)
            monkeypatch.setattr(psifno.fno, name, lambda *x, real=real, kind=kind:
                                calls.__setitem__(kind, calls[kind] + 1) or real(*x))
        fno_forward(net, u0)
        assert calls == {"forward": 13, "inverse": 13}
        steps = net._plans[net.grid].steps
        assert len(steps) == 25 and sum(s.activated for s in steps) == 12


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
        # per time step: first | from_w, base, then (sweep, L2, L3) per later sweep
        net, _ = small
        n_T, kap = net.meta["n_T"], net.meta["kappa0"]
        assert net.depth == n_T * (3 * kap - 1)
        steps = [net.layers[n * (3 * kap - 1):(n + 1) * (3 * kap - 1)] for n in range(n_T)]
        assert len({id(step[0]) for step in steps}) == 2  # first, from_w
        assert len({id(step[1]) for step in steps}) == 1  # base
        assert len({id(layer) for step in steps for layer in step[2::3]}) == 1  # sweep
        assert len({id(layer) for layer in net.layers}) == 6

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
        assert net.depth == cfg.n_steps * (3 * kap - 1)

    def test_single_sweep_has_no_gadget(self):
        # kappa0 = 1 (T = tau): the step is F(0) = H^-1 u, which base writes exactly
        N, d, nu, U = 8, 2, 0.05, 0.5
        tau = 0.9 * ns.max_cfl_timestep(U, N, d)
        u0 = ns.random_divergence_free(Grid(d, N), np.random.default_rng(15), norm=0.9 * U)
        cfg = ns.NsConfig(d=d, N=N, nu=nu, T=tau, tau=tau, U=U, u0=u0)
        net = build_ns_emulator(cfg, eps_total=1e-3, rng=np.random.default_rng(16))
        assert net.meta["kappa0"] == 1 and net.depth == 2
        assert not any(layer.apply_activation for layer in net.layers)
        ref = resample(ns.simulate(cfg, "first").final.u, 2 * N)
        assert np.max(np.abs(fno_forward(net, u0).values - ref.values)) <= 1e-12


def test_emulator_plans_keep_matmul_operands_c_ordered(darcy_emulator_small):
    # an F-ordered transpose as a matmul operand doubled the cost of these products
    darcy, _, N, lam, _ = darcy_emulator_small
    u0 = ns.taylor_green(0.05, 0.0, 8, amplitude=0.1)  # the ns-emu-n8 benchmark settings
    U = 2.0 * l2_norm(u0)
    tau = 0.9 * ns.max_cfl_timestep(U, 8, 2)
    cfg = ns.NsConfig(d=2, N=8, nu=0.05, T=4 * tau, tau=tau, U=U, u0=u0)
    navier = build_ns_emulator(cfg, eps_total=1e-3, rng=np.random.default_rng(800))
    a = dm.random_decay_coefficient(2, 2 * N, lam, np.random.default_rng(140))
    for net, inp in ((darcy, a), (navier, u0)):
        fno_forward(net, inp)
        plan = net._plans[net.grid]
        weights = [s.weight for s in plan.steps if s.weight is not None]
        contractions = [s.conv.M for s in plan.steps if s.conv is not None]
        assert weights and contractions
        for operand in weights + contractions + [plan.lifting.T, plan.projection.T]:
            assert operand.flags.c_contiguous


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

    @pytest.mark.parametrize("d,N", [(1, 2), (2, 2)])
    def test_outputs_are_exactly_constant(self, d, N):
        # the zero-mode multiplier leaves nothing to vary over the grid, so the
        # calibration's sup error is each coefficient channel's error
        net = build_ft_emulator(N, B=1.0, eps=1e-3, d=d)
        rng = np.random.default_rng(19)
        for _ in range(3):
            out = fno_forward(net, unit_ball_field(Grid(d, N), rng)).values
            assert np.ptp(out.reshape(-1, out.shape[-1]), axis=0).max() == 0.0

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
        probe = resample(unit_ball_field(Grid(2, N), rng), g2.N)
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
    def test_leaves_the_callers_layers_as_they_were(self):
        # strictify forwards probes through every layer and wraps the activated ones;
        # none of that may write to a layer of the network it was given
        g = Grid(1, 4)
        rng = np.random.default_rng(23)
        raw = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        s = 0.5 * (raw + np.conj(raw[::-1]))  # P(-k) = conj(P(k))
        mult = FourierMultiplier(1, 4, [(s, rng.standard_normal((2, 2)) / 2)], 2)
        layers = (FnoLayer(2, rng.standard_normal((2, 2)), rng.standard_normal(2), mult, False),
                  FnoLayer(2, rng.standard_normal((2, 2)), None, mult, True))
        net = PsiFno(g, rng.standard_normal((2, 1)), layers, rng.standard_normal((1, 2)))
        before = [pickle.dumps(vars(layer)) for layer in net.layers]
        strictify(net, B=1.0, eps=1e-2, rng=np.random.default_rng(24))
        assert [pickle.dumps(vars(layer)) for layer in net.layers] == before

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
