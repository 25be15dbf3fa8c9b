import numpy as np
import pytest

from psifno.deeponet import (
    build_trunk_networks,
    gram_defect,
    load_deeponet,
    save_deeponet,
    to_deeponet,
    trigonometric_basis,
)
from psifno.errors import BadParameters
from psifno.fno import FnoLayer, FourierMultiplier, PsiFno, activation, fno_forward
from psifno.spectral import (
    Grid,
    GridField,
    evaluate,
    idft,
    l2_norm,
    random_field,
    random_hermitian_coeffs,
    resample,
)

from helpers import probe_layer_dense, rel_err, small_random_net


def identity_net(grid):
    return PsiFno(grid, np.eye(1), (FnoLayer(1, np.eye(1), None, None, False),), np.eye(1))


class TestBasis:
    def test_count_matches_mode_set(self):
        for d, N in [(1, 3), (2, 2)]:
            basis = trigonometric_basis(Grid(d, N))
            assert len(basis) == (2 * N + 1) ** d

    def test_orthonormal(self):
        g = Grid(2, 2)
        export = to_deeponet(identity_net(g), B=1.0)
        assert gram_defect(export) <= 1e-10


class TestToDeeponet:
    def test_identity_net_reproduces_interpolant_off_grid(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(0)
        a = random_field(Grid(1, 7), rng)
        export = to_deeponet(identity_net(g), B=1.0, rng=rng)
        pts = rng.uniform(0, 2 * np.pi, size=(12, 1))
        want = evaluate(resample(a, 3), pts)
        got = export.evaluate(resample(a, 3), pts)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1.0)

    def test_random_net_off_grid_agreement(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(1)
        net = small_random_net(g, rng)
        export = to_deeponet(net, B=1.0, rng=rng)
        worst = 0.0
        for seed in range(100):
            r2 = np.random.default_rng(seed)
            a = idft(random_hermitian_coeffs(g, r2))
            out = fno_forward(net, a)
            pts = r2.uniform(0, 2 * np.pi, size=(1, 1))
            want = evaluate(out, pts)
            scale = max(np.max(np.abs(out.values)), 1e-30)
            got = export.evaluate(a, pts)
            worst = max(worst, np.max(np.abs(got - want)) / scale)
        assert worst <= 1e-9

    def test_2d_multichannel(self):
        g = Grid(2, 1)
        rng = np.random.default_rng(2)
        net = small_random_net(g, rng, d_a=2, d_v=3, d_u=2)
        export = to_deeponet(net, B=1.0, rng=rng)
        a = random_field(g, rng, channels=2)
        out = fno_forward(net, a)
        pts = rng.uniform(0, 2 * np.pi, size=(7, 2))
        want = evaluate(out, pts)
        got = export.evaluate(a, pts)
        assert rel_err(got, want) <= 1e-9

    def test_width_depth_equalities(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(3)
        net = small_random_net(g, rng, d_v=4, depth=3)
        export = to_deeponet(net, B=1.0, rng=rng)
        assert export.width == 4 * g.size
        assert export.depth == 3
        assert export.p == 1 * g.size

    def test_sensor_points_are_the_grid(self):
        g = Grid(1, 2)
        export = to_deeponet(identity_net(g), B=1.0)
        assert export.sensor_points.shape == (5, 1)
        assert np.allclose(export.sensor_points[:, 0], g.axis_coordinates())

    def test_b_bar_positive_and_recorded(self):
        g = Grid(1, 1)
        export = to_deeponet(identity_net(g), B=2.0)
        assert export.B_bar > 0
        assert export.meta["B"] == 2.0


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = Grid(1, 2)
        rng = np.random.default_rng(4)
        net = small_random_net(g, rng)
        export = to_deeponet(net, B=1.0, rng=rng)
        save_deeponet(export, net, tmp_path / "model")
        again = load_deeponet(tmp_path / "model")
        a = random_field(g, np.random.default_rng(5))
        pts = np.array([[0.3], [5.1]])
        assert rel_err(again.evaluate(a, pts), export.evaluate(a, pts)) < 1e-12
        assert again.p == export.p
        assert again.B_bar == export.B_bar

    def test_load_rebuilds_branch_without_forwards(self, tmp_path, monkeypatch):
        import psifno.deeponet
        import psifno.fno

        g = Grid(2, 2)
        rng = np.random.default_rng(7)
        net = small_random_net(g, rng)
        export = to_deeponet(net, B=1.5, rng=rng)
        save_deeponet(export, net, tmp_path / "model")

        def no_forward(*args, **kwargs):
            raise AssertionError("load_deeponet ran fno_forward")

        monkeypatch.setattr(psifno.fno, "fno_forward", no_forward)
        assert not hasattr(psifno.deeponet, "fno_forward")
        again = load_deeponet(tmp_path / "model")
        assert len(again.branch.layers) == len(export.branch.layers)
        for (M1, c1, act1), (M2, c2, act2) in zip(again.branch.layers, export.branch.layers):
            assert np.array_equal(M1, M2) and np.array_equal(c1, c2) and act1 == act2
        assert again.trunk == export.trunk
        assert again.meta == export.meta
        assert np.array_equal(again.sensor_points, export.sensor_points)

    def test_round_trip_keeps_shared_layers(self, tmp_path):
        from psifno.fno import load_model

        g = Grid(2, 2)
        rng = np.random.default_rng(8)
        base = small_random_net(g, rng, d_v=3, depth=2)
        net = PsiFno(g, base.lifting, base.layers * 2, base.projection)
        export = to_deeponet(net, B=1.0, rng=rng)
        save_deeponet(export, net, tmp_path / "model")
        assert len({id(L) for L in load_model(tmp_path / "model.psifno").layers}) == 2
        again = load_deeponet(tmp_path / "model")
        for (M1, c1, act1), (M2, c2, act2) in zip(again.branch.layers, export.branch.layers,
                                                  strict=True):
            assert np.array_equal(M1, M2) and np.array_equal(c1, c2) and act1 == act2
        a = random_field(g, rng)
        pts = rng.uniform(0, 2 * np.pi, size=(7, 2))
        assert np.array_equal(again.evaluate(a, pts), export.evaluate(a, pts))

    def test_descriptor_mismatch_rejected(self, tmp_path):
        import json

        g = Grid(1, 2)
        net = identity_net(g)
        save_deeponet(to_deeponet(net, B=1.0), net, tmp_path / "model")
        path = tmp_path / "model.deeponet.json"
        doc = json.loads(path.read_text())
        doc["trunk"] = doc["trunk"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(BadParameters):
            load_deeponet(tmp_path / "model")
        path.write_text("{not json")
        with pytest.raises(BadParameters):
            load_deeponet(tmp_path / "model")

    def test_json_descriptor_fields(self, tmp_path):
        import json

        g = Grid(1, 1)
        net = identity_net(g)
        export = to_deeponet(net, B=1.0)
        save_deeponet(export, net, tmp_path / "model")
        doc = json.loads((tmp_path / "model.deeponet.json").read_text())
        assert set(doc) >= {"p", "d_u", "sensor_points", "trunk", "branch"}
        assert (tmp_path / "model.psifno").exists()


class TestApproximateTrunk:
    def test_verified_bound(self):
        g = Grid(1, 1)
        export = to_deeponet(identity_net(g), B=1.0)
        eps = 0.02 * export.B_bar
        nets, bound = build_trunk_networks(export, eps)
        assert len(nets) == len(export.trunk)
        assert bound <= eps / export.B_bar

    def test_end_to_end_with_approximate_trunk(self):
        g = Grid(1, 1)
        rng = np.random.default_rng(6)
        net = small_random_net(g, rng, d_v=2, depth=1)
        export = to_deeponet(net, B=1.0, rng=rng)
        eps = 0.05 * export.B_bar
        nets, _ = build_trunk_networks(export, eps)
        a = idft(random_hermitian_coeffs(g, rng))
        pts = rng.uniform(0, 2 * np.pi, size=(50, 1))
        beta = export.branch_coefficients(a)
        approx_T = np.stack([tn(pts)[:, 0] for tn in nets], axis=-1)
        got = approx_T @ beta
        want = evaluate(fno_forward(net, a), pts)
        assert np.max(np.abs(got - want)) <= eps

    def test_unreachable_bound_raises(self):
        g = Grid(1, 2)
        export = to_deeponet(identity_net(g), B=1.0)
        # target below the staircase floor for a sane unit count is detected
        with pytest.raises(BadParameters):
            build_trunk_networks(export, eps=1e-13 * export.B_bar)


class TestStructuralExport:
    @pytest.mark.parametrize("d, N, W", [(1, 4, 2), (2, 3, 2), (2, 2, 2)])
    def test_layer_matrix_matches_column_prober(self, d, N, W):
        from psifno.deeponet import _layer_dense

        g = Grid(d, N)
        rng = np.random.default_rng(40 + 10 * d + N)
        d_v = 3
        shape = (2 * W + 1,) * d
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(d)))))
        mult = FourierMultiplier(d, W, [(s, rng.standard_normal((d_v, d_v)))], d_v)
        layer = FnoLayer(d_v, rng.standard_normal((d_v, d_v)),
                         random_field(g, rng, channels=d_v), mult, True)
        act = activation("tanh")
        M, c = _layer_dense(layer, g, act)
        M_ref, c_ref = probe_layer_dense(layer, g, act)
        assert rel_err(M, M_ref) <= 1e-13
        assert np.array_equal(c, c_ref)

    def test_export_makes_d_v_plus_one_layer_calls_per_layer(self, monkeypatch):
        import psifno.deeponet
        import psifno.fno

        g = Grid(2, 3)
        net = small_random_net(g, np.random.default_rng(41), d_v=3, depth=2)
        calls = []
        original = psifno.fno.layer_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(psifno.fno, "layer_forward", counting)
        monkeypatch.setattr(psifno.deeponet, "layer_forward", counting)
        to_deeponet(net, B=1.0, rng=np.random.default_rng(42))
        assert len(calls) <= net.depth * (net.d_v + 1)

    def test_b_bar_matches_forward_norms(self):
        g = Grid(2, 2)
        net = small_random_net(g, np.random.default_rng(43), d_a=2, d_u=2)
        export = to_deeponet(net, B=1.5, rng=np.random.default_rng(44), norm_probes=5)
        rng = np.random.default_rng(44)
        sup_out = 0.0
        for _ in range(5):
            a = idft(random_hermitian_coeffs(g, rng, channels=2))
            a = GridField(g, a.values * (1.5 / np.max(np.abs(a.values))))
            sup_out = max(sup_out, l2_norm(fno_forward(net, a)))
        assert abs(export.B_bar - g.size * sup_out) <= 1e-12 * export.B_bar
