import ast
import json
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import psifno
from psifno.errors import BadParameters, DimensionMismatch, UnknownActivation
from psifno.fno import (
    FnoLayer,
    FourierMultiplier,
    PsiFno,
    _Plan,
    activation,
    compose,
    fno_forward,
    layer_forward,
    load_model,
    save_model,
    size_report,
    validate_network,
)
from psifno.spectral import (
    Grid,
    GridField,
    SpectralCoeffs,
    dft,
    derivative,
    evaluate,
    idft,
    l2_norm,
    random_field,
    resample,
)

from helpers import naive_dft, naive_idft, reference_forward, reference_layer_forward, rel_err


def derivative_multiplier(grid: Grid, d_v: int, src: int, dst_first: int) -> FourierMultiplier:
    """Multiplier with rows dst_first+i <- i*k_i * channel src."""
    ks = grid.modes()
    terms = []
    for axis in range(grid.d):
        s = np.broadcast_to(1j * ks[axis].astype(float), grid.shape).astype(complex)
        A = np.zeros((d_v, d_v))
        A[dst_first + axis, src] = 1.0
        terms.append((s.copy(), A))
    return FourierMultiplier(grid.d, grid.N, terms, d_v)


def random_layer(grid: Grid, d_v: int, rng, apply_activation=True) -> FnoLayer:
    w = rng.standard_normal((d_v, d_v)) / d_v
    bias = random_field(grid, rng, channels=d_v)
    # Hermitian-symmetric multiplier: random real even + imaginary odd parts.
    terms = []
    for _ in range(2):
        raw = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        axes = tuple(range(grid.d))
        s = 0.5 * (raw + np.conj(np.flip(raw, axis=axes)))
        A = rng.standard_normal((d_v, d_v)) / d_v
        terms.append((s, A))
    mult = FourierMultiplier(grid.d, grid.N, terms, d_v)
    return FnoLayer(d_v, w, bias, mult, apply_activation)


def naive_layer_forward(layer: FnoLayer, v: GridField, act) -> np.ndarray:
    """O(|J|^2) reference: explicit DFT sums and dense multiplier matrices."""
    g = v.grid
    pre = np.zeros_like(v.values)
    if layer.weight is not None:
        pre += v.values @ layer.weight.T
    if layer.multiplier is not None:
        chat = naive_dft(v)
        dense = layer.multiplier.dense(g.N)
        out_hat = np.einsum("...mn,...n->...m", dense, chat)
        pre += naive_idft(out_hat, g).real
    if isinstance(layer.bias, GridField):
        pre += layer.bias.values
    elif layer.bias is not None:
        pre += layer.bias
    return act(pre) if layer.apply_activation else pre


class TestActivation:
    def test_tanh_values(self):
        act = activation("tanh")
        assert act(0.0) == 0.0
        assert act.d1(0.0) == 1.0
        assert act.d2(0.0) == 0.0

    def test_tanh_second_derivative_closed_form(self):
        act = activation("tanh")
        t = np.tanh(1.0)
        assert abs(act.d2(1.0) - (-2.0 * t * (1.0 - t**2))) < 1e-15

    @pytest.mark.parametrize("tag", ["tanh", "gelu"])
    def test_derivatives_match_finite_differences(self, tag):
        act = activation(tag)
        xs = np.linspace(-2.5, 2.5, 11)
        h = 1e-5
        fd1 = (act(xs + h) - act(xs - h)) / (2 * h)
        fd2 = (act(xs + h) - 2 * act(xs) + act(xs - h)) / h**2
        assert np.max(np.abs(fd1 - act.d1(xs))) < 1e-8
        assert np.max(np.abs(fd2 - act.d2(xs))) < 1e-5

    def test_gelu_smooth_and_nonpolynomial(self):
        act = activation("gelu")
        xs = np.linspace(-3, 3, 41)
        h = 1e-4
        # Third difference quotient stays bounded (C^3 smoothness probe).
        d3 = (act(xs + 2 * h) - 2 * act(xs + h) + 2 * act(xs - h) - act(xs - 2 * h)) / (
            2 * h**3
        )
        assert np.all(np.isfinite(d3)) and np.max(np.abs(d3)) < 10.0
        # Non-polynomial: second derivative is not constant.
        assert np.std(act.d2(xs)) > 0.01

    def test_unknown_activation(self):
        with pytest.raises(UnknownActivation):
            activation("relu6")


class TestMultiplier:
    def test_rejects_conjugacy_violation(self):
        g = Grid(1, 2)
        s = np.ones(g.shape, dtype=complex)
        s[0] = 2.0  # breaks s(-k) == conj(s(k))
        with pytest.raises(BadParameters):
            FourierMultiplier(1, 2, [(s, np.eye(1))], 1)

    def test_gradient_structure_is_accepted(self):
        # Non-normal multiplier (row i*k) must pass: it maps real to real.
        g = Grid(2, 3)
        m = derivative_multiplier(g, 3, 0, 1)
        rng = np.random.default_rng(0)
        v = random_field(g, rng, channels=3)
        out = m.apply(dft(v).coeffs, g.N)
        got = idft(SpectralCoeffs(g, out)).values
        assert np.all(np.isfinite(got))


class TestLayerForward:
    def test_derivative_layer_matches_spectral_derivative(self):
        g = Grid(2, 4)
        rng = np.random.default_rng(1)
        v = random_field(g, rng, channels=3)
        layer = FnoLayer(3, None, None, derivative_multiplier(g, 3, 0, 1), False)
        out = layer_forward(layer, v, activation("tanh"))
        for axis in range(2):
            want = derivative(v.channel(0), axis).values[..., 0]
            assert rel_err(out.values[..., 1 + axis], want) < 1e-12

    def test_local_layer_is_pointwise_sigma(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(2)
        v = random_field(g, rng, channels=2)
        b = np.array([0.3, -0.1])
        layer = FnoLayer(2, np.eye(2), b, None, True)
        out = layer_forward(layer, v, activation("tanh"))
        assert rel_err(out.values, np.tanh(v.values + b)) < 1e-13

    @pytest.mark.parametrize(
        "d,N,d_v",
        [(1, 2, 3), (1, 8, 2), (1, 16, 2), (2, 3, 2), (2, 7, 1), (3, 1, 2), (3, 2, 1)],
    )
    def test_matches_naive_dft_oracle(self, d, N, d_v):
        g = Grid(d, N)
        rng = np.random.default_rng(3 * d + N)
        v = random_field(g, rng, channels=d_v)
        layer = random_layer(g, d_v, rng)
        act = activation("tanh")
        got = layer_forward(layer, v, act).values
        want = naive_layer_forward(layer, v, act)
        assert rel_err(got, want) < 1e-10

    def test_real_valuedness(self):
        g = Grid(2, 4)
        rng = np.random.default_rng(4)
        v = random_field(g, rng, channels=2)
        layer = random_layer(g, 2, rng, apply_activation=False)
        out = layer_forward(layer, v, activation("tanh"))
        assert np.isrealobj(out.values)

    def test_dimension_mismatch(self):
        g = Grid(1, 2)
        layer = FnoLayer(3, np.eye(3), None, None, True)
        v = random_field(g, np.random.default_rng(5), channels=2)
        with pytest.raises(DimensionMismatch):
            layer_forward(layer, v, activation("tanh"))


def identity_net(grid, d=1):
    layer = FnoLayer(d, np.eye(d), None, None, False)
    return PsiFno(grid, np.eye(d), (layer,), np.eye(d))


def random_net(grid, rng, d_a=1, d_v=3, d_u=1, depth=2, act="tanh"):
    layers = tuple(random_layer(grid, d_v, rng) for _ in range(depth))
    R = rng.standard_normal((d_v, d_a))
    Q = rng.standard_normal((d_u, d_v)) / d_v
    return PsiFno(grid, R, layers, Q, act)


class TestFnoForward:
    def test_identity_net_is_pseudo_spectral_projection(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(6)
        a = random_field(Grid(1, 8), rng)
        out = fno_forward(identity_net(g), a)
        want = resample(a, 3)
        assert rel_err(out.values, want.values) < 1e-12

    def test_input_resampled_to_network_resolution(self):
        g = Grid(1, 4)
        net = identity_net(g)
        a = random_field(Grid(1, 2), np.random.default_rng(7))
        out = fno_forward(net, a)
        assert out.grid.N == 4
        assert rel_err(out.values, resample(a, 4).values) < 1e-12

    def test_channel_mismatch(self):
        g = Grid(1, 2)
        with pytest.raises(DimensionMismatch):
            fno_forward(identity_net(g), random_field(g, np.random.default_rng(8), channels=2))

    def test_off_grid_consistency(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(9)
        net = random_net(g, rng)
        a = random_field(g, rng)
        out = fno_forward(net, a)
        pts = rng.uniform(0, 2 * np.pi, size=(5, 1))
        vals = evaluate(out, pts)
        assert np.all(np.isfinite(vals))


class TestCompose:
    def test_identity_compose(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(10)
        f = random_net(g, rng)
        ident = identity_net(g)
        comp = compose(ident, f)
        a = random_field(g, rng)
        assert rel_err(fno_forward(comp, a).values, fno_forward(f, a).values) < 1e-12

    def test_depth_adds(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(11)
        A = random_net(g, rng, depth=2)
        B = random_net(g, rng, depth=3)
        assert compose(A, B).depth == 5

    def test_forward_equivalence(self):
        g = Grid(2, 2)
        rng = np.random.default_rng(12)
        A = random_net(g, rng, d_a=2, d_v=3, d_u=1, depth=2)
        B = random_net(g, rng, d_a=1, d_v=4, d_u=2, depth=1)
        comp = compose(A, B)
        assert comp.d_v == max(A.d_v, B.d_v)  # channel-padded, lift <= max lift
        for seed in range(3):
            a = random_field(g, np.random.default_rng(seed))
            want = fno_forward(A, fno_forward(B, a))
            got = fno_forward(comp, a)
            assert rel_err(got.values, want.values) < 1e-12

    def test_three_fold_matches_sequential(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(13)
        A = random_net(g, rng, d_a=2, d_u=1)
        B = random_net(g, rng, d_a=3, d_u=2)
        C = random_net(g, rng, d_a=1, d_u=3)
        comp = compose(A, compose(B, C))
        a = random_field(g, rng)
        want = fno_forward(A, fno_forward(B, fno_forward(C, a)))
        assert rel_err(fno_forward(comp, a).values, want.values) < 1e-12

    def test_associativity(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(14)
        A = random_net(g, rng, d_a=2, d_u=1)
        B = random_net(g, rng, d_a=2, d_u=2)
        C = random_net(g, rng, d_a=1, d_u=2)
        left = compose(compose(A, B), C)
        right = compose(A, compose(B, C))
        a = random_field(g, rng)
        assert rel_err(fno_forward(left, a).values, fno_forward(right, a).values) < 1e-12

    def test_layerless_factors(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(15)
        lin = PsiFno(g, np.array([[2.0]]), (), np.array([[0.5]]))
        f = random_net(g, rng)
        a = random_field(g, rng)
        comp1 = compose(lin, f)
        assert rel_err(fno_forward(comp1, a).values, fno_forward(f, a).values) < 1e-12
        comp2 = compose(f, lin)
        assert rel_err(fno_forward(comp2, a).values, fno_forward(f, a).values) < 1e-12
        lin2 = PsiFno(g, np.array([[1.0], [3.0]]), (), np.array([[0.25, -1.0]]))
        comp3 = compose(lin2, lin)
        assert np.array_equal(comp3.lifting, lin2.lifting @ lin.projection @ lin.lifting)
        want = fno_forward(lin2, fno_forward(lin, a))
        assert rel_err(fno_forward(comp3, a).values, want.values) < 1e-12

    def test_rejects_mismatched_channels(self):
        g = Grid(1, 2)
        rng = np.random.default_rng(16)
        A = random_net(g, rng, d_a=2)
        B = random_net(g, rng, d_u=3)
        with pytest.raises(DimensionMismatch):
            compose(A, B)

    def test_shared_layer_widened_once(self, tmp_path):
        g = Grid(1, 3)
        rng = np.random.default_rng(21)
        shared = random_layer(g, 3, rng)
        inner = PsiFno(g, rng.standard_normal((3, 1)), (shared,) * 4, rng.standard_normal((2, 3)))
        outer = random_net(g, rng, d_a=2, d_v=5, d_u=1, depth=2)
        comp = compose(outer, inner)
        assert comp.d_v == 5
        assert len({id(layer) for layer in comp.layers[:4]}) == 1
        save_model(comp, tmp_path / "comp.psifno")
        raw = (tmp_path / "comp.psifno").read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        descs = json.loads(raw[16 : 16 + hlen])["layers"]
        assert descs[1:4] == [{"same_as": 0}] * 3
        a = random_field(g, rng)
        want = reference_forward(outer, reference_forward(inner, a)).values
        assert rel_err(fno_forward(comp, a).values, want) < 1e-12
        assert rel_err(reference_forward(comp, a).values, want) < 1e-12

    def test_foreign_bias_grid_left_to_validation(self):
        g = Grid(1, 3)
        rng = np.random.default_rng(22)
        stray = FnoLayer(2, None, random_field(Grid(1, 2), rng, channels=2), None, True)
        inner = PsiFno(g, np.ones((2, 1)), (stray,), np.ones((1, 2)))
        comp = compose(random_net(g, rng, d_v=3, depth=1), inner)
        assert comp.layers[0].bias.grid == Grid(1, 2)
        with pytest.raises(DimensionMismatch, match="grid"):
            validate_network(comp)


class TestValidateNetwork:
    """validate_network runs the per-layer checks of a plan compile."""

    # a multiplier off the N = 2 line grid: radius 3 > N, or two-dimensional
    @pytest.mark.parametrize("d,W,match", [(1, 3, "radius"), (2, 1, "dimension")])
    def test_multiplier_off_the_grid(self, d, W, match):
        m = FourierMultiplier(d, W, [(hermitian_modes(d, W, np.random.default_rng(23)),
                                      np.eye(1))], 1)
        net = PsiFno(Grid(1, 2), np.eye(1), (FnoLayer(1, None, None, m, True),), np.eye(1))
        with pytest.raises(DimensionMismatch, match=match):
            validate_network(net)

    def test_non_conjugate_multiplier(self):
        with pytest.raises(BadParameters, match="conjugacy"):
            validate_network(non_conjugate_net(Grid(2, 2)))


class TestSizeReport:
    def test_documented_example(self):
        # d_a=d_u=1, d_v=2, L=3, d=1, N=4 -> |J_N|=9 and
        # size = 2 + 3*(4 + 18 + 36) + 2 = 178.
        g = Grid(1, 4)
        layers = tuple(FnoLayer(2, np.eye(2), None, None, True) for _ in range(3))
        net = PsiFno(g, np.ones((2, 1)), layers, np.ones((1, 2)))
        rep = size_report(net)
        assert rep.size == 178
        assert rep.depth == 3
        assert rep.lift == 2
        assert rep.width == 2 * 9

    def test_layerless_size(self):
        g = Grid(1, 2)
        net = PsiFno(g, np.ones((3, 2)), (), np.ones((4, 3)))
        assert size_report(net).size == 2 * 3 + 4 * 3

    def test_width_formula(self):
        g = Grid(2, 8)
        net = PsiFno(g, np.ones((4, 1)), (), np.ones((1, 4)))
        assert size_report(net).width == 4 * 289


class TestResolutionSelfConsistency:
    def test_refinement_differences_decrease(self):
        # Fixed finite-width network on a fixed input with algebraic spectral
        # decay: successive resolution differences must decrease.
        rng = np.random.default_rng(17)
        from psifno.spectral import random_hermitian_coeffs

        fine = Grid(1, 96)
        c = random_hermitian_coeffs(fine, rng, decay=lambda kk: (1.0 + kk) ** -2.5)
        a = idft(c)

        def net_at(N):
            g = Grid(1, N)
            # multiplier supported on |k| <= 2 at every resolution
            s = np.zeros(g.shape, dtype=complex)
            ks = np.arange(-N, N + 1)
            s[np.abs(ks) <= 2] = 1.0
            mult = FourierMultiplier(1, N, [(s, np.array([[0.4]]))], 1)
            layer = FnoLayer(1, np.array([[0.7]]), np.array([0.1]), mult, True)
            return PsiFno(g, np.eye(1), (layer,), np.eye(1))

        outs = {}
        for N in (4, 8, 16, 32):
            outs[N] = fno_forward(net_at(N), a)
        diffs = []
        for N in (4, 8, 16):
            fine_out = outs[2 * N]
            coarse_up = resample(outs[N], 2 * N)
            diffs.append(l2_norm(GridField(fine_out.grid, fine_out.values - coarse_up.values)))
        assert diffs[0] > diffs[1] > diffs[2]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = Grid(2, 3)
        rng = np.random.default_rng(18)
        net = random_net(g, rng, d_a=2, d_v=3, d_u=2, depth=2)
        path = tmp_path / "model.psifno"
        save_model(net, path)
        again = load_model(path)
        a = random_field(g, rng, channels=2)
        assert rel_err(fno_forward(again, a).values, fno_forward(net, a).values) == 0.0
        assert again.activation == net.activation
        assert again.depth == net.depth

    def test_magic_string(self, tmp_path):
        g = Grid(1, 1)
        net = identity_net(g)
        path = tmp_path / "model.psifno"
        save_model(net, path)
        assert path.read_bytes().startswith(b"PSIFNO2")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.psifno"
        path.write_bytes(b"NOTPSIFNO")
        with pytest.raises(BadParameters):
            load_model(path)

    @staticmethod
    def shared_net(rng) -> PsiFno:
        g = Grid(2, 3)
        A, B = random_layer(g, 3, rng, False), random_layer(g, 3, rng)
        return PsiFno(g, rng.standard_normal((3, 2)), (A, B, A, A, B), np.ones((1, 3)))

    def test_shared_layers_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        net = self.shared_net(rng)
        save_model(net, tmp_path / "shared.psifno")
        again = load_model(tmp_path / "shared.psifno")
        ids = [id(layer) for layer in again.layers]
        assert [ids.index(i) for i in ids] == [0, 1, 0, 0, 1]
        a = random_field(net.grid, rng, channels=2)
        assert np.array_equal(fno_forward(again, a).values, fno_forward(net, a).values)
        copies = PsiFno(net.grid, net.lifting, tuple(
            FnoLayer(L.d_v, L.weight, L.bias, L.multiplier, L.apply_activation)
            for L in net.layers), net.projection)
        save_model(copies, tmp_path / "copies.psifno")
        shared_bytes = (tmp_path / "shared.psifno").stat().st_size
        assert shared_bytes < 0.5 * (tmp_path / "copies.psifno").stat().st_size
        again = load_model(tmp_path / "copies.psifno")  # files without same_as load unshared
        assert len({id(layer) for layer in again.layers}) == 5
        assert np.array_equal(fno_forward(again, a).values, fno_forward(net, a).values)

    # the first same_as sits at layer 2: itself, later layers, out of range, not an int
    @pytest.mark.parametrize("ref", [b"2", b"4", b"9", b"-1", b"true", b"0.0", b'"0"', b"null"])
    def test_bad_same_as_rejected(self, tmp_path, ref):
        path = tmp_path / "shared.psifno"
        save_model(self.shared_net(np.random.default_rng(20)), path)
        raw = path.read_bytes()
        edit = lambda h: h.replace(b'{"same_as": 0}', b'{"same_as": ' + ref + b'}', 1)
        garbled = TestLoadHardening._rewrite(raw, edit)
        assert garbled != raw
        path.write_bytes(garbled)
        with pytest.raises(BadParameters):
            load_model(path)


class TestLoadHardening:
    @pytest.fixture
    def saved(self, tmp_path):
        g = Grid(2, 3)
        net = random_net(g, np.random.default_rng(60), d_a=2, d_v=3, d_u=2, depth=2)
        path = tmp_path / "model.psifno"
        save_model(net, path)
        return path, path.read_bytes()

    @pytest.mark.parametrize("cut", [0, 5, 12, 16, 100, "half", -1])
    def test_truncated_file(self, saved, cut):
        path, raw = saved
        end = {"half": len(raw) // 2}.get(cut, cut)
        path.write_bytes(raw[:end])
        with pytest.raises(BadParameters):
            load_model(path)

    def test_trailing_bytes(self, saved):
        path, raw = saved
        path.write_bytes(raw + b"\0" * 16)
        with pytest.raises(BadParameters):
            load_model(path)

    @staticmethod
    def _seal(raw: bytes) -> bytes:
        """raw with its trailing checksum recomputed, so the parser sees the damage."""
        return raw[:-4] + struct.pack("<I", zlib.crc32(raw[:-4]))

    @staticmethod
    def _rewrite(raw: bytes, edit) -> bytes:
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        header = edit(raw[16 : 16 + hlen])
        return TestLoadHardening._seal(
            raw[:8] + struct.pack("<Q", len(header)) + header + raw[16 + hlen :])

    @pytest.mark.parametrize("edit", [
        lambda h: b"\xff" + h[1:],                                  # not UTF-8
        lambda h: h[:-1],                                            # JSON cut short
        lambda h: b"[]",                                             # not an object
        lambda h: h.replace(b'"d_v": 3', b'"d_v": "3"'),             # wrong type
        lambda h: h.replace(b'"d_v": 3', b'"d_v": -3'),              # negative count
        lambda h: h.replace(b'"d_v": 3', b'"d_v": 4'),               # payload mismatch
        lambda h: h.replace(b'"bias": "field"', b'"bias": "grid"'),  # unknown bias kind
        lambda h: h.replace(b'"n_terms": 2', b'"n_terms": 3'),       # payload too short
        lambda h: h.replace(b'"L": 2', b'"L": 3'),                   # layer count
    ])
    def test_garbled_header(self, saved, edit):
        path, raw = saved
        garbled = self._rewrite(raw, edit)
        assert garbled != raw
        path.write_bytes(garbled)
        with pytest.raises(BadParameters):
            load_model(path)

    def test_header_length_past_end(self, saved):
        path, raw = saved
        path.write_bytes(self._seal(raw[:8] + struct.pack("<Q", len(raw)) + raw[16:]))
        with pytest.raises(BadParameters):
            load_model(path)

    def test_non_finite_payload(self, saved):
        path, raw = saved
        (hlen,) = struct.unpack_from("<Q", raw, 8)
        off = 16 + hlen  # first lifting entry
        path.write_bytes(self._seal(raw[:off] + struct.pack("<d", np.nan) + raw[off + 8 :]))
        with pytest.raises(BadParameters):
            load_model(path)

    def test_multiplier_radius_above_n_rejected(self, tmp_path):
        # a constant bias and a radius-N multiplier: no payload size depends on N
        g = Grid(1, 3)
        m = FourierMultiplier(1, 3, [(hermitian_modes(1, 3, np.random.default_rng(61)),
                                      np.eye(1))], 1)
        net = PsiFno(g, np.eye(1), (FnoLayer(1, np.eye(1), np.ones(1), m, True),), np.eye(1))
        path = tmp_path / "wide.psifno"
        save_model(net, path)
        raw = path.read_bytes()
        garbled = self._rewrite(raw, lambda h: h.replace(b'"N": 3,', b'"N": 2,', 1))
        assert garbled != raw
        path.write_bytes(garbled)
        with pytest.raises(BadParameters, match="radius"):
            load_model(path)

    def test_non_conjugate_multiplier_rejected_at_load(self, tmp_path):
        path = tmp_path / "bad.psifno"
        save_model(non_conjugate_net(Grid(2, 2)), path)
        with pytest.raises(BadParameters, match="conjugacy"):
            load_model(path)

    def test_conjugacy_guards_survive_optimize_flag(self, tmp_path):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from psifno.errors import BadParameters\n"
            "from psifno.fno import FnoLayer, FourierMultiplier, PsiFno, fno_forward, "
            "load_model, save_model\n"
            "from psifno.spectral import Grid, GridField\n"
            "g = Grid(2, 2)\n"
            "s = np.zeros(g.shape, dtype=complex); s[3, 2] = 1.0\n"
            "m = FourierMultiplier(2, 2, [(s, np.eye(1))], 1, check=False)\n"
            "net = PsiFno(g, np.eye(1), (FnoLayer(1, None, None, m, False),), np.eye(1))\n"
            "save_model(net, sys.argv[1])\n"
            "for call in (lambda: load_model(sys.argv[1]),\n"
            "             lambda: fno_forward(net, GridField(g, np.ones(g.shape + (1,))))):\n"
            "    try:\n"
            "        call()\n"
            "    except BadParameters:\n"
            "        print('raised')\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path / "bad.psifno")],
                              capture_output=True, text=True)
        assert proc.stdout.split() == ["raised", "raised"], proc.stderr


def hermitian_modes(d: int, W: int, rng) -> np.ndarray:
    """Random conjugate-symmetric mode array over |k|_inf <= W."""
    shape = (2 * W + 1,) * d
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(d)))))


def complex_matrix_multiplier(d: int, W: int, d_v: int, rng) -> FourierMultiplier:
    """P(k) = h(k)(B + iC) + conj(h(-k))(B - iC): conjugate-symmetric with complex A_t."""
    h = rng.standard_normal((2 * W + 1,) * d) + 1j * rng.standard_normal((2 * W + 1,) * d)
    A = (rng.standard_normal((d_v, d_v)) + 1j * rng.standard_normal((d_v, d_v))) / d_v
    h_bar = np.conj(np.flip(h, axis=tuple(range(d))))
    return FourierMultiplier(d, W, [(h, A), (h_bar, np.conj(A))], d_v)


def non_conjugate_net(grid: Grid) -> PsiFno:
    """One-layer net whose multiplier breaks P(-k) = conj(P(k)), built unchecked."""
    s = np.zeros(grid.shape, dtype=complex)
    s[(grid.N + 1,) + (grid.N,) * (grid.d - 1)] = 1.0  # k = e_1 without its partner -e_1
    mult = FourierMultiplier(grid.d, grid.N, [(s, np.eye(1))], 1, check=False)
    return PsiFno(grid, np.eye(1), (FnoLayer(1, None, None, mult, False),), np.eye(1))


def one_layer_step(layer: FnoLayer, grid: Grid):
    """The step of the one-layer plan that layer_forward runs on grid."""
    I = np.eye(layer.d_v)
    return _Plan(PsiFno(grid, I, (layer,), I)).steps[0]


CASES = [(1, 2, 3), (1, 8, 2), (1, 16, 2), (2, 3, 2), (2, 7, 1), (3, 1, 2), (3, 2, 1)]


class TestCompiledForward:
    """The compiled half-spectrum step against the full-spectrum reference evaluator."""

    @pytest.mark.parametrize("apply_activation", [True, False])
    @pytest.mark.parametrize("d,N,d_v", CASES)
    def test_layer_matches_reference(self, d, N, d_v, apply_activation):
        g = Grid(d, N)
        rng = np.random.default_rng(3 * d + N)
        v = random_field(g, rng, channels=d_v)
        layer = random_layer(g, d_v, rng, apply_activation)
        act = activation("tanh")
        want = reference_layer_forward(layer, v, act).values
        assert rel_err(layer_forward(layer, v, act).values, want) < 1e-12

    @pytest.mark.parametrize("d,N,d_v", CASES)
    def test_narrow_and_complex_multipliers(self, d, N, d_v):
        # W < N zero-pads into the half spectrum; complex A_t take the
        # per-mode-matrix path and the dense conjugacy check
        g = Grid(d, N)
        rng = np.random.default_rng(100 + 3 * d + N)
        v = random_field(g, rng, channels=d_v)
        act = activation("gelu")
        W = N // 2
        narrow = FourierMultiplier(d, W, [(hermitian_modes(d, W, rng),
                                           rng.standard_normal((d_v, d_v)))], d_v)
        for mult in (narrow, complex_matrix_multiplier(d, W, d_v, rng),
                     complex_matrix_multiplier(d, N, d_v, rng)):
            layer = FnoLayer(d_v, None, np.full(d_v, 0.1), mult, True)
            want = reference_layer_forward(layer, v, act).values
            assert rel_err(layer_forward(layer, v, act).values, want) < 1e-12

    def test_shared_rows_are_contracted_before_the_transform(self):
        # three gradient rows read one vector: one channel is transformed
        g = Grid(2, 5)
        layer = FnoLayer(4, None, None, derivative_multiplier(g, 4, 0, 1), False)
        v = random_field(g, np.random.default_rng(30), channels=4)
        act = activation("tanh")
        got = layer_forward(layer, v, act).values
        assert rel_err(got, reference_layer_forward(layer, v, act).values) < 1e-12
        conv = one_layer_step(layer, g).conv
        assert conv.M.shape == (1, 1) and list(conv.rows) == [1, 2]

    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_of_one_to_five_pairs(self, d):
        # real A_t: row r reads the vectors u_0..u_{r-1}, so rows 1-4 sum 1, 2, 3 and
        # 4 pairs, and flipped, rows 0-3 sum 4, 3, 2 and 1 (their slots run 3, 2, 1, 0);
        # complex A_t take the per-mode-matrix path, 5 pairs on every row
        g = Grid(d, 3)
        rng = np.random.default_rng(120 + d)
        d_v = 5
        u = rng.standard_normal((4, d_v))
        modes = [hermitian_modes(d, 3, rng) for _ in range(4)]
        up, down = (np.zeros((4, d_v, d_v)) for _ in range(2))
        for t in range(4):
            up[t, t + 1:] = down[t, : 4 - t] = u[t]
        layers = [FnoLayer(d_v, None, None, FourierMultiplier(d, 3, list(zip(modes, A)), d_v),
                           False) for A in (up, down)]
        layers.append(FnoLayer(d_v, None, None, complex_matrix_multiplier(d, 3, d_v, rng), False))
        v = random_field(g, rng, channels=d_v)
        act = activation("tanh")
        for layer, pairs, longest, rows in zip(layers, (10, 10, 25), (4, 4, 5),
                                               ([1, 2, 3, 4], [3, 2, 1, 0], [0, 1, 2, 3, 4])):
            want = reference_layer_forward(layer, v, act).values
            assert rel_err(layer_forward(layer, v, act).values, want) < 1e-12
            conv = one_layer_step(layer, g).conv
            assert (conv.size, len(conv.folds) + 1, list(conv.rows)) == (pairs, longest, rows)

    @pytest.mark.parametrize("d", [1, 2])
    def test_direct_and_scattered_writes_agree_exactly(self, d):
        # with no weight and every row live the inverse transform is the pre-activation;
        # the padded copy's dead row sends the same convolution through zeros and a scatter
        g = Grid(d, 3)
        rng = np.random.default_rng(130 + d)
        d_v = 3
        terms = [(hermitian_modes(d, 3, rng), rng.standard_normal((d_v, d_v))) for _ in range(2)]
        layer = FnoLayer(d_v, None, random_field(g, rng, channels=d_v),
                         FourierMultiplier(d, 3, terms, d_v), True)
        wide = layer.padded(d_v + 1)
        v = random_field(g, rng, channels=d_v)
        v_wide = GridField(g, np.concatenate([v.values, np.zeros(g.shape + (1,))], axis=-1))
        act = activation("tanh")
        got = layer_forward(layer, v, act).values
        want = layer_forward(wide, v_wide, act).values
        assert one_layer_step(layer, g).direct and not one_layer_step(wide, g).direct
        assert np.array_equal(got, want[..., :d_v])
        kept = got.copy()
        got[...] = 7.0  # the returned values share no buffer with the step
        assert np.array_equal(layer_forward(layer, v, act).values, kept)
        net = PsiFno(g, np.eye(d_v, 1), (FnoLayer(d_v, None, None, layer.multiplier, False),),
                     np.eye(1, d_v))
        a = random_field(g, rng)
        out = fno_forward(net, a).values
        kept = out.copy()
        out[...] = 7.0
        assert np.array_equal(fno_forward(net, a).values, kept)
        assert net._plans[g].steps[0].direct

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 3), (3, 2)])
    def test_networks_match_reference(self, d, N):
        g = Grid(d, N)
        rng = np.random.default_rng(40 + d)
        A = random_net(g, rng, d_a=2, d_v=3, d_u=1, depth=2)
        B = random_net(g, rng, d_a=1, d_v=4, d_u=2, depth=1)
        comp = compose(A, B)  # padded layers and a right-multiplied multiplier
        for net in (A, B, comp):
            a = random_field(g, rng, channels=net.d_a)
            want = reference_forward(net, a).values
            assert rel_err(fno_forward(net, a).values, want) < 1e-12
            for M in (N - 1, 2 * N + 1):  # inputs resampled from another resolution
                a = random_field(Grid(d, M), rng, channels=net.d_a)
                want = reference_forward(net, a).values
                assert rel_err(fno_forward(net, a).values, want) < 1e-12

    def test_repeated_layers_compile_once(self):
        g = Grid(1, 4)
        rng = np.random.default_rng(50)
        layer = random_layer(g, 2, rng)
        net = PsiFno(g, np.ones((2, 1)), (layer,) * 5, np.ones((1, 2)))
        fno_forward(net, random_field(g, rng))
        plan = net._plans[g]
        step = plan.steps[0]
        fno_forward(net, random_field(g, rng))
        assert list(net._plans) == [g] and net._plans[g] is plan
        assert len(plan.steps) == 5 and all(s is step for s in plan.steps)

    def test_radius_beyond_resolution_raises(self):
        rng = np.random.default_rng(51)
        layer = random_layer(Grid(1, 4), 1, rng)
        with pytest.raises(DimensionMismatch):
            layer_forward(layer, random_field(Grid(1, 2), rng), activation("tanh"))

    def test_non_conjugate_multiplier_fails_at_forward(self):
        g = Grid(2, 2)
        net = non_conjugate_net(g)
        with pytest.raises(BadParameters):
            fno_forward(net, random_field(g, np.random.default_rng(52)))


def _references(path: Path, name: str) -> list:
    """Dotted scope (class and function names) of every reference a module makes to name."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        ref = (node.id if isinstance(node, ast.Name)
               else node.attr if isinstance(node, ast.Attribute)
               else node.name if isinstance(node, ast.alias) else None)
        if ref == name:
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


class TestOneCompiler:
    """_Plan is the one place a layer is compiled; layer_forward runs the one-layer plan."""

    def test_only_the_plan_constructs_steps(self):
        sources = sorted(Path(psifno.__file__).parent.glob("*.py"))
        found = {p.name: _references(p, "_Step") for p in sources}
        assert {name: refs for name, refs in found.items() if refs} == {
            "fno.py": ["_Plan.__init__"]}

    @pytest.mark.parametrize("d,N,d_v", CASES)
    def test_layer_forward_is_the_one_layer_network(self, d, N, d_v):
        g = Grid(d, N)
        rng = np.random.default_rng(200 + 3 * d + N)
        v = random_field(g, rng, channels=d_v)
        full = random_layer(g, d_v, rng)
        live = np.arange(d_v) > 0  # the weight and the multiplier leave channel 0 unread
        blind = FnoLayer(d_v, full.weight * live, rng.standard_normal(d_v),
                         FourierMultiplier(d, N, [(s, A * live) for s, A in full.multiplier.terms],
                                           d_v), True)
        assert 0 not in one_layer_step(blind, g).cols
        I = np.eye(d_v)
        for layer in (full, random_layer(g, d_v, rng, False), blind):
            for name in ("tanh", "gelu"):
                want = fno_forward(PsiFno(g, I, (layer,), I, name), v).values
                assert np.array_equal(layer_forward(layer, v, activation(name)).values, want)


def plan_layer(grid: Grid, d_v: int, rng, activated: bool, dead: int) -> FnoLayer:
    """Random layer with a random mix of weight (present or absent), bias (none,
    constant or field) and multiplier (absent, complex A_t, or real A_t with mode
    arrays of radius 0..W inside W <= N); input channel dead is read by nothing."""
    live = np.arange(d_v) != dead
    w = rng.standard_normal((d_v, d_v)) * live / d_v if rng.random() < 0.6 else None
    bias = [None, rng.standard_normal(d_v), random_field(grid, rng, channels=d_v)][rng.integers(3)]
    W = int(rng.integers(grid.N + 1))
    kind = rng.integers(4)
    if kind == 1:
        terms = complex_matrix_multiplier(grid.d, W, d_v, rng).terms
    elif kind > 1:
        terms = []
        for _ in range(2):
            s = hermitian_modes(grid.d, int(rng.integers(W + 1)), rng)
            terms.append((np.pad(s, W - s.shape[0] // 2), rng.standard_normal((d_v, d_v)) / d_v))
    mult = FourierMultiplier(grid.d, W, [(s, A * live) for s, A in terms], d_v) if kind else None
    if mult is None and w is None:
        w = rng.standard_normal((d_v, d_v)) * live / d_v
    return FnoLayer(d_v, w, bias, mult, activated)


def plan_net(grid: Grid, pattern: str, rng, d_v: int = 4) -> PsiFno:
    """Net whose layers follow pattern: 's' an activated layer, 'f' an activation-free one."""
    layers = tuple(plan_layer(grid, d_v, rng, c == "s", int(rng.integers(d_v))) for c in pattern)
    Q = rng.standard_normal((2, d_v))
    Q[:, rng.integers(d_v)] = 0.0
    return PsiFno(grid, rng.standard_normal((d_v, 2)), layers, Q, "gelu")


PATTERNS = ["ff", "fff", "sffs", "ffsfffs", "sfsff", "fsfffsf"]


def count_transforms(monkeypatch) -> list:
    """Record the name of each real transform the compiled forward makes."""
    import psifno.fno

    calls = []
    for name in ("_rfft_half", "_irfft_values"):
        real = getattr(psifno.fno, name)
        monkeypatch.setattr(psifno.fno, name,
                            lambda *x, real=real, name=name: calls.append(name) or real(*x))
    return calls


def zero_mode_multiplier(d: int, d_v: int, rng) -> FourierMultiplier:
    """A radius-0 multiplier: P(k) = 0 away from k = 0, a real P(0)."""
    return FourierMultiplier(d, 0, [(np.ones((1,) * d), rng.standard_normal((d_v, d_v)))], d_v)


class TestForwardPlan:
    """The network plan: activation-free runs fused into one step, only needed channels."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("d,N", [(1, 3), (2, 3), (3, 1)])
    def test_matches_reference(self, d, N, pattern):
        g = Grid(d, N)
        for seed in range(4):
            rng = np.random.default_rng([seed, d, N, len(pattern)])
            net = plan_net(g, pattern, rng)
            a = random_field(g, rng, channels=2)
            want = reference_forward(net, a).values
            assert rel_err(fno_forward(net, a).values, want) < 1e-12
            plan = net._plans[g]
            assert len(plan.steps) == len(re.findall("s|f+", pattern))

    @pytest.mark.parametrize("d,N", [(1, 4), (2, 2)])
    def test_compose_outputs(self, d, N):
        g = Grid(d, N)
        rng = np.random.default_rng(70 + d)
        inner = plan_net(g, "sff", rng)
        outer = PsiFno(g, rng.standard_normal((3, 2)),
                       tuple(plan_layer(g, 3, rng, c == "s", 0) for c in "ffs"),
                       rng.standard_normal((1, 3)), "gelu")
        comp = compose(outer, inner)  # the run "ff" + "ff" meets across the bridge
        assert len(comp._plans) == 0
        a = random_field(g, rng, channels=2)
        want = reference_forward(comp, a).values
        assert rel_err(fno_forward(comp, a).values, want) < 1e-12
        assert len(comp._plans[g].steps) == 3

    def test_unread_channels_are_not_computed(self):
        g = Grid(2, 3)
        rng = np.random.default_rng(80)
        d_v = 5
        layers = [random_layer(g, d_v, rng, apply_activation=c == "s") for c in "sffs"]
        # the σ-layer after the run reads channels 1 and 3 only, Q reads channel 2
        w = layers[3].weight * np.isin(np.arange(d_v), [1, 3])
        last = FnoLayer(d_v, w, layers[3].bias, None, True)
        Q = np.zeros((1, d_v))
        Q[0, 2] = 1.0
        net = PsiFno(g, rng.standard_normal((d_v, 1)), (*layers[:3], last), Q)
        a = random_field(g, rng)
        assert rel_err(fno_forward(net, a).values, reference_forward(net, a).values) < 1e-12
        first, run, sigma = net._plans[g].steps
        assert (run.width, sigma.width) == (2, 1)
        assert list(run.cols) == list(range(d_v)) and list(sigma.cols) == [1, 3]
        assert net._plans[g].lifting.shape == (d_v, 1)

    def test_repeated_runs_share_one_step_and_match_unshared_copies(self):
        g = Grid(2, 3)
        rng = np.random.default_rng(81)
        A, B, S = (plan_layer(g, 3, rng, c == "s", 0) for c in "ffs")
        shared = PsiFno(g, np.eye(3, 1), (A, B, S, A, B, S, A, B), np.eye(1, 3), "gelu")
        copies = PsiFno(g, np.eye(3, 1),
                        tuple(FnoLayer(L.d_v, L.weight, L.bias, L.multiplier, L.apply_activation)
                              for L in shared.layers), np.eye(1, 3), "gelu")
        a = random_field(g, rng)
        assert np.array_equal(fno_forward(shared, a).values, fno_forward(copies, a).values)
        steps = shared._plans[g].steps
        assert len(steps) == 5 and steps[0] is steps[2] and steps[1] is steps[3]
        assert len({id(s) for s in copies._plans[g].steps}) == 5

    def test_darcy_like_fused_run_transforms_once(self, monkeypatch):
        import psifno.fno

        g = Grid(2, 4)
        d_v = 4
        L1 = FnoLayer(d_v, None, None, derivative_multiplier(g, d_v, 0, 1), False)
        S = FnoLayer(d_v, np.eye(d_v), np.full(d_v, 0.1), None, True)
        L3 = FnoLayer(d_v, None, random_field(g, np.random.default_rng(82), channels=d_v),
                      derivative_multiplier(g, d_v, 1, 0), False)
        net = PsiFno(g, np.eye(d_v, 1), (L1, S, L3) * 4, np.eye(1, d_v, 1))
        calls = []
        real = psifno.fno._rfft_half
        monkeypatch.setattr(psifno.fno, "_rfft_half", lambda *x: calls.append(1) or real(*x))
        a = random_field(g, np.random.default_rng(83))
        assert rel_err(fno_forward(net, a).values, reference_forward(net, a).values) < 1e-12
        calls.clear()
        fno_forward(net, a)
        assert len(calls) == 5  # L1, (L3, L1) x 3, L3 against 8 layer transforms

    def test_zero_mode_forwards_make_no_transform(self, monkeypatch):
        from psifno.emulation import build_ft_emulator, build_ift_emulator

        rng = np.random.default_rng(86)
        for d in (1, 2):
            g = Grid(d, 2)
            ft = build_ft_emulator(2, B=1.0, eps=1e-3, d=d)
            pipe = compose(build_ift_emulator(2, B=1.0, eps=1e-3, d=d), ft)
            calls = count_transforms(monkeypatch)
            for net in (ft, pipe):
                out = fno_forward(net, random_field(g, rng)).values
                assert out.shape == g.shape + (net.d_u,)
            assert calls == []
            radius_N = PsiFno(g, np.eye(2, 1), (random_layer(g, 2, rng),), np.eye(1, 2))
            fno_forward(radius_N, random_field(g, rng))
            assert calls == ["_rfft_half", "_irfft_values"]
            monkeypatch.undo()

    @pytest.mark.parametrize("spread", [True, False])
    def test_constant_channels_travel_as_one_point(self, monkeypatch, spread):
        # the zero-mode layer's output is constant, so the σ-layer's weight acts at
        # one point and its field bias spreads the result over the grid; with that
        # bias only on a channel the radius-N layer does not read, the radius-N layer
        # gets a constant input and transforms nothing
        g = Grid(2, 3)
        rng = np.random.default_rng(87)
        d_v = 3
        zero = FnoLayer(d_v, None, rng.standard_normal(d_v), zero_mode_multiplier(2, d_v, rng),
                        False)
        field = random_field(g, rng, channels=d_v).values
        if not spread:
            field[..., :2] = 0.0
        sigma = FnoLayer(d_v, rng.standard_normal((d_v, d_v)), GridField(g, field), None, True)
        A = rng.standard_normal((d_v, d_v)) * [1.0, 1.0, 0.0]  # reads channels 0 and 1
        wide = FnoLayer(d_v, None, None, FourierMultiplier(2, 3, [(hermitian_modes(2, 3, rng), A)],
                                                           d_v), False)
        net = PsiFno(g, rng.standard_normal((d_v, 1)), (zero, sigma, wide),
                     rng.standard_normal((1, d_v)), "gelu")
        a = random_field(g, rng)
        calls = count_transforms(monkeypatch)
        out = fno_forward(net, a).values
        assert out.shape == g.shape + (1,)
        assert rel_err(out, reference_forward(net, a).values) < 1e-12
        assert calls == (["_rfft_half", "_irfft_values"] if spread else [])

    def test_zero_mode_layer_forward_fills_the_grid(self):
        g = Grid(2, 2)
        rng = np.random.default_rng(88)
        layer = FnoLayer(2, None, rng.standard_normal(2), zero_mode_multiplier(2, 2, rng), True)
        v = random_field(g, rng, channels=2)
        act = activation("tanh")
        out = layer_forward(layer, v, act).values
        assert out.shape == g.shape + (2,)
        assert rel_err(out, reference_layer_forward(layer, v, act).values) < 1e-12
        assert np.ptp(out.reshape(-1, 2), axis=0).max() == 0.0

    def test_every_fused_layer_is_checked(self):
        g = Grid(2, 2)
        bad = non_conjugate_net(g).layers[0]
        good = FnoLayer(1, np.eye(1), None, None, False)
        for layers in ((good, bad), (bad, good), (good, bad, good)):
            with pytest.raises(BadParameters, match="conjugacy"):
                fno_forward(PsiFno(g, np.eye(1), layers, np.eye(1)),
                            random_field(g, np.random.default_rng(84)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_fused_overflow_is_caught(self):
        g = Grid(1, 2)
        big = FnoLayer(1, np.array([[1e200]]), None, None, False)
        net = PsiFno(g, np.eye(1), (big, big), np.eye(1))
        with pytest.raises(BadParameters, match="finite"):
            fno_forward(net, random_field(g, np.random.default_rng(85)))

    def test_layer_that_reads_no_channel(self):
        # a bias-only layer leaves the lifting no channel to compute
        g = Grid(1, 2)
        net = PsiFno(g, np.eye(1), (FnoLayer(1, None, np.array([0.5]), None, True),), np.eye(1))
        out = fno_forward(net, random_field(g, np.random.default_rng(90))).values
        assert np.array_equal(out, np.full(g.shape + (1,), np.tanh(0.5)))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_one_point_overflow_is_caught(self):
        # the constant step's overflow must raise, though the tanh after it would hide it
        g = Grid(2, 2)
        const = FnoLayer(2, None, np.array([5.0, 5.0]), None, True)
        big = FnoLayer(2, np.full((2, 2), 1e308), None, None, False)
        saturate = FnoLayer(2, np.eye(2), None, None, True)
        net = PsiFno(g, np.eye(2, 1), (const, big, saturate), np.eye(1, 2))
        with pytest.raises(BadParameters, match="finite"):
            fno_forward(net, random_field(g, np.random.default_rng(89)))
        first = net._plans[g].steps[0]
        assert first(np.zeros(g.shape + (0,)), activation("tanh")).shape == (1, 1, 2)
