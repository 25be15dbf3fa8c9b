"""The solvers' half-spectrum kernels against oracles built from public functions.

The oracles use only the public operations (dealiased_product, derivative,
divergence, inverse_laplacian, helmholtz_inverse, leray_project), each of
which tests/test_spectral.py checks against direct convolution or explicit
sums over the centered spectrum.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psifno
from psifno import darcy, emulation, fno, navier_stokes as ns, spectral
from psifno.darcy import PicardOperator, prepare_coefficients, random_decay_coefficient
from psifno.navier_stokes import (
    NsConfig,
    NsState,
    random_divergence_free,
    step_first_order,
    step_second_order,
)
from psifno.spectral import (
    Grid,
    GridField,
    _half_resize,
    _irfft_values,
    _on_grid,
    _product_radius,
    _rfft_half,
    dealiased_product,
    derivative,
    divergence,
    helmholtz_inverse,
    inverse_laplacian,
    l2_norm,
    leray_project,
    random_field,
    resample,
)

from helpers import convolution_truncated, naive_dft, naive_idft, rel_err, sweeps_from_zero


def _stack(fields) -> GridField:
    return GridField(fields[0].grid, np.concatenate([f.values for f in fields], axis=-1))


def picard_oracle(u, atilde, f_N):
    """(-Lap)^-1 div P_N(atilde grad u) + (-Lap)^-1 f_N."""
    d = u.grid.d
    flux = _stack([dealiased_product(atilde, derivative(u, i)) for i in range(d)])
    return GridField(u.grid, inverse_laplacian(divergence(flux)).values
                     + inverse_laplacian(f_N).values)


def advection_oracle(v, w):
    """PL_N(v . grad w)."""
    d = v.grid.d
    adv = []
    for m in range(d):
        terms = [dealiased_product(v.channel(i), derivative(w.channel(m), i)) for i in range(d)]
        adv.append(GridField(v.grid, sum(t.values for t in terms)))
    return leray_project(_stack(adv))


def laplacian(u):
    d = u.grid.d
    return GridField(u.grid, sum(derivative(derivative(u, i), i).values for i in range(d)))


def first_order_oracle(u, nu, tau, sweeps):
    base = helmholtz_inverse(u, nu * tau)
    w = GridField(u.grid, np.zeros_like(u.values))
    for _ in range(sweeps):
        adv = helmholtz_inverse(advection_oracle(u, w), nu * tau)
        w = GridField(u.grid, base.values - tau * adv.values)
    return w


def second_order_oracle(u_prev, u, nu, tau, sweeps):
    ubar = GridField(u.grid, 1.5 * u.values - 0.5 * u_prev.values)
    rhs0 = (u.values + 0.5 * nu * tau * laplacian(u).values
            - 0.5 * tau * advection_oracle(ubar, u).values)
    w = GridField(u.grid, np.zeros_like(u.values))
    for _ in range(sweeps):
        rhs = GridField(u.grid, rhs0 - 0.5 * tau * advection_oracle(ubar, w).values)
        w = helmholtz_inverse(rhs, 0.5 * nu * tau)
    return w


def ns_config(d, N, u0, tau=0.01, nu=0.05):
    return NsConfig(d=d, N=N, nu=nu, T=10 * tau, tau=tau, U=2.0 * l2_norm(u0), u0=u0,
                    enforce_cfl=False)


class TestHalfSpectrumSolvers:
    @pytest.mark.parametrize("d,N", [(1, 7), (2, 8), (2, 13), (3, 3)])
    def test_picard_apply_matches_oracle(self, d, N):
        rng = np.random.default_rng(40 + N)
        a = random_decay_coefficient(d, 2 * N, 0.5, rng)
        f = random_field(Grid(d, 2 * N), rng, zero_mean=True)
        atilde, f_N = prepare_coefficients(a, f, N)
        op = PicardOperator(atilde, f_N)
        for _ in range(3):
            u = random_field(Grid(d, N), rng)
            want = picard_oracle(u, atilde, f_N)
            assert rel_err(op.apply(u).values, want.values) < 1e-12

    @pytest.mark.parametrize("d,N", [(2, 6), (2, 11), (3, 3)])
    def test_advection_matches_oracle(self, d, N):
        rng = np.random.default_rng(50 + N)
        v = random_divergence_free(Grid(d, N), rng, norm=1.0)
        w = random_field(Grid(d, N), rng, channels=d)
        got = _irfft_values(ns._Advection(v).apply_hat(_rfft_half(w.values, d)), d)
        assert rel_err(got, advection_oracle(v, w).values) < 1e-12

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 3)])
    def test_first_order_step_matches_oracle(self, d, N):
        rng = np.random.default_rng(60 + d)
        u0 = random_divergence_free(Grid(d, N), rng, norm=0.5)
        cfg = ns_config(d, N, u0)
        got = step_first_order(NsState(0, u0, l2_norm(u0)), cfg, kappa=4)
        want = first_order_oracle(u0, cfg.nu, cfg.tau, 4)
        assert rel_err(got.u.values, want.values) < 1e-12
        assert abs(got.energy - l2_norm(want)) <= 1e-12 * l2_norm(want)

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 3)])
    def test_second_order_step_matches_oracle(self, d, N):
        rng = np.random.default_rng(70 + d)
        u_prev = random_divergence_free(Grid(d, N), rng, norm=0.5)
        u_cur = random_divergence_free(Grid(d, N), rng, norm=0.5)
        cfg = ns_config(d, N, u_prev)
        got = step_second_order(NsState(0, u_prev, l2_norm(u_prev)),
                                NsState(1, u_cur, l2_norm(u_cur)), cfg, kappa=4)
        want = second_order_oracle(u_prev, u_cur, cfg.nu, cfg.tau, 4)
        assert rel_err(got.u.values, want.values) < 1e-12

    def test_manufactured_source_matches_oracle(self):
        a, f, u_fine = darcy.manufactured_problem(2, 0.5, 1, N_max=4, rng=np.random.default_rng(3))
        flux = _stack([dealiased_product(a, derivative(u_fine, i)) for i in range(2)])
        assert rel_err(f.values, -divergence(flux).values) < 1e-12

    def test_nonlinearity_oracles_match_public_oracles(self):
        N = 5
        rng = np.random.default_rng(8)
        a, u = (random_field(Grid(2, N), rng) for _ in range(2))
        got = emulation.darcy_nonlinearity_oracle(resample(a, 2 * N), resample(u, 2 * N))
        want = _stack([dealiased_product(a, derivative(u, i)) for i in range(2)])
        assert rel_err(got.values, resample(want, 2 * N).values) < 1e-12
        v, w = (random_divergence_free(Grid(2, N), rng, norm=1.0) for _ in range(2))
        got = emulation.ns_nonlinearity_oracle(resample(v, 2 * N), resample(w, 2 * N))
        assert rel_err(got.values, resample(advection_oracle(v, w), 2 * N).values) < 1e-12


def _inner_map(order, seed=0):
    """An inner map on random divergence-free data (advection that Leray does not kill)."""
    rng = np.random.default_rng(seed)
    u_prev, u = (random_divergence_free(Grid(2, 6), rng, norm=0.5) for _ in range(2))
    v = u if order == 1 else GridField(u.grid, 1.5 * u.values - 0.5 * u_prev.values)
    return ns._InnerMap(u, v, 0.05, 0.01, order)


class TestSkippedWork:
    """The solvers skip applications whose result is known; these pin that the
    skipped results are exact, bit for bit."""

    @pytest.mark.parametrize("order", [1, 2])
    def test_inner_map_of_zero_is_its_base(self, order):
        op = _inner_map(order)
        assert np.array_equal(op.apply_hat(np.zeros_like(op.base)), op.base)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("k_iter", [0, 1, 2, 5, 40])
    def test_iterate_is_the_sweeps_from_zero(self, order, k_iter):
        op = _inner_map(order, seed=10 + k_iter)
        assert np.array_equal(ns._iterate(op, k_iter), sweeps_from_zero(op, k_iter))

    def test_iterate_of_a_zero_state_stalls_at_zero(self):
        zero = GridField(Grid(2, 4), np.zeros((9, 9, 2)))
        op = ns._InnerMap(zero, zero, 0.05, 0.01, 1)
        assert np.array_equal(ns._iterate(op, 5), sweeps_from_zero(op, 5))
        assert not np.any(ns._iterate(op, 5))

    def test_no_sweeps_leave_the_zero_field(self):
        u0 = random_divergence_free(Grid(2, 6), np.random.default_rng(3), norm=0.5)
        got = step_first_order(NsState(0, u0, l2_norm(u0)), ns_config(2, 6, u0), kappa=0)
        assert not np.any(got.u.values) and got.energy == 0.0


@pytest.fixture
def count_transforms(monkeypatch):
    """count(fn, *args): the calls of the real transform pair that fn(*args) makes,
    counted in every module that binds the pair."""
    names = ("_rfft_half", "_irfft_values")
    counts = dict.fromkeys(names, 0)
    for name in names:
        kernel = getattr(spectral, name)

        def counted(*args, _name=name, _kernel=kernel):
            counts[_name] += 1
            return _kernel(*args)

        for module in (spectral, darcy, ns):
            monkeypatch.setattr(module, name, counted)

    def count(fn, *args, **kwargs):
        counts.update(dict.fromkeys(names, 0))
        fn(*args, **kwargs)
        return dict(counts)

    return count


class TestTransformBudget:
    """Exact transform counts of the solvers, so that a grid round trip or a
    sweep from zero put back into a loop fails here."""

    def test_darcy_solve(self, count_transforms):
        a = random_decay_coefficient(2, 16, 0.5, np.random.default_rng(1))
        f = random_field(Grid(2, 16), np.random.default_rng(2), zero_mean=True)
        K = darcy.iteration_count(0.5, 8, 2)
        got = count_transforms(darcy.solve, darcy.DarcyProblem(a, f, 0.5, 2, 8))
        # prepare: a forward and an inverse per field; the operator: the coefficient,
        # its product-grid and doubled-grid values, the lift and its grid values;
        # K - 1 linear parts of one pair each; the solution's grid values
        assert got == {"_rfft_half": 2 + 2 + (K - 1), "_irfft_values": 2 + 3 + (K - 1) + 1}

    @pytest.mark.parametrize("order", [1, 2])
    def test_ns_step(self, count_transforms, order):
        rng = np.random.default_rng(5)
        u_prev, u = (random_divergence_free(Grid(2, 6), rng, norm=0.5) for _ in range(2))
        cfg, kappa = ns_config(2, 6, u), 4
        prev, cur = NsState(0, u_prev, l2_norm(u_prev)), NsState(1, u, l2_norm(u))
        if order == 1:
            got = count_transforms(step_first_order, cur, cfg, kappa=kappa)
        else:
            got = count_transforms(step_second_order, prev, cur, cfg, kappa=kappa)
        # set-up: v forward and onto the product grid, u^n forward, and for order 2
        # one advection pair in the base; kappa - 1 sweeps of one pair; the new state
        assert got == {"_rfft_half": 2 + (order - 1) + (kappa - 1),
                       "_irfft_values": 1 + (order - 1) + (kappa - 1) + 1}


def _seven_smooth(n: int) -> bool:
    for p in (3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


class TestProductGrid:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=200))
    def test_length_is_the_smallest_odd_seven_smooth_one(self, N):
        n = 2 * _product_radius(N) + 1
        assert n % 2 == 1 and n >= 3 * N + 1 and _seven_smooth(n)
        assert not any(_seven_smooth(m) for m in range(3 * N + 1, n) if m % 2 == 1)

    def test_lengths_at_the_study_resolutions(self):
        assert [2 * _product_radius(N) + 1 for N in (8, 16, 32, 64)] == [25, 49, 105, 225]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=14),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_product_on_that_length_is_the_dealiased_product(self, d, N, seed):
        rng = np.random.default_rng(seed)
        g = Grid(d, N)
        u, v = random_field(g, rng), random_field(g, rng)
        M = _product_radius(N)
        uu, vv = (_on_grid(_rfft_half(f.values, d), d, M, g.npoints) for f in (u, v))
        prod = _half_resize(_rfft_half(uu * vv, d), d, N)
        got = _on_grid(prod, d, N, 2 * M + 1)
        want = naive_idft(convolution_truncated(naive_dft(u)[..., 0], naive_dft(v)[..., 0], N)
                          [..., None], g).real
        assert rel_err(got, want) < 1e-12


def _names(code) -> set:
    """Global and attribute names a code object reads, nested code objects included."""
    out = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            out |= _names(const)
    return out


class TestNoComplexSolverPath:
    """The solvers, the spectral operators and the emulators' range probes run on
    the real pair only; a complex kernel or a centered round trip in them is a
    second path."""

    CENTERED_ADAPTERS = ("_fft_coeffs", "_ifft_values")
    CENTERED = CENTERED_ADAPTERS + ("dft", "idft", "SpectralCoeffs")

    @pytest.mark.parametrize("module", [darcy, ns, emulation], ids=lambda m: m.__name__)
    def test_module_binds_no_complex_kernel(self, module):
        assert not [k for k in self.CENTERED_ADAPTERS if k in vars(module)]

    @pytest.mark.parametrize("fn", [emulation.darcy_nonlinearity_oracle,
                                    emulation.ns_nonlinearity_oracle,
                                    emulation._truncated])
    def test_oracles_name_no_complex_kernel(self, fn):
        assert not [k for k in self.CENTERED_ADAPTERS if k in fn.__code__.co_names]

    @pytest.mark.parametrize("fn", [
        emulation._sup_gradient, emulation.build_darcy_emulator,
        emulation.build_ns_emulator, spectral.derivative, spectral.gradient,
        spectral.divergence, spectral.inverse_laplacian, spectral.helmholtz_inverse,
        spectral.dealiased_product, spectral.resample, spectral.leray_project,
        spectral.sobolev_norm, darcy._restrict, darcy.prepare_coefficients, darcy.solve,
        darcy.empirical_lipschitz,
    ], ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
    def test_function_names_no_centered_round_trip(self, fn):
        assert not _names(fn.__code__) & set(self.CENTERED)


TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
              "rfftn", "irfftn", "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn"}
KERNELS = {"_rfft_half", "_irfft_values"}


def _transform_uses(path: Path, names=TRANSFORMS):
    """(enclosing function, name, line) of every use a module makes of the names
    (by default the transforms); the function is None at module level."""
    found = []

    def visit(node, fn, owner=False):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name) else None)
        # an fft that owns an attribute is the module (np.fft.fftshift), not the transform
        if name in names and not (owner and name == "fft"):
            found.append((fn, name, node.lineno))
        if isinstance(node, ast.alias) and node.name in names:
            found.append((fn, node.name, None))
        for child in ast.iter_child_nodes(node):
            visit(child, fn, isinstance(node, ast.Attribute) and child is node.value)

    visit(ast.parse(path.read_text()), None)
    return found


def test_scan_skips_only_the_fft_module(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f(x):\n    return np.fft.fftshift(x), scipy.fft.rfftn(x), np.fft.fft(x)\n"
                   "def g():\n    return _SQ_SIGNS.copy(), _SQ_SIGNS.T, _sq_units.__wrapped__\n")
    assert _transform_uses(src) == [("f", "rfftn", 2), ("f", "fft", 2)]
    assert _transform_uses(src, GADGET_NAMES | {"_sq_units"}) == [
        ("g", "_SQ_SIGNS", 4), ("g", "_SQ_SIGNS", 4), ("g", "_sq_units", 4)]


class TestTransformKernels:
    """Every FFT in the package sits in one of the two real transform kernels."""

    SOURCES = sorted(Path(psifno.__file__).parent.glob("*.py"))

    def test_sources_found(self):
        assert "spectral.py" in [p.name for p in self.SOURCES]

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_transforms_only_inside_the_kernels(self, path):
        stray = [(fn, name, line) for fn, name, line in _transform_uses(path)
                 if not (path.name == "spectral.py" and fn in KERNELS)]
        assert not stray, f"transform outside the kernels in {path.name}: {stray}"

    def test_each_kernel_holds_a_transform(self):
        holders = {fn for fn, _, _ in _transform_uses(Path(spectral.__file__))}
        assert holders == KERNELS
        # the centered pair behind dft/idft adapts the real kernels and holds no transform
        assert "_rfft_half" in spectral._fft_coeffs.__code__.co_names
        assert "_irfft_values" in spectral._ifft_values.__code__.co_names


GADGET_NAMES = {"d1", "d2", "_SQ_SIGNS"}
GADGET_READERS = {"_sq_decode", "_psi_decode", "__post_init__"}


class TestGadgetDecoders:
    """In emulation.py only the two gadget decoders and the spec validators read an
    activation's derivatives or the sq_h signs, so no builder inlines the gadget."""

    USES = _transform_uses(Path(emulation.__file__), GADGET_NAMES)

    def test_only_the_decoders_read_the_gadget(self):
        stray = [use for use in self.USES if use[0] not in GADGET_READERS | {None}]
        assert not stray, f"gadget read outside the decoders: {stray}"
        # at module level only the definition of the signs
        assert [name for fn, name, _ in self.USES if fn is None] == ["_SQ_SIGNS"]

    def test_each_decoder_reads_the_gadget(self):
        assert {fn for fn, _, _ in self.USES} >= GADGET_READERS

    def test_validators_are_the_two_specs(self):
        specs = [node.name for node in ast.walk(ast.parse(Path(emulation.__file__).read_text()))
                 if isinstance(node, ast.ClassDef)
                 and any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                         for f in node.body)]
        assert specs == ["ProductNetSpec", "AffineApproxSpec"]


class TestOneFieldEncoder:
    """In emulation.py the unit pairs are written only by _sigma_layer, the one encoder
    built on _sq_units: channel x channel and channel x field products and carries."""

    def test_only_the_encoders_write_unit_pairs(self):
        writers = {fn for fn, _, _ in _transform_uses(Path(emulation.__file__), {"_sq_units"})}
        assert writers == {"_sigma_layer"}


class TestOneFLayerAssembler:
    """In emulation.py every unactivated multiplier layer of the constructive networks is
    written by _f_layer; only _affine_approx_net builds its own multiplier, re-wrapping a
    given layer's terms at that layer's radius."""

    def test_only_the_assembler_builds_multipliers(self):
        uses = _transform_uses(Path(emulation.__file__), {"FourierMultiplier"})
        assert sorted(fn for fn, _, _ in uses if fn is not None) == ["_affine_approx_net",
                                                                    "_f_layer"]


class TestNoAssertGuards:
    """The package guards with typed errors, never assert, so no check disappears
    under python -O."""

    @pytest.mark.parametrize("path", TestTransformKernels.SOURCES, ids=lambda p: p.name)
    def test_no_assert_statement(self, path):
        lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert not lines, f"assert statements in {path.name} at lines {lines}"


def _multiplier_rebuilders(path: Path) -> list:
    """Top-level functions and methods ("Class.method") that both call
    FourierMultiplier(...) and read some multiplier's .terms, nested defs included."""
    scopes = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            scopes.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{f.name}", f) for f in node.body
                       if isinstance(f, ast.FunctionDef)]
    found = []
    for name, scope in scopes:
        nodes = list(ast.walk(scope))
        builds = any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                     and n.func.id == "FourierMultiplier" for n in nodes)
        reads = any(isinstance(n, ast.Attribute) and n.attr == "terms"
                    and isinstance(n.ctx, ast.Load) for n in nodes)
        if builds and reads:
            found.append(name)
    return found


class TestOneChannelMap:
    """In fno.py only FnoLayer.padded builds a multiplier from another one's terms,
    so widening a layer and folding a compose bridge into it exist once."""

    def test_only_padded_rebuilds_a_multiplier(self):
        assert _multiplier_rebuilders(Path(fno.__file__)) == ["FnoLayer.padded"]
