"""Experiment runners behind the command-line interface.

Each experiment consumes a JSON-serializable parameter block plus a seed,
fans out over its parameter list with a bounded worker pool, and returns
(rows, summary): CSV rows with a fixed header (documented in
docs/csv-schemas.md) and a JSON summary carrying per-criterion pass flags,
measured slopes and tolerances.  The seed fully determines every random
draw, and rows are assembled in a deterministic order, so reruns are
byte-identical.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import darcy as dm
from . import navier_stokes as ns
from .errors import ConfigInvalid, DegenerateFit
from .fno import fno_forward, size_report
from .spectral import (
    Grid,
    GridField,
    dealiased_product,
    dft,
    divergence,
    field_from_function,
    idft,
    l2_norm,
    leray_project,
    random_field,
    resample,
    sobolev_norm,
)

SCHEMA = "psifno-experiment/1"

CSV_HEADERS = {
    "spectral-check": ["check", "value", "tolerance", "pass"],
    "property-suite": ["check", "value", "tolerance", "pass"],
    "darcy-converge": ["N", "K", "err_L2", "err_H1", "lipschitz_est", "seconds"],
    "ns-converge": ["tau", "N", "kappa0", "err_L2_final", "energy_max_ratio", "seconds"],
    "darcy-emulate": ["N", "probe", "err_H1", "eps", "depth", "width", "lift", "seconds"],
    "ns-emulate": ["probe", "err_L2", "eps_total", "depth", "width", "seconds"],
    "ft-emulate": ["d", "N", "sup_coeff_err", "compose_coeff_err", "eps", "seconds"],
    "deeponet-export": ["probe", "off_grid_err", "scale", "seconds"],
}


def fit_rate(params, errors) -> float:
    """Least-squares decay rate of log(error) against log(parameter).

    Convention fixed by errors {1, 1/2, 1/4} at parameters {1, 2, 4}
    giving +1: the returned rate is minus the fitted slope, so pass 1/tau
    as the parameter for time-step studies.
    """
    params = np.asarray(params, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(np.unique(params)) < 2 or np.any(errors <= 0) or np.any(params <= 0):
        raise DegenerateFit(
            f"need >= 2 distinct parameters and positive errors/parameters, got {params}"
        )
    slope = np.polyfit(np.log(params), np.log(errors), 1)[0]
    return float(-slope)


def local_rates(params, errors):
    """Consecutive-row log-ratios under the fit_rate convention."""
    out = [float("nan")]
    for i in range(1, len(params)):
        out.append(
            -(np.log(errors[i]) - np.log(errors[i - 1]))
            / (np.log(params[i]) - np.log(params[i - 1]))
        )
    return out


_REQUIRED = object()


def _param(params: dict, key: str, kind, default=_REQUIRED):
    """kind(params[key]), or default when the key is absent.

    Raises ConfigInvalid for a missing key without a default and for a
    value that kind rejects with TypeError or ValueError.
    """
    if key not in params:
        if default is _REQUIRED:
            raise ConfigInvalid(f"missing config key {key!r}")
        return default
    try:
        return kind(params[key])
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"config key {key!r}: {exc}") from None


def _integer(value) -> int:
    """int(value), rejecting a number with a fractional part instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _above(low, kind=float):
    """A kind that parses with kind and rejects values not strictly above low."""
    def parse(value):
        v = kind(value)
        if not v > low:
            raise ValueError(f"expected a value above {low}, got {value!r}")
        return v
    return parse


def _typed(t):
    """A kind that accepts values of type t unchanged and rejects the rest."""
    def check(value):
        if not isinstance(value, t):
            raise TypeError(f"expected {t.__name__}, got {value!r}")
        return value
    return check


def _list_of(kind):
    def parse(value) -> list:
        if not isinstance(value, list) or not value:
            raise TypeError(f"expected a non-empty list, got {value!r}")
        return [kind(v) for v in value]
    return parse


def _fan_out(tasks, worker, jobs: int):
    """Ordered map over tasks with at most `jobs` workers."""
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# spectral-check / property-suite
# ---------------------------------------------------------------------------


def _check_row(name, value, tol):
    return {"check": name, "value": float(value), "tolerance": float(tol),
            "pass": bool(value <= tol)}


def run_spectral_check(params: dict, seed: int, jobs: int = 1):
    from scipy.signal import convolve

    rng = np.random.default_rng(seed)
    rows = []

    worst = 0.0
    for d in (1, 2, 3):
        for N in (1, 2, 4, 8, 16):
            if (2 * N + 1) ** d > 40_000:
                continue
            f = random_field(Grid(d, N), rng)
            back = idft(dft(f))
            scale = np.max(np.abs(f.values))
            worst = max(worst, np.max(np.abs(back.values - f.values)) / scale)
    rows.append(_check_row("dft_idft_round_trip", worst, 1e-12))

    worst = 0.0
    for d in (1, 2):
        g = Grid(d, 6)
        f = random_field(g, rng)
        quad = np.sqrt((2 * np.pi) ** d / g.size * np.sum(f.values**2))
        worst = max(worst, abs(sobolev_norm(f, 0.0) - quad) / quad)
    rows.append(_check_row("parseval_h0_equals_l2", worst, 1e-10))

    worst = 0.0
    for d in (1, 2):
        for N in range(1, 17):
            g = Grid(d, N)
            u = random_field(g, rng)
            v = random_field(g, rng)
            got = dft(dealiased_product(u, v)).coeffs[..., 0]
            full = convolve(dft(u).coeffs[..., 0], dft(v).coeffs[..., 0],
                            mode="full", method="direct")
            center = tuple(slice(N, 3 * N + 1) for _ in range(d))
            want = full[center]
            worst = max(worst, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))
    rows.append(_check_row("dealiased_product_vs_convolution", worst, 1e-10))

    worst_idem, worst_div = 0.0, 0.0
    for d in (2, 3):
        g = Grid(d, 4 if d == 2 else 2)
        u = random_field(g, rng, channels=d)
        p1 = leray_project(u)
        p2 = leray_project(p1)
        worst_idem = max(worst_idem, np.max(np.abs(p2.values - p1.values))
                         / max(np.max(np.abs(p1.values)), 1e-30))
        worst_div = max(worst_div, np.max(np.abs(divergence(p1).values)) / l2_norm(u))
    rows.append(_check_row("leray_idempotence", worst_idem, 1e-10))
    rows.append(_check_row("leray_divergence", worst_div, 1e-10))

    summary = {
        "pass": {r["check"]: r["pass"] for r in rows},
        "tolerances": {r["check"]: r["tolerance"] for r in rows},
    }
    return rows, summary


def run_property_suite(params: dict, seed: int, jobs: int = 1):
    rows, summary = run_spectral_check(params, seed, jobs)
    rng = np.random.default_rng(seed + 1)

    # Darcy contraction property
    lam, N = 0.5, 8
    a = dm.random_decay_coefficient(2, 2 * N, lam, rng)
    f = field_from_function(Grid(2, 2 * N), lambda x, y: np.cos(x) + np.sin(2 * y))
    atilde, f_N = dm.prepare_coefficients(a, f, N)
    sup = float(np.max(np.abs(resample(atilde, 4 * N).values)))
    lip = dm.empirical_lipschitz(atilde, f_N, rng, pairs=100)
    rows.append(_check_row("darcy_contraction_ratio", lip, sup + 1e-8))
    rows.append(_check_row("darcy_contraction_below_bound", lip, 1 - lam / 2))

    # NS κ0-truncated energy bound and inner-iterate decay
    U = 0.5
    tau = 0.9 * ns.max_cfl_timestep(U, N, 2)
    u0 = ns.random_divergence_free(Grid(2, N), rng, norm=0.9 * U)
    cfg = ns.NsConfig(d=2, N=N, nu=0.05, T=4 * tau, tau=tau, U=U, u0=u0)
    run = ns.simulate(cfg, "first")
    rows.append(_check_row("ns_energy_growth_ratio", max(run.energies) / run.energies[0],
                           float(np.e)))
    errs, u_norm = ns.inner_iterate_errors(ns.initial_state(cfg), cfg)
    worst = max(
        (e / (2.0**-k * u_norm) for k, e in enumerate(errs[:-1]) if u_norm > 0),
        default=0.0,
    )
    rows.append(_check_row("ns_inner_iterate_decay", worst, 1 + 1e-6))

    summary = {
        "pass": {r["check"]: r["pass"] for r in rows},
        "tolerances": {r["check"]: r["tolerance"] for r in rows},
    }
    return rows, summary


# ---------------------------------------------------------------------------
# darcy-converge
# ---------------------------------------------------------------------------


def _darcy_coefficient(spec: dict, resolution: int, lam: float, rng):
    kind = _param(spec, "kind", _typed(str), "trig")
    if kind == "trig":
        return dm.trig_coefficient(2, resolution, _param(spec, "amplitude", float, 0.3))
    if kind == "random_decay":
        return dm.random_decay_coefficient(
            2, resolution, lam, rng,
            length_scale=_param(spec, "length_scale", float, 0.7),
            rho=_param(spec, "rho", float, 0.9),
        )
    raise ConfigInvalid(f"unknown coefficient kind {kind!r}")


def run_darcy_converge(params: dict, seed: int, jobs: int = 1):
    lam = _param(params, "lambda", float)
    k = _param(params, "k", _integer)
    N_list = _param(params, "N_list", _list_of(_integer))
    rng = np.random.default_rng(seed)
    source = _param(_param(params, "source", _typed(dict), {}), "kind", _typed(str), "manufactured")

    N_max = max(N_list)
    if source == "manufactured":
        a, f, u_ref = dm.manufactured_problem(2, lam, k, N_max, rng)
    elif source == "trig":
        res = 4 * N_max
        a = _darcy_coefficient(_param(params, "coefficient", _typed(dict), {}), res, lam, rng)
        f = field_from_function(Grid(2, res), lambda x, y: np.cos(x) + np.sin(2 * y))
        u_ref = dm.solve(dm.DarcyProblem(a, f, lam, k, 2 * N_max)).u
    else:
        raise ConfigInvalid(f"unknown source kind {source!r}")

    def one(N):
        t0 = time.perf_counter()
        sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
        lip = dm.empirical_lipschitz(sol.atilde_N, sol.f_N, np.random.default_rng(seed + N),
                                     pairs=20)
        err_l2 = dm.l2_error_against(sol.u, u_ref)
        err_h1 = dm.h1_error_against(sol.u, u_ref)
        return {
            "N": N, "K": sol.iterations, "err_L2": err_l2, "err_H1": err_h1,
            "lipschitz_est": lip, "seconds": time.perf_counter() - t0,
        }

    rows = _fan_out(N_list, one, jobs)
    rate = fit_rate(N_list, [r["err_H1"] for r in rows])
    summary = {
        "pass": {"h1_rate": bool(rate >= k - 0.3)},
        "slopes": {"err_H1": rate,
                   "local": local_rates(N_list, [r["err_H1"] for r in rows])},
        "tolerances": {"h1_rate_min": k - 0.3},
    }
    return rows, summary


# ---------------------------------------------------------------------------
# ns-converge
# ---------------------------------------------------------------------------


def run_ns_converge(params: dict, seed: int, jobs: int = 1):
    if _param(params, "d", _integer) != 2:
        raise ConfigInvalid("convergence studies use the analytic 2-d vortex oracle")
    N = _param(params, "N", _integer)
    nu, T, U = (_param(params, key, float) for key in ("nu", "T", "U"))
    scheme = _param(params, "scheme", _typed(str))
    if scheme not in ("first", "second"):
        raise ConfigInvalid(f"scheme must be 'first' or 'second', got {scheme!r}")
    taus = _param(params, "tau_list", _list_of(float), None) or [_param(params, "tau", float)]
    init = _param(params, "init", _typed(dict), {})
    if _param(init, "kind", _typed(str), "taylor-green") != "taylor-green":
        raise ConfigInvalid("the convergence oracle requires taylor-green initial data")
    amplitude = _param(init, "amplitude", float, 1.0)
    enforce_cfl = _param(params, "enforce_cfl", _typed(bool), False)
    checkpoint_every = _param(params, "checkpoint_every", _above(0, _integer), None)
    checkpoint_dir = _param(params, "checkpoint_dir", _typed(str), None)

    def one(row):
        i, tau = row
        t0 = time.perf_counter()
        u0 = ns.taylor_green(nu, 0.0, N, amplitude=amplitude)
        cfg = ns.NsConfig(d=2, N=N, nu=nu, T=T, tau=tau, U=U, u0=u0,
                          enforce_cfl=enforce_cfl)
        # one subdirectory per row, so rows never share a checkpoint file
        run = ns.simulate(cfg, scheme, checkpoint_every=checkpoint_every,
                          checkpoint_dir=checkpoint_dir and f"{checkpoint_dir}/tau_{i:02d}")
        exact = ns.taylor_green(nu, T, N, amplitude=amplitude)
        err = l2_norm(GridField(u0.grid, run.final.u.values - exact.values))
        kap = ns.kappa0(T, tau, order=1 if scheme == "first" else 2)
        return {
            "tau": tau, "N": N, "kappa0": kap, "err_L2_final": err,
            "energy_max_ratio": max(run.energies) / run.energies[0],
            "seconds": time.perf_counter() - t0,
        }

    rows = _fan_out(list(enumerate(taus)), one, jobs)
    band = (0.8, 1.2) if scheme == "first" else (1.7, 2.3)
    slope = fit_rate([1.0 / t for t in taus], [r["err_L2_final"] for r in rows])
    summary = {
        "pass": {"temporal_rate": bool(band[0] <= slope <= band[1]),
                 "energy_bound": bool(max(r["energy_max_ratio"] for r in rows) <= np.e)},
        "slopes": {"err_L2_final": slope,
                   "local": local_rates([1.0 / t for t in taus],
                                        [r["err_L2_final"] for r in rows])},
        "tolerances": {"band": list(band)},
    }
    return rows, summary


# ---------------------------------------------------------------------------
# emulator experiments
# ---------------------------------------------------------------------------


def run_darcy_emulate(params: dict, seed: int, jobs: int = 1):
    from .emulation import build_darcy_emulator

    lam, k = _param(params, "lambda", float), _param(params, "k", _integer)
    eps = _param(params, "eps", _above(0.0))
    N_list = _param(params, "N_list", _list_of(_above(1, _integer)))  # depth/log N needs N > 1
    n_probes = _param(params, "probes", _above(0, _integer))
    rows, nets = [], {}
    for N in N_list:
        f = field_from_function(Grid(2, 2 * N), lambda x, y: np.cos(x) + np.sin(2 * y))
        t0 = time.perf_counter()
        net = build_darcy_emulator(f, lam, N, k, B=2.0, eps=eps,
                                   rng=np.random.default_rng(seed + N))
        build_s = time.perf_counter() - t0
        nets[N] = net
        rep = size_report(net)
        rng = np.random.default_rng(seed + 1000 + N)
        for p in range(n_probes):
            t1 = time.perf_counter()
            a = dm.random_decay_coefficient(2, 2 * N, lam, rng)
            sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
            got = fno_forward(net, a)
            err = dm.h1_error_against(got, resample(sol.u, 2 * N))
            rows.append({
                "N": N, "probe": p, "err_H1": err, "eps": eps,
                "depth": rep.depth, "width": rep.width, "lift": rep.lift,
                "seconds": (time.perf_counter() - t1) + (build_s if p == 0 else 0.0),
            })
    errs_ok = all(r["err_H1"] <= r["eps"] for r in rows)
    depth_ratios = [size_report(nets[N]).depth / np.log(N) for N in N_list]
    width_ratios = [size_report(nets[N]).width / (4 * N + 1) ** 2 for N in N_list]
    summary = {
        "pass": {
            "probe_errors": bool(errs_ok),
            "depth_log_bounded": bool(max(depth_ratios) / min(depth_ratios) < 2.0),
            "width_Nd_bounded": bool(max(width_ratios) / min(width_ratios) < 1.5),
        },
        "slopes": {"depth_over_logN": depth_ratios, "width_over_grid": width_ratios},
        "tolerances": {"eps": eps},
    }
    return rows, summary


def run_ns_emulate(params: dict, seed: int, jobs: int = 1):
    from .emulation import build_ns_emulator

    N, n_T = _param(params, "N", _integer), _param(params, "n_T", _integer)
    n_probes = _param(params, "probes", _above(-1, _integer))  # Taylor-Green is always probed
    nu, U = _param(params, "nu", float), _param(params, "U", float)
    eps_total = _param(params, "eps_total", _above(0.0))
    tau = _param(params, "tau", float, 0.9 * ns.max_cfl_timestep(U, N, 2))
    rng = np.random.default_rng(seed)
    u0 = ns.taylor_green(nu, 0.0, N, amplitude=_param(params, "tg_amplitude", float, 0.1))
    if l2_norm(u0) > U:
        raise ConfigInvalid("Taylor-Green amplitude exceeds the energy bound U")
    cfg = ns.NsConfig(d=2, N=N, nu=nu, T=n_T * tau, tau=tau, U=U, u0=u0)
    t0 = time.perf_counter()
    net = build_ns_emulator(cfg, eps_total=eps_total, rng=rng)
    build_s = time.perf_counter() - t0
    rep = size_report(net)

    inits = [("taylor-green", u0)]
    for p in range(n_probes):
        inits.append(
            (f"random-{p}",
             ns.random_divergence_free(Grid(2, N), rng, norm=0.8 * U))
        )
    rows = []
    for i, (name, v0) in enumerate(inits):
        t1 = time.perf_counter()
        c2 = ns.NsConfig(d=2, N=N, nu=nu, T=n_T * tau, tau=tau, U=U, u0=v0)
        run = ns.simulate(c2, "first")
        got = fno_forward(net, v0)
        err = l2_norm(GridField(got.grid, got.values - resample(run.final.u, 2 * N).values))
        rows.append({
            "probe": name, "err_L2": err, "eps_total": eps_total,
            "depth": rep.depth, "width": rep.width,
            "seconds": (time.perf_counter() - t1) + (build_s if i == 0 else 0.0),
        })
    summary = {
        "pass": {"trajectory_errors": bool(all(r["err_L2"] <= eps_total for r in rows))},
        "tolerances": {"eps_total": eps_total},
        "slopes": {},
    }
    return rows, summary


def run_ft_emulate(params: dict, seed: int, jobs: int = 1):
    from .fno import compose
    from .emulation import build_ft_emulator, build_ift_emulator

    eps, B = _param(params, "eps", _above(0.0)), _param(params, "B", _above(0.0))
    cases = [(_param(case, "d", _integer), _param(case, "N", _integer))
             for case in _param(params, "cases", _list_of(_typed(dict)))]
    rng = np.random.default_rng(seed)
    rows = []
    for d, N in cases:
        t0 = time.perf_counter()
        ft = build_ft_emulator(N, B=B, eps=eps / 2, d=d, rng=rng)
        ift = build_ift_emulator(N, B=B, eps=eps / 2, d=d, rng=rng)
        pipe = compose(ift, ft)
        g = Grid(d, N)
        sup_coeff, sup_comp = 0.0, 0.0
        for _ in range(20):
            v = random_field(g, rng)
            v = GridField(g, v.values * (0.9 * B / (l2_norm(v) or 1.0)))
            want = dft(v).coeffs[..., 0].ravel()
            out = fno_forward(ft, v).values.reshape(-1, 2 * g.size).mean(axis=0)
            got = out[0::2] + 1j * out[1::2]
            sup_coeff = max(sup_coeff, float(np.max(np.abs(got - want))))
            back = fno_forward(pipe, v)
            cdiff = dft(GridField(g, back.values - v.values)).coeffs
            sup_comp = max(sup_comp, float(np.max(np.abs(cdiff))))
        rows.append({
            "d": d, "N": N, "sup_coeff_err": sup_coeff,
            "compose_coeff_err": sup_comp, "eps": eps,
            "seconds": time.perf_counter() - t0,
        })
    summary = {
        "pass": {"coefficient_errors": bool(all(r["sup_coeff_err"] <= eps for r in rows)),
                 "composition_errors": bool(all(r["compose_coeff_err"] <= eps for r in rows))},
        "tolerances": {"eps": eps},
        "slopes": {},
    }
    return rows, summary


def run_deeponet_export(params: dict, seed: int, jobs: int = 1):
    from .deeponet import to_deeponet
    from .fno import FnoLayer, FourierMultiplier, PsiFno
    from .spectral import evaluate

    d, N = _param(params, "d", _integer), _param(params, "N", _integer)
    n_probes = _param(params, "probes", _above(0, _integer))
    d_v, depth = _param(params, "d_v", _integer, 3), _param(params, "depth", _integer, 2)
    B = _param(params, "B", _above(0.0), 1.0)
    out_model = _param(params, "out_model", _typed(str), None)
    rng = np.random.default_rng(seed)
    g = Grid(d, N)
    layers = []
    for _ in range(depth):
        w = rng.standard_normal((d_v, d_v)) / d_v
        raw = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        s = 0.5 * (raw + np.conj(np.flip(raw, axis=tuple(range(d)))))
        mult = FourierMultiplier(d, N, [(s, rng.standard_normal((d_v, d_v)) / d_v)], d_v)
        layers.append(FnoLayer(d_v, w, random_field(g, rng, channels=d_v), mult, True))
    net = PsiFno(g, rng.standard_normal((d_v, 1)), tuple(layers),
                 rng.standard_normal((1, d_v)) / d_v)
    export = to_deeponet(net, B=B, rng=rng)
    if out_model is not None:
        from .deeponet import save_deeponet

        save_deeponet(export, net, out_model)

    rows = []
    worst = 0.0
    for p in range(n_probes):
        t0 = time.perf_counter()
        r2 = np.random.default_rng(seed + 10 + p)
        a = random_field(g, r2)
        out = fno_forward(net, a)
        pts = r2.uniform(0, 2 * np.pi, size=(3, d))
        want = evaluate(out, pts)
        got = export.evaluate(a, pts)
        scale = max(float(np.max(np.abs(out.values))), 1e-30)
        err = float(np.max(np.abs(got - want)))
        worst = max(worst, err / scale)
        rows.append({"probe": p, "off_grid_err": err, "scale": scale,
                     "seconds": time.perf_counter() - t0})
    summary = {
        "pass": {
            "off_grid": bool(worst <= 1e-9),
            "width_equality": bool(export.width == d_v * g.size),
            "depth_equality": bool(export.depth == net.depth),
        },
        "tolerances": {"off_grid_rel": 1e-9},
        "slopes": {},
    }
    return rows, summary


RUNNERS = {
    "spectral-check": run_spectral_check,
    "property-suite": run_property_suite,
    "darcy-converge": run_darcy_converge,
    "ns-converge": run_ns_converge,
    "darcy-emulate": run_darcy_emulate,
    "ns-emulate": run_ns_emulate,
    "ft-emulate": run_ft_emulate,
    "deeponet-export": run_deeponet_export,
}


def run_experiment(kind: str, params: dict, seed: int, jobs: int = 1):
    if kind not in RUNNERS:
        raise ConfigInvalid(f"unknown experiment kind {kind!r}; known: {sorted(RUNNERS)}")
    return RUNNERS[kind](params, seed, jobs)
