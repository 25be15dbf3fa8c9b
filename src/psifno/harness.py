"""Experiment runners behind the command-line interface.

Each experiment consumes a JSON-serializable parameter block, parsed
against its table in RUNNERS before any work (ConfigInvalid names a
missing, unknown or out-of-domain key), plus a seed; it fans out over its
parameter list with a bounded pool of forked worker processes, and returns
(rows, summary): CSV rows with a fixed header (documented in
docs/csv-schemas.md) and a JSON summary carrying per-criterion pass flags,
measured slopes and tolerances.  The seed fully determines every random
draw, and rows are assembled in a deterministic order, so reruns are
byte-identical.
"""

from __future__ import annotations

import sys
import time
from types import MappingProxyType

import numpy as np

from . import darcy as dm
from . import deeponet as don
from . import emulation as em
from . import navier_stokes as ns
from .errors import ConfigInvalid, DegenerateFit
from .fno import FnoLayer, FourierMultiplier, PsiFno, compose, fno_forward, size_report
from .spectral import (
    Grid,
    GridField,
    dealiased_product,
    dft,
    divergence,
    evaluate,
    field_from_function,
    idft,
    l2_norm,
    leray_project,
    random_field,
    resample,
    sobolev_norm,
)

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
    rates = -np.diff(np.log(errors)) / np.diff(np.log(params))
    return [float("nan")] + rates.tolist()


class _Invalid(Exception):
    """A rejected config value; args are (dotted key path, reason)."""


def _param(block: dict, key: str, spec):
    """block[key] parsed by spec: a kind for a required key, or (kind, default) for an
    optional one, whose default is parsed by kind too unless it is None (unset)."""
    optional = isinstance(spec, tuple)
    kind, default = spec if optional else (spec, None)
    if key not in block:
        if not optional:
            raise _Invalid(key, "missing")
        if default is None:
            return None
    try:
        return kind(block.get(key, default))
    except _Invalid as exc:  # from a nested block
        raise _Invalid(f"{key}.{exc.args[0]}", exc.args[1]) from None
    except (TypeError, ValueError) as exc:
        raise _Invalid(key, str(exc)) from None


def _block(table: dict):
    """A kind for a JSON object holding only keys of table {key: spec} (see _param);
    it returns a read-only record of every key in the table."""
    def parse(value):
        unknown = sorted(set(_typed(dict)(value)) - set(table))
        if unknown:
            raise _Invalid(unknown[0], f"unknown key; expected one of {sorted(table)}")
        return MappingProxyType({key: _param(value, key, spec) for key, spec in table.items()})
    return parse


def parse_config(table: dict, block: dict):
    """The record of block under table; ConfigInvalid names the first bad key."""
    try:
        return _block(table)(block)
    except _Invalid as exc:
        raise ConfigInvalid(f"config key {exc.args[0]!r}: {exc.args[1]}") from None


def _number(value) -> float:
    """A finite JSON number as a float; booleans, strings, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, integers beyond float range
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral _number as an int, rejecting a fractional part instead of truncating it."""
    if not _number(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _checked(test, domain: str, kind=lambda v: v):
    """A kind that parses with kind and rejects values v with test(v) false."""
    def parse(value):
        v = kind(value)
        if not test(v):
            raise ValueError(f"expected {domain}, got {value!r}")
        return v
    parse.__name__ = domain  # argparse names the kind in its usage errors
    return parse


def _typed(t):
    return _checked(lambda v: isinstance(v, t), t.__name__)


def _at_least(low: int):
    return _checked(lambda v: v >= low, f"integer >= {low}", _integer)


def _one_of(*values):
    return _checked(lambda v: v in values, f"one of {list(values)}")


_positive = _checked(lambda v: v > 0, "number > 0", _number)
_in_unit = _checked(lambda v: 0 < v < 1, "number in (0, 1)", _number)


def _list_of(kind, distinct: int = 1):
    """A kind for a list of at least `distinct` distinct values of kind, returned as a tuple."""
    def parse(value) -> tuple:
        items = tuple(kind(v) for v in _typed(list)(value))
        if len(set(items) if distinct > 1 else items) < distinct:
            raise ValueError(f"expected {distinct} or more distinct entries, got {value!r}")
        return items
    return parse


_WORKER = None  # the worker a forked pool process runs; set by _install


def _install(worker) -> None:
    global _WORKER
    _WORKER = worker


def _call(task):
    return _WORKER(task)


def _fan_out(tasks, worker, jobs: int):
    """[worker(t) for t in tasks], run by at most `jobs` forked worker processes.

    Under fork the worker is inherited rather than pickled, so closures
    work; only the tasks and the results cross the pipe.  A worker's
    exception re-raises here, and a worker that dies raises
    BrokenProcessPool.  Serial for one job or task, or without fork.
    """
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_install, initargs=(worker,)) as pool:
                return list(pool.map(_call, tasks))
    return [worker(t) for t in tasks]


# ---------------------------------------------------------------------------
# spectral-check / property-suite
# ---------------------------------------------------------------------------


def _check_row(name, value, tol):
    return {"check": name, "value": float(value), "tolerance": float(tol),
            "pass": bool(value <= tol)}


def _checks_result(rows):
    """(rows, summary) of a run whose rows are _check_row results."""
    return rows, {"pass": {r["check"]: r["pass"] for r in rows},
                  "tolerances": {r["check"]: r["tolerance"] for r in rows}}


def run_spectral_check(params: MappingProxyType, seed: int, jobs: int = 1):
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
    return _checks_result(rows)


def run_property_suite(params: MappingProxyType, seed: int, jobs: int = 1):
    rows, _ = run_spectral_check(params, seed, jobs)
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
    return _checks_result(rows)


# ---------------------------------------------------------------------------
# darcy-converge
# ---------------------------------------------------------------------------


def run_darcy_converge(params: MappingProxyType, seed: int, jobs: int = 1):
    lam, k, N_list = params["lambda"], params["k"], params["N_list"]
    rng = np.random.default_rng(seed)

    N_max = max(N_list)
    if params["source"]["kind"] == "manufactured":
        a, f, u_ref = dm.manufactured_problem(2, lam, k, N_max, rng)
    else:
        res, coef = 4 * N_max, params["coefficient"]
        if coef["kind"] == "trig":
            a = dm.trig_coefficient(2, res, coef["amplitude"])
        else:
            a = dm.random_decay_coefficient(2, res, lam, rng, length_scale=coef["length_scale"],
                                            rho=coef["rho"])
        f = field_from_function(Grid(2, res), lambda x, y: np.cos(x) + np.sin(2 * y))
        u_ref = dm.solve(dm.DarcyProblem(a, f, lam, k, 2 * N_max)).u

    def one(task):
        # each N is two tasks, so its Lipschitz estimate runs beside its solve
        N, part = task
        t0 = time.perf_counter()
        if part == "solve":
            sol = dm.solve(dm.DarcyProblem(a, f, lam, k, N))
            row = {"N": N, "K": sol.iterations, "err_L2": dm.l2_error_against(sol.u, u_ref),
                   "err_H1": dm.h1_error_against(sol.u, u_ref)}
        else:  # the coefficients solve prepares, from the same fold of a onto the 2N grid
            atilde_N, f_N = dm.prepare_coefficients(a, f, N)
            row = {"lipschitz_est": dm.empirical_lipschitz(
                atilde_N, f_N, np.random.default_rng(seed + N), pairs=20)}
        return {**row, "seconds": time.perf_counter() - t0}

    # largest N first, so that its two tasks, the longest, do not start last
    tasks = [(N, part) for N in sorted(set(N_list), reverse=True) for part in ("lipschitz", "solve")]
    done = dict(zip(tasks, _fan_out(tasks, one, jobs)))
    rows = []
    for N in N_list:
        solve, lip = done[N, "solve"], done[N, "lipschitz"]
        rows.append({**solve, **lip, "seconds": solve["seconds"] + lip["seconds"]})
    errs = [r["err_H1"] for r in rows]
    rate = fit_rate(N_list, errs)
    return rows, {
        "pass": {"h1_rate": bool(rate >= k - 0.3)},
        "slopes": {"err_H1": rate, "local": local_rates(N_list, errs)},
        "tolerances": {"h1_rate_min": k - 0.3},
    }


# ---------------------------------------------------------------------------
# ns-converge
# ---------------------------------------------------------------------------


def run_ns_converge(params: MappingProxyType, seed: int, jobs: int = 1):
    N, nu, T, U, scheme, taus = (params[key] for key in ("N", "nu", "T", "U", "scheme", "tau_list"))
    amplitude, checkpoint_dir = params["init"]["amplitude"], params["checkpoint_dir"]

    def one(row):
        i, tau = row
        t0 = time.perf_counter()
        u0 = ns.taylor_green(nu, 0.0, N, amplitude=amplitude)
        cfg = ns.NsConfig(d=2, N=N, nu=nu, T=T, tau=tau, U=U, u0=u0,
                          enforce_cfl=params["enforce_cfl"])
        # one subdirectory per row, so rows never share a checkpoint file
        run = ns.simulate(cfg, scheme, checkpoint_every=params["checkpoint_every"],
                          checkpoint_dir=checkpoint_dir and f"{checkpoint_dir}/tau_{i:02d}")
        exact = ns.taylor_green(nu, T, N, amplitude=amplitude)
        err = l2_norm(GridField(u0.grid, run.final.u.values - exact.values))
        return {
            "tau": tau, "N": N, "kappa0": run.kappa, "err_L2_final": err,
            "energy_max_ratio": max(run.energies) / run.energies[0],
            "seconds": time.perf_counter() - t0,
        }

    rows = _fan_out(list(enumerate(taus)), one, jobs)
    band = (0.8, 1.2) if scheme == "first" else (1.7, 2.3)
    inverse_taus, errs = [1.0 / t for t in taus], [r["err_L2_final"] for r in rows]
    slope = fit_rate(inverse_taus, errs)
    return rows, {
        "pass": {"temporal_rate": bool(band[0] <= slope <= band[1]),
                 "energy_bound": bool(max(r["energy_max_ratio"] for r in rows) <= np.e)},
        "slopes": {"err_L2_final": slope, "local": local_rates(inverse_taus, errs)},
        "tolerances": {"band": list(band)},
    }


# ---------------------------------------------------------------------------
# emulator experiments
# ---------------------------------------------------------------------------


def run_darcy_emulate(params: MappingProxyType, seed: int, jobs: int = 1):
    lam, k, eps, N_list, n_probes = (params[key] for key in
                                     ("lambda", "k", "eps", "N_list", "probes"))
    rows, reps, points = [], {}, {}
    for N in N_list:
        f = field_from_function(Grid(2, 2 * N), lambda x, y: np.cos(x) + np.sin(2 * y))
        t0 = time.perf_counter()
        net = em.build_darcy_emulator(f, lam, N, k, B=2.0, eps=eps,
                                      rng=np.random.default_rng(seed + N))
        build_s = time.perf_counter() - t0
        rep = reps[N] = size_report(net)
        points[N] = net.grid.size
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
    depth_ratios = [reps[N].depth / np.log(N) for N in N_list]
    width_ratios = [reps[N].width / points[N] for N in N_list]  # per point of the network grid
    return rows, {
        "pass": {
            "probe_errors": bool(errs_ok),
            "depth_log_bounded": bool(max(depth_ratios) / min(depth_ratios) < 2.0),
            "width_Nd_bounded": bool(max(width_ratios) / min(width_ratios) < 1.5),
        },
        "slopes": {"depth_over_logN": depth_ratios, "width_over_grid": width_ratios},
        "tolerances": {"eps": eps},
    }


def run_ns_emulate(params: MappingProxyType, seed: int, jobs: int = 1):
    N, n_T, n_probes, nu, U, eps_total = (params[key] for key in
                                          ("N", "n_T", "probes", "nu", "U", "eps_total"))
    tau = params["tau"] or 0.9 * ns.max_cfl_timestep(U, N, 2)
    rng = np.random.default_rng(seed)
    u0 = ns.taylor_green(nu, 0.0, N, amplitude=params["tg_amplitude"])
    if l2_norm(u0) > U:
        raise ConfigInvalid("Taylor-Green amplitude exceeds the energy bound U")
    cfg = ns.NsConfig(d=2, N=N, nu=nu, T=n_T * tau, tau=tau, U=U, u0=u0)
    t0 = time.perf_counter()
    net = em.build_ns_emulator(cfg, eps_total=eps_total, rng=rng)
    build_s = time.perf_counter() - t0
    rep = size_report(net)

    inits = [("taylor-green", u0)] + [
        (f"random-{p}", ns.random_divergence_free(Grid(2, N), rng, norm=0.8 * U))
        for p in range(n_probes)]
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
    return rows, {
        "pass": {"trajectory_errors": bool(all(r["err_L2"] <= eps_total for r in rows))},
        "tolerances": {"eps_total": eps_total},
        "slopes": {},
    }


def run_ft_emulate(params: MappingProxyType, seed: int, jobs: int = 1):
    eps, B = params["eps"], params["B"]
    rng = np.random.default_rng(seed)
    rows = []
    for d, N in ((case["d"], case["N"]) for case in params["cases"]):
        t0 = time.perf_counter()
        ft = em.build_ft_emulator(N, B=B, eps=eps / 2, d=d, rng=rng)
        ift = em.build_ift_emulator(N, B=B, eps=eps / 2, d=d, rng=rng)
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
    return rows, {
        "pass": {"coefficient_errors": bool(all(r["sup_coeff_err"] <= eps for r in rows)),
                 "composition_errors": bool(all(r["compose_coeff_err"] <= eps for r in rows))},
        "tolerances": {"eps": eps},
        "slopes": {},
    }


def run_deeponet_export(params: MappingProxyType, seed: int, jobs: int = 1):
    d, N, n_probes, d_v, depth = (params[key] for key in ("d", "N", "probes", "d_v", "depth"))
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
    export = don.to_deeponet(net, B=params["B"], rng=rng)
    if params["out_model"] is not None:
        don.save_deeponet(export, net, params["out_model"])

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
    return rows, {
        "pass": {
            "off_grid": bool(worst <= 1e-9),
            "width_equality": bool(export.width == d_v * g.size),
            "depth_equality": bool(export.depth == net.depth),
        },
        "tolerances": {"off_grid_rel": 1e-9},
        "slopes": {},
    }


# kind -> (runner, parameter table {key: spec}); a spec is the kind of a required key,
# or (kind, default) for an optional one, a None default leaving it unset
RUNNERS = {
    "spectral-check": (run_spectral_check, {}),
    "property-suite": (run_property_suite, {}),
    "darcy-converge": (run_darcy_converge, {
        "lambda": _in_unit, "k": _at_least(1), "N_list": _list_of(_at_least(1), distinct=2),
        "source": (_block({"kind": (_one_of("manufactured", "trig"), "manufactured")}), {}),
        "coefficient": (_block({"kind": (_one_of("trig", "random_decay"), "trig"),
                                "amplitude": (_number, 0.3), "length_scale": (_positive, 0.7),
                                "rho": (_in_unit, 0.9)}), {}),
    }),
    "ns-converge": (run_ns_converge, {
        "d": _one_of(2),  # the analytic vortex oracle is two-dimensional
        "N": _at_least(1), "nu": _number, "T": _positive, "U": _positive,
        "scheme": _one_of("first", "second"), "tau_list": _list_of(_positive, distinct=2),
        "init": (_block({"kind": (_one_of("taylor-green"), "taylor-green"),
                         "amplitude": (_positive, 1.0)}), {}),
        "enforce_cfl": (_typed(bool), False),
        "checkpoint_every": (_at_least(1), None), "checkpoint_dir": (_typed(str), None),
    }),
    "darcy-emulate": (run_darcy_emulate, {
        "lambda": _in_unit, "k": _at_least(1), "eps": _positive, "probes": _at_least(1),
        "N_list": _list_of(_at_least(2), distinct=2),  # depth/log N needs N > 1
    }),
    "ns-emulate": (run_ns_emulate, {
        "N": _at_least(1), "n_T": _at_least(1), "nu": _number, "U": _positive,
        "eps_total": _positive, "probes": _at_least(0),  # Taylor-Green is always probed
        "tau": (_positive, None),  # unset: 0.9 times the CFL time step
        "tg_amplitude": (_number, 0.1),
    }),
    "ft-emulate": (run_ft_emulate, {
        "eps": _positive, "B": _positive,
        "cases": _list_of(_block({"d": _at_least(1), "N": _at_least(1)})),
    }),
    "deeponet-export": (run_deeponet_export, {
        "d": _at_least(1), "N": _at_least(1), "probes": _at_least(1),
        "d_v": (_at_least(1), 3), "depth": (_at_least(1), 2), "B": (_positive, 1.0),
        "out_model": (_typed(str), None),
    }),
}


def run_experiment(kind: str, params: dict, seed: int, jobs: int = 1):
    if kind not in RUNNERS:
        raise ConfigInvalid(f"unknown experiment kind {kind!r}; known: {sorted(RUNNERS)}")
    runner, table = RUNNERS[kind]
    return runner(parse_config(table, params), seed, jobs)
