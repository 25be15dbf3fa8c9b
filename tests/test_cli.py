import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifno.cli import main
from psifno.errors import DegenerateFit
from psifno.harness import fit_rate, local_rates


def write_config(tmp_path, kind, params, seed=0):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(
        {"schema": "psifno-experiment/1", "kind": kind, "seed": seed, "params": params}
    ))
    return path


class TestFitRate:
    def test_exact_halving(self):
        assert abs(fit_rate([1, 2, 4], [1.0, 0.5, 0.25]) - 1.0) < 1e-12

    def test_constant_errors(self):
        assert abs(fit_rate([1, 2, 4], [0.3, 0.3, 0.3])) < 1e-12

    def test_noisy_slope_two(self):
        rng = np.random.default_rng(0)
        params = np.array([4, 8, 16, 32, 64, 128], dtype=float)
        errors = params**-2.0 * np.exp(rng.normal(0, 0.02, size=len(params)))
        assert abs(fit_rate(params, errors) - 2.0) < 0.05

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateFit):
            fit_rate([1], [0.5])
        with pytest.raises(DegenerateFit):
            fit_rate([1, 2], [0.5, 0.0])

    def test_fewer_than_two_distinct_parameters(self):
        with pytest.raises(DegenerateFit):
            fit_rate([8, 8], [0.1, 0.05])
        with pytest.raises(DegenerateFit):
            fit_rate([8.0, 8, 8], [0.1, 0.05, 0.02])

    def test_local_rates(self):
        rates = local_rates([1, 2, 4], [1.0, 0.5, 0.125])
        assert np.isnan(rates[0])
        assert abs(rates[1] - 1.0) < 1e-12
        assert abs(rates[2] - 2.0) < 1e-12


class TestCliRuns:
    def test_spectral_check_passes(self, tmp_path):
        cfg = write_config(tmp_path, "spectral-check", {})
        code = main(["spectral-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        csv = (tmp_path / "out" / "spectral-check.csv").read_text()
        assert csv.splitlines()[0] == "check,value,tolerance,pass"
        summary = json.loads((tmp_path / "out" / "spectral-check_summary.json").read_text())
        assert all(summary["pass"].values())

    def test_darcy_converge(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1, "N_list": [4, 8, 16]})
        out = tmp_path / "out"
        code = main(["darcy-converge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "darcy-converge.csv").read_text().splitlines()
        assert lines[0] == "N,K,err_L2,err_H1,lipschitz_est,seconds"
        assert len(lines) == 4
        summary = json.loads((out / "darcy-converge_summary.json").read_text())
        assert summary["slopes"]["err_H1"] >= 0.7

    def test_ns_converge_first_order(self, tmp_path):
        cfg = write_config(tmp_path, "ns-converge", {
            "d": 2, "N": 8, "nu": 0.05, "T": 0.4, "U": 4.5,
            "tau_list": [0.04, 0.02, 0.01], "scheme": "first",
            "init": {"kind": "taylor-green"}, "enforce_cfl": False,
        })
        out = tmp_path / "out"
        code = main(["ns-converge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "ns-converge.csv").read_text().splitlines()
        assert lines[0] == "tau,N,kappa0,err_L2_final,energy_max_ratio,seconds"

    def test_determinism_excluding_timings(self, tmp_path):
        # full-file byte identity is asserted in the acceptance suite via a
        # timing-free experiment; here rerun darcy and compare all but seconds
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1, "N_list": [4, 8]}, seed=7)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["darcy-converge", "--config", str(cfg), "--out", str(out)]) == 0
            rows = (out / "darcy-converge.csv").read_text().splitlines()
            outs.append([",".join(r.split(",")[:-1]) for r in rows])
        assert outs[0] == outs[1]

    def test_darcy_converge_second_order_rate(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 2, "N_list": [8, 16, 32, 64]})
        out = tmp_path / "out"
        code = main(["darcy-converge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "darcy-converge.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        summary = json.loads((out / "darcy-converge_summary.json").read_text())
        assert summary["slopes"]["err_H1"] >= 1.7

    def test_ns_converge_second_order(self, tmp_path):
        cfg = write_config(tmp_path, "ns-converge", {
            "d": 2, "N": 16, "nu": 0.05, "T": 8.0, "U": 4.5,
            "tau_list": [0.1, 0.05, 0.025], "scheme": "second",
            "init": {"kind": "taylor-green"}, "enforce_cfl": False,
        })
        out = tmp_path / "out"
        code = main(["ns-converge", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "ns-converge_summary.json").read_text())
        assert 1.7 <= summary["slopes"]["err_L2_final"] <= 2.3

    def test_failed_criterion_gives_nonzero_exit(self, tmp_path):
        # the second-order scheme at this short horizon measures a slope ~3,
        # outside [1.7, 2.3]: the run completes but the criterion fails
        cfg = write_config(tmp_path, "ns-converge", {
            "d": 2, "N": 8, "nu": 0.05, "T": 0.4, "U": 4.5,
            "tau_list": [0.04, 0.02, 0.01], "scheme": "second",
            "init": {"kind": "taylor-green"}, "enforce_cfl": False,
        })
        out = tmp_path / "out"
        code = main(["ns-converge", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "ns-converge_summary.json").read_text())
        assert not summary["pass"]["temporal_rate"]

    def test_config_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "spectral-check", {})
        code = main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_config_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["spectral-check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_config_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code = main(["spectral-check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_missing_params_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-converge", {"lambda": 0.5})
        code = main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_console_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, "spectral-check", {})
        proc = subprocess.run(
            [sys.executable, "-m", "psifno.cli", "spectral-check",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout

    def test_jobs_fanout_matches_serial(self, tmp_path):
        for kind, params in (
            ("darcy-converge", {"lambda": 0.5, "k": 1, "N_list": [4, 8]}),
            ("ns-converge", {"d": 2, "N": 8, "nu": 0.05, "T": 0.08, "U": 4.5,
                             "scheme": "first", "tau_list": [0.04, 0.02]}),
        ):
            cfg = write_config(tmp_path, kind, params, seed=3)
            results = []
            for jobs, name in ((1, "s"), (2, "p")):
                out = tmp_path / f"{kind}-{name}"
                assert main([kind, "--config", str(cfg), "--out", str(out),
                             "--jobs", str(jobs)]) == 0
                rows = (out / f"{kind}.csv").read_text().splitlines()
                results.append(([",".join(r.split(",")[:-1]) for r in rows],  # all but seconds
                                (out / f"{kind}_summary.json").read_bytes()))
            assert results[0] == results[1], kind

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cfl_violation_in_a_row_exits_2(self, tmp_path, jobs):
        # the CFL bound at U = 4.5, N = 8 is 6.4e-4: the first tau meets it, the second does not
        cfg = write_config(tmp_path, "ns-converge", {
            "d": 2, "N": 8, "nu": 0.05, "T": 0.04, "U": 4.5, "scheme": "first",
            "tau_list": [0.0005, 0.02], "enforce_cfl": True})
        out, err = tmp_path / "out", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["ns-converge", "--config", str(cfg), "--out", str(out), "--jobs", jobs])
        assert code == 2
        [line] = err.getvalue().splitlines()
        assert line.startswith("psifno: error: tau = 2.000e-02 exceeds the CFL bound")
        assert not (out / "ns-converge.csv").exists()

    def test_ns_converge_checkpoints_per_row(self, tmp_path):
        from psifno import navier_stokes as ns
        from psifno.fieldio import load_field

        taus, T, ckpt = [0.04, 0.02], 0.08, tmp_path / "ckpt"
        cfg = write_config(tmp_path, "ns-converge", {
            "d": 2, "N": 8, "nu": 0.05, "T": T, "U": 4.5, "tau_list": taus,
            "scheme": "first", "init": {"kind": "taylor-green"}, "enforce_cfl": False,
            "checkpoint_every": 1, "checkpoint_dir": str(ckpt),
        })
        main(["ns-converge", "--config", str(cfg), "--out", str(tmp_path / "out"),
              "--jobs", "2"])
        expected = set()
        for i, tau in enumerate(taus):
            u0 = ns.taylor_green(0.05, 0.0, 8)
            run = ns.simulate(ns.NsConfig(d=2, N=8, nu=0.05, T=T, tau=tau, U=4.5, u0=u0,
                                          enforce_cfl=False), "first", record_states=True)
            for st in run.states[1:]:
                base = f"tau_{i:02d}/state_{st.step:06d}"
                expected.add(base + ".bin")
                assert np.array_equal(load_field(ckpt / base).values, st.u.values)
        written = {p.relative_to(ckpt).as_posix() for p in ckpt.rglob("*.bin")}
        assert written == expected and len(expected) == 2 + 4


class TestPropertySuite:
    def test_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, "property-suite", {})
        out = tmp_path / "out"
        assert main(["property-suite", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "property-suite_summary.json").read_text())
        assert all(summary["pass"].values())


class TestEmulatorSubcommands:
    def test_darcy_emulate(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-emulate",
                           {"lambda": 0.5, "k": 1, "N_list": [2, 4], "eps": 2e-3,
                            "probes": 3})
        out = tmp_path / "out"
        assert main(["darcy-emulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "darcy-emulate.csv").read_text().splitlines()
        assert lines[0] == "N,probe,err_H1,eps,depth,width,lift,seconds"
        assert len(lines) == 7

    def test_darcy_emulate_width_ratio_is_the_lift(self, tmp_path):
        # 2M+1 = 7 and 15 points at N = 2 and 3, against 4N+1 = 9 and 13: width over
        # the network's own grid is the lift at both N, so the growth check holds
        cfg = write_config(tmp_path, "darcy-emulate",
                           {"lambda": 0.5, "k": 1, "N_list": [2, 3], "eps": 2e-3,
                            "probes": 1})
        out = tmp_path / "out"
        assert main(["darcy-emulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "darcy-emulate_summary.json").read_text())
        assert summary["slopes"]["width_over_grid"] == [12.0, 12.0]
        assert summary["pass"]["width_Nd_bounded"]

    def test_ns_emulate(self, tmp_path):
        cfg = write_config(tmp_path, "ns-emulate",
                           {"N": 4, "nu": 0.05, "n_T": 2, "U": 0.5,
                            "eps_total": 2e-3, "probes": 2})
        out = tmp_path / "out"
        assert main(["ns-emulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "ns-emulate.csv").read_text().splitlines()
        assert lines[0] == "probe,err_L2,eps_total,depth,width,seconds"
        assert lines[1].startswith("taylor-green,")

    def test_ft_emulate(self, tmp_path):
        cfg = write_config(tmp_path, "ft-emulate",
                           {"cases": [{"d": 1, "N": 2}], "eps": 1e-3, "B": 1.0})
        out = tmp_path / "out"
        assert main(["ft-emulate", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "ft-emulate_summary.json").read_text())
        assert all(summary["pass"].values())

    def test_deeponet_export(self, tmp_path):
        cfg = write_config(tmp_path, "deeponet-export",
                           {"d": 1, "N": 2, "probes": 5,
                            "out_model": str(tmp_path / "model")})
        out = tmp_path / "out"
        assert main(["deeponet-export", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "model.deeponet.json").exists()
        assert (tmp_path / "model.psifno").exists()


class TestExitCodes:
    def test_non_numeric_config_value_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1, "N_list": "ab"})
        code = main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("psifno: error: config key 'N_list'")

    def test_runner_exception_is_internal_error(self, tmp_path, capsys, monkeypatch):
        import psifno.cli

        def broken(*args, **kwargs):
            raise RuntimeError("runner broke")

        monkeypatch.setattr(psifno.cli, "run_experiment", broken)
        cfg = write_config(tmp_path, "spectral-check", {})
        code = main(["spectral-check", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == "psifno: internal error: RuntimeError: runner broke\n"
        assert not (tmp_path / "out").exists()


# one small config per experiment; each valid one runs in well under a second
SMALL_CONFIGS = {
    "darcy-converge": {"lambda": 0.5, "k": 1, "N_list": [4, 8], "source": {"kind": "trig"},
                       "coefficient": {"kind": "random_decay"}},
    "ns-converge": {"d": 2, "N": 8, "nu": 0.05, "T": 0.08, "U": 4.5, "tau_list": [0.04, 0.02],
                    "scheme": "first", "init": {"kind": "taylor-green"}, "enforce_cfl": False},
    "darcy-emulate": {"lambda": 0.5, "k": 1, "N_list": [2, 4], "eps": 2e-3, "probes": 3},
    "ns-emulate": {"N": 4, "nu": 0.05, "n_T": 2, "U": 0.5, "eps_total": 2e-3, "probes": 2},
    "ft-emulate": {"cases": [{"d": 1, "N": 2}], "eps": 1e-3, "B": 1.0},
    "deeponet-export": {"d": 1, "N": 2, "probes": 5},
}
OTHER_TYPES = ["ab", None, True, 1.5, [], {}, ["x"], {"kind": "x"}, [[4]]]


def objects(value):
    """Every JSON object inside a config value, the value itself included."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    for inner in value if isinstance(value, list) else ():
        yield from objects(inner)


@st.composite
def malformed_configs(draw):
    """A small config with one key dropped, one value replaced by another type or
    one unknown key added, in the document, its params block or a nested block.
    Returns (kind, doc, whether an unknown key was added)."""
    kind = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    doc = {"schema": "psifno-experiment/1", "kind": kind, "seed": 0,
           "params": json.loads(json.dumps(SMALL_CONFIGS[kind]))}
    target = draw(st.sampled_from(list(objects(doc))))
    action = draw(st.sampled_from(["drop", "replace", "add"] if target else ["add"]))
    if action == "add":
        target["not_a_key"] = draw(st.sampled_from(OTHER_TYPES))
    else:
        key = draw(st.sampled_from(sorted(target)))
        if action == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from(OTHER_TYPES))
    return kind, doc, action == "add"


def integer_paths(value, path=()):
    """Key/index paths to every integer (bools excluded) inside a config value."""
    if isinstance(value, int) and not isinstance(value, bool):
        yield path
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, inner in items:
            yield from integer_paths(inner, path + (key,))


# values outside their domain; each once ran (and some passed vacuously or failed with an
# internal error) instead of exiting 2.  A path leads into the params block, or names a
# document key ("seed") or a command-line flag ("--jobs").
OUT_OF_RANGE_CASES = [
    ("darcy-emulate", ("probes",), 0),
    ("deeponet-export", ("probes",), 0),
    ("ns-converge", ("checkpoint_every",), 0),
    ("ns-converge", ("checkpoint_every",), -1),
    ("darcy-emulate", ("eps",), -2e-3),
    ("ns-emulate", ("eps_total",), -2e-3),
    ("ns-emulate", ("probes",), -1),
    ("ft-emulate", ("eps",), -1e-3),
    ("ft-emulate", ("B",), -1.0),
    ("deeponet-export", ("B",), 0.0),
    ("darcy-emulate", ("N_list", 0), 1),
    ("darcy-emulate", ("N_list",), [4]),
    ("ns-converge", ("init", "amplitude"), 0),
    ("deeponet-export", ("d_v",), 0),
    ("deeponet-export", ("depth",), 0),
    ("darcy-converge", ("coefficient", "rho"), 0),
    ("darcy-converge", ("coefficient", "length_scale"), -1),
    ("darcy-converge", ("seed",), -3),
    ("darcy-converge", ("seed",), 1.5),
    ("darcy-converge", ("--seed",), -1),
    ("darcy-converge", ("--jobs",), 0),
    ("darcy-converge", ("--jobs",), -3),
    # booleans and numeric strings are not numbers
    ("deeponet-export", ("probes",), True),
    ("darcy-emulate", ("eps",), True),
    ("darcy-converge", ("seed",), True),
    ("darcy-converge", ("k",), "2"),
    ("ns-emulate", ("eps_total",), "1e-3"),
    ("darcy-converge", ("--seed",), "true"),
    # nor are NaN and the infinities, which Python's json reads
    ("ns-converge", ("nu",), float("nan")),
    ("ns-converge", ("T",), float("inf")),
    ("ns-emulate", ("tg_amplitude",), float("nan")),
    ("darcy-converge", ("coefficient", "amplitude"), -float("inf")),
    ("darcy-converge", ("--jobs",), "NaN"),
]

INTEGER_CASES = [(kind, path) for kind in sorted(SMALL_CONFIGS)
                 for path in integer_paths(SMALL_CONFIGS[kind])]


class TestMalformedConfigs:
    @pytest.mark.parametrize("kind,path", INTEGER_CASES, ids=[
        f"{kind}:{'.'.join(map(str, path))}" for kind, path in INTEGER_CASES])
    def test_non_integral_number_is_config_error(self, tmp_path, kind, path):
        params = json.loads(json.dumps(SMALL_CONFIGS[kind]))
        target = params
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] += 0.5
        cfg = write_config(tmp_path, kind, params)
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("kind,path,value", OUT_OF_RANGE_CASES, ids=[
        f"{kind}:{'.'.join(map(str, path))}={value}" for kind, path, value in OUT_OF_RANGE_CASES])
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, kind, path, value):
        doc = {"schema": "psifno-experiment/1", "kind": kind, "seed": 0,
               "params": json.loads(json.dumps(SMALL_CONFIGS[kind]))}
        cfg = tmp_path / "config.json"
        argv = [kind, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if path[0].startswith("--"):
            argv += [path[0], str(value)]
        else:
            target = doc if path[0] in doc else doc["params"]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        cfg.write_text(json.dumps(doc))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        if path[0].startswith("--"):
            assert f"error: argument {path[0]}: invalid" in err
        else:
            dotted = ".".join(k for k in path if isinstance(k, str))
            assert err.startswith(f"psifno: error: config key '{dotted}'")
            assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_parameter_is_a_degenerate_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "darcy-converge", {"lambda": 0.5, "k": 1, "N_list": [8, 8]})
        assert main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_integral_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1.0, "N_list": [4.0, 8.0]})
        assert main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(malformed_configs())
    def test_never_an_internal_error(self, case):
        kind, doc, unknown_key = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([kind, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code != 3, err.getvalue()
        if unknown_key:
            assert code == 2 and "config key" in err.getvalue() and "not_a_key" in err.getvalue()
