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
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1, "N_list": [4, 8]}, seed=3)
        results = []
        for jobs, name in ((1, "s"), (2, "p")):
            out = tmp_path / name
            assert main(["darcy-converge", "--config", str(cfg), "--out", str(out),
                         "--jobs", str(jobs)]) == 0
            rows = (out / "darcy-converge.csv").read_text().splitlines()
            results.append([",".join(r.split(",")[:-1]) for r in rows])
        assert results[0] == results[1]

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
                           {"lambda": 0.5, "k": 1, "N_list": [4], "eps": 2e-3,
                            "probes": 3})
        out = tmp_path / "out"
        assert main(["darcy-emulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "darcy-emulate.csv").read_text().splitlines()
        assert lines[0] == "N,probe,err_H1,eps,depth,width,lift,seconds"
        assert len(lines) == 4

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
    "darcy-converge": {"lambda": 0.5, "k": 1, "N_list": [4, 8]},
    "ns-converge": {"d": 2, "N": 8, "nu": 0.05, "T": 0.08, "U": 4.5, "tau_list": [0.04, 0.02],
                    "scheme": "first", "init": {"kind": "taylor-green"}, "enforce_cfl": False},
    "darcy-emulate": {"lambda": 0.5, "k": 1, "N_list": [4], "eps": 2e-3, "probes": 3},
    "ns-emulate": {"N": 4, "nu": 0.05, "n_T": 2, "U": 0.5, "eps_total": 2e-3, "probes": 2},
    "ft-emulate": {"cases": [{"d": 1, "N": 2}], "eps": 1e-3, "B": 1.0},
    "deeponet-export": {"d": 1, "N": 2, "probes": 5},
}
OTHER_TYPES = ["ab", None, True, 1.5, [], {}, ["x"], {"kind": "x"}, [[4]]]


@st.composite
def malformed_configs(draw):
    """A small config with one key dropped or one value replaced by another type,
    either in the document or in its params block."""
    kind = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    doc = {"schema": "psifno-experiment/1", "kind": kind, "seed": 0,
           "params": json.loads(json.dumps(SMALL_CONFIGS[kind]))}
    target = doc["params"] if draw(st.booleans()) else doc
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(st.sampled_from(OTHER_TYPES))
    return kind, doc


def integer_paths(value, path=()):
    """Key/index paths to every integer (bools excluded) inside a config value."""
    if isinstance(value, int) and not isinstance(value, bool):
        yield path
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, inner in items:
            yield from integer_paths(inner, path + (key,))


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

    def test_integral_float_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "darcy-converge",
                           {"lambda": 0.5, "k": 1.0, "N_list": [4.0, 8.0]})
        assert main(["darcy-converge", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(malformed_configs())
    def test_never_an_internal_error(self, case):
        kind, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(doc))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([kind, "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code != 3, err.getvalue()
