import json

import numpy as np
import pytest

from psifno import navier_stokes as ns
from psifno.errors import ConfigInvalid
from psifno.fieldio import load_field, save_field
from psifno.spectral import Grid, random_field

from helpers import rel_err


class TestFieldContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        f = random_field(Grid(2, 3), rng, channels=2)
        save_field(f, tmp_path / "field")
        g = load_field(tmp_path / "field")
        assert g.grid == f.grid
        assert rel_err(g.values, f.values) == 0.0

    def test_sidecar_schema(self, tmp_path):
        f = random_field(Grid(1, 2), np.random.default_rng(1))
        save_field(f, tmp_path / "field")
        doc = json.loads((tmp_path / "field.json").read_text())
        assert doc == {"d": 1, "N": 2, "channels": 1,
                       "layout": "row-major-j-then-channel"}

    def test_payload_is_little_endian_row_major(self, tmp_path):
        f = random_field(Grid(1, 1), np.random.default_rng(2), channels=2)
        save_field(f, tmp_path / "field")
        raw = np.frombuffer((tmp_path / "field.bin").read_bytes(), dtype="<f8")
        assert rel_err(raw.reshape(3, 2), f.values) == 0.0

    def test_truncated_payload_rejected(self, tmp_path):
        f = random_field(Grid(1, 2), np.random.default_rng(3))
        save_field(f, tmp_path / "field")
        data = (tmp_path / "field.bin").read_bytes()
        (tmp_path / "field.bin").write_bytes(data[:-8])
        with pytest.raises(ConfigInvalid):
            load_field(tmp_path / "field")

    def test_unknown_layout_rejected(self, tmp_path):
        f = random_field(Grid(1, 2), np.random.default_rng(4))
        save_field(f, tmp_path / "field")
        doc = json.loads((tmp_path / "field.json").read_text())
        doc["layout"] = "column-major"
        (tmp_path / "field.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigInvalid):
            load_field(tmp_path / "field")


class TestLoadHardening:
    @pytest.fixture
    def saved(self, tmp_path):
        save_field(random_field(Grid(2, 2), np.random.default_rng(6), channels=2),
                   tmp_path / "field")
        return tmp_path / "field"

    @pytest.mark.parametrize("edit", [
        lambda t: t[:-3],                                        # JSON cut short
        lambda t: "[]",                                          # not an object
        lambda t: t.replace('"channels": 2,', ""),               # missing channels
        lambda t: t.replace('"d": 2', '"d": "two"'),             # non-integer d
        lambda t: t.replace('"d": 2', '"d": 2.5'),               # fractional d
        lambda t: t.replace('"d": 2', '"d": true'),              # boolean d
        lambda t: t.replace('"d": 2', '"d": 0'),                 # non-positive d
        lambda t: t.replace('"N": 2', '"N": -2'),                # non-positive N
        lambda t: t.replace('"channels": 2', '"channels": 0'),   # non-positive channels
    ])
    def test_bad_sidecar(self, saved, edit):
        sidecar = saved.with_suffix(".json")
        sidecar.write_text(edit(sidecar.read_text()))
        with pytest.raises(ConfigInvalid):
            load_field(saved)

    @pytest.mark.parametrize("suffix", [".json", ".bin"])
    def test_missing_file(self, saved, suffix):
        saved.with_suffix(suffix).unlink()
        with pytest.raises(ConfigInvalid):
            load_field(saved)

    def test_payload_not_whole_doubles(self, saved):
        payload = saved.with_suffix(".bin")
        payload.write_bytes(payload.read_bytes()[:-3])
        with pytest.raises(ConfigInvalid):
            load_field(saved)


class TestTrajectoryCheckpoints:
    def test_simulate_writes_states(self, tmp_path):
        N, U = 4, 0.5
        tau = 0.9 * ns.max_cfl_timestep(U, N, 2)
        u0 = ns.random_divergence_free(Grid(2, N), np.random.default_rng(5), norm=0.9 * U)
        cfg = ns.NsConfig(d=2, N=N, nu=0.1, T=4 * tau, tau=tau, U=U, u0=u0)
        run = ns.simulate(cfg, "first", record_states=True,
                          checkpoint_every=2, checkpoint_dir=tmp_path)
        written = sorted(tmp_path.glob("state_*.bin"))
        assert [p.stem for p in written] == ["state_000002", "state_000004"]
        state2 = load_field(tmp_path / "state_000002")
        assert rel_err(state2.values, run.states[2].u.values) == 0.0
