"""Damaged saved files: every load returns a value or raises a PsifnoError.

Each saved format (a PSIFNO1 model, a field's .bin/.json pair, and a
DeepONet export's descriptor plus the model it names) is written once.
Each example then cuts one of its files short or flips one bit in it and
loads the copy.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psifno.deeponet import load_deeponet, save_deeponet, to_deeponet
from psifno.errors import BadParameters, PsifnoError
from psifno.fieldio import load_field, save_field
from psifno.fno import load_model, save_model
from psifno.spectral import Grid, random_field

from helpers import small_random_net

# format -> (files written, loader given the directory holding them)
FORMATS = {
    "model": (["model.psifno"], lambda root: load_model(root / "model.psifno")),
    "field": (["field.bin", "field.json"], lambda root: load_field(root / "field")),
    "deeponet": (["export.deeponet.json", "export.psifno"],
                 lambda root: load_deeponet(root / "export")),
}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    rng = np.random.default_rng(0)
    net = small_random_net(Grid(1, 2), rng)
    save_model(net, root / "model.psifno")
    save_field(random_field(Grid(2, 2), rng, channels=2), root / "field")
    save_deeponet(to_deeponet(net, B=1.0, rng=rng), net, root / "export")
    return root


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(which=st.integers(0, 1), cut=st.booleans(), position=st.integers(0, 1 << 16),
       bit=st.integers(0, 7))
def test_damaged_file_loads_or_raises_package_error(saved, fmt, which, cut, position, bit):
    files, load = FORMATS[fmt]
    name = files[which % len(files)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for f in files:
            shutil.copy(saved / f, root / f)
        data = bytearray((root / name).read_bytes())
        position %= len(data)
        if cut:
            del data[position:]
        else:
            data[position] ^= 1 << bit
        (root / name).write_bytes(bytes(data))
        try:
            load(root)
        except PsifnoError:
            pass


def test_missing_model_file_is_bad_parameters(tmp_path):
    with pytest.raises(BadParameters):
        load_model(tmp_path / "absent.psifno")


def test_descriptor_naming_a_missing_model_is_bad_parameters(saved, tmp_path):
    shutil.copy(saved / "export.deeponet.json", tmp_path / "export.deeponet.json")
    with pytest.raises(BadParameters):
        load_deeponet(tmp_path / "export")
    with pytest.raises(BadParameters):
        load_deeponet(tmp_path / "absent")
