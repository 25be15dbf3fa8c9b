"""Flat binary container for grid fields.

A field is stored as little-endian float64 in row-major j-then-channel
order, next to a JSON sidecar {d, N, channels, layout}.  Used by the CLI
for reference solutions and trajectory checkpoints.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid
from .spectral import Grid, GridField

LAYOUT = "row-major-j-then-channel"


def save_field(field: GridField, path) -> None:
    """Write <path>.bin and <path>.json."""
    base = Path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(field.values, dtype="<f8")
    base.with_suffix(".bin").write_bytes(data.tobytes())
    sidecar = {
        "d": field.grid.d,
        "N": field.grid.N,
        "channels": field.channels,
        "layout": LAYOUT,
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def _count(sidecar: dict, key: str) -> int:
    value = sidecar.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigInvalid(f"field sidecar {key!r} must be a positive integer, got {value!r}")
    return value


def load_field(path) -> GridField:
    """Read <path>.bin and <path>.json as written by save_field.

    Raises ConfigInvalid when a file cannot be read, the sidecar is not a
    JSON object with the layout and positive integers d, N and channels,
    or the payload length disagrees with the sidecar.
    """
    base = Path(path)
    try:
        sidecar = json.loads(base.with_suffix(".json").read_text())
        raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    except (OSError, ValueError) as exc:  # ValueError covers JSON and odd-length payloads
        raise ConfigInvalid(f"cannot read field {base}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ConfigInvalid(f"field sidecar must be a JSON object, got {type(sidecar).__name__}")
    if sidecar.get("layout") != LAYOUT:
        raise ConfigInvalid(f"unsupported field layout {sidecar.get('layout')!r}")
    grid = Grid(_count(sidecar, "d"), _count(sidecar, "N"))
    channels = _count(sidecar, "channels")
    expected = grid.size * channels
    if raw.size != expected:
        raise ConfigInvalid(
            f"payload has {raw.size} doubles, sidecar implies {expected}"
        )
    return GridField(grid, raw.reshape(grid.shape + (channels,)).astype(float))
