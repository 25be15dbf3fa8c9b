"""The benchmark tracer wraps psifno functions by name; every name must resolve."""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import ROLE_MAP  # noqa: E402


def test_every_role_map_entry_resolves():
    missing = []
    for entries in ROLE_MAP.values():
        for modname, attr, _hook in entries:
            target = importlib.import_module(f"psifno.{modname}")
            for part in attr.split("."):
                target = vars(target).get(part) if isinstance(target, type) else getattr(
                    target, part, None)
                if target is None:
                    break
            if not callable(target):
                missing.append(f"{modname}.{attr}")
    assert not missing, f"perfbench/tracer.py ROLE_MAP names missing from psifno: {missing}"
