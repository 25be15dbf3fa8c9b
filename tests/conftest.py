"""Make the package importable from a bare `python -m pytest`, in this process and in
the subprocesses the tests start (the console entry point, worker pools, -O runs)."""
import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
