"""Command-line front end: `psifno <subcommand> --config <file.json>`.

Writes <out>/<kind>.csv with a fixed header (see docs/csv-schemas.md) and
<out>/<kind>_summary.json with per-criterion pass flags, slopes and
tolerances.  Identical config+seed produce byte-identical CSVs on one
platform.  Exit codes:

    0  every criterion passed
    1  the run finished and at least one criterion failed
    2  a package error (PsifnoError: invalid config, bad parameters, ...)
       or a command-line usage error
    3  an internal error: any other exception, reported on one stderr line
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigInvalid, PsifnoError
from .harness import CSV_HEADERS, _at_least, _one_of, _typed, parse_config, run_experiment

SCHEMA = "psifno-experiment/1"
_SEED, _JOBS = _at_least(0), _at_least(1)
# the config document's own keys, parsed like params; "kind" must also name the subcommand
DOCUMENT = {"schema": (_one_of(SCHEMA), SCHEMA), "seed": (_SEED, 0), "params": (_typed(dict), {})}


def _option(kind):
    """kind for a command-line value, read as a decimal integer."""
    def parse(text: str):
        return kind(int(text))
    parse.__name__ = kind.__name__  # argparse names the kind in its usage errors
    return parse


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip; also unwraps numpy scalars
    return str(int(v)) if isinstance(v, int) else str(v)


def write_csv(path: Path, kind: str, rows) -> None:
    header = CSV_HEADERS[kind]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n")


def load_config(path, kind: str):
    """The config document at path, parsed; it must be for experiment `kind`."""
    try:
        return parse_config({**DOCUMENT, "kind": _one_of(kind)}, json.loads(Path(path).read_text()))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON or not an object
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psifno",
        description="Spectral-operator experiment harness: convergence studies, "
        "solver-emulator verification, and property suites.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in CSV_HEADERS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default="psifno-out", help="output directory")
        p.add_argument("--seed", type=_option(_SEED), default=None,
                       help="override the config seed")
        p.add_argument("--jobs", type=_option(_JOBS), default=1, help="worker pool size")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except PsifnoError as exc:
        print(f"psifno: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # kept apart from 1, which means "criterion failed"
        print(f"psifno: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    doc = load_config(args.config, args.kind)
    seed = args.seed if args.seed is not None else doc["seed"]
    rows, summary = run_experiment(args.kind, doc["params"], seed, jobs=args.jobs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / f"{args.kind}.csv", args.kind, rows)
    summary_doc = {"schema": SCHEMA, "kind": args.kind, "seed": seed, **summary}
    (out / f"{args.kind}_summary.json").write_text(json.dumps(summary_doc, indent=2) + "\n")

    all_pass = all(summary["pass"].values())
    for name, ok in summary["pass"].items():
        print(f"[{'PASS' if ok else 'FAIL'}] {args.kind}: {name}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
