"""Benchmark entry point for psifno.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from anywhere inside a psifno checkout: psifno is imported from the
checkout's `src/`, never from an installed copy, and all scratch files go
to `.perfbench_tmp/` in the checkout.  With `--trace 0` the last stdout
line is a JSON object with the end-to-end metrics; with `--trace 1` it
carries the per-layer metrics of a traced run, whose spans are written to
`.perfbench_spans/<workload>.jsonl` in the checkout.  The line before it is a
report with the environment block, raw samples and any failures.  See
perfbench/README.md for what each workload and metric means.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("darcy-emu-n32", "ns-emu-n8", "solver-studies", "coeff-nets")
SETUP_REPEATS = 3


def import_program():
    """Put the checkout's src/ first on the path and check psifno comes from it."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import psifno

    where = Path(psifno.__file__).resolve().parent
    if where != src / "psifno":
        raise ImportError(f"psifno imported from {where}, expected {src / 'psifno'}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def timed_setup(wl, tmp: Path, seed: int):
    """One complete set-up; returns the state and its duration."""
    import numpy as np

    ctx = SimpleNamespace(tmp=tmp, setup_rng=np.random.default_rng([seed, 0]))
    t0 = perf_counter()
    state = wl.setup(ctx)
    return state, perf_counter() - t0


def run_phase(wl, state, rng, seconds: float, tracer=None, first_index: int = 0):
    """Closed loop: whole cycles of operations, started until `seconds` have passed."""
    from perfbench.workloads import OpResult

    samples, parts, walls, failures = [], {}, {}, []
    index = first_index
    t_phase = perf_counter()
    while perf_counter() - t_phase < seconds:
        for _ in range(wl.cycle):
            if tracer is not None:
                tracer.op = index
            t0 = perf_counter()
            try:
                res = wl.op(state, rng, index)
            except Exception as exc:  # a failed operation is counted, never dropped
                res = OpResult(False, {}, {"error": traceback.format_exception_only(exc)[-1].strip()})
            t1 = perf_counter()
            if tracer is not None:
                tracer.op = None
            walls[index] = (t0, t1)
            samples.append(t1 - t0)
            for key, value in res.parts.items():
                parts.setdefault(key, []).append(value)
            if not res.ok:
                failures.append({"op": index, **res.detail})
            index += 1
    return SimpleNamespace(samples=samples, parts=parts, walls=walls, failures=failures,
                           wall=perf_counter() - t_phase, next_index=index)


def untraced_run(wl, tmp, seed, seconds, import_s, report):
    """SETUP_REPEATS rounds of set-up then a 1/SETUP_REPEATS share of the timed phase.

    Interleaving spreads both the set-up and the operation samples over the
    whole run, so a slow spell of a shared host does not land on one of them.
    """
    import numpy as np

    from perfbench import stats

    rng = np.random.default_rng([seed, 1])
    setup_times, chunks, checks, state, index = [], [], {}, None, 0
    for _ in range(SETUP_REPEATS):
        state = None  # let the previous set-up's networks go before building again
        state, took = timed_setup(wl, tmp, seed)
        setup_times.append(took)
        for name, ok in state.checks.items():
            checks[name] = checks.get(name, True) and ok
        chunks.append(run_phase(wl, state, rng, seconds / SETUP_REPEATS, first_index=index))
        index = chunks[-1].next_index
    samples = [x for c in chunks for x in c.samples]
    failures = [f for c in chunks for f in c.failures]
    tail = stats.tail(samples)
    report.update(setup_times=setup_times, checks=checks, info=state.info,
                  op_samples=samples, failures=failures,
                  tail={"percentile": tail.percentile, "beyond": tail.beyond, "n": tail.n})
    metrics = {
        "setup_s": (import_s + float(np.median(setup_times)), "s"),
        "op_s_p50": (float(np.median(samples)), "s"),
        "op_s_tail": (tail.value, "s"),
        "ops_per_s": ((len(samples) - len(failures)) / sum(c.wall for c in chunks), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, len(samples), len(failures), checks


def traced_run(wl, tmp, seed, seconds, report, spans_path):
    """Untraced half for the baseline, then a traced set-up and a traced half.

    Every span of the traced part is written to `spans_path` as JSON lines.
    """
    import numpy as np

    from perfbench import stats
    from perfbench.tracer import Tracer, install, layer_metrics

    rng = np.random.default_rng([seed, 1])
    state, _ = timed_setup(wl, tmp, seed)
    plain = run_phase(wl, state, rng, seconds / 2)
    build_s, info, checks = state.build_s, state.info, dict(state.checks)
    state = None

    tracer = Tracer()
    restore = install(tracer)
    try:
        tracer.op = "setup"
        traced_state, _ = timed_setup(wl, tmp, seed)
        tracer.op = None
        traced = run_phase(wl, traced_state, rng, seconds / 2, tracer, plain.next_index)
    finally:
        restore()
    checks.update({f"traced_{k}": v for k, v in traced_state.checks.items()})

    def p50(phase, key):
        values = phase.parts.get(key)
        return float(np.median(values)) if values else 0.0

    attempted = len(plain.samples) + len(traced.samples)
    failed = len(plain.failures) + len(traced.failures)
    metrics = layer_metrics(tracer, traced.walls)
    metrics.update({
        "emulator_build_s": (build_s, "s"),
        "forward_s_p50": (p50(plain, "forward"), "s"),
        "solve_s_p50": (p50(plain, "solve"), "s"),
        "failure_ratio": (stats.failure_ratio(failed, attempted), "ratio"),
        "deeponet.roundtrip_mismatch": (float(info.get("roundtrip_mismatch", 0)), "count"),
    })
    metrics.update(stats.Ratio(p50(plain, "forward"), p50(plain, "solve"))
                   .metrics("emulation.forward_over_solve", base_unit="s"))
    overhead = stats.Ratio(float(np.median(traced.samples)), float(np.median(plain.samples)))
    metrics.update(overhead.metrics("trace.overhead_ratio", base_unit="s"))
    report.update(checks=checks, info=info, op_samples=plain.samples,
                  traced_op_samples=traced.samples,
                  failures=plain.failures + traced.failures, spans=len(tracer.spans))
    tracer.dump(spans_path)
    return metrics, attempted, failed, checks


def run_one(args) -> int:
    try:
        import_program()
        from perfbench.envinfo import environment
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import psifno from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - T_START
    wl = WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    report = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "import_s": import_s}
    try:
        if args.trace:
            spans_path = ROOT / ".perfbench_spans" / f"{args.workload}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
            metrics, attempted, failed, checks = traced_run(wl, tmp, args.seed, args.seconds,
                                                            report, spans_path)
        else:
            metrics, attempted, failed, checks = untraced_run(wl, tmp, args.seed, args.seconds,
                                                              import_s, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    report["environment"] = environment()
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), as a table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:42s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
