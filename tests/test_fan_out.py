"""The `--jobs` pool: harness._fan_out runs tasks in forked worker processes."""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from psifno.errors import CflViolation
from psifno.harness import _fan_out


def test_tasks_run_in_other_processes_in_task_order():
    caller = os.getpid()
    tag = "closure"  # a local function cannot be pickled: the workers inherit it

    def worker(task):
        return task, tag, os.getpid()

    tasks = list(range(7))
    results = _fan_out(tasks, worker, jobs=2)
    assert [(t, g) for t, g, _ in results] == [(t, tag) for t in tasks]
    assert caller not in {pid for _, _, pid in results}
    assert multiprocessing.active_children() == []  # the pool is shut down and joined


@pytest.mark.parametrize("tasks, jobs", [([1, 2, 3], 1), ([1], 2)])
def test_one_job_or_one_task_runs_in_process(tasks, jobs):
    assert _fan_out(tasks, lambda t: (t, os.getpid()), jobs) == [(t, os.getpid()) for t in tasks]


def test_worker_error_reraises_in_caller():
    def worker(task):
        if task == 2:
            raise CflViolation("tau too large")
        return task

    with pytest.raises(CflViolation, match="tau too large"):
        _fan_out([0, 1, 2, 3], worker, jobs=2)


def _run_python(code: str) -> subprocess.CompletedProcess:
    # a child interpreter, so that a pool that hangs or kills its caller fails only the test
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)


def test_dead_worker_raises_broken_pool_within_seconds():
    code = (
        "import os, time\n"
        "from concurrent.futures.process import BrokenProcessPool\n"
        "from psifno.harness import _fan_out\n"
        "t0 = time.perf_counter()\n"
        "try:\n"
        "    _fan_out([0, 1, 2], lambda t: os._exit(9) if t == 1 else t, jobs=2)\n"
        "except BrokenProcessPool:\n"
        "    print('broken', time.perf_counter() - t0)\n"
    )
    proc = _run_python(code)
    word, seconds = proc.stdout.split()
    assert word == "broken" and float(seconds) < 10.0, proc.stderr


def test_dead_worker_makes_the_cli_exit_3(tmp_path):
    # the manufactured source never solves in the caller, so only workers die
    code = (
        "import json, os, sys\n"
        "from psifno import darcy\n"
        "from psifno.cli import main\n"
        "darcy.solve = lambda problem: os._exit(9)\n"
        f"cfg = {str(tmp_path / 'darcy.json')!r}\n"
        "open(cfg, 'w').write(json.dumps({'schema': 'psifno-experiment/1',\n"
        "    'kind': 'darcy-converge', 'params': {'lambda': 0.5, 'k': 1, 'N_list': [4, 8]}}))\n"
        f"sys.exit(main(['darcy-converge', '--config', cfg, '--out', {str(tmp_path / 'o')!r},\n"
        "                '--jobs', '2']))\n"
    )
    t0 = time.perf_counter()
    proc = _run_python(code)
    assert proc.returncode == 3, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("psifno: internal error: BrokenProcessPool")
    assert time.perf_counter() - t0 < 60.0
    assert not (tmp_path / "o").exists()
