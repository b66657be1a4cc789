import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bookqa.errors import CorpusError, WorkerError
from bookqa.fileio import parallel_map, write_lines, write_sidecar

SRC = Path(__file__).resolve().parents[1] / "src"


def _failing_lines(n_good):
    for i in range(n_good):
        yield f"line {i}"
    raise RuntimeError("input broke mid-write")


def test_write_lines_failure_keeps_previous_artifact(tmp_path):
    path = tmp_path / "out.jsonl"
    write_lines(path, ["old 1", "old 2"])
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="mid-write"):
        write_lines(path, _failing_lines(5000))
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["out.jsonl"]


def test_write_lines_failure_creates_nothing(tmp_path):
    path = tmp_path / "sub" / "out.jsonl"
    with pytest.raises(RuntimeError):
        write_lines(path, _failing_lines(3))
    assert os.listdir(tmp_path / "sub") == []


def test_write_sidecar_failure_keeps_previous_sidecar(tmp_path):
    artifact = tmp_path / "out.jsonl"
    write_lines(artifact, ["x"])
    sidecar = write_sidecar(artifact, "test", {"k": 1}, [artifact], "0")
    before = sidecar.read_bytes()
    with pytest.raises(TypeError):  # json.dump fails part-way through
        write_sidecar(artifact, "test", {"k": 2, "z": object()}, [artifact], "0")
    assert sidecar.read_bytes() == before
    assert json.loads(before)["config"] == {"k": 1}
    assert sorted(os.listdir(tmp_path)) == ["out.jsonl", "out.jsonl.meta.json"]


def _double(x):
    return 2 * x


def _raise_value_error(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x


def _raise_corpus_error(x):
    raise CorpusError(f"corpus item {x}")


def _exit_abruptly(x):
    os._exit(3)


def test_parallel_map_keeps_order():
    assert parallel_map(_double, list(range(7)), 2) == [2 * i for i in range(7)]


def test_parallel_map_worker_exception_becomes_worker_error():
    with pytest.raises(WorkerError, match="ValueError: bad item 2"):
        parallel_map(_raise_value_error, [1, 2, 3], 2)


def test_parallel_map_passes_bookqa_errors_through():
    with pytest.raises(CorpusError, match="corpus item"):
        parallel_map(_raise_corpus_error, [1, 2], 2)


def test_parallel_map_dead_worker_becomes_worker_error():
    with pytest.raises(WorkerError, match="worker process died"):
        parallel_map(_exit_abruptly, [1, 2], 2)


# ---------------------------------------------------------------------------
# the fork pool


def _fail_at_3_and_4(x):
    if x in (3, 4):
        raise CorpusError(f"item {x} failed")
    return x


def _fail_value_at_3_and_4(x):
    if x in (3, 4):
        raise ValueError(f"item {x} failed")
    return x


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_parallel_map_raises_lowest_failing_item(jobs):
    # At --jobs 2 the item 3 fails in the second worker and item 4 in the
    # first; at --jobs 3 the other way round.
    with pytest.raises(CorpusError, match="^item 3 failed$"):
        parallel_map(_fail_at_3_and_4, list(range(6)), jobs)


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_map_worker_error_names_lowest_failing_item(jobs):
    with pytest.raises(WorkerError, match="ValueError: item 3 failed$"):
        parallel_map(_fail_value_at_3_and_4, list(range(6)), jobs)


def _kill_self(x):
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def test_parallel_map_killed_worker_becomes_worker_error():
    with pytest.raises(WorkerError, match=rf"worker process died \(signal {signal.SIGKILL}\)"):
        parallel_map(_kill_self, [0, 1, 2], 2)


def _mebibytes(x):
    return bytes([x]) * (3 << 20)


def test_parallel_map_large_results_arrive_whole():
    # Each worker sends back 6 MiB, far more than a pipe buffers, while the
    # parent is still reading another worker's pipe.
    results = parallel_map(_mebibytes, [1, 2, 3, 4], 2)
    assert results == [_mebibytes(x) for x in [1, 2, 3, 4]]


def test_parallel_map_more_jobs_than_items():
    assert parallel_map(_double, [1, 2, 3], 8) == [2, 4, 6]
    assert parallel_map(_double, [], 8) == []


def test_parallel_map_inherits_unpicklable_tasks():
    tasks = [lambda: "a", lambda: "b", lambda: "c"]
    assert parallel_map(lambda task: task(), tasks, 2) == ["a", "b", "c"]


def _make_closure(x):
    return lambda: x


def test_parallel_map_unpicklable_result_becomes_worker_error():
    with pytest.raises(WorkerError, match="cannot send its results back"):
        parallel_map(_make_closure, [1, 2], 2)


def test_parallel_map_does_not_repeat_buffered_output():
    # stdout is a pipe and buffering is left on, so the print stays in the
    # parent's buffer unless the map flushes it before forking.
    script = (
        "import sys\n"
        "from bookqa.fileio import parallel_map\n"
        "def same(x):\n"
        "    return x\n"
        "print('before the map')\n"
        "print(parallel_map(same, [1, 2, 3], 3))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={
            **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
            "PYTHONPATH": str(SRC),
        },
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "before the map\n[1, 2, 3]\n"


def _die_or_sleep(x):
    if x == 0:
        os._exit(3)
    time.sleep(60)
    return x


@pytest.mark.parametrize(
    "fn, error",
    [(_raise_value_error, WorkerError), (_raise_corpus_error, CorpusError), (_die_or_sleep, WorkerError)],
)
def test_parallel_map_leaves_no_child_after_failure(fn, error):
    # _die_or_sleep: the first worker dies at once, so the parent must kill
    # the second one, which would sleep for a minute, instead of waiting.
    started = time.monotonic()
    with pytest.raises(error):
        parallel_map(fn, [0, 1, 2, 3], 2)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_map_failed_fork_stops_started_workers(monkeypatch):
    forks = []

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(1)
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(WorkerError, match="cannot start a worker process"):
        parallel_map(_die_or_sleep, [1, 2, 3], 3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_map_without_fork_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert parallel_map(lambda x: (x, os.getpid()), [1, 2, 3], 2) == [
        (x, os.getpid()) for x in [1, 2, 3]
    ]
