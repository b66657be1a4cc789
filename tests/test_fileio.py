import json
import os
import re
import signal
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import pytest

from bookqa.errors import CorpusError, WorkerError
import bookqa.fileio
from bookqa.fileio import iter_jsonl, map_grouped, parallel_map, stage_output, write_lines

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fork_at_once(monkeypatch):
    """``parallel_map`` forks before its first item, as a long map does."""
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)


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


def test_artifact_lines_are_pinned_with_every_score_at_six_decimals():
    # An int score prints with 6 decimals like any other.
    from bookqa.bm25 import RetrievalResult
    from bookqa.spans import WeakSpanLabel
    from bookqa.supervision import SupervisionPair

    retrieval = RetrievalResult("q\u00e9", ((4, 3), (1, 0.1234567)), "qa")
    assert retrieval.to_json_line() == (
        '{"question_id": "q\\u00e9", "mode": "qa", "ranked": '
        '[{"para_index": 4, "score": 3.000000}, {"para_index": 1, "score": 0.123457}]}'
    )
    label = WeakSpanLabel('q"1', "b", 7, 2, 5, 1)
    assert label.to_json_line() == (
        '{"question_id": "q\\"1", "book_id": "b", "para_index": 7, '
        '"start": 2, "end": 5, "score": 1.000000}'
    )
    pair = SupervisionPair("q1", "b", 3, "negative", 0.25, "complement")
    assert pair.to_json_line() == (
        '{"question_id": "q1", "book_id": "b", "para_index": 3, "label": "negative", '
        '"filter_score": 0.250000, "provenance": "complement"}'
    )


def test_write_sidecar_failure_keeps_previous_sidecar(tmp_path):
    artifact = tmp_path / "out.jsonl"
    sidecar = tmp_path / "out.jsonl.meta.json"
    with stage_output(Namespace(subcommand="test", k=1, jobs=2), artifact, []):
        write_lines(artifact, ["x"])
    before, artifact_before = sidecar.read_bytes(), artifact.read_bytes()
    with pytest.raises(TypeError):  # the sidecar cannot be encoded
        with stage_output(Namespace(subcommand="test", k=2, z=object()), artifact, [artifact]):
            write_lines(artifact, ["y"])
    assert sidecar.read_bytes() == before
    assert artifact.read_bytes() == artifact_before
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


@pytest.mark.parametrize("bad_line", [1, 3, 5000])
def test_iter_jsonl_names_the_line_of_a_non_utf8_byte(tmp_path, bad_line):
    """The reader decodes many lines at once, so the line is found again."""
    lines = [b'{"n": %d}\n' % i for i in range(1, 6001)]
    lines[bad_line - 1] = b'{"n": "\xe9"}\n'
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"".join(lines))
    message = f"{path}: line {bad_line}: not valid UTF-8 (invalid continuation byte)"
    with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
        for _ in iter_jsonl(path, CorpusError):
            pass


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_keeps_order():
    assert parallel_map(_double, list(range(7)), 2) == [2 * i for i in range(7)]


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_worker_exception_becomes_worker_error():
    with pytest.raises(WorkerError, match="ValueError: bad item 2"):
        parallel_map(_raise_value_error, [1, 2, 3], 2)


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_passes_bookqa_errors_through():
    with pytest.raises(CorpusError, match="corpus item"):
        parallel_map(_raise_corpus_error, [1, 2], 2)


@pytest.mark.usefixtures("fork_at_once")
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


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_parallel_map_raises_lowest_failing_item(jobs):
    # At --jobs 2 the item 3 fails in the second worker and item 4 in the
    # first; at --jobs 3 the other way round.
    with pytest.raises(CorpusError, match="^item 3 failed$"):
        parallel_map(_fail_at_3_and_4, list(range(6)), jobs)


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_map_worker_error_names_lowest_failing_item(jobs):
    with pytest.raises(WorkerError, match="ValueError: item 3 failed$"):
        parallel_map(_fail_value_at_3_and_4, list(range(6)), jobs)


def _kill_self(x):
    if x == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_killed_worker_becomes_worker_error():
    with pytest.raises(WorkerError, match=rf"worker process died \(signal {signal.SIGKILL}\)"):
        parallel_map(_kill_self, [0, 1, 2], 2)


def _mebibytes(x):
    return bytes([x]) * (3 << 20)


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_large_results_arrive_whole():
    # Each worker sends back 6 MiB, far more than a pipe buffers, while the
    # parent is still reading another worker's pipe.
    results = parallel_map(_mebibytes, [1, 2, 3, 4], 2)
    assert results == [_mebibytes(x) for x in [1, 2, 3, 4]]


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_more_jobs_than_items():
    assert parallel_map(_double, [1, 2, 3], 8) == [2, 4, 6]
    assert parallel_map(_double, [], 8) == []


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_inherits_unpicklable_tasks():
    tasks = [lambda: "a", lambda: "b", lambda: "c"]
    assert parallel_map(lambda task: task(), tasks, 2) == ["a", "b", "c"]


def _make_closure(x):
    return lambda: x


@pytest.mark.usefixtures("fork_at_once")
def test_parallel_map_unpicklable_result_becomes_worker_error():
    with pytest.raises(WorkerError, match="cannot send its results back"):
        parallel_map(_make_closure, [1, 2], 2)


def test_parallel_map_does_not_repeat_buffered_output():
    # stdout is a pipe and buffering is left on, so the print stays in the
    # parent's buffer unless the map flushes it before forking.
    script = (
        "import sys\n"
        "import bookqa.fileio\n"
        "from bookqa.fileio import parallel_map\n"
        "bookqa.fileio.FORK_AFTER_S = 0\n"
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


@pytest.mark.usefixtures("fork_at_once")
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


@pytest.mark.usefixtures("fork_at_once")
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


# ---------------------------------------------------------------------------
# forking only once the map outlasts a fork


def _slow_first(fn):
    """``fn``, run on item 0 only after the fork bound has passed."""

    def slow(x):
        if x == 0:
            time.sleep(2 * bookqa.fileio.FORK_AFTER_S)
        return fn(x)

    return slow


def test_parallel_map_runs_short_maps_in_process():
    assert parallel_map(_with_pid, list(range(6)), 2) == [(x, os.getpid()) for x in range(6)]


@pytest.mark.parametrize("jobs", [2, 3, 8])
def test_parallel_map_forks_for_the_rest_after_a_slow_item(jobs):
    results = parallel_map(_slow_first(_with_pid), list(range(6)), jobs)
    assert [x for x, _ in results] == list(range(6))
    assert results[0][1] == os.getpid()
    workers = [pid for _, pid in results[1:]]
    assert os.getpid() not in workers
    # Items 1-5 go to min(jobs, 5) workers, round robin.
    n = min(jobs, 5)
    assert len(set(workers)) == n
    assert workers == [workers[i % n] for i in range(5)]


def test_parallel_map_two_items_never_fork():
    assert parallel_map(_slow_first(_with_pid), [0, 1], 2) == [(0, os.getpid()), (1, os.getpid())]


@pytest.mark.parametrize(
    "fn, error, message",
    [
        (_slow_first(_fail_at_3_and_4), CorpusError, "^item 3 failed$"),
        (_slow_first(_fail_value_at_3_and_4), WorkerError, "ValueError: item 3 failed$"),
    ],
)
def test_parallel_map_lowest_failure_wins_after_the_fork(fn, error, message):
    # Item 0 runs in this process; items 3 and 4 fail in two workers.
    with pytest.raises(error, match=message):
        parallel_map(fn, list(range(6)), 2)


def _fail_at_1_and_value_at_4(x):
    if x == 1:
        raise CorpusError("item 1 failed")
    if x == 4:
        raise ValueError("item 4 failed")
    return x


def test_parallel_map_in_process_failure_stops_the_map():
    # Item 1 fails in this process, so the map never forks for items 2-5
    # and item 4 never runs.
    with pytest.raises(CorpusError, match="^item 1 failed$"):
        parallel_map(_fail_at_1_and_value_at_4, list(range(6)), 2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fork_after_s", [bookqa.fileio.FORK_AFTER_S, 0], ids=["in-process", "forked"])
@pytest.mark.parametrize(
    "fn, error, message",
    [
        (_raise_value_error, WorkerError, "a worker task failed: ValueError: bad item 2"),
        (_raise_corpus_error, CorpusError, "corpus item 1"),
    ],
)
def test_parallel_map_reports_a_failure_alike_wherever_it_ran(
    monkeypatch, fork_after_s, fn, error, message
):
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", fork_after_s)
    with pytest.raises(error) as raised:
        parallel_map(fn, [1, 2, 3], 2)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_parallel_map_at_one_job_raises_unchanged():
    with pytest.raises(ValueError, match="^bad item 2$"):
        parallel_map(_raise_value_error, [1, 2, 3], 1)


# ---------------------------------------------------------------------------
# map_grouped


INTERLEAVED_KEYS = ["a", "b", "a", "c", "b", "a", "c"]


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_grouped_keeps_input_order(jobs):
    items = list(range(len(INTERLEAVED_KEYS)))
    assert map_grouped(_double, items, INTERLEAVED_KEYS, jobs) == [2 * i for i in items]


def _with_pid(x):
    return x, os.getpid()


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_grouped_runs_keys_in_first_seen_order(jobs, monkeypatch):
    tasks = []

    def recording_map(fn, items, jobs):
        tasks.extend(items)
        return parallel_map(fn, items, jobs)

    monkeypatch.setattr(bookqa.fileio, "parallel_map", recording_map)
    items = list(range(len(INTERLEAVED_KEYS)))
    results = map_grouped(_with_pid, items, INTERLEAVED_KEYS, jobs)
    assert tasks == [[0, 2, 5], [1, 4], [3, 6]]
    assert [x for x, _ in results] == items
    # One group runs in one process, a worker's when the map forks.
    for task in tasks:
        assert len({results[i][1] for i in task}) == 1
    assert (results[0][1] == os.getpid()) == (jobs == 1)


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_grouped_empty_input(jobs):
    assert map_grouped(_double, [], [], jobs) == []


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_grouped_raises_first_failing_group(jobs):
    # Item 4 fails in group "x", seen first; item 3 fails in group "z".
    keys = ["x", "y", "y", "z", "x", "y"]
    with pytest.raises(CorpusError, match="^item 4 failed$"):
        map_grouped(_fail_at_3_and_4, list(range(6)), keys, jobs)


@pytest.mark.usefixtures("fork_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
def test_map_grouped_releases_each_key_after_its_last_item_where_it_ran(jobs, tmp_path):
    """``release(key)`` runs once per key, in the process that ran the key's
    items (a worker's when the map forks), after the last of them.  Each
    process appends to one log, so its lines keep that process's order."""
    log = tmp_path / "log"

    def note(*words):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, (*words, os.getpid()))) + "\n")

    def run(i):
        note("run", INTERLEAVED_KEYS[i])
        return 2 * i

    items = list(range(len(INTERLEAVED_KEYS)))
    results = map_grouped(run, items, INTERLEAVED_KEYS, jobs, lambda key: note("release", key))
    assert results == [2 * i for i in items]
    events = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    released = [(key, pid) for what, key, pid in events if what == "release"]
    assert sorted(key for key, _ in released) == ["a", "b", "c"]
    for key, pid in released:
        runs = [i for i, (what, k, _) in enumerate(events) if what == "run" and k == key]
        assert len(runs) == INTERLEAVED_KEYS.count(key)
        assert {events[i][2] for i in runs} == {pid}
        assert events.index(["release", key, pid]) > max(runs)
    assert ({pid for _, pid in released} == {str(os.getpid())}) == (jobs == 1)
