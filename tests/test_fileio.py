import json
import os

import pytest

from bookqa.errors import CorpusError, WorkerError
from bookqa.fileio import parallel_map, write_lines, write_sidecar


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
