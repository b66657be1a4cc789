"""Strict JSONL I/O, artifact sidecars, and a bounded fork-based parallel map."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

from .errors import BookQaError, FormatError, WorkerError

T = TypeVar("T")
R = TypeVar("R")


def iter_jsonl(
    path: Path | str, error: type[BookQaError] = FormatError
) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_number, parsed_object)``; blank lines are skipped."""
    path = Path(path)
    if not path.exists():
        raise error(f"{path}: file not found")
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc


def require_field(
    obj: Any,
    field: str,
    path: Path | str,
    lineno: int,
    kind: type | tuple[type, ...],
    error: type[BookQaError] = FormatError,
) -> Any:
    if not isinstance(obj, dict):
        raise error(f"{path}: line {lineno}: record is not an object")
    if field not in obj:
        raise error(f"{path}: line {lineno}: missing field '{field}'")
    value = obj[field]
    if not isinstance(value, kind):
        raise error(f"{path}: line {lineno}: field '{field}' has wrong type")
    return value


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """Open a temporary file beside ``path`` that replaces it on success.

    On any failure the temporary file is removed and ``path`` keeps its old
    bytes, so a crash never leaves a truncated artifact behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: Path | str, lines: Iterable[str]) -> None:
    """Write text lines with pinned LF endings for byte-stable artifacts."""
    with _replacing(Path(path)) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_sidecar(
    artifact: Path | str,
    subcommand: str,
    config: dict[str, Any],
    inputs: Sequence[Path | str],
    tool_version: str,
) -> Path:
    """Write ``<artifact>.meta.json`` echoing the run configuration and input
    digests.  Deliberately excludes wall-clock data so reruns are byte-identical."""
    artifact = Path(artifact)
    meta = {
        "tool": {"name": "bookqa", "version": tool_version},
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    sidecar = artifact.with_name(artifact.name + ".meta.json")
    with _replacing(sidecar) as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sidecar


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Order-preserving map over up to ``jobs`` forked worker processes.

    Results are returned in input order regardless of ``jobs``, so callers
    stay deterministic under any parallelism level.  Worker ``w`` of ``n``
    maps items ``w, w + n, ...`` of the ``fn`` and ``items`` it inherited at
    the fork, so no task is pickled.  It sends back one pickle of its
    results, or of its first error, through its own pipe.  If several items
    fail, the error of the lowest one is raised, as in one process.  A
    ``BookQaError`` passes through; any other exception becomes a
    ``WorkerError``.  A worker that dies also becomes a ``WorkerError``, and
    the workers not yet collected are killed.  Where ``os.fork`` is missing,
    the map runs in-process.
    """
    n = min(jobs, len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    # Loaded before the fork so that the workers inherit it; a process that
    # never forks does not pay for it.
    import pickle  # noqa: F401

    # A worker that flushes its copy of a non-empty buffer would write it twice.
    sys.stdout.flush()
    sys.stderr.flush()
    pending: list[tuple[int, IO[bytes]]] = []  # (pid, read end), worker order
    outcomes = []
    try:
        for w in range(n):
            pending.append(_start_worker(fn, items, range(w, len(items), n)))
        while pending:
            pid, pipe = pending[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[0]
            outcomes.append(_decode(data, os.waitstatus_to_exitcode(status)))
    finally:
        _kill_and_reap(pending)
    failures = [(i, error) for i, error in outcomes if i is not None]
    if failures:
        _, error = min(failures, key=lambda failure: failure[0])
        if isinstance(error, BookQaError):
            raise error
        raise WorkerError(f"a worker task failed: {error}")
    results: list[Any] = [None] * len(items)
    for w, (_, values) in enumerate(outcomes):
        results[w::n] = values
    return results


def _start_worker(
    fn: Callable[[T], R], items: Sequence[T], indexes: range
) -> tuple[int, IO[bytes]]:
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise WorkerError(f"cannot start a worker process: {exc}") from exc
    if pid == 0:
        os.close(read_fd)
        _run_worker(fn, items, indexes, write_fd)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_worker(
    fn: Callable[[T], R], items: Sequence[T], indexes: range, write_fd: int
) -> NoReturn:
    """The body of a forked worker.  It leaves through ``os._exit`` whatever
    happens, so it never runs the caller's code that follows the fork."""
    import pickle

    status = 1
    try:
        values: list[R] = []
        payload: tuple[int | None, Any] = (None, values)
        for i in indexes:
            try:
                values.append(fn(items[i]))
            except BookQaError as exc:
                payload = (i, exc)
                break
            except Exception as exc:
                payload = (i, f"{type(exc).__name__}: {exc}")
                break
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            reason = f"cannot send its results back: {type(exc).__name__}: {exc}"
            data = pickle.dumps((indexes[0], reason), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _decode(data: bytes, exit_code: int) -> tuple[int | None, Any]:
    import pickle

    if exit_code != 0:
        how = f"signal {-exit_code}" if exit_code < 0 else f"exit code {exit_code}"
        raise WorkerError(f"a worker process died ({how})")
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise WorkerError(
            f"a worker process died: its result is incomplete ({type(exc).__name__})"
        ) from exc


def _kill_and_reap(pending: list[tuple[int, IO[bytes]]]) -> None:
    """Stop the workers not yet collected when the parent fails part-way."""
    import signal

    for pid, pipe in pending:
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
