"""The forked workers behind ``fileio.parallel_map``.

``parallel_map`` imports this module only when it forks, so a stage process
whose maps never fork compiles none of it, and loads no ``pickle``.  It is
loaded before the fork, so the workers inherit it."""

from __future__ import annotations

import os
import pickle
import sys
from typing import IO, Any, Callable, NoReturn, Sequence, TypeVar

from .errors import BookQaError, WorkerError

T = TypeVar("T")
R = TypeVar("R")


def forked_map(fn: Callable[[T], R], items: Sequence[T], start: int, n: int) -> list[R]:
    """``fn`` over ``items[start:]`` in ``n`` forked workers."""
    # A worker that flushes its copy of a non-empty buffer would write it twice.
    sys.stdout.flush()
    sys.stderr.flush()
    pending: list[tuple[int, IO[bytes]]] = []  # (pid, read end), worker order
    outcomes = []
    try:
        for w in range(n):
            pending.append(_start_worker(fn, items, range(start + w, len(items), n)))
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
    results: list[Any] = [None] * (len(items) - start)
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
