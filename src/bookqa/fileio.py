"""Strict JSONL I/O, artifact sidecars, and bounded fork-based maps.

``hashlib`` loads on the first digest, so a stage that digests no input
(``synth``) does not load it or OpenSSL.  The forked workers of
``parallel_map`` live in ``pool``, which loads, with ``pickle``, only when a
map forks, so a stage whose maps never fork compiles none of it."""

from __future__ import annotations

import errno
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    IO, Any, Callable, ContextManager, Hashable, Iterable, Iterator, Sequence, TypeVar
)

from . import __version__
from .errors import BookQaError, ConfigError, FormatError, WorkerError

T = TypeVar("T")
R = TypeVar("R")

# How long ``parallel_map`` runs items in the calling process before it
# forks workers for the rest (see its docstring).
FORK_AFTER_S = 0.05


def iter_jsonl(
    path: Path | str, error: type[BookQaError] = FormatError
) -> Iterator[tuple[int, Any]]:
    """Yield ``(line_number, parsed_object)``; blank lines are skipped."""
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError as exc:
        raise error(f"{path}: file not found") from exc
    except OSError as exc:  # a directory, or a path under a file
        raise error(f"{path}: cannot read ({exc.strerror})") from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    yield lineno, json.loads(line)
                except (ValueError, RecursionError) as exc:
                    reason = json_failure_reason(exc)
                    raise error(f"{path}: line {lineno}: invalid JSON ({reason})") from exc
        except UnicodeDecodeError as exc:
            bad = _undecodable_line(path)
            where = f" line {bad}:" if bad else ""
            raise error(f"{path}:{where} not valid UTF-8 ({exc.reason})") from exc


def json_line(obj: dict) -> str:
    """``obj`` as one JSON line in the artifacts' byte-stable form: keys (plain
    names) in order, strings as ``json.dumps`` writes them, ints as they are,
    every float fixed at 6 decimal places, and a list of such objects."""
    parts = []
    for key, value in obj.items():
        if type(value) is float:
            text = f"{value:.6f}"
        elif type(value) is str:
            text = json.dumps(value)
        elif type(value) is list:
            text = "[" + ", ".join(map(json_line, value)) + "]"
        else:
            text = str(value)
        parts.append(f'"{key}": {text}')
    return "{" + ", ".join(parts) + "}"


def rounded(report: dict, places: int, scale: float = 1.0) -> dict:
    """``report`` as a stage writes it: each float value times ``scale`` and
    rounded to ``places``, every other value as it is."""
    return {
        key: round(scale * value, places) if type(value) is float else value
        for key, value in report.items()
    }


def json_failure_reason(exc: ValueError | RecursionError) -> str:
    """Why ``json.loads`` raised ``exc``.

    Besides malformed JSON, it fails on an integer of more digits than
    ``sys.get_int_max_str_digits()`` allows, and on arrays and objects
    nested deeper than the recursion limit."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return str(exc).split(";")[0]  # its advice on raising the limit is no use here


def _undecodable_line(path: Path) -> int | None:
    """The number of the first line of ``path`` that is not valid UTF-8, or
    None if the file no longer holds one.

    The reader decodes a file in chunks, so its error comes before the line
    that holds the bad byte.  Undecodable bytes read back as lone surrogates
    here, which no valid UTF-8 decodes to, and lines split as in the reader."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    return None


def require_field(
    obj: Any,
    field: str,
    path: Path | str,
    lineno: int,
    kind: type,
    error: type[BookQaError] = FormatError,
) -> Any:
    """``obj[field]``, which must be of type ``kind`` exactly: a JSON
    ``true`` is a ``bool``, and a ``bool`` is an ``int`` to ``isinstance``.

    A string must encode as UTF-8, which one holding a lone surrogate (a
    ``\\ud800`` escape is valid JSON) does not: every writer would fail on it."""
    if not isinstance(obj, dict):
        raise error(f"{path}: line {lineno}: record is not an object")
    if field not in obj:
        raise error(f"{path}: line {lineno}: missing field '{field}'")
    value = obj[field]
    if type(value) is not kind:
        raise error(f"{path}: line {lineno}: field '{field}' has wrong type")
    if kind is str and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise error(f"{path}: line {lineno}: field '{field}' holds a lone surrogate") from exc
    return value


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """Open a temporary file beside ``path`` that replaces it on success.

    On any failure the temporary file is removed and ``path`` keeps its old
    bytes.  An ``OSError`` on the way (``path`` is a directory, say) becomes a ``ConfigError``."""
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"  # not ``with_name``: "." has none
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp.parent.is_dir():  # not when ``path``'s parent is a file
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"{path}: cannot write ({exc.strerror})") from exc
        raise


def write_lines(path: Path | str, lines: Iterable[str]) -> None:
    """Write text lines with pinned LF endings for byte-stable artifacts."""
    with _replacing(Path(path)) as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def sha256_file(path: Path | str) -> str:
    import hashlib  # see the module docstring

    digest = hashlib.sha256()
    # 64 KiB blocks: a larger buffer digests no faster, and it adds to the
    # peak of every stage, on top of the OpenSSL that ``hashlib`` loads.
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def sidecar_path(artifact: Path | str) -> Path:
    """Where ``artifact``'s sidecar goes: ``<artifact>.meta.json``."""
    artifact = Path(artifact)
    return artifact.parent / f"{artifact.name}.meta.json"  # not ``with_name``: "." has none


@contextmanager
def write_sidecar(
    artifact: Path | str,
    subcommand: str,
    config: dict[str, Any],
    inputs: Sequence[Path | str],
) -> Iterator[None]:
    """Replace ``artifact`` in the body, then ``<artifact>.meta.json``, which
    echoes the run configuration and input digests.  Deliberately excludes
    wall-clock data so reruns are byte-identical.

    Before the body runs, the inputs are digested as they are (an output may
    overwrite an input), a destination that is a directory is refused, and
    the sidecar is written to its temporary file, so a failure leaves both
    files as they were.  The sidecar is renamed into place only once the
    body has replaced the artifact."""
    artifact = Path(artifact)
    meta = {
        "tool": {"name": "bookqa", "version": __version__},
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }
    text = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    sidecar = sidecar_path(artifact)
    for path in (artifact, sidecar):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as exc:
            raise ConfigError(f"{path}: cannot write ({exc.strerror})") from exc
    with _replacing(sidecar) as fh:
        fh.write(text)
        yield


def stage_output(
    args: Any,
    artifact: Path | str,
    inputs: Sequence[Path | str],
    subcommand: str | None = None,
    omit: Iterable[str] = (),
    **config: Any,
) -> ContextManager[None]:
    """``write_sidecar`` for the stage output ``artifact``: its ``config`` is
    the stage's parsed ``args`` but ``--jobs`` and ``omit``, updated by
    ``config``.  A stage writes each output in its body and reports only once
    every output is in place."""
    skip = {"subcommand", "jobs", *omit}
    options = {key: value for key, value in vars(args).items() if key not in skip}
    return write_sidecar(
        artifact, subcommand or args.subcommand, {**options, **config}, inputs
    )


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int) -> list[R]:
    """Order-preserving map over up to ``jobs`` forked worker processes,
    forked only once the map has run long enough to pay for them.

    Results are returned in input order regardless of ``jobs``, so callers
    stay deterministic under any parallelism level.  At ``jobs >= 2`` the
    items run in this process, in order, and before each one the map checks
    whether at least two items are left and the items run so far have taken
    ``FORK_AFTER_S``.  Once both hold, the rest go to ``min(jobs, left)``
    forked workers.  Each fork costs the stage process milliseconds, and the
    workers' copy-on-write faults cost more, which a map that ends within a
    few milliseconds never wins back.  The price is bounded: this process
    runs ``FORK_AFTER_S`` and at most one item more before it forks, so a
    map of few, large items loses at most about one item's time against
    forking at once, and a map of two items never forks.

    Worker ``w`` of ``n`` maps items ``s + w, s + w + n, ...``, where ``s``
    is the first item not run here, of the ``fn`` and ``items`` it
    inherited at the fork, so no task is pickled.  It sends back one pickle
    of its results, or of its first error, through its own pipe.  If several
    items fail, the error of the lowest one is raised, as in one process.  A
    ``BookQaError`` passes through; any other exception becomes a
    ``WorkerError``, in this process as in a worker, so the error reported
    never depends on where the item ran.  A worker that dies also becomes a
    ``WorkerError``, and the workers not yet collected are killed.  At
    ``jobs == 1``, or where ``os.fork`` is missing, the items run here and
    their exceptions propagate unchanged.
    """
    if jobs <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    results: list[Any] = []
    started = time.perf_counter()
    for i, item in enumerate(items):
        if len(items) - i >= 2 and time.perf_counter() - started >= FORK_AFTER_S:
            from .pool import forked_map  # see the module docstring

            return results + forked_map(fn, items, i, min(jobs, len(items) - i))
        try:
            results.append(fn(item))
        except BookQaError:
            raise
        except Exception as exc:
            raise WorkerError(f"a worker task failed: {type(exc).__name__}: {exc}") from exc
    return results


def map_grouped(
    fn: Callable[[T], R],
    items: Sequence[T],
    keys: Sequence[Hashable],
    jobs: int,
    release: Callable[[Hashable], None] | None = None,
) -> list[R]:
    """``[fn(item) for item in items]``, in ``items`` order.

    ``keys[i]`` is the key of ``items[i]``.  Items that share a key form one
    ``parallel_map`` task, and the tasks run in the order their keys are
    first seen.  A task is a list of positions, so the workers inherit ``fn``
    and ``items`` and nothing new is pickled.  If several tasks fail, the
    error of the first one in that order is raised, as in one process.

    ``release(key)``, if given, runs in the process that ran a key's last
    item, right after it, so that what only that key's items need (a book's
    tokens) is dropped before the next key's items run.  At ``jobs == 1``
    every item runs in this process, key by key, for a callee that must see
    them one at a time (one external scorer)."""
    groups: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    tasks = list(groups.values())

    def task_results(task: list[int]) -> list[R]:
        values = [fn(items[i]) for i in task]
        if release is not None:
            release(keys[task[0]])
        return values

    done = parallel_map(task_results, tasks, jobs)
    results: list[Any] = [None] * len(items)
    for task, values in zip(tasks, done):
        for i, value in zip(task, values):
            results[i] = value
    return results
