"""Strict JSONL I/O, artifact sidecars, and bounded parallel mapping."""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar

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
    """Order-preserving map, optionally over a process pool.

    Results are returned in input order regardless of ``jobs``, so callers
    stay deterministic under any parallelism level.  A worker that dies, or
    raises anything but a ``BookQaError``, surfaces as a ``WorkerError``.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    except BookQaError:
        raise
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died: {exc}") from exc
    except Exception as exc:
        raise WorkerError(
            f"a worker task failed: {type(exc).__name__}: {exc}"
        ) from exc
