"""Pluggable candidate rerankers and the external scorer wire protocol.

A scorer receives a request (question plus candidate paragraph texts) and
returns one finite score per candidate; candidates are then ordered by
descending score with ties keeping the incoming (BM25) order, so a constant
scorer is exactly the identity reranker.

External scorers speak newline-delimited JSON over stdin/stdout: one
handshake line ``{"protocol_version": 1}`` (a JSON object; the version is
the integer 1), then one response line per request, in order, with one
request in flight at a time (a ``concurrent`` handshake field is accepted
and ignored).  Sending a request and reading its response are separate
steps (``ExternalProcessReranker.send`` and ``receive``), so a caller works
while the scorer scores.  A line that is not UTF-8 or not JSON fails with
``ProtocolError`` for the reason a line of a JSONL input would; so do a
command ``shlex`` cannot split and a refused handshake, whose scorer is
killed and reaped first.  A file-exchange mode (requests file out, scores
file in) covers batch scoring on other machines.
"""

from __future__ import annotations

import json
import math
import os
import shlex
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Protocol, Sequence

from .bm25 import accumulate_scores, build_index
from .corpus import DEFAULT_B, DEFAULT_K1, Paragraph
from .errors import ConfigError, ProtocolError
from .fileio import iter_jsonl, json_failure_reason, write_lines
from .records import record
from .text import normalize_eval, tokenize

PROTOCOL_VERSION = 1
# How long ``ExternalProcessReranker.close`` waits for the scorer to exit.
CLOSE_TIMEOUT_S = 10


@record
class RerankCandidate:
    para_index: int
    text: str


@record
class RerankRequest:
    question_id: str
    question: str
    candidates: tuple[RerankCandidate, ...]

    def to_json_line(self) -> str:
        """The request's line, encoded once: an ``exec:`` scorer's pipe and
        the requests file share it."""
        line = self.__dict__.get("_line")
        if line is None:
            line = json.dumps(
                {
                    "question_id": self.question_id,
                    "question": self.question,
                    "candidates": [
                        {"para_index": c.para_index, "text": c.text}
                        for c in self.candidates
                    ],
                },
                ensure_ascii=False,
            )
            object.__setattr__(self, "_line", line)
        return line


def response_from_record(obj: Any) -> tuple[str, list[float]]:
    """The ``(question_id, scores)`` of a decoded response line.

    Nothing is converted: ``question_id`` must be a string and every score a
    finite int or float, and a bool is neither.  JSON puts no bound on
    integers, so an int score larger than the largest float is refused too:
    it would overflow the first float arithmetic it met.  A record that is
    not so fails with ``ProtocolError``."""
    try:
        question_id, scores = obj["question_id"], obj["scores"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"bad rerank response record: {exc}") from exc
    if type(question_id) is not str:
        raise ProtocolError(
            f"bad rerank response record: question_id {question_id!r} is not a string"
        )
    if type(scores) is not list:
        raise ProtocolError(f"bad rerank response record: scores {scores!r} is not a list")
    for s in scores:
        if type(s) is not int and type(s) is not float:
            raise ProtocolError(f"bad rerank response record: score {s!r} is not a number")
        if type(s) is float and not math.isfinite(s):
            raise ProtocolError(f"bad rerank response record: non-finite score {s!r}")
        if type(s) is int and not -sys.float_info.max <= s <= sys.float_info.max:
            raise ProtocolError("bad rerank response record: score is an int too large for a float")
    return question_id, scores


def apply_scores(
    request: RerankRequest, scores: Sequence[float]
) -> list[RerankCandidate]:
    """Order candidates by descending score; ties keep the incoming order.

    Every scorer's count is checked here: one score per candidate.  Each
    score is finite: ``response_from_record`` refuses any other from an
    ``exec:`` or ``file:`` scorer, and ``none`` and ``lexical`` make none."""
    if len(scores) != len(request.candidates):
        raise ProtocolError(
            f"question {request.question_id!r}: got {len(scores)} scores "
            f"for {len(request.candidates)} candidates"
        )
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [request.candidates[i] for i in order]


class Scorer(Protocol):
    def score(self, request: RerankRequest) -> list[float]: ...


class IdentityReranker:
    """Constant scores: preserves the incoming candidate order exactly."""

    def score(self, request: RerankRequest) -> list[float]:
        return [0.0] * len(request.candidates)


class LexicalReranker:
    """BM25 of the question recomputed inside the candidate micro-collection
    (document statistics taken over the candidates alone)."""

    def __init__(self, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> None:
        self.k1 = k1
        self.b = b

    def score(self, request: RerankRequest) -> list[float]:
        # The micro-index is keyed positionally, so candidate para_index
        # values are free to be anything the caller likes.
        token_lists = [tokenize(c.text) for c in request.candidates]
        paragraphs = [
            Paragraph("", position, tokens)
            for position, tokens in enumerate(token_lists)
            if len(tokens) > 0
        ]
        if not paragraphs:
            return [0.0] * len(request.candidates)
        query = normalize_eval(request.question).tokens
        # Postings for the query's terms only: no other term is read.  One
        # pass over them, summed in the order ``score`` uses, so each value
        # equals ``score(index, query, position)`` over the full micro-index.
        index = build_index(paragraphs, k1=self.k1, b=self.b, terms=frozenset(query))
        scores = accumulate_scores(index, query)
        return [scores.get(position, 0.0) for position in range(len(request.candidates))]


class ExternalProcessReranker:
    """Spawns a scorer subprocess speaking the line protocol, one request in
    flight at a time: ``send`` writes a request, ``receive`` reads its
    response, and the caller may work in between (``score`` does both).

    The scorer is only spawned, so that it starts up while the caller works;
    ``read_handshake`` must come before the first request.  A scorer whose
    handshake was not read and accepted is killed, not asked to exit, by
    ``close``."""

    def __init__(self, command: str):
        # Imported here: only this scorer starts a process.
        import subprocess

        try:
            argv = shlex.split(command)
        except ValueError as exc:
            raise ProtocolError(f"cannot split scorer command: {exc}") from exc
        if not argv:
            raise ProtocolError("empty scorer command")
        self.command = argv
        self._ready = False
        try:
            self.process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
            )
        except OSError as exc:
            raise ProtocolError(f"cannot start scorer {argv!r}: {exc}") from exc

    def read_handshake(self) -> None:
        """Read and check the scorer's handshake line; a scorer it refuses
        is killed and reaped before the error is raised."""
        try:
            handshake = self._read_json("handshake")
            if type(handshake) is not dict:
                raise ProtocolError("scorer handshake is not a JSON object")
            version = handshake.get("protocol_version")
            # Exactly an int: ``True == 1`` and ``1.0 == 1`` in Python.
            if type(version) is not int or version != PROTOCOL_VERSION:
                raise ProtocolError(f"unsupported protocol_version {version!r}")
        except BaseException:
            # A refused scorer may be in any state: it is not asked to exit.
            self._kill()
            raise
        self._ready = True

    def _kill(self) -> None:
        with self.process:  # closes its pipes and reaps it
            self.process.kill()

    def _read_line(self, what: str) -> str:
        try:
            line = self.process.stdout.readline()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"scorer {what}: not valid UTF-8 ({exc.reason})") from exc
        if not line:
            import subprocess

            # The pipe closes before the exit: wait a moment to name its code.
            try:
                code = self.process.wait(timeout=1)
            except subprocess.TimeoutExpired:
                code = None
            raise ProtocolError(f"scorer exited before sending {what} (code {code})")
        return line

    def _read_json(self, what: str) -> Any:
        """The next line, decoded, failing as a line of a JSONL file does."""
        line = self._read_line(what)
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            reason = json_failure_reason(exc)
            raise ProtocolError(f"scorer {what}: invalid JSON ({reason})") from exc

    def send(self, request: RerankRequest) -> None:
        """Write one request.  ``receive`` reads its response, and the caller
        sends no other request before then."""
        try:
            self.process.stdin.write(request.to_json_line() + "\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"scorer pipe closed: {exc}") from exc

    def receive(self, request: RerankRequest) -> list[float]:
        """The scores in the response to ``request``, the one in flight."""
        question_id, scores = response_from_record(
            self._read_json(f"response for {request.question_id!r}")
        )
        if question_id != request.question_id:
            raise ProtocolError(
                f"response for {question_id!r} does not match "
                f"request {request.question_id!r}"
            )
        return scores

    def score(self, request: RerankRequest) -> list[float]:
        """The scores of one round trip: ``send``, then ``receive``."""
        self.send(request)
        return self.receive(request)

    def end_requests(self) -> None:
        """Close the scorer's stdin: no request follows, so the scorer can
        exit while the caller finishes; ``close`` reaps it."""
        try:
            self.process.stdin.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close the scorer's stdin and reap it once it exits; a scorer still
        running ``CLOSE_TIMEOUT_S`` later is killed, and so at once is one
        whose handshake was not read and accepted."""
        if not self._ready:
            self._kill()
            return
        self.end_requests()
        if not self._exits_within(CLOSE_TIMEOUT_S):
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def _exits_within(self, timeout: float) -> bool:
        """Whether the scorer exits within ``timeout`` seconds.

        ``select`` on a pidfd (Linux) wakes this process at the exit.
        ``Popen.wait`` with a timeout polls instead, sleeping 1, 2, 4, ...
        ms between checks, idle after the scorer has gone; it serves where
        there are no pidfds.  Waiting for end of file on the scorer's stdout
        would not do: the pipe closes a moment before the scorer can be
        reaped, and a process the scorer started may hold it open."""
        import select
        import subprocess

        try:
            pidfd = os.pidfd_open(self.process.pid)
        except (AttributeError, OSError):
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                return False
            return True
        try:
            return bool(select.select([pidfd], [], [], timeout)[0])
        finally:
            os.close(pidfd)

    def __enter__(self) -> "ExternalProcessReranker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileReranker:
    """Scores read from a file produced by an out-of-band batch scorer."""

    def __init__(self, scores_path):
        self.scores_path = scores_path
        self.scores: dict[str, list[float]] = {}
        for lineno, obj in iter_jsonl(scores_path, ProtocolError):
            where = f"{scores_path}: line {lineno}"
            try:
                question_id, scores = response_from_record(obj)
            except ProtocolError as exc:
                raise ProtocolError(f"{where}: {exc}") from exc
            if question_id in self.scores:
                raise ProtocolError(f"{where}: duplicate response for {question_id!r}")
            self.scores[question_id] = scores
        if not self.scores:
            raise ProtocolError(f"{scores_path}: no rerank response records")

    def score(self, request: RerankRequest) -> list[float]:
        if request.question_id not in self.scores:
            raise ProtocolError(
                f"{self.scores_path}: no scores for question {request.question_id!r}"
            )
        return self.scores[request.question_id]


def write_requests_file(path, lines: Iterable[str]) -> None:
    """Write a requests file of ``RerankRequest.to_json_line`` lines."""
    write_lines(path, lines)


@contextmanager
def open_scorer(spec: str) -> Iterator[Callable[[], Scorer]]:
    """A function that returns the scorer a ``--reranker`` spec names.

    An ``exec:`` scorer is spawned on entry, so that it starts up while the
    caller loads its inputs, and the function reads its handshake.  A spec,
    command, spawn or handshake at fault raises when the function is called,
    so a failure of the caller's before then is the one reported.  On exit
    the scorer's process is closed (``ExternalProcessReranker.close``)."""
    kind, _, arg = spec.partition(":")
    started: ExternalProcessReranker | None = None
    failure: ProtocolError | None = None
    if kind == "exec" and arg:
        try:
            started = ExternalProcessReranker(arg)
        except ProtocolError as exc:
            failure = exc

    def scorer() -> Scorer:
        if failure is not None:
            raise failure
        if started is not None:
            started.read_handshake()
            return started
        if spec == "none":
            return IdentityReranker()
        if spec == "lexical":
            return LexicalReranker()
        if kind == "file" and arg:
            return FileReranker(arg)
        raise ConfigError(
            f"unknown reranker {spec!r}; expected none, lexical, exec:CMD, or file:PATH"
        )

    try:
        yield scorer
    finally:
        if started is not None:
            started.close()
