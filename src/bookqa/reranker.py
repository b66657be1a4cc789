"""Pluggable candidate rerankers and the external scorer wire protocol.

A scorer receives a request (question plus candidate paragraph texts) and
returns one finite score per candidate; candidates are then ordered by
descending score with ties keeping the incoming (BM25) order, so a constant
scorer is exactly the identity reranker.

External scorers speak newline-delimited JSON over stdin/stdout: one
handshake line ``{"protocol_version": 1}``, then one response line per
request, in order, with one request in flight at a time (a ``concurrent``
handshake field is accepted and ignored).  A file-exchange mode (requests
file out, scores file in) covers batch scoring on other machines.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

from .bm25 import accumulate_scores, build_index
from .corpus import DEFAULT_B, DEFAULT_K1, Paragraph
from .errors import ConfigError, ProtocolError
from .fileio import iter_jsonl, write_lines
from .text import normalize_eval, tokenize

PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class RerankCandidate:
    para_index: int
    text: str


@dataclass(frozen=True)
class RerankRequest:
    question_id: str
    question: str
    candidates: tuple[RerankCandidate, ...]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError("rerank request needs at least one candidate")
        indexes = [c.para_index for c in self.candidates]
        if len(set(indexes)) != len(indexes):
            raise ValueError("candidate para_index values must be distinct")

    def to_json_line(self) -> str:
        return json.dumps(
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


def request_from_record(obj: dict) -> RerankRequest:
    try:
        return RerankRequest(
            question_id=str(obj["question_id"]),
            question=str(obj["question"]),
            candidates=tuple(
                RerankCandidate(int(c["para_index"]), str(c["text"]))
                for c in obj["candidates"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad rerank request record: {exc}") from exc


@dataclass(frozen=True)
class RerankResponse:
    question_id: str
    scores: tuple[float, ...]

    def to_json_line(self) -> str:
        return json.dumps(
            {"question_id": self.question_id, "scores": list(self.scores)}
        )


def response_from_record(obj: dict) -> RerankResponse:
    try:
        return RerankResponse(
            question_id=str(obj["question_id"]),
            scores=tuple(float(s) for s in obj["scores"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad rerank response record: {exc}") from exc


def validate_scores(request: RerankRequest, scores: Sequence[float]) -> None:
    if len(scores) != len(request.candidates):
        raise ProtocolError(
            f"question {request.question_id!r}: got {len(scores)} scores "
            f"for {len(request.candidates)} candidates"
        )
    for value in scores:
        if not math.isfinite(value):
            raise ProtocolError(
                f"question {request.question_id!r}: non-finite score {value!r}"
            )


def apply_scores(
    request: RerankRequest, scores: Sequence[float]
) -> list[RerankCandidate]:
    """Order candidates by descending score; ties keep the incoming order."""
    validate_scores(request, scores)
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
        index = build_index(paragraphs, k1=self.k1, b=self.b)
        # One pass over the query's postings, summed in the order ``score``
        # uses, so each value equals ``score(index, query, position)``.
        scores = accumulate_scores(index, normalize_eval(request.question).tokens)
        return [scores.get(position, 0.0) for position in range(len(request.candidates))]


class ExternalProcessReranker:
    """Spawns a scorer subprocess speaking the line protocol, one request in
    flight at a time."""

    def __init__(self, command: str | Sequence[str]):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise ProtocolError("empty scorer command")
        self.command = argv
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
        handshake = self._read_line("handshake")
        try:
            obj = json.loads(handshake)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid handshake line: {handshake!r}") from exc
        if obj.get("protocol_version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol_version {obj.get('protocol_version')!r}"
            )

    def _read_line(self, what: str) -> str:
        line = self.process.stdout.readline()
        if not line:
            code = self.process.poll()
            raise ProtocolError(f"scorer exited before sending {what} (code {code})")
        return line

    def score(self, request: RerankRequest) -> list[float]:
        try:
            self.process.stdin.write(request.to_json_line() + "\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"scorer pipe closed: {exc}") from exc
        line = self._read_line(f"response for {request.question_id!r}")
        try:
            response = response_from_record(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid response line: {line!r}") from exc
        if response.question_id != request.question_id:
            raise ProtocolError(
                f"response for {response.question_id!r} does not match "
                f"request {request.question_id!r}"
            )
        validate_scores(request, response.scores)
        return list(response.scores)

    def close(self) -> None:
        if self.process.stdin:
            try:
                self.process.stdin.close()
            except OSError:
                pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def __enter__(self) -> "ExternalProcessReranker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FileReranker:
    """Scores read from a file produced by an out-of-band batch scorer."""

    def __init__(self, scores_path):
        self.scores_path = scores_path
        self.scores: dict[str, list[float]] = {}
        for _, obj in iter_jsonl(scores_path, ProtocolError):
            response = response_from_record(obj)
            if response.question_id in self.scores:
                raise ProtocolError(
                    f"{scores_path}: duplicate response for {response.question_id!r}"
                )
            self.scores[response.question_id] = list(response.scores)

    def score(self, request: RerankRequest) -> list[float]:
        if request.question_id not in self.scores:
            raise ProtocolError(f"no scores for question {request.question_id!r}")
        scores = self.scores[request.question_id]
        validate_scores(request, scores)
        return scores


def write_requests_file(path, requests: Iterable[RerankRequest]) -> None:
    write_lines(path, (r.to_json_line() for r in requests))


@contextmanager
def open_scorer(spec: str) -> Iterator[Scorer]:
    """The scorer a ``--reranker`` spec names; an ``exec:`` scorer's process
    is closed on exit."""
    kind, _, arg = spec.partition(":")
    if spec == "none":
        yield IdentityReranker()
    elif spec == "lexical":
        yield LexicalReranker()
    elif kind == "exec" and arg:
        with ExternalProcessReranker(arg) as scorer:
            yield scorer
    elif kind == "file" and arg:
        yield FileReranker(arg)
    else:
        raise ConfigError(
            f"unknown reranker {spec!r}; expected none, lexical, exec:CMD, or file:PATH"
        )
