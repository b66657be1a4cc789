"""Stdlib-only external rerank scorer used by the benchmark.

A candidate's score is the number of distinct lowercase question words that
occur in its text.  The same function serves both reranker kinds:

* ``python3 bench/scorer.py`` speaks the line protocol on stdin/stdout, for
  ``eval-ir --reranker exec:...``;
* ``python3 bench/scorer.py --requests REQ --out SCORES`` scores a request
  file written by ``eval-ir --emit-rerank-requests``, for
  ``eval-ir --reranker file:SCORES``.

Both give identical scores, so an ``exec:`` run and a ``file:`` run over the
same requests must write identical ``eval-ir`` tables.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

_WORD_RE = re.compile(r"[a-z0-9]+")


def _words(text: str) -> set[str]:
    return set(_WORD_RE.findall(text.lower()))


def respond(request: dict) -> str:
    question = _words(request["question"])
    scores = [
        float(len(question & _words(c["text"]))) for c in request["candidates"]
    ]
    return json.dumps({"question_id": request["question_id"], "scores": scores})


def serve() -> None:
    print(json.dumps({"protocol_version": 1, "concurrent": False}), flush=True)
    for line in sys.stdin:
        print(respond(json.loads(line)), flush=True)


def score_file(requests_path: str, out_path: str) -> None:
    with open(requests_path, encoding="utf-8") as src, open(
        out_path, "w", encoding="utf-8", newline="\n"
    ) as dst:
        for line in src:
            if line.strip():
                dst.write(respond(json.loads(line)) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark rerank scorer")
    parser.add_argument("--requests", help="score this request file instead of serving")
    parser.add_argument("--out", help="scores file to write with --requests")
    args = parser.parse_args()
    if args.requests:
        if not args.out:
            parser.error("--requests needs --out")
        score_file(args.requests, args.out)
    else:
        serve()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
