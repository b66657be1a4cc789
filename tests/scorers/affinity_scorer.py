"""Toy external scorer that reports its own CPU mask.

At its first request it writes ``os.sched_getaffinity(0)``, sorted, as a
JSON list to the file named by argv[1].  With ``narrow`` as argv[2] it
first sets its own mask, before its handshake, to the lowest CPU of the
mask it was started with, so the report shows whether its client changed
that mask since.  A candidate's score is its text length, as
``length_scorer.py`` scores.
"""
import json
import os
import sys

report = sys.argv[1]
if sys.argv[2:] == ["narrow"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

print(json.dumps({"protocol_version": 1}), flush=True)
for n, line in enumerate(sys.stdin):
    if n == 0:
        with open(report, "w", encoding="utf-8") as fh:
            json.dump(sorted(os.sched_getaffinity(0)), fh)
    request = json.loads(line)
    scores = [float(len(c["text"])) for c in request["candidates"]]
    print(json.dumps({"question_id": request["question_id"], "scores": scores}), flush=True)
