"""Toy external scorer that holds its client to one request in flight.

It reads its stdin raw.  After each request it waits a moment, then checks
with ``select`` whether more bytes can be read before it has answered; if
so, a second request was written before the first was answered, and it
exits with code 5.  A candidate's score is its text length, as
``length_scorer.py`` scores.
"""
import json
import os
import select
import sys
import time

PAUSE_S = 0.01

print(json.dumps({"protocol_version": 1}), flush=True)
pending = b""
while True:
    while b"\n" not in pending:
        chunk = os.read(0, 1 << 16)
        if not chunk:
            sys.exit(0)
        pending += chunk
    line, _, pending = pending.partition(b"\n")
    time.sleep(PAUSE_S)
    ended = False
    if not pending and select.select([0], [], [], 0)[0]:
        pending = os.read(0, 1 << 16)
        ended = not pending
    if pending:
        sys.stderr.write("strict_scorer: a request arrived before the one in flight was answered\n")
        sys.exit(5)
    request = json.loads(line)
    scores = [float(len(c["text"])) for c in request["candidates"]]
    print(json.dumps({"question_id": request["question_id"], "scores": scores}), flush=True)
    if ended:
        sys.exit(0)
