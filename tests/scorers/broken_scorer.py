"""Misbehaving scorer used by protocol error tests.

Modes (argv[1]):
  handshakes: bad_handshake | handshake_not_object | handshake_true |
              handshake_float | refused_sleeping PIDFILE (writes its pid to
              PIDFILE, sends protocol_version 2, then sleeps 8 s)
  responses:  wrong_id | short | nan | string_scores | die | not_utf8 |
              nested | long_int
  exit:       linger (answers like a good scorer, then sleeps 8 s after
              its stdin closes)
"""
import json
import os
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "die"

HANDSHAKES = {
    "bad_handshake": json.dumps({"protocol_version": 99, "concurrent": False}),
    "handshake_not_object": "1",
    "handshake_true": '{"protocol_version": true}',
    "handshake_float": '{"protocol_version": 1.0}',
}

if mode in HANDSHAKES:
    print(HANDSHAKES[mode], flush=True)
    sys.exit(0)
if mode == "refused_sleeping":
    with open(sys.argv[2], "w") as fh:
        fh.write(str(os.getpid()))
    print(json.dumps({"protocol_version": 2}), flush=True)
    time.sleep(8)
    sys.exit(0)

print(json.dumps({"protocol_version": 1, "concurrent": False}), flush=True)
for line in sys.stdin:
    request = json.loads(line)
    n = len(request["candidates"])
    if mode == "wrong_id":
        print(json.dumps({"question_id": "someone-else", "scores": [0.0] * n}), flush=True)
    elif mode == "short":
        print(json.dumps({"question_id": request["question_id"], "scores": [0.0] * (n - 1)}), flush=True)
    elif mode == "nan":
        print(json.dumps({"question_id": request["question_id"], "scores": [float("nan")] * n}), flush=True)
    elif mode == "string_scores":
        print(json.dumps({"question_id": request["question_id"], "scores": ["1.5"] * n}), flush=True)
    elif mode == "not_utf8":
        sys.stdout.buffer.write(b"\xff\n")
        sys.stdout.flush()
    elif mode == "nested":
        print("[" * 100_000 + "]" * 100_000, flush=True)
    elif mode == "long_int":
        scores = ", ".join(["1" + "0" * 5000] * n)
        print(f'{{"question_id": {json.dumps(request["question_id"])}, "scores": [{scores}]}}', flush=True)
    elif mode == "linger":
        print(json.dumps({"question_id": request["question_id"], "scores": [0.0] * n}), flush=True)
    else:  # die
        sys.exit(3)
if mode == "linger":
    time.sleep(8)
