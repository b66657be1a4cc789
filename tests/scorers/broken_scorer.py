"""Misbehaving scorer used by protocol error tests.

Modes (argv[1]): wrong_id | short | nan | string_scores | die | bad_handshake
"""
import json
import sys

mode = sys.argv[1] if len(sys.argv) > 1 else "die"

if mode == "bad_handshake":
    print(json.dumps({"protocol_version": 99, "concurrent": False}), flush=True)
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
    else:  # die
        sys.exit(3)
