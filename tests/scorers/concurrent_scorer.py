"""Toy external scorer whose handshake carries ``"concurrent": true``, a
field the protocol accepts and ignores: it is still sent one request at a
time."""
import json
import sys

print(json.dumps({"protocol_version": 1, "concurrent": True}), flush=True)
for line in sys.stdin:
    request = json.loads(line)
    scores = [float(i) for i in range(len(request["candidates"]))]
    print(json.dumps({"question_id": request["question_id"], "scores": scores}), flush=True)
