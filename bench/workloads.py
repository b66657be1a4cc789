"""The benchmark's workloads: how each one makes its inputs from a seed, the
pipeline stages it runs, and the checks its outputs must pass.

Each workload runs the stages that exercise the layers it exists for (see
``WHY`` and ``WHY_LAYERS``); a stage time a workload does not run reads 0.
"""

from __future__ import annotations

import json
import random
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import shared_vocab

BENCH_DIR = Path(__file__).resolve().parent
SCORER = BENCH_DIR / "scorer.py"
SHARED_VOCAB = BENCH_DIR / "shared_vocab.py"

WHY = {
    "synth-pipeline": "few questions over many paragraphs: loading and tokenizing paragraphs dominates",
    "shared-vocab": "one small skewed vocabulary everywhere: span search, LCS and Meteor dominate",
    "many-questions": "many questions over few paragraphs: per-question eval-ir work (candidate coverage by span search and LCS, BM25, scorer round trips)",
}

# The layers (modules of ``bookqa``) that each WHY says do most of the work.
# A traced run reports their share of the traced pipeline next to the share
# that process start-up takes, so the claim is checked at the shipped sizes.
WHY_LAYERS = {
    "synth-pipeline": ("text", "corpus", "fileio"),
    "shared-vocab": ("spans", "metrics"),
    "many-questions": ("ir_eval", "spans", "metrics", "bm25", "reranker"),
}

SYNTH_SIZES = {
    "synth-pipeline": {"books": 2, "paras_per_book": 200, "questions_per_book": 6},
    "many-questions": {"books": 10, "paras_per_book": 24, "questions_per_book": 12},
}

# Supervision thresholds the CLI defaults to; nothing may score between them.
NEG_THRESHOLD = 0.4
POS_THRESHOLD = 0.7
SPAN_SAMPLE = 24


@dataclass(frozen=True)
class Step:
    """One process of the pipeline.  ``metric`` names the stage metric its
    wall time adds to; helper steps (the out-of-band scorer) have
    none.  ``outputs`` are the primary artifacts it writes, by file name."""

    name: str
    metric: str | None
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    bookqa: bool = True


def sizes(workload: str) -> dict:
    if workload == "shared-vocab":
        return shared_vocab.sizes()
    return dict(SYNTH_SIZES[workload])


def setup_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    """The command that generates the workload's inputs."""
    if workload == "shared-vocab":
        return [sys.executable, str(SHARED_VOCAB), "--seed", str(seed), "--out-dir", str(out_dir)]
    s = SYNTH_SIZES[workload]
    return [
        sys.executable, "-m", "bookqa.cli", "synth", "--seed", str(seed),
        "--books", str(s["books"]), "--paras-per-book", str(s["paras_per_book"]),
        "--questions-per-book", str(s["questions_per_book"]), "--out-dir", str(out_dir),
    ]


def write_short_predictions(seed: int, in_dir: Path) -> None:
    """Short reader-like predictions for a synth corpus: the first answer
    verbatim, with one word dropped, or with one word replaced."""
    lines = []
    with open(in_dir / "qa.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            qid = record["question_id"]
            words = record["answers"][0].split()
            rng = random.Random(f"{seed}:{qid}")
            roll = rng.randrange(3)
            if roll == 1 and len(words) > 1:
                del words[rng.randrange(len(words))]
            elif roll == 2:
                words[rng.randrange(len(words))] = "stone"
            lines.append(json.dumps({"question_id": qid, "answer": " ".join(words)}))
    with open(in_dir / "predictions.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def finish_setup(workload: str, seed: int, in_dir: Path) -> None:
    if workload == "many-questions":
        write_short_predictions(seed, in_dir)


def setup_files(workload: str) -> tuple[str, ...]:
    if workload == "shared-vocab":
        return ("books.jsonl", "qa.jsonl", "reader_qa.jsonl", "predictions.jsonl")
    if workload == "many-questions":
        return ("books.jsonl", "qa.jsonl", "truth.jsonl", "predictions.jsonl")
    return ("books.jsonl", "qa.jsonl", "truth.jsonl")


def stages(workload: str, inp: Path, out: Path, jobs: int) -> list[Step]:
    """The pipeline, in order.  ``jobs`` is passed to every stage that takes it."""
    j = ("--jobs", str(jobs))
    books, qa = str(inp / "books.jsonl"), str(inp / "qa.jsonl")
    paras, index = str(out / "paras.jsonl"), str(out / "index.jsonl")
    width = ("--width", str(shared_vocab.WIDTH)) if workload == "shared-vocab" else ()
    pool = ("--negative-pool", "whole_book") if workload == "synth-pipeline" else ()
    top = () if workload == "shared-vocab" else ("--top", "5")
    reader_qa = str(inp / ("reader_qa.jsonl" if workload == "shared-vocab" else "qa.jsonl"))
    shared = ("--index", index, "--paragraphs", paras, "--qa", qa)
    chunk = Step("chunk", "chunk_s", ("chunk", "--books", books, *width, "--out", paras, *j), ("paras.jsonl",))
    index_step = Step("index", "index_s", ("index", "--paragraphs", paras, "--out", index, *j), ("index.jsonl",))
    retrieve_q, retrieve_qa = (
        Step(
            f"retrieve-{mode}", "retrieve_s",
            ("retrieve", "--index", index, "--qa", qa, "--mode", mode, "--out", str(out / f"r{mode}.jsonl"), *j),
            (f"r{mode}.jsonl",),
        )
        for mode in ("q", "qa")
    )
    supervise = Step(
        "supervise", "supervise_s",
        ("supervise", *shared, *pool, "--out", str(out / "sup.jsonl"), *j),
        ("sup.jsonl",),
    )
    span_oracle = Step(
        "span-oracle", "span_oracle_s",
        (
            "span-oracle", "--paragraphs", paras, "--qa", qa,
            "--selections", str(out / "rq.jsonl"), *top, "--out", str(out / "spans.jsonl"), *j,
        ),
        ("spans.jsonl",),
    )
    eval_qa = Step(
        "eval-qa", "eval_qa_s",
        ("eval-qa", "--predictions", str(inp / "predictions.jsonl"), "--qa", reader_qa, "--out", str(out / "evalqa.json")),
        ("evalqa.json",),
    )
    if workload != "many-questions":
        eval_ir = Step(
            "eval-ir", "eval_ir_s",
            ("eval-ir", *shared, "--reranker", "lexical", "--out", str(out / "evalir.json"), *j),
            ("evalir.json",),
        )
        if workload == "synth-pipeline":
            return [chunk, index_step, retrieve_q, retrieve_qa, supervise, span_oracle, eval_ir]
        return [chunk, index_step, retrieve_q, span_oracle, supervise, eval_ir, eval_qa]
    # many-questions: the exec: run emits its requests, the benchmark's
    # scorer scores them out of band, and the file: run reads the scores.
    requests, scores = str(out / "requests.jsonl"), str(out / "scores.jsonl")
    scorer = "exec:" + shlex.join([sys.executable, str(SCORER)])
    return [
        chunk, index_step, retrieve_q, retrieve_qa,
        Step(
            "eval-ir", "eval_ir_s",
            (
                "eval-ir", *shared, "--reranker", scorer, "--emit-rerank-requests", requests,
                "--out", str(out / "evalir.json"), *j,
            ),
            ("requests.jsonl", "evalir.json"),
        ),
        Step(
            "score-requests", None,
            (sys.executable, str(SCORER), "--requests", requests, "--out", scores),
            (),
            bookqa=False,
        ),
        Step(
            "eval-ir-file", "eval_ir_file_s",
            ("eval-ir", *shared, "--reranker", "file:" + scores, "--out", str(out / "evalir_file.json"), *j),
            ("evalir_file.json",),
        ),
        eval_qa,
    ]


def primary_outputs(workload: str) -> list[str]:
    return [o for step in stages(workload, Path("."), Path("."), 1) for o in step.outputs]


def producer(workload: str, artifact: str) -> str:
    for step in stages(workload, Path("."), Path("."), 1):
        if artifact in step.outputs:
            return step.name
    raise KeyError(artifact)


# ---------------------------------------------------------------------------
# output checks


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _rows(path: Path) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return {row["selection"]: row for row in json.load(fh)["rows"]}


def check_outputs(workload: str, seed: int, inp: Path, out: Path) -> list[tuple[str, str]]:
    """Semantic checks of one pipeline run; returns ``(step, problem)`` pairs."""
    problems: list[tuple[str, str]] = []

    # supervise reports dead_zone_rate on its last stderr line.  Scores in
    # the file are rounded to 6 places, so the label check allows for that.
    if workload != "many-questions":
        stats = json.loads((out / "supervise.log").read_text(encoding="utf-8").splitlines()[-1])
        if stats["dead_zone_rate"] != 0:
            problems.append(("supervise", f"dead_zone_rate is {stats['dead_zone_rate']}"))
        for pair in _jsonl(out / "sup.jsonl"):
            score = pair["filter_score"]
            if (pair["label"] == "positive" and score < POS_THRESHOLD - 1e-6) or (
                pair["label"] == "negative" and score > NEG_THRESHOLD + 1e-6
            ):
                problems.append(("supervise", f"pair on the wrong side of its threshold: {pair}"))
                break

    if workload == "shared-vocab":
        labels = {p["label"] for p in _jsonl(out / "sup.jsonl")}
        if labels != {"positive", "negative"}:
            problems.append(("supervise", f"expected positives and negatives, got {sorted(labels)}"))
        if _rows(out / "evalir.json")["upperbound_top32"]["em_coverage"] <= 0.0:
            problems.append(("eval-ir", "no verbatim answer found in any candidate pool"))
        problems.extend(_check_span_sample(seed, inp, out))
    else:
        truth = {t["question_id"]: t["para_index"] for t in _jsonl(inp / "truth.jsonl")}
        for record in _jsonl(out / "rq.jsonl"):
            ranked = [e["para_index"] for e in record["ranked"]][:32]
            if truth[record["question_id"]] not in ranked:
                problems.append(("retrieve-q", f"planted paragraph missing for {record['question_id']}"))
                break
        tables = [("evalir.json", "eval-ir")]
        if workload == "many-questions":
            tables.append(("evalir_file.json", "eval-ir-file"))
        for name, step in tables:
            em = _rows(out / name)["upperbound_top32"]["em_coverage"]
            if em != 1.0:
                problems.append((step, f"upperbound_top32 EM is {em}, expected 1.0"))

    if workload == "many-questions":
        # The exec: and file: runs use the same scorer, so their tables agree.
        if (out / "evalir.json").read_bytes() != (out / "evalir_file.json").read_bytes():
            problems.append(("eval-ir-file", "file: table differs from the exec: table"))
    return problems


def _check_span_sample(seed: int, inp: Path, out: Path) -> list[tuple[str, str]]:
    """Recompute a seeded sample of span labels with the brute-force window
    sweep in ``bookqa.oracles``.  span-oracle writes one label per selected
    paragraph per usable answer, in selection order, so the label at each
    line is known without trusting the output."""
    from bookqa.oracles import brute_best_span
    from bookqa.text import normalize_eval

    paragraphs = {(p["book_id"], p["para_index"]): p["text"] for p in _jsonl(out / "paras.jsonl")}
    questions = {q["question_id"]: q for q in _jsonl(inp / "qa.jsonl")}
    expected = []
    for record in _jsonl(out / "rq.jsonl"):
        q = questions[record["question_id"]]
        for entry in record["ranked"]:
            for answer in q["answers"]:
                if normalize_eval(answer).tokens:
                    expected.append((q, entry["para_index"], answer))
    labels = _jsonl(out / "spans.jsonl")
    if len(labels) != len(expected):
        return [("span-oracle", f"{len(labels)} labels, expected {len(expected)}")]
    rng = random.Random(f"span-sample:{seed}")
    for i in sorted(rng.sample(range(len(labels)), min(SPAN_SAMPLE, len(labels)))):
        q, para_index, answer = expected[i]
        para = normalize_eval(paragraphs[(q["book_id"], para_index)]).tokens
        start, end, score = brute_best_span(para, normalize_eval(answer).tokens)
        got = labels[i]
        want = (q["question_id"], para_index, start, end, f"{score:.6f}")
        have = (got["question_id"], got["para_index"], got["start"], got["end"], f"{got['score']:.6f}")
        if have != want:
            return [("span-oracle", f"label {i} is {have}, brute force gives {want}")]
    return []
