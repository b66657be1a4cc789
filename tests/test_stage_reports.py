"""The bytes of the three stage reports, pinned.

``supervise`` prints its stats on stderr, ``eval-ir`` prints its coverage
table and writes the table JSON, and ``eval-qa`` prints and writes its metric
report.  Each is compared with bytes checked in under
``tests/data/stage_reports.json``, on a paraphrased synth corpus whose
values are neither 0 nor 100, at ``--jobs 1`` and at ``--jobs 2`` with every
map forking at once.  Regenerate the file only for a deliberate change of a
report's bytes:
``PYTHONPATH=src python tests/test_stage_reports.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import bookqa.fileio
from bookqa.cli import main
from bookqa.synth import SYNONYMS

EXPECTED_PATH = Path(__file__).parent / "data" / "stage_reports.json"
SYNTH = ["--seed", 5, "--books", 3, "--paras-per-book", 40, "--questions-per-book", 8, "--paraphrase"]


def _run(argv):
    """The stdout and stderr of a stage run through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def _plant_verbatim(qa_path: Path) -> None:
    """Every other question also takes its answer as planted, synonym
    included, so that some questions are covered verbatim and others only
    in part."""
    lines = []
    for i, line in enumerate(qa_path.read_text(encoding="utf-8").splitlines()):
        q = json.loads(line)
        if i % 2 == 0:
            first, *rest = q["answers"][0].split()
            q["answers"].append(" ".join([SYNONYMS[first], *rest]))
        lines.append(json.dumps(q) + "\n")
    qa_path.write_text("".join(lines), encoding="utf-8")


def _predictions(qa_path: Path, out: Path) -> None:
    """Every third question answered with its first reference, the others
    with the head of the question and of that reference."""
    lines = []
    for i, line in enumerate(qa_path.read_text(encoding="utf-8").splitlines()):
        q = json.loads(line)
        answer = q["answers"][0]
        if i % 3:
            answer = " ".join(q["question"].split()[:3] + answer.split()[:1])
        lines.append(json.dumps({"question_id": q["question_id"], "answer": answer}) + "\n")
    out.write_text("".join(lines), encoding="utf-8")


def stage_reports(work: Path, jobs: int) -> dict[str, str]:
    corpus, paras, index = work / "corpus", work / "paras.jsonl", work / "index.jsonl"
    qa, preds = corpus / "qa.jsonl", work / "preds.jsonl"
    table, metrics = work / "table.json", work / "metrics.json"
    _run(["synth", *SYNTH, "--out-dir", corpus])
    _plant_verbatim(qa)
    _run(["chunk", "--books", corpus / "books.jsonl", "--out", paras, "--jobs", jobs])
    _run(["index", "--paragraphs", paras, "--out", index, "--jobs", jobs])
    inputs = ["--index", index, "--paragraphs", paras, "--qa", qa, "--jobs", jobs]
    _, supervise_err = _run(
        ["supervise", *inputs, "--negative-pool", "whole_book", "--out", work / "pairs.jsonl"]
    )
    eval_ir_out, _ = _run(
        ["eval-ir", *inputs, "--reranker", "lexical", "--top", 1, "--out", table]
    )
    _predictions(qa, preds)
    eval_qa_out, _ = _run(["eval-qa", "--predictions", preds, "--qa", qa, "--out", metrics])
    return {
        "supervise_stderr": supervise_err,
        "eval_ir_stdout": eval_ir_out,
        "eval_ir_out": table.read_text(encoding="utf-8"),
        "eval_qa_stdout": eval_qa_out,
        "eval_qa_out": metrics.read_text(encoding="utf-8"),
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_stage_reports_keep_their_bytes(tmp_path, monkeypatch, jobs):
    monkeypatch.setattr(bookqa.fileio, "FORK_AFTER_S", 0)
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    assert stage_reports(tmp_path, jobs) == expected


def test_pinned_reports_are_neither_0_nor_100():
    """The pinned values are fractions strictly inside their range, so a
    lost factor or a rounding at the wrong place changes their bytes."""
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    stats = json.loads(expected["supervise_stderr"])
    assert 0 < stats["balance"] < 1
    for row in json.loads(expected["eval_ir_out"])["rows"]:
        for name in ("em_coverage", "rouge_coverage", "model_selection_score"):
            assert 0 < row[name] < 1, (row["selection"], name)
    report = json.loads(expected["eval_qa_out"])
    assert expected["eval_qa_stdout"] == expected["eval_qa_out"]
    for name in ("bleu1", "bleu4", "meteor", "rouge_l", "em", "f1"):
        assert 0 < report[name] < 100, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        reports = stage_reports(Path(work), jobs=1)
    EXPECTED_PATH.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
