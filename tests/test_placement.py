"""Where eval-ir and its exec: scorer run: the stage steps off the CPU the
scorer was started on until the handshake is read, then has its own mask
back; the scorer's mask is never touched (``reranker.step_off_cpu_of``)."""
import json
import os
import sys

import pytest

import bookqa.ir_eval
import bookqa.reranker
from bookqa.cli import main
from test_cli import (
    SCORERS,
    break_eval_ir_input,
    broken_scorer_spec,
    interleaved_corpus,
    length_scorer_spec,
    run_ok,
    stage_argv,
    tiny_corpus,
)

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_getaffinity and a CPU mask of two CPUs or more",
)


def masks_while_loading(monkeypatch):
    """The CPU mask of this process each time eval-ir loads its index."""
    seen = []
    load, getaffinity = bookqa.ir_eval.load_indexes, os.sched_getaffinity

    def loading(path):
        seen.append(getaffinity(0))
        return load(path)

    monkeypatch.setattr(bookqa.ir_eval, "load_indexes", loading)
    return seen


def masks_while_sending(monkeypatch):
    """The CPU mask of this process at each request sent to a scorer."""
    seen = []
    send = bookqa.reranker.ExternalProcessReranker.send

    def sending(self, request):
        seen.append(os.sched_getaffinity(0))
        return send(self, request)

    monkeypatch.setattr(bookqa.reranker.ExternalProcessReranker, "send", sending)
    return seen


# Each path through a spawned scorer: its --reranker spec and the exit code.
RUNS = {
    "success": (length_scorer_spec(), 0),
    "refused-handshake": (broken_scorer_spec("handshake_not_object"), 1),
    "load-failure": (length_scorer_spec(), 1),
    "cannot-start": ("exec:/nonexistent/scorer", 1),
}


@pytest.mark.parametrize("case", list(RUNS))
def test_eval_ir_gives_the_caller_its_cpu_mask_back(tmp_path, capsys, monkeypatch, case):
    """While the inputs load, the stage runs on its mask less one CPU, the
    scorer's; once the handshake is read, accepted or refused, or the
    scorer killed after a load failure, the caller has its mask back
    exactly, and requests are sent on the whole mask."""
    spec, code = RUNS[case]
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    if case == "load-failure":
        break_eval_ir_input("coverage", paras, index, qa)
    loading, sending = masks_while_loading(monkeypatch), masks_while_sending(monkeypatch)
    before = os.sched_getaffinity(0)
    argv = ["eval-ir", "--index", index, "--paragraphs", paras, "--qa", qa, "--reranker", spec]
    assert main([str(a) for a in argv]) == code
    capsys.readouterr()
    assert os.sched_getaffinity(0) == before
    [during_load] = loading
    if case == "cannot-start":
        assert during_load == before
    else:
        assert during_load < before and len(during_load) == len(before) - 1
    assert sending == ([before] if case == "success" else [])


@pytest.mark.parametrize("narrow", [False, True], ids=["left-alone", "narrowed-itself"])
def test_the_scorer_keeps_the_mask_it_was_started_with_or_set(tmp_path, capsys, narrow):
    """The scorer is born with the stage's whole mask, and the stage's
    placement never changes it: a scorer left alone reports that mask at
    its first request, and one that narrowed its own mask at start-up
    reports the narrow one."""
    paras, index, qa = tiny_corpus(tmp_path, capsys)
    report = tmp_path / "mask.json"
    command = [sys.executable, SCORERS / "affinity_scorer.py", report, *(["narrow"] if narrow else [])]
    before = os.sched_getaffinity(0)
    run_ok(
        capsys,
        *stage_argv("eval-ir", paras, index, qa, tmp_path / "t.json"),
        "--reranker", "exec:" + " ".join(str(a) for a in command),
    )
    expected = [min(before)] if narrow else sorted(before)
    assert json.loads(report.read_text(encoding="utf-8")) == expected


def failing(*args):
    raise OSError(22, "Invalid argument")


@pytest.mark.parametrize(
    "case", ["one-cpu", "getaffinity-fails", "setaffinity-fails", "proc-unreadable"]
)
def test_placement_that_cannot_happen_changes_no_byte(tmp_path, capsys, monkeypatch, case):
    """Under a one-CPU mask, with either affinity call failing, or with
    ``/proc`` unreadable, the stage spawns as it would without placement:
    it exits 0 with the table, requests file and stdout of a run that
    placed, and its mask is never changed."""
    paras, index, qa, _ = interleaved_corpus(tmp_path, capsys)
    table, requests = tmp_path / "table.json", tmp_path / "requests.jsonl"
    argv = [
        *stage_argv("eval-ir", paras, index, qa, table), "--reranker", length_scorer_spec(),
        "--emit-rerank-requests", requests,
    ]

    def outputs():
        printed = run_ok(capsys, *argv).out
        return printed, table.read_bytes(), requests.read_bytes()

    placed = outputs()
    getaffinity, setaffinity = os.sched_getaffinity, os.sched_setaffinity
    before = getaffinity(0)
    loading = masks_while_loading(monkeypatch)
    if case == "getaffinity-fails":
        monkeypatch.setattr(os, "sched_getaffinity", failing)
    elif case == "setaffinity-fails":
        monkeypatch.setattr(os, "sched_setaffinity", failing)
    elif case == "proc-unreadable":
        monkeypatch.setattr(bookqa.reranker, "PROC_STAT", str(tmp_path / "no-proc" / "{pid}" / "stat"))
    else:
        setaffinity(0, {min(before)})
    try:
        assert outputs() == placed
        mask = {min(before)} if case == "one-cpu" else before
        assert loading == [mask]
        assert getaffinity(0) == mask
    finally:
        setaffinity(0, before)
