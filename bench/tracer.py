"""In-process tracer for the benchmark's per-layer run.

It wraps public functions of the ``bookqa`` modules (and a few methods) from
outside the package: every module attribute that refers to a wrapped
function is rebound to the wrapper, and ``uninstall`` puts the originals
back.  Nothing in ``src/bookqa`` knows about it.

Each wrapped call is aggregated per function, with no span kept per call:
call count, total wall time, self time (wall time minus the wall time of
traced calls made inside it) and the longest single call.  Hooks add work
counts (tokens produced, postings scanned, LCS cells, ...) from the call's
arguments and result; the time a hook takes is excluded from every self
time, so counting does not inflate the layers it describes.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import time
from collections import Counter, defaultdict

# Functions whose cost the per-layer table reports, by module.  Hot helpers
# called once per character (``text.is_punct_char``) are left unwrapped: the
# wrapper would cost more than the call and swamp ``tokenize``.
FUNCTIONS = {
    "text": ("tokenize", "normalize_eval_tokens", "normalize_eval", "normalize_squad"),
    "corpus": (
        "load_paragraphs", "load_books", "chunk_book", "load_qa",
        "write_books", "write_qa", "write_paragraphs",
    ),
    "fileio": ("iter_jsonl", "write_lines", "sha256_file", "write_sidecar", "parallel_map"),
    "bm25": (
        "build_index", "index_to_record", "index_from_record", "retrieve", "score",
        "question_query", "oracle_query", "retrieval_from_record",
    ),
    "spans": ("best_span_tokens", "best_span", "coverage_rouge", "contains_answer"),
    "metrics": (
        "lcs_length", "rouge_l", "bleu_corpus", "align_exact", "meteor_exact",
        "exact_match", "token_f1", "evaluate_qa",
    ),
    "supervision": ("generate_pairs", "supervision_stats"),
    "ir_eval": ("ablation_for_question", "aggregate_ablation"),
    "reranker": ("apply_scores", "write_requests_file"),
    "cli": ("main",),
}

# (module, class, method, metric name) for methods traced by kind.
METHODS = (
    ("reranker", "LexicalReranker", "score", "reranker.score.lexical"),
    ("reranker", "ExternalProcessReranker", "score", "reranker.score.exec"),
    ("reranker", "ExternalProcessReranker", "_read_line", "reranker.exec.wait"),
    ("reranker", "FileReranker", "score", "reranker.score.file"),
    ("reranker", "FileReranker", "__init__", "reranker.file.load"),
)

GENERATORS = {"fileio.iter_jsonl"}
COVERAGE_FUNCTIONS = {"spans.coverage_rouge", "spans.contains_answer"}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.max = 0.0


class _TokensField:
    """Data descriptor standing in for ``Paragraph.tokens`` while tracing:
    it records which loaded paragraphs a later layer reads, and which
    (question, paragraph) coverages the IR evaluation computes."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.tracer._paragraph_read(obj)
        return obj.__dict__["tokens"]

    def __set__(self, obj, value) -> None:
        obj.__dict__["tokens"] = value


class Tracer:
    def __init__(self, package: str = "bookqa") -> None:
        self.package = package
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: Counter = Counter()
        # Each frame is [name, time covered by traced children].
        self.stack: list[list] = []
        self._undo: list[tuple[object, str, object, bool]] = []
        self._modules: dict = {}
        self._originals: dict[str, object] = {}
        self._in_loader = 0
        self._loaded_ids: set[int] = set()
        self._used_ids: set[int] = set()
        self._question: str | None = None
        self._coverages: set[tuple] = set()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name in FUNCTIONS:
            self._modules[name] = importlib.import_module(f"{self.package}.{name}")
        for mod_name, names in FUNCTIONS.items():
            module = self._modules[mod_name]
            for fn_name in names:
                original = getattr(module, fn_name)
                key = f"{mod_name}.{fn_name}"
                self._originals[key] = original
                wrapper = self._wrap(key, original)
                for other in self._modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, wrapper)
        for mod_name, cls_name, method, key in METHODS:
            cls = getattr(self._modules[mod_name], cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, self._wrap(key, original))
        token_seq = self._modules["text"].TokenSeq
        self._set(token_seq, "__post_init__", self._count_tokens(token_seq.__post_init__))
        paragraph = self._modules["corpus"].Paragraph
        self._set(paragraph, "tokens", _TokensField(self))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old, existed = self._undo.pop()
            if existed:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    def _set(self, obj, attr: str, value) -> None:
        existed = attr in vars(obj)
        self._undo.append((obj, attr, vars(obj).get(attr), existed))
        setattr(obj, attr, value)

    # -- timing -----------------------------------------------------------

    def _record(self, name: str, elapsed: float, children: float) -> None:
        stat = self.stats[name]
        stat.calls += 1
        stat.total += elapsed
        stat.self_time += elapsed - children
        if elapsed > stat.max:
            stat.max = elapsed
        if self.stack:
            parent = self.stack[-1]
            parent[1] += elapsed
            # ``generate_pairs`` normalizes paragraph tokens directly only in
            # its ``filter_score`` closure; its question and answer
            # normalization runs inside other traced functions.
            if parent[0] == "supervision.generate_pairs" and name == "text.normalize_eval_tokens":
                self.counts["supervision.filter_scores"] += 1

    def _excluded(self, started: float) -> None:
        """Hide hook time from the enclosing frame's self time."""
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - started

    def _wrap(self, name: str, fn):
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)
        tracer = self

        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = [name, 0.0]
                    tracer.stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = time.perf_counter() - t0
                        tracer.stack.pop()
                        tracer._record(name, elapsed, frame[1])
                    tracer.counts[name + ".records"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                started = time.perf_counter()
                pre(args, kwargs)
                tracer._excluded(started)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.stack.pop()
                tracer._record(name, elapsed, frame[1])
            if post is not None:
                started = time.perf_counter()
                post(args, kwargs, result)
                tracer._excluded(started)
            return result

        return wrapper

    def _count_tokens(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def post_init(seq):
            counts["text.TokenSeq.validated_tokens"] += len(seq.tokens)
            return fn(seq)

        return post_init

    # -- work counters ----------------------------------------------------

    def _post_text_tokenize(self, args, kwargs, result) -> None:
        self.counts["text.tokenize.tokens"] += len(result.tokens)

    def _pre_corpus_load_paragraphs(self, args, kwargs) -> None:
        self._in_loader += 1

    def _post_corpus_load_paragraphs(self, args, kwargs, result) -> None:
        self._in_loader -= 1
        for paras in result.values():
            self.counts["corpus.load_paragraphs.paragraphs"] += len(paras)
            self._loaded_ids.update(id(p) for p in paras)

    def _paragraph_read(self, paragraph) -> None:
        if self._in_loader:
            return
        key = id(paragraph)
        if key in self._loaded_ids:
            self._used_ids.add(key)
        if self._question is not None and self.stack and self.stack[-1][0] in COVERAGE_FUNCTIONS:
            self.counts["ir_eval.coverage_pairs"] += 1
            self._coverages.add((self._question, paragraph.book_id, paragraph.para_index))

    def _post_fileio_write_lines(self, args, kwargs, result) -> None:
        self.counts["fileio.write_lines.bytes"] += os.path.getsize(args[0])

    def _post_fileio_sha256_file(self, args, kwargs, result) -> None:
        self.counts["fileio.sha256_file.bytes"] += os.path.getsize(args[0])

    def _pre_fileio_parallel_map(self, args, kwargs) -> None:
        items = args[1]
        self.counts["fileio.parallel_map.items"] += len(items)
        self.counts["fileio.parallel_map.task_bytes"] += sum(
            len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)) for item in items
        )

    def _pre_bm25_retrieve(self, args, kwargs) -> None:
        index, query = args[0], args[1]
        normalize = self._originals["text.normalize_eval_tokens"]
        self.counts["bm25.retrieve.postings_scanned"] += sum(
            len(index.postings.get(term, ())) for term in set(normalize(query))
        )

    def _post_spans_best_span_tokens(self, args, kwargs, result) -> None:
        para, answer = args[0], args[1]
        width = min(len(answer), len(para))
        if width == 0:
            return
        start, _, score = result
        scanned = start + 1 if score >= 1.0 else len(para) - width + 1
        answer_set = set(answer)
        hits = [tok in answer_set for tok in para]
        inside = sum(hits[:width])
        overlapping = int(inside > 0)
        for s in range(1, scanned):
            inside += hits[s + width - 1] - hits[s - 1]
            overlapping += inside > 0
        self.counts["spans.best_span_tokens.windows"] += scanned
        self.counts["spans.best_span_tokens.overlapping_windows"] += overlapping

    def _pre_metrics_lcs_length(self, args, kwargs) -> None:
        self.counts["metrics.lcs_length.cells"] += len(args[0]) * len(args[1])

    def _post_supervision_generate_pairs(self, args, kwargs, result) -> None:
        for pair in result:
            self.counts[f"supervision.{pair.label}s"] += 1

    def _pre_ir_eval_ablation_for_question(self, args, kwargs) -> None:
        self._question = args[2].question_id

    def _post_ir_eval_ablation_for_question(self, args, kwargs, result) -> None:
        self._question = None

    def _pre_reranker_score_exec(self, args, kwargs) -> None:
        request = args[1]
        self.counts["reranker.exec.request_bytes"] += (
            len(request.to_json_line().encode("utf-8")) + 1
        )

    def end_stage(self) -> None:
        """Fold one stage's sets into the counters.  Object ids are only
        unique while the stage's paragraphs are alive, and a coverage counts
        as repeated only within one stage."""
        self.counts["corpus.paragraphs_used"] += len(self._used_ids & self._loaded_ids)
        self.counts["ir_eval.coverage_distinct"] += len(self._coverages)
        self._loaded_ids.clear()
        self._used_ids.clear()
        self._coverages.clear()

    # -- report -----------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total,
                "self_s": s.self_time,
                "max_s": s.max,
            }
            for name, s in sorted(self.stats.items())
        }
