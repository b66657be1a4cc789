"""Stage-by-stage benchmark of the bookqa pipeline.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` times each ``bookqa`` subcommand as a subprocess at
``--jobs 2``: it runs the whole pipeline again and again until
``--seconds`` have passed, generating the inputs anew and timing that
before every pass, and reports the median of every metric.  Times are
reported scaled to a reference host speed, measured by a fixed probe
process run right after every timed process (see ``hostspeed.py``); the
info line keeps the wall times.  ``--trace 1`` runs the pipeline that way
for half of ``--seconds``, then once in-process at ``--jobs 1`` under
``tracer.Tracer``, checks that both wrote the same bytes, and reports the
per-layer metrics.  Every run checks its outputs (see
``workloads.check_outputs`` and the digests pinned in ``digests.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the Python version, ``nproc``, source revision, seed, workload sizes
and every metric's samples.  ``--workload all`` prints a table of every
workload instead.  ``--pin`` records this run's artifact digests as the
pinned ones for its workload and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = tuple(workloads.WHY)
JOBS = 2
SETUP_PER_PASS = 1
STARTUP_REPEATS = 5
# A run must end within 180 s; no step starts after this many seconds.
DEADLINE_S = 150.0

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))

# Wall time of each stage's process or processes.  On a shared 2-core host
# no stage repeats within a tenth from run to run, so the stage times are
# per-layer metrics (reported by --trace 1 from its untraced passes); they
# still count inside pipeline_s.
STAGES = (
    "chunk_s", "index_s", "retrieve_s", "supervise_s", "span_oracle_s",
    "eval_ir_s", "eval_ir_file_s", "eval_qa_s",
)
# The times reported scaled to the reference host speed (see hostspeed.py).
SCALED = frozenset(("setup_s", "pipeline_s") + STAGES)

# Per-layer metrics: (name, unit, source).  A source "stat:<fn>:<field>"
# reads the tracer's per-function table, "count:<key>" a work counter.
PER_LAYER = tuple((name, "s", "extra:" + name) for name in STAGES) + (
    ("text.tokenize.calls", "count", "stat:text.tokenize:calls"),
    ("text.tokenize.tokens", "count", "count:text.tokenize.tokens"),
    ("text.tokenize.self_s", "s", "stat:text.tokenize:self_s"),
    ("text.normalize_eval_tokens.calls", "count", "stat:text.normalize_eval_tokens:calls"),
    ("text.normalize_eval_tokens.self_s", "s", "stat:text.normalize_eval_tokens:self_s"),
    ("text.TokenSeq.validated_tokens", "count", "count:text.TokenSeq.validated_tokens"),
    ("corpus.load_paragraphs.self_s", "s", "stat:corpus.load_paragraphs:self_s"),
    ("corpus.load_paragraphs.paragraphs", "count", "count:corpus.load_paragraphs.paragraphs"),
    ("corpus.load_books.self_s", "s", "stat:corpus.load_books:self_s"),
    ("corpus.chunk_book.self_s", "s", "stat:corpus.chunk_book:self_s"),
    ("corpus.load_qa.self_s", "s", "stat:corpus.load_qa:self_s"),
    ("corpus.paragraphs_used_frac", "ratio", "ratio:corpus.paragraphs_used/corpus.load_paragraphs.paragraphs"),
    ("fileio.iter_jsonl.records", "count", "count:fileio.iter_jsonl.records"),
    ("fileio.iter_jsonl.self_s", "s", "stat:fileio.iter_jsonl:self_s"),
    ("fileio.write_lines.bytes", "bytes", "count:fileio.write_lines.bytes"),
    ("fileio.write_lines.self_s", "s", "stat:fileio.write_lines:self_s"),
    ("fileio.sha256_file.bytes", "bytes", "count:fileio.sha256_file.bytes"),
    ("fileio.sha256_file.self_s", "s", "stat:fileio.sha256_file:self_s"),
    ("fileio.parallel_map.items", "count", "count:fileio.parallel_map.items"),
    ("fileio.parallel_map.task_bytes", "bytes", "count:fileio.parallel_map.task_bytes"),
    ("bm25.build_index.self_s", "s", "stat:bm25.build_index:self_s"),
    ("bm25.index_to_record.self_s", "s", "stat:bm25.index_to_record:self_s"),
    ("bm25.index_from_record.records", "count", "stat:bm25.index_from_record:calls"),
    ("bm25.index_from_record.self_s", "s", "stat:bm25.index_from_record:self_s"),
    ("bm25.retrieve.calls", "count", "stat:bm25.retrieve:calls"),
    ("bm25.retrieve.postings_scanned", "count", "count:bm25.retrieve.postings_scanned"),
    ("bm25.retrieve.self_s", "s", "stat:bm25.retrieve:self_s"),
    ("bm25.score.calls", "count", "stat:bm25.score:calls"),
    ("bm25.score.self_s", "s", "stat:bm25.score:self_s"),
    ("spans.best_span_tokens.calls", "count", "stat:spans.best_span_tokens:calls"),
    ("spans.best_span_tokens.windows", "count", "count:spans.best_span_tokens.windows"),
    ("spans.best_span_tokens.self_s", "s", "stat:spans.best_span_tokens:self_s"),
    ("spans.windows_overlap_frac", "ratio", "ratio:spans.best_span_tokens.overlapping_windows/spans.best_span_tokens.windows"),
    ("spans.coverage_rouge.self_s", "s", "stat:spans.coverage_rouge:self_s"),
    ("spans.contains_answer.self_s", "s", "stat:spans.contains_answer:self_s"),
    ("metrics.lcs_length.calls", "count", "stat:metrics.lcs_length:calls"),
    ("metrics.lcs_length.cells", "count", "count:metrics.lcs_length.cells"),
    ("metrics.lcs_length.self_s", "s", "stat:metrics.lcs_length:self_s"),
    ("metrics.align_exact.calls", "count", "stat:metrics.align_exact:calls"),
    ("metrics.align_exact.self_s", "s", "stat:metrics.align_exact:self_s"),
    ("metrics.align_exact.max_s", "s", "stat:metrics.align_exact:max_s"),
    ("metrics.bleu_corpus.self_s", "s", "stat:metrics.bleu_corpus:self_s"),
    ("metrics.evaluate_qa.self_s", "s", "stat:metrics.evaluate_qa:self_s"),
    ("supervision.generate_pairs.calls", "count", "stat:supervision.generate_pairs:calls"),
    ("supervision.generate_pairs.self_s", "s", "stat:supervision.generate_pairs:self_s"),
    ("supervision.filter_scores", "count", "count:supervision.filter_scores"),
    ("supervision.positives", "count", "count:supervision.positives"),
    ("supervision.negatives", "count", "count:supervision.negatives"),
    ("ir_eval.ablation_for_question.calls", "count", "stat:ir_eval.ablation_for_question:calls"),
    ("ir_eval.ablation_for_question.self_s", "s", "stat:ir_eval.ablation_for_question:self_s"),
    ("ir_eval.coverage_pairs", "count", "count:ir_eval.coverage_pairs"),
    ("ir_eval.coverage_dup_frac", "ratio", "ratio:ir_eval.coverage_dups/ir_eval.coverage_pairs"),
    ("reranker.score.lexical.calls", "count", "stat:reranker.score.lexical:calls"),
    ("reranker.score.lexical.self_s", "s", "stat:reranker.score.lexical:self_s"),
    ("reranker.score.exec.calls", "count", "stat:reranker.score.exec:calls"),
    ("reranker.score.exec.self_s", "s", "stat:reranker.score.exec:self_s"),
    ("reranker.score.file.calls", "count", "stat:reranker.score.file:calls"),
    ("reranker.score.file.self_s", "s", "stat:reranker.score.file:self_s"),
    ("reranker.exec.roundtrips", "count", "stat:reranker.score.exec:calls"),
    ("reranker.exec.request_bytes", "bytes", "count:reranker.exec.request_bytes"),
    ("reranker.exec.wait_s", "s", "stat:reranker.exec.wait:total_s"),
    ("reranker.file.load_s", "s", "stat:reranker.file.load:total_s"),
    ("cli.self_s", "s", "stat:cli.main:self_s"),
    ("cli.startup_s", "s", "extra:cli.startup_s"),
    ("trace_overhead_frac", "ratio", "extra:trace_overhead_frac"),
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs processes for one benchmark run and counts what failed."""

    def __init__(self, started: float) -> None:
        self.started = started
        self.attempted = 0
        self.failed: set[str] = set()
        self.problems: list[str] = []
        self.env = _env()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def fail(self, invocation: str, problem: str) -> None:
        self.failed.add(invocation)
        self.problems.append(f"{invocation}: {problem}")

    def run(self, invocation: str, argv: list[str], log: Path) -> tuple[bool, float, int]:
        """Run one process; returns (ok, wall seconds, peak RSS in KiB).

        The peak RSS comes from ``wait4`` and covers the process and every
        descendant it waited for, pool workers included.  A process still
        running at the deadline is killed with its whole process group."""
        self.attempted += 1
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        with open(log, "wb") as log_fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=log_fh, stderr=subprocess.STDOUT, env=self.env,
                cwd=ROOT, start_new_session=True,
            )
            timer = threading.Timer(max(1.0, self.remaining()), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers a crashed stage left behind
        if timed_out.is_set():
            self.fail(invocation, "hung past the deadline")
        elif proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-400:]
            self.fail(invocation, f"exit code {proc.returncode}: {tail}")
        return invocation not in self.failed, wall, usage.ru_maxrss


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def _digests(directory: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = directory / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


# ---------------------------------------------------------------------------
# set-up and untraced pipeline


def setup(runner: Runner, workload: str, seed: int, base: Path, i: int, first: dict | None,
          probes: list[float]) -> tuple[float, dict]:
    """Generate the inputs into ``base/in<i>`` and time it; the host probe
    taken right after it goes to ``probes``.  Every copy must hold the same
    bytes as ``first``; copies after the first are removed."""
    target = base / f"in{i}"
    t0 = time.perf_counter()
    ok, _, _ = runner.run(f"setup#{i}", workloads.setup_argv(workload, seed, target), base / f"setup{i}.log")
    if not ok:
        raise RuntimeError("set-up failed")
    workloads.finish_setup(workload, seed, target)
    elapsed = time.perf_counter() - t0
    probes.extend(hostspeed.probe())
    digests = _digests(target, workloads.setup_files(workload))
    if first is not None and digests != first:
        runner.fail(f"setup#{i}", "inputs differ between set-up runs with one seed")
    if i:
        shutil.rmtree(target)
    return elapsed, digests


def pipeline(runner: Runner, workload: str, inp: Path, out: Path, tag: str,
             probes: list[float]) -> dict | None:
    """One untraced pass at ``--jobs 2``; None if a step failed.

    A host probe is taken right after each process and goes to ``probes``.
    ``pipeline_s`` is the sum of the processes' wall times: first stage
    start to last stage end, less the probes."""
    out.mkdir(parents=True)
    times: dict[str, float] = {}
    peak_kib = 0
    wall_s = 0.0
    for step in workloads.stages(workload, inp, out, JOBS):
        argv = [sys.executable, "-m", "bookqa.cli", *step.argv] if step.bookqa else list(step.argv)
        ok, wall, rss = runner.run(f"{tag}:{step.name}", argv, out / f"{step.name}.log")
        probes.extend(hostspeed.probe())
        if not ok:
            return None
        if step.metric:
            times[step.metric] = times.get(step.metric, 0.0) + wall
        wall_s += wall
        peak_kib = max(peak_kib, rss)
    times["pipeline_s"] = wall_s
    times["peak_rss_mb"] = peak_kib / 1024.0
    return times


def check(runner: Runner, workload: str, seed: int, inp: Path, out: Path, tag: str,
          pinned: dict | None, reference: dict | None) -> dict[str, str]:
    """Check one pass's artifacts.  The first pass gets the semantic checks;
    later passes must repeat its bytes.  Pinned digests apply to all."""
    digests = _digests(out, workloads.primary_outputs(workload))
    if reference is None:
        try:
            problems = workloads.check_outputs(workload, seed, inp, out)
        except (OSError, ValueError, KeyError) as exc:
            problems = [("output-check", f"crashed: {exc!r}")]
        for step, problem in problems:
            runner.fail(f"{tag}:{step}", problem)
    for name, digest in digests.items():
        for label, expected in (("pinned", pinned), ("first pass", reference)):
            if expected is not None and expected.get(name) != digest:
                runner.fail(f"{tag}:{workloads.producer(workload, name)}", f"{name} differs from the {label} digest")
    return digests


# ---------------------------------------------------------------------------
# traced pipeline


def traced_pipeline(runner: Runner, workload: str, inp: Path, out: Path, tag: str):
    """One in-process pass at ``--jobs 1`` under the tracer."""
    import tracer as tracer_mod
    from bookqa import cli

    out.mkdir(parents=True)
    tracer = tracer_mod.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        for step in workloads.stages(workload, inp, out, 1):
            invocation = f"{tag}:{step.name}"
            if not step.bookqa:
                ok, _, _ = runner.run(invocation, list(step.argv), out / f"{step.name}.log")
                if not ok:
                    return None, None
                continue
            runner.attempted += 1
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # the stage crashed: report it as a failed stage
                code = traceback.format_exc()
            tracer.end_stage()
            if code != 0:
                runner.fail(invocation, f"in-process stage returned {code}: {sink.getvalue()[-400:]}")
                return None, None
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return elapsed, tracer


def startup_seconds(runner: Runner, base: Path) -> float:
    times = []
    for i in range(STARTUP_REPEATS):
        ok, wall, _ = runner.run(f"startup#{i}", [sys.executable, "-c", "import bookqa.cli"], base / "startup.log")
        if ok:
            times.append(wall)
    return statistics.median(times) if times else 0.0


def per_layer(tracer, extra: dict[str, float]) -> dict[str, float]:
    counts = dict(tracer.counts)
    counts["ir_eval.coverage_dups"] = counts.get("ir_eval.coverage_pairs", 0) - counts.get("ir_eval.coverage_distinct", 0)
    table = tracer.table()
    values = {}
    for name, _, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "stat":
            fn, _, field = key.partition(":")
            value = table.get(fn, {}).get(field, 0)
        elif kind == "count":
            value = counts.get(key, 0)
        elif kind == "ratio":
            num, _, den = key.partition("/")
            value = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        else:
            value = extra[key]
        values[name] = value
    return values


def traffic(workload: str, table: dict, traced_s: float, untraced_s: float, startup_s: float) -> dict:
    """Where a workload's time goes: the self time of each layer in the
    traced pass, the share of the traced pipeline taken by the layers its
    WHY names, and the share of the untraced pipeline that starting its
    processes takes (``cli.startup_s`` times the number of processes)."""
    layers: dict[str, float] = {}
    for fn, stat in table.items():
        layer = fn.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + stat["self_s"]
    named = workloads.WHY_LAYERS[workload]
    why_s = sum(layers.get(layer, 0.0) for layer in named)
    processes = len(workloads.stages(workload, Path("."), Path("."), 1))
    return {
        "why_layers": list(named),
        "why_layers_self_s": why_s,
        "why_share_of_traced_pipeline": why_s / traced_s,
        "processes": processes,
        "startup_share_of_pipeline": startup_s * processes / untraced_s,
        "layer_self_s": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
    }


# ---------------------------------------------------------------------------
# one workload


def _summary(samples: list[float]) -> dict:
    ordered = sorted(samples)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "min": ordered[0], "max": ordered[-1], "n": len(ordered), "values": samples}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, pin: bool = False) -> tuple[dict, dict]:
    started = time.perf_counter()
    runner = Runner(started)
    base = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    pinned_all = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pinned = pinned_all.get(workload, {}).get(str(seed))
    samples: dict[str, list[float]] = {}  # scaled to the reference host speed
    walls: dict[str, list[float]] = {}  # as measured
    probes: list[float] = []
    metrics: dict[str, float] = {}
    reference = None
    inputs = None

    def record(timed: list[tuple[str, float]], round_probes: list[float]) -> None:
        factor = hostspeed.scale(round_probes)
        probes.extend(round_probes)
        for name, value in timed:
            walls.setdefault(name, []).append(value)
            samples.setdefault(name, []).append(value * factor if name in SCALED else value)

    try:
        measure_from = time.perf_counter()
        inp = base / "in0"
        # --trace 1 spends half of --seconds on untraced passes, then makes
        # one traced pass.
        budget = seconds / 2 if trace else seconds
        passes = setups = 0
        while True:
            last = time.perf_counter()
            # One round: set-up (the first one writes the inputs every pass
            # reads), then one pass, with a host probe after each process.
            # A round's times are scaled by its own probes: the host's speed
            # drifts over seconds to minutes, and a round lasts a few
            # seconds.  Set-up is timed in every round, so that its samples
            # span the same minutes as the pipeline's.
            timed: list[tuple[str, float]] = []
            round_probes: list[float] = []
            for _ in range((0 if trace else SETUP_PER_PASS) + (inputs is None)):
                setup_s, digests = setup(runner, workload, seed, base, setups, inputs, round_probes)
                setups += 1
                inputs = inputs or digests
                timed.append(("setup_s", setup_s))
            out = base / f"pass{passes}"
            times = pipeline(runner, workload, inp, out, f"pass{passes}", round_probes)
            if times is None:
                break
            reference = check(runner, workload, seed, inp, out, f"pass{passes}", pinned, reference)
            record(timed + list(times.items()), round_probes)
            if passes:
                shutil.rmtree(out)
            passes += 1
            # Start another pass only if it can end within the budget.
            took = time.perf_counter() - last
            if runner.failed or time.perf_counter() - measure_from + took > budget:
                break
            if runner.remaining() < 2 * took:
                break
        # The time left is too short for a pass; fill it with one more
        # round of set-ups, which are short.
        timed, round_probes = [], []
        while not trace and passes and not runner.failed:
            last = time.perf_counter()
            setup_s, _ = setup(runner, workload, seed, base, setups, inputs, round_probes)
            setups += 1
            timed.append(("setup_s", setup_s))
            if time.perf_counter() - measure_from + 2 * (time.perf_counter() - last) > budget:
                break
        if timed:
            record(timed, round_probes)
        medians = {name: statistics.median(values) for name, values in samples.items()}
        wall = {name: statistics.median(values) for name, values in walls.items()}
        if trace and not runner.failed:
            traced = base / "traced"
            traced_s, tracer = traced_pipeline(runner, workload, inp, traced, "traced")
            if tracer is not None:
                check(runner, workload, seed, inp, traced, "traced", pinned, reference)
                walls["traced_pipeline_s"] = [traced_s]
                extra = {name: medians.get(name, 0.0) for name in STAGES}
                extra["cli.startup_s"] = startup_seconds(runner, base)
                extra["trace_overhead_frac"] = traced_s / wall["pipeline_s"] - 1.0
                metrics = per_layer(tracer, extra)
                traffic_info = traffic(workload, tracer.table(), traced_s, wall["pipeline_s"],
                                       extra["cli.startup_s"])
        elif not trace and not runner.failed:
            metrics = {name: medians[name] for name, _ in END_TO_END}
    except RuntimeError as exc:
        runner.problems.append(str(exc))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if pin and reference is not None and not runner.failed:
        pinned_all.setdefault(workload, {})[str(seed)] = reference
        DIGESTS.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")

    units = dict((n, u) for n, u, _ in PER_LAYER) if trace else dict(END_TO_END)
    result = {
        "correct": not runner.failed and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": len(runner.failed) if metrics else max(len(runner.failed), 1),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    info = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workloads.sizes(workload),
        "jobs": 1 if trace else JOBS,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "revision": _revision(),
        "digests_pinned": pinned is not None,
        "failed_frac": result["failed"] / result["attempted"],
        "problems": runner.problems[:10],
        "samples": {name: _summary(values) for name, values in samples.items() if values},
        "wall_samples": {name: _summary(values) for name, values in walls.items() if values},
        "host_probe_s": _summary(probes) if probes else None,
        "wall_s": time.perf_counter() - started,
    }
    if trace and metrics:
        info["traffic"] = traffic_info
        info["functions"] = tracer.table()
    return result, info


def _revision() -> dict:
    """The git commit when the checkout has one, and always a digest of the
    package sources (the benchmark may run from an export without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bookqa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else None
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _print_table(results: dict[str, tuple[dict, dict]], trace: bool) -> None:
    """One row per metric, one column per workload.  Untraced cells show the
    median, the quartiles and the number of samples, times scaled to the
    reference host speed."""
    if trace:
        rows = [(n, u) for n, u, _ in PER_LAYER]
    else:
        rows = list(END_TO_END[:2]) + [(n, "s") for n in STAGES] + list(END_TO_END[2:])
    print(f"{'metric':<40}{'unit':<7}" + "".join(f"{w:>30}" for w in results))
    for name, unit in rows + [("failed_frac", "ratio")]:
        cells = []
        for result, info in results.values():
            sample = info["samples"].get(name)
            if name == "failed_frac":
                cells.append(f"{info['failed_frac']:.4f}")
            elif trace and name in result["metrics"]:
                cells.append(f"{result['metrics'][name]['value']:.6g}")
            elif not trace and sample:
                cells.append(f"{sample['median']:.4g} [{sample['q1']:.3g},{sample['q3']:.3g}] n={sample['n']}")
            else:
                cells.append("-")
        print(f"{name:<40}{unit:<7}" + "".join(f"{c:>30}" for c in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description="bookqa stage-by-stage benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="pin this run's artifact digests")
    args = parser.parse_args()
    if not (SRC / "bookqa" / "cli.py").is_file():
        print(f"bench: no bookqa sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        for result, info in results.values():
            print(json.dumps(info, sort_keys=True), file=sys.stderr)
        _print_table(results, bool(args.trace))
        return 0 if all(r["correct"] for r, _ in results.values()) else 1
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.pin)
    if args.trace:
        print(json.dumps({"functions": info.pop("functions", {})}), file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
