"""qaforge benchmark: one workload per run, inputs from a seed, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload ref-toy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record 0-39 [--workload ref-toy]  # refresh expected.json
    python3 perfbench/spread.py --runs 10        # run-to-run spread per metric
    python3 -m pytest perfbench                  # tests of the benchmark itself

Workloads (``inputs.WORKLOADS`` holds their sizes and the reason each
exists): ``ref-toy``, ``ref-bigvocab`` and ``remote-loopback`` generate a
dataset with ``run_pipeline``; ``score-mixed`` scores an en/es/zh document
with ``read_squad`` + ``evaluate_dataset`` (squad and mlqa modes) and
corpus ``bleu``.

A run writes the seeded inputs under ``perfbench/.work/``, then starts
``child.py`` in a fresh process that drives qaforge's public API over those
files for about ``--seconds`` and records spans around every call it makes
into a layer. This process then checks every iteration's outputs:

- the funnel counts reconcile with what the input generator built
  (ingested, length-kept, sampled, record errors) and with each other;
- every pipeline in the run writes byte-identical artifacts, and for seeds
  listed in ``expected.json`` they hash to the recorded sha256;
- every emitted answer sits at its offset in its passage;
- EM/F1 per mode and language, and BLEU per language, equal (to a relative
  1e-9) an independent reference scorer (``oracle.py``);
- the remote stub saw exactly the scripted faults, each retried once;
- with ``--trace 1``, the staged replay reproduces ``run_pipeline``'s dataset.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation is one generated passage or one
scored entry (an EM/F1 evaluation or a BLEU pair); every operation of an
iteration whose checks fail counts as failed. The line before it records
``nproc`` and the Python and ``requests`` versions; both lines are also
appended to ``perfbench/.work/results.jsonl``.

End-to-end metrics (``--trace 0``) are medians over the run's iterations;
the first iteration is a warm-up that is only checked:

- ``items_per_s``: sampled passages per second of ``run_pipeline``, or, on
  ``score-mixed``, scored entries per second of scoring;
- ``peak_rss_mb``: the workload process's peak resident memory;
- ``setup_s``: ``build_backend`` (plus starting the stub on
  ``remote-loopback``), or loading the normalization profiles on
  ``score-mixed``.

On a shared host the speed of the CPU drifts by a fifth within a minute, so
CPU work is timed in reference-host seconds: ``child.calibration_task``, a
fixed pure-Python job that does not touch qaforge, runs just before and just
after every iteration, and the iteration's CPU-work times are scaled by
``CALIBRATION_REF_S`` over the mean of its two calibration times
(``host_scale``). That covers ``setup_s`` everywhere and ``items_per_s`` on
every workload but ``remote-loopback``, whose job waits on the stub's service
time and is timed as it ran. A change to qaforge leaves the calibration
task's time alone, so it moves these metrics as it moves the raw times; the
line before the result keeps each iteration's ``host_scale``.

``--trace 1`` alternates untraced iterations with traced ones. A traced
iteration runs generation and scoring on every workload, wraps the backend's
``generate`` in a proxy inside ``run_pipeline``, replays ``run_pipeline``'s
stages one call at a time, and, on the reference workloads, runs the remote
client over the workload's first 40 passages against the stub, so every
workload reports every layer. Per-layer metrics are medians over traced
iterations; the spans are written to
``perfbench/.work/trace-<workload>-seed<n>.json``. ``generator.train_s`` is
the time in ``build_backend`` (reading the corpus and training, or
constructing the remote client). ``pipeline.self_s`` is ``run_pipeline``'s
wall time minus the replay's stage times and the proxy's generate time
divided by the worker count. ``remote.service_ms`` is the stub's median
service time and ``remote.client_overhead_ms`` the median call time minus
it; ``remote.bytes_out``/``bytes_in`` are what the client sent/received,
counted by the stub. ``trace.overhead_ratio`` is traced ``items_per_s`` over
untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
RUN_TIMEOUT_S = 170
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# child.calibration_task's time on the reference host: a 2-core VM with
# Python 3.11, where it took 0.07-0.08 s. Only the ratio to it matters.
CALIBRATION_REF_S = 0.075

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "corpus.ingest_s": "s",
    "corpus.length_filter_s": "s",
    "corpus.sample_s": "s",
    "corpus.record_errors": "count",
    "corpus.length_kept_ratio": "ratio",
    "segmentation.mixed_segment_s": "s",
    "generator.calls": "count",
    "generator.busy_s": "s",
    "generator.call_ms.p50": "ms",
    "generator.call_ms.tail": "ms",
    "generator.call_ms.tail_pct": "%",
    "generator.decode_steps": "count",
    "generator.distinct_contexts": "count",
    "generator.new_context_ratio": "ratio",
    "generator.train_s": "s",
    "remote.calls": "count",
    "remote.call_ms.p50": "ms",
    "remote.call_ms.tail": "ms",
    "remote.call_ms.tail_pct": "%",
    "remote.requests": "count",
    "remote.retries": "count",
    "remote.service_ms": "ms",
    "remote.client_overhead_ms": "ms",
    "remote.bytes_in": "bytes",
    "remote.bytes_out": "bytes",
    "parsefilter.busy_s": "s",
    "parsefilter.parsed_ratio": "ratio",
    "parsefilter.extractive_ratio": "ratio",
    "parsefilter.kept_ratio": "ratio",
    "dataset.emit_s": "s",
    "dataset.write_s": "s",
    "dataset.bytes_written": "bytes",
    "dataset.read_s": "s",
    "metrics.eval_s.squad": "s",
    "metrics.eval_s.mlqa": "s",
    "metrics.bleu_s": "s",
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# Expectations


def pipeline_config(workload: inputs.Workload, seed: int) -> dict:
    """The ``PipelineConfig`` fields of a workload (paths filled in by the child)."""
    return {
        "seed": seed,
        "backend": "remote" if workload.backend == "remote" else "reference",
        "train_corpus": "train.jsonl" if workload.train_triples else None,
        "min_tokens": workload.min_tokens,
        "max_tokens": workload.max_tokens,
        "sample_n": workload.sample_n,
        "num_samples": workload.num_samples,
        "top_k": workload.top_k,
        "max_output_tokens": workload.max_output_tokens,
        "keep_per_passage": workload.keep_per_passage,
        "workers": workload.workers,
    }


def scripted_faults(passages: int, every: int) -> int:
    """Faults the stub injects over ``passages`` distinct passages (see stub.py)."""
    return sum(1 for k in range(1, passages + 1) if k % every == every // 2)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class Expectations:
    """Everything a correct run must report, computed without qaforge."""

    def __init__(self, workload: inputs.Workload, truth: inputs.Truth, input_dir: Path,
                 recorded: dict | None):
        self.workload = workload
        self.truth = truth
        self.sampled = min(workload.sample_n, truth.length_kept)
        self.recorded = recorded
        self.scores: dict = {}
        predictions = json.loads((input_dir / "predictions.json").read_text(encoding="utf-8"))
        self.bleu = {}
        for lang in inputs.LANGUAGES:
            document = json.loads((input_dir / f"squad_{lang}.json").read_text(encoding="utf-8"))
            for mode in inputs.MODES:
                self.scores.setdefault(mode, {})[lang] = oracle.score_document(
                    document, predictions, mode, lang)
            lines = {
                side: [oracle.segment(line, lang == "zh") for line in
                       (input_dir / f"bleu_{side}_{lang}.txt").read_text(encoding="utf-8")
                       .splitlines()]
                for side in ("hyp", "ref")
            }
            self.bleu[lang] = oracle.corpus_bleu(lines["hyp"], lines["ref"])

    def check_stub(self, stub: dict, passages: int) -> list[str]:
        faults = scripted_faults(passages, self.workload.stub_fault_every)
        problems = []
        if stub["distinct_passages"] != passages:
            problems.append(f"stub saw {stub['distinct_passages']} passages, not {passages}")
        if stub["faults"] != faults or stub["retries"] != faults:
            problems.append(f"stub faults/retries {stub['faults']}/{stub['retries']} != {faults}")
        if stub["requests"] != passages + faults:
            problems.append(f"stub requests {stub['requests']} != {passages + faults}")
        return problems

    def check(self, record: dict, first_digests: dict | None) -> list[str]:
        """Problems with one iteration, given the digests of the run's first pipeline."""
        problems = []
        if "counts" in record:
            problems += self.check_pipeline(record, first_digests or record["digests"])
        if "scores" in record:
            problems += self.check_scores(record)
        return problems

    def check_scores(self, record: dict) -> list[str]:
        problems = []
        if record["violations"]:
            problems.append(f"{record['violations']} violations reading the scoring documents")
        for mode in inputs.MODES:
            for lang in inputs.LANGUAGES:
                got, exp = record["scores"][mode][lang], self.scores[mode][lang]
                if got[2] != exp[2] or not (close(got[0], exp[0]) and close(got[1], exp[1])):
                    problems.append(f"{mode}/{lang} EM/F1/total {got} != {exp}")
        for lang in inputs.LANGUAGES:
            if not close(record["bleu"][lang], self.bleu[lang]):
                problems.append(f"bleu/{lang} {record['bleu'][lang]} != {self.bleu[lang]}")
        return problems

    def check_pipeline(self, record: dict, first_digests: dict) -> list[str]:
        problems = []
        c = record["counts"]
        w = self.workload
        want = {"ingested": self.truth.ingested, "length_kept": self.truth.length_kept,
                "sampled": self.sampled, "generated": self.sampled * w.num_samples}
        for name, value in want.items():
            if c[name] != value:
                problems.append(f"count {name}={c[name]}, expected {value}")
        if not (c["parsed"] >= c["extractive"] >= c["deduped"] >= c["kept"] >= 0
                and c["generated"] >= c["parsed"]):
            problems.append(f"candidate funnel does not reconcile: {c}")
        if record["record_errors"] != self.truth.record_errors:
            problems.append(f"record_errors={record['record_errors']}, "
                            f"injected {self.truth.record_errors}")
        if record["digests"] != first_digests:
            problems.append("artifacts differ from the run's first iteration")
        if self.recorded is not None:
            for name, digest in record["digests"].items():
                if self.recorded.get(name) != digest:
                    problems.append(f"{name} sha256 differs from expected.json")
        if not record["extractive_ok"]:
            problems.append("an emitted answer is not at its offset")
        if "stub" in record:
            problems += self.check_stub(record["stub"], self.sampled)
        if record["traced"]:
            replay = record["replay"]
            if replay["dataset_digest"] != record["digests"]["dataset.json"]:
                problems.append("staged replay dataset differs from run_pipeline's")
            for name in ("ingested", "length_kept", "generated", "parsed", "extractive", "kept"):
                if replay[name] != c[name]:
                    problems.append(f"replay {name}={replay[name]} != run_pipeline {c[name]}")
            if "stub" in record:
                problems += self.check_stub(replay["stub"], self.sampled)
            else:
                spans = Spans(record["spans"])
                probe = spans.find("pipeline.run_pipeline", spans.find("remote.probe"))
                calls = len(spans.durations(probe, "generator.generate"))
                problems += self.check_stub(record["probe_stub"], calls)
        return problems


def operations(record: dict) -> int:
    """Passages generated plus entries scored (EM/F1 evaluations and BLEU pairs)."""
    passages = record["counts"]["sampled"] if "counts" in record else 0
    return passages + record.get("entries", 0) + record.get("pairs", 0)


# --------------------------------------------------------------------------
# Metrics


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100.0))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest ladder percentile with ten samples beyond it."""
    eligible = [p for p in TAIL_LADDER if len(sorted_values) * (1 - p / 100.0) >= 10]
    pct = eligible[-1] if eligible else TAIL_LADDER[0]
    return percentile(sorted_values, pct), pct


class Spans:
    """Read access to one iteration's spans (see ``child.Trace``)."""

    def __init__(self, spans: list[list]):
        self.spans = spans

    def find(self, name: str, parent: int = 0) -> int:
        return next(i for i, s in enumerate(self.spans) if s[0] == name and s[3] == parent)

    def durations(self, parent: int, name: str) -> list[float]:
        """Durations of the direct children of ``parent`` called ``name``."""
        return [end - start for n, start, end, up in self.spans if up == parent and n == name]

    def total(self, parent: int, *names: str) -> float:
        return sum(sum(self.durations(parent, name)) for name in names)


def scoring_s(spans: Spans) -> float:
    """Time in ``read_squad``, ``evaluate_dataset`` and ``bleu`` (with its tokenizing)."""
    return spans.total(spans.find("scoring"), "dataset.read_squad",
                       "metrics.evaluate_dataset.squad", "metrics.evaluate_dataset.mlqa",
                       "metrics.bleu")


def host_scale(record: dict) -> float:
    """Reference-host seconds per second of CPU work in this iteration.

    The calibration task ran just before and just after the iteration; the
    mean of its two times against ``CALIBRATION_REF_S`` says how much slower
    than the reference the host ran the iteration.
    """
    return CALIBRATION_REF_S / statistics.fmean(record["calibration_s"])


def items_per_s(record: dict, workload: inputs.Workload) -> float:
    """Passages per second of ``run_pipeline``, or entries scored per second of scoring."""
    spans = Spans(record["spans"])
    if workload.scoring:
        items, seconds = record["entries"] + record["pairs"], scoring_s(spans)
    else:
        items, seconds = record["counts"]["sampled"], spans.total(0, "pipeline.run_pipeline")
    return items / (seconds * (host_scale(record) if workload.cpu_bound else 1.0))


def setup_s(record: dict) -> float:
    """Set-up time in reference-host seconds: it is CPU work on every workload."""
    return Spans(record["spans"]).total(0, "setup") * host_scale(record)


def end_to_end(measured: list[dict], peak_rss_mb: float, workload: inputs.Workload) -> dict:
    return {
        "items_per_s": statistics.median(items_per_s(r, workload) for r in measured),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_s(r) for r in measured),
    }


REPLAY_STAGES = {
    "corpus.ingest_s": "corpus.parse_passage_stream",
    "corpus.length_filter_s": "corpus.filter_by_length",
    "corpus.sample_s": "corpus.sample_passages",
    "parsefilter.busy_s": "parsefilter.run_filter_pipeline",
    "dataset.emit_s": "dataset.emit_squad",
    "dataset.write_s": "dataset.write_squad",
}


def layer_times(record: dict, remote: bool, workers: int) -> dict:
    """Per-layer times of one traced iteration, plus its generator and remote call times."""
    spans = Spans(record["spans"])
    run_span = spans.find("pipeline.run_pipeline")
    replay = spans.find("replay")
    scoring = spans.find("scoring")
    calls = spans.durations(run_span, "generator.generate")
    if remote:
        remote_calls = calls
    else:
        probe = spans.find("remote.probe")
        remote_calls = spans.durations(spans.find("pipeline.run_pipeline", probe),
                                       "generator.generate")
    times = {metric: spans.total(replay, name) for metric, name in REPLAY_STAGES.items()}
    pipeline_s = spans.total(0, "pipeline.run_pipeline")
    times.update({
        "generator.busy_s": sum(calls),
        "generator.train_s": spans.total(spans.find("setup"), "generator.build_backend"),
        "segmentation.mixed_segment_s": spans.total(0, "segmentation.mixed_segment"),
        "dataset.read_s": spans.total(scoring, "dataset.read_squad"),
        "metrics.eval_s.squad": spans.total(scoring, "metrics.evaluate_dataset.squad"),
        "metrics.eval_s.mlqa": spans.total(scoring, "metrics.evaluate_dataset.mlqa"),
        "metrics.bleu_s": spans.total(scoring, "metrics.bleu"),
        # The journal, the JSONL/stats/report writes and orchestration: what
        # run_pipeline spent outside the stages the replay times one by one.
        "pipeline.self_s": pipeline_s - sum(times.values()) - sum(calls) / workers,
    })
    return {"times": times, "generator_ms": [c * 1000 for c in calls],
            "remote_ms": [c * 1000 for c in remote_calls]}


def per_layer(traced: list[dict], untraced: list[dict], workload: inputs.Workload) -> dict:
    remote = workload.backend == "remote"
    per_iteration = [layer_times(r, remote, workload.workers) for r in traced]
    metrics = {name: statistics.median(t["times"][name] for t in per_iteration)
               for name in per_iteration[0]["times"]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(items_per_s(r, workload) for r in traced)
        / statistics.median(items_per_s(r, workload) for r in untraced))

    last = traced[-1]
    counts = last["counts"]
    replay = last["replay"]
    steps, contexts = last["decode"]
    generator_ms = sorted(v for t in per_iteration for v in t["generator_ms"])
    remote_ms = sorted(v for t in per_iteration for v in t["remote_ms"])
    stub = last["stub"] if remote else last["probe_stub"]
    metrics["generator.call_ms.tail"], metrics["generator.call_ms.tail_pct"] = tail(generator_ms)
    metrics["remote.call_ms.tail"], metrics["remote.call_ms.tail_pct"] = tail(remote_ms)
    metrics.update({
        "corpus.record_errors": replay["record_errors"],
        "corpus.length_kept_ratio": replay["length_kept"] / replay["ingested"],
        "generator.calls": len(per_iteration[-1]["generator_ms"]),
        "generator.call_ms.p50": percentile(generator_ms, 50),
        "generator.decode_steps": steps,
        "generator.distinct_contexts": contexts,
        "generator.new_context_ratio": contexts / steps,
        "remote.calls": len(per_iteration[-1]["remote_ms"]),
        "remote.call_ms.p50": percentile(remote_ms, 50),
        "remote.requests": stub["requests"],
        "remote.retries": stub["retries"],
        "remote.service_ms": stub["service_ms_p50"],
        "remote.client_overhead_ms": percentile(remote_ms, 50) - stub["service_ms_p50"],
        "remote.bytes_in": stub["bytes_sent"],
        "remote.bytes_out": stub["bytes_received"],
        "parsefilter.parsed_ratio": counts["parsed"] / counts["generated"],
        "parsefilter.extractive_ratio": counts["extractive"] / counts["generated"],
        "parsefilter.kept_ratio": counts["kept"] / counts["generated"],
        "dataset.bytes_written": replay["bytes_written"],
        "pipeline.artifact_bytes": last["artifact_bytes"],
    })
    return metrics


# --------------------------------------------------------------------------
# Running


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {"workloads": {}}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def run_child(workdir: Path, spec: dict, timeout: float) -> dict:
    (workdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    # Its own process group, so a timeout also stops the stubs it started.
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(workdir)],
                            stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchmarkError(f"workload did not finish within {timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process exited with code {proc.returncode}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def prepare(workload: inputs.Workload, seed: int, workdir: Path) -> tuple[inputs.Truth, str]:
    truth = inputs.write_inputs(workload, seed, workdir / "inputs")
    return truth, inputs.inputs_digest(workdir / "inputs")


def spec_for(workload: inputs.Workload, seed: int, workdir: Path, seconds: float,
             trace: int, record: bool = False) -> dict:
    return {
        "inputs": str(workdir / "inputs"),
        "config": pipeline_config(workload, seed),
        "stub": {"service_ms": workload.stub_service_ms, "fault_every": workload.stub_fault_every},
        "scoring": workload.scoring,
        "seconds": seconds,
        "trace": trace,
        "record": record,
    }


def run_workload(workload: inputs.Workload, seed: int, seconds: float, trace: int,
                 expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload in a child process; return (result line, details)."""
    started = time.monotonic()
    name = workload.name
    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        truth, input_digest = prepare(workload, seed, workdir)
        table = (expected if expected is not None else load_expected())["workloads"]
        recorded = table.get(name, {}).get("seeds", {}).get(str(seed))
        problems_all = []
        if recorded is not None and recorded["inputs"] != input_digest:
            problems_all.append("generated inputs differ from expected.json for this seed")
        expect = Expectations(workload, truth, workdir / "inputs", recorded)
        budget = RUN_TIMEOUT_S - (time.monotonic() - started)
        result = run_child(workdir, spec_for(workload, seed, workdir, seconds, trace), budget)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = result["iterations"]
    first_digests = next((r["digests"] for r in iterations if "digests" in r), None)
    attempted = failed = 0
    for record in iterations:
        problems = problems_all + expect.check(record, first_digests)
        attempted += operations(record)
        if problems:
            failed += operations(record)
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
    measured = [r for r in iterations if not r.get("warmup") and not r["traced"]]
    if trace:
        traced = [r for r in iterations if r["traced"]]
        metrics = per_layer(traced, measured, workload)
        units = PER_LAYER_UNITS
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps([r["spans"] for r in traced]), encoding="utf-8")
    else:
        metrics = end_to_end(measured, result["peak_rss_mb"], workload)
        units = END_TO_END_UNITS
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    details = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "iterations": len(iterations), "measured": len(measured),
        "inputs_sha256": input_digest, "digest_recorded": recorded is not None,
        "env": result["env"],
        "per_iteration": {
            "items_per_s": [items_per_s(r, workload) for r in measured],
            "setup_s": [setup_s(r) for r in measured],
            "host_scale": [host_scale(r) for r in measured],
        },
    }
    return line, details


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S + 10,
        )
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-2]}")
        line = json.loads(lines[-1])
        print(f"{name}: {json.dumps(line)}")
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def record(seeds: list[int], names: list[str]) -> int:
    """Run one checked, traced iteration per (workload, seed) and store its digests."""
    recorded: dict[str, dict] = {name: {} for name in names}
    for name in names:
        workload = inputs.WORKLOADS[name]
        for seed in seeds:
            workdir = WORK / f"record-{name}-{seed}-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                truth, input_digest = prepare(workload, seed, workdir)
                expect = Expectations(workload, truth, workdir / "inputs", None)
                result = run_child(workdir, spec_for(workload, seed, workdir, 0, 0, record=True),
                                   RUN_TIMEOUT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            (first,) = result["iterations"]
            problems = expect.check(first, None)
            if problems:
                raise BenchmarkError(f"{name} seed {seed}: {problems}")
            recorded[name][str(seed)] = {"inputs": input_digest, **first["digests"]}
            print(f"{name} seed {seed}: {first['digests']['dataset.json'][:16]}", file=sys.stderr)
    # Re-read just before writing, so recordings of other seed ranges made
    # at the same time are kept.
    expected = load_expected()
    for name in names:
        entry = expected["workloads"].setdefault(name, {"seeds": {}})
        entry["why"] = inputs.WORKLOADS[name].why
        entry["seeds"].update(recorded[name])
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qaforge benchmark")
    parser.add_argument("--workload", choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="record expected digests for seeds, e.g. 0-31")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qaforge" / "__init__.py").is_file():
        print(f"qaforge sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        if args.record:
            names = list(inputs.WORKLOADS) if args.workload in (None, "all") else [args.workload]
            return record(parse_seeds(args.record), names)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        line, details = run_workload(inputs.WORKLOADS[args.workload], args.seed, args.seconds,
                                     args.trace)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**details, **line}) + "\n")
    print(json.dumps(details))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
