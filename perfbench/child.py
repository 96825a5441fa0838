"""Run one workload against qaforge's public API and record raw measurements.

``run.py`` starts this in a fresh process per run, so the process's peak RSS
is the workload's own high-water mark::

    python3 perfbench/child.py <workdir>

It reads ``<workdir>/spec.json`` (written by ``run.py``: input paths, the
pipeline knobs, the time budget) and writes ``<workdir>/result.json``: one
record per iteration with its spans, funnel counts, output digests and scores.
It checks nothing itself; the parent compares the outputs against
expectations and derives the metrics from the spans.

One iteration is the job a user runs: set up (start the stub for the remote
backend, ``build_backend``) and ``run_pipeline``; or, for the scoring
workload, load the normalization profiles and score the evaluation set with
``read_squad`` + ``evaluate_dataset`` in both modes and ``bleu``. Each layer
is timed only at the calls made into it from here, in spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qaforge import (  # noqa: E402
    GenerationRequest,
    PipelineConfig,
    bleu,
    derive_seed,
    emit_squad,
    evaluate_dataset,
    filter_by_length,
    make_profile,
    parse_passage_stream,
    read_squad,
    run_filter_pipeline,
    run_pipeline,
    sample_passages,
    tokenize_for_f1,
    write_squad,
)
from qaforge.pipeline import build_backend  # noqa: E402
from qaforge.segmentation import mixed_segment  # noqa: E402

import requests  # noqa: E402
from inputs import LANGUAGES, MODES  # noqa: E402

ARTIFACTS = ("dataset.json", "examples.jsonl", "candidates.jsonl")
PROBE_PASSAGES = 40

now = time.perf_counter


CALIBRATION_WORDS = tuple(f"w{rank:03d}" for rank in range(300))


def calibration_task() -> int:
    """A fixed pure-Python job, independent of qaforge, run around every iteration.

    It counts word-trigram transitions drawn from a skewed 300-word pool,
    ranks each context's successors and round-trips the result through JSON:
    the dict, tuple, sort and string work the measured jobs are made of. Its
    time tracks the host's speed, which on a shared machine drifts by a fifth
    within a minute; ``run.py`` divides it out of the times of CPU work.
    """
    rng = random.Random(7)
    counts: dict[tuple[str, str], dict[str, int]] = {}
    context = ("<s>", "<s>")
    for _ in range(30000):
        token = CALIBRATION_WORDS[int(rng.random() ** 2 * len(CALIBRATION_WORDS))]
        successors = counts.setdefault(context, {})
        successors[token] = successors.get(token, 0) + 1
        context = (context[1], token)
    lines = []
    for successors in counts.values():
        ranked = sorted(successors.items(), key=lambda pair: (-pair[1], pair[0]))
        lines.append(" ".join(word for word, _ in ranked[:5]))
    return len(json.loads(json.dumps({"tokens": "\n".join(lines).split()}))["tokens"])


def timed(job) -> float:
    started = now()
    job()
    return now() - started


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Stub:
    """The loopback generation service, in its own process."""

    def __init__(self, service_ms: float, fault_every: int):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"),
             "--service-ms", str(service_ms), "--fault-every", str(fault_every)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = json.loads(self.process.stdout.readline())["port"]
        except (ValueError, KeyError, TypeError):
            self.kill()
            raise RuntimeError("stub did not report its port") from None
        self.url = f"http://127.0.0.1:{port}"

    def stop(self) -> dict:
        """Close the stub's stdin, wait for it, and return its counters."""
        self.process.stdin.close()
        out = self.process.stdout.read()
        self.process.wait(timeout=30)
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


class Trace:
    """Spans recorded around the calls made into each layer, kept in memory.

    A span is ``[name, start, end, parent]``: ``perf_counter`` seconds and the
    index of the span that caused it (None for the root). The whole list is
    written out with the iteration's record when the run ends.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, parent: int | None):
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, now(), None, parent])
        try:
            yield index
        finally:
            self.spans[index][2] = now()


class GeneratorProxy:
    """Wraps a backend's ``generate`` in spans and keeps what each call returned."""

    def __init__(self, backend, trace: Trace):
        self.backend = backend
        self.trace = trace
        self.parent: int | None = None
        self.calls: list[tuple[GenerationRequest, list]] = []

    def generate(self, request, seed=0):
        with self.trace.span("generator.generate", self.parent):
            candidates = self.backend.generate(request, seed=seed)
        self.calls.append((request, candidates))
        return candidates


def decode_counts(calls, order: int, max_tokens: int) -> tuple[int, int]:
    """Decode steps and distinct contexts implied by passage tails and candidate texts.

    Step j of a candidate is taken in the context of the last ``order - 1``
    symbols before it; a candidate shorter than ``max_tokens`` also took the
    step that drew end-of-sequence.
    """
    width = order - 1
    steps = 0
    contexts: set[tuple] = set()
    for request, candidates in calls:
        tail = request.passage.split()[-width:] if width else []
        base = (None,) * (width - len(tail)) + tuple(tail)
        for candidate in candidates:
            tokens = candidate.text.split()
            taken = len(tokens) + (len(tokens) < max_tokens)
            context = base
            for index in range(taken):
                contexts.add(context)
                if index < len(tokens) and width:
                    context = (context + (tokens[index],))[-width:]
            steps += taken
    return steps, len(contexts)


class Runner:
    def __init__(self, spec: dict, workdir: Path):
        self.spec = spec
        self.inputs = Path(spec["inputs"])
        self.out = workdir / "out"
        self.remote = spec["config"]["backend"] == "remote"

    def config(self, **overrides) -> PipelineConfig:
        fields = dict(self.spec["config"], input=str(self.inputs / "passages.jsonl"),
                      output_dir=str(self.out / "run"))
        if fields.get("train_corpus"):
            fields["train_corpus"] = str(self.inputs / fields["train_corpus"])
        fields.update(overrides)
        return PipelineConfig(**fields)

    @contextmanager
    def stub(self, trace: Trace, parent: int, counters: dict):
        """A fresh stub for one block; its counters land in ``counters`` on exit."""
        with trace.span("remote.stub_start", parent):
            stub = Stub(self.spec["stub"]["service_ms"], self.spec["stub"]["fault_every"])
        try:
            yield stub
            counters.update(stub.stop())
        finally:
            stub.kill()

    # -- one iteration ------------------------------------------------------

    def iteration(self, traced: bool) -> dict:
        """One run of the workload's job; traced, every part plus the replay and probe.

        Untraced, a generation workload sets up (stub, ``build_backend``) and
        runs ``run_pipeline``; the scoring workload loads the normalization
        profiles and scores. Traced, every workload does both, then the
        staged replay, the remote probe and the segmentation pass.
        """
        generate = traced or not self.spec["scoring"]
        score = traced or self.spec["scoring"]
        trace = Trace()
        record: dict = {"traced": traced}
        with trace.span("iteration", None) as root:
            with ExitStack() as stack:
                with trace.span("setup", root) as setup:
                    if generate:
                        stub = None
                        if self.remote:
                            record["stub"] = {}
                            stub = stack.enter_context(self.stub(trace, setup, record["stub"]))
                        config = self.config(endpoint=stub.url if stub else None)
                        with trace.span("generator.build_backend", setup):
                            backend = build_backend(config)
                    if score:
                        with trace.span("metrics.load_profiles", setup):
                            profiles = {(mode, lang): make_profile(mode, lang)
                                        for mode in MODES for lang in LANGUAGES}
                if generate:
                    proxy = GeneratorProxy(backend, trace) if traced else None
                    with trace.span("pipeline.run_pipeline", root) as run_span:
                        if proxy is not None:
                            proxy.parent = run_span
                        report = run_pipeline(config, backend=proxy or backend)
                    del backend
            if generate:
                run_dir = Path(config.output_dir)
                record["counts"] = report.counts
                record["record_errors"] = report.record_errors
                record["digests"] = {name: sha256_file(run_dir / name) for name in ARTIFACTS}
                record["artifact_bytes"] = sum(
                    p.stat().st_size for p in run_dir.iterdir() if p.is_file())
                record["extractive_ok"] = extractive_ok(run_dir)
            if score:
                with trace.span("scoring", root) as scoring:
                    record.update(self.score(profiles, trace, scoring))
            if traced:
                record["decode"] = decode_counts(
                    proxy.calls, config.order, config.max_output_tokens)
                del proxy
                with trace.span("replay", root) as replay:
                    record["replay"] = self.staged_replay(trace, replay)
                if not self.remote:
                    with trace.span("remote.probe", root) as probe:
                        record["probe_stub"] = self.remote_probe(trace, probe)
                self.segment_zh(trace, root)
        record["spans"] = trace.spans
        return record

    def score(self, profiles: dict, trace: Trace, parent: int) -> dict:
        datasets = {}
        violations = 0
        for lang in LANGUAGES:
            with open(self.inputs / f"squad_{lang}.json", "rb") as handle:
                with trace.span("dataset.read_squad", parent):
                    result = read_squad(handle)
            datasets[lang] = result.dataset
            violations += len(result.violations)
        with open(self.inputs / "predictions.json", encoding="utf-8") as handle:
            predictions = json.load(handle)
        scores: dict = {}
        entries = 0
        for mode in MODES:
            for lang in LANGUAGES:
                with trace.span(f"metrics.evaluate_dataset.{mode}", parent):
                    report = evaluate_dataset(predictions, datasets[lang], profiles[(mode, lang)])
                scores.setdefault(mode, {})[lang] = [report.exact_match, report.f1, report.total]
                entries += report.total

        bleu_scores = {}
        pairs = 0
        for lang in LANGUAGES:
            profile = profiles[("mlqa", lang)]
            text = {side: (self.inputs / f"bleu_{side}_{lang}.txt").read_text(encoding="utf-8")
                    for side in ("hyp", "ref")}
            with trace.span("metrics.bleu", parent):
                lines = {side: [tokenize_for_f1(line, profile) for line in body.splitlines()]
                         for side, body in text.items()}
                bleu_scores[lang] = bleu(lines["hyp"], lines["ref"])
            pairs += len(lines["hyp"])
        return {"entries": entries, "violations": violations, "scores": scores,
                "pairs": pairs, "bleu": bleu_scores}

    # -- traced parts -------------------------------------------------------

    def staged_replay(self, trace: Trace, parent: int) -> dict:
        """``run_pipeline``'s stages called one by one, in its order, each in a span."""
        facts: dict = {"stub": {}}
        with ExitStack() as stack:
            stub = stack.enter_context(self.stub(trace, parent, facts["stub"])) \
                if self.remote else None
            config = self.config(endpoint=stub.url if stub else None,
                                 output_dir=str(self.out / "replay"))
            with trace.span("generator.build_backend", parent):
                backend = build_backend(config)
            seed = config.resolved_seed()
            errors: list = []
            with open(config.input, "rb") as handle:
                with trace.span("corpus.parse_passage_stream", parent):
                    ingested = list(parse_passage_stream(handle, on_error=errors.append))
            with trace.span("corpus.filter_by_length", parent):
                kept = list(filter_by_length(ingested, config.min_tokens, config.max_tokens))
            with trace.span("corpus.sample_passages", parent):
                sampled = sample_passages(kept, config.sample_n, seed)

            filter_config = config.filter_config()
            examples_by_id = {}
            parsed = extractive = generated = 0
            for passage in sampled:
                request = GenerationRequest(
                    passage=passage.text,
                    language=passage.language,
                    num_samples=config.num_samples,
                    top_k=config.top_k,
                    max_output_tokens=config.max_output_tokens,
                    target_language=config.target_language,
                )
                with trace.span("generator.generate", parent):
                    candidates = backend.generate(request, seed=derive_seed(seed, passage.id))
                with trace.span("parsefilter.run_filter_pipeline", parent):
                    examples, stats = run_filter_pipeline(passage, candidates, filter_config)
                examples_by_id[passage.id] = examples
                generated += stats.candidates
                parsed += stats.parsed
                extractive += stats.extractive
            del backend

        examples = [e for passage_id in sorted(examples_by_id) for e in examples_by_id[passage_id]]
        with trace.span("dataset.emit_squad", parent):
            squad = emit_squad(examples, {p.id: p for p in sampled})
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        destination = out_dir / "dataset.json"
        with trace.span("dataset.write_squad", parent):
            write_squad(squad, destination)
        facts.update({
            "record_errors": len(errors),
            "ingested": len(ingested),
            "length_kept": len(kept),
            "generated": generated,
            "parsed": parsed,
            "extractive": extractive,
            "kept": len(examples),
            "dataset_digest": sha256_file(destination),
            "bytes_written": destination.stat().st_size,
        })
        return facts

    def remote_probe(self, trace: Trace, parent: int) -> dict:
        """The remote client over this workload's first passages, for the remote layer."""
        counters: dict = {}
        with self.stub(trace, parent, counters) as stub:
            config = self.config(
                backend="remote", endpoint=stub.url, train_corpus=None,
                sample_n=PROBE_PASSAGES, workers=2, output_dir=str(self.out / "probe"),
            )
            with trace.span("generator.build_backend", parent):
                proxy = GeneratorProxy(build_backend(config), trace)
            with trace.span("pipeline.run_pipeline", parent) as run_span:
                proxy.parent = run_span
                run_pipeline(config, backend=proxy)
        return counters

    def segment_zh(self, trace: Trace, parent: int) -> None:
        """``mixed_segment`` over the zh passages, zh golds and zh predictions."""
        texts = []
        with open(self.inputs / "passages.jsonl", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and record.get("language") == "zh":
                    texts.append(str(record.get("text", "")))
        document = json.loads((self.inputs / "squad_zh.json").read_text(encoding="utf-8"))
        predictions = json.loads((self.inputs / "predictions.json").read_text(encoding="utf-8"))
        for article in document["data"]:
            for paragraph in article["paragraphs"]:
                for qa in paragraph["qas"]:
                    texts.extend(answer["text"] for answer in qa["answers"])
                    texts.append(predictions[qa["id"]])
        with trace.span("segmentation.mixed_segment", parent):
            for text in texts:
                mixed_segment(text)


def extractive_ok(run_dir: Path) -> bool:
    """Every example's answer sits at its offset in its passage."""
    passages = {}
    with open(run_dir / "passages.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            passages[record["id"]] = record["text"]
    with open(run_dir / "examples.jsonl", encoding="utf-8") as handle:
        for line in handle:
            example = json.loads(line)
            start = example["answer_start"]
            text = passages.get(example["passage_id"], "")
            if text[start:start + len(example["answer"])] != example["answer"]:
                return False
    return True


def loopback_environment(workdir: Path) -> dict:
    """Variables that keep any proxy or netrc of the caller away from the loopback stub."""
    return {"NO_PROXY": "127.0.0.1,localhost", "no_proxy": "127.0.0.1,localhost",
            "NETRC": str(workdir / "no-netrc")}


def main() -> int:
    workdir = Path(sys.argv[1])
    spec = json.loads((workdir / "spec.json").read_text(encoding="utf-8"))
    os.environ.update(loopback_environment(workdir))
    runner = Runner(spec, workdir)
    budget = float(spec["seconds"])
    traced = bool(spec["trace"])
    min_units = 2 if traced else 3

    def bracketed(traced: bool) -> dict:
        """One iteration with the calibration task timed just before and just after it."""
        before = timed(calibration_task)
        record = runner.iteration(traced)
        record["calibration_s"] = [before, timed(calibration_task)]
        return record

    started = now()
    # Recording needs every artifact, which only a traced iteration of the
    # scoring workload produces.
    iterations = [dict(bracketed(traced=bool(spec["record"])), warmup=True)]
    units = 0
    while not spec["record"]:
        unit_started = now()
        iterations.append(bracketed(traced=False))
        if traced:
            iterations.append(bracketed(traced=True))
        units += 1
        elapsed = now() - started
        unit_s = now() - unit_started
        if units >= min_units and elapsed + unit_s > budget:
            break
    result = {
        "iterations": iterations,
        "measure_s": now() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "requests": requests.__version__,
        },
    }
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
