"""End-to-end orchestration: ingest, length-filter, sample, generate, filter, emit.

One 64-bit seed drives every stochastic choice: passage subsampling uses it
directly and each passage's sampler seed is derived from (seed, passage id),
so results are identical under any worker schedule. ``passages.jsonl`` keeps
the sample order; candidates, examples and the dataset are written in
ascending passage-id order. Reruns are byte-identical.

``run_pipeline`` and the per-stage CLI subcommands call the same stage
functions: ``ingest``, ``generate``, ``filter_candidates``, and the readers.
Every artifact is written through ``dataset.write_json``/``write_jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .corpus import Passage, RecordError, filter_by_length, parse_passage_stream, sample_passages
from .dataset import emit_squad, jsonl_line, write_json, write_jsonl, write_squad
from .errors import ConfigurationError, DataError, PipelineError, json_error_reason
from .generator import GenerationRequest, Candidate, derive_seed, train_reference
from .parsefilter import FilterConfig, FilterStats, SyntheticExample, run_filter_pipeline
from .remote import RemoteGeneratorClient, resolve_endpoint

logger = logging.getLogger(__name__)

SEED_ENV = "QAFORGE_SEED"

# Stage names in funnel order; "generated" starts the per-candidate section.
PASSAGE_STAGES = ("ingested", "length_kept", "sampled")
CANDIDATE_STAGES = ("generated", "parsed", "extractive", "deduped", "kept")
_SECTION_STARTS = {PASSAGE_STAGES[0], CANDIDATE_STAGES[0]}


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{SEED_ENV} must be an integer, got {raw!r}") from exc


@dataclass
class PipelineConfig:
    """Every knob of one pipeline run; loadable from a flat JSON document."""

    input: str
    output_dir: str
    language: str | None = None
    min_tokens: int = 30
    max_tokens: int = 450
    sample_n: int | None = None
    seed: int | None = None
    backend: str = "reference"
    endpoint: str | None = None
    train_corpus: str | None = None
    order: int = 3
    num_samples: int = 20
    top_k: int = 10
    max_output_tokens: int = 64
    keep_per_passage: int = 10
    require_extractive: bool = True
    dedup: bool = True
    length_normalize: bool = False
    target_language: str | None = None
    workers: int = 1
    resume: bool = False

    @classmethod
    def field_types(cls) -> dict[str, tuple[type, ...]]:
        """The value types each key accepts, e.g. ``(int, NoneType)`` for ``int | None``."""
        return {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}

    @classmethod
    def from_mapping(cls, mapping: dict[str, Any]) -> "PipelineConfig":
        types = cls.field_types()
        unknown = set(mapping) - set(types)
        if unknown:
            raise ConfigurationError(f"unknown config key(s): {sorted(unknown)}")
        if "input" not in mapping or "output_dir" not in mapping:
            raise ConfigurationError("config requires 'input' and 'output_dir'")
        for key, value in mapping.items():
            # Exact type match: JSON true is not an int, 2.0 is not an int.
            if type(value) not in types[key]:
                raise ConfigurationError(
                    f"config key {key!r} must be {types[key][0].__name__}, got {value!r}"
                )
        return cls(**mapping)

    def resolved_seed(self) -> int:
        return self.seed if self.seed is not None else default_seed()

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            samples_per_passage=self.num_samples,
            keep_per_passage=self.keep_per_passage,
            require_extractive=self.require_extractive,
            dedup=self.dedup,
            length_normalize=self.length_normalize,
        )

    def request_template(self) -> GenerationRequest:
        """The generation request every passage fills in, checked before any I/O."""
        try:
            return GenerationRequest(
                passage="",
                language="",
                num_samples=self.num_samples,
                top_k=self.top_k,
                max_output_tokens=self.max_output_tokens,
                target_language=self.target_language,
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def validate(self) -> None:
        """Checks no stage makes; stage knobs are checked by the stages themselves."""
        if self.backend not in ("reference", "remote"):
            raise ConfigurationError(f"unknown backend: {self.backend!r}")
        if self.backend == "reference" and not self.train_corpus:
            raise ConfigurationError("reference backend requires train_corpus")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


@dataclass
class PipelineReport:
    """Per-stage counts plus run metadata for one pipeline execution."""

    counts: dict[str, int] = field(default_factory=dict)
    record_errors: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    outputs: dict[str, str] = field(default_factory=dict)


def read_jsonl(path: str | Path, parse: Callable[[Any], Any]) -> list:
    """``parse(record)`` for each non-blank line of a JSONL file, in file order.

    An unreadable file, a line that is not JSON, or a record that ``parse``
    rejects with DataError raises DataError naming the path and line.
    """
    items = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    reason = json_error_reason(exc)
                    raise DataError(f"{path}:{line_number}: invalid record: {reason}") from exc
                try:
                    items.append(parse(record))
                except DataError as exc:
                    raise DataError(f"{path}:{line_number}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return items


def read_passages(
    path: str | Path, on_error: Callable[[RecordError], None] | None = None
) -> list[Passage]:
    """Passages of a JSONL file, in file order.

    Malformed records and duplicate ids are reported to ``on_error`` and
    skipped; without ``on_error`` the first one raises DataError.
    """

    def reject(error: RecordError) -> None:
        raise DataError(f"{path}:{error.line_number}: {error.message}")

    try:
        with open(path, "rb") as handle:
            return list(parse_passage_stream(handle, on_error=on_error or reject))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def candidate_records(candidates: Mapping[str, Sequence[Candidate]]) -> Iterator[dict]:
    """Candidate file rows, ``{"passage_id", "text", "lm_score"}``, in mapping order."""
    for passage_id, group in candidates.items():
        for candidate in group:
            yield {"passage_id": passage_id, **candidate.to_record()}


def read_candidates(
    path: str | Path, passages: Mapping[str, Passage]
) -> dict[str, list[Candidate]]:
    """Candidates of a file written by ``candidate_records``, grouped by passage id.

    Every row must name one of ``passages``; anything else is a DataError.
    """

    def parse(record: Any) -> tuple[str, Candidate]:
        candidate = Candidate.from_record(record)
        passage_id = record.get("passage_id")
        if not isinstance(passage_id, str) or passage_id not in passages:
            raise DataError(f"unknown passage id {passage_id!r}")
        return passage_id, candidate

    grouped: dict[str, list[Candidate]] = {}
    for passage_id, candidate in read_jsonl(path, parse):
        grouped.setdefault(passage_id, []).append(candidate)
    return grouped


def read_training_corpus(path: str | Path) -> list[tuple[str, str, str]]:
    """Load (passage, question, answer) string triples from a JSONL file."""

    def parse(record: Any) -> tuple[str, str, str]:
        if type(record) is dict:
            passage = record.get("passage")
            question = record.get("question")
            answer = record.get("answer")
            if (
                type(passage) is str
                and type(question) is str
                and type(answer) is str
                and question.strip()
                and answer.strip()
            ):
                return passage, question, answer
        raise DataError(
            "record needs string passage/question/answer, the question and answer non-blank"
        )

    return read_jsonl(path, parse)


def build_backend(config: PipelineConfig):
    if config.backend == "remote":
        return RemoteGeneratorClient(config.endpoint)
    return train_reference(read_training_corpus(config.train_corpus), order=config.order)


def ingest(config: PipelineConfig) -> tuple[list[Passage], dict[str, int], int]:
    """Parse ``config.input``, keep ``config.language``, length-filter, then sample.

    Malformed records are logged and skipped. Returns the sampled passages,
    the passage-stage funnel counts, and the number of skipped records.
    """
    record_errors: list[RecordError] = []
    ingested = read_passages(config.input, on_error=record_errors.append)
    for record_error in record_errors:
        logger.warning(
            "skipped record at line %d: %s", record_error.line_number, record_error.message
        )
    if config.language:
        ingested = [p for p in ingested if p.language == config.language.lower()]

    length_kept = list(filter_by_length(ingested, config.min_tokens, config.max_tokens))
    sampled = (
        sample_passages(length_kept, config.sample_n, config.resolved_seed())
        if config.sample_n is not None
        else length_kept
    )
    counts = {"ingested": len(ingested), "length_kept": len(length_kept), "sampled": len(sampled)}
    return sampled, counts, len(record_errors)


# The settings that decide a passage's journal entry. Ingest and filter
# settings are left out: the entry depends only on the passage, these, the
# resolved seed and the backend's identity.
_FINGERPRINT_KEYS = (
    "backend", "order", "num_samples", "top_k", "max_output_tokens", "target_language"
)


def resume_fingerprint(config: PipelineConfig) -> dict[str, Any]:
    """What a journal's entries were generated under; a resume must match it.

    The backend's identity is the sha256 of the training-corpus bytes for
    ``reference``, or the resolved endpoint for ``remote``.
    """
    fingerprint = {key: getattr(config, key) for key in _FINGERPRINT_KEYS}
    fingerprint["seed"] = config.resolved_seed()
    if config.backend == "remote":
        fingerprint["endpoint"] = resolve_endpoint(config.endpoint)
    else:
        try:
            corpus = Path(config.train_corpus).read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {config.train_corpus}: {exc}") from exc
        fingerprint["train_corpus_sha256"] = hashlib.sha256(corpus).hexdigest()
    return fingerprint


class _CheckpointJournal:
    """Append-only record of per-passage generation results for resumption.

    The first line is the header ``{"fingerprint": ...}``; each later line is
    one passage's entry. A resume loads the entries only when the header
    equals ``fingerprint``, and otherwise raises ConfigurationError before
    anything is changed on disk.
    """

    def __init__(self, path: Path, fingerprint: dict[str, Any], resume: bool):
        self.path = path
        self.completed: dict[str, list[Candidate]] = {}
        self._lock = threading.Lock()
        header = {"fingerprint": fingerprint}
        resuming = resume and path.exists()
        if resuming:
            self._load(header)
        else:
            path.unlink(missing_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        if not resuming:
            self._write(header)

    def _load(self, header: dict[str, Any]) -> None:
        """Check the header, read every complete line, then cut off a torn last line.

        An interrupted run can leave a last line without its newline; new
        entries must not be appended onto it, or the next resume loses them.
        """
        with open(self.path, "rb") as handle:
            first = handle.readline()
            self._check_header(first, header)
            complete = len(first)
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                complete += len(line)
                try:
                    entry = json.loads(line)
                    passage_id = entry["passage_id"]
                    candidates = [Candidate.from_record(c) for c in entry["candidates"]]
                except (ValueError, TypeError, KeyError, DataError):
                    # Blank and other unusable lines are skipped.
                    continue
                if isinstance(passage_id, str):
                    self.completed[passage_id] = candidates
        os.truncate(self.path, complete)

    def _check_header(self, line: bytes, header: dict[str, Any]) -> None:
        """Raise ConfigurationError unless ``line`` is ``header`` and its newline."""
        try:
            recorded = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:
            recorded = None
        if recorded == header:
            return
        if isinstance(recorded, dict) and isinstance(recorded.get("fingerprint"), dict):
            old, new = recorded["fingerprint"], header["fingerprint"]
            differing = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            reason = f"was written under other settings ({', '.join(differing)} differ)"
        else:
            reason = "has no complete configuration header"
        raise ConfigurationError(
            f"cannot resume: {self.path} {reason}; rerun without resume to start over"
        )

    def _write(self, entry: dict[str, Any]) -> None:
        self._handle.write(jsonl_line(entry))
        self._handle.flush()

    def record(self, passage_id: str, candidates: list[Candidate]) -> None:
        entry = {"passage_id": passage_id, "candidates": [c.to_record() for c in candidates]}
        with self._lock:
            self._write(entry)
            self.completed[passage_id] = candidates

    def close(self, *, discard: bool) -> None:
        self._handle.close()
        if discard and self.path.exists():
            self.path.unlink()


def generate(
    passages: Sequence[Passage],
    backend,
    request: GenerationRequest,
    seed: int,
    *,
    journal: _CheckpointJournal | None = None,
    workers: int = 1,
) -> dict[str, list[Candidate]]:
    """Candidates for each passage, keyed by passage id in input order.

    Each passage fills in ``request`` and samples with the seed derived from
    (``seed``, passage id). Passages already in ``journal`` are not
    regenerated, and new results are recorded there. A failure raises
    PipelineError naming the passage.
    """

    def one(passage: Passage) -> list[Candidate]:
        try:
            candidates = journal.completed.get(passage.id) if journal else None
            if candidates is None:
                candidates = backend.generate(
                    replace(request, passage=passage.text, language=passage.language),
                    seed=derive_seed(seed, passage.id),
                )
                if journal:
                    journal.record(passage.id, candidates)
            return candidates
        except Exception as exc:
            raise PipelineError("generate", exc, failed_passage_id=passage.id) from exc

    if workers == 1:
        return {passage.id: one(passage) for passage in passages}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(one, p): p for p in passages}
        _, pending = wait(futures, return_when=FIRST_EXCEPTION)
        for future in pending:
            future.cancel()
        return {p.id: f.result() for f, p in futures.items() if not f.cancelled()}


def filter_candidates(
    passages: Mapping[str, Passage],
    candidates: Mapping[str, Sequence[Candidate]],
    config: FilterConfig,
) -> tuple[list[SyntheticExample], FilterStats]:
    """Filter each passage's candidates in ascending passage-id order; merge the stats."""
    examples: list[SyntheticExample] = []
    totals = FilterStats()
    for passage_id in sorted(candidates):
        kept, stats = run_filter_pipeline(passages[passage_id], candidates[passage_id], config)
        examples.extend(kept)
        totals.merge(stats)
    return examples, totals


def run_pipeline(config: PipelineConfig, backend=None) -> PipelineReport:
    """Execute the full pipeline and write all artifacts under ``output_dir``.

    On a stage failure, a checkpoint naming the stage and the completed
    passage ids is written and PipelineError raised; rerunning with
    ``resume`` set skips regeneration for completed passages and produces
    the same final dataset an uninterrupted run would. The journal records
    ``resume_fingerprint(config)``; a resume under a different one (other
    generation settings, seed, training corpus or endpoint) raises
    ConfigurationError before anything is generated or written. Ingest and
    filter settings may change across a resume.
    """
    config.validate()
    request = config.request_template()
    filter_config = config.filter_config()
    started = time.monotonic()
    seed = config.resolved_seed()

    sampled, passage_counts, record_errors = ingest(config)
    if backend is None:
        backend = build_backend(config)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_meta = out_dir / "checkpoint.json"
    journal = _CheckpointJournal(
        out_dir / "checkpoint.jsonl", resume_fingerprint(config), resume=config.resume
    )
    outputs = {
        "passages": str(out_dir / "passages.jsonl"),
        "candidates": str(out_dir / "candidates.jsonl"),
        "examples": str(out_dir / "examples.jsonl"),
        "dataset": str(out_dir / "dataset.json"),
        "stats": str(out_dir / "stats.json"),
        "report": str(out_dir / "report.json"),
    }
    try:
        candidates = generate(
            sampled, backend, request, seed, journal=journal, workers=config.workers
        )
        try:
            lookup = {p.id: p for p in sampled}
            examples, totals = filter_candidates(lookup, candidates, filter_config)
            squad = emit_squad(examples, lookup)

            write_jsonl(outputs["passages"], (p.to_record() for p in sampled))
            write_jsonl(
                outputs["candidates"],
                candidate_records({pid: candidates[pid] for pid in sorted(candidates)}),
            )
            write_jsonl(outputs["examples"], (e.to_record() for e in examples))
            write_squad(squad, outputs["dataset"])

            counts = {
                **passage_counts,
                "generated": totals.candidates,
                "parsed": totals.parsed,
                "extractive": totals.extractive,
                "deduped": totals.deduped,
                "kept": totals.kept,
            }
            write_json(outputs["stats"], {"counts": counts, "record_errors": record_errors})
        except Exception as exc:
            raise PipelineError("emit", exc) from exc
    except PipelineError as exc:
        journal.close(discard=False)
        meta: dict[str, Any] = {"stage": exc.stage}
        if exc.failed_passage_id is not None:
            meta["failed_passage_id"] = exc.failed_passage_id
        meta["completed_passage_ids"] = sorted(journal.completed)
        write_json(checkpoint_meta, meta)
        raise

    journal.close(discard=True)
    checkpoint_meta.unlink(missing_ok=True)

    report = PipelineReport(
        counts=counts,
        record_errors=record_errors,
        parse_failures=dict(sorted(totals.parse_failures.items())),
        elapsed_seconds=time.monotonic() - started,
        outputs=outputs,
    )
    write_json(outputs["report"], asdict(report), indent=2)
    return report


def stats_summary(report: PipelineReport) -> str:
    """Human-readable funnel table with per-stage drop percentages.

    Passage stages and candidate stages are separate funnels (one passage
    fans out to many candidates), so drop percentages reset at the
    ``generated`` row.
    """
    lines = [f"{'stage':<12} {'count':>10} {'drop':>8}"]
    previous: int | None = None
    for name, value in report.counts.items():
        if name in _SECTION_STARTS:
            previous = None
        if previous is None or previous == 0:
            drop = "-"
        else:
            drop = f"{100.0 * (previous - value) / previous:.1f}%"
        lines.append(f"{name:<12} {value:>10} {drop:>8}")
        previous = value
    return "\n".join(lines)
