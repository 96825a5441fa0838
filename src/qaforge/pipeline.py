"""End-to-end orchestration: ingest, length-filter, sample, generate, filter, emit.

One 64-bit seed drives every stochastic choice: passage subsampling uses it
directly and each passage's sampler seed is derived from (seed, passage id),
so results are identical under any worker schedule. ``passages.jsonl`` keeps
the sample order; candidates, examples and the dataset are written in
ascending passage-id order. Reruns are byte-identical.

``run_pipeline`` walks the sampled passages in that ascending passage-id
order. ``process_passage`` takes one passage, with its journaled candidates
or None, to all of its outputs: its ``candidates.jsonl`` rows, its
``examples.jsonl`` lines, its article, and its ``FilterStats``. The calling
thread makes the journal lookups and every write: for each passage, in
passage order, it appends the journal block of a newly generated passage,
then the rows, lines and article to the artifacts, and merges the counts.
Then it lets them go, so a run holds the passages and the counts, never
every candidate, example or the whole document. With ``workers > 1``,
``2 * workers`` threads run ``process_passage`` up to 64 passages per worker
ahead of the one being written; the remote backend then has ``workers``
connections, so a passage waiting out a retry's backoff leaves its
connection to another thread. A failure loses what was computed ahead but
not written, journal blocks included; a resume generates those passages
again. The reference backend ignores ``workers`` and always runs in the
calling thread.

``run_pipeline`` and the per-stage CLI subcommands call the same per-passage
functions, in the same passage order: ``generate_passage`` (the backend's
``generate`` and ``dataset.candidate_rows``), ``run_filter_pipeline``, and
``dataset.emit_passage``, which gives a passage's ``examples.jsonl`` lines and
its article; ``process_passage`` chains them for ``run_pipeline``. ``filter``
and ``emit`` read one passage's rows at a time (``read_passage_groups``).
Every artifact is written through ``dataset.atomic_write``.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from types import UnionType
from typing import (
    Any, BinaryIO, NamedTuple, NoReturn, TypeVar, get_args, get_origin, get_type_hints
)

from .corpus import (
    Passage, RecordError, check_length_bounds, check_sample_size, filter_by_length,
    jsonl_records, language_code, parse_passage_stream, sample_passages,
)
from .dataset import (
    SquadWriter,
    atomic_write,
    candidate_rows,
    emit_passage,
    json_string,
    jsonl_line,
    write_json,
    write_jsonl,
)
from .errors import (
    JSON_ERRORS, ConfigurationError, DataError, PipelineError, load_json
)
from .generator import (
    Candidate,
    GenerationRequest,
    ReferenceBackend,
    check_order,
    derive_seed,
    train_reference,
)
from .parsefilter import FilterConfig, FilterStats, run_filter_pipeline
from .remote import RemoteGeneratorClient, resolve_endpoint

logger = logging.getLogger(__name__)

# Stage names in funnel order; "generated" starts the per-candidate section.
PASSAGE_STAGES = ("ingested", "length_kept", "sampled")
CANDIDATE_STAGES = ("generated", "parsed", "extractive", "deduped", "kept")
_SECTION_STARTS = {PASSAGE_STAGES[0], CANDIDATE_STAGES[0]}

# The generation knobs, each a config key: GenerationRequest's fields but the per-passage two.
GENERATION_KNOBS = tuple(
    f.name for f in fields(GenerationRequest) if f.name not in ("passage", "language")
)


def _field_types(cls) -> dict[str, tuple[type, ...]]:
    """The types each field of ``cls`` accepts, e.g. ``(int, NoneType)`` for ``int | None``."""
    return {
        name: get_args(hint) if get_origin(hint) is UnionType else (hint,)
        for name, hint in get_type_hints(cls).items()
    }


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
    keep_per_passage: int = FilterConfig.keep_per_passage
    length_normalize: bool = FilterConfig.length_normalize
    target_language: str | None = None
    workers: int = 1
    resume: bool = False

    field_types = classmethod(_field_types)

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
        """``seed``, or 0 when it is unset."""
        return self.seed or 0

    def filter_config(self) -> FilterConfig:
        """The filter knobs, each a config key of the same name."""
        return FilterConfig(**{f.name: getattr(self, f.name) for f in fields(FilterConfig)})

    def request_template(self) -> GenerationRequest:
        """The generation request every passage fills in, checked before any I/O."""
        try:
            return GenerationRequest(
                passage="", language="", **{name: getattr(self, name) for name in GENERATION_KNOBS}
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def validate(self) -> None:
        """Checks made before any read: the backend's settings, and those no stage makes.

        Other stage knobs are checked by the stages themselves. The remote
        backend ignores ``order``.
        """
        if self.backend not in ("reference", "remote"):
            raise ConfigurationError(f"unknown backend: {self.backend!r}")
        if self.backend == "reference":
            if not self.train_corpus:
                raise ConfigurationError("reference backend requires train_corpus")
            check_order(self.order)
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")


# How ``from_record`` words each field type. Every int of a report is a count.
_TYPE_NAMES = {
    int: "an integer >= 0",
    float: "a float",
    dict[str, int]: "an object of integer counts >= 0",
    dict[str, str]: "an object of strings",
}


def _has_type(value: Any, kind: Any) -> bool:
    """Whether JSON ``value`` is a ``kind`` as ``_TYPE_NAMES`` words it; types match exactly."""
    if get_origin(kind) is dict:
        return type(value) is dict and all(_has_type(v, get_args(kind)[1]) for v in value.values())
    return type(value) is kind and (kind is not int or value >= 0)


@dataclass
class PipelineReport:
    """Per-stage counts plus run metadata for one pipeline execution: ``report.json``.

    A field other than ``counts`` may be None (unset, as in an older report).
    """

    counts: dict[str, int] = field(default_factory=dict)
    record_errors: int | None = None
    parse_failures: dict[str, int] | None = None
    # Passages whose candidates were read from the journal, not generated.
    journal_hits: int | None = None
    elapsed_seconds: float | None = None
    outputs: dict[str, str] | None = None

    @classmethod
    def from_record(cls, payload: Any, source: str | Path) -> "PipelineReport":
        """The report a decoded ``report.json`` holds, checked; DataError names ``source``.

        ``counts``, and each other field present, must have its annotated type
        (``_has_type``). Then each section of ``counts`` must narrow in stage
        order, and ``parse_failures`` must sum to ``generated - parsed``.
        """
        record = payload if isinstance(payload, dict) else {}
        types = _field_types(cls)
        for name, (kind, *_) in types.items():
            if (name in record or name == "counts") and not _has_type(record.get(name), kind):
                raise DataError(f"{source}: {name!r} must be {_TYPE_NAMES[kind]}")
        report = cls(**{name: record[name] for name in types if name in record})
        counts, failures = report.counts, report.parse_failures
        for section in (PASSAGE_STAGES, CANDIDATE_STAGES):
            steps = [(name, counts[name]) for name in section if name in counts]
            for (wider, before), (name, count) in zip(steps, steps[1:]):
                if count > before:
                    raise DataError(f"{source}: {name!r} ({count}) exceeds {wider!r} ({before})")
        if failures is not None and {"generated", "parsed"} <= counts.keys():
            total, unparsed = sum(failures.values()), counts["generated"] - counts["parsed"]
            if total != unparsed:
                raise DataError(
                    f"{source}: 'parse_failures' sum to {total}, generated - parsed is {unparsed}"
                )
        return report

    def to_record(self) -> dict[str, Any]:
        """``report.json``'s object: the fields in order, each that is None left out."""
        return {name: value for name, value in vars(self).items() if value is not None}


def _reject(path: str | Path, error: RecordError) -> NoReturn:
    """The strict readers' ``on_error``: raise DataError ``PATH:LINE: message``."""
    raise DataError(f"{path}:{error.line_number}: {error.message}")


def read_jsonl(
    path: str | Path, parse: Callable[[Any], T], data: bytes | None = None
) -> Iterator[tuple[int, T]]:
    """The line number and ``parse(record)`` of each non-blank line of a JSONL file, in order.

    Lines are read by ``jsonl_records`` from ``data``, the file's bytes when
    the caller has read them, or else from the file. An unreadable file, a
    line it reports, or a record that ``parse`` rejects with DataError raises
    DataError naming the path and line.
    """
    reject = partial(_reject, path)
    try:
        with open(path, "rb") if data is None else io.BytesIO(data) as handle:
            for line_number, record in jsonl_records(handle, reject):
                try:
                    yield line_number, parse(record)
                except DataError as exc:
                    reject(RecordError(line_number, str(exc)))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_passages(
    path: str | Path, on_error: Callable[[RecordError], None] | None = None
) -> list[Passage]:
    """Passages of a JSONL file, in file order.

    Malformed records and duplicate ids are reported to ``on_error`` and
    skipped; without ``on_error`` the first one raises DataError.
    """
    try:
        with open(path, "rb") as handle:
            return list(parse_passage_stream(handle, on_error or partial(_reject, path)))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_passage_groups(
    path: str | Path, passages: Mapping[str, Passage], parse: Callable[[Any], T]
) -> Iterator[tuple[Passage, list[T], list[int]]]:
    """``(passage, rows, lines)`` for each run of records naming the same passage.

    ``rows`` holds ``parse(record)`` of each record of the run, ``lines`` its
    line number in the file. Each record's ``passage_id`` must name one of ``passages`` and be no lower
    than the one before it, the order ``run_pipeline`` writes, so a passage
    has one run and one run is held at a time; otherwise DataError names the line.
    """
    previous = ""

    def parse_row(record: Any) -> tuple[str, T]:
        nonlocal previous
        row = parse(record)
        passage_id = record.get("passage_id")
        if not isinstance(passage_id, str) or passage_id not in passages:
            raise DataError(f"unknown passage id {passage_id!r}")
        if passage_id < previous:
            raise DataError(f"passage id {passage_id!r} follows {previous!r}: ids must ascend")
        previous = passage_id
        return passage_id, row

    for passage_id, group in groupby(read_jsonl(path, parse_row), key=lambda item: item[1][0]):
        numbered = list(group)
        yield passages[passage_id], [row for _, (_, row) in numbered], [n for n, _ in numbered]


def _read_bytes(path: str | Path) -> bytes:
    """The bytes of the file at ``path``; DataError names it if it cannot be read."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_training_corpus(path: str | Path) -> tuple[list[tuple[str, str, str]], str]:
    """The (passage, question, answer) string triples of a JSONL file, and its sha256.

    The file is read once: the triples are parsed from the bytes that are
    hashed, so the digest is that of the triples returned.
    """

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

    data = _read_bytes(path)
    triples = [triple for _, triple in read_jsonl(path, parse, data)]
    return triples, hashlib.sha256(data).hexdigest()


def build_backend(config: PipelineConfig) -> ReferenceBackend | RemoteGeneratorClient:
    """The generator ``config`` names, ready to generate.

    ``remote`` gives a client of ``config.endpoint`` with ``config.workers``
    pooled connections; the caller closes it. ``reference`` reads
    ``config.train_corpus`` once, parses its triples and hashes its bytes, and
    fits a ReferenceBackend of ``config.order`` on the triples; the bytes are
    let go before the fit. The backend's ``corpus_sha256`` is that digest, so
    ``resume_fingerprint`` records the bytes the model was fit on without
    reading the file again.
    """
    if config.backend == "remote":
        return RemoteGeneratorClient(config.endpoint, connections=config.workers)
    triples, digest = read_training_corpus(config.train_corpus)
    backend = train_reference(triples, order=config.order)
    backend.corpus_sha256 = digest
    return backend


def ingest(config: PipelineConfig) -> tuple[list[Passage], dict[str, int], int]:
    """Parse ``config.input``, keep ``config.language``, length-filter, then sample.

    Malformed records are logged and skipped. Returns the sampled passages,
    the passage-stage funnel counts, and the number of skipped records. A
    blank ``config.language``, and length bounds or a sample size that the
    stages refuse, are a ConfigurationError, raised before any read.
    """
    language = config.language
    if language is not None:
        language = language_code(language)
        if not language:
            raise ConfigurationError(f"language must not be blank, got {config.language!r}")
    check_length_bounds(config.min_tokens, config.max_tokens)
    if config.sample_n is not None:
        check_sample_size(config.sample_n)
    record_errors: list[RecordError] = []
    ingested = read_passages(config.input, on_error=record_errors.append)
    for record_error in record_errors:
        logger.warning(
            "skipped record at line %d: %s", record_error.line_number, record_error.message
        )
    if language is not None:
        ingested = [p for p in ingested if language_code(p.language) == language]

    length_kept = list(filter_by_length(ingested, config.min_tokens, config.max_tokens))
    sampled = (
        sample_passages(length_kept, config.sample_n, config.resolved_seed())
        if config.sample_n is not None
        else length_kept
    )
    counts = {"ingested": len(ingested), "length_kept": len(length_kept), "sampled": len(sampled)}
    return sampled, counts, len(record_errors)


def resume_fingerprint(config: PipelineConfig, backend=None) -> dict[str, Any]:
    """What a journal's entries were generated under; a resume must match it.

    It holds ``backend``, ``order``, the request template's ``GENERATION_KNOBS``
    (``target_language`` as the code the backend is sent), the resolved seed,
    and the backend's identity: for ``remote``, the resolved endpoint; for
    ``reference``, ``train_corpus_sha256``. That is ``backend.corpus_sha256``
    when the backend has one (``build_backend`` records the digest of the
    bytes it fit on), and nothing is read; otherwise, as for a backend
    ``train_reference`` fit in memory or a wrapper that only generates, it is
    the sha256 of ``config.train_corpus`` as read now.
    """
    request = config.request_template()
    fingerprint = {"backend": config.backend, "order": config.order}
    fingerprint.update((name, getattr(request, name)) for name in GENERATION_KNOBS)
    fingerprint["seed"] = config.resolved_seed()
    if config.backend == "remote":
        fingerprint["endpoint"] = resolve_endpoint(config.endpoint)
    else:
        digest = getattr(backend, "corpus_sha256", None)
        if digest is None:
            digest = hashlib.sha256(_read_bytes(config.train_corpus)).hexdigest()
        fingerprint["train_corpus_sha256"] = digest
    return fingerprint


def passage_digest(passage: Passage) -> str:
    """sha256 of what the backend conditions on: the passage text and its language.

    The payload is ``jsonl_line([passage.text, passage.language])``.
    """
    payload = f"[{json_string(passage.text)}, {json_string(passage.language)}]\n"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _marker(passage: Passage) -> str:
    """The journal line completing ``passage``'s block.

    It is ``jsonl_line({"passage_id": passage.id, "passage_sha256": passage_digest(passage)})``.
    """
    return (
        f'{{"passage_id": {json_string(passage.id)}, '
        f'"passage_sha256": "{passage_digest(passage)}"}}\n'
    )


def _markers(lines: Iterable[bytes], offset: int) -> Iterator[tuple[int, int, dict[str, Any]]]:
    """Each marker among journal ``lines`` that start at byte ``offset``: its start, end and record.

    A marker is a line that decodes to a JSON object with a
    ``passage_sha256``. A line without its newline, torn by an interrupted
    write, ends the scan.
    """
    for line in lines:
        if not line.endswith(b"\n"):
            return
        start, offset = offset, offset + len(line)
        try:
            record = load_json(line)
        except JSON_ERRORS:
            continue
        if isinstance(record, dict) and "passage_sha256" in record:
            yield start, offset, record


# Version of the journal layout below; a journal in another layout is
# refused on resume. Journals without a "format" key are layout 1: one JSON
# line of candidates per passage, keyed by passage id alone.
JOURNAL_FORMAT = 2


class _Block(NamedTuple):
    """Where one passage's rows sit in the journal, and the digest they were made for."""

    digest: str
    offset: int
    length: int


class _CheckpointJournal:
    """Append-only record of per-passage generation results for resumption.

    The first line is the header ``{"format": 2, "fingerprint": ...}``. Each
    passage then gets one block: its ``candidates.jsonl`` rows, then the
    marker ``{"passage_id": ..., "passage_sha256": ...}`` that completes the
    block and records ``passage_digest``. A resume loads the blocks only when
    the header equals its own, and otherwise raises ConfigurationError before
    anything is changed on disk. ``lookup`` reuses a block only for a
    passage with the same id and digest whose rows are all its candidates.

    ``blocks`` indexes the blocks found complete when the journal was
    opened; ``journaled_ids`` finds those this run appends in the file. It
    has no lock: only ``run_pipeline``'s calling thread uses it.
    """

    def __init__(self, path: Path, fingerprint: dict[str, Any], resume: bool):
        self.path = path
        self.blocks: dict[str, _Block] = {}
        self._reader: BinaryIO | None = None
        header = {"format": JOURNAL_FORMAT, "fingerprint": fingerprint}
        resuming = resume and path.exists()
        with ExitStack() as stack:
            if resuming:
                self._reader = stack.enter_context(open(path, "rb"))
                self._load(header)
            else:
                path.unlink(missing_ok=True)
            self._handle = stack.enter_context(open(path, "ab"))
            if not resuming:
                self._write(jsonl_line(header).encode("utf-8"))
            stack.pop_all()

    def _load(self, header: dict[str, Any]) -> None:
        """Check the header, index each complete marker's block, then cut off what follows the last.

        Rows after the last complete marker line belong to a block an
        interrupted run did not finish (the last line may even lack its
        newline); new blocks must not be appended after them. Only markers
        naming a string passage id are indexed; ``lookup`` checks the rows.
        The journal is read through ``_reader``, which ``lookup`` reads again.
        """
        handle = self._reader
        first = handle.readline()
        self._check_header(first, header)
        kept = len(first)
        for start, end, record in _markers(handle, kept):
            if isinstance(record.get("passage_id"), str):
                self.blocks[record["passage_id"]] = _Block(
                    record["passage_sha256"], kept, start - kept
                )
            kept = end
        os.truncate(self.path, kept)

    def _check_header(self, line: bytes, header: dict[str, Any]) -> None:
        """Raise ConfigurationError unless ``line`` is ``header`` and its newline."""
        try:
            recorded = load_json(line) if line.endswith(b"\n") else None
        except JSON_ERRORS:
            recorded = None
        if recorded == header:
            return
        if not isinstance(recorded, dict) or not isinstance(recorded.get("fingerprint"), dict):
            reason = "has no complete configuration header"
        elif recorded.get("format", 1) != JOURNAL_FORMAT:
            reason = (
                f"is in journal format {recorded.get('format', 1)!r}, "
                f"this version reads format {JOURNAL_FORMAT}"
            )
        else:
            old, new = recorded["fingerprint"], header["fingerprint"]
            differing = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            reason = f"was written under other settings ({', '.join(differing)} differ)"
        raise ConfigurationError(
            f"cannot resume: {self.path} {reason}; rerun without resume to start over"
        )

    def _write(self, *parts: bytes) -> None:
        self._handle.writelines(parts)
        self._handle.flush()

    def lookup(self, passage: Passage) -> list[Candidate] | None:
        """The journaled candidates of ``passage``, or None if it has no block to reuse."""
        block = self.blocks.get(passage.id)
        if block is None or block.digest != passage_digest(passage):
            return None
        self._reader.seek(block.offset)
        data = self._reader.read(block.length)
        try:
            records = [load_json(row) for row in data.split(b"\n")[:-1]]
            candidates = [Candidate.from_record(record) for record in records]
        except (*JSON_ERRORS, DataError):
            return None
        if any(record.get("passage_id") != passage.id for record in records):
            return None
        return candidates

    def record(self, passage: Passage, rows: str) -> None:
        """Append ``rows`` (``candidate_rows`` of ``passage``) and the marker completing them."""
        self._write(rows.encode("utf-8"), _marker(passage).encode("utf-8"))

    def journaled_ids(self) -> list[str]:
        """Every passage id with a complete marker line, in ascending order; call after ``close``.

        The ids are read back from the file, so an interrupt that lands just
        after a block's write cannot leave its id out.
        """
        with open(self.path, "rb") as handle:
            markers = _markers(handle, len(handle.readline()))
            return sorted({
                record["passage_id"] for _, _, record in markers
                if isinstance(record.get("passage_id"), str)
            })

    def close(self, *, discard: bool) -> None:
        self._handle.close()
        if self._reader is not None:
            self._reader.close()
        if discard and self.path.exists():
            self.path.unlink()


def generate_passage(
    passage: Passage, backend, request: GenerationRequest, seed: int
) -> tuple[list[Candidate], str]:
    """One passage's candidates and their ``candidate_rows``.

    The passage fills in ``request`` and samples with the seed derived from
    (``seed``, passage id). A failure raises PipelineError naming the passage.
    """
    try:
        candidates = backend.generate(
            replace(request, passage=passage.text, language=passage.language),
            seed=derive_seed(seed, passage.id),
        )
        return candidates, candidate_rows(passage.id, candidates)
    except Exception as exc:
        raise PipelineError("generate", exc, failed_passage_id=passage.id) from exc


def process_passage(
    passage: Passage, journaled: list[Candidate] | None, backend, request: GenerationRequest,
    seed: int, filter_config: FilterConfig,
) -> tuple[str, str, str | None, FilterStats]:
    """A passage's rows, example lines, article (None if it keeps none) and FilterStats.

    The candidates are ``journaled``, or ``generate_passage``'s if that is
    None. Every argument but ``backend`` pickles; forked workers inherit it.
    """
    if journaled is None:
        candidates, rows = generate_passage(passage, backend, request, seed)
    else:
        candidates, rows = journaled, candidate_rows(passage.id, journaled)
    kept, stats = run_filter_pipeline(passage, candidates, filter_config)
    lines, article = emit_passage(passage, kept) if kept else ("", None)
    return rows, lines, article, stats


def _lookup(journal: _CheckpointJournal, passage: Passage) -> list[Candidate] | None:
    """``journal.lookup(passage)``; a failure raises PipelineError naming the passage."""
    try:
        return journal.lookup(passage)
    except Exception as exc:
        raise PipelineError("generate", exc, failed_passage_id=passage.id) from exc


T = TypeVar("T")
R = TypeVar("R")

# How many items each worker may compute ahead of the one consumed. One slow
# item (a remote call sleeping ``remote.BACKOFF_BASE_S`` or more before a
# retry) holds up the consumer, but not a connection; meanwhile the other
# threads keep every connection busy, until this many items per worker are
# done or running. It bounds what is held ahead to that many passages'
# outputs.
_AHEAD_PER_WORKER = 64


def _in_order(function: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    """``function(item)`` for each item, in order.

    ``items`` is drawn, and the results are consumed, in the calling thread;
    only ``function`` runs in the threads. With ``workers > 1``,
    ``2 * workers`` threads compute up to ``_AHEAD_PER_WORKER * workers``
    items ahead of the one consumed: one thread per connection of the remote
    backend to use it, and one that may be waiting out a retry's backoff,
    which holds no connection. The first failure, in item order, is raised.
    Once any item has failed, an item not yet started raises without
    running; items start in order, so the failure raised is a real one. When
    the iterator is closed early, items not yet started are cancelled.
    """
    if workers == 1:
        yield from map(function, items)
        return
    failed = threading.Event()

    def guarded(item: T) -> R:
        if failed.is_set():
            raise RuntimeError("not started: an earlier item failed")
        try:
            return function(item)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=2 * workers) as pool:
        ahead: deque[Future[R]] = deque()
        try:
            for item in items:
                ahead.append(pool.submit(guarded, item))
                if len(ahead) > _AHEAD_PER_WORKER * workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            for future in ahead:
                future.cancel()


def run_pipeline(config: PipelineConfig, backend=None) -> PipelineReport:
    """Execute the full pipeline and write all artifacts under ``output_dir``.

    On a stage failure, a checkpoint naming the stage and the completed
    passage ids is written and PipelineError raised; rerunning with
    ``resume`` set skips regeneration for completed passages whose text and
    language are unchanged, and produces the same artifacts an uninterrupted
    run would. A KeyboardInterrupt (Ctrl-C; under the CLI, SIGINT or SIGTERM)
    writes the same checkpoint, in stage ``"interrupted"``, and is raised
    again. The journal records ``resume_fingerprint(config, backend)``
    (for a fitted backend, the digest of the corpus bytes it was fit on); a
    resume under a different one (other generation settings, seed, training
    corpus or endpoint) raises ConfigurationError before anything is
    generated or written. Ingest and filter settings may change across a
    resume.
    """
    config.validate()
    request = config.request_template()
    filter_config = config.filter_config()
    if config.keep_per_passage > config.num_samples:
        raise ConfigurationError(
            f"keep_per_passage ({config.keep_per_passage}) exceeds "
            f"num_samples ({config.num_samples})"
        )
    started = time.monotonic()
    seed = config.resolved_seed()

    sampled, passage_counts, record_errors = ingest(config)
    built = backend is None
    if built:
        backend = build_backend(config)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_meta = out_dir / "checkpoint.json"
    journal = _CheckpointJournal(
        out_dir / "checkpoint.jsonl", resume_fingerprint(config, backend), resume=config.resume
    )
    outputs = {
        "passages": str(out_dir / "passages.jsonl"),
        "candidates": str(out_dir / "candidates.jsonl"),
        "examples": str(out_dir / "examples.jsonl"),
        "dataset": str(out_dir / "dataset.json"),
        "report": str(out_dir / "report.json"),
    }
    ordered = sorted(sampled, key=lambda passage: passage.id)
    totals = FilterStats()
    journal_hits = 0
    try:
        try:
            with ExitStack() as stack:
                if built and isinstance(backend, RemoteGeneratorClient):
                    stack.callback(backend.close)
                # Left in reverse order, so the artifacts replace their
                # targets in the order passages, candidates, examples, dataset.
                document = SquadWriter(stack.enter_context(atomic_write(outputs["dataset"])))
                examples_out = stack.enter_context(atomic_write(outputs["examples"]))
                candidates_out = stack.enter_context(atomic_write(outputs["candidates"]))
                # The reference backend decodes in this thread: threads only
                # contend for the interpreter lock on its CPU-bound decoding.
                workers = 1 if isinstance(backend, ReferenceBackend) else config.workers
                results = stack.enter_context(closing(_in_order(
                    lambda item: (
                        item, process_passage(*item, backend, request, seed, filter_config)
                    ),
                    ((passage, _lookup(journal, passage)) for passage in ordered),
                    workers,
                )))
                for (passage, journaled), (rows, lines, article, stats) in results:
                    if journaled is None:
                        journal.record(passage, rows)
                    else:
                        journal_hits += 1
                    candidates_out.write(rows)
                    if article is not None:
                        examples_out.write(lines)
                        document.add(article)
                    totals.merge(stats)
                document.finish()
                write_jsonl(outputs["passages"], (p.to_record() for p in sampled))
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError("emit", exc) from exc
    except (PipelineError, KeyboardInterrupt) as exc:
        journal.close(discard=False)
        meta: dict[str, Any] = {}
        if isinstance(exc, PipelineError):
            meta["stage"] = exc.stage
            if exc.failed_passage_id is not None:
                meta["failed_passage_id"] = exc.failed_passage_id
        else:
            meta["stage"] = "interrupted"
        meta["completed_passage_ids"] = journal.journaled_ids()
        write_json(checkpoint_meta, meta)
        raise

    journal.close(discard=True)
    checkpoint_meta.unlink(missing_ok=True)

    report = funnel_report(
        totals, passage_counts, record_errors=record_errors, journal_hits=journal_hits,
        elapsed_seconds=time.monotonic() - started, outputs=outputs,
    )
    write_json(outputs["report"], report.to_record(), indent=2)
    if report.counts["kept"] == 0:
        logger.warning("run kept 0 examples: %s", _zero_kept_reason(report))
    return report


def funnel_report(
    stats: FilterStats, passage_counts: Mapping[str, int], **other: Any
) -> PipelineReport:
    """``passage_counts``, then ``stats``'s candidate funnel and parse failures, as a report.

    A candidate stage is counted by the FilterStats attribute of its name, but
    ``generated`` by ``candidates``. ``other`` sets the report's other fields.
    """
    counts = {
        stage: getattr(stats, "candidates" if stage == "generated" else stage)
        for stage in CANDIDATE_STAGES
    }
    parse_failures = dict(sorted(stats.parse_failures.items()))
    return PipelineReport({**passage_counts, **counts}, parse_failures=parse_failures, **other)


def _funnel_steps(counts: dict[str, int]) -> Iterator[tuple[str, int, int | None]]:
    """Each stage's name and count, and the count before it in its funnel (None at a start)."""
    previous: int | None = None
    for name, value in counts.items():
        if name in _SECTION_STARTS:
            previous = None
        yield name, value, previous
        previous = value


def _zero_kept_reason(report: PipelineReport) -> str:
    """The largest funnel drop of a run that kept nothing, and its top parse failure.

    The first stage at 0 drops 100% of the stage before it, and every
    earlier stage less, so it is the largest drop.
    """
    name, _, previous = next(step for step in _funnel_steps(report.counts) if step[1] == 0)
    if previous:
        where = f"the largest drop is at {name!r} ({previous} -> 0, 100.0%)"
    else:
        where = f"{name!r} is 0 at the start of its funnel"
    if not report.parse_failures:
        return f"{where}; no parse failures"
    reason, count = max(sorted(report.parse_failures.items()), key=lambda item: item[1])
    return f"{where}; top parse failure: {reason} ({count})"


def stats_summary(report: PipelineReport) -> str:
    """Human-readable funnel table with per-stage drop percentages, then the other counts.

    Passage stages and candidate stages are separate funnels (one passage
    fans out to many candidates), so drop percentages reset at the
    ``generated`` row. Record errors, parse failures by part and journal
    hits follow, each only when the report holds it.
    """
    lines = [f"{'stage':<12} {'count':>10} {'drop':>8}"]
    for name, value, previous in _funnel_steps(report.counts):
        drop = f"{100.0 * (previous - value) / previous:.1f}%" if previous else "-"
        lines.append(f"{name:<12} {value:>10} {drop:>8}")
    if report.record_errors is not None:
        lines.append(f"record errors: {report.record_errors}")
    for part, count in sorted((report.parse_failures or {}).items()):
        lines.append(f"parse failure {part}: {count}")
    if report.journal_hits is not None:
        lines.append(f"journal hits: {report.journal_hits}")
    return "\n".join(lines)
