"""SQuAD-1.1 document reading/emission, staged training manifests, and the
one writer of every file qaforge writes.

Emission is fully deterministic: articles sort by passage id, entries sort
by their content-hash id, and serialization uses a fixed compact layout,
so identical inputs yield byte-identical documents.

A document is written by ``SquadWriter``, one encoded article at a time.
``run_pipeline`` and ``qaforge emit`` give it the articles of
``emit_passage``, filled into templates one passage at a time;
``write_squad`` gives it the articles of a ``SquadDataset``
(``emit_squad``'s, say), each one's ``asdict`` encoded whole by the one
general encoder. For the same examples the two routes write the same bytes.

Every artifact (run outputs, stage-subcommand outputs, reports, manifests,
``checkpoint.json``) is written through ``atomic_write``: into a temporary
sibling of the target, which then replaces the target in one rename. A
reader sees the old file or the new one, never a prefix. ``write_json``,
``write_jsonl`` and ``write_squad`` are built on it, and ``run_pipeline``
streams its per-passage artifacts into it.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import stat
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring as json_string
from pathlib import Path
from typing import IO, Any

from .corpus import Passage
from .errors import (
    JSON_ERRORS,
    ConfigurationError,
    EmissionError,
    SquadParseError,
    json_error_reason,
    load_json,
)
from .generator import Candidate
from .parsefilter import SyntheticExample

SQUAD_VERSION = "1.1"

# The errnos of an ``os.stat`` failure that ``Path.exists()`` reads as "absent".
_ABSENT_ERRNOS = frozenset((errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP))
# The errnos of deleting a temporary that was never created.
_NO_TEMPORARY_ERRNOS = frozenset((errno.ENOENT, errno.ENOTDIR))

# Encodes as json.dumps(value, ensure_ascii=False, allow_nan=False) does,
# without building a new encoder per call. Every artifact is strict JSON: a
# NaN or an infinity is a ValueError, not the NaN or Infinity that no strict
# reader accepts. The per-record strings (``candidate_rows``, and
# ``emit_passage``'s lines, entry-id payloads and articles) are filled into
# templates instead, from ``json_string`` (the escaper this encoder uses) and
# ``_json_number``; tests/test_dataset.py::TestEncodingsEqualJsonDumps checks
# that they equal json.dumps.
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
# The same, in the compact layout of a document (``separators=(",", ":")``),
# used for the articles of a SquadDataset.
_SQUAD_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def jsonl_line(record: Any) -> str:
    """``record`` as one JSONL line, newline included."""
    return _ENCODER.encode(record) + "\n"


def _json_number(value: Any) -> str:
    """``value`` as ``_ENCODER`` writes it; the repr of an exact finite float or an int."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return _ENCODER.encode(value)  # bools, subclasses; NaN and infinities raise


def candidate_rows(passage_id: str, candidates: Iterable[Candidate]) -> str:
    """One passage's ``candidates.jsonl`` lines, ``{"passage_id", "text", "lm_score"}`` each.

    Each line is ``jsonl_line({"passage_id": passage_id, **candidate.to_record()})``.
    """
    prefix = '{"passage_id": ' + json_string(passage_id) + ', "text": '
    return "".join(
        f'{prefix}{json_string(text)}, "lm_score": {_json_number(lm_score)}}}\n'
        for text, lm_score in candidates
    )


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[str]]:
    """A temporary sibling of ``path``, open for writing; renamed to ``path`` on success.

    The temporary is ``.NAME.tmp`` for a target named NAME. The name is fixed,
    so a temporary left by a killed process is replaced by the next writer of
    the same target; two processes must not write one target at once.

    The temporary is opened like any ``open(path, "w")`` file, so the
    artifact gets the same permission bits. A symlinked ``path`` (dangling,
    or even a loop) is resolved first, so the link is kept and its target
    replaced; a path through a symlinked directory needs no resolving, as
    its temporary lands in the same directory either way. If the block
    raises, the temporary is deleted and the target is left as it was. An
    OSError of the file itself (opening, a write that names no file, the
    rename) is raised again naming ``path``, not the temporary.

    One ``os.stat`` of ``path`` makes the choice; the errors that
    ``Path.exists()`` ignores mean that ``path`` is absent. An existing
    ``path`` that is neither a regular file nor a directory, such as a FIFO
    or ``/dev/stdout``, cannot be renamed over and is written in place. A
    directory gets a temporary like a file, beside its resolved path, so the
    failure comes at the rename, after the block has run. A regular or absent
    ``path`` that is not a symlink costs one more ``lstat`` and no resolving.
    """
    target = Path(path)
    try:
        mode = os.stat(target).st_mode
    except OSError as exc:
        if exc.errno not in _ABSENT_ERRNOS:
            raise
        mode = 0
    if mode and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        temporary = target
    else:
        if stat.S_ISDIR(mode) or os.path.islink(target):
            target = Path(os.path.realpath(target))
        temporary = target.with_name(f".{target.name}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            yield handle
        if temporary != target:
            os.replace(temporary, target)
    except BaseException as exc:
        if temporary != target:
            try:
                temporary.unlink()
            except OSError as cleanup:
                if cleanup.errno not in _NO_TEMPORARY_ERRNOS:
                    raise
        if isinstance(exc, OSError) and exc.filename in (None, str(temporary)):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_json(path: str | Path, value: Any, *, indent: int | None = None) -> None:
    """``value`` as one JSON document and a newline, replacing ``path`` atomically.

    A NaN or an infinity in ``value`` is a ValueError.
    """
    text = json.dumps(value, ensure_ascii=False, allow_nan=False, indent=indent) + "\n"
    with atomic_write(path) as handle:
        handle.write(text)


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    """One ``jsonl_line`` per record, replacing ``path`` atomically."""
    with atomic_write(path) as handle:
        handle.writelines(map(jsonl_line, records))


@dataclass
class SquadAnswer:
    text: str
    answer_start: int


@dataclass
class SquadQA:
    id: str
    question: str
    answers: list[SquadAnswer]


@dataclass
class SquadParagraph:
    context: str
    qas: list[SquadQA]


@dataclass
class SquadArticle:
    title: str
    paragraphs: list[SquadParagraph]


@dataclass
class SquadDataset:
    version: str
    articles: list[SquadArticle]

    def iter_qas(self):
        for article in self.articles:
            for paragraph in article.paragraphs:
                yield from paragraph.qas


@dataclass(frozen=True)
class SquadViolation:
    """One non-fatal inconsistency found while reading a document."""

    qa_id: str | None
    message: str


@dataclass
class SquadReadResult:
    dataset: SquadDataset
    violations: list[SquadViolation]


def _content_id(passage_id: str, question: str, answer: str) -> str:
    """The entry id of a passage id, question and answer, given as ``json_string`` escaped them.

    It is the sha256 of their JSON array, so it is stable across re-runs and
    parallel schedules.
    """
    payload = f"[{passage_id}, {question}, {answer}]"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _span_matches(context: str, text: str, start: int) -> bool:
    return start >= 0 and context[start:start + len(text)] == text


def _entries(
    passage: Passage, examples: Iterable[SyntheticExample], passage_id: str
) -> Iterator[tuple[str, str, str, SyntheticExample]]:
    """Each example's entry id, escaped question and escaped answer, and the example.

    ``passage_id`` is ``json_string(passage.id)``. Each example must carry a
    verified answer offset into ``passage``, and no two may share an entry
    id; violations raise EmissionError naming the example and carrying its
    ``position``.
    """
    seen: set[str] = set()
    for position, example in enumerate(examples):
        if not _span_matches(passage.text, example.answer, example.answer_start):
            raise EmissionError(
                f"answer offset mismatch in passage {example.passage_id!r} "
                f"for question {example.question!r}",
                position=position,
            )
        question = json_string(example.question)
        answer = json_string(example.answer)
        qa_id = _content_id(passage_id, question, answer)
        if qa_id in seen:
            raise EmissionError(
                f"duplicate example in passage {example.passage_id!r} "
                f"for question {example.question!r}",
                position=position,
            )
        seen.add(qa_id)
        yield qa_id, question, answer, example


def squad_article(passage: Passage, examples: Iterable[SyntheticExample]) -> SquadArticle:
    """The article of one passage: one paragraph, its entries sorted by id.

    The examples are checked as ``_entries`` checks them.
    """
    qas = {}
    for qa_id, _, _, example in _entries(passage, examples, json_string(passage.id)):
        answer = SquadAnswer(example.answer, example.answer_start)
        qas[qa_id] = SquadQA(qa_id, example.question, [answer])
    paragraph = SquadParagraph(context=passage.text, qas=[qas[i] for i in sorted(qas)])
    return SquadArticle(title=passage.id, paragraphs=[paragraph])


def emit_passage(passage: Passage, examples: Iterable[SyntheticExample]) -> tuple[str, str]:
    """One passage's ``examples.jsonl`` lines and its compact article.

    The examples are ``passage``'s, as ``run_filter_pipeline`` makes them: a
    line takes its ``passage_id`` and ``language`` from ``passage``, and
    equals ``jsonl_line(example.to_record())``. The article is the one
    ``write_squad`` writes for ``squad_article(passage, examples)``, checked
    the same way. The passage id, each question and each answer are escaped
    once, for the line, the entry id and the article.
    """
    passage_id = json_string(passage.id)
    head = '{"passage_id": ' + passage_id + ', "question": '
    tail = ', "language": ' + json_string(passage.language) + "}\n"
    lines = []
    entries = {}
    for qa_id, question, answer, example in _entries(passage, examples, passage_id):
        start = _json_number(example.answer_start)
        lines.append(
            f'{head}{question}, "answer": {answer}, "answer_start": {start}, '
            f'"lm_score": {_json_number(example.lm_score)}{tail}'
        )
        entries[qa_id] = (
            f'{{"id":"{qa_id}","question":{question},'
            f'"answers":[{{"text":{answer},"answer_start":{start}}}]}}'
        )
    qas = ",".join([entries[qa_id] for qa_id in sorted(entries)])
    article = (
        f'{{"title":{passage_id},"paragraphs":'
        f'[{{"context":{json_string(passage.text)},"qas":[{qas}]}}]}}'
    )
    return "".join(lines), article


def emit_squad(
    examples: Iterable[SyntheticExample],
    passages: Mapping[str, Passage],
) -> SquadDataset:
    """Group examples into a document: one ``squad_article`` per passage, by id.

    An example naming no passage of ``passages`` raises EmissionError.
    """
    grouped: dict[str, list[SyntheticExample]] = {}
    for example in examples:
        if example.passage_id not in passages:
            raise EmissionError(
                f"unknown passage id {example.passage_id!r} "
                f"for question {example.question!r}"
            )
        grouped.setdefault(example.passage_id, []).append(example)
    articles = [squad_article(passages[pid], grouped[pid]) for pid in sorted(grouped)]
    return SquadDataset(version=SQUAD_VERSION, articles=articles)


class SquadWriter:
    """Writes a compact document into an open text file, one encoded article at a time.

    ``run_pipeline`` and ``qaforge emit`` add ``emit_passage``'s articles;
    ``write_squad`` adds each article of a SquadDataset as ``_SQUAD_ENCODER``
    encodes its ``asdict``. For the same examples both give the same bytes,
    so a document has the same bytes however it was built.
    """

    def __init__(self, handle: IO[str], version: str = SQUAD_VERSION):
        handle.write('{"version":' + _SQUAD_ENCODER.encode(version) + ',"data":[')
        self._handle = handle
        self._separator = ""

    def add(self, article: str) -> None:
        self._handle.write(self._separator + article)
        self._separator = ","

    def finish(self) -> None:
        """Close the document; like every artifact, the file ends with a newline."""
        self._handle.write("]}\n")


def write_squad(dataset: SquadDataset, destination: str | Path) -> None:
    """The compact document and a newline, replacing ``destination`` atomically."""
    with atomic_write(destination) as handle:
        writer = SquadWriter(handle, dataset.version)
        for article in dataset.articles:
            writer.add(_SQUAD_ENCODER.encode(asdict(article)))
        writer.finish()


# The fields each level of a document must carry, in the order they are checked.
_DOCUMENT_FIELDS = (("version", str), ("data", list))
_ARTICLE_FIELDS = (("title", str), ("paragraphs", list))
_PARAGRAPH_FIELDS = (("context", str), ("qas", list))
_QA_FIELDS = (("id", str), ("question", str), ("answers", list))
_ANSWER_FIELDS = (("text", str), ("answer_start", int))


def _schema_error(value: Any, fields: tuple[tuple[str, type], ...], path: str) -> SquadParseError:
    """The error for the first check ``value`` fails: an object holding ``fields``.

    ``read_squad`` checks a value with ``type(...) is`` tests and calls this
    only when one fails; for the types ``json.loads`` returns, those fail
    exactly when a check here does. A bool is never an int.
    """
    if not isinstance(value, dict):
        return SquadParseError(f"{path}: expected object, got {type(value).__name__}")
    for key, kind in fields:
        if key not in value:
            return SquadParseError(f"{path}: missing field {key!r}")
        field = value[key]
        if not isinstance(field, kind) or isinstance(field, bool):
            return SquadParseError(
                f"{path}.{key}: expected {kind.__name__}, got {type(field).__name__}"
            )
    raise AssertionError(f"{path} passes every check")


def read_squad(source: bytes | str | IO[bytes] | IO[str]) -> SquadReadResult:
    """Parse and validate a document.

    Schema problems (missing fields, wrong types, truncated JSON) raise
    SquadParseError with the offending path, such as
    ``$.data[0].paragraphs[3].qas[7].answers[1]``. Consistency problems
    (answer text not matching its offset, duplicate entry ids) are collected
    as non-fatal violations on the result, in document order.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SquadParseError(f"document is not valid utf-8: {exc}") from exc
    try:
        document = load_json(source)
    except JSON_ERRORS as exc:
        raise SquadParseError(f"document is not valid JSON: {json_error_reason(exc)}") from exc

    if not (
        type(document) is dict
        and type(version := document.get("version")) is str
        and type(data := document.get("data")) is list
    ):
        raise _schema_error(document, _DOCUMENT_FIELDS, "$")

    articles = []
    violations = []
    seen: set[str] = set()
    for ai, raw_article in enumerate(data):
        if not (
            type(raw_article) is dict
            and type(title := raw_article.get("title")) is str
            and type(raw_paragraphs := raw_article.get("paragraphs")) is list
        ):
            raise _schema_error(raw_article, _ARTICLE_FIELDS, f"$.data[{ai}]")
        paragraphs = []
        for pi, raw_paragraph in enumerate(raw_paragraphs):
            if not (
                type(raw_paragraph) is dict
                and type(context := raw_paragraph.get("context")) is str
                and type(raw_qas := raw_paragraph.get("qas")) is list
            ):
                raise _schema_error(
                    raw_paragraph, _PARAGRAPH_FIELDS, f"$.data[{ai}].paragraphs[{pi}]"
                )
            qas = []
            for qi, raw_qa in enumerate(raw_qas):
                if not (
                    type(raw_qa) is dict
                    and type(qa_id := raw_qa.get("id")) is str
                    and type(question := raw_qa.get("question")) is str
                    and type(raw_answers := raw_qa.get("answers")) is list
                ):
                    raise _schema_error(
                        raw_qa, _QA_FIELDS, f"$.data[{ai}].paragraphs[{pi}].qas[{qi}]"
                    )
                if qa_id in seen:
                    violations.append(SquadViolation(qa_id, "duplicate qa id"))
                seen.add(qa_id)
                answers = []
                for xi, raw_answer in enumerate(raw_answers):
                    if not (
                        type(raw_answer) is dict
                        and type(text := raw_answer.get("text")) is str
                        and type(start := raw_answer.get("answer_start")) is int
                    ):
                        raise _schema_error(
                            raw_answer,
                            _ANSWER_FIELDS,
                            f"$.data[{ai}].paragraphs[{pi}].qas[{qi}].answers[{xi}]",
                        )
                    if not _span_matches(context, text, start):
                        violations.append(
                            SquadViolation(
                                qa_id, f"answer text does not match context at offset {start}"
                            )
                        )
                    answers.append(SquadAnswer(text, start))
                qas.append(SquadQA(qa_id, question, answers))
            paragraphs.append(SquadParagraph(context, qas))
        articles.append(SquadArticle(title, paragraphs))
    return SquadReadResult(SquadDataset(version, articles), violations)


@dataclass
class TrainingStage:
    name: str
    dataset_paths: list[str]
    epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 3e-5


@dataclass
class TrainingManifest:
    """Ordered finetuning stages: synthetic data first, gold data second."""

    stages: list[TrainingStage] = field(default_factory=list)

    def write(self, destination: str | Path) -> None:
        write_json(destination, asdict(self), indent=2)


def build_training_mix(
    synthetic: Sequence[str], gold: Sequence[str], **hyperparameters: Any
) -> TrainingManifest:
    """Build the two-stage manifest; stages without dataset paths are omitted.

    ``hyperparameters`` (``epochs``, ``batch_size``, ``learning_rate``) apply
    to every stage, e.g. ``epochs=3``; anything not given keeps the defaults
    (2 epochs, batch size 64, learning rate 3e-5). Epochs and batch size
    below 1, or a learning rate that is not finite and positive, are a
    ConfigurationError naming the stage.
    """
    if not synthetic and not gold:
        raise ConfigurationError("at least one dataset path is required")
    manifest = TrainingManifest()
    for name, paths in (("synthetic", synthetic), ("gold", gold)):
        if not paths:
            continue
        stage = TrainingStage(name, [str(p) for p in paths], **hyperparameters)
        for key, rule, holds in (
            ("epochs", ">= 1", stage.epochs >= 1),
            ("batch_size", ">= 1", stage.batch_size >= 1),
            ("learning_rate", "finite and positive", 0 < stage.learning_rate < math.inf),
        ):
            if not holds:
                raise ConfigurationError(
                    f"invalid hyperparameters for stage {name!r}: "
                    f"{key} must be {rule}, got {getattr(stage, key)}"
                )
        manifest.stages.append(stage)
    return manifest
