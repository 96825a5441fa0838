"""SQuAD-1.1 document reading/emission and staged training manifests.

Emission is fully deterministic: articles sort by passage id, entries sort
by their content-hash id, and serialization uses a fixed compact layout,
so identical inputs yield byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Any

from .corpus import Passage
from .errors import ConfigurationError, EmissionError, SquadParseError
from .parsefilter import SyntheticExample

__all__ = [
    "SQUAD_VERSION",
    "SquadAnswer",
    "SquadQA",
    "SquadParagraph",
    "SquadArticle",
    "SquadDataset",
    "SquadViolation",
    "SquadReadResult",
    "TrainingStage",
    "TrainingManifest",
    "qa_content_id",
    "emit_squad",
    "read_squad",
    "dumps_squad",
    "write_squad",
    "build_training_mix",
]

SQUAD_VERSION = "1.1"

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
                for qa in paragraph.qas:
                    yield paragraph, qa

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "data": [
                {
                    "title": article.title,
                    "paragraphs": [
                        {
                            "context": paragraph.context,
                            "qas": [
                                {
                                    "id": qa.id,
                                    "question": qa.question,
                                    "answers": [
                                        {"text": a.text, "answer_start": a.answer_start}
                                        for a in qa.answers
                                    ],
                                }
                                for qa in paragraph.qas
                            ],
                        }
                        for paragraph in article.paragraphs
                    ],
                }
                for article in self.articles
            ],
        }


@dataclass(frozen=True)
class SquadViolation:
    """One non-fatal inconsistency found while reading a document."""

    qa_id: str | None
    message: str


@dataclass
class SquadReadResult:
    dataset: SquadDataset
    violations: list[SquadViolation]


def qa_content_id(passage_id: str, question: str, answer: str) -> str:
    """Deterministic entry id: stable across re-runs and parallel schedules."""
    payload = json.dumps([passage_id, question, answer], ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _span_matches(context: str, text: str, start: int) -> bool:
    return start >= 0 and context[start:start + len(text)] == text


def emit_squad(
    examples: Iterable[SyntheticExample],
    passages: Mapping[str, Passage],
) -> SquadDataset:
    """Group examples into a document: one article and paragraph per passage.

    Every example must resolve to a known passage and carry a verified
    answer offset; violations raise EmissionError naming the example.
    """
    grouped: dict[str, list[SquadQA]] = {}
    seen_ids: dict[str, str] = {}
    for example in examples:
        passage = passages.get(example.passage_id)
        if passage is None:
            raise EmissionError(
                f"unknown passage id {example.passage_id!r} "
                f"for question {example.question!r}"
            )
        if not _span_matches(passage.text, example.answer, example.answer_start):
            raise EmissionError(
                f"answer offset mismatch in passage {example.passage_id!r} "
                f"for question {example.question!r}"
            )
        qa_id = qa_content_id(example.passage_id, example.question, example.answer)
        if qa_id in seen_ids:
            raise EmissionError(
                f"duplicate example in passage {example.passage_id!r} "
                f"for question {example.question!r}"
            )
        seen_ids[qa_id] = example.passage_id
        grouped.setdefault(example.passage_id, []).append(
            SquadQA(
                id=qa_id,
                question=example.question,
                answers=[SquadAnswer(text=example.answer, answer_start=example.answer_start)],
            )
        )

    articles = []
    for passage_id in sorted(grouped):
        qas = sorted(grouped[passage_id], key=lambda qa: qa.id)
        articles.append(
            SquadArticle(
                title=passage_id,
                paragraphs=[SquadParagraph(context=passages[passage_id].text, qas=qas)],
            )
        )
    return SquadDataset(version=SQUAD_VERSION, articles=articles)


def dumps_squad(dataset: SquadDataset) -> str:
    return json.dumps(dataset.to_json_dict(), ensure_ascii=False, separators=(",", ":"))


def write_squad(dataset: SquadDataset, destination: str | Path) -> None:
    Path(destination).write_text(dumps_squad(dataset) + "\n", encoding="utf-8")


def _expect(value: Any, kind: type, path: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SquadParseError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _expect_key(mapping: Any, key: str, kind: type, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise SquadParseError(f"{path}: expected object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SquadParseError(f"{path}: missing field {key!r}")
    return _expect(mapping[key], kind, f"{path}.{key}")


def read_squad(source: bytes | str | IO[bytes] | IO[str]) -> SquadReadResult:
    """Parse and validate a document.

    Schema problems (missing fields, wrong types, truncated JSON) raise
    SquadParseError with the offending path. Consistency problems (answer
    text not matching its offset, duplicate entry ids) are collected as
    non-fatal violations on the result.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SquadParseError(f"document is not valid utf-8: {exc}") from exc
    try:
        document = json.loads(source)
    except json.JSONDecodeError as exc:
        raise SquadParseError(f"document is not valid JSON: {exc.msg}") from exc

    version = _expect_key(document, "version", str, "$")
    data = _expect_key(document, "data", list, "$")

    articles = []
    for ai, raw_article in enumerate(data):
        article_path = f"$.data[{ai}]"
        title = _expect_key(raw_article, "title", str, article_path)
        raw_paragraphs = _expect_key(raw_article, "paragraphs", list, article_path)
        paragraphs = []
        for pi, raw_paragraph in enumerate(raw_paragraphs):
            paragraph_path = f"{article_path}.paragraphs[{pi}]"
            context = _expect_key(raw_paragraph, "context", str, paragraph_path)
            raw_qas = _expect_key(raw_paragraph, "qas", list, paragraph_path)
            qas = []
            for qi, raw_qa in enumerate(raw_qas):
                qa_path = f"{paragraph_path}.qas[{qi}]"
                qa_id = _expect_key(raw_qa, "id", str, qa_path)
                question = _expect_key(raw_qa, "question", str, qa_path)
                raw_answers = _expect_key(raw_qa, "answers", list, qa_path)
                answers = []
                for xi, raw_answer in enumerate(raw_answers):
                    answer_path = f"{qa_path}.answers[{xi}]"
                    text = _expect_key(raw_answer, "text", str, answer_path)
                    start = _expect_key(raw_answer, "answer_start", int, answer_path)
                    answers.append(SquadAnswer(text=text, answer_start=start))
                qas.append(SquadQA(id=qa_id, question=question, answers=answers))
            paragraphs.append(SquadParagraph(context=context, qas=qas))
        articles.append(SquadArticle(title=title, paragraphs=paragraphs))

    dataset = SquadDataset(version=version, articles=articles)

    violations = []
    seen: set[str] = set()
    for paragraph, qa in dataset.iter_qas():
        if qa.id in seen:
            violations.append(SquadViolation(qa_id=qa.id, message="duplicate qa id"))
        seen.add(qa.id)
        for answer in qa.answers:
            if not _span_matches(paragraph.context, answer.text, answer.answer_start):
                violations.append(
                    SquadViolation(
                        qa_id=qa.id,
                        message=(
                            f"answer text does not match context at offset "
                            f"{answer.answer_start}"
                        ),
                    )
                )
    return SquadReadResult(dataset=dataset, violations=violations)


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
        Path(destination).write_text(
            json.dumps(asdict(self), ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8",
        )


_STAGE_OVERRIDE_KEYS = {"epochs", "batch_size", "learning_rate"}


def build_training_mix(
    synthetic: Sequence[str],
    gold: Sequence[str],
    overrides: Mapping[str, Mapping[str, Any]] | None = None,
) -> TrainingManifest:
    """Build the two-stage manifest; stages without dataset paths are omitted.

    ``overrides`` maps a stage name to replacement hyperparameters, e.g.
    ``{"gold": {"epochs": 3}}``; anything not overridden keeps the defaults
    (2 epochs, batch size 64, learning rate 3e-5).
    """
    if not synthetic and not gold:
        raise ConfigurationError("at least one dataset path is required")
    overrides = overrides or {}
    unknown_stages = set(overrides) - {"synthetic", "gold"}
    if unknown_stages:
        raise ConfigurationError(f"unknown override stage(s): {sorted(unknown_stages)}")

    manifest = TrainingManifest()
    for name, paths in (("synthetic", synthetic), ("gold", gold)):
        if not paths:
            continue
        stage = TrainingStage(name=name, dataset_paths=[str(p) for p in paths])
        stage_overrides = overrides.get(name, {})
        unknown_keys = set(stage_overrides) - _STAGE_OVERRIDE_KEYS
        if unknown_keys:
            raise ConfigurationError(
                f"unknown override key(s) for stage {name!r}: {sorted(unknown_keys)}"
            )
        for key, value in stage_overrides.items():
            setattr(stage, key, value)
        if stage.epochs < 1 or stage.batch_size < 1 or stage.learning_rate <= 0:
            raise ConfigurationError(f"invalid hyperparameters for stage {name!r}")
        manifest.stages.append(stage)
    return manifest
