"""Candidate parsing, extractiveness checking, and score-ranked filtering."""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Any, NamedTuple, TypeVar

from .corpus import Passage
from .errors import ConfigurationError, DataError, QAForgeError
from .generator import Candidate

__all__ = [
    "QAPair",
    "FilterConfig",
    "SyntheticExample",
    "FilterStats",
    "CandidateParseError",
    "parse_candidate",
    "check_extractive",
    "lm_filter",
    "run_filter_pipeline",
]

T = TypeVar("T")

# Markers must be standalone whitespace-delimited tokens; the split uses the
# first "answer" token, so a question containing that word gets truncated.
_QUESTION_MARKER = re.compile(r"\A\s*question(?:\s+|\Z)")
_ANSWER_MARKER = re.compile(r"(?:\A|(?<=\s))answer(?:(?=\s)|\Z)")


@dataclass(frozen=True)
class QAPair:
    question: str
    answer: str


class CandidateParseError(QAForgeError):
    """A decoded candidate does not carry a well-formed question/answer pair."""

    def __init__(self, part: str):
        super().__init__(f"candidate has no usable {part.replace('_', ' ')}")
        self.part = part


def parse_candidate(text: str) -> QAPair:
    """Split a decoded sequence into its question and answer parts.

    The text must start with the standalone token ``question`` and contain a
    later standalone ``answer`` token; the question is the trimmed material
    between them, the answer the trimmed material after the first ``answer``
    marker. Raises CandidateParseError naming the missing part otherwise.
    """
    head = _QUESTION_MARKER.match(text)
    if head is None:
        raise CandidateParseError("question_marker")
    rest = text[head.end():]
    marker = _ANSWER_MARKER.search(rest)
    if marker is None:
        raise CandidateParseError("answer_marker")
    question = rest[: marker.start()].strip()
    answer = rest[marker.end():].strip()
    if not question:
        raise CandidateParseError("question")
    if not answer:
        raise CandidateParseError("answer")
    return QAPair(question=question, answer=answer)


def check_extractive(answer: str, passage_text: str) -> int | None:
    """Character offset of the first exact occurrence of ``answer``, or None.

    Matching is case- and whitespace-sensitive; both strings are expected
    to be NFC-normalized.
    """
    offset = passage_text.find(answer)
    return None if offset < 0 else offset


def lm_filter(
    candidates: Sequence[tuple[T, float]], keep: int
) -> list[tuple[T, float]]:
    """Keep the ``keep`` highest-scored items, ordered by score descending.

    Ties preserve the original input order, and the result for ``keep`` is
    always a prefix of the result for ``keep + 1``.
    """
    if keep < 1:
        raise ConfigurationError(f"keep must be >= 1, got {keep}")
    ranked = sorted(candidates, key=lambda item: -item[1])
    return ranked[:keep]


@dataclass(frozen=True)
class FilterConfig:
    """Knobs of the per-passage candidate filter.

    ``length_normalize`` ranks by log-probability divided by the decoded
    token count instead of the raw sum, countering the bias toward short
    outputs; it is off by default.
    """

    samples_per_passage: int = 20
    keep_per_passage: int = 10
    require_extractive: bool = True
    dedup: bool = True
    length_normalize: bool = False

    def __post_init__(self) -> None:
        if self.samples_per_passage < 1:
            raise ConfigurationError(
                f"samples_per_passage must be >= 1, got {self.samples_per_passage}"
            )
        if self.keep_per_passage < 1:
            raise ConfigurationError(
                f"keep_per_passage must be >= 1, got {self.keep_per_passage}"
            )
        if self.keep_per_passage > self.samples_per_passage:
            raise ConfigurationError(
                f"keep_per_passage ({self.keep_per_passage}) exceeds "
                f"samples_per_passage ({self.samples_per_passage})"
            )


# Example record keys in file order, with the JSON types each accepts.
_EXAMPLE_FIELD_TYPES = {
    "passage_id": (str,),
    "question": (str,),
    "answer": (str,),
    "answer_start": (int,),
    "lm_score": (int, float),
    "language": (str,),
}


@dataclass(frozen=True)
class SyntheticExample:
    """A validated question/answer pair anchored to its passage by character offset."""

    passage_id: str
    question: str
    answer: str
    answer_start: int
    lm_score: float
    language: str

    def to_record(self) -> dict:
        return {key: getattr(self, key) for key in _EXAMPLE_FIELD_TYPES}

    @classmethod
    def from_record(cls, record: Any) -> "SyntheticExample":
        """Inverse of ``to_record``; a missing or wrong-typed field raises DataError."""
        if not isinstance(record, dict) or any(
            type(record.get(key)) not in types for key, types in _EXAMPLE_FIELD_TYPES.items()
        ):
            raise DataError(
                "example needs string passage_id/question/answer/language, "
                "an integer answer_start and a numeric lm_score"
            )
        return cls(**{key: record[key] for key in _EXAMPLE_FIELD_TYPES})


@dataclass
class FilterStats:
    """Surviving counts after each filter stage for one or more passages."""

    candidates: int = 0
    parsed: int = 0
    extractive: int = 0
    deduped: int = 0
    kept: int = 0
    parse_failures: dict[str, int] = field(default_factory=dict)

    def merge(self, other: "FilterStats") -> None:
        self.candidates += other.candidates
        self.parsed += other.parsed
        self.extractive += other.extractive
        self.deduped += other.deduped
        self.kept += other.kept
        for part, count in other.parse_failures.items():
            self.parse_failures[part] = self.parse_failures.get(part, 0) + count

    def to_record(self) -> dict:
        return {**asdict(self), "parse_failures": dict(sorted(self.parse_failures.items()))}


class _Draft(NamedTuple):
    question: str
    answer: str
    lm_score: float
    answer_start: int | None


def _dedup_keep_best(drafts: list[_Draft]) -> list[_Draft]:
    # Strict > keeps the earliest instance among equal scores.
    best: dict[tuple[str, str], int] = {}
    for index, draft in enumerate(drafts):
        key = (draft.question, draft.answer)
        current = best.get(key)
        if current is None or draft.lm_score > drafts[current].lm_score:
            best[key] = index
    return [drafts[index] for index in sorted(best.values())]


def run_filter_pipeline(
    passage: Passage,
    candidates: Sequence[Candidate],
    config: FilterConfig,
) -> tuple[list[SyntheticExample], FilterStats]:
    """Turn raw candidates for one passage into validated examples plus stage stats.

    Stages, in order: structural parse, extractiveness check (when
    ``require_extractive``), exact-duplicate removal keeping the
    highest-scored instance (when ``dedup``), then top-``keep_per_passage``
    selection by score. Question and answer text is NFC-normalized so the
    substring check against the (already normalized) passage is exact.

    With ``require_extractive`` off, non-extractive pairs stay in the
    ranking and only drop at example construction, where a verified
    character offset is mandatory; that spends the keep budget differently
    but can never emit a non-extractive example.
    """
    stats = FilterStats(candidates=len(candidates))

    drafts: list[_Draft] = []
    for candidate in candidates:
        try:
            pair = parse_candidate(candidate.text)
        except CandidateParseError as exc:
            stats.parse_failures[exc.part] = stats.parse_failures.get(exc.part, 0) + 1
            continue
        question = unicodedata.normalize("NFC", pair.question)
        answer = unicodedata.normalize("NFC", pair.answer)
        score = candidate.lm_score
        if config.length_normalize:
            score /= len(candidate.text.split())
        drafts.append(_Draft(question, answer, score, check_extractive(answer, passage.text)))
    stats.parsed = len(drafts)

    if config.require_extractive:
        drafts = [draft for draft in drafts if draft.answer_start is not None]
    stats.extractive = len(drafts)

    if config.dedup:
        drafts = _dedup_keep_best(drafts)
    stats.deduped = len(drafts)

    ranked = lm_filter([(draft, draft.lm_score) for draft in drafts], config.keep_per_passage)
    examples = [
        SyntheticExample(
            passage_id=passage.id,
            question=draft.question,
            answer=draft.answer,
            answer_start=draft.answer_start,
            lm_score=draft.lm_score,
            language=passage.language,
        )
        for draft, _ in ranked
        if draft.answer_start is not None
    ]
    stats.kept = len(examples)
    return examples, stats
