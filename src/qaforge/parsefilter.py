"""Candidate parsing, extractiveness checking, and score-ranked filtering."""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from typing import Any, NamedTuple

from .corpus import Passage
from .errors import ConfigurationError, DataError
from .generator import Candidate

# Markers must be standalone whitespace-delimited tokens; the split uses the
# first "answer" token, so a question containing that word gets truncated.
_QUESTION_MARKER = re.compile(r"\A\s*question(?:\s+|\Z)")
_ANSWER_MARKER = re.compile(r"(?:\A|(?<=\s))answer(?:(?=\s)|\Z)")


def _split_candidate(text: str) -> tuple[str, str] | str:
    """``(question, answer)`` of a decoded sequence, or the name of its first unusable part.

    Parts are checked in the order question marker, answer marker, question,
    answer.
    """
    head = _QUESTION_MARKER.match(text)
    if head is None:
        return "question_marker"
    rest = text[head.end():]
    marker = _ANSWER_MARKER.search(rest)
    if marker is None:
        return "answer_marker"
    question = rest[: marker.start()].strip()
    if not question:
        return "question"
    answer = rest[marker.end():].strip()
    if not answer:
        return "answer"
    return question, answer


@dataclass(frozen=True)
class FilterConfig:
    """Knobs of the per-passage candidate filter.

    ``length_normalize`` ranks by log-probability divided by the decoded
    token count instead of the raw sum, countering the bias toward short
    outputs; it is off by default.
    """

    keep_per_passage: int = 10
    length_normalize: bool = False

    def __post_init__(self) -> None:
        if self.keep_per_passage < 1:
            raise ConfigurationError(
                f"keep_per_passage must be >= 1, got {self.keep_per_passage}"
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
    answer_start: int


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

    Stages, in order: structural parse, extractiveness check, exact-duplicate
    removal keeping the highest-scored instance, then top-``keep_per_passage``
    selection by score. Question and answer text is NFC-normalized so the
    substring check against the (already normalized) passage is exact: case-
    and whitespace-sensitive, at the answer's first occurrence. Every example
    therefore has a verified character offset and a distinct (question, answer)
    pair.
    """
    stats = FilterStats(candidates=len(candidates))

    drafts: list[_Draft] = []
    for candidate in candidates:
        split = _split_candidate(candidate.text)
        if isinstance(split, str):
            stats.parse_failures[split] = stats.parse_failures.get(split, 0) + 1
            continue
        stats.parsed += 1
        question, answer = split
        answer = unicodedata.normalize("NFC", answer)
        answer_start = passage.text.find(answer)
        if answer_start < 0:
            continue
        score = candidate.lm_score
        if config.length_normalize:
            score /= len(candidate.text.split())
        question = unicodedata.normalize("NFC", question)
        drafts.append(_Draft(question, answer, score, answer_start))
    stats.extractive = len(drafts)

    drafts = _dedup_keep_best(drafts)
    stats.deduped = len(drafts)

    # A stable sort: of equal scores, the earlier draft ranks first, so the
    # result for k is a prefix of the result for k + 1.
    ranked = sorted(drafts, key=lambda draft: -draft.lm_score)[: config.keep_per_passage]
    examples = [
        SyntheticExample(
            passage_id=passage.id,
            question=draft.question,
            answer=draft.answer,
            answer_start=draft.answer_start,
            lm_score=draft.lm_score,
            language=passage.language,
        )
        for draft in ranked
    ]
    stats.kept = len(examples)
    return examples, stats
