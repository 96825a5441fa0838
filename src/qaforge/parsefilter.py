"""Candidate parsing, extractiveness checking, and score-ranked filtering."""

from __future__ import annotations

import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .corpus import Passage
from .errors import ConfigurationError, DataError
from .generator import Candidate


def _split_candidate(text: str) -> tuple[str, str] | str:
    """``(question, answer)`` of a decoded sequence, or the name of its first unusable part.

    Markers are standalone tokens: whitespace (``str.isspace``) or an end of
    the text on either side. The text must start with ``question``; the
    question runs to the first ``answer`` after it, so a question containing
    that word gets truncated. Parts are checked in the order question marker,
    answer marker, question, answer.
    """
    rest = text.lstrip()
    if not rest.startswith("question") or not (len(rest) == 8 or rest[8].isspace()):
        return "question_marker"
    # Past the question marker and its whitespace, a hit always follows a
    # character, and the question is what lies between.
    at = rest.find("answer", 9)
    while at >= 0:
        end = at + 6
        if rest[at - 1].isspace() and (end == len(rest) or rest[end].isspace()):
            question = rest[8:at].strip()
            if not question:
                return "question"
            answer = rest[end:].strip()
            if not answer:
                return "answer"
            return question, answer
        at = rest.find("answer", at + 1)
    return "answer_marker"


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


class SyntheticExample(NamedTuple):
    """A validated question/answer pair anchored to its passage by character offset."""

    passage_id: str
    question: str
    answer: str
    answer_start: int
    lm_score: float
    language: str

    def to_record(self) -> dict:
        return self._asdict()

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


def _dedup_keep_best(drafts: list[tuple]) -> list[tuple]:
    # Strict > keeps the earliest instance among equal scores.
    best: dict[tuple[str, str], int] = {}
    for index, (question, answer, lm_score, _) in enumerate(drafts):
        key = (question, answer)
        current = best.get(key)
        if current is None or lm_score > drafts[current][2]:
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
    failures: dict[str, int] = {}
    context = passage.text
    length_normalize = config.length_normalize
    normalize = unicodedata.normalize
    # Each draft is a plain (question, answer, lm_score, answer_start) tuple:
    # the interpreter specializes its unpacks only for an exact tuple.
    drafts: list[tuple[str, str, float, int]] = []
    for text, score in candidates:
        split = _split_candidate(text)
        if isinstance(split, str):
            failures[split] = failures.get(split, 0) + 1
            continue
        question, answer = split
        answer = normalize("NFC", answer)
        answer_start = context.find(answer)
        if answer_start < 0:
            continue
        if length_normalize:
            score /= len(text.split())
        drafts.append((normalize("NFC", question), answer, score, answer_start))
    stats = FilterStats(
        candidates=len(candidates),
        parsed=len(candidates) - sum(failures.values()),
        extractive=len(drafts),
        parse_failures=failures,
    )

    drafts = _dedup_keep_best(drafts)
    stats.deduped = len(drafts)

    # A stable sort: of equal scores, the earlier draft ranks first, so the
    # result for k is a prefix of the result for k + 1.
    ranked = sorted(drafts, key=lambda draft: -draft[2])[: config.keep_per_passage]
    # tuple.__new__ skips NamedTuple.__new__, a Python-level frame per example.
    examples = [
        tuple.__new__(
            SyntheticExample,
            (passage.id, question, answer, answer_start, score, passage.language),
        )
        for question, answer, score, answer_start in ranked
    ]
    stats.kept = len(examples)
    return examples, stats
