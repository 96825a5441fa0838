"""Passage ingestion: JSONL lines, record parsing, token counting, length filter, sampling."""

from __future__ import annotations

import random
import unicodedata
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import JSON_ERRORS, ConfigurationError, json_error_reason, load_json
from .segmentation import mixed_segment


def language_code(language: str) -> str:
    """A language code as every comparison reads it: stripped and lowercased (" ZH" is "zh")."""
    return language.strip().lower()


def count_tokens(text: str, language: str) -> int:
    """Count tokens: whitespace runs, except zh where Han characters count individually."""
    if language_code(language) == "zh":
        return len(mixed_segment(text))
    return len(text.split())


@dataclass(frozen=True)
class Passage:
    """An immutable source paragraph. Text is NFC-normalized and stripped on build."""

    id: str
    text: str
    language: str
    token_count: int

    @classmethod
    def build(cls, id: str, text: str, language: str) -> "Passage":
        normalized = unicodedata.normalize("NFC", text).strip()
        if not normalized:
            raise ValueError("passage text is empty after trimming")
        lang = language_code(language)
        if not lang:
            raise ValueError("passage language is empty")
        return cls(
            id=id,
            text=normalized,
            language=lang,
            token_count=count_tokens(normalized, lang),
        )

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "language": self.language,
            "token_count": self.token_count,
        }


@dataclass(frozen=True)
class RecordError:
    """One skipped ingestion record and why."""

    line_number: int
    message: str


def check_length_bounds(min_tokens: int, max_tokens: int) -> None:
    """The length filter's rules: 0 < min_tokens <= max_tokens, else a ConfigurationError."""
    if min_tokens <= 0:
        raise ConfigurationError(f"min_tokens must be positive, got {min_tokens}")
    if min_tokens > max_tokens:
        raise ConfigurationError(
            f"min_tokens ({min_tokens}) exceeds max_tokens ({max_tokens})"
        )


def check_sample_size(n: int) -> None:
    """The sampler's one rule on ``n``: at least 0, else a ConfigurationError."""
    if n < 0:
        raise ConfigurationError(f"sample_n must be >= 0, got {n}")


def filter_by_length(
    passages: Iterable[Passage], min_tokens: int, max_tokens: int
) -> Iterator[Passage]:
    """Keep passages with min_tokens <= token_count <= max_tokens, preserving order.

    Bounds are inclusive and checked at the call (``check_length_bounds``).
    """
    check_length_bounds(min_tokens, max_tokens)

    def _generate() -> Iterator[Passage]:
        for passage in passages:
            if min_tokens <= passage.token_count <= max_tokens:
                yield passage

    return _generate()


def sample_passages(passages: Sequence[Passage], n: int, seed: int) -> list[Passage]:
    """Draw min(n, len) distinct passages uniformly without replacement.

    Pure function of (passages, n, seed): the same inputs always produce
    the same sequence. ``n`` is checked by ``check_sample_size``.
    """
    check_sample_size(n)
    population = list(passages)
    return random.Random(seed).sample(population, min(n, len(population)))


def jsonl_records(
    lines: Iterable[bytes | str], on_error: Callable[[RecordError], None]
) -> Iterator[tuple[int, Any]]:
    """The line number and JSON value of each non-blank line of a JSON Lines file, in order.

    ``lines`` are a binary file's lines, each ended by ``\n`` only, or strings.
    Bytes are decoded as strict UTF-8. A line that does not decode, or is not
    JSON, is reported to ``on_error``.
    """
    for line_number, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        except UnicodeDecodeError as exc:
            on_error(RecordError(line_number, f"invalid utf-8: {exc}"))
            continue
        if not line.strip():
            continue
        try:
            record = load_json(line)
        except JSON_ERRORS as exc:
            on_error(RecordError(line_number, f"invalid record: {json_error_reason(exc)}"))
            continue
        yield line_number, record


def _passage(record: Any) -> Passage:
    """The Passage a passage record holds; ValueError says why it holds none."""
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    missing = [key for key in ("id", "text", "language") if key not in record]
    if missing:
        raise ValueError(f"missing field(s): {', '.join(missing)}")
    bad_types = [key for key in ("id", "text", "language") if not isinstance(record[key], str)]
    if bad_types:
        raise ValueError(f"non-string field(s): {', '.join(bad_types)}")
    if not record["id"]:
        raise ValueError("empty id")
    return Passage.build(record["id"], record["text"], record["language"])


def parse_passage_stream(
    stream: Iterable[bytes | str],
    on_error: Callable[[RecordError], None] | None = None,
) -> Iterator[Passage]:
    """Yield one Passage per valid record line (see ``jsonl_records``), in input order.

    Each non-blank line must be a JSON object with string fields ``id``,
    ``text``, and ``language``; unknown fields are ignored. Malformed lines
    and duplicate ids are skipped and reported to ``on_error`` with their
    line number instead of aborting the stream.
    """
    report = on_error or (lambda error: None)
    seen_ids: set[str] = set()
    for line_number, record in jsonl_records(stream, report):
        try:
            passage = _passage(record)
            if passage.id in seen_ids:
                raise ValueError(f"duplicate id: {passage.id}")
        except ValueError as exc:
            report(RecordError(line_number, str(exc)))
            continue
        seen_ids.add(passage.id)
        yield passage
