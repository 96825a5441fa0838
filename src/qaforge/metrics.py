"""Answer-span evaluation (exact match, token F1) and corpus BLEU.

Two normalization regimes are supported. ``squad`` mode is language
independent: lowercase, strip ASCII punctuation, drop English articles,
collapse whitespace. ``mlqa`` mode applies per-language article tables and
Unicode punctuation removal, with per-character segmentation for Chinese;
the tables ship as a versioned configuration file so any disagreement with
external scorers is diagnosable data rather than a code change.
"""

from __future__ import annotations

import json
import math
import string
import unicodedata
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import re

from .dataset import SquadDataset
from .errors import ConfigurationError, DataError, MissingPredictionsError
from .segmentation import mixed_segment

__all__ = [
    "NormalizationProfile",
    "ExampleScore",
    "EvalReport",
    "load_profile_table",
    "make_profile",
    "normalize_answer",
    "tokenize_for_f1",
    "exact_match",
    "f1",
    "evaluate_dataset",
    "bleu",
]

_ENGLISH_ARTICLES = frozenset({"a", "an", "the"})
_ASCII_PUNCTUATION = frozenset(string.punctuation)

SEGMENTATION_WHITESPACE = "whitespace"
SEGMENTATION_MIXED = "per-character-mixed"


@dataclass(frozen=True)
class NormalizationProfile:
    """How answers are normalized and tokenized before comparison."""

    mode: str
    language: str
    articles: frozenset[str]
    punctuation_class: str
    segmentation: str


def load_profile_table(path: str | Path | None = None) -> dict:
    """Load the per-language normalization table (shipped default when path is None)."""
    if path is None:
        raw = resources.files("qaforge.data").joinpath("normalization_profiles.json").read_text(
            encoding="utf-8"
        )
    else:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read profile table {path}: {exc}") from exc
    try:
        table = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"profile table is not valid JSON: {exc.msg}") from exc
    if not isinstance(table, dict) or not isinstance(table.get("entries"), list):
        raise ConfigurationError("profile table must carry an 'entries' array")
    for position, entry in enumerate(table["entries"]):
        if type(entry) is dict:
            articles = entry.get("articles", [])
            if (
                type(entry.get("language", "")) is str
                and type(entry.get("punctuation_class", "")) is str
                and type(entry.get("segmentation", "")) is str
                and type(articles) is list
                and all(type(article) is str for article in articles)
            ):
                continue
        raise ConfigurationError(
            f"profile table entry {position} needs string language/punctuation_class/"
            "segmentation and a list of string articles"
        )
    return table


def make_profile(
    mode: str, language: str, table: dict | None = None
) -> NormalizationProfile:
    """Build a profile for one evaluation mode and language.

    ``squad`` mode ignores the language table entirely (English articles,
    ASCII punctuation, whitespace tokens, whatever the language). ``mlqa``
    mode looks the language up in the table; unlisted languages fall back
    to no article removal with whitespace segmentation.
    """
    language = language.lower()
    if mode == "squad":
        return NormalizationProfile(
            mode="squad",
            language=language,
            articles=_ENGLISH_ARTICLES,
            punctuation_class="ascii",
            segmentation=SEGMENTATION_WHITESPACE,
        )
    if mode != "mlqa":
        raise ConfigurationError(f"unknown evaluation mode: {mode!r}")
    table = table if table is not None else load_profile_table()
    entry = next((e for e in table["entries"] if e.get("language") == language), {})
    return NormalizationProfile(
        mode="mlqa",
        language=language,
        articles=frozenset(entry.get("articles", [])),
        punctuation_class=entry.get("punctuation_class", "unicode"),
        segmentation=entry.get("segmentation", SEGMENTATION_WHITESPACE),
    )


@lru_cache(maxsize=None)
def _article_pattern(articles: tuple[str, ...]) -> re.Pattern:
    alternatives = "|".join(re.escape(a) for a in articles)
    return re.compile(rf"\b(?:{alternatives})\b")


def _strip_punctuation(text: str, punctuation_class: str) -> str:
    if punctuation_class == "ascii":
        return "".join(ch for ch in text if ch not in _ASCII_PUNCTUATION)
    return "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))


def normalize_answer(text: str, profile: NormalizationProfile) -> str:
    """Lowercase, strip punctuation, drop standalone articles, collapse whitespace."""
    text = text.lower()
    text = _strip_punctuation(text, profile.punctuation_class)
    if profile.articles:
        text = _article_pattern(tuple(sorted(profile.articles))).sub(" ", text)
    return " ".join(text.split())


def tokenize_for_f1(normalized: str, profile: NormalizationProfile) -> list[str]:
    """Token sequence for overlap scoring; input must already be normalized."""
    if profile.segmentation == SEGMENTATION_MIXED:
        return mixed_segment(normalized)
    return normalized.split()


def exact_match(
    prediction: str, golds: Sequence[str], profile: NormalizationProfile
) -> int:
    """1 iff the normalized prediction equals any normalized gold answer."""
    if not golds:
        raise DataError("exact_match requires at least one gold answer")
    normalized = normalize_answer(prediction, profile)
    return int(any(normalized == normalize_answer(gold, profile) for gold in golds))


def _f1_single(prediction: str, gold: str, profile: NormalizationProfile) -> float:
    prediction_tokens = tokenize_for_f1(normalize_answer(prediction, profile), profile)
    gold_tokens = tokenize_for_f1(normalize_answer(gold, profile), profile)
    if not prediction_tokens and not gold_tokens:
        return 1.0
    if not prediction_tokens or not gold_tokens:
        return 0.0
    common = Counter(prediction_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(prediction_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def f1(prediction: str, golds: Sequence[str], profile: NormalizationProfile) -> float:
    """Best multiset token-overlap F1 of the prediction against any gold."""
    if not golds:
        raise DataError("f1 requires at least one gold answer")
    return max(_f1_single(prediction, gold, profile) for gold in golds)


@dataclass(frozen=True)
class ExampleScore:
    em: int
    f1: float


@dataclass
class EvalReport:
    """Aggregate EM/F1 percentages with the per-entry breakdown behind them."""

    exact_match: float
    f1: float
    total: int
    per_example: dict[str, ExampleScore]

    def to_json_dict(self, include_per_example: bool = True) -> dict:
        if include_per_example:
            return asdict(self)
        payload = asdict(replace(self, per_example={}))
        del payload["per_example"]
        return payload


def evaluate_dataset(
    predictions: Mapping[str, str],
    dataset: SquadDataset,
    profile: NormalizationProfile,
    missing_as_zero: bool = False,
) -> EvalReport:
    """Score every dataset entry, taking the max over its gold answers.

    Every entry id must be present in ``predictions``; otherwise the call
    fails listing the missing ids, unless ``missing_as_zero`` scores the
    absent ones as 0 instead.
    """
    per_example: dict[str, ExampleScore] = {}
    missing: list[str] = []
    for paragraph, qa in dataset.iter_qas():
        del paragraph
        if qa.id in per_example:
            raise DataError(f"duplicate qa id in dataset: {qa.id}")
        golds = [answer.text for answer in qa.answers]
        if not golds:
            raise DataError(f"qa {qa.id} has no gold answers")
        if qa.id not in predictions:
            missing.append(qa.id)
            per_example[qa.id] = ExampleScore(em=0, f1=0.0)
            continue
        prediction = predictions[qa.id]
        per_example[qa.id] = ExampleScore(
            em=exact_match(prediction, golds, profile),
            f1=f1(prediction, golds, profile),
        )
    if missing and not missing_as_zero:
        raise MissingPredictionsError(missing)
    total = len(per_example)
    if total == 0:
        return EvalReport(exact_match=0.0, f1=0.0, total=0, per_example={})
    return EvalReport(
        exact_match=100.0 * sum(s.em for s in per_example.values()) / total,
        f1=100.0 * sum(s.f1 for s in per_example.values()) / total,
        total=total,
        per_example=per_example,
    )


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU on [0, 100]: clipped n-gram precisions with brevity penalty.

    Precisions are pooled over the whole corpus for n = 1..max_n and
    combined with uniform weights; any zero precision zeroes the score (no
    smoothing). The brevity penalty is exp(1 - r/c) when the total
    hypothesis length c does not exceed the total reference length r.
    """
    if len(hypotheses) != len(references):
        raise DataError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise DataError("bleu requires a non-empty corpus")
    if max_n < 1:
        raise ConfigurationError(f"max_n must be >= 1, got {max_n}")

    hypothesis_length = sum(len(h) for h in hypotheses)
    reference_length = sum(len(r) for r in references)

    log_precision_sum = 0.0
    for n in range(1, max_n + 1):
        clipped = 0
        total = 0
        for hypothesis, reference in zip(hypotheses, references):
            counts = _ngram_counts(hypothesis, n)
            reference_counts = _ngram_counts(reference, n)
            total += sum(counts.values())
            clipped += sum(
                min(count, reference_counts[ngram]) for ngram, count in counts.items()
            )
        if clipped == 0 or total == 0:
            return 0.0
        log_precision_sum += math.log(clipped / total) / max_n

    brevity_penalty = (
        1.0
        if hypothesis_length > reference_length
        else math.exp(1.0 - reference_length / hypothesis_length)
    )
    return 100.0 * brevity_penalty * math.exp(log_precision_sum)
