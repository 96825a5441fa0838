"""Answer-span evaluation (exact match, token F1) and corpus BLEU.

Two normalization regimes are supported. ``squad`` mode is language
independent: lowercase, strip ASCII punctuation, drop English articles,
collapse whitespace. ``mlqa`` mode applies per-language article tables and
Unicode punctuation removal, with per-character segmentation for Chinese;
the tables ship as a versioned configuration file so any disagreement with
external scorers is diagnosable data rather than a code change.
"""

from __future__ import annotations

import math
import re
import string
import unicodedata
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

from .corpus import language_code
from .dataset import SquadDataset
from .errors import (
    JSON_ERRORS,
    ConfigurationError,
    DataError,
    MissingPredictionsError,
    json_error_reason,
    load_json,
)
from .segmentation import mixed_segment

_ENGLISH_ARTICLES = frozenset({"a", "an", "the"})

SEGMENTATION_WHITESPACE = "whitespace"
SEGMENTATION_MIXED = "per-character-mixed"


class _UnicodePunctuation(dict):
    """``str.translate`` table deleting Unicode general category P*.

    Each code point is classified the first time it is looked up and the
    answer kept, so no table covering all of Unicode is built on import.
    """

    def __missing__(self, code_point: int) -> int | None:
        kept = None if unicodedata.category(chr(code_point)).startswith("P") else code_point
        self[code_point] = kept
        return kept


_UNICODE_PUNCTUATION = _UnicodePunctuation()
_ASCII_CATEGORY_P = "".join(c for c in string.punctuation if unicodedata.category(c)[0] == "P")
_delete_ascii_category_p = partial(re.compile(f"[{re.escape(_ASCII_CATEGORY_P)}]").sub, "")


def _delete_unicode_punctuation(text: str) -> str:
    """``text`` without category P*: by one compiled class if it is ASCII, else by the table."""
    if text.isascii():
        return _delete_ascii_category_p(text)
    return text.translate(_UNICODE_PUNCTUATION)


# punctuation_class -> the function deleting that punctuation from a string.
_PUNCTUATION_DELETERS = {
    "ascii": partial(re.compile("[" + re.escape(string.punctuation) + "]").sub, ""),
    "unicode": _delete_unicode_punctuation,
}
# segmentation -> tokenizer of a string.
_SEGMENTERS = {
    SEGMENTATION_WHITESPACE: str.split,
    SEGMENTATION_MIXED: mixed_segment,
}


@dataclass(frozen=True)
class NormalizationProfile:
    """How answers are normalized and tokenized before comparison.

    ``punctuation_class`` is ``ascii`` or ``unicode`` and ``segmentation`` is
    ``whitespace`` or ``per-character-mixed``; any other value is a
    ``ConfigurationError``, as is an article that can never match: one that
    is empty, changes when lowercased, or holds a character its punctuation
    class deletes.
    """

    mode: str
    language: str
    articles: frozenset[str]
    punctuation_class: str
    segmentation: str

    def __post_init__(self) -> None:
        for name, allowed in (
            ("punctuation_class", _PUNCTUATION_DELETERS),
            ("segmentation", _SEGMENTERS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigurationError(
                    f"{self.mode} profile for language {self.language!r}: unknown {name} "
                    f"{value!r}; expected one of {', '.join(map(repr, allowed))}"
                )
        # Answers are lowercased and lose punctuation before articles are
        # matched, so an article must survive both: test all at once.
        delete_punctuation = _PUNCTUATION_DELETERS[self.punctuation_class]
        spelled = "".join(self.articles)
        if "" in self.articles or delete_punctuation(spelled.lower()) != spelled:
            article = min(a for a in self.articles if not a or delete_punctuation(a.lower()) != a)
            raise ConfigurationError(
                f"{self.mode} profile for language {self.language!r}: article {article!r} "
                f"can never match: it is empty, not lowercase, or holds "
                f"{self.punctuation_class} punctuation"
            )


def load_profile_table(path: str | Path | None = None) -> dict:
    """Load the per-language normalization table (shipped default when path is None)."""
    shipped = resources.files("qaforge.data") / "normalization_profiles.json"
    source = shipped if path is None else Path(path)
    try:
        raw = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read profile table {source}: {exc}") from exc
    try:
        table = load_json(raw)
    except JSON_ERRORS as exc:
        raise ConfigurationError(
            f"{source}: profile table is not valid JSON: {json_error_reason(exc)}"
        ) from exc
    if not isinstance(table, dict) or not isinstance(table.get("entries"), list):
        raise ConfigurationError(f"{source}: profile table must carry an 'entries' array")
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
            f"{source}: profile table entry {position} needs string language/punctuation_class/"
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
    to no article removal with whitespace segmentation. A blank language
    is a ``ConfigurationError`` in either mode.
    """
    code = language_code(language)
    if not code:
        raise ConfigurationError(f"language must not be blank, got {language!r}")
    language = code
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
    entry = next(
        (e for e in table["entries"] if language_code(e.get("language", "")) == language), {}
    )
    return NormalizationProfile(
        mode="mlqa",
        language=language,
        articles=frozenset(entry.get("articles", [])),
        punctuation_class=entry.get("punctuation_class", "unicode"),
        segmentation=entry.get("segmentation", SEGMENTATION_WHITESPACE),
    )


def tokenize_for_f1(text: str, profile: NormalizationProfile) -> list[str]:
    """Token sequence of ``text`` under the profile's segmentation.

    The text is segmented as given, without normalization: ``qaforge bleu``
    passes it raw lines.
    """
    return _SEGMENTERS[profile.segmentation](text)


def _normalizer(profile: NormalizationProfile) -> Callable[[str], tuple[list[str], list[str]]]:
    """The function taking an answer to its normalized words and its F1 tokens.

    Two answers normalize to the same string iff their words are equal. Under
    whitespace segmentation the words are the tokens, the same list;
    otherwise the tokens segment the words joined by single spaces. The
    article pattern is compiled here, at first use (``re`` caches it).
    """
    delete_punctuation = _PUNCTUATION_DELETERS[profile.punctuation_class]
    alternatives = "|".join(re.escape(a) for a in sorted(profile.articles))
    delete_articles = (
        partial(re.compile(rf"\b(?:{alternatives})\b").sub, " ") if profile.articles else None
    )
    mixed = profile.segmentation == SEGMENTATION_MIXED

    def normalize(text: str) -> tuple[list[str], list[str]]:
        text = delete_punctuation(text.lower())
        if delete_articles is not None:
            text = delete_articles(text)
        words = text.split()
        return words, mixed_segment(" ".join(words)) if mixed else words

    return normalize


@dataclass
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
    normalize = _normalizer(profile)
    per_example: dict[str, ExampleScore] = {}
    missing: list[str] = []
    for qa in dataset.iter_qas():
        if qa.id in per_example:
            raise DataError(f"duplicate qa id in dataset: {qa.id}")
        if not qa.answers:
            raise DataError(f"qa {qa.id} has no gold answers")
        if qa.id not in predictions:
            missing.append(qa.id)
            per_example[qa.id] = ExampleScore(em=0, f1=0.0)
            continue
        words, tokens = normalize(predictions[qa.id])
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        em, best = 0, 0.0
        for answer in qa.answers:
            gold_words, gold_tokens = normalize(answer.text)
            if gold_words == words:
                # Equal tokens too (both empty included): F1 1.0, which no gold exceeds.
                em, best = 1, 1.0
                break
            # Each gold walks a copy of the prediction's token counts, taking one
            # from a token's count at each match (none when a side is empty): the
            # same integer as ``sum((Counter(tokens) & Counter(gold_tokens)).values())``.
            remaining = counts.copy()
            num_same = 0
            for token in gold_tokens:
                count = remaining.get(token)
                if count:
                    remaining[token] = count - 1
                    num_same += 1
            if num_same:
                precision = num_same / len(tokens)
                recall = num_same / len(gold_tokens)
                best = max(best, 2 * precision * recall / (precision + recall))
        per_example[qa.id] = ExampleScore(em, best)
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


def check_max_n(max_n: int) -> None:
    """BLEU's one rule on ``max_n``: at least 1, else a ConfigurationError."""
    if max_n < 1:
        raise ConfigurationError(f"max_n must be >= 1, got {max_n}")


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
    check_max_n(max_n)

    hypothesis_length = sum(len(h) for h in hypotheses)
    reference_length = sum(len(r) for r in references)

    # clipped[n] and total[n]: matched and all hypothesis n-grams, corpus-wide.
    clipped = [0] * (max_n + 1)
    total = [0] * (max_n + 1)
    # A unigram is the token itself; an n-gram is the pair of the (n-1)-gram
    # at its position and the token that follows it, so each order costs one
    # new slice per side. When a hypothesis's n-grams are all distinct, each
    # is matched at most once, so the clipped count is the size of a set
    # intersection; only a (pair, n) with a repeated n-gram clips by counts.
    # An n-gram matches only if its (n-1)-gram does, so a pair stops at its
    # first order without a match and its longer n-grams only add to total.
    for hypothesis, reference in zip(hypotheses, references):
        length = len(hypothesis)
        upper = min(length, max_n)
        hypothesis_ngrams, reference_ngrams = hypothesis, reference
        for n in range(1, upper + 1):
            if n > 1:
                hypothesis_ngrams = list(zip(hypothesis_ngrams, hypothesis[n - 1:]))
                reference_ngrams = list(zip(reference_ngrams, reference[n - 1:]))
            count = length - n + 1
            total[n] += count
            distinct = set(hypothesis_ngrams)
            if len(distinct) == count:
                matched = len(distinct.intersection(reference_ngrams))
            else:
                counts = Counter(hypothesis_ngrams)
                reference_counts = Counter(reference_ngrams)
                matched = sum(
                    min(counts[ngram], reference_counts[ngram])
                    for ngram in counts.keys() & reference_counts.keys()
                )
            if not matched:
                for longer in range(n + 1, upper + 1):
                    total[longer] += length - longer + 1
                break
            clipped[n] += matched

    log_precision_sum = 0.0
    for n in range(1, max_n + 1):
        if clipped[n] == 0 or total[n] == 0:
            return 0.0
        log_precision_sum += math.log(clipped[n] / total[n]) / max_n

    brevity_penalty = (
        1.0
        if hypothesis_length > reference_length
        else math.exp(1.0 - reference_length / hypothesis_length)
    )
    return 100.0 * brevity_penalty * math.exp(log_precision_sum)
