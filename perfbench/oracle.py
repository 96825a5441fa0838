"""Reference scorer for the benchmark's output checks, written from the README's spec.

It shares no code with ``qaforge.metrics``: EM/F1 under the ``squad`` and
``mlqa`` normalizations for the languages the benchmark generates (en, es,
zh), and unsmoothed corpus BLEU-4 with the brevity penalty.
"""

from __future__ import annotations

import math
import re
import string
import unicodedata
from collections import Counter

SQUAD_ARTICLES = ("a", "an", "the")
# The mlqa rows of the shipped normalization table (profile_version 1).
MLQA_ARTICLES = {
    "en": ("a", "an", "the"),
    "es": ("el", "la", "los", "las", "un", "una", "unos", "unas", "del", "al"),
    "zh": (),
}


def _is_han(ch: str) -> bool:
    return "㐀" <= ch <= "䶿" or "一" <= ch <= "鿿" or "豈" <= ch <= "﫿"


def segment(text: str, per_character: bool) -> list[str]:
    """Whitespace tokens; with ``per_character``, every Han character is its own token."""
    if not per_character:
        return text.split()
    tokens = []
    for word in text.split():
        run = ""
        for ch in word:
            if _is_han(ch):
                if run:
                    tokens.append(run)
                    run = ""
                tokens.append(ch)
            else:
                run += ch
        if run:
            tokens.append(run)
    return tokens


def normalize(text: str, mode: str, language: str) -> str:
    text = text.lower()
    if mode == "squad":
        text = "".join(ch for ch in text if ch not in string.punctuation)
        articles = SQUAD_ARTICLES
    else:
        text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
        articles = MLQA_ARTICLES[language]
    if articles:
        text = re.sub(r"\b(?:%s)\b" % "|".join(sorted(articles)), " ", text)
    return " ".join(text.split())


def _f1(prediction: list[str], gold: list[str]) -> float:
    if not prediction and not gold:
        return 1.0
    if not prediction or not gold:
        return 0.0
    same = sum((Counter(prediction) & Counter(gold)).values())
    if same == 0:
        return 0.0
    precision = same / len(prediction)
    recall = same / len(gold)
    return 2 * precision * recall / (precision + recall)


def score_document(document: dict, predictions: dict, mode: str, language: str) -> list:
    """[EM %, F1 %, entries] of one SQuAD-1.1 document, max over each entry's golds."""
    per_character = mode == "mlqa" and language == "zh"
    ems, f1s = [], []
    for article in document["data"]:
        for paragraph in article["paragraphs"]:
            for qa in paragraph["qas"]:
                predicted = normalize(predictions[qa["id"]], mode, language)
                golds = [normalize(a["text"], mode, language) for a in qa["answers"]]
                ems.append(int(any(predicted == gold for gold in golds)))
                f1s.append(max(_f1(segment(predicted, per_character),
                                   segment(gold, per_character)) for gold in golds))
    total = len(ems)
    return [100.0 * sum(ems) / total, 100.0 * sum(f1s) / total, total]


def corpus_bleu(hypotheses: list[list[str]], references: list[list[str]], max_n: int = 4) -> float:
    log_sum = 0.0
    for n in range(1, max_n + 1):
        clipped = total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total += sum(hyp_grams.values())
            clipped += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        if clipped == 0 or total == 0:
            return 0.0
        log_sum += math.log(clipped / total) / max_n
    c = sum(len(h) for h in hypotheses)
    r = sum(len(x) for x in references)
    penalty = 1.0 if c > r else math.exp(1.0 - r / c)
    return 100.0 * penalty * math.exp(log_sum)
