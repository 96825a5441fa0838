"""Conditional sequence generation: decode-format contract and a seeded reference backend.

The reference backend is a word-level n-gram model with add-one smoothing.
It exists so the whole sample -> score -> filter path can run hermetically
with exact, hand-checkable probabilities; a real neural service plugs in
through the same interface (see ``remote``).
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from .errors import ConfigurationError, DataError

__all__ = [
    "EOS_TOKEN",
    "GenerationRequest",
    "Candidate",
    "ReferenceBackend",
    "format_target",
    "conditioning_text",
    "train_reference",
    "derive_seed",
]

EOS_TOKEN = "</s>"
_PAD_TOKEN = "<pad>"


def format_target(question: str, answer: str) -> str:
    """Join a question and answer into the single decoder target string.

    The output is ``question <q> answer <a>`` with exactly one space after
    each marker; both parts must be non-empty.
    """
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    if not answer or not answer.strip():
        raise ValueError("answer must be non-empty")
    return f"question {question} answer {answer}"


@dataclass(frozen=True)
class GenerationRequest:
    """One conditional generation call.

    ``target_language`` switches on cross-lingual conditioning: the backend
    must generate in that language regardless of the passage language.
    ``answer`` is opaque request metadata for backends that condition on a
    pre-specified answer; it is forwarded on the wire and otherwise ignored.
    """

    passage: str
    language: str
    num_samples: int
    top_k: int
    max_output_tokens: int
    target_language: str | None = None
    answer: str | None = None

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_output_tokens < 1:
            raise ValueError(
                f"max_output_tokens must be >= 1, got {self.max_output_tokens}"
            )


@dataclass(frozen=True)
class Candidate:
    """One raw decoded sequence and its total log-probability (natural log)."""

    text: str
    lm_score: float

    def to_record(self) -> dict:
        return {"text": self.text, "lm_score": self.lm_score}

    @classmethod
    def from_record(cls, record: Any) -> "Candidate":
        """Inverse of ``to_record``; a missing or wrong-typed field raises DataError."""
        if (
            not isinstance(record, dict)
            or type(record.get("text")) is not str
            or type(record.get("lm_score")) not in (int, float)
        ):
            raise DataError("candidate needs a string 'text' and a numeric 'lm_score'")
        return cls(text=record["text"], lm_score=record["lm_score"])


def conditioning_text(request: GenerationRequest) -> str:
    """Text the backend conditions on: the passage, plus a trailing language tag in cross-lingual mode."""
    if request.target_language is None:
        return request.passage
    return f"{request.passage} <lang:{request.target_language}>"


def derive_seed(global_seed: int, passage_id: str) -> int:
    """Stable per-passage seed so parallel schedules reproduce identical samples."""
    digest = hashlib.sha256(f"{global_seed}:{passage_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _initial_context(tokens: Sequence[str], order: int) -> tuple[str, ...]:
    if order <= 1:
        return ()
    window = list(tokens[-(order - 1):])
    padding = [_PAD_TOKEN] * (order - 1 - len(window))
    return tuple(padding + window)


def _shift_context(context: tuple[str, ...], token: str, order: int) -> tuple[str, ...]:
    if order <= 1:
        return ()
    return (context + (token,))[-(order - 1):]


class ReferenceBackend:
    """Add-one-smoothed word n-gram generator conditioned on a passage window.

    Conditioning keeps the last ``order - 1`` whitespace tokens of the
    passage as the initial context, so every conditional
    ``p(token | context)`` is ``(count + a) / (total + a * (V + 1))`` with
    ``a`` the smoothing constant and ``V + 1`` the vocabulary plus the
    end-of-sequence symbol. Per context these sum to exactly 1. Scores are
    sums of token log-probabilities and exclude the end-of-sequence term,
    so rescoring a decoded text reproduces its sampling-time score and the
    score of a full target splits exactly into prefix + continuation.

    Instances are immutable after construction and safe to share across
    threads; sampling determinism comes from the caller-provided seed.
    """

    def __init__(
        self,
        order: int,
        vocabulary: Iterable[str],
        counts: dict[tuple[str, ...], Counter],
        smoothing: float = 1.0,
    ):
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        if smoothing <= 0:
            raise ConfigurationError(f"smoothing must be positive, got {smoothing}")
        self.order = order
        self.vocabulary = tuple(sorted(set(vocabulary)))
        self.counts = counts
        self.smoothing = smoothing
        self._emittable = self.vocabulary + (EOS_TOKEN,)
        self._context_totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
        self._distribution_cache: dict[tuple[str, ...], tuple[list[str], list[float]]] = {}

    def probability(self, context: tuple[str, ...], token: str) -> float:
        """Smoothed conditional probability of one token (or EOS_TOKEN) after a context."""
        counter = self.counts.get(context)
        count = counter[token] if counter is not None else 0
        total = self._context_totals.get(context, 0)
        slots = len(self.vocabulary) + 1
        return (count + self.smoothing) / (total + self.smoothing * slots)

    def score_sequence(self, passage: str, target: str) -> float:
        """Sum of conditional token log-probabilities of ``target`` given ``passage``.

        ``passage`` is the full conditioning text; to score a continuation,
        pass the already-decoded prefix appended to the passage. Unknown
        tokens are handled by smoothing, never an error.
        """
        target_tokens = target.split()
        if not target_tokens:
            raise ValueError("target must be non-empty")
        context = _initial_context(passage.split(), self.order)
        score = 0.0
        for token in target_tokens:
            score += math.log(self.probability(context, token))
            context = _shift_context(context, token, self.order)
        return score

    def generate(self, request: GenerationRequest, seed: int = 0) -> list[Candidate]:
        """Draw ``num_samples`` candidates by top-k sampling.

        Each decode step restricts to the ``top_k`` most probable next
        symbols (ties broken lexicographically), renormalizes, and draws;
        decoding stops at end-of-sequence or ``max_output_tokens``. The
        reported score is always the full-distribution log-probability of
        the emitted tokens, so it matches ``score_sequence`` exactly.
        """
        rng = random.Random(seed)
        base_context = _initial_context(conditioning_text(request).split(), self.order)
        candidates = []
        for _ in range(request.num_samples):
            tokens, score = self._sample_sequence(
                rng, base_context, request.top_k, request.max_output_tokens
            )
            candidates.append(Candidate(text=" ".join(tokens), lm_score=score))
        return candidates

    def _sample_sequence(
        self,
        rng: random.Random,
        context: tuple[str, ...],
        top_k: int,
        max_tokens: int,
    ) -> tuple[list[str], float]:
        tokens: list[str] = []
        score = 0.0
        while len(tokens) < max_tokens:
            symbols, probs = self._distribution(context)
            k = min(top_k, len(symbols))
            mass = sum(probs[:k])
            draw = rng.random() * mass
            pick = k - 1
            acc = 0.0
            for i in range(k):
                acc += probs[i]
                if draw < acc:
                    pick = i
                    break
            symbol = symbols[pick]
            if symbol == EOS_TOKEN:
                break
            tokens.append(symbol)
            score += math.log(probs[pick])
            context = _shift_context(context, symbol, self.order)
        return tokens, score

    def _distribution(self, context: tuple[str, ...]) -> tuple[list[str], list[float]]:
        cached = self._distribution_cache.get(context)
        if cached is None:
            ranked = sorted(
                ((symbol, self.probability(context, symbol)) for symbol in self._emittable),
                key=lambda pair: (-pair[1], pair[0]),
            )
            cached = ([s for s, _ in ranked], [p for _, p in ranked])
            self._distribution_cache[context] = cached
        return cached


def train_reference(
    corpus: Iterable[tuple[str, str, str]],
    order: int = 3,
    smoothing: float = 1.0,
) -> ReferenceBackend:
    """Fit a ReferenceBackend on (passage, question, answer) triples.

    Each example contributes the token transitions of its formatted target
    (plus a final end-of-sequence step), conditioned on the passage window.
    Training is deterministic: two fits on the same corpus score and sample
    identically.
    """
    examples = list(corpus)
    if not examples:
        raise ConfigurationError("training corpus is empty")
    counts: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    vocabulary: set[str] = set()
    for passage, question, answer in examples:
        target_tokens = format_target(question, answer).split()
        passage_tokens = passage.split()
        vocabulary.update(passage_tokens)
        vocabulary.update(target_tokens)
        context = _initial_context(passage_tokens, order)
        for token in [*target_tokens, EOS_TOKEN]:
            counts[context][token] += 1
            context = _shift_context(context, token, order)
    return ReferenceBackend(order, vocabulary, dict(counts), smoothing)
