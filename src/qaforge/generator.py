"""Conditional sequence generation: decode-format contract and a seeded reference backend.

The reference backend is a word-level n-gram model with add-one smoothing.
It exists so the whole sample -> score -> filter path can run hermetically
with exact, hand-checkable probabilities; a real neural service plugs in
through the same interface (see ``remote``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, NamedTuple

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
        """Inverse of ``to_record``; a missing, wrong-typed or non-finite field is a DataError."""
        if (
            not isinstance(record, dict)
            or type(record.get("text")) is not str
            or type(record.get("lm_score")) not in (int, float)
        ):
            raise DataError("candidate needs a string 'text' and a numeric 'lm_score'")
        try:
            lm_score = float(record["lm_score"])
        except OverflowError:  # an integer beyond the float range
            lm_score = math.inf
        if not math.isfinite(lm_score):
            raise DataError("candidate 'lm_score' must be finite")
        return cls(text=record["text"], lm_score=lm_score)


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


class _SamplingTable(NamedTuple):
    """What a decode step needs of the top-k symbols after one context."""

    symbols: list[str]
    cumulative: list[float]  # running sums of the probabilities, left to right
    # sum() of the probabilities, the draw's scale; from Python 3.12 sum()
    # compensates rounding, so it need not equal cumulative[-1].
    mass: float
    logs: list[float]  # natural log of each probability


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

    The model is fixed at construction. Each decode step reads a sampling
    table built at the first use of its (context, k) and memoized; instances
    are safe to share across threads, since racing threads build and store
    equal tables. Sampling determinism comes from the caller-provided seed.
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
        # Every emittable symbol in lexicographic order: EOS goes where it sorts.
        eos_at = bisect.bisect_left(self.vocabulary, EOS_TOKEN)
        self._lexicographic = self.vocabulary[:eos_at] + (EOS_TOKEN,) + self.vocabulary[eos_at:]
        self._context_totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
        # Keyed by (trained context or None, k): every untrained context has
        # total 0 and so the same ranking, which bounds the cache by the model.
        self._top_k_cache: dict[tuple[tuple[str, ...] | None, int], _SamplingTable] = {}

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
        shifts = self.order > 1
        while len(tokens) < max_tokens:
            symbols, cumulative, mass, logs = self._sampling_table(context, top_k)
            # The first running sum above the draw; a draw that rounding puts
            # past the last sum takes the last symbol.
            pick = bisect.bisect_right(cumulative, rng.random() * mass)
            if pick == len(symbols):
                pick -= 1
            symbol = symbols[pick]
            if symbol == EOS_TOKEN:
                break
            tokens.append(symbol)
            score += logs[pick]
            if shifts:
                # Initial contexts hold exactly order - 1 tokens.
                context = context[1:] + (symbol,)
        return tokens, score

    def _sampling_table(self, context: tuple[str, ...], k: int) -> _SamplingTable:
        """The decode-step table of the top ``k`` symbols after ``context``, built at first use."""
        key = (context if context in self.counts else None, k)
        table = self._top_k_cache.get(key)
        if table is None:
            symbols, probs = self._top_k(context, k)
            table = _SamplingTable(
                symbols, list(accumulate(probs)), sum(probs), [math.log(p) for p in probs]
            )
            self._top_k_cache[key] = table
        return table

    def _top_k(self, context: tuple[str, ...], k: int) -> tuple[list[str], list[float]]:
        """The first ``k`` symbols by ``(-probability, symbol)``, and their probabilities.

        Under additive smoothing every symbol not counted after ``context``
        has the same probability, no higher than that of a counted one, and
        they rank among themselves lexicographically. So the exact head of the
        ranking comes from the counted symbols plus the first ``k`` symbols in
        lexicographic order: O(counted + k) work per new context instead of
        ranking all V + 1 symbols.
        """
        lexicographic = self._lexicographic
        # Positions, not symbols: a vocabulary word spelled like EOS_TOKEN
        # occupies two places in the ranking, as in the full list.
        counted = {
            position
            for symbol in self.counts.get(context, ())
            for position in range(
                bisect.bisect_left(lexicographic, symbol),
                bisect.bisect_right(lexicographic, symbol),
            )
        }
        pool = counted.union(range(min(len(lexicographic), k)))
        ranked = sorted(
            ((lexicographic[i], self.probability(context, lexicographic[i])) for i in pool),
            key=lambda pair: (-pair[1], pair[0]),
        )[:k]
        return [s for s, _ in ranked], [p for _, p in ranked]


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
