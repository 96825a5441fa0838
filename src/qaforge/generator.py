"""Conditional sequence generation: decode-format contract and a seeded reference backend.

The reference backend is a word-level n-gram model with add-one smoothing.
It exists so the whole sample -> score -> filter path can run hermetically
with exact, hand-checkable probabilities; a real neural service plugs in
through the same interface (see ``remote``).
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
import math
import random
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from typing import Any, NamedTuple

from .corpus import language_code
from .errors import ConfigurationError, DataError

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
    must generate in that language regardless of the passage language. It
    is kept as its language code (``" DE"`` is ``"de"``); a blank one is a
    ValueError.
    """

    passage: str
    language: str
    num_samples: int
    top_k: int
    max_output_tokens: int
    target_language: str | None = None

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_output_tokens < 1:
            raise ValueError(
                f"max_output_tokens must be >= 1, got {self.max_output_tokens}"
            )
        if self.target_language is not None:
            code = language_code(self.target_language)
            if not code:
                raise ValueError(
                    f"target_language must not be blank, got {self.target_language!r}"
                )
            object.__setattr__(self, "target_language", code)


class Candidate(NamedTuple):
    """One raw decoded sequence and its total log-probability (natural log)."""

    text: str
    lm_score: float

    def to_record(self) -> dict:
        return self._asdict()

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


def check_order(order: int) -> None:
    """The reference backend's one rule on ``order``: at least 1, else a ConfigurationError."""
    if order < 1:
        raise ConfigurationError(f"order must be >= 1, got {order}")


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


# How many emittable symbols, in lexicographic order, construction keeps for
# the uncounted fill. A fill runs only when fewer than k counted symbols are
# emittable, and reads at most k plus the counted symbols. In a fitted model
# every counted symbol is emittable, so a fill reads fewer than 2k symbols.
_PREFIX_SYMBOLS = 64


class ReferenceBackend:
    """Add-one-smoothed word n-gram generator conditioned on a passage window.

    Conditioning keeps the last ``order - 1`` whitespace tokens of the
    passage as the initial context, so every conditional
    ``p(token | context)`` is ``(count + 1) / (total + V + 1)`` with ``V + 1``
    the vocabulary plus the end-of-sequence symbol. Per context these sum to
    exactly 1. Scores are sums of token log-probabilities and exclude the
    end-of-sequence term, so rescoring a decoded text reproduces its
    sampling-time score and the score of a full target splits exactly into
    prefix + continuation.

    The model is fixed at construction. Each decode step reads a sampling
    table built at the first use of its (context, k) and memoized: the cache
    maps k to a dict from trained context to table, in which every untrained
    context shares the table under None. A trained context's table links to
    the table after each of its symbols, filled at first use, so a step out
    of a trained context is one list index; a step out of the shared table
    rebuilds its context and looks it up. Instances are safe to share across
    threads: racing threads keep the table stored first under each key, and
    link to that one. Links form reference cycles, so a dropped backend's
    tables wait for the cyclic garbage collector. A table is a plain tuple,
    not a NamedTuple: CPython specializes a decode step's five-way unpack
    only for an exact tuple. Sampling determinism comes from the
    caller-provided seed.
    A table ranks by count, ties lexicographic, which is the probability
    order: a new context costs one C sort of its counted symbols by count, a
    sort of each tie group the first k reach, one lookup in the vocabulary
    set the backend keeps per counted symbol reached, and one denominator. A
    counted symbol outside the vocabulary is never emitted.

    ``counts`` maps each trained context to its successors' counts, plain
    dicts or Counters. Construction sums each context's counts once and
    keeps the vocabulary as a set, with only the first few emittable symbols
    in lexicographic order: all that an uncounted fill reads at a small k. A
    fill that may read past them replaces them with the whole order, once.
    ``vocabulary``, the sorted tuple, is built at its first read; decoding
    and scoring never read it. A ``vocabulary`` given as a set is kept, not
    copied: from then on the backend owns it, and the caller must not change
    it (``train_reference`` hands over the set its fit built). Any other
    iterable is copied into a new set.

    ``corpus_sha256`` is the sha256 of the training-corpus bytes the model
    was fit on, when ``pipeline.build_backend`` fit it from a file, and None
    for a backend built in memory.
    """

    corpus_sha256: str | None = None

    def __init__(
        self,
        order: int,
        vocabulary: Iterable[str],
        counts: dict[tuple[str, ...], dict[str, int]],
    ):
        check_order(order)
        self.order = order
        # The set answers whether a counted symbol is emittable in one lookup.
        self._vocabulary_set = vocabulary if isinstance(vocabulary, set) else set(vocabulary)
        self._vocabulary_size = len(self._vocabulary_set)
        self.counts = counts
        # The first emittable symbols in lexicographic order, EOS where it
        # sorts (twice if a word is spelled like it), found without a sort.
        self._lexicographic_prefix = tuple(heapq.nsmallest(
            _PREFIX_SYMBOLS, chain(self._vocabulary_set, (EOS_TOKEN,))
        ))
        self._context_totals = {ctx: sum(c.values()) for ctx, c in counts.items()}
        # k -> {trained context or None: table}. Every untrained context has
        # total 0 and so the same ranking: it shares the table under None,
        # which bounds the cache by the model.
        self._top_k_cache: dict[int, dict[tuple[str, ...] | None, tuple]] = {}

    @functools.cached_property
    def vocabulary(self) -> tuple[str, ...]:
        """The vocabulary in sorted order, built at its first read."""
        return tuple(sorted(self._vocabulary_set))

    def probability(self, context: tuple[str, ...], token: str) -> float:
        """Add-one-smoothed conditional probability of one token (or EOS_TOKEN) after a context."""
        successors = self.counts.get(context)
        count = successors.get(token, 0) if successors is not None else 0
        total = self._context_totals.get(context, 0)
        return (count + 1.0) / (total + self._vocabulary_size + 1)

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
        top_k = request.top_k
        sampling_table = self._sampling_table
        draw = random.Random(seed).random
        bisect_right = bisect.bisect_right
        eos = EOS_TOKEN
        steps = range(request.max_output_tokens)
        # Only the last order - 1 tokens condition: split off no more.
        tail = conditioning_text(request).rsplit(None, self.order - 1)
        base_context = _initial_context(tail, self.order)
        base_table = sampling_table(base_context, top_k)
        candidates = []
        for _ in range(request.num_samples):
            table = base_table
            tokens: list[str] = []
            score = 0.0
            for _ in steps:
                symbols, bounds, mass, logs, successors = table
                # The first boundary above the draw; a draw past the last boundary,
                # even one that rounding puts past the total, takes the last symbol.
                pick = bisect_right(bounds, draw() * mass)
                symbol = symbols[pick]
                if symbol == eos:
                    break
                tokens.append(symbol)
                score += logs[pick]
                table = successors[pick] if successors is not None else None
                if table is None:
                    # No link yet, or the shared untrained table: the context is
                    # the last order - 1 of base_context and the tokens.
                    table = sampling_table((*base_context, *tokens)[len(tokens):], top_k)
                    if successors is not None:
                        successors[pick] = table
            # tuple.__new__ skips NamedTuple.__new__, a Python-level frame per candidate.
            candidates.append(tuple.__new__(Candidate, (" ".join(tokens), score)))
        return candidates

    def _sampling_table(self, context: tuple[str, ...], k: int) -> tuple:
        """The decode-step table of the top ``k`` symbols after ``context``, built at first use.

        The table is the exact 5-tuple ``(symbols, bounds, mass, logs,
        successors)`` that a decode step unpacks; a tuple subclass would
        take the interpreter's unspecialized unpack.
        """
        tables = self._top_k_cache.setdefault(k, {})
        trained = context in self.counts
        key = context if trained else None
        table = tables.get(key)
        if table is None:
            symbols, probs = self._top_k(context, k)
            # setdefault: racing threads keep the one table stored first.
            table = tables.setdefault(key, (
                symbols,
                # Running sums of the probabilities, left to right, but the
                # last: the boundaries between the symbols' intervals.
                list(accumulate(probs[:-1])),
                # sum() of the probabilities, the draw's scale; from Python
                # 3.12 sum() compensates rounding, so it need not equal the
                # last running sum.
                sum(probs),
                [math.log(p) for p in probs],
                # The table after each symbol, linked at first use. None on
                # the table that every untrained context shares: what
                # follows it depends on the real context.
                [None] * len(symbols) if trained else None,
            ))
        return table

    def _top_k(self, context: tuple[str, ...], k: int) -> tuple[list[str], list[float]]:
        """The first ``k`` symbols by ``(-probability, symbol)``, and their probabilities.

        Within a context the probability rises strictly with the count (for
        counts below 2**52), and every uncounted symbol shares the lowest. So
        one loop takes the counted symbols first, in one C sort by count, and
        sorts each tie group lexicographically as it reaches it. Each is
        emitted once per place it holds among the emittable symbols, found by
        one vocabulary set lookup: none outside the vocabulary, two for a word
        spelled like EOS_TOKEN. The loop stops at the ``k``-th symbol. The
        uncounted ones follow in lexicographic order until ``k`` are kept: at
        most ``k`` plus the counted symbols are read, from the prefix kept at
        construction, or from the whole order if the prefix may be too short.
        The ``k`` kept share one denominator.
        """
        counter = self.counts.get(context, {})
        denominator = self._context_totals.get(context, 0) + self._vocabulary_size + 1
        symbols: list[str] = []
        probs: list[float] = []
        count_of = counter.__getitem__
        vocabulary = self._vocabulary_set
        for count, tied in groupby(sorted(counter, key=count_of, reverse=True), count_of):
            prob = (count + 1.0) / denominator
            for symbol in sorted(tied):
                if symbol in vocabulary:
                    symbols.append(symbol)
                    probs.append(prob)
                if symbol == EOS_TOKEN:
                    symbols.append(symbol)
                    probs.append(prob)
                if len(symbols) >= k:
                    # A word spelled like EOS_TOKEN may take the k-th place twice.
                    del symbols[k:], probs[k:]
                    return symbols, probs
        prob = 1.0 / denominator
        lexicographic = self._lexicographic_prefix
        if len(lexicographic) < min(k + len(counter), self._vocabulary_size + 1):
            # The fill may read past a partial prefix: keep the whole order
            # instead, once. Racing threads store equal tuples.
            lexicographic = self._lexicographic_prefix = tuple(
                sorted(chain(self._vocabulary_set, (EOS_TOKEN,)))
            )
        for symbol in lexicographic:
            if symbol not in counter:
                symbols.append(symbol)
                probs.append(prob)
                if len(symbols) == k:
                    break
        return symbols, probs


def train_reference(
    corpus: Iterable[tuple[str, str, str]],
    order: int = 3,
) -> ReferenceBackend:
    """Fit a ReferenceBackend on (passage, question, answer) triples.

    Each example contributes the token transitions of its formatted target
    (plus a final end-of-sequence step), conditioned on the passage window.
    Training is deterministic: two fits on the same corpus score and sample
    identically. A fit costs one pass over the triples building each one's
    token sequence (padded passage window, target tokens, end of sequence),
    one C count of every order-``order`` n-gram of those sequences, one pass
    over the distinct n-grams grouping them by context, one sum per context,
    and one partial selection of the first symbols in lexicographic order;
    the vocabulary is not sorted. An order below 1 is a ConfigurationError,
    raised before the corpus is read.
    """
    check_order(order)
    starts = [slice(start, None) for start in range(order)]
    vocabulary: set[str] = set()

    def transitions() -> Iterator[Iterator[tuple[str, ...]]]:
        """Each triple's n-grams: all but the last token are the context, the last the token."""
        for passage, question, answer in corpus:
            passage_tokens = passage.split()
            target_tokens = format_target(question, answer).split()
            vocabulary.update(passage_tokens)
            vocabulary.update(target_tokens)
            sequence = [*_initial_context(passage_tokens, order), *target_tokens, EOS_TOKEN]
            yield zip(*map(sequence.__getitem__, starts))

    ngrams = Counter(chain.from_iterable(transitions()))
    if not vocabulary:
        raise ConfigurationError("training corpus is empty")
    # Counter keeps first-seen order, so contexts and successors keep theirs.
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for ngram, count in ngrams.items():
        context = ngram[:-1]
        successors = counts.get(context)
        if successors is None:
            counts[context] = {ngram[-1]: count}
        else:
            successors[ngram[-1]] = count
    del ngrams  # freed before the backend sums each context
    return ReferenceBackend(order, vocabulary, counts)
