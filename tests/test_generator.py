from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.errors import ConfigurationError
from qaforge.generator import (
    EOS_TOKEN,
    Candidate,
    GenerationRequest,
    ReferenceBackend,
    conditioning_text,
    _initial_context,
    _shift_context,
    derive_seed,
    format_target,
    train_reference,
)

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "reference_golden.json"


def request(passage: str, **overrides) -> GenerationRequest:
    defaults = dict(
        passage=passage,
        language="en",
        num_samples=1,
        top_k=1,
        max_output_tokens=32,
    )
    defaults.update(overrides)
    return GenerationRequest(**defaults)


class TestFormatTarget:
    def test_markers_with_single_spaces(self):
        question = "Wann wurde der Pashuk-Gletscher von den Bulgaren kartiert?"
        assert format_target(question, "2009") == (
            "question Wann wurde der Pashuk-Gletscher von den Bulgaren kartiert? "
            "answer 2009"
        )

    def test_minimal_pair(self):
        assert format_target("q", "a") == "question q answer a"

    @pytest.mark.parametrize("question,answer", [("", "a"), ("q", ""), ("  ", "a")])
    def test_empty_parts_rejected(self, question, answer):
        with pytest.raises(ValueError):
            format_target(question, answer)


class TestTrainReference:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            train_reference([])

    def test_hand_computed_single_token_scores(self):
        # One triple, order 2: context ("p",) has one observed transition
        # ("question"); vocabulary {p, q, a, question, answer} plus EOS gives
        # 6 smoothing slots, so p(question|p) = 2/7 and p(unseen|p) = 1/7.
        backend = train_reference([("p", "q", "a")], order=2)
        assert backend.score_sequence("p", "question") == pytest.approx(
            math.log(2 / 7), abs=1e-12
        )
        assert backend.score_sequence("p", "zzz") == pytest.approx(
            math.log(1 / 7), abs=1e-12
        )

    def test_distributions_sum_to_one(self, toy_backend):
        contexts = list(toy_backend.counts)[:10] + [("never", "seen")]
        for context in contexts:
            total = sum(
                toy_backend.probability(context, token)
                for token in toy_backend.vocabulary
            ) + toy_backend.probability(context, EOS_TOKEN)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_training_is_deterministic(self, toy_corpus):
        first = train_reference(toy_corpus, order=3)
        second = train_reference(toy_corpus, order=3)
        passage = toy_corpus[0][0]
        target = "question water answer stone garden"
        assert first.score_sequence(passage, target) == second.score_sequence(
            passage, target
        )

    def test_greedy_regenerates_single_training_target(self):
        backend = train_reference(
            [("the river flows", "where does it flow", "to sea")], order=2
        )
        [candidate] = backend.generate(request("the river flows"), seed=5)
        assert candidate.text == "question where does it flow answer to sea"

    def test_order_one_model_ignores_context(self):
        backend = train_reference([("p", "q", "a")], order=1)
        assert backend.score_sequence("p", "q") == backend.score_sequence(
            "totally different", "q"
        )
        [candidate] = backend.generate(request("anything"), seed=1)
        assert candidate.lm_score <= 0.0


class TestGenerate:
    def test_returns_requested_sample_count(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, num_samples=20, top_k=10)
        assert len(toy_backend.generate(req, seed=1)) == 20

    def test_greedy_run_is_deterministic(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, top_k=1)
        first = toy_backend.generate(req, seed=9)
        second = toy_backend.generate(req, seed=9)
        assert first == second

    def test_seed_determines_candidate_sequence(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, num_samples=5, top_k=10)
        assert toy_backend.generate(req, seed=3) == toy_backend.generate(req, seed=3)
        assert toy_backend.generate(req, seed=3) != toy_backend.generate(req, seed=4)

    def test_reported_score_matches_rescoring(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, num_samples=20, top_k=10)
        for candidate in toy_backend.generate(req, seed=17):
            if not candidate.text:
                continue
            rescored = toy_backend.score_sequence(toy_passages[0].text, candidate.text)
            assert abs(rescored - candidate.lm_score) < 1e-9

    def test_top_k_one_equals_argmax_walk(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, top_k=1, max_output_tokens=12)
        [candidate] = toy_backend.generate(req, seed=0)

        # Re-derive the greedy path through the public probability surface.
        window = toy_backend.order - 1
        stream = toy_passages[0].text.split()
        tokens: list[str] = []
        for _ in range(12):
            ctx = tuple(stream[-window:]) if window else ()
            ranked = sorted(
                ((s, toy_backend.probability(ctx, s))
                 for s in (*toy_backend.vocabulary, EOS_TOKEN)),
                key=lambda pair: (-pair[1], pair[0]),
            )
            symbol = ranked[0][0]
            if symbol == EOS_TOKEN:
                break
            tokens.append(symbol)
            stream.append(symbol)
        assert candidate.text == " ".join(tokens)

    def test_max_output_tokens_caps_length(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, num_samples=10, top_k=10, max_output_tokens=4)
        for candidate in toy_backend.generate(req, seed=2):
            assert len(candidate.text.split()) <= 4

    def test_scores_are_never_positive(self, toy_backend, toy_passages):
        req = request(toy_passages[0].text, num_samples=20, top_k=15)
        for candidate in toy_backend.generate(req, seed=6):
            assert candidate.lm_score <= 0.0

    def test_target_language_changes_conditioning(self, toy_backend, toy_passages):
        plain = request(toy_passages[0].text)
        tagged = request(toy_passages[0].text, target_language="de")
        assert conditioning_text(plain) == toy_passages[0].text
        assert conditioning_text(tagged).endswith("<lang:de>")
        [cand] = toy_backend.generate(tagged, seed=8)
        if cand.text:
            rescored = toy_backend.score_sequence(conditioning_text(tagged), cand.text)
            assert abs(rescored - cand.lm_score) < 1e-9

    @pytest.mark.parametrize(
        "field,value",
        [("num_samples", 0), ("top_k", 0), ("max_output_tokens", 0)],
    )
    def test_invalid_request_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            request("p", **{field: value})


def full_ranking(backend: ReferenceBackend, context: tuple[str, ...]):
    """Reference decoder ranking: every emittable symbol scored and sorted by (-p, symbol)."""
    return sorted(
        (
            (symbol, backend.probability(context, symbol))
            for symbol in (*backend.vocabulary, EOS_TOKEN)
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )


# Symbols on both sides of EOS_TOKEN ("</s>") in sort order, and one spelled like it.
_SYMBOLS = st.sampled_from(
    ["!", "0", "1999", ";", "<", "</r>", "</s>", "</t>", "<pad>", "a", "answer", "b", "z", "~"]
)


@st.composite
def small_models(draw):
    order = draw(st.integers(1, 3))
    vocabulary = draw(st.sets(_SYMBOLS, min_size=1, max_size=12))
    emittable = sorted(vocabulary | {EOS_TOKEN})
    contexts = st.tuples(*[st.sampled_from([*emittable, "<pad>"])] * (order - 1))
    counts = draw(
        st.dictionaries(
            contexts,
            st.dictionaries(st.sampled_from(emittable), st.integers(1, 5), max_size=6).map(
                Counter
            ),
            max_size=5,
        )
    )
    smoothing = draw(st.sampled_from([1.0, 0.5, 0.1, 2.5]))
    backend = ReferenceBackend(order, vocabulary, counts, smoothing)
    queries = [*counts, draw(contexts), ("never", "seen")[: order - 1]]
    k = draw(st.integers(1, len(vocabulary) + 4))
    return backend, queries, k


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(small_models())
    def test_equals_head_of_full_ranking(self, model):
        backend, queries, k = model
        for context in queries:
            ranked = full_ranking(backend, context)[:k]
            symbols, probs = backend._top_k(context, k)
            assert symbols == [symbol for symbol, _ in ranked]
            assert probs == [p for _, p in ranked]

    def test_golden_generate_output(self):
        # Recorded from the decoder that ranked all V + 1 symbols per context.
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert golden_output() == golden["runs"]

    def test_cache_is_bounded_by_the_trained_model(self, toy_corpus):
        backend = train_reference(toy_corpus, order=3)
        top_ks = (1, 4, 10)
        bound = (len(backend.counts) + 1) * len(top_ks)
        # Each passage ends on its own untrained context pair.
        passages = [f"unseen{i} tail{i}" for i in range(bound + 50)]
        for index, passage in enumerate(passages):
            top_k = top_ks[index % len(top_ks)]
            backend.generate(request(passage, top_k=top_k, max_output_tokens=6), seed=index)
        assert len(backend._top_k_cache) <= bound



def oracle_generate(backend: ReferenceBackend, req: GenerationRequest, seed: int):
    """Reference decoder: per step the full ranking, a sum, a linear scan and a log."""
    rng = random.Random(seed)
    base_context = _initial_context(conditioning_text(req).split(), backend.order)
    candidates = []
    for _ in range(req.num_samples):
        context = base_context
        tokens: list[str] = []
        score = 0.0
        while len(tokens) < req.max_output_tokens:
            ranked = full_ranking(backend, context)[: req.top_k]
            symbols = [symbol for symbol, _ in ranked]
            probs = [p for _, p in ranked]
            k = len(symbols)
            mass = sum(probs)
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
            context = _shift_context(context, symbol, backend.order)
        candidates.append(Candidate(text=" ".join(tokens), lm_score=score))
    return candidates


class TestDecoder:
    @settings(max_examples=300, deadline=None)
    @given(small_models(), st.integers(0, 2**32), st.integers(1, 12))
    def test_generate_equals_the_reference_decoder(self, model, seed, max_tokens):
        backend, queries, k = model
        for context in queries:
            # The leading word keeps the passage non-empty at order 1.
            req = request(
                " ".join(("lead", *context)),
                num_samples=4,
                top_k=k,
                max_output_tokens=max_tokens,
            )
            assert backend.generate(req, seed=seed) == oracle_generate(backend, req, seed)


def golden_output() -> list[dict]:
    """``generate`` output of an order-3 model over a few hundred words.

    The year tokens sort before EOS_TOKEN, the ``w`` words after it.
    """
    rng = random.Random(4242)
    pool = [f"w{i:03d}" for i in range(300)] + [str(year) for year in range(1900, 1960)]
    corpus = []
    for _ in range(150):
        passage = " ".join(rng.choice(pool) for _ in range(rng.randint(6, 12)))
        question = " ".join(rng.choice(pool) for _ in range(rng.randint(2, 5)))
        answer = " ".join(rng.choice(passage.split()) for _ in range(rng.randint(1, 2)))
        corpus.append((passage, question, answer))
    backend = train_reference(corpus, order=3)
    # Two passages end on a trained context, two on an untrained one.
    passages = [corpus[0][0], corpus[1][0]] + [
        " ".join(rng.choice(pool) for _ in range(8)) for _ in range(2)
    ]
    runs = []
    for index, passage in enumerate(passages):
        for top_k in (1, 3, 40, len(backend.vocabulary) + 5):
            req = request(passage, num_samples=3, top_k=top_k, max_output_tokens=12)
            candidates = backend.generate(req, seed=derive_seed(5, f"g{index}"))
            runs.append(
                {
                    "passage": index,
                    "top_k": top_k,
                    "candidates": [[c.text, repr(c.lm_score)] for c in candidates],
                }
            )
    return runs


class TestScoreSequence:
    def test_chain_rule_splits_exactly(self, toy_backend, toy_corpus):
        passage, question, answer = toy_corpus[3]
        full = toy_backend.score_sequence(passage, format_target(question, answer))
        prefix = toy_backend.score_sequence(passage, f"question {question}")
        continuation = toy_backend.score_sequence(
            f"{passage} question {question}", f"answer {answer}"
        )
        assert abs(full - (prefix + continuation)) < 1e-9

    def test_unknown_tokens_are_smoothed_not_errors(self, toy_backend):
        score = toy_backend.score_sequence("anything", "totally unseen tokens")
        assert math.isfinite(score) and score < 0

    def test_empty_target_rejected(self, toy_backend):
        with pytest.raises(ValueError):
            toy_backend.score_sequence("p", "   ")

    def test_random_targets_score_at_most_zero(self, toy_backend):
        rng = random.Random(99)
        vocab = list(toy_backend.vocabulary)
        for _ in range(50):
            target = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
            assert toy_backend.score_sequence("stone garden", target) <= 0.0


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, "p001") == derive_seed(7, "p001")
        assert derive_seed(7, "p001") != derive_seed(7, "p002")
        assert derive_seed(7, "p001") != derive_seed(8, "p001")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123456789, "pid") < 2**64


class TestCandidate:
    def test_value_semantics(self):
        assert Candidate("t", -1.0) == Candidate("t", -1.0)
