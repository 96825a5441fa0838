from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_training_corpus
from qaforge.errors import ConfigurationError
from qaforge.generator import (
    EOS_TOKEN,
    _PREFIX_SYMBOLS,
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
BIG_GOLDEN_PATH = Path(__file__).parent / "fixtures" / "reference_big_golden.json"


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
_SYMBOL_LIST = [
    "!", "0", "1999", ";", "<", "</r>", "</s>", "</t>", "<pad>", "a", "answer", "b", "z", "~"
]
_SYMBOLS = st.sampled_from(_SYMBOL_LIST)
# Counts a trained model can hold, up to 2**50: small ones, and huge ones
# whose neighbours differ in probability only in the last bits.
_COUNTS = st.one_of(st.integers(1, 5), st.integers(2**50 - 3, 2**50))


@st.composite
def small_models(draw):
    order = draw(st.integers(1, 3))
    vocabulary = draw(st.sets(_SYMBOLS, min_size=1, max_size=12))
    emittable = sorted(vocabulary | {EOS_TOKEN})
    contexts = st.tuples(*[st.sampled_from([*emittable, "<pad>"])] * (order - 1))
    # Counted symbols may lie outside the vocabulary; drawing each count from
    # a few levels makes many symbols share one, on both sides of EOS_TOKEN.
    counted = st.sampled_from(sorted({*_SYMBOL_LIST, EOS_TOKEN, "zz-unseen"}))
    levels = draw(st.lists(_COUNTS, min_size=1, max_size=3))
    counts = draw(
        st.dictionaries(
            contexts,
            st.dictionaries(counted, st.sampled_from(levels), max_size=8).map(Counter),
            max_size=5,
        )
    )
    backend = ReferenceBackend(order, vocabulary, counts)
    queries = [*counts, draw(contexts), ("never", "seen")[: order - 1]]
    k = draw(st.integers(1, len(vocabulary) + 4))
    return backend, queries, k


class _CountingSet(set):
    """A set that counts the membership tests made of it, per symbol."""

    def __init__(self, items):
        super().__init__(items)
        self.calls = Counter()

    def __contains__(self, item):
        self.calls[item] += 1
        return super().__contains__(item)


def _big_model(extra_counts=(), extra_word=None, all_count_one=False):
    """A 5,000-word vocabulary and 3,000 counted successors, counts 1-9 or all 1."""
    rng = random.Random(7)
    vocabulary = [f"w{i:04d}" for i in range(5000)]
    words = rng.sample(vocabulary, 3000)
    counts = [1] * len(words) if all_count_one else [rng.randint(1, 9) for _ in words]
    successors = Counter(dict(zip(words, counts)))
    successors.update(extra_counts)
    if extra_word is not None:
        vocabulary.append(extra_word)
    return vocabulary, successors


class _CountingReads:
    """A sequence to iterate that counts the items read from it."""

    def __init__(self, items):
        self.items = items
        self.read = 0

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        for item in self.items:
            self.read += 1
            yield item


# Successor counts of one context of a 20,000-word model, few enough that the
# uncounted fill supplies most of the k symbols.
_FILL_CASES = {
    "untrained": None,
    "first-words": {"w00000": 2, "w00001": 1, "w00002": 1},
    "last-word": {"w19999": 3},
    "outside-vocabulary": {"zz-unseen": 4, "w00003": 1},
    "eos": {EOS_TOKEN: 5, "w00000": 1},
    "thirty-early-words": {f"w{i:05d}": 1 + i % 3 for i in range(0, 60, 2)},
}


# Cases of the 5,000-word model; each extra count, 10, ranks first at every k.
_BIG_MODEL_CASES = {
    "counts-1-to-9": {},
    "counted-outside-vocabulary": {"extra_counts": {"zz-unseen": 10}},
    "counted-eos": {"extra_counts": {EOS_TOKEN: 10}},
    "vocabulary-word-spelled-eos": {"extra_counts": {EOS_TOKEN: 10}, "extra_word": EOS_TOKEN},
    # Every counted symbol ties at count 1, so the group straddles each k.
    "count-1-ties-straddle-k": {"all_count_one": True},
}


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

    def test_big_vocabulary_golden_generate_output(self):
        # Recorded from the decoder that scored every counted symbol per context.
        golden = json.loads(BIG_GOLDEN_PATH.read_text(encoding="utf-8"))
        assert big_vocabulary_output() == golden["runs"]

    @pytest.mark.parametrize("k", [1, 10, 40])
    @pytest.mark.parametrize("case", sorted(_BIG_MODEL_CASES))
    def test_new_context_computes_only_k_probabilities(self, monkeypatch, case, k):
        vocabulary, successors = _big_model(**_BIG_MODEL_CASES[case])
        context = ("w0000", "w0001")
        backend = ReferenceBackend(3, vocabulary, {context: successors})
        lookups = _CountingSet(backend._vocabulary_set)
        backend._vocabulary_set = lookups

        def no_bisect(*args, **kwargs):
            raise AssertionError("a table build bisected the vocabulary")

        monkeypatch.setattr(bisect, "bisect_left", no_bisect)
        monkeypatch.setattr(bisect, "bisect_right", no_bisect)
        symbols, probs = backend._top_k(context, k)
        monkeypatch.undo()
        assert len(probs) == k
        # The counted symbols in ranking order, up to the one that fills k.
        emitted = 0
        consumed = []
        for symbol in sorted(successors, key=lambda s: (-successors[s], s)):
            if emitted >= k:
                break
            consumed.append(symbol)
            emitted += (symbol in vocabulary) + (symbol == EOS_TOKEN)
        assert max(lookups.calls.values(), default=0) <= 1
        assert set(lookups.calls) <= set(consumed)
        assert list(zip(symbols, probs)) == full_ranking(backend, context)[:k]

    @pytest.mark.parametrize("k", [1, 10, 40])
    @pytest.mark.parametrize("case", sorted(_FILL_CASES))
    def test_uncounted_fill_reads_at_most_k_and_the_counted(self, case, k):
        context = ("w00000", "w00001")
        successors = _FILL_CASES[case]
        counts = {} if successors is None else {context: Counter(successors)}
        backend = ReferenceBackend(3, [f"w{i:05d}" for i in range(20000)], counts)
        # A fill that may read past the prefix replaces it unread.
        reads = _CountingReads(backend._lexicographic_prefix)
        backend._lexicographic_prefix = reads
        symbols, probs = backend._top_k(context, k)
        assert reads.read <= k + len(successors or ())
        assert list(zip(symbols, probs)) == full_ranking(backend, context)[:k]

    @pytest.mark.parametrize("k", [_PREFIX_SYMBOLS - 3, _PREFIX_SYMBOLS - 2, 100])
    @pytest.mark.parametrize("word_spelled_eos", [False, True])
    def test_fill_past_the_prefix_reads_the_whole_order(self, word_spelled_eos, k):
        context = ("w00000", "w00001")
        successors = Counter({"w00002": 2, "w00040": 1, EOS_TOKEN: 3})
        vocabulary = [f"w{i:05d}" for i in range(20000)] + [EOS_TOKEN] * word_spelled_eos
        backend = ReferenceBackend(3, vocabulary, {context: successors})
        partial = len(backend._lexicographic_prefix)
        assert partial == _PREFIX_SYMBOLS
        symbols, probs = backend._top_k(context, k)
        assert list(zip(symbols, probs)) == full_ranking(backend, context)[:k]
        # Past the prefix only when k and the counted symbols exceed it.
        expected = partial if k + len(successors) <= partial else len(vocabulary) + 1
        assert len(backend._lexicographic_prefix) == expected
        assert backend._top_k(context, k) == (symbols, probs)

    def test_cache_is_bounded_by_the_trained_model(self, toy_corpus):
        backend = train_reference(toy_corpus, order=3)
        top_ks = (1, 4, 10)
        bound = (len(backend.counts) + 1) * len(top_ks)
        # Each passage ends on its own untrained context pair.
        passages = [f"unseen{i} tail{i}" for i in range(bound + 50)]
        for index, passage in enumerate(passages):
            top_k = top_ks[index % len(top_ks)]
            backend.generate(request(passage, top_k=top_k, max_output_tokens=6), seed=index)
        assert sum(len(tables) for tables in backend._top_k_cache.values()) <= bound



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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.sampled_from(["stone", "garden", "river", "x"]), min_size=1, max_size=4),
        st.lists(st.sampled_from([" ", "  ", "\t", "\u3000", "\x1c"]), min_size=4, max_size=4),
    )
    def test_short_passages_condition_as_the_reference_decoder(self, order, words, spaces):
        # Passages with fewer tokens than the context holds, between runs of
        # whitespace of every kind the tokenizer splits on.
        backend = train_reference(make_training_corpus(count=8), order=order)
        passage = "".join(space + word for space, word in zip(spaces, words)) + spaces[-1]
        req = request(passage, num_samples=3, top_k=3, max_output_tokens=6)
        assert backend.generate(req, seed=7) == oracle_generate(backend, req, 7)


def warm_requests(backend: ReferenceBackend, corpus) -> list[tuple[GenerationRequest, int]]:
    """Requests at k 1, 3 and len(V) + 5, each with its seed.

    Passages end on trained contexts (two training passages), on untrained
    ones, and with fewer tokens than the context holds; one carries a
    ``<lang:xx>`` tag.
    """
    passages = [
        corpus[0][0],
        corpus[1][0],
        "north river island",
        "glacier zzz-unseen",
        "garden",
        "",
    ]
    requests = []
    for k in (1, 3, len(backend.vocabulary) + 5):
        for passage in passages:
            requests.append(request(f"lead {passage}".strip(), num_samples=3, top_k=k,
                                    max_output_tokens=10))
        requests.append(request("river stone garden", num_samples=3, top_k=k,
                                max_output_tokens=10, target_language="de"))
    return [(req, derive_seed(1, str(index))) for index, req in enumerate(requests)]


def decode_all(backend: ReferenceBackend, requests) -> list[list[Candidate]]:
    return [backend.generate(req, seed=seed) for req, seed in requests]


class TestSuccessorLinks:
    def test_shared_untrained_table_stores_no_link(self):
        # (p, b) and (p, d) are untrained and share one table, whose top
        # symbol is "1"; (b, 1) and (d, 1) are trained and go on differently.
        counts = {("b", "1"): Counter({"u": 1}), ("d", "1"): Counter({"v": 1})}
        backend = ReferenceBackend(3, ["1", "b", "d", "p", "u", "v"], counts)
        after_b = request("p b", top_k=1, max_output_tokens=4)
        after_d = request("p d", top_k=1, max_output_tokens=4)
        assert backend.generate(after_b, seed=0) == oracle_generate(backend, after_b, 0)
        assert backend.generate(after_d, seed=0) == oracle_generate(backend, after_d, 0)
        assert [c.text for c in backend.generate(after_d, seed=0)] == ["1 v 1 1"]
        assert backend._top_k_cache[1][None][4] is None  # the successors

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_warm_backend_decodes_as_the_reference_decoder(self, order):
        corpus = make_training_corpus(count=12)
        backend = train_reference(corpus, order=order)
        requests = warm_requests(backend, corpus)
        expected = [oracle_generate(backend, req, seed) for req, seed in requests]
        assert decode_all(backend, requests) == expected
        assert decode_all(backend, requests[::-1]) == expected[::-1]

    def test_threads_sharing_a_cold_backend_decode_as_one(self, toy_corpus):
        rng = random.Random(5)
        passages = [
            " ".join(rng.choice(["river", "stone", "garden", "storm", "zzz"])
                     for _ in range(rng.randint(1, 6)))
            for _ in range(50)
        ]
        requests = [
            (request(passage, num_samples=4, top_k=(1, 3, 10)[index % 3],
                     max_output_tokens=12), derive_seed(2, str(index)))
            for index, passage in enumerate(passages)
        ]
        serial = decode_all(train_reference(toy_corpus, order=3), requests)
        backend = train_reference(toy_corpus, order=3)
        barrier = threading.Barrier(4)
        outputs: list = [None] * 4

        def decode(slot: int) -> None:
            barrier.wait(timeout=60)
            outputs[slot] = decode_all(backend, requests)

        threads = [threading.Thread(target=decode, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside table builds too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outputs == [serial] * 4

    def test_tables_are_exact_tuples(self, toy_corpus):
        # A decode step's unpack is specialized only for an exact tuple; a
        # tuple subclass costs about a tenth of generate's time.
        backend = train_reference(toy_corpus, order=3)
        requests = warm_requests(backend, toy_corpus)
        for _ in ("cold", "warm"):
            decode_all(backend, requests)
            tables = [table for by_context in backend._top_k_cache.values()
                      for table in by_context.values()]
            assert any(None in by_context for by_context in backend._top_k_cache.values())
            assert tables and all(type(table) is tuple for table in tables)

    def test_links_add_no_tables(self, toy_corpus):
        backend = train_reference(toy_corpus, order=3)
        decode_all(backend, warm_requests(backend, toy_corpus))
        linked = 0
        for tables in backend._top_k_cache.values():
            cached = {id(table) for table in tables.values()}
            for table in tables.values():
                for successor in table[4] or ():  # the successors
                    if successor is not None:
                        linked += 1
                        assert id(successor) in cached
        assert linked


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


def big_vocabulary_output() -> list[dict]:
    """``generate`` output of an order-3 model over more than 5k words.

    Every training passage ends on one of two hub words, one sorting before
    EOS_TOKEN and one after, so each context (hub, "question") counts several
    hundred successors; half the questions open with one of 40 frequent
    words, so those successors hold many distinct counts.
    """
    rng = random.Random(2718)
    pool = [f"v{i:04d}" for i in range(4500)] + [str(n) for n in range(1000, 1800)]
    hubs = ["1234", "v0007"]
    openers = pool[:20] + pool[-20:]
    corpus = []
    for _ in range(1500):
        words = [rng.choice(pool) for _ in range(rng.randint(6, 12))] + [rng.choice(hubs)]
        opener = rng.choice(openers) if rng.random() < 0.5 else rng.choice(pool)
        question = " ".join([opener] + [rng.choice(pool) for _ in range(rng.randint(1, 4))])
        answer = " ".join(rng.choice(words) for _ in range(rng.randint(1, 2)))
        corpus.append((" ".join(words), question, answer))
    backend = train_reference(corpus, order=3)
    assert len(backend.vocabulary) >= 5000
    assert all(len(backend.counts[(hub, "question")]) >= 300 for hub in hubs)
    # Two trained passages, two that start on a hub context, one untrained.
    passages = [corpus[0][0], corpus[1][0]] + [
        " ".join([rng.choice(pool) for _ in range(6)] + [hub, "question"]) for hub in hubs
    ] + [" ".join(rng.choice(pool) for _ in range(8))]
    runs = []
    for index, passage in enumerate(passages):
        for top_k in (1, 10, 40):
            req = request(passage, num_samples=3, top_k=top_k, max_output_tokens=12)
            candidates = backend.generate(req, seed=derive_seed(9, f"b{index}"))
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


# Han, accented Latin, a word spelled like EOS_TOKEN, and a one-word passage,
# shorter than the context from order 3.
MIXED_SCRIPT_CORPUS = [
    ("河流 岛屿 冰川 港口", "河流 在 哪里", "岛屿"),
    ("café río año </s> torre", "¿dónde está el café?", "río año"),
    ("桥", "什么 </s> 桥", "桥"),
    ("Ångström naïve 博物馆 façade", "qué es naïve", "naïve 博物馆"),
    ("café río", "dónde está", "café"),
]


def model_digest(backend: ReferenceBackend) -> str:
    """sha256 of a fitted model: vocabulary, counts, and every trained context's probabilities.

    Contexts are taken in the model's iteration order, successors sorted;
    each probability is its ``repr`` over the vocabulary plus EOS_TOKEN.
    """
    symbols = (*backend.vocabulary, EOS_TOKEN)
    document = {
        "vocabulary": list(backend.vocabulary),
        "counts": [
            [list(context), sorted(successors.items())]
            for context, successors in backend.counts.items()
        ],
        "probabilities": [
            [repr(backend.probability(context, symbol)) for symbol in symbols]
            for context in backend.counts
        ],
    }
    encoded = json.dumps(document, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


# Recorded from the fit that counted one transition at a time.
FITTED_MODEL_DIGESTS = {
    ("toy", 1): "edf4ff0bc3caf9fade680f87169ffd553e5e0d2929ca1c98d7b242e9084b7081",
    ("toy", 2): "bbec25257682cecf2c629b8da87be489c11b2604bf6aded657a5f2b645e38185",
    ("toy", 3): "8eadeebd72865ebd121ade3c1af2f48b757571df54134da6b80903402314e10b",
    ("toy", 4): "b63e37579a4ea8855b64a565e58de93ca9a70ee2cd8a23904a6fde4586b0b5c7",
    ("mixed", 1): "4518b64b5b22ef0e27d433c10b163d76480301da5d8c507ebfd417a969a9fadd",
    ("mixed", 2): "fad617acfa2c96367de6c047cd871640f764f6bc1e9eece1bfd4ee8199e34d2d",
    ("mixed", 3): "7a97722e4e15f2b4d0b1ccdb3778263b6e305592e5249d898c0f4d856896592d",
    ("mixed", 4): "7d46239563ce84b831f02d203e398c05818852440d59ff3938a13c26e4467a0c",
}


class TestFittedModelPin:
    @pytest.mark.parametrize("name,order", sorted(FITTED_MODEL_DIGESTS))
    def test_fitted_model_matches_recorded_digest(self, name, order):
        corpus = make_training_corpus() if name == "toy" else MIXED_SCRIPT_CORPUS
        digest = model_digest(train_reference(corpus, order=order))
        assert digest == FITTED_MODEL_DIGESTS[name, order]


def oracle_train(corpus, order: int) -> ReferenceBackend:
    """Reference fit: one Counter increment per transition, then a sum per context.

    The passage window and the context shift are spelled out here rather
    than taken from the generator, so a fault in either shows.
    """
    examples = list(corpus)
    if not examples:
        raise ConfigurationError("training corpus is empty")
    width = order - 1
    counts: dict[tuple[str, ...], Counter] = defaultdict(Counter)
    vocabulary: set[str] = set()
    for passage, question, answer in examples:
        target_tokens = format_target(question, answer).split()
        passage_tokens = passage.split()
        vocabulary.update(passage_tokens)
        vocabulary.update(target_tokens)
        context = tuple((["<pad>"] * width + passage_tokens)[len(passage_tokens):])
        for token in [*target_tokens, EOS_TOKEN]:
            counts[context][token] += 1
            context = (*context, token)[1:] if width else ()
    return ReferenceBackend(order, vocabulary, dict(counts))


# Few words, so n-grams repeat; EOS_TOKEN and the padding token spelled as
# words; Han and accented Latin; "answer" and "question" as question words.
_CORPUS_WORDS = st.sampled_from(
    ["river", "stone", "garden", "x", "</s>", "<pad>", "answer", "question", "河流", "café"]
)
_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u3000", "\x1c", " \t "])


@st.composite
def _spaced_text(draw, min_words: int, max_words: int) -> str:
    """Words between runs of whitespace of several kinds, leading and trailing included."""
    words = draw(st.lists(_CORPUS_WORDS, min_size=min_words, max_size=max_words))
    spaces = draw(st.lists(_SPACES, min_size=len(words) + 1, max_size=len(words) + 1))
    return "".join(space + word for space, word in zip(spaces, words)) + spaces[-1]


@st.composite
def training_corpora(draw):
    # Passages from no word up to more than the widest context.
    triples = st.tuples(_spaced_text(0, 6), _spaced_text(1, 4), _spaced_text(1, 2))
    corpus = draw(st.lists(triples, min_size=1, max_size=6))
    # Whole triples repeated, besides the n-grams the small pool repeats.
    return corpus + corpus[: draw(st.integers(0, len(corpus)))]


class TestTrainOracle:
    @settings(max_examples=200, deadline=None)
    @given(training_corpora(), st.integers(1, 4))
    def test_fit_equals_the_reference_fit(self, corpus, order):
        fitted = train_reference(corpus, order=order)
        oracle = oracle_train(corpus, order)
        assert fitted.vocabulary == oracle.vocabulary
        assert [(context, list(successors.items())) for context, successors in fitted.counts.items()] == [
            (context, list(successors.items())) for context, successors in oracle.counts.items()
        ]
        symbols = (*oracle.vocabulary, EOS_TOKEN)
        untrained = ("never-seen",) * (order - 1)
        for context in (*oracle.counts, untrained):
            assert [fitted.probability(context, s) for s in symbols] == [
                oracle.probability(context, s) for s in symbols
            ]
        passages = [corpus[0][0], corpus[-1][0], "lead never-seen", ""]
        for k in (1, 3, len(oracle.vocabulary) + 5):
            for index, passage in enumerate(passages):
                req = request(f"lead {passage}", num_samples=3, top_k=k, max_output_tokens=8)
                seed = derive_seed(k, str(index))
                assert fitted.generate(req, seed=seed) == oracle.generate(req, seed=seed)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected_before_reading(self, order):
        def corpus():
            raise AssertionError("the corpus was read")
            yield

        with pytest.raises(ConfigurationError, match=f"order must be >= 1, got {order}"):
            train_reference(corpus(), order=order)


class TestPlainDictCounts:
    def test_backend_from_dict_counts_decodes(self):
        # Once a KeyError on EOS_TOKEN: probability read counts as a Counter.
        plain = ReferenceBackend(2, ["a", "b"], {("a",): {"b": 1}})
        counter = ReferenceBackend(2, ["a", "b"], {("a",): Counter({"b": 1})})
        req = request("a", num_samples=4, top_k=3, max_output_tokens=5)
        assert plain.generate(req, seed=3) == counter.generate(req, seed=3)
        assert plain.score_sequence("a", "b a </s>") == counter.score_sequence("a", "b a </s>")

    @settings(max_examples=200, deadline=None)
    @given(small_models(), st.integers(0, 2**32))
    def test_dict_counts_decode_and_score_as_counters(self, model, seed):
        counter, queries, k = model
        plain = ReferenceBackend(
            counter.order,
            counter.vocabulary,
            {context: dict(successors) for context, successors in counter.counts.items()},
        )
        symbols = (*counter.vocabulary, EOS_TOKEN, "zz-unseen")
        for context in queries:
            assert [plain.probability(context, s) for s in symbols] == [
                counter.probability(context, s) for s in symbols
            ]
            passage = " ".join(("lead", *context))
            req = request(passage, num_samples=3, top_k=k, max_output_tokens=6)
            assert plain.generate(req, seed=seed) == counter.generate(req, seed=seed)
            target = " ".join(symbols)
            assert plain.score_sequence(passage, target) == counter.score_sequence(passage, target)
