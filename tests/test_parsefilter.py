from __future__ import annotations

import random
import re
import sys
import unicodedata
from dataclasses import asdict, dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qaforge.corpus import Passage
from qaforge.errors import ConfigurationError, QAForgeError
from qaforge.generator import Candidate, format_target
from qaforge.parsefilter import (
    FilterConfig,
    FilterStats,
    SyntheticExample,
    _split_candidate,
    run_filter_pipeline,
)

GLACIER_PASSAGE = (
    "Der Pashuk-Gletscher ist ein steiler, 2,3 km langer Gletscher auf Smith "
    "Island. Bulgarische Wissenschaftler kartierten ihn 2009. Die Kommission "
    "benannte ihn 2010 nach Greg Landreth."
)


# The parse as a function of its own, the reference the filter's parse is
# checked against: TestParseCandidate pins its contract, and oracle_filter
# builds an independent filter on it.
@dataclass(frozen=True)
class QAPair:
    question: str
    answer: str


class CandidateParseError(QAForgeError):
    """A decoded candidate does not carry a well-formed question/answer pair."""

    def __init__(self, part: str):
        super().__init__(f"candidate has no usable {part.replace('_', ' ')}")
        self.part = part


def parse_candidate(text: str) -> QAPair:
    """Split a decoded sequence into its question and answer parts.

    The text must start with the standalone token ``question`` and contain a
    later standalone ``answer`` token; the question is the trimmed material
    between them, the answer the trimmed material after the first ``answer``
    marker. Raises CandidateParseError naming the missing part otherwise.
    """
    split = _split_candidate(text)
    if isinstance(split, str):
        raise CandidateParseError(split)
    return QAPair(*split)


class TestParseCandidate:
    def test_spanish_pair(self):
        text = (
            "question ¿Cuándo se estableció el Dr. Felix Brunot en la isla? "
            "answer finales del año 1700"
        )
        pair = parse_candidate(text)
        assert pair.question == "¿Cuándo se estableció el Dr. Felix Brunot en la isla?"
        assert pair.answer == "finales del año 1700"

    def test_minimal_pair(self):
        assert parse_candidate("question q answer a") == QAPair("q", "a")

    def test_missing_question_marker(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("no markers here")
        assert exc.value.part == "question_marker"

    def test_marker_must_be_standalone(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("questionable words answer a")
        assert exc.value.part == "question_marker"

    def test_empty_question_is_named_before_empty_answer(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("question answer")
        assert exc.value.part == "question"

    def test_missing_answer_marker(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("question what is this")
        assert exc.value.part == "answer_marker"

    def test_empty_question(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("question answer a")
        assert exc.value.part == "question"

    def test_empty_answer(self):
        with pytest.raises(CandidateParseError) as exc:
            parse_candidate("question q answer")
        assert exc.value.part == "answer"

    def test_first_answer_marker_wins(self):
        pair = parse_candidate("question q answer a answer b")
        assert pair == QAPair("q", "a answer b")

    def test_leading_whitespace_tolerated(self):
        assert parse_candidate("  question q answer a") == QAPair("q", "a")

    def test_internal_whitespace_preserved(self):
        pair = parse_candidate("question what is  it answer two  spaces kept")
        assert pair.question == "what is  it"
        assert pair.answer == "two  spaces kept"

    @given(
        question=st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=1, max_size=6
        ).map(" ".join),
        answer=st.lists(
            st.text(alphabet="hijklmn", min_size=1, max_size=6), min_size=1, max_size=6
        ).map(" ".join),
    )
    def test_round_trips_formatted_targets(self, question, answer):
        assert parse_candidate(format_target(question, answer)) == QAPair(question, answer)


# The split as regular expressions, the reference ``_split_candidate`` is
# checked against: the question marker opens the text, the answer marker is the
# first standalone "answer" after it.
_QUESTION_MARKER = re.compile(r"\A\s*question(?:\s+|\Z)")
_ANSWER_MARKER = re.compile(r"(?:\A|(?<=\s))answer(?:(?=\s)|\Z)")


def reference_split(text: str) -> tuple[str, str] | str:
    head = _QUESTION_MARKER.match(text)
    if head is None:
        return "question_marker"
    rest = text[head.end():]
    marker = _ANSWER_MARKER.search(rest)
    if marker is None:
        return "answer_marker"
    question = rest[: marker.start()].strip()
    if not question:
        return "question"
    answer = rest[marker.end():].strip()
    if not answer:
        return "answer"
    return question, answer


# Every code point that str.isspace or the regular expressions' \s takes for
# whitespace; the two agree (test_whitespace_is_the_same_set).
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_SPLIT_TOKENS = st.sampled_from(
    ["question", "answer", "answers", "xanswer", "answer\u200b", "\u200banswer", "Answer",
     "questions", "question\u200b", "ans", "wer", "q", "a", "harbor", "answeranswer"]
)
# Tokens, each followed by a run of whitespace that may be empty.
_SPLIT_TEXTS = st.lists(
    st.tuples(_SPLIT_TOKENS, st.text(st.sampled_from(WHITESPACE), max_size=3)), max_size=8
).map(lambda parts: "".join(token + space for token, space in parts))


class TestSplitMatchesReference:
    def test_whitespace_is_the_same_set(self):
        pattern = re.compile(r"\s")
        regex_spaces = [chr(c) for c in range(sys.maxunicode + 1) if pattern.match(chr(c))]
        assert regex_spaces == WHITESPACE
        assert len(WHITESPACE) == 29

    @settings(max_examples=500)
    @example("question\x1cq\x85answer\u3000a\x1f")
    @example("question answeranswer answer a")
    @example("question q xanswer answer a")
    @example("\u2028question\u2029answer")
    @given(_SPLIT_TEXTS)
    def test_split_equals_reference(self, text):
        assert _split_candidate(text) == reference_split(text)

    @settings(max_examples=500)
    @given(st.sampled_from(["", " ", "question ", "question q "]), _SPLIT_TEXTS)
    def test_split_equals_reference_after_a_prefix(self, prefix, text):
        assert _split_candidate(prefix + text) == reference_split(prefix + text)


def _candidate(question: str, answer: str, score: float) -> Candidate:
    return Candidate(text=format_target(question, answer), lm_score=score)


def answer_offset(answer: str, text: str) -> int | None:
    """The ``answer_start`` the filter gives ``answer`` in a passage of ``text``.

    None if the filter drops the candidate as not extractive.
    """
    passage = Passage.build("p1", text, "de")
    examples, _ = run_filter_pipeline(passage, [_candidate("q", answer, -1.0)], FilterConfig())
    return examples[0].answer_start if examples else None


class TestCheckExtractive:
    def test_year_found_at_correct_offset(self):
        offset = answer_offset("2009", GLACIER_PASSAGE)
        assert offset == GLACIER_PASSAGE.index("2009")
        assert GLACIER_PASSAGE[offset:offset + 4] == "2009"

    def test_absent_answer(self):
        assert answer_offset("xyz-not-present", GLACIER_PASSAGE) is None

    def test_full_passage_matches_itself_at_zero(self):
        assert answer_offset(GLACIER_PASSAGE, GLACIER_PASSAGE) == 0

    def test_first_occurrence_wins(self):
        assert answer_offset("ab", "xx ab yy ab") == 3

    def test_match_is_case_sensitive(self):
        assert answer_offset("bulgarische", GLACIER_PASSAGE) is None


def ranked(scores: list[float], keep: int) -> list[tuple[int, float]]:
    """``(index, score)`` of each example kept from one candidate per score.

    The candidates are distinct, extractive pairs, so only the ranking drops
    any; the question of each is its index.
    """
    passage = Passage.build("p1", "the harbor wall guards the bay", "en")
    candidates = [_candidate(str(i), "harbor wall", score) for i, score in enumerate(scores)]
    examples, _ = run_filter_pipeline(passage, candidates, FilterConfig(keep_per_passage=keep))
    return [(int(example.question), example.lm_score) for example in examples]


class TestLmFilter:
    def test_keeps_top_ten_of_twenty(self):
        scores = [float(-i) for i in range(20)]
        random.Random(0).shuffle(scores)
        kept = ranked(scores, 10)
        assert [score for _, score in kept] == [float(-i) for i in range(10)]

    def test_small_supply_returned_whole(self):
        assert ranked([-3.0, -1.0, -2.0], 10) == [(1, -1.0), (2, -2.0), (0, -3.0)]

    def test_ties_keep_input_order(self):
        assert ranked([-1.0, -1.0, -0.5], 3) == [(2, -0.5), (0, -1.0), (1, -1.0)]

    def test_zero_keep_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterConfig(keep_per_passage=0)

    @given(
        scores=st.lists(st.integers(min_value=-8, max_value=0), max_size=30),
        keep=st.integers(min_value=1, max_value=12),
    )
    def test_contract_properties(self, scores, keep):
        scores = [float(s) for s in scores]
        kept = ranked(scores, keep)
        assert len(kept) == min(keep, len(scores))
        values = [score for _, score in kept]
        assert values == sorted(values, reverse=True)
        assert set(kept) <= set(enumerate(scores))
        # Raising the budget only appends.
        assert kept == ranked(scores, keep + 1)[: len(kept)]


@pytest.fixture()
def passage() -> Passage:
    return Passage.build(
        "p1", "the old harbor wall guards the inner bay from the winter storm", "en"
    )


class TestRunFilterPipeline:
    def test_twenty_valid_candidates_keep_ten(self, passage):
        words = passage.text.split()
        candidates = [
            _candidate(f"what is thing {i}", " ".join(words[i % 8: i % 8 + 2]), -float(i))
            for i in range(20)
        ]
        examples, stats = run_filter_pipeline(passage, candidates, FilterConfig())
        assert len(examples) == 10
        assert stats.candidates == 20
        assert stats.parsed == 20
        assert stats.extractive == 20
        assert stats.kept == 10
        scores = [e.lm_score for e in examples]
        assert scores == sorted(scores, reverse=True)

    def test_unparseable_candidates_all_drop(self, passage):
        candidates = [Candidate(text=f"garbage {i}", lm_score=-1.0) for i in range(20)]
        examples, stats = run_filter_pipeline(passage, candidates, FilterConfig())
        assert examples == []
        assert stats.parsed == 0
        assert stats.kept == 0
        assert sum(stats.parse_failures.values()) == 20

    def test_dedup_keeps_highest_scored_instance(self, passage):
        candidates = [
            _candidate("which wall", "harbor wall", -5.0),
            _candidate("which wall", "harbor wall", -3.0),
        ]
        examples, stats = run_filter_pipeline(passage, candidates, FilterConfig())
        assert len(examples) == 1
        assert examples[0].lm_score == -3.0
        assert stats.deduped == 1

    def test_non_extractive_candidates_drop(self, passage):
        candidates = [
            _candidate("what guards the bay", "harbor wall", -1.0),
            _candidate("what else guards", "submarine pier", -0.5),
        ]
        examples, stats = run_filter_pipeline(passage, candidates, FilterConfig())
        assert len(examples) == 1
        assert stats.parsed == 2
        assert stats.extractive == 1
        assert examples[0].answer == "harbor wall"

    def test_answer_offsets_reconstruct_answers(self, passage):
        words = passage.text.split()
        candidates = [
            _candidate(f"q {i}", " ".join(words[i: i + 2]), -float(i)) for i in range(8)
        ]
        examples, _ = run_filter_pipeline(passage, candidates, FilterConfig())
        for example in examples:
            end = example.answer_start + len(example.answer)
            assert passage.text[example.answer_start:end] == example.answer

    def test_language_propagates_from_passage(self, passage):
        candidates = [_candidate("q", "harbor wall", -1.0)]
        examples, _ = run_filter_pipeline(passage, candidates, FilterConfig())
        assert examples[0].language == "en"
        assert examples[0].passage_id == "p1"

    def test_non_extractive_candidates_spend_no_keep_budget(self, passage):
        # Two junk answers outscore the extractive one; they drop before the
        # ranking, so the extractive one is kept.
        candidates = [
            _candidate("q one", "not in passage", -0.1),
            _candidate("q two", "also missing", -0.2),
            _candidate("q three", "harbor wall", -5.0),
        ]
        config = FilterConfig(keep_per_passage=2)
        examples, stats = run_filter_pipeline(passage, candidates, config)
        assert [e.answer for e in examples] == ["harbor wall"]
        assert (stats.parsed, stats.extractive, stats.kept) == (3, 1, 1)

    def test_length_normalized_ranking_flips_order(self, passage):
        # Short candidate wins on total score; long one wins per token.
        short_text = format_target("which wall", "winter storm")  # 6 tokens
        long_text = format_target(
            "which wall guards the inner bay here", "harbor wall"
        )  # 11 tokens
        candidates = [
            Candidate(text=short_text, lm_score=-3.0),  # -0.5 per token
            Candidate(text=long_text, lm_score=-4.4),  # -0.4 per token
        ]
        raw, _ = run_filter_pipeline(passage, candidates, FilterConfig(keep_per_passage=1))
        assert raw[0].answer == "winter storm"

        normalized, _ = run_filter_pipeline(
            passage, candidates, FilterConfig(keep_per_passage=1, length_normalize=True)
        )
        assert normalized[0].answer == "harbor wall"
        assert normalized[0].lm_score == pytest.approx(-4.4 / 11)

    def test_funnel_counts_never_increase(self, passage):
        rng = random.Random(5)
        words = passage.text.split()
        candidates = []
        for i in range(20):
            kind = rng.random()
            if kind < 0.3:
                candidates.append(Candidate(text="broken blob", lm_score=-1.0))
            elif kind < 0.6:
                candidates.append(_candidate(f"q {i}", "missing from text", -float(i)))
            else:
                candidates.append(_candidate("q repeat", words[0], -float(i)))
        _, stats = run_filter_pipeline(passage, candidates, FilterConfig())
        assert stats.candidates >= stats.parsed >= stats.extractive
        assert stats.extractive >= stats.deduped >= stats.kept

    def test_merge_into_empty_stats_gives_back_the_counts(self):
        # run_pipeline's totals start as FilterStats(): a default above 0, or a
        # part's first count merged onto anything but 0, skews report.json.
        stats = FilterStats(
            candidates=9, parsed=6, extractive=5, deduped=4, kept=3,
            parse_failures={"answer": 1, "question_marker": 2},
        )
        totals = FilterStats()
        totals.merge(stats)
        assert totals == stats


def oracle_filter(passage: Passage, candidates: list[Candidate], config: FilterConfig):
    """The filter written on ``parse_candidate`` and ``str.find``: a failed parse
    is a caught CandidateParseError, deduplication a pairwise comparison."""
    parse_failures: dict[str, int] = {}
    drafts = []
    for candidate in candidates:
        try:
            pair = parse_candidate(candidate.text)
        except CandidateParseError as exc:
            parse_failures[exc.part] = parse_failures.get(exc.part, 0) + 1
            continue
        answer = unicodedata.normalize("NFC", pair.answer)
        answer_start = passage.text.find(answer)
        if answer_start < 0:
            continue
        score = candidate.lm_score
        if config.length_normalize:
            score /= len(candidate.text.split())
        drafts.append((unicodedata.normalize("NFC", pair.question), answer, answer_start, score))
    # A draft survives unless a draft of the same pair scores higher, or as
    # high and comes first.
    deduped = [
        draft
        for i, draft in enumerate(drafts)
        if not any(
            other[:2] == draft[:2] and (other[3] > draft[3] or (other[3] == draft[3] and j < i))
            for j, other in enumerate(drafts)
        )
    ]
    kept = sorted(deduped, key=lambda draft: -draft[3])[: config.keep_per_passage]
    examples = [
        SyntheticExample(passage.id, question, answer, start, score, passage.language)
        for question, answer, start, score in kept
    ]
    counts = {
        "candidates": len(candidates),
        "parsed": len(candidates) - sum(parse_failures.values()),
        "extractive": len(drafts),
        "deduped": len(deduped),
        "kept": len(examples),
        "parse_failures": parse_failures,
    }
    return examples, counts


# Candidate texts laid out as question marker, words, answer marker, words,
# each marker sometimes missing or misspelt; the words are passage spans (one
# with a decomposed accent) or runs of markers and other words, between runs
# of whitespace.
_TOKENS = st.sampled_from(
    ["question", "answer", "Question", "answers", "questions", "harbor", "wall", "cafe\u0301",
     "café", "bay", "x"]
)
_SPACES = st.sampled_from([" ", " ", " ", "", "  ", "\t", "\n", "\u3000", " \u00a0"])
_RUNS = st.lists(st.tuples(_SPACES, _TOKENS), max_size=4).map(
    lambda parts: "".join(space + token for space, token in parts)
)
_SPANS = st.sampled_from(["", "harbor", "harbor wall", "café", "cafe\u0301 harbor", "x", "bay"])
_TEXTS = st.tuples(
    _SPACES,
    st.sampled_from(["question"] * 4 + ["questions", "Question", ""]),
    _SPACES,
    _SPANS | _RUNS,
    _SPACES,
    st.sampled_from(["answer"] * 4 + ["answers", ""]),
    _SPACES,
    _SPANS | _RUNS,
    _SPACES,
).map("".join)


class TestFilterMatchesParseCandidate:
    @settings(max_examples=300)
    # Equal scores: the first copy of a pair keeps its place before a later pair.
    @example(
        ["question which answer harbor", "question where answer bay"],
        [(0, -1), (1, -1), (0, -1)],
        3,
        False,
    )
    @example(["question cafe\u0301 x answer cafe\u0301 harbor"], [(0, -1)], 1, False)
    @given(
        st.lists(_TEXTS, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 0)), max_size=24),
        st.integers(1, 6),
        st.booleans(),
    )
    def test_funnel_and_examples(self, texts, drawn, keep, length_normalize):
        # Candidates reuse a few texts and scores, so pairs repeat, and
        # scores tie.
        passage = Passage.build("p1", "the café harbor wall x guards the bay", "en")
        candidates = [Candidate(texts[i % len(texts)], float(score)) for i, score in drawn]
        config = FilterConfig(keep_per_passage=keep, length_normalize=length_normalize)
        examples, stats = run_filter_pipeline(passage, candidates, config)
        expected_examples, expected_counts = oracle_filter(passage, candidates, config)
        assert examples == expected_examples
        assert asdict(stats) == {
            **expected_counts,
            "parse_failures": dict(sorted(expected_counts["parse_failures"].items())),
        }
