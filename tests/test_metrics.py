from __future__ import annotations

import math
import os
import re
import string
import subprocess
import sys
import unicodedata
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qaforge.dataset import (
    SquadAnswer,
    SquadArticle,
    SquadDataset,
    SquadParagraph,
    SquadQA,
    read_squad,
)
from qaforge.errors import ConfigurationError, DataError, MissingPredictionsError
from qaforge.metrics import (
    NormalizationProfile,
    _normalized_words,
    bleu,
    evaluate_dataset,
    load_profile_table,
    make_profile,
    tokenize_for_f1,
)
from qaforge.segmentation import mixed_segment

SRC = Path(__file__).resolve().parent.parent / "src"

SQUAD_EN = make_profile("squad", "en")
MLQA_ES = make_profile("mlqa", "es")
MLQA_ZH = make_profile("mlqa", "zh")
MLQA_DE = make_profile("mlqa", "de")

simple_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz .,", min_size=0, max_size=40
)


def normalize_answer(text: str, profile: NormalizationProfile) -> str:
    """The normalized string of ``text``: its normalized words joined by single spaces."""
    return " ".join(_normalized_words(text, profile))


def _single_qa_dataset(golds: list[str]) -> SquadDataset:
    answers = [SquadAnswer(text=gold, answer_start=0) for gold in golds]
    paragraph = SquadParagraph(context="", qas=[SquadQA(id="q", question="?", answers=answers)])
    return SquadDataset(version="1.1", articles=[SquadArticle(title="t", paragraphs=[paragraph])])


def exact_match(prediction: str, golds: list[str], profile: NormalizationProfile) -> int:
    """The EM that ``evaluate_dataset`` gives a one-entry dataset with these golds."""
    report = evaluate_dataset({"q": prediction}, _single_qa_dataset(golds), profile)
    return report.per_example["q"].em


def f1(prediction: str, golds: list[str], profile: NormalizationProfile) -> float:
    """The F1 that ``evaluate_dataset`` gives a one-entry dataset with these golds."""
    report = evaluate_dataset({"q": prediction}, _single_qa_dataset(golds), profile)
    return report.per_example["q"].f1


class TestNormalizeAnswer:
    def test_lowercase_articles_punctuation(self):
        assert normalize_answer("The Brunot Island", SQUAD_EN) == "brunot island"

    def test_empty_string(self):
        assert normalize_answer("", SQUAD_EN) == ""

    def test_spanish_articles_and_trailing_period(self):
        assert (
            normalize_answer("finales del año 1700.", MLQA_ES)
            == "finales año 1700"
        )

    def test_german_article(self):
        assert normalize_answer("Die Kommission", MLQA_DE) == "kommission"

    def test_chinese_keeps_words_drops_fullwidth_punctuation(self):
        assert normalize_answer("2008 年。", MLQA_ZH) == "2008 年"

    def test_article_not_removed_inside_words(self):
        # "del" must not fire inside "delta"; "al" not inside "altura".
        assert normalize_answer("delta altura", MLQA_ES) == "delta altura"

    def test_squad_mode_is_language_independent(self):
        squad_zh = make_profile("squad", "zh")
        assert squad_zh.articles == SQUAD_EN.articles
        assert squad_zh.segmentation == "whitespace"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile("bleu", "en")

    @given(text=simple_text)
    def test_idempotent(self, text):
        once = normalize_answer(text, SQUAD_EN)
        assert normalize_answer(once, SQUAD_EN) == once

    @given(text=simple_text)
    def test_idempotent_mlqa_es(self, text):
        once = normalize_answer(text, MLQA_ES)
        assert normalize_answer(once, MLQA_ES) == once


class TestTokenizeForF1:
    def test_whitespace_tokens(self):
        assert tokenize_for_f1("brunot island", SQUAD_EN) == ["brunot", "island"]

    def test_empty(self):
        assert tokenize_for_f1("", SQUAD_EN) == []

    def test_chinese_per_character(self):
        assert tokenize_for_f1("美国 男子", MLQA_ZH) == [
            "美", "国", "男", "子",
        ]

    def test_chinese_keeps_latin_runs_whole(self):
        assert tokenize_for_f1("2008 年", MLQA_ZH) == ["2008", "年"]


class TestExactMatch:
    def test_identity(self):
        assert exact_match("Brunot Island", ["Brunot Island"], SQUAD_EN) == 1

    def test_article_difference_still_matches(self):
        assert exact_match("the Brunot Island", ["Brunot Island"], SQUAD_EN) == 1

    def test_partial_answer_does_not_match(self):
        assert exact_match("Brunot", ["Brunot Island"], SQUAD_EN) == 0

    def test_any_gold_suffices(self):
        assert exact_match("x", ["y", "x", "z"], SQUAD_EN) == 1

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError, match="no gold answers"):
            exact_match("x", [], SQUAD_EN)


class TestF1:
    def test_identity_is_one(self):
        assert f1("Dr. Felix Brunot", ["Dr. Felix Brunot"], SQUAD_EN) == 1.0

    def test_half_overlap(self):
        # tokens [x, y] vs [y, z]: overlap 1, precision 1/2, recall 1/2.
        assert f1("x y", ["y z"], SQUAD_EN) == pytest.approx(0.5)

    def test_disjoint_is_zero(self):
        assert f1("xyz", ["abc"], SQUAD_EN) == 0.0

    def test_multiset_overlap_clips_duplicates(self):
        # [x, x] vs [x]: overlap 1, precision 1/2, recall 1 -> 2/3.
        assert f1("x x", ["x"], SQUAD_EN) == pytest.approx(2 / 3)

    def test_both_normalize_to_empty(self):
        assert f1(".", ["!"], SQUAD_EN) == 1.0

    def test_one_side_empty(self):
        assert f1(".", ["word"], SQUAD_EN) == 0.0

    def test_empty_golds_rejected(self):
        with pytest.raises(DataError, match="no gold answers"):
            f1("x", [], SQUAD_EN)

    @given(
        tokens=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
        permutation_seed=st.integers(min_value=0, max_value=999),
    )
    def test_permutation_invariant(self, tokens, permutation_seed):
        import random as _random

        shuffled = list(tokens)
        _random.Random(permutation_seed).shuffle(shuffled)
        gold = ["c d e"]
        assert f1(" ".join(tokens), gold, SQUAD_EN) == pytest.approx(
            f1(" ".join(shuffled), gold, SQUAD_EN)
        )

    @given(text=st.text(alphabet="abc xyz", min_size=1, max_size=20))
    def test_self_match_when_nonempty(self, text):
        if normalize_answer(text, SQUAD_EN):
            assert f1(text, [text], SQUAD_EN) == 1.0
            assert exact_match(text, [text], SQUAD_EN) == 1

    @given(
        prediction=simple_text,
        golds=st.lists(simple_text, min_size=1, max_size=3),
        extra=simple_text,
    )
    def test_adding_a_gold_never_hurts(self, prediction, golds, extra):
        base_em = exact_match(prediction, golds, SQUAD_EN)
        base_f1 = f1(prediction, golds, SQUAD_EN)
        assert exact_match(prediction, golds + [extra], SQUAD_EN) >= base_em
        assert f1(prediction, golds + [extra], SQUAD_EN) >= base_f1

    @given(prediction=simple_text, gold=simple_text)
    def test_em_implies_full_f1(self, prediction, gold):
        if exact_match(prediction, [gold], SQUAD_EN) == 1:
            assert f1(prediction, [gold], SQUAD_EN) == 1.0


def _dataset(entries: list[tuple[str, str, list[str]]]) -> SquadDataset:
    import json

    data = {
        "version": "1.1",
        "data": [
            {
                "title": "t",
                "paragraphs": [
                    {
                        "context": " / ".join(gold[0] for _, _, gold in entries),
                        "qas": [
                            {
                                "id": qid,
                                "question": question,
                                "answers": [
                                    {
                                        "text": g,
                                        "answer_start": 0,
                                    }
                                    for g in gold
                                ],
                            }
                            for qid, question, gold in entries
                        ],
                    }
                ],
            }
        ],
    }
    return read_squad(json.dumps(data)).dataset


class TestEvaluateDataset:
    def test_all_exact_scores_hundred(self):
        dataset = _dataset([("q1", "?", ["alpha"]), ("q2", "?", ["beta"])])
        report = evaluate_dataset({"q1": "alpha", "q2": "beta"}, dataset, SQUAD_EN)
        assert report.exact_match == 100.0
        assert report.f1 == 100.0
        assert report.total == 2

    def test_half_exact_half_disjoint(self):
        dataset = _dataset([("q1", "?", ["alpha"]), ("q2", "?", ["beta"])])
        report = evaluate_dataset({"q1": "alpha", "q2": "nope"}, dataset, SQUAD_EN)
        assert report.exact_match == 50.0
        assert report.f1 == 50.0

    def test_missing_predictions_fail_loudly(self):
        dataset = _dataset([("q1", "?", ["alpha"]), ("q2", "?", ["beta"])])
        with pytest.raises(MissingPredictionsError) as exc:
            evaluate_dataset({}, dataset, SQUAD_EN)
        assert exc.value.missing_ids == ["q1", "q2"]

    def test_missing_as_zero_mode(self):
        dataset = _dataset([("q1", "?", ["alpha"]), ("q2", "?", ["beta"])])
        report = evaluate_dataset({"q1": "alpha"}, dataset, SQUAD_EN, missing_as_zero=True)
        assert report.total == 2
        assert report.exact_match == 50.0
        assert report.per_example["q2"].em == 0

    def test_document_with_no_entries_scores_zero(self):
        dataset = read_squad('{"version": "1.1", "data": []}').dataset
        report = evaluate_dataset({}, dataset, SQUAD_EN)
        assert (report.exact_match, report.f1, report.total) == (0.0, 0.0, 0)
        assert report.per_example == {}

    def test_duplicate_qa_id_is_a_data_error(self):
        dataset = _dataset([("q1", "?", ["alpha"]), ("q1", "?", ["beta"])])
        with pytest.raises(DataError, match="^duplicate qa id in dataset: q1$"):
            evaluate_dataset({"q1": "alpha"}, dataset, SQUAD_EN)

    def test_max_over_golds(self):
        dataset = _dataset([("q1", "?", ["completely different", "alpha beta"])])
        report = evaluate_dataset({"q1": "alpha beta"}, dataset, SQUAD_EN)
        assert report.exact_match == 100.0

    def test_aggregates_are_means_of_per_example(self):
        dataset = _dataset(
            [("q1", "?", ["alpha"]), ("q2", "?", ["beta"]), ("q3", "?", ["gamma delta"])]
        )
        report = evaluate_dataset(
            {"q1": "alpha", "q2": "nope", "q3": "gamma"}, dataset, SQUAD_EN
        )
        ems = [s.em for s in report.per_example.values()]
        f1s = [s.f1 for s in report.per_example.values()]
        assert report.exact_match == 100.0 * sum(ems) / len(ems)
        assert report.f1 == 100.0 * sum(f1s) / len(f1s)
        for score in report.per_example.values():
            assert score.em <= score.f1


class TestBleu:
    def test_identical_corpus_is_hundred(self):
        corpus = [list("abcd"), list("efghi")]
        assert bleu(corpus, corpus) == 100.0

    def test_brevity_penalty_hand_value(self):
        score = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert score == pytest.approx(100.0 * math.exp(-0.25), abs=1e-9)

    def test_disjoint_tokens_zero(self):
        assert bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0

    def test_too_short_for_four_grams_zero(self):
        assert bleu([["a", "b", "c"]], [["a", "b", "c"]]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            bleu([["a"]], [])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bleu([], [])

    def test_longer_hypothesis_no_brevity_penalty(self):
        score = bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d"]])
        # p1 = 4/5, p2 = 3/4, p3 = 2/3, p4 = 1/2, BP = 1.
        expected = 100.0 * math.exp(
            (math.log(4 / 5) + math.log(3 / 4) + math.log(2 / 3) + math.log(1 / 2)) / 4
        )
        assert score == pytest.approx(expected, abs=1e-9)

    def test_clipping_caps_repeated_ngrams(self):
        # Hypothesis repeats one unigram seven times; the reference has two.
        score = bleu([["the"] * 7], [["the", "cat", "on", "the", "mat"]], max_n=1)
        # p1 = 2/7; no brevity penalty since the hypothesis is longer.
        assert score == pytest.approx(100.0 * 2 / 7, abs=1e-9)

    def test_corpus_pooling_across_pairs(self):
        hyps = [["a", "b"], ["c", "d"]]
        refs = [["a", "x"], ["c", "d"]]
        # Unigrams: clipped 3 of 4; bigrams: clipped 1 of 2; c = r = 4.
        expected = 100.0 * math.exp((math.log(3 / 4) + math.log(1 / 2)) / 2)
        assert bleu(hyps, refs, max_n=2) == pytest.approx(expected, abs=1e-9)

    @given(
        corpus=st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=4, max_size=9),
            min_size=1,
            max_size=5,
        )
    )
    def test_self_bleu_is_hundred(self, corpus):
        assert bleu(corpus, corpus) == pytest.approx(100.0, abs=1e-9)


class TestProfileTable:
    def test_integer_past_the_digit_limit_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text('{"entries": [], "n": ' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_profile_table(path)

    def test_shipped_table_loads_with_expected_languages(self):
        table = load_profile_table()
        languages = {entry["language"] for entry in table["entries"]}
        assert {"en", "es", "de", "vi", "zh", "ar", "hi", "ru", "fi"} <= languages
        assert table["profile_version"]

    def test_zh_entry_uses_mixed_segmentation_without_articles(self):
        profile = make_profile("mlqa", "zh")
        assert profile.segmentation == "per-character-mixed"
        assert profile.articles == frozenset()

    @pytest.mark.parametrize("mode", ["squad", "mlqa"])
    @pytest.mark.parametrize("language", ["", " ", "\t"])
    def test_blank_language_is_a_configuration_error(self, mode, language):
        # Once accepted: mlqa mode fell back to the default profile.
        with pytest.raises(ConfigurationError, match="language"):
            make_profile(mode, language)

    def test_unlisted_language_falls_back(self):
        profile = make_profile("mlqa", "xx")
        assert profile.articles == frozenset()
        assert profile.segmentation == "whitespace"

    def test_custom_table_from_file(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(
            '{"profile_version": "test", "entries": '
            '[{"language": "en", "articles": ["zap"], '
            '"punctuation_class": "ascii", "segmentation": "whitespace"}]}',
            encoding="utf-8",
        )
        profile = make_profile("mlqa", "en", load_profile_table(path))
        assert normalize_answer("zap target", profile) == "target"


class TestProfileValues:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("punctuation_class", "Unicode"),
            ("punctuation_class", ""),
            ("segmentation", "per-character"),
            ("segmentation", "whitespace "),
        ],
    )
    def test_unknown_value_rejected(self, field, value):
        values = {"punctuation_class": "unicode", "segmentation": "whitespace", field: value}
        with pytest.raises(ConfigurationError, match=f"unknown {field} {value!r}"):
            NormalizationProfile("mlqa", "xx", frozenset(), **values)

    def test_unknown_value_in_table_rejected(self):
        table = {"entries": [{"language": "zh", "segmentation": "per-character"}]}
        with pytest.raises(ConfigurationError, match="segmentation 'per-character'"):
            make_profile("mlqa", "zh", table)

    def test_every_shipped_entry_is_accepted(self):
        for entry in load_profile_table()["entries"]:
            make_profile("mlqa", entry["language"])

    def test_import_classifies_no_code_point(self):
        # The unicode punctuation table fills per code point on first use;
        # building it for all of Unicode at import would cost every start.
        code = (
            "import qaforge.metrics as m; "
            "print(len(m._PUNCTUATION_TABLES['unicode']))"
        )
        # Pytest's pythonpath setting does not reach a subprocess.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "0"


# --- The scoring path against its earlier formulation ----------------------
#
# Test-local copies of the rules as first written (one category test per
# character, the article pattern built per call, every gold normalized again
# for EM and for each F1, one Counter per n-gram order): the rewritten path
# must give the same strings and the same floats, bit for bit.


def reference_normalize(text: str, profile) -> str:
    text = text.lower()
    if profile.punctuation_class == "ascii":
        text = "".join(ch for ch in text if ch not in string.punctuation)
    else:
        text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    if profile.articles:
        alternatives = "|".join(re.escape(a) for a in sorted(profile.articles))
        text = re.compile(rf"\b(?:{alternatives})\b").sub(" ", text)
    return " ".join(text.split())


def reference_tokens(text: str, profile) -> list[str]:
    normalized = reference_normalize(text, profile)
    if profile.segmentation == "per-character-mixed":
        return mixed_segment(normalized)
    return normalized.split()


def reference_f1_single(prediction: str, gold: str, profile) -> float:
    prediction_tokens = reference_tokens(prediction, profile)
    gold_tokens = reference_tokens(gold, profile)
    if not prediction_tokens and not gold_tokens:
        return 1.0
    if not prediction_tokens or not gold_tokens:
        return 0.0
    num_same = sum((Counter(prediction_tokens) & Counter(gold_tokens)).values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(prediction_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def reference_scores(prediction: str, golds: list[str], profile) -> tuple[int, float]:
    normalized = reference_normalize(prediction, profile)
    em = int(any(normalized == reference_normalize(gold, profile) for gold in golds))
    return em, max(reference_f1_single(prediction, gold, profile) for gold in golds)


def reference_bleu(hypotheses, references, max_n: int) -> float:
    hypothesis_length = sum(len(h) for h in hypotheses)
    reference_length = sum(len(r) for r in references)
    log_precision_sum = 0.0
    for n in range(1, max_n + 1):
        clipped = 0
        total = 0
        for hypothesis, reference in zip(hypotheses, references):
            counts = Counter(
                tuple(hypothesis[i:i + n]) for i in range(len(hypothesis) - n + 1)
            )
            reference_counts = Counter(
                tuple(reference[i:i + n]) for i in range(len(reference) - n + 1)
            )
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


SHIPPED_PROFILES = [SQUAD_EN] + [
    make_profile("mlqa", entry["language"]) for entry in load_profile_table()["entries"]
]
PROFILE_IDS = [f"{p.mode}-{p.language}" for p in SHIPPED_PROFILES]

# Lone surrogates, an unassigned code point, astral letters, symbols and
# punctuation outside ASCII, next to words the article tables remove.
ODD_CHARACTERS = [
    "\ud800", "\udfff", "\u0378", "\U000e0001", "\U0001f600", "\U00020000",
    "\U0010ffff", "\U00016e97", "\u00bf", "\u3001", "\u3002", "\uff0c", "\u2019",
    "\u20ac", "$", "^", "~", "|", "+", "\u00a0", "\u2028",
]
ARTICLE_WORDS = [" the ", " A ", "an", " del ", "LA ", " die ", "của", " những "]
any_text = st.lists(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(ODD_CHARACTERS),
        st.sampled_from(ARTICLE_WORDS),
    ),
    max_size=30,
).map("".join)

# Answer-like text: punctuation, articles, Han and Latin words, in any mix.
ANSWER_PIECES = [
    "the", "a", "an", "el", "la", "del", "Brunot", "island", "x", "年", "美", "国",
    "男子", "2008", ".", ",", "。", "、", "!", "'", "-", "$", "¿", " ", " ", "\t",
]
answer_text = st.lists(st.sampled_from(ANSWER_PIECES), max_size=8).map("".join)


class TestNormalizeEqualsReference:
    @pytest.mark.parametrize("profile", SHIPPED_PROFILES, ids=PROFILE_IDS)
    @given(text=any_text)
    def test_equals_per_character_rule(self, profile, text):
        expected = reference_normalize(text, profile)
        assert normalize_answer(text, profile) == expected
        # Again, now that every code point of the text is in the table.
        assert normalize_answer(text, profile) == expected


TWENTY_SYMBOLS = [f"w{i}" for i in range(20)]

# The shipped squad, es and zh profiles, then every combination of
# punctuation class, segmentation and article removal.
SCORED_PROFILES = [SQUAD_EN, MLQA_ES, MLQA_ZH] + [
    NormalizationProfile(
        mode="mlqa",
        language="xx",
        articles=articles,
        punctuation_class=punctuation_class,
        segmentation=segmentation,
    )
    for punctuation_class in ("ascii", "unicode")
    for segmentation in ("whitespace", "per-character-mixed")
    for articles in (frozenset(), frozenset({"the", "a", "an", "el", "la", "del"}))
]
SCORED_PROFILE_IDS = ["squad", "mlqa-es", "mlqa-zh"] + [
    f"{p.punctuation_class}-{p.segmentation}-{'articles' if p.articles else 'no-articles'}"
    for p in SCORED_PROFILES[3:]
]


class TestScoresEqualReference:
    @pytest.mark.parametrize("profile", SCORED_PROFILES, ids=SCORED_PROFILE_IDS)
    @given(prediction=answer_text, golds=st.lists(answer_text, min_size=1, max_size=3))
    @example(prediction="island x", golds=["island island x"])
    def test_per_example_scores_identical(self, profile, prediction, golds):
        report = evaluate_dataset({"q": prediction}, _single_qa_dataset(golds), profile)
        em, f1_value = reference_scores(prediction, golds, profile)
        assert report.per_example["q"].em == em
        assert report.per_example["q"].f1 == f1_value

    @given(
        pairs=st.one_of(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from("abcde"), max_size=8),
                    st.lists(st.sampled_from("abcde"), max_size=8),
                ),
                min_size=1,
                max_size=6,
            ),
            # Mostly hypotheses without a repeated n-gram, at every n.
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from(TWENTY_SYMBOLS), max_size=30),
                    st.lists(st.sampled_from(TWENTY_SYMBOLS), max_size=30),
                ),
                min_size=1,
                max_size=6,
            ),
        ),
        max_n=st.integers(min_value=1, max_value=5),
    )
    # A repeated hypothesis bigram, ("a", "b"), clipped to the one in the reference.
    @example(pairs=[(["a", "b", "x", "a", "b"], ["a", "b", "c"])], max_n=2)
    # Beside a pair matching up to 4-grams, one matching unigrams but no
    # bigram: it stops at n = 2, and its 3- and 4-grams still count in total.
    @example(
        pairs=[
            (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "x"]),
            (["c", "a", "d"], ["a", "c"]),
        ],
        max_n=4,
    )
    # A hypothesis shorter than max_n, beside one as long.
    @example(pairs=[(["a", "b"], ["a", "b", "c"]), (["a", "b", "c"], ["a", "b", "c"])], max_n=3)
    # A repeated unigram ("a", clipped by counts) whose bigrams are all distinct.
    @example(pairs=[(["a", "b", "a", "c"], ["a", "b", "a", "c", "a"])], max_n=4)
    def test_bleu_identical(self, pairs, max_n):
        hypotheses = [hypothesis for hypothesis, _ in pairs]
        references = [reference for _, reference in pairs]
        expected = reference_bleu(hypotheses, references, max_n)
        assert bleu(hypotheses, references, max_n=max_n) == expected
