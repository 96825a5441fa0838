from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaforge.dataset import SquadDataset, read_squad
from qaforge.errors import ConfigurationError, DataError, MissingPredictionsError
from qaforge.metrics import (
    bleu,
    evaluate_dataset,
    exact_match,
    f1,
    load_profile_table,
    make_profile,
    normalize_answer,
    tokenize_for_f1,
)

SQUAD_EN = make_profile("squad", "en")
MLQA_ES = make_profile("mlqa", "es")
MLQA_ZH = make_profile("mlqa", "zh")
MLQA_DE = make_profile("mlqa", "de")

simple_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz .,", min_size=0, max_size=40
)


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
        with pytest.raises(DataError):
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
        with pytest.raises(DataError):
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
