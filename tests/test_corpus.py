from __future__ import annotations

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaforge.corpus import (
    Passage,
    check_length_bounds,
    count_tokens,
    filter_by_length,
    parse_passage_stream,
    sample_passages,
)
from qaforge.errors import ConfigurationError

words = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=0,
    max_size=12,
)


class TestCountTokens:
    def test_empty_text_is_zero(self):
        assert count_tokens("", "en") == 0

    def test_whitespace_runs_for_latin_scripts(self):
        assert count_tokens("Isla Brunot es una isla", "es") == 5

    def test_han_characters_count_individually(self):
        assert count_tokens("美国男子游泳运动员", "zh") == 9

    def test_mixed_chinese_counts_han_and_runs(self):
        assert count_tokens("abc 美国 def", "zh") == 4

    def test_supplementary_plane_ideographs_count(self):
        assert count_tokens("\U00020000\U00020001 ok", "zh") == 3

    def test_multiple_spaces_collapse(self):
        assert count_tokens("a   b\t c\n", "en") == 3

    @given(left=words, right=words)
    def test_whitespace_counting_is_additive(self, left, right):
        combined = " ".join(left + right)
        assert count_tokens(combined, "en") == count_tokens(
            " ".join(left), "en"
        ) + count_tokens(" ".join(right), "en")


class TestPassageBuild:
    def test_normalizes_nfc_and_strips(self):
        decomposed = "Café river "
        passage = Passage.build("x", decomposed, "EN")
        assert passage.text == "Café river"
        assert passage.language == "en"
        assert passage.token_count == 2

    def test_rejects_blank_text(self):
        with pytest.raises(ValueError):
            Passage.build("x", "   ", "en")


def _passage(pid: str, n_tokens: int) -> Passage:
    return Passage.build(pid, " ".join(["w"] * n_tokens), "en")


class TestFilterByLength:
    def test_excludes_below_lower_bound(self):
        assert list(filter_by_length([_passage("a", 29)], 30, 450)) == []

    def test_bounds_are_inclusive(self):
        kept = list(filter_by_length([_passage("a", 30), _passage("b", 450)], 30, 450))
        assert [p.id for p in kept] == ["a", "b"]

    def test_empty_stream(self):
        assert list(filter_by_length([], 30, 450)) == []

    def test_preserves_order(self):
        passages = [_passage(f"p{i}", 10 + i) for i in range(10)]
        kept = list(filter_by_length(passages, 12, 16))
        assert [p.id for p in kept] == ["p2", "p3", "p4", "p5", "p6"]

    @pytest.mark.parametrize("bounds", [(0, 10), (-1, 10), (20, 10)])
    def test_invalid_bounds_raise_before_iteration(self, bounds):
        with pytest.raises(ConfigurationError):
            filter_by_length([], *bounds)

    def test_equal_bounds_keep_exactly_that_length(self):
        # 0 < min_tokens <= max_tokens: equal bounds are allowed.
        check_length_bounds(12, 12)
        passages = [_passage(f"p{n}", n) for n in (11, 12, 13)]
        assert [p.id for p in filter_by_length(passages, 12, 12)] == ["p12"]

    def test_idempotent(self):
        passages = [_passage(f"p{i}", i + 1) for i in range(40)]
        once = list(filter_by_length(passages, 5, 20))
        twice = list(filter_by_length(once, 5, 20))
        assert once == twice


class TestSamplePassages:
    def test_zero_sample_is_empty(self):
        passages = [_passage(f"p{i}", 5) for i in range(100)]
        assert sample_passages(passages, 0, 7) == []

    def test_sample_of_full_population_is_the_population(self):
        passages = [_passage(f"p{i}", 5) for i in range(5)]
        sampled = sample_passages(passages, 5, 7)
        assert sorted(p.id for p in sampled) == sorted(p.id for p in passages)

    def test_same_seed_same_result(self):
        passages = [_passage(f"p{i}", 5) for i in range(100)]
        first = sample_passages(passages, 10, 42)
        second = sample_passages(passages, 10, 42)
        assert first == second

    def test_distinct_ids_and_size(self):
        passages = [_passage(f"p{i}", 5) for i in range(30)]
        sampled = sample_passages(passages, 12, 3)
        ids = [p.id for p in sampled]
        assert len(ids) == 12
        assert len(set(ids)) == 12

    def test_oversized_request_returns_everything(self):
        passages = [_passage(f"p{i}", 5) for i in range(4)]
        assert len(sample_passages(passages, 50, 1)) == 4

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_passages([], -1, 0)


class TestParsePassageStream:
    def test_valid_record(self):
        line = json.dumps({"id": "a1", "text": "some words here", "language": "en"})
        passages = list(parse_passage_stream([line]))
        assert len(passages) == 1
        assert passages[0].id == "a1"
        assert passages[0].text == "some words here"
        assert passages[0].language == "en"
        assert passages[0].token_count == 3

    def test_missing_text_field_reports_and_skips(self):
        errors = []
        line = json.dumps({"id": "a1", "language": "en"})
        passages = list(parse_passage_stream([line], on_error=errors.append))
        assert passages == []
        assert len(errors) == 1
        assert errors[0].line_number == 1
        assert "text" in errors[0].message

    def test_blank_lines_ignored(self):
        line = json.dumps({"id": "a1", "text": "x y", "language": "en"})
        passages = list(parse_passage_stream(["", "   ", line, "\n"]))
        assert len(passages) == 1

    def test_invalid_json_line_number_reported(self):
        errors = []
        good = json.dumps({"id": "a1", "text": "x", "language": "en"})
        list(parse_passage_stream([good, "{broken", good.replace("a1", "a2")],
                                  on_error=errors.append))
        assert [e.line_number for e in errors] == [2]

    def test_integer_past_the_digit_limit_reports_and_skips(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, here.
        errors = []
        good = json.dumps({"id": "a1", "text": "x", "language": "en"})
        huge = good[:-1] + ', "n": ' + "1" * 5000 + "}"
        passages = list(parse_passage_stream([huge, good], on_error=errors.append))
        assert [p.id for p in passages] == ["a1"]
        assert [e.line_number for e in errors] == [1]
        assert "invalid record" in errors[0].message

    def test_duplicate_id_skipped(self):
        errors = []
        line = json.dumps({"id": "a1", "text": "x y z", "language": "en"})
        passages = list(parse_passage_stream([line, line], on_error=errors.append))
        assert len(passages) == 1
        assert "duplicate" in errors[0].message

    def test_reads_byte_stream(self):
        payload = json.dumps(
            {"id": "a1", "text": "isla del río", "language": "es"}
        ).encode("utf-8")
        stream = io.BytesIO(payload + b"\n")
        passages = list(parse_passage_stream(stream))
        assert passages[0].token_count == 3

    def test_unknown_fields_ignored(self):
        line = json.dumps({"id": "a1", "text": "x y", "language": "en", "url": "w"})
        assert len(list(parse_passage_stream([line]))) == 1

    def test_stream_continues_after_errors(self):
        errors = []
        lines = [
            json.dumps({"id": "a1", "text": "one two", "language": "en"}),
            json.dumps({"id": "a2", "text": "   ", "language": "en"}),
            json.dumps({"id": "a3", "text": "three four", "language": "en"}),
        ]
        passages = list(parse_passage_stream(lines, on_error=errors.append))
        assert [p.id for p in passages] == ["a1", "a3"]
        assert len(errors) == 1
