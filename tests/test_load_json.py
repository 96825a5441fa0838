from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.corpus import parse_passage_stream
from qaforge.errors import JSON_ERRORS, DataError, json_error_reason, load_json
from qaforge.pipeline import read_passages, read_training_corpus


class TestLoadJson:
    @pytest.mark.parametrize(
        "document",
        [
            '"\\ud800"',
            '"\\uDFFF"',
            '{"\\udc00": 1}',
            '[1, {"a": ["b", "x\\ud83c"]}]',
            '"\\ude00\\ud83d"',  # a pair in the wrong order is two lone halves
            b'"\\ud800"',
            '"a\\u0022\\ud800"',
        ],
    )
    def test_lone_surrogate_escape_is_invalid(self, document):
        with pytest.raises(JSON_ERRORS, match="unpaired surrogate"):
            load_json(document)

    def test_encoded_surrogate_bytes_are_invalid(self):
        with pytest.raises(UnicodeDecodeError):
            load_json(b'"\xed\xa0\x80"')

    @pytest.mark.parametrize(
        "document",
        [
            '"\\ud83c\\udf0a"',  # a pair: one character outside the BMP
            '"\\\\ud800"',  # an escaped backslash, then the text "ud800"
            '{"id": "\\u00e9\\ud7ff\\ue000"}',
            '"🌊 río 河"',
            '"🌊 río 河"'.encode("utf-8"),
            '"río"'.encode("utf-16"),
        ],
    )
    def test_valid_documents_decode_as_json_loads_does(self, document):
        assert load_json(document) == json.loads(document)


def reference_load_json(document: str | bytes):
    """``load_json`` as ``json.loads`` plus its two rules, kept to check the fast path.

    A leading byte-order mark is ignored, in text as in bytes, and a string
    holding a surrogate code point is invalid. The documents checked against it
    hold a surrogate only as an escape.
    """
    if isinstance(document, bytes):
        document = document.decode(json.detect_encoding(document))
    elif document.startswith("\ufeff"):
        document = document[1:]
    value = json.loads(document)
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.items())
        elif isinstance(item, (list, tuple)):
            pending.extend(item)
        elif isinstance(item, str) and any("\ud800" <= char <= "\udfff" for char in item):
            raise ValueError("a string holds an unpaired surrogate")
    return value


def outcome(decode, document):
    """``("value", repr(value))``, or ``("error", type, reason)`` if ``decode`` raises."""
    try:
        return "value", repr(decode(document))
    except JSON_ERRORS as exc:
        return "error", type(exc), json_error_reason(exc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
WHITESPACE = st.text(alphabet=" \t\r\n", max_size=3)
MUTATIONS = [
    None, "truncate", "x", ",1", "}", "long-integer", "deep-nesting", "lone-surrogate", "nan",
]


@st.composite
def json_documents(draw) -> str:
    """A JSON text in one of ``json.dumps``'s layouts, wrapped in whitespace, maybe mutated."""
    text = json.dumps(
        draw(JSON_VALUES),
        ensure_ascii=draw(st.booleans()),
        separators=draw(st.sampled_from([None, (",", ":"), (", ", ": ")])),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
    )
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation == "truncate":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation in ("x", ",1", "}"):
        text += mutation
    elif mutation == "long-integer":
        text = f"[{text}, {'7' * 5000}]"
    elif mutation == "deep-nesting":
        depth = 2 * sys.getrecursionlimit()
        text = "[" * depth + text + "]" * depth
    elif mutation == "lone-surrogate":
        escape = draw(st.sampled_from(["\\ud800", "\\uDBFF", "\\udc00", "\\uDFFF"]))
        text = f"[{text}, \"a{escape}\"]"
    elif mutation == "nan":
        text = f"[{text}, NaN]"
    return draw(WHITESPACE) + text + draw(WHITESPACE)


class TestFastPathMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(document=json_documents(), bom=st.booleans(), encode=st.booleans())
    def test_value_or_error_equals_the_reference(self, document, bom, encode):
        if bom:
            document = "\ufeff" + document
        if encode:
            document = document.encode("utf-8")
        assert outcome(load_json, document) == outcome(reference_load_json, document)

    @pytest.mark.parametrize(
        "document",
        ["\ufeff{}", "\ufeff [1]\n", '\ufeff"\\ud800"', "\ufeff", "\ufeff\ufeff1", " \ufeff1",
         b"\xef\xbb\xbf{}", b"\xef\xbb\xbf\xef\xbb\xbf1", "1 2", "[1]]", "", " \t\r\n",
         "\x0c1", "1\x0b", "1\u3000"],
    )
    def test_edge_documents_equal_the_reference(self, document):
        assert outcome(load_json, document) == outcome(reference_load_json, document)


def write_jsonl(path, records) -> Path:
    path.write_bytes(b"".join(
        (record if isinstance(record, bytes) else json.dumps(record).encode("utf-8")) + b"\n"
        for record in records
    ))
    return path


class TestDecodeCost:
    """Valid lines never reach ``json.loads``; only a line the scanner rejects does."""

    @pytest.fixture()
    def loads_calls(self, monkeypatch):
        calls = []
        loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        return calls

    def test_a_valid_passages_stream_never_calls_json_loads(self, loads_calls):
        lines = [
            json.dumps({"id": f"p{index:03d}", "text": f"passage río {index}", "language": "es"})
            + "\n"
            for index in range(200)
        ]
        passages = list(parse_passage_stream(line.encode("utf-8") for line in lines))
        assert (len(passages), loads_calls) == (200, [])

    def test_a_valid_training_corpus_never_calls_json_loads(self, tmp_path, loads_calls):
        path = write_jsonl(tmp_path / "train.jsonl", [
            {"passage": f"passage {index}", "question": "what?", "answer": f"{index}"}
            for index in range(200)
        ])
        triples, _ = read_training_corpus(path)
        assert (len(triples), loads_calls) == (200, [])

    def test_each_invalid_line_calls_json_loads_once(self, tmp_path, loads_calls):
        records = [{"id": f"p{index:03d}", "text": "a b", "language": "en"} for index in range(8)]
        records[1:1] = [b'{"id": "p9", "text": "a b"']
        records[4:4] = [b'{"id": "q"} x']
        records[7:7] = [b'{"id": tru}']
        path = write_jsonl(tmp_path / "passages.jsonl", records)
        errors = []
        passages = read_passages(path, on_error=errors.append)
        assert len(passages) == 8
        assert len(loads_calls) == 3
        assert [f"{path}:{error.line_number}: {error.message}" for error in errors] == [
            f"{path}:2: invalid record: Expecting ',' delimiter",
            f"{path}:5: invalid record: Extra data",
            f"{path}:8: invalid record: Expecting value",
        ]
        with pytest.raises(DataError, match=re.escape(f"{path}:2: invalid record: Expecting ','")):
            read_passages(path)
