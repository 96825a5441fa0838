from __future__ import annotations

import json

import pytest

from qaforge.errors import JSON_ERRORS, load_json


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
