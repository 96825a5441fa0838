"""``mixed_segment`` against the per-character loop it replaced."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from qaforge.segmentation import mixed_segment

# CJK Unified Ideographs plus the extension and compatibility blocks, by code point.
HAN_RANGES = (
    (0x3400, 0x4DBF),
    (0x4E00, 0x9FFF),
    (0xF900, 0xFAFF),
    (0x20000, 0x2A6DF),
    (0x2A700, 0x2EBEF),
    (0x2F800, 0x2FA1F),
)


def is_han(ch: str) -> bool:
    return any(low <= ord(ch) <= high for low, high in HAN_RANGES)


def loop_segment(text: str) -> list[str]:
    """Reference: each Han character is a token; the runs between split on whitespace."""
    tokens: list[str] = []
    pending: list[str] = []
    for ch in text:
        if is_han(ch):
            if pending:
                tokens.extend("".join(pending).split())
                pending = []
            tokens.append(ch)
        else:
            pending.append(ch)
    if pending:
        tokens.extend("".join(pending).split())
    return tokens


def test_every_code_point_between_letters():
    mismatches = [
        hex(code_point)
        for code_point in range(0x30000)
        if mixed_segment(f"a{chr(code_point)}b") != loop_segment(f"a{chr(code_point)}b")
    ]
    assert mismatches == []


_MIXED = st.sampled_from(
    [
        # Han from each block, the first code points past two blocks, CJK punctuation.
        "a", "Z", "7", ".", "-", "\u6cb3", "\u3400", "\uf900", "\ufaff", "\U00020000",
        "\U0002a6df", "\U0002a700", "\U0002f800", "\u4dc0", "\ua000", "\u3001", "\uff0c",
        # Whitespace to str.split, and look-alikes that are not (U+200B, U+FEFF).
        " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u0085",
        "\u2009", "\u2028", "\u3000", "\u200b", "\ufeff",
    ]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_MIXED, max_size=40).map("".join))
def test_mixed_strings_match_the_loop(text):
    assert mixed_segment(text) == loop_segment(text)
