"""Language-aware token segmentation.

One segmenter family is used everywhere tokens are counted or compared:
whitespace runs for most languages, and for Chinese a mixed scheme where
every Han ideograph is its own token while non-Han runs still split on
whitespace.
"""

from __future__ import annotations

import re

# CJK Unified Ideographs plus the extension and compatibility blocks.
_HAN_RE = re.compile(
    "["
    "㐀-䶿"
    "一-鿿"
    "豈-﫿"
    "\U00020000-\U0002a6df"
    "\U0002a700-\U0002ebef"
    "\U0002f800-\U0002fa1f"
    "]"
)


def is_han_char(ch: str) -> bool:
    return bool(_HAN_RE.match(ch))


def mixed_segment(text: str) -> list[str]:
    """Segment with per-character Han tokens and whitespace-split runs elsewhere."""
    tokens: list[str] = []
    pending: list[str] = []
    for ch in text:
        if is_han_char(ch):
            if pending:
                tokens.extend("".join(pending).split())
                pending = []
            tokens.append(ch)
        else:
            pending.append(ch)
    if pending:
        tokens.extend("".join(pending).split())
    return tokens
