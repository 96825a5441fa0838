"""Language-aware token segmentation.

One segmenter family is used everywhere tokens are counted or compared:
whitespace runs for most languages, and for Chinese a mixed scheme where
every Han ideograph is its own token while non-Han runs still split on
whitespace.
"""

from __future__ import annotations

import re

# CJK Unified Ideographs plus the extension and compatibility blocks.
_HAN = (
    "\u3400-\u4dbf"
    "\u4e00-\u9fff"
    "\uf900-\ufaff"
    "\U00020000-\U0002a6df"
    "\U0002a700-\U0002ebef"
    "\U0002f800-\U0002fa1f"
)
# One Han ideograph, or a run of characters that are neither Han nor
# whitespace: ``\s`` is the whitespace set ``str.split`` uses.
_TOKEN_RE = re.compile(f"[{_HAN}]|[^\\s{_HAN}]+")


def mixed_segment(text: str) -> list[str]:
    """Segment with per-character Han tokens and whitespace-split runs elsewhere."""
    return _TOKEN_RE.findall(text)
