"""Exception hierarchy shared across the package.

Exit-code mapping for the CLI: ConfigurationError -> 1 (usage),
DataError -> 2 (bad inputs), TransportError -> 3 (remote service),
Interrupted -> 128 + the signal's number (130 for SIGINT, 143 for SIGTERM).
"""

from __future__ import annotations

import json
import re
import signal
from typing import Any


# What ``load_json`` raises on a document it cannot decode. Besides
# ``JSONDecodeError``, ``json.loads`` raises a plain ValueError for an integer
# literal past the interpreter's digit limit (4300 by default), and
# RecursionError for arrays or objects nested too deeply. Every JSON reader
# catches these.
JSON_ERRORS = (ValueError, RecursionError)

# The escapes of the surrogate code points, \uD800-\uDFFF.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")

# ``json.loads``'s scanner, and the whitespace ``JSONDecoder.decode`` allows
# around the value. The scanner is shared as ``json``'s own default decoder is.
_scan_once = json.JSONDecoder().scan_once
_WHITESPACE = " \t\n\r"


def load_json(document: str | bytes) -> Any:
    """``json.loads(document)``, where a string holding an unpaired surrogate is invalid JSON.

    ``json.loads`` accepts ``"\\ud800"`` and returns a string that no UTF-8
    file can hold, so every reader decodes through here instead. Bytes are
    decoded as ``json.loads`` decodes them, but strictly: an encoded
    surrogate is a UnicodeDecodeError. One leading byte-order mark is ignored
    in text as it is in bytes. In text, a surrogate can then come only from
    an escape, so the decoded value is searched only when the text holds one.

    A text is scanned by the C scanner that ``json.loads`` ends in, with the
    whitespace rule of ``JSONDecoder.decode``; one it rejects goes to
    ``json.loads``, which raises its own error.
    """
    if isinstance(document, bytes):
        document = document.decode(json.detect_encoding(document))
    elif document.startswith("\ufeff"):
        document = document[1:]
    try:
        value, end = _scan_once(document, len(document) - len(document.lstrip(_WHITESPACE)))
    except (StopIteration, *JSON_ERRORS):
        end = -1
    if end < 0 or document[end:].strip(_WHITESPACE):
        value = json.loads(document)
    if _SURROGATE_ESCAPE.search(document) and _holds_surrogate(value):
        raise ValueError("a string holds an unpaired surrogate")
    return value


def _holds_surrogate(value: Any) -> bool:
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            if _SURROGATE.search(item):
                return True
        elif isinstance(item, dict):
            pending.extend(item)
            pending.extend(item.values())
        elif isinstance(item, list):
            pending.extend(item)
    return False


def json_error_reason(exc: ValueError | RecursionError) -> str:
    """Why ``load_json`` failed, for any of ``JSON_ERRORS``."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


class QAForgeError(Exception):
    """Base class for all package errors."""


class Interrupted(KeyboardInterrupt):
    """SIGINT or SIGTERM stopped the process; ``signum`` names the signal.

    A KeyboardInterrupt, so no ``except Exception`` takes it for a failure
    of the code it interrupted, and ``run_pipeline`` treats it as it treats
    Ctrl-C without the CLI's handlers.
    """

    def __init__(self, signum: int):
        super().__init__(f"interrupted by {signal.Signals(signum).name}")
        self.signum = signum


class ConfigurationError(QAForgeError):
    """Invalid option, flag, or configuration value."""


class DataError(QAForgeError):
    """Malformed or inconsistent input data."""


class TransportError(QAForgeError):
    """Remote generation service unreachable or misbehaving."""


class ProtocolError(TransportError):
    """Remote service answered, but the response violates the wire contract."""


class EmissionError(DataError):
    """A training example cannot be written to the output document format.

    ``position`` is the offending example's index among those given, when
    one example is at fault.
    """

    def __init__(self, message: str, *, position: int | None = None):
        super().__init__(message)
        self.position = position


class SquadParseError(DataError):
    """A dataset document does not conform to the expected schema."""


class MissingPredictionsError(DataError):
    """Evaluation was asked to score a dataset with unanswered entries."""

    def __init__(self, missing_ids: list[str]):
        preview = ", ".join(missing_ids[:5])
        more = "" if len(missing_ids) <= 5 else f" (+{len(missing_ids) - 5} more)"
        super().__init__(f"missing predictions for {len(missing_ids)} ids: {preview}{more}")
        self.missing_ids = missing_ids


class PipelineError(QAForgeError):
    """A pipeline stage failed; a resumable checkpoint has been written."""

    def __init__(self, stage: str, cause: BaseException, *, failed_passage_id: str | None = None):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.failed_passage_id = failed_passage_id
