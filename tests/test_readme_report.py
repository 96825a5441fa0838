"""The README states ``report.json``'s schema and the journal header once, under "File formats".

Every field of ``PipelineReport`` and every funnel stage must be named in
the ``report.json`` section, and every key of the resume fingerprint in the
journal-header paragraph, so neither can grow undocumented.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from qaforge.pipeline import (
    CANDIDATE_STAGES, PASSAGE_STAGES, PipelineConfig, PipelineReport, resume_fingerprint
)

ROOT = Path(__file__).parent.parent


def readme_report_schema() -> str:
    """The README's ``report.json`` section, up to the next heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    formats = text.split("\n### File formats\n", 1)[1].split("\n### ", 1)[0]
    return formats.split("\n#### `report.json`\n", 1)[1].split("\n#", 1)[0]


def test_every_report_field_and_stage_is_documented():
    names = [f.name for f in fields(PipelineReport)] + [*PASSAGE_STAGES, *CANDIDATE_STAGES]
    section = readme_report_schema()
    assert [name for name in names if f"`{name}`" not in section] == []


def readme_journal_header() -> str:
    """The README paragraph on the journal's first line, its header."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\nThe journal's first line, ", 1)[1].split("\n\n", 1)[0]


@pytest.mark.parametrize("backend", ["reference", "remote"])
def test_every_fingerprint_key_is_documented(tmp_path, backend):
    corpus = tmp_path / "train.jsonl"
    corpus.write_bytes(b"")
    config = PipelineConfig(
        input="passages.jsonl", output_dir=str(tmp_path), backend=backend,
        train_corpus=str(corpus), endpoint="http://127.0.0.1:9",
    )
    paragraph = readme_journal_header()
    assert [key for key in resume_fingerprint(config) if f"`{key}`" not in paragraph] == []
