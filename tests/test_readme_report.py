"""The README states ``report.json``'s schema once, under "File formats".

Every field of ``PipelineReport`` and every funnel stage must be named in
that section, so a field cannot be added to the report undocumented.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

from qaforge.pipeline import CANDIDATE_STAGES, PASSAGE_STAGES, PipelineReport

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
