from __future__ import annotations

import builtins
import hashlib
import io
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import closing
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_passages, make_training_corpus, write_passage_file, write_training_file
from qaforge.corpus import Passage
from qaforge.dataset import read_squad
from qaforge.errors import ConfigurationError, Interrupted, PipelineError, TransportError
from qaforge import cli, pipeline
from qaforge.generator import Candidate, GenerationRequest, format_target
from qaforge.pipeline import (
    GENERATION_KNOBS,
    PipelineConfig,
    PipelineReport,
    _AHEAD_PER_WORKER,
    _CheckpointJournal,
    _in_order,
    build_backend,
    candidate_rows,
    generate_passage,
    ingest,
    passage_digest,
    process_passage,
    resume_fingerprint,
    run_pipeline,
    stats_summary,
)
from qaforge.remote import MAX_ATTEMPTS


def make_config(tmp_path: Path, out_name: str = "out", **overrides) -> PipelineConfig:
    passages_path = tmp_path / "passages.jsonl"
    if not passages_path.exists():
        write_passage_file(passages_path, make_passages(count=12))
    train_path = tmp_path / "train.jsonl"
    if not train_path.exists():
        write_training_file(train_path, make_training_corpus())
    settings = dict(
        input=str(passages_path),
        output_dir=str(tmp_path / out_name),
        train_corpus=str(train_path),
        seed=99,
        sample_n=10,
        num_samples=20,
        keep_per_passage=10,
        max_output_tokens=24,
    )
    settings.update(overrides)
    return PipelineConfig(**settings)


class _FlakyBackend:
    """Delegates to a real backend but fails on one passage text."""

    def __init__(self, inner, poison_text: str):
        self.inner = inner
        self.poison_text = poison_text

    def generate(self, request, seed=0):
        if request.passage == self.poison_text:
            raise TransportError("injected outage")
        return self.inner.generate(request, seed=seed)


class _NonFiniteBackend:
    """Delegates to a real backend but gives one passage text's first candidate ``lm_score``."""

    def __init__(self, inner, poison_text: str, lm_score: float):
        self.inner = inner
        self.poison_text = poison_text
        self.lm_score = lm_score

    def generate(self, request, seed=0):
        candidates = list(self.inner.generate(request, seed=seed))
        if request.passage == self.poison_text:
            candidates[0] = Candidate(candidates[0].text, self.lm_score)
        return candidates


class _NoBackend:
    """Fails any call: a resume with every passage journaled must not generate."""

    def generate(self, request, seed=0):
        raise AssertionError(f"unexpected generation for {request.passage!r}")


class TestRunPipeline:
    def test_produces_valid_deterministic_artifacts(self, tmp_path):
        config_a = make_config(tmp_path, "run_a")
        config_b = make_config(tmp_path, "run_b")
        report_a = run_pipeline(config_a)
        report_b = run_pipeline(config_b)

        dataset_a = Path(report_a.outputs["dataset"]).read_bytes()
        dataset_b = Path(report_b.outputs["dataset"]).read_bytes()
        assert dataset_a == dataset_b
        assert read_squad(dataset_a).violations == []
        for artifact in ("passages", "candidates", "examples"):
            assert (
                Path(report_a.outputs[artifact]).read_bytes()
                == Path(report_b.outputs[artifact]).read_bytes()
            )

    def test_worker_count_does_not_change_outputs(self, tmp_path):
        serial = run_pipeline(make_config(tmp_path, "serial", workers=1))
        threaded = run_pipeline(make_config(tmp_path, "threaded", workers=4))
        assert (
            Path(serial.outputs["dataset"]).read_bytes()
            == Path(threaded.outputs["dataset"]).read_bytes()
        )
        assert serial.counts == threaded.counts

    def test_reference_backend_never_starts_a_thread_pool(self, tmp_path, monkeypatch):
        serial = run_pipeline(make_config(tmp_path, "serial", workers=1))

        def no_pool(*args, **kwargs):
            raise AssertionError("the reference backend started a thread pool")

        monkeypatch.setattr("qaforge.pipeline.ThreadPoolExecutor", no_pool)
        unthreaded = run_pipeline(make_config(tmp_path, "unthreaded", workers=2))
        assert same_artifacts(unthreaded, serial)

    def test_funnel_counts_are_section_monotone(self, tmp_path):
        report = run_pipeline(make_config(tmp_path))
        counts = report.counts
        assert counts["ingested"] >= counts["length_kept"] >= counts["sampled"]
        assert counts["generated"] >= counts["parsed"] >= counts["extractive"]
        assert counts["extractive"] >= counts["deduped"] >= counts["kept"]
        assert counts["generated"] == counts["sampled"] * 20

    def test_zero_passages_after_length_filter(self, tmp_path):
        config = make_config(tmp_path, "empty", min_tokens=400, max_tokens=450)
        report = run_pipeline(config)
        assert report.counts["length_kept"] == 0
        assert report.counts["kept"] == 0
        dataset = read_squad(Path(report.outputs["dataset"]).read_bytes()).dataset
        assert dataset.articles == []

    def test_failure_writes_checkpoint_and_resume_completes(self, tmp_path):
        baseline = run_pipeline(make_config(tmp_path, "baseline"))

        from qaforge.pipeline import build_backend

        config = make_config(tmp_path, "flaky")
        inner = build_backend(config)
        sampled_artifact = json.loads(
            Path(baseline.outputs["passages"]).read_text("utf-8").splitlines()[4]
        )
        flaky = _FlakyBackend(inner, poison_text=sampled_artifact["text"])

        with pytest.raises(PipelineError) as exc:
            run_pipeline(config, backend=flaky)
        assert isinstance(exc.value.cause, TransportError)
        assert exc.value.stage == "generate"

        out_dir = Path(config.output_dir)
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text("utf-8"))
        assert checkpoint["stage"] == "generate"
        assert checkpoint["failed_passage_id"] == sampled_artifact["id"]
        assert 0 < len(checkpoint["completed_passage_ids"]) < 10
        assert (out_dir / "checkpoint.jsonl").exists()

        resumed_config = make_config(tmp_path, "flaky", resume=True)
        resumed = run_pipeline(resumed_config, backend=inner)
        assert (
            Path(resumed.outputs["dataset"]).read_bytes()
            == Path(baseline.outputs["dataset"]).read_bytes()
        )
        assert not (out_dir / "checkpoint.jsonl").exists()
        assert not (out_dir / "checkpoint.json").exists()

    @pytest.mark.parametrize("lm_score", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_fails_the_passage_and_resume_completes(self, tmp_path, lm_score):
        # Once written as NaN or Infinity into candidates.jsonl and
        # examples.jsonl, which no strict JSON reader (``filter`` included) accepts.
        baseline = run_pipeline(make_config(tmp_path, "baseline"))
        config = make_config(tmp_path, "nonfinite")
        inner = build_backend(config)
        poisoned = json.loads(Path(baseline.outputs["passages"]).read_text("utf-8").splitlines()[4])
        backend = _NonFiniteBackend(inner, poisoned["text"], lm_score)

        with pytest.raises(PipelineError) as exc:
            run_pipeline(config, backend=backend)
        assert exc.value.stage == "generate"
        assert isinstance(exc.value.cause, ValueError)
        out_dir = Path(config.output_dir)
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text("utf-8"))
        assert checkpoint["failed_passage_id"] == poisoned["id"]
        assert poisoned["id"] not in checkpoint["completed_passage_ids"]
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "checkpoint.json", "checkpoint.jsonl"
        ]

        resumed = run_pipeline(make_config(tmp_path, "nonfinite", resume=True), backend=inner)
        for artifact in ("candidates", "examples", "dataset"):
            assert (
                Path(resumed.outputs[artifact]).read_bytes()
                == Path(baseline.outputs[artifact]).read_bytes()
            )

    def test_examples_written_in_ascending_passage_order(self, tmp_path):
        report = run_pipeline(make_config(tmp_path))
        rows = [
            json.loads(line)
            for line in Path(report.outputs["examples"]).read_text("utf-8").splitlines()
        ]
        ids = [row["passage_id"] for row in rows]
        assert ids == sorted(ids)

    def test_language_filter_applies_at_ingest(self, tmp_path):
        passages_path = tmp_path / "mixed.jsonl"
        mixed = make_passages(count=6)
        with open(passages_path, "w", encoding="utf-8") as handle:
            for index, passage in enumerate(mixed):
                language = "en" if index % 2 == 0 else "de"
                handle.write(
                    json.dumps(
                        {"id": passage.id, "text": passage.text, "language": language}
                    )
                    + "\n"
                )
        config = make_config(tmp_path, "langfilter", input=str(passages_path),
                             language="en", sample_n=None)
        report = run_pipeline(config)
        assert report.counts["ingested"] == 3

    def test_record_errors_counted_not_fatal(self, tmp_path):
        passages_path = tmp_path / "noisy.jsonl"
        lines = [json.dumps({"id": "ok1", "text": " ".join(["w"] * 35), "language": "en"}),
                 "{not json",
                 json.dumps({"id": "ok2", "text": " ".join(["w"] * 35), "language": "en"})]
        passages_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = make_config(tmp_path, "noisy", input=str(passages_path), sample_n=None)
        report = run_pipeline(config)
        assert report.counts["ingested"] == 2
        assert report.record_errors == 1

    def test_missing_input_is_data_error(self, tmp_path):
        from qaforge.errors import DataError

        config = make_config(tmp_path, "missing", input=str(tmp_path / "nope.jsonl"))
        with pytest.raises(DataError):
            run_pipeline(config)


class TestPipelineConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"input": "x", "output_dir": "y", "typo": 1})

    def test_required_keys(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"input": "x"})

    def test_reference_backend_needs_train_corpus(self, tmp_path):
        config = PipelineConfig(input="x", output_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_unset_seed_is_zero(self, monkeypatch, tmp_path):
        # QAFORGE_SEED once set the default seed; it is read no more.
        monkeypatch.setenv("QAFORGE_SEED", "777")
        config = PipelineConfig(input="x", output_dir=str(tmp_path))
        assert config.resolved_seed() == 0

    def test_explicit_seed_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QAFORGE_SEED", "777")
        config = PipelineConfig(input="x", output_dir=str(tmp_path), seed=5)
        assert config.resolved_seed() == 5

    def test_keep_cannot_exceed_num_samples(self, tmp_path):
        # Once checked by FilterConfig, under the name samples_per_passage.
        config = make_config(tmp_path, num_samples=10, keep_per_passage=11)
        with pytest.raises(ConfigurationError, match=r"exceeds num_samples \(10\)"):
            run_pipeline(config)
        assert not Path(config.output_dir).exists()

    @pytest.mark.parametrize("field", ["num_samples", "keep_per_passage"])
    def test_counts_must_be_positive(self, tmp_path, field):
        # Once FilterConfig tests of samples_per_passage and keep_per_passage.
        config = make_config(tmp_path, **{field: 0})
        with pytest.raises(ConfigurationError, match=field):
            run_pipeline(config)
        assert not Path(config.output_dir).exists()


class TestZeroKeptWarning:
    def warnings(self, caplog) -> list[str]:
        return [
            record.getMessage()
            for record in caplog.records
            if record.name == "qaforge.pipeline" and record.levelname == "WARNING"
        ]

    def test_names_largest_drop_and_top_parse_failure(self, tmp_path, caplog):
        # Cross-lingual mode: no candidate parses, each for want of its question marker.
        report = run_pipeline(make_config(tmp_path, target_language="de"))
        assert report.counts["kept"] == 0 and report.counts["parsed"] == 0
        [message] = self.warnings(caplog)
        assert "0 examples" in message
        assert "'parsed'" in message and "100.0%" in message
        assert f"question_marker ({report.parse_failures['question_marker']})" in message

    @pytest.mark.parametrize(
        "overrides,stage",
        [
            ({"min_tokens": 1000, "max_tokens": 2000}, "the largest drop is at 'length_kept'"),
            ({"language": "fr"}, "'ingested' is 0 at the start of its funnel"),
        ],
    )
    def test_names_a_passage_stage(self, tmp_path, caplog, overrides, stage):
        run_pipeline(make_config(tmp_path, **overrides))
        [message] = self.warnings(caplog)
        assert stage in message and "no parse failures" in message

    def test_a_run_that_keeps_examples_is_silent(self, tmp_path, caplog):
        report = run_pipeline(make_config(tmp_path))
        assert report.counts["kept"] > 0
        assert self.warnings(caplog) == []


class TestStatsSummary:
    def test_zero_kept_shows_full_drop_at_binding_stage(self):
        report = PipelineReport(
            counts={
                "ingested": 10,
                "length_kept": 10,
                "sampled": 10,
                "generated": 200,
                "parsed": 120,
                "extractive": 0,
                "deduped": 0,
                "kept": 0,
            }
        )
        table = stats_summary(report)
        lines = table.splitlines()
        assert lines[0].split() == ["stage", "count", "drop"]
        extractive_row = next(line for line in lines if line.startswith("extractive"))
        assert "100.0%" in extractive_row

    def test_counts_and_percentages(self):
        report = PipelineReport(
            counts={"ingested": 100, "length_kept": 80, "sampled": 40,
                    "generated": 800, "parsed": 400, "extractive": 300,
                    "deduped": 290, "kept": 200}
        )
        table = stats_summary(report)
        assert "length_kept" in table
        assert "20.0%" in table  # 100 -> 80
        assert "50.0%" in table  # 800 -> 400 and 80 -> 40

    def test_candidate_section_resets_baseline(self):
        report = PipelineReport(counts={"sampled": 10, "generated": 200, "parsed": 100})
        lines = stats_summary(report).splitlines()
        generated_row = next(line for line in lines if line.startswith("generated"))
        assert generated_row.split()[-1] == "-"

    def test_empty_report_is_header_only(self):
        lines = stats_summary(PipelineReport()).splitlines()
        assert len(lines) == 1
        assert lines[0].split() == ["stage", "count", "drop"]


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "override",
        [
            {"workers": "2"},
            {"top_k": "3"},
            {"resume": "no"},
            {"workers": True},
            {"min_tokens": 30.0},
            {"top_k": None},
            {"input": 5},
        ],
    )
    def test_wrong_type_rejected(self, override):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"input": "x", "output_dir": "y", **override})

    def test_declared_types_accepted(self):
        config = PipelineConfig.from_mapping(
            {"input": "x", "output_dir": "y", "seed": None, "sample_n": 3,
             "length_normalize": True, "language": "en"}
        )
        assert (config.seed, config.sample_n, config.length_normalize) == (None, 3, True)


CANDIDATE_RECORD = {"text": "question q answer a", "lm_score": -1.0}
FINGERPRINT = {"backend": "reference", "seed": 1}
HEADER = json.dumps({"format": 2, "fingerprint": FINGERPRINT}) + "\n"
PASSAGE_A, PASSAGE_B, PASSAGE_C = (
    Passage.build(name, f"passage {name} text", "en") for name in "abc"
)


def marker(passage: Passage) -> str:
    """The journal line that completes ``passage``'s block."""
    return json.dumps({"passage_id": passage.id, "passage_sha256": passage_digest(passage)}) + "\n"


class TestResumeJournal:
    def test_unusable_journal_lines_are_skipped(self, tmp_path):
        baseline = run_pipeline(make_config(tmp_path, "baseline"))
        first = json.loads(
            Path(baseline.outputs["passages"]).read_text("utf-8").splitlines()[0]
        )
        first_id, digest = first["id"], passage_digest(Passage(**first))
        config = make_config(tmp_path, "resumed", resume=True)
        out_dir = Path(config.output_dir)
        out_dir.mkdir()
        lines = [
            {"text": "question q answer a", "lm_score": -1.0},
            {"passage_id": first_id, "passage_sha256": digest},
            {"passage_id": first_id, "text": 5, "lm_score": -1.0},
            {"passage_id": first_id, "passage_sha256": digest},
            {"passage_id": 7, "passage_sha256": digest},
        ]
        lines.insert(0, {"format": 2, "fingerprint": resume_fingerprint(config)})
        (out_dir / "checkpoint.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        resumed = run_pipeline(config)
        assert (
            Path(resumed.outputs["dataset"]).read_bytes()
            == Path(baseline.outputs["dataset"]).read_bytes()
        )

    def test_entry_after_a_torn_line_survives_the_next_resume(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        whole = {"passage_id": "a", **CANDIDATE_RECORD}
        path.write_text(
            HEADER + json.dumps(whole) + "\n" + marker(PASSAGE_A) + '{"passage_id": "b", "te',
            encoding="utf-8",
        )
        journal = _CheckpointJournal(path, FINGERPRINT, resume=True)
        journal.record(PASSAGE_C, candidate_rows("c", [Candidate("question q answer c", -2.0)]))
        journal.close(discard=False)

        resumed = _CheckpointJournal(path, FINGERPRINT, resume=True)
        assert resumed.lookup(PASSAGE_A) == [Candidate("question q answer a", -1.0)]
        assert resumed.lookup(PASSAGE_B) is None
        assert resumed.lookup(PASSAGE_C) == [Candidate("question q answer c", -2.0)]
        resumed.close(discard=False)
        assert resumed.journaled_ids() == ["a", "c"]

    def test_torn_line_ending_inside_a_character_is_cut(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        whole = {"passage_id": "a", "text": "question é", "lm_score": -1.0}
        torn = '{"passage_id": "b", "text": "é'.encode("utf-8")[:-1]
        path.write_bytes(
            (HEADER + json.dumps(whole, ensure_ascii=False) + "\n" + marker(PASSAGE_A))
            .encode("utf-8")
            + torn
        )
        journal = _CheckpointJournal(path, FINGERPRINT, resume=True)
        assert journal.lookup(PASSAGE_A) == [Candidate("question é", -1.0)]
        journal.close(discard=False)
        assert journal.journaled_ids() == ["a"]
        assert path.read_bytes().endswith(b"\n")

    def test_integer_past_the_digit_limit_line_is_skipped(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        whole = {"passage_id": "a", **CANDIDATE_RECORD}
        huge = '{"passage_id": "b", "text": "t", "lm_score": %s}' % ("1" * 5000)
        path.write_text(
            HEADER + huge + "\n" + marker(PASSAGE_B) + json.dumps(whole) + "\n" + marker(PASSAGE_A),
            encoding="utf-8",
        )
        journal = _CheckpointJournal(path, FINGERPRINT, resume=True)
        assert journal.lookup(PASSAGE_A) == [Candidate("question q answer a", -1.0)]
        assert journal.lookup(PASSAGE_B) is None
        journal.close(discard=False)
        # Both blocks are complete, but only a's rows are all candidates of it.
        assert journal.journaled_ids() == ["a", "b"]

    def test_block_whose_rows_name_another_passage_is_not_reused(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        other = {"passage_id": "b", **CANDIDATE_RECORD}
        path.write_text(HEADER + json.dumps(other) + "\n" + marker(PASSAGE_A), encoding="utf-8")
        journal = _CheckpointJournal(path, FINGERPRINT, resume=True)
        assert journal.lookup(PASSAGE_A) is None
        journal.close(discard=False)
        assert journal.journaled_ids() == ["a"]

    def test_block_with_an_invalid_row_is_generated_again(self, tmp_path):
        # The second block's second row is not a candidate.
        self.resume_with_second_block_edited(tmp_path, lambda block, _: block[1].update(text=5))

    def test_block_whose_rows_name_another_passage_is_generated_again(self, tmp_path):
        def rename(block, other_id):
            for row in block:
                row["passage_id"] = other_id

        self.resume_with_second_block_edited(tmp_path, rename)

    @staticmethod
    def resume_with_second_block_edited(tmp_path, edit) -> None:
        """Resume from a baseline run's journal whose second block had ``edit(rows, first_id)``.

        Every other block is valid; only the edited block's passage is
        generated again, and the artifacts equal the baseline's.
        """
        baseline = run_pipeline(make_config(tmp_path, "baseline"))
        passages = [
            Passage(**json.loads(line))
            for line in Path(baseline.outputs["passages"]).read_text("utf-8").splitlines()
        ]
        rows: dict[str, list[dict]] = {}
        for line in Path(baseline.outputs["candidates"]).read_text("utf-8").splitlines():
            row = json.loads(line)
            rows.setdefault(row["passage_id"], []).append(row)
        config = make_config(tmp_path, "resumed", resume=True)
        first, corrupt = sorted(rows)[:2]
        edit(rows[corrupt], first)
        journal = json.dumps({"format": 2, "fingerprint": resume_fingerprint(config)}) + "\n"
        for passage in sorted(passages, key=lambda passage: passage.id):
            journal += "".join(json.dumps(row) + "\n" for row in rows[passage.id])
            journal += marker(passage)
        out_dir = Path(config.output_dir)
        out_dir.mkdir()
        (out_dir / "checkpoint.jsonl").write_text(journal, encoding="utf-8")

        backend = _Counting(build_backend(config))
        resumed = run_pipeline(config, backend=backend)
        texts = {passage.id: passage.text for passage in passages}
        assert backend.passages == [texts[corrupt]]
        assert same_artifacts(resumed, baseline)


class TestJournalReadHandle:
    @pytest.fixture()
    def opened(self, monkeypatch):
        """Every file the pipeline module opens, as ``(path, mode, file)``."""
        handles = []

        def recording_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            handles.append((Path(path), mode, handle))
            return handle

        monkeypatch.setattr(pipeline, "open", recording_open, raising=False)
        return handles

    def test_a_resume_opens_the_journal_once_to_read(self, tmp_path, opened):
        path = tmp_path / "checkpoint.jsonl"
        passages = [Passage.build(f"p{index:02d}", f"passage {index}", "en") for index in range(30)]
        journal = _CheckpointJournal(path, FINGERPRINT, resume=False)
        for index, passage in enumerate(passages):
            rows = [Candidate(f"question q{index} answer {index}", -1.0 - index)] * 2
            journal.record(passage, candidate_rows(passage.id, rows))
        journal.close(discard=False)
        opened.clear()

        resumed = _CheckpointJournal(path, FINGERPRINT, resume=True)
        found = [resumed.lookup(passage) for passage in passages]
        resumed.close(discard=False)
        assert found == [
            [Candidate(f"question q{index} answer {index}", -1.0 - index)] * 2
            for index in range(30)
        ]
        assert [(name, mode) for name, mode, _ in opened] == [(path, "rb"), (path, "ab")]
        assert all(handle.closed for _, _, handle in opened)

    def test_a_refused_header_leaves_no_handle_open(self, tmp_path, opened):
        path = tmp_path / "checkpoint.jsonl"
        path.write_text(HEADER, encoding="utf-8")
        with pytest.raises(ConfigurationError, match="seed differ"):
            _CheckpointJournal(path, {**FINGERPRINT, "seed": 2}, resume=True)
        assert [(name, mode) for name, mode, _ in opened] == [(path, "rb")]
        assert all(handle.closed for _, _, handle in opened)


class TestJournalDecoding:
    def test_reopening_indexes_every_block_and_reads_back_its_ids(self, tmp_path):
        path = tmp_path / "checkpoint.jsonl"
        passages = [Passage.build(f"p{index:02d}", f"passage {index}", "en") for index in range(30)]
        journal = _CheckpointJournal(path, FINGERPRINT, resume=False)
        for index, passage in enumerate(passages):
            rows = [Candidate(f"question q{index} answer {index}", -1.0 - index)] * 3
            journal.record(passage, candidate_rows(passage.id, rows))
        journal.close(discard=False)
        resumed = _CheckpointJournal(path, FINGERPRINT, resume=True)
        resumed.close(discard=False)
        assert list(resumed.blocks) == [passage.id for passage in passages]
        assert resumed.journaled_ids() == [passage.id for passage in passages]

    def test_a_journal_written_by_an_earlier_release_resumes(self, tmp_path, fixtures_dir):
        # journal_five_blocks.jsonl: this config's run, stopped after 5
        # passages, written by run_pipeline before _markers scanned journals.
        config = make_config(tmp_path, "resumed", seed=1, num_samples=4, keep_per_passage=4)
        out_dir = Path(config.output_dir)
        out_dir.mkdir()
        (out_dir / "checkpoint.jsonl").write_bytes(
            (fixtures_dir / "journal_five_blocks.jsonl").read_bytes()
        )
        backend = _Counting(build_backend(config))
        resumed = run_pipeline(replace(config, resume=True), backend=backend)
        once = run_pipeline(replace(config, output_dir=str(tmp_path / "once")))
        assert (resumed.journal_hits, len(backend.passages)) == (5, 5)
        assert same_artifacts(resumed, once)


class TestEmitFailure:
    def test_failure_after_generation_keeps_journal_for_resume(self, tmp_path):
        baseline = run_pipeline(make_config(tmp_path, "baseline"))
        config = make_config(tmp_path, "blocked")
        out_dir = Path(config.output_dir)
        (out_dir / "dataset.json").mkdir(parents=True)

        with pytest.raises(PipelineError) as exc:
            run_pipeline(config)
        assert exc.value.stage == "emit"
        assert isinstance(exc.value.cause, OSError)
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text("utf-8"))
        assert checkpoint["stage"] == "emit"
        assert "failed_passage_id" not in checkpoint
        assert len(checkpoint["completed_passage_ids"]) == 10
        assert (out_dir / "checkpoint.jsonl").exists()

        (out_dir / "dataset.json").rmdir()
        resumed = run_pipeline(make_config(tmp_path, "blocked", resume=True), backend=_NoBackend())
        assert (
            Path(resumed.outputs["dataset"]).read_bytes()
            == Path(baseline.outputs["dataset"]).read_bytes()
        )


class _FailAfter:
    """Delegates to a real backend for ``limit`` calls, then fails every call."""

    def __init__(self, inner, limit: int):
        self.inner = inner
        self.limit = limit
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request, seed=0):
        with self._lock:
            self.calls += 1
            calls = self.calls
        if calls > self.limit:
            raise TransportError("injected outage")
        return self.inner.generate(request, seed=seed)


def interrupted_run(tmp_path: Path, **overrides) -> PipelineConfig:
    """50 of 60 passages sampled, 20 samples each, stopped after 20 passages."""
    write_passage_file(tmp_path / "passages.jsonl", make_passages(count=60))
    config = make_config(tmp_path, "run", sample_n=50, seed=1, **overrides)
    with pytest.raises(PipelineError):
        run_pipeline(config, backend=_FailAfter(build_backend(make_config(tmp_path)), 20))
    return config


def checkpoint_bytes(config: PipelineConfig) -> dict[str, bytes]:
    out_dir = Path(config.output_dir)
    return {name: (out_dir / name).read_bytes() for name in ("checkpoint.jsonl", "checkpoint.json")}


def journal_fingerprint(config: PipelineConfig, backend) -> dict:
    """The fingerprint a run with ``backend`` journals; its emit fails, so the journal is kept."""
    dataset = Path(config.output_dir) / "dataset.json"
    dataset.mkdir(parents=True)
    with pytest.raises(PipelineError):
        run_pipeline(config, backend=backend)
    dataset.rmdir()
    header = (Path(config.output_dir) / "checkpoint.jsonl").read_bytes().split(b"\n", 1)[0]
    return json.loads(header)["fingerprint"]


class TestResumeFingerprint:
    @pytest.mark.parametrize("knob", GENERATION_KNOBS)
    def test_each_generation_knob_reaches_the_request_and_the_fingerprint(self, tmp_path, knob):
        config = make_config(tmp_path)
        value = getattr(config, knob)
        changed = replace(config, **{knob: "de" if value is None else value + 1})
        request = changed.request_template()
        assert request != config.request_template()
        assert resume_fingerprint(changed) != resume_fingerprint(config)
        assert resume_fingerprint(changed)[knob] == getattr(request, knob)

    @pytest.mark.parametrize(
        "change",
        [
            {"num_samples": 5, "keep_per_passage": 5},
            {"top_k": 3},
            {"max_output_tokens": 16},
            {"target_language": "de"},
            {"order": 2},
            {"seed": 2},
            {"backend": "remote", "endpoint": "http://127.0.0.1:9"},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_resume_under_another_generation_setting_is_refused(self, tmp_path, change):
        config = interrupted_run(tmp_path)
        before = checkpoint_bytes(config)
        resumed = replace(config, resume=True, **change)
        inner = build_backend(replace(resumed, backend="reference"))
        with pytest.raises(ConfigurationError, match=next(iter(change))):
            run_pipeline(resumed, backend=inner)
        assert checkpoint_bytes(config) == before

    def test_resume_with_fewer_samples_does_not_mix_journal_entries(self, tmp_path):
        # Before the header, this resume reported generated == 550: 20 journaled
        # passages x 20 samples plus 30 new ones x 5.
        config = interrupted_run(tmp_path)
        fewer = replace(config, num_samples=5, keep_per_passage=5)
        with pytest.raises(ConfigurationError, match="num_samples"):
            run_pipeline(replace(fewer, resume=True))
        assert run_pipeline(fewer).counts["generated"] == 250

    def test_changed_training_corpus_bytes_are_refused(self, tmp_path):
        config = interrupted_run(tmp_path)
        before = checkpoint_bytes(config)
        write_training_file(Path(config.train_corpus), make_training_corpus(seed=12))
        with pytest.raises(ConfigurationError, match="train_corpus_sha256"):
            run_pipeline(replace(config, resume=True), backend=_NoBackend())
        assert checkpoint_bytes(config) == before

    def test_the_journal_records_the_corpus_the_backend_was_fit_on(self, tmp_path, capsys):
        # Once the header hashed the file as it was when the run opened the
        # journal: a corpus replaced after the fit was recorded, and a resume
        # with a model fit on it reused the first model's candidates.
        config = make_config(tmp_path)
        corpus = Path(config.train_corpus)
        fit_on_a, sha256_a = build_backend(config), hashlib.sha256(corpus.read_bytes()).hexdigest()
        write_training_file(corpus, make_training_corpus(seed=12))
        assert journal_fingerprint(config, fit_on_a)["train_corpus_sha256"] == sha256_a

        before = checkpoint_bytes(config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(asdict(config)), encoding="utf-8")
        assert cli.main(["run", "--config", str(config_path), "--resume"]) == 1
        assert "train_corpus_sha256" in capsys.readouterr().err
        assert checkpoint_bytes(config) == before
        assert not (Path(config.output_dir) / "dataset.json").exists()

    def test_the_journal_records_the_order_of_the_backend(self, tmp_path, capsys):
        # Once the header recorded config.order: a journal written by an
        # order-2 model under a config of order 3 read "order: 3", and a
        # resume with an order-3 model reused the order-2 candidates.
        config = make_config(tmp_path, order=3)
        assert journal_fingerprint(config, build_backend(replace(config, order=2)))["order"] == 2

        before = checkpoint_bytes(config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(asdict(config)), encoding="utf-8")
        assert cli.main(["run", "--config", str(config_path), "--resume"]) == 1
        assert "order" in capsys.readouterr().err
        assert checkpoint_bytes(config) == before
        assert not (Path(config.output_dir) / "dataset.json").exists()

    def test_a_backend_that_only_generates_is_fingerprinted_from_the_file(self, tmp_path):
        # As the benchmark's traced proxy does, the wrapper hides the fitted
        # backend's digest, so the header hashes config.train_corpus.
        config = make_config(tmp_path)
        fingerprint = journal_fingerprint(config, _Counting(build_backend(config)))
        assert fingerprint == resume_fingerprint(config)

    def test_endpoint_is_compared_as_resolved(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QAFORGE_GENERATOR_URL", "http://127.0.0.1:9/")
        config = interrupted_run(tmp_path, backend="remote", train_corpus=None)
        inner = build_backend(make_config(tmp_path))
        resumed = replace(config, resume=True, endpoint="http://127.0.0.1:9")
        report = run_pipeline(resumed, backend=inner)
        assert report.counts["generated"] == 50 * 20

    @pytest.mark.parametrize("journal", ["missing", "torn", "nested-too-deep"])
    def test_journal_without_a_complete_header_is_refused(self, tmp_path, journal):
        config = interrupted_run(tmp_path)
        path = Path(config.output_dir) / "checkpoint.jsonl"
        header, rest = path.read_bytes().split(b"\n", 1)
        deep = b"[" * 200_000 + b"\n" + rest
        path.write_bytes({"missing": rest, "torn": header[:-3], "nested-too-deep": deep}[journal])
        before = checkpoint_bytes(config)
        with pytest.raises(ConfigurationError, match="header"):
            run_pipeline(replace(config, resume=True), backend=_NoBackend())
        assert checkpoint_bytes(config) == before

    @pytest.mark.parametrize(
        "change",
        [
            {"sample_n": 40},
            {"min_tokens": 40},
            {"max_tokens": 50},
            {"language": "en"},
            {"keep_per_passage": 3},
            {"length_normalize": True},
            {"workers": 2},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_ingest_and_filter_knobs_may_change_across_a_resume(self, tmp_path, change):
        config = interrupted_run(tmp_path)
        resumed = run_pipeline(replace(config, resume=True, **change))
        uninterrupted = run_pipeline(replace(config, output_dir=str(tmp_path / "once"), **change))
        assert resumed.counts == uninterrupted.counts
        assert (
            Path(resumed.outputs["dataset"]).read_bytes()
            == Path(uninterrupted.outputs["dataset"]).read_bytes()
        )


class TestTrainingCorpusRead:
    def test_a_run_opens_the_training_corpus_once(self, tmp_path, monkeypatch):
        # Once the fit read the file and the journal header read it again to hash it.
        config = make_config(tmp_path)
        opened = []

        def recording(open_file):
            def open_and_record(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and os.fspath(file) == config.train_corpus:
                    opened.append(file)
                return open_file(file, *args, **kwargs)
            return open_and_record

        # Path.read_bytes opens through io.open, the other readers through open.
        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(io, "open", recording(io.open))
        run_pipeline(config)
        assert len(opened) == 1


ARTIFACTS = {
    "passages.jsonl", "candidates.jsonl", "examples.jsonl", "dataset.json", "report.json",
}


class TestNoTemporaryLeftBehind:
    def test_finished_run_leaves_only_its_artifacts(self, tmp_path):
        report = run_pipeline(make_config(tmp_path))
        assert set(os.listdir(Path(report.outputs["dataset"]).parent)) == ARTIFACTS

    def test_failed_emit_leaves_no_temporary_and_names_the_artifact(self, tmp_path):
        config = make_config(tmp_path, "blocked")
        out_dir = Path(config.output_dir)
        (out_dir / "dataset.json").mkdir(parents=True)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(config)
        assert str(out_dir / "dataset.json") in str(exc.value)
        assert set(os.listdir(out_dir)) == {
            "passages.jsonl", "candidates.jsonl", "examples.jsonl", "dataset.json",
            "checkpoint.json", "checkpoint.jsonl",
        }

    def test_resume_after_a_kill_leaves_no_temporary(self, tmp_path):
        # SIGKILL runs no cleanup, so the killed run leaves its temporaries;
        # the resume writes the same artifacts through the same temporaries.
        write_passage_file(tmp_path / "passages.jsonl", make_passages(count=600))
        baseline = run_pipeline(make_config(tmp_path, "baseline", sample_n=None))
        config = make_config(tmp_path, "killed", sample_n=None)
        config_path = tmp_path / "killed.json"
        config_path.write_text(json.dumps(asdict(config)), encoding="utf-8")
        out_dir = Path(config.output_dir)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        argv = [sys.executable, "-m", "qaforge.cli", "run", "--config", str(config_path)]
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ) as process:
            try:
                deadline = time.monotonic() + 60
                while not list(out_dir.glob("*.tmp")):
                    assert process.poll() is None, "the run finished before it was killed"
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            finally:
                process.kill()
        assert process.returncode == -signal.SIGKILL
        assert list(out_dir.glob("*.tmp")) != []
        resumed = run_pipeline(replace(config, resume=True))
        assert list(out_dir.glob("*.tmp")) == []
        assert same_artifacts(resumed, baseline)


class TestSignals:
    @pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)])
    def test_a_signal_ends_the_run_with_a_checkpoint_and_no_temporary(
        self, tmp_path, signum, code
    ):
        write_passage_file(tmp_path / "passages.jsonl", make_passages(count=600))
        baseline = run_pipeline(make_config(tmp_path, "baseline", sample_n=None))
        config = make_config(tmp_path, "stopped", sample_n=None)
        config_path = tmp_path / "stopped.json"
        config_path.write_text(json.dumps(asdict(config)), encoding="utf-8")
        out_dir = Path(config.output_dir)
        journal = out_dir / "checkpoint.jsonl"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        argv = [sys.executable, "-m", "qaforge.cli", "run", "--config", str(config_path)]
        with subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        ) as process:
            try:
                deadline = time.monotonic() + 60
                # Sent once the first journal block is complete.
                while not (journal.exists() and b'"passage_sha256"' in journal.read_bytes()):
                    assert process.poll() is None, "the run finished before the signal"
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                process.send_signal(signum)
                _, err = process.communicate(timeout=60)
            finally:
                process.kill()
        assert process.returncode == code
        text = err.decode("utf-8")
        assert "Traceback" not in text
        errors = [line for line in text.splitlines() if line.startswith("error:")]
        assert errors == [f"error: interrupted by {signal.Signals(signum).name}"]
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text("utf-8"))
        markers = [json.loads(line)["passage_id"] for line in journal.read_bytes().splitlines()
                   if b'"passage_sha256"' in line]
        assert checkpoint == {"stage": "interrupted", "completed_passage_ids": markers}
        assert markers != []
        assert list(out_dir.glob("*.tmp")) == []
        resumed = run_pipeline(replace(config, resume=True))
        assert resumed.journal_hits == len(markers)
        assert same_artifacts(resumed, baseline)

    def test_main_in_another_thread_leaves_the_handlers(self, tmp_path):
        write_passage_file(tmp_path / "passages.jsonl", make_passages(count=3))
        before = [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)]
        codes = []
        argv = ["ingest", "--input", str(tmp_path / "passages.jsonl"),
                "--output", str(tmp_path / "kept.jsonl")]
        thread = threading.Thread(target=lambda: codes.append(cli.main(argv)))
        thread.start()
        thread.join(timeout=60)
        assert codes == [0]
        assert [signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)] == before

    def test_a_signal_stops_the_worker_pool(self, tmp_path):
        write_passage_file(tmp_path / "passages.jsonl", make_passages(count=300))
        config = make_config(tmp_path, "stopped", sample_n=None, workers=2,
                             num_samples=4, keep_per_passage=4)
        backend = _SignallingBackend(at=20)
        previous = signal.signal(signal.SIGTERM, cli._interrupt)
        try:
            with pytest.raises(Interrupted):
                run_pipeline(config, backend=backend)
        finally:
            signal.signal(signal.SIGTERM, previous)
        calls = backend.calls
        time.sleep(0.1)
        # The pool ran none of what was queued behind the signal.
        assert backend.calls == calls < 300
        out_dir = Path(config.output_dir)
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text("utf-8"))
        assert checkpoint["stage"] == "interrupted"
        assert list(out_dir.glob("*.tmp")) == []
        resumed = run_pipeline(replace(config, resume=True), backend=_QuotingBackend())
        once = run_pipeline(replace(config, output_dir=str(tmp_path / "once")),
                            backend=_QuotingBackend())
        assert resumed.journal_hits == len(checkpoint["completed_passage_ids"])
        assert same_artifacts(resumed, once)


class _SignallingBackend:
    """``_QuotingBackend``'s candidates, 5 ms per call; sends SIGTERM to this process at call ``at``."""

    def __init__(self, at: int):
        self.at = at
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request, seed=0):
        with self._lock:
            self.calls += 1
            calls = self.calls
        if calls == self.at:
            os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(0.005)
        return _QuotingBackend().generate(request, seed)


def same_artifacts(first: PipelineReport, second: PipelineReport) -> bool:
    return all(
        Path(first.outputs[name]).read_bytes() == Path(second.outputs[name]).read_bytes()
        for name in ("passages", "candidates", "examples", "dataset")
    )


def edit_passage_text(config: PipelineConfig, passage_id: str) -> None:
    """Rewrite ``config.input`` with one word appended to ``passage_id``'s text.

    The reference backend conditions on the last words of a passage, so the
    edit changes what it generates for that passage.
    """
    passages = [
        replace(p, text=p.text + " harbor") if p.id == passage_id else p
        for p in make_passages(count=60)
    ]
    write_passage_file(Path(config.input), passages)


class TestResumeUsesOnlyTheSamePassageText:
    def test_journaled_passage_with_edited_text_is_regenerated(self, tmp_path):
        config = interrupted_run(tmp_path)
        checkpoint = json.loads((Path(config.output_dir) / "checkpoint.json").read_text("utf-8"))
        assert "p008" in checkpoint["completed_passage_ids"]
        edit_passage_text(config, "p008")
        resumed = run_pipeline(replace(config, resume=True))
        fresh = run_pipeline(replace(config, output_dir=str(tmp_path / "fresh")))
        assert same_artifacts(resumed, fresh)


class _Counting:
    """Delegates to a real backend and records the passage of each call."""

    def __init__(self, inner):
        self.inner = inner
        self.passages: list[str] = []

    def generate(self, request, seed=0):
        self.passages.append(request.passage)
        return self.inner.generate(request, seed=seed)


class TestJournalBlocks:
    @pytest.mark.parametrize("cut", ["between-rows", "before-marker"])
    def test_block_without_its_marker_is_regenerated(self, tmp_path, cut):
        config = interrupted_run(tmp_path)
        path = Path(config.output_dir) / "checkpoint.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # The last line is the marker of the 20th block, after its 20 rows.
        last = json.loads(lines[-1])["passage_id"]
        path.write_bytes(b"".join(lines[:-1] if cut == "before-marker" else lines[:-8]))
        inner = build_backend(config)
        first_calls = _Counting(inner)
        with pytest.raises(PipelineError):
            run_pipeline(replace(config, resume=True), backend=_FailAfter(first_calls, 5))
        texts = {p.id: p.text for p in make_passages(count=60)}
        assert first_calls.passages[0] == texts[last]
        # A second resume reads the block appended after the cut.
        second_calls = _Counting(inner)
        resumed = run_pipeline(replace(config, resume=True), backend=second_calls)
        assert len(second_calls.passages) == 50 - 19 - 5
        once = run_pipeline(replace(config, output_dir=str(tmp_path / "once")))
        assert same_artifacts(resumed, once)

    def test_journal_of_the_earlier_format_is_refused(self, tmp_path):
        config = interrupted_run(tmp_path)
        path = Path(config.output_dir) / "checkpoint.jsonl"
        header = {"fingerprint": resume_fingerprint(config)}
        entry = {"passage_id": "p000", "candidates": [CANDIDATE_RECORD]}
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n", encoding="utf-8")
        before = checkpoint_bytes(config)
        with pytest.raises(ConfigurationError, match="journal format 1"):
            run_pipeline(replace(config, resume=True), backend=_NoBackend())
        assert checkpoint_bytes(config) == before

    def test_resume_of_an_unchanged_input_generates_only_the_rest(self, tmp_path):
        config = interrupted_run(tmp_path)
        backend = _Counting(build_backend(config))
        resumed = run_pipeline(replace(config, resume=True), backend=backend)
        assert len(backend.passages) == 30
        once = run_pipeline(replace(config, output_dir=str(tmp_path / "once")))
        assert same_artifacts(resumed, once)


class TestProcessPassage:
    def test_arguments_but_the_backend_pickle_and_both_sources_give_the_same_outputs(
        self, tmp_path
    ):
        config = make_config(tmp_path)
        backend = build_backend(config)
        passage = min(ingest(config)[0], key=lambda passage: passage.id)
        request, filter_config = config.request_template(), config.filter_config()
        generated = process_passage(passage, None, backend, request, 99, filter_config)
        assert generated[2] is not None
        journaled = generate_passage(passage, backend, request, 99)[0]
        for candidates in (None, journaled):
            arguments = (passage, candidates, request, 99, filter_config)
            function, (passage_, candidates_, *rest) = pickle.loads(
                pickle.dumps((process_passage, arguments))
            )
            assert function(passage_, candidates_, backend, *rest) == generated


class TestJournalHits:
    def test_a_resume_reports_the_passages_read_from_the_journal(self, tmp_path):
        config = interrupted_run(tmp_path)
        resumed = run_pipeline(replace(config, resume=True))
        fresh = run_pipeline(replace(config, output_dir=str(tmp_path / "fresh")))
        assert (resumed.journal_hits, fresh.journal_hits) == (20, 0)
        for report in (resumed, fresh):
            recorded = json.loads(Path(report.outputs["report"]).read_text("utf-8"))
            assert recorded["journal_hits"] == report.journal_hits


class TestReportRoundTrip:
    @pytest.mark.parametrize("run", ["parse-failures", "resume"])
    def test_report_json_reads_back_as_the_returned_report(self, tmp_path, run):
        if run == "resume":
            report = run_pipeline(replace(interrupted_run(tmp_path), resume=True))
            assert report.journal_hits > 0
        else:
            report = run_pipeline(make_config(tmp_path))
            assert report.parse_failures
        path = report.outputs["report"]
        recorded = json.loads(Path(path).read_text("utf-8"))
        assert PipelineReport.from_record(recorded, path) == report
        assert list(recorded) == [
            "counts", "record_errors", "parse_failures", "journal_hits", "elapsed_seconds", "outputs"
        ]
        assert list(recorded["counts"]) == [
            "ingested", "length_kept", "sampled", "generated", "parsed", "extractive", "deduped",
            "kept",
        ]
        examples = Path(report.outputs["examples"]).read_text("utf-8").splitlines()
        dataset = read_squad(Path(report.outputs["dataset"]).read_bytes()).dataset
        qas = [qa for article in dataset.articles for p in article.paragraphs for qa in p.qas]
        assert report.counts["kept"] == len(examples) == len(qas) > 0


class TestJournalLookupFailure:
    def test_a_lookup_that_raises_fails_as_generate_naming_the_passage(
        self, tmp_path, monkeypatch
    ):
        config = interrupted_run(tmp_path)
        checkpoint_path = Path(config.output_dir) / "checkpoint.json"
        failing = json.loads(checkpoint_path.read_text("utf-8"))["completed_passage_ids"][5]
        lookup = _CheckpointJournal.lookup

        def lookup_failing_once(journal, passage):
            if passage.id == failing:
                raise OSError("injected read failure")
            return lookup(journal, passage)

        monkeypatch.setattr(_CheckpointJournal, "lookup", lookup_failing_once)
        with pytest.raises(PipelineError) as exc:
            run_pipeline(replace(config, resume=True))
        assert exc.value.stage == "generate"
        assert isinstance(exc.value.cause, OSError)
        checkpoint = json.loads(checkpoint_path.read_text("utf-8"))
        assert (checkpoint["stage"], checkpoint["failed_passage_id"]) == ("generate", failing)
        assert failing in checkpoint["completed_passage_ids"]

        monkeypatch.undo()
        resumed = run_pipeline(replace(config, resume=True))
        once = run_pipeline(replace(config, output_dir=str(tmp_path / "once")))
        assert same_artifacts(resumed, once)


class _QuotingBackend:
    """A backend without a model: one extractive question per leading passage word."""

    def generate(self, request, seed=0):
        words = request.passage.split()[: request.num_samples]
        return [
            Candidate(f"question where is {word} {index} answer {word}", -1.0 - index)
            for index, word in enumerate(words)
        ]


def traced_bytes_above_passages(tmp_path: Path, count: int) -> int:
    """Traced peak of ``run_pipeline`` over ``count`` passages, less what the passages hold."""
    passages_path = write_passage_file(tmp_path / f"passages-{count}.jsonl", make_passages(count))
    config = make_config(
        tmp_path, f"out-{count}", input=str(passages_path), sample_n=None,
        num_samples=CANDIDATES_PER_PASSAGE, keep_per_passage=CANDIDATES_PER_PASSAGE,
    )
    tracemalloc.start()
    try:
        sampled = ingest(config)
        passages_bytes = tracemalloc.get_traced_memory()[0]
        del sampled
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = run_pipeline(config, backend=_QuotingBackend())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.counts["kept"] > count
    return peak - passages_bytes


CANDIDATES_PER_PASSAGE = 4
# Bytes of traced peak memory each added candidate may add, all included
# (its passage's share of the journal's id set, for one). A run that held
# every candidate, example and the document grew by about 2,000 bytes per
# candidate here; a streaming run grows by about 20.
BYTES_PER_ADDED_CANDIDATE = 100


class TestRunMemory:
    def test_peak_above_the_passages_does_not_grow_with_the_candidates(self, tmp_path):
        small = traced_bytes_above_passages(tmp_path, 200)
        large = traced_bytes_above_passages(tmp_path, 2000)
        added_candidates = (2000 - 200) * CANDIDATES_PER_PASSAGE
        assert large - small < added_candidates * BYTES_PER_ADDED_CANDIDATE, (small, large)


class TestBigVocabularyRun:
    def test_no_run_sorts_the_vocabulary(self, tmp_path, monkeypatch):
        # 625 training passages of 32 distinct words each: 20,000 words.
        words = [f"w{i:05d}" for i in range(20000)]
        corpus = [
            (" ".join(words[start:start + 32]), f"what is {words[start]}", words[start + 1])
            for start in range(0, len(words), 32)
        ]
        write_training_file(tmp_path / "train.jsonl", corpus)
        # The run's passages end on trained contexts.
        passages = [Passage.build(f"p{i:03d}", corpus[i][0], "en") for i in range(12)]
        write_passage_file(tmp_path / "passages.jsonl", passages)
        fit = pipeline.build_backend
        fitted = []

        def build_backend(config):
            fitted.append(fit(config))
            return fitted[-1]

        monkeypatch.setattr(pipeline, "build_backend", build_backend)
        report = run_pipeline(make_config(tmp_path))
        assert report.counts["generated"] == 10 * 20
        [backend] = fitted
        assert backend.score_sequence(corpus[0][0], format_target("what is", "w00001")) < 0
        assert "vocabulary" not in backend.__dict__
        assert len(backend._lexicographic_prefix) < len(backend._vocabulary_set) + 1
        assert backend.vocabulary == tuple(sorted(backend._vocabulary_set))
        assert len(backend.vocabulary) >= 20000


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """A 10-passage config and the artifacts of its run without a failure."""
    config = make_config(tmp_path_factory.mktemp("interruption"), "once")
    report = run_pipeline(config)
    artifacts = {
        name: Path(report.outputs[name]).read_bytes()
        for name in ("candidates", "examples", "dataset")
    }
    return config, artifacts


class TestInterruptionPoint:
    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(min_value=0, max_value=9), workers=st.sampled_from([1, 2]))
    def test_resumed_output_does_not_depend_on_where_the_run_failed(
        self, uninterrupted, k, workers
    ):
        config, expected = uninterrupted
        backend = build_backend(config)
        with tempfile.TemporaryDirectory() as out_dir:
            run = replace(config, output_dir=out_dir, workers=workers)
            with pytest.raises(PipelineError):
                run_pipeline(run, backend=_FailAfter(backend, k))
            checkpoint = json.loads((Path(out_dir) / "checkpoint.json").read_text("utf-8"))
            assert checkpoint["stage"] == "generate"
            assert checkpoint["failed_passage_id"] is not None
            resumed = run_pipeline(replace(run, resume=True), backend=backend)
            for name, content in expected.items():
                assert Path(resumed.outputs[name]).read_bytes() == content, name


class TestInOrder:
    def test_results_keep_item_order_and_work_ahead_is_bounded(self):
        started: list[int] = []

        def square(item: int) -> int:
            started.append(item)
            return item * item

        results = []
        for value in _in_order(square, range(1000), workers=2):
            results.append(value)
            assert len(started) <= len(results) + _AHEAD_PER_WORKER * 2
        assert results == [item * item for item in range(1000)]

    def test_first_failure_in_item_order_is_raised_and_the_rest_cancelled(self):
        started: list[int] = []

        def fail_from_10(item: int) -> int:
            started.append(item)
            if item >= 10:
                raise ValueError(item)
            return item

        results = []
        with pytest.raises(ValueError, match="^10$"):
            for value in _in_order(fail_from_10, range(1000), workers=2):
                results.append(value)
        assert results == list(range(10))
        assert len(started) < 1000

    def test_no_item_starts_after_a_failure(self):
        # Item 1 fails at once; item 0 fails later, while the consumer waits
        # on it. Once, the idle threads went on starting items meanwhile.
        started: list[int] = []

        def fail_first_two(item: int) -> int:
            started.append(item)
            time.sleep({0: 0.1, 1: 0}.get(item, 0.01))
            if item < 2:
                raise ValueError(item)
            return item

        with pytest.raises(ValueError, match="^0$"):
            list(_in_order(fail_first_two, range(1000), workers=2))
        # Only the items the 2 * workers threads had already started ran.
        assert len(started) <= 4


class _PassageService:
    """A remote generation service for the ``serve`` fixture.

    Each request takes ``delay`` seconds. The first request for each passage
    text in ``faulted`` is answered 503, as is every request when
    ``always_fail``; the others get ``_QuotingBackend``'s candidates. Records
    each request's passage, arrival and end time, and the number of requests
    in flight when it arrived.
    """

    def __init__(self, delay: float, faulted=(), always_fail=False):
        self.delay = delay
        self.faulted = set(faulted)
        self.always_fail = always_fail
        self.lock = threading.Lock()
        self.clients: list = []
        self.requests: list[dict] = []
        self._in_flight = 0

    def next_response(self, body):
        with self.lock:
            self._in_flight += 1
            entry = {"passage": body["passage"], "in_flight": self._in_flight,
                     "arrived": time.monotonic()}
            self.requests.append(entry)
            fault = self.always_fail or body["passage"] in self.faulted
            self.faulted.discard(body["passage"])
        time.sleep(self.delay)
        with self.lock:
            self._in_flight -= 1
            entry["ended"] = time.monotonic()
        if fault:
            return 503, {}
        candidates = _QuotingBackend().generate(GenerationRequest(**body))
        return 200, {"candidates": [candidate.to_record() for candidate in candidates]}


def remote_config(tmp_path: Path, endpoint: str, out_name: str, **overrides) -> PipelineConfig:
    passages = tmp_path / "passages.jsonl"
    if not passages.exists():
        write_passage_file(passages, make_passages(count=40))
    return make_config(
        tmp_path, out_name, backend="remote", endpoint=endpoint, train_corpus=None,
        sample_n=None, **overrides,
    )


class _SlowFirstService:
    """A service for the ``serve`` fixture: one passage slow, one always failing.

    The request for passage text ``slow`` takes 0.2 s, any other 5 ms. Every
    request for ``failing`` is answered 503; the others get
    ``_QuotingBackend``'s candidates. Both texts are set after the service starts.
    """

    def __init__(self):
        self.slow = self.failing = None
        self.lock = threading.Lock()
        self.clients: list = []

    def next_response(self, body):
        time.sleep(0.2 if body["passage"] == self.slow else 0.005)
        if body["passage"] == self.failing:
            return 503, {}
        candidates = _QuotingBackend().generate(GenerationRequest(**body))
        return 200, {"candidates": [candidate.to_record() for candidate in candidates]}


class TestJournalOrder:
    @pytest.mark.usefixtures("fast_retries")
    def test_journal_at_two_workers_equals_the_journal_at_one(self, tmp_path, serve):
        # The first passage finishes after the ones behind it, and the last
        # one fails. Blocks were once appended in the order the threads
        # finished, so the first passage's block came after the others'.
        service = _SlowFirstService()
        endpoint = serve(service, keep_alive=True)
        journals = {}
        for workers in (1, 2):
            config = remote_config(tmp_path, endpoint, f"w{workers}", workers=workers)
            ordered = sorted(ingest(config)[0], key=lambda passage: passage.id)
            service.slow, service.failing = ordered[0].text, ordered[-1].text
            with closing(build_backend(config)) as backend:
                with pytest.raises(PipelineError) as exc:
                    run_pipeline(config, backend=backend)
            assert exc.value.failed_passage_id == ordered[-1].id
            journals[workers] = (Path(config.output_dir) / "checkpoint.jsonl").read_bytes()
        markers = [json.loads(line)["passage_id"] for line in journals[1].splitlines()
                   if b'"passage_sha256"' in line]
        assert markers == [passage.id for passage in ordered[:-1]]
        assert journals[2] == journals[1]


class TestRemoteWorkers:
    def test_a_passage_waiting_to_retry_leaves_its_connection_to_the_others(
        self, tmp_path, serve
    ):
        texts = [p.text for p in make_passages(count=40)]
        service = _PassageService(delay=0.005, faulted=[texts[2]])
        config = remote_config(tmp_path, serve(service, keep_alive=True), "two", workers=2)
        with closing(build_backend(config)) as backend:
            report = run_pipeline(config, backend=backend)
        assert max(entry["in_flight"] for entry in service.requests) <= 2
        fault, retry = [entry for entry in service.requests if entry["passage"] == texts[2]]
        during_backoff = [
            entry for entry in service.requests
            if fault["ended"] < entry["arrived"] < retry["arrived"]
        ]
        # Both connections stay busy while the faulted passage sleeps: with
        # one thread per connection, its sleep idled one of them.
        assert max(entry["in_flight"] for entry in during_backoff) == 2
        assert len(service.requests) == 41

        sequential = replace(config, output_dir=str(tmp_path / "one"), workers=1)
        assert same_artifacts(report, run_pipeline(sequential))

    @pytest.mark.usefixtures("fast_retries")
    def test_service_that_always_fails_is_a_transport_error(self, tmp_path, serve):
        service = _PassageService(delay=0.005, always_fail=True)
        config = remote_config(tmp_path, serve(service, keep_alive=True), "out", workers=2)
        with closing(build_backend(config)) as backend:
            with pytest.raises(PipelineError) as exc:
                run_pipeline(config, backend=backend)
        assert isinstance(exc.value.cause, TransportError)
        assert max(entry["in_flight"] for entry in service.requests) <= 2

    @pytest.mark.usefixtures("fast_retries")
    def test_dead_service_costs_one_retry_budget_per_thread(self, tmp_path, serve):
        # Once, passages queued behind the first failure still started, and
        # a run against a dead service spent two retry budgets (24 requests).
        service = _PassageService(delay=0.005, always_fail=True)
        config = remote_config(tmp_path, serve(service, keep_alive=True), "out", workers=2)
        with closing(build_backend(config)) as backend:
            with pytest.raises(PipelineError):
                run_pipeline(config, backend=backend)
        assert len(service.requests) <= 2 * config.workers * MAX_ATTEMPTS
