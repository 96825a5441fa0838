from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import make_passages, make_training_corpus, write_passage_file, write_training_file
from qaforge.dataset import read_squad
from qaforge.errors import ConfigurationError, PipelineError, TransportError
from qaforge.pipeline import (
    PipelineConfig,
    PipelineReport,
    run_pipeline,
    stats_summary,
)


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
            raise TransportError("injected outage", url="http://test", attempts=3)
        return self.inner.generate(request, seed=seed)


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
        for artifact in ("passages", "candidates", "examples", "stats"):
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

    def test_seed_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QAFORGE_SEED", "777")
        config = PipelineConfig(input="x", output_dir=str(tmp_path))
        assert config.resolved_seed() == 777
        monkeypatch.setenv("QAFORGE_SEED", "not-a-number")
        with pytest.raises(ConfigurationError):
            config.resolved_seed()

    def test_explicit_seed_wins_over_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QAFORGE_SEED", "777")
        config = PipelineConfig(input="x", output_dir=str(tmp_path), seed=5)
        assert config.resolved_seed() == 5


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
            {"dedup": "no"},
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
             "dedup": False, "language": "en"}
        )
        assert (config.seed, config.sample_n, config.dedup) == (None, 3, False)


class TestResumeJournal:
    def test_unusable_journal_lines_are_skipped(self, tmp_path):
        baseline = run_pipeline(make_config(tmp_path, "baseline"))
        first_id = json.loads(
            Path(baseline.outputs["passages"]).read_text("utf-8").splitlines()[0]
        )["id"]
        config = make_config(tmp_path, "resumed", resume=True)
        out_dir = Path(config.output_dir)
        out_dir.mkdir()
        lines = [
            {"candidates": [{"text": "question q answer a", "lm_score": -1.0}]},
            {"passage_id": first_id, "candidates": [{"text": 5, "lm_score": -1.0}]},
            {"passage_id": 7, "candidates": []},
        ]
        (out_dir / "checkpoint.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        resumed = run_pipeline(config)
        assert (
            Path(resumed.outputs["dataset"]).read_bytes()
            == Path(baseline.outputs["dataset"]).read_bytes()
        )


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
