from __future__ import annotations

import json
from dataclasses import fields

import pytest

from conftest import make_passages, make_training_corpus, write_passage_file, write_training_file
from qaforge.cli import build_parser, main
from qaforge.dataset import read_squad
from qaforge.pipeline import PipelineConfig


@pytest.fixture()
def workspace(tmp_path):
    write_passage_file(tmp_path / "passages.jsonl", make_passages(count=12))
    write_training_file(tmp_path / "train.jsonl", make_training_corpus())
    return tmp_path


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestIngestCommand:
    def test_filters_and_samples(self, workspace, capsys):
        output = workspace / "kept.jsonl"
        code = run_cli(
            "ingest",
            "--input", str(workspace / "passages.jsonl"),
            "--language", "en",
            "--min-tokens", "30",
            "--max-tokens", "450",
            "--sample", "5",
            "--seed", "3",
            "--output", str(output),
        )
        assert code == 0
        rows = [json.loads(line) for line in output.read_text("utf-8").splitlines()]
        assert len(rows) == 5
        assert all(30 <= row["token_count"] <= 450 for row in rows)
        assert "wrote 5 passages" in capsys.readouterr().out

    def test_invalid_bounds_exit_usage(self, workspace, capsys):
        code = run_cli(
            "ingest",
            "--input", str(workspace / "passages.jsonl"),
            "--min-tokens", "100",
            "--max-tokens", "50",
            "--output", str(workspace / "x.jsonl"),
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_input_exit_data(self, workspace, capsys):
        code = run_cli(
            "ingest",
            "--input", str(workspace / "absent.jsonl"),
            "--output", str(workspace / "x.jsonl"),
        )
        assert code == 2

    def test_unknown_flag_exit_usage(self, workspace, capsys):
        code = run_cli("ingest", "--nope")
        assert code == 1


class TestStageCommands:
    def test_generate_filter_emit_chain(self, workspace, capsys):
        candidates = workspace / "candidates.jsonl"
        code = run_cli(
            "generate",
            "--passages", str(workspace / "passages.jsonl"),
            "--backend", "reference",
            "--train-corpus", str(workspace / "train.jsonl"),
            "--num-samples", "20",
            "--top-k", "10",
            "--max-output-tokens", "24",
            "--seed", "99",
            "--output", str(candidates),
        )
        assert code == 0
        rows = [json.loads(line) for line in candidates.read_text("utf-8").splitlines()]
        assert len(rows) == 12 * 20
        assert set(rows[0]) == {"passage_id", "text", "lm_score"}

        examples = workspace / "examples.jsonl"
        stats = workspace / "stats.json"
        code = run_cli(
            "filter",
            "--candidates", str(candidates),
            "--passages", str(workspace / "passages.jsonl"),
            "--keep", "10",
            "--per-passage", "20",
            "--stats", str(stats),
            "--output", str(examples),
        )
        assert code == 0
        stats_payload = json.loads(stats.read_text("utf-8"))
        assert stats_payload["candidates"] == 240
        assert stats_payload["kept"] >= 1

        dataset = workspace / "dataset.json"
        code = run_cli(
            "emit",
            "--examples", str(examples),
            "--passages", str(workspace / "passages.jsonl"),
            "--output", str(dataset),
        )
        assert code == 0
        result = read_squad(dataset.read_bytes())
        assert result.violations == []

    def test_generate_reference_requires_train_corpus(self, workspace, capsys):
        code = run_cli(
            "generate",
            "--passages", str(workspace / "passages.jsonl"),
            "--backend", "reference",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 1

    def test_filter_rejects_unknown_passage_ids(self, workspace):
        candidates = workspace / "bad.jsonl"
        candidates.write_text(
            json.dumps({"passage_id": "ghost", "text": "question q answer a",
                        "lm_score": -1.0}) + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            "filter",
            "--candidates", str(candidates),
            "--passages", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "e.jsonl"),
        )
        assert code == 2


class TestMixCommand:
    def test_writes_manifest(self, tmp_path, capsys):
        output = tmp_path / "manifest.json"
        code = run_cli(
            "mix",
            "--synthetic", "synth.json",
            "--gold", "squad_en.json", "translate_de.json",
            "--output", str(output),
        )
        assert code == 0
        payload = json.loads(output.read_text("utf-8"))
        assert [stage["name"] for stage in payload["stages"]] == ["synthetic", "gold"]
        assert payload["stages"][0]["epochs"] == 2
        assert payload["stages"][0]["batch_size"] == 64
        assert payload["stages"][0]["learning_rate"] == 3e-5

    def test_no_paths_is_usage_error(self, tmp_path):
        assert run_cli("mix", "--output", str(tmp_path / "m.json")) == 1

    def test_hyperparameter_flags(self, tmp_path):
        output = tmp_path / "manifest.json"
        code = run_cli(
            "mix", "--gold", "g.json", "--epochs", "4", "--output", str(output)
        )
        assert code == 0
        payload = json.loads(output.read_text("utf-8"))
        assert payload["stages"][0]["epochs"] == 4


class TestEvalCommand:
    def test_scores_fixture_dataset(self, fixtures_dir, tmp_path, capsys):
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(fixtures_dir / "metric_oracle_predictions.json"),
            "--mode", "squad",
            "--language", "en",
            "--output", str(tmp_path / "report.json"),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["total"] == 6
        assert 0.0 <= summary["exact_match"] <= 100.0
        report = json.loads((tmp_path / "report.json").read_text("utf-8"))
        assert len(report["per_example"]) == 6

    def test_missing_predictions_exit_data(self, fixtures_dir, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(empty),
        )
        assert code == 2

    def test_missing_as_zero_permissive_mode(self, fixtures_dir, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(empty),
            "--missing-as-zero",
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["exact_match"] == 0.0

    def test_mlqa_mode_applies_language_rules(self, fixtures_dir, tmp_path, capsys):
        document = json.loads(
            (fixtures_dir / "metric_oracle_dataset.json").read_text("utf-8")
        )
        es_only = {"version": "1.1",
                   "data": [a for a in document["data"] if a["title"] == "fixture-es"]}
        dataset_path = tmp_path / "es.json"
        dataset_path.write_text(json.dumps(es_only, ensure_ascii=False), encoding="utf-8")
        predictions_path = tmp_path / "preds.json"
        predictions_path.write_text(
            json.dumps(
                {"es-1": "a finales del año 1700.", "es-2": "Brunot Island"},
                ensure_ascii=False,
            ),
            encoding="utf-8",
        )
        code = run_cli(
            "eval",
            "--dataset", str(dataset_path),
            "--predictions", str(predictions_path),
            "--mode", "mlqa",
            "--language", "es",
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["exact_match"] == 50.0
        assert summary["f1"] == pytest.approx(100.0 * (6 / 7 + 1.0) / 2)


class TestBleuCommand:
    def test_scores_line_files(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d e\n", encoding="utf-8")
        code = run_cli(
            "bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bleu"] == pytest.approx(77.8800783071, abs=1e-6)

    def test_line_count_mismatch_exit_data(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b\nc d\n", encoding="utf-8")
        code = run_cli(
            "bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")
        )
        assert code == 2

    def test_chinese_lines_segment_per_character(self, tmp_path, capsys):
        # Identical four-ideograph lines only reach 100 if each Han
        # character becomes its own token.
        (tmp_path / "hyp.txt").write_text("美国男子\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("美国男子\n", encoding="utf-8")
        code = run_cli(
            "bleu",
            "--hyp", str(tmp_path / "hyp.txt"),
            "--ref", str(tmp_path / "ref.txt"),
            "--language", "zh",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["bleu"] == 100.0


class TestRunCommand:
    def test_full_pipeline_from_config_with_flag_override(self, workspace, capsys):
        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "output_dir": str(workspace / "run_out"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    "seed": 1,
                    "sample_n": 6,
                    "max_output_tokens": 24,
                }
            ),
            encoding="utf-8",
        )
        code = run_cli("run", "--config", str(config_path), "--seed", "99")
        assert code == 0
        out = capsys.readouterr().out
        assert "stage" in out and "kept" in out

        dataset_path = workspace / "run_out" / "dataset.json"
        assert read_squad(dataset_path.read_bytes()).violations == []
        report = json.loads((workspace / "run_out" / "report.json").read_text("utf-8"))
        assert report["counts"]["sampled"] == 6

    def test_remote_backend_down_exit_transport(self, workspace, monkeypatch):
        monkeypatch.setenv("QAFORGE_GENERATOR_URL", "http://127.0.0.1:9")
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "remote_out"),
            "--backend", "remote",
            "--sample-n", "2",
            "--seed", "1",
        )
        assert code == 3
        checkpoint = workspace / "remote_out" / "checkpoint.json"
        assert checkpoint.exists()

    def test_runs_are_byte_identical_across_processes(self, workspace):
        # Fresh interpreters get fresh hash randomization; outputs must not
        # depend on it.
        import os
        import subprocess
        import sys
        from pathlib import Path

        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    "output_dir": str(workspace / "unused"),
                    "seed": 11,
                    "sample_n": 6,
                    "max_output_tokens": 24,
                }
            ),
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        for index, out_name in enumerate(("proc_a", "proc_b")):
            env["PYTHONHASHSEED"] = str(1000 + index)
            completed = subprocess.run(
                [
                    sys.executable, "-m", "qaforge.cli", "run",
                    "--config", str(config_path),
                    "--output-dir", str(workspace / out_name),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert completed.returncode == 0, completed.stderr
        first = (workspace / "proc_a" / "dataset.json").read_bytes()
        second = (workspace / "proc_b" / "dataset.json").read_bytes()
        assert first == second

    def test_stats_command_prints_funnel(self, workspace, capsys):
        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "output_dir": str(workspace / "stats_out"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    "seed": 5,
                    "sample_n": 4,
                    "max_output_tokens": 24,
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(config_path)) == 0
        capsys.readouterr()
        code = run_cli("stats", "--report", str(workspace / "stats_out" / "report.json"))
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["stage", "count", "drop"]
        assert "generated" in out


# One wrong-typed field per record format; each must exit 2, not raise.
WRONG_TYPED_RECORDS = {
    "candidate-text": (
        {"passage_id": "p000", "text": 5, "lm_score": -1.0},
        ["filter", "--candidates", "{bad}", "--passages", "{passages}", "--output", "{out}"],
    ),
    "example-answer-start": (
        {"passage_id": "p000", "question": "q", "answer": "a", "answer_start": "3",
         "lm_score": -1.0, "language": "en"},
        ["emit", "--examples", "{bad}", "--passages", "{passages}", "--output", "{out}"],
    ),
    "stats-count": (
        {"counts": {"ingested": "10", "length_kept": 5}},
        ["stats", "--report", "{bad}"],
    ),
    "eval-prediction": (
        {"en-1": 5},
        ["eval", "--dataset", "{dataset}", "--predictions", "{bad}", "--missing-as-zero"],
    ),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("case", sorted(WRONG_TYPED_RECORDS))
    def test_wrong_typed_field_exit_data(self, workspace, fixtures_dir, capsys, case):
        record, argv = WRONG_TYPED_RECORDS[case]
        bad = workspace / "bad.json"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        paths = {
            "bad": str(bad),
            "passages": str(workspace / "passages.jsonl"),
            "out": str(workspace / "out.json"),
            "dataset": str(fixtures_dir / "metric_oracle_dataset.json"),
        }
        assert run_cli(*(arg.format(**paths) for arg in argv)) == 2
        assert "error" in capsys.readouterr().err

    def test_generate_top_k_zero_exit_usage(self, workspace):
        code = run_cli(
            "generate",
            "--passages", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--top-k", "0",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 1

    def test_generate_missing_train_corpus_exit_data(self, workspace):
        code = run_cli(
            "generate",
            "--passages", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "absent.jsonl"),
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 2

    def test_run_missing_train_corpus_exit_data(self, workspace):
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(workspace / "absent.jsonl"),
        )
        assert code == 2

    @pytest.mark.parametrize("override", [{"workers": "2"}, {"top_k": "3"}, {"dedup": "no"}])
    def test_run_config_value_of_wrong_type_exit_usage(self, workspace, override):
        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "output_dir": str(workspace / "out"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    **override,
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(config_path)) == 1


class TestRunFlags:
    def test_every_config_key_has_a_flag(self):
        parser = build_parser()
        for name, types in PipelineConfig.field_types().items():
            flag = "--" + name.replace("_", "-")
            if types[0] is bool:
                assert getattr(parser.parse_args(["run", flag]), name) is True
                assert getattr(parser.parse_args(["run", "--no-" + flag[2:]]), name) is False
            else:
                value = "3" if types[0] is int else "x"
                assert getattr(parser.parse_args(["run", flag, value]), name) == types[0](value)

    def test_flags_left_out_keep_config_values(self):
        args = build_parser().parse_args(["run", "--config", "c.json"])
        assert all(getattr(args, f.name) is None for f in fields(PipelineConfig))


class TestStagedChainMatchesRun:
    def test_stage_subcommands_reproduce_run(self, workspace):
        passages = str(workspace / "passages.jsonl")
        train = str(workspace / "train.jsonl")
        staged = workspace / "staged"
        staged.mkdir()
        assert run_cli(
            "ingest", "--input", passages, "--sample", "6", "--seed", "11",
            "--output", str(staged / "passages.jsonl"),
        ) == 0
        assert run_cli(
            "generate", "--passages", str(staged / "passages.jsonl"), "--train-corpus", train,
            "--num-samples", "12", "--max-output-tokens", "24", "--seed", "11",
            "--output", str(staged / "candidates.jsonl"),
        ) == 0
        assert run_cli(
            "filter", "--candidates", str(staged / "candidates.jsonl"),
            "--passages", str(staged / "passages.jsonl"), "--per-passage", "12",
            "--output", str(staged / "examples.jsonl"),
        ) == 0
        assert run_cli(
            "emit", "--examples", str(staged / "examples.jsonl"),
            "--passages", str(staged / "passages.jsonl"),
            "--output", str(staged / "dataset.json"),
        ) == 0
        run_dir = workspace / "run"
        assert run_cli(
            "run", "--input", passages, "--output-dir", str(run_dir), "--train-corpus", train,
            "--sample-n", "6", "--seed", "11", "--num-samples", "12", "--max-output-tokens", "24",
        ) == 0

        assert (staged / "examples.jsonl").read_text("utf-8")
        for name in ("passages.jsonl", "examples.jsonl", "dataset.json"):
            assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name
        staged_rows = (staged / "candidates.jsonl").read_text("utf-8").splitlines()
        run_rows = (run_dir / "candidates.jsonl").read_text("utf-8").splitlines()
        assert sorted(staged_rows) == sorted(run_rows)
