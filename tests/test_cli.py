from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import re
import stat
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import (
    _Script, make_passages, make_training_corpus, write_passage_file, write_training_file
)
from qaforge.cli import build_parser, main
from qaforge.dataset import read_squad
from qaforge.errors import ConfigurationError
from qaforge.metrics import bleu, load_profile_table
from qaforge.parsefilter import FilterConfig
from qaforge.pipeline import (
    CANDIDATE_STAGES,
    PipelineConfig,
    PipelineReport,
    resume_fingerprint,
    stats_summary,
)


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
            "--sample-n", "5",
            "--seed", "3",
            "--output", str(output),
        )
        assert code == 0
        rows = [json.loads(line) for line in output.read_text("utf-8").splitlines()]
        assert len(rows) == 5
        assert all(30 <= row["token_count"] <= 450 for row in rows)
        assert "wrote 5 passages" in capsys.readouterr().out

    def test_language_is_compared_as_a_code(self, workspace, capsys):
        # Once compared lowercased but not stripped: "en " kept 0 of 12 passages.
        output = workspace / "kept.jsonl"
        code = run_cli(
            "ingest",
            "--input", str(workspace / "passages.jsonl"),
            "--language", " EN ",
            "--output", str(output),
        )
        assert code == 0
        assert len(output.read_text("utf-8").splitlines()) == 12
        assert "wrote 12 passages" in capsys.readouterr().out

    def test_blank_language_exit_usage(self, workspace, capsys):
        # Once accepted: the filter kept the empty code, 0 of 12 passages, with exit 0.
        output = workspace / "kept.jsonl"
        code = run_cli(
            "ingest",
            "--input", str(workspace / "passages.jsonl"),
            "--language", " ",
            "--output", str(output),
        )
        assert code == 1
        assert "language" in capsys.readouterr().err
        assert not output.exists()

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


ROWS_FLAG = {"filter": "--candidates", "emit": "--examples"}


def write_stage_rows(workspace, command: str, passage_ids: list[str]):
    """One extractive input row of ``filter`` or ``emit`` per entry of ``passage_ids``."""
    texts = {}
    for line in (workspace / "passages.jsonl").read_text("utf-8").splitlines():
        record = json.loads(line)
        texts[record["id"]] = record["text"]
    rows = workspace / f"{command}-rows.jsonl"
    with open(rows, "w", encoding="utf-8") as handle:
        for index, passage_id in enumerate(passage_ids):
            answer = texts[passage_id].split()[0]
            if command == "filter":
                record = {"passage_id": passage_id, "lm_score": -1.0 - index,
                          "text": f"question what is {index} answer {answer}"}
            else:
                record = {"passage_id": passage_id, "question": f"what is {index}",
                          "answer": answer, "answer_start": 0, "lm_score": -1.0 - index,
                          "language": "en"}
            handle.write(json.dumps(record) + "\n")
    return rows


class TestStageCommands:
    def test_generate_filter_emit_chain(self, workspace, capsys):
        candidates = workspace / "candidates.jsonl"
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
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
            "--input", str(workspace / "passages.jsonl"),
            "--keep-per-passage", "10",
            "--stats", str(stats),
            "--output", str(examples),
        )
        assert code == 0
        stats_payload = json.loads(stats.read_text("utf-8"))
        assert stats_payload["counts"]["generated"] == 240
        assert stats_payload["counts"]["kept"] >= 1

        dataset = workspace / "dataset.json"
        code = run_cli(
            "emit",
            "--examples", str(examples),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(dataset),
        )
        assert code == 0
        result = read_squad(dataset.read_bytes())
        assert result.violations == []

    def test_generate_reference_requires_train_corpus(self, workspace, capsys):
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
            "--backend", "reference",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 1

    def test_generate_fewer_samples_than_the_default_keep(self, workspace, capsys):
        # keep <= num_samples is a check of run alone: only there do both take effect.
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--num-samples", "5",
            "--max-output-tokens", "8",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 0
        assert "wrote 60 candidates for 12 passages" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["filter", "emit"])
    @pytest.mark.parametrize(
        "order, bad_line",
        [(["p001", "p000"], 2), (["p000", "p001", "p001", "p000"], 4)],
        ids=["descending", "reappearing"],
    )
    def test_rows_out_of_passage_order_exit_data(
        self, workspace, capsys, command, order, bad_line
    ):
        # Once accepted: both stages grouped every row of the file in memory.
        rows = write_stage_rows(workspace, command, order)
        output = workspace / "out.json"
        code = run_cli(
            command, ROWS_FLAG[command], str(rows),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(output),
        )
        assert code == 2
        assert f"{rows}:{bad_line}: passage id" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize(
        "fault, message",
        [("duplicate", "duplicate example in passage 'p001'"),
         ("offset", "answer offset mismatch in passage 'p001'")],
        ids=["duplicate", "offset"],
    )
    def test_bad_example_names_its_file_and_line(self, workspace, capsys, fault, message):
        # Once named only the passage and question, not where the row is.
        rows = write_stage_rows(workspace, "emit", ["p000", "p001", "p002"])
        lines = rows.read_text("utf-8").splitlines(keepends=True)
        if fault == "duplicate":
            lines.insert(2, lines[1])
        else:
            lines[1] = lines[1].replace('"answer_start": 0', '"answer_start": 1')
        # A blank line counts: the reported number is the line in the file.
        rows.write_text("\n" + "".join(lines), encoding="utf-8")
        output = workspace / "dataset.json"
        code = run_cli(
            "emit", "--examples", str(rows),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(output),
        )
        assert code == 2
        bad_line = 4 if fault == "duplicate" else 3
        assert f"{rows}:{bad_line}: {message}" in capsys.readouterr().err
        assert not output.exists()

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
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "e.jsonl"),
        )
        assert code == 2


class TestGenerateRemote:
    def test_closes_its_connections(self, workspace, serve):
        # Once the client was never closed: collecting it warned of an
        # unclosed socket, an error under this suite's warnings filter.
        payload = {"candidates": [{"text": "question q answer a", "lm_score": -1.0}]}
        endpoint = serve(_Script([(200, payload)]), keep_alive=True)
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
            "--backend", "remote",
            "--endpoint", endpoint,
            "--num-samples", "1",
            "--output", str(workspace / "candidates.jsonl"),
        )
        assert code == 0
        gc.collect()


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

    @pytest.mark.parametrize("learning_rate", ["nan", "inf", "1e400"])
    def test_non_finite_learning_rate_exit_usage(self, tmp_path, capsys, learning_rate):
        # Once exit 0, with "learning_rate": NaN or Infinity in the manifest.
        output = tmp_path / "manifest.json"
        code = run_cli(
            "mix", "--synthetic", "a.json", "--learning-rate", learning_rate,
            "--output", str(output),
        )
        assert code == 1
        assert "invalid hyperparameters for stage 'synthetic'" in capsys.readouterr().err
        assert not output.exists()


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

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{", "profile table is not valid JSON: "),
            ('{"entries": 3}', "profile table must carry an 'entries' array"),
            ('{"entries": [{"language": 3}]}', "profile table entry 0 needs string language"),
        ],
        ids=["invalid-json", "entries-not-array", "entry-wrong-typed"],
    )
    def test_invalid_profile_table_names_its_file(self, tmp_path, capsys, content, reason):
        # Each once named no file, as "profile table is not valid JSON: Expecting value".
        table = tmp_path / "profiles.json"
        table.write_text(content, encoding="utf-8")
        code = run_cli(
            "eval", "--dataset", str(tmp_path / "d.json"), "--predictions",
            str(tmp_path / "p.json"), "--profile-config", str(table),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {table}: {reason}")

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{", "document is not valid JSON: "),
            ('{"version": "1.1", "data": 3}', "$.data: expected list, got int"),
        ],
        ids=["invalid-json", "schema-fault"],
    )
    def test_invalid_dataset_names_its_file(self, tmp_path, capsys, content, reason):
        # Once "error: document is not valid JSON: ...", naming no file.
        dataset = tmp_path / "d.json"
        dataset.write_text(content, encoding="utf-8")
        code = run_cli(
            "eval", "--dataset", str(dataset), "--predictions", str(tmp_path / "p.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {dataset}: {reason}")

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

    def test_blank_language_exit_usage(self, fixtures_dir, capsys):
        # Once accepted: scored with the default mlqa profile, exit 0.
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(fixtures_dir / "metric_oracle_predictions.json"),
            "--mode", "mlqa",
            "--language", " ",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "language" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--language", " "], "language must not be blank"),
            (["--profile-config", "absent-profiles.json"], "cannot read profile table"),
        ],
        ids=["blank-language", "missing-profile-config"],
    )
    def test_bad_flag_exit_usage_before_reading(self, tmp_path, capsys, flags, reason):
        # Once read first: with a malformed dataset, exit 2 naming the dataset.
        dataset = tmp_path / "dataset.json"
        dataset.write_text('{"version": "1.1", "data": [{"title": 1}]}', encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(dataset),
            "--predictions", str(tmp_path / "absent-predictions.json"),
            "--mode", "mlqa",
            *flags,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert reason in captured.err
        assert captured.out == ""

    def test_duplicate_qa_id_exit_data(self, tmp_path, capsys):
        qa = {"id": "q1", "question": "?", "answers": [{"text": "alpha", "answer_start": 0}]}
        paragraph = {"context": "alpha", "qas": [qa, qa]}
        dataset = tmp_path / "dataset.json"
        dataset.write_text(
            json.dumps({"version": "1.1", "data": [{"title": "t", "paragraphs": [paragraph]}]}),
            encoding="utf-8",
        )
        predictions = tmp_path / "predictions.json"
        predictions.write_text('{"q1": "alpha"}', encoding="utf-8")
        code = run_cli("eval", "--dataset", str(dataset), "--predictions", str(predictions))
        assert code == 2
        captured = capsys.readouterr()
        assert "error: duplicate qa id in dataset: q1" in captured.err.splitlines()
        assert captured.out == ""

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

    def test_blank_language_exit_usage(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c d\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text("a b c d\n", encoding="utf-8")
        code = run_cli(
            "bleu",
            "--hyp", str(tmp_path / "hyp.txt"),
            "--ref", str(tmp_path / "ref.txt"),
            "--language", " ",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "language" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c", "\r"])
    def test_lines_end_only_at_newline(self, tmp_path, capsys, separator):
        # Other line boundaries sit inside a line, where they are whitespace.
        # An empty line is an empty hypothesis, and only the final newline
        # ends the file. Once split on every Unicode line boundary: each file
        # read as 5 lines, paired wrongly.
        (tmp_path / "hyp.txt").write_text(
            f"a b c d{separator}e f\n\ng h i j\n\n", encoding="utf-8", newline=""
        )
        (tmp_path / "ref.txt").write_text(
            f"a b c d e f\nx\ng h{separator}i j\ny", encoding="utf-8", newline=""
        )
        code = run_cli(
            "bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")
        )
        assert code == 0
        expected = bleu(
            [list("abcdef"), [], list("ghij"), []],
            [list("abcdef"), ["x"], list("ghij"), ["y"]],
        )
        assert json.loads(capsys.readouterr().out) == {"bleu": expected}

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


# The stdout of `eval` and `bleu` on the metric oracle fixtures, recorded
# before the scoring path was rewritten to normalize each answer once: any
# change to a score, down to the last bit of a float, changes these bytes.
GOLDEN_LANGUAGES = ("en", "es", "zh")
GOLDEN_CASES = {
    **{
        f"eval {mode} {language}": [
            "eval", "--dataset", "{dataset}", "--predictions", "{predictions}",
            "--mode", mode, "--language", language,
        ]
        for mode in ("squad", "mlqa")
        for language in GOLDEN_LANGUAGES
    },
    **{
        f"bleu {language} max-n {max_n}": [
            "bleu", "--hyp", f"{{hyp_{language}}}", "--ref", f"{{ref_{language}}}",
            "--language", language, "--max-n", str(max_n),
        ]
        for language in GOLDEN_LANGUAGES
        for max_n in (1, 2, 3, 4)
    },
}


def golden_inputs(fixtures_dir, directory) -> dict[str, str]:
    """Paths the golden cases read; each language's BLEU lines are its raw
    predictions against its first gold answers, in fixture order."""
    dataset_path = fixtures_dir / "metric_oracle_dataset.json"
    predictions_path = fixtures_dir / "metric_oracle_predictions.json"
    predictions = json.loads(predictions_path.read_text(encoding="utf-8"))
    articles = {a.title: a for a in read_squad(dataset_path.read_bytes()).dataset.articles}
    paths = {"dataset": str(dataset_path), "predictions": str(predictions_path)}
    for language in GOLDEN_LANGUAGES:
        article = articles[f"fixture-{language}"]
        qas = [qa for paragraph in article.paragraphs for qa in paragraph.qas]
        for side, lines in (
            ("hyp", [predictions[qa.id] for qa in qas]),
            ("ref", [qa.answers[0].text for qa in qas]),
        ):
            path = directory / f"{side}_{language}.txt"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths[f"{side}_{language}"] = str(path)
    return paths


class TestGoldenScoringOutput:
    def test_stdout_is_byte_identical(self, fixtures_dir, tmp_path, capsys):
        golden = json.loads(
            (fixtures_dir / "metric_cli_golden.json").read_text(encoding="utf-8")
        )
        assert set(golden) == set(GOLDEN_CASES)
        paths = golden_inputs(fixtures_dir, tmp_path)
        for name, argv in GOLDEN_CASES.items():
            assert run_cli(*(arg.format(**paths) for arg in argv)) == 0, name
            assert capsys.readouterr().out == golden[name], name

    def test_eval_report_is_byte_identical(self, fixtures_dir, tmp_path, capsys):
        # The `eval --output` report of each eval case, recorded before the
        # scoring kernels were rewritten: per-entry floats and layout.
        golden = json.loads(
            (fixtures_dir / "metric_cli_report_golden.json").read_text(encoding="utf-8")
        )
        cases = {name: argv for name, argv in GOLDEN_CASES.items() if name.startswith("eval ")}
        assert set(golden) == set(cases)
        paths = golden_inputs(fixtures_dir, tmp_path)
        report = tmp_path / "report.json"
        for name, argv in cases.items():
            assert run_cli(*(arg.format(**paths) for arg in argv), "--output", str(report)) == 0
            capsys.readouterr()
            assert report.read_bytes().decode("utf-8") == golden[name], name


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

    @pytest.mark.usefixtures("fast_retries")
    def test_remote_backend_down_exit_transport(self, workspace, monkeypatch, capsys):
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
        assert "generator unreachable after 3 attempts" in capsys.readouterr().err
        checkpoint = workspace / "remote_out" / "checkpoint.json"
        assert checkpoint.exists()

    @pytest.mark.parametrize("status", [302, 307])
    def test_remote_redirect_exit_transport(self, workspace, serve, status):
        # Once followed: a 307 loop gave up after 31 requests with exit 2.
        script = _Script([(status, {}, {"Location": "/generate"})])
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "remote_out"),
            "--backend", "remote",
            "--endpoint", serve(script),
            "--sample-n", "2",
            "--seed", "1",
        )
        assert code == 3
        assert len(script.bodies) == 1

    def test_remote_response_without_candidates_exit_transport(self, workspace, serve, capsys):
        script = _Script([(200, {})])
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "remote_out"),
            "--backend", "remote",
            "--endpoint", serve(script),
            "--sample-n", "2",
            "--seed", "1",
        )
        assert code == 3
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "generator response missing 'candidates' array" in errors[0]
        # A protocol error is not retried.
        assert len(script.bodies) == 1

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

    def test_stats_report_without_counts_exit_data(self, tmp_path, capsys):
        # Once printed an empty funnel and exited 0.
        report = tmp_path / "report.json"
        report.write_text("{}", encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {report}: 'counts' must be an object of integer counts"
        )
        assert captured.out == ""

    def test_stats_report_with_non_integer_record_errors_exit_data(self, tmp_path, capsys):
        # Once printed the funnel and exited 0.
        report = tmp_path / "report.json"
        report.write_text(
            json.dumps({"counts": {"ingested": 3}, "record_errors": "x"}), encoding="utf-8"
        )
        assert run_cli("stats", "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {report}: 'record_errors' must be an integer")
        assert captured.out == ""

    def test_stats_prints_record_errors_after_the_funnel(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        counts = {"ingested": 3}
        report.write_text(json.dumps({"counts": counts, "record_errors": 5}), encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 0
        funnel = stats_summary(PipelineReport(counts=counts))
        assert capsys.readouterr().out == f"{funnel}\nrecord errors: 5\n"
        report.write_text(json.dumps({"counts": counts}), encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 0
        assert capsys.readouterr().out == f"{funnel}\n"

    def test_stats_prints_parse_failures_sorted_then_journal_hits(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        counts = {"generated": 9, "parsed": 6}
        payload = {
            "counts": counts,
            "record_errors": 1,
            "parse_failures": {"question_marker": 2, "answer": 1},
            "journal_hits": 4,
        }
        report.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 0
        funnel = stats_summary(PipelineReport(counts=counts))
        assert capsys.readouterr().out == (
            f"{funnel}\nrecord errors: 1\nparse failure answer: 1\n"
            "parse failure question_marker: 2\njournal hits: 4\n"
        )

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("parse_failures", {"answer": "1"}, "an object of integer counts"),
            ("parse_failures", {"answer": True}, "an object of integer counts"),
            ("parse_failures", [1], "an object of integer counts"),
            ("journal_hits", 2.0, "an integer"),
            ("journal_hits", True, "an integer"),
            ("journal_hits", None, "an integer"),
            ("elapsed_seconds", "1.5", "a float"),
            ("outputs", {"dataset": 1}, "an object of strings"),
        ],
    )
    def test_stats_report_with_a_wrong_typed_field_exits_data(
        self, tmp_path, capsys, field, value, expected
    ):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"counts": {"ingested": 3}, field: value}), encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {report}: '{field}' must be {expected}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"counts": {"ingested": -1}}, "'counts' must be an object of integer counts >= 0"),
            (
                {"counts": {"ingested": 3, "length_kept": 5}},
                "'length_kept' (5) exceeds 'ingested' (3)",
            ),
            (
                {"counts": {"generated": 9, "parsed": 6}, "parse_failures": {"answer": 2}},
                "'parse_failures' sum to 2, generated - parsed is 3",
            ),
        ],
        ids=["negative-count", "widening-section", "parse-failure-sum"],
    )
    def test_stats_report_with_a_broken_funnel_exits_data(self, tmp_path, capsys, payload, message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("stats", "--report", str(report)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {report}: {message}\n"
        assert captured.out == ""

    def test_run_prints_the_stats_of_its_report_then_the_dataset(self, workspace, capsys):
        out_dir = workspace / "run_out"
        assert run_cli(
            "run", "--input", str(workspace / "passages.jsonl"), "--output-dir", str(out_dir),
            "--train-corpus", str(workspace / "train.jsonl"), "--seed", "5",
            "--max-output-tokens", "24", "--target-language", "de",
        ) == 0
        printed = capsys.readouterr().out
        assert run_cli("stats", "--report", str(out_dir / "report.json")) == 0
        stats = capsys.readouterr().out
        assert "parse failure" in stats
        assert printed == f"{stats}dataset: {out_dir / 'dataset.json'}\n"

    def test_stats_of_a_run_prints_its_parse_failures_and_journal_hits(self, workspace, capsys):
        out_dir = workspace / "stats_out"
        assert run_cli(
            "run", "--input", str(workspace / "passages.jsonl"), "--output-dir", str(out_dir),
            "--train-corpus", str(workspace / "train.jsonl"), "--seed", "5",
            "--max-output-tokens", "24", "--target-language", "de",
        ) == 0
        capsys.readouterr()
        report = json.loads((out_dir / "report.json").read_text("utf-8"))
        assert report["parse_failures"] and report["journal_hits"] == 0
        assert run_cli("stats", "--report", str(out_dir / "report.json")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-len(report["parse_failures"]) - 1:] == [
            *(f"parse failure {part}: {count}" for part, count in report["parse_failures"].items()),
            "journal hits: 0",
        ]


# One wrong-typed field per record format; each must exit 2, not raise.
WRONG_TYPED_RECORDS = {
    "candidate-text": (
        {"passage_id": "p000", "text": 5, "lm_score": -1.0},
        ["filter", "--candidates", "{bad}", "--input", "{passages}", "--output", "{out}"],
    ),
    "example-answer-start": (
        {"passage_id": "p000", "question": "q", "answer": "a", "answer_start": "3",
         "lm_score": -1.0, "language": "en"},
        ["emit", "--examples", "{bad}", "--input", "{passages}", "--output", "{out}"],
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
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--top-k", "0",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 1

    def test_generate_blank_target_language_exit_usage(self, workspace, capsys):
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--target-language", " ",
            "--output", str(workspace / "c.jsonl"),
        )
        assert code == 1
        assert "target_language" in capsys.readouterr().err
        assert not (workspace / "c.jsonl").exists()

    def test_run_blank_target_language_exit_usage(self, workspace, capsys):
        # Once accepted: the run conditioned on "<lang:>" and kept 0 examples with exit 0.
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--target-language", "",
        )
        assert code == 1
        assert "target_language" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_run_blank_language_exit_usage(self, workspace, capsys):
        # Once accepted: the run kept the empty code, 0 of 12 passages, with exit 0.
        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "output_dir": str(workspace / "out"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    "language": " ",
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(config_path)) == 1
        assert "language" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_generate_missing_train_corpus_exit_data(self, workspace):
        code = run_cli(
            "generate",
            "--input", str(workspace / "passages.jsonl"),
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

    @pytest.mark.parametrize("override", [{"workers": "2"}, {"top_k": "3"}, {"resume": "no"}])
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


# The config keys each stage subcommand reads, and so takes a flag for.
STAGE_KEYS = {
    "ingest": ("input", "language", "min_tokens", "max_tokens", "sample_n", "seed"),
    "generate": (
        "input", "backend", "order", "num_samples", "top_k", "max_output_tokens",
        "target_language", "train_corpus", "endpoint", "seed",
    ),
    "filter": ("input", *(f.name for f in fields(FilterConfig))),
    "emit": ("input",),
}
# The smallest command line of each stage.
STAGE_ARGV = {
    "ingest": ["ingest", "--input", "i", "--output", "o"],
    "generate": ["generate", "--input", "i", "--output", "o"],
    "filter": ["filter", "--candidates", "c", "--input", "i", "--output", "o"],
    "emit": ["emit", "--examples", "e", "--input", "i", "--output", "o"],
}
# Spellings that are gone, each with the config key it stood for; the last
# two are also abbreviations of that key's flag.
OLD_SPELLINGS = [("--passages", "input"), ("--sample", "sample_n"), ("--keep", "keep_per_passage")]
OLD_SPELLING_CASES = [
    (command, old)
    for command, keys in {"run": tuple(PipelineConfig.field_types()), **STAGE_KEYS}.items()
    for old, key in OLD_SPELLINGS
    if key in keys
]


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

    @pytest.mark.parametrize("stage", sorted(STAGE_KEYS))
    def test_every_stage_key_has_its_run_flag(self, stage):
        parser = build_parser()
        base = STAGE_ARGV[stage]
        types = PipelineConfig.field_types()
        config_keys = set(types) & set(vars(parser.parse_args(base)))
        assert config_keys == set(STAGE_KEYS[stage])
        for name in STAGE_KEYS[stage]:
            flag = "--" + name.replace("_", "-")
            if types[name][0] is bool:
                assert getattr(parser.parse_args([*base, flag]), name) is True
                assert getattr(parser.parse_args([*base, "--no-" + flag[2:]]), name) is False
            else:
                value = "3" if types[name][0] is int else "x"
                parsed = getattr(parser.parse_args([*base, flag, value]), name)
                assert parsed == types[name][0](value)

    @pytest.mark.parametrize("command, old", OLD_SPELLING_CASES)
    def test_old_spelling_is_an_unknown_flag(self, command, old):
        base = STAGE_ARGV.get(command, [command])
        with pytest.raises(ConfigurationError, match=f"unrecognized arguments: {old} 7"):
            build_parser().parse_args([*base, old, "7"])


# Spellings of the filter switches that are gone: their off-states only lost
# valid examples (extractiveness) or wrote a document that failed (dedup).
REMOVED_FLAGS = [
    "--require-extractive", "--no-require-extractive", "--no-extractive", "--dedup", "--no-dedup",
]


class TestRemovedFilterSwitches:
    @pytest.mark.parametrize("key", ["dedup", "require_extractive"])
    def test_config_key_exit_usage(self, workspace, capsys, key):
        config_path = workspace / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": str(workspace / "passages.jsonl"),
                    "output_dir": str(workspace / "out"),
                    "train_corpus": str(workspace / "train.jsonl"),
                    key: False,
                }
            ),
            encoding="utf-8",
        )
        assert run_cli("run", "--config", str(config_path)) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    @pytest.mark.parametrize("command", ["run", "filter"])
    def test_flag_exit_usage(self, workspace, capsys, command, flag):
        before = sorted(os.listdir(workspace))
        argv = {
            "run": ["run", "--input", str(workspace / "passages.jsonl"),
                    "--output-dir", str(workspace / "out"),
                    "--train-corpus", str(workspace / "train.jsonl")],
            "filter": ["filter", "--candidates", str(workspace / "candidates.jsonl"),
                       "--input", str(workspace / "passages.jsonl"),
                       "--output", str(workspace / "examples.jsonl")],
        }[command]
        assert run_cli(*argv, flag) == 1
        assert flag in capsys.readouterr().err
        assert sorted(os.listdir(workspace)) == before


README = Path(__file__).parent.parent / "README.md"


def readme_flags() -> set[str]:
    """Every ``--flag`` in the README's code spans and blocks; ``--[no-]x`` is two flags."""
    text = README.read_text(encoding="utf-8")
    flags = set()
    for span in re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S):
        for negatable, name in re.findall(r"(?<![\w-])--(\[no-\])?([a-z][a-z0-9-]*)", span):
            flags.add("--" + name)
            if negatable:
                flags.add("--no-" + name)
    # The placeholders of "every key k has the flag --k, a boolean --k / --no-k".
    return flags - {"--k", "--no-k"}


class TestReadmeFlags:
    def test_every_named_flag_is_an_option(self):
        parser = build_parser()
        options = set(parser._option_string_actions)
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for subparser in action.choices.values():
                    options |= set(subparser._option_string_actions)
        flags = readme_flags()
        assert {"--input", "--no-length-normalize", "--keep-per-passage"} <= flags
        assert sorted(flags - options) == []


class TestStagedChainMatchesRun:
    def test_stage_subcommands_reproduce_run(self, workspace):
        passages = str(workspace / "passages.jsonl")
        train = str(workspace / "train.jsonl")
        staged = workspace / "staged"
        staged.mkdir()
        assert run_cli(
            "ingest", "--input", passages, "--sample-n", "6", "--seed", "11",
            "--output", str(staged / "passages.jsonl"),
        ) == 0
        assert run_cli(
            "generate", "--input", str(staged / "passages.jsonl"), "--train-corpus", train,
            "--num-samples", "12", "--max-output-tokens", "24", "--seed", "11",
            "--output", str(staged / "candidates.jsonl"),
        ) == 0
        assert run_cli(
            "filter", "--candidates", str(staged / "candidates.jsonl"),
            "--input", str(staged / "passages.jsonl"),
            "--output", str(staged / "examples.jsonl"),
        ) == 0
        assert run_cli(
            "emit", "--examples", str(staged / "examples.jsonl"),
            "--input", str(staged / "passages.jsonl"),
            "--output", str(staged / "dataset.json"),
        ) == 0
        run_dir = workspace / "run"
        assert run_cli(
            "run", "--input", passages, "--output-dir", str(run_dir), "--train-corpus", train,
            "--sample-n", "6", "--seed", "11", "--num-samples", "12", "--max-output-tokens", "24",
        ) == 0

        assert (staged / "examples.jsonl").read_text("utf-8")
        for name in ("passages.jsonl", "candidates.jsonl", "examples.jsonl", "dataset.json"):
            assert (staged / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_filter_stats_is_the_candidate_part_of_the_run_report(self, workspace, capsys):
        passages = str(workspace / "passages.jsonl")
        train = str(workspace / "train.jsonl")
        knobs = ["--train-corpus", train, "--num-samples", "12", "--max-output-tokens", "24",
                 "--target-language", "de", "--seed", "11"]
        staged = workspace / "staged"
        staged.mkdir()
        assert run_cli(
            "ingest", "--input", passages, "--sample-n", "6", "--seed", "11",
            "--output", str(staged / "passages.jsonl"),
        ) == 0
        assert run_cli(
            "generate", "--input", str(staged / "passages.jsonl"), *knobs,
            "--output", str(staged / "candidates.jsonl"),
        ) == 0
        filter_stats = staged / "filter_stats.json"
        assert run_cli(
            "filter", "--candidates", str(staged / "candidates.jsonl"),
            "--input", str(staged / "passages.jsonl"), "--stats", str(filter_stats),
            "--output", str(staged / "examples.jsonl"),
        ) == 0
        run_dir = workspace / "run"
        capsys.readouterr()
        assert run_cli(
            "run", "--input", passages, "--output-dir", str(run_dir), "--sample-n", "6", *knobs,
        ) == 0
        run_lines = capsys.readouterr().out.splitlines()

        report = json.loads((run_dir / "report.json").read_text("utf-8"))
        payload = json.loads(filter_stats.read_text("utf-8"))
        assert payload == {
            "counts": {stage: report["counts"][stage] for stage in CANDIDATE_STAGES},
            "parse_failures": report["parse_failures"],
        }
        assert sum(payload["parse_failures"].values()) > 0
        # stats prints the run's table header, candidate rows and parse failures.
        assert run_cli("stats", "--report", str(filter_stats)) == 0
        assert capsys.readouterr().out.splitlines() == [run_lines[0]] + [
            line for line in run_lines
            if line.split()[0] in CANDIDATE_STAGES or line.startswith("parse failure ")
        ]


def traced_stage_peak(workspace, command: str, rows_per_passage: int) -> int:
    """Traced peak of ``filter`` or ``emit`` over the workspace's passages."""
    lines = (workspace / "passages.jsonl").read_text("utf-8").splitlines()
    ids = [json.loads(line)["id"] for line in lines for _ in range(rows_per_passage)]
    rows = write_stage_rows(workspace, command, ids)
    argv = [command, ROWS_FLAG[command], str(rows), "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "out.json")]
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStageMemory:
    @pytest.mark.parametrize("command", ["filter", "emit"])
    def test_peak_grows_with_the_passages_not_the_rows(self, tmp_path, capsys, command):
        # Once both stages held every row: 10x the rows per passage raised
        # this traced peak 4.5x for filter and 6.3x for emit.
        write_passage_file(tmp_path / "passages.jsonl", make_passages(count=400))
        traced_stage_peak(tmp_path, command, 2)  # first use of each code path
        small = traced_stage_peak(tmp_path, command, 2)
        large = traced_stage_peak(tmp_path, command, 20)
        assert large < 1.5 * small, (small, large)


class TestCandidateScores:
    def _filter(self, workspace, lm_score_json: str) -> int:
        passage = json.loads((workspace / "passages.jsonl").read_text("utf-8").splitlines()[0])
        answer = passage["text"].split()[0]
        candidates = workspace / "scored.jsonl"
        candidates.write_text(
            f'{{"passage_id": "{passage["id"]}", "text": "question what answer {answer}", '
            f'"lm_score": {lm_score_json}}}\n',
            encoding="utf-8",
        )
        return run_cli(
            "filter",
            "--candidates", str(candidates),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "examples.jsonl"),
        )

    @pytest.mark.parametrize(
        "lm_score",
        ["NaN", "Infinity", "-Infinity", "-1" + "0" * 400],
        ids=["nan", "inf", "-inf", "beyond-float"],
    )
    def test_non_finite_score_exit_data(self, workspace, capsys, lm_score):
        assert self._filter(workspace, lm_score) == 2
        assert "finite" in capsys.readouterr().err

    def test_integer_score_written_back_as_float(self, workspace):
        assert self._filter(workspace, "-3") == 0
        row = json.loads((workspace / "examples.jsonl").read_text("utf-8"))
        assert row["lm_score"] == -3.0 and type(row["lm_score"]) is float


class TestIntegerPastTheDigitLimit:
    """A JSON integer over 4300 digits makes json.loads raise a plain ValueError."""

    HUGE = "1" * 5000

    def test_candidates_file_exit_data_naming_line(self, workspace, capsys):
        candidates = workspace / "scored.jsonl"
        candidates.write_text(
            '{"passage_id": "p000", "text": "question q answer a", "lm_score": -1.0}\n'
            f'{{"passage_id": "p000", "text": "question q answer a", "lm_score": -{self.HUGE}}}\n',
            encoding="utf-8",
        )
        code = run_cli(
            "filter",
            "--candidates", str(candidates),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "examples.jsonl"),
        )
        assert code == 2
        assert f"{candidates}:2: invalid record" in capsys.readouterr().err

    def test_predictions_file_exit_data(self, fixtures_dir, tmp_path, capsys):
        predictions = tmp_path / "predictions.json"
        predictions.write_text(f'{{"en-1": {self.HUGE}}}', encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(predictions),
        )
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestDeepNesting:
    """JSON nested past the recursion limit makes json.loads raise RecursionError."""

    DEEP = "[" * 200_000

    def test_passages_file_skips_the_record(self, workspace, capsys):
        passages = workspace / "passages.jsonl"
        with passages.open("a", encoding="utf-8") as handle:
            handle.write(self.DEEP + "\n")
        output = workspace / "kept.jsonl"
        assert run_cli("ingest", "--input", str(passages), "--output", str(output)) == 0
        assert capsys.readouterr().out == f"wrote 12 passages to {output} (1 records skipped)\n"

    def test_dataset_file_exit_data(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(self.DEEP, encoding="utf-8")
        predictions = tmp_path / "predictions.json"
        predictions.write_text("{}", encoding="utf-8")
        code = run_cli("eval", "--dataset", str(dataset), "--predictions", str(predictions))
        assert code == 2
        assert "document is not valid JSON" in capsys.readouterr().err

    def test_run_config_exit_usage(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(self.DEEP, encoding="utf-8")
        assert run_cli("run", "--config", str(config)) == 1
        assert f"{config}: invalid JSON" in capsys.readouterr().err

    def test_candidates_file_exit_data_naming_line(self, workspace, capsys):
        candidates = workspace / "scored.jsonl"
        candidates.write_text(
            '{"passage_id": "p000", "text": "question q answer a", "lm_score": -1.0}\n'
            + self.DEEP + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            "filter",
            "--candidates", str(candidates),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "examples.jsonl"),
        )
        assert code == 2
        assert f"{candidates}:2: invalid record" in capsys.readouterr().err


class TestLoneSurrogate:
    """``json.loads`` decodes the escape ``\\ud800`` to a string no UTF-8 file can hold."""

    ESCAPE = "\\ud800"  # as the six characters of the file

    def test_passages_file_skips_the_record(self, workspace, capsys):
        passages = workspace / "passages.jsonl"
        with passages.open("a", encoding="utf-8") as handle:
            handle.write(
                f'{{"id": "bad", "text": "harbor {self.ESCAPE} stone garden", "language": "en"}}\n'
            )
        output = workspace / "kept.jsonl"
        code = run_cli("ingest", "--input", str(passages), "--min-tokens", "1",
                       "--output", str(output))
        assert code == 0
        assert capsys.readouterr().out == f"wrote 12 passages to {output} (1 records skipped)\n"

    def test_candidates_file_exit_data_naming_line(self, workspace, capsys):
        candidates = workspace / "scored.jsonl"
        candidates.write_text(
            '{"passage_id": "p000", "text": "question q answer a", "lm_score": -1.0}\n'
            f'{{"passage_id": "p000", "text": "question q{self.ESCAPE} answer stone garden", '
            '"lm_score": -1.0}\n',
            encoding="utf-8",
        )
        code = run_cli(
            "filter",
            "--candidates", str(candidates),
            "--input", str(workspace / "passages.jsonl"),
            "--output", str(workspace / "examples.jsonl"),
        )
        assert code == 2
        assert f"{candidates}:2: invalid record: a string holds an unpaired surrogate" in (
            capsys.readouterr().err
        )

    def test_eval_with_output_exit_data(self, tmp_path, capsys):
        qa_id = f"q{self.ESCAPE}"
        dataset = tmp_path / "dataset.json"
        dataset.write_text(
            '{"version": "1.1", "data": [{"title": "t", "paragraphs": [{"context": "a b", '
            f'"qas": [{{"id": "{qa_id}", "question": "q", '
            '"answers": [{"text": "a", "answer_start": 0}]}]}]}]}',
            encoding="utf-8",
        )
        predictions = tmp_path / "predictions.json"
        predictions.write_text(f'{{"{qa_id}": "a"}}', encoding="utf-8")
        output = tmp_path / "report.json"
        code = run_cli("eval", "--dataset", str(dataset), "--predictions", str(predictions),
                       "--output", str(output))
        assert code == 2
        assert "a string holds an unpaired surrogate" in capsys.readouterr().err
        assert not output.exists()

    def test_run_skips_the_passage(self, workspace):
        passages = workspace / "passages.jsonl"
        with passages.open("a", encoding="utf-8") as handle:
            handle.write(
                f'{{"id": "bad", "text": "harbor {self.ESCAPE} stone garden", "language": "en"}}\n'
            )
        out = workspace / "out"
        code = run_cli("run", "--input", str(passages), "--output-dir", str(out),
                       "--train-corpus", str(workspace / "train.jsonl"), "--min-tokens", "1")
        assert code == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert (report["record_errors"], report["counts"]["ingested"]) == (1, 12)

    def test_run_names_the_training_corpus_line(self, workspace, capsys):
        train = workspace / "train.jsonl"
        lines = train.read_text("utf-8").splitlines()
        record = json.loads(lines[2])
        lines[2] = json.dumps({**record, "question": record["question"] + " \ud800"})
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(train),
        )
        assert code == 2
        assert f"{train}:3: invalid record: a string holds an unpaired surrogate" in (
            capsys.readouterr().err
        )


class TestTrainingCorpusRecords:
    @pytest.mark.parametrize(
        "override",
        [
            {"question": 5}, {"question": ""}, {"answer": "  "}, {"passage": ["a"]},
            {"answer": None},
        ],
        ids=["int-question", "empty-question", "blank-answer", "list-passage", "null-answer"],
    )
    def test_malformed_triple_exit_data(self, workspace, capsys, override):
        train = workspace / "train.jsonl"
        lines = train.read_text("utf-8").splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), **override})
        train.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(train),
        )
        assert code == 2
        assert f"{train}:3:" in capsys.readouterr().err


class TestProfileConfig:
    @pytest.mark.parametrize(
        "table",
        [
            None,
            {"entries": [1]},
            {"entries": [{"language": "es", "articles": "el"}]},
            {"entries": [{"language": "es", "articles": [1]}]},
            {"entries": [{"language": "es", "segmentation": None}]},
        ],
        ids=["missing-file", "int-entry", "string-articles", "int-article", "null-segmentation"],
    )
    def test_unusable_table_exit_usage(self, fixtures_dir, tmp_path, capsys, table):
        path = tmp_path / "profiles.json"
        if table is not None:
            path.write_text(json.dumps(table), encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(fixtures_dir / "metric_oracle_predictions.json"),
            "--mode", "mlqa",
            "--language", "es",
            "--profile-config", str(path),
        )
        assert code == 1
        assert "profile table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("segmentation", "per-character"), ("punctuation_class", "Unicode")],
    )
    def test_unknown_profile_value_exit_usage(self, fixtures_dir, tmp_path, capsys, field, value):
        # Once accepted silently: "per-character" scored zh as whitespace
        # tokens, so F1 on these fixtures fell from 87.2 to 55.9 with exit 0.
        entry = {"language": "zh", "punctuation_class": "unicode",
                 "segmentation": "per-character-mixed", field: value}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
        code = run_cli(
            "eval",
            "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
            "--predictions", str(fixtures_dir / "metric_oracle_predictions.json"),
            "--mode", "mlqa",
            "--language", "zh",
            "--profile-config", str(path),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{field} {value!r}" in captured.err

    def test_table_language_is_compared_as_a_code(self, fixtures_dir, tmp_path, capsys):
        # Once compared as written: a table spelling "ZH" left zh to whitespace
        # segmentation, and F1 on these fixtures fell from 87.18 to 55.93 with exit 0.
        table = load_profile_table()
        for entry in table["entries"]:
            entry["language"] = f" {entry['language'].upper()}"
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(table), encoding="utf-8")
        outputs = []
        for config in ([], ["--profile-config", str(path)]):
            code = run_cli(
                "eval",
                "--dataset", str(fixtures_dir / "metric_oracle_dataset.json"),
                "--predictions", str(fixtures_dir / "metric_oracle_predictions.json"),
                "--mode", "mlqa",
                "--language", "zh",
                *config,
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]
        assert json.loads(outputs[0].splitlines()[-1])["f1"] == pytest.approx(87.18, abs=0.01)


class TestRunUsageErrors:
    def test_config_that_is_not_an_object_exit_usage(self, workspace, capsys):
        config_path = workspace / "config.json"
        config_path.write_text(json.dumps([str(workspace / "passages.jsonl")]), encoding="utf-8")
        assert run_cli("run", "--config", str(config_path)) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [("--backend", "bogus"), ("--workers", "0")])
    def test_invalid_setting_exit_usage(self, workspace, capsys, flag):
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(workspace / "train.jsonl"),
            *flag,
        )
        assert code == 1
        assert flag[0][2:] in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_keep_above_num_samples_exit_usage(self, workspace, capsys):
        # Once named samples_per_passage, a key run has no flag for.
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--output-dir", str(workspace / "out"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--keep-per-passage", "30",
        )
        assert code == 1
        assert "keep_per_passage (30) exceeds num_samples (20)" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("endpoint", ["ftp://x", "http://[::1", "http://"])
    @pytest.mark.parametrize("command", ["run", "generate"])
    def test_malformed_endpoint_exit_usage(self, workspace, capsys, command, endpoint):
        # Once exit 2 from the first request ("No connection adapters ..."),
        # after run had written checkpoint.json and checkpoint.jsonl.
        output = workspace / "out"
        where = ["--output-dir", str(output)] if command == "run" else ["--output", str(output)]
        code = run_cli(
            command,
            "--input", str(workspace / "passages.jsonl"),
            "--backend", "remote",
            "--endpoint", endpoint,
            *where,
        )
        assert code == 1
        assert "generator endpoint" in capsys.readouterr().err
        assert not output.exists()


# Each subcommand writing into a directory that does not exist.
UNWRITABLE_OUTPUTS = {
    "ingest": ["ingest", "--input", "{passages}", "--output", "{target}"],
    "filter-stats": [
        "filter", "--candidates", "{candidates}", "--input", "{passages}",
        "--output", "{workspace}/examples.jsonl", "--stats", "{target}",
    ],
    "eval": [
        "eval", "--dataset", "{dataset}", "--predictions", "{predictions}",
        "--output", "{target}",
    ],
    "mix": ["mix", "--gold", "g.json", "--output", "{target}"],
}


class TestUnwritableOutput:
    @staticmethod
    def _error_lines(capsys) -> list[str]:
        err = capsys.readouterr().err
        assert ".tmp" not in err
        return [line for line in err.splitlines() if line.startswith("error:")]

    @pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
    def test_missing_directory_exit_data_naming_the_target(
        self, workspace, fixtures_dir, capsys, case
    ):
        candidates = workspace / "candidates.jsonl"
        candidates.write_text(
            json.dumps({"passage_id": "p000", "text": "question q answer a", "lm_score": -1.0})
            + "\n",
            encoding="utf-8",
        )
        target = workspace / "missing" / "out.json"
        values = {
            "passages": workspace / "passages.jsonl",
            "candidates": candidates,
            "dataset": fixtures_dir / "metric_oracle_dataset.json",
            "predictions": fixtures_dir / "metric_oracle_predictions.json",
            "workspace": workspace,
            "target": target,
        }
        argv = [arg.format(**values) for arg in UNWRITABLE_OUTPUTS[case]]
        assert run_cli(*argv) == 2
        errors = self._error_lines(capsys)
        assert len(errors) == 1 and str(target) in errors[0]
        assert not (workspace / "missing").exists()

    def test_run_output_dir_that_is_a_file_exit_data(self, workspace, capsys):
        target = workspace / "taken"
        target.write_text("not a directory\n", encoding="utf-8")
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--output-dir", str(target),
            "--sample-n", "2",
            "--max-output-tokens", "8",
        )
        assert code == 2
        errors = self._error_lines(capsys)
        assert len(errors) == 1 and str(target) in errors[0]
        assert target.read_text("utf-8") == "not a directory\n"

    def test_unwritable_dataset_exit_data_naming_it(self, workspace, capsys):
        out_dir = workspace / "blocked"
        (out_dir / "dataset.json").mkdir(parents=True)
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--output-dir", str(out_dir),
            "--sample-n", "2",
            "--max-output-tokens", "8",
        )
        assert code == 2
        errors = self._error_lines(capsys)
        assert len(errors) == 1 and str(out_dir / "dataset.json") in errors[0]
        assert not [name for name in os.listdir(out_dir) if name.endswith(".tmp")]


class TestOutputPaths:
    """Outputs reached through symlinks, or under a file: what ``atomic_write`` leaves."""

    @staticmethod
    def _ingest(workspace, output: Path) -> int:
        return run_cli("ingest", "--input", str(workspace / "passages.jsonl"),
                       "--output", str(output))

    @classmethod
    def _expected(cls, workspace) -> str:
        """What ``ingest`` writes to a plain path."""
        plain = workspace / "plain" / "kept.jsonl"
        plain.parent.mkdir(exist_ok=True)
        assert cls._ingest(workspace, plain) == 0
        return plain.read_text("utf-8")

    def test_symlinked_parent_directory(self, workspace, capsys):
        (workspace / "real").mkdir()
        (workspace / "linked").symlink_to(workspace / "real")
        assert self._ingest(workspace, workspace / "linked" / "kept.jsonl") == 0
        assert (workspace / "linked").is_symlink()
        assert os.listdir(workspace / "real") == ["kept.jsonl"]
        assert (workspace / "real" / "kept.jsonl").read_text("utf-8") == self._expected(workspace)

    @pytest.mark.parametrize("absolute", [True, False])
    def test_dangling_symlink_keeps_the_link_and_creates_its_target(
        self, workspace, capsys, absolute
    ):
        (workspace / "runs").mkdir()
        link = workspace / "latest.jsonl"
        link.symlink_to(workspace / "runs" / "kept.jsonl" if absolute else "runs/kept.jsonl")
        assert self._ingest(workspace, link) == 0
        assert link.is_symlink()
        assert os.listdir(workspace / "runs") == ["kept.jsonl"]
        assert link.read_text("utf-8") == self._expected(workspace)

    def test_symlink_loop_is_replaced_by_the_file(self, workspace, capsys):
        (workspace / "a").symlink_to(workspace / "b")
        (workspace / "b").symlink_to(workspace / "a")
        assert self._ingest(workspace, workspace / "a") == 0
        assert not (workspace / "a").is_symlink()
        assert (workspace / "a").read_text("utf-8") == self._expected(workspace)
        assert os.readlink(workspace / "b") == str(workspace / "a")
        assert not list(workspace.glob(".*.tmp"))

    def test_path_under_a_regular_file_exit_data(self, workspace, capsys):
        (workspace / "taken").write_text("a file\n", encoding="utf-8")
        assert self._ingest(workspace, workspace / "taken" / "kept.jsonl") == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: [Errno 20] Not a directory: ")
        assert str(workspace / "taken") in errors[0]
        assert (workspace / "taken").read_text("utf-8") == "a file\n"

    def test_path_under_a_regular_file_names_the_target(self, workspace, capsys, monkeypatch):
        # The temporary is never created, so deleting it fails with ENOTDIR too.
        (workspace / "taken").write_text("a file\n", encoding="utf-8")
        monkeypatch.chdir(workspace)
        assert self._ingest(workspace, Path("taken") / "kept.jsonl") == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: [Errno 20] Not a directory: 'taken/kept.jsonl'"]

    def test_symlink_to_a_fifo_is_written_in_place(self, workspace, capsys):
        fifo = workspace / "pipe"
        os.mkfifo(fifo)
        (workspace / "link").symlink_to(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        assert self._ingest(workspace, workspace / "link") == 0
        reader.join(timeout=10)
        assert received == [self._expected(workspace)]
        assert (workspace / "link").is_symlink()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert not list(workspace.glob(".*.tmp"))


class TestResumeRefused:
    def test_journal_without_header_exit_usage(self, workspace, capsys):
        out_dir = workspace / "out"
        out_dir.mkdir()
        journal = out_dir / "checkpoint.jsonl"
        journal.write_text(
            json.dumps({"passage_id": "p000", "candidates": []}) + "\n", encoding="utf-8"
        )
        code = run_cli(
            "run",
            "--input", str(workspace / "passages.jsonl"),
            "--train-corpus", str(workspace / "train.jsonl"),
            "--output-dir", str(out_dir),
            "--sample-n", "2",
            "--max-output-tokens", "8",
            "--resume",
        )
        assert code == 1
        assert "header" in capsys.readouterr().err
        assert os.listdir(out_dir) == ["checkpoint.jsonl"]

    def test_journal_of_the_earlier_format_exit_usage(self, workspace, capsys):
        out_dir = workspace / "out"
        out_dir.mkdir()
        flags = {"input": str(workspace / "passages.jsonl"), "output_dir": str(out_dir),
                 "train_corpus": str(workspace / "train.jsonl"), "sample_n": 2,
                 "max_output_tokens": 8, "seed": 4}
        header = {"fingerprint": resume_fingerprint(PipelineConfig(**flags))}
        entry = {"passage_id": "p000", "candidates": []}
        journal = out_dir / "checkpoint.jsonl"
        journal.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n", encoding="utf-8")
        before = journal.read_bytes()
        argv = [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        assert run_cli("run", *argv, "--resume") == 1
        assert "journal format 1" in capsys.readouterr().err
        assert journal.read_bytes() == before
        assert os.listdir(out_dir) == ["checkpoint.jsonl"]


class TestOrderRejectedBeforeReading:
    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize("command", ["run", "generate"])
    def test_order_below_one_exit_usage_before_reading(
        self, workspace, capsys, caplog, command, order
    ):
        # Once, run logged the skipped record, read and trained the whole
        # corpus and only then exited 1 (exit 2 with an unreadable corpus);
        # generate read the passages first.
        passages = workspace / "passages.jsonl"
        with open(passages, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        output = workspace / "out"
        where = ["--output-dir", str(output)] if command == "run" else ["--output", str(output)]
        code = run_cli(
            command,
            "--input", str(passages),
            "--train-corpus", str(workspace / "missing-train.jsonl"),
            "--order", order,
            *where,
        )
        assert code == 1
        assert f"order must be >= 1, got {order}" in capsys.readouterr().err
        assert "skipped record" not in caplog.text
        assert not output.exists()

    def test_remote_backend_ignores_order(self):
        config = PipelineConfig(
            input="p.jsonl", output_dir="out", backend="remote",
            endpoint="http://127.0.0.1:9", order=0,
        )
        config.validate()


# Each subcommand that has an out-of-range flag, with one such flag and the
# part of its error that names the flag. Its inputs are "{bad}": a file that
# does not exist, or one with a malformed record line; bleu's other file,
# "{good}", has one line fewer than the malformed one.
USAGE_ERRORS = {
    "ingest-min-tokens": (
        ["ingest", "--input", "{bad}", "--output", "{out}", "--min-tokens", "0"],
        "min_tokens must be positive, got 0",
    ),
    "ingest-max-tokens": (
        ["ingest", "--input", "{bad}", "--output", "{out}", "--max-tokens", "0"],
        "exceeds max_tokens (0)",
    ),
    "ingest-sample-n": (
        ["ingest", "--input", "{bad}", "--output", "{out}", "--sample-n", "-1"],
        "sample_n must be >= 0, got -1",
    ),
    "generate-top-k": (
        ["generate", "--input", "{bad}", "--train-corpus", "{bad}", "--output", "{out}",
         "--top-k", "0"],
        "top_k must be >= 1, got 0",
    ),
    "filter-keep-per-passage": (
        ["filter", "--candidates", "{bad}", "--input", "{bad}", "--output", "{out}",
         "--keep-per-passage", "0"],
        "keep_per_passage must be >= 1, got 0",
    ),
    "bleu-max-n": (
        ["bleu", "--hyp", "{bad}", "--ref", "{good}", "--max-n", "0"],
        "max_n must be >= 1, got 0",
    ),
    "run-min-tokens": (
        ["run", "--input", "{bad}", "--train-corpus", "{bad}", "--output-dir", "{out}",
         "--min-tokens", "0"],
        "min_tokens must be positive, got 0",
    ),
    "run-max-tokens": (
        ["run", "--input", "{bad}", "--train-corpus", "{bad}", "--output-dir", "{out}",
         "--max-tokens", "0"],
        "exceeds max_tokens (0)",
    ),
    "run-sample-n": (
        ["run", "--input", "{bad}", "--train-corpus", "{bad}", "--output-dir", "{out}",
         "--sample-n", "-1"],
        "sample_n must be >= 0, got -1",
    ),
}


class TestUsageErrorsBeforeReading:
    @pytest.mark.parametrize("bad_input", ["missing", "malformed"])
    @pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
    def test_exit_usage_naming_the_flag(self, workspace, capsys, caplog, case, bad_input):
        # Once, ingest, run and bleu read their inputs first: a missing file
        # exited 2, a malformed record was logged as skipped before exit 1,
        # and bleu's line-count mismatch exited 2.
        good = workspace / "passages.jsonl"
        bad = workspace / f"{bad_input}.jsonl"
        if bad_input == "malformed":
            bad.write_text(good.read_text("utf-8") + "{not json\n", encoding="utf-8")
        output = workspace / "out"
        argv, message = USAGE_ERRORS[case]
        values = {"bad": bad, "good": good, "out": output}
        assert run_cli(*(arg.format(**values) for arg in argv)) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "WARNING" not in captured.err
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert captured.out == ""
        assert not output.exists()


# Every JSONL input the CLI reads: the command that reads it, and the rest of
# its argv, where "{file}" is the input under test. ingest and generate read
# the passages, ingest leniently and generate strictly.
JSONL_READERS = {
    "ingest": ["ingest", "--input", "{file}", "--output", "{out}"],
    "generate": ["generate", "--input", "{file}", "--train-corpus", "{train}",
                 "--num-samples", "2", "--output", "{out}"],
    "run": ["run", "--input", "{passages}", "--train-corpus", "{file}", "--sample-n", "2",
            "--num-samples", "2", "--keep-per-passage", "2", "--output-dir", "{out}"],
    "filter": ["filter", "--candidates", "{file}", "--input", "{passages}",
               "--output", "{out}"],
    "emit": ["emit", "--examples", "{file}", "--input", "{passages}", "--output", "{out}"],
}


BOM = "\ufeff".encode("utf-8")


def jsonl_case(lines: list[str], case: str) -> bytes:
    """The JSONL file of ``lines``, one record each, with the fault or variant ``case``."""
    encoded = [line.encode("utf-8") for line in lines]
    if case == "lone-cr":
        encoded[0] = encoded[0].replace(b', "', b',\r "', 1)
    elif case == "bad-byte":
        encoded[1] = encoded[1].replace(b'": "', b'": "\xff', 1)
    elif case == "blank-line":
        encoded.insert(1, b" \t ")
    elif case == "bom":
        encoded[0] = BOM + encoded[0]
    ending = b"\r\n" if case == "crlf" else b"\n"
    return b"".join(line + ending for line in encoded)


class TestJsonLinesInputs:
    @pytest.mark.parametrize("case", ["lone-cr", "bad-byte", "blank-line", "crlf", "bom"])
    @pytest.mark.parametrize("reader", sorted(JSONL_READERS))
    def test_every_jsonl_input_reads_lines_alike(self, workspace, capsys, caplog, reader, case):
        # Once, the training corpus, candidates and examples were read in text
        # mode: a lone "\r" ended a line, splitting its record in two, and a
        # bad byte was "cannot read PATH: ... position N", a file offset.
        passages = workspace / "passages.jsonl"
        if reader in ("filter", "emit"):
            source = write_stage_rows(workspace, reader, ["p000", "p001", "p002"])
        else:
            source = workspace / ("train.jsonl" if reader == "run" else "passages.jsonl")
        path = workspace / "input.jsonl"
        path.write_bytes(jsonl_case(source.read_text("utf-8").splitlines(), case))
        values = {"file": path, "passages": passages, "train": workspace / "train.jsonl",
                  "out": workspace / "out"}
        code = run_cli(*(arg.format(**values) for arg in JSONL_READERS[reader]))
        captured = capsys.readouterr()
        if case != "bad-byte":
            assert (code, captured.err) == (0, "")
            assert "skipped record" not in caplog.text
        elif reader == "ingest":
            # ingest skips a malformed passage record and goes on.
            assert code == 0
            assert "skipped record at line 2: invalid utf-8:" in caplog.text
        else:
            assert code == 2
            assert f"error: {path}:2: invalid utf-8:" in captured.err


class TestByteOrderMark:
    # A leading UTF-8 byte-order mark once made the first line invalid JSON:
    # ingest skipped the first passage, and the training corpus and a config
    # file were refused. ``TestJsonLinesInputs`` covers every JSONL reader.
    def test_a_bom_passages_file_keeps_every_passage(self, workspace, capsys):
        path = workspace / "bom.jsonl"
        path.write_bytes(BOM + (workspace / "passages.jsonl").read_bytes())
        output = workspace / "kept.jsonl"
        assert run_cli("ingest", "--input", str(path), "--output", str(output)) == 0
        ids = [json.loads(line)["id"] for line in output.read_text("utf-8").splitlines()]
        assert sorted(ids) == [f"p{index:03d}" for index in range(12)]
        assert "(0 records skipped)" in capsys.readouterr().out

    def test_a_bom_config_loads(self, workspace, capsys):
        config = {"input": str(workspace / "passages.jsonl"), "output_dir": str(workspace / "out"),
                  "train_corpus": str(workspace / "train.jsonl"), "sample_n": 3,
                  "max_output_tokens": 24}
        config_path = workspace / "config.json"
        config_path.write_bytes(BOM + json.dumps(config).encode("utf-8"))
        assert run_cli("run", "--config", str(config_path)) == 0
        report = json.loads((workspace / "out" / "report.json").read_text("utf-8"))
        assert report["counts"]["sampled"] == 3
