"""Tests for the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

TINY = {
    "ref-toy": dict(passages=40, too_short=3, too_long=3, malformed=5, duplicates=2,
                    sample_n=30, train_triples=60, score_entries=12, bleu_pairs=8),
    "ref-bigvocab": dict(passages=4, too_short=1, too_long=1, malformed=1, duplicates=1,
                         sample_n=3, num_samples=2, max_output_tokens=6, keep_per_passage=2,
                         score_entries=6, bleu_pairs=4),
    "remote-loopback": dict(passages=10, too_short=1, too_long=1, malformed=1, duplicates=1,
                            sample_n=10, stub_fault_every=4, stub_service_ms=1.0,
                            score_entries=6, bleu_pairs=4),
    "score-mixed": dict(passages=10, too_short=1, too_long=1, malformed=1, duplicates=1,
                        sample_n=8, train_triples=60, score_entries=30, bleu_pairs=20),
}


def tiny(name: str) -> inputs.Workload:
    return dataclasses.replace(inputs.WORKLOADS[name], **TINY[name])


@pytest.fixture(autouse=True)
def loopback_only(monkeypatch, tmp_path):
    for name, value in child.loopback_environment(tmp_path).items():
        monkeypatch.setenv(name, value)


def runner_for(workload: inputs.Workload, seed: int, tmp_path: Path):
    truth, _ = run.prepare(workload, seed, tmp_path)
    spec = run.spec_for(workload, seed, tmp_path, seconds=0, trace=1)
    expect = run.Expectations(workload, truth, tmp_path / "inputs", None)
    return child.Runner(spec, tmp_path), expect


@pytest.mark.parametrize("name", ["ref-toy", "ref-bigvocab"])
def test_staged_replay_matches_run_pipeline(name, tmp_path):
    runner, expect = runner_for(tiny(name), 3, tmp_path)
    record = runner.iteration(traced=True)
    assert record["replay"]["dataset_digest"] == record["digests"]["dataset.json"]
    assert expect.check(record, None) == []


def test_stub_retries_equal_scripted_faults(tmp_path):
    workload = tiny("remote-loopback")
    runner, expect = runner_for(workload, 5, tmp_path)
    record = runner.iteration(traced=False)
    faults = run.scripted_faults(workload.sample_n, workload.stub_fault_every)
    assert faults == 3
    assert record["stub"]["retries"] == faults
    assert record["stub"]["requests"] == workload.sample_n + faults
    assert expect.check(record, None) == []


def test_scoring_workload_scores_without_generating(tmp_path):
    runner, expect = runner_for(tiny("score-mixed"), 2, tmp_path)
    record = runner.iteration(traced=False)
    assert "counts" not in record
    per_mode = sum(expect.scores["squad"][lang][2] for lang in inputs.LANGUAGES)
    assert per_mode >= 3 * 30
    assert record["entries"] == 2 * per_mode and record["pairs"] == 3 * 20
    assert expect.check(record, None) == []
    record["scores"]["mlqa"]["zh"][1] += 1e-6
    assert expect.check(record, None)


def test_tampered_expected_digest_fails_the_run(tmp_path):
    workload = tiny("ref-toy")
    seed = 7
    line, details = run.run_workload(workload, seed, 0, 0, expected={"workloads": {}})
    assert line["correct"] and line["failed"] == 0
    assert not details["digest_recorded"]

    # Record this seed's true digests, then tamper with one.
    workdir = tmp_path
    truth, input_digest = run.prepare(workload, seed, workdir)
    runner = child.Runner(run.spec_for(workload, seed, workdir, 0, 0), workdir)
    recorded = {"inputs": input_digest, **runner.iteration(traced=False)["digests"]}
    table = {"workloads": {workload.name: {"seeds": {str(seed): recorded}}}}
    line, details = run.run_workload(workload, seed, 0, 0, expected=table)
    assert details["digest_recorded"] and line["correct"]

    tampered = copy.deepcopy(table)
    tampered["workloads"][workload.name]["seeds"][str(seed)]["dataset.json"] = "0" * 64
    line, _ = run.run_workload(workload, seed, 0, 0, expected=tampered)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] > 0


def test_host_scale_divides_out_the_calibration_time():
    # 10 passages in 2 s, while the calibration task ran at half the reference speed.
    record = {"spans": [["iteration", 0.0, 3.0, None], ["setup", 0.0, 0.5, 0],
                        ["pipeline.run_pipeline", 0.5, 2.5, 0]],
              "counts": {"sampled": 10},
              "calibration_s": [run.CALIBRATION_REF_S * 1.5, run.CALIBRATION_REF_S * 2.5]}
    cpu_bound, waiting = inputs.WORKLOADS["ref-toy"], inputs.WORKLOADS["remote-loopback"]
    assert run.items_per_s(record, cpu_bound) == pytest.approx(10.0)
    assert run.items_per_s(record, waiting) == pytest.approx(5.0)
    assert run.setup_s(record) == pytest.approx(0.25)


def test_inputs_reproduce_from_seed(tmp_path):
    workload = tiny("ref-toy")
    inputs.write_inputs(workload, 11, tmp_path / "a")
    inputs.write_inputs(workload, 11, tmp_path / "b")
    inputs.write_inputs(workload, 12, tmp_path / "c")
    digest = inputs.inputs_digest
    assert digest(tmp_path / "a") == digest(tmp_path / "b") != digest(tmp_path / "c")


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_expected_table_covers_every_workload():
    expected = run.load_expected()["workloads"]
    assert set(expected) == set(inputs.WORKLOADS)
    for name, entry in expected.items():
        assert entry["why"] == inputs.WORKLOADS[name].why
        assert entry["seeds"]
