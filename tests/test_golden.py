"""Golden digests: ``run_pipeline``'s artifacts, byte for byte, as they were recorded.

The inputs are the toy corpus plus es/zh passages and training triples whose
words carry quotes, backslashes, accents, Han characters and a character
outside the BMP, so every escape path of every writer is on the line. A
change that moves one byte of ``passages.jsonl``, ``candidates.jsonl``,
``examples.jsonl``, ``dataset.json`` or of a journal fails here.

The digests were recorded on CPython 3.11. From 3.12, ``sum()`` compensates
rounding, which may move a sampling draw and so the digests.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from conftest import make_passages, make_training_corpus, write_passage_file, write_training_file
from qaforge.corpus import Passage
from qaforge.errors import PipelineError
from qaforge.pipeline import PipelineConfig, build_backend, run_pipeline

ES_WORDS = ["río", "isla", "glaciar", "puerto", '"muelle"', "café", "torre", "año"]
ZH_WORDS = ["河流", "岛屿", "冰川", "港口", "桥", "博物馆", "山谷", "a\\b", "🌊"]


def _text(rng: random.Random, words: list[str], length: int) -> str:
    # Ends on the language's own two-word anchor, so decoding starts in a
    # context its training triples opened.
    return " ".join(rng.choice(words) for _ in range(length)) + " " + " ".join(words[:2])


def golden_inputs(directory: Path) -> tuple[Path, Path]:
    rng = random.Random(5)
    passages = make_passages(count=24)
    for index in range(8):
        language, words = ("es", ES_WORDS) if index % 2 else ("zh", ZH_WORDS)
        text = _text(rng, words, rng.randint(30, 40))
        passages.append(Passage.build(f"x{index}", text, language))
    corpus = make_training_corpus()
    for words in (ES_WORDS, ZH_WORDS) * 4:
        passage = _text(rng, words, 12)
        tokens = passage.split()
        span = rng.randint(1, 2)
        start = rng.randrange(len(tokens) - span)
        question = " ".join(rng.choice(words) for _ in range(3))
        corpus.append((passage, question, " ".join(tokens[start:start + span])))
    return (
        write_passage_file(directory / "passages.jsonl", passages),
        write_training_file(directory / "train.jsonl", corpus),
    )


def golden_config(directory: Path, seed: int, out_name: str = "out") -> PipelineConfig:
    passages, train = golden_inputs(directory)
    return PipelineConfig(
        input=str(passages),
        output_dir=str(directory / out_name),
        train_corpus=str(train),
        seed=seed,
        sample_n=28,
        min_tokens=5,
        num_samples=20,
        keep_per_passage=6,
        max_output_tokens=24,
        top_k=3,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


ARTIFACTS = ("passages.jsonl", "candidates.jsonl", "examples.jsonl", "dataset.json")

GOLDEN = {
    3: {
        "passages.jsonl": "69f2731fb28d7fd9403795d638f0b6de903b8e32fa86e8d672f31176d29d9d94",
        "candidates.jsonl": "83feeea0810f0042f579248232fa2af806204ca26e085e3f3ad183d7f2483498",
        "examples.jsonl": "e25984f3b5b28db339799b55d4a62e42d85a0ae580a5efc6d5fb100a0e59f481",
        "dataset.json": "047c4642ac68fbf84862fb2d7c0b0e0fbe76e6ab95a50d056f1116c4d3506cc1",
        "checkpoint.jsonl": "ae178e6cd45c7041f8f903358a54c3c3bff6150ab68e037571d0c5fdc3512c5f",
    },
    17: {
        "passages.jsonl": "e78fc22ba68692a90baae663235e8621f841783509e723efb77749c7ab48fe3b",
        "candidates.jsonl": "21ecc2e6ebe93ac1e0b71b7eb1b145e988df280017ef386ef5d582b093d2635a",
        "examples.jsonl": "a52a2d80158009562469ede7bd7423e1936f33abef4fb8faca001d70c41893f5",
        "dataset.json": "e4de2f9c4923f8f45b562f62ad76ede8af9f875e6c960a10c4791763ad055686",
        "checkpoint.jsonl": "d9d9156859fd21e744b558fab8208053f42c960d1ba5df8ba3c883d26d17731d",
    },
}


class _FailAfter:
    """Delegates to a real backend for ``limit`` calls, then fails."""

    def __init__(self, inner, limit: int):
        self.inner = inner
        self.limit = limit

    def generate(self, request, seed=0):
        if self.limit == 0:
            raise RuntimeError("injected failure")
        self.limit -= 1
        return self.inner.generate(request, seed=seed)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_artifacts_match_recorded_digests(tmp_path, seed):
    config = golden_config(tmp_path, seed)
    report = run_pipeline(config)
    assert report.counts["kept"] > 0
    out = Path(config.output_dir)
    digests = {name: sha256(out / name) for name in ARTIFACTS}

    # An interrupted run keeps its journal: the header and three passage blocks.
    interrupted = golden_config(tmp_path, seed, "interrupted")
    with pytest.raises(PipelineError):
        run_pipeline(interrupted, backend=_FailAfter(build_backend(interrupted), 3))
    digests["checkpoint.jsonl"] = sha256(Path(interrupted.output_dir) / "checkpoint.jsonl")
    assert digests == GOLDEN[seed]
