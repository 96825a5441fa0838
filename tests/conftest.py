"""Shared toy fixtures: a tiny word pool, a trainable corpus, and eval passages.

Every toy passage ends with the same two anchor words so the first decode
step of an order-3 backend lands on a context seen in training; that keeps
the hermetic sample -> parse -> filter funnel well populated.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from qaforge.corpus import Passage
from qaforge.generator import train_reference

WORD_POOL = [
    "river", "island", "glacier", "harbor", "bridge", "museum", "valley",
    "storm", "coast", "tower", "garden", "winter", "summer", "stone",
    "water", "north", "south", "ancient", "city", "mountain",
]
ANCHOR = "stone garden"


def make_text(rng: random.Random, length: int) -> str:
    return " ".join(rng.choice(WORD_POOL) for _ in range(length)) + " " + ANCHOR


def make_training_corpus(count: int = 20, seed: int = 11) -> list[tuple[str, str, str]]:
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        passage = make_text(rng, rng.randint(10, 14))
        tokens = passage.split()
        question = " ".join(rng.choice(WORD_POOL) for _ in range(rng.randint(3, 5)))
        span_len = rng.randint(1, 2)
        start = rng.randrange(len(tokens) - span_len)
        answer = " ".join(tokens[start:start + span_len])
        corpus.append((passage, question, answer))
    return corpus


def make_passages(count: int = 50, seed: int = 23) -> list[Passage]:
    rng = random.Random(seed)
    return [
        Passage.build(f"p{index:03d}", make_text(rng, rng.randint(28, 58)), "en")
        for index in range(count)
    ]


def write_passage_file(path: Path, passages: list[Passage]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for passage in passages:
            handle.write(
                json.dumps(
                    {"id": passage.id, "text": passage.text, "language": passage.language},
                    ensure_ascii=False,
                )
                + "\n"
            )
    return path


def write_training_file(path: Path, corpus: list[tuple[str, str, str]]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for passage, question, answer in corpus:
            handle.write(
                json.dumps(
                    {"passage": passage, "question": question, "answer": answer},
                    ensure_ascii=False,
                )
                + "\n"
            )
    return path


@pytest.fixture(scope="session")
def toy_corpus() -> list[tuple[str, str, str]]:
    return make_training_corpus()


@pytest.fixture(scope="session")
def toy_backend(toy_corpus):
    return train_reference(toy_corpus, order=3)


@pytest.fixture(scope="session")
def toy_passages() -> list[Passage]:
    return make_passages()


@pytest.fixture()
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"


# Hypothesis reports a failing example through libcst, whose import warns
# that mypy_extensions.TypedDict is deprecated. Under "error" that warning
# would escape the report hook and abort the session (INTERNALERROR) instead
# of failing the one test, so it alone is ignored.
_HYPOTHESIS_REPORT_WARNING = (
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning:libcst\\."
)


def pytest_collection_modifyitems(items):
    # Every warning raised by a test of this suite fails it: an unclosed file
    # handle (ResourceWarning) or a deprecation is a defect, not noise. The
    # filter is set here rather than in pyproject.toml so that it covers this
    # suite only, not the benchmark's own tests.
    suite = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(suite):
            # Later filters take precedence over earlier ones.
            item.add_marker(pytest.mark.filterwarnings("error", _HYPOTHESIS_REPORT_WARNING))
