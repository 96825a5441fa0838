"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

The EM/F1 criterion is checked against a brute-force token-overlap oracle
over hand-normalized token lists that were frozen before the metrics module
was written; all arithmetic on the oracle side uses exact fractions.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    WORD_POOL,
    dumps_squad,
    make_passages,
    make_training_corpus,
    write_passage_file,
    write_training_file,
)
from qaforge.corpus import Passage
from qaforge.dataset import SquadDataset, emit_squad, read_squad
from qaforge.generator import Candidate, GenerationRequest, derive_seed, format_target
from qaforge.metrics import bleu, evaluate_dataset, make_profile
from qaforge.parsefilter import FilterConfig, SyntheticExample, run_filter_pipeline
from qaforge.pipeline import PipelineConfig, run_pipeline


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"{name} took {elapsed:.2f}s, budget {budget_seconds:.0f}s"
            )
        ok = True
    finally:
        elapsed = time.monotonic() - start
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")


# --- criterion 1: metric oracle equivalence --------------------------------

# Hand-normalized forms for the six fixture entries, frozen up front. The
# oracle never calls the package's normalizer or tokenizer.
ORACLE_CASES = {
    "en-1": {
        "pred_norm": "brunot island",
        "gold_norms": ["brunot island"],
        "pred_tokens": ["brunot", "island"],
        "gold_tokens": [["brunot", "island"]],
    },
    "en-2": {
        "pred_norm": "felix brunot settled",
        "gold_norms": ["dr felix brunot"],
        "pred_tokens": ["felix", "brunot", "settled"],
        "gold_tokens": [["dr", "felix", "brunot"]],
    },
    "es-1": {
        "pred_norm": "a finales año 1700",
        "gold_norms": ["finales año 1700"],
        "pred_tokens": ["a", "finales", "año", "1700"],
        "gold_tokens": [["finales", "año", "1700"]],
    },
    "es-2": {
        "pred_norm": "brunot island",
        "gold_norms": ["brunot island"],
        "pred_tokens": ["brunot", "island"],
        "gold_tokens": [["brunot", "island"]],
    },
    "zh-1": {
        "pred_norm": "男子游泳运动员",
        "gold_norms": ["美国男子游泳运动员"],
        "pred_tokens": list("男子游泳运动员"),
        "gold_tokens": [list("美国男子游泳运动员")],
    },
    "zh-2": {
        "pred_norm": "2008 年",
        "gold_norms": ["2008年"],
        "pred_tokens": ["2008", "年"],
        "gold_tokens": [["2008", "年"]],
    },
}

PROFILE_BY_ARTICLE = {
    "fixture-en": ("squad", "en"),
    "fixture-es": ("mlqa", "es"),
    "fixture-zh": ("mlqa", "zh"),
}


def oracle_f1(pred_tokens: list[str], gold_tokens: list[str]) -> Fraction:
    """Brute-force multiset overlap: match-and-remove, exact fractions."""
    if not pred_tokens and not gold_tokens:
        return Fraction(1)
    if not pred_tokens or not gold_tokens:
        return Fraction(0)
    remaining = list(gold_tokens)
    overlap = 0
    for token in pred_tokens:
        for index, candidate in enumerate(remaining):
            if candidate == token:
                del remaining[index]
                overlap += 1
                break
    if overlap == 0:
        return Fraction(0)
    precision = Fraction(overlap, len(pred_tokens))
    recall = Fraction(overlap, len(gold_tokens))
    return 2 * precision * recall / (precision + recall)


def oracle_scores() -> dict[str, tuple[int, Fraction]]:
    scores = {}
    for qa_id, case in ORACLE_CASES.items():
        em = int(any(case["pred_norm"] == gold for gold in case["gold_norms"]))
        best = max(oracle_f1(case["pred_tokens"], gold) for gold in case["gold_tokens"])
        scores[qa_id] = (em, best)
    return scores


def test_metric_oracle_equivalence(fixtures_dir):
    with criterion("metric oracle equivalence (6 mixed-language entries)", 1.0):
        dataset = read_squad((fixtures_dir / "metric_oracle_dataset.json").read_bytes())
        assert dataset.violations == []
        predictions = json.loads(
            (fixtures_dir / "metric_oracle_predictions.json").read_text("utf-8")
        )
        expected = oracle_scores()

        all_em: list[int] = []
        all_f1: list[float] = []
        for article in dataset.dataset.articles:
            mode, language = PROFILE_BY_ARTICLE[article.title]
            profile = make_profile(mode, language)
            slice_dataset = SquadDataset(version="1.1", articles=[article])
            report = evaluate_dataset(predictions, slice_dataset, profile)

            for qa_id, score in report.per_example.items():
                oracle_em, oracle_f1_value = expected[qa_id]
                assert score.em == oracle_em, qa_id
                assert abs(score.f1 - float(oracle_f1_value)) < 1e-9, qa_id
                all_em.append(score.em)
                all_f1.append(score.f1)

            # Aggregates are exactly the means of the per-example values.
            ems = [s.em for s in report.per_example.values()]
            f1s = [s.f1 for s in report.per_example.values()]
            assert report.exact_match == 100.0 * sum(ems) / len(ems)
            assert report.f1 == 100.0 * sum(f1s) / len(f1s)

        assert len(all_em) == 6
        oracle_em_mean = 100.0 * sum(em for em, _ in expected.values()) / 6
        oracle_f1_mean = 100.0 * float(sum(f for _, f in expected.values()) / 6)
        assert abs(100.0 * sum(all_em) / 6 - oracle_em_mean) < 1e-9
        assert abs(100.0 * sum(all_f1) / 6 - oracle_f1_mean) < 1e-9


# --- criterion 2: corpus BLEU oracle ----------------------------------------

def test_bleu_oracle():
    with criterion("corpus BLEU oracle (brevity penalty and edge cases)", 1.0):
        short = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
        assert abs(short - 100.0 * math.exp(-0.25)) < 1e-9

        corpus = [["a", "b", "c", "d"], ["e", "f", "g", "h", "i"]]
        assert bleu(corpus, corpus) == 100.0

        assert bleu([["a", "b", "c", "d"]], [["w", "x", "y", "z"]]) == 0.0


# --- criterion 3: factorized scoring splits into prefix + continuation ------

def test_chain_rule_identity(toy_backend):
    with criterion("log-score chain rule over 100 random triples"):
        rng = random.Random(2026)
        vocabulary = WORD_POOL + ["unseen-token", "zz"]
        for _ in range(100):
            passage = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(3, 20)))
            question = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 6)))
            answer = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))

            full = toy_backend.score_sequence(passage, format_target(question, answer))
            prefix = toy_backend.score_sequence(passage, f"question {question}")
            continuation = toy_backend.score_sequence(
                f"{passage} question {question}", f"answer {answer}"
            )
            assert abs(full - (prefix + continuation)) < 1e-9


# --- criterion 4: score-ranked filtering properties --------------------------

def test_lm_filter_property_suite():
    with criterion("score filter properties over 1000 randomized sets", 5.0):
        rng = random.Random(404)
        tie_pool = [-4.0, -3.5, -3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0]
        passage = Passage.build("p1", "the harbor wall guards the bay", "en")

        def ranked(candidates: list[Candidate], keep: int) -> list[tuple[int, float]]:
            config = FilterConfig(keep_per_passage=keep)
            examples, _ = run_filter_pipeline(passage, candidates, config)
            return [(int(example.question), example.lm_score) for example in examples]

        for _ in range(1000):
            size = rng.randint(0, 40)
            items = [(index, rng.choice(tie_pool)) for index in range(size)]
            # Distinct, extractive pairs, so only the ranking drops any; each
            # question is its item's index.
            candidates = [
                Candidate(format_target(str(index), "harbor wall"), score)
                for index, score in items
            ]
            keep = rng.randint(1, 15)
            kept = ranked(candidates, keep)

            assert len(kept) == min(keep, size)

            scores = [score for _, score in kept]
            assert scores == sorted(scores, reverse=True)

            # Stable tie-break: equal scores appear in input (index) order.
            for (id_a, score_a), (id_b, score_b) in zip(kept, kept[1:]):
                if score_a == score_b:
                    assert id_a < id_b

            assert set(kept) <= set(items)

            wider = ranked(candidates, keep + 1)
            assert kept == wider[: len(kept)]


# --- criterion 5: every emitted answer reconstructs from its passage --------

def test_extractiveness_guarantee(toy_backend):
    with criterion("extractiveness guarantee over 200 randomized pipeline runs"):
        passages = make_passages(count=200, seed=31)
        config = FilterConfig(keep_per_passage=10)
        violations = 0
        emitted = 0
        for run_index, passage in enumerate(passages):
            request = GenerationRequest(
                passage=passage.text,
                language=passage.language,
                num_samples=20,
                top_k=10,
                max_output_tokens=24,
            )
            candidates = list(
                toy_backend.generate(request, seed=derive_seed(run_index, passage.id))
            )
            # Adversarial extras: absent answers, junk, and one guaranteed hit.
            words = passage.text.split()
            candidates[0:0] = [
                Candidate(
                    text=f"question planted {run_index} answer {' '.join(words[:3])}",
                    lm_score=-0.01,
                ),
                Candidate(
                    text=f"question ghost {run_index} answer not-in-passage-{run_index}",
                    lm_score=-0.02,
                ),
                Candidate(text=f"malformed blob {run_index}", lm_score=-0.03),
            ]
            examples, _ = run_filter_pipeline(passage, candidates, config)
            for example in examples:
                emitted += 1
                end = example.answer_start + len(example.answer)
                if passage.text[example.answer_start:end] != example.answer:
                    violations += 1
        assert emitted > 200, "fixture produced too few examples to be meaningful"
        assert violations == 0


# --- criterion 6: hermetic end-to-end determinism ----------------------------

def test_end_to_end_determinism(tmp_path):
    with criterion(
        "hermetic end-to-end determinism (50 passages, 20 samples, keep 10)", 60.0
    ):
        passages_path = write_passage_file(
            tmp_path / "passages.jsonl", make_passages(count=50, seed=23)
        )
        train_path = write_training_file(
            tmp_path / "train.jsonl", make_training_corpus(count=20, seed=11)
        )

        def config(out_name: str) -> PipelineConfig:
            return PipelineConfig(
                input=str(passages_path),
                output_dir=str(tmp_path / out_name),
                train_corpus=str(train_path),
                seed=424242,
                sample_n=50,
                num_samples=20,
                top_k=10,
                keep_per_passage=10,
                max_output_tokens=24,
            )

        first = run_pipeline(config("first"))
        second = run_pipeline(config("second"))

        first_bytes = Path(first.outputs["dataset"]).read_bytes()
        second_bytes = Path(second.outputs["dataset"]).read_bytes()
        assert first_bytes == second_bytes

        result = read_squad(first_bytes)
        assert result.violations == []
        assert 0 < first.counts["kept"] <= 50 * 10
        assert first.counts == second.counts


# --- criterion 7: document round-trip ----------------------------------------

def test_squad_round_trip():
    with criterion("document round-trip over 100 randomized example sets"):
        rng = random.Random(909)
        for round_index in range(100):
            passages = {}
            examples = []
            for p_index in range(rng.randint(1, 5)):
                text = " ".join(rng.choice(WORD_POOL) for _ in range(rng.randint(8, 30)))
                passage = Passage.build(f"r{round_index}-p{p_index}", text, "en")
                passages[passage.id] = passage
                tokens = passage.text.split()
                for e_index in range(rng.randint(0, 6)):
                    span = rng.randint(1, 3)
                    start_token = rng.randrange(max(1, len(tokens) - span))
                    answer = " ".join(tokens[start_token:start_token + span])
                    question = f"which {rng.choice(WORD_POOL)} q{e_index}"
                    examples.append(
                        SyntheticExample(
                            passage_id=passage.id,
                            question=question,
                            answer=answer,
                            answer_start=passage.text.index(answer),
                            lm_score=-rng.random() * 10,
                            language="en",
                        )
                    )
            emitted = emit_squad(examples, passages)
            recovered = read_squad(dumps_squad(emitted))
            assert recovered.violations == []

            expected = {
                (passages[e.passage_id].text, e.question, e.answer, e.answer_start)
                for e in examples
            }
            actual = set()
            for article in recovered.dataset.articles:
                for paragraph in article.paragraphs:
                    for qa in paragraph.qas:
                        for answer in qa.answers:
                            actual.add(
                                (
                                    paragraph.context,
                                    qa.question,
                                    answer.text,
                                    answer.answer_start,
                                )
                            )
            assert actual == expected


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
