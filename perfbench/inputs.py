"""Seeded input generator for the qaforge benchmark.

Everything a run feeds the program is written to files by ``write_inputs``;
the program under test receives only those paths. The same (workload, seed)
always produces byte-identical files, and ``inputs_digest`` fingerprints them.

The generator also returns what it built the files to contain (how many
records are malformed, how many fall outside the length window, ...), so the
checker can reconcile the program's funnel counts against known truth for
any seed. It never imports qaforge.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

LANGUAGES = ("en", "es", "zh")
MODES = ("squad", "mlqa")

# The 20-word toy pool (V≈22 once "question"/"answer" join it). Each
# language's passages end with its anchor bigram, which also ends every
# training passage, so the first decode step of the order-3 backend lands on
# a context seen in training and the funnel stays populated.
TOY_WORDS = {
    "en": ["river", "island", "glacier", "harbor", "bridge", "museum", "stone", "garden"],
    "es": ["río", "isla", "puente", "museo", "piedra", "jardín"],
    "zh": ["河流", "岛屿", "桥梁", "港口", "石头", "花园"],
}
TOY_ANCHORS = {"en": ("stone", "garden"), "es": ("piedra", "jardín"), "zh": ("石头", "花园")}

# Articles and punctuation placed in scoring answers. The article lists are
# the mlqa table's entries for these languages; squad mode strips only the
# English ones.
ARTICLES = {"en": ("the", "a", "an"), "es": ("el", "la", "los", "las", "un", "una")}
ASCII_MARKS = (".", ",", ";", ":", "!", "?")
ZH_MARKS = ("，", "。")


@dataclass(frozen=True)
class Workload:
    """Shape of one workload: its job, generator backend, input sizes and run knobs.

    The job a user runs is generation (``run_pipeline``) or, with ``scoring``,
    evaluation (``read_squad`` + ``evaluate_dataset`` + ``bleu``). Every
    workload has inputs for both, because a traced run exercises every layer.
    """

    name: str
    why: str
    backend: str  # "toy", "bigvocab" or "remote"
    passages: int  # valid records in the passage file
    too_short: int  # valid records below min_tokens
    too_long: int  # valid records above max_tokens
    malformed: int  # records the ingester must reject
    duplicates: int  # repeated ids the ingester must reject
    sample_n: int
    train_triples: int
    score_entries: int  # SQuAD entries per language
    bleu_pairs: int  # hypothesis/reference lines per language
    scoring: bool = False
    workers: int = 1
    num_samples: int = 20
    top_k: int = 10
    max_output_tokens: int = 24
    keep_per_passage: int = 10
    min_tokens: int = 20
    max_tokens: int = 120
    stub_service_ms: float = 10.0
    stub_fault_every: int = 100
    # A CPU-bound job is timed in reference-host seconds (see run.host_scale);
    # one that waits on the loopback service is timed as it ran.
    cpu_bound: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-toy",
            why="toy vocabulary: n-gram contexts repeat so the generator cache is warm; "
            "parse/filter, journal and artifact writes carry the rest",
            backend="toy",
            passages=1600,
            too_short=120,
            too_long=120,
            malformed=40,
            duplicates=20,
            sample_n=1200,
            train_triples=2000,
            score_entries=100,
            bleu_pairs=100,
        ),
        Workload(
            name="ref-bigvocab",
            why="20k-word vocabulary: about half the decode steps reach a new context, where "
            "the backend sorts all 20k symbols and caches the result without bound",
            backend="bigvocab",
            passages=24,
            too_short=2,
            too_long=2,
            malformed=2,
            duplicates=1,
            sample_n=16,
            train_triples=2600,
            score_entries=100,
            bleu_pairs=100,
            num_samples=2,
            max_output_tokens=8,
            keep_per_passage=2,
        ),
        Workload(
            name="remote-loopback",
            why="remote backend against a 10 ms loopback stub with 2 workers: generation "
            "is I/O wait, measuring client overhead, thread scaling and retries",
            backend="remote",
            passages=360,
            too_short=20,
            too_long=20,
            malformed=10,
            duplicates=5,
            sample_n=300,
            train_triples=0,
            score_entries=100,
            bleu_pairs=100,
            workers=2,
            cpu_bound=False,
        ),
        Workload(
            name="score-mixed",
            why="scoring path: en/es/zh SQuAD document with 1-3 golds, punctuation and "
            "articles, scored in squad and mlqa modes, plus corpus BLEU",
            backend="toy",
            passages=120,
            too_short=5,
            too_long=5,
            malformed=5,
            duplicates=3,
            sample_n=100,
            train_triples=2000,
            score_entries=2000,
            bleu_pairs=2000,
            scoring=True,
        ),
    )
}


# --------------------------------------------------------------------------
# Vocabularies


def _han_word(rng: random.Random, length: int) -> str:
    return "".join(chr(rng.randrange(0x4E00, 0x9FA0)) for _ in range(length))


_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


def _latin_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))


def _distinct(make, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = make()
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


BIG_POOL_SIZES = {"en": 8000, "es": 8000, "zh": 4000}
HEAD_WORDS = 4


def big_pools(rng: random.Random) -> dict[str, list[str]]:
    """One ~20k-word pool split by language, each sub-pool ranked by frequency."""
    return {
        "en": _distinct(lambda: _latin_word(rng), BIG_POOL_SIZES["en"]),
        "es": _distinct(lambda: _latin_word(rng) + rng.choice("aoe"), BIG_POOL_SIZES["es"]),
        "zh": _distinct(lambda: _han_word(rng, rng.randint(2, 3)), BIG_POOL_SIZES["zh"]),
    }


def _zipf_weights(count: int) -> list[float]:
    """Cumulative weights giving rank r a probability proportional to 1/(r + 1)."""
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(count)))


def tokens_of(words: list[str], language: str) -> int:
    """Token count the program should compute: Han characters count singly in zh."""
    if language == "zh":
        return sum(len(word) for word in words)
    return len(words)


# --------------------------------------------------------------------------
# Passages and training corpus


@dataclass
class Truth:
    """What the generated passage file contains, for reconciling funnel counts."""

    ingested: int = 0
    length_kept: int = 0
    record_errors: int = 0


class _TextSource:
    def __init__(self, workload: Workload, rng: random.Random):
        self.rng = rng
        if workload.backend == "bigvocab":
            self.pools = big_pools(rng)
            self.zipf = {lang: _zipf_weights(len(words)) for lang, words in self.pools.items()}
            self.anchors = {lang: (words[0], words[1]) for lang, words in self.pools.items()}
        else:
            self.pools = TOY_WORDS
            self.zipf = None
            self.anchors = TOY_ANCHORS

    def head(self, language: str) -> list[str]:
        """The most frequent non-anchor words of a language."""
        anchors = self.anchors[language]
        return [w for w in self.pools[language] if w not in anchors][:HEAD_WORDS]

    def word(self, language: str) -> str:
        if self.zipf is not None:
            return self.rng.choices(self.pools[language], cum_weights=self.zipf[language])[0]
        return self.rng.choice(self.pools[language])

    def body(self, language: str, tokens: int) -> list[str]:
        """Words ending in the language anchor whose token count is exactly ``tokens``."""
        anchor = list(self.anchors[language])
        words: list[str] = []
        while True:
            need = tokens - tokens_of(words + anchor, language)
            if need <= 0:
                break
            word = self.word(language)
            if language == "zh" and len(word) > need:
                word = word[:need] if self.zipf is None else _han_word(self.rng, need)
            words.append(word)
        return words + anchor


def _passage_lengths(workload: Workload, rng: random.Random) -> list[tuple[str, int]]:
    """(kind, token count) for every valid record, shuffled."""
    kinds = (
        [("kept", rng.randint(workload.min_tokens, workload.max_tokens))
         for _ in range(workload.passages)]
        + [("short", rng.randint(4, workload.min_tokens - 1)) for _ in range(workload.too_short)]
        + [("long", rng.randint(workload.max_tokens + 1, workload.max_tokens + 60))
           for _ in range(workload.too_long)]
    )
    rng.shuffle(kinds)
    return kinds


_MALFORMED_KINDS = ("not_json", "missing_text", "number_id", "blank_text", "array")


def _malformed_line(rng: random.Random, index: int) -> str:
    kind = _MALFORMED_KINDS[index % len(_MALFORMED_KINDS)]
    if kind == "not_json":
        return '{"id": "broken-%d", "text": ' % index
    if kind == "missing_text":
        return json.dumps({"id": f"missing-{index}", "language": "en"})
    if kind == "number_id":
        return json.dumps({"id": index, "text": "river island", "language": "en"})
    if kind == "blank_text":
        return json.dumps({"id": f"blank-{index}", "text": "   ", "language": "es"})
    return json.dumps([f"array-{index}", rng.random()])


def write_passages(workload: Workload, source: _TextSource, path: Path) -> Truth:
    rng = source.rng
    truth = Truth()
    lines: list[str] = []
    ids: list[str | None] = []  # record id per line, None for malformed lines
    for index, (kind, tokens) in enumerate(_passage_lengths(workload, rng)):
        language = LANGUAGES[rng.randrange(3)]
        text = " ".join(source.body(language, tokens))
        record_id = f"{language}-{index:06d}"
        lines.append(json.dumps({"id": record_id, "text": text, "language": language},
                                ensure_ascii=False))
        ids.append(record_id)
        truth.ingested += 1
        truth.length_kept += kind == "kept"
    for index in range(workload.malformed):
        position = rng.randrange(len(lines) + 1)
        lines.insert(position, _malformed_line(rng, index))
        ids.insert(position, None)
    for index in range(workload.duplicates):
        # Always after the original, so the original is the copy that survives.
        original = rng.choice([i for i, record_id in enumerate(ids) if record_id])
        position = rng.randint(original + 1, len(lines))
        duplicate = {"id": ids[original], "text": f"duplicate record {index}", "language": "en"}
        lines.insert(position, json.dumps(duplicate))
        ids.insert(position, None)
    truth.record_errors = workload.malformed + workload.duplicates
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return truth


def write_training(workload: Workload, source: _TextSource, path: Path) -> None:
    rng = source.rng
    lines = []
    coverage: dict[str, list[str]] = {}
    if source.zipf is not None:
        # Spread each sub-pool over the training passages so the model's
        # vocabulary is the whole ~20k-word pool.
        for language, words in source.pools.items():
            shuffled = list(words)
            rng.shuffle(shuffled)
            coverage[language] = shuffled
    for index in range(workload.train_triples):
        language = LANGUAGES[index % 3]
        words = source.body(language, rng.randint(10, 16))[:-2]
        if coverage.get(language):
            share = max(1, len(source.pools[language]) * 3 // workload.train_triples)
            words += [coverage[language].pop() for _ in range(min(share, len(coverage[language])))]
        # Answers are frequent words planted in the passage, so generated
        # answers often occur in evaluation passages too.
        question = " ".join(source.word(language) for _ in range(rng.randint(3, 5)))
        head = source.head(language)
        answer = " ".join(rng.choice(head) for _ in range(rng.randint(1, 2)))
        words.insert(rng.randrange(len(words) + 1), answer)
        words += list(source.anchors[language])
        lines.append(json.dumps(
            {"passage": " ".join(words), "question": question, "answer": answer},
            ensure_ascii=False,
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Scoring inputs


def _phrase(rng: random.Random, language: str) -> list[str]:
    """One answer-like phrase: optional article, 1-3 content words."""
    if language == "zh":
        return [_han_word(rng, rng.randint(2, 5))]
    words = [_latin_word(rng) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        words.insert(0, rng.choice(ARTICLES[language]))
    if rng.random() < 0.3:
        words[0] = words[0].capitalize()
    return words


def _render(words: list[str], language: str, mark: str) -> str:
    return ("".join(words) if language == "zh" else " ".join(words)) + mark


def _mark(rng: random.Random, language: str) -> str:
    if rng.random() < 0.5:
        return ""
    return rng.choice(ZH_MARKS if language == "zh" else ASCII_MARKS)


def _prediction(rng: random.Random, language: str, gold_words: list[str]) -> str:
    """A prediction of a seeded kind: exact variant, partial, article change, wrong, empty."""
    kind = rng.random()
    if kind < 0.35:  # same words, new case and punctuation
        words = [w.upper() if rng.random() < 0.3 else w for w in gold_words]
        return _render(words, language, _mark(rng, language))
    if kind < 0.6:  # partial overlap
        if language == "zh":
            text = gold_words[0]
            cut = rng.randint(1, len(text))
            return text[:cut] + _han_word(rng, rng.randint(0, 2))
        keep = gold_words[: rng.randint(1, len(gold_words))]
        return _render(keep + [_latin_word(rng)], language, _mark(rng, language))
    if kind < 0.75 and language != "zh":  # drop or swap the article
        content = [w for w in gold_words if w.lower() not in ARTICLES[language]]
        article = rng.choice(ARTICLES["en"] + ARTICLES[language])
        return _render([article] + content if rng.random() < 0.5 else content, language, "")
    if kind < 0.97:
        return _render(_phrase(rng, language), language, _mark(rng, language))
    return ""


def write_scoring(workload: Workload, rng: random.Random, directory: Path) -> None:
    """Per-language SQuAD-1.1 documents, one predictions file, BLEU line files."""
    predictions: dict[str, str] = {}
    for language in LANGUAGES:
        separator = "" if language == "zh" else " "
        filler_marks = ZH_MARKS if language == "zh" else ASCII_MARKS
        paragraphs = []
        entry = 0
        while entry < workload.score_entries:
            pieces: list[tuple[str, int | None]] = []  # (text, index of the qa it answers)
            first_golds: list[list[str]] = []
            for qa_index in range(rng.randint(2, 4)):
                for gold_index in range(rng.randint(1, 3)):
                    filler = _render(_phrase(rng, language), language, rng.choice(filler_marks))
                    pieces.append((filler, None))
                    words = _phrase(rng, language)
                    pieces.append((_render(words, language, _mark(rng, language)), qa_index))
                    if gold_index == 0:
                        first_golds.append(words)
            context = ""
            answers: list[list[dict]] = [[] for _ in first_golds]
            for text, qa_index in pieces:
                if context:
                    context += separator
                if qa_index is not None:
                    answers[qa_index].append({"text": text, "answer_start": len(context)})
                context += text
            qas = []
            for qa_index, gold_words in enumerate(first_golds):
                qa_id = f"{language}-{entry:06d}"
                question = _render(_phrase(rng, language), language, "?")
                qas.append({"id": qa_id, "question": question, "answers": answers[qa_index]})
                predictions[qa_id] = _prediction(rng, language, gold_words)
                entry += 1
            paragraphs.append({"context": context, "qas": qas})
        document = {"version": "1.1",
                    "data": [{"title": f"{language}-bench", "paragraphs": paragraphs}]}
        (directory / f"squad_{language}.json").write_text(
            json.dumps(document, ensure_ascii=False, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

        hyps, refs = [], []
        for _ in range(workload.bleu_pairs):
            ref = [w for _ in range(rng.randint(3, 6)) for w in _phrase(rng, language)]
            hyp = list(ref)
            for position in range(len(hyp)):
                roll = rng.random()
                if roll < 0.15:
                    hyp[position] = _phrase(rng, language)[-1]
                elif roll < 0.2:
                    hyp[position] = ""
            hyp = [w for w in hyp if w] or [ref[0]]
            joiner = "" if language == "zh" else " "
            refs.append(joiner.join(ref))
            hyps.append(joiner.join(hyp))
        (directory / f"bleu_hyp_{language}.txt").write_text("\n".join(hyps) + "\n", encoding="utf-8")
        (directory / f"bleu_ref_{language}.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")
    (directory / "predictions.json").write_text(
        json.dumps(predictions, ensure_ascii=False, sort_keys=True) + "\n", encoding="utf-8"
    )


# --------------------------------------------------------------------------


def write_inputs(workload: Workload, seed: int, directory: Path) -> Truth:
    """Write every input file of one (workload, seed) into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload.name}:{seed}")
    source = _TextSource(workload, rng)
    truth = write_passages(workload, source, directory / "passages.jsonl")
    if workload.train_triples:
        write_training(workload, source, directory / "train.jsonl")
    write_scoring(workload, random.Random(f"{workload.name}:{seed}:score"), directory)
    return truth


def inputs_digest(directory: Path) -> str:
    """sha256 over every input file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()
