from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import stat
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dumps_squad
from qaforge.corpus import Passage
from qaforge.dataset import (
    SquadAnswer,
    SquadArticle,
    SquadDataset,
    SquadParagraph,
    SquadQA,
    _content_id,
    build_training_mix,
    candidate_rows,
    emit_passage,
    emit_squad,
    json_string,
    read_squad,
    squad_article,
    write_json,
    write_jsonl,
    write_squad,
)
from qaforge.errors import ConfigurationError, DataError, EmissionError, SquadParseError
from qaforge.generator import Candidate
from qaforge.parsefilter import SyntheticExample
from qaforge.pipeline import _marker, passage_digest


def make_example(passage: Passage, question: str, answer: str, score: float = -1.0):
    start = passage.text.index(answer)
    return SyntheticExample(
        passage_id=passage.id,
        question=question,
        answer=answer,
        answer_start=start,
        lm_score=score,
        language=passage.language,
    )


@pytest.fixture()
def passage() -> Passage:
    return Passage.build("p1", "north tower stands over the harbor wall at dawn", "en")


class TestEmitSquad:
    def test_groups_examples_under_one_passage(self, passage):
        examples = [
            make_example(passage, f"which thing {i}", word)
            for i, word in enumerate(["north", "tower", "harbor", "wall", "dawn",
                                      "stands", "over", "the", "at", "north tower"])
        ]
        dataset = emit_squad(examples, {passage.id: passage})
        assert len(dataset.articles) == 1
        assert dataset.articles[0].title == passage.id
        assert len(dataset.articles[0].paragraphs) == 1
        assert len(dataset.articles[0].paragraphs[0].qas) == 10

    def test_empty_input_is_a_valid_empty_dataset(self):
        dataset = emit_squad([], {})
        assert dataset.articles == []
        result = read_squad(dumps_squad(dataset))
        assert result.violations == []

    def test_round_trip_preserves_all_tuples(self, passage):
        other = Passage.build("p0", "a stone bridge crosses the cold river", "en")
        examples = [
            make_example(passage, "where is the wall", "harbor wall", -2.0),
            make_example(passage, "what stands", "north tower", -1.0),
            make_example(other, "what crosses the river", "stone bridge", -0.5),
        ]
        lookup = {p.id: p for p in (passage, other)}
        emitted = emit_squad(examples, lookup)
        result = read_squad(dumps_squad(emitted))
        assert result.violations == []

        recovered = set()
        for article in result.dataset.articles:
            for paragraph in article.paragraphs:
                for qa in paragraph.qas:
                    for answer in qa.answers:
                        recovered.add(
                            (paragraph.context, qa.question, answer.text, answer.answer_start)
                        )
        expected = {
            (lookup[e.passage_id].text, e.question, e.answer, e.answer_start)
            for e in examples
        }
        assert recovered == expected

    def test_emission_is_byte_identical_and_input_order_free(self, passage):
        examples = [
            make_example(passage, f"q {i}", word)
            for i, word in enumerate(["north", "tower", "harbor"])
        ]
        shuffled = list(examples)
        random.Random(1).shuffle(shuffled)
        first = dumps_squad(emit_squad(examples, {passage.id: passage}))
        second = dumps_squad(emit_squad(shuffled, {passage.id: passage}))
        assert first == second

    def test_articles_sorted_by_passage_id(self, passage):
        zebra = Passage.build("zz", "water under the old bridge", "en")
        examples = [
            make_example(zebra, "q", "water"),
            make_example(passage, "q", "tower"),
        ]
        dataset = emit_squad(examples, {passage.id: passage, zebra.id: zebra})
        assert [a.title for a in dataset.articles] == ["p1", "zz"]

    def test_qa_ids_are_content_hashes(self, passage):
        example = make_example(passage, "where", "harbor")
        dataset = emit_squad([example], {passage.id: passage})
        qa = dataset.articles[0].paragraphs[0].qas[0]
        payload = json.dumps(["p1", "where", "harbor"], ensure_ascii=False)
        assert qa.id == hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def test_unknown_passage_rejected(self, passage):
        example = make_example(passage, "where", "harbor")
        with pytest.raises(EmissionError, match="unknown passage"):
            emit_squad([example], {})

    def test_bad_offset_rejected_with_example_named(self, passage):
        broken = SyntheticExample(
            passage_id="p1",
            question="where is it",
            answer="harbor",
            answer_start=0,
            lm_score=-1.0,
            language="en",
        )
        with pytest.raises(EmissionError, match="where is it"):
            emit_squad([broken], {passage.id: passage})

    def test_duplicate_example_rejected(self, passage):
        example = make_example(passage, "where", "harbor")
        with pytest.raises(EmissionError, match="duplicate"):
            emit_squad([example, example], {passage.id: passage})


def _nested_document() -> dict:
    """A valid document: 2 articles of 3 paragraphs of 4 entries of 5 answers,
    so that an error path tells every index apart."""
    return {"version": "1.1", "data": [
        {"title": "t", "paragraphs": [
            {"context": "c", "qas": [
                {"id": f"q{a}-{p}-{q}", "question": "q", "answers": [
                    {"text": "c", "answer_start": 0} for _ in range(5)
                ]}
                for q in range(4)
            ]}
            for p in range(3)
        ]}
        for a in range(2)
    ]}


_DELETE = object()
_ARTICLE = ("data", 1)
_PARAGRAPH = (*_ARTICLE, "paragraphs", 2)
_QA = (*_PARAGRAPH, "qas", 3)
_ANSWER = (*_QA, "answers", 4)
_ANSWER_PATH = "$.data[1].paragraphs[2].qas[3].answers[4]"

# (where, new value or _DELETE, the whole message): one case per check of
# read_squad, at each level of the document.
SCHEMA_ERRORS = [
    ((), [], "$: expected object, got list"),
    (("version",), _DELETE, "$: missing field 'version'"),
    (("version",), 1.1, "$.version: expected str, got float"),
    (("data",), _DELETE, "$: missing field 'data'"),
    (("data",), {}, "$.data: expected list, got dict"),
    (_ARTICLE, "t", "$.data[1]: expected object, got str"),
    ((*_ARTICLE, "title"), _DELETE, "$.data[1]: missing field 'title'"),
    ((*_ARTICLE, "title"), None, "$.data[1].title: expected str, got NoneType"),
    ((*_ARTICLE, "paragraphs"), _DELETE, "$.data[1]: missing field 'paragraphs'"),
    ((*_ARTICLE, "paragraphs"), {}, "$.data[1].paragraphs: expected list, got dict"),
    (_PARAGRAPH, [], "$.data[1].paragraphs[2]: expected object, got list"),
    ((*_PARAGRAPH, "context"), _DELETE, "$.data[1].paragraphs[2]: missing field 'context'"),
    ((*_PARAGRAPH, "context"), 3, "$.data[1].paragraphs[2].context: expected str, got int"),
    ((*_PARAGRAPH, "qas"), _DELETE, "$.data[1].paragraphs[2]: missing field 'qas'"),
    ((*_PARAGRAPH, "qas"), "q", "$.data[1].paragraphs[2].qas: expected list, got str"),
    (_QA, None, "$.data[1].paragraphs[2].qas[3]: expected object, got NoneType"),
    ((*_QA, "id"), _DELETE, "$.data[1].paragraphs[2].qas[3]: missing field 'id'"),
    ((*_QA, "id"), 7, "$.data[1].paragraphs[2].qas[3].id: expected str, got int"),
    ((*_QA, "question"), _DELETE, "$.data[1].paragraphs[2].qas[3]: missing field 'question'"),
    ((*_QA, "question"), [], "$.data[1].paragraphs[2].qas[3].question: expected str, got list"),
    ((*_QA, "answers"), _DELETE, "$.data[1].paragraphs[2].qas[3]: missing field 'answers'"),
    ((*_QA, "answers"), {}, "$.data[1].paragraphs[2].qas[3].answers: expected list, got dict"),
    (_ANSWER, 0, f"{_ANSWER_PATH}: expected object, got int"),
    ((*_ANSWER, "text"), _DELETE, f"{_ANSWER_PATH}: missing field 'text'"),
    ((*_ANSWER, "text"), 1, f"{_ANSWER_PATH}.text: expected str, got int"),
    ((*_ANSWER, "answer_start"), _DELETE, f"{_ANSWER_PATH}: missing field 'answer_start'"),
    ((*_ANSWER, "answer_start"), "0", f"{_ANSWER_PATH}.answer_start: expected int, got str"),
    ((*_ANSWER, "answer_start"), 0.0, f"{_ANSWER_PATH}.answer_start: expected int, got float"),
    ((*_ANSWER, "answer_start"), True, f"{_ANSWER_PATH}.answer_start: expected int, got bool"),
]


class TestReadSquad:
    def test_reads_dev_style_document_with_zero_violations(self, fixtures_dir):
        payload = (fixtures_dir / "squad_dev_style.json").read_bytes()
        result = read_squad(payload)
        assert result.violations == []
        assert result.dataset.version == "1.1"
        qas = list(result.dataset.iter_qas())
        assert len(qas) == 4
        assert all(len(qa.answers) == 3 for qa in qas)

    def test_offset_off_by_one_is_reported_per_qa(self, fixtures_dir):
        document = json.loads((fixtures_dir / "squad_dev_style.json").read_text("utf-8"))
        bad_qa = document["data"][0]["paragraphs"][0]["qas"][1]
        bad_qa["answers"][0]["answer_start"] += 1
        result = read_squad(json.dumps(document))
        assert len(result.violations) == 1
        assert result.violations[0].qa_id == bad_qa["id"]

    def test_truncated_stream_is_a_parse_error(self, fixtures_dir):
        payload = (fixtures_dir / "squad_dev_style.json").read_bytes()[:200]
        with pytest.raises(SquadParseError):
            read_squad(payload)

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO], ids=["bytes", "binary-handle"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, wrap):
        with pytest.raises(SquadParseError, match="^document is not valid utf-8: "):
            read_squad(wrap(b'{"version": "1.1", "data": ["\xff"]}'))

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(SquadParseError, match="not valid JSON"):
            read_squad('{"version": "1.1", "data": [], "n": ' + "1" * 5000 + "}")

    def test_missing_field_reports_path(self):
        document = {"version": "1.1", "data": [{"title": "t", "paragraphs": [{"qas": []}]}]}
        with pytest.raises(SquadParseError, match=r"\$\.data\[0\]\.paragraphs\[0\]"):
            read_squad(json.dumps(document))

    @pytest.mark.parametrize(
        "where, value, message", SCHEMA_ERRORS, ids=[case[2] for case in SCHEMA_ERRORS]
    )
    def test_schema_error_message(self, where, value, message):
        document = _nested_document()
        assert read_squad(json.dumps(document)).violations == []
        if not where:
            document = value
        else:
            *parents, key = where
            container = document
            for step in parents:
                container = container[step]
            if value is _DELETE:
                del container[key]
            else:
                container[key] = value
        with pytest.raises(SquadParseError) as raised:
            read_squad(json.dumps(document))
        assert str(raised.value) == message

    def test_first_failing_check_is_reported(self):
        # The answer of an earlier entry fails before a later entry's id,
        # and a field's type is checked before the next field is looked up.
        document = _nested_document()
        qa = document["data"][0]["paragraphs"][0]["qas"][0]
        qa["answers"][1]["text"] = None
        del qa["answers"][1]["answer_start"]
        del document["data"][0]["paragraphs"][0]["qas"][1]["id"]
        with pytest.raises(SquadParseError) as raised:
            read_squad(json.dumps(document))
        assert str(raised.value) == (
            "$.data[0].paragraphs[0].qas[0].answers[1].text: expected str, got NoneType"
        )

    def test_duplicate_ids_flagged(self):
        qa = {"id": "x", "question": "q", "answers": [{"text": "c", "answer_start": 0}]}
        document = {
            "version": "1.1",
            "data": [{"title": "t", "paragraphs": [{"context": "c", "qas": [qa, dict(qa)]}]}],
        }
        result = read_squad(json.dumps(document))
        assert any(v.message == "duplicate qa id" for v in result.violations)

    def test_unknown_fields_ignored(self):
        document = {
            "version": "1.1",
            "extra": True,
            "data": [
                {
                    "title": "t",
                    "junk": 1,
                    "paragraphs": [
                        {
                            "context": "c",
                            "qas": [
                                {
                                    "id": "x",
                                    "question": "q",
                                    "answers": [{"text": "c", "answer_start": 0}],
                                    "is_impossible": False,
                                }
                            ],
                        }
                    ],
                }
            ],
        }
        assert read_squad(json.dumps(document)).violations == []

    def test_reads_file_object(self, tmp_path, passage):
        dataset = emit_squad(
            [make_example(passage, "q", "tower")], {passage.id: passage}
        )
        path = tmp_path / "d.json"
        write_squad(dataset, path)
        with open(path, "rb") as handle:
            result = read_squad(handle)
        assert result.violations == []


class TestBuildTrainingMix:
    def test_default_two_stage_manifest(self):
        manifest = build_training_mix(
            ["s.json"], ["squad_en.json", "translate_train_de.json"]
        )
        assert [stage.name for stage in manifest.stages] == ["synthetic", "gold"]
        for stage in manifest.stages:
            assert stage.epochs == 2
            assert stage.batch_size == 64
            assert stage.learning_rate == 3e-5
        assert manifest.stages[1].dataset_paths == ["squad_en.json", "translate_train_de.json"]

    def test_gold_only(self):
        manifest = build_training_mix([], ["g.json"])
        assert [stage.name for stage in manifest.stages] == ["gold"]

    def test_synthetic_only(self):
        manifest = build_training_mix(["s.json"], [])
        assert [stage.name for stage in manifest.stages] == ["synthetic"]

    def test_no_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            build_training_mix([], [])

    def test_hyperparameters_apply_to_every_stage(self):
        manifest = build_training_mix(["s.json"], ["g.json"], epochs=3, batch_size=32)
        for stage in manifest.stages:
            assert stage.epochs == 3
            assert stage.batch_size == 32
            assert stage.learning_rate == 3e-5

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, learning_rate):
        with pytest.raises(ConfigurationError, match="invalid hyperparameters for stage 'gold'"):
            build_training_mix([], ["g.json"], learning_rate=learning_rate)

    @pytest.mark.parametrize(
        "hyperparameters, fault",
        [
            ({"epochs": 0}, "epochs must be >= 1, got 0"),
            ({"batch_size": -2}, "batch_size must be >= 1, got -2"),
            ({"learning_rate": -1.0}, "learning_rate must be finite and positive, got -1.0"),
        ],
    )
    def test_error_names_the_hyperparameter_and_its_value(self, hyperparameters, fault):
        # Once "invalid hyperparameters for stage 'synthetic'", naming no key.
        with pytest.raises(ConfigurationError) as raised:
            build_training_mix(["s.json"], ["g.json"], **hyperparameters)
        assert str(raised.value) == f"invalid hyperparameters for stage 'synthetic': {fault}"

    def test_manifest_json_shape(self, tmp_path):
        manifest = build_training_mix(["s.json"], ["g.json"])
        path = tmp_path / "manifest.json"
        manifest.write(path)
        payload = json.loads(path.read_text("utf-8"))
        assert payload == {
            "stages": [
                {
                    "name": "synthetic",
                    "dataset_paths": ["s.json"],
                    "epochs": 2,
                    "batch_size": 64,
                    "learning_rate": 3e-5,
                },
                {
                    "name": "gold",
                    "dataset_paths": ["g.json"],
                    "epochs": 2,
                    "batch_size": 64,
                    "learning_rate": 3e-5,
                },
            ]
        }


class TestDatasetModel:
    def test_iter_qas_walks_everything(self, fixtures_dir):
        result = read_squad((fixtures_dir / "metric_oracle_dataset.json").read_bytes())
        ids = [qa.id for qa in result.dataset.iter_qas()]
        assert ids == ["en-1", "en-2", "es-1", "es-2", "zh-1", "zh-2"]

    def test_to_json_dict_round_trips(self, fixtures_dir):
        raw = (fixtures_dir / "metric_oracle_dataset.json").read_text("utf-8")
        dataset = read_squad(raw).dataset
        assert json.loads(dumps_squad(dataset)) == json.loads(raw)

    def test_version_preserved(self):
        dataset = SquadDataset(version="1.1", articles=[])
        assert json.loads(dumps_squad(dataset))["version"] == "1.1"


def _rows_failing_after_one():
    yield {"passage_id": "p1", "text": "question q answer a", "lm_score": -1.0}
    raise DataError("record source failed")


# Each writer, given something that fails partway through. A NaN or an
# infinity was once written as NaN or Infinity, which no strict JSON reader accepts.
FAILING_WRITES = {
    "write_jsonl": (lambda path: write_jsonl(path, _rows_failing_after_one()), DataError),
    "write_jsonl-inf": (lambda path: write_jsonl(path, [{"n": 1}, {"x": math.inf}]), ValueError),
    "write_json": (lambda path: write_json(path, {"counts": {"kept": 1}, "x": object()}), TypeError),
    "write_json-nan": (lambda path: write_json(path, {"kept": 1, "x": math.nan}), ValueError),
    "write_json--inf": (lambda path: write_json(path, [-math.inf], indent=2), ValueError),
    "write_squad": (
        lambda path: write_squad(SquadDataset("1.1", [SquadArticle(object(), [])]), path),
        TypeError,
    ),
    "write_squad-nan": (
        lambda path: write_squad(SquadDataset("1.1", [SquadArticle("t", [SquadParagraph(
            "c", [SquadQA("q1", "q", [SquadAnswer("c", math.nan)])]
        )])]), path),
        ValueError,
    ),
}


class TestArtifactWriter:
    @pytest.mark.parametrize("writer", sorted(FAILING_WRITES))
    def test_failed_write_keeps_previous_target(self, tmp_path, writer):
        write, error = FAILING_WRITES[writer]
        target = tmp_path / "artifact"
        target.write_bytes(b'{"previous": true}\n')
        with pytest.raises(error):
            write(target)
        assert target.read_bytes() == b'{"previous": true}\n'
        assert os.listdir(tmp_path) == ["artifact"]

    def test_permission_bits_match_plain_open(self, tmp_path):
        previous = os.umask(0o027)
        try:
            with open(tmp_path / "plain", "w", encoding="utf-8"):
                pass
            write_json(tmp_path / "a.json", {})
            write_jsonl(tmp_path / "b.jsonl", [{}])
            write_squad(SquadDataset("1.1", []), tmp_path / "c.json")
            build_training_mix([], ["g.json"]).write(tmp_path / "d.json")
        finally:
            os.umask(previous)
        expected = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        for name in ("a.json", "b.jsonl", "c.json", "d.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == expected, name

    def test_rows_are_json_dumps_lines(self, tmp_path):
        rows = [{"text": "río 河", "lm_score": -1.5}, {"n": None, "ok": True}]
        write_jsonl(tmp_path / "rows.jsonl", rows)
        expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        assert (tmp_path / "rows.jsonl").read_text("utf-8") == expected

    def test_symlinked_target_keeps_its_link(self, tmp_path):
        (tmp_path / "runs").mkdir()
        real = tmp_path / "runs" / "stats.json"
        real.write_text("{}\n", encoding="utf-8")
        link = tmp_path / "latest.json"
        link.symlink_to(real)
        write_json(link, {"kept": 3})
        assert link.is_symlink()
        assert real.read_text("utf-8") == '{"kept": 3}\n'
        assert sorted(os.listdir(tmp_path / "runs")) == ["stats.json"]

    @pytest.mark.parametrize("present", [False, True])
    def test_regular_target_costs_two_stats_and_no_resolving(
        self, tmp_path, monkeypatch, present
    ):
        target = tmp_path / "report.json"
        if present:
            target.write_text("{}\n", encoding="utf-8")
        calls = []

        def counted(name, function):
            def call(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return call

        for name in ("stat", "lstat"):
            monkeypatch.setattr(os, name, counted(name, getattr(os, name)))
        monkeypatch.setattr(os.path, "realpath", counted("realpath", os.path.realpath))
        write_json(target, {"kept": 3})
        monkeypatch.undo()
        assert "realpath" not in calls
        assert len(calls) <= 2, calls
        assert target.read_text("utf-8") == '{"kept": 3}\n'
        assert os.listdir(tmp_path) == ["report.json"]

    def test_fifo_target_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8") as handle:
                received.append(handle.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        write_jsonl(fifo, [{"n": 1}, {"n": 2}])
        reader.join(timeout=10)
        assert received == ['{"n": 1}\n{"n": 2}\n']
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]


def json_dumps_document(dataset: SquadDataset) -> str:
    """The document as ``json.dumps`` encodes its nested-dict form, compact."""
    document = {
        "version": dataset.version,
        "data": [
            {
                "title": article.title,
                "paragraphs": [
                    {
                        "context": paragraph.context,
                        "qas": [
                            {
                                "id": qa.id,
                                "question": qa.question,
                                "answers": [
                                    {"text": a.text, "answer_start": a.answer_start}
                                    for a in qa.answers
                                ],
                            }
                            for qa in paragraph.qas
                        ],
                    }
                    for paragraph in article.paragraphs
                ],
            }
            for article in dataset.articles
        ],
    }
    return json.dumps(document, ensure_ascii=False, allow_nan=False, separators=(",", ":"))


answers = st.builds(SquadAnswer, st.text(), st.integers())
qas = st.builds(SquadQA, st.text(), st.text(), st.lists(answers, max_size=2))
paragraphs = st.builds(SquadParagraph, st.text(), st.lists(qas, max_size=3))
articles = st.builds(SquadArticle, st.text(), st.lists(paragraphs, max_size=2))
datasets = st.builds(SquadDataset, st.text(), st.lists(articles, max_size=3))


class _Score(float):
    pass


class _Offset(int):
    pass


# Strings with JSON's escapes, control characters, the line separators
# JavaScript rejects, characters outside the BMP and a combining mark. No
# surrogate: ``load_json`` rejects one, so no string read can hold it.
json_texts = st.text(
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\U0001F600é\u0301')
    | st.characters(codec="utf-8")
)
# Every kind of number a record may hold, with the values a repr gets wrong.
json_numbers = (
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, True, False])
    | st.floats()
    | st.integers()
    | st.integers(-(2**80), 2**80)
    | st.builds(_Score, st.floats())
    | st.builds(_Offset, st.integers())
)


@st.composite
def emitted(draw) -> tuple[Passage, list[SyntheticExample]]:
    """A passage and examples of it, each answer at its offset, no two of one pair."""
    passage_id, language, text = draw(json_texts), draw(json_texts), draw(json_texts)
    pairs = draw(st.lists(st.tuples(json_texts, json_texts), max_size=4, unique=True))
    examples = []
    for question, answer in pairs:
        start = len(text)
        if draw(st.booleans()):
            start = _Offset(start)
        text += answer + draw(json_texts)
        examples.append(
            SyntheticExample(passage_id, question, answer, start, draw(json_numbers), language)
        )
    return Passage(passage_id, text, language, 0), examples


def _strict(encode: Callable[[], str]) -> str | type[ValueError]:
    """``encode()``, or ValueError if it raises one: strict JSON refuses NaN and infinities."""
    try:
        return encode()
    except ValueError:
        return ValueError


def _example_lines(examples: list[SyntheticExample]) -> str | type[ValueError]:
    return _strict(lambda: "".join(
        json.dumps(example.to_record(), ensure_ascii=False, allow_nan=False) + "\n"
        for example in examples
    ))


class TestEncodingsEqualJsonDumps:
    """Each template writer gives json.dumps(..., allow_nan=False), or refuses where it does."""

    @given(json_texts, st.lists(st.tuples(json_texts, json_numbers), max_size=4))
    def test_candidate_rows(self, passage_id, drawn):
        candidates = [Candidate(text, lm_score) for text, lm_score in drawn]
        expected = _strict(lambda: "".join(
            json.dumps(
                {"passage_id": passage_id, **c.to_record()}, ensure_ascii=False, allow_nan=False
            ) + "\n"
            for c in candidates
        ))
        assert _strict(lambda: candidate_rows(passage_id, candidates)) == expected

    @given(emitted())
    def test_example_line(self, drawn):
        passage, examples = drawn
        lines = _strict(lambda: emit_passage(passage, examples)[0])
        assert lines == _example_lines(examples)

    @given(emitted())
    def test_emitted_article_is_the_general_writers(self, drawn):
        passage, examples = drawn
        if _example_lines(examples) is ValueError:
            with pytest.raises(ValueError, match="not JSON compliant"):
                emit_passage(passage, examples)
            return
        article = emit_passage(passage, examples)[1]
        dataset = SquadDataset("1.1", [squad_article(passage, examples)])
        assert f'{{"version":"1.1","data":[{article}]}}' == json_dumps_document(dataset)
        assert dumps_squad(dataset) == json_dumps_document(dataset)

    @given(json_texts, json_texts, json_texts)
    def test_content_id(self, passage_id, question, answer):
        payload = json.dumps([passage_id, question, answer], ensure_ascii=False)
        expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
        escaped = (json_string(passage_id), json_string(question), json_string(answer))
        assert _content_id(*escaped) == expected

    @given(json_texts, json_texts, json_texts)
    def test_journal_marker_and_passage_digest(self, passage_id, text, language):
        passage = Passage(passage_id, text, language, 0)
        payload = json.dumps([text, language], ensure_ascii=False) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert passage_digest(passage) == digest
        marker = {"passage_id": passage_id, "passage_sha256": digest}
        assert _marker(passage) == json.dumps(marker, ensure_ascii=False) + "\n"

    @given(datasets)
    def test_document(self, dataset):
        expected = json_dumps_document(dataset)
        assert dumps_squad(dataset) == expected
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "dataset.json"
            write_squad(dataset, path)
            assert path.read_bytes() == (expected + "\n").encode("utf-8")
