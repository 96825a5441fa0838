"""Command-line entry points for every pipeline stage.

Exit codes: 0 success, 1 usage/configuration error, 2 data error,
3 transport error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

from .dataset import build_training_mix, emit_squad, read_squad, write_squad
from .errors import (
    ConfigurationError,
    DataError,
    PipelineError,
    QAForgeError,
    TransportError,
)
from .metrics import (
    bleu,
    evaluate_dataset,
    load_profile_table,
    make_profile,
    tokenize_for_f1,
)
from .parsefilter import SyntheticExample
from .pipeline import (
    PipelineConfig,
    PipelineReport,
    build_backend,
    candidate_records,
    filter_candidates,
    generate,
    ingest,
    read_candidates,
    read_jsonl,
    read_passages,
    run_pipeline,
    stats_summary,
    write_json,
    write_jsonl,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _flag_values(args) -> dict:
    """The config keys given on the command line; a flag left out is None."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }


def _stage_config(args) -> PipelineConfig:
    """Config of a stage subcommand, whose flags are stored under config key names."""
    return PipelineConfig(output_dir=str(Path(args.output).parent), **_flag_values(args))


def cmd_ingest(args) -> int:
    passages, _, skipped = ingest(_stage_config(args))
    write_jsonl(args.output, (p.to_record() for p in passages))
    print(f"wrote {len(passages)} passages to {args.output} ({skipped} records skipped)")
    return EXIT_OK


def cmd_generate(args) -> int:
    config = _stage_config(args)
    config.validate()
    request = config.request_template()
    passages = read_passages(config.input)
    candidates = generate(passages, build_backend(config), request, config.resolved_seed())
    write_jsonl(args.output, candidate_records(candidates))
    total = sum(len(group) for group in candidates.values())
    print(f"wrote {total} candidates for {len(passages)} passages to {args.output}")
    return EXIT_OK


def cmd_filter(args) -> int:
    config = _stage_config(args).filter_config()
    passages = {p.id: p for p in read_passages(args.input)}
    candidates = read_candidates(args.candidates, passages)
    examples, totals = filter_candidates(passages, candidates, config)
    write_jsonl(args.output, (e.to_record() for e in examples))
    if args.stats:
        write_json(args.stats, totals.to_record())
    print(f"kept {totals.kept} of {totals.candidates} candidates -> {args.output}")
    return EXIT_OK


def cmd_emit(args) -> int:
    passages = {p.id: p for p in read_passages(args.passages)}
    examples = read_jsonl(args.examples, SyntheticExample.from_record)
    dataset = emit_squad(examples, passages)
    write_squad(dataset, args.output)
    total = sum(len(p.qas) for a in dataset.articles for p in a.paragraphs)
    print(f"wrote {total} entries across {len(dataset.articles)} articles to {args.output}")
    return EXIT_OK


def cmd_mix(args) -> int:
    overrides = {}
    for stage in ("synthetic", "gold"):
        stage_overrides = {}
        if args.epochs is not None:
            stage_overrides["epochs"] = args.epochs
        if args.batch_size is not None:
            stage_overrides["batch_size"] = args.batch_size
        if args.learning_rate is not None:
            stage_overrides["learning_rate"] = args.learning_rate
        if stage_overrides:
            overrides[stage] = stage_overrides
    manifest = build_training_mix(args.synthetic, args.gold, overrides or None)
    manifest.write(args.output)
    print(f"wrote manifest with {len(manifest.stages)} stage(s) to {args.output}")
    return EXIT_OK


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str, invalid: type[QAForgeError] = DataError) -> Any:
    """A JSON document; invalid JSON raises ``invalid``."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise invalid(f"{path}: invalid JSON: {exc.msg}") from exc


def cmd_eval(args) -> int:
    result = read_squad(_read_text(args.dataset))
    for violation in result.violations:
        logger.warning("dataset violation (%s): %s", violation.qa_id, violation.message)
    predictions = _read_json(args.predictions)
    if not isinstance(predictions, dict) or not all(
        isinstance(answer, str) for answer in predictions.values()
    ):
        raise DataError(f"{args.predictions}: predictions must be an object of id -> answer")
    table = load_profile_table(args.profile_config) if args.profile_config else None
    profile = make_profile(args.mode, args.language, table)
    report = evaluate_dataset(
        predictions, result.dataset, profile, missing_as_zero=args.missing_as_zero
    )
    print(json.dumps(report.to_json_dict(include_per_example=False), ensure_ascii=False))
    if args.output:
        write_json(args.output, report.to_json_dict(), indent=2)
    return EXIT_OK


def cmd_bleu(args) -> int:
    profile = make_profile("mlqa", args.language)
    hypotheses = [tokenize_for_f1(line, profile) for line in _read_text(args.hyp).splitlines()]
    references = [tokenize_for_f1(line, profile) for line in _read_text(args.ref).splitlines()]
    score = bleu(hypotheses, references, max_n=args.max_n)
    print(json.dumps({"bleu": score}))
    return EXIT_OK


def cmd_run(args) -> int:
    mapping: dict = {}
    if args.config:
        mapping = _read_json(args.config, invalid=ConfigurationError)
        if not isinstance(mapping, dict):
            raise ConfigurationError(f"{args.config}: config must be a JSON object")
    mapping.update(_flag_values(args))
    config = PipelineConfig.from_mapping(mapping)
    report = run_pipeline(config)
    print(stats_summary(report))
    print(f"dataset: {report.outputs['dataset']}")
    return EXIT_OK


def cmd_stats(args) -> int:
    payload = _read_json(args.report)
    counts = payload.get("counts", {}) if isinstance(payload, dict) else None
    if not isinstance(counts, dict) or any(type(count) is not int for count in counts.values()):
        raise DataError(f"{args.report}: 'counts' must be an object of integer counts")
    report = PipelineReport(counts=counts, record_errors=payload.get("record_errors", 0))
    print(stats_summary(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qaforge")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Stage flags are stored under the matching config key; PipelineConfig
    # supplies the default of every flag left out.
    p = subparsers.add_parser("ingest", help="parse, length-filter, and sample passages")
    p.add_argument("--input", required=True)
    p.add_argument("--language", help="keep only passages in this language")
    p.add_argument("--min-tokens", type=int)
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--sample", dest="sample_n", metavar="SAMPLE", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = subparsers.add_parser("generate", help="sample candidates for each passage")
    p.add_argument("--passages", dest="input", metavar="PASSAGES", required=True)
    p.add_argument("--backend", choices=["reference", "remote"])
    p.add_argument("--train-corpus", help="JSONL of passage/question/answer triples")
    p.add_argument("--order", type=int)
    p.add_argument("--endpoint", help="remote service base URL")
    p.add_argument("--num-samples", type=int)
    p.add_argument("--top-k", type=int)
    p.add_argument("--max-output-tokens", type=int)
    p.add_argument("--target-language")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = subparsers.add_parser("filter", help="parse, validate, and rank candidates")
    p.add_argument("--candidates", required=True)
    p.add_argument("--passages", dest="input", metavar="PASSAGES", required=True)
    p.add_argument("--keep", dest="keep_per_passage", metavar="KEEP", type=int)
    p.add_argument("--per-passage", dest="num_samples", metavar="PER_PASSAGE", type=int)
    p.add_argument(
        "--no-extractive", dest="require_extractive", action="store_false", default=None
    )
    p.add_argument("--no-dedup", dest="dedup", action="store_false", default=None)
    p.add_argument("--length-normalize", action="store_true", default=None)
    p.add_argument("--stats")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_filter)

    p = subparsers.add_parser("emit", help="write examples as a training document")
    p.add_argument("--examples", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_emit)

    p = subparsers.add_parser("mix", help="build a staged training manifest")
    p.add_argument("--synthetic", nargs="*", default=[])
    p.add_argument("--gold", nargs="*", default=[])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_mix)

    p = subparsers.add_parser("eval", help="score predictions against a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--mode", choices=["squad", "mlqa"], default="squad")
    p.add_argument("--language", default="en")
    p.add_argument("--profile-config")
    p.add_argument("--missing-as-zero", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=cmd_eval)

    p = subparsers.add_parser("bleu", help="corpus BLEU of hypothesis vs reference lines")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--language", default="en")
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_bleu)

    p = subparsers.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config")
    # Every config key k has the flag --k (underscores as dashes); booleans
    # also take --no-k. A flag overrides the key from --config.
    for name, types in PipelineConfig.field_types().items():
        flag = "--" + name.replace("_", "-")
        if types[0] is bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, type=types[0])
    p.set_defaults(func=cmd_run)

    p = subparsers.add_parser("stats", help="print the stage funnel of a pipeline report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except QAForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, PipelineError) else exc
        if isinstance(cause, TransportError):
            return EXIT_TRANSPORT
        return EXIT_USAGE if isinstance(exc, ConfigurationError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
