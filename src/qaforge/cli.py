"""Command-line entry points for every pipeline stage.

Exit codes: 0 success, 1 usage/configuration error, 2 data error or an
output that cannot be written, 3 transport error, 130 SIGINT, 143 SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
from collections.abc import Collection, Iterable
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path
from typing import Any

from .dataset import (
    SquadWriter,
    atomic_write,
    build_training_mix,
    emit_passage,
    read_squad,
    write_json,
    write_jsonl,
)
from .errors import (
    JSON_ERRORS,
    ConfigurationError,
    DataError,
    EmissionError,
    Interrupted,
    PipelineError,
    QAForgeError,
    SquadParseError,
    TransportError,
    json_error_reason,
    load_json,
)
from .metrics import (
    bleu,
    check_max_n,
    evaluate_dataset,
    load_profile_table,
    make_profile,
    tokenize_for_f1,
)
from .generator import Candidate
from .parsefilter import FilterConfig, FilterStats, SyntheticExample, run_filter_pipeline
from .pipeline import (
    GENERATION_KNOBS,
    PipelineConfig,
    PipelineReport,
    build_backend,
    funnel_report,
    generate_passage,
    ingest,
    read_passage_groups,
    read_passages,
    run_pipeline,
    stats_summary,
)
from .remote import RemoteGeneratorClient

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRANSPORT = 3
# A signal that ends the process exits 128 + its number, as a shell reports
# a process the signal killed: 130 for SIGINT, 143 for SIGTERM.
_INTERRUPTS = (signal.SIGINT, signal.SIGTERM)


class _ArgumentParser(argparse.ArgumentParser):
    """Every flag has one spelling: an abbreviation (``--sample`` for ``--sample-n``) is unknown."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _add_config_flags(parser, keys: Iterable[str], required: Collection[str] = ()) -> None:
    """Add ``--k`` for each config key k (underscores as dashes), and ``--no-k`` for a boolean.

    Each flag stores its value under k; a flag left out is None.
    """
    types = PipelineConfig.field_types()
    for key in keys:
        flag = "--" + key.replace("_", "-")
        if types[key][0] is bool:
            for name, value in ((flag, True), ("--no-" + flag[2:], False)):
                parser.add_argument(name, dest=key, action="store_const", const=value)
        else:
            parser.add_argument(flag, dest=key, type=types[key][0], required=key in required)


def _flag_values(args) -> dict:
    """The config keys given on the command line; a flag left out is None."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }


def _stage_config(args) -> PipelineConfig:
    """Config of a stage subcommand, checked as ``run`` checks its config."""
    return PipelineConfig.from_mapping(
        {"output_dir": str(Path(args.output).parent), **_flag_values(args)}
    )


def cmd_ingest(args) -> int:
    passages, _, skipped = ingest(_stage_config(args))
    write_jsonl(args.output, (p.to_record() for p in passages))
    print(f"wrote {len(passages)} passages to {args.output} ({skipped} records skipped)")
    return EXIT_OK


def cmd_generate(args) -> int:
    config = _stage_config(args)
    config.validate()
    request = config.request_template()
    passages = sorted(read_passages(config.input), key=lambda passage: passage.id)
    backend, seed = build_backend(config), config.resolved_seed()
    total = 0
    with ExitStack() as stack:
        if isinstance(backend, RemoteGeneratorClient):
            stack.callback(backend.close)
        handle = stack.enter_context(atomic_write(args.output))
        for passage in passages:
            candidates, rows = generate_passage(passage, backend, request, seed)
            handle.write(rows)
            total += len(candidates)
    print(f"wrote {total} candidates for {len(passages)} passages to {args.output}")
    return EXIT_OK


def cmd_filter(args) -> int:
    config = _stage_config(args).filter_config()
    passages = {p.id: p for p in read_passages(args.input)}
    totals = FilterStats()
    with atomic_write(args.output) as handle:
        groups = read_passage_groups(args.candidates, passages, Candidate.from_record)
        for passage, candidates, _ in groups:
            kept, stats = run_filter_pipeline(passage, candidates, config)
            totals.merge(stats)
            if kept:
                handle.write(emit_passage(passage, kept)[0])
    if args.stats:
        write_json(args.stats, funnel_report(totals, {}).to_record(), indent=2)
    print(f"kept {totals.kept} of {totals.candidates} candidates -> {args.output}")
    return EXIT_OK


def cmd_emit(args) -> int:
    passages = {p.id: p for p in read_passages(args.input)}
    entries = articles = 0
    with atomic_write(args.output) as handle:
        document = SquadWriter(handle)
        groups = read_passage_groups(args.examples, passages, SyntheticExample.from_record)
        for passage, examples, lines in groups:
            try:
                document.add(emit_passage(passage, examples)[1])
            except EmissionError as exc:
                raise EmissionError(f"{args.examples}:{lines[exc.position]}: {exc}") from exc
            entries += len(examples)
            articles += 1
        document.finish()
    print(f"wrote {entries} entries across {articles} articles to {args.output}")
    return EXIT_OK


def cmd_mix(args) -> int:
    keys = ("epochs", "batch_size", "learning_rate")
    hyperparameters = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    manifest = build_training_mix(args.synthetic, args.gold, **hyperparameters)
    manifest.write(args.output)
    print(f"wrote manifest with {len(manifest.stages)} stage(s) to {args.output}")
    return EXIT_OK


def _read_text(path: str) -> str:
    """The file's text as written: no newline is translated."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_lines(path: str) -> list[str]:
    """The lines of a text file, ended by "\n" only, as in the JSONL readers.

    Other line boundaries (``"\r"``, U+2028, ...) stay inside their line, an
    empty line is an empty string, and a final newline ends the last line.
    """
    lines = _read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _read_json(path: str, invalid: type[QAForgeError] = DataError) -> Any:
    """A JSON document; invalid JSON raises ``invalid``."""
    try:
        return load_json(_read_text(path))
    except JSON_ERRORS as exc:
        raise invalid(f"{path}: invalid JSON: {json_error_reason(exc)}") from exc


def cmd_eval(args) -> int:
    table = load_profile_table(args.profile_config) if args.profile_config else None
    profile = make_profile(args.mode, args.language, table)
    try:
        result = read_squad(_read_text(args.dataset))
    except SquadParseError as exc:
        raise SquadParseError(f"{args.dataset}: {exc}") from exc
    for violation in result.violations:
        logger.warning("dataset violation (%s): %s", violation.qa_id, violation.message)
    predictions = _read_json(args.predictions)
    if not isinstance(predictions, dict) or not all(
        isinstance(answer, str) for answer in predictions.values()
    ):
        raise DataError(f"{args.predictions}: predictions must be an object of id -> answer")
    report = evaluate_dataset(
        predictions, result.dataset, profile, missing_as_zero=args.missing_as_zero
    )
    print(json.dumps(report.to_json_dict(include_per_example=False), ensure_ascii=False))
    if args.output:
        write_json(args.output, report.to_json_dict(), indent=2)
    return EXIT_OK


def cmd_bleu(args) -> int:
    profile = make_profile("mlqa", args.language)
    check_max_n(args.max_n)
    hypotheses = [tokenize_for_f1(line, profile) for line in _read_lines(args.hyp)]
    references = [tokenize_for_f1(line, profile) for line in _read_lines(args.ref)]
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
    print(stats_summary(PipelineReport.from_record(_read_json(args.report), args.report)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qaforge")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Stage flags are config-key flags, as run's are; PipelineConfig supplies
    # the default of every flag left out.
    p = subparsers.add_parser("ingest", help="parse, length-filter, and sample passages")
    keys = ("input", "language", "min_tokens", "max_tokens", "sample_n", "seed")
    _add_config_flags(p, keys, required=("input",))
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = subparsers.add_parser("generate", help="sample candidates for each passage")
    keys = ("input", "backend", "order", *GENERATION_KNOBS, "train_corpus", "endpoint", "seed")
    _add_config_flags(p, keys, required=("input",))
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = subparsers.add_parser("filter", help="parse, validate, and rank candidates")
    p.add_argument("--candidates", required=True)
    keys = ("input", *(f.name for f in fields(FilterConfig)))
    _add_config_flags(p, keys, required=("input",))
    p.add_argument("--stats")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_filter)

    p = subparsers.add_parser("emit", help="write examples as a training document")
    p.add_argument("--examples", required=True)
    _add_config_flags(p, ("input",), required=("input",))
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
    # A flag overrides the key from --config.
    _add_config_flags(p, PipelineConfig.field_types())
    p.set_defaults(func=cmd_run)

    p = subparsers.add_parser("stats", help="print the stage funnel of a pipeline report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def _interrupt(signum: int, frame) -> None:
    raise Interrupted(signum)


def main(argv=None) -> int:
    """Run one command; SIGINT and SIGTERM end it as a failure while it runs.

    Each of the two signals raises Interrupted until ``main`` returns and
    puts back the handler it found, so a command unwinds: ``run`` writes its
    checkpoint, and no temporary is left. Only the main thread can set a
    signal handler; called from another thread, ``main`` leaves the
    handlers as they are.
    """
    previous = {}
    if threading.current_thread() is threading.main_thread():
        previous = {signum: signal.signal(signum, _interrupt) for signum in _INTERRUPTS}
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
    except OSError as exc:
        # Readers raise DataError, so an OSError here is an output that
        # cannot be written; its message names the path.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Interrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 128 + exc.signum
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
