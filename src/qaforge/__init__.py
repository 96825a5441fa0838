"""Multilingual synthetic question-answer generation, filtering, and evaluation."""

from .corpus import filter_by_length, parse_passage_stream, sample_passages
from .dataset import emit_squad, read_squad, write_squad
from .generator import GenerationRequest, derive_seed, train_reference
from .metrics import bleu, evaluate_dataset, make_profile, tokenize_for_f1
from .parsefilter import FilterConfig, run_filter_pipeline
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

# The names of the README's "Library use", then the names the benchmark
# (perfbench/child.py) imports; tests/test_public_names.py checks both lists.
__all__ = [
    "FilterConfig",
    "GenerationRequest",
    "PipelineConfig",
    "run_pipeline",
    "train_reference",
    "run_filter_pipeline",
    "evaluate_dataset",
    "make_profile",
    "bleu",
    "derive_seed",
    "emit_squad",
    "filter_by_length",
    "parse_passage_stream",
    "read_squad",
    "sample_passages",
    "tokenize_for_f1",
    "write_squad",
    "__version__",
]
