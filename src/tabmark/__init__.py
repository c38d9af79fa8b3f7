"""Desk-scale table image recognition.

Image encoder, bidirectional HTML structure decoder, non-causal feature
refiner, bounding-box head, and a cell-isolated content decoder that fills
every table cell in parallel.  Ships with a tree-edit-distance similarity
metric, a deterministic synthetic corpus generator, and a CLI covering
generation, training, inference, evaluation, benchmarking and ablation.
"""

from .bench import BenchMismatch, BenchReport, run_bench
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .decoding import (
    RecognizeResult,
    decode_cells_parallel,
    decode_cells_sequential,
    decode_html,
    recognize,
)
from .evaluate import evaluate_pairs, score_pair, summarize, summary_table
from .model import ModelConfig, TableModel
from .synth import PRESETS, GenSpec, TableRecord, emit_corpus, generate, load_corpus
# the teds() similarity itself stays on the submodule: re-exporting the
# function would shadow the tabmark.teds module attribute
from .teds import classify, html_to_tree, ted
from .training import (
    LossReport,
    LossWeights,
    TrainConfig,
    TrainingDiverged,
    gradcheck,
    sample_loss,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchMismatch",
    "BenchReport",
    "GenSpec",
    "LossReport",
    "LossWeights",
    "ModelConfig",
    "PRESETS",
    "RecognizeResult",
    "TableModel",
    "TableRecord",
    "TrainConfig",
    "TrainingDiverged",
    "classify",
    "decode_cells_parallel",
    "decode_cells_sequential",
    "decode_html",
    "emit_corpus",
    "evaluate_pairs",
    "generate",
    "gradcheck",
    "html_to_tree",
    "load_checkpoint",
    "load_corpus",
    "recognize",
    "run_bench",
    "sample_loss",
    "save_checkpoint",
    "score_pair",
    "summarize",
    "summary_table",
    "ted",
    "train",
    "__version__",
]
