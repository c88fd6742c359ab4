"""distillfuse: teacher-student multimodal depression classification.

A self-contained numpy pipeline: transcript + waveform preprocessing, a
low-rank-adapted transformer text teacher, a recurrent audio teacher with
int8 quantization, attention fusion, and response distillation into a
compact multimodal student.
"""

from .tensor import DomainError, ShapeError, Tensor
from .config import ConfigError, RunConfig, resolve_config
from .data import DatasetManifest, load_dataset, make_batches, rng_for, synth_generate
from .distill import DistillConfig, LossBreakdown, student_train_step
from .metrics import MetricsReport, compute_metrics, roc_auc
from .models import AudioTeacherModel, StudentModel, TextTeacherModel, load_model
from .pipeline import (
    ablate,
    evaluate_model,
    preprocess,
    quantize_pipeline,
    run_full,
    train_audio_teacher,
    train_student,
    train_text_teacher,
)

__version__ = "0.1.0"

__all__ = [
    "AudioTeacherModel",
    "ConfigError",
    "DatasetManifest",
    "DistillConfig",
    "DomainError",
    "LossBreakdown",
    "MetricsReport",
    "RunConfig",
    "ShapeError",
    "StudentModel",
    "Tensor",
    "TextTeacherModel",
    "__version__",
    "ablate",
    "compute_metrics",
    "evaluate_model",
    "load_dataset",
    "load_model",
    "make_batches",
    "preprocess",
    "quantize_pipeline",
    "resolve_config",
    "rng_for",
    "roc_auc",
    "run_full",
    "student_train_step",
    "synth_generate",
    "train_audio_teacher",
    "train_student",
    "train_text_teacher",
]
