"""Duration modelling toolkit: deterministic regression and flow matching.

The package trains two kinds of phone-duration models on synthetic
corpora and measures how they differ once durations are quantised to
integer frame counts:

* a deterministic predictor trained with mean squared error in the log
  domain, and
* a stochastic model trained with optimal-transport conditional flow
  matching, sampled by integrating an ODE with a handful of Euler steps.

Everything runs on plain numpy via a small reverse-mode autodiff engine
in :mod:`durflow.numerics`.
"""

__version__ = "0.1.0"

from durflow.data import CorpusSpec, DurationCorpus, Sentence, generate, load, save
from durflow.duration import (
    DurationModel,
    LogDurations,
    SampleOptions,
    length_regulate,
    load_model,
    loss,
    quantisation_residual,
    save_model,
    to_frames,
)
from durflow.encoder import PhoneSequence, TextEncoder
from durflow.evaluation import (
    bench_sampling,
    corpus_frames,
    dist_stats,
    residual_vs_nfe,
    write_report,
)
from durflow.nn import CheckpointFormatError
from durflow.training import train_model

__all__ = [
    "CheckpointFormatError",
    "CorpusSpec",
    "DurationCorpus",
    "DurationModel",
    "LogDurations",
    "PhoneSequence",
    "SampleOptions",
    "Sentence",
    "TextEncoder",
    "bench_sampling",
    "corpus_frames",
    "dist_stats",
    "generate",
    "length_regulate",
    "load",
    "load_model",
    "loss",
    "quantisation_residual",
    "residual_vs_nfe",
    "save",
    "save_model",
    "to_frames",
    "train_model",
    "write_report",
]
