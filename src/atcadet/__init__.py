"""Environmental-sound deepfake detection with audio-text cross-attention.

The package covers the whole desk-scale experiment: a synthetic corpus of
real and faked field recordings, log-mel features, a hashing caption
embedder, a cross-attention + GRU detector trained by a tape-based
autodiff engine, EER scoring, and a stacked regression ensemble over base
detector scores.  ``atcadet.cli`` exposes every stage as a subcommand.
"""

from .corpus import CorpusConfig, GeneratorSpec, apply_fake, build_corpus, synth_real
from .dsp import FeatureMatrix, StftConfig, Waveform, load_wav, stft_logmel, write_wav
from .ensemble import StackConfig, StackedModel, fit_stacked, predict_stacked
from .errors import AtcadetError, DataError, UsageError
from .metrics import EerResult, Trial, compute_eer
from .model import (
    AtcaConfig,
    AtcaParams,
    count_params,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
)
from .text import CaptionSet, TextEmbedding, ToyEmbedderConfig, toy_embed
from .training import TrainConfig, TrainReport, ablate_text, score_protocol, train

__version__ = "0.1.0"

__all__ = [
    "AtcaConfig",
    "AtcaParams",
    "AtcadetError",
    "CaptionSet",
    "CorpusConfig",
    "DataError",
    "EerResult",
    "FeatureMatrix",
    "GeneratorSpec",
    "StackConfig",
    "StackedModel",
    "StftConfig",
    "TextEmbedding",
    "ToyEmbedderConfig",
    "TrainConfig",
    "TrainReport",
    "Trial",
    "UsageError",
    "Waveform",
    "ablate_text",
    "apply_fake",
    "build_corpus",
    "compute_eer",
    "count_params",
    "fit_stacked",
    "forward_batch",
    "load_checkpoint",
    "load_wav",
    "predict_stacked",
    "save_checkpoint",
    "score_protocol",
    "stft_logmel",
    "synth_real",
    "toy_embed",
    "train",
    "write_wav",
]
