"""Environmental-sound deepfake detection with audio-text cross-attention.

The package covers the whole desk-scale experiment: a synthetic corpus of
real and faked field recordings, log-mel features, a hashing caption
embedder, a cross-attention + GRU detector trained by a tape-based
autodiff engine, EER scoring, and a stacked regression ensemble over base
detector scores.  ``atcadet.cli`` exposes every stage as a subcommand.
"""

__version__ = "0.1.0"
