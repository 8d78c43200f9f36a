"""Masked-language-model pre-training over bags of (lab code, lab value) pairs.

The package is organized bottom-up:

- ``tape``, ``optim``, ``attention``: numpy autodiff engine and layers
- ``ecdf``: empirical-CDF value transform and the two vocabularies
- ``corpus``: events, bags, masking, binary shards, synthetic data
- ``model``: the continuous model, the decile-token baseline, checkpoints
- ``training``: losses, pre-training loop, imputation evaluation
- ``finetune``: frozen-base fine-tuning, grid search, linear baselines
- ``cli``: the ``labmlm`` command
"""

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DecodeError,
    DimensionError,
    FormatError,
    LabMLMError,
    NumericError,
    VocabError,
)
from .tape import Tape, TapeTensor, backward

__all__ = [
    "Tape",
    "TapeTensor",
    "backward",
    "LabMLMError",
    "ConfigError",
    "ContractError",
    "DataError",
    "DecodeError",
    "DimensionError",
    "FormatError",
    "NumericError",
    "VocabError",
]

__version__ = "0.1.0"
